//! Wall-clock scheduler benchmark: how many *simulated* operations per
//! second of host time the machine sustains.
//!
//! The simulator's figures measure simulated time; this module measures
//! the cost of producing it. Every program-level operation crosses the
//! program-thread/scheduler boundary once, so ops/sec of wall time is a
//! direct read on scheduler handshake plus hot-loop overhead.
//!
//! Two fixed workload shapes, chosen to bracket the scheduler's load:
//!
//! * `fig1_faa` — every thread FAAs one shared word (Figure 1's FAA
//!   curve). Almost zero per-op simulation work, so the handshake
//!   dominates: this is the scheduler stress test.
//! * `fig5_sbq_producer` — SBQ-HTM producers fill an empty queue
//!   (Figure 5's headline series). Realistic mix of reads, FAAs, and
//!   HTM transactions: this is the end-to-end number.
//!
//! `simctl bench` drives this and writes `BENCH_sim.json`; pass
//! `baseline=FILE.tsv` (a previous `tsv-out=` capture) to embed a
//! before/after comparison with per-point speedups.

use crate::workload::{
    numa_workload, paper_workload, run_workload, run_workload_native, NumaShape, WorkloadKind,
};
use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use harness::QueueKind;
use obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

/// One measured workload shape.
#[derive(Debug, Clone)]
pub struct WallPoint {
    pub name: String,
    pub threads: usize,
    /// Program-level operations in the measured run.
    pub total_ops: u64,
    /// Best-of-reps wall-clock duration, nanoseconds.
    pub wall_ns: u64,
    /// Simulated operations per second of host time.
    pub ops_per_sec: f64,
    /// Rep wall-time distribution (ns) from the log-bucketed histogram
    /// over *all* reps — best-of alone hides scheduler jitter. Always
    /// `p50 <= p99 <= max` (`simctl bench-check` enforces this on the
    /// emitted JSON).
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    /// Scheduler events dispatched — the engine-work denominator behind
    /// `ops_per_sec` (identical across reps — the workload is
    /// deterministic).
    pub sim_events: u64,
}

impl WallPoint {
    /// A point from a single wall-time sample (also the legacy-TSV
    /// fallback): the distribution collapses onto that sample.
    fn new(name: &str, threads: usize, total_ops: u64, wall_ns: u64) -> Self {
        WallPoint {
            name: name.to_string(),
            threads,
            total_ops,
            wall_ns,
            ops_per_sec: total_ops as f64 / (wall_ns.max(1) as f64 / 1e9),
            p50_ns: wall_ns,
            p99_ns: wall_ns,
            max_ns: wall_ns,
            sim_events: 0,
        }
    }

    /// A point from the full rep histogram: throughput from the best rep
    /// (the least-perturbed run), tail fields from the distribution.
    fn from_hist(name: &str, threads: usize, total_ops: u64, h: &Histogram) -> Self {
        let mut p = WallPoint::new(name, threads, total_ops, h.min());
        p.p50_ns = h.p50();
        p.p99_ns = h.p99();
        p.max_ns = h.max();
        p
    }
}

/// Figure-1-shaped scheduler stress: `threads` cores FAA one shared word
/// `ops` times each. Jitter and invariant checks are off so the run is
/// deterministic and the handshake dominates. Returns the run's
/// scheduler event count.
fn faa_hammer(threads: usize, ops: u64) -> u64 {
    let mut cfg = MachineConfig::single_socket(threads);
    cfg.check_invariants = false;
    cfg.delay_jitter_pct = 0;
    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                ctx.barrier();
                for _ in 0..ops {
                    ctx.faa(a, 1);
                }
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let report = Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            s2.store(a, SeqCst);
        }),
        programs,
    );
    report.stats.events
}

/// Times `reps` runs of `f` and returns the wall-time histogram (ns) —
/// best-of comes out as `min()`, the tail as `p99()`/`max()`.
fn sample_reps<F: FnMut()>(reps: u32, mut f: F) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        h.record(t0.elapsed().as_nanos() as u64);
    }
    h
}

/// Runs both fixed shapes, `reps` times each, keeping the full rep
/// wall-time distribution per point.
pub fn run_points(scale: u64, reps: u32) -> Vec<WallPoint> {
    run_points_jobs(scale, reps, 1).0
}

/// [`run_points`] with each point as one job on a `jobs`-worker
/// [`runner`] pool. Point order (and hence TSV/JSON structure) is the
/// submission order regardless of worker count; with `jobs > 1` the
/// points contend for host cores, so the wall-time *values* are noisier
/// — best-of-`reps` absorbs most of it, and the distribution fields
/// still satisfy the `bench-check` ordering invariant by construction.
pub fn run_points_jobs(scale: u64, reps: u32, jobs: usize) -> (Vec<WallPoint>, runner::JobReport) {
    let tasks: Vec<Box<dyn FnOnce() -> WallPoint + Send>> = vec![
        Box::new(move || {
            let (threads, ops) = (8usize, 2_500 * scale);
            let mut events = 0;
            let h = sample_reps(reps, || events = faa_hammer(threads, ops));
            let mut p = WallPoint::from_hist("fig1_faa", threads, threads as u64 * ops, &h);
            p.sim_events = events;
            p
        }),
        Box::new(move || {
            let (threads, ops) = (8usize, 400 * scale);
            let mut w = paper_workload(WorkloadKind::ProducerOnly, threads, ops);
            w.machine.delay_jitter_pct = 0;
            let mut events = 0;
            let h = sample_reps(reps, || {
                events = run_workload(QueueKind::SbqHtm, &w).sim_events;
            });
            let mut p =
                WallPoint::from_hist("fig5_sbq_producer", threads, threads as u64 * ops, &h);
            p.sim_events = events;
            p
        }),
        Box::new(move || {
            // Paper-scale NUMA point: 88 cores on two sockets, producers
            // on socket 0, consumers on socket 1, directory homes
            // hash-interleaved. This is the engine's scale stress — the
            // wall cost of the machine the figures now sweep.
            let (threads, ops) = (88usize, 24 * scale);
            let mut w = numa_workload(NumaShape::CrossSplit, 2, threads, ops);
            w.machine.delay_jitter_pct = 0;
            let mut events = 0;
            let h = sample_reps(reps, || {
                events = run_workload(QueueKind::SbqHtm, &w).sim_events;
            });
            let mut p =
                WallPoint::from_hist("fig_numa_88_cross", threads, threads as u64 * ops, &h);
            p.sim_events = events;
            p
        }),
    ];
    runner::run_all(jobs, tasks)
}

/// Native wall-clock series: every queue kind fills a queue from
/// `threads` real OS threads, best-of-`reps` host time. Unlike the
/// simulated points these measure the *queues themselves* on hardware
/// atomics (no scheduler in the loop), so `ops_per_sec` here is real
/// queue throughput, not simulation speed.
pub fn native_points(scale: u64, reps: u32) -> Vec<WallPoint> {
    native_points_jobs(scale, reps, 1).0
}

/// [`native_points`] with each queue kind as one pool job. Note the
/// native points already use `threads` OS threads *inside* each job, so
/// oversubscription compounds quickly — `jobs` here trades measurement
/// quality for wall time more steeply than the simulated series.
pub fn native_points_jobs(
    scale: u64,
    reps: u32,
    jobs: usize,
) -> (Vec<WallPoint>, runner::JobReport) {
    let (threads, ops) = (4usize, 400 * scale);
    let tasks: Vec<_> = QueueKind::ALL
        .iter()
        .map(|&kind| {
            move || {
                let w = paper_workload(WorkloadKind::ProducerOnly, threads, ops);
                let h = sample_reps(reps, || {
                    run_workload_native(kind, &w);
                });
                WallPoint::from_hist(
                    &format!("native_{}", kind.name().to_lowercase().replace('-', "")),
                    threads,
                    threads as u64 * ops,
                    &h,
                )
            }
        })
        .collect();
    runner::run_all(jobs, tasks)
}

/// TSV rendering — also the `baseline=` interchange format.
pub fn to_tsv(points: &[WallPoint]) -> String {
    let mut s = String::from(
        "name\tthreads\ttotal_ops\twall_ns\tops_per_sec\tp50_ns\tp99_ns\tmax_ns\tsim_events\n",
    );
    for p in points {
        s.push_str(&format!(
            "{}\t{}\t{}\t{}\t{:.0}\t{}\t{}\t{}\t{}\n",
            p.name,
            p.threads,
            p.total_ops,
            p.wall_ns,
            p.ops_per_sec,
            p.p50_ns,
            p.p99_ns,
            p.max_ns,
            p.sim_events
        ));
    }
    s
}

/// Parses a `to_tsv` capture back into points. The first four columns
/// are fixed; the rest are found by header name, so older captures still
/// parse — those predating the percentile columns collapse their
/// distribution onto `wall_ns`, and columns this build no longer writes
/// are ignored.
pub fn from_tsv(s: &str) -> Option<Vec<WallPoint>> {
    let mut lines = s.lines();
    let header: Vec<&str> = lines.next()?.split('\t').collect();
    let col = |name: &str| header.iter().position(|&h| h == name);
    let (p50, p99, max, events) = (
        col("p50_ns"),
        col("p99_ns"),
        col("max_ns"),
        col("sim_events"),
    );
    let mut out = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() < 4 {
            return None;
        }
        let mut p = WallPoint::new(
            f[0],
            f[1].parse().ok()?,
            f[2].parse().ok()?,
            f[3].parse().ok()?,
        );
        let field = |c: Option<usize>, default: u64| match c {
            Some(i) => f.get(i)?.parse().ok(),
            None => Some(default),
        };
        p.p50_ns = field(p50, p.p50_ns)?;
        p.p99_ns = field(p99, p.p99_ns)?;
        p.max_ns = field(max, p.max_ns)?;
        p.sim_events = field(events, 0)?;
        out.push(p);
    }
    Some(out)
}

fn json_points(points: &[WallPoint], indent: &str) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{indent}{{\"name\": \"{}\", \"threads\": {}, \"total_ops\": {}, \
                 \"wall_ns\": {}, \"sim_ops_per_sec\": {:.0}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"sim_events\": {}}}",
                p.name,
                p.threads,
                p.total_ops,
                p.wall_ns,
                p.ops_per_sec,
                p.p50_ns,
                p.p99_ns,
                p.max_ns,
                p.sim_events
            )
        })
        .collect();
    rows.join(",\n")
}

/// Renders the `BENCH_sim.json` document. `baseline`, when present, is a
/// prior capture (typically the pre-rewrite scheduler) and per-point
/// speedups are included.
pub fn to_json(
    label: &str,
    points: &[WallPoint],
    baseline: Option<(&str, &[WallPoint])>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"sbq-wallbench-v1\",\n");
    s.push_str(&format!("  \"scheduler\": \"{label}\",\n"));
    s.push_str("  \"points\": [\n");
    s.push_str(&json_points(points, "    "));
    s.push_str("\n  ]");
    if let Some((blabel, bpoints)) = baseline {
        s.push_str(",\n  \"baseline\": {\n");
        s.push_str(&format!("    \"scheduler\": \"{blabel}\",\n"));
        s.push_str("    \"points\": [\n");
        s.push_str(&json_points(bpoints, "      "));
        s.push_str("\n    ]\n  },\n  \"speedup\": {");
        let mut first = true;
        let mut min_speedup = f64::INFINITY;
        for p in points {
            if let Some(b) = bpoints.iter().find(|b| b.name == p.name) {
                let sp = p.ops_per_sec / b.ops_per_sec.max(1.0);
                min_speedup = min_speedup.min(sp);
                if !first {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {sp:.2}", p.name));
                first = false;
            }
        }
        if min_speedup.is_finite() {
            if !first {
                s.push_str(", ");
            }
            s.push_str(&format!("\"min\": {min_speedup:.2}"));
        }
        s.push('}');
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, sim_events: u64) -> WallPoint {
        let mut p = WallPoint::new(name, 8, 20_000, 5_000_000);
        (p.p50_ns, p.p99_ns, p.max_ns) = (5_100_000, 5_900_000, 6_000_000);
        p.sim_events = sim_events;
        p
    }

    #[test]
    fn tsv_round_trips_with_sim_events_in_the_ninth_column() {
        let points = [
            point("fig1_faa", 120_031),
            point("fig5_sbq_producer", 288_987),
        ];
        let tsv = to_tsv(&points);
        let header: Vec<&str> = tsv.lines().next().unwrap().split('\t').collect();
        assert_eq!(header.len(), 9);
        assert_eq!(header[8], "sim_events");
        let row: Vec<&str> = tsv.lines().nth(1).unwrap().split('\t').collect();
        assert_eq!(row[8], "120031");

        let back = from_tsv(&tsv).expect("own capture parses");
        assert_eq!(back.len(), points.len());
        for (a, b) in points.iter().zip(&back) {
            assert_eq!(
                (&a.name, a.threads, a.total_ops, a.wall_ns),
                (&b.name, b.threads, b.total_ops, b.wall_ns)
            );
            assert_eq!(
                (a.p50_ns, a.p99_ns, a.max_ns),
                (b.p50_ns, b.p99_ns, b.max_ns)
            );
            assert_eq!(a.sim_events, b.sim_events);
        }
    }

    #[test]
    fn committed_five_column_baseline_still_parses() {
        let points = from_tsv(include_str!("../../../BENCH_baseline.tsv")).expect("parses");
        let names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["fig1_faa", "fig5_sbq_producer"]);
        for p in &points {
            assert_eq!(
                (p.p50_ns, p.p99_ns, p.max_ns),
                (p.wall_ns, p.wall_ns, p.wall_ns)
            );
            assert_eq!(p.sim_events, 0);
        }
    }

    #[test]
    fn retired_columns_in_an_older_capture_are_skipped_by_name() {
        let tsv = "name\tthreads\ttotal_ops\twall_ns\tops_per_sec\tp50_ns\tp99_ns\tmax_ns\
                   \tretired_a\tretired_b\tsim_events\n\
                   fig1_faa\t8\t20000\t5908653\t3384866\t6029312\t7864320\t7980009\t0\t20001\t120031\n";
        let p = &from_tsv(tsv).expect("parses")[0];
        assert_eq!(
            (p.p50_ns, p.max_ns, p.sim_events),
            (6_029_312, 7_980_009, 120_031)
        );
    }
}
