//! `fuzz-campaign`: a fixed range of simfuzz seeds (rotating all seven
//! queues, fault knobs live), every history checked for
//! linearizability. Machines are many and tiny, so set-up and the
//! checker take the host time instead of the event loop; it is the only
//! workload that runs the four baselines and the fault paths.

use crate::util::{host_ns, median, Lat};
use crate::Run;
use coherence::{cycles_to_ns, Machine, Program, SimCtx};
use linearize::check_queue_linearizable;
use simfuzz::{run_plan, FuzzPlan, RunOutcome, FUZZ_QUEUES};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Seeds per campaign round: a multiple of the 7-queue rotation, so every
/// queue gets the same share of every range.
const SEEDS: u64 = 8 * FUZZ_QUEUES.len() as u64;

/// The campaign's seed range for benchmark seed `seed`.
fn seed_range(seed: u64) -> std::ops::Range<u64> {
    let base = seed.wrapping_mul(SEEDS);
    base..base + SEEDS
}

/// The fixed seed range of the fuzz layer probe (two per queue), which
/// `sbq-mixed-2s` runs in its traced run: see `probe`.
const PROBE_SEEDS: std::ops::Range<u64> = 0..2 * FUZZ_QUEUES.len() as u64;

/// Host time of the recording and the checking inside `run_plan`.
#[derive(Default)]
struct Split {
    record_ms: Vec<f64>,
    check_ms: Vec<f64>,
    run_ns: u64,
    check_ns: u64,
    events: u64,
    histories: u64,
}

impl Split {
    /// run_plan checks internally and returns only the verdict, so the
    /// returned history is checked again under its own span: that times
    /// the checker alone, and the rest of run_plan is recording. Returns
    /// the re-check's host ns.
    fn recheck(&mut self, r: &mut Run, plan: &FuzzPlan, out: &RunOutcome, run_ns: u64) -> u64 {
        let c0 = host_ns();
        let again = r.tracer.span("linearize.check_queue_linearizable", || {
            check_queue_linearizable(&out.history)
        });
        let Some(c) = r.checks.host_interval("check", c0, host_ns()) else {
            return 0;
        };
        r.checks.check(again.err() == out.violation, || {
            format!("fuzz: seed {} verdict differs on re-check", plan.seed)
        });
        self.check_ms.push(c as f64 / 1e6);
        self.record_ms.push((run_ns as f64 - c as f64) / 1e6);
        self.run_ns += run_ns;
        self.check_ns += c;
        self.events += out.history.len() as u64;
        self.histories += 1;
        c
    }

    fn emit(&self, m: &mut crate::util::Metrics) {
        m.layer("harness.record_ms_p50", median(&self.record_ms), "ms");
        m.layer("linearize.check_ms_p50", median(&self.check_ms), "ms");
        m.layer(
            "linearize.check_ms_max",
            self.check_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        m.layer(
            "linearize.share_pct",
            100.0 * self.check_ns as f64 / self.run_ns.max(1) as f64,
            "%",
        );
        m.layer(
            "linearize.events_per_history",
            self.events as f64 / self.histories.max(1) as f64,
            "count",
        );
    }
}

/// The fuzz layers' per-layer metrics on a fixed seed range, traced.
pub fn probe(r: &mut Run, rep: u64) {
    r.tracer.start_rep(rep, true);
    let mut split = Split::default();
    for seed in PROBE_SEEDS {
        let plan = FuzzPlan::derive(seed, None);
        let t0 = host_ns();
        let out = r.tracer.span("simfuzz.run_plan", || run_plan(&plan));
        let Some(d) = r.checks.host_interval("run_plan", t0, host_ns()) else {
            continue;
        };
        r.checks.check(out.violation.is_none(), || {
            format!(
                "fuzz probe: seed {seed} ({}): {:?}",
                plan.queue.name(),
                out.violation
            )
        });
        split.recheck(r, &plan, &out, d);
    }
    split.emit(&mut r.metrics);
}

pub fn run(r: &mut Run) {
    let plans: Vec<FuzzPlan> = seed_range(r.seed)
        .map(|s| FuzzPlan::derive(s, None))
        .collect();
    let mut fingerprints: Vec<Option<String>> = vec![None; plans.len()];
    let mut lat = Lat::default();
    let (mut end_cycles, mut events) = (0u64, 0u64);
    let (mut setup_s, mut seeds_per_s, mut kops) = (vec![], vec![], vec![]);
    let mut build_us = vec![];
    let mut stack_bytes = 0u64;
    let mut split = Split::default();
    let mut round_ns = [Vec::new(), Vec::new()];
    let deadline = host_ns() + (r.seconds * 1e9) as u64;
    let mut round = 0usize;
    while r.more(round, 1, deadline) {
        let traced = r.trace && round % 2 == 1;
        r.tracer.start_rep(round as u64, traced);
        let t_round = host_ns();
        // The set-up each seed pays before its first op: derive the plan,
        // build its machine, spawn its threads and meet at the start
        // barrier. run_plan does this inside; a probe run of the same
        // machine with empty programs times it from outside. (Components
        // are dropped: with no ops left to pace they would never retire.)
        let mut setup_ns = 0u64;
        for plan in &plans {
            let t0 = host_ns();
            let (build, rep, started) = r.tracer.span("coherence.Machine::run", || {
                let mut cfg = FuzzPlan::derive(plan.seed, None).machine();
                cfg.components.clear();
                let mut m = Machine::new(cfg);
                let build = host_ns();
                let started = Arc::new(AtomicU64::new(0));
                let programs = (0..plan.threads)
                    .map(|_| {
                        let started = Arc::clone(&started);
                        Box::new(move |ctx: &mut SimCtx| {
                            ctx.barrier();
                            let _ = started.compare_exchange(0, host_ns(), SeqCst, SeqCst);
                        }) as Program
                    })
                    .collect();
                let rep = m.run(Box::new(|_| {}), programs);
                (build, rep, started.load(SeqCst))
            });
            if let Some(d) = r.checks.host_interval("fuzz setup", t0, started) {
                setup_ns += d;
            }
            if let Some(d) = r.checks.host_interval("Machine::new", t0, build) {
                build_us.push(d as f64 / 1e3);
            }
            stack_bytes = stack_bytes.max(rep.stats.stack_bytes_total);
        }
        setup_s.push(setup_ns as f64 / 1e9);

        let (mut ran_ns, mut ops, mut rechecked_ns) = (0u64, 0u64, 0u64);
        for (i, plan) in plans.iter().enumerate() {
            let t0 = host_ns();
            let out = r.tracer.span("simfuzz.run_plan", || run_plan(plan));
            let t1 = host_ns();
            let Some(d) = r.checks.host_interval("run_plan", t0, t1) else {
                continue;
            };
            ran_ns += d;
            ops += out.history.len() as u64;
            r.checks.check(out.violation.is_none(), || {
                format!(
                    "fuzz: seed {} ({}): {:?}",
                    plan.seed,
                    plan.queue.name(),
                    out.violation
                )
            });
            match &fingerprints[i] {
                None => fingerprints[i] = Some(out.fingerprint.clone()),
                Some(f0) => r.checks.check(*f0 == out.fingerprint, || {
                    format!(
                        "fuzz: seed {} fingerprint changed between rounds",
                        plan.seed
                    )
                }),
            }
            if round == 0 {
                for e in &out.history {
                    lat.record(e.invoke, e.ret);
                }
                end_cycles += out.end_time;
                events += out.history.len() as u64;
            }
            if traced {
                rechecked_ns += split.recheck(r, plan, &out, d);
            }
        }
        if !traced {
            seeds_per_s.push(plans.len() as f64 / (ran_ns as f64 / 1e9));
            kops.push(ops as f64 / (ran_ns as f64 / 1e9) / 1e3);
        }
        // The re-checks are extra work, not tracing cost.
        if let Some(d) = r.checks.host_interval("fuzz round", t_round, host_ns()) {
            round_ns[traced as usize].push(d as f64 - rechecked_ns as f64);
        }
        round += 1;
    }
    r.checks
        .intervals("fuzz history intervals", lat.total, lat.bad);

    let m = &mut r.metrics;
    m.e2e("setup_s", median(&setup_s), "s");
    m.e2e("host_kops_per_s", median(&kops), "kops/s");
    m.e2e(
        "sim_ns_per_op",
        cycles_to_ns(end_cycles) / events as f64,
        "ns",
    );
    m.e2e("sim_op_p50_ns", cycles_to_ns(lat.percentile(0.5)), "ns");
    m.e2e("sim_op_p99_ns", cycles_to_ns(lat.percentile(0.99)), "ns");
    m.extra("fuzz_seeds_per_s", median(&seeds_per_s), "seeds/s");
    m.extra("reps", round as f64, "count");

    m.layer("coherence.build_us", median(&build_us), "us");
    m.layer(
        "coherence.stack_mib",
        stack_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    split.emit(m);
    r.overhead(&round_ns);
}
