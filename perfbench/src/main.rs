//! The repository benchmark's measuring program. `perfbench/run.py` builds
//! it and runs one workload per child process:
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! perfbench metrics      # the declared metrics, one `group name unit` per line
//! ```
//!
//! `run` prints one JSON object as its last line: the checks attempted
//! and failed, and every metric of the workload by group. A traced run
//! also writes the layer spans as Chrome trace-event JSON into `--out`.

mod fuzz;
mod hotword;
mod mixed;
mod service;
mod trace;
mod util;

use obs::{SpanKind, ThreadLog};
use std::process::ExitCode;
use trace::Tracer;
use util::{host_ns, jgroup, jstr, median, Checks, Metrics};

pub const WORKLOADS: [&str; 4] = [
    "hotword-44",
    "sbq-mixed-2s",
    "service-open-loop",
    "fuzz-campaign",
];

/// End-to-end metrics every workload reports (timed runs, tracing off).
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("host_kops_per_s", "kops/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ns_per_op", "ns"),
    ("sim_op_p50_ns", "ns"),
    ("sim_op_p99_ns", "ns"),
];

/// Per-layer metrics every traced run reports. A layer a workload does
/// not exercise reports 0.
pub const LAYER: [(&str, &str); 35] = [
    ("coherence.events_per_op", "count"),
    ("coherence.host_ns_per_event", "ns"),
    ("coherence.sched_ns_per_op", "ns"),
    ("coherence.msgs_per_op", "count"),
    ("coherence.getm_per_op", "count"),
    ("coherence.inv_per_op", "count"),
    ("coherence.fwd_per_op", "count"),
    ("coherence.stalls_per_op", "count"),
    ("coherence.cross_hops_per_op", "count"),
    ("coherence.build_us", "us"),
    ("coherence.stack_mib", "MiB"),
    ("htm.commit_ratio", "ratio"),
    ("htm.aborts_per_op", "count"),
    ("htm.tripped_per_kop", "count"),
    ("sbq.txcas_fail_per_op", "count"),
    ("sbq.txcas_retries_per_op", "count"),
    ("sbq.txcas_fallbacks", "count"),
    ("sbq.atomics_per_op", "count"),
    ("sbq.deq_empty_ratio", "ratio"),
    ("absmem.native_enq_ns_p50", "ns"),
    ("absmem.native_deq_ns_p50", "ns"),
    ("harness.native_run_overhead_us", "us"),
    ("harness.record_ms_p50", "ms"),
    ("linearize.check_ms_p50", "ms"),
    ("linearize.check_ms_max", "ms"),
    ("linearize.share_pct", "%"),
    ("linearize.events_per_history", "count"),
    ("loadgen.arrivals_ms", "ms"),
    ("loadgen.enq_p50_ns", "ns"),
    ("loadgen.service_p99_us", "us"),
    ("loadgen.max_depth_ingress", "count"),
    ("loadgen.achieved_ratio", "ratio"),
    ("obs.span_ns", "ns"),
    ("obs.export_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Environment knobs that change what the programs under test do
/// (`SBQ_FAST_PATH` silently changes `MachineConfig::default()`).
pub const KNOBS: [&str; 5] = [
    "SBQ_FAST_PATH",
    "SBQ_OPS",
    "SBQ_THREADS",
    "SBQ_JOBS",
    "SBQ_NUMA_GRID",
];

/// One workload run: its inputs, checks, metrics and trace.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Host ns of busy-work added per hotword TxCAS op (self-test only).
    pub plant_ns: u64,
    pub tracer: Tracer,
    pub checks: Checks,
    pub metrics: Metrics,
    /// obs logs kept from traced reps (bounded), exported at the end.
    obs_logs: Vec<ThreadLog>,
    /// Host-time op spans from native threads: (thread, kind, start, end).
    thread_spans: Vec<(usize, &'static str, u64, u64)>,
    /// `VmHWM` once the workload's fixed first reps are done, MiB.
    rss_mib: Option<f64>,
}

/// Upper bound on obs events kept for the export measurement and trace.
const KEEP_EVENTS: usize = 100_000;

impl Run {
    /// Whether the rep loop goes on: at least `min_reps` reps, then until
    /// the measuring time is up. Peak RSS is read when the `min_reps`
    /// are done, so it reflects a fixed amount of work however many reps
    /// the host manages (a per-run leak would otherwise make it a
    /// measure of host speed).
    pub fn more(&mut self, rep: usize, min_reps: usize, deadline: u64) -> bool {
        if rep == min_reps && self.rss_mib.is_none() {
            self.rss_mib = Some(util::peak_rss_mib());
        }
        rep < min_reps || host_ns() < deadline
    }

    /// Keeps a traced rep's obs logs for the export measurement.
    pub fn keep_obs_logs(&mut self, logs: Vec<ThreadLog>) {
        let kept: usize = self.obs_logs.iter().map(|l| l.events.len()).sum();
        if kept < KEEP_EVENTS {
            self.obs_logs.extend(logs);
        }
    }

    /// Keeps a traced rep's host-clock native op spans, for the trace
    /// file's thread tracks and the export measurement.
    pub fn add_thread_logs(&mut self, sink: &obs::ObsSink) {
        let logs = sink.take_logs();
        if self.thread_spans.len() < KEEP_EVENTS {
            for l in &logs {
                for e in &l.events {
                    if let obs::ObsEvent::Span {
                        kind, start, end, ..
                    } = *e
                    {
                        self.thread_spans.push((l.tid, kind.name(), start, end));
                    }
                }
            }
        }
        self.keep_obs_logs(logs);
    }

    /// Tracing overhead from whole-rep host times of untraced (`[0]`)
    /// and traced (`[1]`) reps of one traced run.
    pub fn overhead(&mut self, rep_ns: &[Vec<f64>; 2]) {
        if self.trace {
            let (u, t) = (median(&rep_ns[0]), median(&rep_ns[1]));
            self.metrics
                .layer("obs.trace_overhead_pct", 100.0 * (t / u - 1.0), "%");
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench run --workload <{}> --seed <n> --seconds <s> --trace <0|1> --out <dir>\n       perfbench metrics",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    host_ns();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("metrics") => {
            for (n, u) in E2E {
                println!("e2e {n} {u}");
            }
            for (n, u) in LAYER {
                println!("layer {n} {u}");
            }
            ExitCode::SUCCESS
        }
        Some("run") => run_cmd(&args[1..]),
        _ => usage(),
    }
}

fn run_cmd(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut plant_ns = 0u64;
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(v) = it.next() else { return usage() };
        match k.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| **w == v).copied(),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            "--out" => out = Some(std::path::PathBuf::from(v)),
            "--plant-slowdown-ns" => match v.parse() {
                Ok(n) => plant_ns = n,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(out)) =
        (workload, seed, seconds, trace, out)
    else {
        return usage();
    };
    if let Some(k) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("perfbench: refusing to run with {k} set: it changes the programs under test");
        return ExitCode::from(2);
    }
    let mut r = Run {
        seed,
        seconds,
        trace,
        plant_ns,
        tracer: Tracer::new(),
        checks: Checks::default(),
        metrics: Metrics::default(),
        obs_logs: Vec::new(),
        thread_spans: Vec::new(),
        rss_mib: None,
    };
    match workload {
        "hotword-44" => hotword::run(&mut r),
        "sbq-mixed-2s" => mixed::run(&mut r),
        "service-open-loop" => service::run(&mut r),
        _ => fuzz::run(&mut r),
    }
    let rss = r.rss_mib.unwrap_or_else(util::peak_rss_mib);
    r.metrics.e2e("peak_rss_mib", rss, "MiB");
    if trace {
        finish_trace(&mut r, workload, &out);
        for (n, u) in LAYER {
            r.metrics.layer.entry(n.to_string()).or_insert((0.0, u));
        }
    }
    let c = &r.checks;
    let errors: Vec<String> = c.errors.iter().map(|e| jstr(e)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"e2e\": {}, \"extra\": {}, \"layer\": {}}}",
        jstr(workload),
        c.attempted,
        c.failed,
        errors.join(", "),
        jgroup(&r.metrics.e2e),
        jgroup(&r.metrics.extra),
        jgroup(&r.metrics.layer),
    );
    ExitCode::SUCCESS
}

/// The traced run's tail: obs recording and export costs, the layer
/// self-time split, and the Chrome trace file.
fn finish_trace(r: &mut Run, workload: &str, out: &std::path::Path) {
    // obs span recording cost: spans into a ThreadObs ring, as every
    // instrumented layer records them.
    const N: u64 = 200_000;
    let sink = obs::ObsSink::new(N as usize);
    let mut t = sink.thread(0);
    let t0 = host_ns();
    for i in 0..N {
        t.span(SpanKind::Op, i, i + 1, i);
    }
    let t1 = host_ns();
    std::hint::black_box(&t);
    if let Some(d) = r.checks.host_interval("obs span loop", t0, t1) {
        r.metrics.layer("obs.span_ns", d as f64 / N as f64, "ns");
    }
    r.tracer.start_rep(u64::MAX, true);
    let e0 = host_ns();
    let tsv = r
        .tracer
        .span("obs.export_tsv", || obs::export_tsv(&r.obs_logs));
    std::hint::black_box(tsv);
    if let Some(d) = r.checks.host_interval("obs export", e0, host_ns()) {
        r.metrics.layer("obs.export_ms", d as f64 / 1e6, "ms");
    }

    let layers = r.tracer.layers(&mut r.checks);
    for (name, l) in &layers {
        r.metrics
            .extra(&format!("self_ms.{name}"), l.self_ns as f64 / 1e6, "ms");
        r.metrics
            .extra(&format!("count.{name}"), l.count as f64, "count");
        r.metrics
            .extra(&format!("total_ms.{name}"), l.total_ns as f64 / 1e6, "ms");
    }
    let bad = r.thread_spans.iter().filter(|&&(_, _, s, e)| e < s).count() as u64;
    r.checks
        .intervals("native op spans", r.thread_spans.len() as u64, bad);
    let doc = r.tracer.chrome_json(
        &format!("perfbench {workload} seed {}", r.seed),
        &r.thread_spans,
    );
    let valid = obs::validate(&doc);
    r.checks
        .check(valid.is_ok(), || format!("trace: {:?}", valid.err()));
    let path = out.join(format!("trace-{workload}-seed{}.json", r.seed));
    let wrote = std::fs::create_dir_all(out).and_then(|_| std::fs::write(&path, doc));
    r.checks.check(wrote.is_ok(), || {
        format!("trace: writing {}: {:?}", path.display(), wrote.err())
    });
}
