//! simctl — run one queue workload with custom parameters, printing the
//! measurement as TSV, or any of the repo's experiments (figures, wall
//! bench, fuzzing, load sweeps, scenarios) by subcommand.
//!
//! ```text
//! simctl <queue> <workload> <threads> [key=value ...]
//!
//! queues:    sbq-htm | sbq-cas | bq | wf | cc | ms
//! workloads: producer | consumer | mixed
//! keys:      ops (per thread)        default 200
//!            backend (sim|native)    default sim
//!            hop (intra-socket, cy)  default 25
//!            hop-cross (cycles)      default 110
//!            delay (TxCAS intra, cy) default 600
//!            basket (capacity)       default max(44, threads)
//!            fix (0/1 microarch fix) default 0
//!            seed                    default 0x5b90
//!            sockets (topology)      default from workload (1 or 2)
//!            policy (fixed|interleave|first-touch)  directory homes
//! ```
//!
//! Example: `simctl sbq-htm producer 44 ops=300 delay=900`
//!
//! `sockets=` reshapes the machine onto that many sockets (cores spread
//! evenly) and, unless `policy=` pins one, hash-interleaves the
//! directory homes across them; the output's `hops_intra`/`hops_cross`/
//! `dir_cross` columns say where the interconnect traffic went.
//! `simctl sbq-htm producer 176 sockets=4` is a paper-scale quad-socket
//! point.
//!
//! With `backend=native` the workload runs on real OS threads and
//! hardware atomics instead of the simulator; the machine keys (`hop`,
//! `hop-cross`, `fix`, `seed`) then have no effect and the HTM counters
//! read zero.
//!
//! `simctl bench [key=value ...]` instead runs the fixed wall-clock
//! scheduler benchmark and writes `BENCH_sim.json` (see
//! [`bench::wallbench`]). Keys:
//!
//! ```text
//! scale    workload size multiplier        default 1
//! reps     runs per point (best kept)      default 3
//! label    scheduler label in the JSON     default "current"
//! out      JSON output path                default BENCH_sim.json
//! tsv-out  also write the TSV capture here (optional)
//! baseline prior TSV capture to compare against (optional)
//! native   also run the native wall-clock series (0/1, default 0)
//! jobs     worker threads for the point pool; 0 = auto    default 1
//! runner-trace  write the pool's utilization Chrome trace here (optional)
//! ```
//!
//! The points run as independent jobs on a [`runner`] pool and merge in
//! submission order, so the TSV/JSON structure is identical for any
//! `jobs` value; with `jobs > 1` the points contend for host cores, so
//! `bench` defaults to the undisturbed serial measurement.
//!
//! `simctl fig <name|all> [key=value ...]` regenerates one of the
//! paper's figures (or all of them, in order) as TSV — the one front
//! door to the [`bench::fig`] drivers. Names: `fig1 fig2 fig3 fig5 fig6
//! fig7 speedups ablate-delay ablate-fix ablate-basket ablate-deq
//! fig-numa` (or `numa`). Keys:
//!
//! ```text
//! ops      measured ops per thread       default per figure (fig1 300, fig-numa 120, ...)
//! threads  comma-separated sweep; single-point figures use its last entry
//!                                        default per figure (1,2,4,...,44 for fig1/fig5-7)
//! grid     sockets x threads list (fig-numa)  default 1x44,2x88,4x176
//! jobs     sweep points in parallel; 0 = auto default 0
//! out      also write the TSV here (optional)
//! ```
//!
//! `ops` and every `threads` entry must be positive. `fig numa` emits
//! two tables over the grid: the Figure-1 FAA-vs-TxCAS crossover on
//! multi-socket machines (with cross-socket hop counts per run) and the
//! NUMA scenario family (socket-local / cross-split / skewed-hops),
//! SBQ-HTM vs SBQ-CAS with the hop split. The output is a pure function
//! of the keys — byte-identical for any `jobs`.
//!
//! `simctl trace <queue> <workload> <threads> [key=value ...]` runs the
//! workload once with observability attached and writes a Chrome
//! trace-event JSON document (open in Perfetto or `chrome://tracing`).
//! It accepts every single-run key above plus:
//!
//! ```text
//! out      trace output path    default TRACE_<queue>_<backend>.json
//! tsv-out  also write the span TSV here (optional)
//! ```
//!
//! On the simulator the document additionally carries the coherence
//! message trace (a `Dir` track plus per-core message/HTM instants) and
//! is byte-identical across runs of the same configuration; on native
//! only the per-thread op spans exist. The document is validated against
//! the trace schema before it is written.
//!
//! `simctl trace-validate <file>` re-validates any such document and
//! prints a summary (exit 1 if invalid); `simctl bench-check <file>`
//! checks a `BENCH_sim.json` for the per-point latency-distribution
//! fields (`p50_ns <= p99_ns <= max_ns`, exit 1 on violation). With
//! `against=COMMITTED.json` it is also the performance gate: every
//! point shared with the committed document must sustain at least
//! `1 - max-regress/100` (default 15%) of its committed
//! `sim_ops_per_sec`, exit 1 on regression.
//!
//! `simctl fuzz [options]` runs a [`simfuzz`] campaign — randomized
//! workloads with fault injection, every history linearizability-checked;
//! failures are shrunk and written as replayable artifacts. Options
//! (`--key value`, `--key=value` or `key=value`):
//!
//! ```text
//! --seeds N        consecutive seeds to run     default 64
//! --start N        first seed                   default 0
//! --queue K        pin one queue (else rotate over all implementations)
//! --backend B      sim (default) or native; native runs each plan on
//!                  real threads AND on the simulator, cross-checking
//!                  linearizability and the drained dequeue multisets
//! --artifacts D    reproducer output directory  default fuzz-artifacts
//! --jobs N         worker threads for the seed pool; 0 = auto
//!                  (the host parallelism)               default auto
//! --runner-trace F write the pool's utilization Chrome trace to F
//! --repro FILE     replay one artifact instead of running a campaign
//! ```
//!
//! Seeds run as independent jobs on a [`runner`] pool and merge in seed
//! order, so the report, artifact files, and exit status are identical
//! for any `--jobs` value — only the wall time changes.
//!
//! Exit status: campaigns exit 1 if any seed failed; `--repro` exits 1
//! if the artifact no longer reproduces its recorded violation kind.
//! Each shrunk failure also gets a `<artifact>.trace` Chrome trace of
//! the violating run, written beside the `.repro`.
//!
//! `simctl load <queue> [key=value ...]` runs an open-loop load sweep
//! (see [`loadgen`]): seeded arrivals flow through ingress → worker
//! pool → egress with both stage boundaries backed by the chosen queue,
//! one run per offered rate, and the saturation knee (first point whose
//! e2e p99 exceeds the SLO or whose ingress depth diverges) is
//! detected. The curve prints as TSV; `out=` also writes the
//! `sbq-loadgen-v1` JSON document. Keys:
//!
//! ```text
//! backend  sim (default) or native
//! pattern  poisson | bursty:ON:OFF | diurnal:LOW:HIGH:PERIOD   default poisson
//! rate     one offered rate, rps (repeatable)
//! rates    comma-separated rate ladder, rps
//!          (no rate/rates: auto ladder at capacity × 1/4..2)
//! requests total requests per point           default 256
//! sources / workers / egress   stage threads  default 1 / 2 / 1
//! service  mean service time, cycles          default 1500
//! jitter   per-request service jitter, %      default 0
//! poll     empty-poll back-off, cycles        default 200
//! seed     arrival/jitter seed                default 0x10ad
//! slo-p99  e2e p99 SLO, ns (0 disables)       default 0
//! depth-slo ingress depth budget (0 = auto requests/4, min 16)
//! jobs     rate points in parallel; 0 = auto  default 1
//! out      write the JSON document here (optional)
//! tsv-out  also write the TSV here (optional)
//! ```
//!
//! On the simulator the TSV/JSON output is a pure function of the plan:
//! byte-identical across repeats and across `jobs` values (neither job
//! count nor wall-clock time appears in the artifact). `simctl
//! load-check <file.json>` validates such a document: schema tag,
//! ordered percentiles per point, full completion, and a knee that
//! points at an actual probed rate (exit 1 on violation).
//!
//! `simctl scenario <preempt|timer|dma> [key=value ...]` runs one
//! component-actor scenario (see [`harness::scenario`]) on the
//! simulator: a periodic interrupt source preempting workers, a
//! timer-paced consumer, or a DMA-style bulk enqueuer on a divided
//! clock. The run records a linearizability-checked history and prints
//! a deterministic key=value summary — byte-identical across repeats of
//! the same spec, which is what the `component-smoke` CI job diffs.
//! Exit 1 on a linearizability violation. Keys:
//!
//! ```text
//! queue    queue under test                   default sbq-htm
//! workers  worker threads                     default 3
//! ops      ops per worker                     default 24
//! period   interrupt/tick period, cycles      default 1500
//! cost     interrupt handler cost (preempt)   default 150
//! batch    burst size (dma)                   default 4
//! divider  gate clock divider (dma)           default 2
//! seed     machine RNG seed                   default 1
//! out      write the summary here (optional)
//! trace-out  write a validated Chrome trace here (optional)
//! ```
//!
//! Every subcommand reads its `key=value` arguments through one parser:
//! a missing `=`, an unknown key or a malformed value names the key and
//! exits 2, and `jobs=0` means the host's parallelism wherever a `jobs`
//! key exists.

use bench::workload::{
    paper_workload, run_workload, run_workload_native, trace_workload, Workload, WorkloadKind,
};
use harness::{run_scenario, ActorFamily, BackendKind, QueueKind, QueueParams, ScenarioSpec};
use loadgen::{ArrivalPattern, LoadPlan, SweepSpec};
use std::num::{NonZeroU64, NonZeroUsize};
use std::str::FromStr;

const HELP: &str = "simctl — run queue experiments from the command line

usage:
  simctl <queue> <workload> <threads> [key=value ...]
      one closed-loop workload point (queues: sbq-htm sbq-cas sbq-striped
      bq wf cc ms; workloads: producer consumer mixed; keys: ops backend
      hop hop-cross delay basket fix seed sockets policy)
  simctl fig <name|all> [ops= threads= grid= jobs= out=]
      regenerate the paper's figures as TSV (names: fig1 fig2 fig3 fig5
      fig6 fig7 speedups ablate-delay ablate-fix ablate-basket ablate-deq
      fig-numa/numa); `numa` sweeps a sockets x threads grid (default
      1x44,2x88,4x176) with cross-socket hop counts
  simctl trace <queue> <workload> <threads> [key=value ...] [out=PATH] [tsv-out=PATH]
      one observed run exported as a Chrome trace-event JSON document
  simctl trace-validate <file.json>
      re-validate an exported trace document (exit 1 if invalid)
  simctl bench [scale= reps= label= out= tsv-out= baseline= baseline-label= native= jobs= runner-trace=]
      wall-clock scheduler benchmark; writes BENCH_sim.json
  simctl bench-check <file.json> [against=COMMITTED.json] [max-regress=PCT]
      validate a bench document; with against=, gate on perf regressions
  simctl fuzz [--seeds N] [--start N] [--queue K] [--backend sim|native] [--artifacts DIR] [--jobs N] [--runner-trace FILE] [--repro FILE]
      randomized linearizability fuzzing with shrinking + replay artifacts
  simctl load <queue> [key=value ...]
      open-loop load sweep with knee detection (keys: backend pattern
      rate rates requests sources workers egress service jitter poll seed
      slo-p99 depth-slo jobs out tsv-out)
  simctl load-check <file.json>
      validate an sbq-loadgen-v1 document (exit 1 if invalid)
  simctl scenario <preempt|timer|dma> [key=value ...]
      one component-actor scenario with a deterministic summary (keys:
      queue workers ops period cost batch divider seed out trace-out)
  simctl help | --help | -h
      this text

See the module docs in src/bin/simctl.rs for every key's meaning.";

fn usage() -> ! {
    eprintln!("{HELP}");
    std::process::exit(2);
}

/// One `key=value` argument, handed to a subcommand by [`parse_keys`].
struct Val<'a> {
    key: &'a str,
    raw: &'a str,
}

impl Val<'_> {
    /// Names the key and its bad value, then exits 2.
    fn bad(&self) -> ! {
        eprintln!("bad value `{}` for key `{}`", self.raw, self.key);
        std::process::exit(2);
    }

    /// The value through a domain parser; exits 2 if it returns `None`.
    fn with<T>(&self, parse: impl FnOnce(&str) -> Option<T>) -> T {
        parse(self.raw).unwrap_or_else(|| self.bad())
    }

    fn parse<T: FromStr>(&self) -> T {
        self.with(|v| v.parse().ok())
    }

    /// A comma-separated list.
    fn list<T: FromStr>(&self) -> Vec<T> {
        self.with(|v| v.split(',').map(|x| x.trim().parse().ok()).collect())
    }

    /// A worker-thread count, `0` meaning the host's parallelism.
    fn jobs(&self) -> usize {
        match self.parse() {
            0 => runner::default_jobs(),
            n => n,
        }
    }
}

/// The one `key=value` parser: hands each argument to `set`, which
/// returns `false` for a key it does not take. A missing `=` or an
/// unknown key exits 2 naming it.
fn parse_keys(args: &[String], mut set: impl FnMut(&Val) -> bool) {
    for arg in args {
        let Some((key, raw)) = arg.split_once('=') else {
            eprintln!("expected key=value, got `{arg}`");
            std::process::exit(2);
        };
        if !set(&Val { key, raw }) {
            eprintln!("unknown key `{key}`");
            std::process::exit(2);
        }
    }
}

/// One parsed `<queue> <workload> <threads> [key=value ...]` run request.
struct RunSpec {
    queue: QueueKind,
    kind: WorkloadKind,
    backend: BackendKind,
    w: Workload,
}

/// Parses the shared single-run grammar. Keys the caller recognizes are
/// routed through `extra` first (return `true` to consume).
fn parse_run_spec(args: &[String], mut extra: impl FnMut(&Val) -> bool) -> RunSpec {
    if args.len() < 3 {
        usage();
    }
    let Some(queue) = QueueKind::parse(&args[0]) else {
        eprintln!("unknown queue `{}`", args[0]);
        usage();
    };
    let kind = match args[1].as_str() {
        "producer" | "producer-only" | "enq" => WorkloadKind::ProducerOnly,
        "consumer" | "consumer-only" | "deq" => WorkloadKind::ConsumerOnly,
        "mixed" => WorkloadKind::Mixed,
        other => {
            eprintln!("unknown workload `{other}`");
            usage();
        }
    };
    let threads: usize = args[2].parse().unwrap_or_else(|_| usage());

    let mut ops = 200u64;
    let mut backend = BackendKind::Sim;
    let mut sockets: Option<usize> = None;
    let mut policy: Option<coherence::HomePolicy> = None;
    let mut w = paper_workload(kind, threads, ops);
    parse_keys(&args[3..], |v| {
        if extra(v) {
            return true;
        }
        match v.key {
            "backend" => backend = v.with(BackendKind::parse),
            "policy" => {
                policy = Some(v.with(|p| match p {
                    "fixed" => Some(coherence::HomePolicy::Fixed),
                    "interleave" => Some(coherence::HomePolicy::Interleave),
                    "first-touch" | "firsttouch" => Some(coherence::HomePolicy::FirstTouch),
                    _ => None,
                }))
            }
            "ops" => ops = v.parse(),
            "hop" => w.machine.hop_intra = v.parse(),
            "hop-cross" => w.machine.hop_cross = v.parse(),
            "delay" => {
                w.qp.txcas.intra_delay = v.parse();
                w.qp.delay_cycles = w.qp.txcas.intra_delay;
            }
            "basket" => {
                let n: usize = v.parse();
                w.qp.basket_capacity = n;
                w.qp = QueueParams {
                    enqueuers: w.qp.enqueuers.min(n),
                    ..w.qp
                };
            }
            "fix" => w.machine.microarch_fix = v.parse::<u64>() != 0,
            "seed" => w.machine.seed = v.parse(),
            "sockets" => sockets = Some(v.parse::<usize>().max(1)),
            _ => return false,
        }
        true
    });
    // Re-derive ops-dependent fields with the final value.
    let mut w2 = paper_workload(kind, threads, ops);
    w2.machine = w.machine.clone();
    w2.qp = w.qp;
    // Topology overrides last: spread the machine's cores evenly over
    // the requested socket count and, unless a policy was pinned,
    // distribute directory homes across them.
    if let Some(s) = sockets {
        w2.machine.cores_per_socket = w2.machine.cores.div_ceil(s).max(1);
        if s > 1 && policy.is_none() {
            policy = Some(coherence::HomePolicy::Interleave);
        }
    }
    if let Some(p) = policy {
        w2.machine.home_policy = p;
    }
    RunSpec {
        queue,
        kind,
        backend,
        w: w2,
    }
}

fn fuzz_main(args: &[String]) {
    let mut cfg = simfuzz::CampaignConfig {
        jobs: 0, // auto: the host's available parallelism
        ..Default::default()
    };
    let mut repro: Option<String> = None;
    let mut runner_trace: Option<String> = None;
    // `--key value` and `--key=value` are spelled `key=value` here.
    let mut kvs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let arg = arg.trim_start_matches("--");
        if arg.contains('=') {
            kvs.push(arg.to_string());
        } else {
            let Some(v) = it.next() else {
                eprintln!("--{arg} needs a value");
                usage();
            };
            kvs.push(format!("{arg}={v}"));
        }
    }
    parse_keys(&kvs, |v| {
        match v.key {
            "seeds" => cfg.seeds = v.parse(),
            "start" | "start-seed" => cfg.start_seed = v.parse(),
            "queue" => cfg.queue = Some(v.with(QueueKind::parse)),
            "backend" => cfg.backend = v.with(BackendKind::parse),
            "artifacts" => cfg.artifacts_dir = Some(v.raw.into()),
            "jobs" => cfg.jobs = v.jobs(),
            "runner-trace" => runner_trace = Some(v.raw.into()),
            "repro" => repro = Some(v.raw.into()),
            _ => return false,
        }
        true
    });

    if let Some(path) = repro {
        let r = simfuzz::reproduce(std::path::Path::new(&path)).unwrap_or_else(|e| {
            eprintln!("simctl fuzz --repro: {e}");
            std::process::exit(2);
        });
        match &r.violation {
            Some(v) => println!("replay: {v}"),
            None => println!("replay: linearizable"),
        }
        println!("fingerprint: {}", r.fingerprint);
        if r.reproduced {
            println!("reproduced recorded violation kind `{}`", r.expected);
        } else {
            println!(
                "did NOT reproduce recorded violation kind `{}` — stale artifact?",
                r.expected
            );
            std::process::exit(1);
        }
        return;
    }

    let report = simfuzz::run_campaign(&cfg, |seed, queue, failure| {
        if let Some(f) = failure {
            eprintln!("seed {seed} ({queue}): {f}");
        }
    });
    for f in &report.failures {
        match &f.shrunk {
            Some(s) => println!(
                "FAIL seed {} ({}): {} — shrunk to threads={} ops={} in {} runs{}",
                f.seed,
                s.plan.queue.name(),
                s.violation,
                s.plan.threads,
                s.plan.ops_per_thread,
                s.runs,
                match (&f.artifact, &f.trace) {
                    (Some(path), Some(trace)) =>
                        format!(" → {} (trace: {})", path.display(), trace.display()),
                    (Some(path), None) => format!(" → {}", path.display()),
                    _ => String::new(),
                }
            ),
            None => println!(
                "FAIL seed {}: {} (not reproducible on the simulator; no shrink/artifact)",
                f.seed, f.kind
            ),
        }
    }
    println!(
        "fuzz: {} seeds ({}, backend {}), {} failure(s)",
        report.runs,
        cfg.queue.map_or("all queues", |q| q.name()),
        cfg.backend.name(),
        report.failures.len()
    );
    if let Some(pool) = &report.pool {
        eprintln!("{}", pool.summary());
        if let Some(path) = runner_trace {
            std::fs::write(&path, pool.utilization_trace("simctl fuzz"))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("wrote runner utilization trace to {path}");
        }
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn bench_main(args: &[String]) {
    let mut scale = 1u64;
    let mut reps = 3u32;
    let mut label = "current".to_string();
    let mut out = "BENCH_sim.json".to_string();
    let mut tsv_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut baseline_label = "baseline".to_string();
    let mut native = false;
    // Serial by default: the benchmark measures wall time, and parallel
    // points perturb each other. `jobs=0` opts into auto.
    let mut jobs = 1usize;
    let mut runner_trace: Option<String> = None;
    parse_keys(args, |v| {
        match v.key {
            "scale" => scale = v.parse(),
            "reps" => reps = v.parse(),
            "label" => label = v.raw.into(),
            "out" => out = v.raw.into(),
            "tsv-out" => tsv_out = Some(v.raw.into()),
            "baseline" => baseline = Some(v.raw.into()),
            "baseline-label" => baseline_label = v.raw.into(),
            "native" => native = v.raw != "0",
            "jobs" => jobs = v.jobs(),
            "runner-trace" => runner_trace = Some(v.raw.into()),
            _ => return false,
        }
        true
    });
    // Validate the baseline before spending time on the runs.
    let base_points = baseline.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        bench::wallbench::from_tsv(&text).unwrap_or_else(|| {
            eprintln!("malformed baseline {path}");
            std::process::exit(2);
        })
    });
    let (mut points, mut pool) = bench::wallbench::run_points_jobs(scale, reps, jobs);
    if native {
        let (native_pts, native_pool) = bench::wallbench::native_points_jobs(scale, reps, jobs);
        points.extend(native_pts);
        pool.absorb(&native_pool);
    }
    print!("{}", bench::wallbench::to_tsv(&points));
    eprintln!("{}", pool.summary());
    if let Some(path) = runner_trace {
        std::fs::write(&path, pool.utilization_trace("simctl bench"))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote runner utilization trace to {path}");
    }
    if let Some(path) = tsv_out {
        std::fs::write(&path, bench::wallbench::to_tsv(&points))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    let json = bench::wallbench::to_json(
        &label,
        &points,
        base_points.as_deref().map(|b| (baseline_label.as_str(), b)),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}

/// `simctl fig <name|all> [key=value ...]`: regenerate figures as TSV
/// (see [`bench::fig::text`]). The output is a pure function of the keys.
fn fig_main(args: &[String]) {
    let Some((name, rest)) = args.split_first() else {
        eprintln!("fig needs a figure name or `all`");
        usage();
    };
    let mut scale = bench::fig::Scale::default();
    let mut jobs = runner::default_jobs();
    let mut out: Option<String> = None;
    parse_keys(rest, |v| {
        match v.key {
            "ops" => scale.ops = Some(v.parse::<NonZeroU64>().get()),
            "threads" => {
                scale.threads = Some(v.list().into_iter().map(NonZeroUsize::get).collect())
            }
            "grid" => scale.grid = Some(v.with(bench::fig::numa_grid)),
            "jobs" => jobs = v.jobs(),
            "out" => out = Some(v.raw.into()),
            _ => return false,
        }
        true
    });
    let Some(text) = bench::fig::text(name, &scale, jobs) else {
        let names: Vec<&str> = bench::fig::FIGURES.iter().map(|f| f.name).collect();
        eprintln!(
            "unknown figure `{name}` (expected {}, numa or all)",
            names.join(", ")
        );
        std::process::exit(2);
    };
    print!("{text}");
    if let Some(path) = out {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

fn trace_main(args: &[String]) {
    let mut out: Option<String> = None;
    let mut tsv_out: Option<String> = None;
    let spec = parse_run_spec(args, |v| match v.key {
        "out" => {
            out = Some(v.raw.into());
            true
        }
        "tsv-out" => {
            tsv_out = Some(v.raw.into());
            true
        }
        _ => false,
    });
    let out = out.unwrap_or_else(|| {
        format!(
            "TRACE_{}_{}.json",
            spec.queue.name().to_lowercase().replace('-', ""),
            spec.backend.name()
        )
    });
    let traced = trace_workload(spec.queue, &spec.w, spec.backend);
    // Self-check before writing: the exporter and the validator must
    // agree on the schema or the artifact is useless downstream.
    let sum = obs::validate(&traced.chrome_json).unwrap_or_else(|e| {
        eprintln!("internal error: exported trace fails validation: {e}");
        std::process::exit(1);
    });
    std::fs::write(&out, &traced.chrome_json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    if let Some(path) = tsv_out {
        std::fs::write(&path, &traced.tsv).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    let m = &traced.measurement;
    eprintln!(
        "wrote {out}: {} events ({} spans, {} instants) on {} tracks; \
         {} ops, p50 {:.0} ns, p99 {:.0} ns, max {:.0} ns",
        sum.events,
        sum.spans,
        sum.instants,
        sum.tracks.len(),
        spec.w.ops_per_thread * (spec.w.producers + spec.w.consumers) as u64,
        m.p50_ns,
        m.p99_ns,
        m.max_ns
    );
}

fn trace_validate_main(args: &[String]) {
    let [path] = args else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    match obs::validate(&text) {
        Ok(sum) => {
            println!(
                "{path}: valid — {} events ({} spans, {} instants, {} meta) on {} tracks",
                sum.events,
                sum.spans,
                sum.instants,
                sum.meta,
                sum.tracks.len()
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}

/// Loads a `BENCH_sim.json`-shaped document and returns its points
/// array, exiting with a diagnostic on any structural problem.
fn load_bench_points(path: &str) -> Vec<obs::json::Value> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not JSON — {e}");
        std::process::exit(1);
    });
    let points = doc
        .get("points")
        .and_then(obs::json::Value::as_arr)
        .unwrap_or_else(|| {
            eprintln!("{path}: missing \"points\" array");
            std::process::exit(1);
        })
        .to_vec();
    if points.is_empty() {
        eprintln!("{path}: empty \"points\" array");
        std::process::exit(1);
    }
    points
}

fn point_field(path: &str, p: &obs::json::Value, i: usize, name: &str, key: &str) -> f64 {
    p.get(key)
        .and_then(obs::json::Value::as_num)
        .unwrap_or_else(|| {
            eprintln!("{path}: point {i} ({name}): missing numeric \"{key}\"");
            std::process::exit(1);
        })
}

/// Asserts the latency-distribution fields `simctl bench` emits are
/// present on every point and ordered (`p50_ns <= p99_ns <= max_ns`).
/// With `against=COMMITTED.json`, additionally acts as the performance
/// gate: every point present in both documents must sustain at least
/// `(1 - max-regress/100)` of the committed `sim_ops_per_sec`.
fn bench_check_main(args: &[String]) {
    let Some((path, rest)) = args.split_first() else {
        usage()
    };
    let mut against: Option<String> = None;
    let mut max_regress = 15.0f64;
    parse_keys(rest, |v| {
        match v.key {
            "against" => against = Some(v.raw.into()),
            "max-regress" => max_regress = v.parse(),
            _ => return false,
        }
        true
    });
    let points = load_bench_points(path);
    for (i, p) in points.iter().enumerate() {
        let name = p
            .get("name")
            .and_then(obs::json::Value::as_str)
            .unwrap_or("?");
        let field = |key: &str| point_field(path, p, i, name, key);
        let (p50, p99, max) = (field("p50_ns"), field("p99_ns"), field("max_ns"));
        if !(p50 <= p99 && p99 <= max) {
            eprintln!(
                "{path}: point {i} ({name}): percentiles out of order: \
                 p50={p50} p99={p99} max={max}"
            );
            std::process::exit(1);
        }
    }
    println!(
        "{path}: ok — {} point(s), p50_ns <= p99_ns <= max_ns on all",
        points.len()
    );
    let Some(against) = against else { return };
    let committed = load_bench_points(&against);
    let floor = 1.0 - max_regress / 100.0;
    let mut compared = 0usize;
    for (i, p) in points.iter().enumerate() {
        let name = p
            .get("name")
            .and_then(obs::json::Value::as_str)
            .unwrap_or("?");
        let Some(b) = committed
            .iter()
            .find(|b| b.get("name").and_then(obs::json::Value::as_str) == Some(name))
        else {
            continue;
        };
        let fresh = point_field(path, p, i, name, "sim_ops_per_sec");
        let base = point_field(&against, b, i, name, "sim_ops_per_sec");
        compared += 1;
        if fresh < base * floor {
            eprintln!(
                "{path}: point {name}: sim_ops_per_sec {fresh:.0} is more than \
                 {max_regress}% below committed {base:.0} ({against})"
            );
            std::process::exit(1);
        }
        println!(
            "{name}: {fresh:.0} vs committed {base:.0} ({:+.1}%)",
            (fresh / base - 1.0) * 100.0
        );
    }
    if compared == 0 {
        eprintln!("{path}: no point names match {against}; nothing gated");
        std::process::exit(1);
    }
    println!("perf gate: ok — {compared} point(s) within {max_regress}% of {against}");
}

/// Parses the `pattern=` token: `poisson`, `bursty:ON:OFF`, or
/// `diurnal:LOW:HIGH:PERIOD`.
fn parse_pattern(v: &str) -> Option<ArrivalPattern> {
    let mut parts = v.split(':');
    let head = parts.next()?;
    let mut num = || parts.next()?.parse::<u64>().ok();
    let pattern = match head {
        "poisson" => ArrivalPattern::Poisson,
        "bursty" => ArrivalPattern::Bursty {
            on_cycles: num()?,
            off_cycles: num()?,
        },
        "diurnal" => ArrivalPattern::Diurnal {
            low_permille: num()?,
            high_permille: num()?,
            period_cycles: num()?,
        },
        _ => return None,
    };
    match parts.next() {
        Some(_) => None, // trailing junk
        None => Some(pattern),
    }
}

fn load_main(args: &[String]) {
    let Some((queue_arg, rest)) = args.split_first() else {
        usage()
    };
    let Some(queue) = QueueKind::parse(queue_arg) else {
        eprintln!("unknown queue `{queue_arg}`");
        usage();
    };
    let mut plan = LoadPlan::default();
    let mut backend = BackendKind::Sim;
    let mut rates: Vec<u64> = Vec::new();
    let mut slo_p99_ns = 0.0f64;
    let mut depth_slo = 0u64;
    let mut jobs = 1usize;
    let mut out: Option<String> = None;
    let mut tsv_out: Option<String> = None;
    parse_keys(rest, |v| {
        match v.key {
            "backend" => backend = v.with(BackendKind::parse),
            "pattern" => plan.pattern = v.with(parse_pattern),
            "rate" => rates.push(v.parse()),
            "rates" => rates.extend(v.list::<u64>()),
            "requests" => plan.requests = v.parse(),
            "sources" => plan.sources = v.parse(),
            "workers" => plan.workers = v.parse(),
            "egress" => plan.egress = v.parse(),
            "service" => plan.service_cycles = v.parse(),
            "jitter" => plan.service_jitter_pct = v.parse(),
            "poll" => plan.poll_cycles = v.parse(),
            "seed" => plan.seed = v.parse(),
            "slo-p99" => slo_p99_ns = v.parse(),
            "depth-slo" => depth_slo = v.parse(),
            "jobs" => jobs = v.jobs(),
            "out" => out = Some(v.raw.into()),
            "tsv-out" => tsv_out = Some(v.raw.into()),
            _ => return false,
        }
        true
    });
    if let Err(e) = plan.validate() {
        eprintln!("invalid plan: {e}");
        usage();
    }
    if rates.is_empty() {
        rates = loadgen::default_rates(&plan);
    }
    let spec = SweepSpec {
        plan,
        queue,
        backend,
        rates,
        slo_p99_ns,
        depth_slo,
        jobs,
    };
    let r = loadgen::run_sweep(&spec);
    print!("{}", loadgen::to_tsv(&r));
    match &r.knee {
        Some(k) => eprintln!(
            "knee: {} at {} rps ({}) — point {}/{}",
            k.reason.name(),
            k.offered_rps,
            spec.queue.name(),
            k.index + 1,
            r.points.len()
        ),
        None => eprintln!(
            "knee: none — {} healthy up to {} rps",
            spec.queue.name(),
            r.points.last().map_or(0, |p| p.offered_rps)
        ),
    }
    if let Some(path) = tsv_out {
        std::fs::write(&path, loadgen::to_tsv(&r))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    if let Some(path) = out {
        std::fs::write(&path, loadgen::to_json(&r))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Validates an `sbq-loadgen-v1` document: schema tag, non-empty points
/// with ordered e2e percentiles and full completion, and a knee (when
/// present) that references an actually probed rate.
fn load_check_main(args: &[String]) {
    let [path] = args else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not JSON — {e}");
        std::process::exit(1);
    });
    let fail = |msg: String| -> ! {
        eprintln!("{path}: INVALID — {msg}");
        std::process::exit(1);
    };
    match doc.get("schema").and_then(obs::json::Value::as_str) {
        Some("sbq-loadgen-v1") => {}
        other => fail(format!("schema {other:?}, expected \"sbq-loadgen-v1\"")),
    }
    let requests = doc
        .get("requests")
        .and_then(obs::json::Value::as_num)
        .unwrap_or_else(|| fail("missing numeric \"requests\"".into()));
    let points = doc
        .get("points")
        .and_then(obs::json::Value::as_arr)
        .unwrap_or_else(|| fail("missing \"points\" array".into()));
    if points.is_empty() {
        fail("empty \"points\" array".into());
    }
    let mut rates = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let field = |key: &str| {
            p.get(key)
                .and_then(obs::json::Value::as_num)
                .unwrap_or_else(|| fail(format!("point {i}: missing numeric \"{key}\"")))
        };
        let (p50, p99, p999, max) = (
            field("e2e_p50_ns"),
            field("e2e_p99_ns"),
            field("e2e_p999_ns"),
            field("e2e_max_ns"),
        );
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            fail(format!(
                "point {i}: e2e percentiles out of order: \
                 p50={p50} p99={p99} p999={p999} max={max}"
            ));
        }
        if field("completed") != requests {
            fail(format!(
                "point {i}: completed {} != requests {requests} (open loop must drain fully)",
                field("completed")
            ));
        }
        rates.push(field("offered_rps"));
    }
    if rates.windows(2).any(|w| w[0] >= w[1]) {
        fail("offered_rps not strictly ascending".into());
    }
    match doc.get("knee") {
        Some(obs::json::Value::Null) => {}
        Some(k) => {
            let rate = k
                .get("offered_rps")
                .and_then(obs::json::Value::as_num)
                .unwrap_or_else(|| fail("knee: missing numeric \"offered_rps\"".into()));
            if !rates.contains(&rate) {
                fail(format!("knee rate {rate} is not a probed point"));
            }
            match k.get("reason").and_then(obs::json::Value::as_str) {
                Some("slo-exceeded") | Some("depth-diverged") => {}
                other => fail(format!("knee: bad reason {other:?}")),
            }
        }
        None => fail("missing \"knee\" (must be an object or null)".into()),
    }
    println!(
        "{path}: ok — {} point(s), ordered percentiles, fully drained, knee {}",
        points.len(),
        match doc.get("knee") {
            Some(obs::json::Value::Null) => "none".to_string(),
            Some(k) => format!(
                "at {} rps",
                k.get("offered_rps")
                    .and_then(obs::json::Value::as_num)
                    .unwrap_or(0.0)
            ),
            None => unreachable!(),
        }
    );
}

/// `simctl scenario <family> [key=value ...]`: one component-actor
/// scenario run end to end — stage the machine with its actor, drive the
/// queue, check linearizability, and print the deterministic summary.
fn scenario_main(args: &[String]) {
    let Some(first) = args.first() else {
        eprintln!("scenario needs a family: preempt, timer, or dma");
        usage();
    };
    let Some(family) = ActorFamily::parse(first) else {
        eprintln!("unknown scenario family `{first}` (expected preempt, timer, or dma)");
        usage();
    };
    let mut spec = ScenarioSpec::smoke(family);
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    parse_keys(&args[1..], |v| {
        match v.key {
            "queue" => spec.queue = v.with(QueueKind::parse),
            "out" => out = Some(v.raw.into()),
            "trace-out" => trace_out = Some(v.raw.into()),
            "workers" => spec.workers = v.parse(),
            "ops" => spec.ops = v.parse(),
            "period" => spec.period = v.parse(),
            "cost" => spec.cost = v.parse(),
            "batch" => spec.batch = v.parse(),
            "divider" => spec.divider = v.parse(),
            "seed" => spec.seed = v.parse(),
            _ => return false,
        }
        true
    });
    spec.trace = trace_out.is_some();

    let outcome = run_scenario(&spec);
    print!("{}", outcome.summary);
    if let Some(path) = out {
        std::fs::write(&path, &outcome.summary).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote summary to {path}");
    }
    if let Some(path) = trace_out {
        let json = outcome.chrome_json.expect("trace-out requested a trace");
        // Same self-check as `simctl trace`: never write a document that
        // `simctl trace-validate` would reject.
        if let Err(e) = obs::validate(&json) {
            eprintln!("internal error: scenario trace failed validation: {e}");
            std::process::exit(1);
        }
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(v) = outcome.violation {
        eprintln!("scenario: LINEARIZABILITY VIOLATION: {v}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => return bench_main(&args[1..]),
        Some("bench-check") => return bench_check_main(&args[1..]),
        Some("fig") => return fig_main(&args[1..]),
        Some("fuzz") => return fuzz_main(&args[1..]),
        Some("trace") => return trace_main(&args[1..]),
        Some("trace-validate") => return trace_validate_main(&args[1..]),
        Some("load") => return load_main(&args[1..]),
        Some("load-check") => return load_check_main(&args[1..]),
        Some("scenario") => return scenario_main(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{HELP}");
            return;
        }
        _ => {}
    }
    let spec = parse_run_spec(&args, |_| false);
    let m = match spec.backend {
        BackendKind::Sim => run_workload(spec.queue, &spec.w),
        BackendKind::Native => run_workload_native(spec.queue, &spec.w),
    };

    println!("queue\tworkload\tthreads\tlatency_ns\tthroughput_mops\tduration_ns_per_op\ttx_commits\ttx_aborts\ttx_aborts_interrupt\ttripped\tp50_ns\tp99_ns\tmax_ns\thops_intra\thops_cross\tdir_cross");
    println!(
        "{}\t{:?}\t{}\t{:.1}\t{:.3}\t{:.1}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}",
        m.queue,
        spec.kind,
        m.threads,
        m.latency_ns,
        m.throughput_mops,
        m.duration_ns_per_op,
        m.tx_commits,
        m.tx_aborts,
        m.tx_aborts_interrupt,
        m.tripped_writers,
        m.p50_ns,
        m.p99_ns,
        m.max_ns,
        m.hops_intra,
        m.hops_cross,
        m.dir_hops_cross
    );
}
