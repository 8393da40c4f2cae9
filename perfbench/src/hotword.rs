//! `hotword-44`: Figure 1's headline series. 44 simulated cores on one
//! socket increment one shared word with TxCAS (closed loop). The same
//! machine then runs an FAA pass and a `delay(1)`-only control pass as
//! layer probes: the control pass sends no coherence messages, so its
//! host time per op is the engine's wheel + fiber-handshake cost alone.

use crate::trace::Tracer;
use crate::util::{host_ns, median, mix, stats_digest, Agg, Checks, Lat};
use crate::Run;
use absmem::ThreadCtx;
use coherence::{cycles_to_ns, Machine, MachineConfig, Program, RunReport, SimCtx};
use sbq::txcas::{txn_cas, TxCasParams, TxCasStats};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

const THREADS: usize = 44;
/// Per-thread increments of one timed pass: the `data/fig_numa.tsv`
/// 1×44 row's length.
const OPS: u64 = 120;
/// Distinct machine seeds per run. Simulated metrics come from these
/// reps only, so they are a pure function of `--seed`; timed reps cycle
/// through them, and each repeat must reproduce its seed's digest.
const SIM_REPS: usize = 16;
/// Reps every run makes before it may stop, and after which peak RSS is
/// read: enough that memory a rep fails to return shows.
const RSS_REPS: usize = 200;

#[derive(Clone, Copy, PartialEq)]
enum Pass {
    TxCas,
    Faa,
    Delay,
}

struct Shared {
    addr: AtomicU64,
    /// Host clock when the first thread passed the start barrier.
    started: AtomicU64,
    final_word: AtomicU64,
    outs: Mutex<Vec<(Lat, TxCasStats, u64)>>,
}

struct PassOut {
    lat: Lat,
    tx: TxCasStats,
    successes: u64,
    final_word: u64,
    report: RunReport,
    /// Host ns from the start of the pass (before any `Machine::new`
    /// the caller timed) to the start barrier, and from there to the end.
    setup_ns: Option<u64>,
    timed_ns: Option<u64>,
}

/// `plant_ns` adds host busy-work to every TxCAS op: a planted slowdown
/// for the benchmark's self-test, invisible to simulated time.
fn run_pass(
    m: &mut Machine,
    pass: Pass,
    ops: u64,
    t_start: u64,
    plant_ns: u64,
    checks: &mut Checks,
) -> PassOut {
    let sh = Arc::new(Shared {
        addr: AtomicU64::new(0),
        started: AtomicU64::new(0),
        final_word: AtomicU64::new(0),
        outs: Mutex::new(Vec::new()),
    });
    let params = TxCasParams::default();
    let programs: Vec<Program> = (0..THREADS)
        .map(|_| {
            let sh = Arc::clone(&sh);
            Box::new(move |ctx: &mut SimCtx| {
                let a = sh.addr.load(SeqCst);
                ctx.barrier();
                let _ = sh.started.compare_exchange(0, host_ns(), SeqCst, SeqCst);
                let mut lat = Lat::default();
                let mut tx = TxCasStats::default();
                let mut successes = 0u64;
                for _ in 0..ops {
                    let t0 = ctx.now();
                    match pass {
                        Pass::TxCas => {
                            let old = ctx.read(a);
                            if txn_cas(ctx, &params, a, old, old + 1, &mut tx) {
                                successes += 1;
                            }
                            if plant_ns > 0 {
                                let until = host_ns() + plant_ns;
                                while host_ns() < until {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        Pass::Faa => {
                            ctx.faa(a, 1);
                        }
                        Pass::Delay => ctx.delay(1),
                    }
                    lat.record(t0, ctx.now());
                }
                // Every thread has finished its ops once it passes this
                // barrier, so thread 0 reads the word's final value.
                ctx.barrier();
                if ctx.thread_id() == 0 {
                    sh.final_word.store(ctx.read(a), SeqCst);
                }
                sh.outs
                    .lock()
                    .expect("a simulated thread panicked")
                    .push((lat, tx, successes));
            }) as Program
        })
        .collect();
    let sh2 = Arc::clone(&sh);
    let report = m.run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            sh2.addr.store(a, SeqCst);
        }),
        programs,
    );
    let t_end = host_ns();
    let started = sh.started.load(SeqCst);
    let mut out = PassOut {
        lat: Lat::default(),
        tx: TxCasStats::default(),
        successes: 0,
        final_word: sh.final_word.load(SeqCst),
        report,
        setup_ns: checks.host_interval("hotword setup", t_start, started),
        timed_ns: checks.host_interval("hotword timed", started, t_end),
    };
    for (lat, tx, s) in sh.outs.lock().expect("a simulated thread panicked").iter() {
        out.lat.merge(lat);
        out.tx.success += tx.success;
        out.tx.fail_self_abort += tx.fail_self_abort;
        out.tx.fail_post_abort += tx.fail_post_abort;
        out.tx.retries += tx.retries;
        out.tx.fallbacks += tx.fallbacks;
        out.successes += s;
    }
    checks.intervals("hotword op latency", out.lat.total, out.lat.bad);
    let n = THREADS as u64 * ops;
    checks.check(out.lat.total == n, || {
        format!("hotword: {} of {n} ops ran", out.lat.total)
    });
    match pass {
        Pass::TxCas => {
            checks.check(out.final_word == out.successes, || {
                format!(
                    "hotword TxCAS word ends at {} but {} increments succeeded",
                    out.final_word, out.successes
                )
            });
            checks.check(out.tx.success == out.successes, || {
                "TxCasStats successes disagree with returned outcomes".into()
            });
        }
        Pass::Faa => checks.check(out.final_word == n, || {
            format!("hotword FAA word ends at {} not {n}", out.final_word)
        }),
        Pass::Delay => {}
    }
    out
}

fn machine(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::single_socket(THREADS);
    cfg.check_invariants = false;
    cfg.seed = seed;
    cfg
}

/// The model reference check: at ops=120 on the default machine seed,
/// FAA and TxCAS must reproduce `data/fig_numa.tsv`'s 1×44 row exactly.
/// This pins the model, not its accuracy: the repository holds no
/// hardware measurement to compare against.
fn reference_check(checks: &mut Checks) {
    let mut ns = |pass| {
        let mut m = Machine::new(machine(MachineConfig::default().seed));
        let p = run_pass(&mut m, pass, OPS, host_ns(), 0, checks);
        format!("{:.1}", cycles_to_ns(p.lat.sum) / p.lat.total as f64)
    };
    let faa = ns(Pass::Faa);
    let tx = ns(Pass::TxCas);
    checks.check(faa == "796.8" && tx == "370.5", || {
        format!("reference: FAA {faa} / TxCAS {tx} ns/op, data/fig_numa.tsv has 796.8 / 370.5")
    });
}

pub fn run(r: &mut Run) {
    reference_check(&mut r.checks);
    let seeds: Vec<u64> = (0..SIM_REPS as u64).map(|i| mix(r.seed, i)).collect();
    let mut digests = [None; SIM_REPS];
    // Exact aggregates over the SIM_REPS distinct seeds.
    let mut lat = Lat::default();
    let mut tx = TxCasStats::default();
    let mut agg = Agg::default();
    // Host-time samples.
    let mut setup_s = Vec::new();
    let mut kops = Vec::new();
    let mut build_us = Vec::new();
    // Whole-rep host ns, [untraced, traced]: the tracing overhead.
    let mut rep_ns = [Vec::new(), Vec::new()];
    let mut host_ns_per_event = Vec::new();
    let mut sched_ns = Vec::new();
    let deadline = host_ns() + (r.seconds * 1e9) as u64;
    let mut rep = 0usize;
    while r.more(rep, RSS_REPS, deadline) {
        let traced = r.trace && rep % 2 == 1;
        let tr: &Tracer = &r.tracer;
        tr.start_rep(rep as u64, traced);
        let k = rep % SIM_REPS;
        let t0 = host_ns();
        let mut m = tr.span("coherence.Machine::new", || Machine::new(machine(seeds[k])));
        let t_built = host_ns();
        let p = tr.span("coherence.Machine::run", || {
            run_pass(&mut m, Pass::TxCas, OPS, t0, r.plant_ns, &mut r.checks)
        });
        let faa = tr.span("coherence.Machine::run", || {
            run_pass(&mut m, Pass::Faa, OPS, host_ns(), 0, &mut r.checks)
        });
        let delay = tr.span("coherence.Machine::run", || {
            run_pass(&mut m, Pass::Delay, OPS, host_ns(), 0, &mut r.checks)
        });
        let d = stats_digest(&p.report) ^ stats_digest(&faa.report).rotate_left(1);
        match digests[k] {
            None => digests[k] = Some(d),
            Some(d0) => r.checks.check(d == d0, || {
                format!("hotword: rep {rep} digest {d:016x} differs from seed's first {d0:016x}")
            }),
        }
        let ops = p.lat.total as f64;
        if rep < SIM_REPS {
            lat.merge(&p.lat);
            tx.success += p.tx.success;
            tx.fail_self_abort += p.tx.fail_self_abort;
            tx.fail_post_abort += p.tx.fail_post_abort;
            tx.retries += p.tx.retries;
            tx.fallbacks += p.tx.fallbacks;
            agg.add(&p.report, p.lat.total);
        }
        if let (Some(setup), Some(timed)) = (p.setup_ns, p.timed_ns) {
            setup_s.push(setup as f64 / 1e9);
            kops.push(ops / (timed as f64 / 1e9) / 1e3);
            host_ns_per_event.push(timed as f64 / p.report.stats.events as f64);
        }
        if let Some(d) = r.checks.host_interval("Machine::new", t0, t_built) {
            build_us.push(d as f64 / 1e3);
        }
        if let Some(timed) = delay.timed_ns {
            sched_ns.push(timed as f64 / delay.lat.total as f64);
        }
        if let Some(d) = r.checks.host_interval("hotword rep", t0, host_ns()) {
            rep_ns[traced as usize].push(d as f64);
        }
        rep += 1;
    }
    let ops = lat.total as f64;
    let m = &mut r.metrics;
    m.e2e("setup_s", median(&setup_s), "s");
    m.e2e("host_kops_per_s", median(&kops), "kops/s");
    m.e2e("sim_ns_per_op", cycles_to_ns(lat.sum) / ops, "ns");
    m.e2e("sim_op_p50_ns", cycles_to_ns(lat.percentile(0.5)), "ns");
    m.e2e("sim_op_p99_ns", cycles_to_ns(lat.percentile(0.99)), "ns");
    m.extra("reps", rep as f64, "count");

    agg.emit(m);
    m.layer(
        "coherence.host_ns_per_event",
        median(&host_ns_per_event),
        "ns",
    );
    m.layer("coherence.sched_ns_per_op", median(&sched_ns), "ns");
    m.layer("coherence.build_us", median(&build_us), "us");
    m.layer(
        "sbq.txcas_fail_per_op",
        (tx.fail_self_abort + tx.fail_post_abort) as f64 / ops,
        "count",
    );
    m.layer("sbq.txcas_retries_per_op", tx.retries as f64 / ops, "count");
    m.layer("sbq.txcas_fallbacks", tx.fallbacks as f64, "count");
    r.overhead(&rep_ns);
}
