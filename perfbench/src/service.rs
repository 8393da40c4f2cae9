//! `service-open-loop`: seeded Poisson arrivals at fixed absolute rates
//! through ingress → 2 workers → egress on the simulator, SBQ-HTM at
//! both boundaries, two sources (open loop). The only
//! latency-under-offered-load workload.
//!
//! The plan is deliberately not `loadgen`'s default ladder. With one
//! source the run is generator-bound (the source's own lag p99 is about
//! the e2e p99 at the lowest rung). With two sources achieved throughput
//! saturates near 0.55M requests/s, below the default ladder's lowest
//! rung (capacity/4 ≈ 733k). So the rungs sit below, near and above
//! that saturation point.

use crate::util::{host_ns, median, mix, percentile, Agg, Checks, Fnv};
use crate::Run;
use absmem::ThreadCtx;
use coherence::{cycles_to_ns, RunReport, SimCtx};
use harness::{
    Backend, BackendKind, BackendReport, Job, QueueAdapter, QueueKind, QueueParams, SbqHtmQ,
    SimBackend,
};
use loadgen::{machine_for, run_load_on, ArrivalPattern, LoadPlan, LoadRun, SweepSpec};
use obs::{Histogram, InstantKind, ObsEvent, ObsSink, SpanKind, ThreadLog};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Offered loads, requests/s: below, near and above saturation.
const RATES: [u64; 3] = [300_000, 550_000, 800_000];
const RUNG_NAMES: [&str; 3] = ["low", "mid", "high"];
const REQUESTS: u64 = 2_000;
const SOURCES: usize = 2;
/// The e2e p99 limit a rung must meet to count toward the knee, ns.
const SLO_P99_NS: f64 = 50_000.0;
const SIM_REPS: usize = 8;

fn plan(seed: u64, rate: u64) -> LoadPlan {
    LoadPlan {
        seed,
        pattern: ArrivalPattern::Poisson,
        rate_rps: rate,
        requests: REQUESTS,
        sources: SOURCES,
        ..LoadPlan::default()
    }
}

/// Queue-operation counts of the boundary queues, folded in by
/// [`Counted`]. Statistics only, so `Relaxed`; the simulator runs every
/// core on one host thread anyway.
static ENQS: AtomicU64 = AtomicU64::new(0);
static DEQS: AtomicU64 = AtomicU64::new(0);
static EMPTIES: AtomicU64 = AtomicU64::new(0);

/// Per-request completion times seen by [`Counted`]: `done[id]` is the
/// simulated time the last dequeue returning `id` returned (the egress
/// one: a request reaches egress only after a worker dequeued it from
/// ingress), and `start` the earliest dequeue entry (workers poll from
/// the moment every stage thread leaves the start barrier).
struct Completions {
    start: u64,
    done: Vec<u64>,
}

static COMPLETIONS: Mutex<Completions> = Mutex::new(Completions {
    start: u64::MAX,
    done: Vec::new(),
});

fn completions() -> std::sync::MutexGuard<'static, Completions> {
    COMPLETIONS.lock().expect("a simulated thread panicked")
}

/// SBQ-HTM with its operations counted, and its dequeues timed, from
/// outside. loadgen's histograms are log-bucketed, so exact percentiles
/// need the per-request times.
struct Counted(SbqHtmQ<SimCtx>);

impl QueueAdapter<SimCtx> for Counted {
    const NAME: &'static str = <SbqHtmQ<SimCtx> as QueueAdapter<SimCtx>>::NAME;

    fn create(ctx: &mut SimCtx, p: &QueueParams) -> u64 {
        SbqHtmQ::create(ctx, p)
    }

    fn attach(base: u64, ctx: &mut SimCtx, p: &QueueParams) -> Self {
        Counted(SbqHtmQ::attach(base, ctx, p))
    }

    fn enqueue(&mut self, ctx: &mut SimCtx, v: u64) {
        ENQS.fetch_add(1, Relaxed);
        self.0.enqueue(ctx, v)
    }

    fn dequeue(&mut self, ctx: &mut SimCtx) -> Option<u64> {
        DEQS.fetch_add(1, Relaxed);
        let t_in = ctx.now();
        let r = self.0.dequeue(ctx);
        let mut c = completions();
        c.start = c.start.min(t_in);
        match r {
            Some(id) => c.done[id as usize] = ctx.now(),
            None => {
                EMPTIES.fetch_add(1, Relaxed);
            }
        }
        r
    }
}

/// A backend wrapper that marks the host time the first thread program
/// starts (everything before it — machine, arrival schedule, queues,
/// fibers — is set-up) and keeps the simulator's report.
struct Timed {
    inner: SimBackend,
    first_start: Arc<AtomicU64>,
    report: Option<RunReport>,
}

impl Timed {
    fn new(plan: &LoadPlan) -> Timed {
        Timed {
            inner: SimBackend::new(machine_for(plan)),
            first_start: Arc::new(AtomicU64::new(0)),
            report: None,
        }
    }
}

impl Backend for Timed {
    type Ctx = SimCtx;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, setup: Job<SimCtx>, programs: Vec<Job<SimCtx>>) -> BackendReport {
        let programs = programs
            .into_iter()
            .map(|p| {
                let fs = Arc::clone(&self.first_start);
                Box::new(move |ctx: &mut SimCtx| {
                    let _ = fs.compare_exchange(0, host_ns(), SeqCst, SeqCst);
                    p(ctx)
                }) as Job<SimCtx>
            })
            .collect();
        let mut rep = self.inner.run(setup, programs);
        self.report = rep.sim.take();
        rep
    }
}

/// One rung's run through the public loadgen entry point.
struct Rung {
    run: LoadRun,
    report: RunReport,
    setup_ns: Option<u64>,
    timed_ns: Option<u64>,
    build_ns: Option<u64>,
    queue_ops: (u64, u64, u64),
    /// Exact e2e latency of every request, cycles, in id order.
    e2e: Vec<u64>,
}

fn run_rung(
    plan: &LoadPlan,
    sink: Option<&Arc<ObsSink>>,
    checks: &mut Checks,
    r: &crate::trace::Tracer,
) -> Rung {
    let t0 = host_ns();
    let mut b = r.span("harness.SimBackend::new", || Timed::new(plan));
    let t_built = host_ns();
    for c in [&ENQS, &DEQS, &EMPTIES] {
        c.store(0, Relaxed);
    }
    *completions() = Completions {
        start: u64::MAX,
        done: vec![0; plan.requests as usize + 1],
    };
    let run = r.span("loadgen.run_load", || {
        run_load_on::<Timed, Counted>(&mut b, plan, sink)
    });
    let t_end = host_ns();
    let started = b.first_start.load(SeqCst);
    let report = b.report.take().expect("the simulator reports");
    let e2e = exact_e2e(plan, &run, checks);
    verify(plan, &run, checks);
    Rung {
        setup_ns: checks.host_interval("service setup", t0, started),
        timed_ns: checks.host_interval("service timed", started, t_end),
        build_ns: checks.host_interval("SimBackend::new", t0, t_built),
        queue_ops: (
            ENQS.load(Relaxed),
            DEQS.load(Relaxed),
            EMPTIES.load(Relaxed),
        ),
        e2e,
        run,
        report,
    }
}

/// Each request's e2e latency — completion minus scheduled arrival,
/// the arrival schedule being the plan's own `arrival_offsets` from the
/// common start — checked against loadgen's own e2e histogram, and
/// against the service time the request must have taken.
fn exact_e2e(plan: &LoadPlan, run: &LoadRun, checks: &mut Checks) -> Vec<u64> {
    let c = completions();
    let offsets = plan.arrival_offsets();
    let (mut e2e, mut hist, mut bad, mut short) = (Vec::new(), Histogram::new(), 0u64, 0u64);
    for id in 1..=plan.requests {
        let due = c.start.checked_add(offsets[id as usize - 1]);
        match due.and_then(|d| c.done[id as usize].checked_sub(d)) {
            Some(d) => {
                short += (d < plan.service_cycles_for(id)) as u64;
                e2e.push(d);
                hist.record(d);
            }
            None => bad += 1,
        }
    }
    checks.intervals("service e2e", plan.requests, bad);
    checks.check(short == 0, || {
        format!("service: {short} e2e latencies are shorter than their service time")
    });
    let same = |h: &Histogram| (h.count(), h.min(), h.max(), h.sum(), h.p50(), h.p99());
    checks.check(same(&hist) == same(&run.e2e), || {
        "service: per-request e2e times disagree with loadgen's e2e histogram".into()
    });
    e2e
}

/// Every request completes, and the shortest e2e latency is at least the
/// shortest service sojourn.
fn verify(plan: &LoadPlan, run: &LoadRun, checks: &mut Checks) {
    let p = &run.point;
    checks.check(
        p.completed == plan.requests && run.e2e.count() == plan.requests,
        || {
            format!(
                "service: {} of {} requests completed",
                p.completed, plan.requests
            )
        },
    );
    checks.check(run.e2e.min() >= run.service.min(), || {
        format!(
            "service: an e2e latency ({} cycles) is shorter than a service sojourn ({} cycles)",
            run.e2e.min(),
            run.service.min()
        )
    });
}

/// The exact per-request form of the check, from the obs spans of a
/// traced run: request `id`'s egress dequeue minus its scheduled arrival
/// is at least its service span.
fn verify_spans(plan: &LoadPlan, logs: &[ThreadLog], checks: &mut Checks) {
    let n = plan.requests as usize + 1;
    let (mut due, mut service, mut done) = (vec![None; n], vec![None; n], vec![None; n]);
    let egress_tid = plan.sources + plan.workers;
    for log in logs {
        for e in &log.events {
            match *e {
                ObsEvent::Instant {
                    kind: InstantKind::Arrival,
                    ts,
                    arg,
                } => due[arg as usize] = Some(ts),
                ObsEvent::Span {
                    kind: SpanKind::Service,
                    start,
                    end,
                    arg,
                } => service[arg as usize] = end.checked_sub(start),
                ObsEvent::Span {
                    kind: SpanKind::Dequeue,
                    end,
                    arg,
                    ..
                } if log.tid >= egress_tid => done[arg as usize] = Some(end),
                _ => {}
            }
        }
    }
    let mut bad = 0u64;
    for id in 1..n {
        let ok = match (due[id], service[id], done[id]) {
            (Some(d), Some(s), Some(t)) => t.checked_sub(d).is_some_and(|e2e| e2e >= s),
            _ => false,
        };
        bad += !ok as u64;
    }
    checks.intervals("service per-request e2e >= service", plan.requests, bad);
}

#[derive(Default)]
struct RungAgg {
    e2e: Vec<u64>,
    lag: Histogram,
    enq: Histogram,
    service: Histogram,
    diverged: bool,
    max_depth: u64,
    achieved: Vec<f64>,
    e2e_sum: u64,
}

pub fn run(r: &mut Run) {
    let seeds: Vec<u64> = (0..SIM_REPS as u64).map(|i| mix(r.seed, i)).collect();
    let mut digests = [None; SIM_REPS];
    let mut rungs: Vec<RungAgg> = (0..RATES.len()).map(|_| RungAgg::default()).collect();
    let mut agg = Agg::default();
    let (mut enqs, mut deqs, mut empties) = (0u64, 0u64, 0u64);
    let (mut setup_s, mut kops, mut build_us, mut ev_ns, mut arrivals_ms) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut rep_ns = [Vec::new(), Vec::new()];
    let depth_slo = SweepSpec {
        plan: plan(0, RATES[0]),
        queue: QueueKind::SbqHtm,
        backend: BackendKind::Sim,
        rates: RATES.to_vec(),
        slo_p99_ns: SLO_P99_NS,
        depth_slo: 0,
        jobs: 1,
    }
    .effective_depth_slo();
    // The wrapped path (set-up clock, counted queue) must run the very
    // schedule the public entry point runs.
    let reference = loadgen::run_load(
        QueueKind::SbqHtm,
        &plan(seeds[0], RATES[0]),
        BackendKind::Sim,
        None,
    );
    let deadline = host_ns() + (r.seconds * 1e9) as u64;
    let mut rep = 0usize;
    while r.more(rep, SIM_REPS, deadline) {
        let traced = r.trace && rep % 2 == 1;
        r.tracer.start_rep(rep as u64, traced);
        let k = rep % SIM_REPS;
        let t0 = host_ns();
        let mut digest = Fnv::new();
        for (i, &rate) in RATES.iter().enumerate() {
            let p = plan(seeds[k], rate);
            let sink = traced.then(|| Arc::new(ObsSink::new(4 * REQUESTS as usize + 64)));
            let rung = run_rung(&p, sink.as_ref(), &mut r.checks, &r.tracer);
            if let Some(s) = &sink {
                let logs = s.take_logs();
                verify_spans(&p, &logs, &mut r.checks);
                r.keep_obs_logs(logs);
            }
            if rep == 0 && i == 0 {
                r.checks.check(
                    rung.run.completion_digest == reference.completion_digest,
                    || "service: the wrapped run differs from loadgen::run_load".into(),
                );
            }
            digest.word(rung.run.completion_digest);
            digest.word(crate::util::stats_digest(&rung.report));
            if let (Some(setup), Some(timed)) = (rung.setup_ns, rung.timed_ns) {
                setup_s.push(setup as f64 / 1e9);
                kops.push(REQUESTS as f64 / (timed as f64 / 1e9) / 1e3);
                ev_ns.push(timed as f64 / rung.report.stats.events as f64);
            }
            if let Some(b) = rung.build_ns {
                build_us.push(b as f64 / 1e3);
            }
            if rep < SIM_REPS {
                let g = &mut rungs[i];
                g.e2e.extend_from_slice(&rung.e2e);
                g.lag.merge(&rung.run.src_lag);
                g.enq.merge(&rung.run.enq_op);
                g.service.merge(&rung.run.service);
                g.e2e_sum += rung.e2e.iter().sum::<u64>();
                g.diverged |= rung.run.point.max_depth_ingress > depth_slo;
                g.max_depth = g.max_depth.max(rung.run.point.max_depth_ingress);
                g.achieved.push(rung.run.point.achieved_rps / rate as f64);
                agg.add(&rung.report, REQUESTS);
                enqs += rung.queue_ops.0;
                deqs += rung.queue_ops.1;
                empties += rung.queue_ops.2;
            }
            if traced && i == 1 {
                // The arrival schedule is built inside run_load; time the
                // same public computation on its own.
                let a0 = host_ns();
                let offsets = r
                    .tracer
                    .span("loadgen.arrival_offsets", || p.arrival_offsets());
                std::hint::black_box(offsets);
                if let Some(d) = r.checks.host_interval("arrival_offsets", a0, host_ns()) {
                    arrivals_ms.push(d as f64 / 1e6);
                }
            }
        }
        match digests[k] {
            None => digests[k] = Some(digest.0),
            Some(d0) => r.checks.check(digest.0 == d0, || {
                format!(
                    "service: rep {rep} digest {:016x} differs from seed's first {d0:016x}",
                    digest.0
                )
            }),
        }
        if let Some(d) = r.checks.host_interval("service rep", t0, host_ns()) {
            rep_ns[traced as usize].push(d as f64);
        }
        rep += 1;
    }

    let ns = |c: u64| cycles_to_ns(c);
    let p99: Vec<f64> = rungs
        .iter_mut()
        .map(|g| ns(percentile(&mut g.e2e, 0.99)))
        .collect();
    let low_p50 = ns(percentile(&mut rungs[0].e2e, 0.5));
    let low = &rungs[0];
    let mid = &rungs[1];
    let m = &mut r.metrics;
    m.e2e("setup_s", median(&setup_s), "s");
    m.e2e("host_kops_per_s", median(&kops), "kops/s");
    m.e2e(
        "sim_ns_per_op",
        ns(low.e2e_sum) / low.e2e.len() as f64,
        "ns",
    );
    m.e2e("sim_op_p50_ns", low_p50, "ns");
    m.e2e("sim_op_p99_ns", p99[0], "ns");
    m.extra("e2e_p50_us.low", low_p50 / 1e3, "us");
    m.extra("e2e_p99_us.low", p99[0] / 1e3, "us");
    m.extra("e2e_p99_us.mid", p99[1] / 1e3, "us");
    m.extra("gen_lag_p99_us", ns(mid.lag.p99()) / 1e3, "us");
    // The knee: the highest rung whose e2e p99 meets the SLO, whose
    // ingress depth does not diverge, and whose generator lag p99 stays
    // under one mean inter-arrival gap.
    let knee = RATES
        .iter()
        .zip(&rungs)
        .zip(&p99)
        .filter(|((&rate, g), &p99)| {
            p99 <= SLO_P99_NS && !g.diverged && g.lag.p99() < plan(0, rate).mean_gap_cycles()
        })
        .map(|((&rate, _), _)| rate)
        .max()
        .unwrap_or(0);
    m.extra("knee_krps", knee as f64 / 1e3, "krps");
    for (name, g) in RUNG_NAMES.iter().zip(&rungs) {
        m.extra(
            &format!("max_depth_ingress.{name}"),
            g.max_depth as f64,
            "count",
        );
    }
    m.extra("reps", rep as f64, "count");

    agg.emit(m);
    m.layer("coherence.host_ns_per_event", median(&ev_ns), "ns");
    m.layer("coherence.build_us", median(&build_us), "us");
    m.layer(
        "sbq.atomics_per_op",
        agg.atomics as f64 / (enqs + deqs) as f64,
        "count",
    );
    m.layer("sbq.deq_empty_ratio", empties as f64 / deqs as f64, "ratio");
    m.layer("loadgen.arrivals_ms", median(&arrivals_ms), "ms");
    m.layer("loadgen.enq_p50_ns", ns(low.enq.p50()), "ns");
    m.layer("loadgen.service_p99_us", ns(mid.service.p99()) / 1e3, "us");
    m.layer("loadgen.max_depth_ingress", mid.max_depth as f64, "count");
    m.layer("loadgen.achieved_ratio", median(&mid.achieved), "ratio");
    r.overhead(&rep_ns);
}
