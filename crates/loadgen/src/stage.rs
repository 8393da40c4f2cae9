//! The driven stage graph: ingress queue → worker pool → egress queue,
//! executed on any [`harness::Backend`].
//!
//! This generalizes `examples/pipeline.rs` into a *measured, open-loop*
//! service: sources replay the plan's precomputed arrival schedule
//! (waiting out the gap to each request's due time, never waiting for
//! completions), workers dequeue ingress, spend the request's service
//! time, and forward to egress, and egress threads timestamp
//! completion. Both stage boundaries are the queue implementation under
//! test — the same [`harness::QueueKind`] adapters the figures and the
//! fuzzer drive — so the saturation behaviour of each queue shows up as
//! end-to-end SLO latency, not just closed-loop ops/thread.
//!
//! Request `id` (1-based) is the queue element itself; its scheduled
//! arrival, ingress-enqueue, and completion times live in host-side
//! tables indexed by id. On the simulator every timestamp is a
//! deterministic function of the plan, so a run's histograms, digest,
//! and exported trace are byte-identical across repeats; on native the
//! same code measures wall-clock cycles.

use crate::plan::LoadPlan;
use absmem::ThreadCtx;
use coherence::MachineConfig;
use harness::{
    Backend, BackendKind, Job, NativeBackend, QueueAdapter, QueueKind, QueueParams, QueueVisitor,
    SimBackend, Substrate,
};
use obs::{Histogram, InstantKind, ObsSink, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// One measured offered-load point (the TSV/JSON row).
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Queue series name (the paper's legend).
    pub queue: &'static str,
    /// Arrival-pattern token.
    pub pattern: &'static str,
    /// Mean offered load of the plan, requests/sec.
    pub offered_rps: u64,
    /// Requests driven (all of them complete — open loop never sheds).
    pub requests: u64,
    /// Requests observed at egress (equals `requests` on a sane run).
    pub completed: u64,
    /// Completion throughput over the whole run, requests/sec.
    pub achieved_rps: f64,
    /// End-to-end latency (scheduled arrival → egress dequeue), ns.
    pub e2e_p50_ns: f64,
    pub e2e_p99_ns: f64,
    pub e2e_p999_ns: f64,
    pub e2e_max_ns: f64,
    /// Ingress enqueue operation latency (source-side queue op), ns.
    pub enq_p50_ns: f64,
    /// How far sources fell behind their schedule (actual enqueue start
    /// minus scheduled arrival), ns — nonzero lag means the offered load
    /// exceeds what even the *ingress* side can absorb.
    pub src_lag_p99_ns: f64,
    /// Peak ingress / egress queue depth observed (enqueues minus
    /// dequeues after each operation) — the divergence signal.
    pub max_depth_ingress: u64,
    pub max_depth_egress: u64,
    /// Backend end-of-run time, cycles.
    pub end_cycles: u64,
    /// Whether the sweep marked this point as depth-diverged (set by
    /// `sweep::run_sweep` against its depth SLO; `false` from a bare
    /// [`run_load`]).
    pub diverged: bool,
}

/// A full run result: the data point plus the merged histograms and the
/// determinism digest (used by the equivalence suites).
#[derive(Debug)]
pub struct LoadRun {
    pub point: LoadPoint,
    /// End-to-end latency histogram, cycles.
    pub e2e: Histogram,
    /// Ingress enqueue op latency histogram, cycles.
    pub enq_op: Histogram,
    /// Worker service-stage sojourn (ingress dequeue → egress enqueue
    /// done), cycles.
    pub service: Histogram,
    /// Source scheduling lag histogram, cycles.
    pub src_lag: Histogram,
    /// Backend end-of-run time, cycles.
    pub end_time: u64,
    /// FNV-1a over every request's completion timestamp in id order plus
    /// the end time: two runs with equal digests completed every request
    /// at identical (simulated) times.
    pub completion_digest: u64,
    /// Latency intervals that came out negative (an end read before its
    /// start) and were left out of the histograms. Always 0 on a sane
    /// clock; nonzero means a timing bug, not a fast request.
    pub clock_anomalies: u64,
}

/// Per-thread measurement output, merged after the run.
struct RoleOut {
    e2e: Histogram,
    enq_op: Histogram,
    service: Histogram,
    src_lag: Histogram,
    clock_anomalies: u64,
}

impl RoleOut {
    fn new() -> RoleOut {
        RoleOut {
            e2e: Histogram::new(),
            enq_op: Histogram::new(),
            service: Histogram::new(),
            src_lag: Histogram::new(),
            clock_anomalies: 0,
        }
    }

    /// Records `end - start` into `h`, or counts an anomaly when the
    /// interval is negative.
    fn record_interval(h: &mut Histogram, anomalies: &mut u64, start: u64, end: u64) {
        match end.checked_sub(start) {
            Some(d) => h.record(d),
            None => *anomalies += 1,
        }
    }
}

/// Host-side shared state: queue bases, counters, and per-request
/// timestamp tables. On the simulator the fibers interleave
/// deterministically, so these atomics are as reproducible as simulated
/// memory; on native they are ordinary racy-but-correct counters.
struct Shared {
    base_in: AtomicU64,
    base_out: AtomicU64,
    /// The run's time origin: the clock reading of the first thread past
    /// the start barrier. Every arrival is due at `epoch + offset`, for
    /// sources and egress alike (on native, threads leave the barrier at
    /// different times; on the simulator all at the same cycle).
    epoch: AtomicU64,
    arrivals: Vec<u64>,
    sources_done: AtomicU64,
    ing_enq: AtomicU64,
    ing_deq: AtomicU64,
    eg_enq: AtomicU64,
    eg_deq: AtomicU64,
    ing_depth_max: AtomicU64,
    eg_depth_max: AtomicU64,
    /// Completion timestamp per request id (index 0 unused).
    final_t: Vec<AtomicU64>,
    outs: Mutex<Vec<RoleOut>>,
}

impl Shared {
    fn new(plan: &LoadPlan) -> Shared {
        Shared {
            base_in: AtomicU64::new(0),
            base_out: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            arrivals: plan.arrival_offsets(),
            sources_done: AtomicU64::new(0),
            ing_enq: AtomicU64::new(0),
            ing_deq: AtomicU64::new(0),
            eg_enq: AtomicU64::new(0),
            eg_deq: AtomicU64::new(0),
            ing_depth_max: AtomicU64::new(0),
            eg_depth_max: AtomicU64::new(0),
            final_t: (0..=plan.requests).map(|_| AtomicU64::new(0)).collect(),
            outs: Mutex::new(Vec::new()),
        }
    }

    /// Records an enqueue on a (enq, deq) counter pair and updates the
    /// depth high-water mark.
    fn note_enqueue(enq: &AtomicU64, deq: &AtomicU64, depth_max: &AtomicU64) {
        let e = enq.fetch_add(1, SeqCst) + 1;
        let d = deq.load(SeqCst);
        depth_max.fetch_max(e.saturating_sub(d), SeqCst);
    }

    /// The run's epoch, published by the first caller (call once per
    /// thread, right after the start barrier).
    fn start_epoch(&self, now: u64) -> u64 {
        match self.epoch.compare_exchange(0, now, SeqCst, SeqCst) {
            Ok(_) => now,
            Err(first) => first,
        }
    }
}

/// The queue parameters the stage graph hands both boundary queues.
fn stage_queue_params(plan: &LoadPlan) -> QueueParams {
    let threads = plan.threads();
    QueueParams {
        max_threads: threads,
        // Basket cell index = thread id, and the egress queue sees
        // inserts from worker ids up to `sources + workers - 1`, so the
        // inserter bound must cover every thread that ever enqueues on
        // either queue (egress threads never do).
        enqueuers: plan.sources + plan.workers,
        basket_capacity: threads.max(44),
        ..Default::default()
    }
}

/// The simulated machine a load plan runs on: sockets of at most 44
/// cores (the paper machine's width), so an 88-thread plan lands on a
/// dual-socket topology with interleaved directory homes while narrow
/// plans keep their historical single-socket layout. Delay jitter is
/// off (the plan's own service jitter is the only noise source, so
/// runs are a pure function of the plan), invariant checking off for
/// throughput.
pub fn machine_for(plan: &LoadPlan) -> MachineConfig {
    let threads = plan.threads();
    let mut m = if threads > 44 {
        let sockets = threads.div_ceil(44);
        let mut m = MachineConfig::multi_socket(sockets, threads.div_ceil(sockets));
        m.cores = threads;
        m
    } else {
        MachineConfig::single_socket(threads)
    };
    m.delay_jitter_pct = 0;
    m.check_invariants = false;
    m.seed = plan.seed;
    m
}

/// Runs `plan` with queue type `Q` on `backend` and returns the full
/// result. Optionally emits typed spans into `obs` — recording reuses
/// the `ctx.now()` reads the latency accounting already performs, so a
/// sink cannot perturb the run (the obs on/off equivalence test pins
/// this).
pub fn run_load_on<B, Q>(backend: &mut B, plan: &LoadPlan, obs: Option<&Arc<ObsSink>>) -> LoadRun
where
    B: Backend,
    Q: QueueAdapter<B::Ctx> + 'static,
{
    plan.validate().expect("invalid load plan");
    let sh = Arc::new(Shared::new(plan));
    let n = plan.requests;
    let nthreads = plan.threads();
    let qp = stage_queue_params(plan);

    let mut programs: Vec<Job<B::Ctx>> = Vec::with_capacity(nthreads);
    // Sources: replay the arrival schedule.
    for s in 0..plan.sources {
        let sh = Arc::clone(&sh);
        let plan = plan.clone();
        let sink = obs.cloned();
        programs.push(Box::new(move |ctx: &mut B::Ctx| {
            let mut q = Q::attach(sh.base_in.load(SeqCst), ctx, &stage_queue_params(&plan));
            let mut tobs = sink.as_ref().map(|sk| sk.thread(ctx.thread_id()));
            let mut out = RoleOut::new();
            ctx.barrier();
            let start = sh.start_epoch(ctx.now());
            let mut k = s;
            while (k as u64) < n {
                let id = k as u64 + 1;
                let due = start + sh.arrivals[k];
                // A native busy-wait may end a few cycles short; wait out
                // the rest (a simulated delay is exact, so this runs once).
                let mut t0 = ctx.now();
                while t0 < due {
                    ctx.delay(due - t0);
                    t0 = ctx.now();
                }
                RoleOut::record_interval(&mut out.src_lag, &mut out.clock_anomalies, due, t0);
                q.enqueue(ctx, id);
                let t1 = ctx.now();
                out.enq_op.record(t1 - t0);
                Shared::note_enqueue(&sh.ing_enq, &sh.ing_deq, &sh.ing_depth_max);
                if let Some(o) = &mut tobs {
                    o.instant(InstantKind::Arrival, due, id);
                    o.span(SpanKind::Enqueue, t0, t1, id);
                }
                k += plan.sources;
            }
            sh.sources_done.fetch_add(1, SeqCst);
            if let (Some(sk), Some(o)) = (&sink, tobs.take()) {
                sk.submit(o);
            }
            sh.outs.lock().unwrap_or_else(|e| e.into_inner()).push(out);
        }));
    }
    // Workers: ingress → service → egress.
    for _ in 0..plan.workers {
        let sh = Arc::clone(&sh);
        let plan = plan.clone();
        let sink = obs.cloned();
        programs.push(Box::new(move |ctx: &mut B::Ctx| {
            let qp = stage_queue_params(&plan);
            let mut qin = Q::attach(sh.base_in.load(SeqCst), ctx, &qp);
            let mut qout = Q::attach(sh.base_out.load(SeqCst), ctx, &qp);
            let mut tobs = sink.as_ref().map(|sk| sk.thread(ctx.thread_id()));
            let mut out = RoleOut::new();
            ctx.barrier();
            loop {
                let t0 = ctx.now();
                match qin.dequeue(ctx) {
                    Some(id) => {
                        sh.ing_deq.fetch_add(1, SeqCst);
                        let t1 = ctx.now();
                        ctx.delay(plan.service_cycles_for(id));
                        qout.enqueue(ctx, id);
                        let t2 = ctx.now();
                        out.service.record(t2 - t1);
                        Shared::note_enqueue(&sh.eg_enq, &sh.eg_deq, &sh.eg_depth_max);
                        if let Some(o) = &mut tobs {
                            o.span(SpanKind::Dequeue, t0, t1, id);
                            o.span(SpanKind::Service, t1, t2, id);
                        }
                    }
                    None => {
                        if sh.sources_done.load(SeqCst) == plan.sources as u64
                            && sh.ing_deq.load(SeqCst) == n
                        {
                            break;
                        }
                        ctx.delay(plan.poll_cycles.max(1));
                    }
                }
            }
            if let (Some(sk), Some(o)) = (&sink, tobs.take()) {
                sk.submit(o);
            }
            sh.outs.lock().unwrap_or_else(|e| e.into_inner()).push(out);
        }));
    }
    // Egress: drain and timestamp completion.
    for _ in 0..plan.egress {
        let sh = Arc::clone(&sh);
        let plan = plan.clone();
        let sink = obs.cloned();
        programs.push(Box::new(move |ctx: &mut B::Ctx| {
            let mut q = Q::attach(sh.base_out.load(SeqCst), ctx, &stage_queue_params(&plan));
            let mut tobs = sink.as_ref().map(|sk| sk.thread(ctx.thread_id()));
            let mut out = RoleOut::new();
            ctx.barrier();
            let start = sh.start_epoch(ctx.now());
            loop {
                let t0 = ctx.now();
                match q.dequeue(ctx) {
                    Some(id) => {
                        sh.eg_deq.fetch_add(1, SeqCst);
                        let t1 = ctx.now();
                        let due = start + sh.arrivals[(id - 1) as usize];
                        RoleOut::record_interval(&mut out.e2e, &mut out.clock_anomalies, due, t1);
                        sh.final_t[id as usize].store(t1, SeqCst);
                        if let Some(o) = &mut tobs {
                            o.span(SpanKind::Dequeue, t0, t1, id);
                        }
                    }
                    None => {
                        if sh.eg_deq.load(SeqCst) == n {
                            break;
                        }
                        ctx.delay(plan.poll_cycles.max(1));
                    }
                }
            }
            if let (Some(sk), Some(o)) = (&sink, tobs.take()) {
                sk.submit(o);
            }
            sh.outs.lock().unwrap_or_else(|e| e.into_inner()).push(out);
        }));
    }

    let sh2 = Arc::clone(&sh);
    let report = backend.run(
        Box::new(move |ctx| {
            sh2.base_in.store(Q::create(ctx, &qp), SeqCst);
            sh2.base_out.store(Q::create(ctx, &qp), SeqCst);
        }),
        programs,
    );

    // Merge per-thread measurements (exact histogram merge).
    let outs = sh.outs.lock().unwrap_or_else(|e| e.into_inner());
    let mut e2e = Histogram::new();
    let mut enq_op = Histogram::new();
    let mut service = Histogram::new();
    let mut src_lag = Histogram::new();
    let mut clock_anomalies = 0;
    for o in outs.iter() {
        e2e.merge(&o.e2e);
        enq_op.merge(&o.enq_op);
        service.merge(&o.service);
        src_lag.merge(&o.src_lag);
        clock_anomalies += o.clock_anomalies;
    }
    drop(outs);

    let completed = sh.eg_deq.load(SeqCst);
    let end_time = report.end_time;
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut fnv = |v: u64| {
        for b in v.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    };
    for t in sh.final_t.iter().skip(1) {
        fnv(t.load(SeqCst));
    }
    fnv(end_time);

    let point = LoadPoint {
        queue: Q::NAME,
        pattern: plan.pattern.name(),
        offered_rps: plan.rate_rps,
        requests: n,
        completed,
        achieved_rps: completed as f64 / (coherence::cycles_to_ns(end_time.max(1)) / 1e9),
        e2e_p50_ns: coherence::cycles_to_ns(e2e.p50()),
        e2e_p99_ns: coherence::cycles_to_ns(e2e.p99()),
        e2e_p999_ns: coherence::cycles_to_ns(e2e.p999()),
        e2e_max_ns: coherence::cycles_to_ns(e2e.max()),
        enq_p50_ns: coherence::cycles_to_ns(enq_op.p50()),
        src_lag_p99_ns: coherence::cycles_to_ns(src_lag.p99()),
        max_depth_ingress: sh.ing_depth_max.load(SeqCst),
        max_depth_egress: sh.eg_depth_max.load(SeqCst),
        end_cycles: end_time,
        diverged: false,
    };
    LoadRun {
        point,
        e2e,
        enq_op,
        service,
        src_lag,
        end_time,
        completion_digest: digest,
        clock_anomalies,
    }
}

struct LoadDriver<'a, B: Backend> {
    backend: &'a mut B,
    plan: &'a LoadPlan,
    obs: Option<&'a Arc<ObsSink>>,
}

impl<B> QueueVisitor<B::Ctx> for LoadDriver<'_, B>
where
    B: Backend,
    B::Ctx: Substrate,
{
    type Out = LoadRun;

    fn visit<Q: QueueAdapter<B::Ctx> + 'static>(self) -> LoadRun {
        run_load_on::<B, Q>(self.backend, self.plan, self.obs)
    }
}

/// Runs `plan` on the chosen backend, dispatching on the queue kind —
/// the sweep's and `simctl load`'s entry point.
pub fn run_load(
    kind: QueueKind,
    plan: &LoadPlan,
    backend: BackendKind,
    obs: Option<&Arc<ObsSink>>,
) -> LoadRun {
    match backend {
        BackendKind::Sim => {
            let mut b = SimBackend::new(machine_for(plan));
            kind.visit::<coherence::SimCtx, _>(LoadDriver {
                backend: &mut b,
                plan,
                obs,
            })
        }
        BackendKind::Native => {
            let mut b = NativeBackend::default();
            kind.visit::<absmem::native::NativeCtx, _>(LoadDriver {
                backend: &mut b,
                plan,
                obs,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ArrivalPattern;

    fn tiny_plan() -> LoadPlan {
        LoadPlan {
            requests: 24,
            rate_rps: 4_000_000,
            sources: 1,
            workers: 2,
            egress: 1,
            service_cycles: 400,
            ..Default::default()
        }
    }

    #[test]
    fn every_request_completes_on_sim() {
        let run = run_load(QueueKind::SbqHtm, &tiny_plan(), BackendKind::Sim, None);
        assert_eq!(run.point.completed, 24);
        assert_eq!(run.e2e.count(), 24);
        // Every completion timestamp was stored.
        assert!(run.point.end_cycles > 0);
        assert!(run.point.e2e_p50_ns > 0.0);
        assert!(run.point.e2e_p50_ns <= run.point.e2e_p99_ns);
        assert!(run.point.e2e_p99_ns <= run.point.e2e_p999_ns);
        assert!(run.point.e2e_p999_ns <= run.point.e2e_max_ns);
    }

    #[test]
    fn sim_runs_are_deterministic() {
        let plan = LoadPlan {
            pattern: ArrivalPattern::Bursty {
                on_cycles: 4_000,
                off_cycles: 12_000,
            },
            ..tiny_plan()
        };
        let a = run_load(QueueKind::MsQueue, &plan, BackendKind::Sim, None);
        let b = run_load(QueueKind::MsQueue, &plan, BackendKind::Sim, None);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.completion_digest, b.completion_digest);
        assert_eq!(a.point.max_depth_ingress, b.point.max_depth_ingress);
    }

    #[test]
    fn overload_shows_up_as_depth_and_tail() {
        // Capacity with 1 worker at 20k cycles/request ≈ 110k rps;
        // offer 16× that and the ingress queue must pile up.
        let base = LoadPlan {
            requests: 64,
            sources: 1,
            workers: 1,
            egress: 1,
            service_cycles: 20_000,
            ..Default::default()
        };
        let low = LoadPlan {
            rate_rps: 30_000,
            ..base.clone()
        };
        let high = LoadPlan {
            rate_rps: 1_760_000,
            ..base
        };
        let l = run_load(QueueKind::SbqCas, &low, BackendKind::Sim, None);
        let h = run_load(QueueKind::SbqCas, &high, BackendKind::Sim, None);
        assert!(
            h.point.max_depth_ingress > 4 * l.point.max_depth_ingress.max(1),
            "overload depth {} vs underload {}",
            h.point.max_depth_ingress,
            l.point.max_depth_ingress
        );
        assert!(
            h.point.e2e_p99_ns > 4.0 * l.point.e2e_p99_ns,
            "overload p99 {} vs underload {}",
            h.point.e2e_p99_ns,
            l.point.e2e_p99_ns
        );
    }
}
