//! `sbq-mixed-2s`: Figure 7's shape. SBQ-HTM on a pre-filled queue, 22
//! producers on socket 0 and 22 consumers on socket 1 of the simulated
//! dual-socket machine (closed loop). The same plan then runs on the
//! native backend with one producer and one consumer OS thread: the only
//! real-atomics number in the benchmark.

use crate::util::{host_ns, median, mix, stats_digest, Agg, Checks, Lat};
use crate::Run;
use absmem::ThreadCtx;
use coherence::{cycles_to_ns, MachineConfig};
use harness::{
    Backend, BackendReport, Job, NativeBackend, QueueAdapter, QueueParams, SbqHtmQ, SimBackend,
    Substrate,
};
use obs::{Histogram, ObsSink, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

const PER_SOCKET: usize = 22;
/// Measured enqueues per producer (and successful dequeues per
/// consumer) of one simulated rep.
const SIM_OPS: u64 = 150;
/// Distinct machine seeds per run; see `hotword::SIM_REPS`.
const SIM_REPS: usize = 16;
/// Native rep size. `NativeBackend::default()` has a 2^23-word heap, and
/// about 200k SBQ enqueues exhaust it (one thread then panics and its
/// sibling waits in the barrier forever), so stay far below.
const NATIVE_OPS: u64 = 20_000;

/// One run of the mixed plan on some backend.
struct Shape {
    producers: usize,
    consumers: usize,
    ops: u64,
    prefill: u64,
    qp: QueueParams,
}

impl Shape {
    fn new(producers: usize, consumers: usize, ops: u64) -> Shape {
        let threads = producers + consumers;
        Shape {
            producers,
            consumers,
            ops,
            prefill: ops / 2 + 8,
            qp: QueueParams {
                max_threads: threads,
                enqueuers: producers,
                // Basket cell index = thread id, so the capacity covers
                // every attached thread although only producers insert.
                basket_capacity: threads.max(44),
                ..Default::default()
            },
        }
    }
}

#[derive(Default)]
struct ThreadOut {
    tid: usize,
    enq: Lat,
    deq: Lat,
    empties: u64,
    /// Values this consumer dequeued in the measured phase, in order.
    got: Vec<u64>,
    /// Values drained after the measured phase (first consumer only).
    drained: Vec<u64>,
    drain_polls: u64,
    start: u64,
    end: u64,
    host_entry: u64,
    host_end: u64,
    host_exit: u64,
}

struct Shared {
    base: AtomicU64,
    /// Host clock when the first thread passed the post-prefill barrier.
    started: AtomicU64,
    outs: Mutex<Vec<ThreadOut>>,
}

struct Outcome {
    outs: Vec<ThreadOut>,
    report: BackendReport,
    setup_ns: Option<u64>,
    timed_ns: Option<u64>,
    /// Host ns outside the threads' own work: heap and queue set-up and
    /// spawning before the first thread starts, joining after the last.
    overhead_ns: Option<u64>,
    measured_ops: u64,
    queue_ops: u64,
}

fn value(tid: usize, seq: u64) -> u64 {
    ((tid as u64) << 40) | seq
}

/// Runs `shape` on `backend`. `t0` is the host time the rep started
/// (before the backend was built). With a sink, every measured op is
/// also recorded as a host-time span on its thread.
fn drive<B>(
    backend: &mut B,
    shape: &Shape,
    t0: u64,
    sink: Option<&Arc<ObsSink>>,
    checks: &mut Checks,
) -> Outcome
where
    B: Backend,
    B::Ctx: Substrate,
{
    let sh = Arc::new(Shared {
        base: AtomicU64::new(0),
        started: AtomicU64::new(0),
        outs: Mutex::new(Vec::new()),
    });
    let threads = shape.producers + shape.consumers;
    let programs: Vec<Job<B::Ctx>> = (0..threads)
        .map(|tid| {
            let sh = Arc::clone(&sh);
            let sink = sink.cloned();
            let (producers, ops, prefill, qp) =
                (shape.producers, shape.ops, shape.prefill, shape.qp);
            Box::new(move |ctx: &mut B::Ctx| {
                let mut o = ThreadOut {
                    tid,
                    host_entry: host_ns(),
                    ..Default::default()
                };
                let mut q = SbqHtmQ::<B::Ctx>::attach(sh.base.load(SeqCst), ctx, &qp);
                let mut tobs = sink.as_ref().map(|s| s.thread(tid));
                let producer = tid < producers;
                let mut seq = 0u64;
                if producer {
                    for _ in 0..prefill {
                        seq += 1;
                        q.enqueue(ctx, value(tid, seq));
                    }
                }
                ctx.barrier();
                let _ = sh.started.compare_exchange(0, host_ns(), SeqCst, SeqCst);
                o.start = ctx.now();
                if producer {
                    for _ in 0..ops {
                        seq += 1;
                        let h0 = tobs.as_ref().map(|_| host_ns());
                        let t0 = ctx.now();
                        q.enqueue(ctx, value(tid, seq));
                        o.enq.record(t0, ctx.now());
                        if let (Some(t), Some(h0)) = (&mut tobs, h0) {
                            t.span(SpanKind::Enqueue, h0, host_ns(), value(tid, seq));
                        }
                    }
                } else {
                    while (o.got.len() as u64) < ops {
                        let h0 = tobs.as_ref().map(|_| host_ns());
                        let t0 = ctx.now();
                        let r = q.dequeue(ctx);
                        o.deq.record(t0, ctx.now());
                        if let (Some(t), Some(h0)) = (&mut tobs, h0) {
                            let kind = if r.is_some() {
                                SpanKind::Dequeue
                            } else {
                                SpanKind::DequeueEmpty
                            };
                            t.span(kind, h0, host_ns(), r.unwrap_or(0));
                        }
                        match r {
                            Some(v) => o.got.push(v),
                            None => o.empties += 1,
                        }
                    }
                }
                o.end = ctx.now();
                o.host_end = host_ns();
                // Every measured op is done past this barrier; the first
                // consumer drains what is left so conservation is exact.
                ctx.barrier();
                if tid == producers {
                    loop {
                        o.drain_polls += 1;
                        match q.dequeue(ctx) {
                            Some(v) => o.drained.push(v),
                            None => break,
                        }
                    }
                }
                if let (Some(s), Some(t)) = (&sink, tobs.take()) {
                    s.submit(t);
                }
                o.host_exit = host_ns();
                sh.outs.lock().expect("a queue thread panicked").push(o);
            }) as Job<B::Ctx>
        })
        .collect();
    let sh2 = Arc::clone(&sh);
    let qp = shape.qp;
    let t_run = host_ns();
    let report = backend.run(
        Box::new(move |ctx| sh2.base.store(SbqHtmQ::<B::Ctx>::create(ctx, &qp), SeqCst)),
        programs,
    );
    let t_end = host_ns();
    let mut outs = std::mem::take(&mut *sh.outs.lock().expect("a queue thread panicked"));
    outs.sort_by_key(|o| o.tid);
    checks.check(outs.len() == threads, || {
        format!("mixed: {} of {threads} threads finished", outs.len())
    });
    let started = sh.started.load(SeqCst);
    let first_entry = outs.iter().map(|o| o.host_entry).min().unwrap_or(0);
    let last_end = outs.iter().map(|o| o.host_end).max().unwrap_or(0);
    let last_exit = outs.iter().map(|o| o.host_exit).max().unwrap_or(0);
    let before = checks.host_interval("backend start", t_run, first_entry);
    let after = checks.host_interval("backend join", last_exit, t_end);
    let measured_ops: u64 = outs.iter().map(|o| o.enq.total + o.deq.total).sum();
    let queue_ops = measured_ops
        + shape.producers as u64 * shape.prefill
        + outs.iter().map(|o| o.drain_polls).sum::<u64>();
    verify(shape, &outs, checks);
    Outcome {
        setup_ns: checks.host_interval("mixed setup", t0, started),
        timed_ns: checks.host_interval("mixed timed", started, last_end),
        overhead_ns: before.zip(after).map(|(b, a)| b + a),
        outs,
        report,
        measured_ops,
        queue_ops,
    }
}

/// No element lost or duplicated, and each consumer (and the drain)
/// sees each producer's values in increasing order.
fn verify(shape: &Shape, outs: &[ThreadOut], checks: &mut Checks) {
    let mut seen: Vec<u64> = Vec::new();
    for o in outs {
        checks.intervals(
            "mixed op latency",
            o.enq.total + o.deq.total,
            o.enq.bad + o.deq.bad,
        );
        for vals in [&o.got, &o.drained] {
            let mut last = vec![0u64; shape.producers];
            let mut ordered = true;
            for &v in vals.iter() {
                let (p, s) = ((v >> 40) as usize, v & ((1 << 40) - 1));
                if p < shape.producers {
                    ordered &= s > last[p];
                    last[p] = s;
                }
            }
            checks.check(ordered, || {
                format!(
                    "mixed: thread {} saw a producer's values out of order",
                    o.tid
                )
            });
            seen.extend_from_slice(vals);
        }
    }
    seen.sort_unstable();
    let per = shape.prefill + shape.ops;
    let expected: Vec<u64> = (0..shape.producers)
        .flat_map(|p| (1..=per).map(move |s| value(p, s)))
        .collect();
    checks.check(seen == expected, || {
        format!(
            "mixed: {} values came out, {} went in, or some were lost or duplicated",
            seen.len(),
            expected.len()
        )
    });
}

fn sim_machine(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::dual_socket(PER_SOCKET);
    cfg.check_invariants = false;
    cfg.seed = seed;
    cfg
}

pub fn run(r: &mut Run) {
    let sim_shape = Shape::new(PER_SOCKET, PER_SOCKET, SIM_OPS);
    let nat_shape = Shape::new(1, 1, NATIVE_OPS);
    let seeds: Vec<u64> = (0..SIM_REPS as u64).map(|i| mix(r.seed, i)).collect();
    let mut digests = [None; SIM_REPS];
    let (mut lat, mut agg) = (Lat::default(), Agg::default());
    let (mut duration, mut measured, mut empties, mut deqs) = (0u64, 0u64, 0u64, 0u64);
    let (mut setup_s, mut kops, mut build_us, mut ev_ns) = (vec![], vec![], vec![], vec![]);
    let (mut nat_mops, mut nat_overhead_us) = (vec![], vec![]);
    // Native latencies only go into histograms: keeping every sample of
    // every native rep would grow the heap with the host's speed.
    let (mut nat_all, mut nat_enq, mut nat_deq) =
        (Histogram::new(), Histogram::new(), Histogram::new());
    let mut rep_ns = [Vec::new(), Vec::new()];
    let deadline = host_ns() + (r.seconds * 1e9) as u64;
    let mut rep = 0usize;
    while r.more(rep, SIM_REPS, deadline) {
        let traced = r.trace && rep % 2 == 1;
        let tr = &r.tracer;
        tr.start_rep(rep as u64, traced);
        let k = rep % SIM_REPS;
        let t0 = host_ns();
        let mut b = tr.span("harness.SimBackend::new", || {
            SimBackend::new(sim_machine(seeds[k]))
        });
        let t_built = host_ns();
        let out = tr.span("harness.Backend::run", || {
            drive(&mut b, &sim_shape, t0, None, &mut r.checks)
        });
        let report = out.report.sim.as_ref().expect("the simulator reports");
        let d = stats_digest(report);
        match digests[k] {
            None => digests[k] = Some(d),
            Some(d0) => r.checks.check(d == d0, || {
                format!("mixed: rep {rep} digest {d:016x} differs from seed's first {d0:016x}")
            }),
        }
        if rep < SIM_REPS {
            for o in &out.outs {
                lat.merge(&o.enq);
                lat.merge(&o.deq);
                empties += o.empties;
                deqs += o.deq.total;
            }
            let start = out.outs.iter().map(|o| o.start).min().unwrap_or(0);
            let end = out.outs.iter().map(|o| o.end).max().unwrap_or(0);
            let span = end.checked_sub(start);
            r.checks.check(span.is_some(), || {
                "mixed: measured phase ends before it starts".into()
            });
            duration += span.unwrap_or(0);
            measured += out.measured_ops;
            agg.add(report, out.queue_ops);
        }
        if let (Some(setup), Some(timed)) = (out.setup_ns, out.timed_ns) {
            setup_s.push(setup as f64 / 1e9);
            kops.push(out.measured_ops as f64 / (timed as f64 / 1e9) / 1e3);
            ev_ns.push(timed as f64 / report.stats.events as f64);
        }
        if let Some(d) = r.checks.host_interval("SimBackend::new", t0, t_built) {
            build_us.push(d as f64 / 1e3);
        }

        // The native half: same plan shape, one thread per side.
        let sink = traced.then(|| Arc::new(ObsSink::new(2 * NATIVE_OPS as usize + 64)));
        let mut nb = NativeBackend::default();
        let nat = tr.span("harness.NativeBackend::run", || {
            drive(&mut nb, &nat_shape, host_ns(), sink.as_ref(), &mut r.checks)
        });
        if let Some(s) = &sink {
            r.add_thread_logs(s);
        }
        if let Some(timed) = nat.timed_ns {
            nat_mops.push(nat.measured_ops as f64 / timed as f64 * 1e3);
        }
        if let Some(o) = nat.overhead_ns {
            nat_overhead_us.push(o as f64 / 1e3);
        }
        if !traced {
            for o in &nat.outs {
                nat_all.merge(&o.enq.hist);
                nat_all.merge(&o.deq.hist);
                nat_enq.merge(&o.enq.hist);
                nat_deq.merge(&o.deq.hist);
            }
        }
        if let Some(d) = r.checks.host_interval("mixed rep", t0, host_ns()) {
            rep_ns[traced as usize].push(d as f64);
        }
        rep += 1;
    }
    if r.trace {
        crate::fuzz::probe(r, rep as u64);
    }
    let ns = |c: u64| cycles_to_ns(c);
    let m = &mut r.metrics;
    m.e2e("setup_s", median(&setup_s), "s");
    m.e2e("host_kops_per_s", median(&kops), "kops/s");
    m.e2e("sim_ns_per_op", ns(duration) / measured as f64, "ns");
    m.e2e("sim_op_p50_ns", ns(lat.percentile(0.5)), "ns");
    m.e2e("sim_op_p99_ns", ns(lat.percentile(0.99)), "ns");
    m.extra("native_mops", median(&nat_mops), "Mops/s");
    m.extra("native_op_p50_ns", ns(nat_all.p50()), "ns");
    m.extra("reps", rep as f64, "count");

    agg.emit(m);
    m.layer("coherence.host_ns_per_event", median(&ev_ns), "ns");
    m.layer("coherence.build_us", median(&build_us), "us");
    m.layer(
        "sbq.atomics_per_op",
        agg.atomics as f64 / agg.units as f64,
        "count",
    );
    m.layer("sbq.deq_empty_ratio", empties as f64 / deqs as f64, "ratio");
    m.layer("absmem.native_enq_ns_p50", ns(nat_enq.p50()), "ns");
    m.layer("absmem.native_deq_ns_p50", ns(nat_deq.p50()), "ns");
    m.layer(
        "harness.native_run_overhead_us",
        median(&nat_overhead_us),
        "us",
    );
    r.overhead(&rep_ns);
}
