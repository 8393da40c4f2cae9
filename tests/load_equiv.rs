//! Equivalence and sanity suite for the open-loop load layer: the
//! parallel fan-out, the observability hook, and the load numbers
//! themselves must all be interchangeable with their references.

use bench::workload::closed_loop_reference;
use harness::{BackendKind, QueueKind};
use loadgen::{run_load, run_sweep, to_json, to_tsv, LoadPlan, SweepSpec};
use obs::ObsSink;
use std::sync::Arc;

fn sweep_spec(queue: QueueKind) -> SweepSpec {
    SweepSpec {
        plan: LoadPlan {
            requests: 96,
            sources: 1,
            workers: 2,
            egress: 1,
            service_cycles: 3_000,
            ..Default::default()
        },
        queue,
        backend: BackendKind::Sim,
        rates: vec![150_000, 600_000, 1_400_000, 2_800_000],
        slo_p99_ns: 50_000.0,
        depth_slo: 0,
        jobs: 1,
    }
}

/// The runner contract applied to load sweeps: fanning the rate points
/// across 4 workers must leave every rendered byte unchanged.
#[test]
fn sweep_is_byte_identical_across_job_counts() {
    for queue in [QueueKind::SbqHtm, QueueKind::MsQueue] {
        let spec = sweep_spec(queue);
        let serial = run_sweep(&SweepSpec {
            jobs: 1,
            ..spec.clone()
        });
        let fanned = run_sweep(&SweepSpec { jobs: 4, ..spec });
        assert_eq!(serial.digests, fanned.digests, "{queue:?} digests differ");
        assert_eq!(serial.knee, fanned.knee, "{queue:?} knee differs");
        assert_eq!(
            to_tsv(&serial),
            to_tsv(&fanned),
            "{queue:?} TSV differs across job counts"
        );
        assert_eq!(
            to_json(&serial),
            to_json(&fanned),
            "{queue:?} JSON differs across job counts"
        );
    }
}

/// Repeating the identical sweep must reproduce the identical artifact
/// (the arrival schedule and the simulator are both deterministic).
#[test]
fn sweep_is_byte_identical_across_repeats() {
    let spec = sweep_spec(QueueKind::SbqCas);
    let a = run_sweep(&spec);
    let b = run_sweep(&spec);
    assert_eq!(to_tsv(&a), to_tsv(&b));
    assert_eq!(to_json(&a), to_json(&b));
}

/// Attaching an observability sink must not perturb the simulation:
/// recording reuses timestamps the latency accounting already read, so
/// end time and every completion timestamp stay bit-identical.
#[test]
fn obs_recording_does_not_perturb_the_run() {
    let plan = LoadPlan {
        requests: 64,
        service_cycles: 2_000,
        rate_rps: 800_000,
        ..Default::default()
    };
    for queue in [QueueKind::SbqHtm, QueueKind::WfQueue] {
        let bare = run_load(queue, &plan, BackendKind::Sim, None);
        let sink = Arc::new(ObsSink::default());
        let observed = run_load(queue, &plan, BackendKind::Sim, Some(&sink));
        assert_eq!(
            bare.end_time, observed.end_time,
            "{queue:?}: obs changed the end time"
        );
        assert_eq!(
            bare.completion_digest, observed.completion_digest,
            "{queue:?}: obs changed completion timestamps"
        );
        // And the sink actually captured the run: every request produces
        // an arrival instant plus enqueue/dequeue/service spans.
        let logs = sink.take_logs();
        let events: usize = logs.iter().map(|l| l.events.len()).sum();
        assert!(
            events >= 4 * plan.requests as usize,
            "{queue:?}: only {events} events for {} requests",
            plan.requests
        );
    }
}

/// Zero-overload sanity: with offered load far below capacity, an
/// open-loop source's enqueue-op p50 must sit near the closed-loop
/// single-producer reference — the queue cannot tell paced arrivals
/// from a momentarily idle closed loop. (The factor-3 band absorbs
/// histogram bucket error and the cold-start cache misses the paced
/// run re-pays per operation.)
#[test]
fn zero_overload_open_loop_matches_closed_loop_reference() {
    let plan = LoadPlan {
        requests: 128,
        rate_rps: 100_000, // capacity with 2 workers @1500cy ≈ 2.9M rps
        ..Default::default()
    };
    for queue in [QueueKind::SbqCas, QueueKind::MsQueue] {
        let open = run_load(queue, &plan, BackendKind::Sim, None);
        assert_eq!(open.point.completed, plan.requests);
        let closed = closed_loop_reference(queue, 1, 128);
        let ratio = open.point.enq_p50_ns / closed.p50_ns.max(1.0);
        assert!(
            (1.0 / 3.0..=3.0).contains(&ratio),
            "{queue:?}: open-loop enq p50 {:.0} ns vs closed-loop {:.0} ns (ratio {ratio:.2})",
            open.point.enq_p50_ns,
            closed.p50_ns
        );
        // Sources kept schedule: p99 lag below one mean inter-arrival gap.
        let gap_ns = coherence::cycles_to_ns(plan.mean_gap_cycles());
        assert!(
            open.point.src_lag_p99_ns < gap_ns,
            "{queue:?}: src lag p99 {:.0} ns exceeds the {gap_ns:.0} ns gap",
            open.point.src_lag_p99_ns
        );
    }
}

/// The same plan must run on the native backend too (wall-clock, not
/// deterministic): full completion and plausible positive latencies.
#[test]
fn native_backend_runs_the_same_plan() {
    let plan = LoadPlan {
        requests: 64,
        rate_rps: 400_000,
        ..Default::default()
    };
    let run = run_load(QueueKind::SbqCas, &plan, BackendKind::Native, None);
    assert_eq!(run.point.completed, plan.requests);
    assert!(run.point.e2e_p50_ns > 0.0);
    assert!(run.point.e2e_p50_ns <= run.point.e2e_p99_ns);
    assert!(run.point.end_cycles > 0);
}

/// Native threads leave the start barrier at different times, and with
/// more threads than host CPUs some leave it much later. Every role must
/// still measure from the one shared epoch: no interval may come out
/// negative, and end-to-end latency is positive.
#[test]
fn native_plan_wider_than_the_host_measures_from_one_epoch() {
    let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
    let plan = LoadPlan {
        requests: 64,
        rate_rps: 400_000,
        sources: 2,
        workers: cpus,
        egress: 2,
        ..Default::default()
    };
    assert!(plan.threads() > cpus);
    let run = run_load(QueueKind::SbqCas, &plan, BackendKind::Native, None);
    assert_eq!(run.point.completed, plan.requests);
    assert_eq!(run.clock_anomalies, 0, "negative intervals were measured");
    assert!(run.point.e2e_p50_ns > 0.0);
}
