//! Open-loop load demo: drive a queue-backed service (ingress → worker
//! pool → egress, both boundaries the queue under test) with seeded
//! bursty traffic at a ladder of offered rates, and find the offered
//! load where the p99 blows through the SLO.
//!
//! Run with: `cargo run --release --example load_service`
//!
//! Unlike a closed-loop pipeline (where stages pace each other),
//! arrivals here are precomputed from the seed, so the queue's
//! saturation shows up as growing end-to-end latency and ingress depth
//! rather than as reduced throughput. Everything below is simulated and
//! deterministic: re-running prints byte-identical numbers.

use harness::{BackendKind, QueueKind};
use loadgen::{run_sweep, to_tsv, ArrivalPattern, LoadPlan, SweepSpec};

fn main() {
    let plan = LoadPlan {
        pattern: ArrivalPattern::Bursty {
            on_cycles: 20_000,
            off_cycles: 60_000,
        },
        requests: 128,
        sources: 1,
        workers: 2,
        egress: 1,
        service_cycles: 3_000,
        service_jitter_pct: 20,
        ..Default::default()
    };
    println!(
        "service capacity ≈ {} rps ({} workers × {} cycles/request)\n",
        plan.capacity_rps(),
        plan.workers,
        plan.service_cycles
    );

    for queue in [QueueKind::SbqHtm, QueueKind::MsQueue] {
        let spec = SweepSpec {
            plan: plan.clone(),
            queue,
            backend: BackendKind::Sim,
            rates: vec![100_000, 300_000, 600_000, 1_200_000, 2_400_000],
            slo_p99_ns: 60_000.0,
            depth_slo: 0,
            jobs: 1,
        };
        let r = run_sweep(&spec);
        print!("{}", to_tsv(&r));
        match &r.knee {
            Some(k) => println!(
                "→ {} saturates at {} rps ({})\n",
                queue.name(),
                k.offered_rps,
                k.reason.name()
            ),
            None => println!("→ {} met the SLO at every probed rate\n", queue.name()),
        }
    }
}
