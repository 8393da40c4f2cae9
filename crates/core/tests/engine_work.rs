//! Exact work gate for the coherence engine: the event count of Figure
//! 1's hot-word passes (44 cores on one socket, 120 increments each, the
//! default machine seed) is a pure function of the model, so it is pinned
//! to the unit. A change that moves it must say why; a change that makes
//! the engine do more work per op shows here before any wall clock.

use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use sbq::txcas::{txn_cas, TxCasParams, TxCasStats};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

const THREADS: usize = 44;
const OPS: u64 = 120;

/// Runs one hot-word pass on a fresh machine and returns its event count.
/// The program mirrors the benchmark's: a start barrier, `OPS`
/// increments per thread, an end barrier, and one final read.
fn hot_word_events(txcas: bool) -> u64 {
    let mut cfg = MachineConfig::single_socket(THREADS);
    cfg.check_invariants = false;
    let addr = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..THREADS)
        .map(|_| {
            let addr = Arc::clone(&addr);
            Box::new(move |ctx: &mut SimCtx| {
                let a = addr.load(SeqCst);
                let params = TxCasParams::default();
                let mut stats = TxCasStats::default();
                ctx.barrier();
                for _ in 0..OPS {
                    if txcas {
                        let old = ctx.read(a);
                        txn_cas(ctx, &params, a, old, old + 1, &mut stats);
                    } else {
                        ctx.faa(a, 1);
                    }
                }
                ctx.barrier();
                if ctx.thread_id() == 0 {
                    let _ = ctx.read(a);
                }
            }) as Program
        })
        .collect();
    let setup_addr = Arc::clone(&addr);
    let report = Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            setup_addr.store(a, SeqCst);
        }),
        programs,
    );
    report.stats.events
}

#[test]
fn hot_word_event_counts_are_pinned() {
    let tx = hot_word_events(true);
    let faa = hot_word_events(false);
    assert_eq!(tx, 79_220, "44-core TxCAS hot-word events moved");
    assert_eq!(faa, 31_733, "44-core FAA hot-word events moved");
    let per_op = tx as f64 / (THREADS as u64 * OPS) as f64;
    assert!(
        per_op < 16.0,
        "TxCAS hot word costs {per_op:.1} events/op; directory waiting should keep it under 16"
    );
}
