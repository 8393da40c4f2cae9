//! Determinism regression: a fixed workload must produce bit-identical
//! `RunReport`s on every run, and identical to the golden fingerprint
//! captured on the original mpsc-channel scheduler — so scheduler and
//! hot-loop rewrites provably preserve simulated results.
//!
//! The fixture disables delay jitter and spurious aborts (the only RNG
//! consumers), so any divergence is a scheduler-ordering bug, not noise.

use absmem::ThreadCtx;
use coherence::{ComponentSpec, HomePolicy, Machine, MachineConfig, Program, RunReport, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

const MSG_KINDS: &[&str] = &[
    "GetS",
    "GetM",
    "Data",
    "Inv",
    "InvAck",
    "Fwd-GetS",
    "Fwd-GetM",
    "DataOwner",
    "WbData",
];
const OP_KINDS: &[&str] = &[
    "read", "write", "cas", "faa", "swap", "delay", "xbegin", "xend", "xabort",
];

/// Flattens the observable run result into one comparable string.
fn fingerprint(r: &RunReport) -> String {
    let mut s = format!("end={} core_end={:?}", r.end_time, r.core_end);
    s.push_str(" msgs=[");
    for k in MSG_KINDS {
        s.push_str(&format!("{}:{} ", k, r.stats.msg(k)));
    }
    s.push_str("] ops=[");
    for k in OP_KINDS {
        s.push_str(&format!("{}:{} ", k, r.stats.op(k)));
    }
    s.push_str(&format!(
        "] commits={} conflicts={} explicit={} spurious={} tripped={} stalls={} fix_stalls={}",
        r.stats.tx_commits,
        r.stats.tx_aborts_conflict,
        r.stats.tx_aborts_explicit,
        r.stats.tx_aborts_spurious,
        r.stats.tripped_writers,
        r.stats.stalls,
        r.stats.fix_stalls
    ));
    s
}

/// A fixed 4-core workload covering the protocol broadside: contended
/// FAA and CAS, shared reads, exclusive writes, swap, delays, an HTM
/// transaction with retry, allocation/free, and a mid-run barrier.
/// `os_threads` forces the OS-thread scheduler instead of the default
/// fiber scheduler (where fibers are supported). `tweak` adjusts the
/// machine after the fixture's own settings (a timing variant, or a
/// benign no-op component under which the fingerprint must not move).
fn fixed_workload_full(
    cores: usize,
    dual_socket: bool,
    os_threads: bool,
    tweak: fn(&mut MachineConfig),
) -> RunReport {
    let mut cfg = if dual_socket {
        MachineConfig::dual_socket(cores.div_ceil(2))
    } else {
        MachineConfig::single_socket(cores)
    };
    cfg.delay_jitter_pct = 0;
    cfg.spurious_abort_prob = 0.0;
    cfg.os_thread_scheduler = os_threads;
    tweak(&mut cfg);
    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst);
                match i % 4 {
                    0 => {
                        for _ in 0..40 {
                            ctx.faa(base, 1);
                        }
                        ctx.barrier();
                        // Transactional read-modify-write with retry.
                        let mut tries = 0;
                        loop {
                            tries += 1;
                            let r = (|| -> coherence::TxResult<()> {
                                ctx.tx_begin()?;
                                let v = ctx.tx_read(base + 1)?;
                                ctx.tx_delay(20)?;
                                ctx.tx_write(base + 2, v + 1)?;
                                ctx.tx_end()?;
                                Ok(())
                            })();
                            if r.is_ok() || tries > 8 {
                                break;
                            }
                        }
                    }
                    1 => {
                        for _ in 0..40 {
                            let old = ctx.read(base);
                            ctx.cas(base, old, old + 1);
                        }
                        ctx.barrier();
                        for k in 0..8 {
                            let _ = ctx.read(base + k);
                        }
                    }
                    2 => {
                        for k in 0..30 {
                            ctx.write(base + 3, k);
                        }
                        ctx.barrier();
                        let extra = ctx.alloc(4);
                        for k in 0..4 {
                            ctx.write(extra + k, k * 7);
                        }
                        let _ = ctx.swap(base + 5, 99);
                        ctx.free(extra, 4);
                    }
                    _ => {
                        for _ in 0..10 {
                            for k in 0..8 {
                                let _ = ctx.read(base + k);
                            }
                        }
                        ctx.barrier();
                        ctx.delay(100);
                        let _ = ctx.faa(base + 1, 3);
                    }
                }
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(8);
            for k in 0..8 {
                ctx.write(a + k, k);
            }
            s2.store(a, SeqCst);
        }),
        programs,
    )
}

/// The fixture without components attached.
fn fixed_workload_on(cores: usize, dual_socket: bool, os_threads: bool) -> RunReport {
    fixed_workload_full(cores, dual_socket, os_threads, |_| {})
}

/// The fixture with a benign no-op heartbeat component attached.
fn with_heartbeat(cfg: &mut MachineConfig) {
    cfg.components.push(ComponentSpec::Heartbeat {
        period: 61,
        count: 0,
    });
}

/// The fixture on the default scheduler (fibers on x86_64).
fn fixed_workload(cores: usize, dual_socket: bool) -> RunReport {
    fixed_workload_on(cores, dual_socket, false)
}

/// Golden fingerprints captured from the seed (mpsc-channel) scheduler.
/// A scheduler or hot-loop rewrite must reproduce these exactly.
const GOLDEN_4_SINGLE: &str = "end=4313 core_end=[4230, 4313, 4319, 4137] \
    msgs=[GetS:35 GetM:58 Data:42 Inv:36 InvAck:36 Fwd-GetS:25 Fwd-GetM:26 DataOwner:51 WbData:25 ] \
    ops=[read:130 write:44 cas:40 faa:41 swap:1 delay:3 xbegin:2 xend:1 xabort:0 ] \
    commits=1 conflicts=1 explicit=0 spurious=0 tripped=0 stalls=48 fix_stalls=0";
const GOLDEN_6_DUAL: &str = "end=27774 core_end=[26814, 26130, 26313, 26124, 26420, 27774] \
    msgs=[GetS:89 GetM:166 Data:94 Inv:106 InvAck:106 Fwd-GetS:56 Fwd-GetM:105 DataOwner:161 WbData:56 ] \
    ops=[read:181 write:47 cas:80 faa:81 swap:1 delay:6 xbegin:5 xend:2 xabort:0 ] \
    commits=2 conflicts=3 explicit=0 spurious=0 tripped=1 stalls=147 fix_stalls=0";

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Paper-scale dual-socket golden: 88 cores, 44 per socket — the
/// geometry of the paper's evaluation machine (§6.1). Captured from the
/// fiber scheduler; `core_end` is summarized (min/max/sum) instead of
/// inlined so the golden stays reviewable at this width.
const GOLDEN_88_DUAL: &str = "end=251174 core_end_len=88 min=247363 max=251174 sum=21895762 \
    msgs=[GetS:1401 GetM:2557 Data:1489 Inv:1838 InvAck:1838 Fwd-GetS:757 Fwd-GetM:1712 DataOwner:2469 WbData:757 ] \
    ops=[read:2863 write:801 cas:880 faa:902 swap:22 delay:69 xbegin:47 xend:22 xabort:0 ] \
    commits=22 conflicts=25 explicit=0 spurious=0 tripped=2 stalls=2457 fix_stalls=0";

/// [`fingerprint`] with `core_end` folded to (len, min, max, sum) — at
/// 88 cores the full vector is pinned through the sum while the golden
/// string stays one line.
fn fingerprint_wide(r: &RunReport) -> String {
    let full = fingerprint(r);
    let folded = format!(
        "core_end_len={} min={} max={} sum={}",
        r.core_end.len(),
        r.core_end.iter().min().unwrap(),
        r.core_end.iter().max().unwrap(),
        r.core_end.iter().sum::<u64>()
    );
    let rest = &full[full.find(" msgs=[").unwrap()..];
    format!("end={} {}{}", r.end_time, folded, rest)
}

#[test]
fn matches_golden_88_core_dual_socket() {
    let fp = fingerprint_wide(&fixed_workload(88, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_88_DUAL),
        "88-core dual-socket fixture diverged from its golden"
    );
}

/// Both schedulers must agree at paper scale, not just on the small
/// fixtures — the OS-thread scheduler hands the token through 89 real
/// threads here.
#[test]
fn os_thread_scheduler_matches_88_core_golden() {
    let fp = fingerprint_wide(&fixed_workload_on(88, true, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_88_DUAL),
        "OS-thread scheduler diverged from the 88-core golden"
    );
}

#[test]
fn repeated_runs_are_identical() {
    let a = fingerprint(&fixed_workload(4, false));
    for _ in 0..3 {
        let b = fingerprint(&fixed_workload(4, false));
        assert_eq!(a, b, "simulated results diverged between identical runs");
    }
}

#[test]
fn repeated_dual_socket_runs_are_identical() {
    let a = fingerprint(&fixed_workload(6, true));
    let b = fingerprint(&fixed_workload(6, true));
    assert_eq!(a, b);
}

#[test]
fn matches_seed_scheduler_golden_single_socket() {
    let fp = fingerprint(&fixed_workload(4, false));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_4_SINGLE),
        "single-socket fixture diverged from the seed scheduler's results"
    );
}

#[test]
fn matches_seed_scheduler_golden_dual_socket() {
    let fp = fingerprint(&fixed_workload(6, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_6_DUAL),
        "dual-socket fixture diverged from the seed scheduler's results"
    );
}

/// The OS-thread (token-passing) scheduler must reproduce the same
/// goldens as the default fiber scheduler: the two are interchangeable
/// down to the bit.
#[test]
fn os_thread_scheduler_matches_goldens() {
    let fp = fingerprint(&fixed_workload_on(4, false, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_4_SINGLE),
        "OS-thread scheduler diverged from the golden results"
    );
    let fp = fingerprint(&fixed_workload_on(6, true, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_6_DUAL),
        "OS-thread scheduler diverged from the golden results (dual socket)"
    );
}

/// Belt and braces: run both schedulers side by side and compare the
/// full fingerprints directly (not just against the stored goldens).
#[test]
fn schedulers_agree_with_each_other() {
    for &(cores, dual) in &[(2usize, false), (5, false), (6, true)] {
        let fibers = fingerprint(&fixed_workload_on(cores, dual, false));
        let threads = fingerprint(&fixed_workload_on(cores, dual, true));
        assert_eq!(
            fibers, threads,
            "fiber and OS-thread schedulers diverged at cores={cores} dual={dual}"
        );
    }
}

/// A benign (no-op) component must leave the run byte-identical to the
/// component-free goldens: its ticks are ordinary events that touch no
/// core, no line, and no RNG, so the observable machine cannot move.
/// This is the component spine's central determinism claim.
#[test]
fn benign_component_matches_component_free_goldens() {
    let fp = fingerprint(&fixed_workload_full(4, false, false, with_heartbeat));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_4_SINGLE),
        "a no-op heartbeat component perturbed the single-socket golden"
    );
    let fp = fingerprint(&fixed_workload_full(6, true, true, with_heartbeat));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_6_DUAL),
        "a no-op heartbeat component perturbed the dual-socket golden (OS threads)"
    );
}

/// Timing variants in which requests waiting for a busy directory slice
/// can share a cycle with other events: occupancy above the hop latency,
/// occupancy equal to it (a served request's replies land in the cycle
/// the slice frees), one-cycle hops, scheduler perturbation, and the
/// distributed home policies with several slices. Each row is `(name,
/// cores, dual_socket, tweak, golden)`; the goldens were recorded before
/// directory waiting was coalesced into runs, and the change must
/// reproduce them on both schedulers.
type Variant = (
    &'static str,
    usize,
    bool,
    fn(&mut MachineConfig),
    &'static str,
);
const VARIANT_GOLDENS: &[Variant] = &[
    (
        "occupancy-30",
        16,
        false,
        |c| c.dir_occupancy = 30,
        "end=38975 core_end_len=16 min=37005 max=38975 sum=611060 \
            msgs=[GetS:213 GetM:366 Data:230 Inv:256 InvAck:256 Fwd-GetS:116 Fwd-GetM:233 DataOwner:349 WbData:116 ] \
            ops=[read:521 write:153 cas:160 faa:164 swap:4 delay:13 xbegin:9 xend:4 xabort:0 ] \
            commits=4 conflicts=5 explicit=0 spurious=0 tripped=0 stalls=320 fix_stalls=0",
    ),
    (
        "occupancy-equals-hop",
        16,
        false,
        |c| c.dir_occupancy = 25,
        "end=33552 core_end_len=16 min=31917 max=33552 sum=526167 \
            msgs=[GetS:216 GetM:368 Data:233 Inv:260 InvAck:260 Fwd-GetS:116 Fwd-GetM:235 DataOwner:351 WbData:116 ] \
            ops=[read:521 write:153 cas:160 faa:164 swap:4 delay:13 xbegin:9 xend:4 xabort:0 ] \
            commits=4 conflicts=5 explicit=0 spurious=0 tripped=0 stalls=343 fix_stalls=0",
    ),
    (
        "hop-intra-1",
        16,
        false,
        |c| c.hop_intra = 1,
        "end=7732 core_end_len=16 min=7551 max=7762 sum=122516 \
            msgs=[GetS:235 GetM:399 Data:254 Inv:308 InvAck:308 Fwd-GetS:131 Fwd-GetM:249 DataOwner:380 WbData:131 ] \
            ops=[read:516 write:148 cas:160 faa:164 swap:4 delay:8 xbegin:4 xend:4 xabort:0 ] \
            commits=4 conflicts=0 explicit=0 spurious=0 tripped=0 stalls=378 fix_stalls=0",
    ),
    (
        "sched-perturb",
        16,
        false,
        |c| c.sched_perturb = 300,
        "end=27997 core_end_len=16 min=26267 max=27997 sum=433373 \
            msgs=[GetS:262 GetM:465 Data:279 Inv:345 InvAck:345 Fwd-GetS:145 Fwd-GetM:303 DataOwner:448 WbData:145 ] \
            ops=[read:519 write:149 cas:160 faa:164 swap:4 delay:11 xbegin:7 xend:4 xabort:0 ] \
            commits=4 conflicts=3 explicit=0 spurious=0 tripped=0 stalls=326 fix_stalls=0",
    ),
    (
        "interleave",
        16,
        true,
        |c| c.home_policy = HomePolicy::Interleave,
        "end=44623 core_end_len=16 min=43191 max=44623 sum=701734 \
            msgs=[GetS:260 GetM:472 Data:277 Inv:334 InvAck:334 Fwd-GetS:147 Fwd-GetM:308 DataOwner:455 WbData:147 ] \
            ops=[read:523 write:152 cas:160 faa:164 swap:4 delay:15 xbegin:11 xend:4 xabort:0 ] \
            commits=4 conflicts=7 explicit=0 spurious=0 tripped=1 stalls=444 fix_stalls=0",
    ),
    (
        "first-touch",
        16,
        true,
        |c| c.home_policy = HomePolicy::FirstTouch,
        "end=44801 core_end_len=16 min=42932 max=44801 sum=695391 \
            msgs=[GetS:255 GetM:456 Data:272 Inv:316 InvAck:316 Fwd-GetS:131 Fwd-GetM:308 DataOwner:439 WbData:131 ] \
            ops=[read:521 write:151 cas:160 faa:164 swap:4 delay:13 xbegin:9 xend:4 xabort:0 ] \
            commits=4 conflicts=5 explicit=0 spurious=0 tripped=0 stalls=430 fix_stalls=0",
    ),
    (
        "interleave-occupancy-30",
        88,
        true,
        |c| {
            c.home_policy = HomePolicy::Interleave;
            c.dir_occupancy = 30;
        },
        "end=754898 core_end_len=88 min=742855 max=754898 sum=66024312 \
            msgs=[GetS:1304 GetM:2230 Data:1392 Inv:1593 InvAck:1593 Fwd-GetS:565 Fwd-GetM:1577 DataOwner:2142 WbData:565 ] \
            ops=[read:2861 write:801 cas:880 faa:902 swap:22 delay:67 xbegin:45 xend:22 xabort:0 ] \
            commits=22 conflicts=23 explicit=0 spurious=0 tripped=1 stalls=2107 fix_stalls=0",
    ),
];

#[test]
fn timing_variants_match_their_goldens_on_both_schedulers() {
    for &(name, cores, dual, tweak, golden) in VARIANT_GOLDENS {
        for os_threads in [false, true] {
            let fp = fingerprint_wide(&fixed_workload_full(cores, dual, os_threads, tweak));
            assert_eq!(
                normalize(&fp),
                normalize(golden),
                "variant {name} diverged from its golden (os_threads={os_threads})"
            );
        }
    }
}

/// Two directory slices kept busy in lockstep: on a first-touch dual
/// socket machine, each socket's cores hammer their own word, so each
/// word homes on its own socket and the two slices free in the same
/// cycles. Requests for the two slices then park for the same cycle
/// alternately, and each must wait on its own slice's occupancy.
fn two_slices_in_lockstep(os_threads: bool) -> RunReport {
    let per_socket = 4;
    let mut cfg = MachineConfig::dual_socket(per_socket);
    cfg.home_policy = HomePolicy::FirstTouch;
    cfg.delay_jitter_pct = 0;
    cfg.os_thread_scheduler = os_threads;
    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..2 * per_socket)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let word = shared.load(SeqCst) + (i / per_socket) as u64;
                for _ in 0..30 {
                    let old = ctx.read(word);
                    ctx.cas(word, old, old + 1);
                    ctx.faa(word, 1);
                }
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| s2.store(ctx.alloc(2), SeqCst)),
        programs,
    )
}

/// Recorded before directory waiting was coalesced into runs.
const GOLDEN_TWO_SLICES: &str = "end=13133 core_end_len=8 min=12996 max=13133 sum=104482 \
    msgs=[GetS:234 GetM:478 Data:236 Inv:298 InvAck:298 Fwd-GetS:120 Fwd-GetM:356 DataOwner:476 WbData:120 ] \
    ops=[read:240 write:0 cas:240 faa:240 swap:0 delay:0 xbegin:0 xend:0 xabort:0 ] \
    commits=0 conflicts=0 explicit=0 spurious=0 tripped=0 stalls=476 fix_stalls=0";

#[test]
fn two_slices_in_lockstep_match_their_golden_on_both_schedulers() {
    for os_threads in [false, true] {
        let fp = fingerprint_wide(&two_slices_in_lockstep(os_threads));
        assert_eq!(
            normalize(&fp),
            normalize(GOLDEN_TWO_SLICES),
            "two-slice lockstep diverged from its golden (os_threads={os_threads})"
        );
    }
}

/// The fixture under a randomized machine configuration derived from
/// `seed`, with every RNG-consuming fault knob live: delay jitter,
/// spurious aborts, scheduler perturbation, and a transactional capacity
/// limit. Cross-scheduler bit-identity must survive all of them, because
/// the shared-`Sim` RNG is consumed in submit order — which both
/// schedulers produce identically.
fn randomized_faulty_workload_on(seed: u64, os_threads: bool) -> RunReport {
    randomized_faulty_workload_full(seed, os_threads, false)
}

/// As above, optionally with a benign heartbeat component attached
/// *after* the RNG-derived knobs, so the config derivation stream is
/// untouched and the fingerprint must match the component-free run.
fn randomized_faulty_workload_full(seed: u64, os_threads: bool, heartbeat: bool) -> RunReport {
    let mut rng = simrng::SimRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1f7);
    let cores = rng.gen_range_inclusive(2, 6) as usize;
    let dual = rng.gen_bool(0.4);
    let mut cfg = if dual {
        MachineConfig::dual_socket(cores.div_ceil(2))
    } else {
        MachineConfig::single_socket(cores)
    };
    cfg.delay_jitter_pct = rng.gen_range_inclusive(0, 80);
    cfg.spurious_abort_prob = rng.gen_range_inclusive(0, 200_000) as f64 / 1e6;
    cfg.sched_perturb = rng.gen_range_inclusive(0, 500);
    // Capacity 0 = unbounded; small limits abort the fixture's 2-line
    // transaction, exercising the retry-then-give-up path.
    cfg.tx_capacity_lines = if rng.gen_bool(0.3) {
        rng.gen_range_inclusive(1, 8) as usize
    } else {
        0
    };
    cfg.microarch_fix = rng.gen_bool(0.5);
    cfg.seed = rng.next_u64();
    cfg.os_thread_scheduler = os_threads;
    if heartbeat {
        cfg.components.push(ComponentSpec::Heartbeat {
            period: 97,
            count: 0,
        });
    }

    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst);
                for _ in 0..20 {
                    ctx.faa(base, 1);
                }
                ctx.barrier();
                let mut tries = 0;
                loop {
                    tries += 1;
                    let r = (|| -> coherence::TxResult<()> {
                        ctx.tx_begin()?;
                        let v = ctx.tx_read(base + 1 + (i as u64 % 3))?;
                        ctx.tx_delay(10)?;
                        ctx.tx_write(base + 4, v + 1)?;
                        ctx.tx_end()?;
                        Ok(())
                    })();
                    if r.is_ok() || tries > 6 {
                        break;
                    }
                }
                let _ = ctx.swap(base + 5, i as u64);
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(8);
            for k in 0..8 {
                ctx.write(a + k, k);
            }
            s2.store(a, SeqCst);
        }),
        programs,
    )
}

/// Differential fuzz across schedulers: 32 random seeds, all fault knobs
/// active, fiber vs OS-thread fingerprints must be identical — the
/// simfuzz harness depends on this to make its artifacts
/// scheduler-independent. Each seed additionally runs with a benign
/// heartbeat component attached (fiber scheduler), which must match the
/// component-free fingerprint byte for byte. Each seed's fingerprint
/// triple is one job on a `runner` pool; since every seed builds its own
/// `Machine`, the seeds are independent and the pool's submission-order
/// merge reports the *lowest* diverging seed whatever finishes first.
#[test]
fn schedulers_agree_on_randomized_fault_injection_workloads() {
    let tasks: Vec<_> = (0..32u64)
        .map(|seed| {
            move || {
                (
                    fingerprint(&randomized_faulty_workload_on(seed, false)),
                    fingerprint(&randomized_faulty_workload_on(seed, true)),
                    fingerprint(&randomized_faulty_workload_full(seed, false, true)),
                )
            }
        })
        .collect();
    let (triples, _) = runner::run_all(runner::default_jobs(), tasks);
    for (seed, (fibers, threads, with_comp)) in triples.iter().enumerate() {
        assert_eq!(
            fibers, threads,
            "fiber and OS-thread schedulers diverged at fault seed {seed}"
        );
        assert_eq!(
            fibers, with_comp,
            "a benign no-op component changed the run at fault seed {seed}"
        );
    }
}
