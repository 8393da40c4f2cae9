//! Fiber teardown frees everything a run allocated: each program's entry
//! closure returns before its stack parks, and a run torn down by a
//! panic unwinds its suspended programs, so repeated runs hold no more
//! live heap than a single run. A counting global allocator measures net
//! live bytes; it is the only test in this binary so no concurrent test
//! moves the count.

use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CORES: usize = 44;

/// One run: every core increments a shared word a few times; with
/// `panic_on_core0`, core 0 panics mid-run while the others are
/// suspended in the machine.
fn run_once(m: &mut Machine, panic_on_core0: bool) {
    let word = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&word);
    let programs: Vec<Program> = (0..CORES)
        .map(|core| {
            let word = Arc::clone(&word);
            Box::new(move |ctx: &mut SimCtx| {
                let a = word.load(SeqCst);
                for _ in 0..4 {
                    ctx.faa(a, 1);
                }
                if panic_on_core0 && core == 0 {
                    panic!("planted program panic");
                }
                ctx.faa(a, 1);
            }) as Program
        })
        .collect();
    let report = m.run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            w.store(a, SeqCst);
        }),
        programs,
    );
    assert_eq!(report.core_end.len(), CORES);
}

/// A run whose core 0 panics, on a fresh machine (a panicking run leaves
/// its machine unusable).
fn panicking_run() {
    let mut m = Machine::new(MachineConfig::single_socket(CORES));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_once(&mut m, true)));
    assert!(r.is_err(), "the planted panic must reach the caller");
}

#[test]
fn repeated_runs_hold_no_extra_live_heap() {
    let mut m = Machine::new(MachineConfig::single_socket(CORES));
    // Warm-up runs settle lazily built state (allocator caches, statics).
    run_once(&mut m, false);
    run_once(&mut m, false);
    let live_after = |runs: usize, m: &mut Machine| {
        for _ in 0..runs {
            run_once(m, false);
        }
        LIVE.load(SeqCst)
    };
    let base = LIVE.load(SeqCst);
    let after_few = live_after(2, &mut m);
    let after_many = live_after(16, &mut m);
    // A leak of one 48-byte closure per fiber per run grows the count by
    // 44 × 48 = 2,112 bytes a run; none at all may remain.
    assert!(
        after_many <= after_few,
        "live heap grows with runs: {base} B before, {after_few} B after 2 more runs, \
         {after_many} B after 16 more"
    );

    // Panic teardown: the 43 suspended siblings of the panicking program
    // are unwound, so their closures and captured `Arc`s are freed too.
    std::panic::set_hook(Box::new(|_| {}));
    panicking_run();
    panicking_run();
    let after_few = LIVE.load(SeqCst);
    for _ in 0..8 {
        panicking_run();
    }
    let after_many = LIVE.load(SeqCst);
    let _ = std::panic::take_hook();
    assert!(
        after_many <= after_few,
        "panicking runs leak: {after_few} B after 2, {after_many} B after 8 more"
    );
}
