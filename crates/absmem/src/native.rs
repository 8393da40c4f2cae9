//! Native backend: the abstract word memory realized over a flat array of
//! `AtomicU64` with `SeqCst` orderings, matching the C11 `seq_cst` accesses
//! of the paper's evaluated implementations.

use crate::{Addr, ThreadCtx};
use simalloc::{ThreadCache, WordPool};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Nominal clock used to convert between cycles and nanoseconds: the
/// evaluation machine's Xeon E5-2699 v4 base clock.
pub const GHZ: f64 = 2.2;

/// Converts a cycle count at the nominal [`GHZ`] clock to nanoseconds,
/// rounded to nearest. Truncation would bias every short-delay
/// conversion low (2 cycles at 2.2 GHz is 0.909 ns — 0 when truncated,
/// 1 when rounded).
#[inline]
pub fn cycles_to_ns(cycles: u64) -> u64 {
    (cycles as f64 / GHZ).round() as u64
}

/// Measured spin-loop iterations per microsecond, calibrated once per
/// process. Used to realize delays too short for `Instant` polling
/// (granularity is tens of ns) as a counted spin instead of a guess.
fn spins_per_us() -> u64 {
    static CAL: OnceLock<u64> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Time a fixed spin batch against the monotonic clock; repeat and
        // keep the fastest (least-preempted) sample.
        const BATCH: u64 = 200_000;
        let mut best_ns = u64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                std::hint::spin_loop();
            }
            best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
        }
        (BATCH * 1_000 / best_ns.max(1)).max(1)
    })
}

/// Busy-waits for `cycles` cycles at the nominal [`GHZ`] clock — the
/// calibrated realization of [`ThreadCtx::delay`] on real hardware,
/// shared so harness code can reproduce algorithm delays exactly.
/// Delays under ~40 ns use the counted spin calibration (`Instant`
/// polling would round them to its own granularity); longer delays poll
/// the monotonic clock.
pub fn busy_wait_cycles(cycles: u64) {
    let target_ns = cycles as f64 / GHZ;
    if target_ns < 40.0 {
        let spins = (target_ns * spins_per_us() as f64 / 1_000.0) as u64;
        for _ in 0..spins.max(1) {
            std::hint::spin_loop();
        }
        return;
    }
    let target_ns = target_ns as u64;
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < target_ns {
        std::hint::spin_loop();
    }
}

/// A fixed-capacity native heap of 64-bit words shared by all threads.
/// The words come from zeroed allocator memory: a large heap is mapped
/// from fresh zero pages, so a run pays only for the pages it touches,
/// as it would under any scalable allocator.
pub struct NativeHeap {
    words: Box<[AtomicU64]>,
    pool: Arc<WordPool>,
    epoch: Instant,
}

impl NativeHeap {
    /// Creates a heap with capacity for `words` words. Word 0 is the NULL
    /// sentinel. Allocation past the capacity panics — size generously.
    pub fn new(words: usize) -> Self {
        // `vec![0; n]` allocates through `alloc_zeroed`, which hands out
        // untouched zero pages for large blocks instead of writing them.
        let zeroed = Box::into_raw(vec![0u64; words].into_boxed_slice());
        // SAFETY: `AtomicU64` has the size and bit validity of `u64`, and
        // (asserted below) its alignment, so the allocation's layout is
        // unchanged and every all-zero word is a valid atomic.
        let words = unsafe { Box::from_raw(zeroed as *mut [AtomicU64]) };
        NativeHeap {
            words,
            pool: Arc::new(WordPool::new(8)),
            epoch: Instant::now(),
        }
    }

    /// Creates the per-thread context for thread `tid`. The context has no
    /// thread group: [`ThreadCtx::barrier`] panics on it. Use
    /// [`run_threads`] (or attach one with [`NativeCtx::with_barrier`]) for
    /// phased multi-thread workloads.
    pub fn ctx(self: &Arc<Self>, tid: usize) -> NativeCtx {
        NativeCtx {
            heap: Arc::clone(self),
            tid,
            cache: self.pool.thread_cache(),
            barrier: None,
        }
    }

    /// Number of words of capacity.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn word(&self, a: Addr) -> &AtomicU64 {
        debug_assert_ne!(a, 0, "access to NULL");
        &self.words[a as usize]
    }
}

const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>());

const BROKEN: &str = "barrier broken by a sibling's panic";

/// The rendezvous of a native thread group. Unlike `std::sync::Barrier`
/// it can be broken: once a member panics, [`GroupBarrier::poison`] wakes
/// every waiter, and they — and any later arrival — panic instead of
/// waiting forever for a thread that will never come.
pub struct GroupBarrier {
    size: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl GroupBarrier {
    /// A barrier that releases every `size` arrivals.
    pub fn new(size: usize) -> GroupBarrier {
        GroupBarrier {
            size: size.max(1),
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until `size` threads have arrived. Panics if the barrier is
    /// or becomes poisoned before this generation is released.
    pub fn wait(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let generation = st.generation;
        if !st.poisoned {
            st.arrived += 1;
            if st.arrived == self.size {
                st.arrived = 0;
                st.generation += 1;
                self.cv.notify_all();
                return;
            }
            st = self
                .cv
                .wait_while(st, |s| s.generation == generation && !s.poisoned)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.generation == generation {
            drop(st);
            panic!("{BROKEN}");
        }
    }

    /// Breaks the barrier for good: current and future waiters panic.
    pub fn poison(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned = true;
        self.cv.notify_all();
    }
}

/// Per-thread handle onto a [`NativeHeap`].
pub struct NativeCtx {
    heap: Arc<NativeHeap>,
    tid: usize,
    cache: ThreadCache,
    /// The thread group's rendezvous, shared by every context of one run;
    /// `None` for standalone contexts, whose `barrier()` panics.
    barrier: Option<Arc<GroupBarrier>>,
}

impl NativeCtx {
    /// Attaches this context to a thread group's barrier (sized to the
    /// number of participating threads). All contexts that will
    /// rendezvous must share one `Arc<GroupBarrier>`.
    pub fn with_barrier(mut self, barrier: Arc<GroupBarrier>) -> NativeCtx {
        self.barrier = Some(barrier);
        self
    }
}

impl ThreadCtx for NativeCtx {
    #[inline]
    fn thread_id(&self) -> usize {
        self.tid
    }

    #[inline]
    fn read(&mut self, a: Addr) -> u64 {
        self.heap.word(a).load(SeqCst)
    }

    #[inline]
    fn write(&mut self, a: Addr, v: u64) {
        self.heap.word(a).store(v, SeqCst)
    }

    #[inline]
    fn cas(&mut self, a: Addr, old: u64, new: u64) -> bool {
        self.heap
            .word(a)
            .compare_exchange(old, new, SeqCst, SeqCst)
            .is_ok()
    }

    #[inline]
    fn faa(&mut self, a: Addr, v: u64) -> u64 {
        self.heap.word(a).fetch_add(v, SeqCst)
    }

    #[inline]
    fn swap(&mut self, a: Addr, v: u64) -> u64 {
        self.heap.word(a).swap(v, SeqCst)
    }

    fn delay(&mut self, cycles: u64) {
        busy_wait_cycles(cycles)
    }

    fn alloc(&mut self, words: usize) -> Addr {
        let a = self.cache.alloc(words);
        assert!(
            (a as usize) + words <= self.heap.words.len(),
            "native heap exhausted: grow NativeHeap::new capacity"
        );
        a
    }

    fn free(&mut self, a: Addr, words: usize) {
        self.cache.free(a, words)
    }

    fn now(&self) -> u64 {
        (self.heap.epoch.elapsed().as_nanos() as f64 * GHZ) as u64
    }

    fn barrier(&mut self) {
        self.barrier
            .as_ref()
            .expect(
                "barrier() on a native context without a thread group: \
                 use run_threads or NativeCtx::with_barrier",
            )
            .wait();
    }
}

/// Runs `nthreads` closures concurrently, each with its own [`NativeCtx`],
/// and returns their results in thread-id order. The contexts share a
/// barrier sized to the group, so the closures may use
/// [`ThreadCtx::barrier`] for phased workloads.
pub fn run_threads<R: Send>(
    heap: &Arc<NativeHeap>,
    nthreads: usize,
    f: impl Fn(&mut NativeCtx) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    run_group(
        heap,
        (0..nthreads)
            .map(|_| move |ctx: &mut NativeCtx| f(ctx))
            .collect(),
    )
}

/// Runs each job on its own scoped OS thread, job `i` as thread id `i`,
/// all sharing one [`GroupBarrier`], and returns their results in order.
/// A panicking job poisons the barrier so its siblings cannot hang in it;
/// once every thread has stopped, the first panic is re-raised.
pub fn run_group<R, F>(heap: &Arc<NativeHeap>, jobs: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce(&mut NativeCtx) -> R + Send,
{
    let barrier = Arc::new(GroupBarrier::new(jobs.len()));
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let results: Vec<Option<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(tid, job)| {
                let mut ctx = heap.ctx(tid).with_barrier(Arc::clone(&barrier));
                let (barrier, first_panic) = (&barrier, &first_panic);
                s.spawn(
                    move || match catch_unwind(AssertUnwindSafe(|| job(&mut ctx))) {
                        Ok(r) => Some(r),
                        Err(payload) => {
                            // Record before poisoning, so the panic that broke
                            // the barrier wins over the siblings' it causes.
                            first_panic
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .get_or_insert(payload);
                            barrier.poison();
                            None
                        }
                    },
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("job panics are caught"))
            .collect()
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("only panicking jobs have no result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_ns_rounds_to_nearest() {
        // At 2.2 GHz: 1 cycle = 0.4545 ns, 2 cycles = 0.909 ns.
        assert_eq!(cycles_to_ns(0), 0);
        assert_eq!(cycles_to_ns(1), 0, "0.45 ns rounds down");
        assert_eq!(cycles_to_ns(2), 1, "0.91 ns rounds up (truncation gave 0)");
        assert_eq!(cycles_to_ns(3), 1, "1.36 ns rounds down");
        assert_eq!(cycles_to_ns(11), 5, "exact 5 ns boundary");
        assert_eq!(cycles_to_ns(22), 10, "exact 10 ns boundary");
        assert_eq!(cycles_to_ns(23), 10, "10.45 ns rounds down");
        assert_eq!(cycles_to_ns(24), 11, "10.91 ns rounds up");
        assert_eq!(cycles_to_ns(2200), 1000);
        // Round-to-nearest never undershoots by a full nanosecond.
        for c in 0..10_000u64 {
            let exact = c as f64 / GHZ;
            let got = cycles_to_ns(c) as f64;
            assert!((got - exact).abs() <= 0.5 + 1e-9, "cycles={c}");
        }
    }

    #[test]
    fn rmw_primitives_match_spec() {
        let heap = Arc::new(NativeHeap::new(1 << 10));
        let mut c = heap.ctx(0);
        let a = c.alloc(1);
        c.write(a, 10);
        assert_eq!(c.faa(a, 5), 10);
        assert_eq!(c.read(a), 15);
        assert_eq!(c.swap(a, 99), 15);
        assert_eq!(c.read(a), 99);
        assert!(c.cas(a, 99, 1));
        assert!(!c.cas(a, 99, 2));
        assert_eq!(c.read(a), 1);
    }

    #[test]
    fn concurrent_faa_loses_no_increments() {
        let heap = Arc::new(NativeHeap::new(1 << 10));
        let a = {
            let mut c = heap.ctx(0);
            let a = c.alloc(1);
            c.write(a, 0);
            a
        };
        const N: u64 = 10_000;
        run_threads(&heap, 4, |ctx| {
            for _ in 0..N {
                ctx.faa(a, 1);
            }
        });
        assert_eq!(heap.ctx(0).read(a), 4 * N);
    }

    #[test]
    fn concurrent_cas_elects_single_winner_per_round() {
        let heap = Arc::new(NativeHeap::new(1 << 10));
        let a = {
            let mut c = heap.ctx(0);
            let a = c.alloc(1);
            c.write(a, 0);
            a
        };
        let wins = run_threads(&heap, 4, |ctx| {
            let mut w = 0u64;
            for round in 0..1000u64 {
                if ctx.cas(a, round, round + 1) {
                    w += 1;
                } else {
                    // Wait for the round to finish before the next attempt.
                    while ctx.read(a) <= round {
                        std::hint::spin_loop();
                    }
                }
            }
            w
        });
        assert_eq!(wins.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn delay_spends_roughly_requested_time() {
        let heap = Arc::new(NativeHeap::new(1 << 10));
        let mut c = heap.ctx(0);
        let t0 = Instant::now();
        c.delay(220_000); // 100 µs at 2.2 GHz
        let el = t0.elapsed().as_micros();
        assert!(el >= 95, "delay too short: {el} µs");
    }

    #[test]
    fn now_is_monotonic() {
        let heap = Arc::new(NativeHeap::new(1 << 10));
        let mut c = heap.ctx(0);
        let a = c.now();
        c.delay(10_000);
        assert!(c.now() > a);
    }
}
