//! The machine runner: executes thread *programs* (plain Rust closures)
//! against the protocol engine.
//!
//! Exactly one simulated thread runs at any wall-clock instant, so a run
//! is fully deterministic for a given configuration and program set. Two
//! interchangeable schedulers provide that discipline; both produce
//! bit-identical `RunReport`s (enforced by the determinism tests):
//!
//! ## The fiber scheduler (default on x86_64)
//!
//! Every simulated core is a stackful coroutine ([`crate::fiber`]) and
//! the whole machine — pump, programs, allocator — lives on the one OS
//! thread that called [`Machine::run`]. A program issuing a memory
//! operation publishes a [`Req`] in its per-core channel and stack-
//! switches into the pump; the pump admits the request into the engine,
//! steps the event loop, and stack-switches into whichever core the next
//! resumption belongs to. A handoff is ~20 ns of register moves instead
//! of a ~1–2 µs futex round trip through the kernel, which is what makes
//! the simulator's hot loop run at engine speed. Panic containment is
//! free: a program panic is caught at the fiber's entry frame and
//! re-raised by the pump on the main stack.
//!
//! ## The token-passing OS-thread scheduler (fallback, and `cfg` switch)
//!
//! Used on non-x86_64 targets, or when
//! [`MachineConfig::os_thread_scheduler`] is set (the cross-scheduler
//! determinism test does this). Each simulated core is an OS thread, and
//! there is no scheduler thread: the right to touch the engine — the
//! *token* — lives with exactly one OS thread at a time. A thread
//! issuing an operation submits it directly and *drives* the event loop
//! itself; if the next resumption is its own it keeps running (zero
//! switches), otherwise it publishes the response in the target core's
//! [`Slot`] (one release store plus an unpark) and parks. The main
//! thread participates only at the edges of a phase: it collects every
//! thread's *first* request in core-index order, drives until the token
//! is handed into the pool, and sleeps until the phase ends. If the
//! engine or a program panics, a drop guard swaps every slot to `DEAD`
//! and unparks the world so `thread::scope` can join.
//!
//! Programs see a [`SimCtx`], which implements [`absmem::ThreadCtx`] plus
//! the raw HTM operations (`tx_begin` / `tx_end` / `tx_abort` and
//! fallible transactional loads/stores). The friendlier RTM-style
//! combinators live in the `htm` crate.

use crate::config::MachineConfig;
use crate::sim::{OpKind, OpOutcome, Resume, Sim};
use crate::stats::RunReport;
use crate::txn::{Abort, TxResult};
use simalloc::{ThreadCache, WordPool};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::Thread;

#[cfg(target_arch = "x86_64")]
use crate::fiber;
#[cfg(target_arch = "x86_64")]
use std::cell::{Cell, RefCell};

/// A thread program: a closure run to completion on a simulated core.
pub type Program = Box<dyn FnOnce(&mut SimCtx) + Send>;

/// A request from a program to its scheduler. Under the fiber scheduler
/// every request travels this way; under the OS-thread scheduler only
/// the *first* request of a phase does (published through the slot while
/// the main thread still holds the token) — every later request is
/// admitted into the engine directly by the issuing, token-holding
/// thread.
enum Req {
    Op { at: u64, op: OpKind },
    Alloc { at: u64, words: usize },
    Free { at: u64, addr: u64, words: usize },
    Barrier { at: u64 },
    Finished,
}

#[derive(Debug, Clone, Copy)]
enum Resp {
    Val { v: u64, now: u64 },
    Aborted { status: u32, now: u64 },
}

/// Slot is empty: the owner thread is running, parked awaiting a
/// response, or not yet started.
const S_IDLE: u32 = 0;
/// A first-of-phase request is published; the main thread consumes it.
const S_REQ: u32 = 1;
/// A response is published; the owner thread consumes it.
const S_RESP: u32 = 2;
/// Teardown (panic) or the core retired; any further publish or wait on
/// the slot panics instead of hanging.
const S_DEAD: u32 = 3;

/// One core's mailbox for the OS-thread handoff protocol.
///
/// Safety protocol: `state` is the ownership token for the `req`/`resp`
/// cells. The owner thread may write `req` only while the slot is `IDLE`
/// (before its release-CAS to `REQ`) and read `resp` only after acquiring
/// `RESP`; a responder may write `resp` only while the owner is blocked
/// (before the release-CAS to `RESP`); the collector reads `req` after
/// acquiring `REQ`. The `thread` handle is written once, before
/// `registered` is set with release ordering, and only read after
/// acquiring `registered`.
struct Slot {
    state: AtomicU32,
    req: UnsafeCell<Req>,
    /// The response, plus a "you now hold the token" flag (false only for
    /// allocator calls served during first-request collection).
    resp: UnsafeCell<(Resp, bool)>,
    /// The owner thread's park handle, for responders to unpark.
    thread: UnsafeCell<Option<Thread>>,
    registered: AtomicU32,
}

// The cells are synchronized by `state`/`registered` per the protocol
// above.
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU32::new(S_IDLE),
            req: UnsafeCell::new(Req::Finished),
            resp: UnsafeCell::new((Resp::Val { v: 0, now: 0 }, false)),
            thread: UnsafeCell::new(None),
            registered: AtomicU32::new(0),
        }
    }

    /// Unparks the owner thread, if it ever registered.
    fn wake(&self) {
        if self.registered.load(Ordering::Acquire) == 1 {
            // SAFETY: `registered` was set with release ordering after the
            // handle write, and the handle is never written again.
            if let Some(th) = unsafe { (*self.thread.get()).as_ref() } {
                th.unpark();
            }
        }
    }
}

/// Scheduler state guarded by the token: only the token-holding thread
/// (or the main thread during first-request collection) touches it.
struct SchedState {
    sim: Sim,
    alloc_caches: Vec<ThreadCache>,
    live: usize,
    barrier: Vec<(usize, u64)>,
    /// Thread resumptions not yet delivered, in delivery order. Barrier
    /// releases are queued here too — at the front, preserving the order
    /// the original scheduler-thread implementation released them in.
    pending: VecDeque<Resume>,
}

/// Everything shared between the main thread and the program threads of
/// the OS-thread scheduler.
struct Engine {
    slots: Vec<Slot>,
    /// The main thread's park handle.
    main: Thread,
    /// Set (then `main` unparked) when the last live thread retires.
    done: AtomicU32,
    /// Iterations to spin on a state word before parking. Zero on a
    /// single-CPU host, where spinning only steals cycles from the one
    /// thread that could make progress.
    spin: u32,
    st: UnsafeCell<SchedState>,
}

// `st` is guarded by the token protocol; the rest is atomics and park
// handles.
unsafe impl Sync for Engine {}

impl Engine {
    /// Marks every slot dead and wakes everyone, including the main
    /// thread. Called during panic teardown; idempotent.
    fn kill(&self) {
        for slot in &self.slots {
            slot.state.swap(S_DEAD, Ordering::AcqRel);
            slot.wake();
        }
        self.done.store(1, Ordering::Release);
        self.main.unpark();
    }
}

/// Drop guard armed on every thread that can hold the token: if the
/// engine (or user code) panics, tear the handshake down so every other
/// thread unblocks and the scope can join.
struct PanicGuard(Arc<Engine>);

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.kill();
        }
    }
}

/// What `drive` did with the token.
enum DriveOut {
    /// The next resumption was the driving core's own: it keeps the token.
    Own(Resp),
    /// The token was handed to another thread (or the phase ended).
    Handoff,
}

fn resp_of(r: &Resume) -> Resp {
    match r.outcome {
        OpOutcome::Val(v) => Resp::Val { v, now: r.time },
        OpOutcome::Aborted(status) => Resp::Aborted {
            status,
            now: r.time,
        },
    }
}

/// Everyone arrived: queue a release for each waiter at the maximal local
/// time, ahead of any not-yet-delivered resumptions (the order the
/// original scheduler-thread implementation released them in).
fn release_barrier(barrier: &mut Vec<(usize, u64)>, pending: &mut VecDeque<Resume>) {
    // A release with no waiters (a zero-thread or all-empty phase) is a
    // no-op — there is nobody to wake, and `.max()` on the empty set
    // would panic with an unhelpful iterator error.
    let Some(tmax) = barrier.iter().map(|&(_, t)| t).max() else {
        debug_assert!(barrier.is_empty());
        return;
    };
    for (i, (c, _)) in barrier.drain(..).enumerate() {
        pending.insert(
            i,
            Resume {
                core: c,
                time: tmax,
                outcome: OpOutcome::Val(0),
            },
        );
    }
}

/// Publishes `resp` in `core`'s slot and wakes it: one release CAS plus
/// an unpark. `token` tells the woken thread whether it now drives.
fn respond(eng: &Engine, core: usize, resp: Resp, token: bool) {
    let slot = &eng.slots[core];
    // SAFETY: the target thread is blocked awaiting this response, so the
    // responder owns the cells.
    unsafe {
        *slot.resp.get() = (resp, token);
    }
    if slot
        .state
        .compare_exchange(S_IDLE, S_RESP, Ordering::Release, Ordering::Relaxed)
        .is_err()
    {
        // Teardown raced us; the target was already woken by `kill`.
        return;
    }
    slot.wake();
}

/// Steps the engine until a resumption is delivered (or the phase ends).
/// Must be called holding the token; `me` is the driving core.
fn drive(eng: &Engine, me: usize) -> DriveOut {
    // SAFETY: the caller holds the token.
    let st = unsafe { &mut *eng.st.get() };
    loop {
        if let Some(r) = st.pending.pop_front() {
            let resp = resp_of(&r);
            if r.core == me {
                return DriveOut::Own(resp);
            }
            respond(eng, r.core, resp, true);
            return DriveOut::Handoff;
        }
        if st.live == 0 {
            eng.done.store(1, Ordering::Release);
            eng.main.unpark();
            return DriveOut::Handoff;
        }
        let progressed = st.sim.step();
        assert!(
            progressed,
            "deadlock: live threads but no events;{}",
            st.sim.stuck_report()
        );
        st.pending.extend(st.sim.resumes.drain(..));
    }
}

/// The OS-thread scheduler's per-thread half: token state plus the
/// shared engine.
struct ThreadBackend {
    /// Whether this thread currently holds the token. False only until
    /// the first response of a phase arrives.
    has_token: bool,
    eng: Arc<Engine>,
}

impl ThreadBackend {
    /// Records this thread's park handle in its slot. Must run on the
    /// owning thread, before any publish.
    fn register(&self, core: usize) {
        let slot = &self.eng.slots[core];
        // SAFETY: nothing reads the handle until `registered` is set.
        unsafe {
            *slot.thread.get() = Some(std::thread::current());
        }
        slot.registered.store(1, Ordering::Release);
    }

    /// Publishes a first-of-phase request for the main thread to collect.
    fn publish(&self, core: usize, req: Req) {
        let slot = &self.eng.slots[core];
        // SAFETY: the slot is IDLE and owned by this thread.
        unsafe {
            *slot.req.get() = req;
        }
        if slot
            .state
            .compare_exchange(S_IDLE, S_REQ, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            panic!("scheduler gone");
        }
        self.eng.main.unpark();
    }

    /// Blocks (spin, then park) until someone responds, and consumes the
    /// response. Updates `has_token` from the flag riding along.
    fn await_resp(&mut self, core: usize) -> Resp {
        let slot = &self.eng.slots[core];
        let mut spins = 0u32;
        loop {
            match slot.state.load(Ordering::Acquire) {
                S_RESP => break,
                S_DEAD => panic!("scheduler gone"),
                _ => {
                    if spins < self.eng.spin {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::park();
                    }
                }
            }
        }
        // SAFETY: we acquired RESP, so the response write is visible and
        // this thread owns the cells.
        let (resp, token) = unsafe { *slot.resp.get() };
        if slot
            .state
            .compare_exchange(S_RESP, S_IDLE, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            // The teardown guard swapped us to DEAD mid-handshake.
            panic!("scheduler gone");
        }
        self.has_token = token;
        resp
    }

    /// Drives the engine after admitting a request, then either keeps
    /// running (own resumption) or parks until resumed.
    fn drive_then_wait(&mut self, core: usize) -> Resp {
        match drive(&self.eng, core) {
            DriveOut::Own(resp) => resp,
            DriveOut::Handoff => {
                self.has_token = false;
                self.await_resp(core)
            }
        }
    }

    /// Admits `req` and blocks until its response. The token-holding
    /// fast path touches the engine directly (allocator calls are served
    /// inline with no handoff at all); otherwise the request goes
    /// through the slot for the collector to admit.
    fn request(&mut self, core: usize, req: Req) -> Resp {
        if !self.has_token {
            self.publish(core, req);
            return self.await_resp(core);
        }
        // SAFETY: holding the token.
        let st = unsafe { &mut *self.eng.st.get() };
        match req {
            Req::Op { at, op } => {
                st.sim.submit_op(core, at, op);
                self.drive_then_wait(core)
            }
            Req::Barrier { at } => {
                st.barrier.push((core, at));
                if st.barrier.len() == st.live {
                    release_barrier(&mut st.barrier, &mut st.pending);
                }
                self.drive_then_wait(core)
            }
            Req::Alloc { at, words } => {
                // Allocator calls never touch coherent memory: serve
                // inline, no handoff.
                let v = st.alloc_caches[core].alloc(words);
                Resp::Val {
                    v,
                    now: at + st.sim.cfg.alloc_cycles,
                }
            }
            Req::Free { at, addr, words } => {
                st.alloc_caches[core].free(addr, words);
                Resp::Val {
                    v: 0,
                    now: at + st.sim.cfg.alloc_cycles,
                }
            }
            Req::Finished => unreachable!("retirement goes through finish()"),
        }
    }

    /// Retires this thread at the end of its program.
    fn finish(&mut self, core: usize) {
        if !self.has_token {
            // Never resumed this phase; tell the collector.
            self.publish(core, Req::Finished);
            return;
        }
        // SAFETY: holding the token.
        let st = unsafe { &mut *self.eng.st.get() };
        st.live -= 1;
        // Retire the slot so a stray later publish fails loudly.
        self.eng.slots[core].state.store(S_DEAD, Ordering::Release);
        // Pass the token on (or signal the phase end inside `drive`).
        match drive(&self.eng, core) {
            DriveOut::Handoff => {}
            DriveOut::Own(_) => unreachable!("resumption for a finished core"),
        }
    }
}

/// Per-core exchange cell between a program fiber and the fiber pump.
/// Everything lives on one OS thread, so plain `Cell`s suffice; the
/// saved-context fields are the two halves of a [`fiber::switch`] pair.
#[cfg(target_arch = "x86_64")]
struct Chan {
    /// Request published by the fiber before switching to the pump.
    req: Cell<Option<Req>>,
    /// Response published by the pump before switching into the fiber.
    resp: Cell<Resp>,
    /// The pump's suspended context while the fiber runs.
    sched_rsp: Cell<*mut u8>,
    /// The fiber's suspended context while the pump runs (initially the
    /// fiber's entry context).
    fiber_rsp: Cell<*mut u8>,
    /// Payload of a panicking program, for the pump to re-raise on the
    /// main stack.
    panic: RefCell<Option<Box<dyn std::any::Any + Send>>>,
    /// The program's final simulated time, recorded at retirement.
    end_time: Cell<u64>,
    /// Set by the pump's teardown: the fiber's next resumption unwinds
    /// its program instead of delivering a response.
    cancel: Cell<bool>,
    /// True once the fiber's entry closure has returned and it parked.
    retired: Cell<bool>,
}

#[cfg(target_arch = "x86_64")]
impl Chan {
    fn new() -> Self {
        Chan {
            req: Cell::new(None),
            resp: Cell::new(Resp::Val { v: 0, now: 0 }),
            sched_rsp: Cell::new(std::ptr::null_mut()),
            fiber_rsp: Cell::new(std::ptr::null_mut()),
            panic: RefCell::new(None),
            end_time: Cell::new(0),
            cancel: Cell::new(false),
            retired: Cell::new(false),
        }
    }
}

/// Fiber-side half of the exchange: publish `req`, switch to the pump,
/// wake up with the response.
#[cfg(target_arch = "x86_64")]
fn fiber_request(ch: *const Chan, req: Req) -> Resp {
    // SAFETY: the Chan is owned by the pump and outlives the fiber; only
    // one side runs at a time (same OS thread).
    let ch = unsafe { &*ch };
    ch.req.set(Some(req));
    // SAFETY: `sched_rsp` holds the pump's context, suspended exactly
    // when it last switched into this fiber.
    unsafe { fiber::switch(&ch.fiber_rsp, ch.sched_rsp.get()) };
    if ch.cancel.get() {
        // Run teardown: unwind the program's frames (no panic hook).
        std::panic::resume_unwind(Box::new(Cancelled));
    }
    ch.resp.get()
}

/// The payload that unwinds a cancelled program; see [`FiberPump`]'s
/// `Drop`.
#[cfg(target_arch = "x86_64")]
struct Cancelled;

/// The fiber scheduler: pump, engine, and every program stack, all on
/// the calling OS thread.
#[cfg(target_arch = "x86_64")]
struct FiberPump {
    sim: Sim,
    alloc_caches: Vec<ThreadCache>,
    // Boxed so each Chan's address is stable regardless of Vec moves:
    // fibers hold raw `*const Chan` pointers across suspensions.
    #[allow(clippy::vec_box)]
    chans: Vec<Box<Chan>>,
    fibers: Vec<Option<fiber::Fiber>>,
    live: usize,
    barrier: Vec<(usize, u64)>,
    /// Same delivery-order queue as [`SchedState::pending`].
    pending: VecDeque<Resume>,
}

#[cfg(target_arch = "x86_64")]
impl FiberPump {
    /// Creates `core`'s fiber around `prog`. The wrapper contains
    /// panics, records the final simulated time, publishes `Finished`,
    /// and returns, parking the fiber on the pump's context for good.
    fn spawn(&mut self, core: usize, tid: usize, t0: u64, prog: Program) {
        let ch_ptr: *const Chan = &*self.chans[core];
        let entry: fiber::Entry = Box::new(move || {
            // SAFETY: single OS thread; the pump owns the Chan, outlives
            // the fiber, and is suspended whenever the fiber runs.
            let ch = unsafe { &*ch_ptr };
            // A fiber cancelled before its first entry drops `prog` unrun.
            if !ch.cancel.get() {
                let mut ctx = SimCtx {
                    core,
                    tid,
                    local_time: t0,
                    backend: Backend::Fibers(ch_ptr),
                };
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prog(&mut ctx)));
                if let Err(payload) = result {
                    if !payload.is::<Cancelled>() {
                        *ch.panic.borrow_mut() = Some(payload);
                    }
                }
                ch.end_time.set(ctx.local_time);
            }
            ch.req.set(Some(Req::Finished));
            ch.retired.set(true);
            // The pump never resumes a retired fiber.
            fiber::Park {
                save: &ch.fiber_rsp,
                resume: &ch.sched_rsp,
            }
        });
        let (mut fb, entry_ctx) = fiber::Fiber::new(self.sim.cfg.fiber_stack, entry);
        if self.sim.cfg.measure_stacks {
            fb.paint();
        }
        self.chans[core].fiber_rsp.set(entry_ctx);
        self.fibers[core] = Some(fb);
    }

    /// Switches into `core`'s fiber and returns the request it publishes
    /// when it next suspends. Re-raises a program panic on the pump's
    /// stack.
    fn xchg(&mut self, core: usize) -> Req {
        let ch = &self.chans[core];
        // SAFETY: `fiber_rsp` holds the fiber's suspended (or entry)
        // context; everything stays on this OS thread.
        unsafe { fiber::switch(&ch.sched_rsp, ch.fiber_rsp.get()) };
        let fb = self.fibers[core].as_ref().expect("fiber not spawned");
        assert!(fb.canary_ok(), "fiber stack overflow on core {core}");
        if let Some(payload) = self.chans[core].panic.borrow_mut().take() {
            // Suspended sibling fibers are unwound by `Drop`.
            std::panic::resume_unwind(payload);
        }
        self.chans[core]
            .req
            .take()
            .expect("fiber suspended without publishing a request")
    }

    /// Delivers `resp` to `core` and returns its next request.
    fn resume(&mut self, core: usize, resp: Resp) -> Req {
        self.chans[core].resp.set(resp);
        self.xchg(core)
    }

    /// Admits a request into the engine, serving allocator calls inline
    /// (they never touch coherent memory) until the core submits a
    /// memory operation, blocks at a barrier, or retires. Mirrors the
    /// OS-thread scheduler's `collect_first`/`request` admission orders
    /// exactly — that equivalence is what keeps the two schedulers
    /// bit-identical.
    fn admit(&mut self, core: usize, first: Req) {
        let mut req = first;
        loop {
            match req {
                Req::Op { at, op } => {
                    self.sim.submit_op(core, at, op);
                    return;
                }
                Req::Barrier { at } => {
                    self.barrier.push((core, at));
                    if self.barrier.len() == self.live {
                        release_barrier(&mut self.barrier, &mut self.pending);
                    }
                    return;
                }
                Req::Alloc { at, words } => {
                    let v = self.alloc_caches[core].alloc(words);
                    let now = at + self.sim.cfg.alloc_cycles;
                    req = self.resume(core, Resp::Val { v, now });
                }
                Req::Free { at, addr, words } => {
                    self.alloc_caches[core].free(addr, words);
                    let now = at + self.sim.cfg.alloc_cycles;
                    req = self.resume(core, Resp::Val { v: 0, now });
                }
                Req::Finished => {
                    self.live -= 1;
                    return;
                }
            }
        }
    }

    /// Runs one phase: start each core's fiber in core-index order, then
    /// pump the event loop, switching into cores as their resumptions
    /// fall out, until every live core has retired.
    fn run_phase(&mut self, initial: std::ops::Range<usize>) {
        for core in initial {
            let req = self.xchg(core);
            self.admit(core, req);
        }
        loop {
            if let Some(r) = self.pending.pop_front() {
                let req = self.resume(r.core, resp_of(&r));
                self.admit(r.core, req);
                continue;
            }
            if self.live == 0 {
                return;
            }
            let progressed = self.sim.step();
            assert!(
                progressed,
                "deadlock: live threads but no events;{}",
                self.sim.stuck_report()
            );
            self.pending.extend(self.sim.resumes.drain(..));
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Drop for FiberPump {
    /// A run torn down by a panic leaves fibers suspended mid-program, and
    /// a dropped suspended stack would leak whatever its frames own.
    /// Resume each one cancelled instead: its program unwinds, its entry
    /// closure returns, and it parks. A normal run has nothing to do here.
    fn drop(&mut self) {
        for (core, fb) in self.fibers.iter().enumerate() {
            let ch = &self.chans[core];
            // An overflowed stack is corrupt; never re-enter it.
            if fb.as_ref().is_some_and(|f| f.canary_ok()) && !ch.retired.get() {
                ch.cancel.set(true);
                // SAFETY: as in `xchg`; the fiber is suspended or unentered.
                unsafe { fiber::switch(&ch.sched_rsp, ch.fiber_rsp.get()) };
            }
        }
    }
}

/// Which scheduler a [`SimCtx`] talks to.
enum Backend {
    /// OS-thread scheduler: slot handshake plus token passing.
    Threads(ThreadBackend),
    /// Fiber scheduler: a request is a stack switch into the pump. The
    /// pointer is to the pump-owned [`Chan`]; fiber-mode contexts never
    /// leave the pump's OS thread.
    #[cfg(target_arch = "x86_64")]
    Fibers(*const Chan),
}

/// The per-thread handle programs use to touch simulated memory.
pub struct SimCtx {
    core: usize,
    /// Logical thread id (dense over the *application* threads; the
    /// bootstrap core reuses id 0 but runs alone).
    tid: usize,
    local_time: u64,
    backend: Backend,
}

impl SimCtx {
    /// Sends `req` to the scheduler and blocks this simulated thread
    /// until the response arrives.
    fn request(&mut self, req: Req) -> Resp {
        match &mut self.backend {
            Backend::Threads(t) => t.request(self.core, req),
            #[cfg(target_arch = "x86_64")]
            Backend::Fibers(ch) => fiber_request(*ch, req),
        }
    }

    fn roundtrip(&mut self, op: OpKind) -> Resp {
        let resp = self.request(Req::Op {
            at: self.local_time,
            op,
        });
        match resp {
            Resp::Val { now, .. } | Resp::Aborted { now, .. } => self.local_time = now,
        }
        resp
    }

    fn infallible(&mut self, op: OpKind) -> u64 {
        match self.roundtrip(op) {
            Resp::Val { v, .. } => v,
            Resp::Aborted { .. } => {
                panic!(
                    "abort delivered outside a transaction (use the tx_* API inside transactions)"
                )
            }
        }
    }

    fn fallible(&mut self, op: OpKind) -> TxResult<u64> {
        match self.roundtrip(op) {
            Resp::Val { v, .. } => Ok(v),
            Resp::Aborted { status, .. } => Err(Abort { status }),
        }
    }

    /// The simulated core this thread is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    // ---- raw HTM interface (used by the `htm` crate) ----

    /// Starts a (possibly nested) transaction.
    pub fn tx_begin(&mut self) -> TxResult<()> {
        self.fallible(OpKind::TxBegin).map(|_| ())
    }

    /// Commits the innermost transaction. At top level this waits for the
    /// transactional write's GetM to complete (the store-buffer drain) and
    /// can therefore abort.
    pub fn tx_end(&mut self) -> TxResult<()> {
        self.fallible(OpKind::TxEnd).map(|_| ())
    }

    /// Explicitly aborts the running transaction with `code`; never
    /// returns normally.
    pub fn tx_abort(&mut self, code: u8) -> Abort {
        match self.fallible(OpKind::TxAbort(code)) {
            Err(a) => a,
            Ok(_) => unreachable!("xabort committed"),
        }
    }

    /// Transactional load.
    pub fn tx_read(&mut self, a: u64) -> TxResult<u64> {
        self.fallible(OpKind::Read(a))
    }

    /// Transactional store.
    pub fn tx_write(&mut self, a: u64, v: u64) -> TxResult<()> {
        self.fallible(OpKind::Write(a, v)).map(|_| ())
    }

    /// In-transaction delay, interruptible by an abort (the paper's
    /// intra-transaction delay of §4.1 relies on this: a delaying
    /// transaction is aborted the moment a winner's invalidation arrives).
    pub fn tx_delay(&mut self, cycles: u64) -> TxResult<()> {
        self.fallible(OpKind::Delay(cycles)).map(|_| ())
    }

    /// Blocks until a `TickGate` component (see
    /// `MachineConfig::components`) releases this core's next tick, or
    /// consumes a banked release immediately. The pacing primitive for
    /// timer-driven consumers and DMA-style bulk producers. Not allowed
    /// inside a transaction; a run that waits with no gate firings left
    /// fails the deadlock assertion with a hint rather than hanging.
    pub fn wait_tick(&mut self) {
        self.infallible(OpKind::WaitTick);
    }

    /// True while inside a transaction? Not exposed: programs track their
    /// own nesting via the `htm` combinators.
    #[doc(hidden)]
    pub fn local_time(&self) -> u64 {
        self.local_time
    }

    /// Blocks until every live application thread has reached a barrier;
    /// all participants resume with the same (maximal) local time. Useful
    /// for phased benchmark workloads (pre-fill, then measure). Do not mix
    /// barriers with threads that finish before reaching them.
    pub fn barrier(&mut self) {
        match self.request(Req::Barrier {
            at: self.local_time,
        }) {
            Resp::Val { now, .. } => self.local_time = now,
            Resp::Aborted { .. } => panic!("barrier inside a transaction"),
        }
    }
}

impl absmem::ThreadCtx for SimCtx {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn read(&mut self, a: u64) -> u64 {
        self.infallible(OpKind::Read(a))
    }

    fn write(&mut self, a: u64, v: u64) {
        self.infallible(OpKind::Write(a, v));
    }

    fn cas(&mut self, a: u64, old: u64, new: u64) -> bool {
        self.infallible(OpKind::Cas(a, old, new)) == 1
    }

    fn faa(&mut self, a: u64, v: u64) -> u64 {
        self.infallible(OpKind::Faa(a, v))
    }

    fn swap(&mut self, a: u64, v: u64) -> u64 {
        self.infallible(OpKind::Swap(a, v))
    }

    fn delay(&mut self, cycles: u64) {
        self.infallible(OpKind::Delay(cycles));
    }

    fn alloc(&mut self, words: usize) -> u64 {
        match self.request(Req::Alloc {
            at: self.local_time,
            words,
        }) {
            Resp::Val { v, now } => {
                self.local_time = now;
                v
            }
            Resp::Aborted { .. } => panic!("alloc inside a transaction"),
        }
    }

    fn free(&mut self, a: u64, words: usize) {
        match self.request(Req::Free {
            at: self.local_time,
            addr: a,
            words,
        }) {
            Resp::Val { now, .. } => self.local_time = now,
            Resp::Aborted { .. } => panic!("free inside a transaction"),
        }
    }

    fn now(&self) -> u64 {
        self.local_time
    }

    fn barrier(&mut self) {
        SimCtx::barrier(self)
    }

    fn wait_tick(&mut self) {
        SimCtx::wait_tick(self)
    }
}

/// The simulated multicore machine.
///
/// Owns the simulated-memory allocator (pool plus per-core thread
/// caches), so repeated [`Machine::run`] calls on one machine reuse the
/// allocator state instead of rebuilding it per phase. The configuration
/// is behind an `Arc` and shared with the engine rather than cloned.
pub struct Machine {
    cfg: Arc<MachineConfig>,
    #[allow(dead_code)]
    pool: Arc<WordPool>,
    alloc_caches: Vec<ThreadCache>,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let cfg = Arc::new(cfg);
        let pool = Arc::new(WordPool::new(8));
        // +1 for the bootstrap core used by the setup phase.
        let alloc_caches: Vec<ThreadCache> = (0..=cfg.cores).map(|_| pool.thread_cache()).collect();
        Machine {
            cfg,
            pool,
            alloc_caches,
        }
    }

    /// Runs `setup` to completion on the bootstrap core (socket 0), then
    /// runs all `programs` concurrently, program `i` pinned to core `i`.
    /// Returns the run report; per-program results travel through whatever
    /// shared state the caller captured in the closures.
    pub fn run(&mut self, setup: Program, programs: Vec<Program>) -> RunReport {
        assert!(
            programs.len() <= self.cfg.cores,
            "more programs ({}) than cores ({})",
            programs.len(),
            self.cfg.cores
        );
        #[cfg(target_arch = "x86_64")]
        if !self.cfg.os_thread_scheduler {
            return self.run_fibers(setup, programs);
        }
        self.run_threads(setup, programs)
    }

    /// The fiber scheduler: everything on the calling thread.
    #[cfg(target_arch = "x86_64")]
    fn run_fibers(&mut self, setup: Program, programs: Vec<Program>) -> RunReport {
        let nprogs = programs.len();
        let boot_core = self.cfg.cores;
        let mut pump = FiberPump {
            sim: Sim::new(Arc::clone(&self.cfg)),
            alloc_caches: std::mem::take(&mut self.alloc_caches),
            chans: (0..=self.cfg.cores)
                .map(|_| Box::new(Chan::new()))
                .collect(),
            fibers: (0..=self.cfg.cores).map(|_| None).collect(),
            live: 0,
            barrier: Vec::new(),
            pending: VecDeque::new(),
        };

        // Phase 1: bootstrap/setup program, alone on the machine.
        pump.live = 1;
        pump.spawn(boot_core, 0, 0, setup);
        pump.run_phase(boot_core..boot_core + 1);

        // Phase 2: the measured programs, all starting at the same
        // simulated instant.
        let t0 = pump.sim.now();
        pump.live = nprogs;
        for (i, prog) in programs.into_iter().enumerate() {
            pump.spawn(i, i, t0, prog);
        }
        if nprogs > 0 {
            pump.run_phase(0..nprogs);
        }
        assert!(
            pump.barrier.is_empty(),
            "threads stuck at a barrier at shutdown"
        );

        // Reclaim the allocator caches for the next run.
        self.alloc_caches = std::mem::take(&mut pump.alloc_caches);

        // Scheduler-footprint accounting: total stack reservation, plus
        // the canary high-water mark when the stacks were painted. Like
        // `Stats::events` these describe the engine, not the protocol,
        // and stay out of every determinism fingerprint.
        let spawned = pump.fibers.iter().flatten().count() as u64;
        pump.sim.stats.stack_bytes_total = spawned * self.cfg.fiber_stack as u64;
        if self.cfg.measure_stacks {
            pump.sim.stats.stack_high_water = pump
                .fibers
                .iter()
                .flatten()
                .filter_map(|f| f.high_water())
                .max()
                .unwrap_or(0) as u64;
        }
        RunReport {
            end_time: pump.sim.now(),
            core_end: (0..nprogs).map(|i| pump.chans[i].end_time.get()).collect(),
            stats: std::mem::take(&mut pump.sim.stats),
            trace: std::mem::take(&mut pump.sim.trace),
        }
    }

    /// The OS-thread scheduler: one thread per simulated core, slot
    /// handshake, token passing.
    fn run_threads(&mut self, setup: Program, programs: Vec<Program>) -> RunReport {
        let cfg = Arc::clone(&self.cfg);
        let nprogs = programs.len();
        let boot_core = cfg.cores;
        let eng = Arc::new(Engine {
            slots: (0..=cfg.cores).map(|_| Slot::new()).collect(),
            main: std::thread::current(),
            done: AtomicU32::new(0),
            spin: match std::thread::available_parallelism() {
                Ok(n) if n.get() > 1 => 200,
                _ => 0,
            },
            st: UnsafeCell::new(SchedState {
                sim: Sim::new(Arc::clone(&cfg)),
                alloc_caches: std::mem::take(&mut self.alloc_caches),
                live: 0,
                barrier: Vec::new(),
                pending: VecDeque::new(),
            }),
        });

        let report = std::thread::scope(|scope| {
            let _guard = PanicGuard(Arc::clone(&eng));

            // Phase 1: bootstrap/setup program, alone on the machine.
            {
                // SAFETY: no other thread exists yet.
                unsafe { (*eng.st.get()).live = 1 };
                let eng_ctx = Arc::clone(&eng);
                let eng_guard = Arc::clone(&eng);
                let handle = scope.spawn(move || {
                    let _guard = PanicGuard(eng_guard);
                    let mut ctx = SimCtx {
                        core: boot_core,
                        tid: 0,
                        local_time: 0,
                        backend: Backend::Threads(ThreadBackend {
                            has_token: false,
                            eng: eng_ctx,
                        }),
                    };
                    thread_backend(&ctx).register(boot_core);
                    setup(&mut ctx);
                    thread_backend_mut(&mut ctx).finish(boot_core);
                });
                run_phase(&eng, boot_core..boot_core + 1);
                handle.join().expect("setup program panicked");
            }

            // Phase 2: the measured programs, all starting at the same
            // simulated instant.
            // SAFETY: phase-1 threads are joined; main is alone again.
            let t0 = unsafe {
                let st = &mut *eng.st.get();
                st.live = nprogs;
                st.sim.now()
            };
            eng.done.store(0, Ordering::Relaxed);
            let mut handles = Vec::with_capacity(nprogs);
            for (i, prog) in programs.into_iter().enumerate() {
                let eng_ctx = Arc::clone(&eng);
                let eng_guard = Arc::clone(&eng);
                handles.push(scope.spawn(move || {
                    let _guard = PanicGuard(eng_guard);
                    let mut ctx = SimCtx {
                        core: i,
                        tid: i,
                        local_time: t0,
                        backend: Backend::Threads(ThreadBackend {
                            has_token: false,
                            eng: eng_ctx,
                        }),
                    };
                    thread_backend(&ctx).register(i);
                    prog(&mut ctx);
                    let end = ctx.local_time;
                    thread_backend_mut(&mut ctx).finish(i);
                    end
                }));
            }
            if nprogs > 0 {
                run_phase(&eng, 0..nprogs);
            }
            let core_end: Vec<u64> = handles
                .into_iter()
                .map(|h| h.join().expect("program panicked"))
                .collect();

            // SAFETY: every program thread is joined; main is alone.
            let st = unsafe { &mut *eng.st.get() };
            assert!(
                st.barrier.is_empty(),
                "threads stuck at a barrier at shutdown"
            );
            RunReport {
                end_time: st.sim.now(),
                core_end,
                stats: std::mem::take(&mut st.sim.stats),
                trace: std::mem::take(&mut st.sim.trace),
            }
        });

        // Reclaim the allocator caches for the next run.
        // SAFETY: all program threads are joined; main is alone.
        self.alloc_caches = std::mem::take(unsafe { &mut (*eng.st.get()).alloc_caches });
        report
    }
}

/// Projects the OS-thread backend out of a context known to use it.
fn thread_backend(ctx: &SimCtx) -> &ThreadBackend {
    match &ctx.backend {
        Backend::Threads(t) => t,
        #[cfg(target_arch = "x86_64")]
        Backend::Fibers(_) => unreachable!("fiber context in the OS-thread scheduler"),
    }
}

fn thread_backend_mut(ctx: &mut SimCtx) -> &mut ThreadBackend {
    match &mut ctx.backend {
        Backend::Threads(t) => t,
        #[cfg(target_arch = "x86_64")]
        Backend::Fibers(_) => unreachable!("fiber context in the OS-thread scheduler"),
    }
}

/// Runs one OS-thread-scheduler phase on the main thread: collect each
/// core's first request in core-index order, drive until the token is
/// handed into the pool, then sleep until the phase ends.
fn run_phase(eng: &Engine, initial: std::ops::Range<usize>) {
    for core in initial {
        collect_first(eng, core);
    }
    let handed_off = loop {
        // SAFETY: main holds the token until the respond below.
        let st = unsafe { &mut *eng.st.get() };
        if let Some(r) = st.pending.pop_front() {
            let resp = resp_of(&r);
            respond(eng, r.core, resp, true);
            break true;
        }
        if st.live == 0 {
            break false;
        }
        let progressed = st.sim.step();
        assert!(
            progressed,
            "deadlock: live threads but no events;{}",
            st.sim.stuck_report()
        );
        st.pending.extend(st.sim.resumes.drain(..));
    };
    if handed_off {
        while eng.done.load(Ordering::Acquire) == 0 {
            std::thread::park();
        }
    }
}

/// Collects `core`'s first request(s), serving allocator calls inline
/// until it submits a memory operation, blocks at a barrier, or finishes.
/// Main holds the token throughout.
fn collect_first(eng: &Engine, core: usize) {
    loop {
        let slot = &eng.slots[core];
        let mut spins = 0u32;
        loop {
            match slot.state.load(Ordering::Acquire) {
                S_REQ => break,
                S_DEAD => panic!("thread died before first request"),
                _ => {
                    if spins < eng.spin {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        // A park token set by an unrelated core's publish
                        // just makes this loop re-check; the publish we
                        // wait for always leaves a token behind, so the
                        // wakeup cannot be missed.
                        std::thread::park();
                    }
                }
            }
        }
        // SAFETY: we acquired REQ, so the request write is visible and
        // main owns the cells; `st` is token-guarded and main holds it.
        let req = unsafe { std::mem::replace(&mut *slot.req.get(), Req::Finished) };
        let st = unsafe { &mut *eng.st.get() };
        match req {
            Req::Op { at, op } => {
                // Return the slot to IDLE before the engine can respond.
                slot.state.store(S_IDLE, Ordering::Release);
                st.sim.submit_op(core, at, op);
                return;
            }
            Req::Barrier { at } => {
                slot.state.store(S_IDLE, Ordering::Release);
                st.barrier.push((core, at));
                if st.barrier.len() == st.live {
                    release_barrier(&mut st.barrier, &mut st.pending);
                }
                return;
            }
            Req::Alloc { at, words } => {
                let addr = st.alloc_caches[core].alloc(words);
                let now = at + st.sim.cfg.alloc_cycles;
                slot.state.store(S_IDLE, Ordering::Release);
                respond(eng, core, Resp::Val { v: addr, now }, false);
                // The thread resumes user code without the token; wait for
                // its next slot-published request.
            }
            Req::Free { at, addr, words } => {
                st.alloc_caches[core].free(addr, words);
                let now = at + st.sim.cfg.alloc_cycles;
                slot.state.store(S_IDLE, Ordering::Release);
                respond(eng, core, Resp::Val { v: 0, now }, false);
            }
            Req::Finished => {
                st.live -= 1;
                slot.state.store(S_DEAD, Ordering::Release);
                return;
            }
        }
    }
}
