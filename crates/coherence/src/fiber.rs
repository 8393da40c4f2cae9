//! Minimal stackful coroutines ("fibers") for the machine scheduler.
//! x86_64 System V only; other targets fall back to the OS-thread
//! scheduler in [`crate::machine`].
//!
//! The simulation runs exactly one simulated thread at any instant, so
//! the scheduler's only job is to move control between blocked program
//! stacks in a deterministic order. Doing that with OS threads costs a
//! futex round trip through the kernel per handoff (~1–2 µs wall clock
//! once scheduling latency and cache pollution are counted — measured
//! to dominate the simulator's hot loop). A cooperative stack switch
//! between fibers on a single OS thread is the same handoff in ~20 ns:
//! save the callee-saved registers, swap stack pointers, restore.
//!
//! What a [`switch`] saves is precisely the System V callee-saved state:
//! `rsp`, `rbx`, `rbp`, `r12`–`r15`, plus the MXCSR and x87 control
//! words. Everything else is caller-saved and therefore dead across the
//! call boundary — `switch` is an ordinary `extern "sysv64"` call as far
//! as the compiler is concerned.
//!
//! Deliberate caveats:
//!
//! * **No guard pages.** Stacks are plain heap allocations (no `mmap`
//!   available without adding a libc dependency), so overflowing one
//!   corrupts the heap instead of faulting. Stacks are generously sized
//!   ([`DEFAULT_STACK`]) and carry a canary word at the low end;
//!   [`Fiber::canary_ok`] lets the scheduler turn an overflow into a
//!   panic at the next handoff.
//! * **Panic containment is the embedder's job.** The entry closure must
//!   never unwind off the fiber: there is no caller frame below the
//!   bootstrap trampoline. `machine.rs` wraps every program in
//!   `catch_unwind` and reports the payload through its channel.
//! * **A fiber dropped while suspended leaks whatever its stack frames
//!   own** — destructors of suspended locals never run. The machine's
//!   panic teardown therefore resumes each suspended fiber cancelled, so
//!   its program unwinds and its entry closure returns, before dropping
//!   it.

use std::cell::Cell;
use std::mem::MaybeUninit;

/// Default fiber stack size: 64 KiB, mirroring the
/// `MachineConfig::fiber_stack` default (the config cannot reference
/// this constant — this module is x86_64-only). Simulated programs are
/// shallow (queue operations plus the `htm` combinators); measured
/// canary high-water marks sit well under 32 KiB even in debug builds,
/// and at 64 KiB a paper-scale 176-core machine keeps all its stacks in
/// ~11 MiB instead of the 177 MiB the old fixed 1 MiB layout needed.
pub const DEFAULT_STACK: usize = 1 << 16;

/// Written to the lowest stack word at creation; overwritten only by a
/// stack overflow.
const CANARY: u128 = 0xFEED_FACE_CAFE_BEEF_DEAD_C0DE_5AFE_57AC;

/// Where a finished fiber parks for good, as two context cells: the
/// entry closure returns this when its work is done, and the bootstrap
/// frame — after the closure's box and captures are freed — saves the
/// fiber's context into `save` and resumes the context held in `resume`.
/// Both cells must outlive the fiber.
pub struct Park {
    pub save: *const Cell<*mut u8>,
    pub resume: *const Cell<*mut u8>,
}

/// The entry closure of a fiber.
pub type Entry = Box<dyn FnOnce() -> Park>;

/// A suspended program stack. Created with an entry closure; the first
/// [`switch`] to its context runs the closure on the new stack.
pub struct Fiber {
    /// The stack buffer. `u128` elements guarantee the 16-byte alignment
    /// the System V ABI requires of stack frames. Deliberately left
    /// uninitialized except for the canary and the bootstrap frame:
    /// zeroing every stack is a measurable fixed cost per `Machine`
    /// run, and stack memory is always written before it is read.
    stack: Box<[MaybeUninit<u128>]>,
    /// Number of low words holding the canary paint (0 when unpainted —
    /// only the index-0 sentinel exists then). Set by [`Fiber::paint`];
    /// gates [`Fiber::high_water`] so it never reads uninitialized
    /// words.
    painted: usize,
}

/// Words at the stack top consumed by the bootstrap frame and the entry
/// closure slot (96 bytes: the 80-byte register frame plus the 16-byte
/// [`Entry`] box).
const FRAME_WORDS: usize = 6;

impl Fiber {
    /// Builds a fiber that runs `f` when first switched to, returning the
    /// fiber and the context (stack pointer) to pass to [`switch`].
    ///
    /// When `f` returns, its box is freed and the fiber parks as the
    /// returned [`Park`] says; it must never be resumed after that. `f`
    /// must never let a panic unwind out — wrap the fallible part in
    /// `catch_unwind`.
    pub fn new(stack_bytes: usize, f: Entry) -> (Fiber, *mut u8) {
        // Room for the bootstrap frame (80 bytes) + closure slot (16) on
        // top of whatever `f` needs.
        let words = stack_bytes.div_ceil(16).max(64);
        let mut stack = Box::new_uninit_slice(words);
        stack[0].write(CANARY);
        let top = unsafe { stack.as_mut_ptr().add(words) } as *mut u8;

        // Stack layout, descending from `top` (16-byte aligned):
        //   top-16 : Entry  (the entry closure's box, by value)
        //   top-24 : return address     -> fiber_entry
        //   top-32 : rbp slot           =  0
        //   top-40 : rbx slot           =  &closure  (fiber_entry reads it)
        //   top-48 : r12 slot           =  0
        //   top-56 : r13 slot           =  0
        //   top-64 : r14 slot           =  0
        //   top-72 : r15 slot           =  0
        //   top-80 : MXCSR (lo 32) | x87 FCW (hi 32), power-on defaults
        // The initial context is top-80; `raw_switch`'s restore sequence
        // consumes the frame and `ret`s into `fiber_entry` with rsp at
        // top-16, which is 16-byte aligned as the ABI requires before a
        // `call`.
        unsafe {
            let slot = top.sub(16) as *mut Entry;
            slot.write(f);
            (top.sub(24) as *mut u64).write(fiber_entry as *const () as u64);
            (top.sub(32) as *mut u64).write(0);
            (top.sub(40) as *mut u64).write(slot as u64);
            (top.sub(48) as *mut u64).write(0);
            (top.sub(56) as *mut u64).write(0);
            (top.sub(64) as *mut u64).write(0);
            (top.sub(72) as *mut u64).write(0);
            (top.sub(80) as *mut u64).write((0x037F_u64 << 32) | 0x1F80);
        }
        let rsp = unsafe { top.sub(80) };
        (Fiber { stack, painted: 0 }, rsp)
    }

    /// Paints every stack word below the bootstrap frame with the canary
    /// pattern so [`Fiber::high_water`] can report the deepest word the
    /// fiber ever touched. Call before the fiber is first entered; costs
    /// one memset, which is why it is opt-in
    /// (`MachineConfig::measure_stacks`) rather than the default.
    pub fn paint(&mut self) {
        let end = self.stack.len().saturating_sub(FRAME_WORDS);
        for w in &mut self.stack[..end] {
            w.write(CANARY);
        }
        self.painted = end;
    }

    /// Stack high-water mark, bytes: the distance from the stack top to
    /// the deepest non-canary word. `None` unless [`Fiber::paint`] ran
    /// (unpainted words are uninitialized and must not be read). A fiber
    /// that never ran past its bootstrap frame reports the frame size.
    pub fn high_water(&self) -> Option<usize> {
        if self.painted == 0 {
            return None;
        }
        // SAFETY: words below `painted` were all written by `paint`.
        let first_dirty = (0..self.painted)
            .find(|&i| unsafe { self.stack[i].assume_init_read() } != CANARY)
            .unwrap_or(self.painted);
        Some((self.stack.len() - first_dirty) * 16)
    }

    /// True while the canary at the low end of the stack is intact. A
    /// false return means the stack overflowed into the heap; the caller
    /// should panic rather than continue on corrupted memory.
    pub fn canary_ok(&self) -> bool {
        // The canary word was written in `new`, so reading it is sound.
        (unsafe { self.stack[0].assume_init_read() }) == CANARY
    }
}

/// Suspends the current context into `save` and resumes the context
/// `to`. Returns when something switches back to the saved context.
///
/// # Safety
///
/// * `to` must be a context produced by [`Fiber::new`] and not yet
///   entered, or one saved by an earlier `switch` on this OS thread and
///   not yet resumed. Entering a context twice, or a context whose stack
///   has been freed, is undefined behavior.
/// * All fiber switching for a given set of stacks must stay on one OS
///   thread (contexts embed stack addresses, and the scheduler's
///   channels are not synchronized).
#[inline]
pub unsafe fn switch(save: &Cell<*mut u8>, to: *mut u8) {
    unsafe { raw_switch(save.as_ptr(), to) }
}

/// The context switch: pushes the callee-saved state onto the current
/// stack, publishes the resulting stack pointer through `save`, adopts
/// `to` as the stack pointer, and pops the same state back off.
#[unsafe(naked)]
unsafe extern "sysv64" fn raw_switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every fiber: `raw_switch` `ret`s here with `rbx`
/// holding the closure slot's address (planted by [`Fiber::new`]).
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_entry() {
    core::arch::naked_asm!(
        "mov rdi, rbx",
        "call {main}",
        "ud2",
        main = sym fiber_main,
    )
}

/// Takes the entry closure out of its stack slot, runs it, and parks the
/// fiber where it says. The call consumes the box, so the closure and its
/// captures are freed before the stack parks (a stack parked inside the
/// closure would leak them).
unsafe extern "sysv64" fn fiber_main(slot: *mut Entry) -> ! {
    // SAFETY: `slot` holds the closure placed by `Fiber::new`; this is
    // its only read.
    let f = unsafe { slot.read() };
    let park = f();
    loop {
        // SAFETY: `Park`'s contract: both cells outlive the fiber, and
        // nothing resumes a parked fiber, so this switch never returns.
        unsafe { switch(&*park.save, (*park.resume).get()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// The two context cells of a scheduler-less test: main's and the
    /// fiber's. The fiber parks back into main when its closure returns.
    struct Ctxs {
        main: Rc<Cell<*mut u8>>,
        fiber: Rc<Cell<*mut u8>>,
    }

    impl Ctxs {
        fn new() -> Ctxs {
            Ctxs {
                main: Rc::new(Cell::new(std::ptr::null_mut())),
                fiber: Rc::new(Cell::new(std::ptr::null_mut())),
            }
        }

        /// Builds a fiber running `f` with a copy of the cells, and
        /// records its entry context.
        fn spawn(&self, stack: usize, f: impl FnOnce(&Ctxs) + 'static) -> Fiber {
            let cells = Ctxs {
                main: Rc::clone(&self.main),
                fiber: Rc::clone(&self.fiber),
            };
            let (fb, entry) = Fiber::new(
                stack,
                Box::new(move || {
                    f(&cells);
                    Park {
                        save: Rc::as_ptr(&cells.fiber),
                        resume: Rc::as_ptr(&cells.main),
                    }
                }),
            );
            self.fiber.set(entry);
            fb
        }

        /// Main side: runs the fiber until it next switches back.
        fn enter(&self) {
            unsafe { switch(&self.main, self.fiber.get()) };
        }

        /// Fiber side: yields back to main.
        fn yield_to_main(&self) {
            unsafe { switch(&self.fiber, self.main.get()) };
        }
    }

    /// A scheduler-less ping-pong: main resumes the fiber N times; the
    /// fiber increments a counter and yields back each time, and its
    /// last step is to return and park.
    #[test]
    fn ping_pong() {
        let count = Rc::new(Cell::new(0u64));
        let ctxs = Ctxs::new();
        let fb = {
            let count = Rc::clone(&count);
            ctxs.spawn(DEFAULT_STACK, move |c| loop {
                count.set(count.get() + 1);
                if count.get() == 1000 {
                    break;
                }
                c.yield_to_main();
            })
        };
        for expect in 1..=1000u64 {
            ctxs.enter();
            assert_eq!(count.get(), expect);
        }
        assert!(fb.canary_ok());
    }

    /// A returning entry closure is freed, captures and all, before its
    /// fiber parks.
    #[test]
    fn returning_closure_is_freed_before_parking() {
        let token = Rc::new(());
        let ctxs = Ctxs::new();
        let held = Rc::clone(&token);
        let fb = ctxs.spawn(DEFAULT_STACK, move |c| {
            c.yield_to_main();
            drop(held);
        });
        ctxs.enter();
        assert_eq!(Rc::strong_count(&token), 2, "closure running, capture live");
        ctxs.enter();
        assert_eq!(
            Rc::strong_count(&token),
            1,
            "parked fiber still owns its capture"
        );
        // Main's context cells are the only remaining owners too.
        assert_eq!(Rc::strong_count(&ctxs.main), 1);
        drop(fb);
    }

    /// Recursion `n` frames deep, each holding a 64-byte array. The
    /// array escapes after the recursive call, so every frame keeps its
    /// own copy even in optimized builds (no loop conversion).
    fn burn(n: u64) -> u64 {
        let pad = [n; 8];
        if n == 0 {
            return pad[0];
        }
        let below = burn(n - 1);
        below + std::hint::black_box(&pad)[7]
    }

    /// Deep recursion on the fiber stack works, and the canary survives
    /// within bounds.
    #[test]
    fn uses_own_stack() {
        let out = Rc::new(Cell::new(0u64));
        let ctxs = Ctxs::new();
        // Deep recursion wants more than the 64 KiB default (especially
        // in debug builds); give it an explicit 1 MiB.
        let fb = {
            let out = Rc::clone(&out);
            ctxs.spawn(1 << 20, move |_| out.set(burn(1000)))
        };
        ctxs.enter();
        assert_eq!(out.get(), (1..=1000u64).sum::<u64>());
        assert!(fb.canary_ok());
    }

    /// A painted stack reports a high-water mark that tracks actual use.
    #[test]
    fn paint_reports_high_water() {
        let ctxs = Ctxs::new();
        let mut fb = ctxs.spawn(1 << 20, |_| {
            std::hint::black_box(burn(100));
        });
        assert_eq!(fb.high_water(), None, "unpainted stacks are unreadable");
        fb.paint();
        ctxs.enter();
        assert!(fb.canary_ok());
        let hwm = fb.high_water().expect("painted");
        // 100 frames of at least 64 bytes of locals each, but nowhere
        // near the 1 MiB reservation.
        assert!(hwm >= 100 * 64, "high-water {hwm} implausibly small");
        assert!(hwm < 1 << 19, "high-water {hwm} implausibly large");
    }
}
