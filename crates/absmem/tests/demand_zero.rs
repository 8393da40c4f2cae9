//! The native heap is demand-zero: creating one maps its words without
//! writing them, so only the pages a run touches become resident. Kept
//! as the only test in its own binary so no concurrent test moves the
//! process's resident set while it is measured.

use absmem::native::NativeHeap;
use absmem::ThreadCtx;
use std::sync::Arc;

/// Resident set size of this process in KiB, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn heap_is_zeroed_on_demand() {
    const WORDS: usize = 1 << 23; // 64 MiB of address space

    #[cfg(target_os = "linux")]
    let before = vm_rss_kib();
    let heap = Arc::new(NativeHeap::new(WORDS));
    #[cfg(target_os = "linux")]
    {
        let grown_kib = vm_rss_kib().saturating_sub(before);
        assert!(
            grown_kib < 8 << 10,
            "creating a 64 MiB heap made {grown_kib} KiB resident"
        );
    }
    assert_eq!(heap.capacity(), WORDS);

    // Every word reads 0: a spread of samples, the last word included.
    let mut ctx = heap.ctx(0);
    let last = (WORDS - 1) as u64;
    for a in (1..WORDS as u64).step_by(WORDS / 64 + 7).chain([last]) {
        assert_eq!(ctx.read(a), 0, "word {a} not zero");
    }
    ctx.write(last, 0xDEAD_BEEF);
    assert_eq!(ctx.read(last), 0xDEAD_BEEF);

    // Degenerate capacities construct soundly.
    assert_eq!(NativeHeap::new(0).capacity(), 0);
    assert_eq!(NativeHeap::new(1).capacity(), 1);
}
