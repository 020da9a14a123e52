//! A counting global allocator, armed only during the traced replay.
//!
//! Modelled on the one in `crates/net/tests/frame_fuzz.rs`, with
//! per-thread counters instead of a per-thread arming flag: a
//! request's allocations happen on the reactor, net-worker and
//! service-worker threads as well as on the caller's, so a remote
//! layer is charged every thread's count ([`count`]) while an
//! in-process layer is charged only the caller's ([`count_here`]).
//! Counters sit on their own cache lines, so counting costs no
//! contended atomic on the hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 256;

#[repr(align(64))]
struct Slot(AtomicU64);

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized TLS: no lazy allocation, safe to touch from
    // inside the allocator.
    static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's counter slot (threads past [`SLOTS`] share slots).
fn slot() -> usize {
    MINE.try_with(|m| {
        if m.get() == usize::MAX {
            m.set(NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        m.get()
    })
    .unwrap_or(0)
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter update neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            COUNTS[slot()].0.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Start or stop counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far on every thread.
pub fn count() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Allocations counted so far on this thread.
pub fn count_here() -> u64 {
    COUNTS[slot()].0.load(Ordering::Relaxed)
}
