//! Allocation regression test for the fluid session loop.
//!
//! A fluid session records one throughput and one RTT sample per chunk, into
//! buffers sized once from the title's chunk count, so a session must not
//! cost a heap allocation per chunk. A counting global allocator (the one
//! from `abtest/tests/memory_bound.rs`, counting calls instead of bytes)
//! runs the same session over a 10-minute and a 30-minute title: the
//! allocation count must not follow the chunk count.
//!
//! Keep this the only test in the file: the counter is process-wide.

use abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr};
use fluidsim::{NetworkProfile, SessionBuilder};
use netsim::{Rate, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use video::{Ladder, Title, TitleConfig, VmafModel};

/// A [`System`] wrapper counting allocation calls.
struct CountingAlloc {
    allocs: AtomicUsize,
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    allocs: AtomicUsize::new(0),
};

// SAFETY: delegates every allocation to `System`; the counter is a plain
// atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(chunks, allocation calls)` of one production session over a title of
/// `minutes`.
fn session_allocs(profile: &NetworkProfile, minutes: u64) -> (usize, usize) {
    let ladder = Ladder::from_bitrates(
        &[235e3, 560e3, 1_050e3, 1_750e3, 4_000e3],
        &VmafModel::standard(),
    );
    let title = Arc::new(Title::generate(
        ladder,
        &TitleConfig {
            duration: SimDuration::from_secs(60 * minutes),
            size_cv: 0.1,
            seed: 7,
            ..Default::default()
        },
    ));
    let history = shared_history();
    history.update(Rate::from_mbps(50.0));
    let abr = Box::new(ProductionAbr::new(
        Mpc::default(),
        history,
        HistoryPolicy::AllSamples,
    ));
    let session = SessionBuilder::new(profile, title, abr)
        .max_wall_clock(SimDuration::from_secs(3 * 3600))
        .seed(42);
    let before = ALLOC.allocs.load(Ordering::Relaxed);
    let out = session.run();
    let allocs = ALLOC.allocs.load(Ordering::Relaxed) - before;
    (out.chunks, allocs)
}

#[test]
fn session_allocations_do_not_grow_with_chunk_count() {
    // A fast, clean cable connection.
    let profile = NetworkProfile {
        capacity: Rate::from_mbps(100.0),
        base_rtt: SimDuration::from_millis(20),
        bufferbloat: SimDuration::from_millis(30),
        ambient_loss: 0.002,
        self_loss: 0.008,
        jitter_cv: 0.1,
        fade_prob: 0.0,
        fade_depth: 0.1,
    };
    let (short_chunks, short_allocs) = session_allocs(&profile, 10);
    let (long_chunks, long_allocs) = session_allocs(&profile, 30);
    assert_eq!((short_chunks, long_chunks), (150, 450));
    // What remains is amortized `Vec` growth (the player's throughput
    // history): a few doublings, not 300 more calls.
    assert!(
        long_allocs <= short_allocs + 8,
        "{short_allocs} allocations for {short_chunks} chunks, \
         {long_allocs} for {long_chunks}"
    );
}
