//! Memory-bound regression test for the streaming runner.
//!
//! The tentpole claim is O(threads · shard_state) peak memory, not
//! O(users). A counting global allocator measures live and peak heap
//! bytes around streaming runs of very different population sizes (lazy
//! populations, so the users themselves are never materialized); the peak
//! attributable to the run must not grow with the population.

use abtest::{Arm, Experiment, ExperimentConfig, PopulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`System`] wrapper tracking live and peak heap bytes.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

impl CountingAlloc {
    fn on_alloc(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }

    /// Reset the peak to the current live size and return a baseline.
    fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// Peak bytes above `baseline` since the last reset.
    fn peak_above(&self, baseline: usize) -> usize {
        self.peak.load(Ordering::Relaxed).saturating_sub(baseline)
    }
}

// SAFETY: delegates every allocation to `System`; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.on_dealloc(layout.size());
            self.on_alloc(new_size);
        }
        p
    }
}

fn cfg(users: usize) -> ExperimentConfig {
    ExperimentConfig {
        users_per_arm: users,
        pre_sessions: 0,
        sessions_per_user: 1,
        seed: 5,
        bootstrap_reps: 40,
        threads: 1,
    }
}

/// Short titles keep the debug-mode battery fast; the bound under test is
/// about population size, not session length.
fn population() -> PopulationConfig {
    PopulationConfig {
        title_duration_s: (20, 40),
        ..PopulationConfig::default()
    }
}

fn streaming_peak(users: usize) -> usize {
    let baseline = ALLOC.reset_peak();
    let run = Experiment::builder()
        .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
        .config(cfg(users))
        .population_config(population())
        .shard_size(16)
        .run_streaming()
        .unwrap();
    assert_eq!(run.state.users as usize, users);
    ALLOC.peak_above(baseline)
}

#[test]
fn streaming_peak_memory_is_flat_in_population_size() {
    // Warm up process-wide one-time allocations (interned names, lazy
    // statics, thread stacks' heap side) so they don't bias the small run.
    let _ = streaming_peak(32);

    let small = streaming_peak(64);
    let large = streaming_peak(512);

    // 8× the users must cost well under 2× the peak: the state is per
    // shard, not per user. (The factor leaves room for allocator noise
    // and per-session transients; an O(users) runner measured ~8× here.)
    assert!(
        (large as f64) < (small as f64) * 2.0,
        "streaming peak grew with population: {small} B @ 64 users vs {large} B @ 512 users"
    );
}
