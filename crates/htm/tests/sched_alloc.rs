//! Allocation guard for the deterministic scheduler's hand-off.
//!
//! A controlled run passes a yield point at every simulated access, so
//! whatever a yield point allocates is paid hundreds of times per
//! checked case. The hand-off must stay off the allocator: `pick`
//! chooses without collecting the runnable threads, the hooks borrow the
//! thread-local context instead of cloning it, and a wake-up targets a
//! `Thread` recorded at attach. The only growth left is the decision
//! log, which doubles and so allocates a logarithmic number of times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sim_htm::sched::{run_threads_seeded, yield_point};

/// Counts every allocation so the test can bound a region. Integration
/// tests are separate binaries, so the global allocator swap is scoped
/// to this file.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const THREADS: usize = 3;
const YIELDS_PER_THREAD: u64 = 3_334;

#[test]
fn yield_points_allocate_only_for_decision_log_growth() {
    // Counted from the first body's first turn to the last body's end:
    // every thread has spawned and attached by then, and only one
    // virtual thread runs at a time, so nothing else allocates.
    let start = AtomicU64::new(u64::MAX);
    let end = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let bodies: Vec<_> = (0..THREADS)
        .map(|_| {
            || {
                let _ = start.compare_exchange(
                    u64::MAX,
                    ALLOCATIONS.load(Ordering::Relaxed),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                for _ in 0..YIELDS_PER_THREAD {
                    yield_point();
                }
                if finished.fetch_add(1, Ordering::Relaxed) + 1 == THREADS {
                    end.store(ALLOCATIONS.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        })
        .collect();
    let run = run_threads_seeded(0xa110c, bodies);

    assert_eq!(run.steps, THREADS as u64 * YIELDS_PER_THREAD);
    assert!(run.decisions.len() > 5_000, "three busy threads should mostly have a choice");
    let allocations = end.into_inner() - start.into_inner();
    assert!(
        allocations < 64,
        "{allocations} allocations over {} yield points; only decision-log growth may allocate",
        run.steps
    );
}
