//! Warm-path allocation guard for the work-stealing scheduler and the
//! dynamic batch former.
//!
//! Both sit on the service tier's per-request hot path, so neither may
//! touch the heap once warm: a [`StealDeque`] is a preloaded fixed
//! buffer whose take/steal operations are pure atomics, and a
//! [`Former`] recycles its segment buffer across [`Former::form`]
//! calls (cleared, not freed). This test pins both — thousands of warm
//! queue operations and repeated batch formations over a real bursty
//! trace perform zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rh_kv::former::{batchable, Former, FormerConfig, Segment};
use rh_kv::gen::{generate, Mix, TraceConfig};
use rh_kv::steal::StealDeque;

/// Counts every allocation so tests can assert a warm region is
/// allocation-free. Integration tests are separate binaries, so the
/// global allocator swap is scoped to this file.
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

/// The counter is process-wide, so the two guards must not run at once:
/// one's set-up allocations would land in the other's warm window.
static SERIAL: Mutex<()> = Mutex::new(());

/// The service-grid-shaped trace both guards run over: bursty service mix,
/// enough requests to cycle the former through fills, deadline closes,
/// barriers, and hysteretic fallbacks.
fn warm_trace() -> Vec<rh_kv::gen::Request> {
    generate(&TraceConfig {
        requests: 2_048,
        keyspace: 96,
        mix: Mix::service_bursty(),
        mean_interarrival_ns: 120_000,
        burst_factor: 1_000,
        burst_len: 256,
        ..TraceConfig::default()
    })
}

#[test]
fn warm_steal_queue_operations_never_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let trace = warm_trace();
    let n = trace.len() as u32;
    // Preload (the one allocation site) happens outside the measured
    // region: one contended queue per simulated worker.
    let deques: Vec<StealDeque> = (0..8)
        .map(|w| StealDeque::preload((w..n).step_by(8), true))
        .collect();
    let uncontended = StealDeque::preload(0..n, false);

    let allocs = ALLOCATIONS.load(Ordering::Relaxed);
    // Drain every queue through the same mix of operations the worker
    // loop issues: peek, owner take, and thief steals with an accept
    // closure that rejects every other candidate (exercising the
    // reject-and-leave-in-place path).
    let mut served = 0u64;
    for (w, own) in deques.iter().enumerate() {
        loop {
            let _ = own.peek_next();
            match own.take_next() {
                Some(_) => served += 1,
                None => break,
            }
            let victim = &deques[(w + 1) % deques.len()];
            if victim.steal_top(|c| c % 2 == 0).is_some() {
                served += 1;
            }
        }
        let _ = own.is_empty();
    }
    while uncontended.take_next().is_some() {
        served += 1;
    }
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        allocs,
        "a warm StealDeque operation hit the heap allocator"
    );
    // Exactly-once: every index is consumed by one party.
    assert_eq!(served, 2 * n as u64);
    assert!(deques.iter().all(StealDeque::is_empty));
}

#[test]
fn warm_batch_formation_never_allocates() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let trace = warm_trace();
    let mut former = Former::new(FormerConfig {
        max_batch: 64,
        latency_budget_ns: 10_000,
        min_batch: 4,
    });
    // First pass sizes the recycled segment buffer.
    let warm_segments = former.form(&trace).len();
    assert!(warm_segments > 0, "the bursty trace must form segments");

    let allocs = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..64 {
        let segments = former.form(&trace);
        // Segments tile the trace and classify it consistently.
        assert_eq!(segments.len(), warm_segments);
        let mut next = 0;
        for segment in segments {
            let (start, len) = match *segment {
                Segment::Batch { start, len, .. } => (start, len),
                Segment::Session { start, len } => (start, len),
            };
            assert_eq!(start, next);
            next = start + len;
            if let Segment::Batch { start, len, .. } = *segment {
                assert!(trace[start..start + len].iter().all(batchable));
            }
        }
        assert_eq!(next, trace.len());
    }
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        allocs,
        "a warm Former::form call hit the heap allocator \
         (the segment buffer must be recycled, not refreed)"
    );
}
