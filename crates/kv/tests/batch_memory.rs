//! Peak-memory guard for the batch pipeline.
//!
//! A batch-mode `run_service` call holds the trace, the simulated
//! machine and a few records per formed block. The executor runs every
//! chain of blocks in place over the borrowed trace, so the peak may grow
//! with the request count only by the trace itself plus a small constant
//! per request. A per-request copy of a chain (one bound transaction and
//! one rank-to-trace index per request, 44 bytes) fails this guard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rh_kv::former::FormerConfig;
use rh_kv::gen::{Mix, Request, TraceConfig};
use rh_kv::service::{run_service, ExecMode, ServiceConfig};
use rh_norec::Algorithm;

/// Tracks live heap bytes and their high-water mark. Integration tests
/// are separate binaries, so the global allocator swap is scoped to this
/// file.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one goes: a moving realloc
        // holds both at once.
        grow(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Bytes per request the peak may grow by beyond the trace itself: the
/// former's segment records (one per block of up to 64 requests) and the
/// chain's per-block bounds, with room for vector doubling.
const PER_REQUEST_SLACK: usize = 8;

/// Peak live bytes above the live bytes at entry while `f` runs.
fn peak_above_entry(f: impl FnOnce()) -> usize {
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - entry
}

/// One worker, batch mode, a bursty get/transfer trace fast enough that
/// every block fills: the trace forms one long chain of blocks.
fn batch_call(requests: usize) -> ServiceConfig {
    let trace = TraceConfig {
        requests,
        keyspace: 1024,
        zipf_theta: 0.99,
        mix: Mix { get: 55, put: 0, delete: 0, transfer: 45, range: 0 },
        mean_interarrival_ns: 16,
        burst_factor: 8,
        burst_len: 64,
        seed: 1,
    };
    let mut config = ServiceConfig::new(Algorithm::RhNorec, 1, trace);
    config.mode = ExecMode::Batch(FormerConfig::default());
    config
}

#[test]
fn a_batch_call_holds_no_per_request_copy_of_the_trace() {
    const SMALL: usize = 1_000;
    const LARGE: usize = 200_000;
    // The small call's peak is the fixed cost (simulated heap, runtime,
    // histograms) plus a small trace; the large call's may exceed it only
    // by the extra trace and the slack.
    let fixed = peak_above_entry(|| {
        run_service(&batch_call(SMALL));
    });
    let mut batched = 0;
    let large = peak_above_entry(|| {
        batched = run_service(&batch_call(LARGE)).batched;
    });
    assert!(batched > LARGE as u64 * 9 / 10, "the trace must run as blocks: {batched} batched");
    let extra = LARGE - SMALL;
    let allowed = fixed + extra * (std::mem::size_of::<Request>() + PER_REQUEST_SLACK);
    assert!(
        large <= allowed,
        "a {LARGE}-request batch call peaked at {large} live bytes, {:.1} bytes per extra \
         request beyond the {fixed}-byte fixed cost; the trace accounts for {} and the \
         slack for {PER_REQUEST_SLACK}",
        (large - fixed) as f64 / extra as f64,
        std::mem::size_of::<Request>(),
    );
}
