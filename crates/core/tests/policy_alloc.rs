//! Warm-path allocation guard for the adaptive policy layer.
//!
//! Counter recording runs after *every* commit, so it must stay off the
//! allocator entirely: the per-thread slots are preallocated padded
//! blocks, the controller state lives behind a fixed mutex, and an
//! epoch tick only mutates atomics. This test pins that with every
//! controller enabled and an epoch offered per commit, thousands of
//! warm transactions perform zero heap allocations — a stricter bound
//! than the arena `grow_events` guard, which only watches the tx logs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rh_norec::{Algorithm, PolicyConfig, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};

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

#[test]
fn warm_commits_with_policy_enabled_never_allocate() {
    for alg in Algorithm::ALL {
        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
        let htm = Htm::new(Arc::clone(&heap), HtmConfig::disabled());
        let cfg = TmConfig::builder(alg)
            .clock_shards(4)
            .policy(PolicyConfig {
                enabled: true,
                epoch_commits: 1,
                adapt_backoff: true,
                adapt_lanes: true,
                adapt_prefix: true,
            })
            .build()
            .expect("valid adaptive config");
        let rt = TmRuntime::new(Arc::clone(&heap), htm, cfg).expect("runtime");
        let slots: Vec<_> = {
            let alloc = heap.allocator();
            (0..8).map(|_| alloc.alloc(0, 1).expect("test heap too small")).collect()
        };

        let mut w = rt.open_session().expect("free worker slot");
        let body = |tx: &mut rh_norec::Tx<'_>| {
            let mut acc = 0u64;
            for &slot in &slots {
                acc = acc.wrapping_add(tx.read(slot)?);
                tx.write(slot, acc)?;
            }
            Ok(acc)
        };
        // Warm the arenas and the controller (several epochs tick here).
        for _ in 0..64 {
            w.execute(TxKind::ReadWrite, body);
        }

        let grows = w.log_grow_events();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..2_048 {
            w.execute(TxKind::ReadWrite, body);
        }
        assert_eq!(
            ALLOCATIONS.load(Ordering::Relaxed),
            allocs,
            "{alg:?}: a warm commit with the adaptive policy enabled hit the \
             heap allocator (counter recording or an epoch tick allocates)"
        );
        assert_eq!(
            w.log_grow_events(),
            grows,
            "{alg:?}: a warm transaction grew a log arena under the policy layer"
        );
    }
}
