//! Integration tests of the recycled transaction-log engine through the
//! public API: duplicate-write coalescing on every buffering slow path,
//! last-write-wins semantics everywhere, and the steady-state
//! no-allocation guarantee of the per-thread arenas.

use std::sync::Arc;

use rh_norec::{cost, Algorithm, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig};

/// A runtime whose HTM never starts: the hybrid algorithms are forced
/// onto their software slow paths, which is where the log engine lives.
fn software_only(algorithm: Algorithm) -> (Arc<Heap>, Arc<TmRuntime>) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm = Htm::new(Arc::clone(&heap), HtmConfig::disabled());
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm))
        .expect("runtime construction cannot fail");
    (heap, rt)
}

fn alloc_slots(heap: &Heap, n: u64) -> Vec<Addr> {
    let alloc = heap.allocator();
    (0..n)
        .map(|_| alloc.alloc(0, 1).expect("test heap too small"))
        .collect()
}

/// Every software path must expose last-write-wins semantics for
/// repeated writes to one address — buffering paths (NOrec-Lazy,
/// HY-NOrec-Lazy) by coalescing the write set, in-place paths (NOrec,
/// TL2, RH NOrec) by construction.
#[test]
fn duplicate_writes_are_last_write_wins_on_every_slow_path() {
    for alg in Algorithm::ALL {
        let (heap, rt) = software_only(alg);
        let slots = alloc_slots(&heap, 4);
        let mut w = rt.open_session().expect("free worker slot");
        w.execute(TxKind::ReadWrite, |tx| {
            // 16 writes cycling over 4 addresses; the last round wins.
            for i in 0..16u64 {
                tx.write(slots[(i % 4) as usize], i)?;
            }
            Ok(())
        });
        for (j, &slot) in slots.iter().enumerate() {
            assert_eq!(
                heap.load(slot),
                12 + j as u64,
                "{alg:?}: slot {j} does not hold the last written value"
            );
        }
        // Read-after-write must observe the freshest buffered value, not
        // the first one logged for the address.
        let observed = w.execute(TxKind::ReadWrite, |tx| {
            tx.write(slots[0], 100)?;
            tx.write(slots[0], 200)?;
            tx.read(slots[0])
        });
        assert_eq!(observed, 200, "{alg:?}: read-after-write saw a stale write");
        assert_eq!(heap.load(slots[0]), 200, "{alg:?}: commit published a stale write");
    }
}

/// Cycle accounting for one lazy transaction with `writes` total writes
/// cycling over `distinct` addresses.
fn lazy_tx_cycles(algorithm: Algorithm, writes: u64, distinct: u64) -> u64 {
    let (heap, rt) = software_only(algorithm);
    let slots = alloc_slots(&heap, distinct);
    let mut w = rt.open_session().expect("free worker slot");
    // Warm the arenas so the measured transaction is steady-state.
    w.execute(TxKind::ReadWrite, |tx| tx.write(slots[0], 0));
    w.reset_stats();
    w.execute(TxKind::ReadWrite, |tx| {
        for i in 0..writes {
            tx.write(slots[(i % distinct) as usize], i)?;
        }
        Ok(())
    });
    w.stats().cycles
}

/// The write-back really is one store per *distinct* address: a
/// transaction with 16 writes over 4 addresses must cost exactly 12
/// extra per-write ticks over one with 4 writes over the same 4
/// addresses — the commit (lock, write-back, publish) charges must be
/// identical because the coalesced write set is.
#[test]
fn lazy_commit_writes_back_once_per_distinct_address() {
    for alg in [Algorithm::NorecLazy, Algorithm::HybridNorecLazy] {
        let repeated = lazy_tx_cycles(alg, 16, 4);
        let minimal = lazy_tx_cycles(alg, 4, 4);
        assert_eq!(
            repeated,
            minimal + 12 * cost::NOREC_LAZY_WRITE,
            "{alg:?}: duplicate writes changed the commit cost, so the \
             write set did not coalesce to one write-back per address"
        );
    }
}

/// The recycled arenas stop allocating once warm: after a handful of
/// transactions large enough to build the write-set index, thousands of
/// further transactions (including every retry attempt) must not grow
/// any log arena.
#[test]
fn warm_slow_paths_never_allocate_per_attempt() {
    for alg in Algorithm::ALL {
        let (heap, rt) = software_only(alg);
        let slots = alloc_slots(&heap, 32);
        let mut w = rt.open_session().expect("free worker slot");
        let body = |tx: &mut rh_norec::Tx<'_>| {
            // 12 distinct writes crosses the small-set threshold, so the
            // indexed representation (and its probe table) is exercised.
            for (i, &slot) in slots[..12].iter().enumerate() {
                tx.write(slot, i as u64)?;
            }
            let mut acc = 0u64;
            for &slot in &slots[..12] {
                acc = acc.wrapping_add(tx.read(slot)?);
            }
            for &slot in &slots[16..24] {
                acc = acc.wrapping_add(tx.read(slot)?);
            }
            Ok(acc)
        };
        for _ in 0..64 {
            w.execute(TxKind::ReadWrite, body);
        }
        let warm = w.log_grow_events();
        for _ in 0..2_048 {
            w.execute(TxKind::ReadWrite, body);
        }
        assert_eq!(
            w.log_grow_events(),
            warm,
            "{alg:?}: a warm slow path grew a log arena (per-attempt allocation)"
        );
    }
}
