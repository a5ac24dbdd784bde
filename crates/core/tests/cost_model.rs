//! Tests of the virtual-cycle cost accounting: the figures' throughput
//! row is only as good as these invariants.

use std::sync::Arc;

use rh_norec::{cost, Algorithm, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};

fn runtime(algorithm: Algorithm) -> (Arc<Heap>, Arc<TmRuntime>) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm)).expect("runtime construction cannot fail");
    (heap, rt)
}

/// Runs `n` identical read-modify-write transactions and returns the
/// cycles they accrued.
fn cycles_for(algorithm: Algorithm, n: u64) -> u64 {
    let (heap, rt) = runtime(algorithm);
    let a = heap.allocator().alloc(0, 1).unwrap();
    let mut w = rt.open_session().expect("free worker slot");
    w.reset_stats();
    for _ in 0..n {
        w.execute(TxKind::ReadWrite, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    }
    assert_eq!(heap.load(a), n);
    w.stats().cycles
}

#[test]
fn every_algorithm_accrues_cycles() {
    for alg in Algorithm::ALL {
        let cycles = cycles_for(alg, 10);
        assert!(cycles > 0, "{alg:?} accrued no cycles");
    }
}

#[test]
fn cycle_accounting_is_deterministic_single_threaded() {
    for alg in [Algorithm::Norec, Algorithm::Tl2, Algorithm::RhNorec] {
        let a = cycles_for(alg, 50);
        let b = cycles_for(alg, 50);
        assert_eq!(a, b, "{alg:?} cycle accounting is nondeterministic");
    }
}

#[test]
fn cycles_scale_linearly_with_transactions() {
    let one = cycles_for(Algorithm::Norec, 10);
    let ten = cycles_for(Algorithm::Norec, 100);
    let ratio = ten as f64 / one as f64;
    assert!(
        (8.0..12.0).contains(&ratio),
        "expected ~10x cycles for 10x transactions, got {ratio:.2}x"
    );
}

/// The model's core calibration claim: a *large read-dominated*
/// transaction is much cheaper on the uninstrumented fast path than on any
/// STM, while for a tiny transaction the fixed begin/commit cost narrows
/// the gap.
#[test]
fn instrumentation_gap_grows_with_transaction_size() {
    let gap_for_reads = |reads: u64| {
        let mut gaps = Vec::new();
        for alg in [Algorithm::RhNorec, Algorithm::Norec] {
            let (heap, rt) = runtime(alg);
            let alloc = heap.allocator();
            let slots: Vec<_> = (0..reads).map(|_| alloc.alloc(0, 1).unwrap()).collect();
            let mut w = rt.open_session().expect("free worker slot");
            w.reset_stats();
            for _ in 0..20 {
                let slots = slots.clone();
                w.execute(TxKind::ReadOnly, |tx| {
                    let mut sum = 0u64;
                    for &s in &slots {
                        sum = sum.wrapping_add(tx.read(s)?);
                    }
                    Ok(sum)
                });
            }
            assert_eq!(w.stats().fast_path_commits > 0, alg == Algorithm::RhNorec);
            gaps.push(w.stats().cycles as f64);
        }
        gaps[1] / gaps[0] // NOrec cycles / RH (hardware) cycles
    };
    let small = gap_for_reads(2);
    let large = gap_for_reads(100);
    assert!(large > small, "gap should grow with size: {small:.2} -> {large:.2}");
    assert!(
        large > (cost::NOREC_READ / cost::HTM_ACCESS) as f64 * 0.5,
        "large-transaction gap {large:.2} far below the calibrated ratio"
    );
}

/// Wasted work is charged: a configuration that forces fast-path aborts
/// and retries costs more cycles per committed transaction.
#[test]
fn aborted_attempts_cost_cycles() {
    // Spurious aborts on every ~20th access.
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm = Htm::new(
        Arc::clone(&heap),
        HtmConfig { spurious_abort_per_access: 0.05, ..HtmConfig::default() },
    );
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(Algorithm::RhNorec)).expect("runtime construction cannot fail");
    let a = heap.allocator().alloc(0, 1).unwrap();
    let mut w = rt.open_session().expect("free worker slot");
    w.reset_stats();
    for _ in 0..200 {
        w.execute(TxKind::ReadWrite, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    }
    let noisy = w.stats().cycles;
    let clean = cycles_for(Algorithm::RhNorec, 200);
    assert!(
        noisy > clean,
        "aborted work must cost extra cycles: noisy {noisy} vs clean {clean}"
    );
}
