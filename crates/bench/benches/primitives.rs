//! Microbenchmarks of the primitives underneath the figures: raw heap
//! accesses, simulated-HTM transactions, and single transactions per
//! algorithm. These quantify the instrumentation-cost gaps the paper's
//! throughput rows rest on (uninstrumented fast path vs NOrec vs TL2).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rh_norec::{Algorithm, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};

fn heap_primitives(c: &mut Criterion) {
    let heap = Heap::new(HeapConfig { words: 1 << 16 });
    let addr = heap.allocator().alloc(0, 8).unwrap();
    let mut group = c.benchmark_group("heap");
    group.measurement_time(Duration::from_secs(1)).warm_up_time(Duration::from_millis(200));
    group.bench_function("coherent_load", |b| b.iter(|| heap.load(addr)));
    group.bench_function("coherent_store", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            heap.store(addr, i);
        })
    });
    group.finish();
}

fn htm_transaction(c: &mut Criterion) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
    let addr = heap.allocator().alloc(0, 8).unwrap();
    let mut thread = htm.register(0);
    let mut group = c.benchmark_group("htm");
    group.measurement_time(Duration::from_secs(1)).warm_up_time(Duration::from_millis(200));
    group.bench_function("rmw_transaction", |b| {
        b.iter(|| {
            thread.begin().unwrap();
            let v = thread.read(addr).unwrap();
            thread.write(addr, v + 1).unwrap();
            thread.commit().unwrap();
        })
    });
    group.finish();
}

fn algorithm_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm_rmw_tx");
    group.measurement_time(Duration::from_secs(1)).warm_up_time(Duration::from_millis(200));
    for alg in Algorithm::ALL {
        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
        let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
        let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(alg)).expect("runtime construction cannot fail");
        let addr = heap.allocator().alloc(0, 8).unwrap();
        let mut worker = rt.open_session().expect("free worker slot");
        group.bench_function(alg.label(), |b| {
            b.iter(|| {
                worker.execute(TxKind::ReadWrite, |tx| {
                    let v = tx.read(addr)?;
                    tx.write(addr, v + 1)
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, heap_primitives, htm_transaction, algorithm_transactions);
criterion_main!(benches);
