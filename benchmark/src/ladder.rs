//! The layer ladder: wall nanoseconds per call into each layer, one
//! thread, minimum over batches, timed from outside through public
//! functions. `_cyc` twins are modeled cycles and exact. The difference
//! between adjacent rungs is the tax of the layer between them.

use std::hint::black_box;
use std::sync::Arc;

use crate::metrics::ENGINES;
use crate::report::Outcome;
use crate::surface::{
    generate, Algorithm, Former, FormerConfig, Heap, HeapConfig, Histogram, Htm, HtmConfig, KvConfig,
    KvStore, Machine, Session, StealDeque, TraceConfig,
};
use crate::util::min_ns_per_call;
use crate::workloads::kv;

const BATCHES: usize = 4;
const WORDS: u64 = 1 << 16;

/// `sim-mem`: coherent loads and stores, and the allocator's fast path.
fn mem(out: &mut Outcome, calls: u64) {
    let heap = Heap::new(HeapConfig { words: WORDS });
    let alloc = heap.allocator();
    let base = alloc.alloc(0, 4096).expect("64k-word heap holds 4k words");
    out.record(
        "mem.load_ns",
        min_ns_per_call(BATCHES, calls, |i| {
            black_box(heap.load(base.offset(i & 4095)));
        }),
    );
    out.record("mem.store_ns", min_ns_per_call(BATCHES, calls, |i| heap.store(base.offset(i & 4095), i)));
    out.record(
        "mem.alloc_free_ns",
        min_ns_per_call(BATCHES, calls, |_| {
            let block = alloc.alloc(0, 6).expect("freed blocks are reused");
            alloc.free(0, black_box(block));
        }),
    );
}

/// `sim-htm`: raw hardware transactions through `Htm::register`.
fn htm(out: &mut Outcome, calls: u64) {
    let heap = Arc::new(Heap::new(HeapConfig { words: WORDS }));
    let base = heap.allocator().alloc(0, 64).expect("heap holds 64 words");
    // No spurious aborts: a lone thread's transactions always commit.
    let device = Htm::new(Arc::clone(&heap), HtmConfig::default());
    let mut t = device.register(0);
    let empty = min_ns_per_call(BATCHES, calls, |_| {
        t.begin().expect("begin");
        t.commit().expect("commit");
    });
    out.record("htm.empty_tx_ns", empty);
    out.record(
        "htm.rmw_tx_ns",
        min_ns_per_call(BATCHES, calls, |_| {
            t.begin().expect("begin");
            let v = t.read(base).expect("read");
            t.write(base, v + 1).expect("write");
            t.commit().expect("commit");
        }),
    );
    let reads = min_ns_per_call(BATCHES, calls / 16, |_| {
        t.begin().expect("begin");
        for w in 0..64 {
            black_box(t.read(base.offset(w)).expect("read"));
        }
        t.commit().expect("commit");
    });
    out.record("htm.read_ns", (reads - empty) / 64.0);
    let writes = min_ns_per_call(BATCHES, calls / 16, |i| {
        t.begin().expect("begin");
        for w in 0..64 {
            t.write(base.offset(w), i).expect("write");
        }
        t.commit().expect("commit");
    });
    out.record("htm.write_ns", (writes - empty) / 64.0);
}

/// Each engine through `Session`: one read-modify-write transaction and
/// one 64-read transaction; then the write-set log of lazy NOrec (the
/// NOrec variant that buffers writes) with the HTM off.
fn engines(out: &mut Outcome, calls: u64) {
    for (algorithm, label) in ENGINES {
        let m = Machine::build(algorithm, HtmConfig::default(), WORDS);
        let base = m.heap.allocator().alloc(0, 64).expect("heap holds 64 words");
        let mut session = m.session();
        let before = session.stats().cycles;
        let mut done = 0u64;
        let ns = min_ns_per_call(BATCHES, calls, |_| {
            done += 1;
            session
                .run(|tx| {
                    let v = tx.read(base)?;
                    tx.write(base, v + 1)
                })
                .expect("a read-modify-write cannot fault");
        });
        out.record(format!("engine.{label}.rmw_ns"), ns);
        out.record(format!("engine.{label}.rmw_cyc"), (session.stats().cycles - before) as f64 / done as f64);
        out.record(
            format!("engine.{label}.read64_ns"),
            min_ns_per_call(BATCHES, calls / 16, |_| {
                session
                    .run_read(|tx| {
                        for w in 0..64 {
                            black_box(tx.read(base.offset(w))?);
                        }
                        Ok(())
                    })
                    .expect("reads cannot fault");
            }),
        );
    }

    let m = Machine::build(Algorithm::NorecLazy, HtmConfig::disabled(), WORDS);
    let base = m.heap.allocator().alloc(0, 16).expect("heap holds 16 words");
    let mut session = m.session();
    out.record(
        "txlog.write16_ns",
        min_ns_per_call(BATCHES, calls / 8, |i| {
            session
                .run(|tx| {
                    for w in 0..16 {
                        tx.write(base.offset(w), i)?;
                    }
                    Ok(())
                })
                .expect("writes cannot fault");
        }),
    );
    out.record(
        "txlog.raw16_ns",
        min_ns_per_call(BATCHES, calls / 8, |i| {
            session
                .run(|tx| {
                    for w in 0..16 {
                        tx.write(base.offset(w), i)?;
                    }
                    for w in 0..16 {
                        black_box(tx.read(base.offset(w))?);
                    }
                    Ok(())
                })
                .expect("reads after writes cannot fault");
        }),
    );
}

/// `Session` itself: scoped registration, and the cheapest transaction.
fn session(out: &mut Outcome, calls: u64) {
    let m = Machine::build(Algorithm::RhNorec, HtmConfig::default(), WORDS);
    out.record(
        "session.open_close_ns",
        min_ns_per_call(BATCHES, calls / 16, |_| {
            black_box(m.session());
        }),
    );
    let mut session = m.session();
    out.record(
        "session.empty_tx_ns",
        min_ns_per_call(BATCHES, calls, |_| {
            session.run_read(|_| Ok(())).expect("an empty body cannot fault");
        }),
    );
}

/// `KvStore` operations on RH NOrec, one session: wall nanoseconds and
/// modeled cycles per call. `prepare` runs untimed before every batch.
fn store(out: &mut Outcome, calls: u64) {
    const KEYS: u64 = 64;
    const CHURN: u64 = 1024;
    let m = Machine::build(Algorithm::RhNorec, HtmConfig::default(), WORDS);
    let store = KvStore::create(&m.heap, KvConfig::for_keyspace(KEYS)).expect("heap holds the store");
    let churned = KvStore::create(&m.heap, KvConfig::for_keyspace(CHURN)).expect("heap holds the store");
    for key in 1..=KEYS {
        store.load(&m.heap, key, 1_000).expect("the geometry holds the keyspace");
    }
    let mut s = m.session();
    let mut rung = |name: &str, calls: u64, prepare: &dyn Fn(), call: &dyn Fn(&mut Session, u64)| {
        let (mut ns, mut cycles) = (f64::INFINITY, 0);
        for batch in 0..=BATCHES {
            prepare();
            let before = s.stats().cycles;
            let start = std::time::Instant::now();
            for i in 0..calls {
                call(&mut s, i);
            }
            let elapsed = start.elapsed().as_nanos() as f64 / calls as f64;
            cycles = s.stats().cycles - before;
            if batch > 0 {
                ns = ns.min(elapsed);
            }
        }
        out.record(format!("store.{name}_ns"), ns);
        out.record(format!("store.{name}_cyc"), cycles as f64 / calls as f64);
    };
    rung("get", calls, &|| (), &|s, i| {
        black_box(store.get(s, 1 + i % KEYS).expect("get"));
    });
    rung("put", calls, &|| (), &|s, i| {
        black_box(store.put(s, 1 + i % KEYS, i).expect("put"));
    });
    // Every delete removes a live key: a second store is loaded again,
    // untimed, before each batch.
    let reload = || {
        for key in 1..=CHURN {
            churned.load(&m.heap, key, 1).expect("the geometry holds the keyspace");
        }
    };
    rung("delete", CHURN, &reload, &|s, i| {
        black_box(churned.delete(s, 1 + i).expect("delete"));
    });
    rung("transfer", calls, &|| (), &|s, i| {
        black_box(store.transfer(s, 1 + i % KEYS, 1 + (i + 1) % KEYS, 1).expect("transfer"));
    });
    // The store is hash-ordered, so a range scans every slot of the
    // 64-key store.
    rung("range64", (calls / 64).max(16), &|| (), &|s, _| {
        black_box(store.range_sum(s, 1, KEYS).expect("range"));
    });
}

/// The service tier's building blocks, each alone.
fn service_parts(out: &mut Outcome, calls: u64, seed: u64) {
    let n = calls as usize;
    let spec = kv::ServiceSpec::serve();
    let trace_config: TraceConfig = spec.config(1, calls, kv::RATES_NS[kv::R2], seed, 0).trace;
    let mut trace = Vec::new();
    out.record("gen.request_ns", min_ns_per_call(BATCHES, 1, |_| trace = generate(&trace_config)) / n as f64);

    let mut hist = Histogram::new();
    out.record(
        "hist.record_ns",
        min_ns_per_call(BATCHES, calls, |i| hist.record(trace[i as usize % n].at_ns)),
    );
    black_box(hist.count());

    out.record(
        "steal.take_ns",
        min_ns_per_call(BATCHES, 1, |_| {
            let deque = StealDeque::preload(0..n as u32, false);
            while let Some(i) = deque.take_next() {
                black_box(i);
            }
        }) / n as f64,
    );
    out.record(
        "steal.steal_ns",
        min_ns_per_call(BATCHES, 1, |_| {
            let deque = StealDeque::preload(0..n as u32, true);
            while let Some(i) = deque.steal_top(|_| true) {
                black_box(i);
            }
        }) / n as f64,
    );

    let mut former = Former::new(FormerConfig::default());
    out.record(
        "former.request_ns",
        min_ns_per_call(BATCHES, 1, |_| {
            black_box(former.form(&trace).len());
        }) / n as f64,
    );
}

/// Every free-build rung. `scale` multiplies the call counts (1.0 takes
/// about three seconds).
pub fn free_rungs(out: &mut Outcome, seed: u64, scale: f64) {
    let calls = ((200_000.0 * scale) as u64).max(1_024);
    mem(out, calls);
    htm(out, calls);
    engines(out, calls / 2);
    session(out, calls);
    store(out, calls / 2);
    service_parts(out, calls, seed);
}

/// The controlled build's bottom rung: three bodies of bare
/// `yield_point`s through `run_threads`.
#[cfg(feature = "controlled")]
pub fn sched_step_ns(seed: u64, scale: f64) -> f64 {
    use crate::surface::{run_threads, yield_point, SchedConfig};
    let yields = ((20_000.0 * scale) as u64).max(500);
    let mut best = f64::INFINITY;
    for round in 0..3 {
        let config = SchedConfig { step_cap: u64::MAX, ..SchedConfig::from_seed(seed ^ round) };
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
            .map(|_| {
                Box::new(move || {
                    for _ in 0..yields {
                        yield_point();
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let (seconds, run) = crate::util::timed(|| run_threads(&config, bodies));
        best = best.min(seconds * 1e9 / run.steps as f64);
    }
    best
}
