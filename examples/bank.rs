//! A transactional bank demonstrating the safety properties the paper
//! insists on — opacity and privatization — under concurrent transfers.
//!
//! The account table and the transfers are `tm_workloads::batch`'s
//! `TransferBatch` (shared with `rh-bench batch`, where the same
//! transfers race the batch engine against the interactive engines);
//! this example is a thin caller that adds the two demonstration
//! threads: auditors taking whole-bank snapshots inside read-only
//! transactions (they must always see the exact total), and a thread
//! that *privatizes* an account by transactionally closing it, after
//! which it may access the balance without any synchronization at all.
//!
//! ```text
//! cargo run --release --example bank
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rh_norec_repro::htm::{Htm, HtmConfig};
use rh_norec_repro::mem::{Heap, HeapConfig};
use rh_norec_repro::tm::prelude::*;
use tm_workloads::batch::{BatchWorkload, TransferBatch, TransferBatchConfig};

const ACCOUNTS: u64 = 64;
const INITIAL: u64 = 1_000;
const TRANSFERS: usize = 30_000;

fn main() {
    let heap = Arc::new(Heap::new(HeapConfig::default()));
    let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(Algorithm::RhNorec))
        .expect("runtime construction cannot fail");

    let workload = TransferBatch::generate(
        &heap,
        &TransferBatchConfig {
            accounts: ACCOUNTS,
            initial: INITIAL,
            transfers: 2 * TRANSFERS,
            ..TransferBatchConfig::default()
        },
    );
    let table = workload.table();

    let done = AtomicBool::new(false);
    let audits = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        // Transfer threads: the shared workload's zipfian transfer
        // stream, each thread on every other rank.
        for tid in 0..2 {
            let rt = Arc::clone(&rt);
            let workload = &workload;
            s.spawn(move || {
                let mut w = rt.open_session().expect("free worker slot");
                for rank in (tid..2 * TRANSFERS).step_by(2) {
                    workload.run_interactive(&mut w, rank);
                }
            });
        }
        // Auditor thread: snapshot consistency (opacity at work).
        {
            let rt = Arc::clone(&rt);
            let done = &done;
            let audits = &audits;
            s.spawn(move || {
                let mut w = rt.open_session().expect("free worker slot");
                while !done.load(Ordering::Acquire) {
                    let total = w
                        .run_read(|tx| {
                            let mut sum = 0u64;
                            for i in 0..ACCOUNTS {
                                sum += tx.read(table.balance(i))?;
                            }
                            Ok(sum)
                        })
                        .expect("audit cannot fault");
                    assert_eq!(total, ACCOUNTS * INITIAL, "torn audit snapshot!");
                    audits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Privatizer: close account 0, then use it non-transactionally.
        {
            let rt = Arc::clone(&rt);
            let heap = Arc::clone(&heap);
            let done = &done;
            s.spawn(move || {
                let mut w = rt.open_session().expect("free worker slot");
                std::thread::yield_now();
                let closed_balance = w
                    .run(|tx| {
                        tx.write(table.open(0), 0)?;
                        tx.read(table.balance(0))
                    })
                    .expect("privatization cannot fault");
                // The account is now private: plain loads and stores are
                // safe, exactly as after a privatizing commit on real HTM.
                heap.store(table.balance(0), closed_balance);
                for _ in 0..100_000 {
                    assert_eq!(
                        heap.load(table.balance(0)),
                        closed_balance,
                        "privatization violated"
                    );
                }
                // Reopen so the audit total stays exact.
                w.run(|tx| tx.write(table.open(0), 1)).expect("reopen cannot fault");
                done.store(true, Ordering::Release);
            });
        }
    });

    println!("final total : {} (expected {})", table.total(&heap), ACCOUNTS * INITIAL);
    println!("audits run  : {}", audits.load(Ordering::Relaxed));
    workload.verify(&heap).expect("transfers conserve the total");
    println!("opacity and privatization held throughout");
}
