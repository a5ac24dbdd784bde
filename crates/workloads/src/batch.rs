//! The shared transfer-batch workload: the bank example's account-table
//! transfer loop, lifted out so the batch engine and the interactive
//! session engines race on **identical** pre-formed work.
//!
//! The table is the bank's `[open_flag, balance]` pair layout; transfers
//! are drawn by the KV service tier's zipfian generator
//! ([`rh_kv::gen`]), so batch benchmarks see the same hot-key skew the
//! service-tier benchmarks do. One [`TransferBatch`] is both forms of
//! the work:
//!
//! * a rank-indexed [`Batch`] that
//!   [`rh_norec::batch::ParallelExecutor`] runs as it is;
//! * [`BatchWorkload::run_interactive`] — the same rank as one session
//!   transaction, for the five interactive engines.
//!
//! Both forms read the open flags, clamp the amount to the source
//! balance, and move it — so the sum of all balances is invariant and
//! [`BatchWorkload::verify`] can assert conservation regardless of the
//! execution mode.

use rh_kv::gen::{self, Mix, TraceConfig};
use rh_norec::batch::{Batch, Blocked, TxView};
use rh_norec::prelude::Session;
use sim_mem::{Addr, Heap};

/// The bank's account table: `accounts` pairs of `[open_flag, balance]`
/// words, allocated contiguously.
#[derive(Clone, Copy, Debug)]
pub struct AccountTable {
    base: Addr,
    accounts: u64,
}

impl AccountTable {
    /// Allocates the table and opens every account at `initial` balance
    /// (direct stores — call on a quiescent heap).
    ///
    /// # Panics
    ///
    /// Panics when the heap cannot hold `2 * accounts` words.
    pub fn create(heap: &Heap, accounts: u64, initial: u64) -> AccountTable {
        assert!(accounts >= 2, "transfers need at least two accounts");
        let base = heap
            .allocator()
            .alloc(0, accounts * 2)
            .expect("heap too small for the account table");
        let table = AccountTable { base, accounts };
        for i in 0..accounts {
            heap.store(table.open(i), 1);
            heap.store(table.balance(i), initial);
        }
        table
    }

    /// Number of accounts.
    pub fn accounts(&self) -> u64 {
        self.accounts
    }

    /// The open-flag word of account `i` (1 = open, 0 = closed/private).
    pub fn open(&self, i: u64) -> Addr {
        self.base.offset(i * 2)
    }

    /// The balance word of account `i`.
    pub fn balance(&self, i: u64) -> Addr {
        self.base.offset(i * 2 + 1)
    }

    /// Direct (non-transactional) sum of all balances, for quiescent
    /// invariant checks.
    pub fn total(&self, heap: &Heap) -> u64 {
        (0..self.accounts).map(|i| heap.load(self.balance(i))).sum()
    }
}

/// One transfer of the batch: move up to `amount` from one account to
/// another, skipping closed accounts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Transfer {
    /// Source account index.
    from: u64,
    /// Destination account index (distinct from `from`).
    to: u64,
    /// Requested amount (clamped to the source balance at execution).
    amount: u64,
}

/// Draws `n` transfers over `accounts` accounts with the KV generator's
/// zipfian sampler: account 0 is the hottest, `zipf_theta = 0.0` is
/// uniform, `0.99` the YCSB-style default. Deterministic in `seed`.
fn transfer_batch(accounts: u64, n: usize, zipf_theta: f64, seed: u64) -> Vec<Transfer> {
    let trace = gen::generate(&TraceConfig {
        requests: n,
        keyspace: accounts,
        zipf_theta,
        mix: Mix { get: 0, put: 0, delete: 0, transfer: 1, range: 0 },
        seed,
        ..TraceConfig::default()
    });
    // Generator keys are 1..=accounts; the table indexes from 0.
    trace.iter().map(|r| Transfer { from: r.key - 1, to: r.key2 - 1, amount: r.amount }).collect()
}

/// A workload expressible both as a pre-formed [`Batch`] for the
/// [`ParallelExecutor`](rh_norec::batch::ParallelExecutor) and as the
/// equivalent interactive transaction stream for the session engines —
/// the contract `rh-bench batch` races the execution modes on.
///
/// Running ranks `0..len()` through [`BatchWorkload::run_interactive`]
/// in any serializable order must satisfy the same
/// [`BatchWorkload::verify`] as the batch form.
pub trait BatchWorkload: Batch + Send {
    /// Display name (scenario labels).
    fn name(&self) -> String;

    /// Runs rank `rank` as one interactive transaction on `session`,
    /// performing the same logical reads and writes as the batch form.
    fn run_interactive(&self, session: &mut Session, rank: usize);

    /// Checks workload invariants on the quiescent heap after a run.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    fn verify(&self, heap: &Heap) -> Result<(), String>;
}

/// Shape of a generated [`TransferBatch`].
#[derive(Clone, Copy, Debug)]
pub struct TransferBatchConfig {
    /// Accounts in the table.
    pub accounts: u64,
    /// Initial balance per account.
    pub initial: u64,
    /// Transfers in the batch.
    pub transfers: usize,
    /// Zipf exponent of the account sampler (0.0 = uniform).
    pub zipf_theta: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for TransferBatchConfig {
    fn default() -> Self {
        TransferBatchConfig {
            accounts: 64,
            initial: 1_000,
            transfers: 4_096,
            zipf_theta: 0.99,
            seed: 0x5eed_ba7c,
        }
    }
}

/// The account-table transfer batch: the concrete [`BatchWorkload`] the
/// bank example and `rh-bench batch` share.
#[derive(Clone, Debug)]
pub struct TransferBatch {
    table: AccountTable,
    transfers: Vec<Transfer>,
    expected_total: u64,
}

impl TransferBatch {
    /// Creates the account table on `heap` and draws the batch.
    pub fn generate(heap: &Heap, config: &TransferBatchConfig) -> TransferBatch {
        let table = AccountTable::create(heap, config.accounts, config.initial);
        let transfers =
            transfer_batch(config.accounts, config.transfers, config.zipf_theta, config.seed);
        TransferBatch { table, transfers, expected_total: config.accounts * config.initial }
    }

    /// The underlying account table.
    pub fn table(&self) -> &AccountTable {
        &self.table
    }
}

impl Batch for TransferBatch {
    fn len(&self) -> usize {
        self.transfers.len()
    }

    fn execute(&self, rank: usize, view: &mut TxView<'_>) -> Result<(), Blocked> {
        let (table, t) = (&self.table, &self.transfers[rank]);
        // Closed accounts are private: transactions leave them alone.
        if view.read(table.open(t.from))? == 0 || view.read(table.open(t.to))? == 0 {
            return Ok(());
        }
        let from_balance = view.read(table.balance(t.from))?;
        let to_balance = view.read(table.balance(t.to))?;
        let amount = t.amount.min(from_balance);
        view.write(table.balance(t.from), from_balance - amount);
        view.write(table.balance(t.to), to_balance + amount);
        Ok(())
    }
}

impl BatchWorkload for TransferBatch {
    fn name(&self) -> String {
        format!("transfer-batch/{}tx", self.transfers.len())
    }

    fn run_interactive(&self, session: &mut Session, rank: usize) {
        let (table, t) = (&self.table, &self.transfers[rank]);
        session
            .run(|tx| {
                if tx.read(table.open(t.from))? == 0 || tx.read(table.open(t.to))? == 0 {
                    return Ok(());
                }
                let from_balance = tx.read(table.balance(t.from))?;
                let to_balance = tx.read(table.balance(t.to))?;
                let amount = t.amount.min(from_balance);
                tx.write(table.balance(t.from), from_balance - amount)?;
                tx.write(table.balance(t.to), to_balance + amount)
            })
            .expect("transfer cannot fault");
    }

    fn verify(&self, heap: &Heap) -> Result<(), String> {
        let total = self.table.total(heap);
        if total != self.expected_total {
            return Err(format!(
                "balance sum drifted: expected {}, found {total}",
                self.expected_total
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_norec::batch::{execute_sequential, BatchConfig, ParallelExecutor};
    use rh_norec::prelude::{Algorithm, TmConfig, TmRuntime};
    use sim_htm::{Htm, HtmConfig};
    use sim_mem::HeapConfig;
    use std::sync::Arc;

    fn small() -> TransferBatchConfig {
        TransferBatchConfig { accounts: 8, initial: 100, transfers: 200, ..Default::default() }
    }

    #[test]
    fn batch_and_interactive_forms_agree_on_final_state() {
        let snapshot = |interactive: bool| {
            let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
            let workload = TransferBatch::generate(&heap, &small());
            if interactive {
                let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
                let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(Algorithm::RhNorec))
                    .expect("runtime construction cannot fail");
                let mut session = rt.open_session().expect("free worker slot");
                for rank in 0..workload.len() {
                    workload.run_interactive(&mut session, rank);
                }
            } else {
                execute_sequential(&heap, &workload);
            }
            workload.verify(&heap).expect("conservation");
            (0..workload.table().accounts())
                .map(|i| heap.load(workload.table().balance(i)))
                .collect::<Vec<u64>>()
        };
        assert_eq!(snapshot(false), snapshot(true), "the two forms diverge");
    }

    #[test]
    fn speculative_execution_conserves_and_verifies() {
        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
        let workload = TransferBatch::generate(&heap, &small());
        let exec =
            ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(4)).unwrap();
        let (report, _) = exec.execute(&workload, &[workload.len()]);
        assert!(report.speculative());
        assert_eq!(report.txs() as usize, workload.len());
        workload.verify(&heap).expect("conservation under speculation");
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_accounts() {
        let transfers = transfer_batch(256, 20_000, 0.99, 1);
        let hot = transfers.iter().filter(|t| t.from < 16).count();
        assert!(hot as f64 / transfers.len() as f64 > 0.30, "zipf skew missing");
        assert!(transfers.iter().all(|t| t.from != t.to && t.from < 256 && t.to < 256));
    }
}
