//! The mutation corpus: a manifest of deliberately planted protocol bugs
//! for the `tm-check` mutation-score gate.
//!
//! Each [`Mutant`] is a feature-gated hook at exactly the spot the HyTM
//! lower-bound literature says hybrid designs go wrong — instrumentation
//! elision (skipped validation, missing subscriptions) and fast/slow-path
//! synchronization (missing lock raises, reordered release/undo). The
//! hooks compile in only under the `mutants` cargo feature and stay
//! **disarmed** until [`TmRuntime::set_mutant`] arms one per runtime, so
//! a mutated and a clean engine can run side by side in one process.
//!
//! [`MANIFEST`] registers every mutant together with the seed/schedule
//! family expected to kill it — the workload shape, HTM profile, clock
//! sharding, abort-injection rate, and bounded seed budget that
//! `tm-check mutate` sweeps. A mutant that survives its budget, or a real
//! engine that fails the same budget clean, fails CI.
//!
//! To add a mutant when landing a new engine: add a variant here, plant
//! the hook behind `#[cfg(feature = "mutants")]` + a
//! [`TmRuntime::mutant_armed`] check at the protocol step being broken,
//! append a [`MutantSpec`] describing the schedule family that exposes
//! it, and let `tm-check mutate` prove the kill.
//!
//! [`TmRuntime::set_mutant`]: crate::TmRuntime::set_mutant
//! [`TmRuntime::mutant_armed`]: crate::TmRuntime

use crate::Algorithm;

/// One planted protocol bug. See [`MANIFEST`] for where each hook lives
/// and how it is expected to be killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutant {
    /// RH NOrec first write re-reads the clock and locks whatever it
    /// holds now instead of entering the write phase from the validated
    /// snapshot (the corpus's original mutation, once a dedicated
    /// `mutant-postfix-clock` cargo feature).
    PostfixClock,
    /// Sharded-clock validation never revalidates the last sequence
    /// lane, so commits homed there go unseen by in-flight snapshots
    /// (once a dedicated `mutant-stale-lane` cargo feature).
    StaleLane,
    /// Eager NOrec reads skip per-read clock validation entirely — the
    /// "skipped post-validation re-read" bug.
    EagerSkipValidation,
    /// Lazy NOrec revalidation refreshes the clock snapshot but skips the
    /// value-based re-read of the read log — a stale snapshot survives
    /// backoff/retry into the commit write-back.
    StaleSnapshotReuse,
    /// Hybrid/RH NOrec writer fast paths skip `htm_commit_bump` when the
    /// committer homes on sequence lane 0, so software snapshots never
    /// see those commits.
    MissingLaneBump,
    /// The lazy write-set's bloom filter tests the wrong bit, producing
    /// false negatives: read-after-write falls through to the heap.
    BloomFalseNegative,
    /// TL2 commit skips read-set validation when the clock moved, so a
    /// stale read survives into a committed writer.
    Tl2CommitNoValidate,
    /// TL2 abort releases stripe locks *before* undoing its eager writes
    /// (lock-release-before-write-back), exposing dirty values at
    /// unlocked, valid-looking stripes.
    Tl2EarlyRelease,
    /// Lock-elision hardware paths skip the global-lock subscription, so
    /// a serial-fallback writer's in-place stores can be half-observed.
    ElisionNoSubscription,
    /// RH NOrec's software-writer fallback (postfix refused) skips
    /// raising `global_htm_lock`, letting fast paths — which subscribe
    /// only to that lock — commit mid-write-phase.
    RhWriterNoHtmLock,
    /// The KV service tier's `transfer` computes the credit from a
    /// destination balance probed in a *separate, earlier* read-only
    /// transaction instead of reading it inside the transfer — a stale
    /// base that silently drops concurrent credits to the same key. The
    /// hook lives out-of-crate in `rh_kv::KvStore::transfer` and
    /// consults this runtime's arming mask through
    /// [`TmRuntime::mutant_armed`](crate::TmRuntime::mutant_armed).
    KvStaleTransferCredit,
    /// The active-lane controller publishes a lane-count change with a
    /// raw store instead of the write-phase epoch fence
    /// (`clock_shard::publish_active_lanes` with `fenced == false`), so a
    /// writer holding a pre-change snapshot can home its commit on a lane
    /// the shrunken active prefix no longer validates.
    PolicyStaleEpoch,
    /// Batch-mode validation treats a read that now resolves to an
    /// ESTIMATE tombstone as still valid whenever the tombstone belongs
    /// to the rank it originally read (incarnation unchecked), instead of
    /// failing and re-executing. A stale read of an aborted writer then
    /// survives the writer's re-execution: the classic Block-STM
    /// lost-update. The hook lives in the batch engine's validation loop
    /// and is armed per executor through
    /// [`ParallelExecutor::set_mutant`](crate::batch::ParallelExecutor::set_mutant).
    BatchStaleEstimate,
    /// The service tier's work-stealing queue publishes a consumer's
    /// claim on the head slot with a plain store instead of the CAS
    /// arbitration, so the claim can race a rival consumer (the owner's
    /// own front take, or another thief) and both parties walk away
    /// holding the same request — it is served twice. The hook lives
    /// out-of-crate in
    /// `rh_kv::steal::StealDeque::steal_top` and consults this runtime's
    /// arming mask through
    /// [`TmRuntime::mutant_armed`](crate::TmRuntime::mutant_armed) at
    /// pool construction.
    StealBottomRace,
}

impl Mutant {
    /// Every corpus mutant, in [`MANIFEST`] order.
    pub const ALL: [Mutant; 14] = [
        Mutant::PostfixClock,
        Mutant::StaleLane,
        Mutant::EagerSkipValidation,
        Mutant::StaleSnapshotReuse,
        Mutant::MissingLaneBump,
        Mutant::BloomFalseNegative,
        Mutant::Tl2CommitNoValidate,
        Mutant::Tl2EarlyRelease,
        Mutant::ElisionNoSubscription,
        Mutant::RhWriterNoHtmLock,
        Mutant::KvStaleTransferCredit,
        Mutant::PolicyStaleEpoch,
        Mutant::BatchStaleEstimate,
        Mutant::StealBottomRace,
    ];

    /// The mutant's bit in the runtime's arming mask.
    #[inline]
    pub(crate) fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable CLI name (`tm-check mutate --mutant NAME`).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Parses a CLI name back into the mutant.
    pub fn from_name(name: &str) -> Option<Mutant> {
        MANIFEST.iter().find(|s| s.name == name).map(|s| s.mutant)
    }

    /// The manifest entry for this mutant.
    pub fn spec(self) -> &'static MutantSpec {
        &MANIFEST[self as usize]
    }
}

/// Simulated-machine profile a kill recipe runs on (`tm-check` maps these
/// to concrete `HtmConfig`s; naming them here keeps the manifest free of
/// a `sim-htm` type dependency in its public shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtmProfile {
    /// The paper's Haswell-like default machine.
    Haswell,
    /// HTM begin always refuses: every transaction runs in software.
    Disabled,
    /// Pathologically small HTM capacity: constant fallback pressure.
    Tiny,
}

/// Workload family a kill recipe drives. `tm-check` maps these to its
/// harness workloads; naming them here keeps the manifest authoritative
/// about *how* each bug is expected to die without the core crate
/// depending on the workload code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadShape {
    /// The seeded per-thread read/incr/blind-write slot scripts.
    Scripted,
    /// The sharded transactional KV store's seeded get/transfer request
    /// traces (`rh-kv`), checked for strict serializability plus
    /// conservation of the total transferred balance.
    KvTransfer,
    /// A pre-formed KV transfer batch driven through the batch engine
    /// (`rh_norec::batch::ParallelExecutor`): `threads` is the worker
    /// count, `slots` the key-space size, and the batch holds
    /// `threads * txs_per_thread` transfers; the committed history is
    /// checked for serializability in rank order plus conservation of
    /// the total balance.
    Batch,
    /// The KV service tier's work-stealing runner
    /// (`rh_kv::service::run_service_controlled` with
    /// `SchedPolicy::Steal { enabled: true }`): `threads` workers drain
    /// a seeded transfer-heavy trace of `threads * txs_per_thread`
    /// requests over `slots` keys through per-worker deques under the
    /// controlled scheduler. Checked for strict serializability of the
    /// recorded histories, conservation of the balance sum, and the
    /// runner's exactly-once service invariant.
    StealService,
}

/// One manifest entry: the mutant, where its hook lives, and the
/// seed/schedule family `tm-check mutate` sweeps to kill it.
#[derive(Debug, Clone, Copy)]
pub struct MutantSpec {
    /// The mutant this entry registers.
    pub mutant: Mutant,
    /// Stable CLI name.
    pub name: &'static str,
    /// One-line description of the planted bug and its hook site.
    pub summary: &'static str,
    /// How the kill is expected to manifest.
    pub kills_via: &'static str,
    /// Algorithm whose protocol the hook breaks.
    pub algorithm: Algorithm,
    /// Machine profile of the kill recipe.
    pub htm: HtmProfile,
    /// Commit-clock lanes of the kill recipe.
    pub clock_shards: u32,
    /// Virtual threads of the kill recipe.
    pub threads: usize,
    /// Shared heap slots of the kill recipe.
    pub slots: usize,
    /// Transactions per thread.
    pub txs_per_thread: usize,
    /// Operations per transaction.
    pub ops_per_tx: usize,
    /// Injected hardware-abort probability per HTM access (drives hybrid
    /// fallback paths where the hook lives).
    pub abort_injection: f64,
    /// Seeds `tm-check mutate` sweeps before declaring the mutant a
    /// survivor; the paired clean engine must pass the same seeds.
    pub seed_budget: u64,
    /// Workload family the kill recipe drives. For
    /// [`WorkloadShape::KvTransfer`], `slots` is the key-space size and
    /// `txs_per_thread` the requests per thread; `ops_per_tx` is unused.
    pub workload: WorkloadShape,
    /// Whether the kill recipe runs with the active-lane controller on
    /// (an epoch tick per commit). Required by hooks planted in the
    /// controller code path, which is never exercised otherwise.
    pub policy: bool,
}

/// The corpus, in [`Mutant::ALL`] order (indexed by `Mutant as usize`).
pub const MANIFEST: &[MutantSpec] = &[
    MutantSpec {
        mutant: Mutant::PostfixClock,
        name: "postfix_clock",
        summary: "RH NOrec first write locks the clock at its current value \
                  instead of the validated snapshot (rh_norec::lock_clock)",
        kills_via: "lost update: stale reads survive into the write phase",
        algorithm: Algorithm::RhNorec,
        htm: HtmProfile::Disabled,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::StaleLane,
        name: "stale_lane",
        summary: "sharded-clock validation skips the last sequence lane \
                  (clock_shard::lanes_match)",
        kills_via: "zombie reads: commits homed on the skipped lane go unseen",
        algorithm: Algorithm::RhNorec,
        htm: HtmProfile::Disabled,
        clock_shards: 2,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::EagerSkipValidation,
        name: "eager_skip_validation",
        summary: "eager NOrec reads never validate against the clock \
                  (norec::EagerCtx::read)",
        kills_via: "inconsistent snapshots in committed read-only and aborted attempts",
        algorithm: Algorithm::Norec,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::StaleSnapshotReuse,
        name: "stale_snapshot_reuse",
        summary: "lazy NOrec revalidation refreshes the snapshot but skips \
                  the value-based read-log re-read (norec::LazyCtx::revalidate)",
        kills_via: "lost update: a stale read log passes commit revalidation",
        algorithm: Algorithm::NorecLazy,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::MissingLaneBump,
        name: "missing_lane_bump",
        summary: "writer fast paths homed on lane 0 skip htm_commit_bump \
                  (common::fast_commit_clock_update)",
        kills_via: "software snapshots never see lane-0 hardware commits",
        algorithm: Algorithm::HybridNorec,
        htm: HtmProfile::Haswell,
        clock_shards: 4,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.1,
        seed_budget: 80,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::BloomFalseNegative,
        name: "bloom_false_negative",
        summary: "the write-set bloom filter tests a rotated bit, so present \
                  keys miss (txlog::LogMap::get)",
        kills_via: "read-your-own-writes broken on the lazy slow path",
        algorithm: Algorithm::NorecLazy,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::Tl2CommitNoValidate,
        name: "tl2_commit_no_validate",
        summary: "TL2 commit skips read-set validation when the clock moved \
                  (tl2::Tl2Ctx::commit)",
        kills_via: "committed writer serializes after a commit it never re-read",
        algorithm: Algorithm::Tl2,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::Tl2EarlyRelease,
        name: "tl2_early_release",
        summary: "TL2 abort releases stripe locks before undoing eager \
                  writes (tl2::Tl2Ctx::rollback_writes)",
        kills_via: "readers observe dirty aborted values at unlocked stripes",
        algorithm: Algorithm::Tl2,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 60,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::ElisionNoSubscription,
        name: "elision_no_subscription",
        summary: "lock-elision fast paths skip the global-lock subscription \
                  (lock_elision's FastPath descriptor)",
        kills_via: "hardware commits interleave with a serial writer's stores",
        algorithm: Algorithm::LockElision,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.3,
        seed_budget: 80,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::RhWriterNoHtmLock,
        name: "rh_writer_no_htm_lock",
        summary: "RH NOrec's software-writer fallback skips raising \
                  global_htm_lock (rh_norec::handle_first_write)",
        kills_via: "read-only fast paths commit mixed snapshots mid-write-phase",
        algorithm: Algorithm::RhNorec,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.3,
        seed_budget: 80,
        workload: WorkloadShape::Scripted,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::KvStaleTransferCredit,
        name: "kv_stale_transfer_credit",
        summary: "KV transfer credits the destination from a balance probed \
                  in an earlier separate transaction (rh_kv::KvStore::transfer)",
        kills_via: "lost credit: conservation of the transferred balance breaks \
                    when a concurrent transfer lands between probe and commit",
        algorithm: Algorithm::RhNorec,
        htm: HtmProfile::Haswell,
        clock_shards: 1,
        threads: 3,
        slots: 4,
        txs_per_thread: 6,
        ops_per_tx: 1,
        abort_injection: 0.0,
        seed_budget: 60,
        workload: WorkloadShape::KvTransfer,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::PolicyStaleEpoch,
        name: "policy_stale_epoch",
        summary: "the lane controller publishes a lane-count change with a \
                  raw store instead of the write-phase epoch fence \
                  (clock_shard::publish_active_lanes)",
        kills_via: "zombie reads: across an unfenced lane-count shrink, a \
                    committer homes on a lane outside another side's active \
                    prefix, so its commit goes unseen by in-flight snapshots. \
                    Pure-software NOrec (HTM disabled) keeps every reader \
                    validating per read, and shards=8 gives the controller \
                    three shrink windows (8->4->2->1) early in the run",
        algorithm: Algorithm::Norec,
        htm: HtmProfile::Disabled,
        clock_shards: 8,
        threads: 8,
        slots: 2,
        txs_per_thread: 4,
        ops_per_tx: 3,
        abort_injection: 0.0,
        seed_budget: 60,
        workload: WorkloadShape::Scripted,
        policy: true,
    },
    MutantSpec {
        mutant: Mutant::BatchStaleEstimate,
        name: "batch_stale_estimate",
        summary: "batch validation accepts a read resolving to an ESTIMATE \
                  tombstone as long as the tombstone's rank matches the rank \
                  originally read, incarnation unchecked \
                  (rh_norec::batch validation loop)",
        kills_via: "lost update: with three ranks chained on one hot key, a \
                    low rank's late first execution aborts the middle rank; \
                    the top rank's read of the dead middle incarnation hits \
                    the ESTIMATE during its one-off revalidation, the mutant \
                    calls it valid, and the middle rank's same-address \
                    republish (which revalidates only itself) never reruns \
                    the top rank — its commit carries the pre-abort balance, \
                    breaking conservation and rank-order serializability",
        algorithm: Algorithm::RhNorec,
        htm: HtmProfile::Disabled,
        clock_shards: 1,
        threads: 3,
        slots: 4,
        txs_per_thread: 8,
        ops_per_tx: 1,
        abort_injection: 0.0,
        seed_budget: 40,
        workload: WorkloadShape::Batch,
        policy: false,
    },
    MutantSpec {
        mutant: Mutant::StealBottomRace,
        name: "steal_bottom_race",
        summary: "the work-stealing queue claims its head slot with a plain \
                  store instead of the CAS arbitration \
                  (rh_kv::steal::StealDeque::steal_top)",
        kills_via: "double service: when two consumers (the owner's front \
                    take and a thief, or two thieves) race for the same head \
                    slot, the unarbitrated claim lets both return the same \
                    request, so the runner's exactly-once invariant trips \
                    (trace length vs served count) — and a doubled transfer \
                    corrupts the serialized history. The controlled scheduler \
                    drives the consumer interleaving through the yield point \
                    between the slot read and the claim; a 3-worker pool over \
                    a short bursty transfer trace makes contended head races \
                    the common case",
        algorithm: Algorithm::RhNorec,
        htm: HtmProfile::Disabled,
        clock_shards: 1,
        threads: 3,
        slots: 4,
        txs_per_thread: 8,
        ops_per_tx: 1,
        abort_injection: 0.0,
        seed_budget: 60,
        workload: WorkloadShape::StealService,
        policy: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_indexed_by_discriminant() {
        assert_eq!(MANIFEST.len(), Mutant::ALL.len());
        for (i, m) in Mutant::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i);
            assert_eq!(MANIFEST[i].mutant, m, "MANIFEST order diverged from ALL");
            assert_eq!(m.spec().mutant, m);
        }
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        for m in Mutant::ALL {
            assert_eq!(Mutant::from_name(m.name()), Some(m));
            assert_eq!(
                MANIFEST.iter().filter(|s| s.name == m.name()).count(),
                1,
                "duplicate manifest name {}",
                m.name()
            );
        }
        assert_eq!(Mutant::from_name("no_such_mutant"), None);
    }

    #[test]
    fn arming_bits_do_not_collide() {
        let mut seen = 0u32;
        for m in Mutant::ALL {
            assert_eq!(seen & m.bit(), 0, "bit collision for {m:?}");
            seen |= m.bit();
        }
    }
}
