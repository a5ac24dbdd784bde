//! TM runtime configuration: algorithm selection and retry policies.

use crate::error::TmError;
use crate::policy::PolicyConfig;

/// The TM algorithms evaluated in the paper (§3.1), plus the ablation
/// variants this reproduction adds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// Pure hardware transactions with a single global lock as fallback.
    /// The lock serializes everything, so it does not scale under fallback
    /// pressure — the paper's motivating baseline.
    LockElision,
    /// The all-software NOrec STM with eager encounter-time writes (the
    /// variant the paper found fastest at its concurrency levels).
    Norec,
    /// The classic lazy NOrec STM with read/write-set logging and
    /// value-based revalidation. Ablation baseline (§3.1 mentions both).
    NorecLazy,
    /// The all-software TL2 STM with per-stripe versioned locks and eager
    /// encounter-time writes.
    Tl2,
    /// Hybrid NOrec of Dalessandro et al.: HTM fast path that subscribes to
    /// the global clock *at start*, with a NOrec software slow path.
    HybridNorec,
    /// Hybrid NOrec with the *lazy* NOrec slow path (write-set buffering,
    /// value-based revalidation). The paper implemented both and found
    /// "the eager HyTM design outperforms the lazy HyTM design for the low
    /// concurrency levels available in our benchmarks" (§3.1). Ablation.
    HybridNorecLazy,
    /// **The paper's contribution**: Reduced Hardware NOrec — pure fast
    /// path that touches the clock only at commit, and a mixed slow path
    /// with an adaptive HTM prefix and an HTM postfix.
    RhNorec,
    /// RH NOrec restricted to the HTM postfix (the paper's Algorithm 2,
    /// before §2.4 adds the prefix). Ablation.
    RhNorecPostfixOnly,
}

impl Algorithm {
    /// All algorithm variants, in the order the paper's figures list them.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::LockElision,
        Algorithm::Norec,
        Algorithm::NorecLazy,
        Algorithm::Tl2,
        Algorithm::HybridNorec,
        Algorithm::HybridNorecLazy,
        Algorithm::RhNorec,
        Algorithm::RhNorecPostfixOnly,
    ];

    /// The five algorithms the paper's figures compare.
    pub const PAPER_SET: [Algorithm; 5] = [
        Algorithm::LockElision,
        Algorithm::Norec,
        Algorithm::Tl2,
        Algorithm::HybridNorec,
        Algorithm::RhNorec,
    ];

    /// Short label used in figure output (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::LockElision => "Lock Elision",
            Algorithm::Norec => "NOrec",
            Algorithm::NorecLazy => "NOrec-Lazy",
            Algorithm::Tl2 => "TL2",
            Algorithm::HybridNorec => "HY-NOrec",
            Algorithm::HybridNorecLazy => "HY-NOrec-Lazy",
            Algorithm::RhNorec => "RH-NOrec",
            Algorithm::RhNorecPostfixOnly => "RH-NOrec-Postfix",
        }
    }

    /// Whether the algorithm ever runs hardware transactions.
    pub fn uses_htm(self) -> bool {
        !matches!(self, Algorithm::Norec | Algorithm::NorecLazy | Algorithm::Tl2)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Adaptive HTM-prefix length control (paper §2.4: "the length of the HTM
/// prefix adjusts dynamically based on the HTM abort feedback").
///
/// The controller is multiplicative-decrease on prefix failure and
/// additive-increase on success, clamped to `[min_reads, max_reads]`; a
/// prefix that shrinks to zero is skipped entirely until successes grow it
/// back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixConfig {
    /// Initial expected prefix length, in reads.
    pub initial_reads: u64,
    /// Lower clamp; 0 lets the controller disable the prefix.
    pub min_reads: u64,
    /// Upper clamp.
    pub max_reads: u64,
    /// When `false` the length is pinned at `initial_reads` (ablation).
    pub adaptive: bool,
}

impl Default for PrefixConfig {
    fn default() -> Self {
        PrefixConfig {
            initial_reads: 64,
            // Keep probing with short prefixes even after a losing streak:
            // a floor of 0 would disable the prefix permanently (success
            // is the only way the length grows back, and a zero-length
            // prefix is never attempted).
            min_reads: 4,
            max_reads: 4096,
            adaptive: true,
        }
    }
}

/// Contention-backoff knobs for the engine's spin sites (word-lock
/// acquisition, the clock-lock CAS loops, the eager clock spin, and the
/// hardware fast-path retry loop).
///
/// The wait for attempt *n* is a jittered spin window in
/// `[cap/2, cap]` where `cap = min(min_spins << n, max_spins)`. Jitter is
/// drawn from a per-thread PRNG seeded from `seed` and the thread id —
/// never wall-clock time — and under the deterministic scheduler the
/// backoff performs no host pacing at all, so seeded schedules replay
/// identically whatever these knobs are set to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Spin window of the first retry (must be at least 1).
    pub min_spins: u32,
    /// Upper bound on the spin window (must be at least `min_spins`).
    pub max_spins: u32,
    /// Seed for the per-thread jitter PRNG.
    pub seed: u64,
    /// When `false`, contended spin sites retry immediately (ablation).
    pub enabled: bool,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            min_spins: 16,
            max_spins: 4096,
            seed: 0x0005_EED0_FBAC_C0FF,
            enabled: true,
        }
    }
}

/// Configuration of the batch execution mode
/// ([`ParallelExecutor`](crate::batch::ParallelExecutor), DESIGN.md §15).
///
/// `workers` is the number of OS (or, under the deterministic scheduler,
/// virtual) threads pulling execution/validation tasks; 1 selects the
/// no-speculation sequential fast path. `mvmap_shards` is the lock-shard
/// count of the multi-version map (power of two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    pub(crate) workers: usize,
    pub(crate) mvmap_shards: usize,
    pub(crate) interleave_accesses: u32,
}

/// Most workers a batch executor accepts.
pub const MAX_BATCH_WORKERS: usize = 64;

/// Most (and largest power-of-two) multi-version-map shards.
pub const MAX_MVMAP_SHARDS: usize = 64;

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { workers: 1, mvmap_shards: 8, interleave_accesses: 0 }
    }
}

impl BatchConfig {
    /// The default configuration with `workers` worker threads.
    pub fn with_workers(workers: usize) -> Self {
        BatchConfig { workers, ..BatchConfig::default() }
    }

    /// Worker threads (1 = the sequential fast path).
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lock shards of the multi-version map.
    #[inline]
    pub fn mvmap_shards(&self) -> usize {
        self.mvmap_shards
    }

    /// Yield the host thread every `every` speculative accesses (0 = off).
    /// Same role as [`TmConfigBuilder::interleave_accesses`]: on a
    /// timesharing host, OS threads otherwise run whole timeslices back to
    /// back — one worker drains the entire task queue alone and the
    /// speculation the model is supposed to measure never overlaps.
    #[must_use]
    pub fn with_interleave(mut self, every: u32) -> Self {
        self.interleave_accesses = every;
        self
    }

    /// Speculative-access interleave period (0 = off).
    #[inline]
    pub fn interleave_accesses(&self) -> u32 {
        self.interleave_accesses
    }

    /// Checks the knobs — shared by [`TmConfigBuilder::build`] and
    /// [`ParallelExecutor::new`](crate::batch::ParallelExecutor::new).
    ///
    /// # Errors
    ///
    /// [`TmError::InvalidConfig`] when `workers` is outside
    /// `1..=`[`MAX_BATCH_WORKERS`] or `mvmap_shards` is not a power of
    /// two in `1..=`[`MAX_MVMAP_SHARDS`].
    pub fn validate(&self) -> Result<(), TmError> {
        if self.workers == 0 || self.workers > MAX_BATCH_WORKERS {
            return Err(TmError::InvalidConfig {
                reason: "batch workers must be in 1..=MAX_BATCH_WORKERS (64)",
            });
        }
        if !self.mvmap_shards.is_power_of_two() || self.mvmap_shards > MAX_MVMAP_SHARDS {
            return Err(TmError::InvalidConfig {
                reason: "batch mvmap_shards must be a power of two in 1..=MAX_MVMAP_SHARDS (64)",
            });
        }
        Ok(())
    }
}

/// Retry policy knobs (paper §3.3–3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum hardware restarts of the fast path before falling back
    /// (paper: 10). Aborts without the retry hint fall back immediately.
    pub fast_path_retries: u32,
    /// Slow-path restarts before grabbing the serial lock (paper: 10).
    pub slow_path_restart_limit: u32,
    /// Attempts for each small hardware transaction (prefix/postfix) before
    /// using its software counterpart (paper §3.4: exactly one).
    pub small_htm_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            fast_path_retries: 10,
            slow_path_restart_limit: 10,
            small_htm_retries: 1,
        }
    }
}

/// Full configuration of a TM runtime.
///
/// Construct one with [`TmConfig::new`] (the paper's defaults) or, to
/// deviate from them, through the validating [`TmConfig::builder`] — a
/// `TmConfig` that exists is always internally consistent.
///
/// # Examples
///
/// ```rust
/// use rh_norec::{Algorithm, TmConfig};
///
/// let config = TmConfig::new(Algorithm::RhNorec);
/// assert_eq!(config.retry().fast_path_retries, 10);
///
/// let tuned = TmConfig::builder(Algorithm::RhNorec)
///     .fast_path_retries(4)
///     .initial_prefix_reads(128)
///     .build()?;
/// assert_eq!(tuned.prefix().initial_reads, 128);
/// # Ok::<(), rh_norec::TmError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TmConfig {
    pub(crate) algorithm: Algorithm,
    pub(crate) retry: RetryPolicy,
    pub(crate) prefix: PrefixConfig,
    pub(crate) backoff: BackoffConfig,
    pub(crate) interleave_accesses: u32,
    pub(crate) clock_shards: u32,
    pub(crate) policy: PolicyConfig,
    pub(crate) batch: BatchConfig,
}

impl TmConfig {
    /// The paper's configuration for `algorithm`.
    pub fn new(algorithm: Algorithm) -> Self {
        TmConfig {
            algorithm,
            retry: RetryPolicy::default(),
            prefix: PrefixConfig::default(),
            backoff: BackoffConfig::default(),
            interleave_accesses: 0,
            clock_shards: 1,
            policy: PolicyConfig::default(),
            batch: BatchConfig::default(),
        }
    }

    /// Starts a validating builder from the paper's defaults.
    pub fn builder(algorithm: Algorithm) -> TmConfigBuilder {
        TmConfigBuilder { config: TmConfig::new(algorithm) }
    }

    /// Which algorithm runs.
    #[inline]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The retry policy.
    #[inline]
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// HTM-prefix length control (RH NOrec only).
    #[inline]
    pub fn prefix(&self) -> PrefixConfig {
        self.prefix
    }

    /// Contention backoff for the engine's spin sites.
    #[inline]
    pub fn backoff(&self) -> BackoffConfig {
        self.backoff
    }

    /// Yield the host thread every N transactional accesses (0 = never).
    #[inline]
    pub fn interleave_accesses(&self) -> u32 {
        self.interleave_accesses
    }

    /// Number of commit-clock sequence lanes (1 = the classic single
    /// clock word).
    #[inline]
    pub fn clock_shards(&self) -> u32 {
        self.clock_shards
    }

    /// The adaptive policy layer (DESIGN.md §14). Disabled by default.
    #[inline]
    pub fn policy(&self) -> PolicyConfig {
        self.policy
    }

    /// The batch execution mode (DESIGN.md §15). Defaults to one worker
    /// (the sequential fast path).
    #[inline]
    pub fn batch(&self) -> BatchConfig {
        self.batch
    }
}

/// Validating builder for [`TmConfig`], obtained from [`TmConfig::builder`].
///
/// Setters never fail; [`build`](Self::build) checks the combination and
/// rejects nonsense with a typed [`TmError::InvalidConfig`], so an invalid
/// configuration can never reach a runtime.
#[derive(Clone, Copy, Debug)]
#[must_use = "a builder does nothing until build() is called"]
pub struct TmConfigBuilder {
    config: TmConfig,
}

impl TmConfigBuilder {
    /// Replaces the whole retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Replaces the whole HTM-prefix control block.
    pub fn prefix(mut self, prefix: PrefixConfig) -> Self {
        self.config.prefix = prefix;
        self
    }

    /// Replaces the whole contention-backoff block.
    pub fn backoff(mut self, backoff: BackoffConfig) -> Self {
        self.config.backoff = backoff;
        self
    }

    /// Enables or disables contention backoff at the spin sites.
    pub fn backoff_enabled(mut self, enabled: bool) -> Self {
        self.config.backoff.enabled = enabled;
        self
    }

    /// Seed for the per-thread backoff-jitter PRNG.
    pub fn backoff_seed(mut self, seed: u64) -> Self {
        self.config.backoff.seed = seed;
        self
    }

    /// Upper bound on the backoff spin window.
    pub fn backoff_max_spins(mut self, max_spins: u32) -> Self {
        self.config.backoff.max_spins = max_spins;
        self
    }

    /// Yield the host thread every N transactional accesses (0 = never,
    /// the default).
    ///
    /// On hosts with fewer cores than workers, threads timeshare and
    /// transactions barely overlap in time, hiding the contention the
    /// paper measures. The benchmark harness enables periodic yields to
    /// restore realistic interleaving density; they do not affect
    /// correctness, only scheduling.
    pub fn interleave_accesses(mut self, every: u32) -> Self {
        self.config.interleave_accesses = every;
        self
    }

    /// Maximum hardware restarts of the fast path before falling back.
    pub fn fast_path_retries(mut self, retries: u32) -> Self {
        self.config.retry.fast_path_retries = retries;
        self
    }

    /// Slow-path restarts before grabbing the serial lock.
    pub fn slow_path_restart_limit(mut self, limit: u32) -> Self {
        self.config.retry.slow_path_restart_limit = limit;
        self
    }

    /// Attempts for each small hardware transaction (prefix/postfix).
    pub fn small_htm_retries(mut self, retries: u32) -> Self {
        self.config.retry.small_htm_retries = retries;
        self
    }

    /// Enables or disables the §2.4 adaptive prefix-length controller.
    pub fn adaptive_prefix(mut self, adaptive: bool) -> Self {
        self.config.prefix.adaptive = adaptive;
        self
    }

    /// Initial expected HTM-prefix length, in reads.
    pub fn initial_prefix_reads(mut self, reads: u64) -> Self {
        self.config.prefix.initial_reads = reads;
        self
    }

    /// Number of commit-clock sequence lanes. The default (1) is the
    /// classic single clock word; larger values shard the clock so
    /// writers bump only their home lane (DESIGN.md §11). Validated to
    /// `1..=`[`MAX_CLOCK_SHARDS`](crate::MAX_CLOCK_SHARDS) by
    /// [`build`](Self::build).
    pub fn clock_shards(mut self, shards: u32) -> Self {
        self.config.clock_shards = shards;
        self
    }

    /// Replaces the whole adaptive-policy block (DESIGN.md §14). The
    /// default is [`PolicyConfig::default`] — disabled, bit-for-bit the
    /// static engine; [`PolicyConfig::adaptive`] turns all three
    /// controllers on.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.config.policy = policy;
        self
    }

    /// Enables or disables the adaptive policy layer, keeping the rest
    /// of the policy block at its current values.
    pub fn adaptive_policy(mut self, enabled: bool) -> Self {
        self.config.policy.enabled = enabled;
        self
    }

    /// Replaces the whole batch-mode block (DESIGN.md §15). Validated by
    /// [`build`](Self::build) via [`BatchConfig::validate`].
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.config.batch = batch;
        self
    }

    /// Worker threads of the batch execution mode (1 = the sequential
    /// fast path), keeping the rest of the batch block at its current
    /// values.
    pub fn batch_workers(mut self, workers: usize) -> Self {
        self.config.batch.workers = workers;
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::InvalidConfig`] when:
    ///
    /// * the initial prefix length is zero (a zero-length prefix is never
    ///   attempted, so the mixed slow path would silently lose its prefix
    ///   forever),
    /// * the prefix clamp range is inverted (`min_reads > max_reads`),
    /// * the initial prefix length lies outside the clamp range,
    /// * `small_htm_retries` is zero (the engines would silently treat it
    ///   as 1; the builder rejects it instead).
    pub fn build(self) -> Result<TmConfig, TmError> {
        let c = &self.config;
        if c.prefix.initial_reads == 0 {
            return Err(TmError::InvalidConfig {
                reason: "initial prefix length must be nonzero (a zero-length prefix is never attempted)",
            });
        }
        if c.prefix.min_reads > c.prefix.max_reads {
            return Err(TmError::InvalidConfig {
                reason: "prefix min_reads exceeds max_reads",
            });
        }
        if c.prefix.initial_reads < c.prefix.min_reads
            || c.prefix.initial_reads > c.prefix.max_reads
        {
            return Err(TmError::InvalidConfig {
                reason: "initial prefix length outside [min_reads, max_reads]",
            });
        }
        if c.retry.small_htm_retries == 0 {
            return Err(TmError::InvalidConfig {
                reason: "small_htm_retries must be at least 1",
            });
        }
        if c.backoff.min_spins == 0 {
            return Err(TmError::InvalidConfig {
                reason: "backoff min_spins must be at least 1 (use enabled: false to turn backoff off)",
            });
        }
        if c.backoff.min_spins > c.backoff.max_spins {
            return Err(TmError::InvalidConfig {
                reason: "backoff min_spins exceeds max_spins",
            });
        }
        if c.clock_shards == 0 || c.clock_shards as usize > crate::clock_shard::MAX_CLOCK_SHARDS {
            return Err(TmError::InvalidConfig {
                reason: "clock_shards must be in 1..=MAX_CLOCK_SHARDS (8)",
            });
        }
        if c.policy.enabled && c.policy.epoch_commits == 0 {
            return Err(TmError::InvalidConfig {
                reason: "policy epoch_commits must be nonzero when the policy layer is enabled",
            });
        }
        c.batch.validate()?;
        Ok(self.config)
    }
}

/// Static transaction kind hint.
///
/// The paper's GCC integration uses compiler static analysis to tell the
/// runtime a transaction is read-only (Algorithm 1 line 25: "Detected by
/// compiler static analysis"); read-only fast paths skip the commit-time
/// clock update. This enum is the call-site stand-in for that analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// The transaction may write.
    ReadWrite,
    /// The transaction is statically known never to write.
    ///
    /// Writing inside a `ReadOnly` transaction is a programming error: the
    /// engine refuses the write, tears the attempt down, and surfaces
    /// [`TxFault::WriteInReadOnly`](crate::TxFault::WriteInReadOnly) from
    /// [`Session::run_read`](crate::Session::run_read) (the
    /// panicking [`Session::execute`](crate::Session::execute) panics).
    /// See [`Tx::write`](crate::Tx::write) for the full contract.
    ReadOnly,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Algorithm::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), Algorithm::ALL.len());
    }

    #[test]
    fn stm_algorithms_do_not_use_htm() {
        assert!(!Algorithm::Norec.uses_htm());
        assert!(!Algorithm::Tl2.uses_htm());
        assert!(Algorithm::RhNorec.uses_htm());
        assert!(Algorithm::LockElision.uses_htm());
    }

    #[test]
    fn paper_defaults() {
        let c = TmConfig::new(Algorithm::HybridNorec);
        assert_eq!(c.retry.fast_path_retries, 10);
        assert_eq!(c.retry.slow_path_restart_limit, 10);
        assert_eq!(c.retry.small_htm_retries, 1);
        assert!(c.prefix.adaptive);
    }

    #[test]
    fn builder_defaults_match_new() {
        let built = TmConfig::builder(Algorithm::RhNorec).build().unwrap();
        assert_eq!(built, TmConfig::new(Algorithm::RhNorec));
    }

    #[test]
    fn builder_applies_overrides() {
        let c = TmConfig::builder(Algorithm::RhNorec)
            .fast_path_retries(3)
            .slow_path_restart_limit(7)
            .small_htm_retries(4)
            .adaptive_prefix(false)
            .initial_prefix_reads(32)
            .interleave_accesses(2)
            .build()
            .unwrap();
        assert_eq!(c.retry().fast_path_retries, 3);
        assert_eq!(c.retry().slow_path_restart_limit, 7);
        assert_eq!(c.retry().small_htm_retries, 4);
        assert!(!c.prefix().adaptive);
        assert_eq!(c.prefix().initial_reads, 32);
        assert_eq!(c.interleave_accesses(), 2);
        assert_eq!(c.algorithm(), Algorithm::RhNorec);
    }

    #[test]
    fn builder_rejects_nonsense() {
        let zero_prefix = TmConfig::builder(Algorithm::RhNorec)
            .initial_prefix_reads(0)
            .build();
        assert!(matches!(zero_prefix, Err(TmError::InvalidConfig { .. })));

        let inverted = TmConfig::builder(Algorithm::RhNorec)
            .prefix(PrefixConfig { initial_reads: 64, min_reads: 100, max_reads: 10, adaptive: true })
            .build();
        assert!(matches!(inverted, Err(TmError::InvalidConfig { .. })));

        let out_of_range = TmConfig::builder(Algorithm::RhNorec)
            .prefix(PrefixConfig { initial_reads: 2, min_reads: 4, max_reads: 4096, adaptive: true })
            .build();
        assert!(matches!(out_of_range, Err(TmError::InvalidConfig { .. })));

        let zero_small = TmConfig::builder(Algorithm::RhNorec)
            .small_htm_retries(0)
            .build();
        assert!(matches!(zero_small, Err(TmError::InvalidConfig { .. })));

        let zero_backoff = TmConfig::builder(Algorithm::RhNorec)
            .backoff(BackoffConfig { min_spins: 0, ..BackoffConfig::default() })
            .build();
        assert!(matches!(zero_backoff, Err(TmError::InvalidConfig { .. })));

        let inverted_backoff = TmConfig::builder(Algorithm::RhNorec)
            .backoff_max_spins(8)
            .backoff(BackoffConfig { min_spins: 64, max_spins: 8, ..BackoffConfig::default() })
            .build();
        assert!(matches!(inverted_backoff, Err(TmError::InvalidConfig { .. })));

        let zero_shards = TmConfig::builder(Algorithm::RhNorec).clock_shards(0).build();
        assert!(matches!(zero_shards, Err(TmError::InvalidConfig { .. })));

        let too_many_shards = TmConfig::builder(Algorithm::RhNorec).clock_shards(9).build();
        assert!(matches!(too_many_shards, Err(TmError::InvalidConfig { .. })));

        let zero_epoch = TmConfig::builder(Algorithm::RhNorec)
            .policy(PolicyConfig { epoch_commits: 0, ..PolicyConfig::adaptive() })
            .build();
        assert!(matches!(zero_epoch, Err(TmError::InvalidConfig { .. })));
    }

    #[test]
    fn builder_applies_clock_shards() {
        let c = TmConfig::builder(Algorithm::Norec).clock_shards(4).build().unwrap();
        assert_eq!(c.clock_shards(), 4);
        assert_eq!(TmConfig::new(Algorithm::Norec).clock_shards(), 1);
        for shards in 1..=8 {
            assert!(TmConfig::builder(Algorithm::Norec).clock_shards(shards).build().is_ok());
        }
    }

    #[test]
    fn builder_applies_backoff_overrides() {
        let c = TmConfig::builder(Algorithm::RhNorec)
            .backoff_enabled(false)
            .backoff_seed(42)
            .backoff_max_spins(512)
            .build()
            .unwrap();
        assert!(!c.backoff().enabled);
        assert_eq!(c.backoff().seed, 42);
        assert_eq!(c.backoff().max_spins, 512);
    }

    #[test]
    fn batch_defaults_and_builder_knob() {
        let c = TmConfig::new(Algorithm::RhNorec);
        assert_eq!(c.batch(), BatchConfig::default());
        assert_eq!(c.batch().workers(), 1);
        assert_eq!(c.batch().mvmap_shards(), 8);

        let tuned = TmConfig::builder(Algorithm::RhNorec).batch_workers(8).build().unwrap();
        assert_eq!(tuned.batch().workers(), 8);
        assert_eq!(tuned.batch().mvmap_shards(), 8);
        assert_eq!(BatchConfig::with_workers(8), tuned.batch());
    }

    #[test]
    fn batch_knobs_are_validated() {
        let zero = TmConfig::builder(Algorithm::RhNorec).batch_workers(0).build();
        assert!(matches!(zero, Err(TmError::InvalidConfig { .. })));

        let too_many = TmConfig::builder(Algorithm::RhNorec)
            .batch_workers(MAX_BATCH_WORKERS + 1)
            .build();
        assert!(matches!(too_many, Err(TmError::InvalidConfig { .. })));

        let odd_shards = TmConfig::builder(Algorithm::RhNorec)
            .batch(BatchConfig { workers: 2, mvmap_shards: 3, interleave_accesses: 0 })
            .build();
        assert!(matches!(odd_shards, Err(TmError::InvalidConfig { .. })));

        let shard_flood = BatchConfig { workers: 2, mvmap_shards: 128, interleave_accesses: 0 };
        assert!(shard_flood.validate().is_err());
        assert!(BatchConfig::with_workers(16).validate().is_ok());
    }

    #[test]
    fn policy_is_off_by_default_and_builder_applies_it() {
        assert!(!TmConfig::new(Algorithm::RhNorec).policy().enabled);
        let c = TmConfig::builder(Algorithm::RhNorec)
            .policy(PolicyConfig::adaptive())
            .build()
            .unwrap();
        assert!(c.policy().enabled);
        assert!(c.policy().adapt_backoff && c.policy().adapt_lanes && c.policy().adapt_prefix);
        let toggled = TmConfig::builder(Algorithm::RhNorec)
            .adaptive_policy(true)
            .build()
            .unwrap();
        assert!(toggled.policy().enabled);
    }
}
