//! The transaction-log engine shared by the software slow paths: recycled
//! log arenas, a coalescing write-set with O(1) read-after-write lookup,
//! and the seeded contention-backoff primitive.
//!
//! The slow-path cost argument of the paper (§2.2–§2.4, and Brown & Ravi's
//! lower bounds) is that every cycle of software instrumentation is paid on
//! the critical path of the whole hybrid. Three properties follow:
//!
//! * **No per-attempt allocation.** Every log lives on the [`Session`]
//!   (like `TxMem`) and is recycled clear-don't-free across attempts and
//!   transactions; a retry loop reuses warm, already-sized buffers. The
//!   arenas count their growth events so tests can assert the steady state
//!   allocates nothing.
//! * **Coalesced writes, O(1) lookup.** The write-set keeps one entry per
//!   address (last-write-wins in place), answers read-after-write with an
//!   inline linear probe while the set is small and an open-addressed
//!   index past [`SMALL_MAX`] entries, and rejects misses with a
//!   single-word bloom filter before any probe — the common case for
//!   read-mostly transactions is one AND plus one branch.
//! * **Deterministic pacing.** [`Backoff`] draws its jitter from a seeded
//!   per-thread PRNG (never wall-clock or OS randomness) and performs no
//!   host pacing at all under the deterministic scheduler, so seeded
//!   `tm-check` schedules replay identically with backoff enabled,
//!   disabled, or re-seeded.
//!
//! [`Session`]: crate::Session

use sim_mem::Addr;

use crate::config::BackoffConfig;
use crate::cost;

/// Write-set size at which lookup switches from the inline linear probe to
/// the open-addressed index. Small transactions (the overwhelming majority
/// in the paper's workloads) never touch the index; a linear scan of a few
/// cache-resident pairs beats any hashing.
pub(crate) const SMALL_MAX: usize = 8;

/// Index slot marker for "no entry".
const EMPTY: u32 = u32::MAX;

/// Fibonacci multiplier (2^64 / φ): one multiply spreads consecutive
/// addresses across the high bits.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(FIB)
}

#[inline]
fn bloom_bit(key: u64) -> u64 {
    1 << (hash(key) >> 58)
}

/// An append-only log arena recycled across attempts: `clear` keeps the
/// allocation, and growth events are counted so tests can pin the
/// steady-state allocation rate at zero.
#[derive(Debug, Default)]
pub(crate) struct LogVec<T> {
    entries: Vec<T>,
    grows: u64,
}

impl<T> LogVec<T> {
    #[inline]
    pub(crate) fn push(&mut self, entry: T) {
        if self.entries.len() == self.entries.capacity() {
            self.grows += 1;
        }
        self.entries.push(entry);
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.entries
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Reallocations since construction.
    #[inline]
    pub(crate) fn grow_events(&self) -> u64 {
        self.grows
    }
}

/// A recycled insert-or-update map from `u64` keys to `u64` values with
/// insertion-order iteration — the core of both the lazy-NOrec write-set
/// (keyed by address) and TL2's owned-stripe table (keyed by stripe).
///
/// Entries live in an insertion-ordered arena (write-back and stripe
/// release iterate it directly). Lookup goes through a one-word bloom
/// filter, then either an inline linear probe (≤ [`SMALL_MAX`] entries) or
/// an open-addressed linear-probe index of entry positions. Keys are never
/// removed individually; `clear` resets the map while keeping both
/// allocations.
#[derive(Debug, Default)]
pub(crate) struct LogMap {
    entries: Vec<(u64, u64)>,
    /// Open-addressed table of entry positions; power-of-two length,
    /// `EMPTY`-filled, only consulted when `indexed`.
    slots: Vec<u32>,
    bloom: u64,
    indexed: bool,
    grows: u64,
    /// Armed `BloomFalseNegative` corpus mutant: lookups test a rotated
    /// bloom bit, so present keys can miss. Survives `clear` — the bug
    /// under test is permanent filter corruption, not a one-attempt blip.
    #[cfg(feature = "mutants")]
    sabotage_bloom: bool,
}

impl LogMap {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in insertion order.
    #[inline]
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (u64, u64)> {
        self.entries.iter()
    }

    /// The bloom bit lookups test for `key` — the correct one, unless the
    /// `BloomFalseNegative` corpus mutant is armed.
    #[inline]
    fn lookup_bloom_bit(&self, key: u64) -> u64 {
        #[cfg(feature = "mutants")]
        if self.sabotage_bloom {
            return bloom_bit(key).rotate_left(1);
        }
        bloom_bit(key)
    }

    /// Arms the `BloomFalseNegative` corpus mutant on this map.
    #[cfg(feature = "mutants")]
    pub(crate) fn set_bloom_sabotage(&mut self, on: bool) {
        self.sabotage_bloom = on;
    }

    /// Current value for `key`, if present.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        if self.bloom & self.lookup_bloom_bit(key) == 0 {
            return None;
        }
        if !self.indexed {
            // Coalesced entries: each key appears once, scan direction is
            // irrelevant.
            return self
                .entries
                .iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, v)| v);
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) >> 32) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                e => {
                    let (k, v) = self.entries[e as usize];
                    if k == key {
                        return Some(v);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or updates in place (last-write-wins). Returns `true` when
    /// `key` was new.
    pub(crate) fn insert(&mut self, key: u64, value: u64) -> bool {
        self.bloom |= bloom_bit(key);
        if !self.indexed {
            if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                e.1 = value;
                return false;
            }
            self.push_entry(key, value);
            if self.entries.len() > SMALL_MAX {
                self.build_index();
            }
            return true;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) >> 32) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => {
                    self.slots[i] = self.entries.len() as u32;
                    self.push_entry(key, value);
                    // Keep load under 1/2 so probe chains stay short.
                    if self.entries.len() * 2 > self.slots.len() {
                        self.build_index();
                    }
                    return true;
                }
                e => {
                    if self.entries[e as usize].0 == key {
                        self.entries[e as usize].1 = value;
                        return false;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Resets the map, keeping the entry arena and index table allocated
    /// for the next attempt.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.bloom = 0;
        if self.indexed {
            self.slots.fill(EMPTY);
            self.indexed = false;
        }
    }

    /// Reallocations (arena or index) since construction.
    #[inline]
    pub(crate) fn grow_events(&self) -> u64 {
        self.grows
    }

    #[inline]
    fn push_entry(&mut self, key: u64, value: u64) {
        if self.entries.len() == self.entries.capacity() {
            self.grows += 1;
        }
        self.entries.push((key, value));
    }

    /// (Re)builds the index over the current entries, at least 4× their
    /// count so the load factor starts at ≤ 1/4. The slot table keeps its
    /// high-water length across `clear`, so a recycled map rebuilds here
    /// without allocating.
    fn build_index(&mut self) {
        let needed = (self.entries.len() * 4).next_power_of_two();
        if needed > self.slots.len() {
            if needed > self.slots.capacity() {
                self.grows += 1;
            }
            self.slots.resize(needed, EMPTY);
        }
        self.slots.fill(EMPTY);
        let mask = self.slots.len() - 1;
        for (pos, &(k, _)) in self.entries.iter().enumerate() {
            let mut i = (hash(k) >> 32) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = pos as u32;
        }
        self.indexed = true;
    }
}

/// The lazy-NOrec write-set: a [`LogMap`] keyed by address.
///
/// Repeated writes to one address coalesce (last-write-wins in place), so
/// commit writes back exactly one store per distinct address, in first-
/// write order.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    map: LogMap,
}

impl WriteSet {
    /// Records `value` for `addr`, overwriting any previous write.
    #[inline]
    pub(crate) fn insert(&mut self, addr: Addr, value: u64) {
        self.map.insert(addr.to_word(), value);
    }

    /// The pending write to `addr`, if any (the read-after-write path).
    #[inline]
    pub(crate) fn lookup(&self, addr: Addr) -> Option<u64> {
        self.map.get(addr.to_word())
    }

    /// Distinct addresses written.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Pending writes in first-write order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.map.iter().map(|&(k, v)| (Addr::from_word(k), v))
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    #[inline]
    pub(crate) fn grow_events(&self) -> u64 {
        self.map.grow_events()
    }

    /// Arms the `BloomFalseNegative` corpus mutant on the backing map.
    #[cfg(feature = "mutants")]
    pub(crate) fn set_bloom_sabotage(&mut self, on: bool) {
        self.map.set_bloom_sabotage(on);
    }
}

/// The per-thread log arenas, owned by `Session` alongside `TxMem` and
/// lent to slow-path contexts for the duration of an attempt.
#[derive(Debug, Default)]
pub(crate) struct TxLogs {
    /// Lazy NOrec value-based read log.
    pub(crate) read_log: LogVec<(Addr, u64)>,
    /// Lazy NOrec buffered write-set.
    pub(crate) write_set: WriteSet,
    /// TL2 read-set: (stripe, observed metadata).
    pub(crate) tl2_read: LogVec<(usize, u64)>,
    /// TL2 undo log for eager writes.
    pub(crate) tl2_undo: LogVec<(Addr, u64)>,
    /// TL2 owned stripes: stripe → pre-lock metadata.
    pub(crate) tl2_owned: LogMap,
}

impl TxLogs {
    /// Arms the `BloomFalseNegative` corpus mutant on the lazy write-set.
    ///
    /// Deliberately leaves `tl2_owned` alone: a false negative on the
    /// owned-stripe table would make TL2 re-acquire a stripe it already
    /// holds and self-deadlock — a liveness failure, not the safety bug
    /// this mutant plants.
    #[cfg(feature = "mutants")]
    pub(crate) fn set_bloom_sabotage(&mut self, on: bool) {
        self.write_set.set_bloom_sabotage(on);
    }

    /// Total reallocations across all arenas since thread registration.
    pub(crate) fn grow_events(&self) -> u64 {
        self.read_log.grow_events()
            + self.write_set.grow_events()
            + self.tl2_read.grow_events()
            + self.tl2_undo.grow_events()
            + self.tl2_owned.grow_events()
    }
}

/// Capped exponential backoff with seeded jitter for the engine's spin
/// sites (word locks, clock CAS loops, fast-path retry).
///
/// The jitter PRNG is a per-thread xorshift64* seeded from
/// [`BackoffConfig::seed`] and the thread id — never wall-clock time or OS
/// randomness — and the pause performs **no host pacing under the
/// deterministic scheduler** (interleaving there is decided solely at
/// yield points), so seeded schedules replay identically regardless of the
/// backoff configuration. Virtual-cycle accounting charges
/// [`cost::BACKOFF_SPIN`] per waited spin: waiting burns time on a local
/// cache line, not coherence traffic.
#[derive(Debug)]
pub(crate) struct Backoff {
    state: u64,
    min_spins: u32,
    max_spins: u32,
    enabled: bool,
    /// Spins waited since registration (policy telemetry; plain local
    /// counter, read only by the owner at record time).
    spins_waited: u64,
    /// Clock write-phase CAS losses noted by the engines (policy
    /// telemetry).
    lane_cas_failures: u64,
}

impl Backoff {
    pub(crate) fn new(cfg: &BackoffConfig, tid: usize) -> Self {
        // SplitMix64 over seed ⊕ tid-mix: decorrelates threads sharing a
        // seed and guarantees a nonzero xorshift state.
        let mut z = cfg.seed ^ (tid as u64).wrapping_mul(FIB);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Backoff {
            state: if z == 0 { FIB } else { z },
            min_spins: cfg.min_spins,
            max_spins: cfg.max_spins,
            enabled: cfg.enabled,
            spins_waited: 0,
            lane_cas_failures: 0,
        }
    }

    /// Total spins waited since registration.
    pub(crate) fn spins_waited(&self) -> u64 {
        self.spins_waited
    }

    /// Clock write-phase CAS losses noted so far.
    pub(crate) fn lane_cas_failures(&self) -> u64 {
        self.lane_cas_failures
    }

    /// Notes one lost CAS on the commit clock's write phase (the lazy
    /// commit loop and RH NOrec's `lock_clock`) — the policy
    /// controller's commit-lane contention signal.
    #[inline]
    pub(crate) fn note_lane_cas_failure(&mut self) {
        self.lane_cas_failures += 1;
    }

    /// The current spin-window cap.
    #[cfg(test)]
    pub(crate) fn max_spins(&self) -> u32 {
        self.max_spins
    }

    /// Re-caps the spin window (the policy controller's published
    /// backoff knob). Clamped below by `min_spins` so the window never
    /// inverts; the jitter PRNG is untouched, so under the deterministic
    /// scheduler the draw sequence — and therefore every replay — is
    /// unchanged.
    pub(crate) fn set_max_spins(&mut self, cap: u32) {
        self.max_spins = cap.max(self.min_spins);
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Waits out attempt number `attempt` (0-based) of a contended spin
    /// site: a jittered spin window doubling per attempt from `min_spins`
    /// up to `max_spins`, charged to `cycles`.
    ///
    /// Under the deterministic scheduler this only draws the jitter and
    /// charges cycles; thread interleaving stays entirely at yield points.
    pub(crate) fn pause(&mut self, attempt: u32, cycles: &mut u64) {
        if !self.enabled {
            return;
        }
        let cap = (u64::from(self.min_spins) << attempt.min(16))
            .min(u64::from(self.max_spins))
            .max(1);
        // Jitter in [cap/2, cap]: desynchronizes threads backing off from
        // the same conflict without collapsing the window.
        let spins = cap / 2 + self.next() % (cap / 2 + 1);
        *cycles += spins * cost::BACKOFF_SPIN;
        self.spins_waited += spins;
        if sim_htm::sched::is_controlled() {
            return;
        }
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        // Long losing streaks on an oversubscribed host: let the lock
        // holder actually run.
        if attempt >= 4 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_set_coalesces_last_write_wins() {
        let mut ws = WriteSet::default();
        let a = Addr::new(100);
        for v in 0..100 {
            ws.insert(a, v);
        }
        assert_eq!(ws.len(), 1, "duplicate writes must coalesce");
        assert_eq!(ws.lookup(a), Some(99));
        let entries: Vec<_> = ws.iter().collect();
        assert_eq!(entries, vec![(a, 99)]);
    }

    #[test]
    fn write_set_preserves_first_write_order() {
        let mut ws = WriteSet::default();
        for i in (0..20u64).rev() {
            ws.insert(Addr::new(i + 1), i);
        }
        ws.insert(Addr::new(20), 777); // update must not reorder
        let order: Vec<_> = ws.iter().map(|(a, _)| a.index()).collect();
        let expected: Vec<_> = (1..=20u64).rev().collect();
        assert_eq!(order, expected);
        assert_eq!(ws.lookup(Addr::new(20)), Some(777));
    }

    #[test]
    fn log_map_lookup_across_the_index_threshold() {
        let mut m = LogMap::default();
        for i in 0..(SMALL_MAX as u64 * 4) {
            let key = i * 0x1_0001; // spread keys, exercise probing
            assert!(m.insert(key, i));
            assert!(!m.insert(key, i + 1000), "second insert must update");
            // Every key inserted so far stays reachable across the
            // small→indexed transition.
            for j in 0..=i {
                assert_eq!(m.get(j * 0x1_0001), Some(j + 1000));
            }
            assert_eq!(m.get(key + 1), None);
        }
    }

    #[test]
    fn small_regime_holds_at_exactly_small_max() {
        let mut m = LogMap::default();
        for i in 0..SMALL_MAX as u64 {
            assert!(m.insert(i.wrapping_mul(FIB) + 1, i));
        }
        assert_eq!(m.len(), SMALL_MAX);
        assert!(!m.indexed, "the index must not build until len > SMALL_MAX");
        for i in 0..SMALL_MAX as u64 {
            assert_eq!(m.get(i.wrapping_mul(FIB) + 1), Some(i));
        }
        // Updates at the boundary stay on the small path...
        assert!(!m.insert(FIB + 1, 777));
        assert!(!m.indexed);
        assert_eq!(m.get(FIB + 1), Some(777));
        // ...and the very next new key tips it over.
        assert!(m.insert(u64::MAX, 999));
        assert!(m.indexed, "entry SMALL_MAX + 1 must build the index");
        assert_eq!(m.get(u64::MAX), Some(999));
        assert_eq!(m.get(FIB + 1), Some(777));
    }

    /// A key colliding with `base` in the bloom filter (same filter bit)
    /// but distinct, so a lookup passes the bloom and must be rejected by
    /// the probe.
    fn bloom_colliding_key(base: u64) -> u64 {
        (1..)
            .map(|i| base + i)
            .find(|&k| bloom_bit(k) == bloom_bit(base))
            .unwrap()
    }

    #[test]
    fn bloom_collision_forces_slow_probe_in_both_regimes() {
        // Small regime: one entry, a colliding absent key scans the arena.
        let base = 0xDEAD_BEEF;
        let collider = bloom_colliding_key(base);
        assert_ne!(base, collider);
        let mut m = LogMap::default();
        m.insert(base, 1);
        assert_eq!(m.get(collider), None, "collision must fall through to the probe");
        assert_eq!(m.get(base), Some(1));

        // Indexed regime: the collider now also has to walk the
        // open-addressed table to its EMPTY slot.
        for i in 0..SMALL_MAX as u64 + 4 {
            m.insert(base + (i + 1) * 0x10_0000, i);
        }
        assert!(m.indexed);
        assert_eq!(m.get(collider), None);
        assert_eq!(m.get(base), Some(1));
    }

    #[test]
    fn clear_then_reuse_across_attempts() {
        let mut m = LogMap::default();
        // Attempt 1 grows past the threshold, saturating bloom and index.
        for i in 0..SMALL_MAX as u64 * 3 {
            m.insert(i + 1, i);
        }
        assert!(m.indexed);
        m.clear();
        assert_eq!(m.len(), 0);
        assert!(!m.indexed, "clear must drop back to the small regime");
        // Stale keys from the previous attempt must miss — both through
        // the reset bloom and, once entries return, through the probe.
        assert_eq!(m.get(5), None);
        for i in 0..4u64 {
            assert!(m.insert(i * 2 + 100, i), "reused map must treat keys as new");
        }
        assert_eq!(m.get(5), None);
        assert_eq!(m.get(102), Some(1));
        let order: Vec<_> = m.iter().map(|&(k, _)| k).collect();
        assert_eq!(order, vec![100, 102, 104, 106], "insertion order resets with clear");
    }

    #[test]
    fn recycled_map_stops_allocating() {
        let mut m = LogMap::default();
        // Warm to a size well past the index threshold.
        for round in 0..3u64 {
            for i in 0..200 {
                m.insert(i * 7, round);
            }
            m.clear();
        }
        let grows = m.grow_events();
        for round in 0..10u64 {
            for i in 0..200 {
                m.insert(i * 7, round);
            }
            assert_eq!(m.len(), 200);
            m.clear();
        }
        assert_eq!(m.grow_events(), grows, "recycled map must not reallocate");
    }

    #[test]
    fn recycled_log_vec_stops_allocating() {
        let mut l = LogVec::default();
        for _ in 0..3 {
            for i in 0..500u64 {
                l.push((Addr::new(i + 1), i));
            }
            l.clear();
        }
        let grows = l.grow_events();
        for _ in 0..10 {
            for i in 0..500u64 {
                l.push((Addr::new(i + 1), i));
            }
            l.clear();
        }
        assert_eq!(l.grow_events(), grows);
    }

    #[test]
    fn backoff_is_seed_deterministic_and_capped() {
        let cfg = BackoffConfig::default();
        let mut a = Backoff::new(&cfg, 3);
        let mut b = Backoff::new(&cfg, 3);
        let mut other_thread = Backoff::new(&cfg, 4);
        let (mut ca, mut cb, mut cc) = (0u64, 0u64, 0u64);
        for attempt in 0..20 {
            let before = ca;
            a.pause(attempt, &mut ca);
            b.pause(attempt, &mut cb);
            other_thread.pause(attempt, &mut cc);
            let spins = (ca - before) / cost::BACKOFF_SPIN;
            assert!(spins <= u64::from(cfg.max_spins));
            assert!(spins >= 1);
        }
        assert_eq!(ca, cb, "same seed and tid must charge identical waits");
        assert_ne!(ca, cc, "different tids must draw different jitter");
    }

    #[test]
    fn disabled_backoff_charges_nothing() {
        let cfg = BackoffConfig { enabled: false, ..BackoffConfig::default() };
        let mut b = Backoff::new(&cfg, 0);
        let mut cycles = 0;
        for attempt in 0..10 {
            b.pause(attempt, &mut cycles);
        }
        assert_eq!(cycles, 0);
        assert_eq!(b.spins_waited(), 0);
    }

    #[test]
    fn backoff_telemetry_tracks_waits_and_recapping_preserves_the_draw_sequence() {
        let cfg = BackoffConfig::default();
        let mut capped = Backoff::new(&cfg, 7);
        let mut reference = Backoff::new(&cfg, 7);
        let (mut cc, mut cr) = (0u64, 0u64);
        capped.set_max_spins(cfg.min_spins); // tightest window the policy can publish
        assert_eq!(capped.max_spins(), cfg.min_spins);
        capped.set_max_spins(0);
        assert_eq!(capped.max_spins(), cfg.min_spins, "cap never drops below min_spins");
        for attempt in 0..12 {
            capped.pause(attempt, &mut cc);
            reference.pause(attempt, &mut cr);
            assert!(cc <= cr, "a tighter cap never waits longer");
        }
        assert_eq!(capped.spins_waited() * cost::BACKOFF_SPIN, cc);
        assert!(cc < cr, "the tight cap actually bit");
        // Re-capping only clamps the window; the PRNG state advances
        // identically, so widening back re-synchronizes future draws.
        capped.set_max_spins(cfg.max_spins);
        let (mut tail_c, mut tail_r) = (0u64, 0u64);
        for attempt in 0..4 {
            capped.pause(attempt, &mut tail_c);
            reference.pause(attempt, &mut tail_r);
        }
        assert_eq!(tail_c, tail_r);
        capped.note_lane_cas_failure();
        capped.note_lane_cas_failure();
        assert_eq!(capped.lane_cas_failures(), 2);
    }

    // ---- property: LogMap ≡ naive Vec reference model -------------------

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The obviously-correct model: a Vec scanned linearly, entries in
    /// first-insert order, updates in place.
    #[derive(Default)]
    struct NaiveMap {
        entries: Vec<(u64, u64)>,
    }

    impl NaiveMap {
        fn insert(&mut self, key: u64, value: u64) -> bool {
            if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                e.1 = value;
                return false;
            }
            self.entries.push((key, value));
            true
        }

        fn get(&self, key: u64) -> Option<u64> {
            self.entries.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
        }
    }

    /// One random session: a few attempts (separated by `clear`) of mixed
    /// inserts and lookups, checked op-for-op against the model.
    ///
    /// Key distributions are chosen to hit the interesting structure:
    /// a small pool forces duplicate inserts and bloom-saturating
    /// lookups; strided keys collide in the probe table; sequence
    /// lengths are drawn around [`SMALL_MAX`] and the load-factor
    /// rebuild boundary so sessions cross both growth transitions (and
    /// some stay entirely on the small-path side).
    fn check_map_against_model(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut map = LogMap::default();
        let attempts = rng.gen_range(1..4);
        for _ in 0..attempts {
            let mut model = NaiveMap::default();
            // Around the small→indexed threshold and the ≤1/2 load
            // rebuild point (index starts at 4× entries, so ~2×SMALL_MAX
            // inserts force at least one rebuild).
            let ops = rng.gen_range(0..(SMALL_MAX * 6));
            let stride = [1, 3, 0x1_0001, 1 << 32, FIB][rng.gen_range(0..5)];
            let pool = rng.gen_range(1..(SMALL_MAX as u64 * 3));
            for _ in 0..ops {
                let key = 1 + rng.gen_range(0..pool).wrapping_mul(stride);
                if rng.gen_range(0u32..3) == 0 {
                    assert_eq!(map.get(key), model.get(key), "get({key:#x}) diverged");
                } else {
                    let value = rng.gen_range(0..1_000_000);
                    assert_eq!(
                        map.insert(key, value),
                        model.insert(key, value),
                        "insert({key:#x}) newness diverged"
                    );
                }
                // Absent keys (mostly) — the bloom/probe miss path.
                let probe = rng.gen_range(0..u64::MAX);
                assert_eq!(map.get(probe), model.get(probe), "miss probe diverged");
            }
            assert_eq!(map.len(), model.entries.len());
            let got: Vec<_> = map.iter().copied().collect();
            assert_eq!(got, model.entries, "iteration order or values diverged");
            map.clear();
        }
    }

    const TXLOG_REGRESSIONS: &str =
        include_str!("../../../proptest-regressions/proptest_txlog.txt");

    #[test]
    fn log_map_matches_naive_model() {
        let recorded = TXLOG_REGRESSIONS
            .lines()
            .filter_map(|l| l.trim().strip_prefix("seed = "))
            .map(|s| {
                u64::from_str_radix(s.trim().trim_start_matches("0x"), 16)
                    .expect("bad regression seed")
            });
        let fresh = (0..400u64).map(|i| FIB.wrapping_mul(i + 1));
        for seed in recorded.chain(fresh) {
            if let Err(payload) =
                std::panic::catch_unwind(|| check_map_against_model(seed))
            {
                eprintln!("log_map_matches_naive_model failed; replay with seed {seed:#x}");
                std::panic::resume_unwind(payload);
            }
        }
    }
}
