//! The commit-clock abstraction of the NOrec family: the classic single
//! clock word, or `C` cache-line-padded per-core sequence lanes plus a
//! small aggregate epoch (DESIGN.md §11).
//!
//! Every software commit in NOrec, Hybrid NOrec and RH NOrec serializes
//! through one global clock word, so under write pressure that one cache
//! line ping-pongs between every core — the shared-metadata tax the HyTM
//! lower-bound papers identify. The sharded scheme splits the version
//! space across lanes:
//!
//! * **Lanes** are monotonic sequence counters (`+2` per commit, no lock
//!   bit). A writer bumps only its *home lane* (`tid % shards`), so two
//!   hardware fast paths committing on different cores no longer conflict
//!   on clock metadata at all.
//! * **The epoch** is a single-word mutex over the software write phase
//!   (CAS `0 → 1` to enter, store `0` to leave). NOrec has no per-location
//!   metadata, so in-place software writes need global exclusivity — the
//!   epoch provides exactly what the single clock's lock bit provided,
//!   on its own cache line.
//! * **Readers** snapshot the full lane vector under a quiescent epoch
//!   and validate that no lane moved (and the epoch is still clear). Any
//!   commit anywhere invalidates every in-flight reader, which is also
//!   the privatization argument: a committed unlink is visible to every
//!   straggler before its next read or write-phase entry.
//!
//! With `shards == 1` every method reduces to exactly the pre-sharding
//! protocol — same heap operations in the same order, lock bit in the
//! clock word, no epoch — so the default configuration is bit-for-bit
//! today's behavior.
//!
//! ## Adaptive active-lane count (DESIGN.md §14)
//!
//! The one online controller besides the paper's §2.4 prefix lives here,
//! next to the word it rules. With [`PolicyConfig::enabled`] and more
//! than one shard, an extra padded heap word `lane_ctl` holds the number
//! of *active* lanes (`1..=shards`). Writers home on `tid % active` and
//! validation compares only the active prefix, so shrinking to one lane
//! recovers the single clock's per-read cost while keeping the sharded
//! layout. [`LaneController`] decides the count from per-thread commit
//! telemetry at epoch boundaries; re-homing is published only through
//! [`ClockScheme::publish_active_lanes`], which runs under the
//! write-phase epoch and bumps lane 0 before releasing — the **epoch
//! fence**. Readers load the lane vector *before* `lane_ctl` (and the
//! fence stores `lane_ctl` before bumping lane 0), so a snapshot that
//! ever validates after the fence must have seen the fresh lane 0, hence
//! the fresh `lane_ctl`; every torn interleaving self-invalidates on the
//! bumped lane 0 or the held epoch. Without the controller `lane_ctl` is
//! `Addr::NULL`, no path touches it, and behavior is bit-for-bit the
//! static scheme.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sim_htm::{AbortCode, HtmThread};
use sim_mem::{Addr, Heap};

use crate::algorithms::common::xabort;
use crate::cost;
use crate::globals::clock;
use crate::txlog::Backoff;

/// Upper bound on the `clock_shards` configuration knob. Lanes live in a
/// fixed array so [`crate::Globals`] stays `Copy`.
pub const MAX_CLOCK_SHARDS: usize = 8;

/// Heap layout and protocol of the commit clock: one lock-bit word
/// (`shards == 1`) or a lane vector plus a write-phase epoch.
#[derive(Clone, Copy, Debug)]
pub struct ClockScheme {
    /// Lane addresses; `lanes[0]` doubles as the single clock word.
    lanes: [Addr; MAX_CLOCK_SHARDS],
    shards: u32,
    /// Write-phase mutex (sharded only; `Addr::NULL` when `shards == 1`).
    epoch: Addr,
    /// Active-lane count word (lane controller only, `Addr::NULL`
    /// otherwise). Writers home on `tid % active`; changes go through
    /// the epoch fence of [`Self::publish_active_lanes`].
    lane_ctl: Addr,
    /// MUTANT (`Mutant::StaleLane`): skip revalidating the last lane.
    #[cfg(feature = "mutants")]
    stale_lane: bool,
}

/// A transaction's begin-time view of the clock: the single word's value,
/// or the full lane vector. Validation compares the live clock against
/// this; equality means no one committed since the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ClockSnapshot {
    pub(crate) lanes: [u64; MAX_CLOCK_SHARDS],
    /// Active-lane count observed at begin time; validation covers
    /// `lanes[..active]` and writers home on `tid % active`. Equal to
    /// `shards` whenever lane adaptation is off.
    pub(crate) active: u32,
}

impl ClockSnapshot {
    /// A single-clock snapshot holding `word` in lane 0.
    pub(crate) fn single(word: u64) -> Self {
        let mut lanes = [0u64; MAX_CLOCK_SHARDS];
        lanes[0] = word;
        ClockSnapshot { lanes, active: 1 }
    }

    /// The single clock word's value (lane 0).
    #[cfg(test)]
    pub(crate) fn word(&self) -> u64 {
        self.lanes[0]
    }
}

impl ClockScheme {
    pub(crate) fn new(
        lanes: [Addr; MAX_CLOCK_SHARDS],
        shards: u32,
        epoch: Addr,
        lane_ctl: Addr,
    ) -> Self {
        debug_assert!(shards >= 1 && shards as usize <= MAX_CLOCK_SHARDS);
        debug_assert_eq!(shards == 1, epoch.is_null(), "epoch iff sharded");
        debug_assert!(lane_ctl.is_null() || shards > 1, "lane_ctl iff sharded");
        ClockScheme {
            lanes,
            shards,
            epoch,
            lane_ctl,
            #[cfg(feature = "mutants")]
            stale_lane: false,
        }
    }

    /// Number of sequence lanes (1 = the classic single clock word).
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Heap address of lane `i`; lane 0 is the single clock word when
    /// `shards == 1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shards`.
    pub fn lane(&self, i: usize) -> Addr {
        assert!(i < self.shards as usize, "lane {i} out of range (shards = {})", self.shards);
        self.lanes[i]
    }

    /// Heap address of the write-phase epoch, `None` for the single clock
    /// (whose lock bit plays the epoch's role).
    pub fn epoch_addr(&self) -> Option<Addr> {
        if self.shards == 1 {
            None
        } else {
            Some(self.epoch)
        }
    }

    /// The lane writer `tid` bumps at commit (ignoring lane adaptation;
    /// the adaptive paths home on `tid % snapshot.active` instead).
    #[inline]
    pub fn home_lane(&self, tid: usize) -> usize {
        tid % self.shards as usize
    }

    /// Heap address of the active-lane count word, `None` when lane
    /// adaptation is off (diagnostics and the globals layout audit).
    pub fn lane_ctl_addr(&self) -> Option<Addr> {
        if self.lane_ctl.is_null() {
            None
        } else {
            Some(self.lane_ctl)
        }
    }

    /// The number of lanes `snap` covers, clamped to a sane range even
    /// if the snapshot predates construction (test convenience).
    #[inline]
    fn live_lanes(&self, snap: &ClockSnapshot) -> usize {
        (snap.active.clamp(1, self.shards)) as usize
    }

    /// The current active-lane count (diagnostics and the controller;
    /// `shards` when lane adaptation is off).
    pub fn active_lanes(&self, heap: &Heap) -> u32 {
        if self.lane_ctl.is_null() {
            self.shards
        } else {
            heap.load(self.lane_ctl) as u32
        }
    }

    /// Modeled cycles of one full software validation against `snap`:
    /// each active lane past the first costs one
    /// [`cost::LANE_VALIDATE`] compare. Zero for the single clock (and
    /// for one active lane), whose probe *is* the validation.
    #[inline]
    pub(crate) fn validate_cost(&self, snap: &ClockSnapshot) -> u64 {
        if self.shards == 1 {
            return 0;
        }
        u64::from(snap.active.saturating_sub(1)) * cost::LANE_VALIDATE
    }

    /// Publishes a new active-lane count through the **epoch fence**
    /// (lane controller only): acquire the write-phase epoch,
    /// store the new count, bump lane 0, release. The order is the
    /// safety argument — `lane_ctl` before the lane-0 bump, paired with
    /// readers loading lanes before `lane_ctl` — so fresh lanes imply a
    /// fresh active count and every stale snapshot fails validation on
    /// the bumped lane 0 (lane 0 is in every snapshot's active prefix).
    ///
    /// `fenced: false` is the `policy_stale_epoch` mutant: a raw store
    /// with no fence, leaving stale-homed writers invisible to fresh
    /// readers — the opacity checker's job to catch.
    pub(crate) fn publish_active_lanes(&self, heap: &Heap, new_active: u32, fenced: bool) {
        debug_assert!(!self.lane_ctl.is_null());
        debug_assert!(new_active >= 1 && new_active <= self.shards);
        if !fenced {
            // MUTANT (`Mutant::PolicyStaleEpoch`): no epoch, no bump — a
            // raw racy store. The yield models the store landing at an
            // arbitrary scheduler point (the fenced path's CAS loop
            // yields the same way), so in-flight snapshots taken under
            // the old lane count can legitimately interleave around it.
            sim_htm::sched::yield_point();
            heap.store(self.lane_ctl, u64::from(new_active));
            return;
        }
        loop {
            sim_htm::sched::yield_point();
            if heap.compare_exchange(self.epoch, 0, 1).is_ok() {
                break;
            }
        }
        heap.store(self.lane_ctl, u64::from(new_active));
        let lane0 = self.lanes[0];
        heap.store(lane0, heap.load(lane0) + 2);
        heap.store(self.epoch, 0);
    }

    /// Arms the `Mutant::StaleLane` mutation on this copy of the scheme:
    /// validation skips the last lane, so commits homed there go unseen.
    #[cfg(feature = "mutants")]
    pub(crate) fn set_stale_lane(&mut self, on: bool) {
        self.stale_lane = on;
    }

    /// The lane index validation skips (out of range = none).
    #[inline]
    fn skip_lane(&self) -> usize {
        #[cfg(feature = "mutants")]
        if self.stale_lane && self.shards > 1 {
            // MUTANT: the last lane's bumps are never revalidated.
            return self.shards as usize - 1;
        }
        MAX_CLOCK_SHARDS
    }

    /// Waits for a quiescent clock and snapshots it, charging the
    /// waiter's spin cycles. Contended waits back off between probes so
    /// the write-phase holder's release is not met by a thundering herd.
    ///
    /// The uncontended probe is the first instruction of every
    /// NOrec-family transaction, so it stays inline; the contended spin
    /// is kept out of line to keep the hot path small.
    /// [`Self::begin_into`] returning a fresh snapshot (test convenience;
    /// the engines reuse a slot across attempts).
    #[cfg(test)]
    pub(crate) fn begin(&self, heap: &Heap, cycles: &mut u64, backoff: &mut Backoff) -> ClockSnapshot {
        let mut snap = ClockSnapshot::single(0);
        self.begin_into(heap, cycles, backoff, &mut snap);
        snap
    }

    /// [`Self::begin`] into a caller-owned slot, writing only the live
    /// lanes. The retry loops keep one snapshot slot alive across
    /// attempts, so a restart re-reads one word (single clock) or
    /// `shards` words instead of constructing and copying the full
    /// cache-line-wide vector — under contention that per-attempt copy
    /// is measurable on the `contended` benchmark cells.
    #[inline]
    pub(crate) fn begin_into(
        &self,
        heap: &Heap,
        cycles: &mut u64,
        backoff: &mut Backoff,
        snap: &mut ClockSnapshot,
    ) {
        // Yield before each probe (not only when locked): the lock holder
        // may be descheduled, and under the deterministic scheduler it can
        // only run again if the spinner passes a yield point.
        sim_htm::sched::yield_point();
        if self.shards == 1 {
            let v = heap.load(self.lanes[0]);
            if !clock::is_locked(v) {
                snap.lanes[0] = v;
                return;
            }
        } else if heap.load(self.epoch) == 0 {
            self.snapshot_lanes(heap, snap);
            return;
        }
        self.begin_contended(heap, cycles, backoff, snap)
    }

    #[cold]
    fn begin_contended(
        &self,
        heap: &Heap,
        cycles: &mut u64,
        backoff: &mut Backoff,
        snap: &mut ClockSnapshot,
    ) {
        let mut attempt = 0;
        loop {
            *cycles += cost::SPIN_ITER;
            backoff.pause(attempt, cycles);
            attempt += 1;
            sim_htm::sched::yield_point();
            if self.shards == 1 {
                let v = heap.load(self.lanes[0]);
                if !clock::is_locked(v) {
                    snap.lanes[0] = v;
                    return;
                }
            } else if heap.load(self.epoch) == 0 {
                self.snapshot_lanes(heap, snap);
                return;
            }
        }
    }

    /// Reads every live lane. A snapshot torn by a concurrent write phase
    /// is safe: the data writes that could make it dangerous land only
    /// under the epoch, and validation re-checks the epoch *and* every
    /// lane — any overlap with a write phase, or any completed commit
    /// after a lane was read, fails the next [`Self::is_valid`].
    ///
    /// `lane_ctl` is loaded **after** the lane vector, pairing with the
    /// fence's ctl-store-then-lane-0-bump: a snapshot whose lane 0 is
    /// fresh carries a fresh active count, and one whose active count is
    /// stale can never validate past the fence (lane 0 moved).
    fn snapshot_lanes(&self, heap: &Heap, snap: &mut ClockSnapshot) {
        for (slot, addr) in snap
            .lanes
            .iter_mut()
            .zip(&self.lanes)
            .take(self.shards as usize)
        {
            *slot = heap.load(*addr);
        }
        snap.active = if self.lane_ctl.is_null() {
            self.shards
        } else {
            heap.load(self.lane_ctl) as u32
        };
    }

    /// The per-read validation probe: one heap word plus the value that
    /// proves the snapshot still valid. Single clock: the clock word and
    /// its snapshot value, so the NOrec per-read check stays the one
    /// load-and-compare it has always been. Sharded: validity can never
    /// be proven by one word (a hardware commit moves only its home
    /// lane), so the probe pairs the epoch with a value it never holds —
    /// every probe misses and the caller falls through to the full
    /// [`Self::is_valid`] lane compare.
    #[inline]
    pub(crate) fn read_probe(&self, snap: &ClockSnapshot) -> (Addr, u64) {
        if self.shards == 1 {
            (self.lanes[0], snap.lanes[0])
        } else {
            (self.epoch, u64::MAX)
        }
    }

    /// Whether a [`Self::read_probe`] miss alone proves the snapshot
    /// invalid. True for the single clock — the probe *is* the clock
    /// word, so re-checking after a miss would repeat the same compare.
    /// False for the sharded clock, whose probe misses by design and
    /// decides nothing.
    #[inline]
    pub(crate) fn probe_conclusive(&self) -> bool {
        self.shards == 1
    }

    /// Whether no commit has published since `snap` (and no write phase
    /// is in flight). The NOrec per-read validation check.
    #[inline]
    pub(crate) fn is_valid(&self, heap: &Heap, snap: &ClockSnapshot) -> bool {
        if self.shards == 1 {
            return heap.load(self.lanes[0]) == snap.lanes[0];
        }
        if heap.load(self.epoch) != 0 {
            return false;
        }
        self.lanes_match(heap, snap)
    }

    fn lanes_match(&self, heap: &Heap, snap: &ClockSnapshot) -> bool {
        let skip = self.skip_lane();
        // Only the active prefix is compared. Safe because lane counts
        // change only through the epoch fence: any snapshot that
        // validates after a fence saw the fence's lane-0 bump, hence the
        // current active count, and no writer publishes outside it.
        for i in 0..self.live_lanes(snap) {
            if i == skip {
                continue;
            }
            if heap.load(self.lanes[i]) != snap.lanes[i] {
                return false;
            }
        }
        true
    }

    /// Opens the software write phase at the snapshot — the final
    /// conflict check, failing iff anyone committed since `snap` was
    /// last validated. On success the single clock holds its locked
    /// value (mirrored into `snap`) or the epoch is held; the caller
    /// must [`Self::publish`] or [`Self::release_without_publish`].
    pub(crate) fn try_enter_write_phase(&self, heap: &Heap, snap: &mut ClockSnapshot) -> bool {
        if self.shards == 1 {
            let v = snap.lanes[0];
            if heap
                .compare_exchange(self.lanes[0], v, clock::set_lock_bit(v))
                .is_err()
            {
                return false;
            }
            snap.lanes[0] = clock::set_lock_bit(v);
            return true;
        }
        if heap.compare_exchange(self.epoch, 0, 1).is_err() {
            return false;
        }
        // The epoch is ours, but a commit that published since the
        // snapshot still invalidates this attempt.
        if !self.lanes_match(heap, snap) {
            heap.store(self.epoch, 0);
            return false;
        }
        true
    }

    /// MUTANT (`Mutant::PostfixClock`): enter the write phase from the
    /// *current* clock instead of the validated snapshot — reads taken
    /// before an intervening commit survive into the write phase.
    #[cfg(feature = "mutants")]
    pub(crate) fn force_enter_write_phase(&self, heap: &Heap, snap: &mut ClockSnapshot) -> bool {
        if self.shards == 1 {
            let now = heap.load(self.lanes[0]);
            if clock::is_locked(now) {
                return false;
            }
            heap.store(self.lanes[0], clock::set_lock_bit(now));
            snap.lanes[0] = clock::set_lock_bit(now);
            return true;
        }
        if heap.compare_exchange(self.epoch, 0, 1).is_err() {
            return false;
        }
        self.snapshot_lanes(heap, snap);
        true
    }

    /// Publishes a software writer's commit: bump the version and close
    /// the write phase. Single clock: one store of the next version (the
    /// lock release doubles as the bump). Sharded: bump the home lane,
    /// then release the epoch — in that order, so a reader that sees a
    /// clear epoch also sees the bumped lane.
    pub(crate) fn publish(&self, heap: &Heap, snap: &ClockSnapshot, tid: usize) {
        if self.shards == 1 {
            heap.store(self.lanes[0], clock::next_version(snap.lanes[0]));
            return;
        }
        let home = tid % self.live_lanes(snap);
        let lane = self.lanes[home];
        heap.store(lane, heap.load(lane) + 2);
        heap.store(self.epoch, 0);
    }

    /// Closes the write phase without publishing (the postfix died, or a
    /// teardown): nothing landed, so the version must not move.
    pub(crate) fn release_without_publish(&self, heap: &Heap, snap: &ClockSnapshot) {
        if self.shards == 1 {
            heap.store(self.lanes[0], clock::clear_lock_bit(snap.lanes[0]));
            return;
        }
        heap.store(self.epoch, 0);
    }

    /// Hybrid NOrec's start-time subscription: pull the whole clock into
    /// the hardware tracking set, aborting if a write phase is in flight.
    /// Sharded, this subscribes *every* lane — Hybrid NOrec's defining
    /// false-abort cost is preserved per lane, which is exactly what the
    /// ablation against RH NOrec measures.
    pub(crate) fn htm_subscribe(&self, htm: &mut HtmThread) -> Result<(), AbortCode> {
        if self.shards == 1 {
            return match htm.read(self.lanes[0]) {
                Ok(v) if !clock::is_locked(v) => Ok(()),
                Ok(_) => Err(htm.abort(xabort::CLOCK_LOCKED).code),
                Err(e) => Err(e.code),
            };
        }
        match htm.read(self.epoch) {
            Ok(0) => {}
            Ok(_) => return Err(htm.abort(xabort::CLOCK_LOCKED).code),
            Err(e) => return Err(e.code),
        }
        for lane in &self.lanes[..self.shards as usize] {
            if let Err(e) = htm.read(*lane) {
                return Err(e.code);
            }
        }
        Ok(())
    }

    /// The writer fast path's commit-time bump: read-check-bump inside
    /// the hardware transaction. Sharded, only the home lane enters the
    /// tracking set — disjoint fast-path writers no longer conflict on
    /// clock metadata, the scheme's core win.
    pub(crate) fn htm_commit_bump(&self, htm: &mut HtmThread, tid: usize) -> Result<(), AbortCode> {
        if self.shards == 1 {
            let clk = match htm.read(self.lanes[0]) {
                Ok(v) => v,
                Err(e) => return Err(e.code),
            };
            if clock::is_locked(clk) {
                return Err(htm.abort(xabort::CLOCK_LOCKED).code);
            }
            return match htm.write(self.lanes[0], clk + 2) {
                Ok(()) => Ok(()),
                Err(e) => Err(e.code),
            };
        }
        match htm.read(self.epoch) {
            Ok(0) => {}
            Ok(_) => return Err(htm.abort(xabort::CLOCK_LOCKED).code),
            Err(e) => return Err(e.code),
        }
        // Under lane adaptation the active count joins the tracking set,
        // so a concurrent fence (which rewrites `lane_ctl` under the
        // epoch) conflict-aborts this commit — the HTM is its own fence.
        let active = if self.lane_ctl.is_null() {
            u64::from(self.shards)
        } else {
            match htm.read(self.lane_ctl) {
                Ok(v) => v.clamp(1, u64::from(self.shards)),
                Err(e) => return Err(e.code),
            }
        };
        let lane = self.lanes[tid % active as usize];
        let v = match htm.read(lane) {
            Ok(v) => v,
            Err(e) => return Err(e.code),
        };
        match htm.write(lane, v + 2) {
            Ok(()) => Ok(()),
            Err(e) => Err(e.code),
        }
    }

    /// Snapshots the clock transactionally (the RH NOrec prefix commit):
    /// the HTM validates the snapshot together with every prefix read,
    /// aborting if a write phase is in flight.
    pub(crate) fn htm_snapshot(&self, htm: &mut HtmThread) -> Result<ClockSnapshot, AbortCode> {
        if self.shards == 1 {
            let tv = match htm.read(self.lanes[0]) {
                Ok(v) => v,
                Err(e) => return Err(e.code),
            };
            if clock::is_locked(tv) {
                return Err(htm.abort(xabort::CLOCK_LOCKED).code);
            }
            return Ok(ClockSnapshot::single(tv));
        }
        match htm.read(self.epoch) {
            Ok(0) => {}
            Ok(_) => return Err(htm.abort(xabort::CLOCK_LOCKED).code),
            Err(e) => return Err(e.code),
        }
        let mut lanes = [0u64; MAX_CLOCK_SHARDS];
        for (slot, addr) in lanes.iter_mut().zip(&self.lanes).take(self.shards as usize) {
            *slot = match htm.read(*addr) {
                Ok(v) => v,
                Err(e) => return Err(e.code),
            };
        }
        let active = if self.lane_ctl.is_null() {
            self.shards
        } else {
            // Transactional read: atomic with the lane reads above, and
            // keeps the count in the tracking set against a racing fence.
            match htm.read(self.lane_ctl) {
                Ok(v) => (v as u32).clamp(1, self.shards),
                Err(e) => return Err(e.code),
            }
        };
        Ok(ClockSnapshot { lanes, active })
    }

    /// The postfix writer's version bump, *inside* the short postfix
    /// hardware transaction (sharded only): the lane store commits
    /// atomically with the buffered data writes, so the bump and the
    /// data publication are one event. The single clock is a no-op here —
    /// its bump happens after `htm.commit` via
    /// [`Self::finish_postfix_publish`], under the lock taken at first
    /// write, preserving the pre-sharding order exactly.
    /// The postfix writer homes on `snap.active` (stable here: the
    /// caller holds the write-phase epoch, which blocks any fence).
    pub(crate) fn htm_postfix_bump(
        &self,
        htm: &mut HtmThread,
        tid: usize,
        snap: &ClockSnapshot,
    ) -> Result<(), AbortCode> {
        if self.shards == 1 {
            return Ok(());
        }
        let lane = self.lanes[tid % self.live_lanes(snap)];
        let v = match htm.read(lane) {
            Ok(v) => v,
            Err(e) => return Err(e.code),
        };
        match htm.write(lane, v + 2) {
            Ok(()) => Ok(()),
            Err(e) => Err(e.code),
        }
    }

    /// Completes a postfix publication after its HTM commit: the single
    /// clock publishes its next version; sharded lanes only release the
    /// epoch (the lane already bumped inside the hardware transaction).
    pub(crate) fn finish_postfix_publish(&self, heap: &Heap, snap: &ClockSnapshot) {
        if self.shards == 1 {
            heap.store(self.lanes[0], clock::next_version(snap.lanes[0]));
            return;
        }
        heap.store(self.epoch, 0);
    }

    /// Total versions published across every lane (white-box tests and
    /// diagnostics): the sum of unlocked lane values, in version units
    /// of 2.
    pub fn total_version(&self, heap: &Heap) -> u64 {
        (0..self.shards as usize)
            .map(|i| clock::clear_lock_bit(heap.load(self.lanes[i])))
            .sum()
    }
}

/// Configuration of the active-lane controller, carried by the validated
/// [`TmConfig`](crate::TmConfig) builder. Disabled by default: a runtime
/// built without it allocates no controller state and executes
/// bit-for-bit the static engine. The controller can act only on a
/// sharded clock, so at `clock_shards = 1` enabling it changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Master switch; `false` (default) compiles the controller down to
    /// one never-taken branch per commit.
    pub enabled: bool,
    /// Per-thread commits between controller epochs: a thread whose
    /// commit count crosses a multiple of this offers to tick the
    /// controller. Must be nonzero when `enabled` (builder-validated).
    pub epoch_commits: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig { enabled: false, epoch_commits: 64 }
    }
}

impl PolicyConfig {
    /// The controller on, with an epoch every 64 commits per thread.
    pub fn adaptive() -> Self {
        PolicyConfig { enabled: true, ..PolicyConfig::default() }
    }
}

/// One thread's padded telemetry block. Each field is a *running total*
/// the owner refreshes with relaxed stores after every commit; the
/// controller reads whole slots only at epoch boundaries and computes
/// window deltas itself, so the commit path performs no shared
/// read-modify-write at all.
///
/// `align(128)` keeps each slot on its own pair of 64-byte lines
/// (adjacent-line prefetchers pull two), so two threads recording
/// concurrently never touch the same cache line — the same false-sharing
/// discipline as the clock lanes, asserted by the layout test below.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct PolicySlot {
    commits: AtomicU64,
    hw_commits: AtomicU64,
    conflict_aborts: AtomicU64,
    lane_cas_failures: AtomicU64,
}

/// A snapshot of one thread's running totals, written by the owner after
/// each commit (see [`LaneController::record`]). Also the controller's
/// aggregate over every slot, and the per-epoch delta between two
/// aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SlotSample {
    /// Transactions committed (any path).
    pub(crate) commits: u64,
    /// Transactions that committed in hardware: fast path or postfix. A
    /// prefix commit does not count — it ends only the hardware read
    /// prefix, and the transaction commits later on another path.
    pub(crate) hw_commits: u64,
    /// Conflict-flavored failures: HTM conflict aborts plus software
    /// slow-path restarts — the controller's contention signal.
    pub(crate) conflict_aborts: u64,
    /// Clock write-phase CAS losses noted by the engines.
    pub(crate) lane_cas_failures: u64,
}

impl SlotSample {
    fn add_slot(&mut self, slot: &PolicySlot) {
        self.commits += slot.commits.load(Ordering::Relaxed);
        self.hw_commits += slot.hw_commits.load(Ordering::Relaxed);
        self.conflict_aborts += slot.conflict_aborts.load(Ordering::Relaxed);
        self.lane_cas_failures += slot.lane_cas_failures.load(Ordering::Relaxed);
    }

    /// Saturating per-window delta. Saturation (rather than wrap) makes a
    /// `reset_stats` between epochs a one-window blind spot instead of a
    /// garbage rate.
    fn delta(&self, prev: &SlotSample) -> SlotSample {
        SlotSample {
            commits: self.commits.saturating_sub(prev.commits),
            hw_commits: self.hw_commits.saturating_sub(prev.hw_commits),
            conflict_aborts: self.conflict_aborts.saturating_sub(prev.conflict_aborts),
            lane_cas_failures: self.lane_cas_failures.saturating_sub(prev.lane_cas_failures),
        }
    }
}

/// The active-lane controller of one runtime: per-thread telemetry slots
/// and the tick gate. Allocated only when the controller can act
/// ([`PolicyConfig::enabled`] and `clock_shards > 1`).
///
/// Threads *record* into their own padded [`PolicySlot`] with relaxed
/// stores; the controller *aggregates* only at epoch boundaries, behind a
/// `try_lock` gate so at most one thread pays the aggregation and nobody
/// ever waits. Everything is preallocated at runtime construction;
/// recording and ticking allocate nothing. Under the deterministic
/// scheduler the controller is a pure function of the schedule: ticks
/// trigger on per-thread commit counts, the gate is uncontended (one
/// runnable thread at a time), and no wall clock is consulted.
#[derive(Debug)]
pub(crate) struct LaneController {
    /// One padded slot per possible thread id, preallocated.
    slots: Vec<PolicySlot>,
    /// Tick mutual exclusion, guarding the aggregate totals of the
    /// previous epoch boundary. `try_lock` only: a thread that loses the
    /// race simply skips the tick.
    gate: Mutex<SlotSample>,
}

impl LaneController {
    pub(crate) fn new() -> LaneController {
        LaneController {
            slots: (0..sim_mem::MAX_THREADS).map(|_| PolicySlot::default()).collect(),
            gate: Mutex::new(SlotSample::default()),
        }
    }

    /// Refreshes thread `tid`'s running totals — relaxed stores into the
    /// owner's own padded line, nothing shared touched.
    #[inline]
    pub(crate) fn record(&self, tid: usize, s: SlotSample) {
        let slot = &self.slots[tid];
        slot.commits.store(s.commits, Ordering::Relaxed);
        slot.hw_commits.store(s.hw_commits, Ordering::Relaxed);
        slot.conflict_aborts.store(s.conflict_aborts, Ordering::Relaxed);
        slot.lane_cas_failures.store(s.lane_cas_failures, Ordering::Relaxed);
    }

    /// One controller epoch: aggregate every slot, apply the lane rule to
    /// the window since the last epoch, publish a changed count through
    /// the fence. Returns without doing anything if another thread holds
    /// the gate or the window saw no commits.
    ///
    /// Lanes pay off exactly when hardware writers commit disjointly
    /// (each bump stays on its home lane); when commits are
    /// software-dominated every extra lane is pure per-read validation
    /// tax. So the rule halves the active count when the window's
    /// hardware-commit share is low, and doubles it when hardware
    /// dominates *and* the contention signals (write-phase CAS losses,
    /// conflict aborts) say commit metadata is being fought over.
    ///
    /// `unfenced_lane_publish` arms the `policy_stale_epoch` corpus
    /// mutant: the change is published as a raw store, skipping the
    /// epoch fence (the planted bug; see [`crate::mutants`]).
    pub(crate) fn maybe_tick(&self, heap: &Heap, clock: &ClockScheme, unfenced_lane_publish: bool) {
        let Ok(mut prev) = self.gate.try_lock() else { return };
        let mut totals = SlotSample::default();
        for slot in &self.slots {
            totals.add_slot(slot);
        }
        let d = totals.delta(&prev);
        if d.commits == 0 {
            return;
        }
        *prev = totals;
        let attempts = d.commits + d.conflict_aborts;
        let active = clock.active_lanes(heap);
        let hw_dominated = d.hw_commits * 2 >= d.commits;
        let sw_dominated = d.hw_commits * 4 < d.commits;
        let contended = d.lane_cas_failures > 0 || d.conflict_aborts * 8 >= attempts;
        let new_active = if sw_dominated {
            (active / 2).max(1)
        } else if hw_dominated && contended {
            (active * 2).min(clock.shards())
        } else {
            active
        };
        if new_active != active {
            clock.publish_active_lanes(heap, new_active, !unfenced_lane_publish);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::globals::Globals;
    use crate::BackoffConfig;
    use sim_mem::HeapConfig;

    fn scheme(shards: u32) -> (Heap, Globals) {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let g = Globals::allocate(&heap, shards, false);
        (heap, g)
    }

    fn backoff() -> Backoff {
        Backoff::new(&BackoffConfig::default(), 0)
    }

    #[test]
    fn single_clock_round_trip_matches_classic_protocol() {
        let (heap, g) = scheme(1);
        let mut cycles = 0;
        let mut snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(snap.word(), 0);
        assert!(g.clock.is_valid(&heap, &snap));
        assert!(g.clock.try_enter_write_phase(&heap, &mut snap));
        assert!(clock::is_locked(heap.load(g.clock.lane(0))));
        // A locked clock invalidates every other snapshot.
        assert!(!g.clock.is_valid(&heap, &ClockSnapshot::single(0)));
        g.clock.publish(&heap, &snap, 0);
        assert_eq!(heap.load(g.clock.lane(0)), 2);
        assert!(!g.clock.is_valid(&heap, &snap));
    }

    #[test]
    fn sharded_writer_bumps_only_its_home_lane() {
        let (heap, g) = scheme(4);
        let mut cycles = 0;
        for tid in [0usize, 1, 2, 5] {
            let mut snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
            assert!(g.clock.try_enter_write_phase(&heap, &mut snap));
            assert_eq!(heap.load(g.clock.epoch_addr().unwrap()), 1);
            g.clock.publish(&heap, &snap, tid);
            assert_eq!(heap.load(g.clock.epoch_addr().unwrap()), 0);
        }
        // tids 0, 1, 2 each bumped their own lane; tid 5 homed on lane 1.
        assert_eq!(heap.load(g.clock.lane(0)), 2);
        assert_eq!(heap.load(g.clock.lane(1)), 4);
        assert_eq!(heap.load(g.clock.lane(2)), 2);
        assert_eq!(heap.load(g.clock.lane(3)), 0);
        assert_eq!(g.clock.total_version(&heap), 8);
    }

    #[test]
    fn any_lane_movement_invalidates_a_sharded_snapshot() {
        let (heap, g) = scheme(4);
        let mut cycles = 0;
        let snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert!(g.clock.is_valid(&heap, &snap));
        // A commit homed on lane 3 (tid 3) must invalidate the snapshot.
        let mut writer = snap;
        assert!(g.clock.try_enter_write_phase(&heap, &mut writer));
        g.clock.publish(&heap, &writer, 3);
        assert!(!g.clock.is_valid(&heap, &snap));
        // And a later write-phase entry from the stale snapshot fails.
        let mut stale = snap;
        assert!(!g.clock.try_enter_write_phase(&heap, &mut stale));
        assert_eq!(heap.load(g.clock.epoch_addr().unwrap()), 0, "failed entry releases the epoch");
    }

    #[test]
    fn held_epoch_blocks_validation_and_entry() {
        let (heap, g) = scheme(2);
        let mut cycles = 0;
        let mut holder = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert!(g.clock.try_enter_write_phase(&heap, &mut holder));
        let reader = ClockSnapshot { lanes: holder.lanes, active: holder.active };
        assert!(!g.clock.is_valid(&heap, &reader), "held epoch fails every reader");
        let mut rival = reader;
        assert!(!g.clock.try_enter_write_phase(&heap, &mut rival));
        g.clock.release_without_publish(&heap, &holder);
        assert!(g.clock.is_valid(&heap, &reader), "release without publish moves nothing");
    }

    #[test]
    fn single_release_without_publish_restores_the_version() {
        let (heap, g) = scheme(1);
        let mut cycles = 0;
        let mut snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert!(g.clock.try_enter_write_phase(&heap, &mut snap));
        g.clock.release_without_publish(&heap, &snap);
        assert_eq!(heap.load(g.clock.lane(0)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_index_is_bounds_checked() {
        let (_heap, g) = scheme(2);
        let _ = g.clock.lane(2);
    }

    fn adaptive_scheme(shards: u32) -> (Heap, Globals) {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let g = Globals::allocate(&heap, shards, true);
        (heap, g)
    }

    #[test]
    fn snapshots_without_lane_ctl_cover_every_shard() {
        let (heap, g) = scheme(4);
        let mut cycles = 0;
        let snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(snap.active, 4);
        assert!(g.clock.lane_ctl_addr().is_none());
        assert_eq!(g.clock.active_lanes(&heap), 4);
    }

    #[test]
    fn fenced_lane_shrink_invalidates_every_old_snapshot() {
        let (heap, g) = adaptive_scheme(4);
        let mut cycles = 0;
        let old = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(old.active, 4);
        g.clock.publish_active_lanes(&heap, 1, true);
        // The fence bumped lane 0, so the pre-fence snapshot can neither
        // validate nor enter the write phase — no writer ever homes on a
        // lane fresh readers stopped watching.
        assert!(!g.clock.is_valid(&heap, &old));
        let mut stale = old;
        assert!(!g.clock.try_enter_write_phase(&heap, &mut stale));
        assert_eq!(heap.load(g.clock.epoch_addr().unwrap()), 0);
        // Fresh snapshots carry the new count and all agree.
        let fresh = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(fresh.active, 1);
        assert!(g.clock.is_valid(&heap, &fresh));
    }

    #[test]
    fn shrunk_clock_homes_every_writer_on_the_active_prefix() {
        let (heap, g) = adaptive_scheme(4);
        g.clock.publish_active_lanes(&heap, 2, true);
        let mut cycles = 0;
        for tid in [0usize, 1, 2, 3, 5] {
            let mut snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
            assert_eq!(snap.active, 2);
            assert!(g.clock.try_enter_write_phase(&heap, &mut snap));
            g.clock.publish(&heap, &snap, tid);
        }
        // tids 0/2 homed on lane 0 (plus the fence bump), 1/3/5 on lane 1;
        // lanes 2 and 3 never move while inactive.
        assert_eq!(heap.load(g.clock.lane(0)), 2 + 4);
        assert_eq!(heap.load(g.clock.lane(1)), 6);
        assert_eq!(heap.load(g.clock.lane(2)), 0);
        assert_eq!(heap.load(g.clock.lane(3)), 0);
    }

    #[test]
    fn unfenced_lane_publish_leaves_old_snapshots_valid() {
        // The planted policy_stale_epoch bug in miniature: after a raw
        // store, a stale-active snapshot still validates, so a writer it
        // carries may home outside the fresh readers' watch set.
        let (heap, g) = adaptive_scheme(2);
        let mut cycles = 0;
        let old = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(old.active, 2);
        g.clock.publish_active_lanes(&heap, 1, false);
        assert!(g.clock.is_valid(&heap, &old), "nothing invalidated the stale view");
        let fresh = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(fresh.active, 1);
        // The stale writer (tid 1, active 2) publishes on lane 1...
        let mut stale_writer = old;
        assert!(g.clock.try_enter_write_phase(&heap, &mut stale_writer));
        g.clock.publish(&heap, &stale_writer, 1);
        // ...and the fresh reader, watching only lane 0, never notices.
        assert!(g.clock.is_valid(&heap, &fresh), "the hole the checker must catch end to end");
    }

    #[test]
    fn validate_cost_scales_with_active_lanes() {
        let (heap, g) = adaptive_scheme(4);
        let mut cycles = 0;
        let snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(g.clock.validate_cost(&snap), 3 * cost::LANE_VALIDATE);
        g.clock.publish_active_lanes(&heap, 1, true);
        let snap = g.clock.begin(&heap, &mut cycles, &mut backoff());
        assert_eq!(g.clock.validate_cost(&snap), 0, "one active lane costs like the single clock");
        let (heap1, g1) = scheme(1);
        let snap1 = g1.clock.begin(&heap1, &mut cycles, &mut backoff());
        assert_eq!(g1.clock.validate_cost(&snap1), 0);
    }

    fn controller_fixture() -> (Heap, Globals, LaneController) {
        let (heap, g) = adaptive_scheme(4);
        (heap, g, LaneController::new())
    }

    #[test]
    fn slots_are_padded_against_false_sharing() {
        // One slot spans exactly one 128-byte block (the adjacent-line
        // prefetch unit), so two owners' relaxed stores can never share
        // a cache line — the PolicySlot analogue of the Globals
        // false-sharing audit.
        assert_eq!(std::mem::align_of::<PolicySlot>(), 128);
        assert_eq!(std::mem::size_of::<PolicySlot>(), 128);
        let ctl = LaneController::new();
        for pair in ctl.slots.windows(2) {
            let a = &pair[0] as *const PolicySlot as usize;
            let b = &pair[1] as *const PolicySlot as usize;
            assert!(b - a >= 128, "adjacent slots closer than a prefetch block");
        }
    }

    #[test]
    fn software_dominated_windows_shrink_the_active_lanes() {
        let (heap, g, ctl) = controller_fixture();
        assert_eq!(g.clock.active_lanes(&heap), 4);
        // All commits in software, zero hardware share.
        ctl.record(0, SlotSample { commits: 64, ..SlotSample::default() });
        ctl.maybe_tick(&heap, &g.clock, false);
        assert_eq!(g.clock.active_lanes(&heap), 2, "halved on a software-only window");
        ctl.record(0, SlotSample { commits: 128, ..SlotSample::default() });
        ctl.maybe_tick(&heap, &g.clock, false);
        assert_eq!(g.clock.active_lanes(&heap), 1, "and again, floored at one lane");
        ctl.record(0, SlotSample { commits: 192, ..SlotSample::default() });
        ctl.maybe_tick(&heap, &g.clock, false);
        assert_eq!(g.clock.active_lanes(&heap), 1, "never below one");
    }

    #[test]
    fn contended_hardware_windows_grow_the_lanes_back() {
        let (heap, g, ctl) = controller_fixture();
        g.clock.publish_active_lanes(&heap, 1, true);
        ctl.record(
            0,
            SlotSample { commits: 64, hw_commits: 60, conflict_aborts: 40, lane_cas_failures: 5 },
        );
        ctl.maybe_tick(&heap, &g.clock, false);
        assert_eq!(g.clock.active_lanes(&heap), 2, "hardware-dominated + contended doubles");
        // Quiet hardware-dominated window: no growth without contention.
        ctl.record(1, SlotSample { commits: 64, hw_commits: 64, ..SlotSample::default() });
        ctl.maybe_tick(&heap, &g.clock, false);
        assert_eq!(g.clock.active_lanes(&heap), 2, "uncontended window leaves lanes alone");
    }

    #[test]
    fn empty_windows_do_not_advance_the_epoch() {
        // An empty window reads as hardware-dominated and contended
        // (0 >= 0), so without the guard a tick with no commits would
        // grow the lanes.
        let (heap, g, ctl) = controller_fixture();
        g.clock.publish_active_lanes(&heap, 1, true);
        ctl.maybe_tick(&heap, &g.clock, false);
        assert_eq!(g.clock.active_lanes(&heap), 1);
        assert_eq!(*ctl.gate.lock().unwrap(), SlotSample::default(), "window not consumed");
    }

    #[test]
    fn unfenced_publish_skips_the_epoch_fence() {
        // The policy_stale_epoch mutant's hook: the lane-count store
        // lands, but lane 0 does not move — exactly the missing
        // invalidation the opacity checker must catch end to end.
        let (heap, g, ctl) = controller_fixture();
        let lane0_before = heap.load(g.clock.lane(0));
        ctl.record(0, SlotSample { commits: 64, ..SlotSample::default() });
        ctl.maybe_tick(&heap, &g.clock, true);
        assert_eq!(g.clock.active_lanes(&heap), 2);
        assert_eq!(heap.load(g.clock.lane(0)), lane0_before, "no fence bump");
        // The fenced path does bump lane 0.
        g.clock.publish_active_lanes(&heap, 4, true);
        assert_eq!(heap.load(g.clock.lane(0)), lane0_before + 2);
    }
}
