//! The hybrid protocols' global coordination variables.
//!
//! The paper's protocols coordinate through three shared variables (§2.3)
//! plus the retry policy's serial lock (§3.3). All of them live in the
//! simulated heap — one per cache line so that subscribing to one never
//! tracks another — because the hardware fast paths must be able to read
//! and write them transactionally. The commit clock itself is a
//! [`ClockScheme`]: the classic single word by default, or per-core
//! sequence lanes plus a write-phase epoch when `clock_shards > 1`
//! (DESIGN.md §11).

use sim_mem::{Addr, Heap, LineId, WORDS_PER_LINE};

use crate::clock_shard::{ClockScheme, MAX_CLOCK_SHARDS};

/// Version-clock encoding helpers (lock bit in bit 0, version above it) —
/// the paper's `is_locked` / `set_lock_bit` / `clear_lock_bit`.
pub mod clock {
    /// Whether the clock value carries the writer lock bit.
    #[inline]
    pub const fn is_locked(value: u64) -> bool {
        value & 1 == 1
    }

    /// The clock value with the lock bit set.
    #[inline]
    pub const fn set_lock_bit(value: u64) -> u64 {
        value | 1
    }

    /// The clock value with the lock bit cleared.
    #[inline]
    pub const fn clear_lock_bit(value: u64) -> u64 {
        value & !1
    }

    /// The unlocked clock value one version later.
    #[inline]
    pub const fn next_version(value: u64) -> u64 {
        clear_lock_bit(value) + 2
    }
}

/// Diagnostic labels of the clock lanes, indexed by lane.
const LANE_NAMES: [&str; MAX_CLOCK_SHARDS] = [
    "clock_lane_0",
    "clock_lane_1",
    "clock_lane_2",
    "clock_lane_3",
    "clock_lane_4",
    "clock_lane_5",
    "clock_lane_6",
    "clock_lane_7",
];

/// Heap addresses of the protocol's global variables.
#[derive(Clone, Copy, Debug)]
pub struct Globals {
    /// The NOrec commit clock (single word or sharded sequence lanes).
    pub clock: ClockScheme,
    /// Set to abort all hardware fast paths when a mixed slow path must run
    /// its writes in software.
    pub global_htm_lock: Addr,
    /// Number of transactions currently on a software/mixed slow path.
    pub num_of_fallbacks: Addr,
    /// The starvation-avoidance serial lock (§3.3).
    pub serial_lock: Addr,
}

impl Globals {
    /// Allocates the globals, one slot per cache line, zero-initialized.
    /// `clock_shards == 1` lays out exactly the classic four slots (clock
    /// word first); `clock_shards > 1` allocates the lane vector first and
    /// the write-phase epoch last, each on its own line. `lane_ctl` adds
    /// the lane controller's active-lane word (its own line, initialized
    /// to `clock_shards` so adaptation starts from the full sharding); it
    /// is ignored for the single clock, which has nothing to adapt.
    ///
    /// # Panics
    ///
    /// Panics if `clock_shards` is outside `1..=MAX_CLOCK_SHARDS`, or if
    /// the heap cannot satisfy the line-sized allocations.
    pub fn allocate(heap: &Heap, clock_shards: u32, lane_ctl: bool) -> Globals {
        assert!(
            clock_shards >= 1 && clock_shards as usize <= MAX_CLOCK_SHARDS,
            "clock_shards must be in 1..={MAX_CLOCK_SHARDS}"
        );
        let alloc = heap.allocator();
        let slot = || {
            alloc
                .alloc(0, WORDS_PER_LINE)
                .expect("heap too small for TM globals")
        };
        let mut lanes = [Addr::NULL; MAX_CLOCK_SHARDS];
        for lane in lanes.iter_mut().take(clock_shards as usize) {
            *lane = slot();
        }
        let global_htm_lock = slot();
        let num_of_fallbacks = slot();
        let serial_lock = slot();
        let epoch = if clock_shards == 1 { Addr::NULL } else { slot() };
        let lane_ctl = if lane_ctl && clock_shards > 1 {
            let ctl = slot();
            heap.store(ctl, u64::from(clock_shards));
            ctl
        } else {
            Addr::NULL
        };
        let globals = Globals {
            clock: ClockScheme::new(lanes, clock_shards, epoch, lane_ctl),
            global_htm_lock,
            num_of_fallbacks,
            serial_lock,
        };
        debug_assert!(
            globals.false_sharing().is_empty(),
            "TM globals share a cache line: {:?}",
            globals.false_sharing()
        );
        globals
    }

    /// Every live protocol slot with a diagnostic label, in allocation
    /// order.
    pub fn slots(&self) -> Vec<(&'static str, Addr)> {
        let mut slots = Vec::with_capacity(self.clock.shards() as usize + 4);
        for (i, name) in LANE_NAMES.iter().enumerate().take(self.clock.shards() as usize) {
            slots.push((*name, self.clock.lane(i)));
        }
        slots.push(("global_htm_lock", self.global_htm_lock));
        slots.push(("num_of_fallbacks", self.num_of_fallbacks));
        slots.push(("serial_lock", self.serial_lock));
        if let Some(epoch) = self.clock.epoch_addr() {
            slots.push(("clock_epoch", epoch));
        }
        if let Some(ctl) = self.clock.lane_ctl_addr() {
            slots.push(("clock_lane_ctl", ctl));
        }
        slots
    }

    /// The false-sharing audit: every pair of protocol slots that lands on
    /// the same simulated cache line. A well-formed allocation returns an
    /// empty list — [`Globals::allocate`] asserts it, and the layout test
    /// checks it for every shard count.
    pub fn false_sharing(&self) -> Vec<(&'static str, &'static str)> {
        let slots = self.slots();
        let mut shared = Vec::new();
        for i in 0..slots.len() {
            for j in i + 1..slots.len() {
                if LineId::containing(slots[i].1) == LineId::containing(slots[j].1) {
                    shared.push((slots[i].0, slots[j].0));
                }
            }
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::HeapConfig;

    #[test]
    fn clock_encoding_round_trips() {
        let v = 42 << 1;
        assert!(!clock::is_locked(v));
        let locked = clock::set_lock_bit(v);
        assert!(clock::is_locked(locked));
        assert_eq!(clock::clear_lock_bit(locked), v);
        assert_eq!(clock::next_version(locked), v + 2);
        assert_eq!(clock::next_version(v), v + 2);
    }

    #[test]
    fn no_false_sharing_at_any_shard_count() {
        for lane_adaptation in [false, true] {
            for shards in 1..=MAX_CLOCK_SHARDS as u32 {
                let heap = Heap::new(HeapConfig { words: 1 << 12 });
                let g = Globals::allocate(&heap, shards, lane_adaptation);
                assert_eq!(
                    g.false_sharing(),
                    Vec::<(&str, &str)>::new(),
                    "globals share a cache line at clock_shards={shards}"
                );
                let ctl_slots = usize::from(lane_adaptation && shards > 1);
                let expected_slots = shards as usize + if shards == 1 { 3 } else { 4 } + ctl_slots;
                assert_eq!(g.slots().len(), expected_slots);
            }
        }
    }

    #[test]
    fn lane_ctl_is_allocated_only_for_adaptive_sharded_clocks() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        assert!(Globals::allocate(&heap, 4, false).clock.lane_ctl_addr().is_none());
        assert!(Globals::allocate(&heap, 1, true).clock.lane_ctl_addr().is_none());
        let g = Globals::allocate(&heap, 4, true);
        let ctl = g.clock.lane_ctl_addr().expect("adaptive sharded clock allocates lane_ctl");
        assert_eq!(heap.load(ctl), 4, "starts at the full sharding");
        assert_eq!(g.clock.active_lanes(&heap), 4);
    }

    #[test]
    fn single_clock_layout_has_no_epoch() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let g = Globals::allocate(&heap, 1, false);
        assert_eq!(g.clock.shards(), 1);
        assert!(g.clock.epoch_addr().is_none());
    }

    #[test]
    #[should_panic(expected = "clock_shards must be in 1..=")]
    fn zero_shards_is_rejected() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let _ = Globals::allocate(&heap, 0, false);
    }

    #[test]
    fn clock_lock_bit_round_trips_at_extremes() {
        for v in [0u64, 1, 2, u64::MAX - 1, u64::MAX] {
            let locked = clock::set_lock_bit(v);
            assert!(clock::is_locked(locked));
            assert_eq!(clock::set_lock_bit(locked), locked, "set is idempotent");
            let unlocked = clock::clear_lock_bit(v);
            assert!(!clock::is_locked(unlocked));
            assert_eq!(clock::clear_lock_bit(unlocked), unlocked, "clear is idempotent");
            assert_eq!(clock::clear_lock_bit(locked), clock::clear_lock_bit(v));
            assert_eq!(locked | unlocked, v | 1);
        }
        assert!(clock::is_locked(u64::MAX));
        assert!(!clock::is_locked(u64::MAX - 1));
    }

    #[test]
    fn next_version_near_u64_max() {
        // u64::MAX - 1 is the largest unlocked (even) clock value; the
        // largest value `next_version` accepts without overflowing is
        // therefore u64::MAX - 3 (and its locked form u64::MAX - 2).
        assert_eq!(clock::next_version(u64::MAX - 3), u64::MAX - 1);
        assert_eq!(clock::next_version(u64::MAX - 2), u64::MAX - 1);
        assert_eq!(clock::next_version(0), 2);
        assert_eq!(clock::next_version(1), 2);
    }

    #[test]
    fn freshly_allocated_globals_read_as_unlocked() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let g = Globals::allocate(&heap, 1, false);
        let word = g.clock.lane(0);
        assert!(!clock::is_locked(heap.load(word)));
        // A locked clock round-trips through the heap unharmed.
        heap.store(word, clock::set_lock_bit(heap.load(word)));
        assert!(clock::is_locked(heap.load(word)));
        heap.store(word, clock::clear_lock_bit(heap.load(word)));
        assert!(!clock::is_locked(heap.load(word)));
    }

    #[test]
    fn globals_start_zeroed() {
        for shards in [1u32, 4] {
            let heap = Heap::new(HeapConfig { words: 1 << 12 });
            let g = Globals::allocate(&heap, shards, false);
            for (name, addr) in g.slots() {
                assert_eq!(heap.load(addr), 0, "{name} not zeroed at clock_shards={shards}");
            }
        }
    }
}
