//! Decision parity pin for the deterministic scheduler.
//!
//! The benchmark's `replay` workload judges a simulator-speed change by
//! exact counters: scheduler steps and history events per case must not
//! move. This suite pins the same contract at test time, one level
//! finer. For the benchmark's four case kinds (RH NOrec on the default
//! HTM, kv shards 2, abort injection 0.02) across eight schedule seeds,
//! the step count, the history length and an FNV-1a digest of the whole
//! decision log must equal constants recorded before the scheduler's
//! hand-off was rebuilt. Any change to `pick`, the RNG draws, the
//! decision log, or the set of yield points moves at least one of them.
//!
//! The steal kind also guards its case-sized heap: the service runner's
//! heap size must not change an address the schedule depends on.

use rh_norec::Algorithm;
use sim_htm::sched::{Decision, SchedConfig};
use sim_htm::HtmConfig;
use tm_check::harness::{run_case, CaseConfig};

const ABORT_INJECTION: f64 = 0.02;
const SEEDS: [u64; 8] = [1, 2, 3, 0x5eed, 0xdead_beef, 0x1234_5678_9abc, 977, u64::MAX / 3];

fn case(kind: &str) -> CaseConfig {
    let (algorithm, htm) = (Algorithm::RhNorec, HtmConfig::default());
    match kind {
        "scripted" => CaseConfig::contended(algorithm, htm),
        "kv" => CaseConfig::kv_transfer(algorithm, htm, 2),
        "steal" => CaseConfig::steal_service(algorithm, htm, 2),
        "batch" => CaseConfig::batch(algorithm, htm, 2),
        other => unreachable!("unknown case kind {other}"),
    }
}

/// FNV-1a over every decision's `(chosen, options)` pair.
fn digest(decisions: &[Decision]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in decisions {
        for word in [d.chosen as u64, d.options as u64] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `(kind, seed, steps, history events, decision digest)`.
type Pin = (&'static str, u64, u64, usize, u64);

const PINNED: &[Pin] = &[
    ("scripted", 0x1, 382, 181, 0x21c5f4f7da583e05),
    ("scripted", 0x2, 299, 145, 0x48c1fa32935b5566),
    ("scripted", 0x3, 361, 169, 0xd8220f8d253233a5),
    ("scripted", 0x5eed, 302, 147, 0x215e2d6d1858fbc5),
    ("scripted", 0xdeadbeef, 318, 154, 0x12e6c526e64f70a7),
    ("scripted", 0x123456789abc, 270, 131, 0x00ec208373cb95c6),
    ("scripted", 0x3d1, 285, 141, 0x9ee43b309619f705),
    ("scripted", 0x5555555555555555, 297, 144, 0x423e73141c34a566),
    ("kv", 0x1, 727, 341, 0x0de6f5a7d579bba7),
    ("kv", 0x2, 600, 293, 0xaca81f79487240e7),
    ("kv", 0x3, 612, 291, 0x1e2b418479b907c6),
    ("kv", 0x5eed, 696, 338, 0x88684717af195207),
    ("kv", 0xdeadbeef, 580, 282, 0x562cc813fa1f4d04),
    ("kv", 0x123456789abc, 712, 341, 0xea6728e5e3d3b967),
    ("kv", 0x3d1, 724, 349, 0x5194baa3f620f805),
    ("kv", 0x5555555555555555, 525, 250, 0x32b5db800124ac84),
    ("steal", 0x1, 865, 400, 0xd72e57be9a0f6ca6),
    ("steal", 0x2, 697, 326, 0x44aeacd76b2f2024),
    ("steal", 0x3, 657, 305, 0x400144cd11311224),
    ("steal", 0x5eed, 613, 293, 0x3a32adae4c2a8905),
    ("steal", 0xdeadbeef, 429, 206, 0xa6b7eb32ed48ecc6),
    ("steal", 0x123456789abc, 878, 407, 0x8856565c96d330e5),
    ("steal", 0x3d1, 792, 368, 0x6c7324e298b19a66),
    ("steal", 0x5555555555555555, 685, 313, 0x450ddc34beb96365),
    ("batch", 0x1, 550, 210, 0x2c59055b95b86845),
    ("batch", 0x2, 413, 182, 0xfa2786f9fbe429a4),
    ("batch", 0x3, 546, 197, 0x0ec3d9c314692ac5),
    ("batch", 0x5eed, 525, 213, 0xfca2ee349b9713e5),
    ("batch", 0xdeadbeef, 519, 201, 0x6848aa96a99c2b66),
    ("batch", 0x123456789abc, 595, 204, 0x4c110274e22bf025),
    ("batch", 0x3d1, 468, 195, 0xdfc1bfd9cbf21785),
    ("batch", 0x5555555555555555, 619, 209, 0x8258dd825bda9ce6),
];

fn observe(kind: &'static str, seed: u64) -> Pin {
    let sched = SchedConfig { abort_injection: ABORT_INJECTION, ..SchedConfig::from_seed(seed) };
    let report = run_case(&case(kind), &sched)
        .unwrap_or_else(|failure| panic!("{kind} case, seed {seed:#x}: {failure}"));
    (kind, seed, report.run.steps, report.history.len(), digest(&report.run.decisions))
}

#[test]
fn replay_counters_match_the_recorded_schedules() {
    let observed: Vec<Pin> = ["scripted", "kv", "steal", "batch"]
        .into_iter()
        .flat_map(|kind| SEEDS.into_iter().map(move |seed| observe(kind, seed)))
        .collect();
    let table: String = observed
        .iter()
        .map(|(kind, seed, steps, events, digest)| {
            format!("    ({kind:?}, {seed:#x}, {steps}, {events}, {digest:#018x}),\n")
        })
        .collect();
    assert!(observed == PINNED, "replayed schedules moved; observed table:\n{table}");
}
