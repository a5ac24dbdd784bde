//! The controlled-build workload: seeded schedules replayed and judged
//! by `tm_check::harness::run_case`. One operation is one case.
//!
//! The deterministic scheduler and the oracles do the work here, and no
//! free-running workload touches them (their hooks are compiled out).
//! The simulated time of this layer is counted in scheduler steps: a
//! case's step and event counts are pure functions of its schedule seed,
//! so they are the check that a change meant to speed the simulator up
//! altered no simulated behaviour.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::report::{Measured, Outcome};
use crate::spans::SpanProbe;
use crate::surface::{run_case, Algorithm, CaseConfig, HtmConfig, SchedConfig, MODEL_HZ};
use crate::util;

pub const KINDS: [&str; 4] = crate::metrics::CASE_KINDS;
/// Span names of a traced case, by kind.
pub const SPANS: [&str; 4] =
    ["check.run_case.scripted", "check.run_case.kv", "check.run_case.steal", "check.run_case.batch"];
const ABORT_INJECTION: f64 = 0.02;
const SLICES: usize = 5;
const SETUPS: usize = 3;
/// Schedule seeds per second of `--seconds`; each is replayed under all
/// four case kinds.
const SEED_RATE: f64 = 32.0;

pub fn case(kind: usize) -> CaseConfig {
    let (algorithm, htm) = (Algorithm::RhNorec, HtmConfig::default());
    match kind {
        0 => CaseConfig::contended(algorithm, htm),
        1 => CaseConfig::kv_transfer(algorithm, htm, 2),
        2 => CaseConfig::steal_service(algorithm, htm, 2),
        _ => CaseConfig::batch(algorithm, htm, 2),
    }
}

/// What one replayed and judged case cost in simulated terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub events: u64,
}

pub fn replay(kind: usize, schedule_seed: u64) -> Result<Counts, String> {
    let sched = SchedConfig { abort_injection: ABORT_INJECTION, ..SchedConfig::from_seed(schedule_seed) };
    match run_case(&case(kind), &sched) {
        Ok(report) => Ok(Counts { steps: report.run.steps, events: report.history.len() as u64 }),
        Err(failure) => Err(format!("{} case: {failure}", KINDS[kind])),
    }
}

/// The cases of one pass, in order: every schedule seed under every kind.
pub fn cases(seed: u64, seeds: usize) -> Vec<(usize, u64)> {
    (0..seeds)
        .flat_map(|i| (0..KINDS.len()).map(move |kind| (kind, util::derive(seed, "schedule", i as u64))))
        .collect()
}

/// [`pass`] while a second thread keeps the other core awake. A replayer
/// alone leaves that core asleep, and every hand-off between virtual
/// threads then waits for a sleeping CPU to wake (on a virtual machine,
/// an exit to the hypervisor): three quarters of the time of a replay on
/// an idle machine. Beside a busy core the hand-off is a plain context
/// switch, so this pass times the scheduler and the oracles themselves.
pub fn pass_beside_busy_core(cases: &[(usize, u64)]) -> Result<(Vec<Counts>, Vec<f64>), String> {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let result = pass(cases, None);
        done.store(true, Ordering::Relaxed);
        result
    })
}

/// Replays `cases` in order, in [`SLICES`] slices. Returns per-case
/// counts and the wall seconds of each slice.
pub fn pass(
    cases: &[(usize, u64)],
    mut probe: Option<&mut SpanProbe>,
) -> Result<(Vec<Counts>, Vec<f64>), String> {
    let mut counts = Vec::with_capacity(cases.len());
    let mut slice_s = Vec::with_capacity(SLICES);
    for slice in cases.chunks(cases.len().div_ceil(SLICES)) {
        let start = Instant::now();
        for (kind, schedule) in slice {
            counts.push(match probe.as_deref_mut() {
                Some(p) => p.around(SPANS[*kind], || replay(*kind, *schedule)),
                None => replay(*kind, *schedule),
            }?);
        }
        slice_s.push(start.elapsed().as_secs_f64());
    }
    Ok((counts, slice_s))
}

pub fn throughput(cases: usize, slice_s: &[f64]) -> Vec<f64> {
    let per_slice = cases.div_ceil(SLICES);
    slice_s.iter().enumerate().map(|(i, s)| per_slice.min(cases - i * per_slice) as f64 / s).collect()
}

pub fn seeds_for(seconds: f64) -> usize {
    ((SEED_RATE * seconds) as usize).max(SLICES)
}

/// The untraced pass: every end-to-end metric of the replay workload.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let all = cases(seed, seeds_for(seconds));
    let n = all.len() as u64;

    // Set-up: this workload builds nothing of its own (`run_case` builds
    // a machine per case), so set-up is a discarded tenth of the cases.
    let warm = &all[..(all.len() / 10).max(KINDS.len())];
    let setups: Vec<f64> = (0..SETUPS).map(|_| util::timed(|| pass(warm, None)).0).collect();
    out.push(Measured::median_of("setup_s", setups));

    if let Some((counts, slice_s)) = out.tally.phase("t1", n, || pass(&all, None)) {
        let rates = throughput(all.len(), &slice_s);
        out.push(Measured::median_of("host_ops_per_s_t1", rates));
        let steps: u64 = counts.iter().map(|c| c.steps).sum();
        let events: u64 = counts.iter().map(|c| c.events).sum();
        let mean_steps = steps as f64 / n as f64;
        // One scheduler step stands for one modeled cycle; a replay keeps
        // one virtual thread runnable, so its modeled rate is one core's.
        out.push(Measured::single("modeled_cyc_per_op_t1", mean_steps));
        // Not a measurement of its own (`metrics::DERIVED`).
        out.push(Measured::single("modeled_mops", MODEL_HZ / mean_steps / 1e6));
        let mut per_case: Vec<u64> = counts.iter().map(|c| c.steps).collect();
        let p99 = util::percentile_grouped(&mut per_case, 0.99);
        out.push(Measured::single("sojourn_p99_ns", p99 * 1e9 / MODEL_HZ));
        out.notes.push(format!(
            "{n} cases ({} schedule seeds x {} kinds), {steps} steps, {events} events; modeled currency here is \
             scheduler steps at one step per cycle; p99 allowed by the percentile rule: {}",
            all.len() / KINDS.len(),
            KINDS.len(),
            util::percentile_allowed(all.len(), 0.99)
        ));
    }
    out.push(Measured::single("peak_rss_mb", util::peak_rss_mb()));
    out
}
