//! The two service workloads: one seeded bursty trace served by
//! `run_service` in session mode (`kv-serve`) and through the batch
//! former and Block-STM executor (`kv-batch`).
//!
//! Open loop in modeled time: sojourn is measured from each request's
//! scheduled arrival, and the generator cannot run late because arrivals
//! are virtual. Closed loop in host time: workers drain the trace as
//! fast as the host lets them.

use crate::report::{self, Measured, Outcome};
use crate::spans::Probe;
use crate::surface::{
    generate, run_service, service_overrides, Algorithm, ExecMode, FormerConfig, KvStore, LatencyStats,
    Machine, Mix, OpClass, Request, SchedPolicy, ServiceConfig, ServiceReport, TraceConfig, MODEL_HZ,
};
use crate::util;

pub const KEYSPACE: u64 = 1024;
pub const ZIPF: f64 = 0.99;
/// Gets and transfers only, so the balance sum is conserved and checked.
pub const MIX: Mix = Mix { get: 55, put: 0, delete: 0, transfer: 45, range: 0 };
pub const BURST_FACTOR: u64 = 8;
pub const BURST_LEN: u64 = 64;

/// Mean inter-arrival time of the fixed rates `r1` … `r6`, nanoseconds:
/// 6.7, 16.7, 25, 30.3, 35.7 and 40 million requests per modeled second.
/// Two session workers meet the limit up to about 30 and saturate at `r6`.
pub const RATES_NS: [u64; 6] = [150, 60, 40, 33, 28, 25];
/// Index of `r2`, the rate `kv-serve` reports sojourn at (half its
/// capacity).
pub const R2: usize = 1;
/// The ladder of `kv-batch`, whose gated numbers are one worker's (see
/// [`ServiceSpec::batch`]): 6.7 to 111 million requests per modeled
/// second. One batch worker takes the executor's no-speculation path at
/// about 30 cycles a request, so it meets the limit on all of
/// [`RATES_NS`] and saturates between 10 and 9 ns.
pub const BATCH_RATES_NS: [u64; 6] = [150, 60, 25, 16, 10, 9];
/// Traces served at the sojourn rate per run, each from its own trace
/// seed: the reported p99 is their mean, which averages over burst
/// patterns and over the 1/32-wide buckets of the runner's histogram.
pub const SOJOURN_TRACES: u64 = 5;
/// A rate at which no request ever queues: one worker's mean sojourn is
/// then its mean service demand.
pub const UNLOADED_NS: u64 = 10_000;

const SETUPS: usize = 3;
/// One-worker calls whose host time counts; one more is made first and
/// its host time discarded.
const T1_SLICES: usize = 7;
/// Where the reported pool is one worker, two-worker calls are made
/// beside it: this many, of this many requests per second of `--seconds`.
const BESIDE_CALLS: u64 = 6;
pub const BESIDE_RATE: u64 = 30_000;

#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    pub batch: bool,
    /// Modeled p99 a rate must stay under to count as served.
    pub slo_ns: u64,
    /// Workers of the pool whose modeled numbers are reported.
    pub workers: usize,
    /// The fixed rates that pool is offered, as mean inter-arrival ns.
    pub rates_ns: [u64; 6],
    /// Index of the rate `sojourn_p99_ns` is reported at.
    pub sojourn_at: usize,
    /// Mean inter-arrival time of the one-worker calls.
    pub t1_arrival_ns: u64,
    /// Requests per call per second of `--seconds`: the one-worker calls
    /// and the calls of the rate ladder.
    pub t1_rate: u64,
    pub ladder_rate: u64,
}

impl ServiceSpec {
    pub fn serve() -> ServiceSpec {
        ServiceSpec {
            batch: false,
            slo_ns: 10_000,
            workers: 2,
            rates_ns: RATES_NS,
            sojourn_at: R2,
            t1_arrival_ns: UNLOADED_NS,
            t1_rate: 90_000,
            ladder_rate: 100_000,
        }
    }

    /// Blocks wait to fill, so the limit is wider; and at an unloaded rate
    /// no block ever fills (every request falls back to a session), so the
    /// one-worker calls run at the sojourn rate, 60 % of one worker's
    /// capacity.
    ///
    /// The reported pool is one worker. Two batch workers free-run on host
    /// threads and the executor's modeled time follows the order the host
    /// runs them in: the same binary and seed gave a p99 at `r2` of 5 us
    /// or of 90 us from one run to the next, for seconds at a stretch.
    /// Two-worker calls are still made, for their invariant checks and an
    /// informative line.
    pub fn batch() -> ServiceSpec {
        let sojourn_at = 3;
        ServiceSpec {
            batch: true,
            slo_ns: 50_000,
            workers: 1,
            rates_ns: BATCH_RATES_NS,
            sojourn_at,
            t1_arrival_ns: BATCH_RATES_NS[sojourn_at],
            t1_rate: 200_000,
            ladder_rate: 100_000,
        }
    }

    /// `stream` picks the trace seed: calls that share it replay the same
    /// keys and operations, arrivals scaled by `rate_ns`.
    pub fn config(
        &self,
        threads: usize,
        requests: u64,
        rate_ns: u64,
        seed: u64,
        stream: u64,
    ) -> ServiceConfig {
        assert!(threads <= crate::surface::MAX_WORKERS, "never more workers than cores");
        let trace = TraceConfig {
            requests: requests as usize,
            keyspace: KEYSPACE,
            zipf_theta: ZIPF,
            mix: MIX,
            mean_interarrival_ns: rate_ns,
            burst_factor: BURST_FACTOR,
            burst_len: BURST_LEN,
            seed: util::derive(seed, "trace", stream),
        };
        let mut config = ServiceConfig::new(Algorithm::RhNorec, threads, trace);
        config.tm_overrides = Some(service_overrides);
        config.sched = SchedPolicy::Static;
        if self.batch {
            config.mode = ExecMode::Batch(FormerConfig::default());
        }
        config
    }
}

/// What `run_service` builds inside the call before it serves anything:
/// the machine, the loaded store and the trace.
pub struct Prepared {
    pub machine: Machine,
    pub store: KvStore,
    pub trace: Vec<Request>,
}

const BALANCE: u64 = 1_000;

pub fn prepare(config: &ServiceConfig) -> Prepared {
    let machine = Machine::build(config.algorithm, config.htm, config.heap_words);
    let store = KvStore::create(&machine.heap, config.kv).expect("the service's own geometry fits its heap");
    for key in 1..=config.trace.keyspace {
        store.load(&machine.heap, key, BALANCE).expect("the geometry holds the keyspace");
    }
    Prepared { store, trace: generate(&config.trace), machine }
}

/// Seconds [`prepare`] takes, dropping what it built included.
pub fn prepare_seconds(config: &ServiceConfig) -> f64 {
    util::timed(|| drop(prepare(config))).0
}

/// One `run_service` call, checked: every request served exactly once
/// and the balance sum conserved (the runner asserts both and the
/// caller's `catch_unwind` turns a trip into failed operations; the
/// report is checked again here). Returns the seconds of the whole call.
pub fn serve(config: &ServiceConfig) -> Result<(f64, ServiceReport), String> {
    let (seconds, report) = util::timed(|| run_service(config));
    if report.requests != config.trace.requests as u64 {
        return Err(format!("{} of {} requests served", report.requests, config.trace.requests));
    }
    if report.conserved != Some(true) {
        return Err("the balance sum was not checked or not conserved".into());
    }
    Ok((seconds, report))
}

/// One checked call and, timed apart just before it, the preparation
/// `run_service` repeats inside the call (machine, store load, trace
/// generation). At 100 ns a request the generator alone is a fifth of a
/// `kv-serve` call and half of a one-worker `kv-batch` call, so a host
/// rate over the whole call would read a generator change as an executor
/// change.
pub struct Served {
    pub call_s: f64,
    pub prepare_s: f64,
    pub report: ServiceReport,
}

impl Served {
    /// Host nanoseconds of serving one request, or 0 when the two timings
    /// do not tell (a few thousand requests on a disturbed host).
    pub fn req_ns(&self) -> f64 {
        (self.call_s - self.prepare_s).max(0.0) * 1e9 / self.report.requests as f64
    }
}

/// `call` is [`serve`], or `serve` under a span.
pub fn serve_apart(
    config: &ServiceConfig,
    call: impl FnOnce(&ServiceConfig) -> Result<(f64, ServiceReport), String>,
) -> Result<Served, String> {
    let prepare_s = prepare_seconds(config);
    let (call_s, report) = call(config)?;
    Ok(Served { call_s, prepare_s, report })
}

/// The offered rate in 10^6 requests per modeled second at which the
/// modeled p99 crosses `slo_ns`: the highest of `rates_ns` that meets the
/// limit, moved towards the next one by interpolation on log p99. The
/// highest rate that meets it counts even if a lower one does not (a
/// batch's p99 falls before it rises: at low rates blocks wait to fill).
/// Clamped to the range of `rates_ns`.
pub fn slo_rate(rates_ns: &[u64], p99_ns: &[f64], slo_ns: f64) -> f64 {
    let mreq = |i: usize| 1e3 / rates_ns[i] as f64;
    let Some(met) = p99_ns.iter().rposition(|p| *p <= slo_ns) else {
        return mreq(0);
    };
    let Some(miss) = p99_ns.get(met + 1) else {
        return mreq(met);
    };
    let (lo, hi) = (p99_ns[met].max(1.0).ln(), miss.ln());
    mreq(met) + (slo_ns.ln() - lo) / (hi - lo) * (mreq(met + 1) - mreq(met))
}

/// The highest of `rates_ns` whose p99 meets the limit (0 when none does).
pub fn slo_step(rates_ns: &[u64], p99_ns: &[f64], slo_ns: f64) -> f64 {
    p99_ns.iter().rposition(|p| *p <= slo_ns).map_or(0.0, |met| 1e3 / rates_ns[met] as f64)
}

pub fn scaled(rate: u64, seconds: f64) -> u64 {
    ((rate as f64 * seconds) as u64).max(200)
}

fn tail_line(l: &LatencyStats) -> String {
    format!("{:.0}/{}/{}", l.mean_ns, l.p50_ns, l.p99_ns)
}

/// The untraced pass: every end-to-end metric of one service workload.
pub fn run(spec: ServiceSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let n1 = scaled(spec.t1_rate, seconds);
    let n2 = scaled(spec.ladder_rate, seconds);
    let t1 = spec.config(1, n1, spec.t1_arrival_ns, seed, 0);

    // Set-up: what `run_service` prepares inside every call, done here
    // outside one, and a discarded call of a tenth of the requests, which
    // warms the allocator and the page cache.
    let warm = spec.config(1, n1 / 10, spec.t1_arrival_ns, seed, 0);
    let setups = (0..SETUPS).map(|_| prepare_seconds(&t1) + util::timed(|| run_service(&warm)).0).collect();
    out.push(Measured::median_of("setup_s", setups));

    // One worker: the same call over and over, the preparation timed
    // apart before each (see [`Served`]). A slice's serving time is its
    // call less the median preparation. The first call's host time is
    // discarded: the warm-up call is a tenth of the size, and the first
    // call of full size still grows the heap (half the rate on `kv-batch`).
    let mut call_t1 = Vec::new();
    let mut prepare_t1 = Vec::new();
    let mut mean_t1 = Vec::new();
    for slice in 0..=T1_SLICES {
        let prepare_s = prepare_seconds(&t1);
        if let Some((s, report)) = out.tally.phase(&format!("t1 slice {slice}"), n1, || serve(&t1)) {
            mean_t1.push(report.overall.mean_ns);
            if slice > 0 {
                prepare_t1.push(prepare_s);
                call_t1.push(s);
            }
        }
    }
    if mean_t1.windows(2).any(|w| w[0] != w[1]) {
        out.tally.fail("t1", n1, format!("one worker's modeled sojourn did not repeat exactly: {mean_t1:?}"));
    }
    let prepare_s = if prepare_t1.is_empty() { 0.0 } else { util::median(&prepare_t1) };
    let host_t1: Vec<f64> =
        call_t1.iter().filter(|s| **s > prepare_s).map(|s| n1 as f64 / (s - prepare_s)).collect();

    // The reported pool: one call at each fixed rate on one trace, and at
    // the sojourn rate on further traces.
    let mut host_t2 = Vec::new();
    let mut by_rate = Vec::new();
    let mut at_sojourn = Vec::new();
    let calls = (0..spec.rates_ns.len())
        .map(|i| (i, 0))
        .chain((1..SOJOURN_TRACES).map(|stream| (spec.sojourn_at, stream)));
    for (i, stream) in calls {
        let config = spec.config(spec.workers, n2, spec.rates_ns[i], seed, stream);
        if let Some((s, report)) =
            out.tally.phase(&format!("ladder r{} trace {stream}", i + 1), n2, || serve(&config))
        {
            if spec.workers == 2 {
                host_t2.push(n2 as f64 / s);
            }
            if i == spec.sojourn_at {
                at_sojourn.push(report.overall);
            }
            if stream == 0 {
                by_rate.push(report.overall);
            }
        }
    }
    // Memory is read here: what follows is measured by no metric, and the
    // malloc arenas of its short-lived threads would move the peak by 10 %
    // from run to run.
    let peak_rss_mb = util::peak_rss_mb();
    // Two workers beside a one-worker ladder: checked like every call,
    // reported in a line, never a metric.
    let nb = scaled(BESIDE_RATE, seconds);
    let mut beside = Vec::new();
    for stream in 0..if spec.workers == 1 { BESIDE_CALLS } else { 0 } {
        let config = spec.config(2, nb, RATES_NS[R2], seed, stream);
        if let Some((s, report)) =
            out.tally.phase(&format!("two workers, trace {stream}"), nb, || serve(&config))
        {
            host_t2.push(nb as f64 / s);
            beside.push(format!("{} ({} aborts)", tail_line(&report.overall), report.aborts));
        }
    }

    if !host_t1.is_empty() {
        out.push(Measured::median_of("host_ops_per_s_t1", host_t1));
        out.notes.push(format!(
            "host_ops_per_s_t1 is requests over a call's seconds less the seconds of preparing for it (machine, \
             store load, trace generation), timed apart: {:.0} % of a call",
            100.0 * prepare_s / util::median(&call_t1)
        ));
    }
    if let Some(mean_ns) = mean_t1.first() {
        // Exact: one worker's modeled cycle stream is a pure function of
        // the trace.
        out.push(Measured::single("modeled_cyc_per_op_t1", mean_ns * MODEL_HZ / 1e9));
    }
    if by_rate.len() == spec.rates_ns.len() && at_sojourn.len() == SOJOURN_TRACES as usize {
        let p99: Vec<f64> = by_rate.iter().map(|l| l.p99_ns as f64).collect();
        out.push(Measured::single("modeled_mops", slo_rate(&spec.rates_ns, &p99, spec.slo_ns as f64)));
        let p99_at = at_sojourn.iter().map(|l| l.p99_ns as f64).sum::<f64>() / at_sojourn.len() as f64;
        out.push(Measured::single("sojourn_p99_ns", p99_at));
        out.notes.push(format!(
            "modeled mean/p50/p99 ns, {} worker(s), at mean inter-arrival {:?} ns: {}",
            spec.workers,
            spec.rates_ns,
            by_rate.iter().map(tail_line).collect::<Vec<_>>().join(" ")
        ));
        out.notes.push(format!(
            "highest fixed rate with p99 <= {} ns: {:.1} Mreq/s; sojourn_p99_ns at {} ns mean inter-arrival, mean of \
             {SOJOURN_TRACES} traces; {n2} samples per call, p99 allowed by the percentile rule: {}",
            spec.slo_ns,
            slo_step(&spec.rates_ns, &p99, spec.slo_ns as f64),
            spec.rates_ns[spec.sojourn_at],
            util::percentile_allowed(n2 as usize, 0.99)
        ));
    }
    if !beside.is_empty() {
        out.notes.push(format!(
            "two workers at {} ns, {nb} requests (informative: their modeled time follows the order the host \
             runs them in), mean/p50/p99 ns: {}",
            RATES_NS[R2],
            beside.join(" ")
        ));
    }
    if !host_t2.is_empty() {
        out.notes.push(report::host_t2_note(&host_t2));
    }
    out.push(Measured::single("peak_rss_mb", peak_rss_mb));
    out.notes.push(format!(
        "{KEYSPACE} keys, zipf {ZIPF}, get {}/transfer {}, MMPP-2 burst x{BURST_FACTOR} length {BURST_LEN}; \
         t1 1+{T1_SLICES}x{n1} requests at {} ns mean inter-arrival; open loop in modeled time \
         (arrivals are virtual, the generator cannot run late), closed loop in host time",
        MIX.get, MIX.transfer, spec.t1_arrival_ns
    ));
    out
}

/// The benchmark's own driver over the same trace: what `run_service`
/// would prepare, one session, every request a direct `KvStore` call
/// through `probe`. Returns the wall seconds of the request loop, so the
/// difference to [`Served::req_ns`] is the service layer's self time.
pub fn direct<P: Probe>(config: &ServiceConfig, probe: &mut P) -> Result<f64, String> {
    let Prepared { machine, store, trace } = prepare(config);
    let mut session = machine.session();
    let (seconds, ()) = util::timed(|| {
        for request in &trace {
            let token = probe.begin(&session);
            match request.class {
                OpClass::Get => {
                    store.get(&mut session, request.key).expect("get cannot fault");
                    probe.end(&session, "store.get", token);
                }
                OpClass::Transfer => {
                    store
                        .transfer(&mut session, request.key, request.key2, request.amount)
                        .expect("transfer cannot fault");
                    probe.end(&session, "store.transfer", token);
                }
                other => unreachable!("the mix has no {other:?} requests"),
            }
        }
    });
    let sum = store.sum_direct(&machine.heap);
    if sum != config.trace.keyspace * BALANCE {
        return Err(format!("the balance sum drifted to {sum}"));
    }
    Ok(seconds)
}
