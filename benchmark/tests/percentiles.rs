//! The percentile rule and the order statistics every metric goes through.

use rh_benchmark::util::{
    iqr_share, median, percentile_allowed, percentile_grouped, percentile_u64, quantile_sorted,
};
use rh_benchmark::workloads::kv::{slo_rate, slo_step, RATES_NS};

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert!(!percentile_allowed(99, 0.9), "p90 of 99 samples has nine beyond it");
    assert!(percentile_allowed(100, 0.9));
    assert!(!percentile_allowed(999, 0.99));
    assert!(percentile_allowed(1_000, 0.99));
    assert!(!percentile_allowed(9_999, 0.999));
    assert!(percentile_allowed(10_000, 0.999));
    assert!(percentile_allowed(20, 0.5) && !percentile_allowed(19, 0.5));
    assert!(!percentile_allowed(0, 0.5) && !percentile_allowed(1_000_000, 1.0));
}

#[test]
fn exact_percentiles_pick_order_statistics() {
    let mut v: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(percentile_u64(&mut v, 0.50), 50);
    assert_eq!(percentile_u64(&mut v, 0.99), 99);
    assert_eq!(percentile_u64(&mut v, 1.0), 100);
    assert_eq!(percentile_u64(&mut [7], 0.99), 7);
}

#[test]
fn grouped_percentiles_interpolate_inside_a_tie() {
    // Half the samples at 10, half at 20: the median sits on the border.
    let mut v = vec![10, 10, 20, 20];
    assert_eq!(percentile_grouped(&mut v, 0.5), 10.5);
    // Moving one sample up moves the grouped median, where the plain one
    // would keep reading 10.
    let mut even = vec![10u64; 100];
    let mut shifted = even.clone();
    shifted[0] = 11;
    assert!(percentile_grouped(&mut shifted, 0.5) > percentile_grouped(&mut even, 0.5));
    assert_eq!(percentile_u64(&mut shifted, 0.5), percentile_u64(&mut even, 0.5));
    // It never leaves the interval its value stands for.
    let g = percentile_grouped(&mut even, 0.99);
    assert!((9.5..10.5).contains(&g));
}

#[test]
fn medians_and_spreads() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), 0.0, "fewer than four samples have no quartiles");
    assert_eq!(iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
    assert_eq!(iqr_share(&[5.0; 8]), 0.0);
}

#[test]
fn the_slo_rate_is_continuous_between_the_fixed_rates() {
    let limit = 10_000.0;
    let (rate_of, step_of) =
        (|p99: &[f64]| slo_rate(&RATES_NS, p99, limit), |p99: &[f64]| slo_step(&RATES_NS, p99, limit));
    // r1..r3 meet the limit, r4 does not: the step is r3, the
    // interpolated rate lies between r3 and r4.
    let p99 = [200.0, 2_700.0, 5_000.0, 20_000.0, 70_000.0, 900_000.0];
    assert_eq!(step_of(&p99), 25.0);
    let rate = rate_of(&p99);
    assert!(rate > 25.0 && rate < 1e3 / 33.0, "{rate}");
    // A slightly worse tail lowers the rate slightly, not by a step.
    let worse = [200.0, 2_700.0, 5_200.0, 20_000.0, 70_000.0, 900_000.0];
    let lower = rate_of(&worse);
    assert!(lower < rate && rate - lower < 0.5, "{rate} -> {lower}");
    assert_eq!(step_of(&worse), 25.0);
    // Clamped at both ends.
    assert_eq!(rate_of(&[20_000.0; 6]), 1e3 / 150.0);
    assert_eq!(step_of(&[20_000.0; 6]), 0.0);
    assert_eq!(rate_of(&[100.0; 6]), 40.0);
}

/// A batch's p99 falls before it rises (at low rates blocks wait to
/// fill), and one disturbed low-rate call must not clamp the rate to the
/// bottom of the ladder: the highest rate that meets the limit counts.
#[test]
fn the_slo_rate_ignores_a_miss_below_the_highest_rate_that_meets_the_limit() {
    let limit = 50_000.0;
    let clean = [11_000.0, 5_400.0, 9_000.0, 19_000.0, 640_000.0, 1_600_000.0];
    let disturbed = [80_000.0, 96_000.0, 9_000.0, 19_000.0, 640_000.0, 1_600_000.0];
    assert_eq!(slo_rate(&RATES_NS, &clean, limit), slo_rate(&RATES_NS, &disturbed, limit));
    assert_eq!(slo_step(&RATES_NS, &disturbed, limit), 1e3 / 33.0);
    // Continuous where the next rate starts to miss: just above the limit
    // reads just below that rate, just under it just above.
    let at = |p99_r5: f64| slo_rate(&RATES_NS, &[1.0, 1.0, 1.0, 1.0, p99_r5, 1e9], limit);
    let r5 = 1e3 / 28.0;
    assert!(at(50_001.0) < r5 && r5 - at(50_001.0) < 1e-3);
    assert!(at(49_999.0) > r5 && at(49_999.0) - r5 < 1e-3);
}
