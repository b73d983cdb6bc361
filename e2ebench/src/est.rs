//! Estimators and rules the benchmark reports through. Kept free of engine
//! types so each rule is unit-tested on plain numbers.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The round-median estimator of the interleaved engine runs: drop the
/// first `warmup` rounds, then take the median of the rest.
pub fn round_median(rounds: &[f64], warmup: usize) -> f64 {
    assert!(
        rounds.len() > warmup,
        "no measured rounds after the warm-up"
    );
    median(&rounds[warmup..])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product like 99.9% × 10,000 from rounding up past 9,990.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0 < p < 100) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// Percentiles a latency report may quote, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// strictly beyond its nearest rank among `n`, or `None` when even the
/// median has fewer (under 40 samples a tail figure is no tail, so only
/// the median is reported).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(p, n) >= 10)
}

/// One rung of the offered-rate ladder as the client observed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Ack latency p99 of the rung's requests, microseconds.
    pub p99_us: f64,
    /// Requests submitted but not yet seen resolved when the rung ended.
    pub outstanding_end: u64,
}

/// A rung measured as several sample windows: the median of their p99s
/// and of their end backlogs, so one host stall moves one window only.
pub fn median_rung(windows: &[Rung]) -> Rung {
    let of = |f: fn(&Rung) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Rung {
        rate: windows[0].rate,
        p99_us: of(|w| w.p99_us),
        outstanding_end: of(|w| w.outstanding_end as f64).round() as u64,
    }
}

/// Whether a rung kept up: ack p99 within `slo_us`, and a backlog at the
/// rung's end of no more than the arrivals of one SLO period (plus a small
/// floor for the requests in flight on the worker and in the producer's
/// hand). A service that falls behind accumulates a backlog that grows
/// with the rung's length, so it fails the second test even when its
/// latency sample is still young.
pub fn rung_passes(r: &Rung, slo_us: f64) -> bool {
    let allowed = (r.rate * slo_us / 1e6).ceil() as u64 + 4;
    r.p99_us <= slo_us && r.outstanding_end <= allowed
}

/// `max_rate_at_slo`: the highest rate of an ascending ladder such that it
/// and every lower rung pass [`rung_passes`]; `None` when the lowest rung
/// already fails.
pub fn max_rate_at_slo(ladder: &[Rung], slo_us: f64) -> Option<f64> {
    ladder
        .iter()
        .take_while(|r| rung_passes(r, slo_us))
        .map(|r| r.rate)
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn round_median_skips_warmup_rounds() {
        // The slow first round (cold caches) must not pull the estimate.
        let rounds = [10.0, 100.0, 102.0, 98.0, 500.0, 101.0];
        assert_eq!(round_median(&rounds, 1), 101.0);
        assert_eq!(round_median(&[1.0, 5.0], 1), 5.0);
    }

    #[test]
    #[should_panic(expected = "no measured rounds")]
    fn round_median_needs_a_measured_round() {
        round_median(&[1.0], 1);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&[5], 99.0), 5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        // 40 samples: p50 leaves 20 beyond, p90 leaves 4.
        assert_eq!(tail_percentile(40), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    fn rung(rate: f64, p99_us: f64, outstanding_end: u64) -> Rung {
        Rung {
            rate,
            p99_us,
            outstanding_end,
        }
    }

    #[test]
    fn rung_rule_checks_latency_and_backlog() {
        // 10k/s with a 1 ms SLO allows 10 + 4 queued at the rung's end.
        assert!(rung_passes(&rung(10_000.0, 900.0, 14), 1000.0));
        assert!(!rung_passes(&rung(10_000.0, 900.0, 15), 1000.0));
        assert!(!rung_passes(&rung(10_000.0, 1001.0, 0), 1000.0));
    }

    #[test]
    fn median_rung_ignores_one_stalled_window() {
        let w = [
            rung(5000.0, 300.0, 2),
            rung(5000.0, 9000.0, 60),
            rung(5000.0, 350.0, 1),
        ];
        assert_eq!(median_rung(&w), rung(5000.0, 350.0, 2));
        assert!(rung_passes(&median_rung(&w), 1000.0));
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        let ladder = [
            rung(1000.0, 100.0, 0),
            rung(2000.0, 200.0, 1),
            rung(4000.0, 5000.0, 0),
            // Passes again, but above a failed rung: not counted.
            rung(8000.0, 100.0, 0),
        ];
        assert_eq!(max_rate_at_slo(&ladder, 1000.0), Some(2000.0));
        assert_eq!(max_rate_at_slo(&ladder[2..], 1000.0), None);
        // A growing backlog fails a rung whose p99 still looks fine.
        let grown = [rung(1000.0, 100.0, 0), rung(2000.0, 300.0, 500)];
        assert_eq!(max_rate_at_slo(&grown, 1000.0), Some(1000.0));
    }
}
