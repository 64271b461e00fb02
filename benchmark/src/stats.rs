//! Order statistics for the reported numbers.
//!
//! Every timing the benchmark reports is a median or a nearest-rank
//! percentile of many samples, never a best-of-n.
//!
//! The end-to-end timings are taken from the *quiet quarter* of a run.
//! The host this was sized on is shared, and for three seconds at a
//! time — 30 % of the time, all told — something empties the shared
//! cache: a fixed walk through a 16 MiB table then takes 55 ms instead
//! of 20 ms, and every memory-bound stretch of the program slows with
//! it. A run's median is the program's own figure when such episodes
//! cover less than half the run and the neighbour's when they cover
//! more, so across runs it has two modes; the quartile on the quiet
//! side keeps to the program's figure until the episodes cover three
//! quarters of a run.

/// The median of `values` (mean of the two middle ones for an even
/// count). Sorts in place.
///
/// # Panics
/// On an empty slice: a metric without a sample is a harness bug.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The time at the quiet quartile of `values`: a quarter of the samples
/// were at least this fast. Sorts in place.
///
/// # Panics
/// On an empty slice.
pub fn quiet_time(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 25.0)
}

/// The rate at the quiet quartile of `values`: a quarter of the samples
/// were at least this fast. Sorts in place.
///
/// # Panics
/// On an empty slice.
pub fn quiet_rate(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 75.0)
}

/// Zero-based index of the nearest-rank `q`-th percentile among `n`
/// sorted samples: the smallest rank covering at least `q` percent.
fn rank(n: usize, q: f64) -> usize {
    let r = (q / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// How many of `n` samples lie strictly beyond the `q`-th percentile's
/// rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// A percentile is reported as a claim only when at least this many
/// samples lie beyond it; with fewer it is the luck of a handful of
/// samples.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support reporting the `q`-th percentile.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quiet_quartiles_sit_on_the_fast_side() {
        let mut times: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quiet_time(&mut times), 2.0);
        let mut rates: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quiet_rate(&mut rates), 6.0);
        // A run half of which was disturbed reports the undisturbed figure.
        let mut half_slow = [10.0, 10.1, 30.0, 31.0, 10.2, 29.0, 10.0, 30.5];
        assert_eq!(quiet_time(&mut half_slow), 10.0);
        assert_eq!(quiet_time(&mut [7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        // One sample fewer and only nine lie beyond it.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!supports(999, 99.0));
        // The median needs 20 samples (rank 10, ten beyond).
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }
}
