//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples. A tail
//! percentile is reported only when the sample leaves at least
//! [`MIN_BEYOND`] values beyond it; with fewer samples the benchmark
//! falls back to the next percentile down the ladder.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in permille, highest first.
const LADDER_PERMILLE: [u64; 3] = [990, 900, 500];

/// Nearest rank (1-based) of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: u64) -> usize {
    let n = n as u64;
    (permille * n).div_ceil(1000).max(1) as usize
}

/// The highest percentile on the ladder, at most `nominal_permille`, that
/// has at least [`MIN_BEYOND`] of `n` samples beyond it; the median when
/// none does. Returned in permille (`990` is p99).
pub fn tail_permille(n: usize, nominal_permille: u64) -> u64 {
    LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|&p| p <= nominal_permille)
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
        .unwrap_or(500)
}

/// The `permille` percentile of `sorted` by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille).min(sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
