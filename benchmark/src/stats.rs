//! Sample statistics: percentiles, the calmest slice of a run, and the
//! highest percentile a sample count supports.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
/// Returns 0 for an empty sample, so a missing phase reads as "no data".
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Consecutive groups a run's units are split into, in completion order.
///
/// On the shared host this benchmark was built on, a neighbour's load slows
/// everything for seconds at a time (identical runs of one workload read
/// 44 and 89 requests a second). Such interference only ever adds time, so
/// the end-to-end latency and rate are those of the calmest fifth of the
/// run: a run needs one undisturbed fifth, not an undisturbed host.
pub const SLICES: usize = 5;

/// Index ranges of [`SLICES`] consecutive groups of `count` items, as equal
/// as they can be; fewer groups when there are fewer items.
fn slices(count: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let groups = SLICES.min(count);
    (0..groups).map(move |k| k * count / groups..(k + 1) * count / groups)
}

/// The lowest median among the groups of `samples`, which are in
/// completion order.
pub fn calmest_median(samples: &[f64]) -> f64 {
    slices(samples.len())
        .map(|r| median(&samples[r]))
        .reduce(f64::min)
        .unwrap_or(0.0)
}

/// The highest completion rate per second among the groups of
/// `completions_s`, ascending times in seconds from the start of the phase:
/// a group's rate is its size over the time from the completion before it
/// (or the start of the phase) to its last.
pub fn calmest_rate(completions_s: &[f64]) -> f64 {
    slices(completions_s.len())
        .map(|r| {
            let from = if r.start == 0 {
                0.0
            } else {
                completions_s[r.start - 1]
            };
            r.len() as f64 / (completions_s[r.end - 1] - from)
        })
        .reduce(f64::max)
        .unwrap_or(0.0)
}

/// The highest of the usual tail percentiles with at least ten samples
/// beyond it, or `None` when even p50 has fewer.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    // In per mille, so that "ten beyond p90 of a hundred" is exact.
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|per_mille| count * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_hand_made_samples() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calmest_median_ignores_disturbed_slices() {
        // Ten units at 10 ms; the middle six took three times as long.
        let mut s = vec![10.0; 10];
        for v in &mut s[2..8] {
            *v = 30.0;
        }
        assert_eq!(median(&s), 30.0);
        assert_eq!(calmest_median(&s), 10.0);
        // Fewer units than slices: every unit is its own slice.
        assert_eq!(calmest_median(&[7.0, 5.0, 6.0]), 5.0);
        assert_eq!(calmest_median(&[]), 0.0);
    }

    #[test]
    fn calmest_rate_is_the_fastest_slice() {
        // 100 completions: 20 a second, except the third fifth at 5 a second.
        let mut t = Vec::new();
        let mut now = 0.0;
        for i in 0..100 {
            now += if (40..60).contains(&i) { 0.2 } else { 0.05 };
            t.push(now);
        }
        assert!((calmest_rate(&t) - 20.0).abs() < 1e-9);
        // Four long units, as in the circuit workload: the fastest one.
        assert!((calmest_rate(&[7.5, 15.0, 22.0, 30.0]) - 1.0 / 7.0).abs() < 1e-9);
        assert_eq!(calmest_rate(&[]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
