//! Order statistics used by every metric: nearest-rank percentiles and
//! medians. No interpolation — a reported latency is one that a request
//! actually had.

/// The `p`-th percentile (`0.0..=100.0`) of an ascending-sorted slice by
/// the nearest-rank rule; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` in any order: the middle element, or the mean
/// of the two middle elements. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Completions per second in each of `rounds` equal slices of a window
/// `round_ns` long each, from completion times measured from the window's
/// start. Completions outside the window are not counted.
pub fn round_rates(done_ns: &[u64], rounds: usize, round_ns: u64) -> Vec<f64> {
    let mut counts = vec![0u64; rounds];
    for &done in done_ns {
        if let Some(count) = counts.get_mut((done / round_ns) as usize) {
            *count += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / (round_ns as f64 / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 9.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[3.0, 9.0], 51.0), Some(9.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        // Five 1-second rounds; the third saw half the completions.
        let second = 1_000_000_000u64;
        let mut done = Vec::new();
        for round in 0..5u64 {
            let n = if round == 2 { 50 } else { 100 };
            done.extend((0..n).map(|i| round * second + i * 1_000));
        }
        done.push(5 * second + 1); // after the window: not counted
        let rates = round_rates(&done, 5, second);
        assert_eq!(rates, vec![100.0, 100.0, 50.0, 100.0, 100.0]);
        assert_eq!(median(&rates), Some(100.0));
    }
}
