//! Order statistics for the benchmark's timings.
//!
//! A tail timing is reported at the highest percentile that still has at
//! least [`MIN_BEYOND`] samples above it, so a short run never reports a
//! p99 that rests on one or two samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-th percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank position (1-based) of the `q`-th percentile in `n`
/// sorted samples. The epsilon keeps a product such as 99.9% of 10 000,
/// which floating point puts just above 9 990, on its exact rank.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile at most `want` that keeps [`MIN_BEYOND`]
/// samples beyond it; the median when even that is out of reach.
pub fn supported(n: usize, want: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= want)
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of already-sorted samples (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median and supported tail of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail is reported at (see [`supported`]).
    pub tail_at: f64,
    /// The value at `tail_at`.
    pub tail: f64,
}

/// Summarise `samples`, reporting the tail at the highest supported
/// percentile up to `want`.
pub fn summarise(samples: &[f64], want: f64) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_at = supported(sorted.len(), want);
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_at,
        tail: percentile(&sorted, tail_at),
    }
}

/// Median of a sample set: the middle value, or the mean of the two
/// middle values of an even count (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Steal share a trial may show and still be timed, whatever the rest
/// of its run shows.
pub const STEAL_FLOOR: f64 = 0.02;

/// Which trials of a run are timed, given the steal share each showed:
/// those at most the run's median steal share or [`STEAL_FLOOR`],
/// whichever is higher. A run keeps at least half its trials, and all of
/// them when the hypervisor took (almost) nothing.
pub fn quiet(steal: &[f64]) -> Vec<bool> {
    let limit = median(steal).max(STEAL_FLOOR);
    steal.iter().map(|&s| s <= limit).collect()
}

/// A percentile of a run's trials, taken block by block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blocked {
    /// Samples over all trials.
    pub n: usize,
    /// Blocks the figure is the median of.
    pub blocks: usize,
    /// The percentile taken (see [`supported`]).
    pub at: f64,
    /// Median over blocks of each block's percentile.
    pub value: f64,
}

/// The `want`-th percentile (or the highest one the run supports) of
/// each block of consecutive trials, and the median over blocks. A block
/// is the fewest consecutive trials with [`MIN_BEYOND`] samples beyond
/// the percentile; trials left over join the last block. One slow
/// trial then moves one block's figure, not the run's.
pub fn blocked(trials: &[&[f64]], want: f64) -> Blocked {
    let n: usize = trials.iter().map(|t| t.len()).sum();
    if n == 0 {
        return Blocked {
            n,
            blocks: 0,
            at: want,
            value: 0.0,
        };
    }
    let at = supported(n, want);
    let mut bounds: Vec<std::ops::Range<usize>> = Vec::new();
    let (mut start, mut count) = (0, 0);
    for (i, trial) in trials.iter().enumerate() {
        count += trial.len();
        if beyond(count, at) >= MIN_BEYOND {
            bounds.push(start..i + 1);
            (start, count) = (i + 1, 0);
        }
    }
    if start < trials.len() {
        match bounds.last_mut() {
            Some(last) => last.end = trials.len(),
            None => bounds.push(start..trials.len()),
        }
    }
    let figures: Vec<f64> = bounds
        .iter()
        .map(|range| {
            let mut block: Vec<f64> = trials[range.clone()].concat();
            block.sort_by(f64::total_cmp);
            percentile(&block, at)
        })
        .collect();
    Blocked {
        n,
        blocks: figures.len(),
        at,
        value: median(&figures),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported(1000, 99.0), 99.0);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported(999, 99.0), 95.0);
    }

    #[test]
    fn tail_steps_down_the_ladder() {
        assert_eq!(supported(10_000, 99.9), 99.9);
        assert_eq!(supported(10_000, 99.0), 99.0);
        assert_eq!(supported(200, 99.0), 95.0);
        assert_eq!(supported(100, 99.0), 90.0);
        assert_eq!(supported(40, 99.0), 75.0);
        assert_eq!(supported(5, 99.0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_reports_the_percentile_it_used() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarise(&samples, 99.0);
        assert_eq!((s.n, s.tail_at), (1000, 99.0));
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail, 989.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_trials_are_those_the_hypervisor_left_alone() {
        // A quiet run keeps every trial.
        assert_eq!(quiet(&[0.0, 0.01, 0.005]), vec![true; 3]);
        assert_eq!(quiet(&[]), Vec::<bool>::new());
        // A burst of steal drops the trials it hit.
        assert_eq!(
            quiet(&[0.004, 0.15, 0.2, 0.0, 0.01]),
            vec![true, false, false, true, true]
        );
        // Steal throughout: the quieter half is timed.
        assert_eq!(quiet(&[0.3, 0.1, 0.2, 0.4]), vec![false, true, true, false]);
    }

    #[test]
    fn blocks_are_the_fewest_trials_that_support_the_percentile() {
        let trial: Vec<f64> = (0..400).map(f64::from).collect();
        let trials: Vec<&[f64]> = vec![&trial; 10];
        // p99 needs 1000 samples: three trials a block, the tenth trial
        // joins the third block.
        let b = blocked(&trials, 99.0);
        assert_eq!((b.n, b.blocks, b.at), (4000, 3, 99.0));
        assert_eq!(b.value, 395.0);
        // The median needs 20: one trial a block.
        let b = blocked(&trials, 50.0);
        assert_eq!((b.blocks, b.value), (10, 199.0));
    }

    #[test]
    fn one_slow_trial_moves_one_block() {
        let quick: Vec<f64> = (0..1000).map(|i| f64::from(i) / 1000.0).collect();
        let slow: Vec<f64> = quick.iter().map(|v| v * 10.0).collect();
        let trials: Vec<&[f64]> = vec![&quick, &quick, &slow, &quick, &quick];
        let b = blocked(&trials, 99.0);
        assert_eq!(b.blocks, 5);
        assert_eq!(b.value, percentile(&quick, 99.0));
        assert!(summarise(&trials.concat(), 99.0).tail > 9.0);
    }

    #[test]
    fn too_few_samples_make_one_block_at_a_lower_percentile() {
        let trial = [1.0, 2.0, 3.0];
        let trials: Vec<&[f64]> = vec![&trial; 10];
        let b = blocked(&trials, 99.0);
        assert_eq!((b.n, b.blocks, b.at), (30, 1, 50.0));
        assert_eq!(blocked(&[], 99.0).value, 0.0);
    }
}
