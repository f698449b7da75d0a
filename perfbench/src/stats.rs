//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; `None` when empty.
///
/// Nearest rank never interpolates, so the reported value is always one
/// that was actually measured.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of samples already sorted ascending, without a copy.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Samples per latency chunk: the fewest that leave ten samples beyond the
/// nearest-rank p99.
pub const CHUNK: usize = 1000;

/// Latency percentiles over consecutive chunks of [`CHUNK`] samples, taken
/// in completion order. The reported p50 and p99 are medians over the
/// chunks, so a burst of stalls moves one chunk's value, not the run's;
/// and memory stays bounded however long the run is. A last, partial chunk
/// is dropped.
#[derive(Debug, Default)]
pub struct Chunked {
    current: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Chunked {
    /// Adds the next sample.
    pub fn push(&mut self, v: f64) {
        self.current.push(v);
        if self.current.len() == CHUNK {
            self.current.sort_by(f64::total_cmp);
            self.p50
                .push(percentile_sorted(&self.current, 50.0).expect("a full chunk"));
            self.p99
                .push(percentile_sorted(&self.current, 99.0).expect("a full chunk"));
            self.current.clear();
        }
    }

    /// Takes over the full chunks of another stream.
    pub fn merge(&mut self, other: Chunked) {
        self.p50.extend(other.p50);
        self.p99.extend(other.p99);
    }

    /// Median over the chunks of their p50; `None` before a full chunk.
    pub fn p50(&self) -> Option<f64> {
        median(&self.p50)
    }

    /// Median over the chunks of their p99; `None` before a full chunk.
    pub fn p99(&self) -> Option<f64> {
        median(&self.p99)
    }
}

/// Nanoseconds per call of `f`, as the median over `reps` repetitions of
/// `calls` calls each. The closure receives the call index, so callers can
/// cycle through a recorded input set.
pub fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_rep).expect("at least one repetition")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_sorted(&xs, 99.0), Some(99.0));
    }

    #[test]
    fn chunks_leave_ten_samples_beyond_p99_and_take_medians() {
        // Three chunks: 1..=1000, 1001..=2000 and 2001..=3000, in order; a
        // partial fourth is dropped.
        let mut c = Chunked::default();
        assert_eq!(c.p99(), None);
        for v in 1..=3500 {
            c.push(f64::from(v));
        }
        assert_eq!(c.p50, [500.0, 1500.0, 2500.0]);
        assert_eq!(c.p99, [990.0, 1990.0, 2990.0]);
        assert_eq!(c.p50(), Some(1500.0));
        assert_eq!(c.p99(), Some(1990.0));
        // 990 is the 990th of 1000 samples: ten lie beyond it.
        let mut burst = Chunked::default();
        for v in 0..CHUNK {
            burst.push(if v % 50 == 0 { 1e6 } else { 1.0 });
        }
        assert_eq!(burst.p99(), Some(1e6));
        c.merge(burst);
        assert_eq!(c.p99.len(), 4);
        // One chunk with a burst of stalls does not move the median.
        assert_eq!(c.p99(), Some(1990.0));
    }

    #[test]
    fn ns_per_call_runs_every_call() {
        let mut n = 0usize;
        let ns = ns_per_call(3, 10, |i| n += i);
        assert_eq!(n, 3 * 45);
        assert!(ns >= 0.0);
    }
}
