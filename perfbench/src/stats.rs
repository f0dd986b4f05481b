//! Sample summaries: medians, the tail percentile rule, and set-up
//! timing.

use std::time::Instant;

/// A timing summary: the median and the highest percentile that still
/// has at least ten samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for even counts).
    pub p50: f64,
    /// The tail value: the sample with exactly ten samples above it in
    /// sorted order, or the maximum when there are ten or fewer.
    pub tail: f64,
    /// Which percentile `tail` is: `100 · (n − 10) / n`, or 100 when
    /// `n ≤ 10` (no percentile has ten samples beyond it).
    pub tail_pct: f64,
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail, tail_pct) = if n > 10 {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (v[n - 1], 100.0)
    };
    Some(Summary {
        n,
        p50: median_sorted(&v),
        tail,
        tail_pct,
    })
}

/// The median over consecutive windows of `window` samples of each
/// window's [`Summary::tail`]: a tail that one burst of host noise (a
/// slow fsync, a descheduled thread) cannot move on its own. A short
/// last window is folded into the one before it.
pub fn windowed_tail(samples: &[f64], window: usize) -> Option<f64> {
    let window = window.max(1);
    let n = (samples.len() / window).max(1);
    let tails: Vec<f64> = (0..n)
        .filter_map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * window
            };
            summarize(&samples[i * window..end]).map(|s| s.tail)
        })
        .collect();
    (!tails.is_empty()).then(|| median(&tails))
}

/// Set-up timing in blocks. One set-up takes milliseconds, and within
/// one run its time jumps between a fast and a slow level, so the median
/// of single set-ups jumps with it. `setup_s` is the median over blocks of each block's fastest
/// set-up: interference only adds time, and the median keeps one lucky
/// block from setting the figure. Every block runs before the
/// measurement window, in the fresh process, as a user's set-up would:
/// blocks placed between the passes read up to a third slower than the
/// first block of the same run, so they would time the run's history
/// as well as the set-up.
pub struct SetupTimer {
    reps: usize,
    blocks: Vec<Vec<f64>>,
}

impl SetupTimer {
    /// Blocks of `reps` set-ups.
    pub fn new(reps: usize) -> SetupTimer {
        SetupTimer {
            reps: reps.max(1),
            blocks: Vec::new(),
        }
    }

    /// Runs the first block and returns its first set-up's result; the
    /// later ones are dropped outside the timed part.
    pub fn first_block<T>(&mut self, set_up: impl FnMut() -> T) -> T {
        self.run_block(set_up, true)
            .expect("a block runs at least one set-up")
    }

    /// Runs another block, dropping every result as soon as it is timed,
    /// so the block holds at most one set-up's memory at a time.
    pub fn block<T>(&mut self, set_up: impl FnMut() -> T) {
        self.run_block(set_up, false);
    }

    fn run_block<T>(&mut self, mut set_up: impl FnMut() -> T, keep: bool) -> Option<T> {
        let mut first = None;
        let mut times = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            let t0 = Instant::now();
            let value = set_up();
            times.push(t0.elapsed().as_secs_f64());
            if keep && first.is_none() {
                first = Some(value);
            }
        }
        self.blocks.push(times);
        first
    }

    fn block_minima(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| b.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// The median over blocks of each block's fastest set-up (0 before
    /// any block ran).
    pub fn setup_s(&self) -> f64 {
        median(&self.block_minima())
    }

    /// A report line: block count and size, and the block minima.
    pub fn describe(&self) -> String {
        let ms: Vec<String> = self
            .block_minima()
            .iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect();
        format!(
            "set-up: {} blocks of {}; fastest per block [{}] ms, median {:.3} ms",
            self.blocks.len(),
            self.reps,
            ms.join(", "),
            self.setup_s() * 1e3
        )
    }
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order, so the summary must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s = summarize(&ramp(100)).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.tail, 89.0);
        assert_eq!(s.tail_pct, 90.0);
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.tail_pct, 99.0);
        // Exactly ten samples lie strictly beyond the tail value.
        for n in [11, 12, 57, 400] {
            let v = ramp(n);
            let s = summarize(&v).unwrap();
            assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10, "n = {n}");
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.tail, s.tail_pct), (3.0, 100.0));
        let s = summarize(&ramp(10)).unwrap();
        assert_eq!((s.tail, s.tail_pct), (9.0, 100.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn windowed_tail_ignores_one_noisy_window() {
        // Five windows of 100; one of them has a burst of 20 slow samples.
        let mut v: Vec<f64> = (0..500).map(|i| (i % 100) as f64).collect();
        for x in &mut v[200..220] {
            *x = 1e6;
        }
        assert_eq!(windowed_tail(&v, 100), Some(89.0));
        assert_eq!(summarize(&v).unwrap().tail, 1e6);
        // A short tail end joins the last full window.
        assert_eq!(
            windowed_tail(&v[..150], 100),
            summarize(&v[..150]).map(|s| s.tail)
        );
        assert_eq!(windowed_tail(&[], 100), None);
    }

    #[test]
    fn setup_is_the_median_of_the_block_minima() {
        let mut t = SetupTimer::new(3);
        t.blocks = vec![vec![5.0, 1.0, 9.0], vec![7.0, 4.0], vec![2.0, 3.0, 30.0]];
        // Minima 1, 4, 2: one fast block and one slow one do not move it.
        assert_eq!(t.setup_s(), 2.0);
        assert_eq!(SetupTimer::new(3).setup_s(), 0.0);
    }

    #[test]
    fn a_block_runs_every_rep_and_the_first_keeps_its_first_result() {
        let mut t = SetupTimer::new(4);
        let mut calls = 0;
        let first = t.first_block(|| {
            calls += 1;
            calls
        });
        assert_eq!((first, calls, t.blocks[0].len()), (1, 4, 4));
        t.block(|| calls += 1);
        assert_eq!((calls, t.blocks.len()), (8, 2));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap().p50, 2.5);
    }
}
