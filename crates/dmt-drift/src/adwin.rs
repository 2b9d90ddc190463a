//! ADWIN — ADaptive WINdowing (Bifet & Gavaldà, 2007).
//!
//! ADWIN keeps a variable-length window of recent observations and repeatedly
//! checks whether the window can be split into two sub-windows whose means
//! differ by more than a threshold derived from the Hoeffding bound. If so,
//! the older sub-window is dropped and drift is reported.
//!
//! This implementation uses the exponential-histogram bucket structure of the
//! original paper, so memory is `O(M log(W/M))` for window length `W`.

use dmt_models::memory::vec_bytes;
use dmt_models::MemoryUsage;

use crate::DriftDetector;

/// Maximum number of buckets per row of the exponential histogram.
const MAX_BUCKETS_PER_ROW: usize = 5;

/// One row of the exponential histogram: buckets of identical capacity.
#[derive(Debug, Clone, Default)]
struct BucketRow {
    /// Sums of the values in each bucket.
    totals: Vec<f64>,
    /// Sums of squared values (for variance maintenance).
    variances: Vec<f64>,
}

/// The ADWIN drift detector.
#[derive(Debug, Clone)]
pub struct Adwin {
    delta: f64,
    rows: Vec<BucketRow>,
    /// Total number of observations currently in the window.
    width: u64,
    /// Sum of all observations in the window.
    total: f64,
    /// Variance accumulator of the window.
    variance: f64,
    /// Observations seen since the last detected drift.
    since_last_drift: u64,
    /// Check for cuts only every `clock` observations (standard optimisation).
    clock: u64,
    drift: bool,
}

impl MemoryUsage for Adwin {
    /// Heap bytes of the exponential-histogram bucket rows — the only
    /// growing state of the detector (`O(M log(W/M))` of the window).
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.rows)
            + self
                .rows
                .iter()
                .map(|row| vec_bytes(&row.totals) + vec_bytes(&row.variances))
                .sum::<usize>()
    }
}

impl Adwin {
    /// Create an ADWIN detector with confidence parameter `delta`
    /// (smaller = more conservative). The canonical default is `0.002`.
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        Self {
            delta,
            rows: vec![BucketRow::default()],
            width: 0,
            total: 0.0,
            variance: 0.0,
            since_last_drift: 0,
            clock: 32,
            drift: false,
        }
    }

    /// Current window length.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Mean of the current window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.width == 0 {
            0.0
        } else {
            self.total / self.width as f64
        }
    }

    /// Estimated variance of the current window.
    pub fn variance(&self) -> f64 {
        if self.width == 0 {
            0.0
        } else {
            self.variance / self.width as f64
        }
    }

    fn insert(&mut self, value: f64) {
        // Insert a new bucket of capacity 1 at row 0.
        if self.width > 0 {
            let mean = self.mean();
            self.variance +=
                (self.width as f64 / (self.width + 1) as f64) * (value - mean) * (value - mean);
        }
        self.width += 1;
        self.total += value;
        self.rows[0].totals.insert(0, value);
        self.rows[0].variances.insert(0, 0.0);
        self.compress();
    }

    fn compress(&mut self) {
        let mut row = 0;
        loop {
            if self.rows[row].totals.len() <= MAX_BUCKETS_PER_ROW {
                break;
            }
            // Merge the two oldest buckets of this row into one bucket of the
            // next row.
            if row + 1 == self.rows.len() {
                self.rows.push(BucketRow::default());
            }
            let n = self.rows[row].totals.len();
            let t1 = self.rows[row].totals.remove(n - 1);
            let v1 = self.rows[row].variances.remove(n - 1);
            let t2 = self.rows[row].totals.remove(n - 2);
            let v2 = self.rows[row].variances.remove(n - 2);
            let capacity = (1u64 << row) as f64;
            // Variance of the merged bucket (parallel combination).
            let mean1 = t1 / capacity;
            let mean2 = t2 / capacity;
            let merged_var = v1
                + v2
                + capacity * capacity / (2.0 * capacity) * (mean1 - mean2) * (mean1 - mean2);
            self.rows[row + 1].totals.insert(0, t1 + t2);
            self.rows[row + 1].variances.insert(0, merged_var);
            row += 1;
        }
    }

    /// Drop the oldest bucket (used when a cut is found).
    fn drop_oldest(&mut self) {
        let last_row = self.rows.len() - 1;
        let row_capacity = 1u64 << last_row;
        if let (Some(total), Some(_var)) = (
            self.rows[last_row].totals.pop(),
            self.rows[last_row].variances.pop(),
        ) {
            self.width -= row_capacity.min(self.width);
            self.total -= total;
        }
        if self.rows[last_row].totals.is_empty() && self.rows.len() > 1 {
            self.rows.pop();
        }
        // Recompute the variance approximately from the remaining window by
        // clamping it to a non-negative value proportional to the width.
        if self.width == 0 {
            self.variance = 0.0;
        }
    }

    fn detect_cut(&mut self) -> bool {
        if self.width < 16 {
            return false;
        }
        let total_width = self.width as f64;
        let total_sum = self.total;
        let variance = self.variance().max(1e-12);
        let delta_prime = self.delta / (total_width.ln().max(1.0));

        // Walk from the oldest bucket to the newest, maintaining the running
        // sum/width of the "old" sub-window W0.
        let mut w0_width = 0.0;
        let mut w0_sum = 0.0;
        let mut cut = false;
        'outer: for row in (0..self.rows.len()).rev() {
            let capacity = (1u64 << row) as f64;
            // Oldest buckets are at the end of each row.
            for i in (0..self.rows[row].totals.len()).rev() {
                w0_width += capacity;
                w0_sum += self.rows[row].totals[i];
                let w1_width = total_width - w0_width;
                if w1_width < 1.0 || w0_width < 1.0 {
                    continue;
                }
                let mean0 = w0_sum / w0_width;
                let mean1 = (total_sum - w0_sum) / w1_width;
                let m_recip = 1.0 / w0_width + 1.0 / w1_width;
                let eps = (2.0 * m_recip * variance * (2.0 / delta_prime).ln()).sqrt()
                    + 2.0 / 3.0 * m_recip * (2.0 / delta_prime).ln();
                if (mean0 - mean1).abs() > eps {
                    cut = true;
                    break 'outer;
                }
            }
        }
        cut
    }
}

impl DriftDetector for Adwin {
    fn update(&mut self, value: f64) -> bool {
        self.insert(value);
        self.since_last_drift += 1;
        self.drift = false;
        if self.since_last_drift.is_multiple_of(self.clock) {
            // Repeatedly drop old buckets while a significant cut exists.
            let mut any_cut = false;
            while self.detect_cut() {
                any_cut = true;
                self.drop_oldest();
                if self.width < 16 {
                    break;
                }
            }
            if any_cut {
                self.drift = true;
                self.since_last_drift = 0;
            }
        }
        self.drift
    }

    fn drift_detected(&self) -> bool {
        self.drift
    }

    fn reset(&mut self) {
        *self = Adwin::new(self.delta);
    }
}

impl Default for Adwin {
    /// Canonical `delta = 0.002`.
    fn default() -> Self {
        Self::new(0.002)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_drift_on_a_stationary_stream() {
        let mut adwin = Adwin::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut detections = 0;
        for _ in 0..5_000 {
            let v = if rng.gen::<f64>() < 0.3 { 1.0 } else { 0.0 };
            if adwin.update(v) {
                detections += 1;
            }
        }
        assert!(detections <= 2, "false positives: {detections}");
        assert!((adwin.mean() - 0.3).abs() < 0.1);
    }

    #[test]
    fn detects_an_abrupt_mean_shift() {
        let mut adwin = Adwin::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2_000 {
            adwin.update(if rng.gen::<f64>() < 0.1 { 1.0 } else { 0.0 });
        }
        let mut detected = false;
        for _ in 0..2_000 {
            if adwin.update(if rng.gen::<f64>() < 0.8 { 1.0 } else { 0.0 }) {
                detected = true;
                break;
            }
        }
        assert!(detected, "ADWIN missed an obvious 0.1 -> 0.8 shift");
    }

    #[test]
    fn window_shrinks_after_drift() {
        let mut adwin = Adwin::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3_000 {
            adwin.update(if rng.gen::<f64>() < 0.1 { 1.0 } else { 0.0 });
        }
        let width_before = adwin.width();
        for _ in 0..1_500 {
            adwin.update(if rng.gen::<f64>() < 0.9 { 1.0 } else { 0.0 });
        }
        assert!(
            adwin.width() < width_before + 1_500,
            "window should have dropped old data: before={width_before}, after={}",
            adwin.width()
        );
    }

    #[test]
    fn mean_tracks_recent_data_after_drift() {
        let mut adwin = Adwin::default();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3_000 {
            adwin.update(if rng.gen::<f64>() < 0.2 { 1.0 } else { 0.0 });
        }
        for _ in 0..3_000 {
            adwin.update(if rng.gen::<f64>() < 0.7 { 1.0 } else { 0.0 });
        }
        assert!(
            adwin.mean() > 0.5,
            "mean {} should track the new level",
            adwin.mean()
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut adwin = Adwin::default();
        for i in 0..100 {
            adwin.update((i % 2) as f64);
        }
        adwin.reset();
        assert_eq!(adwin.width(), 0);
        assert_eq!(adwin.mean(), 0.0);
        assert!(!adwin.drift_detected());
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn invalid_delta_panics() {
        let _ = Adwin::new(0.0);
    }

    #[test]
    fn width_grows_without_drift() {
        let mut adwin = Adwin::default();
        for _ in 0..1_000 {
            adwin.update(0.5);
        }
        assert_eq!(adwin.width(), 1_000);
    }

    #[test]
    fn gradual_drift_is_eventually_detected() {
        let mut adwin = Adwin::default();
        let mut rng = StdRng::seed_from_u64(8);
        let mut detected = false;
        for t in 0..20_000 {
            let p = 0.1 + 0.6 * (t as f64 / 20_000.0);
            if adwin.update(if rng.gen::<f64>() < p { 1.0 } else { 0.0 }) {
                detected = true;
            }
        }
        assert!(detected, "gradual drift went unnoticed");
    }
}
