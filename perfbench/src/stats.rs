//! Order statistics over timing samples.

/// Linearly interpolated quantile `q` (0..=1) of `samples`, which it sorts
/// in place; 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Median of `values`, leaving their order alone.
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Mean over seeds of the median over each seed's repeats, for `(seed,
/// value)` pairs. Every seed weighs the same however many repeats it got, and
/// a repeat the host disturbed moves only its own seed's median.
pub fn per_seed_mean(samples: &[(u64, f64)]) -> f64 {
    let mut seeds: Vec<u64> = samples.iter().map(|s| s.0).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let medians = seeds.iter().map(|&seed| {
        let values: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 == seed)
            .map(|s| s.1)
            .collect();
        median(&values)
    });
    medians.sum::<f64>() / seeds.len().max(1) as f64
}

/// Microseconds between two instants.
pub fn us(from: std::time::Instant, to: std::time::Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64 / 1e3
}
