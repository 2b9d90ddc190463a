//! Criterion micro-benchmarks of the drift detectors: per-observation update
//! cost of ADWIN and Page-Hinkley on stationary and drifting error streams.

use criterion::{criterion_group, criterion_main, Criterion};
use dmt::drift::{Adwin, DriftDetector, PageHinkley};
use std::hint::black_box;

fn error_stream(n: usize, drifting: bool) -> Vec<f64> {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let p = if drifting && i > n / 2 { 0.6 } else { 0.1 };
            if next() < p {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

fn bench_detectors(c: &mut Criterion) {
    let stationary = error_stream(10_000, false);
    let drifting = error_stream(10_000, true);
    let mut group = c.benchmark_group("drift_detector_10k_updates");

    group.bench_function("adwin_stationary", |b| {
        b.iter(|| {
            let mut detector = Adwin::default();
            for &v in &stationary {
                black_box(detector.update(v));
            }
        });
    });
    group.bench_function("adwin_drifting", |b| {
        b.iter(|| {
            let mut detector = Adwin::default();
            for &v in &drifting {
                black_box(detector.update(v));
            }
        });
    });
    group.bench_function("page_hinkley", |b| {
        b.iter(|| {
            let mut detector = PageHinkley::default();
            for &v in &drifting {
                black_box(detector.update(v));
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
