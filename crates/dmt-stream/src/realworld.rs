//! Synthetic simulators for the real-world tabular streams of Table I.
//!
//! The paper evaluates on ten real-world data sets (Electricity, Airlines,
//! Bank, TüEyeQ, Poker-Hand, KDD Cup 1999, Covertype, Gas, Insects-Abrupt and
//! Insects-Incremental). Those files are proprietary or hosted on OpenML/UCI
//! and are not available in this offline reproduction, so each data set is
//! replaced by a *simulator*: a drifting Gaussian-mixture stream that matches
//! the published
//!
//! * number of samples (optionally scaled down),
//! * number of features,
//! * number of classes,
//! * majority-class ratio (class imbalance), and
//! * drift type (none / abrupt / incremental) where the paper documents it.
//!
//! The evaluation conclusions of the paper rest on exactly these properties —
//! never on the semantic meaning of individual columns — so the simulators
//! exercise the same code paths and stress the same model behaviours
//! (imbalance-robust F1, drift adaptation, high-dimensional split finding).
//!
//! For users who *do* hold a copy of the original files, [`load_csv`] reads a
//! numeric CSV (features first, integer class label last, optional header)
//! into a [`MaterializedStream`]. Every malformed input — an unparsable
//! float, a row with the wrong number of columns, an empty file, a hostile
//! label — is a typed [`CsvError`], never a panic.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

use crate::instance::Instance;
use crate::schema::{FeatureSpec, StreamSchema};
use crate::stream::{DataStream, MaterializedStream};

/// A scheduled concept-drift event inside a [`ConceptSim`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriftEvent {
    /// Re-randomise a fraction of the cluster centres at `at` (fraction of the
    /// stream length in `[0, 1]`).
    Abrupt {
        /// Position as a fraction of the stream length.
        at: f64,
    },
    /// Linearly move the cluster centres towards new random targets between
    /// the `from` and `until` stream fractions.
    Incremental {
        /// Start position as a fraction of the stream length.
        from: f64,
        /// End position as a fraction of the stream length.
        until: f64,
    },
}

/// Specification of a simulated real-world stream.
#[derive(Debug, Clone)]
pub struct ConceptSimSpec {
    /// Display name, e.g. `"Electricity (sim)"`.
    pub name: String,
    /// Total number of instances to emit.
    pub num_samples: u64,
    /// Number of features.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Fraction of instances belonging to the majority class (class 0).
    pub majority_fraction: f64,
    /// Number of Gaussian clusters per class (boundary complexity).
    pub clusters_per_class: usize,
    /// Standard deviation of each cluster.
    pub cluster_std: f64,
    /// Label-noise probability (keeps the problem from being perfectly
    /// separable, as real data never is).
    pub label_noise: f64,
    /// Scheduled drift events.
    pub drift: Vec<DriftEvent>,
}

impl ConceptSimSpec {
    fn class_priors(&self) -> Vec<f64> {
        let c = self.num_classes;
        let mut priors = vec![0.0; c];
        priors[0] = self.majority_fraction;
        if c > 1 {
            let rest = (1.0 - self.majority_fraction) / (c - 1) as f64;
            for p in priors.iter_mut().skip(1) {
                *p = rest;
            }
        }
        priors
    }
}

#[derive(Debug, Clone)]
struct Cluster {
    class: usize,
    center: Vec<f64>,
    /// Target centre for incremental drift (if any).
    target: Vec<f64>,
}

/// A drifting Gaussian-mixture stream following a [`ConceptSimSpec`].
pub struct ConceptSim {
    spec: ConceptSimSpec,
    schema: StreamSchema,
    rng: StdRng,
    clusters: Vec<Cluster>,
    priors: Vec<f64>,
    emitted: u64,
    /// Index of the next drift event to process.
    next_event: usize,
    /// Active incremental drift window `(start, end)` in instance counts.
    active_incremental: Option<(u64, u64)>,
}

impl ConceptSim {
    /// Create a simulator from a spec and seed.
    pub fn new(spec: ConceptSimSpec, seed: u64) -> Self {
        assert!(spec.num_classes >= 2);
        assert!(spec.clusters_per_class >= 1);
        assert!(
            spec.majority_fraction > 0.0 && spec.majority_fraction < 1.0,
            "majority fraction must be in (0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clusters = Vec::new();
        for class in 0..spec.num_classes {
            for _ in 0..spec.clusters_per_class {
                let center: Vec<f64> = (0..spec.num_features)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                clusters.push(Cluster {
                    class,
                    center: center.clone(),
                    target: center,
                });
            }
        }
        let priors = spec.class_priors();
        let schema = StreamSchema::numeric(spec.name.clone(), spec.num_features, spec.num_classes);
        let mut drift = spec.drift.clone();
        drift.sort_by(|a, b| {
            let pa = match a {
                DriftEvent::Abrupt { at } => *at,
                DriftEvent::Incremental { from, .. } => *from,
            };
            let pb = match b {
                DriftEvent::Abrupt { at } => *at,
                DriftEvent::Incremental { from, .. } => *from,
            };
            pa.partial_cmp(&pb).expect("drift positions must be finite")
        });
        let spec = ConceptSimSpec { drift, ..spec };
        Self {
            spec,
            schema,
            rng,
            clusters,
            priors,
            emitted: 0,
            next_event: 0,
            active_incremental: None,
        }
    }

    /// The spec this simulator was built from.
    pub fn spec(&self) -> &ConceptSimSpec {
        &self.spec
    }

    fn sample_class(&mut self) -> usize {
        let r: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (class, &p) in self.priors.iter().enumerate() {
            acc += p;
            if r < acc {
                return class;
            }
        }
        self.priors.len() - 1
    }

    fn reshuffle_clusters(&mut self, fraction: f64) {
        let m = self.spec.num_features;
        for i in 0..self.clusters.len() {
            if self.rng.gen::<f64>() < fraction {
                let center: Vec<f64> = (0..m).map(|_| self.rng.gen_range(0.0..1.0)).collect();
                self.clusters[i].center = center.clone();
                self.clusters[i].target = center;
            }
        }
    }

    fn start_incremental(&mut self, from: u64, until: u64) {
        let m = self.spec.num_features;
        for i in 0..self.clusters.len() {
            self.clusters[i].target = (0..m).map(|_| self.rng.gen_range(0.0..1.0)).collect();
        }
        self.active_incremental = Some((from, until));
    }

    fn process_drift_schedule(&mut self) {
        let n = self.spec.num_samples.max(1);
        // Trigger newly reached events.
        while self.next_event < self.spec.drift.len() {
            let event = self.spec.drift[self.next_event].clone();
            let start = match &event {
                DriftEvent::Abrupt { at } => (*at * n as f64) as u64,
                DriftEvent::Incremental { from, .. } => (*from * n as f64) as u64,
            };
            if self.emitted < start {
                break;
            }
            match event {
                DriftEvent::Abrupt { .. } => self.reshuffle_clusters(0.5),
                DriftEvent::Incremental { from, until } => {
                    let from_i = (from * n as f64) as u64;
                    let until_i = (until * n as f64) as u64;
                    self.start_incremental(from_i, until_i.max(from_i + 1));
                }
            }
            self.next_event += 1;
        }
        // Advance any active incremental drift.
        if let Some((from, until)) = self.active_incremental {
            if self.emitted >= until {
                // Snap to targets and finish.
                for c in self.clusters.iter_mut() {
                    c.center = c.target.clone();
                }
                self.active_incremental = None;
            } else if self.emitted >= from {
                let remaining = (until - self.emitted) as f64;
                for c in self.clusters.iter_mut() {
                    for (pos, tgt) in c.center.iter_mut().zip(c.target.iter()) {
                        *pos += (tgt - *pos) / remaining;
                    }
                }
            }
        }
    }
}

impl DataStream for ConceptSim {
    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_instance(&mut self) -> Option<Instance> {
        if self.emitted >= self.spec.num_samples {
            return None;
        }
        self.process_drift_schedule();
        let class = self.sample_class();
        // Pick one of the class's clusters uniformly.
        let candidates: Vec<usize> = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.class == class)
            .map(|(i, _)| i)
            .collect();
        let idx = candidates[self.rng.gen_range(0..candidates.len())];
        let normal = Normal::new(0.0, self.spec.cluster_std).expect("std > 0");
        let x: Vec<f64> = self.clusters[idx]
            .center
            .iter()
            .map(|&c| (c + normal.sample(&mut self.rng)).clamp(0.0, 1.0))
            .collect();
        let mut y = class;
        if self.spec.label_noise > 0.0 && self.rng.gen::<f64>() < self.spec.label_noise {
            let c = self.spec.num_classes;
            y = (y + self.rng.gen_range(1..c)) % c;
        }
        self.emitted += 1;
        Some(Instance::new(x, y))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.spec.num_samples - self.emitted)
    }
}

/// Scale a published sample count by `scale`, keeping at least 1,000
/// instances so the prequential batches (0.1 %) stay non-trivial.
pub fn scaled_samples(published: u64, scale: f64) -> u64 {
    ((published as f64 * scale) as u64).max(1_000)
}

macro_rules! simulator {
    (
        $(#[$doc:meta])*
        $fn_name:ident, $name:expr, $samples:expr, $features:expr, $classes:expr,
        $majority:expr, $clusters:expr, $std:expr, $noise:expr, [$($drift:expr),*]
    ) => {
        $(#[$doc])*
        pub fn $fn_name(scale: f64, seed: u64) -> ConceptSim {
            ConceptSim::new(
                ConceptSimSpec {
                    name: format!("{} (sim)", $name),
                    num_samples: scaled_samples($samples, scale),
                    num_features: $features,
                    num_classes: $classes,
                    majority_fraction: $majority,
                    clusters_per_class: $clusters,
                    cluster_std: $std,
                    label_noise: $noise,
                    drift: vec![$($drift),*],
                },
                seed,
            )
        }
    };
}

simulator!(
    /// Electricity (NSW electricity market): 45,312 × 8, binary, 57.5 %
    /// majority; price/demand fluctuations are modelled as recurring mild
    /// abrupt drifts.
    electricity_sim, "Electricity", 45_312, 8, 2, 0.575, 2, 0.12, 0.08,
    [DriftEvent::Abrupt { at: 0.25 }, DriftEvent::Abrupt { at: 0.5 }, DriftEvent::Abrupt { at: 0.75 }]
);

simulator!(
    /// Airlines (flight-delay prediction): 539,383 × 7, binary, 55.5 %
    /// majority; slow seasonal change modelled as one long incremental drift.
    airlines_sim, "Airlines", 539_383, 7, 2, 0.555, 3, 0.15, 0.15,
    [DriftEvent::Incremental { from: 0.3, until: 0.9 }]
);

simulator!(
    /// Bank marketing: 45,211 × 16, binary, 88.3 % majority, no documented
    /// drift.
    bank_sim, "Bank", 45_211, 16, 2, 0.883, 2, 0.14, 0.06,
    []
);

simulator!(
    /// TüEyeQ (IQ-test performance): 15,762 × 76, binary, 82.3 % majority;
    /// four task blocks of increasing difficulty create three abrupt drifts.
    tueyeq_sim, "TüEyeQ", 15_762, 76, 2, 0.823, 1, 0.18, 0.1,
    [DriftEvent::Abrupt { at: 0.25 }, DriftEvent::Abrupt { at: 0.5 }, DriftEvent::Abrupt { at: 0.75 }]
);

simulator!(
    /// Poker-Hand: 1,025,000 × 10, 9 classes (paper counts 9 occupied
    /// classes), 50.1 % majority, stationary but highly non-linear — modelled
    /// with many clusters per class.
    poker_sim, "Poker-Hand", 1_025_000, 10, 9, 0.501, 4, 0.09, 0.1,
    []
);

simulator!(
    /// KDD Cup 1999 intrusion detection: 494,020 × 41, 23 classes, 56.8 %
    /// majority; the paper shuffles it, so no drift is simulated.
    kddcup_sim, "KDDCup", 494_020, 41, 23, 0.568, 1, 0.08, 0.02,
    []
);

simulator!(
    /// Covertype: 581,012 × 54, 7 classes, 48.8 % majority, stationary with a
    /// complex boundary.
    covertype_sim, "Covertype", 581_012, 54, 7, 0.488, 3, 0.1, 0.08,
    []
);

simulator!(
    /// Gas sensor drift: 13,910 × 128, 6 classes, 21.6 % majority; chemical
    /// sensor drift modelled as incremental drift across the whole stream.
    gas_sim, "Gas", 13_910, 128, 6, 0.216, 1, 0.1, 0.05,
    [DriftEvent::Incremental { from: 0.1, until: 0.95 }]
);

simulator!(
    /// Insects-Abrupt: 355,275 × 33, 6 classes, 28.5 % majority; the authors
    /// induced abrupt drifts by changing temperature/humidity.
    insects_abrupt_sim, "Insects-Abrupt", 355_275, 33, 6, 0.285, 2, 0.11, 0.1,
    [DriftEvent::Abrupt { at: 0.2 }, DriftEvent::Abrupt { at: 0.4 }, DriftEvent::Abrupt { at: 0.6 }, DriftEvent::Abrupt { at: 0.8 }]
);

simulator!(
    /// Insects-Incremental: 452,044 × 33, 6 classes, 29.8 % majority;
    /// incremental drift across the whole stream.
    insects_incremental_sim, "Insects-Incremental", 452_044, 33, 6, 0.298, 2, 0.11, 0.1,
    [DriftEvent::Incremental { from: 0.1, until: 0.95 }]
);

/// Largest class label a CSV file may carry.
///
/// The label space sizes every per-class allocation downstream (class counts,
/// observer rows, softmax weights), so a hostile file claiming class
/// `18446744073709551615` must be rejected here rather than turned into a
/// memory bomb later.
pub const MAX_CSV_CLASSES: usize = 1 << 12;

/// Why a CSV stream failed to load.
#[derive(Debug)]
pub enum CsvError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file contains no data rows (it may still contain a header).
    Empty,
    /// A row has a different number of columns than the first row.
    ShortRow {
        /// 1-based line number in the file.
        line: usize,
        /// Columns the first row established.
        expected: usize,
        /// Columns this row actually has.
        found: usize,
    },
    /// A feature cell does not parse as a finite `f64`.
    BadFloat {
        /// 1-based line number in the file.
        line: usize,
        /// 1-based column number of the offending cell, consistent with the
        /// 1-based line so an error position can be pasted into an editor's
        /// go-to-line:column as-is.
        column: usize,
        /// The offending cell text.
        value: String,
    },
    /// The label cell is not an integer in `0..MAX_CSV_CLASSES`.
    BadLabel {
        /// 1-based line number in the file.
        line: usize,
        /// The offending cell text.
        value: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv: {e}"),
            CsvError::Empty => write!(f, "csv: no data rows"),
            CsvError::ShortRow {
                line,
                expected,
                found,
            } => write!(
                f,
                "csv: line {line} has {found} columns, expected {expected}"
            ),
            CsvError::BadFloat {
                line,
                column,
                value,
            } => write!(
                f,
                "csv: line {line}, column {column}: {value:?} is not a finite number"
            ),
            CsvError::BadLabel { line, value } => write!(
                f,
                "csv: line {line}: label {value:?} is not an integer in 0..{MAX_CSV_CLASSES}"
            ),
        }
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parse CSV text into a [`MaterializedStream`].
///
/// Format: comma-separated rows, all feature columns first and the integer
/// class label last. Blank lines are skipped. If any cell of the first
/// non-blank row fails to parse as a number the row is taken as a header and
/// its names become the feature names; otherwise features are named
/// `x0..x{m-1}`. Every row must have the same number of columns as the first,
/// every feature must be a finite float, and every label an integer in
/// `0..`[`MAX_CSV_CLASSES`]. `num_classes` is `max(label) + 1`, floored at 2
/// so a degenerate single-class file still yields a valid binary schema.
pub fn parse_csv(name: &str, text: &str) -> Result<MaterializedStream, CsvError> {
    // (1-based line number, cells) for every non-blank line.
    let mut rows = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_end_matches('\r')))
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i, l.split(',').map(str::trim).collect::<Vec<_>>()));

    let Some((first_line, first_cells)) = rows.next() else {
        return Err(CsvError::Empty);
    };
    let columns = first_cells.len();
    if columns < 2 {
        // A data row needs at least one feature plus the label.
        return Err(CsvError::ShortRow {
            line: first_line,
            expected: 2,
            found: columns,
        });
    }
    let is_header = first_cells.iter().any(|cell| cell.parse::<f64>().is_err());
    let feature_names: Vec<String> = if is_header {
        first_cells
            .iter()
            .take(columns.saturating_sub(1))
            .map(|s| s.to_string())
            .collect()
    } else {
        (0..columns.saturating_sub(1))
            .map(|i| format!("x{i}"))
            .collect()
    };

    let mut data = Vec::new();
    let mut max_label = 0usize;
    let mut parse_row = |line: usize, cells: &[&str]| -> Result<(), CsvError> {
        if cells.len() != columns {
            return Err(CsvError::ShortRow {
                line,
                expected: columns,
                found: cells.len(),
            });
        }
        let (label_cell, feature_cells) = cells.split_last().expect("columns >= 1");
        let mut x = Vec::with_capacity(feature_cells.len());
        for (index, cell) in feature_cells.iter().enumerate() {
            let column = index + 1;
            let v: f64 = cell.parse().map_err(|_| CsvError::BadFloat {
                line,
                column,
                value: cell.to_string(),
            })?;
            if !v.is_finite() {
                return Err(CsvError::BadFloat {
                    line,
                    column,
                    value: cell.to_string(),
                });
            }
            x.push(v);
        }
        let y: usize = label_cell
            .parse()
            .ok()
            .filter(|&y| y < MAX_CSV_CLASSES)
            .ok_or_else(|| CsvError::BadLabel {
                line,
                value: label_cell.to_string(),
            })?;
        max_label = max_label.max(y);
        data.push(Instance::new(x, y));
        Ok(())
    };

    if !is_header {
        parse_row(first_line, &first_cells)?;
    }
    for (line, cells) in rows {
        parse_row(line, &cells)?;
    }
    if data.is_empty() {
        return Err(CsvError::Empty);
    }

    let features = feature_names
        .into_iter()
        .map(FeatureSpec::numeric)
        .collect();
    let schema = StreamSchema::new(name, features, (max_label + 1).max(2));
    Ok(MaterializedStream::new(schema, data))
}

/// Load a CSV file (see [`parse_csv`] for the accepted format). The stream is
/// named after the file stem.
pub fn load_csv(path: impl AsRef<Path>) -> Result<MaterializedStream, CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "csv".to_string());
    let text = fs::read_to_string(path)?;
    parse_csv(&name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(drift: Vec<DriftEvent>) -> ConceptSimSpec {
        ConceptSimSpec {
            name: "test".to_string(),
            num_samples: 5_000,
            num_features: 4,
            num_classes: 3,
            majority_fraction: 0.6,
            clusters_per_class: 2,
            cluster_std: 0.05,
            label_noise: 0.0,
            drift,
        }
    }

    #[test]
    fn emits_exactly_num_samples() {
        let mut sim = ConceptSim::new(small_spec(vec![]), 1);
        let mut count = 0;
        while sim.next_instance().is_some() {
            count += 1;
        }
        assert_eq!(count, 5_000);
        assert!(sim.next_instance().is_none());
    }

    #[test]
    fn class_imbalance_matches_majority_fraction() {
        let mut sim = ConceptSim::new(small_spec(vec![]), 7);
        let mut majority = 0u64;
        let n = 5_000;
        for _ in 0..n {
            if sim.next_instance().unwrap().y == 0 {
                majority += 1;
            }
        }
        let rate = majority as f64 / n as f64;
        assert!((rate - 0.6).abs() < 0.05, "majority rate {rate}");
    }

    #[test]
    fn features_stay_in_unit_interval() {
        let mut sim = ConceptSim::new(small_spec(vec![]), 3);
        for _ in 0..500 {
            let inst = sim.next_instance().unwrap();
            assert!(inst.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(inst.y < 3);
        }
    }

    #[test]
    fn abrupt_drift_moves_cluster_centres() {
        let mut sim = ConceptSim::new(small_spec(vec![DriftEvent::Abrupt { at: 0.5 }]), 11);
        for _ in 0..1_000 {
            let _ = sim.next_instance();
        }
        let before: Vec<Vec<f64>> = sim.clusters.iter().map(|c| c.center.clone()).collect();
        for _ in 0..2_000 {
            let _ = sim.next_instance();
        }
        let after: Vec<Vec<f64>> = sim.clusters.iter().map(|c| c.center.clone()).collect();
        let moved = before
            .iter()
            .zip(after.iter())
            .any(|(a, b)| a.iter().zip(b.iter()).any(|(x, y)| (x - y).abs() > 1e-6));
        assert!(moved, "abrupt drift should relocate at least one cluster");
    }

    #[test]
    fn incremental_drift_moves_centres_gradually() {
        let mut sim = ConceptSim::new(
            small_spec(vec![DriftEvent::Incremental {
                from: 0.2,
                until: 0.8,
            }]),
            13,
        );
        for _ in 0..1_100 {
            let _ = sim.next_instance();
        }
        let early: Vec<Vec<f64>> = sim.clusters.iter().map(|c| c.center.clone()).collect();
        for _ in 0..1_000 {
            let _ = sim.next_instance();
        }
        let mid: Vec<Vec<f64>> = sim.clusters.iter().map(|c| c.center.clone()).collect();
        let moved = early
            .iter()
            .zip(mid.iter())
            .any(|(a, b)| a.iter().zip(b.iter()).any(|(x, y)| (x - y).abs() > 1e-4));
        assert!(
            moved,
            "incremental drift should move centres during the window"
        );
        // Still within bounds.
        for c in &sim.clusters {
            assert!(c.center.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ConceptSim::new(small_spec(vec![DriftEvent::Abrupt { at: 0.3 }]), 42);
        let mut b = ConceptSim::new(small_spec(vec![DriftEvent::Abrupt { at: 0.3 }]), 42);
        for _ in 0..200 {
            assert_eq!(a.next_instance(), b.next_instance());
        }
    }

    #[test]
    fn scaled_samples_has_a_floor() {
        assert_eq!(scaled_samples(1_000_000, 0.05), 50_000);
        assert_eq!(scaled_samples(10_000, 0.001), 1_000);
        assert_eq!(scaled_samples(45_312, 1.0), 45_312);
    }

    #[test]
    fn table1_simulators_match_published_dimensions() {
        let cases: Vec<(ConceptSim, usize, usize)> = vec![
            (electricity_sim(1.0, 1), 8, 2),
            (airlines_sim(1.0, 1), 7, 2),
            (bank_sim(1.0, 1), 16, 2),
            (tueyeq_sim(1.0, 1), 76, 2),
            (poker_sim(1.0, 1), 10, 9),
            (kddcup_sim(1.0, 1), 41, 23),
            (covertype_sim(1.0, 1), 54, 7),
            (gas_sim(1.0, 1), 128, 6),
            (insects_abrupt_sim(1.0, 1), 33, 6),
            (insects_incremental_sim(1.0, 1), 33, 6),
        ];
        for (sim, features, classes) in cases {
            assert_eq!(sim.schema().num_features(), features, "{}", sim.spec().name);
            assert_eq!(sim.schema().num_classes, classes, "{}", sim.spec().name);
        }
    }

    #[test]
    fn table1_simulators_match_published_sample_counts_at_full_scale() {
        assert_eq!(electricity_sim(1.0, 1).spec().num_samples, 45_312);
        assert_eq!(airlines_sim(1.0, 1).spec().num_samples, 539_383);
        assert_eq!(poker_sim(1.0, 1).spec().num_samples, 1_025_000);
        assert_eq!(insects_incremental_sim(1.0, 1).spec().num_samples, 452_044);
    }

    #[test]
    #[should_panic(expected = "majority fraction")]
    fn invalid_majority_fraction_panics() {
        let mut spec = small_spec(vec![]);
        spec.majority_fraction = 1.0;
        let _ = ConceptSim::new(spec, 1);
    }

    #[test]
    fn csv_parses_a_header_and_data_rows() {
        let text = "age,height,label\n1.5,2.0,0\n3.25,-4.0,1\n\n0.0,1e3,2\n";
        let mut stream = parse_csv("toy", text).unwrap();
        assert_eq!(stream.schema().name, "toy");
        assert_eq!(stream.schema().num_features(), 2);
        assert_eq!(stream.schema().features[0].name, "age");
        assert_eq!(stream.schema().features[1].name, "height");
        assert_eq!(stream.schema().num_classes, 3);
        assert_eq!(stream.total_len(), 3);
        let first = stream.next_instance().unwrap();
        assert_eq!(first, Instance::new(vec![1.5, 2.0], 0));
        assert_eq!(stream.instances()[2], Instance::new(vec![0.0, 1e3], 2));
    }

    #[test]
    fn csv_without_header_names_features_anonymously() {
        let stream = parse_csv("raw", "0.5,1\r\n0.25,0\r\n").unwrap();
        assert_eq!(stream.schema().features[0].name, "x0");
        assert_eq!(stream.schema().num_features(), 1);
        assert_eq!(stream.total_len(), 2);
        // A single-class file still yields a valid binary schema.
        let degenerate = parse_csv("one", "1.0,0\n2.0,0\n").unwrap();
        assert_eq!(degenerate.schema().num_classes, 2);
    }

    #[test]
    fn csv_rejects_a_bad_float_with_its_position() {
        let err = parse_csv("bad", "1.0,2.0,0\n1.0,oops,1\n").unwrap_err();
        match err {
            CsvError::BadFloat {
                line,
                column,
                value,
            } => {
                assert_eq!((line, column), (2, 2), "line and column are both 1-based");
                assert_eq!(value, "oops");
            }
            other => panic!("expected BadFloat, got {other}"),
        }
        // Non-finite floats are hostile input, not data.
        for cell in ["NaN", "inf", "-inf"] {
            let text = format!("1.0,{cell},0\n");
            assert!(matches!(
                parse_csv("bad", &text).unwrap_err(),
                CsvError::BadFloat {
                    line: 1,
                    column: 2,
                    ..
                }
            ));
        }
    }

    #[test]
    fn csv_error_lines_count_the_header_as_line_one() {
        // With a header the first data row is file line 2, and error
        // positions must report *file* lines — a reader jumping to the
        // reported line in an editor must land on the offending row, not one
        // above it.
        let err = parse_csv("bad", "age,height,label\n1.0,oops,0\n").unwrap_err();
        match err {
            CsvError::BadFloat { line, column, .. } => assert_eq!((line, column), (2, 2)),
            other => panic!("expected BadFloat, got {other}"),
        }
        let err = parse_csv("bad", "age,height,label\n1.0,2.0,0\n3.0,1\n").unwrap_err();
        assert!(matches!(
            err,
            CsvError::ShortRow {
                line: 3,
                expected: 3,
                found: 2
            }
        ));
        let err = parse_csv("bad", "age,label\n1.0,0\n2.0,-7\n").unwrap_err();
        assert!(matches!(err, CsvError::BadLabel { line: 3, .. }));
    }

    #[test]
    fn csv_error_lines_count_blank_lines() {
        // Blank lines are skipped as data but still occupy file lines; the
        // reported position must stay aligned with the file.
        let err = parse_csv("bad", "age,label\n\n1.0,0\n\n\nnope,1\n").unwrap_err();
        match err {
            CsvError::BadFloat { line, column, .. } => assert_eq!((line, column), (6, 1)),
            other => panic!("expected BadFloat, got {other}"),
        }
    }

    #[test]
    fn csv_rejects_rows_with_the_wrong_width() {
        let err = parse_csv("bad", "1.0,2.0,0\n3.0,1\n").unwrap_err();
        assert!(matches!(
            err,
            CsvError::ShortRow {
                line: 2,
                expected: 3,
                found: 2
            }
        ));
        // Over-long rows are just as malformed as short ones.
        assert!(matches!(
            parse_csv("bad", "1.0,0\n1.0,2.0,0\n").unwrap_err(),
            CsvError::ShortRow {
                line: 2,
                expected: 2,
                found: 3
            }
        ));
        // A single column cannot carry both a feature and the label.
        assert!(matches!(
            parse_csv("bad", "42\n").unwrap_err(),
            CsvError::ShortRow {
                line: 1,
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn csv_rejects_empty_input() {
        for text in ["", "\n\n", "  \n\t\n", "age,label\n"] {
            assert!(
                matches!(parse_csv("empty", text).unwrap_err(), CsvError::Empty),
                "must be Empty: {text:?}"
            );
        }
    }

    #[test]
    fn csv_rejects_hostile_labels() {
        for label in ["-1", "1.5", "18446744073709551615", "9999999", "cat"] {
            // A clean first row keeps the hostile one from being mistaken for
            // a header.
            let text = format!("1.0,0\n2.0,{label}\n");
            let err = parse_csv("bad", &text).unwrap_err();
            match err {
                CsvError::BadLabel { line: 2, value } => assert_eq!(value, label),
                other => panic!("expected BadLabel for {label:?}, got {other}"),
            }
        }
        // The largest accepted label sits just under the cap.
        let text = format!("1.0,{}\n", MAX_CSV_CLASSES - 1);
        let stream = parse_csv("edge", &text).unwrap();
        assert_eq!(stream.schema().num_classes, MAX_CSV_CLASSES);
    }

    #[test]
    fn csv_loads_from_a_file_and_reports_io_errors() {
        let dir = std::env::temp_dir().join(format!("dmt-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("electricity.csv");
        std::fs::write(&path, "0.1,0.9,0\n0.8,0.2,1\n").unwrap();
        let stream = load_csv(&path).unwrap();
        assert_eq!(stream.schema().name, "electricity");
        assert_eq!(stream.total_len(), 2);
        assert_eq!(stream.schema().num_classes, 2);

        let missing = load_csv(dir.join("not-there.csv")).unwrap_err();
        assert!(matches!(missing, CsvError::Io(_)));
        assert!(missing.source().is_some(), "Io keeps its source error");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
