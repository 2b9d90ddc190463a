//! The experiment catalog: one entry per row of Table I.
//!
//! The catalog builds every stream exactly as the paper describes, scaled by
//! a user-supplied factor so the full reproduction finishes in minutes on a
//! laptop:
//!
//! * the ten real-world streams come from the simulators in [`crate::realworld`];
//! * SEA has four abrupt drifts at 20 %, 40 %, 60 % and 80 % of the stream;
//! * Agrawal has incremental drifts between 10–20 %, 30–50 % and 80–90 %;
//! * Hyperplane drifts continuously (the generator itself rotates).
//!
//! All synthetic streams use 10 % noise/perturbation and are min-max
//! normalised to `[0, 1]` like every other stream (§VI-B).
//!
//! Beyond Table I, the catalog also resolves the named file-backed workloads
//! of [`crate::workload`] (`elec-like`, `forest-like`, `fraud-like`,
//! `drift-cocktail`): [`build_stream`] recognises their names too, so every
//! harness binary can address them the same way it addresses a paper stream.
//! Workload datasets are pinned by construction — the `seed` argument is
//! ignored for them (documented on [`build_stream`]) and `scale` truncates
//! the stream instead of re-sizing the synthesis.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generators::agrawal::AgrawalGenerator;
use crate::generators::hyperplane::HyperplaneGenerator;
use crate::generators::sea::SeaGenerator;
use crate::instance::Instance;
use crate::realworld;
use crate::schema::StreamSchema;
use crate::stream::DataStream;
use crate::transform::{MinMaxNormalize, TakeStream};
use crate::workload;

/// Published metadata of one Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Data set name as printed in Table I.
    pub name: &'static str,
    /// Published number of samples.
    pub samples: u64,
    /// Number of features.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Published majority-class count (`None` for the synthetic streams,
    /// which Table I leaves blank).
    pub majority: Option<u64>,
    /// Whether the stream has documented concept drift.
    pub known_drift: Option<&'static str>,
}

/// Table I, in paper order.
pub const TABLE1: [DatasetInfo; 13] = [
    DatasetInfo {
        name: "Electricity",
        samples: 45_312,
        features: 8,
        classes: 2,
        majority: Some(26_075),
        known_drift: None,
    },
    DatasetInfo {
        name: "Airlines",
        samples: 539_383,
        features: 7,
        classes: 2,
        majority: Some(299_119),
        known_drift: None,
    },
    DatasetInfo {
        name: "Bank",
        samples: 45_211,
        features: 16,
        classes: 2,
        majority: Some(39_922),
        known_drift: None,
    },
    DatasetInfo {
        name: "TüEyeQ",
        samples: 15_762,
        features: 76,
        classes: 2,
        majority: Some(12_975),
        known_drift: Some("abrupt"),
    },
    DatasetInfo {
        name: "Poker-Hand",
        samples: 1_025_000,
        features: 10,
        classes: 9,
        majority: Some(513_701),
        known_drift: None,
    },
    DatasetInfo {
        name: "KDDCup",
        samples: 494_020,
        features: 41,
        classes: 23,
        majority: Some(280_790),
        known_drift: None,
    },
    DatasetInfo {
        name: "Covertype",
        samples: 581_012,
        features: 54,
        classes: 7,
        majority: Some(283_301),
        known_drift: None,
    },
    DatasetInfo {
        name: "Gas",
        samples: 13_910,
        features: 128,
        classes: 6,
        majority: Some(3_009),
        known_drift: None,
    },
    DatasetInfo {
        name: "Insects-Abrupt",
        samples: 355_275,
        features: 33,
        classes: 6,
        majority: Some(101_256),
        known_drift: Some("abrupt"),
    },
    DatasetInfo {
        name: "Insects-Incremental",
        samples: 452_044,
        features: 33,
        classes: 6,
        majority: Some(134_717),
        known_drift: Some("incremental"),
    },
    DatasetInfo {
        name: "SEA",
        samples: 1_000_000,
        features: 3,
        classes: 2,
        majority: None,
        known_drift: Some("abrupt"),
    },
    DatasetInfo {
        name: "Agrawal",
        samples: 1_000_000,
        features: 9,
        classes: 2,
        majority: None,
        known_drift: Some("incremental"),
    },
    DatasetInfo {
        name: "Hyperplane",
        samples: 500_000,
        features: 50,
        classes: 2,
        majority: None,
        known_drift: Some("incremental"),
    },
];

/// Names of the data sets with *known* concept drift, used by Fig. 3 and the
/// "performance for known drift" column of Table VI.
pub const KNOWN_DRIFT_NAMES: [&str; 6] = [
    "TüEyeQ",
    "Insects-Abrupt",
    "Insects-Incremental",
    "SEA",
    "Agrawal",
    "Hyperplane",
];

/// SEA stream as configured in the paper: four abrupt drifts at 20/40/60/80 %
/// of the stream, cycling through the classification functions, with 10 %
/// label noise.
pub struct SeaPaperStream {
    gen: SeaGenerator,
    num_samples: u64,
    emitted: u64,
}

impl SeaPaperStream {
    /// Create the stream with `num_samples` total instances.
    pub fn new(num_samples: u64, seed: u64) -> Self {
        Self {
            gen: SeaGenerator::new(0, 0.1, seed),
            num_samples,
            emitted: 0,
        }
    }

    fn active_function(&self) -> usize {
        // Drifts at 20/40/60/80 % → five segments cycling 0,1,2,3,0.
        let segment = (self.emitted * 5 / self.num_samples.max(1)).min(4) as usize;
        segment % 4
    }
}

impl DataStream for SeaPaperStream {
    fn schema(&self) -> &StreamSchema {
        self.gen.schema()
    }

    fn next_instance(&mut self) -> Option<Instance> {
        if self.emitted >= self.num_samples {
            return None;
        }
        let f = self.active_function();
        if f != self.gen.classification_function() {
            self.gen.set_classification_function(f);
        }
        self.emitted += 1;
        self.gen.next_instance()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.num_samples - self.emitted)
    }
}

/// Agrawal stream as configured in the paper: incremental drift between
/// 10–20 %, 30–50 % and 80–90 % of the stream (moving to the next
/// classification function with linearly increasing probability), otherwise
/// stable; 10 % feature perturbation.
pub struct AgrawalPaperStream {
    gen: AgrawalGenerator,
    rng: StdRng,
    num_samples: u64,
    emitted: u64,
}

/// The drift windows of the paper's Agrawal stream, as stream fractions.
pub const AGRAWAL_DRIFT_WINDOWS: [(f64, f64); 3] = [(0.1, 0.2), (0.3, 0.5), (0.8, 0.9)];

impl AgrawalPaperStream {
    /// Create the stream with `num_samples` total instances.
    pub fn new(num_samples: u64, seed: u64) -> Self {
        Self {
            gen: AgrawalGenerator::new(0, 0.1, seed),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_a11a),
            num_samples,
            emitted: 0,
        }
    }

    /// The classification function to use for the instance at position `t`,
    /// decided stochastically inside drift windows.
    fn function_at(&mut self, t: u64) -> usize {
        let frac = t as f64 / self.num_samples.max(1) as f64;
        // Base function = number of completed drift windows.
        let mut base = 0usize;
        for (i, &(from, until)) in AGRAWAL_DRIFT_WINDOWS.iter().enumerate() {
            if frac >= until {
                base = i + 1;
            } else if frac >= from {
                // Inside window i: mix base i and i+1 with linearly growing
                // probability of the new concept.
                let p_new = (frac - from) / (until - from);
                return if self.rng.gen::<f64>() < p_new {
                    i + 1
                } else {
                    i
                };
            }
        }
        base
    }
}

impl DataStream for AgrawalPaperStream {
    fn schema(&self) -> &StreamSchema {
        self.gen.schema()
    }

    fn next_instance(&mut self) -> Option<Instance> {
        if self.emitted >= self.num_samples {
            return None;
        }
        let f = self.function_at(self.emitted);
        if f != self.gen.classification_function() {
            self.gen.set_classification_function(f);
        }
        self.emitted += 1;
        self.gen.next_instance()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.num_samples - self.emitted)
    }
}

/// Per-feature `(min, max)` ranges of the Agrawal generator, used for the
/// paper's min-max normalization.
pub fn agrawal_ranges() -> Vec<(f64, f64)> {
    vec![
        (20_000.0, 150_000.0), // salary
        (0.0, 75_000.0),       // commission
        (20.0, 80.0),          // age
        (0.0, 4.0),            // elevel
        (1.0, 20.0),           // car
        (0.0, 8.0),            // zipcode
        (50_000.0, 900_000.0), // hvalue
        (1.0, 31.0),           // hyears
        (0.0, 500_000.0),      // loan
    ]
}

/// Build a Table I stream by name, scaled by `scale`, min-max normalised.
///
/// Returns `None` for unknown names. Streams come back boxed because the
/// concrete types differ per data set.
///
/// Names from [`crate::workload::WORKLOADS`] resolve too: those streams are
/// file-backed with pinned synthesis seeds, so `seed` is ignored for them
/// (determinism is the point of the accuracy gate they feed) and
/// `scale < 1.0` truncates the stream to the leading fraction. Building a
/// workload panics if its dataset directory cannot be written — file-system
/// failure is not a "dataset does not exist" condition.
pub fn build_stream(name: &str, scale: f64, seed: u64) -> Option<Box<dyn DataStream>> {
    if workload::workload_info(name).is_some() {
        let stream = workload::build_workload_default(name)
            .unwrap_or_else(|e| panic!("workload {name}: {e}"))
            .expect("workload_info and build_workload agree on names");
        if scale < 1.0 {
            let total = stream
                .remaining_hint()
                .expect("file-backed workloads know their length");
            let take = ((total as f64 * scale) as u64).max(1_000.min(total));
            return Some(Box::new(TakeStream::new(stream, take)));
        }
        return Some(stream);
    }
    let scaled = |published: u64| realworld::scaled_samples(published, scale);
    let stream: Box<dyn DataStream> = match name {
        "Electricity" => Box::new(realworld::electricity_sim(scale, seed)),
        "Airlines" => Box::new(realworld::airlines_sim(scale, seed)),
        "Bank" => Box::new(realworld::bank_sim(scale, seed)),
        "TüEyeQ" => Box::new(realworld::tueyeq_sim(scale, seed)),
        "Poker-Hand" => Box::new(realworld::poker_sim(scale, seed)),
        "KDDCup" => Box::new(realworld::kddcup_sim(scale, seed)),
        "Covertype" => Box::new(realworld::covertype_sim(scale, seed)),
        "Gas" => Box::new(realworld::gas_sim(scale, seed)),
        "Insects-Abrupt" => Box::new(realworld::insects_abrupt_sim(scale, seed)),
        "Insects-Incremental" => Box::new(realworld::insects_incremental_sim(scale, seed)),
        "SEA" => Box::new(MinMaxNormalize::with_ranges(
            SeaPaperStream::new(scaled(1_000_000), seed),
            vec![(0.0, 10.0); 3],
        )),
        "Agrawal" => Box::new(MinMaxNormalize::with_ranges(
            AgrawalPaperStream::new(scaled(1_000_000), seed),
            agrawal_ranges(),
        )),
        "Hyperplane" => Box::new(TakeStream::new(
            HyperplaneGenerator::paper_default(seed),
            scaled(500_000),
        )),
        _ => return None,
    };
    Some(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_thirteen_rows_matching_the_paper() {
        assert_eq!(TABLE1.len(), 13);
        let poker = TABLE1.iter().find(|d| d.name == "Poker-Hand").unwrap();
        assert_eq!(poker.samples, 1_025_000);
        assert_eq!(poker.classes, 9);
        assert_eq!(poker.majority, Some(513_701));
    }

    #[test]
    fn every_catalog_entry_builds_and_matches_its_schema() {
        for info in &TABLE1 {
            let mut stream = build_stream(info.name, 0.01, 7).unwrap();
            assert_eq!(
                stream.schema().num_features(),
                info.features,
                "{}",
                info.name
            );
            assert_eq!(stream.schema().num_classes, info.classes, "{}", info.name);
            let inst = stream.next_instance().unwrap();
            assert_eq!(inst.x.len(), info.features);
            assert!(inst.y < info.classes);
        }
    }

    #[test]
    fn unknown_name_returns_none() {
        assert!(build_stream("NotADataset", 1.0, 1).is_none());
    }

    #[test]
    fn workload_names_resolve_through_the_catalog() {
        // The seed argument is ignored for file-backed workloads: both
        // builds must produce the identical stream.
        let mut a = build_stream("drift-cocktail", 1.0, 1).unwrap();
        let mut b = build_stream("drift-cocktail", 1.0, 999).unwrap();
        assert_eq!(a.remaining_hint(), Some(24_000));
        for _ in 0..64 {
            assert_eq!(a.next_instance(), b.next_instance());
        }
        // Scaling truncates instead of re-synthesizing.
        let mut scaled = build_stream("elec-like", 0.1, 1).unwrap();
        assert_eq!(scaled.remaining_hint(), Some(2_000));
        let full = build_stream("elec-like", 1.0, 1).unwrap();
        assert_eq!(scaled.next_instance().unwrap().x.len(), 8);
        assert_eq!(full.schema().name, "elec-like");
    }

    #[test]
    fn sea_paper_stream_switches_concepts_four_times() {
        let mut s = SeaPaperStream::new(1_000, 3);
        let mut functions = Vec::new();
        for t in 0..1_000 {
            let _ = s.next_instance();
            if t % 100 == 0 {
                functions.push(s.gen.classification_function());
            }
        }
        // Five segments: 0,1,2,3,0.
        assert!(functions.contains(&0));
        assert!(functions.contains(&1));
        assert!(functions.contains(&2));
        assert!(functions.contains(&3));
    }

    #[test]
    fn sea_paper_stream_is_bounded_and_normalised_when_built_from_catalog() {
        let mut s = build_stream("SEA", 0.002, 5).unwrap();
        let mut count = 0u64;
        while let Some(inst) = s.next_instance() {
            assert!(inst.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
            count += 1;
        }
        assert_eq!(count, 2_000);
    }

    #[test]
    fn agrawal_paper_stream_moves_through_functions() {
        let mut s = AgrawalPaperStream::new(2_000, 9);
        let mut last_segment_function = 0;
        for t in 0..2_000u64 {
            let _ = s.next_instance();
            if t == 1_999 {
                last_segment_function = s.gen.classification_function();
            }
        }
        // After the final drift window (80–90 %) the base function is 3.
        assert_eq!(last_segment_function, 3);
    }

    #[test]
    fn agrawal_function_at_is_monotone_outside_windows() {
        let mut s = AgrawalPaperStream::new(10_000, 1);
        assert_eq!(s.function_at(0), 0);
        assert_eq!(s.function_at(2_500), 1); // after the first window
        assert_eq!(s.function_at(6_000), 2); // after the second window
        assert_eq!(s.function_at(9_500), 3); // after the third window
    }

    #[test]
    fn known_drift_names_are_a_subset_of_table1() {
        for name in KNOWN_DRIFT_NAMES {
            assert!(TABLE1.iter().any(|d| d.name == name), "{name} missing");
        }
    }

    #[test]
    fn hyperplane_catalog_stream_is_truncated() {
        let mut s = build_stream("Hyperplane", 0.002, 2).unwrap();
        assert_eq!(s.remaining_hint(), Some(1_000));
        let mut count = 0;
        while s.next_instance().is_some() {
            count += 1;
        }
        assert_eq!(count, 1_000);
    }
}
