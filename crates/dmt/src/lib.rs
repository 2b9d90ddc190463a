//! # dmt — Dynamic Model Tree for interpretable data stream learning
//!
//! This is the facade crate of the workspace: it re-exports the public API of
//! every sub-crate and provides the [`zoo`] module, a small factory that
//! builds any of the paper's classifiers by name (used by the reproduction
//! harness, the examples and downstream users who want to compare models),
//! and the [`registry`] of named Dynamic Model Trees behind the serving
//! plane.
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`core`] | the Dynamic Model Tree ([`core::DynamicModelTree`], [`core::DmtConfig`]) |
//! | [`models`] | GLMs, Naive Bayes, AIC, the [`models::OnlineClassifier`] trait |
//! | [`stream`] | stream abstractions, generators, the Table I catalog, the named workload suite |
//! | [`drift`] | ADWIN and Page-Hinkley drift detectors |
//! | [`baselines`] | VFDT (MC/NBA), HT-Ada, EFDT, FIMT-DD |
//! | [`ensembles`] | Adaptive Random Forest, Leveraging Bagging, their worker pool ([`ensembles::Parallelism`]) |
//! | [`eval`] | prequential evaluation, metrics, traces |
//!
//! ## Quickstart
//!
//! ```
//! use dmt::prelude::*;
//!
//! // Build the paper's SEA stream (scaled down) and a Dynamic Model Tree.
//! let mut stream = dmt::stream::catalog::build_stream("SEA", 0.01, 42).unwrap();
//! let schema = stream.schema().clone();
//! let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
//!
//! // Prequential (test-then-train) evaluation.
//! let runner = PrequentialRun::new(PrequentialConfig::default());
//! let result = runner.evaluate(&mut tree, &mut stream, None);
//! let (f1, _std) = result.f1_mean_std();
//! assert!(f1 > 0.5);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use dmt_baselines as baselines;
pub use dmt_core as core;
pub use dmt_drift as drift;
pub use dmt_ensembles as ensembles;
pub use dmt_eval as eval;
pub use dmt_models as models;
pub use dmt_stream as stream;

pub mod registry;
pub mod zoo;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::core::{DmtConfig, DynamicModelTree};
    pub use crate::ensembles::Parallelism;
    pub use crate::eval::{PrequentialConfig, PrequentialResult, PrequentialRun};
    pub use crate::models::{BatchMode, Complexity, OnlineClassifier, SimpleModel};
    pub use crate::registry::{ModelRegistry, RegistryConfig, RegistryError};
    pub use crate::stream::{
        build_workload, build_workload_default, Batch, DataStream, Instance, StreamSchema,
        WorkloadInfo, WORKLOADS,
    };
    pub use crate::zoo::{build_model, ModelKind, ALL_MODELS, STANDALONE_MODELS};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_types() {
        let schema = StreamSchema::numeric("toy", 2, 2);
        let tree = DynamicModelTree::new(schema, DmtConfig::default());
        assert_eq!(tree.name(), "DMT");
    }

    #[test]
    fn facade_reexports_are_wired_together() {
        let mut stream = crate::stream::generators::SeaGenerator::new(0, 0.0, 1);
        let batch = crate::stream::DataStream::next_batch(&mut stream, 16).unwrap();
        assert_eq!(batch.len(), 16);
        let detector = crate::drift::Adwin::default();
        assert_eq!(detector.width(), 0);
        // The workload suite is part of the prelude surface.
        assert_eq!(WORKLOADS.len(), 5);
        assert!(WORKLOADS.iter().any(|w| w.name == "drift-cocktail"));
        assert!(WORKLOADS.iter().any(|w| w.name == "memory-budget"));
    }
}
