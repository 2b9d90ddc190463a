//! # dmt-stream
//!
//! Data-stream abstractions for the Dynamic Model Tree reproduction:
//!
//! * [`schema`] — feature/label schema descriptions ([`schema::StreamSchema`]).
//! * [`instance`] — [`instance::Instance`] and [`instance::Batch`] containers.
//! * [`stream`] — the [`stream::DataStream`] trait plus an in-memory stream.
//! * [`generators`] — faithful re-implementations of the scikit-multiflow
//!   synthetic generators used in the paper (SEA, Agrawal, Hyperplane) plus
//!   RandomRBF, one of the throughput benchmark's streams.
//! * [`drift`] — drift composition: abrupt concept switches and gradual
//!   (sigmoid-weighted) transitions.
//! * [`realworld`] — synthetic *simulators* for the real-world tabular data
//!   sets of Table I (Electricity, Airlines, Bank, TüEyeQ, Poker, KDD,
//!   Covertype, Gas, Insects). The originals are not redistributable /
//!   available offline; the simulators match the published number of samples
//!   (scaled), features, classes, class imbalance and drift type. The
//!   [`realworld`] module docs give the substitution argument. For users
//!   holding the original files, [`realworld::load_csv`] reads a numeric CSV
//!   into a [`MaterializedStream`] with typed [`realworld::CsvError`]s for
//!   every malformed input.
//! * [`transform`] — min-max normalization and stream truncation/scaling
//!   utilities used by the evaluation harness.
//! * [`workload`] — named real-world-style workloads backed by
//!   deterministically synthesized CSV files (pinned seeds, byte-stable,
//!   generated once into `results/datasets/`) and loaded through the
//!   [`realworld::load_csv`] file path: electricity-like series,
//!   covertype-like high-cardinality nominals, imbalanced sparse fraud-like
//!   events and an abrupt+gradual drift cocktail. These feed the
//!   `bench_accuracy` prequential suite and the CI accuracy-regression gate.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod drift;
pub mod generators;
pub mod instance;
pub mod realworld;
pub mod schema;
pub mod stream;
pub mod transform;
pub mod workload;

pub use drift::{AbruptDriftStream, GradualDriftStream};
pub use instance::{Batch, Instance};
pub use realworld::{load_csv, parse_csv, CsvError};
pub use schema::{FeatureSpec, FeatureType, StreamSchema};
pub use stream::{DataStream, MaterializedStream};
pub use transform::{BoxedStream, MinMaxNormalize, TakeStream};
pub use workload::{build_workload, build_workload_default, WorkloadInfo, WORKLOADS};
