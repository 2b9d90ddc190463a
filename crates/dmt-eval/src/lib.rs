//! # dmt-eval
//!
//! Prequential (test-then-train) evaluation, metrics and complexity
//! accounting for the Dynamic Model Tree reproduction:
//!
//! * [`metrics`] — confusion matrix, accuracy, precision/recall, macro and
//!   weighted F1 and Cohen's kappa.
//! * [`prequential`] — the paper's evaluation protocol (§VI-A): the stream is
//!   processed in batches of 0.1 % of the data; each batch is first used for
//!   testing, then for training. Per-batch F1, split counts, parameter counts
//!   and wall-clock times are recorded.
//! * [`trace`] — sliding-window aggregation of per-batch series (window 20),
//!   the transformation behind Figure 3.
//! * [`stats`] — small mean/standard-deviation helpers used by the result
//!   tables.
//! * [`json`] — a dependency-free JSON value/parser/writer used to persist
//!   results (the environment has no crates-registry access for `serde`).
//!
//! The metrics follow §VI-D1 of the paper (macro F1 over a per-batch
//! confusion matrix):
//!
//! ```
//! use dmt_eval::ConfusionMatrix;
//!
//! let mut cm = ConfusionMatrix::new(2);
//! for (truth, predicted) in [(0, 0), (0, 0), (1, 1), (1, 0)] {
//!     cm.update(truth, predicted);
//! }
//! assert_eq!(cm.total(), 4);
//! assert!((cm.accuracy() - 0.75).abs() < 1e-12);
//! let f1 = cm.macro_f1();
//! assert!(f1 > 0.7 && f1 < 0.75, "macro F1 {f1}");
//! ```
//!
//! And results round-trip through the [`json`] module without `serde`:
//!
//! ```
//! use dmt_eval::Json;
//!
//! let parsed = Json::parse(r#"{"f1": 0.93, "splits": [1, 2]}"#).unwrap();
//! assert_eq!(parsed.get("f1").and_then(|v| v.as_f64()), Some(0.93));
//! let text = parsed.to_pretty_string();
//! assert_eq!(Json::parse(&text).unwrap(), parsed);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod prequential;
pub mod stats;
pub mod trace;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use metrics::ConfusionMatrix;
pub use prequential::{PrequentialConfig, PrequentialResult, PrequentialRun};
pub use stats::{mean, mean_std, std_dev};
pub use trace::sliding_window;
