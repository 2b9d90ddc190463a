//! # dmt-core
//!
//! The **Dynamic Model Tree** (DMT) — the primary contribution of
//! *"Dynamic Model Tree for Interpretable Data Stream Learning"* (Haug,
//! Broelemann & Kasneci, ICDE 2022) — implemented from scratch in Rust.
//!
//! A Dynamic Model Tree is an incremental decision tree that
//!
//! * keeps a **simple model** (a logit or multinomial-logit GLM trained by
//!   SGD) at *every* node, inner nodes included, and keeps training all
//!   models on the path of each incoming observation;
//! * replaces heuristic purity measures and Hoeffding's inequality with
//!   **loss-based gain functions** (eq. 3–5 of the paper), which guarantee
//!   *consistency with parent splits* (Property 1) and *model minimality*
//!   (Property 2) and adapt to concept drift **without a dedicated drift
//!   detector**;
//! * approximates the loss of candidate splits with a **single warm-started
//!   gradient step and a first-order Taylor expansion** (eq. 6–7), so no
//!   candidate models ever need to be trained;
//! * thresholds all structural changes with an **AIC-based confidence test**
//!   (eq. 9–11) controlled by a single hyperparameter ε;
//! * stores statistics for only `3·m` split candidates per node, replacing at
//!   most 50 % of them per time step (§V-D).
//!
//! The public entry point is [`DynamicModelTree`]; [`DmtConfig`] carries the
//! hyperparameters with the paper's defaults.
//!
//! The tree structure is stored in a flat, cache-friendly [`NodeArena`]
//! (struct-of-arrays split keys, [`NodeId`]-based links, free-list slot
//! reuse on prune) — see the [`arena`] module docs. Prediction descends each
//! row to its leaf and asks that leaf's simple model; learning routes whole
//! batches down the tree with a stable in-place index partition. The
//! tree learns and predicts on the calling thread: this crate spawns no
//! threads and forbids `unsafe` code. Concurrent readers share a tree
//! through the copy-on-write epochs of the [`epoch`] module, each holding a
//! predict-only [`PredictView`].
//!
//! ```
//! use dmt_core::{DmtConfig, DynamicModelTree};
//! use dmt_models::OnlineClassifier;
//! use dmt_stream::schema::StreamSchema;
//!
//! let schema = StreamSchema::numeric("toy", 2, 2);
//! let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
//! // class = 1 when the first feature exceeds 0.5
//! let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0, 0.3]).collect();
//! let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
//! let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
//! for _ in 0..50 {
//!     tree.learn_batch(&rows, &ys);
//! }
//! assert_eq!(tree.predict(&[0.9, 0.3]), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod candidate;
pub mod epoch;
pub mod error;
pub mod explain;
pub mod lockrank;
pub mod node;
pub mod scratch;
pub mod snapshot;
pub mod tree;
pub mod view;

pub use arena::{NodeArena, NodeId};
pub use candidate::{CandidateKey, CandidatePool, SplitCandidate};
pub use epoch::{Epoch, EpochCell, PinnedEpoch};
pub use error::DmtError;
pub use explain::{DecisionStep, LeafExplanation};
pub use lockrank::{LockRank, RankToken, Ranked};
pub use node::{GainDecision, NodeStats};
pub use scratch::UpdateScratch;
pub use snapshot::SnapshotError;
pub use tree::{BudgetCounters, DmtConfig, DynamicModelTree};
pub use view::PredictView;

// Re-exported so `DmtConfig::batch_mode` can be set without a direct
// `dmt-models` dependency.
pub use dmt_models::BatchMode;
