//! # dmt-baselines
//!
//! From-scratch Rust implementations of the incremental decision trees the
//! paper compares against:
//!
//! * [`vfdt`] — the Very Fast Decision Tree (Hoeffding Tree) with
//!   majority-class or adaptive Naive Bayes leaves (VFDT (MC) and
//!   VFDT (NBA) in the paper's tables).
//! * [`hatree`] — HT-Ada, the Hoeffding Adaptive Tree with ADWIN-monitored
//!   subtree replacement.
//! * [`efdt`] — the Extremely Fast Decision Tree (Hoeffding Anytime Tree)
//!   with periodic split re-evaluation.
//! * [`fimtdd`] — the FIMT-DD model tree, re-implemented as a classifier the
//!   same way the paper's authors did (SDR splits on the class index, linear
//!   leaf models, Page-Hinkley branch pruning).
//!
//! Shared substrate:
//!
//! * [`split_criterion`] — information gain, standard deviation reduction
//!   and the Hoeffding bound.
//! * [`observer`] — per-attribute sufficient statistics (Gaussian for numeric
//!   features, count tables for nominal features) that propose binary split
//!   candidates.
//! * [`leaf_stats`] — per-leaf class distributions and leaf prediction
//!   policies.
//!
//! The implementations follow the original papers, configured as in §VI-C of
//! the DMT paper: binary splits only, no bootstrap sampling in HT-Ada,
//! majority-vote leaves for the plain Hoeffding trees and a 1,000-observation
//! re-evaluation period for EFDT.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod efdt;
pub mod fimtdd;
pub mod hatree;
pub mod leaf_stats;
pub mod observer;
pub mod split_criterion;
pub mod vfdt;

pub use efdt::{EfdtClassifier, EfdtConfig};
pub use fimtdd::{FimtDdClassifier, FimtDdConfig};
pub use hatree::{HatConfig, HoeffdingAdaptiveTree};
pub use leaf_stats::{LeafPolicy, LeafStats};
pub use observer::{AttributeObserver, SplitSuggestion};
pub use split_criterion::hoeffding_bound;
pub use vfdt::{HoeffdingTreeClassifier, VfdtConfig};
