//! # dmt-ensembles
//!
//! Ensemble online learners used as reference rows in the paper's Table II:
//!
//! * [`arf`] — the Adaptive Random Forest (Gomes et al., 2017): online
//!   bagging with Poisson(6) instance weighting, per-tree random feature
//!   subspaces and per-tree ADWIN drift detectors that reset degraded
//!   members.
//! * [`bagging`] — Leveraging Bagging (Bifet, Holmes & Pfahringer, 2010):
//!   online bagging with Poisson(6) weighting and ADWIN-triggered member
//!   resets.
//!
//! As in §VI-C of the paper, both ensembles use **three** basic Hoeffding
//! trees (majority-class leaves, binary splits) as weak learners. They are
//! comparators, built fresh for every run: neither is saved or restored.
//!
//! # Parallel member training
//!
//! Both ensembles train their members **independently per batch**: every
//! member owns its tree, its detectors and a private deterministic RNG
//! stream, so `learn_batch` can fan the members out over a persistent
//! [`WorkerPool`] (configured via the `parallelism` field of either config,
//! shared across models via `set_worker_pool`) with results
//! **bit-identical** to a serial member-order loop. See the module docs of
//! [`bagging`] (batch-boundary drift replacement) and [`arf`] (fully
//! member-local updates) for the exact batch semantics.
//!
//! The pool lives in [`parallel`], the workspace's one module with threads
//! of its own and its one `unsafe` hand-off. [`Parallelism::from_env`]
//! reads `DMT_PARALLELISM`, so that variable sizes ensemble pools and
//! nothing else: the Dynamic Model Tree learns and predicts on the calling
//! thread.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arf;
pub mod bagging;
pub mod parallel;

pub use arf::{AdaptiveRandomForest, ArfConfig};
pub use bagging::{LeveragingBagging, LeveragingBaggingConfig};
pub use parallel::{Parallelism, WorkerPool, MAX_WORKERS};

/// Minimum batch size (rows) before ensemble member training fans out over
/// the worker pool; smaller batches — in particular the classic
/// instance-by-instance `learn_one` loop — always run the serial member
/// loop, whose per-member work is cheaper than a dispatch hand-shake.
/// Serial and pooled member training are bit-identical, so the cutoff is
/// purely a latency choice.
pub const MEMBER_PARALLEL_MIN_ROWS: usize = 4;

/// Deterministic seed of one ensemble member's private RNG stream: a
/// SplitMix64-style mix of the ensemble seed and the member index, so member
/// streams are decorrelated from each other and from the ensemble seed
/// itself, yet fully reproducible — the prerequisite for bit-identical
/// parallel member training.
pub(crate) fn member_stream_seed(seed: u64, member: u64) -> u64 {
    let mut z = seed ^ (member.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
