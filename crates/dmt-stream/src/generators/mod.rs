//! Synthetic data-stream generators.
//!
//! [`sea`], [`agrawal`] and [`hyperplane`] re-implement the scikit-multiflow
//! generators used for the paper's synthetic experiments (Table I, Fig. 3).
//! [`rbf`] is the Random RBF generator behind the throughput benchmark's RBF
//! stream.

pub mod agrawal;
pub mod hyperplane;
pub mod rbf;
pub mod sea;

pub use agrawal::AgrawalGenerator;
pub use hyperplane::HyperplaneGenerator;
pub use rbf::RandomRbfGenerator;
pub use sea::SeaGenerator;
