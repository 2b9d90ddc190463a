//! # dmt-drift
//!
//! Concept-drift detectors used by the baseline classifiers:
//!
//! * [`adwin`] — ADWIN (Bifet & Gavaldà, 2007), the adaptive windowing
//!   detector used by the Hoeffding Adaptive Tree (HT-Ada), the Adaptive
//!   Random Forest and Leveraging Bagging.
//! * [`page_hinkley`] — the Page-Hinkley test used by FIMT-DD to prune
//!   branches after concept drift.
//!
//! The Dynamic Model Tree itself deliberately uses **none** of these — drift
//! adaptation falls out of its loss-based gain functions (§IV-D of the
//! paper) — but the baselines require them.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adwin;
pub mod page_hinkley;

pub use adwin::Adwin;
pub use page_hinkley::PageHinkley;

/// Common interface of the drift detectors: feed scalar observations (usually
/// an error indicator or a residual) and ask whether change was detected.
pub trait DriftDetector: Send {
    /// Add a new observation. Returns `true` when drift is detected at this
    /// step.
    fn update(&mut self, value: f64) -> bool;

    /// Whether the detector is currently signalling drift.
    fn drift_detected(&self) -> bool;

    /// Reset the detector to its initial state (typically called after the
    /// model has adapted to the detected change).
    fn reset(&mut self);
}
