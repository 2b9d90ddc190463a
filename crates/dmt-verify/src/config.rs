//! The workspace invariant policy: which files may do what.
//!
//! This is deliberately **data**, not clever detection — the point of the
//! analyzer is that loosening any invariant requires editing this file (or
//! the panic allowlist) in the same diff, where a reviewer sees it.

/// Lint policy for the DMT workspace. Paths are workspace-relative with
/// `/` separators.
pub struct WorkspaceConfig {
    /// Files allowed to contain the `unsafe` keyword at all. Every `unsafe`
    /// in them must still carry a `// SAFETY:` comment (see
    /// [`crate::lints`]). The workspace ships exactly one unsafe hand-off:
    /// the worker pool's lifetime-erased job slot.
    pub unsafe_allowed_files: &'static [&'static str],
    /// Files allowed to spawn OS threads. Thread creation is confined to the
    /// two long-lived pools (the `WorkerPool` residents and the serve
    /// plane's per-core acceptors); ad-hoc `thread::spawn` anywhere else is
    /// an unmanaged thread the shutdown protocols do not know about.
    pub spawn_allowed_files: &'static [&'static str],
    /// Crate directory names (under `crates/`) whose library source must be
    /// free of `unwrap()`/`expect()`/`panic!` outside `#[cfg(test)]`,
    /// except for the budgeted entries in the panic allowlist.
    pub panic_free_crates: &'static [&'static str],
    /// Crates on the deterministic learn/predict path: any `Instant` /
    /// `SystemTime` reference would smuggle wall-clock nondeterminism into
    /// results the paper reproduction pins bit-identically.
    pub deterministic_crates: &'static [&'static str],
    /// `(file, functions)` designations of the allocation-free hot path
    /// (the source-level twin of `tests/integration_alloc.rs`): inside
    /// these function bodies, `Vec::new` / `vec![…]` / `.to_vec()` /
    /// `.collect()` / `Box::new` are flagged. A designated function that no
    /// longer exists is itself an error — the table cannot silently rot.
    pub hot_path_fns: &'static [(&'static str, &'static [&'static str])],
    /// The file owning the canonical wire-format version constant
    /// (`SNAPSHOT_VERSION`), and the files that must reference it instead
    /// of forking their own literal.
    pub version_source_file: &'static str,
    /// Files that must stay in the wire-format version cross-check: each
    /// either references `SNAPSHOT_VERSION` or declares a lockstep
    /// `…VERSION` constant whose literal must agree.
    pub version_referrer_files: &'static [&'static str],
    /// Workspace-relative path of the panic allowlist (see
    /// [`crate::lints::parse_allowlist`]).
    pub panic_allowlist_file: &'static str,
}

/// The committed policy for this workspace.
pub fn workspace_config() -> WorkspaceConfig {
    WorkspaceConfig {
        unsafe_allowed_files: &["crates/dmt-core/src/parallel.rs"],
        spawn_allowed_files: &[
            "crates/dmt-core/src/parallel.rs",
            "crates/dmt-serve/src/server.rs",
        ],
        panic_free_crates: &[
            "dmt",
            "dmt-core",
            "dmt-models",
            "dmt-stream",
            "dmt-drift",
            "dmt-baselines",
            "dmt-ensembles",
            "dmt-eval",
            "dmt-serve",
            "dmt-verify",
        ],
        deterministic_crates: &[
            "dmt",
            "dmt-core",
            "dmt-models",
            "dmt-stream",
            "dmt-drift",
            "dmt-baselines",
            "dmt-ensembles",
        ],
        hot_path_fns: &[
            (
                "crates/dmt-models/src/linalg.rs",
                &[
                    "dot",
                    "axpy",
                    "add_assign",
                    "gemv_into",
                    "gemv_bias_into",
                    "sub_into",
                    "sub_norm_sq",
                    "norm_sq",
                    "scale",
                    "sigmoid",
                    "log1p_exp",
                    "log1p_exp_sigmoid",
                    "softmax_in_place",
                    "softmax_into",
                ],
            ),
            (
                "crates/dmt-models/src/logit.rs",
                &[
                    "decision_function",
                    "row_loss_residual",
                    "row_residual",
                    "predict_proba_into",
                    "loss_and_gradient_into",
                    "sgd_step_into",
                    "predict_proba_batch_into",
                    "loss_and_gradient_batch_into",
                    "learn_batch_into",
                ],
            ),
            (
                "crates/dmt-models/src/softmax.rs",
                &[
                    "logits_into",
                    "row_loss_probs",
                    "predict_proba_into",
                    "predict",
                    "loss_and_gradient_into",
                    "sgd_step_into",
                    "predict_proba_batch_into",
                    "loss_and_gradient_batch_into",
                    "learn_batch_into",
                ],
            ),
            (
                "crates/dmt-models/src/glm.rs",
                &[
                    "predict_proba_into",
                    "loss_and_gradient_into",
                    "sgd_step_into",
                    "predict_proba_batch_into",
                    "loss_and_gradient_batch_into",
                    "learn_batch_into",
                ],
            ),
            ("crates/dmt-core/src/scratch.rs", &["gather"]),
            (
                "crates/dmt-core/src/node.rs",
                &[
                    "update_with_batch_indexed",
                    "update_gathered",
                    "group_candidates",
                    "already_stored",
                    "propose_and_accumulate",
                    "add_bucket_stats",
                    "manage_candidate_pool",
                    "admit_proposals",
                    "retire_all",
                    "partition_indices",
                    "sort_columns",
                    "split_orders",
                    "learn_at",
                ],
            ),
            (
                "crates/dmt-core/src/candidate.rs",
                &["accumulate", "accumulate_batch"],
            ),
        ],
        version_source_file: "crates/dmt-core/src/snapshot.rs",
        version_referrer_files: &[
            "crates/dmt-models/src/wire.rs",
            "crates/dmt-serve/src/protocol.rs",
        ],
        panic_allowlist_file: "crates/dmt-verify/panic_allowlist.txt",
    }
}
