//! `dmt-verify` — workspace invariant analyzer.
//!
//! A source-level lint pass over the DMT workspace that enforces the
//! correctness invariants the compiler cannot express across crates:
//! where `unsafe` may live and how it must be documented, where OS threads
//! may be spawned, that library code stays panic-free, that the
//! deterministic learn/predict path never reads wall clocks, that the
//! designated hot functions never allocate, and that the wire-format
//! version constant is referenced — never forked.
//!
//! The analyzer is built on a hand-rolled lexer ([`lexer`]) and a token
//! stream structural index ([`source`]); it deliberately has **zero
//! dependencies** (no `syn`, no registry access) so the static-analysis CI
//! job builds in seconds and can never be broken by model code.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p dmt-verify --bin dmt_lint
//! ```
//!
//! Exit status 0 means every invariant holds; otherwise each violation is
//! printed as `file:line: [lint] message` and the process exits 1.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod source;

use std::path::{Path, PathBuf};

use config::{workspace_config, WorkspaceConfig};
use lints::Diagnostic;
use source::SourceFile;

/// Whether `rel_path` (workspace-relative, `/` separators) is in scope for
/// the panic-free / spawn lints: library source of a configured crate,
/// excluding `src/bin/` CLI entry points.
fn in_library_scope(rel_path: &str, crates: &[&str]) -> bool {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return false;
    };
    let Some((crate_name, inner)) = rest.split_once('/') else {
        return false;
    };
    crates.contains(&crate_name) && inner.starts_with("src/") && !inner.starts_with("src/bin/")
}

/// Recursively collect `crates/*/src/**/*.rs` under `root`, returning
/// `(workspace-relative path, contents)` pairs sorted by path. Vendored
/// shims (`vendor/`), integration tests (`tests/`), and this crate's lint
/// fixtures are outside the scan by construction.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under crates/: {e}"))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(root, &src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let contents = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push((rel, contents));
        }
    }
    Ok(())
}

/// Run every lint pass over the workspace at `root` under the policy `cfg`
/// ([`workspace_config`] for the real workspace). Returns the sorted
/// diagnostics (empty = all invariants hold). `Err` is reserved for
/// environment problems (unreadable tree, malformed allowlist) — those must
/// fail the build just as hard as a lint finding, but with a different
/// message shape.
pub fn run_workspace(root: &Path, cfg: &WorkspaceConfig) -> Result<Vec<Diagnostic>, String> {
    let sources = collect_sources(root)?;
    let files: Vec<SourceFile<'_>> = sources
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();

    let mut diagnostics = Vec::new();
    let mut panic_counts: Vec<(String, usize)> = Vec::new();
    let mut panic_sites: Vec<Diagnostic> = Vec::new();
    for file in &files {
        lints::lint_unsafe(file, cfg, &mut diagnostics);
        lints::lint_time(file, cfg, &mut diagnostics);
        lints::lint_hot_alloc(file, cfg, &mut diagnostics);
        if in_library_scope(&file.rel_path, cfg.panic_free_crates) {
            lints::lint_spawn(file, cfg, &mut diagnostics);
            let found = lints::scan_panics(file, &mut panic_sites);
            if found > 0 {
                panic_counts.push((file.rel_path.clone(), found));
            }
        }
    }
    lints::lint_versions(&files, cfg, &mut diagnostics);

    let allowlist_path = root.join(cfg.panic_allowlist_file);
    let allowlist_text = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", allowlist_path.display())),
    };
    let entries = lints::parse_allowlist(&allowlist_text)?;
    lints::reconcile_allowlist(
        &panic_counts,
        &panic_sites,
        &entries,
        cfg.panic_allowlist_file,
        &mut diagnostics,
    );

    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(diagnostics)
}

/// Per-file panic-capable call counts for the panic-free scope, formatted
/// as ready-to-edit allowlist lines (used by `dmt_lint --dump-panic-counts`
/// to regenerate `panic_allowlist.txt` after a deliberate ratchet-down).
pub fn dump_panic_counts(root: &Path) -> Result<String, String> {
    let cfg = workspace_config();
    let sources = collect_sources(root)?;
    let mut lines = String::new();
    for (rel, text) in &sources {
        if !in_library_scope(rel, cfg.panic_free_crates) {
            continue;
        }
        let file = SourceFile::parse(rel, text);
        let mut sites = Vec::new();
        let found = lints::scan_panics(&file, &mut sites);
        if found > 0 {
            lines.push_str(&format!("{rel} | {found} | TODO: justify this budget\n"));
        }
    }
    Ok(lines)
}

/// Locate the workspace root from this crate's own manifest directory
/// (`crates/dmt-verify` → two levels up). Falls back to walking up from
/// `cwd` to the first directory containing a `Cargo.toml` with a
/// `[workspace]` table.
pub fn workspace_root() -> Result<PathBuf, String> {
    let manifest: &str = env!("CARGO_MANIFEST_DIR");
    let from_manifest = Path::new(manifest).join("..").join("..");
    if from_manifest.join("Cargo.toml").is_file() {
        return Ok(from_manifest);
    }
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_string());
        }
    }
}
