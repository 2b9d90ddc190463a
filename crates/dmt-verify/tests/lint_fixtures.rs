//! End-to-end battery for `dmt_lint`: every lint must trip on the committed
//! fixture tree (`tests/fixtures/tree/` — a miniature workspace with one
//! violation per lint), and the real workspace self-run must be clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use dmt_verify::config::{workspace_config, WorkspaceConfig};
use dmt_verify::lints::Diagnostic;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tree")
}

/// The policy the fixture tree is linted under. It lists only what the
/// fixtures exercise, so the live table in `config.rs` can change without
/// editing test data.
fn fixture_config() -> WorkspaceConfig {
    WorkspaceConfig {
        unsafe_allowed_files: &["crates/dmt-ensembles/src/parallel.rs"],
        spawn_allowed_files: &[],
        panic_free_crates: &["dmt-core", "dmt-eval"],
        deterministic_crates: &["dmt-core"],
        hot_path_fns: &[("crates/dmt-core/src/scratch.rs", &["gather"])],
        version_source_file: "crates/dmt-core/src/snapshot.rs",
        version_referrer_files: &[
            "crates/dmt-models/src/wire.rs",
            "crates/dmt-serve/src/protocol.rs",
        ],
        panic_allowlist_file: "crates/dmt-verify/panic_allowlist.txt",
    }
}

fn fixture_diagnostics() -> Vec<Diagnostic> {
    dmt_verify::run_workspace(&fixture_root(), &fixture_config()).expect("fixture tree is readable")
}

fn expect_one(diags: &[Diagnostic], lint: &str, file: &str, line: u32) {
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.lint == lint && d.file == file)
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {lint} in {file}, got {hits:#?}\nall: {diags:#?}"
    );
    assert_eq!(hits[0].line, line, "wrong line for {lint} in {file}");
}

#[test]
fn each_lint_trips_on_its_fixture() {
    let diags = fixture_diagnostics();
    expect_one(
        &diags,
        "forbidden-unsafe",
        "crates/dmt-core/src/arena.rs",
        5,
    );
    expect_one(
        &diags,
        "missing-safety",
        "crates/dmt-ensembles/src/parallel.rs",
        7,
    );
    expect_one(&diags, "forbidden-spawn", "crates/dmt-eval/src/lib.rs", 5);
    expect_one(&diags, "panic-free", "crates/dmt-core/src/tree.rs", 5);
    expect_one(
        &diags,
        "nondeterministic-time",
        "crates/dmt-core/src/clock.rs",
        5,
    );
    expect_one(
        &diags,
        "hot-path-alloc",
        "crates/dmt-core/src/scratch.rs",
        10,
    );
    expect_one(&diags, "version-skew", "crates/dmt-models/src/wire.rs", 3);
}

#[test]
fn fixtures_do_not_overreport() {
    let diags = fixture_diagnostics();
    // The covered unsafe item, the test-gated spawn/unwrap, the cold-path
    // to_vec and the clean referrer must all stay silent: exactly the seven
    // per-file findings above plus the allowlist over-budget summary line.
    let summaries = diags
        .iter()
        .filter(|d| d.file == "crates/dmt-verify/panic_allowlist.txt")
        .count();
    assert_eq!(summaries, 1, "{diags:#?}");
    assert_eq!(diags.len(), 8, "{diags:#?}");
}

#[test]
fn lint_binary_fails_with_file_line_diagnostics_on_fixtures() {
    let out = Command::new(env!("CARGO_BIN_EXE_dmt_lint"))
        .arg(fixture_root())
        .output()
        .expect("dmt_lint runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("crates/dmt-core/src/arena.rs:5: [forbidden-unsafe]"),
        "diagnostics must be file:line-addressed:\n{stdout}"
    );
    assert!(stdout.contains("[version-skew]"), "{stdout}");
}

#[test]
fn workspace_self_run_is_clean() {
    let root = dmt_verify::workspace_root().expect("workspace root");
    let diags =
        dmt_verify::run_workspace(&root, &workspace_config()).expect("workspace is readable");
    assert!(
        diags.is_empty(),
        "the committed workspace must satisfy its own invariants:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    let out = Command::new(env!("CARGO_BIN_EXE_dmt_lint"))
        .output()
        .expect("dmt_lint runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
