//! The lint passes. Each pass walks the token stream of a
//! [`SourceFile`] and emits [`Diagnostic`]s;
//! [`crate::run_workspace`] drives them over every library source file.
//!
//! | lint                | invariant                                                            |
//! |---------------------|----------------------------------------------------------------------|
//! | `forbidden-unsafe`  | `unsafe` only in the worker pool's hand-off module                   |
//! | `missing-safety`    | every allowed `unsafe` opens with a `// SAFETY:` comment             |
//! | `forbidden-spawn`   | OS threads only from the two managed pools                           |
//! | `panic-free`        | no `unwrap()`/`expect()`/`panic!` in library code beyond the ratchet |
//! | `nondeterministic-time` | no `Instant`/`SystemTime` on the deterministic learn/predict path|
//! | `hot-path-alloc`    | no allocation calls inside the designated hot functions              |
//! | `version-skew`      | one wire-format version constant, referenced — never forked          |
//! | `stale-allowlist` / `stale-hot-path` | the policy tables match reality               |

use crate::config::WorkspaceConfig;
use crate::source::SourceFile;

/// One lint finding, formatted by the binary as
/// `<file>:<line>: [<lint>] <message>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint identifier (stable, kebab-case).
    pub lint: &'static str,
    /// Human-readable explanation with the remediation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

fn diag(file: &str, line: u32, lint: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        lint,
        message,
    }
}

/// Whether `rel_path` belongs to one of `crates` (by the directory segment
/// after `crates/`), is under its `src/`, and is not a `src/bin/` CLI entry
/// point.
fn in_crate_library(rel_path: &str, crates: &[&str]) -> bool {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return false;
    };
    let Some((crate_name, inner)) = rest.split_once('/') else {
        return false;
    };
    crates.contains(&crate_name) && inner.starts_with("src/") && !inner.starts_with("src/bin/")
}

// ---------------------------------------------------------------------------
// unsafe / SAFETY
// ---------------------------------------------------------------------------

/// `forbidden-unsafe` + `missing-safety`: the `unsafe` keyword is allowed
/// only in the configured files, and there every occurrence must be covered
/// by a `// SAFETY:` comment — either directly above its statement, or by
/// being nested inside the brace range of an already-covered `unsafe` item
/// (an `unsafe impl`'s methods, an `unsafe fn`'s inner blocks).
pub fn lint_unsafe(file: &SourceFile<'_>, cfg: &WorkspaceConfig, out: &mut Vec<Diagnostic>) {
    let allowed = cfg.unsafe_allowed_files.contains(&file.rel_path.as_str());
    let mut covered_until = 0usize; // token index; coverage from a prior unsafe item
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !allowed {
            out.push(diag(
                &file.rel_path,
                t.line,
                "forbidden-unsafe",
                "`unsafe` is allowed only in crates/dmt-ensembles/src/parallel.rs \
                 (the worker pool's documented lifetime hand-off)"
                    .to_string(),
            ));
            continue;
        }
        if i < covered_until {
            continue; // nested inside a covered unsafe item
        }
        if file.has_safety_comment_above(t.line) {
            // Extend coverage over this item's brace range, so an
            // `unsafe impl`'s `unsafe fn`s ride on the impl's comment.
            let mut j = i + 1;
            while j < file.tokens.len() {
                if file.tokens[j].is_punct("{") {
                    if let Some(end) = file.matching_brace(j) {
                        covered_until = end;
                    }
                    break;
                }
                if file.tokens[j].is_punct(";") {
                    break;
                }
                j += 1;
            }
        } else {
            out.push(diag(
                &file.rel_path,
                t.line,
                "missing-safety",
                "`unsafe` without a `// SAFETY:` comment block directly above it".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// thread spawns
// ---------------------------------------------------------------------------

/// `forbidden-spawn`: a `.spawn(…)` / `::spawn(…)` call outside the two
/// managed thread pools. Test code is exempt.
pub fn lint_spawn(file: &SourceFile<'_>, cfg: &WorkspaceConfig, out: &mut Vec<Diagnostic>) {
    if cfg.spawn_allowed_files.contains(&file.rel_path.as_str()) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("spawn") || file.is_test(i) {
            continue;
        }
        let preceded_by_path = i > 0
            && (file.tokens[i - 1].is_punct(".")
                || (file.tokens[i - 1].is_punct(":") && i > 1 && file.tokens[i - 2].is_punct(":")));
        if preceded_by_path {
            out.push(diag(
                &file.rel_path,
                t.line,
                "forbidden-spawn",
                "thread spawn outside the WorkerPool / dmt-serve acceptors — \
                 unmanaged threads escape the shutdown protocols"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// panic-free library code
// ---------------------------------------------------------------------------

/// Count and report `unwrap()` / `expect()` / `panic!` occurrences outside
/// `#[cfg(test)]`. Returns the number found (the allowlist reconciliation
/// in [`crate::run_workspace`] decides what to do with it); diagnostics for
/// each site are appended to `sites`.
pub fn scan_panics(file: &SourceFile<'_>, sites: &mut Vec<Diagnostic>) -> usize {
    let mut found = 0usize;
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test(i) {
            continue;
        }
        let hit = if t.is_ident("unwrap") || t.is_ident("expect") {
            i > 0 && file.tokens[i - 1].is_punct(".")
        } else if t.is_ident("panic") {
            file.tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        } else {
            false
        };
        if hit {
            found += 1;
            sites.push(diag(
                &file.rel_path,
                t.line,
                "panic-free",
                format!(
                    "`{}` in library code — return a typed error instead \
                     (or budget it in the panic allowlist with a justification)",
                    t.text
                ),
            ));
        }
    }
    found
}

// ---------------------------------------------------------------------------
// wall-clock time on the deterministic path
// ---------------------------------------------------------------------------

/// `nondeterministic-time`: `Instant` / `SystemTime` references in the
/// deterministic crates. Test code is exempt (tests may time themselves).
pub fn lint_time(file: &SourceFile<'_>, cfg: &WorkspaceConfig, out: &mut Vec<Diagnostic>) {
    if !in_crate_library(&file.rel_path, cfg.deterministic_crates) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test(i) {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(diag(
                &file.rel_path,
                t.line,
                "nondeterministic-time",
                format!(
                    "`{}` on the deterministic learn/predict path — results \
                     must be a pure function of the input stream and seed",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// hot-path allocations
// ---------------------------------------------------------------------------

/// `hot-path-alloc` + `stale-hot-path`: inside the designated function
/// bodies, flag `Vec::new`, `vec![…]`, `.to_vec()`, `.collect()` and
/// `Box::new`. Designated functions that do not exist any more are reported
/// so the table tracks the code.
pub fn lint_hot_alloc(file: &SourceFile<'_>, cfg: &WorkspaceConfig, out: &mut Vec<Diagnostic>) {
    let Some((_, fns)) = cfg
        .hot_path_fns
        .iter()
        .find(|(path, _)| *path == file.rel_path.as_str())
    else {
        return;
    };
    for fn_name in *fns {
        if !file.fn_spans().iter().any(|f| f.name == *fn_name) {
            out.push(diag(
                &file.rel_path,
                1,
                "stale-hot-path",
                format!(
                    "designated hot function `{fn_name}` no longer exists — \
                     update the table in crates/dmt-verify/src/config.rs"
                ),
            ));
        }
    }
    for (i, t) in file.tokens.iter().enumerate() {
        let in_hot = file.enclosing_fns(i).any(|name| fns.contains(&name));
        if !in_hot || file.is_test(i) {
            continue;
        }
        let what = if t.is_ident("collect") || t.is_ident("to_vec") {
            let method = i > 0 && file.tokens[i - 1].is_punct(".");
            method.then(|| format!(".{}()", t.text))
        } else if t.is_ident("new") {
            let qualified = i >= 2
                && file.tokens[i - 1].is_punct(":")
                && file.tokens[i - 2].is_punct(":")
                && i >= 3
                && (file.tokens[i - 3].is_ident("Vec") || file.tokens[i - 3].is_ident("Box"));
            qualified.then(|| format!("{}::new", file.tokens[i - 3].text))
        } else if t.is_ident("vec") {
            let is_macro = file.tokens.get(i + 1).is_some_and(|n| n.is_punct("!"));
            is_macro.then(|| "vec![…]".to_string())
        } else {
            None
        };
        if let Some(what) = what {
            out.push(diag(
                &file.rel_path,
                t.line,
                "hot-path-alloc",
                format!(
                    "`{what}` inside designated hot function — the steady-state \
                     path must reuse scratch buffers (see tests/integration_alloc.rs)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// wire-format version skew
// ---------------------------------------------------------------------------

/// Extract `const <name with VERSION>: … = <integer>` declarations.
fn version_consts(file: &SourceFile<'_>) -> Vec<(String, u64, u32)> {
    let mut found = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("const") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if !name_tok.text.contains("VERSION") {
            continue;
        }
        // Scan ahead for `= <number>` before the terminating `;`.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct(";") {
            if toks[j].is_punct("=") {
                if let Some(value) = toks.get(j + 1).and_then(|t| parse_int(t.text)) {
                    found.push((name_tok.text.to_string(), value, name_tok.line));
                }
                break;
            }
            j += 1;
        }
    }
    found
}

fn parse_int(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        let digits: String = hex.chars().take_while(char::is_ascii_hexdigit).collect();
        u64::from_str_radix(&digits, 16).ok()
    } else {
        let digits: String = cleaned.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            None
        } else {
            digits.parse().ok()
        }
    }
}

/// `version-skew`: the snapshot envelope, the model wire codec and the serve
/// framing must agree on one format version. The source file must define
/// `SNAPSHOT_VERSION`; every referrer must *use* that identifier and must
/// not fork a diverging `…VERSION` literal of its own.
pub fn lint_versions(files: &[SourceFile<'_>], cfg: &WorkspaceConfig, out: &mut Vec<Diagnostic>) {
    let Some(source) = files.iter().find(|f| f.rel_path == cfg.version_source_file) else {
        out.push(diag(
            cfg.version_source_file,
            1,
            "version-skew",
            "version source file missing from the scan".to_string(),
        ));
        return;
    };
    let canonical = version_consts(source)
        .into_iter()
        .find(|(name, _, _)| name == "SNAPSHOT_VERSION");
    let Some((_, canonical_value, _)) = canonical else {
        out.push(diag(
            &source.rel_path,
            1,
            "version-skew",
            "no `const SNAPSHOT_VERSION … = <int>` found — the canonical \
             wire-format version constant moved or was renamed"
                .to_string(),
        ));
        return;
    };
    for referrer_path in cfg.version_referrer_files {
        let Some(referrer) = files.iter().find(|f| f.rel_path == *referrer_path) else {
            out.push(diag(
                referrer_path,
                1,
                "version-skew",
                "wire-format referrer file missing from the scan".to_string(),
            ));
            continue;
        };
        let references = referrer
            .tokens
            .iter()
            .any(|t| t.is_ident("SNAPSHOT_VERSION"));
        let locals = version_consts(referrer);
        // A referrer is wired in either by importing the canonical constant
        // or by carrying a lockstep `…VERSION` const of its own (the
        // bottom-of-stack wire primitives cannot import upward); a file with
        // neither has silently dropped out of the cross-check.
        if !references && locals.is_empty() {
            out.push(diag(
                &referrer.rel_path,
                1,
                "version-skew",
                "neither references SNAPSHOT_VERSION nor declares a lockstep \
                 `…VERSION` constant — the file dropped out of the \
                 wire-format cross-check"
                    .to_string(),
            ));
        }
        for (name, value, line) in locals {
            if value != canonical_value {
                out.push(diag(
                    &referrer.rel_path,
                    line,
                    "version-skew",
                    format!(
                        "`{name}` = {value} disagrees with SNAPSHOT_VERSION = \
                         {canonical_value} in {}",
                        cfg.version_source_file
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// panic allowlist
// ---------------------------------------------------------------------------

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path the budget applies to.
    pub file: String,
    /// Exact number of panic-capable calls the file is allowed.
    pub allowed: usize,
    /// Why the budget exists (free text, required).
    pub justification: String,
}

/// Parse the panic allowlist: `<path> | <count> | <justification>` per
/// line, `#` comments and blank lines ignored. Malformed lines are errors —
/// a typo must not silently grant a budget of zero.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '|').map(str::trim);
        let (Some(file), Some(count), Some(justification)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "allowlist line {}: expected `<path> | <count> | <justification>`, got {line:?}",
                n + 1
            ));
        };
        let allowed: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: count {count:?} is not a number", n + 1))?;
        if justification.len() < 10 {
            return Err(format!(
                "allowlist line {}: a budget needs a real justification (got {justification:?})",
                n + 1
            ));
        }
        if entries.iter().any(|e: &AllowEntry| e.file == file) {
            return Err(format!(
                "allowlist line {}: duplicate entry for {file}",
                n + 1
            ));
        }
        entries.push(AllowEntry {
            file: file.to_string(),
            allowed,
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

/// Reconcile per-file panic counts against the allowlist. The ratchet is
/// two-sided: a file over its budget fails with every site listed, and a
/// file *under* its budget fails too — the entry must be tightened, so the
/// allowlist can only ever shrink.
pub fn reconcile_allowlist(
    counts: &[(String, usize)],
    sites: &[Diagnostic],
    entries: &[AllowEntry],
    allowlist_file: &str,
    out: &mut Vec<Diagnostic>,
) {
    for (file, found) in counts {
        let allowed = entries
            .iter()
            .find(|e| &e.file == file)
            .map_or(0, |e| e.allowed);
        match found.cmp(&allowed) {
            std::cmp::Ordering::Greater => {
                out.push(diag(
                    allowlist_file,
                    1,
                    "panic-free",
                    format!(
                        "{file}: {found} panic-capable call(s), allowlist budgets {allowed} — \
                         the budget never grows; convert the new sites to typed errors"
                    ),
                ));
                out.extend(sites.iter().filter(|d| &d.file == file).cloned());
            }
            std::cmp::Ordering::Less => {
                out.push(diag(
                    allowlist_file,
                    1,
                    "stale-allowlist",
                    format!(
                        "{file}: {found} panic-capable call(s) but the allowlist still \
                         budgets {allowed} — ratchet the entry down"
                    ),
                ));
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    // Entries for files that no longer exist (or no longer trip the lint at
    // all) with a nonzero budget are caught above via counts==0 only if the
    // file was scanned; a vanished file must not keep a budget either.
    for entry in entries {
        if entry.allowed > 0 && !counts.iter().any(|(f, _)| f == &entry.file) {
            out.push(diag(
                allowlist_file,
                1,
                "stale-allowlist",
                format!(
                    "{}: allowlisted file was not scanned (moved or deleted) — remove the entry",
                    entry.file
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::workspace_config;

    fn parse<'a>(path: &str, src: &'a str) -> SourceFile<'a> {
        SourceFile::parse(path, src)
    }

    #[test]
    fn unsafe_outside_the_allowed_file_is_flagged() {
        let f = parse("crates/dmt-core/src/arena.rs", "unsafe fn bad() {}");
        let mut out = Vec::new();
        lint_unsafe(&f, &workspace_config(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "forbidden-unsafe");
    }

    #[test]
    fn unsafe_in_parallel_rs_needs_a_safety_comment() {
        let cfg = workspace_config();
        let covered = "// SAFETY: argued in the module docs.\nunsafe impl Send for Job {}\n";
        let f = parse("crates/dmt-ensembles/src/parallel.rs", covered);
        let mut out = Vec::new();
        lint_unsafe(&f, &cfg, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let bare = "unsafe impl Send for Job {}\n";
        let f = parse("crates/dmt-ensembles/src/parallel.rs", bare);
        let mut out = Vec::new();
        lint_unsafe(&f, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "missing-safety");
    }

    #[test]
    fn covered_unsafe_item_covers_its_nested_unsafes() {
        let src = "\
// SAFETY: delegates to the system allocator.
unsafe impl GlobalAlloc for A {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 { unsafe { System.alloc(l) } }
}
";
        let f = parse("crates/dmt-ensembles/src/parallel.rs", src);
        let mut out = Vec::new();
        lint_unsafe(&f, &workspace_config(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn spawn_is_confined_to_the_pools() {
        let cfg = workspace_config();
        let f = parse(
            "crates/dmt-eval/src/lib.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        let mut out = Vec::new();
        lint_spawn(&f, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "forbidden-spawn");

        // Test code and the pool module are exempt.
        let f = parse(
            "crates/dmt-eval/src/lib.rs",
            "#[cfg(test)]\nmod tests { fn f() { std::thread::spawn(|| {}); } }",
        );
        let mut out = Vec::new();
        lint_spawn(&f, &cfg, &mut out);
        assert!(out.is_empty());
        let f = parse(
            "crates/dmt-ensembles/src/parallel.rs",
            "fn f() { std::thread::Builder::new().spawn(|| {}); }",
        );
        let mut out = Vec::new();
        lint_spawn(&f, &cfg, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_scan_counts_non_test_sites_only() {
        let src = "\
fn lib() { x.unwrap(); y.expect(\"boom\"); panic!(\"no\"); }
#[cfg(test)]
mod tests { fn t() { z.unwrap(); } }
";
        let f = parse("crates/dmt-core/src/tree.rs", src);
        let mut sites = Vec::new();
        assert_eq!(scan_panics(&f, &mut sites), 3);
        assert!(sites.iter().all(|d| d.lint == "panic-free"));
        // `expect_end` and similar identifiers never match.
        let f = parse(
            "crates/dmt-models/src/wire.rs",
            "fn f() { r.expect_end(); }",
        );
        let mut sites = Vec::new();
        assert_eq!(scan_panics(&f, &mut sites), 0);
    }

    #[test]
    fn time_sources_flagged_only_in_deterministic_crates() {
        let cfg = workspace_config();
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = parse("crates/dmt-core/src/tree.rs", src);
        let mut out = Vec::new();
        lint_time(&f, &cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "nondeterministic-time");

        let f = parse("crates/dmt-eval/src/prequential.rs", src);
        let mut out = Vec::new();
        lint_time(&f, &cfg, &mut out);
        assert!(out.is_empty(), "dmt-eval may time itself");
    }

    #[test]
    fn hot_path_allocs_flagged_inside_designated_fns_only() {
        let cfg = workspace_config();
        let src = "\
fn gather(&mut self) { self.buf = xs.to_vec(); }
fn cold() -> Vec<f64> { ys.to_vec() }
";
        let f = parse("crates/dmt-core/src/scratch.rs", src);
        let mut out = Vec::new();
        lint_hot_alloc(&f, &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, "hot-path-alloc");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn vanished_hot_fn_is_reported() {
        let cfg = workspace_config();
        let f = parse("crates/dmt-core/src/scratch.rs", "fn renamed() {}");
        let mut out = Vec::new();
        lint_hot_alloc(&f, &cfg, &mut out);
        assert!(out.iter().any(|d| d.lint == "stale-hot-path"));
    }

    #[test]
    fn version_skew_catches_forked_literals() {
        let cfg = workspace_config();
        let source = parse(
            cfg.version_source_file,
            "pub const SNAPSHOT_VERSION: u32 = 2;",
        );
        // A lockstep local constant (the bottom-of-stack wire crate cannot
        // import upward) passes as long as the value agrees.
        let good = parse(
            "crates/dmt-models/src/wire.rs",
            "pub const WIRE_FORMAT_VERSION: u32 = 2;",
        );
        let forked = parse(
            "crates/dmt-serve/src/protocol.rs",
            "use dmt_core::snapshot::SNAPSHOT_VERSION;\nconst FRAME_VERSION: u32 = 3;",
        );
        let mut out = Vec::new();
        lint_versions(&[source, good, forked], &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, "version-skew");
        assert!(out[0].message.contains("FRAME_VERSION"));
    }

    #[test]
    fn allowlist_parses_and_rejects_malformed_lines() {
        let text = "\
# comment
crates/dmt-core/src/tree.rs | 3 | scratch checkout expects are poisoning recovery
";
        let entries = parse_allowlist(text).expect("parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].allowed, 3);
        assert!(parse_allowlist("just-a-path").is_err());
        assert!(parse_allowlist("a | nope | some justification here").is_err());
        assert!(parse_allowlist("a | 3 | short").is_err());
        assert!(parse_allowlist(
            "a | 1 | justification long enough\na | 2 | justification long enough"
        )
        .is_err());
    }

    #[test]
    fn allowlist_ratchet_is_two_sided() {
        let entries =
            parse_allowlist("f.rs | 2 | recovery paths audited in PR review").expect("parses");
        let sites = vec![
            diag("f.rs", 10, "panic-free", "`unwrap` …".to_string()),
            diag("f.rs", 20, "panic-free", "`unwrap` …".to_string()),
            diag("f.rs", 30, "panic-free", "`unwrap` …".to_string()),
        ];
        // Over budget: fails and lists the sites.
        let mut out = Vec::new();
        reconcile_allowlist(
            &[("f.rs".to_string(), 3)],
            &sites,
            &entries,
            "allow.txt",
            &mut out,
        );
        assert_eq!(out.len(), 4);
        // At budget: clean.
        let mut out = Vec::new();
        reconcile_allowlist(
            &[("f.rs".to_string(), 2)],
            &sites,
            &entries,
            "allow.txt",
            &mut out,
        );
        assert!(out.is_empty());
        // Under budget: the entry is stale and must shrink.
        let mut out = Vec::new();
        reconcile_allowlist(
            &[("f.rs".to_string(), 1)],
            &sites,
            &entries,
            "allow.txt",
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "stale-allowlist");
        // Vanished file with a budget: stale too.
        let mut out = Vec::new();
        reconcile_allowlist(&[], &sites, &entries, "allow.txt", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "stale-allowlist");
    }

    #[test]
    fn int_parser_handles_rust_literal_shapes() {
        assert_eq!(parse_int("2"), Some(2));
        assert_eq!(parse_int("0x1f"), Some(31));
        assert_eq!(parse_int("1_000u32"), Some(1000));
        assert_eq!(parse_int("abc"), None);
    }
}
