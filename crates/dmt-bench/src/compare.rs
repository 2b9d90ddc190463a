//! Shared plumbing for the CI regression gates.
//!
//! Both gate binaries — `bench_compare` (throughput) and `acc_compare`
//! (prequential accuracy) — compare a fresh benchmark run against a committed
//! baseline JSON and fail on regressions. The mechanics they share live
//! here: loading a benchmark file into generic `(model, subject)`-keyed rows
//! of numeric fields, matching baseline rows against current rows (a missing
//! current row is an error, never a silent skip), and the tolerance math.
//! The binaries keep only their domain-specific policy: throughput gates on
//! relative ratios, raw and normalised by a control row; accuracy gates
//! bounded `[0, 1]` scores on absolute deltas.
//!
//! Both read their command line through [`flag_pairs`] and
//! [`parse_tolerance`], so a misspelt flag or a value that is not a number
//! fails the gate with a message naming the flag instead of gating at a
//! default.

use std::collections::BTreeMap;

use dmt::eval::json::Json;

/// Tolerance semantics for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Relative: regressed when `current / baseline < 1 - tolerance`.
    /// The right shape for unbounded throughput numbers, where a fixed
    /// absolute band would be meaningless across fast and slow cells.
    Ratio(f64),
    /// Absolute: regressed when `current < baseline - tolerance`. The right
    /// shape for bounded scores (accuracy, kappa, F1), where a ratio would
    /// over-trigger near zero (kappa 0.05 → 0.04 is noise, not a 20 % loss)
    /// and under-trigger near one.
    AbsoluteDelta(f64),
    /// Absolute ceiling on a lower-is-better metric: regressed when
    /// `current > baseline + tolerance`. The shape for resident byte counts,
    /// where *growth* is the regression and shrinking is always welcome.
    AbsoluteCeiling(f64),
}

impl Tolerance {
    /// Lowest acceptable current value for a given baseline value. For
    /// [`Tolerance::AbsoluteCeiling`] (lower is better) this is the *highest*
    /// acceptable value instead — the bound the gate enforces either way.
    pub fn floor(&self, baseline: f64) -> f64 {
        match self {
            Tolerance::Ratio(tolerance) => baseline * (1.0 - tolerance),
            Tolerance::AbsoluteDelta(tolerance) => baseline - tolerance,
            Tolerance::AbsoluteCeiling(tolerance) => baseline + tolerance,
        }
    }

    /// Whether `current` regresses beyond the tolerance against `baseline`.
    pub fn regressed(&self, baseline: f64, current: f64) -> bool {
        match self {
            Tolerance::AbsoluteCeiling(_) => current > self.floor(baseline),
            _ => current < self.floor(baseline),
        }
    }

    /// Whether `current` *improves* on `baseline` by more than the tolerance
    /// band — the gate still passes, but the baseline is stale and worth
    /// re-blessing so the improvement is locked in.
    pub fn improved(&self, baseline: f64, current: f64) -> bool {
        match self {
            Tolerance::Ratio(tolerance) => current > baseline * (1.0 + tolerance),
            Tolerance::AbsoluteDelta(tolerance) => current > baseline + tolerance,
            Tolerance::AbsoluteCeiling(tolerance) => current < baseline - tolerance,
        }
    }
}

/// All numeric fields of one result row, keyed by field name. Non-numeric
/// fields (other than the two key fields) are ignored, so adding metadata to
/// a bench JSON never breaks an older gate binary.
pub type Row = BTreeMap<String, f64>;

/// One parsed benchmark file: `(model, subject)`-keyed rows plus the numeric
/// entries of the top-level `config` object.
#[derive(Debug, Clone, Default)]
pub struct BenchRows {
    /// `(model, subject)` → numeric fields. The subject key is the second
    /// identifying string field (`"stream"` for throughput files,
    /// `"workload"` for accuracy files).
    pub rows: BTreeMap<(String, String), Row>,
    /// Numeric fields of the `config` object (e.g. `available_parallelism`).
    pub config: BTreeMap<String, f64>,
}

/// Parse benchmark JSON into [`BenchRows`]. `key_a`/`key_b` name the two
/// string fields that identify a row (e.g. `"model"`, `"stream"`); a result
/// entry missing either is an error, because silently dropping rows is how a
/// gate stops gating.
pub fn parse_rows(
    json: &Json,
    origin: &str,
    key_a: &str,
    key_b: &str,
) -> Result<BenchRows, String> {
    let results = json
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{origin}: missing results array"))?;
    let mut rows = BTreeMap::new();
    for cell in results {
        let a = cell
            .get(key_a)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{origin}: result row without {key_a:?}"))?;
        let b = cell
            .get(key_b)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{origin}: result row without {key_b:?}"))?;
        let mut fields = Row::new();
        if let Json::Obj(members) = cell {
            for (name, value) in members {
                if let Some(number) = value.as_f64() {
                    fields.insert(name.clone(), number);
                }
            }
        }
        if rows
            .insert((a.to_string(), b.to_string()), fields)
            .is_some()
        {
            return Err(format!("{origin}: duplicate row ({a}, {b})"));
        }
    }
    let mut config = BTreeMap::new();
    if let Some(Json::Obj(members)) = json.get("config") {
        for (name, value) in members {
            if let Some(number) = value.as_f64() {
                config.insert(name.clone(), number);
            }
        }
    }
    Ok(BenchRows { rows, config })
}

/// Read and parse a benchmark file (see [`parse_rows`]).
pub fn load_rows(path: &str, key_a: &str, key_b: &str) -> Result<BenchRows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    parse_rows(&json, path, key_a, key_b)
}

/// One gated comparison: `(model, subject, baseline_row, current_row)`.
pub type MatchedRow<'a> = (&'a str, &'a str, &'a Row, &'a Row);

/// Pair every baseline row whose model passes the filter with the matching
/// current row. `models` empty = every model is gated. A baseline row with
/// no current counterpart is an **error**: a renamed or dropped cell must
/// force a re-bless, not silently shrink the gate. Extra rows that exist
/// only in the current run are ignored (they have no baseline to regress
/// against).
pub fn matched_rows<'a>(
    baseline: &'a BenchRows,
    current: &'a BenchRows,
    models: &[String],
) -> Result<Vec<MatchedRow<'a>>, String> {
    let mut matched = Vec::new();
    for ((model, subject), base) in &baseline.rows {
        if !models.is_empty() && !models.iter().any(|m| m == model) {
            continue;
        }
        let cur = current
            .rows
            .get(&(model.clone(), subject.clone()))
            .ok_or_else(|| format!("current run misses cell ({model}, {subject})"))?;
        matched.push((model.as_str(), subject.as_str(), base, cur));
    }
    Ok(matched)
}

/// Split a gate binary's arguments into `(flag, value)` pairs. Every flag
/// starts with `--` and takes exactly one value (which may be empty, as in
/// `--control ""`); a bare word or a trailing flag without a value is an
/// error. Each binary rejects the flags it does not know.
pub fn flag_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

/// Parse the tolerance a flag carries: a finite, non-negative number.
/// `--tolerance 15%` is an error naming the flag, never a silent fallback
/// to the default.
pub fn parse_tolerance(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{flag}: {value:?} is not a non-negative number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    type RowSpec<'a> = (&'a str, &'a str, &'a [(&'a str, f64)]);

    fn file(rows: &[RowSpec]) -> BenchRows {
        let mut out = BenchRows::default();
        for (a, b, fields) in rows {
            out.rows.insert(
                (a.to_string(), b.to_string()),
                fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            );
        }
        out
    }

    #[test]
    fn ratio_tolerance_brackets_the_baseline() {
        let tol = Tolerance::Ratio(0.15);
        assert!(!tol.regressed(1000.0, 900.0));
        assert!(!tol.regressed(1000.0, 850.0));
        assert!(tol.regressed(1000.0, 849.0));
        assert!(!tol.improved(1000.0, 1100.0));
        assert!(tol.improved(1000.0, 1200.0));
        assert!((tol.floor(1000.0) - 850.0).abs() < 1e-9);
    }

    #[test]
    fn absolute_tolerance_is_delta_based() {
        let tol = Tolerance::AbsoluteDelta(0.02);
        // Near zero a ratio would scream; the delta stays calm.
        assert!(!tol.regressed(0.05, 0.04));
        assert!(tol.regressed(0.05, 0.02));
        assert!(!tol.regressed(0.9, 0.885));
        assert!(tol.regressed(0.9, 0.87));
        assert!(tol.improved(0.9, 0.93));
        assert!(!tol.improved(0.9, 0.91));
    }

    #[test]
    fn ceiling_tolerance_gates_growth_not_shrinkage() {
        let tol = Tolerance::AbsoluteCeiling(1024.0);
        // Growing within the band is fine; beyond it is a regression.
        assert!(!tol.regressed(100_000.0, 100_500.0));
        assert!(tol.regressed(100_000.0, 101_500.0));
        // Shrinking is never a regression — beyond the band it flags the
        // baseline as stale (improvement), within it is just noise.
        assert!(!tol.regressed(100_000.0, 50_000.0));
        assert!(tol.improved(100_000.0, 98_000.0));
        assert!(!tol.improved(100_000.0, 99_500.0));
        assert!((tol.floor(100_000.0) - 101_024.0).abs() < 1e-9);
    }

    #[test]
    fn parse_rows_collects_numeric_fields_and_config() {
        let text = r#"{
            "bench": "accuracy_v1",
            "config": {"batch_fraction": 0.001, "note": "text ignored"},
            "results": [
                {"model": "DMT (ours)", "workload": "elec-like",
                 "accuracy": 0.81, "kappa": 0.6, "comment": "ignored"},
                {"model": "VFDT (MC)", "workload": "elec-like", "accuracy": 0.7}
            ]
        }"#;
        let json = Json::parse(text).unwrap();
        let rows = parse_rows(&json, "test", "model", "workload").unwrap();
        assert_eq!(rows.rows.len(), 2);
        let dmt = &rows.rows[&("DMT (ours)".to_string(), "elec-like".to_string())];
        assert_eq!(dmt["accuracy"], 0.81);
        assert_eq!(dmt["kappa"], 0.6);
        assert!(!dmt.contains_key("comment"));
        assert_eq!(rows.config["batch_fraction"], 0.001);
        assert!(!rows.config.contains_key("note"));
    }

    #[test]
    fn parse_rows_rejects_malformed_files() {
        let no_results = Json::parse(r#"{"bench": "x"}"#).unwrap();
        assert!(parse_rows(&no_results, "t", "model", "workload")
            .unwrap_err()
            .contains("missing results"));
        let missing_key =
            Json::parse(r#"{"results": [{"model": "DMT", "accuracy": 0.5}]}"#).unwrap();
        assert!(parse_rows(&missing_key, "t", "model", "workload")
            .unwrap_err()
            .contains("workload"));
        let duplicate = Json::parse(
            r#"{"results": [{"model": "A", "workload": "w"}, {"model": "A", "workload": "w"}]}"#,
        )
        .unwrap();
        assert!(parse_rows(&duplicate, "t", "model", "workload")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn matched_rows_pairs_and_filters() {
        let baseline = file(&[
            ("DMT", "a", &[("accuracy", 0.8)]),
            ("DMT", "b", &[("accuracy", 0.7)]),
            ("VFDT", "a", &[("accuracy", 0.6)]),
        ]);
        let current = file(&[
            ("DMT", "a", &[("accuracy", 0.81)]),
            ("DMT", "b", &[("accuracy", 0.69)]),
            ("VFDT", "a", &[("accuracy", 0.61)]),
            ("EXTRA", "a", &[("accuracy", 0.5)]),
        ]);
        let all = matched_rows(&baseline, &current, &[]).unwrap();
        assert_eq!(all.len(), 3, "extra current rows are not matched");
        let only_dmt = matched_rows(&baseline, &current, &["DMT".to_string()]).unwrap();
        assert_eq!(only_dmt.len(), 2);
        assert!(only_dmt.iter().all(|(model, ..)| *model == "DMT"));
    }

    #[test]
    fn flags_pair_with_their_values_and_reject_strays() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ok = args(&["--baseline", "B.json", "--control", ""]);
        assert_eq!(
            flag_pairs(&ok).unwrap(),
            vec![("--baseline", "B.json"), ("--control", "")]
        );
        let trailing = args(&["--baseline", "B.json", "--tolerance"]);
        assert!(flag_pairs(&trailing)
            .unwrap_err()
            .contains("--tolerance needs a value"));
        let stray = args(&["B.json"]);
        assert!(flag_pairs(&stray).unwrap_err().contains("B.json"));
    }

    #[test]
    fn tolerances_must_be_non_negative_numbers() {
        assert_eq!(parse_tolerance("--tolerance", "0.15"), Ok(0.15));
        assert_eq!(parse_tolerance("--tol-bytes", "524288"), Ok(524_288.0));
        for bad in ["15%", "", "-0.1", "NaN", "inf"] {
            let err = parse_tolerance("--tol-accuracy", bad).unwrap_err();
            assert!(err.contains("--tol-accuracy"), "{bad}: {err}");
        }
    }

    #[test]
    fn matched_rows_errors_on_a_missing_current_cell() {
        let baseline = file(&[("DMT", "a", &[("accuracy", 0.8)])]);
        let current = file(&[("DMT", "other", &[("accuracy", 0.8)])]);
        let err = matched_rows(&baseline, &current, &[]).unwrap_err();
        assert!(err.contains("misses cell"), "{err}");
    }
}
