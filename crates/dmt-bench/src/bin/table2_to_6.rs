//! Reproduces **Tables II–VI** of the paper:
//!
//! * Table II — prequential F1 (mean ± std over time) per model and data set,
//! * Table III — number of splits,
//! * Table IV — number of parameters,
//! * Table V — computation time per test/train iteration,
//! * Table VI — the qualitative summary ranking (++ / + / − / − −).
//!
//! The full grid (8 models × 13 data sets) is executed with the paper's
//! hyperparameters; the stream lengths are scaled by `--scale` (default 0.02)
//! so the run finishes on a laptop. Raw per-cell results are written to
//! `results/tables_results.json` for further analysis (e.g. `figure4`).
//!
//! ```bash
//! cargo run -p dmt-bench --bin table2_to_6 --release -- --scale 0.02
//! ```

use dmt_bench::{aggregate, rank_symbols, render_table, run_grid, write_json, HarnessOptions};

fn main() {
    let options = HarnessOptions::parse(std::env::args().skip(1));
    eprintln!(
        "Running {} models x {} data sets at scale {} (seed {})",
        options.models.len(),
        options.datasets.len(),
        options.scale,
        options.seed
    );
    let cells = run_grid(&options);
    let _ = write_json("tables_results.json", &cells);

    // Table II: F1.
    println!(
        "{}",
        render_table(
            "Table II: F1 measure (higher is better)",
            &cells,
            &options.models,
            &options.datasets,
            2,
            |r| r.f1_mean_std(),
        )
    );
    // Tables III-V only include the stand-alone models in the paper.
    let standalone: Vec<_> = options
        .models
        .iter()
        .copied()
        .filter(|m| !m.is_ensemble())
        .collect();
    println!(
        "{}",
        render_table(
            "Table III: Number of splits (lower is better)",
            &cells,
            &standalone,
            &options.datasets,
            1,
            |r| r.splits_mean_std(),
        )
    );
    println!(
        "{}",
        render_table(
            "Table IV: Number of parameters (lower is better)",
            &cells,
            &standalone,
            &options.datasets,
            0,
            |r| r.params_mean_std(),
        )
    );

    // Table V: computation time (aggregated over data sets, like the paper).
    let aggregates = aggregate(&cells, &standalone);
    println!("\n=== Table V: Computation time per test/train iteration in seconds ===");
    for aggregate in &aggregates {
        println!("{:<14}{:>12.5}", aggregate.model, aggregate.mean_seconds);
    }

    // Table VI: qualitative summary.
    let f1_overall: Vec<(String, f64)> = aggregates
        .iter()
        .map(|a| (a.model.clone(), a.mean_f1))
        .collect();
    let f1_drift: Vec<(String, f64)> = aggregates
        .iter()
        .map(|a| (a.model.clone(), a.mean_f1_drift))
        .collect();
    let complexity: Vec<(String, f64)> = aggregates
        .iter()
        .map(|a| (a.model.clone(), a.mean_splits))
        .collect();
    let efficiency: Vec<(String, f64)> = aggregates
        .iter()
        .map(|a| (a.model.clone(), a.mean_seconds))
        .collect();
    let rank_f1 = rank_symbols(&f1_overall, true);
    let rank_drift = rank_symbols(&f1_drift, true);
    let rank_complexity = rank_symbols(&complexity, false);
    let rank_efficiency = rank_symbols(&efficiency, false);

    println!("\n=== Table VI: Experiment summary ===");
    println!(
        "{:<14}{:>22}{:>26}{:>28}{:>26}",
        "Model",
        "Overall Pred. Perf.",
        "Pred. Perf. (known drift)",
        "Complexity/Interpretability",
        "Computational Efficiency"
    );
    for aggregate in &aggregates {
        let name = &aggregate.model;
        println!(
            "{:<14}{:>22}{:>26}{:>28}{:>26}",
            name, rank_f1[name], rank_drift[name], rank_complexity[name], rank_efficiency[name]
        );
    }
    let _ = write_json("table6_aggregates.json", &aggregates);

    println!(
        "\nNote: absolute numbers differ from the paper (different hardware, scaled streams, \
         simulated real-world data); the comparison of interest is the *relative* ordering of \
         the models, and README's \"Reproduce the paper\" section says what to expect."
    );
}
