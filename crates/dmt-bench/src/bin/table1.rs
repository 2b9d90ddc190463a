//! Reproduces **Table I** of the paper: the data set inventory.
//!
//! For every data set the published metadata (samples, features, classes,
//! majority count) is printed next to the properties of the stream actually
//! built by this repository (at the requested `--scale`), including the
//! empirically measured majority-class count — so the substitution of the
//! real-world data sets by simulators can be audited at a glance.
//!
//! ```bash
//! cargo run -p dmt-bench --bin table1 --release -- --scale 0.02
//! ```

use dmt::stream::catalog;
use dmt::stream::DataStream;
use dmt_bench::HarnessOptions;

fn main() {
    let options = HarnessOptions::parse(std::env::args().skip(1));
    println!(
        "=== Table I: Data sets (published vs. built at scale {}) ===",
        options.scale
    );
    println!(
        "{:<22}{:>12}{:>10}{:>9}{:>16}{:>14}{:>18}{:>12}",
        "Name", "#Samples", "#Feat", "#Class", "#Majority", "Built size", "Built majority", "Drift"
    );
    for info in &catalog::TABLE1 {
        let mut stream =
            catalog::build_stream(info.name, options.scale, options.seed).expect("catalog name");
        let built_size = stream.remaining_hint().unwrap_or(0);
        // Measure the majority class of the built stream.
        let mut counts = vec![0u64; info.classes];
        let mut n = 0u64;
        while let Some(instance) = stream.next_instance() {
            counts[instance.y] += 1;
            n += 1;
        }
        let built_majority = counts.iter().max().copied().unwrap_or(0);
        println!(
            "{:<22}{:>12}{:>10}{:>9}{:>16}{:>14}{:>18}{:>12}",
            info.name,
            info.samples,
            info.features,
            info.classes,
            info.majority
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string()),
            built_size,
            format!(
                "{built_majority} ({:.1}%)",
                100.0 * built_majority as f64 / n.max(1) as f64
            ),
            info.known_drift.unwrap_or("-"),
        );
    }
    println!(
        "\nReal-world rows are simulators matching the published shape (the \
         `dmt_stream::realworld` module docs give the argument); synthetic rows use the \
         paper's generator configurations."
    );
}
