//! Extension experiments: ablations of the Dynamic Model Tree's
//! hyperparameters — not part of the paper's tables, but directly
//! motivated by its §V ("one might experiment with different base models,
//! optimization strategies ...") and §VI-E discussion.
//!
//! Ablated dimensions (each on the SEA and Agrawal paper streams):
//!
//! 1. **AIC threshold** on vs. off (pure Algorithm 1 with gain ≥ 0),
//! 2. **ε sweep** — 1e-2, 1e-8, 1e-16,
//! 3. **candidate pool size** — 1·m, 3·m, 6·m stored candidates,
//! 4. **learning rate** — 0.01, 0.05, 0.2,
//! 5. **candidate replacement rate** — 0.1 vs. 0.5 vs. 1.0.
//!
//! ```bash
//! cargo run -p dmt-bench --bin ablations --release -- --scale 0.01
//! ```

use dmt::core::{DmtConfig, DynamicModelTree};
use dmt::eval::{PrequentialConfig, PrequentialRun};
use dmt::prelude::*;
use dmt::stream::catalog;
use dmt_bench::HarnessOptions;

struct Variant {
    label: String,
    config: DmtConfig,
}

fn variants(seed: u64) -> Vec<Variant> {
    let base = DmtConfig {
        seed,
        ..DmtConfig::default()
    };
    let mut variants = vec![Variant {
        label: "default (paper)".to_string(),
        config: base.clone(),
    }];
    variants.push(Variant {
        label: "no AIC threshold".to_string(),
        config: DmtConfig {
            use_aic_threshold: false,
            ..base.clone()
        },
    });
    for epsilon in [1e-2, 1e-16] {
        variants.push(Variant {
            label: format!("epsilon = {epsilon:.0e}"),
            config: DmtConfig {
                epsilon,
                ..base.clone()
            },
        });
    }
    for factor in [1usize, 6] {
        variants.push(Variant {
            label: format!("candidate factor = {factor}m"),
            config: DmtConfig {
                candidate_factor: factor,
                ..base.clone()
            },
        });
    }
    for lr in [0.01, 0.2] {
        variants.push(Variant {
            label: format!("learning rate = {lr}"),
            config: DmtConfig {
                learning_rate: lr,
                ..base.clone()
            },
        });
    }
    for rate in [0.1, 1.0] {
        variants.push(Variant {
            label: format!("replacement rate = {rate}"),
            config: DmtConfig {
                replacement_rate: rate,
                ..base.clone()
            },
        });
    }
    variants
}

fn main() {
    let options = HarnessOptions::parse(std::env::args().skip(1));
    let datasets = ["SEA", "Agrawal"];
    println!(
        "=== DMT ablations at scale {} (seed {}) ===",
        options.scale, options.seed
    );
    println!(
        "{:<26}{:<12}{:>12}{:>12}{:>12}{:>14}",
        "Variant", "Dataset", "F1 mean", "F1 std", "Splits", "sec/iter"
    );
    let runner = PrequentialRun::new(PrequentialConfig {
        max_batches: options.max_batches,
        ..PrequentialConfig::default()
    });
    for variant in variants(options.seed) {
        for dataset in datasets {
            let mut stream = catalog::build_stream(dataset, options.scale, options.seed)
                .expect("catalog dataset");
            let schema = stream.schema().clone();
            let mut tree = DynamicModelTree::new(schema, variant.config.clone());
            let result = runner.evaluate(&mut tree, &mut stream, None);
            let (f1, f1_std) = result.f1_mean_std();
            let (splits, _) = result.splits_mean_std();
            let (secs, _) = result.time_mean_std();
            println!(
                "{:<26}{:<12}{:>12.3}{:>12.3}{:>12.1}{:>14.5}",
                variant.label, dataset, f1, f1_std, splits, secs
            );
        }
    }
    println!(
        "\nExpected pattern: removing the AIC threshold or enlarging the candidate pool makes \
         the tree more eager (more splits) without a matching F1 gain; the paper's defaults \
         sit at the robustness/quality sweet spot."
    );
}
