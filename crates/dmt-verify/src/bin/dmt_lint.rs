//! `dmt_lint` — run the workspace invariant analyzer.
//!
//! ```text
//! cargo run -p dmt-verify --bin dmt_lint                      # lint the workspace
//! cargo run -p dmt-verify --bin dmt_lint -- <root>            # lint another tree
//! cargo run -p dmt-verify --bin dmt_lint -- --dump-panic-counts
//! ```
//!
//! Prints one `file:line: [lint] message` line per violation and exits 1 if
//! any were found (or 2 on environment errors such as an unreadable tree or
//! a malformed allowlist).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dump = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in &args {
        match arg.as_str() {
            "--dump-panic-counts" => dump = true,
            "--help" | "-h" => {
                println!(
                    "dmt_lint: workspace invariant analyzer\n\
                     usage: dmt_lint [--dump-panic-counts] [workspace-root]"
                );
                return ExitCode::SUCCESS;
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
    }

    let root = match root_arg.map(Ok).unwrap_or_else(dmt_verify::workspace_root) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("dmt_lint: {e}");
            return ExitCode::from(2);
        }
    };

    if dump {
        return match dmt_verify::dump_panic_counts(&root) {
            Ok(lines) => {
                print!("{lines}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dmt_lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    match dmt_verify::run_workspace(&root, &dmt_verify::config::workspace_config()) {
        Ok(diagnostics) if diagnostics.is_empty() => {
            println!("dmt_lint: all workspace invariants hold");
            ExitCode::SUCCESS
        }
        Ok(diagnostics) => {
            for d in &diagnostics {
                println!("{d}");
            }
            eprintln!("dmt_lint: {} violation(s)", diagnostics.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dmt_lint: {e}");
            ExitCode::from(2)
        }
    }
}
