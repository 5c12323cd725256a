//! CLI driver: walk the workspace, run the rules, report every finding.
//!
//! Exit codes: `0` zero findings, `1` any finding, `2` usage/IO error.

use std::path::PathBuf;

use qsdnn_lint::{collect_files, find_workspace_root, rules};

const USAGE: &str = "\
qsdnn-lint: repo-specific static analysis for the QS-DNN workspace

USAGE:
    cargo run -p qsdnn-lint [--release] -- [OPTIONS]

OPTIONS:
    --root <dir>         workspace root (default: discovered from cwd)
    --rule <name>        run a single rule (unsafe-audit, panic-path,
                         wire-compat, atomic-ordering, lock-discipline)
    --help               show this help
";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut rule: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--rule" => match args.next() {
                Some(v) if rules::RULE_NAMES.contains(&v.as_str()) => rule = Some(v),
                Some(v) => return usage_error(&format!("unknown rule `{v}`")),
                None => return usage_error("--rule needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => return usage_error("could not find a workspace root; pass --root"),
    };

    let files = match collect_files(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "qsdnn-lint: failed to read workspace under {}: {e}",
                root.display()
            );
            return 2;
        }
    };
    let findings = rules::run_all(&files, rule.as_deref());

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("qsdnn-lint: clean ({} files checked)", files.len());
        0
    } else {
        println!(
            "qsdnn-lint: {} finding{} ({} files checked) — fix each, or waive it \
             inline with `LINT-ALLOW(rule): reason`",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            files.len()
        );
        1
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("qsdnn-lint: {msg}\n\n{USAGE}");
    2
}
