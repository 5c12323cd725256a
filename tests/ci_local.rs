//! `scripts/ci-local.sh` mirrors five CI jobs step for step. For each of
//! `fmt + clippy`, `qsdnn-lint`, `build + test`, `kernels (release)` and
//! `qsbench smoke` in `.github/workflows/ci.yml`, the script runs every
//! step, in order, under the step's own name, with the step's own command
//! and environment. A change to one of those jobs that the script does not
//! follow fails here.

use std::path::{Path, PathBuf};

/// The CI jobs the script mirrors, by job name, in `ci.yml` order.
const MIRRORED: [&str; 5] = [
    "fmt + clippy",
    "qsdnn-lint",
    "build + test",
    "kernels (release)",
    "qsbench smoke",
];

/// One CI step.
#[derive(Debug, Default)]
struct Step {
    /// Name of the job the step belongs to.
    job: String,
    name: String,
    /// Each command, whitespace-normalized.
    commands: Vec<String>,
    /// `env:` entries as `(key, value)`.
    env: Vec<(String, String)>,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &str) -> String {
    let path = repo_root().join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn normalize(text: &str) -> String {
    text.replace("\\\n", " ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The `run` steps of the mirrored jobs, in file order. Reads the subset
/// of YAML that `ci.yml` uses: jobs at indent 2, their `name` at 4, steps
/// as `- ` items at 6 with fields at 8, and `>`/`|` block scalars and
/// `env` maps indented below their field.
fn ci_steps(yaml: &str) -> Vec<Step> {
    let lines: Vec<&str> = yaml.lines().collect();
    let mut steps: Vec<Step> = Vec::new();
    let mut job = "";
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        let trimmed = line.trim_start();
        i += 1;
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let field = match (indent(line), trimmed.strip_prefix("- ")) {
            (4, _) => {
                if let Some(name) = trimmed.strip_prefix("name: ") {
                    job = name;
                }
                continue;
            }
            // A step item; its first field sits on the dash line.
            (6, Some(first)) => {
                steps.push(Step {
                    job: job.to_string(),
                    ..Step::default()
                });
                first
            }
            (8, _) => trimmed,
            _ => continue,
        };
        // Lines indented past the field belong to it.
        let mut body = Vec::new();
        while i < lines.len() && (lines[i].trim().is_empty() || indent(lines[i]) > 8) {
            body.push(lines[i].trim());
            i += 1;
        }
        let step = steps.last_mut().expect("a step field follows a step item");
        if let Some(name) = field.strip_prefix("name: ") {
            step.name = name.to_string();
        } else if let Some(run) = field.strip_prefix("run: ") {
            match run {
                ">" => step.commands.push(normalize(&body.join(" "))),
                "|" => step.commands.extend(
                    body.iter()
                        .filter(|l| !l.is_empty() && !l.starts_with('#'))
                        .map(|l| normalize(l)),
                ),
                single => step.commands.push(normalize(single)),
            }
        } else if field == "env:" {
            for entry in body.iter().filter(|l| !l.is_empty()) {
                let (key, value) = entry.split_once(": ").expect("env entry is `KEY: value`");
                step.env.push((key.to_string(), value.to_string()));
            }
        }
    }
    steps.retain(|s| MIRRORED.contains(&s.job.as_str()) && !s.commands.is_empty());
    steps
}

/// `(name, arguments)` of every `step "name" ...` call, in order, with
/// continuation lines joined.
fn script_steps(script: &str) -> Vec<(String, String)> {
    script
        .replace("\\\n", " ")
        .lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("step \"")?;
            let (name, args) = rest.split_once('"')?;
            Some((name.to_string(), normalize(args)))
        })
        .collect()
}

/// The commands a script step runs: its arguments, or, when they name a
/// shell function of the script, that function's lines.
fn script_commands(script: &str, args: &str) -> Vec<String> {
    let Some(start) = script.find(&format!("\n{args}() {{\n")) else {
        return vec![args.to_string()];
    };
    script[start..]
        .lines()
        .skip(2)
        .take_while(|line| *line != "}")
        .map(normalize)
        .collect()
}

#[test]
fn ci_local_runs_every_step_of_the_mirrored_jobs_in_order() {
    let ci = ci_steps(&read(".github/workflows/ci.yml"));
    for job in MIRRORED {
        assert!(
            ci.iter().any(|s| s.job == job),
            "no run step read for `{job}`"
        );
    }
    let script = read("scripts/ci-local.sh");
    let local = script_steps(&script);
    let ci_names: Vec<&str> = ci.iter().map(|s| s.name.as_str()).collect();
    let local_names: Vec<&str> = local.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(local_names, ci_names, "step names and order");
    for (step, (_, args)) in ci.iter().zip(&local) {
        let env: String = step
            .env
            .iter()
            .map(|(key, value)| format!("env {key}=\"{value}\" "))
            .collect();
        let expected: Vec<String> = step.commands.iter().map(|c| format!("{env}{c}")).collect();
        assert_eq!(
            script_commands(&script, args),
            expected,
            "step `{}` runs other commands than CI",
            step.name
        );
    }
}

#[test]
fn the_parser_reads_names_commands_blocks_and_env() {
    let yaml = "\
jobs:
  lint:
    name: qsdnn-lint
    steps:
      - uses: actions/checkout@v4
      - name: one
        # a comment
        run: cargo run -p qsdnn-lint --release
  other:
    name: not mirrored
    steps:
      - name: skipped
        run: true
  check:
    name: fmt + clippy
    steps:
      - name: folded
        run: >
          cargo clippy -p a
          -D warnings
      - name: literal
        run: |
          cargo run > out.json
          git diff --exit-code out.json
        env:
          RUSTDOCFLAGS: -D warnings
";
    let steps = ci_steps(yaml);
    let got: Vec<(&str, &str, Vec<&str>, usize)> = steps
        .iter()
        .map(|s| {
            let commands = s.commands.iter().map(String::as_str).collect();
            (s.job.as_str(), s.name.as_str(), commands, s.env.len())
        })
        .collect();
    assert_eq!(
        got,
        [
            (
                "qsdnn-lint",
                "one",
                vec!["cargo run -p qsdnn-lint --release"],
                0
            ),
            (
                "fmt + clippy",
                "folded",
                vec!["cargo clippy -p a -D warnings"],
                0
            ),
            (
                "fmt + clippy",
                "literal",
                vec!["cargo run > out.json", "git diff --exit-code out.json"],
                1
            ),
        ]
    );
    assert_eq!(
        steps[2].env,
        [("RUSTDOCFLAGS".to_string(), "-D warnings".to_string())]
    );
}
