//! `qsdnn-lint` — repo-specific static analysis for the QS-DNN workspace.
//!
//! The serving stack's correctness rests on a handful of invariants that
//! `rustc` and clippy cannot see: every `unsafe` FFI site must be audited,
//! the request path must never panic, wire structs must stay
//! backward-compatible, atomic orderings must be deliberate, and mutex
//! guards must not straddle blocking calls. This crate walks every
//! workspace source file with a hand-rolled lexer ([`lexer`]) and enforces
//! those rules ([`rules`]), reporting findings as `file:line: rule:
//! message`. Any finding fails CI; a deliberate exception is waived at the
//! site with a `LINT-ALLOW(rule): reason` comment.
//!
//! Dependency-free by design — the same offline-vendoring discipline as
//! `crates/obs`. No `syn`, no `proc-macro2`, no clippy internals.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

/// One rule violation, addressable as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (`unsafe-audit`, `panic-path`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A lexed workspace source file plus the derived facts rules need:
/// which token ranges are `#[cfg(test)]`, which lines carry waivers.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Token stream and comment trivia.
    pub lexed: lexer::Lexed,
    /// Token index ranges (inclusive) covered by `#[test]` / `#[cfg(test)]`.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `src` and precomputes test regions.
    pub fn parse(rel: String, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let test_regions = find_test_regions(&lexed.tokens);
        SourceFile {
            rel,
            lexed,
            test_regions,
        }
    }

    /// True when the token at `idx` sits inside a `#[test]` or
    /// `#[cfg(test)]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= idx && idx <= hi)
    }

    /// True when a `// LINT-ALLOW(rule)` waiver covers `line` — either on
    /// the line itself (trailing comment) or in the comment run
    /// immediately above it.
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        let marker = format!("LINT-ALLOW({rule})");
        self.adjacent_comment(line, &marker)
    }

    /// True when a comment containing `needle` is adjacent to `line`:
    /// trailing on (or spanning) the line itself, or — for standalone
    /// comment runs with no code on their first line — ending on the line
    /// directly above. A *trailing* comment applies only to its own line.
    pub fn adjacent_comment(&self, line: u32, needle: &str) -> bool {
        self.lexed.comments.iter().any(|c| {
            if !c.text.contains(needle) {
                return false;
            }
            if c.start_line <= line && line <= c.end_line {
                return true;
            }
            let standalone = !self.lexed.tokens.iter().any(|t| t.line == c.start_line);
            standalone && c.end_line + 1 == line
        })
    }

    /// Builds a [`Finding`] for this file.
    pub fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.rel.clone(),
            line,
            rule,
            message,
        }
    }

    /// True for serve's request-handling modules, where the panic-path
    /// rule applies.
    pub fn is_request_path(&self) -> bool {
        const MODULES: [&str; 10] = [
            "crates/serve/src/server.rs",
            "crates/serve/src/conn.rs",
            "crates/serve/src/reactor.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/codec.rs",
            "crates/serve/src/cache.rs",
            "crates/serve/src/pool.rs",
            "crates/serve/src/transfer.rs",
            "crates/serve/src/exposition.rs",
            "crates/serve/src/portfolio.rs",
        ];
        MODULES.contains(&self.rel.as_str())
    }

    /// True for the wire-protocol module, where the wire-compat rule
    /// applies.
    pub fn is_protocol(&self) -> bool {
        self.rel == "crates/serve/src/protocol.rs"
    }

    /// True for library/binary source (not integration tests or examples)
    /// — where the atomic-ordering and lock-discipline rules apply.
    pub fn is_src(&self) -> bool {
        !self.rel.contains("/tests/") && !self.rel.contains("/examples/")
    }
}

/// Token index ranges covered by a `#[test]` or `#[cfg(test)]` attribute
/// and the item that follows it (to the matching `}` or terminating `;`).
/// `#[cfg(not(test))]` is *not* a test region.
fn find_test_regions(tokens: &[lexer::Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !is_attr_start(tokens, i) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (attr_end, is_test) = scan_attr(tokens, i);
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end;
        while is_attr_start(tokens, k) {
            k = scan_attr(tokens, k).0;
        }
        // The item extends to the matching `}` of its first top-level
        // brace, or to a `;` before any brace opens (e.g. `use` items).
        let mut depth = 0i64;
        let mut end = tokens.len().saturating_sub(1);
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        end = k;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((attr_start, end));
        i = end + 1;
    }
    regions
}

pub(crate) fn is_attr_start(tokens: &[lexer::Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.text == "#") && tokens.get(i + 1).is_some_and(|t| t.text == "[")
}

/// Scans the attribute starting at `i` (which satisfies [`is_attr_start`]).
/// Returns (index one past the closing `]`, whether this is a test
/// attribute).
pub(crate) fn scan_attr(tokens: &[lexer::Token], i: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = i + 1;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            "test" => has_test = true,
            "not" => has_not = true,
            _ => {}
        }
        j += 1;
    }
    (j, has_test && !has_not)
}

/// Walks `root` collecting every workspace `.rs` file, skipping `target/`,
/// `vendor/` (third-party shims lint themselves), `.git/`, and the
/// linter's own known-bad `fixtures/` trees. Paths come back sorted so
/// findings are deterministic.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = rel_path(root, &path);
        let bytes = std::fs::read(&path)?;
        let src = String::from_utf8_lossy(&bytes);
        files.push(SourceFile::parse(rel, &src));
    }
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_the_following_item() {
        let src = "fn a() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n\
                   fn c() {}\n";
        let f = SourceFile::parse("x.rs".into(), src);
        let unwraps: Vec<usize> = f
            .lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]));
        assert!(f.in_test(unwraps[1]));
        let c_idx = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "c")
            .expect("token c");
        assert!(!f.in_test(c_idx));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn a() { x.unwrap(); }\n";
        let f = SourceFile::parse("x.rs".into(), src);
        let idx = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert!(!f.in_test(idx));
    }

    #[test]
    fn stacked_attributes_extend_the_region() {
        let src = "#[test]\n#[ignore]\nfn t() { x.unwrap(); }\n";
        let f = SourceFile::parse("x.rs".into(), src);
        let idx = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert!(f.in_test(idx));
    }

    #[test]
    fn waivers_cover_same_line_and_line_above() {
        let src = "// LINT-ALLOW(panic-path): startup only\nlet x = y.unwrap();\n\
                   let z = w.unwrap(); // LINT-ALLOW(panic-path): also fine\n\
                   let q = r.unwrap();\n";
        let f = SourceFile::parse("x.rs".into(), src);
        assert!(f.waived("panic-path", 2));
        assert!(f.waived("panic-path", 3));
        assert!(!f.waived("panic-path", 4));
        assert!(!f.waived("unsafe-audit", 2));
    }
}
