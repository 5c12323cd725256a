//! **wire-compat** — wire structs in `protocol.rs` must stay
//! backward-compatible: every field on a `#[derive(Deserialize)]` struct
//! that is not `#[serde(default)]` (or `#[serde(skip)]`, or `Option`)
//! makes the server reject frames from older clients that omit it — the
//! exact failure PR 5's `accept_errors` field shipped with. Every optional
//! field carries `#[serde(default)]` and the handful of genuinely-mandatory
//! fields (correlation ids, the request/reply payload itself, enums with no
//! meaningful default) carry an inline `LINT-ALLOW(wire-compat)` waiver
//! stating *why* they are mandatory. Adding a new mandatory field without
//! such a justification trips CI.

use crate::lexer::Token;
use crate::{Finding, SourceFile};

const RULE: &str = "wire-compat";

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.lexed.tokens;
    let mut pending_deserialize = false;
    let mut i = 0;
    while i < tokens.len() {
        if crate::is_attr_start(tokens, i) {
            let end = attr_end(tokens, i);
            if attr_contains(tokens, i, end, "derive")
                && attr_contains(tokens, i, end, "Deserialize")
            {
                pending_deserialize = true;
            }
            i = end;
            continue;
        }
        let text = tokens[i].text.as_str();
        if text == "struct" {
            let deserialize = pending_deserialize;
            pending_deserialize = false;
            let name = tokens
                .get(i + 1)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            // Advance to the body: `{` for named fields, `;`/`(` for
            // unit/tuple structs (which carry no field names to check).
            let mut k = i + 2;
            while k < tokens.len() && !matches!(tokens[k].text.as_str(), "{" | ";" | "(") {
                k += 1;
            }
            if k < tokens.len() && tokens[k].text == "{" && deserialize {
                k = check_fields(file, tokens, k, &name, out);
            }
            i = k + 1;
            continue;
        }
        // Only visibility tokens may sit between a derive and its struct;
        // anything else (another item kind, an expression) consumes the
        // pending derive.
        if !matches!(
            text,
            "pub" | "(" | ")" | "crate" | "super" | "self" | "in" | ":"
        ) {
            pending_deserialize = false;
        }
        i += 1;
    }
}

/// Checks the named fields of the struct body opening at `open` (`{`).
/// Returns the index of the matching `}`.
fn check_fields(
    file: &SourceFile,
    tokens: &[Token],
    open: usize,
    struct_name: &str,
    out: &mut Vec<Finding>,
) -> usize {
    let mut k = open + 1;
    loop {
        // Leading attributes on the field.
        let mut has_serde_escape = false;
        while crate::is_attr_start(tokens, k) {
            let end = attr_end(tokens, k);
            if attr_contains(tokens, k, end, "serde")
                && (attr_contains(tokens, k, end, "default")
                    || attr_contains(tokens, k, end, "skip"))
            {
                has_serde_escape = true;
            }
            k = end;
        }
        let Some(tok) = tokens.get(k) else {
            return k;
        };
        if tok.text == "}" {
            return k;
        }
        // Visibility.
        if tok.text == "pub" {
            k += 1;
            if tokens.get(k).is_some_and(|t| t.text == "(") {
                while k < tokens.len() && tokens[k].text != ")" {
                    k += 1;
                }
                k += 1;
            }
        }
        let Some(field) = tokens.get(k) else {
            return k;
        };
        let field_name = field.text.clone();
        let field_line = field.line;
        k += 1; // past name
        if tokens.get(k).is_some_and(|t| t.text == ":") {
            k += 1;
        }
        let optional = tokens.get(k).is_some_and(|t| t.text == "Option");
        // Skip the type: to the `,` or closing `}` at zero nesting.
        let mut angle = 0i64;
        let mut group = 0i64;
        while let Some(t) = tokens.get(k) {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" | "[" | "{" => group += 1,
                ")" | "]" => group -= 1,
                "}" if group == 0 => break,
                "}" => group -= 1,
                "," if angle <= 0 && group == 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if !has_serde_escape && !optional && !file.waived(RULE, field_line) {
            out.push(file.finding(
                field_line,
                RULE,
                format!(
                    "field `{field_name}` of wire struct `{struct_name}` is neither \
                     `#[serde(default)]` nor `Option`; peers omitting it will fail to parse"
                ),
            ));
        }
    }
}

fn attr_end(tokens: &[Token], i: usize) -> usize {
    crate::scan_attr(tokens, i).0
}

fn attr_contains(tokens: &[Token], start: usize, end: usize, ident: &str) -> bool {
    tokens[start..end.min(tokens.len())]
        .iter()
        .any(|t| t.text == ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/serve/src/protocol.rs".into(), src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_mandatory_field_on_deserialize_struct() {
        let src = "#[derive(Debug, Serialize, Deserialize)]\n\
                   pub struct Req {\n    pub id: u64,\n    #[serde(default)]\n    pub trace: bool,\n    pub opt: Option<u32>,\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`id`"));
        assert!(out[0].message.contains("`Req`"));
    }

    #[test]
    fn structs_without_deserialize_are_ignored() {
        let src = "#[derive(Debug, Clone)]\npub struct Plain { pub id: u64 }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn generic_types_with_commas_do_not_split_fields() {
        let src = "#[derive(Deserialize)]\n\
                   pub struct M {\n    #[serde(default)]\n    pub map: HashMap<String, Vec<u32>>,\n    #[serde(default)]\n    pub arr: [u8; 4],\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn derive_does_not_leak_past_other_items() {
        let src =
            "#[derive(Deserialize)]\npub struct A {\n    #[serde(default)]\n    pub x: u32,\n}\n\
                   pub struct B { pub y: u32 }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn tuple_and_unit_structs_are_skipped() {
        let src = "#[derive(Deserialize)]\npub struct T(pub u32);\n\
                   #[derive(Deserialize)]\npub struct U;\n";
        assert!(run(src).is_empty());
    }
}
