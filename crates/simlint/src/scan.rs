//! Line/scope-aware scanning: file classification, `#[cfg(test)]` region
//! tracking and `simlint::allow` annotation parsing.

use crate::diag::Rule;
use crate::tokens::{Tok, TokKind};

/// What kind of source file a path denotes. Rules apply per class: test code
/// may panic and use unordered containers, benches may read the wall clock,
/// library code gets the full rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// A library source file (`crates/*/src/**`, excluding `bin/`).
    Lib,
    /// A binary target (`src/bin/**`, `main.rs`, `build.rs`).
    Bin,
    /// Test code (any path with a `tests` component).
    Test,
    /// A bench target (any path with a `benches` component).
    Bench,
    /// Example code (any path with an `examples` component).
    Example,
}

/// Classifies a '/'-separated workspace-relative path.
#[must_use]
pub fn classify(path: &str) -> FileClass {
    let components: Vec<&str> = path.split('/').collect();
    let has = |name: &str| components.contains(&name);
    let file_name = components.last().copied().unwrap_or_default();
    if has("benches") {
        FileClass::Bench
    } else if has("tests") {
        FileClass::Test
    } else if has("examples") {
        FileClass::Example
    } else if has("bin") || file_name == "main.rs" || file_name == "build.rs" {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// A parsed `// simlint::allow(rule, reason)` annotation.
///
/// The annotation suppresses diagnostics of `rule` on its *target line*: the
/// annotation's own line when it trails code, otherwise the next line that
/// carries code. A reason is mandatory; an allow with an unknown rule or an
/// empty reason is itself reported ([`Rule::MalformedAllow`]), and an allow
/// that suppressed nothing is reported as stale ([`Rule::UnusedAllow`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being allowed; `None` if the rule text did not resolve.
    pub rule: Option<Rule>,
    /// Whether a non-empty reason string was given.
    pub has_reason: bool,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// Line whose diagnostics this annotation suppresses.
    pub target_line: u32,
}

/// Extracts every `simlint::allow(...)` annotation from the token stream.
#[must_use]
pub fn parse_allows(tokens: &[Tok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let TokKind::LineComment(text) = &tok.kind else {
            continue;
        };
        // Doc comments (`///…`, `//!…`) are documentation, not annotations —
        // they may legitimately *describe* the allow syntax.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let mut rest = text.as_str();
        while let Some(at) = rest.find("simlint::allow") {
            rest = &rest[at + "simlint::allow".len()..];
            let Some(open) = rest.find('(') else {
                out.push(Allow {
                    rule: None,
                    has_reason: false,
                    comment_line: tok.line,
                    target_line: tok.line,
                });
                break;
            };
            let body_start = open + 1;
            let body = match rest[body_start..].find(')') {
                Some(close) => &rest[body_start..body_start + close],
                None => &rest[body_start..],
            };
            let (rule_text, reason) = match body.split_once(',') {
                Some((r, why)) => (r, why),
                None => (body, ""),
            };
            let reason = reason.trim().trim_matches('"').trim();
            out.push(Allow {
                rule: Rule::parse(rule_text),
                has_reason: !reason.is_empty(),
                comment_line: tok.line,
                target_line: allow_target_line(tokens, i),
            });
            rest = &rest[body_start..];
        }
    }
    out
}

/// The line an annotation at token index `comment_idx` applies to: its own
/// line when code precedes it there (trailing comment), else the line of the
/// next code-bearing token.
fn allow_target_line(tokens: &[Tok], comment_idx: usize) -> u32 {
    let line = tokens[comment_idx].line;
    let trails_code = tokens[..comment_idx]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .any(|t| !t.is_comment());
    if trails_code {
        return line;
    }
    tokens[comment_idx + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map_or(line, |t| t.line)
}

/// Token-index ranges (inclusive) that belong to test-only code: items behind
/// `#[cfg(test)]` / `#[test]` / `#[bench]` attributes, with the whole file a
/// single region when an inner `#![cfg(test)]` is present.
#[must_use]
pub fn test_regions(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let inner = matches!(tokens.get(i + 1), Some(t) if t.is_punct('!'));
        let bracket = i + 1 + usize::from(inner);
        if !matches!(tokens.get(bracket), Some(t) if t.is_punct('[')) {
            i += 1;
            continue;
        }
        let (idents, after) = attribute_idents(tokens, bracket);
        if attr_marks_test(&idents) {
            if inner {
                regions.push((i, tokens.len().saturating_sub(1)));
                return regions;
            }
            let end = item_end(tokens, after);
            regions.push((i, end));
            i = end + 1;
        } else {
            i = after;
        }
    }
    regions
}

/// Collects the identifiers inside an attribute whose `[` is at `open`, and
/// returns them with the index just past the matching `]`.
pub(crate) fn attribute_idents(tokens: &[Tok], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (idents, j + 1);
                }
            }
            TokKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    (idents, j)
}

/// Whether an attribute's identifier list marks test-only code.
fn attr_marks_test(idents: &[String]) -> bool {
    let first = idents.first().map(String::as_str);
    let contains = |name: &str| idents.iter().any(|s| s == name);
    match first {
        // #[cfg(test)], #[cfg(all(test, …))] — but not #[cfg(not(test))].
        Some("cfg") => contains("test") && !contains("not"),
        // #[test], #[tokio::test], #[bench] and friends.
        _ => idents.last().is_some_and(|s| s == "test" || s == "bench"),
    }
}

/// Index of the last token of the item starting at `start` (just past the
/// item's attributes): the matching `}` of its first top-level brace, or a
/// top-level `;` for brace-less items like `#[cfg(test)] use …;`.
fn item_end(tokens: &[Tok], start: usize) -> usize {
    let mut j = start;
    let mut depth = 0i64; // parens + brackets (fn args, generics' defaults…)
    // Skip any further attributes stacked on the same item.
    while j < tokens.len() {
        if tokens[j].is_punct('#')
            && matches!(tokens.get(j + 1), Some(t) if t.is_punct('['))
        {
            let (_, after) = attribute_idents(tokens, j + 1);
            j = after;
        } else {
            break;
        }
    }
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return j,
            TokKind::Punct('{') if depth == 0 => {
                // Found the body: return its matching close brace.
                let mut braces = 0i64;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokKind::Punct('{') => braces += 1,
                        TokKind::Punct('}') => {
                            braces -= 1;
                            if braces == 0 {
                                return j;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return tokens.len().saturating_sub(1);
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// A fast membership test over the regions returned by [`test_regions`].
#[derive(Debug, Clone)]
pub struct TestRegions {
    regions: Vec<(usize, usize)>,
}

impl TestRegions {
    /// Computes the test regions of a token stream.
    #[must_use]
    pub fn of(tokens: &[Tok]) -> Self {
        Self {
            regions: test_regions(tokens),
        }
    }

    /// True if the token at `idx` lies inside test-only code.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        self.regions.iter().any(|&(a, b)| a <= idx && idx <= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    #[test]
    fn classify_workspace_paths() {
        assert_eq!(classify("crates/cache/src/hierarchy.rs"), FileClass::Lib);
        assert_eq!(classify("crates/experiments/src/bin/vccmin_repro.rs"), FileClass::Bin);
        assert_eq!(classify("crates/simlint/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("tests/tests/golden_figures.rs"), FileClass::Test);
        assert_eq!(classify("tests/src/lib.rs"), FileClass::Test);
        assert_eq!(classify("crates/cache/benches/hierarchy.rs"), FileClass::Bench);
        assert_eq!(classify("examples/examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("examples/src/lib.rs"), FileClass::Example);
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let toks = tokenize(src);
        let regions = TestRegions::of(&toks);
        let unwrap_idx = toks.iter().position(|t| t.ident() == Some("unwrap")).unwrap();
        let prod_idx = toks.iter().position(|t| t.ident() == Some("prod")).unwrap();
        let after_idx = toks.iter().position(|t| t.ident() == Some("after")).unwrap();
        assert!(regions.contains(unwrap_idx));
        assert!(!regions.contains(prod_idx));
        assert!(!regions.contains(after_idx));
    }

    #[test]
    fn test_fn_attribute_and_stacked_attrs() {
        let src = "#[test]\n#[should_panic]\nfn t() { panic!(\"x\") }\nfn prod() {}\n";
        let toks = tokenize(src);
        let regions = TestRegions::of(&toks);
        let panic_idx = toks.iter().position(|t| t.ident() == Some("panic")).unwrap();
        let prod_idx = toks.iter().position(|t| t.ident() == Some("prod")).unwrap();
        assert!(regions.contains(panic_idx));
        assert!(!regions.contains(prod_idx));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let toks = tokenize(src);
        let regions = TestRegions::of(&toks);
        let unwrap_idx = toks.iter().position(|t| t.ident() == Some("unwrap")).unwrap();
        assert!(!regions.contains(unwrap_idx));
    }

    #[test]
    fn cfg_all_test_and_braceless_items() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nuse foo::HashMap;\nfn prod() {}\n";
        let toks = tokenize(src);
        let regions = TestRegions::of(&toks);
        let map_idx = toks.iter().position(|t| t.ident() == Some("HashMap")).unwrap();
        let prod_idx = toks.iter().position(|t| t.ident() == Some("prod")).unwrap();
        assert!(regions.contains(map_idx));
        assert!(!regions.contains(prod_idx));
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn anything() { x.unwrap(); }\n";
        let toks = tokenize(src);
        let regions = TestRegions::of(&toks);
        assert!(regions.contains(toks.len() - 1));
        assert!(regions.contains(0));
    }

    #[test]
    fn allow_trailing_and_standalone_targets() {
        let src = "let m = HashMap::new(); // simlint::allow(D1, \"bounded, sorted below\")\n\
                   // simlint::allow(unordered-container, \"next-line form\")\n\
                   let s = HashSet::new();\n";
        let toks = tokenize(src);
        let allows = parse_allows(&toks);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].rule, Some(Rule::UnorderedContainer));
        assert!(allows[0].has_reason);
        assert_eq!(allows[0].target_line, 1, "trailing allow targets its own line");
        assert_eq!(allows[1].target_line, 3, "standalone allow targets the next code line");
    }

    #[test]
    fn allow_without_reason_or_with_unknown_rule_is_malformed() {
        let toks = tokenize("// simlint::allow(D1)\nx();\n// simlint::allow(D47, \"y\")\ny();\n");
        let allows = parse_allows(&toks);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].rule, Some(Rule::UnorderedContainer));
        assert!(!allows[0].has_reason);
        assert_eq!(allows[1].rule, None);
        assert!(allows[1].has_reason);
    }

    #[test]
    fn doc_comments_describing_the_syntax_are_not_annotations() {
        let toks = tokenize(
            "/// Use `// simlint::allow(rule, reason)` to acknowledge.\n\
             //! simlint::allow(D1) is malformed without a reason.\n\
             fn f() {}\n",
        );
        assert!(parse_allows(&toks).is_empty());
    }

    #[test]
    fn allow_reason_quotes_are_optional() {
        let toks = tokenize("// simlint::allow(panic-path, init tables are static)\nf();\n");
        let allows = parse_allows(&toks);
        assert_eq!(allows[0].rule, Some(Rule::PanicPath));
        assert!(allows[0].has_reason);
    }
}
