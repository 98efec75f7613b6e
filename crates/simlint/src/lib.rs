//! # simlint — the workspace determinism/reproducibility linter
//!
//! Every result this reproduction stands on — golden CSVs, serial/parallel
//! bit-identity, voltage-nested fault maps, the pinned hierarchy bench
//! baseline — depends on the simulator being *deterministic by construction*.
//! simlint enforces that property statically: it walks every `.rs` file in
//! `crates/`, `tests/` and `examples/` and reports violations of the
//! simulator-specific invariants as `file:line:rule` diagnostics.
//!
//! | Rule | Name | Invariant |
//! |------|------|-----------|
//! | D1 | `unordered-container` | no `HashMap`/`HashSet` in non-test code |
//! | D2 | `ambient-entropy` | no `thread_rng`/`from_entropy`/`SystemTime::now`/`Instant::now` outside `benches/` |
//! | D3 | `unordered-reduction` | no FP `reduce`/`fold`/`sum` directly on a rayon iterator |
//! | D4 | `lossy-counter-cast` | no narrowing `as` casts in `cache`/`cpu`/`experiments` accounting paths |
//! | D5 | `panic-path` | no `unwrap()`/`expect()`/`panic!` in library crates outside tests and `bin/` |
//! | D6 | `missing-derive` | `pub struct *Stats`/`*Config` must derive `Debug` + `Clone` |
//! | A1 | `malformed-allow` | `simlint::allow` needs a known rule and a reason |
//! | A2 | `unused-allow` | stale `simlint::allow` annotations must go |
//!
//! Intentional exceptions are acknowledged in place with an escape hatch that
//! *requires* a reason:
//!
//! ```text
//! let order = label_set.iter().collect(); // simlint::allow(D1, "sorted on the next line")
//! ```
//!
//! The tool is deliberately dependency-free: it ships its own Rust tokenizer
//! ([`tokens`]) and a line/scope-aware scanner ([`scan`]) that understands
//! `#[cfg(test)]` regions, so no `syn`/rustc machinery is needed and the
//! linter can never be broken by a vendored-shim change. Run it with
//! `cargo run -p simlint -- check` (also wired as a CI job).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Shared strict lint table — kept byte-identical in every workspace crate and
// applied per-crate (not via `[workspace.lints]`, which the vendored toolchain
// setup does not rely on). simlint's D-rules cover the determinism side; this
// table covers the general-correctness side.
#![deny(
    clippy::dbg_macro,
    clippy::exit,
    clippy::mem_forget,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(
    clippy::explicit_iter_loop,
    clippy::manual_let_else,
    clippy::map_unwrap_or,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned
)]

pub mod diag;
pub mod rules;
pub mod scan;
pub mod tokens;
pub mod walk;

pub use diag::{Diagnostic, Report, Rule, ALL_RULES};
pub use scan::{classify, FileClass};
pub use walk::{check_paths, check_workspace};

use scan::TestRegions;

/// Scans one file's source text. `path` must be the workspace-relative,
/// '/'-separated path — rule applicability (test vs. library vs. bench code,
/// accounting crates) is derived from it.
#[must_use]
pub fn scan_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = tokens::tokenize(src);
    let test = TestRegions::of(&tokens);
    let ctx = rules::RuleContext {
        path,
        class: classify(path),
        tokens: &tokens,
        test: &test,
    };
    let raw = rules::run_rules(&ctx);
    let allows = scan::parse_allows(&tokens);
    let mut used = vec![false; allows.len()];
    let mut out = Vec::new();
    for diag in raw {
        let mut suppressed = false;
        for (i, allow) in allows.iter().enumerate() {
            let well_formed = allow.rule.is_some() && allow.has_reason;
            if well_formed && allow.rule == Some(diag.rule) && allow.target_line == diag.line {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(diag);
        }
    }
    for (i, allow) in allows.iter().enumerate() {
        if allow.rule.is_none() || !allow.has_reason {
            out.push(Diagnostic {
                file: path.to_owned(),
                line: allow.comment_line,
                rule: Rule::MalformedAllow,
                message: "simlint::allow requires a known rule and a non-empty reason: \
                          `// simlint::allow(rule, \"why this is deterministic\")`"
                    .to_owned(),
            });
        } else if !used[i] {
            out.push(Diagnostic {
                file: path.to_owned(),
                line: allow.comment_line,
                rule: Rule::UnusedAllow,
                message: "this simlint::allow suppresses nothing; remove the stale annotation"
                    .to_owned(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        scan_source(path, src)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_lib_code_is_clean() {
        let src = "use std::collections::BTreeMap;\n\
                   pub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn d1_flags_hash_containers_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        let diags = lint("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), [Rule::UnorderedContainer]);
        assert_eq!(diags[0].line, 1);
        assert!(lint("tests/tests/t.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn d2_everywhere_but_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", src)), [Rule::AmbientEntropy]);
        assert!(lint("crates/cache/benches/hierarchy.rs", src).is_empty());
        // Instant as a type (no ::now) is fine.
        assert!(lint("crates/x/src/lib.rs", "fn g(t: Instant) {}\n").is_empty());
        assert_eq!(
            rules_of(&lint("crates/x/src/lib.rs", "fn f() { let r = rand::thread_rng(); }\n")),
            [Rule::AmbientEntropy]
        );
    }

    #[test]
    fn d3_direct_chain_only() {
        let bad = "fn f(v: &[f64]) -> f64 { v.par_iter().map(|x| x * 2.0).sum() }\n";
        let diags = lint("crates/x/src/lib.rs", bad);
        assert_eq!(rules_of(&diags), [Rule::UnorderedReduction]);
        // A sequential sum inside the closure body is fine…
        let inner = "fn f(v: &[Vec<f64>]) -> Vec<f64> {\n\
                     v.par_iter().map(|row| row.iter().sum()).collect()\n}\n";
        assert!(lint("crates/x/src/lib.rs", inner).is_empty());
        // …and so is a sequential chain with no rayon at all.
        assert!(lint("crates/x/src/lib.rs", "fn g(v: &[f64]) -> f64 { v.iter().sum() }\n").is_empty());
    }

    #[test]
    fn d4_accounting_crates_only() {
        let src = "pub fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(rules_of(&lint("crates/cache/src/l.rs", src)), [Rule::LossyCounterCast]);
        assert_eq!(rules_of(&lint("crates/cpu/src/l.rs", src)), [Rule::LossyCounterCast]);
        assert_eq!(rules_of(&lint("crates/experiments/src/l.rs", src)), [Rule::LossyCounterCast]);
        assert!(lint("crates/analysis/src/l.rs", src).is_empty());
        // Widening casts are fine even in accounting crates.
        assert!(lint("crates/cache/src/l.rs", "pub fn f(x: u32) -> u64 { u64::from(x) }\n").is_empty());
        assert!(lint("crates/cache/src/l.rs", "pub fn f(x: u32) -> f64 { f64::from(x) }\n").is_empty());
    }

    #[test]
    fn d5_lib_only_with_method_position() {
        let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", src)), [Rule::PanicPath]);
        assert!(lint("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(lint("tests/tests/t.rs", src).is_empty());
        assert!(lint("examples/examples/e.rs", src).is_empty());
        // `fn unwrap(` definitions and assert! macros are not flagged.
        let defs = "pub fn unwrap(x: u32) -> u32 { assert!(x > 0); x }\n";
        assert!(lint("crates/x/src/lib.rs", defs).is_empty());
        assert_eq!(
            rules_of(&lint("crates/x/src/lib.rs", "pub fn f() { panic!(\"boom\") }\n")),
            [Rule::PanicPath]
        );
        // `# Panics` doc sections and doctest bodies are comments: not flagged.
        assert!(lint("crates/x/src/lib.rs", "/// # Panics\n/// x.unwrap()\npub fn f() {}\n").is_empty());
    }

    #[test]
    fn d6_requires_debug_and_clone() {
        let bad = "#[derive(Debug)]\npub struct FooStats { pub n: u64 }\n";
        let diags = lint("crates/x/src/lib.rs", bad);
        assert_eq!(rules_of(&diags), [Rule::MissingDerive]);
        assert!(diags[0].message.contains("Clone"));
        assert_eq!(diags[0].line, 2);
        let good = "#[derive(Debug, Clone, Copy)]\npub struct FooConfig { pub n: u64 }\n";
        assert!(lint("crates/x/src/lib.rs", good).is_empty());
        // Private structs and non-matching names are not watched.
        assert!(lint("crates/x/src/lib.rs", "struct FooStats;\npub struct Other;\n").is_empty());
        assert!(lint("crates/x/src/lib.rs", "pub(crate) struct BarStats;\n").is_empty());
    }

    #[test]
    fn allow_suppresses_and_must_be_used() {
        let src = "use std::collections::HashMap; // simlint::allow(D1, \"keys sorted before emission\")\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
        let missing_reason = "use std::collections::HashMap; // simlint::allow(D1)\n";
        let diags = lint("crates/x/src/lib.rs", missing_reason);
        assert_eq!(rules_of(&diags), [Rule::UnorderedContainer, Rule::MalformedAllow]);
        let stale = "// simlint::allow(D1, \"nothing here\")\npub fn f() {}\n";
        assert_eq!(rules_of(&lint("crates/x/src/lib.rs", stale)), [Rule::UnusedAllow]);
    }

    #[test]
    fn allow_on_preceding_line_targets_next_code_line() {
        let src = "// simlint::allow(panic-path, \"length checked above\")\n\
                   pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn span_accuracy_line_numbers() {
        let src = "\n\n\nuse std::collections::HashMap;\n\nfn f() { let x = y.unwrap(); }\n";
        let diags = lint("crates/x/src/lib.rs", src);
        let lines: Vec<(Rule, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
        assert!(lines.contains(&(Rule::UnorderedContainer, 4)));
        assert!(lines.contains(&(Rule::PanicPath, 6)));
    }
}
