//! The determinism rule set (D1–D6) over a scanned token stream.

use crate::diag::{Diagnostic, Rule};
use crate::scan::{FileClass, TestRegions};
use crate::tokens::{Tok, TokKind};

/// Rayon parallel-iterator constructors whose direct method chains must not
/// end in a shape-dependent floating-point reduction.
const PAR_ITER_NAMES: [&str; 8] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
    "par_windows",
    "par_drain",
];

/// Reductions whose result depends on the shape of rayon's reduction tree.
const REDUCTION_NAMES: [&str; 4] = ["reduce", "fold", "sum", "product"];

/// Narrowing cast targets that can silently truncate a stat counter.
const LOSSY_CAST_TARGETS: [&str; 7] = ["u32", "u16", "u8", "i32", "i16", "i8", "f32"];

/// Crate path fragments whose accounting paths rule D4 protects.
const ACCOUNTING_CRATES: [&str; 3] = ["crates/cache/", "crates/cpu/", "crates/experiments/"];

/// Context for one file's rule passes.
pub struct RuleContext<'a> {
    /// Workspace-relative, '/'-separated path.
    pub path: &'a str,
    /// Classification of the file.
    pub class: FileClass,
    /// The token stream.
    pub tokens: &'a [Tok],
    /// Test-only regions of the stream.
    pub test: &'a TestRegions,
}

impl RuleContext<'_> {
    fn diag(&self, line: u32, rule: Rule, message: String) -> Diagnostic {
        Diagnostic {
            file: self.path.to_owned(),
            line,
            rule,
            message,
        }
    }

    /// Previous non-comment token before index `i`.
    fn prev(&self, i: usize) -> Option<&Tok> {
        self.tokens[..i].iter().rev().find(|t| !t.is_comment())
    }

    /// Next non-comment token after index `i`.
    fn next(&self, i: usize) -> Option<&Tok> {
        self.tokens[i + 1..].iter().find(|t| !t.is_comment())
    }
}

/// Runs every rule over one file and returns the raw (pre-allow) diagnostics.
#[must_use]
pub fn run_rules(ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unordered_container(ctx, &mut out);
    ambient_entropy(ctx, &mut out);
    unordered_reduction(ctx, &mut out);
    lossy_counter_cast(ctx, &mut out);
    panic_path(ctx, &mut out);
    missing_derive(ctx, &mut out);
    out
}

/// D1: `HashMap`/`HashSet` anywhere in non-test code.
fn unordered_container(ctx: &RuleContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.class == FileClass::Test {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let Some(name @ ("HashMap" | "HashSet")) = tok.ident() else {
            continue;
        };
        if ctx.test.contains(i) {
            continue;
        }
        let ordered = if name == "HashMap" { "BTreeMap" } else { "BTreeSet" };
        out.push(ctx.diag(
            tok.line,
            Rule::UnorderedContainer,
            format!("`{name}` iteration order is nondeterministic; use `{ordered}` or sort before iterating"),
        ));
    }
}

/// D2: ambient entropy / wall-clock reads outside `benches/`.
fn ambient_entropy(ctx: &RuleContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.class == FileClass::Bench {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        let flagged = match name {
            "thread_rng" | "from_entropy" => true,
            "SystemTime" | "Instant" => {
                // Only the `::now` constructor reads ambient state.
                matches!(
                    (ctx.next(i), nth_non_comment(ctx.tokens, i, 3)),
                    (Some(a), Some(b)) if a.is_punct(':') && b.ident() == Some("now")
                )
            }
            _ => false,
        };
        if flagged {
            out.push(ctx.diag(
                tok.line,
                Rule::AmbientEntropy,
                format!("`{name}` injects per-run ambient state; derive all randomness and time from explicit seeds"),
            ));
        }
    }
}

/// The `n`-th non-comment token strictly after index `i`.
fn nth_non_comment(tokens: &[Tok], i: usize, n: usize) -> Option<&Tok> {
    tokens[i + 1..].iter().filter(|t| !t.is_comment()).nth(n - 1)
}

/// D3: a shape-dependent reduction in the *direct* method chain of a rayon
/// parallel iterator (same nesting depth as the `par_iter` call itself;
/// reductions inside closure bodies run sequentially and are fine).
fn unordered_reduction(ctx: &RuleContext<'_>, out: &mut Vec<Diagnostic>) {
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !PAR_ITER_NAMES.contains(&name) {
            continue;
        }
        // Require a call: `.par_iter()` / `.par_chunks(n)`.
        if !matches!(ctx.next(i), Some(t) if t.is_punct('(')) {
            continue;
        }
        let (mut pd, mut bd, mut cd) = (0i64, 0i64, 0i64);
        for (j, t) in ctx.tokens.iter().enumerate().skip(i + 1) {
            match t.kind {
                TokKind::Punct('(') => pd += 1,
                TokKind::Punct(')') => pd -= 1,
                TokKind::Punct('[') => bd += 1,
                TokKind::Punct(']') => bd -= 1,
                TokKind::Punct('{') => cd += 1,
                TokKind::Punct('}') => cd -= 1,
                TokKind::Punct(';') if pd == 0 && bd == 0 && cd == 0 => break,
                TokKind::Ident(ref m)
                    if pd == 0
                        && bd == 0
                        && cd == 0
                        && REDUCTION_NAMES.contains(&m.as_str())
                        && matches!(ctx.prev(j), Some(p) if p.is_punct('.')) =>
                {
                    out.push(ctx.diag(
                        t.line,
                        Rule::UnorderedReduction,
                        format!(
                            "`.{m}()` on a rayon parallel iterator depends on the reduction-tree shape and \
                             breaks serial/parallel bit-identity; collect and reduce sequentially, or mark \
                             the reduction ordered"
                        ),
                    ));
                }
                _ => {}
            }
            if pd < 0 || bd < 0 || cd < 0 {
                break;
            }
        }
    }
}

/// D4: narrowing `as` casts inside the accounting crates.
fn lossy_counter_cast(ctx: &RuleContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.class == FileClass::Test || !ACCOUNTING_CRATES.iter().any(|c| ctx.path.contains(c)) {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.ident() != Some("as") || ctx.test.contains(i) {
            continue;
        }
        let Some(target) = ctx.next(i).and_then(Tok::ident) else {
            continue;
        };
        if LOSSY_CAST_TARGETS.contains(&target) {
            out.push(ctx.diag(
                tok.line,
                Rule::LossyCounterCast,
                format!(
                    "lossy `as {target}` cast in an accounting path can silently truncate a stat \
                     counter; use `{target}::try_from` or widen the target type"
                ),
            ));
        }
    }
}

/// D5: `unwrap()`/`expect()`/`panic!` in library code.
fn panic_path(ctx: &RuleContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.class != FileClass::Lib {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if ctx.test.contains(i) {
            continue;
        }
        let flagged = match name {
            // Method-position only (skips `fn unwrap(` definitions and plain
            // idents); `.unwrap()` / `Option::unwrap` / `.expect("…")`.
            "unwrap" | "expect" => {
                matches!(ctx.prev(i), Some(p) if p.is_punct('.') || p.is_punct(':'))
                    && matches!(ctx.next(i), Some(n) if n.is_punct('('))
            }
            "panic" => matches!(ctx.next(i), Some(n) if n.is_punct('!')),
            _ => false,
        };
        if flagged {
            let call = if name == "panic" { "panic!" } else { name };
            out.push(ctx.diag(
                tok.line,
                Rule::PanicPath,
                format!(
                    "`{call}` in library code aborts a whole campaign worker; return a Result \
                     (assert!/debug_assert! invariant checks are exempt)"
                ),
            ));
        }
    }
}

/// D6: `pub struct *Stats`/`*Config` must derive `Debug` and `Clone`.
fn missing_derive(ctx: &RuleContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.class != FileClass::Lib {
        return;
    }
    let mut attr_idents: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < ctx.tokens.len() {
        let tok = &ctx.tokens[i];
        if tok.is_comment() {
            i += 1;
            continue;
        }
        // Accumulate outer attributes: # [ … ].
        if tok.is_punct('#') && matches!(ctx.tokens.get(i + 1), Some(t) if t.is_punct('[')) {
            let (idents, after) = crate::scan::attribute_idents(ctx.tokens, i + 1);
            attr_idents.extend(idents);
            i = after;
            continue;
        }
        if tok.ident() == Some("pub")
            && matches!(ctx.next(i), Some(t) if t.ident() == Some("struct"))
        {
            if let Some(name) = nth_non_comment(ctx.tokens, i, 2).and_then(Tok::ident) {
                let watched = name.ends_with("Stats") || name.ends_with("Config");
                if watched && !ctx.test.contains(i) {
                    let has = |what: &str| attr_idents.iter().any(|s| s == what);
                    let mut missing = Vec::new();
                    if !(has("derive") && has("Debug")) {
                        missing.push("Debug");
                    }
                    if !(has("derive") && has("Clone")) {
                        missing.push("Clone");
                    }
                    if !missing.is_empty() {
                        out.push(ctx.diag(
                            tok.line,
                            Rule::MissingDerive,
                            format!(
                                "`pub struct {name}` must derive {} (campaign results are logged \
                                 and forked across threads)",
                                missing.join(" and ")
                            ),
                        ));
                    }
                }
            }
        }
        attr_idents.clear();
        i += 1;
    }
}
