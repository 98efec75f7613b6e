//! Rule catalog and diagnostic rendering (human and JSON).

use std::fmt;

/// Every rule simlint enforces. `D*` rules are the determinism/accounting
/// invariants; `A*` rules keep the escape-hatch annotations themselves honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// D1: no `HashMap`/`HashSet` in non-test code (iteration order is
    /// nondeterministic; use `BTreeMap`/`BTreeSet` or sort explicitly).
    UnorderedContainer,
    /// D2: no ambient entropy or wall-clock reads outside `benches/`
    /// (`thread_rng`, `from_entropy`, `SystemTime::now`, `Instant::now`).
    AmbientEntropy,
    /// D3: no floating-point `reduce`/`fold`/`sum`/`product` directly on a
    /// rayon parallel iterator (reduction-tree shape breaks serial/parallel
    /// bit-identity).
    UnorderedReduction,
    /// D4: no lossy `as` casts (`u32`/`u16`/`u8`/`i32`/`i16`/`i8`/`f32`) in
    /// the accounting paths of `cache`/`cpu`/`experiments`.
    LossyCounterCast,
    /// D5: no `unwrap()`/`expect()`/`panic!` in library crates outside tests
    /// and `bin/`.
    PanicPath,
    /// D6: every `pub struct *Stats`/`*Config` must derive `Debug` and
    /// `Clone`.
    MissingDerive,
    /// A1: a `simlint::allow` annotation that names an unknown rule or lacks a
    /// reason string.
    MalformedAllow,
    /// A2: a `simlint::allow` annotation that suppressed nothing.
    UnusedAllow,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 8] = [
    Rule::UnorderedContainer,
    Rule::AmbientEntropy,
    Rule::UnorderedReduction,
    Rule::LossyCounterCast,
    Rule::PanicPath,
    Rule::MissingDerive,
    Rule::MalformedAllow,
    Rule::UnusedAllow,
];

impl Rule {
    /// Short code (`D1`…`D6`, `A1`, `A2`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "D1",
            Rule::AmbientEntropy => "D2",
            Rule::UnorderedReduction => "D3",
            Rule::LossyCounterCast => "D4",
            Rule::PanicPath => "D5",
            Rule::MissingDerive => "D6",
            Rule::MalformedAllow => "A1",
            Rule::UnusedAllow => "A2",
        }
    }

    /// Human-readable slug, accepted (like the id) in `simlint::allow(...)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "unordered-container",
            Rule::AmbientEntropy => "ambient-entropy",
            Rule::UnorderedReduction => "unordered-reduction",
            Rule::LossyCounterCast => "lossy-counter-cast",
            Rule::PanicPath => "panic-path",
            Rule::MissingDerive => "missing-derive",
            Rule::MalformedAllow => "malformed-allow",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// One-line rationale shown by `simlint rules`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => {
                "HashMap/HashSet iteration order varies between runs; results that feed \
                 goldens must use BTreeMap/BTreeSet or an explicit sort"
            }
            Rule::AmbientEntropy => {
                "thread_rng/from_entropy/SystemTime::now/Instant::now inject per-run \
                 state; every simulator path must derive from an explicit seed"
            }
            Rule::UnorderedReduction => {
                "a floating-point reduce/fold/sum on a rayon iterator depends on the \
                 reduction-tree shape and breaks serial/parallel bit-identity"
            }
            Rule::LossyCounterCast => {
                "stat counters are u64/usize; narrowing `as` casts silently truncate \
                 at campaign scale — use try_from or widen the target type"
            }
            Rule::PanicPath => {
                "library code must surface failures as Result so campaign workers can \
                 account for them; unwrap/expect/panic! belong in tests and bin/"
            }
            Rule::MissingDerive => {
                "pub *Stats/*Config structs are logged and forked across threads; they \
                 must derive Debug and Clone"
            }
            Rule::MalformedAllow => {
                "simlint::allow(rule, reason) requires a known rule and a non-empty \
                 reason string"
            }
            Rule::UnusedAllow => {
                "an allow annotation that suppresses nothing is stale and must be \
                 removed"
            }
        }
    }

    /// Resolves a rule from its id (`D1`) or slug (`unordered-container`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Rule> {
        let text = text.trim();
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(text) || r.name() == text)
    }
}

/// One finding: `file:line:rule` plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, as given to the scanner ('/'-separated).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Site-specific explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// Result of scanning a set of files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Number of files scanned.
    pub checked_files: usize,
    /// All findings, ordered by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when no diagnostics were produced.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Sorts diagnostics into the canonical (file, line, rule) order.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable rendering: one `file:line: RULE [slug] message` per
    /// finding plus a summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "simlint: {} file(s) checked, {} violation(s)\n",
            self.checked_files,
            self.diagnostics.len()
        ));
        out
    }

    /// JSON rendering. Hand-rolled (simlint is dependency-free); the schema is
    /// pinned by `tests/fixtures.rs`:
    ///
    /// ```json
    /// {"version":1,"checked_files":N,"violations":N,
    ///  "diagnostics":[{"file":"…","line":N,"rule":"D1","name":"…","message":"…"}]}
    /// ```
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"version\":1,\"checked_files\":{},\"violations\":{},\"diagnostics\":[",
            self.checked_files,
            self.diagnostics.len()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"name\":{},\"message\":{}}}",
                json_str(&d.file),
                d.line,
                json_str(d.rule.id()),
                json_str(d.rule.name()),
                json_str(&d.message)
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_and_names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::parse(rule.id()), Some(rule));
            assert_eq!(Rule::parse(rule.name()), Some(rule));
            assert_eq!(Rule::parse(&rule.id().to_lowercase()), Some(rule));
        }
        assert_eq!(Rule::parse("D99"), None);
        assert_eq!(Rule::parse(""), None);
    }

    #[test]
    fn display_is_file_line_rule() {
        let d = Diagnostic {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            rule: Rule::UnorderedContainer,
            message: "HashMap in non-test code".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("crates/x/src/a.rs:7: D1 [unordered-container]"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_shape() {
        let mut r = Report {
            checked_files: 2,
            diagnostics: vec![Diagnostic {
                file: "f.rs".into(),
                line: 1,
                rule: Rule::PanicPath,
                message: "m".into(),
            }],
        };
        r.sort();
        let json = r.render_json();
        assert!(json.contains("\"version\":1"));
        assert!(json.contains("\"checked_files\":2"));
        assert!(json.contains("\"violations\":1"));
        assert!(json.contains("\"rule\":\"D5\""));
        assert!(json.contains("\"name\":\"panic-path\""));
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let mk = |file: &str, line, rule| Diagnostic {
            file: file.into(),
            line,
            rule,
            message: String::new(),
        };
        let mut r = Report {
            checked_files: 0,
            diagnostics: vec![
                mk("b.rs", 1, Rule::PanicPath),
                mk("a.rs", 9, Rule::PanicPath),
                mk("a.rs", 2, Rule::UnusedAllow),
                mk("a.rs", 2, Rule::UnorderedContainer),
            ],
        };
        r.sort();
        let order: Vec<(String, u32)> =
            r.diagnostics.iter().map(|d| (d.file.clone(), d.line)).collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 9),
                ("b.rs".to_string(), 1)
            ]
        );
        assert_eq!(r.diagnostics[0].rule, Rule::UnorderedContainer);
    }
}
