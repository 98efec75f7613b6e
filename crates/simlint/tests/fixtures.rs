//! Fixture-based self-tests: every known-bad fixture must be flagged with the
//! rule its filename names (at pinned lines for span accuracy), and every
//! known-good fixture must scan clean. The fixtures live in a mini-workspace
//! layout under `fixtures/{bad,good}/` so path-scoped rules (accounting
//! crates, test/bench classification) are exercised exactly as in production.

use std::fs;
use std::path::{Path, PathBuf};

use simlint::{check_paths, scan_source, Diagnostic, Rule};

fn fixture_root(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(kind)
}

/// Collects `(workspace-relative path, source)` for every fixture file.
fn fixture_sources(kind: &str) -> Vec<(String, String)> {
    let root = fixture_root(kind);
    let mut files = Vec::new();
    collect(&root, &root, &mut files);
    files.sort();
    assert!(!files.is_empty(), "no fixtures found under {}", root.display());
    files
        .into_iter()
        .map(|rel| {
            let src = fs::read_to_string(root.join(&rel)).unwrap();
            (rel.replace('\\', "/"), src)
        })
        .collect()
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// Maps a bad-fixture filename to the rule it demonstrates.
fn expected_rule(rel: &str) -> Rule {
    let file = rel.rsplit('/').next().unwrap();
    let prefix = file.split('_').next().unwrap();
    match prefix {
        "d1" => Rule::UnorderedContainer,
        "d2" => Rule::AmbientEntropy,
        "d3" => Rule::UnorderedReduction,
        "d4" => Rule::LossyCounterCast,
        "d5" => Rule::PanicPath,
        "d6" => Rule::MissingDerive,
        "a1" => Rule::MalformedAllow,
        "a2" => Rule::UnusedAllow,
        other => panic!("bad fixture {rel} has unknown rule prefix {other}"),
    }
}

fn lines_of(diags: &[Diagnostic], rule: Rule) -> Vec<u32> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn every_bad_fixture_is_flagged_with_its_rule() {
    for (rel, src) in fixture_sources("bad") {
        let rule = expected_rule(&rel);
        let diags = scan_source(&rel, &src);
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{rel}: expected a {} diagnostic, got {diags:?}",
            rule.id()
        );
        for d in &diags {
            assert_eq!(d.file, rel, "diagnostic carries the scanned path");
            assert!(d.line >= 1, "{rel}: line numbers are 1-based");
        }
    }
}

#[test]
fn every_good_fixture_scans_clean() {
    for (rel, src) in fixture_sources("good") {
        let diags = scan_source(&rel, &src);
        assert!(diags.is_empty(), "{rel}: expected clean, got {diags:?}");
    }
}

#[test]
fn bad_fixture_spans_are_exact() {
    let sources: std::collections::BTreeMap<String, String> = fixture_sources("bad")
        .into_iter()
        .map(|(rel, src)| (rel.rsplit('/').next().unwrap().to_string(), src))
        .collect();

    let diags = |file: &str, rel: &str| scan_source(rel, &sources[file]);

    let d1 = diags("d1_unordered_container.rs", "crates/sim/src/d1_unordered_container.rs");
    assert!(lines_of(&d1, Rule::UnorderedContainer).contains(&2), "use-site flagged: {d1:?}");
    assert!(lines_of(&d1, Rule::UnorderedContainer).contains(&14), "HashSet flagged: {d1:?}");

    let d2 = diags("d2_ambient_entropy.rs", "crates/sim/src/d2_ambient_entropy.rs");
    assert_eq!(lines_of(&d2, Rule::AmbientEntropy), [5, 10, 11, 16], "{d2:?}");

    let d3 = diags("d3_unordered_reduction.rs", "crates/sim/src/d3_unordered_reduction.rs");
    assert_eq!(lines_of(&d3, Rule::UnorderedReduction), [5, 12], "{d3:?}");

    let d4 = diags("d4_lossy_cast.rs", "crates/cache/src/d4_lossy_cast.rs");
    assert_eq!(lines_of(&d4, Rule::LossyCounterCast), [5, 9, 9], "{d4:?}");

    let d5 = diags("d5_panic_path.rs", "crates/sim/src/d5_panic_path.rs");
    assert_eq!(lines_of(&d5, Rule::PanicPath), [4, 8, 13], "{d5:?}");

    let d6 = diags("d6_missing_derive.rs", "crates/sim/src/d6_missing_derive.rs");
    assert_eq!(lines_of(&d6, Rule::MissingDerive), [3, 8, 13], "{d6:?}");

    let a1 = diags("a1_malformed_allow.rs", "crates/sim/src/a1_malformed_allow.rs");
    assert_eq!(lines_of(&a1, Rule::MalformedAllow), [2, 5], "{a1:?}");

    let a2 = diags("a2_unused_allow.rs", "crates/sim/src/a2_unused_allow.rs");
    assert_eq!(lines_of(&a2, Rule::UnusedAllow), [3], "{a2:?}");
}

#[test]
fn d4_scoping_is_path_sensitive() {
    // The identical narrowing cast outside an accounting crate is not flagged.
    let src = &fixture_sources("bad")
        .into_iter()
        .find(|(rel, _)| rel.ends_with("d4_lossy_cast.rs"))
        .unwrap()
        .1;
    assert!(scan_source("crates/fault/src/free_path.rs", src).is_empty());
    assert!(!scan_source("crates/cpu/src/pipeline.rs", src).is_empty());
}

#[test]
fn walker_reports_bad_tree_and_clean_good_tree() {
    let bad = check_paths(&fixture_root("bad"), &[PathBuf::from("crates")]).unwrap();
    assert!(!bad.is_clean());
    // Walker-produced paths use the same relative form the span test pins.
    assert!(bad.diagnostics.iter().any(|d| d.file == "crates/cache/src/d4_lossy_cast.rs"));

    let good = check_paths(&fixture_root("good"), &[PathBuf::from(".")]).unwrap();
    assert!(good.is_clean(), "good fixtures must be clean: {:?}", good.diagnostics);
    assert!(good.checked_files >= 9, "all good fixtures walked");
}

#[test]
fn json_report_schema_is_stable() {
    let report = check_paths(&fixture_root("bad"), &[PathBuf::from("crates")]).unwrap();
    let json = report.render_json();
    for key in [
        "\"version\":1",
        "\"checked_files\":",
        "\"violations\":",
        "\"diagnostics\":[",
        "\"file\":",
        "\"line\":",
        "\"rule\":",
        "\"name\":",
        "\"message\":",
    ] {
        assert!(json.contains(key), "JSON output missing {key}: {json}");
    }
    assert!(json.ends_with("]}\n") || json.ends_with("]}"), "object closed: {json}");
}
