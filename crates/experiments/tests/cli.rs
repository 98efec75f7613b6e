//! The `vccmin-repro` usage contract, pinned by running the real binary:
//! asking for help succeeds, and a degenerate campaign size, a `--pfail`
//! that is not a probability, an unknown workload, core, scheme or L2
//! protection name, a workload named twice, a value flag given to a target
//! that does not read it, or output that cannot be written is an error that
//! names the problem, instead of a table of zeros, a silently ignored flag or
//! a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vccmin-repro"))
        .args(args)
        .output()
        .expect("failed to spawn vccmin-repro")
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["help"], &["schemes", "--help"]] {
        let out = repro(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?} must exit 0, got {:?}",
            out.status
        );
        assert!(
            stdout.starts_with("usage: vccmin-repro"),
            "{args:?} printed:\n{stdout}"
        );
    }
}

#[test]
fn zero_counts_are_usage_errors() {
    let cases: [&[&str]; 4] = [
        &["schemes", "--instructions", "0"],
        &["schemes", "--pairs", "0"],
        &["yield", "--dies", "0"],
        &["all", "--smoke", "--dies", "0"],
    ];
    for args in cases {
        let out = repro(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?} must fail, stdout:\n{stdout}"
        );
        assert!(
            stdout.is_empty(),
            "{args:?} must not print a table:\n{stdout}"
        );
        assert!(stderr.contains("must be at least 1"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: vccmin-repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn pfail_outside_the_unit_interval_is_a_usage_error() {
    for value in ["2", "-0.5", "NaN", "inf", "1.0000001"] {
        let out = repro(&["schemes", "--smoke", "--pfail", value]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "--pfail {value} must fail, stderr:\n{stderr}"
        );
        assert!(stdout.is_empty(), "--pfail {value} must not print a table:\n{stdout}");
        assert!(
            stderr.contains("bad pfail") && stderr.contains("[0, 1]"),
            "--pfail {value}: {stderr}"
        );
        assert!(stderr.contains("usage: vccmin-repro"), "--pfail {value}: {stderr}");
    }
}

#[test]
fn pfail_at_the_ends_of_the_unit_interval_is_accepted() {
    for value in ["0", "1"] {
        let out = repro(&[
            "schemes", "--workload", "gzip", "--instructions", "1000", "--pairs", "1", "--pfail",
            value,
        ]);
        assert!(
            out.status.success(),
            "--pfail {value} must be accepted, stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "--pfail {value} prints the matrix");
    }
}

#[test]
fn unknown_targets_and_missing_values_still_fail() {
    for args in [
        &["frobnicate"][..],
        &["schemes", "--pairs"],
        &["schemes", "--pairs", "x"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
    }
}

#[test]
fn unknown_names_are_named_errors() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["schemes", "--workload", "nosuch"],
            "unknown workload nosuch",
        ),
        (&["schemes", "--workload", ","], "unknown workload"),
        (&["schemes", "--core", "vliw"], "unknown core vliw"),
        (&["schemes", "--scheme", "nosuch"], "unknown scheme nosuch"),
        (
            &["yield", "--l2-scheme", "nosuch"],
            "unknown L2 protection nosuch",
        ),
    ];
    for (args, message) in cases {
        let out = repro(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?} must fail, stderr:\n{stderr}"
        );
        assert!(
            stdout.is_empty(),
            "{args:?} must not print a table:\n{stdout}"
        );
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

const TARGETS: [&str; 22] = [
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10", "fig11",
    "fig12", "analysis", "lowvolt", "highvolt", "schemes", "governor", "yield", "core-matrix",
    "workloads", "cores", "all",
];

/// The targets that read each value flag.
fn readers(flag: &str) -> Vec<&'static str> {
    let trace = vec![
        "lowvolt", "highvolt", "schemes", "governor", "core-matrix", "fig8", "fig9", "fig10",
        "fig11", "fig12", "all",
    ];
    match flag {
        "--workload" | "--instructions" => trace,
        "--core" => trace.into_iter().filter(|&t| t != "core-matrix").collect(),
        "--l2-scheme" | "--seed" => trace.into_iter().chain(["yield"]).collect(),
        "--pairs" | "--pfail" => vec![
            "lowvolt", "schemes", "governor", "core-matrix", "fig8", "fig9", "fig10", "all",
        ],
        "--scheme" => vec!["schemes"],
        "--dies" | "--checkpoint" => vec!["yield", "all"],
        other => panic!("no such value flag {other}"),
    }
}

#[test]
fn every_value_flag_applies_only_to_the_targets_that_read_it() {
    // With its value left off, a flag that applies fails on the missing
    // value; one that does not fails first, naming the flag and the target.
    for flag in [
        "--workload",
        "--core",
        "--instructions",
        "--l2-scheme",
        "--seed",
        "--pairs",
        "--pfail",
        "--scheme",
        "--dies",
        "--checkpoint",
    ] {
        let readers = readers(flag);
        for target in TARGETS {
            let out = repro(&[target, flag]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{target} {flag}");
            assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
            assert!(stdout.is_empty(), "{case} must not print a table:\n{stdout}");
            if readers.contains(&target) {
                assert!(stderr.starts_with(&format!("{flag} needs a")), "{case}: {stderr}");
            } else {
                let named = format!("{flag} does not apply to the `{target}` target");
                assert!(stderr.starts_with(&named), "{case}: {stderr}");
                assert!(stderr.contains("usage: vccmin-repro"), "{case}: {stderr}");
            }
        }
    }
}

#[test]
fn rejected_flags_are_named_even_with_their_values() {
    let cases: [&[&str]; 4] = [
        &["yield", "--smoke", "--pfail", "0.5", "--pairs", "3", "--instructions", "7"],
        &["fig1", "--pfail", "0.9", "--instructions", "5"],
        &["highvolt", "--smoke", "--pairs", "2"],
        &["fig12", "--smoke", "--pfail", "0.01"],
    ];
    for args in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not print a table");
        assert!(
            stderr.contains(&format!("does not apply to the `{}` target", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_workload_named_twice_is_a_named_error() {
    // Simulated twice, it would weigh double in every `mean` row.
    let out = repro(&["schemes", "--workload", "gzip,gzip,mcf"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("workload gzip is named twice"), "{stderr}");
}

/// Asserts that a run whose output could not be written failed with exit
/// code 1 and a named error, not a panic.
#[cfg(target_os = "linux")]
fn assert_write_error(label: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{label}: stderr:\n{stderr}");
    assert!(stderr.contains("cannot write output: "), "{label}: {stderr}");
    assert!(!stderr.contains("panicked"), "{label}: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_out_file_is_a_named_error() {
    let out = repro(&["table1", "--out", "/dev/full"]);
    assert_write_error("--out /dev/full", &out);
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_is_a_named_error() {
    for args in [&["table1"][..], &["fig4", "--csv"], &["--help"]] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens for writing");
        let out = Command::new(env!("CARGO_BIN_EXE_vccmin-repro"))
            .args(args)
            .stdout(std::process::Stdio::from(full))
            .output()
            .expect("failed to spawn vccmin-repro");
        assert_write_error(&format!("{args:?} > /dev/full"), &out);
    }
}
