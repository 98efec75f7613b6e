//! `vccmin-repro` — command-line reproduction driver.
//!
//! Regenerates any table or figure of *Performance-Effective Operation below
//! Vcc-min* (ISPASS 2010). Analytical figures (1, 3–7) and the overhead table are
//! instantaneous; the simulation figures (8–12) run a scaled-down campaign by
//! default (override with `--instructions` and `--pairs`).
//!
//! ```text
//! vccmin-repro <target> [--workload W[,W...]] [--core C] [--scheme S] [--l2-scheme L] [--instructions N] [--pairs K] [--dies D] [--seed S] [--pfail P] [--smoke] [--csv] [--serial] [--out PATH] [--checkpoint DIR]
//!     target: fig1 fig3 fig4 fig5 fig6 fig7 table1 fig8 fig9 fig10 fig11 fig12
//!             analysis (figs 1,3-7 + table1)   lowvolt (figs 8-10)
//!             highvolt (figs 11-12)            schemes (repair-scheme matrix)
//!             governor (runtime voltage-mode governor study)
//!             yield (die-population process-variation yield study)
//!             core-matrix (scheme matrix on every CPU backend side by side)
//!             workloads (list every workload; also `--list-workloads`)
//!             cores (list every CPU backend; also `--list-cores`)
//!             all
//!     --workload: restrict a simulation campaign to a comma-separated list of
//!               distinct workloads — synthetic benchmark names (`gzip`) and/or
//!               real RISC-V kernels (`riscv:matmul`); see `vccmin-repro workloads`
//!     --core:   which CPU backend a trace-driven campaign simulates
//!               (ooo | in-order); the default `ooo` is the paper's out-of-order
//!               core and reproduces every pinned snapshot bit for bit
//!     --scheme: restrict the `schemes` campaign to one repair scheme
//!               (baseline | block-disable | word-disable | bit-fix | way-sacrifice);
//!               implies the `schemes` target when no target is given
//!     --l2-scheme: how the unified L2 is protected below Vcc-min
//!               (perfect-l2 | matched | baseline | block-disable | word-disable |
//!               bit-fix | way-sacrifice); the default `perfect-l2` reproduces the
//!               paper's fault-free L2 bit for bit, `matched` gives the L2 the same
//!               scheme as the L1s under test, and a scheme name fixes it for every
//!               configuration. For `yield` — whose scheme axis is the registry
//!               itself, matched on both arrays — `matched` or a fault-dependent
//!               scheme name adds the L2 capacity floor to the per-die pass
//!               criterion (`baseline` stays fault free, like everywhere else)
//!     --dies:   die population size of the `yield` study; the study streams
//!               shard by shard (the fleet executor of
//!               `vccmin_experiments::fleet`), so memory stays flat even at
//!               `--dies 1000000` and beyond
//!     --checkpoint: directory for the `yield` study's shard checkpoints; a
//!               killed campaign re-run with the same parameters and directory
//!               resumes from the finished shards and produces byte-identical
//!               output (shards from different parameters are ignored)
//!     --smoke:  start from the smoke-test campaign scale (4 benchmarks, tiny
//!               traces; 24 dies for `yield`) instead of the quick() scale;
//!               explicit --instructions / --pairs / --dies / --seed / --pfail
//!               still override it
//!     --out:    write the emitted tables/CSV to a file instead of stdout
//!               (progress and summaries stay on stderr either way)
//! ```
//!
//! Each value flag applies only to the targets that read it; given to any
//! other target it is a usage error that names the flag and the target:
//!
//! | value flag | targets that read it |
//! |---|---|
//! | `--workload`, `--instructions` | `lowvolt`, `highvolt`, `schemes`, `governor`, `core-matrix`, `fig8`–`fig12`, `all` |
//! | `--core` | the same, except `core-matrix` (which sweeps every backend itself) |
//! | `--l2-scheme`, `--seed` | the `--instructions` targets, plus `yield` |
//! | `--pairs`, `--pfail` | `lowvolt`, `schemes`, `governor`, `core-matrix`, `fig8`–`fig10`, `all` |
//! | `--scheme` | `schemes` |
//! | `--dies`, `--checkpoint` | `yield`, `all` |
//!
//! `--smoke`, `--csv`, `--serial` and `--out` apply to every target.
//! Simulation campaigns run on all cores by default; `--serial` runs the same
//! jobs on the calling thread, and both produce bit-identical output.
//! `--help`, `-h` or `help` prints the usage line and exits successfully; a
//! zero `--instructions`, `--pairs` or `--dies`, a `--pfail` outside `[0, 1]`,
//! or a workload named twice in `--workload`, is a usage error.

use std::env;
use std::fmt::{self, Display};
use std::fs::File;
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

use vccmin_experiments::analysis_figures as af;
use vccmin_experiments::report::FigureTable;
use vccmin_experiments::simulation::{
    CoreMatrixStudy, FaultMapPool, GovernorStudy, HighVoltageStudy, LowVoltageStudy,
    SchemeMatrixStudy, SimulationParams,
};
use vccmin_cpu::CoreModel;
use vccmin_experiments::fleet::{FleetParams, FleetStudy};
use vccmin_experiments::yield_study::YieldParams;
use vccmin_experiments::{L2Protection, OverheadTable, SchemeConfig, Workload};
use vccmin_cache::DisablingScheme;

/// The trace-driven simulation targets.
const TRACE_DRIVEN: &[&str] = &[
    "lowvolt", "highvolt", "schemes", "governor", "core-matrix", "fig8", "fig9", "fig10", "fig11",
    "fig12", "all",
];

/// The trace-driven targets plus `yield`, whose seed and L2 floor are its own.
const TRACE_DRIVEN_AND_YIELD: &[&str] = &[
    "lowvolt", "highvolt", "schemes", "governor", "core-matrix", "fig8", "fig9", "fig10", "fig11",
    "fig12", "all", "yield",
];

/// The targets with a campaign below Vcc-min, the only ones that read fault
/// maps.
const BELOW_VCC_MIN: &[&str] = &[
    "lowvolt", "schemes", "governor", "core-matrix", "fig8", "fig9", "fig10", "all",
];

/// Which targets read each value flag. Any other use of a value flag is a
/// usage error that names the flag and the target, so no flag is ever
/// silently ignored. `--smoke`, `--csv`, `--serial` and `--out` apply to
/// every target.
const FLAG_TARGETS: [(&str, &[&str]); 10] = [
    ("--workload", TRACE_DRIVEN),
    // `core-matrix` sweeps every backend itself, and `yield`'s per-die pass
    // criterion is capacity-based, so core-independent.
    (
        "--core",
        &[
            "lowvolt", "highvolt", "schemes", "governor", "fig8", "fig9", "fig10", "fig11",
            "fig12", "all",
        ],
    ),
    ("--instructions", TRACE_DRIVEN),
    ("--l2-scheme", TRACE_DRIVEN_AND_YIELD),
    ("--seed", TRACE_DRIVEN_AND_YIELD),
    ("--pairs", BELOW_VCC_MIN),
    ("--pfail", BELOW_VCC_MIN),
    ("--scheme", &["schemes"]),
    ("--dies", &["yield", "all"]),
    ("--checkpoint", &["yield", "all"]),
];

/// Rejects a value flag that `target` does not read ([`FLAG_TARGETS`]).
fn check_flag(flag: &str, target: &str) -> Result<(), String> {
    let Some((_, targets)) = FLAG_TARGETS.iter().find(|(name, _)| *name == flag) else {
        return Ok(());
    };
    if targets.contains(&target) {
        return Ok(());
    }
    Err(format!(
        "{flag} does not apply to the `{target}` target (only to {})\n{}",
        targets.join(", "),
        usage()
    ))
}

struct Options {
    target: String,
    params: SimulationParams,
    yield_params: YieldParams,
    scheme: Option<SchemeConfig>,
    csv: bool,
    serial: bool,
    out: Option<String>,
    checkpoint: Option<String>,
}

/// Parses the command line; `Ok(None)` means the usage was asked for.
fn parse_args() -> Result<Option<Options>, String> {
    let mut args = env::args().skip(1).peekable();
    // `vccmin-repro --scheme bit-fix` is shorthand for the `schemes` target.
    // Only `--scheme` implies the target; any other leading option is still the
    // usage error it always was.
    let target = match args.peek() {
        Some(first) if first == "--scheme" => "schemes".to_string(),
        Some(first) if first == "--list-workloads" => {
            args.next();
            "workloads".to_string()
        }
        Some(first) if first == "--list-cores" => {
            args.next();
            "cores".to_string()
        }
        Some(first) if is_help(first) => return Ok(None),
        _ => args.next().ok_or_else(usage)?,
    };
    let mut scheme = None;
    let mut core: Option<CoreModel> = None;
    let mut l2: Option<L2Protection> = None;
    let mut csv = false;
    let mut serial = false;
    let mut smoke = false;
    let mut instructions: Option<u64> = None;
    let mut pairs: Option<usize> = None;
    let mut dies: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut pfail: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut workloads: Option<Vec<Workload>> = None;
    while let Some(arg) = args.next() {
        check_flag(&arg, &target)?;
        match arg.as_str() {
            "--workload" => {
                let v = args.next().ok_or("--workload needs a value")?;
                let parsed = v
                    .split(',')
                    .map(|name| {
                        Workload::parse(name.trim()).ok_or_else(|| {
                            format!(
                                "unknown workload {name}; run `vccmin-repro workloads` for the \
                                 full list (synthetic names like `gzip`, kernels like \
                                 `riscv:matmul`)"
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if parsed.is_empty() {
                    return Err("--workload needs at least one name".to_string());
                }
                // A workload named twice would be simulated twice and weigh
                // double in every `mean` row.
                let twice = parsed
                    .iter()
                    .enumerate()
                    .find_map(|(i, w)| parsed[..i].contains(w).then_some(w));
                if let Some(w) = twice {
                    return Err(format!("workload {} is named twice in --workload", w.name()));
                }
                workloads = Some(parsed);
            }
            "--instructions" => {
                let v = args.next().ok_or("--instructions needs a value")?;
                instructions = Some(parse_count(&v, "instruction count")?);
            }
            "--pairs" => {
                let v = args.next().ok_or("--pairs needs a value")?;
                pairs = Some(parse_count(&v, "pair count")?);
            }
            "--dies" => {
                let v = args.next().ok_or("--dies needs a value")?;
                dies = Some(parse_count(&v, "die count")?);
            }
            "--out" => {
                out = Some(args.next().ok_or("--out needs a path")?);
            }
            "--checkpoint" => {
                checkpoint = Some(args.next().ok_or("--checkpoint needs a directory")?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad seed: {e}"))?);
            }
            "--pfail" => {
                let v = args.next().ok_or("--pfail needs a value")?;
                pfail = Some(parse_pfail(&v)?);
            }
            "--core" => {
                let v = args.next().ok_or("--core needs a value")?;
                core = Some(CoreModel::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown core {v}; expected one of {}",
                        CoreModel::ALL.map(|c| c.name()).join(" | ")
                    )
                })?);
            }
            "--scheme" => {
                let v = args.next().ok_or("--scheme needs a value")?;
                let parsed = DisablingScheme::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown scheme {v}; expected one of {}",
                        DisablingScheme::ALL.map(|s| s.name()).join(" | ")
                    )
                })?;
                scheme = Some(SchemeConfig::for_scheme(parsed));
            }
            "--l2-scheme" => {
                let v = args.next().ok_or("--l2-scheme needs a value")?;
                l2 = Some(L2Protection::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown L2 protection {v}; expected {} | {} | {}",
                        L2Protection::PERFECT_NAME,
                        L2Protection::MATCHED_NAME,
                        DisablingScheme::ALL.map(|s| s.name()).join(" | ")
                    )
                })?);
            }
            "--csv" => csv = true,
            "--serial" => serial = true,
            "--smoke" => smoke = true,
            help if is_help(help) => return Ok(None),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let mut params = if target == "core-matrix" {
        // The core matrix defaults to its pinned quick-scale campaign
        // (synthetic + riscv workloads); `--smoke` keeps those workloads but
        // drops to smoke-scale traces.
        if smoke {
            SimulationParams {
                workloads: SimulationParams::core_matrix_quick().workloads,
                ..SimulationParams::smoke()
            }
        } else {
            SimulationParams::core_matrix_quick()
        }
    } else if smoke {
        SimulationParams::smoke()
    } else {
        SimulationParams::quick()
    };
    if let Some(v) = instructions {
        params.instructions = v;
    }
    if let Some(v) = pairs {
        params.fault_map_pairs = v;
    }
    if let Some(v) = seed {
        params.master_seed = v;
    }
    if let Some(v) = pfail {
        params.pfail = v;
    }
    if let Some(v) = l2 {
        params.l2 = v;
    }
    if let Some(v) = workloads.clone() {
        params.workloads = v;
    }
    if let Some(v) = core {
        params.core = v;
    }
    let mut yield_params = if smoke {
        YieldParams::smoke()
    } else {
        YieldParams::quick()
    };
    if let Some(v) = dies {
        yield_params.dies = v;
    }
    if let Some(v) = l2 {
        // The yield study evaluates every registry scheme matched on both
        // arrays, so the flag only switches the L2 floor on — and only for
        // values that actually imply a faulty L2 (`baseline` is the fault-free
        // L2 everywhere else, so it must stay equivalent to the default here).
        yield_params.include_l2 = match v {
            L2Protection::Perfect => false,
            L2Protection::Matched => true,
            L2Protection::Fixed(scheme) => scheme.repair().needs_fault_map(),
        };
    }
    if let Some(v) = seed {
        yield_params.master_seed = v;
    }
    Ok(Some(Options {
        target,
        params,
        yield_params,
        scheme,
        csv,
        serial,
        out,
        checkpoint,
    }))
}

fn is_help(arg: &str) -> bool {
    matches!(arg, "--help" | "-h" | "help")
}

/// Parses a count that must be at least 1: a campaign with zero
/// instructions, fault-map pairs or dies has nothing to measure, and would
/// print a table of zeros as if it were a result.
fn parse_count<T>(value: &str, what: &str) -> Result<T, String>
where
    T: FromStr + Default + PartialEq,
    T::Err: Display,
{
    let count: T = value.parse().map_err(|e| format!("bad {what}: {e}"))?;
    if count == T::default() {
        return Err(format!("bad {what}: must be at least 1\n{}", usage()));
    }
    Ok(count)
}

/// Parses a per-cell failure probability: a value in `[0, 1]` (which rules out
/// NaN and infinities), the range `FaultMap::generate` accepts.
fn parse_pfail(value: &str) -> Result<f64, String> {
    let pfail: f64 = value.parse().map_err(|e| format!("bad pfail: {e}"))?;
    if !(0.0..=1.0).contains(&pfail) {
        return Err(format!(
            "bad pfail: {value} is not a probability in [0, 1]\n{}",
            usage()
        ));
    }
    Ok(pfail)
}

fn usage() -> String {
    "usage: vccmin-repro <fig1|fig3|fig4|fig5|fig6|fig7|table1|fig8|fig9|fig10|fig11|fig12|analysis|lowvolt|highvolt|schemes|governor|yield|core-matrix|workloads|cores|all> [--workload W[,W...]] [--core ooo|in-order] [--scheme baseline|block-disable|word-disable|bit-fix|way-sacrifice] [--l2-scheme perfect-l2|matched|<scheme>] [--instructions N] [--pairs K] [--dies D] [--seed S] [--pfail P] [--smoke] [--csv] [--serial] [--out PATH] [--checkpoint DIR]".to_string()
}

/// Why a target failed once its arguments parsed.
enum RunError {
    /// Writing the output failed: a full disk, or a reader that closed the
    /// pipe.
    Output(io::Error),
    /// A failure already worded for the user.
    Message(String),
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        Self::Output(e)
    }
}

impl Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Output(e) => write!(f, "cannot write output: {e}"),
            Self::Message(message) => f.write_str(message),
        }
    }
}

fn emit(out: &mut dyn Write, table: &FigureTable, csv: bool) -> io::Result<()> {
    if csv {
        write!(out, "{}", table.to_csv())
    } else {
        writeln!(out, "{table}")
    }
}

fn print_table1(out: &mut dyn Write) -> io::Result<()> {
    let table = OverheadTable::ispass2010();
    writeln!(out, "Table I: overhead comparison of the disabling schemes")?;
    writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "scheme", "tag", "disable", "victim $", "align net", "total"
    )?;
    for row in table.rows() {
        writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>12} {:>10} {:>12}",
            row.scheme,
            row.tag_transistors,
            row.disable_transistors,
            row.victim_transistors,
            if row.alignment_network { "yes" } else { "no" },
            row.total_transistors
        )?;
    }
    writeln!(out)
}

fn print_workloads(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "available workloads (pass to --workload, comma-separated):"
    )?;
    for workload in Workload::all() {
        writeln!(out, "  {:<16} {}", workload.name(), workload.description())?;
    }
    Ok(())
}

fn print_cores(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "available CPU backends (pass to --core):")?;
    for core in CoreModel::ALL {
        writeln!(out, "  {:<10} {}", core.name(), core.description())?;
    }
    Ok(())
}

fn run_analysis(out: &mut dyn Write, csv: bool) -> io::Result<()> {
    emit(out, &af::figure1(af::DEFAULT_STEPS), csv)?;
    emit(out, &af::figure3(af::DEFAULT_STEPS), csv)?;
    emit(out, &af::figure4(), csv)?;
    emit(out, &af::figure5(af::DEFAULT_STEPS), csv)?;
    emit(out, &af::figure6(af::DEFAULT_STEPS), csv)?;
    emit(out, &af::figure7(af::DEFAULT_STEPS), csv)?;
    emit(out, &af::scheme_capacity_figure(af::DEFAULT_STEPS), csv)?;
    emit(out, &af::l2_scheme_capacity_figure(af::DEFAULT_STEPS), csv)?;
    print_table1(out)
}

fn run_lowvolt(
    out: &mut dyn Write,
    params: &SimulationParams,
    pool: &FaultMapPool,
    csv: bool,
    serial: bool,
) -> io::Result<()> {
    eprintln!(
        "running low-voltage campaign: {} workloads x {} fault-map pairs x {} instructions ({})",
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions,
        executor_label(serial),
    );
    let study = LowVoltageStudy::run_with_pool(params, pool, serial);
    emit(out, &study.figure8(), csv)?;
    emit(out, &study.figure9(), csv)?;
    emit(out, &study.figure10(), csv)?;
    let word = study.average_normalized(
        vccmin_experiments::SchemeConfig::WordDisabling,
        vccmin_experiments::SchemeConfig::Baseline,
    );
    let block = study.average_normalized(
        vccmin_experiments::SchemeConfig::BlockDisabling,
        vccmin_experiments::SchemeConfig::Baseline,
    );
    let block_vc = study.average_normalized(
        vccmin_experiments::SchemeConfig::BlockDisablingVictim10T,
        vccmin_experiments::SchemeConfig::Baseline,
    );
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    eprintln!(
        "summary: avg normalized performance  word={:.1}%  block={:.1}%  block+V$={:.1}%  (block+V$ improves on word by {:.1}%)",
        100.0 * word,
        100.0 * block,
        100.0 * block_vc,
        100.0 * (block_vc / word - 1.0)
    );
    Ok(())
}

fn run_schemes(
    out: &mut dyn Write,
    params: &SimulationParams,
    pool: &FaultMapPool,
    csv: bool,
    serial: bool,
    scheme: Option<SchemeConfig>,
) -> io::Result<()> {
    let described = match scheme {
        Some(s) => format!("scheme {}", s.scheme().name()),
        None => "full scheme matrix".to_string(),
    };
    eprintln!(
        "running {described}: {} workloads x {} fault-map pairs x {} instructions, core {}, L2 {} ({})",
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions,
        params.core,
        params.l2,
        executor_label(serial),
    );
    let study = match scheme {
        Some(s) => SchemeMatrixStudy::run_single_with_pool(params, pool, s, serial),
        None => SchemeMatrixStudy::run_with_pool(params, pool, serial),
    };
    emit(out, &study.table(), csv)
}

fn run_core_matrix(
    out: &mut dyn Write,
    params: &SimulationParams,
    pool: &FaultMapPool,
    csv: bool,
    serial: bool,
) -> io::Result<()> {
    eprintln!(
        "running core matrix: {} backends x {} workloads x {} fault-map pairs x {} instructions, L2 {} ({})",
        CoreModel::ALL.len(),
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions,
        params.l2,
        executor_label(serial),
    );
    let study = CoreMatrixStudy::run_with_pool(params, pool, serial);
    emit(out, &study.table(), csv)?;
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    if let Some(first) = study.cores.first() {
        for &scheme in first.study.schemes() {
            if scheme == SchemeConfig::Baseline {
                continue;
            }
            if let Some(delta) = study.mlp_hidden_loss(scheme) {
                eprintln!(
                    "summary: {:<24} out-of-order MLP was hiding {:+.1}% of the normalized performance loss",
                    scheme.label(),
                    100.0 * delta
                );
            }
        }
    }
    Ok(())
}

fn run_governor(
    out: &mut dyn Write,
    params: &SimulationParams,
    pool: &FaultMapPool,
    csv: bool,
    serial: bool,
) -> io::Result<()> {
    eprintln!(
        "running governor campaign: {} workloads x {} policies x {} fault-map pairs x {} instructions ({})",
        params.workloads.len(),
        vccmin_experiments::GOVERNOR_POLICY_LABELS.len(),
        params.fault_map_pairs,
        params.instructions,
        executor_label(serial),
    );
    let study = GovernorStudy::run_with_pool(params, pool, serial);
    let table = study.table();
    emit(out, &table, csv)?;
    let means = table.series_means();
    let mean_of = |label: &str| -> f64 {
        table
            .series_labels
            .iter()
            .position(|l| l == label)
            .and_then(|i| means[i])
            .unwrap_or(0.0)
    };
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    eprintln!(
        "summary: vs pinned nominal  low: perf={:.1}% energy={:.1}%  interval: perf={:.1}% energy={:.1}%  reactive: perf={:.1}% energy={:.1}%",
        100.0 * mean_of("low perf"),
        100.0 * mean_of("low energy"),
        100.0 * mean_of("interval perf"),
        100.0 * mean_of("interval energy"),
        100.0 * mean_of("reactive perf"),
        100.0 * mean_of("reactive energy"),
    );
    Ok(())
}

fn run_highvolt(
    out: &mut dyn Write,
    params: &SimulationParams,
    pool: &FaultMapPool,
    csv: bool,
    serial: bool,
) -> io::Result<()> {
    eprintln!(
        "running high-voltage campaign: {} workloads x {} instructions ({})",
        params.workloads.len(),
        params.instructions,
        executor_label(serial),
    );
    let study = HighVoltageStudy::run_with_pool(params, pool, serial);
    emit(out, &study.figure11(), csv)?;
    emit(out, &study.figure12(), csv)
}

fn run_yield(
    out: &mut dyn Write,
    params: &YieldParams,
    checkpoint: Option<&str>,
    csv: bool,
    serial: bool,
) -> Result<(), RunError> {
    // Every scale runs through the streaming fleet executor: its shard
    // aggregation is byte-identical to the materializing `YieldStudy` (pinned
    // by the workspace tests), holds memory flat at millions of dies, and can
    // resume from a `--checkpoint` directory.
    let fleet = FleetParams::new(params.clone());
    eprintln!(
        "running yield study: {} dies x {} grid voltages ({:.3} down to {:.3}), capacity floor {:.0}%, {} shards of {} dies ({})",
        params.dies,
        params.steps,
        params.v_high,
        params.v_low,
        100.0 * params.min_capacity,
        fleet.shard_count(),
        fleet.shard_dies,
        executor_label(serial),
    );
    let study = match checkpoint {
        Some(dir) => {
            eprintln!("checkpointing shards to {dir} (fingerprint {:016x})", fleet.fingerprint());
            FleetStudy::run_checkpointed(&fleet, std::path::Path::new(dir), serial)
                .map_err(|e| RunError::Message(format!("checkpoint directory {dir}: {e}")))?
        }
        None if serial => FleetStudy::run(&fleet),
        None => FleetStudy::run_parallel(&fleet),
    };
    let summary = study.vccmin_summary();
    emit(out, &study.yield_curve(), csv)?;
    emit(out, &summary, csv)?;
    print_summary_diagnostics(&summary);
    Ok(())
}

/// Per-scheme Vcc-min stderr diagnostics; a scheme with zero live dies has no
/// Vcc-min cells and prints as dead.
fn print_summary_diagnostics(summary: &FigureTable) {
    // Diagnostics go to stderr so `--csv` stdout stays machine-parseable.
    for (scheme, values) in &summary.rows {
        let dead = 100.0 * values[3].unwrap_or(0.0);
        match (values[0], values[1], values[2]) {
            (Some(mean), Some(best), Some(worst)) => eprintln!(
                "summary: {scheme:<24} mean Vcc-min {mean:.3}  best {best:.3}  worst {worst:.3}  dead {dead:.1}%"
            ),
            _ => eprintln!(
                "summary: {scheme:<24} dead at every grid voltage ({dead:.1}% of dies)"
            ),
        }
    }
}

fn executor_label(serial: bool) -> String {
    if serial {
        "serial".to_string()
    } else {
        format!("parallel on {} threads", rayon::current_num_threads())
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            if let Err(e) = writeln!(io::stdout(), "{}", usage()) {
                eprintln!("{}", RunError::Output(e));
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sink: Box<dyn Write> = match &options.out {
        Some(path) => match File::create(path) {
            Ok(file) => Box::new(io::BufWriter::new(file)),
            Err(e) => {
                eprintln!("cannot open --out {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(io::stdout()),
    };
    let result = run_target(sink.as_mut(), &options).and_then(|()| Ok(sink.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the chosen target, writing its tables to `out`.
fn run_target(out: &mut dyn Write, options: &Options) -> Result<(), RunError> {
    let p = &options.params;
    let csv = options.csv;
    let serial = options.serial;
    let yield_params = &options.yield_params;
    let checkpoint = options.checkpoint.as_deref();
    match options.target.as_str() {
        "fig1" => emit(out, &af::figure1(af::DEFAULT_STEPS), csv)?,
        "fig3" => emit(out, &af::figure3(af::DEFAULT_STEPS), csv)?,
        "fig4" => emit(out, &af::figure4(), csv)?,
        "fig5" => emit(out, &af::figure5(af::DEFAULT_STEPS), csv)?,
        "fig6" => emit(out, &af::figure6(af::DEFAULT_STEPS), csv)?,
        "fig7" => emit(out, &af::figure7(af::DEFAULT_STEPS), csv)?,
        "table1" => print_table1(out)?,
        "workloads" => print_workloads(out)?,
        "cores" => print_cores(out)?,
        "analysis" => run_analysis(out, csv)?,
        "fig8" | "fig9" | "fig10" | "lowvolt" => {
            run_lowvolt(out, p, &FaultMapPool::new(p), csv, serial)?;
        }
        "fig11" | "fig12" | "highvolt" => {
            run_highvolt(out, p, &FaultMapPool::new(p), csv, serial)?;
        }
        "schemes" => run_schemes(out, p, &FaultMapPool::new(p), csv, serial, options.scheme)?,
        "governor" => run_governor(out, p, &FaultMapPool::new(p), csv, serial)?,
        "core-matrix" => run_core_matrix(out, p, &FaultMapPool::new(p), csv, serial)?,
        "yield" => run_yield(out, yield_params, checkpoint, csv, serial)?,
        "all" => {
            // One pool for the whole session: the four simulation campaigns
            // share identical master-seed-derived fault maps, so they are
            // generated once here instead of once per campaign.
            let pool = FaultMapPool::new(p);
            run_analysis(out, csv)?;
            run_lowvolt(out, p, &pool, csv, serial)?;
            run_highvolt(out, p, &pool, csv, serial)?;
            run_schemes(out, p, &pool, csv, serial, None)?;
            run_governor(out, p, &pool, csv, serial)?;
            run_yield(out, yield_params, checkpoint, csv, serial)?;
        }
        other => {
            return Err(RunError::Message(format!(
                "unknown target {other}\n{}",
                usage()
            )));
        }
    }
    Ok(())
}
