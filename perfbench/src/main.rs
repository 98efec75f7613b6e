//! Benchmark of the vccmin campaigns, one workload per invocation.
//!
//! ```text
//! vccmin-perfbench --workload W --seed N --seconds S --trace 0|1
//! vccmin-perfbench --print-digests
//! ```
//!
//! `--trace 0` times the set-up and repeats the campaign call for `S`
//! seconds, reporting medians. `--trace 1` runs the campaign once untraced,
//! then rebuilds every cell or die from the libraries' public entry points
//! under per-layer spans (written to `.bench_out/`). Either way the output
//! rows are checked, a summary goes to stdout, and the last line is one JSON
//! object. `--print-digests` prints the reference rows of every workload at
//! both pinned seeds, in the format of `reference.txt`.

mod check;
mod probe;
mod spec;
mod traced;

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Row;
use spec::{Bench, Output, Setup, DEFAULT_SEED, HELD_OUT_SEED};
use traced::{Tracer, PER_LAYER};
use vccmin_cpu::SimResult;
use vccmin_experiments::SchemeMatrixStudy;

const USAGE: &str = "usage: vccmin-perfbench --workload <ooo-schemes|inorder-l2-schemes|yield-l2> --seed N --seconds S --trace 0|1\n       vccmin-perfbench --print-digests";

/// Before each campaign call, set-up is timed repeatedly for this long (at
/// least once, at most `MAX_BURST` times), so that a short set-up is timed
/// many times and across the whole run.
const SETUP_BURST: Duration = Duration::from_millis(50);
const MAX_BURST: usize = 1000;
/// Campaign cells rebuilt by the untraced run's spot check.
const SPOT_CELLS: usize = 2;
/// Dies of the population prefix the untraced fleet spot check re-derives.
const SPOT_DIES: usize = 4;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    PrintDigests,
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            return Ok(Command::PrintDigests);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    }))
}

/// The result line: row counts and metrics with their units.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Resets the peak resident set to the current one (Linux `clear_refs`).
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset the peak resident set: {e}");
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deterministic pick of `count` indices below `n` from `seed`.
fn pick(seed: u64, count: usize, n: usize) -> Vec<usize> {
    let mut x = seed;
    (0..count)
        .map(|_| {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        })
        .collect()
}

/// Per row, whether the first output of a run is right: it holds the
/// invariants, matches the pinned digests at a pinned seed, and survives the
/// spot check.
fn first_output_ok(
    bench: Bench,
    seed: u64,
    setup: &Setup,
    output: &Output,
    rows: &[Row],
) -> Vec<bool> {
    let mut ok = check::row_checks(bench, seed, setup, output, rows);
    match (setup, output) {
        (Setup::Campaign { params, pool }, Output::Campaign(study)) => {
            let schemes = SchemeMatrixStudy::matrix_schemes().len();
            let cells: Vec<(usize, usize)> =
                pick(seed, SPOT_CELLS, params.workloads.len() * schemes)
                    .into_iter()
                    .map(|c| (c / schemes, c % schemes))
                    .collect();
            let spot = traced::spot_check_campaign(params, pool, study, &cells);
            for (flag, spot_ok) in ok.iter_mut().zip(spot) {
                *flag &= spot_ok;
            }
        }
        (Setup::Fleet { fleet, .. }, Output::Fleet(_)) => {
            if !traced::spot_check_fleet(fleet, SPOT_DIES) {
                ok.iter_mut().for_each(|flag| *flag = false);
            }
        }
        _ => unreachable!("set-up and output come from the same workload"),
    }
    ok
}

/// Runs the campaign once at a pinned seed and checks its rows against the
/// reference, so that every run checks the model's output whatever seed it
/// measures. Returns (rows attempted, rows failed).
fn pinned_check(bench: Bench, seed: u64) -> (usize, usize) {
    if check::is_pinned(seed) {
        return (0, 0);
    }
    let pinned = if seed.is_multiple_of(2) {
        DEFAULT_SEED
    } else {
        HELD_OUT_SEED
    };
    let setup = Setup::new(bench, pinned);
    let output = setup.run();
    let ok = check::row_checks(bench, pinned, &setup, &output, &check::rows(&output));
    (ok.len(), ok.iter().filter(|&&row_ok| !row_ok).count())
}

/// Every simulation result of a campaign.
fn sim_results(study: &SchemeMatrixStudy) -> impl Iterator<Item = &SimResult> {
    study
        .workloads
        .iter()
        .flat_map(|b| &b.configs)
        .flat_map(|c| &c.runs)
}

/// Exact counts of an output, for the summary.
fn counts(setup: &Setup, output: &Output) -> String {
    match (setup, output) {
        (Setup::Campaign { params, pool }, Output::Campaign(study)) => {
            let (mut insts, mut cycles, mut accesses, mut cells) = (0u64, 0u64, 0u64, 0u64);
            for r in sim_results(study) {
                insts += r.instructions;
                cycles += r.cycles;
                accesses += r.hierarchy.l1i.accesses + r.hierarchy.l1d.accesses;
                cells += 1;
            }
            let maps = 2 * pool.pairs().len()
                + pool
                    .l2_maps_if_needed(params.l2, &SchemeMatrixStudy::matrix_schemes())
                    .len();
            format!("sim_insts={insts} sim_cycles={cycles} cache.accesses={accesses} fault.maps={maps} cells={cells}")
        }
        (Setup::Fleet { grid, .. }, Output::Fleet(study)) => {
            format!(
                "dies={} grid_points={} dead={:?}",
                study.dies,
                grid.len(),
                study.dead
            )
        }
        _ => unreachable!("set-up and output come from the same workload"),
    }
}

/// The untraced run: rounds of a burst of set-ups and one campaign call,
/// for `seconds`; the medians of both are reported.
fn timed_run(args: &Args) -> Report {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let threads = rayon::current_num_threads();
    let (mut setup_s, mut run_s, mut probe_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reps: Vec<Vec<Row>> = Vec::new();
    let mut first: Option<(Setup, Output)> = None;
    reset_peak_rss();
    loop {
        let burst = Instant::now();
        let setup = loop {
            let t = Instant::now();
            let setup = Setup::new(args.bench, args.seed);
            setup_s.push(t.elapsed().as_secs_f64());
            if burst.elapsed() >= SETUP_BURST || setup_s.len() % MAX_BURST == 0 {
                break setup;
            }
        };
        let t = Instant::now();
        let output = setup.run();
        let took = t.elapsed();
        run_s.push(took.as_secs_f64());
        probe_s.push(probe::probe_s(threads));
        reps.push(check::rows(&output));
        first.get_or_insert((setup, output));
        if started.elapsed() + took >= budget {
            break;
        }
    }
    let rss = peak_rss_mb();
    let (setup, first) = first.expect("at least one repetition ran");
    let rows0 = &reps[0];
    let ok0 = first_output_ok(args.bench, args.seed, &setup, &first, rows0);
    let (pinned_attempted, pinned_failed) = pinned_check(args.bench, args.seed);
    let attempted = reps.iter().map(Vec::len).sum::<usize>() + pinned_attempted;
    let failed = reps
        .iter()
        .map(|rows| {
            (0..rows0.len())
                .filter(|&i| !ok0[i] || rows.len() != rows0.len() || rows[i] != rows0[i])
                .count()
        })
        .sum::<usize>()
        + pinned_failed;

    let setup_median = median(&setup_s);
    let run_median = median(&run_s);
    let probe_median = median(&probe_s);
    let host_scale = probe::REFERENCE_PROBE_S / probe_median;
    let throughput = match &first {
        Output::Campaign(study) => {
            let insts: u64 = sim_results(study).map(|r| r.instructions).sum();
            format!("sim_mips={:.4} Minst/s", insts as f64 / 1e6 / run_median)
        }
        Output::Fleet(study) => format!("dies_per_s={:.4} 1/s", study.dies as f64 / run_median),
    };
    println!(
        "# {} seed={} threads={} nproc={} setups={} reps={}",
        args.bench.name(),
        args.seed,
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup_s.len(),
        run_s.len()
    );
    println!(
        "# setup_s={setup_median:.6} s  run_s={run_median:.4} s  {throughput}  peak_rss_mb={rss:.1} MB  error_rate={:.4} ({failed}/{attempted} rows)",
        ratio(failed, attempted)
    );
    let reps_s: Vec<String> = run_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("# run_s per repetition: {}", reps_s.join(" "));
    let probes: Vec<String> = probe_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("# probe_s per repetition: {}", probes.join(" "));
    println!(
        "# host speed: probe median {probe_median:.4} s, reference {} s, scale {host_scale:.4}; at the reference speed setup_s={:.6} s run_s={:.4} s",
        probe::REFERENCE_PROBE_S,
        setup_median * host_scale,
        run_median * host_scale
    );
    println!("# counts: {}", counts(&setup, &first));
    Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_median * host_scale, "s"),
            ("run_s", run_median * host_scale, "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: one untraced campaign call, then the per-layer rebuild.
fn traced_run(args: &Args) -> Report {
    let threads = rayon::current_num_threads();
    let setup = Setup::new(args.bench, args.seed);
    let t = Instant::now();
    let output = setup.run();
    let run_s = t.elapsed().as_secs_f64();
    let rows = check::rows(&output);
    let ok = check::row_checks(args.bench, args.seed, &setup, &output, &rows);

    let mut tracer = Tracer::new();
    let (rebuilt, mut metrics) = match (&setup, &output) {
        (Setup::Campaign { params, .. }, Output::Campaign(study)) => {
            traced::trace_campaign(params, study, run_s, threads, &mut tracer)
        }
        (
            Setup::Fleet {
                fleet,
                grid,
                schemes,
                seeds,
                l2_seeds,
            },
            Output::Fleet(study),
        ) => traced::trace_fleet(
            fleet,
            grid,
            schemes,
            seeds,
            l2_seeds,
            study,
            run_s,
            threads,
            &mut tracer,
        ),
        _ => unreachable!("set-up and output come from the same workload"),
    };
    let traced_s = tracer.elapsed().as_secs_f64();
    metrics.insert("trace_overhead_ratio", traced_s / run_s);
    metrics.insert("experiments.threads", threads as f64);
    metrics.insert("experiments.run_s", run_s);
    let spans = format!(
        ".bench_out/spans-{}-seed{}.tsv",
        args.bench.name(),
        args.seed
    );
    if let Err(e) = tracer.write(Path::new(&spans)) {
        eprintln!("warning: could not write {spans}: {e}");
    }

    let failed = ok
        .iter()
        .zip(&rebuilt)
        .filter(|(a, b)| !(**a && **b))
        .count();
    println!(
        "# {} seed={} traced: run_s={run_s:.4} s traced_s={traced_s:.4} s threads={threads} spans={spans}",
        args.bench.name(),
        args.seed
    );
    println!("# counts: {}", counts(&setup, &output));
    for (name, unit) in PER_LAYER {
        println!(
            "# {name} = {} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    Report {
        attempted: rows.len(),
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, metrics.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    }
}

/// Row count of a workload's output, for a run that panicked.
fn expected_rows(bench: Bench) -> usize {
    match bench {
        Bench::YieldL2 => {
            let params = spec::yield_params(DEFAULT_SEED);
            params.steps + vccmin_experiments::YieldStudy::scheme_labels().len()
        }
        _ => spec::campaign_params(bench, DEFAULT_SEED).workloads.len(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::PrintDigests) => {
            for bench in Bench::ALL {
                for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                    let rows = check::rows(&Setup::new(bench, seed).run());
                    for line in check::reference_lines(bench, seed, &rows) {
                        println!("{line}");
                    }
                }
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            traced_run(&args)
        } else {
            timed_run(&args)
        }
    }));
    // A panic fails every row of the run.
    let report = outcome.unwrap_or_else(|_| {
        let rows = expected_rows(args.bench);
        let names: Vec<(&'static str, &'static str)> = if args.trace {
            PER_LAYER.to_vec()
        } else {
            vec![("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]
        };
        Report {
            attempted: rows,
            failed: rows,
            metrics: names.into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    });
    println!("{}", report.json());
    ExitCode::SUCCESS
}
