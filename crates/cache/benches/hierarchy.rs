//! Hot-path benchmark of the cache hierarchy's batched data-access entry
//! point: the perfect-L2 hierarchy against repair-protected (faulty) L2
//! organizations, at high and low voltage.
//!
//! The bench pins a machine-readable baseline (`BENCH_hierarchy.json` at the
//! workspace root) so optimization work on the access path has a fixed
//! starting point: one entry per configuration with the median/min
//! ns-per-access over the sample set.
//!
//! Modes (flags after `--` on the cargo command line):
//!
//! - default: measure every configuration, print its median and minimum, and
//!   rewrite the `BENCH_hierarchy.json` baseline (run this only on a quiet
//!   machine, deliberately; a bare `cargo bench` runs this mode).
//! - `--test`: one correctness pass per configuration, no timing, no baseline
//!   rewrite. The CI smoke mode.
//! - `--gate`: measure and compare against the pinned baseline; fails loudly
//!   if any configuration's fastest sample regressed more than
//!   [`GATE_TOLERANCE`] past the pinned median (see [`run_gate`] for why the
//!   minimum is the gated statistic). Never rewrites the baseline. The CI
//!   perf-gate mode.

use std::hint::black_box;
use std::time::Instant;

use vccmin_cache::{
    AccessResult, CacheGeometry, CacheHierarchy, DisablingScheme, FaultMap, HierarchyConfig,
    VoltageMode,
};

/// Accesses per measured sample — large enough to touch every L2 set.
const STREAM_LEN: usize = 1 << 16;
/// Timed samples per configuration (plus one warm-up pass).
const SAMPLES: usize = 20;
/// Full-stream passes per sample; a sample records the fastest of them. The
/// minimum filters scheduler and noisy-neighbor interference (which only ever
/// adds time), so the median across samples estimates steady-state throughput
/// rather than machine load.
const PASSES_PER_SAMPLE: usize = 3;
/// `--gate` fails when a configuration's fastest sample regresses past the
/// pinned median × (1 + tolerance).
const GATE_TOLERANCE: f64 = 0.15;

/// A deterministic mixed load/store stream: 70% hot accesses in a 256 KB
/// working set (L2 hits), 30% cold accesses over 16 MB (L2 misses), one store
/// in four — enough dirty evictions to exercise the write-back path.
fn address_stream() -> Vec<(u64, bool)> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..STREAM_LEN)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let hot = (state >> 33) % 10 < 7;
            let addr = if hot {
                (state >> 8) % (256 * 1024)
            } else {
                (state >> 8) % (16 * 1024 * 1024)
            };
            (addr, i % 4 == 0)
        })
        .collect()
}

/// The benchmarked configurations: label + hierarchy.
fn hierarchies() -> Vec<(&'static str, CacheHierarchy)> {
    let l1_geom = CacheGeometry::ispass2010_l1();
    let l2_geom = CacheGeometry::ispass2010_l2();
    let map_i = FaultMap::generate(&l1_geom, 0.001, 1);
    let map_d = FaultMap::generate(&l1_geom, 0.001, 2);
    let l2_map = FaultMap::generate(&l2_geom, 0.001, 3);

    let high = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::High);
    let low_l1 = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
    let low_both = low_l1.with_l2_scheme(DisablingScheme::BlockDisabling);
    let low_bitfix = HierarchyConfig::ispass2010(DisablingScheme::BitFix, VoltageMode::Low)
        .with_l2_scheme(DisablingScheme::BitFix);

    vec![
        ("high_voltage_perfect_l2", CacheHierarchy::new(high)),
        (
            "low_voltage_block_disable_l1_perfect_l2",
            CacheHierarchy::with_all_fault_maps(low_l1, Some(&map_i), Some(&map_d), None).unwrap(),
        ),
        (
            "low_voltage_block_disable_l1_and_l2",
            CacheHierarchy::with_all_fault_maps(low_both, Some(&map_i), Some(&map_d), Some(&l2_map))
                .unwrap(),
        ),
        (
            "low_voltage_bit_fix_l1_and_l2",
            CacheHierarchy::with_all_fault_maps(
                low_bitfix,
                Some(&map_i),
                Some(&map_d),
                Some(&l2_map),
            )
            .unwrap(),
        ),
    ]
}

/// Runs the stream once through the hierarchy via the batched entry point,
/// returning a latency checksum so the work cannot be optimized away.
fn run_stream(
    h: &mut CacheHierarchy,
    stream: &[(u64, bool)],
    results: &mut Vec<AccessResult>,
) -> u64 {
    results.clear();
    h.access_data_batch(stream, results);
    results
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(u64::from(r.latency)))
}

struct Measurement {
    name: &'static str,
    median_ns_per_access: f64,
    min_ns_per_access: f64,
    samples: usize,
}

/// Steady-state measurement of every configuration: one untimed warm-up pass
/// each, then `SAMPLES` rounds taken *round-robin* — sample `i` of every
/// configuration comes from round `i` — so a transient load spike on a shared
/// machine costs every configuration one sample instead of poisoning a whole
/// configuration's sample set. Each sample is the fastest of
/// [`PASSES_PER_SAMPLE`] consecutive full-stream passes over the warm
/// hierarchy.
fn measure_all(stream: &[(u64, bool)]) -> Vec<Measurement> {
    let mut hs = hierarchies();
    let mut results = Vec::with_capacity(stream.len());
    for (_, h) in &mut hs {
        black_box(run_stream(h, stream, &mut results));
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); hs.len()];
    for _ in 0..SAMPLES {
        for (per_config, (_, h)) in samples.iter_mut().zip(&mut hs) {
            let best = (0..PASSES_PER_SAMPLE)
                .map(|_| {
                    let start = Instant::now();
                    black_box(run_stream(h, stream, &mut results));
                    start.elapsed().as_nanos() as f64 / stream.len() as f64
                })
                .fold(f64::INFINITY, f64::min);
            per_config.push(best);
        }
    }
    hs.iter()
        .zip(samples)
        .map(|((name, _), mut per_access)| {
            per_access.sort_by(|a, b| a.total_cmp(b));
            Measurement {
                name,
                median_ns_per_access: per_access[per_access.len() / 2],
                min_ns_per_access: per_access[0],
                samples: per_access.len(),
            }
        })
        .collect()
}

/// Writes the JSON baseline at the workspace root (hand-rolled: the workspace
/// vendors no JSON serializer).
fn write_baseline(measurements: &[Measurement]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hierarchy.json");
    let entries: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"median_ns_per_access\": {:.2},\n      \"min_ns_per_access\": {:.2},\n      \"samples\": {}\n    }}",
                m.name, m.median_ns_per_access, m.min_ns_per_access, m.samples
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"hierarchy_access_data\",\n  \"stream_accesses\": {},\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        STREAM_LEN,
        entries.join(",\n")
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("baseline written to BENCH_hierarchy.json"),
        Err(e) => eprintln!("could not write BENCH_hierarchy.json: {e}"),
    }
}

/// Extracts `"median_ns_per_access": <value>` for `name` from the hand-rolled
/// baseline JSON (the workspace vendors no JSON parser; the format is our own
/// fixed output, so positional scanning is exact).
fn baseline_median(json: &str, name: &str) -> Option<f64> {
    let entry = json.split("\"name\": \"").find_map(|chunk| {
        chunk
            .strip_prefix(&format!("{name}\""))
            .map(|rest| rest.to_string())
    })?;
    let value = entry.split("\"median_ns_per_access\": ").nth(1)?;
    let end = value.find([',', '\n', '}'])?;
    value[..end].trim().parse().ok()
}

/// `--gate`: measure every configuration and fail if its *fastest* sample
/// regressed more than [`GATE_TOLERANCE`] past the pinned baseline median.
///
/// The gated statistic is the run's minimum ns-per-access, not its median:
/// shared-runner interference only ever adds time, so the minimum is the
/// noise-robust estimator of steady-state throughput, while a genuine code
/// regression slows every pass — minimum included — and is still caught. The
/// pinned baseline *median* (which includes typical measurement noise) plus
/// the tolerance then gives organic headroom over the quiet-machine floor.
/// The baseline file is read-only here — a regressed run must never overwrite
/// the evidence.
fn run_gate(stream: &[(u64, bool)]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hierarchy.json");
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("gate needs the pinned BENCH_hierarchy.json baseline: {e}"));
    let mut regressions = Vec::new();
    for m in measure_all(stream) {
        let name = m.name;
        let baseline = baseline_median(&json, name)
            .unwrap_or_else(|| panic!("{name}: not found in BENCH_hierarchy.json"));
        let limit = baseline * (1.0 + GATE_TOLERANCE);
        let verdict = if m.min_ns_per_access <= limit { "ok" } else { "REGRESSED" };
        println!(
            "gate: {name}: min {:.2} (median {:.2}) ns/access vs baseline median {baseline:.2} (limit {limit:.2}) {verdict}",
            m.min_ns_per_access, m.median_ns_per_access
        );
        if m.min_ns_per_access > limit {
            regressions.push(format!(
                "{name}: fastest sample {:.2} ns/access > {limit:.2} (baseline median {baseline:.2} + {:.0}%)",
                m.min_ns_per_access,
                100.0 * GATE_TOLERANCE
            ));
        }
    }
    assert!(
        regressions.is_empty(),
        "hot-path perf gate failed:\n  {}",
        regressions.join("\n  ")
    );
    println!("gate: all configurations within {:.0}% of baseline", 100.0 * GATE_TOLERANCE);
}

fn main() {
    let stream = address_stream();
    // `-- --test` (the CI smoke mode): one correctness pass per configuration,
    // no timing loops, and — crucially — no rewrite of the pinned
    // BENCH_hierarchy.json baseline with throwaway numbers.
    if std::env::args().any(|a| a == "--test") {
        let mut results = Vec::with_capacity(stream.len());
        for (name, mut hierarchy) in hierarchies() {
            let checksum = run_stream(&mut hierarchy, &stream, &mut results);
            assert!(checksum > 0, "{name}: the stream must accumulate latency");
            println!("test: {name} ok (latency checksum {checksum})");
        }
        return;
    }
    // `-- --gate` (the CI perf-gate mode): compare against the pinned baseline.
    if std::env::args().any(|a| a == "--gate") {
        run_gate(&stream);
        return;
    }
    let measurements = measure_all(&stream);
    for m in &measurements {
        println!(
            "{}: median {:.2} ns/access, min {:.2} ns/access ({} samples)",
            m.name, m.median_ns_per_access, m.min_ns_per_access, m.samples
        );
    }
    write_baseline(&measurements);
}
