//! The traced run: every cell and die of a workload rebuilt from the
//! libraries' public entry points, with a span around each call into a layer.
//! Spans stay in memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use vccmin_cache::repair::RepairScheme;
use vccmin_cache::{AccessResult, CacheHierarchy, FaultMap, HierarchyStats, VoltageMode};
use vccmin_cpu::{CoreModel, OpClass, SimResult, TraceInstruction};
use vccmin_experiments::{
    FaultMapPool, FleetParams, FleetStudy, SchemeConfig, SchemeMatrixStudy, SimulationParams,
    Workload, YieldParams, YieldStudy,
};
use vccmin_fault::DieVariation;

/// Instructions drained past the budget, so the out-of-order front end never
/// runs dry before the core has committed its last instruction.
const FETCH_SLACK: usize = 4096;

/// Every per-layer metric with its unit, in report order. A metric a
/// workload has no work for reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.ns_per_inst", "ns"),
    ("workloads.insts", "count"),
    ("workloads.share", "ratio"),
    ("riscv.ns_per_inst", "ns"),
    ("riscv.insts", "count"),
    ("riscv.share", "ratio"),
    ("cpu.ooo_ns_per_inst", "ns"),
    ("cpu.ooo_ns_per_cycle", "ns"),
    ("cpu.ooo_self_ns_per_inst", "ns"),
    ("cpu.inorder_ns_per_inst", "ns"),
    ("cpu.inorder_ns_per_cycle", "ns"),
    ("cpu.inorder_self_ns_per_inst", "ns"),
    ("cpu.share", "ratio"),
    ("cache.build_us", "us"),
    ("cache.replay_ns_per_access", "ns"),
    ("cache.accesses", "count"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("cache.l2_miss_ratio", "ratio"),
    ("cache.capacity_floor_us", "us"),
    ("cache.share", "ratio"),
    ("fault.l1_pair_ms", "ms"),
    ("fault.l2_map_ms", "ms"),
    ("fault.die_variation_ms", "ms"),
    ("fault.at_voltage_l1_ms", "ms"),
    ("fault.at_voltage_l2_ms", "ms"),
    ("fault.maps", "count"),
    ("fault.share", "ratio"),
    ("experiments.cells", "count"),
    ("experiments.cell_ms_p50", "ms"),
    ("experiments.cell_ms_max", "ms"),
    ("experiments.pairs_skipped_ratio", "ratio"),
    ("experiments.shards", "count"),
    ("experiments.probes_per_die", "count"),
    ("experiments.die_ms_p50", "ms"),
    ("experiments.die_ms_max", "ms"),
    ("experiments.parallel_efficiency", "ratio"),
    ("experiments.threads", "count"),
    ("experiments.sim_insts", "count"),
    ("experiments.sim_cycles", "count"),
    ("experiments.sim_mips", "Minst/s"),
    ("experiments.dies", "count"),
    ("experiments.dies_per_s", "1/s"),
    ("experiments.run_s", "s"),
    ("trace_overhead_ratio", "ratio"),
];

/// One recorded span: a named call into a layer, and the span it ran under.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result and duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Time since the tracer started.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Writes every span as `id parent name start_ns end_ns`, tab-separated.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut text = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median and maximum of `values` (zeros when empty).
fn p50_max(values: &mut [f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values.sort_by(f64::total_cmp);
    (values[(values.len() - 1) / 2], values[values.len() - 1])
}

/// One run of same-side cache accesses in program order.
enum Segment {
    Fetch(Vec<u64>),
    Data(Vec<(u64, bool)>),
}

/// The cache accesses of a trace in program order: a fetch whenever the
/// fetch block changes or after a taken branch, and every load and store.
fn segments(trace: &[TraceInstruction]) -> (Vec<Segment>, u64) {
    let mut out: Vec<Segment> = Vec::new();
    let mut accesses = 0;
    let mut block = None;
    for ins in trace {
        if block != Some(ins.pc & !63) {
            block = Some(ins.pc & !63);
            accesses += 1;
            match out.last_mut() {
                Some(Segment::Fetch(addrs)) => addrs.push(ins.pc),
                _ => out.push(Segment::Fetch(vec![ins.pc])),
            }
        }
        if let Some(addr) = ins.mem_addr.filter(|_| ins.op.is_mem()) {
            let access = (addr, ins.op == OpClass::Store);
            accesses += 1;
            match out.last_mut() {
                Some(Segment::Data(batch)) => batch.push(access),
                _ => out.push(Segment::Data(vec![access])),
            }
        }
        if ins.branch.is_some_and(|b| b.taken) {
            block = None;
        }
    }
    (out, accesses)
}

/// Pushes `segments` through the batched entry points of `hierarchy`.
fn replay(hierarchy: &mut CacheHierarchy, segments: &[Segment]) {
    let mut results: Vec<AccessResult> = Vec::new();
    for segment in segments {
        results.clear();
        match segment {
            Segment::Fetch(addrs) => hierarchy.access_instr_batch(addrs, &mut results),
            Segment::Data(batch) => hierarchy.access_data_batch(batch, &mut results),
        }
    }
    std::hint::black_box(&results);
}

/// Whether the campaign evaluates `scheme` once per fault-map pair.
fn map_dependent(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    scheme.fault_dependent() || params.l2.scheme_for(scheme).repair().needs_fault_map()
}

/// Whether the campaign stops after the first usable pair (word-disabling's
/// organization is the same for every usable map, on the L1s and the L2).
fn stops_after_first_pair(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    scheme.scheme().repair().performance_uniform_across_maps()
        && params
            .l2
            .scheme_for(scheme)
            .repair()
            .performance_uniform_across_maps()
}

/// Accumulated timings and counts of a campaign rebuild.
#[derive(Default)]
struct CampaignAcc {
    drain: [Duration; 2],
    drained: [u64; 2],
    simulated: [u64; 2],
    cpu: Duration,
    cpu_insts: u64,
    cpu_cycles: u64,
    replay: Duration,
    replay_accesses: u64,
    build: Duration,
    builds: u64,
    cell_ms: Vec<f64>,
    pairs_available: u64,
    pairs_simulated: u64,
    stats: Vec<HierarchyStats>,
}

/// A workload's trace, drained once and shared by all of its cells.
struct Drained {
    trace: Vec<TraceInstruction>,
    segments: Vec<Segment>,
    accesses: u64,
}

fn drain(
    params: &SimulationParams,
    workload: Workload,
    tracer: &mut Tracer,
    acc: &mut CampaignAcc,
) -> Drained {
    let (side, name) = match workload {
        Workload::Synthetic(_) => (0, "workloads.drain"),
        Workload::Riscv(_) => (1, "riscv.drain"),
    };
    let budget = usize::try_from(params.instructions).expect("instruction budget fits in memory");
    let (trace, took) = tracer.span(name, |_| {
        workload
            .source(params.trace_seed(workload))
            .take(budget + FETCH_SLACK)
            .collect::<Vec<_>>()
    });
    acc.drain[side] += took;
    acc.drained[side] += trace.len() as u64;
    let (segments, accesses) = segments(&trace[..trace.len().min(budget)]);
    Drained {
        trace,
        segments,
        accesses,
    }
}

/// Rebuilds one (workload, scheme) cell: one simulation per fault-map pair
/// (or one fault-free simulation), skipping pairs the scheme cannot repair
/// and stopping after the first usable pair where the campaign does.
/// Returns the cell's results and its whole-cache failure count.
#[allow(clippy::too_many_arguments)]
fn rebuild_cell(
    params: &SimulationParams,
    pairs: &[(FaultMap, FaultMap)],
    l2_maps: &[FaultMap],
    workload: Workload,
    scheme: SchemeConfig,
    drained: &Drained,
    tracer: &mut Tracer,
    acc: &mut CampaignAcc,
) -> (Vec<SimResult>, usize) {
    let cfg = scheme.hierarchy_config_with_l2(VoltageMode::Low, params.l2);
    let side = usize::from(matches!(workload, Workload::Riscv(_)));
    let cpu_span = match params.core {
        CoreModel::OutOfOrder => "cpu.ooo_run",
        CoreModel::InOrder => "cpu.inorder_run",
    };
    let build = |i: Option<usize>| match i {
        Some(i) => CacheHierarchy::with_all_fault_maps(
            cfg,
            Some(&pairs[i].0),
            Some(&pairs[i].1),
            l2_maps.get(i),
        )
        .ok(),
        None => Some(CacheHierarchy::new(cfg)),
    };
    let candidates: Vec<Option<usize>> = if map_dependent(params, scheme) {
        acc.pairs_available += pairs.len() as u64;
        (0..pairs.len()).map(Some).collect()
    } else {
        vec![None]
    };
    let mut runs = Vec::new();
    let mut failures = 0;
    for pair in candidates {
        let (result, busy) = tracer.span("experiments.cell", |t| {
            let (hierarchy, took) = t.span("cache.build", |_| build(pair));
            acc.build += took;
            acc.builds += 1;
            hierarchy.map(|h| {
                let (result, took) = t.span(cpu_span, |_| {
                    let mut cpu = params.core.build(h);
                    cpu.run(
                        &mut drained.trace.iter().copied(),
                        Some(params.instructions),
                    )
                });
                acc.cpu += took;
                result
            })
        });
        let Some(result) = result else {
            failures += 1;
            continue;
        };
        acc.cell_ms.push(busy.as_secs_f64() * 1e3);
        acc.cpu_insts += result.instructions;
        acc.cpu_cycles += result.cycles;
        acc.simulated[side] += result.instructions;
        acc.stats.push(result.hierarchy);
        if pair.is_some() {
            acc.pairs_simulated += 1;
        }
        let mut fresh = build(pair).expect("the same maps built a hierarchy a moment ago");
        let ((), took) = tracer.span("cache.replay", |_| replay(&mut fresh, &drained.segments));
        acc.replay += took;
        acc.replay_accesses += drained.accesses;
        runs.push(result);
        if pair.is_some() && stops_after_first_pair(params, scheme) {
            break;
        }
    }
    (runs, failures)
}

/// Rebuilds the cells `(workload index, scheme index)` of `study` and
/// returns, per workload row, whether every rebuilt cell matched bit for bit.
fn rebuild_cells(
    params: &SimulationParams,
    pool: &FaultMapPool,
    study: &SchemeMatrixStudy,
    cells: &[(usize, usize)],
    tracer: &mut Tracer,
    acc: &mut CampaignAcc,
) -> Vec<bool> {
    let schemes = SchemeMatrixStudy::matrix_schemes();
    let pairs = pool.pairs();
    let l2_maps = pool.l2_maps_if_needed(params.l2, &schemes);
    let mut row_ok = vec![true; params.workloads.len()];
    for (w, &workload) in params.workloads.iter().enumerate() {
        let mine: Vec<usize> = cells.iter().filter(|c| c.0 == w).map(|c| c.1).collect();
        if mine.is_empty() {
            continue;
        }
        let drained = drain(params, workload, tracer, acc);
        for s in mine {
            let scheme = schemes[s];
            let (runs, failures) = rebuild_cell(
                params, pairs, l2_maps, workload, scheme, &drained, tracer, acc,
            );
            let matched = study.workloads[w]
                .config(scheme)
                .is_some_and(|c| c.runs == runs && c.whole_cache_failures == failures);
            row_ok[w] &= matched;
        }
    }
    row_ok
}

/// Rebuilds `cells` without reporting timings: the untraced run's spot check.
pub fn spot_check_campaign(
    params: &SimulationParams,
    pool: &FaultMapPool,
    study: &SchemeMatrixStudy,
    cells: &[(usize, usize)],
) -> Vec<bool> {
    rebuild_cells(
        params,
        pool,
        study,
        cells,
        &mut Tracer::new(),
        &mut CampaignAcc::default(),
    )
}

/// Rebuilds every cell of a campaign under the tracer. Returns per-row
/// match flags and the per-layer metrics.
pub fn trace_campaign(
    params: &SimulationParams,
    study: &SchemeMatrixStudy,
    run_s: f64,
    threads: usize,
    tracer: &mut Tracer,
) -> (Vec<bool>, Metrics) {
    let schemes = SchemeMatrixStudy::matrix_schemes();
    // A fresh pool, so the fault layer's map generation is timed.
    let pool = FaultMapPool::new(params);
    let ((), pairs_took) = tracer.span("fault.l1_pairs", |_| {
        std::hint::black_box(pool.pairs());
    });
    let (l2_count, l2_took) = tracer.span("fault.l2_maps", |_| {
        pool.l2_maps_if_needed(params.l2, &schemes).len()
    });
    let cells: Vec<(usize, usize)> = (0..params.workloads.len())
        .flat_map(|w| (0..schemes.len()).map(move |s| (w, s)))
        .collect();
    let mut acc = CampaignAcc::default();
    let row_ok = rebuild_cells(params, &pool, study, &cells, tracer, &mut acc);

    let pair_count = pool.pairs().len();
    let mut m = Metrics::new();
    let per_inst = |d: Duration, n: u64| ratio(ns(d), n as f64);
    m.insert(
        "workloads.ns_per_inst",
        per_inst(acc.drain[0], acc.drained[0]),
    );
    m.insert("workloads.insts", acc.drained[0] as f64);
    m.insert("riscv.ns_per_inst", per_inst(acc.drain[1], acc.drained[1]));
    m.insert("riscv.insts", acc.drained[1] as f64);
    let self_cpu = acc.cpu.saturating_sub(acc.replay);
    let [per_inst_key, per_cycle_key, self_key] = match params.core {
        CoreModel::OutOfOrder => [
            "cpu.ooo_ns_per_inst",
            "cpu.ooo_ns_per_cycle",
            "cpu.ooo_self_ns_per_inst",
        ],
        CoreModel::InOrder => [
            "cpu.inorder_ns_per_inst",
            "cpu.inorder_ns_per_cycle",
            "cpu.inorder_self_ns_per_inst",
        ],
    };
    m.insert(per_inst_key, per_inst(acc.cpu, acc.cpu_insts));
    m.insert(per_cycle_key, per_inst(acc.cpu, acc.cpu_cycles));
    m.insert(self_key, per_inst(self_cpu, acc.cpu_insts));

    let mut total = HierarchyStats::default();
    for s in &acc.stats {
        total.l1i.merge(&s.l1i);
        total.l1d.merge(&s.l1d);
        total.l2.merge(&s.l2);
    }
    m.insert(
        "cache.build_us",
        ratio(ns(acc.build) / 1e3, acc.builds as f64),
    );
    m.insert(
        "cache.replay_ns_per_access",
        ratio(ns(acc.replay), acc.replay_accesses as f64),
    );
    m.insert(
        "cache.accesses",
        (total.l1i.accesses + total.l1d.accesses) as f64,
    );
    m.insert(
        "cache.l1d_miss_ratio",
        ratio(total.l1d.misses as f64, total.l1d.accesses as f64),
    );
    m.insert(
        "cache.l2_miss_ratio",
        ratio(total.l2.misses as f64, total.l2.accesses as f64),
    );

    m.insert(
        "fault.l1_pair_ms",
        ratio(ns(pairs_took) / 1e6, pair_count as f64),
    );
    m.insert("fault.l2_map_ms", ratio(ns(l2_took) / 1e6, l2_count as f64));
    m.insert("fault.maps", (2 * pair_count + l2_count) as f64);

    // The campaign regenerates a workload's trace for every cell, so trace
    // generation is charged per simulated instruction.
    let generation =
        [0, 1].map(|i| per_inst(acc.drain[i], acc.drained[i]) * acc.simulated[i] as f64);
    let (p50, max) = p50_max(&mut acc.cell_ms);
    let busy_s = acc.cell_ms.iter().sum::<f64>() / 1e3 + (generation[0] + generation[1]) / 1e9;
    m.insert(
        "experiments.parallel_efficiency",
        ratio(busy_s, run_s * threads as f64),
    );
    m.insert("experiments.cells", acc.cell_ms.len() as f64);
    m.insert("experiments.cell_ms_p50", p50);
    m.insert("experiments.cell_ms_max", max);
    m.insert(
        "experiments.pairs_skipped_ratio",
        ratio(
            (acc.pairs_available - acc.pairs_simulated) as f64,
            acc.pairs_available as f64,
        ),
    );
    m.insert("experiments.sim_insts", acc.cpu_insts as f64);
    m.insert("experiments.sim_cycles", acc.cpu_cycles as f64);
    m.insert(
        "experiments.sim_mips",
        ratio(acc.cpu_insts as f64 / 1e6, run_s),
    );

    // Layer shares of the work the campaign does; the replay stands in for
    // the cache time inside the core.
    let fault = ns(pairs_took + l2_took);
    let work = generation[0] + generation[1] + ns(acc.cpu) + ns(acc.build) + fault;
    m.insert("workloads.share", ratio(generation[0], work));
    m.insert("riscv.share", ratio(generation[1], work));
    m.insert("cpu.share", ratio(ns(self_cpu), work));
    m.insert(
        "cache.share",
        ratio(ns(acc.build + acc.replay.min(acc.cpu)), work),
    );
    m.insert("fault.share", ratio(fault, work));
    (row_ok, m)
}

/// Per scheme, the die's operational prefix over the descending grid,
/// binary-searched as the fleet executor does, with a span around every
/// fault-map generation and capacity-floor query.
fn die_prefixes(
    params: &YieldParams,
    grid: &[f64],
    schemes: &[&'static dyn RepairScheme],
    seeds: ((u64, u64), (u64, u64)),
    tracer: &mut Tracer,
    times: &mut FleetAcc,
) -> Vec<usize> {
    let ((die_seed, map_seed), (l2_die_seed, l2_map_seed)) = seeds;
    let (die, took) = tracer.span("fault.die_variation", |_| {
        DieVariation::sample(&YieldStudy::geometry(), &params.variation, die_seed)
    });
    let (l2_die, took_l2) = tracer.span("fault.die_variation", |_| {
        DieVariation::sample(&YieldStudy::l2_geometry(), &params.variation, l2_die_seed)
    });
    times.variation += took + took_l2;
    times.variations += 2;
    let mut maps: Vec<Option<(FaultMap, FaultMap)>> = (0..grid.len()).map(|_| None).collect();
    schemes
        .iter()
        .map(|scheme| {
            let (mut lo, mut hi) = (0usize, grid.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if maps[mid].is_none() {
                    let (l1, t1) = tracer.span("fault.at_voltage_l1", |_| {
                        FaultMap::generate_at_voltage(&die, grid[mid], map_seed)
                    });
                    let (l2, t2) = tracer.span("fault.at_voltage_l2", |_| {
                        FaultMap::generate_at_voltage(&l2_die, grid[mid], l2_map_seed)
                    });
                    times.at_voltage[0] += t1;
                    times.at_voltage[1] += t2;
                    times.probes += 1;
                    maps[mid] = Some((l1, l2));
                }
                let (l1, l2) = maps[mid].as_ref().expect("generated above");
                let (ok, took) = tracer.span("cache.capacity_floor", |_| {
                    scheme.meets_capacity_floor(l1, params.min_capacity)
                });
                times.floor += took;
                times.floors += 1;
                let ok = ok && {
                    let (ok, took) = tracer.span("cache.capacity_floor", |_| {
                        scheme.meets_capacity_floor(l2, params.min_capacity)
                    });
                    times.floor += took;
                    times.floors += 1;
                    ok
                };
                if ok {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

#[derive(Default)]
struct FleetAcc {
    variation: Duration,
    variations: u64,
    at_voltage: [Duration; 2],
    probes: u64,
    floor: Duration,
    floors: u64,
}

/// Rebuilds every die of a fleet campaign under the tracer. Returns per-row
/// match flags (yield-curve rows, then one per scheme) and the metrics.
#[allow(clippy::too_many_arguments)]
pub fn trace_fleet(
    fleet: &FleetParams,
    grid: &[f64],
    schemes: &[&'static dyn RepairScheme],
    seeds: &[(u64, u64)],
    l2_seeds: &[(u64, u64)],
    study: &FleetStudy,
    run_s: f64,
    threads: usize,
    tracer: &mut Tracer,
) -> (Vec<bool>, Metrics) {
    let params = &fleet.yields;
    let mut acc = FleetAcc::default();
    let mut hist = vec![vec![0u64; grid.len()]; schemes.len()];
    let mut dead = vec![0u64; schemes.len()];
    let mut die_ms = Vec::with_capacity(seeds.len());
    for (&l1, &l2) in seeds.iter().zip(l2_seeds) {
        let (prefixes, took) = tracer.span("experiments.die", |t| {
            die_prefixes(params, grid, schemes, (l1, l2), t, &mut acc)
        });
        die_ms.push(took.as_secs_f64() * 1e3);
        for (i, len) in prefixes.into_iter().enumerate() {
            match len.checked_sub(1) {
                Some(k) => hist[i][k] += 1,
                None => dead[i] += 1,
            }
        }
    }
    let scheme_ok: Vec<bool> = (0..schemes.len())
        .map(|i| study.hist[i] == hist[i] && study.dead[i] == dead[i])
        .collect();
    let mut row_ok = vec![scheme_ok.iter().all(|&ok| ok); grid.len()];
    row_ok.extend(&scheme_ok);

    let dies = seeds.len() as f64;
    let busy_s: f64 = die_ms.iter().sum::<f64>() / 1e3;
    let (p50, max) = p50_max(&mut die_ms);
    let fault = acc.variation + acc.at_voltage[0] + acc.at_voltage[1];
    let mut m = Metrics::new();
    m.insert(
        "cache.capacity_floor_us",
        ratio(ns(acc.floor) / 1e3, acc.floors as f64),
    );
    m.insert(
        "fault.die_variation_ms",
        ratio(ns(acc.variation) / 1e6, acc.variations as f64),
    );
    m.insert(
        "fault.at_voltage_l1_ms",
        ratio(ns(acc.at_voltage[0]) / 1e6, acc.probes as f64),
    );
    m.insert(
        "fault.at_voltage_l2_ms",
        ratio(ns(acc.at_voltage[1]) / 1e6, acc.probes as f64),
    );
    m.insert("fault.maps", (2 * acc.probes) as f64);
    m.insert("fault.share", ratio(fault.as_secs_f64(), busy_s));
    m.insert("cache.share", ratio(acc.floor.as_secs_f64(), busy_s));
    m.insert("experiments.shards", fleet.shard_count() as f64);
    m.insert("experiments.probes_per_die", ratio(acc.probes as f64, dies));
    m.insert("experiments.die_ms_p50", p50);
    m.insert("experiments.die_ms_max", max);
    m.insert(
        "experiments.parallel_efficiency",
        ratio(busy_s, run_s * threads as f64),
    );
    m.insert("experiments.dies", dies);
    m.insert("experiments.dies_per_s", ratio(dies, run_s));
    (row_ok, m)
}

/// The fleet executor on a prefix of the population against the
/// materializing per-die linear scan: the untraced run's spot check.
pub fn spot_check_fleet(fleet: &FleetParams, dies: usize) -> bool {
    let prefix = YieldParams {
        dies,
        ..fleet.yields.clone()
    };
    let streamed = FleetStudy::run(&FleetParams::new(prefix.clone()));
    let (hist, dead) = YieldStudy::run(&prefix).min_voltage_histogram();
    streamed.hist == hist && streamed.dead == dead
}
