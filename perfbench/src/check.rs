//! Output checks: one digest per output row, the pinned reference digests,
//! and the invariants every campaign output must satisfy at any seed.

use vccmin_experiments::checkpoint::fnv1a64;
use vccmin_experiments::report::FigureTable;
use vccmin_experiments::{BenchmarkResult, FleetStudy, SchemeMatrixStudy};

use crate::spec::{Bench, Output, Setup, DEFAULT_SEED, HELD_OUT_SEED};

/// Reference row digests, one `workload seed row key digest` line per row,
/// printed by `vccmin-perfbench --print-digests`.
const REFERENCE: &str = include_str!("../reference.txt");

/// One output row: its key as printed and a digest of everything behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub key: String,
    pub digest: u64,
}

/// Digest of a table row's key and its exact values.
fn row_text(key: &str, values: &[Option<f64>]) -> String {
    let mut text = key.to_string();
    for v in values {
        text.push_str(&format!("|{:016x}", v.map_or(u64::MAX, f64::to_bits)));
    }
    text
}

/// The output rows of a campaign or fleet study.
pub fn rows(output: &Output) -> Vec<Row> {
    match output {
        Output::Campaign(study) => campaign_rows(study),
        Output::Fleet(study) => fleet_rows(study),
    }
}

/// One row per workload of the scheme table; the digest also covers every
/// `SimResult` behind the row, so a drifting count fails the row.
fn campaign_rows(study: &SchemeMatrixStudy) -> Vec<Row> {
    study
        .table()
        .rows
        .iter()
        .zip(&study.workloads)
        .map(|((key, values), cells)| Row {
            key: key.clone(),
            digest: fnv1a64(format!("{}|{cells:?}", row_text(key, values)).as_bytes()),
        })
        .collect()
}

/// One row per grid voltage of the yield curve, then one per scheme of the
/// Vcc-min summary (whose digest also covers that scheme's histogram).
fn fleet_rows(study: &FleetStudy) -> Vec<Row> {
    let table_rows = |table: FigureTable| -> Vec<(String, String)> {
        table
            .rows
            .iter()
            .map(|(key, values)| (key.clone(), row_text(key, values)))
            .collect()
    };
    let mut out: Vec<Row> = table_rows(study.yield_curve())
        .into_iter()
        .map(|(key, text)| Row {
            key: format!("yield@{key}"),
            digest: fnv1a64(text.as_bytes()),
        })
        .collect();
    for (i, (key, text)) in table_rows(study.vccmin_summary()).into_iter().enumerate() {
        let text = format!("{text}|{:?}|{}", study.hist[i], study.dead[i]);
        out.push(Row {
            key: format!("vccmin@{key}"),
            digest: fnv1a64(text.as_bytes()),
        });
    }
    out
}

/// Whether `seed` has pinned reference digests.
pub fn is_pinned(seed: u64) -> bool {
    seed == DEFAULT_SEED || seed == HELD_OUT_SEED
}

/// Per output row: the invariants hold and, at a pinned seed, the row
/// matches its reference digest.
pub fn row_checks(
    bench: Bench,
    seed: u64,
    setup: &Setup,
    output: &Output,
    rows: &[Row],
) -> Vec<bool> {
    let mut ok = invariants(setup, output);
    if let Some(reference) = reference(bench, seed) {
        for (i, flag) in ok.iter_mut().enumerate() {
            *flag &= reference.len() == rows.len() && reference[i] == rows[i];
        }
    }
    ok
}

/// The pinned rows of `bench` at `seed`, if that seed is pinned.
fn reference(bench: Bench, seed: u64) -> Option<Vec<Row>> {
    if !is_pinned(seed) {
        return None;
    }
    let rows: Vec<Row> = REFERENCE
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                [name, s, key, digest]
                    if *name == bench.name() && s.parse::<u64>().ok() == Some(seed) =>
                {
                    Some(Row {
                        key: (*key).to_string(),
                        digest: u64::from_str_radix(digest, 16).ok()?,
                    })
                }
                _ => None,
            }
        })
        .collect();
    Some(rows)
}

/// Reference lines for `bench` at `seed`, in the format [`REFERENCE`] holds.
pub fn reference_lines(bench: Bench, seed: u64, rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| format!("{}\t{seed}\t{}\t{:016x}", bench.name(), r.key, r.digest))
        .collect()
}

/// Per output row, whether the invariants every seed must satisfy hold.
fn invariants(setup: &Setup, output: &Output) -> Vec<bool> {
    match (setup, output) {
        (Setup::Campaign { params, .. }, Output::Campaign(study)) => {
            let table = study.table();
            table
                .rows
                .iter()
                .zip(&study.workloads)
                .map(|((_, values), cells)| {
                    values
                        .iter()
                        .all(|v| v.is_some_and(|v| v.is_finite() && (0.0..=2.0).contains(&v)))
                        && cells_hold(cells, params.instructions)
                })
                .collect()
        }
        (Setup::Fleet { fleet, grid, .. }, Output::Fleet(study)) => {
            let dies = fleet.yields.dies as u64;
            let curve = study.yield_curve();
            // Yield never rises as the supply drops.
            let monotone = (0..curve.series_labels.len()).all(|s| {
                curve.rows.windows(2).all(|w| match (w[0].1[s], w[1].1[s]) {
                    (Some(hi), Some(lo)) => lo <= hi,
                    _ => false,
                })
            });
            let mut ok =
                vec![monotone && study.dies == dies && study.grid == *grid; curve.rows.len()];
            ok.extend(
                study
                    .hist
                    .iter()
                    .zip(&study.dead)
                    .map(|(h, &d)| h.iter().sum::<u64>() + d == dies),
            );
            ok
        }
        _ => unreachable!("set-up and output come from the same workload"),
    }
}

/// Every simulated cell committed its budget (or drained a finite kernel),
/// took at least one cycle per four instructions and kept its cache counts
/// consistent. A cell whose every pair failed has no runs, which is valid.
fn cells_hold(cells: &BenchmarkResult, budget: u64) -> bool {
    !cells.configs.is_empty()
        && cells.configs.iter().all(|c| {
            c.runs.iter().all(|r| {
                let h = &r.hierarchy;
                r.instructions > 0
                    && r.instructions <= budget
                    && r.cycles >= r.instructions / 4
                    && h.l1d.hits + h.l1d.misses == h.l1d.accesses
                    && h.l1i.hits + h.l1i.misses == h.l1i.accesses
                    && r.loads + r.stores <= r.instructions
            })
        })
}
