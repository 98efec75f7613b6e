//! Workspace-level tests of the fleet-scale yield executor
//! (`vccmin_experiments::fleet` + `vccmin_experiments::checkpoint`):
//!
//! * the streaming, sharded, binary-searching executor reproduces the golden
//!   quick()-scale snapshot, and its aggregate equals the per-die linear scan
//!   of `YieldStudy` across scales and shard sizes (the reports are a function
//!   of that aggregate alone);
//! * a checkpointed campaign that is interrupted (shards deleted and
//!   corrupted) resumes to the same bytes as an uninterrupted run;
//! * property test: the lockstep binary-searched minimum operational voltage
//!   equals the linear-scan reference for every registry scheme across
//!   randomized campaigns (population, grid, capacity floor, variation and
//!   seed), through the serial, parallel and checkpointed executors, with
//!   shards both smaller and larger than the population;
//! * the per-scheme Vcc-min histogram's CDF, the yield curve and the summary
//!   cross-check against the closed forms of `vccmin_analysis::yield_model`
//!   in the i.i.d. limit;
//! * property test: a `VFS1` shard record cut short at any length or with
//!   any single bit flipped is rejected without a panic, and one re-checksummed
//!   after the flip is rejected unless only its first-die field moved.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vccmin_core::analysis::yield_model;
use vccmin_core::experiments::checkpoint::{fnv1a64, CheckpointStore, ShardRecord};
use vccmin_core::experiments::fleet::{FleetParams, FleetStudy};
use vccmin_core::experiments::yield_study::{YieldParams, YieldStudy};
use vccmin_core::{CacheGeometry, PfailVoltageModel, VariationModel};

const GOLDEN: &str = include_str!("../golden/yield.csv");

fn fleet_csv(fleet: &FleetStudy) -> String {
    format!(
        "{}{}",
        fleet.yield_curve().to_csv(),
        fleet.vccmin_summary().to_csv()
    )
}

#[test]
fn fleet_quick_scale_matches_the_golden_snapshot_byte_for_byte() {
    let fleet = FleetStudy::run_parallel(&FleetParams::new(YieldParams::quick()));
    assert_eq!(
        fleet_csv(&fleet),
        GOLDEN,
        "the fleet executor must reproduce tests/golden/yield.csv exactly; \
         it backs the `vccmin-repro yield` CLI at every scale"
    );
}

/// Both yield tables render from `(grid, hist, dead, dies)` alone, so a fleet
/// aggregate equal to the linear scan's prints the scan's bytes.
#[test]
fn fleet_is_byte_identical_to_the_study_across_scales_and_shard_sizes() {
    for (dies, shard_dies) in [(1, 4), (24, 5), (57, 8), (200, 2048)] {
        let yields = YieldParams {
            dies,
            ..YieldParams::smoke()
        };
        let study = YieldStudy::run(&yields);
        let (hist, dead) = study.min_voltage_histogram();
        for executor in ["serial", "parallel"] {
            let params = FleetParams {
                yields: yields.clone(),
                shard_dies,
            };
            let fleet = if executor == "serial" {
                FleetStudy::run(&params)
            } else {
                FleetStudy::run_parallel(&params)
            };
            let context = format!("dies={dies} shard_dies={shard_dies} {executor}");
            assert_eq!(fleet.grid, study.grid, "{context}");
            assert_eq!(fleet.hist, hist, "{context}");
            assert_eq!(fleet.dead, dead, "{context}");
            assert_eq!(fleet.dies, dies as u64, "{context}");
        }
    }
}

#[test]
fn interrupted_checkpoint_campaign_resumes_bit_identically() {
    let params = FleetParams {
        yields: YieldParams {
            dies: 40,
            ..YieldParams::smoke()
        },
        shard_dies: 6,
    };
    let dir = std::env::temp_dir().join(format!("vccmin-fleet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let uninterrupted = FleetStudy::run(&params);

    // "Interrupt" a campaign by seeding the directory with only a prefix of
    // its shards, one of them torn mid-write (truncated) and one corrupted.
    let store = CheckpointStore::open(&dir, params.fingerprint()).unwrap();
    let cold = FleetStudy::run_checkpointed(&params, &dir, true).unwrap();
    assert_eq!(cold, uninterrupted);
    for s in [4, 5, 6] {
        std::fs::remove_file(store.shard_path(s)).unwrap();
    }
    let torn = std::fs::read(store.shard_path(2)).unwrap();
    std::fs::write(store.shard_path(2), &torn[..torn.len() / 2]).unwrap();
    let mut flipped = std::fs::read(store.shard_path(0)).unwrap();
    flipped[20] ^= 0x01;
    std::fs::write(store.shard_path(0), &flipped).unwrap();

    let resumed = FleetStudy::run_checkpointed(&params, &dir, false).unwrap();
    assert_eq!(resumed, uninterrupted, "resume must be bit-identical");
    assert_eq!(fleet_csv(&resumed), fleet_csv(&uninterrupted));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sketch_cross_checks_the_iid_closed_forms() {
    // In the i.i.d. limit the fraction of dies whose Vcc-min is at or below a
    // voltage — the CDF of the fleet's exact per-scheme Vcc-min histogram — is
    // the yield curve's cell at that voltage, which must track the paper's
    // closed forms.
    let bridge = PfailVoltageModel::ispass2010();
    let params = FleetParams::new(YieldParams {
        dies: 400,
        variation: VariationModel::iid(bridge),
        ..YieldParams::quick()
    });
    let fleet = FleetStudy::run_parallel(&params);
    let curve = fleet.yield_curve();
    let geom = CacheGeometry::ispass2010_l1().to_array_geometry();
    let labels = YieldStudy::scheme_labels();
    let block = labels.iter().position(|l| l == "block disabling").unwrap();

    // The histogram in ascending voltage order (the grid is highest first).
    let bins: Vec<f64> = fleet.grid.iter().rev().copied().collect();
    let counts: Vec<u64> = fleet.hist[block].iter().rev().copied().collect();
    let mut cumulative = 0u64;
    for (i, (&v, &count)) in bins.iter().zip(&counts).enumerate() {
        cumulative += count;
        let empirical = cumulative as f64 / fleet.dies as f64;
        let (_, row) = &curve.rows[bins.len() - 1 - i];
        assert_eq!(row[block], Some(empirical), "yield curve at V={v}");
        let analytical =
            yield_model::block_disable_yield(&geom, bridge.pfail(v), params.yields.min_capacity);
        assert!(
            (analytical - empirical).abs() < 0.05,
            "block-disabling at V={v}: closed-form {analytical} vs histogram CDF {empirical}"
        );
    }
    // The histogram's extremes and mean agree with the summary table's cells.
    let alive: u64 = counts.iter().sum();
    let best = counts.iter().position(|&c| c > 0).map(|i| bins[i]);
    let worst = counts.iter().rposition(|&c| c > 0).map(|i| bins[i]);
    let sum: f64 = bins.iter().zip(&counts).map(|(&b, &c)| b * c as f64).sum();
    let summary = fleet.vccmin_summary();
    let (_, values) = &summary.rows[block];
    assert_eq!(values[1], best, "best Vcc-min");
    assert_eq!(values[2], worst, "worst Vcc-min");
    assert_eq!(values[0], Some(sum / alive as f64), "mean Vcc-min");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole's core soundness claim: binary-searching each die's
    /// operational true-prefix over the nested voltage grid, all schemes in
    /// lockstep, finds exactly the minimum operational voltage a linear scan
    /// finds, for every scheme in the registry, whatever the campaign
    /// parameters and whichever executor runs it. Shard sizes above the
    /// population put every die in one shard, whose dies are then the only
    /// unit of parallel work.
    #[test]
    fn binary_search_equals_linear_scan_for_every_registry_scheme(
        dies in 1usize..14,
        steps in 2usize..9,
        v_low_milli in 440u64..520,
        span_milli in 20u64..240,
        master_seed in 0u64..1_000_000,
        shard_dies in 1usize..20,
        include_l2 in any::<bool>(),
        min_capacity_index in 0usize..4,
        sigma_index in 0usize..3,
    ) {
        let v_low = v_low_milli as f64 / 1000.0;
        let yields = YieldParams {
            dies,
            steps,
            v_low,
            v_high: v_low + span_milli as f64 / 1000.0,
            master_seed,
            include_l2,
            min_capacity: [0.0, 0.5, 0.9, 1.0][min_capacity_index],
            variation: VariationModel::new(
                PfailVoltageModel::ispass2010(),
                [0.0, 0.0125, 0.05][sigma_index],
                4,
            ),
        };
        // Linear-scan reference: probe every grid voltage per die.
        let (hist, dead) = YieldStudy::run(&yields).min_voltage_histogram();
        // Binary-searched fleet executors over the same population.
        let params = FleetParams { yields, shard_dies };
        let fleet = FleetStudy::run(&params);
        prop_assert_eq!(&fleet.hist, &hist);
        prop_assert_eq!(&fleet.dead, &dead);
        prop_assert_eq!(&FleetStudy::run_parallel(&params), &fleet);
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vccmin-fleet-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpointed = FleetStudy::run_checkpointed(&params, &dir, false).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&checkpointed, &fleet);
    }
}

/// A shard record whose `die_count` dies are split at random, per scheme,
/// between the dead count and `grid_len` histogram buckets.
fn consistent_record(
    schemes: usize,
    grid_len: usize,
    die_count: u64,
    shard_index: u64,
    split_seed: u64,
) -> ShardRecord {
    let mut rng = SmallRng::seed_from_u64(split_seed);
    let mut dead = Vec::with_capacity(schemes);
    let mut hist = Vec::with_capacity(schemes);
    for _ in 0..schemes {
        let mut rest = die_count;
        let mut counts = Vec::with_capacity(grid_len);
        for _ in 0..grid_len {
            let take = rng.next_u64() % (rest + 1);
            counts.push(take);
            rest -= take;
        }
        dead.push(rest);
        hist.push(counts);
    }
    ShardRecord {
        shard_index,
        die_start: shard_index * 2048,
        die_count,
        hist,
        dead,
    }
}

/// Byte range of the first-die field in a `VFS1` record.
const DIE_START_BYTES: std::ops::Range<usize> = 28..36;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A checkpoint is either rejected (`Ok(None)`, so the shard is
    /// recomputed) or accepted exactly, and loading never panics. Cut short
    /// at any length, or with any single bit flipped, a record is rejected.
    /// With its checksum recomputed after the flip, as a deliberate edit
    /// would be, it is still rejected: a flipped count no longer adds up to
    /// the die count. The one exception is the first-die field, which
    /// `FleetStudy` checks against the shard's bounds itself.
    #[test]
    fn damaged_checkpoint_records_are_rejected_not_trusted(
        schemes in 1usize..4,
        grid_len in 1usize..8,
        die_count in 0u64..3000,
        shard_index in 0u64..1000,
        fingerprint in any::<u64>(),
        split_seed in any::<u64>(),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vccmin-checkpoint-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, fingerprint).unwrap();
        let record = consistent_record(schemes, grid_len, die_count, shard_index, split_seed);
        store.save(&record).unwrap();
        let path = store.shard_path(shard_index);
        let bytes = std::fs::read(&path).unwrap();
        let load = |damaged: &[u8]| {
            std::fs::write(&path, damaged).unwrap();
            store.load(shard_index, schemes, grid_len).unwrap()
        };
        prop_assert_eq!(load(&bytes), Some(record.clone()));
        for len in 0..bytes.len() {
            prop_assert_eq!(load(&bytes[..len]), None, "cut to {} bytes", len);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(load(&flipped), None, "bit {} flipped", bit);
            let body = flipped.len() - 8;
            if bit / 8 < body {
                let checksum = fnv1a64(&flipped[..body]);
                flipped[body..].copy_from_slice(&checksum.to_le_bytes());
                let expected = DIE_START_BYTES.contains(&(bit / 8)).then(|| ShardRecord {
                    die_start: record.die_start ^ 1 << (bit - 8 * DIE_START_BYTES.start),
                    ..record.clone()
                });
                prop_assert_eq!(load(&flipped), expected, "bit {} flipped, re-checksummed", bit);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
