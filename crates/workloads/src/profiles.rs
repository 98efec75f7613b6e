//! Profiles for the 26 SPEC CPU2000 benchmarks used in the paper's evaluation.
//!
//! Each profile's parameters are chosen so the synthetic trace lands in the
//! published behavioral range of the corresponding SPEC program along the axes that
//! matter to this study: L1 data-capacity sensitivity (data working set relative to
//! the 32 KB L1), L1 instruction-capacity sensitivity (code footprint), memory-
//! boundedness (working sets far larger than the L2) and branch predictability.
//! The exact numbers are synthetic; the crate documentation explains the
//! substitution.

use crate::profile::{BenchmarkProfile, Suite};

/// The 26 SPEC CPU2000 benchmarks evaluated in the paper (14 floating-point,
/// 12 integer), in the order of the figures' x-axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    // SPECfp 2000
    Ammp,
    Applu,
    Apsi,
    Art,
    Equake,
    Facerec,
    Fma3d,
    Galgel,
    Lucas,
    Mesa,
    Mgrid,
    Sixtrack,
    Swim,
    Wupwise,
    // SPECint 2000
    Bzip,
    Crafty,
    Eon,
    Gap,
    Gcc,
    Gzip,
    Mcf,
    Parser,
    Perlbmk,
    Twolf,
    Vortex,
    Vpr,
}

impl Benchmark {
    /// All 26 benchmarks in the paper's figure order (floating point first).
    #[must_use]
    pub fn all() -> [Benchmark; 26] {
        use Benchmark::*;
        [
            Ammp, Applu, Apsi, Art, Equake, Facerec, Fma3d, Galgel, Lucas, Mesa, Mgrid, Sixtrack,
            Swim, Wupwise, Bzip, Crafty, Eon, Gap, Gcc, Gzip, Mcf, Parser, Perlbmk, Twolf, Vortex,
            Vpr,
        ]
    }

    /// The benchmark's lower-case SPEC name, as printed on the figures' x-axes.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// The synthetic profile imitating this benchmark.
    #[must_use]
    pub fn profile(self) -> BenchmarkProfile {
        use Benchmark::*;
        match self {
            // ---------------- SPECfp 2000 ----------------
            // ammp: molecular dynamics, pointer-heavy neighbor lists, large data set,
            // moderately L1-sensitive.
            Ammp => fp("ammp", 8, 512, 0.45, 0.35, 12, 0.10, 0.55),
            // applu: dense solver, streaming over large arrays, mostly L2/memory bound.
            Applu => fp("applu", 8, 2048, 0.25, 0.80, 8, 0.05, 0.45),
            // apsi: meteorology, mixed locality, moderate L1 sensitivity.
            Apsi => fp("apsi", 16, 256, 0.50, 0.50, 16, 0.08, 0.50),
            // art: neural-net image recognition, large arrays scanned repeatedly,
            // strongly memory bound.
            Art => fp("art", 4, 4096, 0.15, 0.70, 6, 0.05, 0.60),
            // equake: sparse matrix-vector products, irregular accesses over a large set.
            Equake => fp("equake", 8, 1024, 0.30, 0.40, 8, 0.08, 0.55),
            // facerec: image processing with blocked kernels, working set near the L1 size.
            Facerec => fp("facerec", 24, 192, 0.55, 0.45, 10, 0.06, 0.50),
            // fma3d: crash simulation, big code footprint and sizable data set.
            Fma3d => fp("fma3d", 16, 512, 0.45, 0.40, 56, 0.08, 0.50),
            // galgel: fluid dynamics (BLAS-like), blocked loops with reuse near L1 capacity.
            Galgel => fp("galgel", 28, 128, 0.55, 0.55, 10, 0.05, 0.45),
            // lucas: FFT-based primality testing, large power-of-two strides, L2 bound.
            Lucas => fp("lucas", 8, 2048, 0.20, 0.75, 6, 0.04, 0.45),
            // mesa: software 3-D rendering; behaves like an integer benchmark with a
            // working set close to the L1 size (the paper notes its sensitivity to
            // the per-set associativity loss of block-disabling).
            Mesa => fp("mesa", 30, 96, 0.62, 0.35, 24, 0.10, 0.55),
            // mgrid: multigrid solver, streaming with some blocked reuse.
            Mgrid => fp("mgrid", 12, 1536, 0.30, 0.80, 6, 0.04, 0.45),
            // sixtrack: particle tracking, small resident data set, compute bound.
            Sixtrack => fp("sixtrack", 12, 48, 0.75, 0.40, 20, 0.05, 0.50),
            // swim: shallow-water model, pure streaming over huge arrays.
            Swim => fp("swim", 4, 3072, 0.15, 0.90, 4, 0.03, 0.40),
            // wupwise: lattice QCD, blocked complex arithmetic with reuse near the L1
            // size (another benchmark the paper flags for block-disabling's minimum).
            Wupwise => fp("wupwise", 30, 160, 0.58, 0.50, 12, 0.05, 0.50),

            // ---------------- SPECint 2000 ----------------
            // bzip2: compression, ~200 KB working set with good locality.
            Bzip => int("bzip", 16, 256, 0.55, 0.40, 12, 0.16, 0.55),
            // crafty: chess search; code and data working sets both sit right around
            // the L1 sizes, making it the most L1-capacity-sensitive program in the
            // suite (the paper reports its largest gain, 29%, for block-disabling+V$).
            Crafty => int("crafty", 30, 72, 0.68, 0.25, 56, 0.14, 0.55),
            // eon: C++ ray tracer, small data but substantial code footprint.
            Eon => int("eon", 16, 48, 0.70, 0.30, 48, 0.10, 0.50),
            // gap: group theory interpreter, pointer-chasing over a moderate heap with
            // a hot interpreter loop (flagged by the paper for block-disabling's min).
            Gap => int("gap", 28, 128, 0.60, 0.30, 40, 0.12, 0.60),
            // gcc: compiler, very large code footprint and scattered data.
            Gcc => int("gcc", 24, 512, 0.45, 0.30, 112, 0.14, 0.55),
            // gzip: compression with a 64 KB sliding window straddling the L1 capacity.
            Gzip => int("gzip", 30, 96, 0.60, 0.45, 10, 0.15, 0.55),
            // mcf: single-depot vehicle scheduling, pointer chasing over ~100 MB;
            // thoroughly memory bound, insensitive to L1 capacity.
            Mcf => int("mcf", 4, 8192, 0.12, 0.10, 8, 0.18, 0.65),
            // parser: dictionary-based NLP, medium heap with irregular access.
            Parser => int("parser", 16, 384, 0.45, 0.25, 24, 0.17, 0.60),
            // perlbmk: perl interpreter, big code footprint, hot interpreter state near
            // the L1 size (also flagged for block-disabling's minimum).
            Perlbmk => int("perlbmk", 28, 192, 0.58, 0.25, 88, 0.13, 0.55),
            // twolf: place-and-route, medium working set with poor spatial locality.
            Twolf => int("twolf", 20, 256, 0.50, 0.20, 20, 0.16, 0.60),
            // vortex: object-oriented database, large code and data footprints,
            // strongly L1-sensitive.
            Vortex => int("vortex", 30, 256, 0.58, 0.30, 96, 0.10, 0.55),
            // vpr: FPGA place-and-route, medium working set, moderately sensitive.
            Vpr => int("vpr", 20, 192, 0.52, 0.25, 20, 0.14, 0.55),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Helper for SPECint-style profiles; region sizes are in KB.
#[allow(clippy::too_many_arguments)]
fn int(
    name: &'static str,
    hot_data_kb: u64,
    data_working_set_kb: u64,
    hot_access_probability: f64,
    streaming_probability: f64,
    code_kb: u64,
    branch_randomness: f64,
    dependence_density: f64,
) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite: Suite::Int,
        load_fraction: 0.26,
        store_fraction: 0.10,
        branch_fraction: 0.16,
        int_mul_fraction: 0.01,
        fp_alu_fraction: 0.0,
        fp_mul_fraction: 0.0,
        hot_data_bytes: hot_data_kb * 1024,
        data_working_set_bytes: data_working_set_kb * 1024,
        hot_access_probability,
        streaming_probability,
        code_bytes: code_kb * 1024,
        branch_randomness,
        dependence_density,
    }
}

/// Helper for SPECfp-style profiles; region sizes are in KB.
#[allow(clippy::too_many_arguments)]
fn fp(
    name: &'static str,
    hot_data_kb: u64,
    data_working_set_kb: u64,
    hot_access_probability: f64,
    streaming_probability: f64,
    code_kb: u64,
    branch_randomness: f64,
    dependence_density: f64,
) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite: Suite::Fp,
        load_fraction: 0.30,
        store_fraction: 0.09,
        branch_fraction: 0.08,
        int_mul_fraction: 0.01,
        fp_alu_fraction: 0.22,
        fp_mul_fraction: 0.12,
        hot_data_bytes: hot_data_kb * 1024,
        data_working_set_bytes: data_working_set_kb * 1024,
        hot_access_probability,
        streaming_probability,
        code_bytes: code_kb * 1024,
        branch_randomness,
        dependence_density,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn there_are_26_benchmarks_with_unique_names() {
        let all = Benchmark::all();
        assert_eq!(all.len(), 26);
        let names: HashSet<&str> = all.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn every_profile_validates() {
        for b in Benchmark::all() {
            let p = b.profile();
            assert!(p.validate().is_ok(), "{}: {:?}", b, p.validate());
        }
    }

    #[test]
    fn suite_split_matches_spec2000() {
        let fp_count = Benchmark::all()
            .iter()
            .filter(|b| b.profile().suite == Suite::Fp)
            .count();
        let int_count = Benchmark::all()
            .iter()
            .filter(|b| b.profile().suite == Suite::Int)
            .count();
        assert_eq!(fp_count, 14);
        assert_eq!(int_count, 12);
    }

    #[test]
    fn figure_order_starts_with_fp_and_ends_with_vpr() {
        let all = Benchmark::all();
        assert_eq!(all[0].name(), "ammp");
        assert_eq!(all[13].name(), "wupwise");
        assert_eq!(all[14].name(), "bzip");
        assert_eq!(all[25].name(), "vpr");
    }

    #[test]
    fn int_benchmarks_have_more_branches_than_fp() {
        let crafty = Benchmark::Crafty.profile();
        let swim = Benchmark::Swim.profile();
        assert!(crafty.branch_fraction > swim.branch_fraction);
        assert!(swim.fp_alu_fraction > 0.0);
        assert_eq!(crafty.fp_alu_fraction, 0.0);
    }

    #[test]
    fn capacity_sensitive_benchmarks_have_working_sets_near_the_l1_size() {
        // The profiles the paper singles out (crafty's gain; mesa/wupwise/gap/gzip/
        // perlbmk minimums) all keep a hot region close to the 32 KB L1 capacity.
        for b in [
            Benchmark::Crafty,
            Benchmark::Mesa,
            Benchmark::Wupwise,
            Benchmark::Gap,
            Benchmark::Gzip,
            Benchmark::Perlbmk,
        ] {
            let p = b.profile();
            assert!(
                (24 * 1024..=32 * 1024).contains(&p.hot_data_bytes),
                "{b}: hot region {} should be near the L1 capacity",
                p.hot_data_bytes
            );
        }
        // Memory-bound benchmarks keep tiny hot regions and huge working sets.
        assert!(Benchmark::Mcf.profile().data_working_set_bytes > 4 * 1024 * 1024);
        assert!(Benchmark::Swim.profile().data_working_set_bytes > 2 * 1024 * 1024);
    }

    #[test]
    fn display_prints_the_spec_name() {
        assert_eq!(Benchmark::Crafty.to_string(), "crafty");
        assert_eq!(Benchmark::Mcf.to_string(), "mcf");
    }
}
