//! Conservation and accounting invariants of the StepStone execution flow.

use proptest::prelude::*;
use stepstone_addr::{PimLevel, BLOCK_BYTES};
use stepstone_core::{simulate_gemm_opt, GemmSpec, Phase, SimOptions, SystemConfig};
use stepstone_dram::Port;

fn a_blocks(spec: &GemmSpec) -> u64 {
    spec.a_bytes().div_ceil(BLOCK_BYTES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn weight_traffic_is_read_exactly_once(
        rows_log in 5u32..9,
        cols_log in 6u32..10,
        n in 1usize..9,
        level_ix in 0usize..3,
    ) {
        let level = PimLevel::ALL[level_ix];
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1 << rows_log, 1 << cols_log, n);
        let opts = SimOptions::stepstone(level);
        let r = simulate_gemm_opt(&sys, &spec, &opts, None);
        // GEMM-phase reads on the PIM port = A blocks + buffer traffic; the
        // A stream itself reads each weight block exactly once, so the PIM
        // port reads are at least a_blocks and bounded by a_blocks + fills.
        let port = match level {
            PimLevel::Channel => Port::Channel,
            PimLevel::Device => Port::RankInternal,
            PimLevel::BankGroup => Port::BgInternal,
        };
        let pim_reads = r.dram.reads_by_port[port.index()];
        prop_assert!(pim_reads >= a_blocks(&spec), "{pim_reads} < {}", a_blocks(&spec));
        // Total simulated traffic is finite and accounted.
        prop_assert!(r.dram.accesses() >= pim_reads);
        prop_assert!(r.total > 0);
        // Phase attribution covers the bulk of the run (within 2x slack for
        // asymmetric PIM loads).
        let attributed = r.attributed();
        prop_assert!(attributed * 2 >= r.total, "{attributed} vs {r:?}");
    }

    #[test]
    fn localization_traffic_equals_sharing_algebra(
        rows_log in 5u32..9,
        cols_log in 6u32..10,
        n in 1usize..9,
    ) {
        use stepstone_addr::{mapping_by_id, GroupAnalysis, MatrixLayout};
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1 << rows_log, 1 << cols_log, n);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let r = simulate_gemm_opt(&sys, &spec, &opts, None);
        let mapping = mapping_by_id(sys.mapping_id);
        let layout = MatrixLayout::new_f32(
            sys.place_weights(spec.a_bytes()),
            spec.m,
            spec.k,
        );
        let ga = GroupAnalysis::analyze(&mapping, PimLevel::BankGroup, layout);
        // Channel writes during the run are exactly the localized B volume.
        let expect = (ga.distinct_cols_per_pim() * n as u64)
            .max(1) * ga.active_pim_count() as u64;
        let chan_writes = r.dram.writes_by_port[Port::Channel.index()];
        prop_assert_eq!(chan_writes, expect);
    }

    #[test]
    fn naive_and_stepstone_agen_do_identical_dram_work(
        rows_log in 5u32..8,
        cols_log in 6u32..9,
    ) {
        use stepstone_core::AgenMode;
        let spec = GemmSpec::new(1 << rows_log, 1 << cols_log, 2);
        let fast = simulate_gemm_opt(
            &SystemConfig::default(),
            &spec,
            &SimOptions::stepstone(PimLevel::BankGroup),
            None,
        );
        let naive = simulate_gemm_opt(
            &SystemConfig { agen: AgenMode::Naive, ..SystemConfig::default() },
            &spec,
            &SimOptions::stepstone(PimLevel::BankGroup),
            None,
        );
        // Same blocks, same order — only the address-generation time differs.
        prop_assert_eq!(fast.dram.reads, naive.dram.reads);
        prop_assert_eq!(fast.dram.writes, naive.dram.writes);
        prop_assert!(naive.total >= fast.total);
    }
}

#[test]
fn phase_breakdown_matches_figure_semantics() {
    // Localization precedes the kernel; reduction follows it; the exposed
    // total is at least the sum of the serialized phases' critical path.
    let sys = SystemConfig::default();
    let spec = GemmSpec::new(512, 2048, 8);
    let r = simulate_gemm_opt(&sys, &spec, &SimOptions::stepstone(PimLevel::BankGroup), None);
    assert!(r.phase(Phase::Localization) > 0);
    assert!(r.phase(Phase::Reduction) > 0);
    assert!(r.phase(Phase::Gemm) > 0);
    assert!(
        r.total >= r.phase(Phase::Localization) + r.phase(Phase::Gemm) + r.phase(Phase::Reduction)
    );
}

/// Every power-of-two sub-GEMM of the 18 serving classes (DLRM batches
/// 1..=256, BERT 1..=4, GPT2 1..=32, each doubling), deduplicated.
fn table1_pow2_subshapes() -> Vec<GemmSpec> {
    use stepstone_models::{bert, dlrm, gpt2, Op};
    let mut graphs = Vec::new();
    for (model, max_batch) in [(dlrm as fn(usize) -> _, 256), (bert, 4), (gpt2, 32)] {
        graphs.extend((0..).map(|i| 1usize << i).take_while(|&b| b <= max_batch).map(model));
    }
    assert_eq!(graphs.len(), 18);
    let mut shapes: Vec<(usize, usize, usize)> = graphs
        .iter()
        .flat_map(|g| &g.ops)
        .filter_map(|op| match op {
            Op::Gemm(spec) => Some(spec.decompose_pow2()),
            _ => None,
        })
        .flatten()
        .map(|s| (s.m, s.k, s.n))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes.into_iter().map(|(m, k, n)| GemmSpec::new(m, k, n)).collect()
}

/// `GemmContext::build`'s one-pass row histogram and per-PIM resident `C`
/// blocks equal a brute-force per-(PIM, row) admissibility scan.
#[test]
fn context_row_histogram_matches_per_pim_row_scan() {
    use stepstone_core::flow::GemmContext;
    let sys = SystemConfig::default();
    let shapes = table1_pow2_subshapes();
    let mut multi_rpart = 0;
    for level in PimLevel::ALL {
        let opts = SimOptions::stepstone(level);
        for spec in &shapes {
            let ctx = GemmContext::build(&sys, spec, &opts);
            let ga = &ctx.ga;
            let rparts = ctx.plan.rparts as usize;
            let rows_per_rpart = ctx.layout.rows / rparts;
            let rpart_rows = |rp: usize| rp * rows_per_rpart..(rp + 1) * rows_per_rpart;
            let hist: Vec<Vec<u64>> = (0..rparts)
                .map(|rp| {
                    (0..ga.n_groups())
                        .map(|g| rpart_rows(rp).filter(|&r| ga.group_of_row(r) == g).count() as u64)
                        .collect()
                })
                .collect();
            assert_eq!(ctx.rows_by_rpart_group, hist, "{spec:?} {level:?}");
            for (pix, &pim) in ctx.active_pims.iter().enumerate() {
                let c_blocks: Vec<u64> = (0..rparts)
                    .map(|rp| {
                        let rows = rpart_rows(rp)
                            .filter(|&r| ga.is_admissible(pim, ga.group_of_row(r)))
                            .count() as u64;
                        (rows * spec.n as u64 * 4).div_ceil(64)
                    })
                    .collect();
                assert_eq!(ctx.c_blocks_by_rpart[pix], c_blocks, "{spec:?} {level:?} pim {pim}");
            }
            multi_rpart += usize::from(rparts > 1);
        }
    }
    assert!(multi_rpart > 0, "no case splits the rows into partitions");
}
