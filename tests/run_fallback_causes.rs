//! Where the exact engine's per-block "other" fallbacks come from.
//!
//! Kernel phases admit every hinted run they are offered, so their
//! per-block pulls are all hint ends (`row`). The "other" cause is left to
//! the DMA phases — localization and reduction — whose transfer cursors
//! never take the run fast path. This pins that split exactly on BERT's
//! Table-I GEMM shapes: a kernel run the source refuses, or a hint it
//! breaks, would land in "other" and move the count.
//!
//! One test in its own binary: the run counters are process-global.

use stepstone::addr::PimLevel;
use stepstone::core::engine::{reset_run_counters, run_counters, FB_OTHER};
use stepstone::core::flow::{simulate_pow2_gemm_ctx, ExecMode, GemmContext};
use stepstone::core::{GemmSpec, SimOptions, SystemConfig};

#[test]
fn other_fallbacks_are_exactly_the_dma_phase_blocks() {
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() };
    // BERT's projection and MLP GEMMs at one and four 8-token sequences.
    let shapes = [(1024, 1024, 8), (4096, 1024, 8), (1024, 4096, 32)];
    for (m, k, n) in shapes {
        for level in [PimLevel::BankGroup, PimLevel::Device] {
            let spec = GemmSpec::new(m, k, n);
            let opts = SimOptions::stepstone(level);
            let ctx = GemmContext::build(&sys, &spec, &opts);
            let loc: u64 = ctx.b_regions.iter().map(|r| r.len()).sum();
            let red: u64 = ctx.c_regions.iter().map(|r| r.len()).sum();
            reset_run_counters();
            let report =
                simulate_pow2_gemm_ctx(&sys, &spec, &opts, None, ExecMode::Streaming, &ctx, 0);
            let c = run_counters();
            let what = format!("{m}x{k} N={n} {level:?}");
            assert!(c.runs > 0, "{what}: the kernel admits runs: {c:?}");
            assert_eq!(
                c.fallback[FB_OTHER],
                loc + red,
                "{what}: 'other' = localization {loc} + reduction {red} blocks: {c:?}"
            );
            assert_eq!(
                c.run_blocks + c.fallback_blocks(),
                report.dram.accesses(),
                "{what}: every access is a run block or a fallback"
            );
        }
    }
}
