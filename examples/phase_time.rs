//! Per-phase wall-clock breakdown of one streaming GEMM simulation —
//! the profiling companion to `bench_sim` (which times end-to-end runs).
//! Each phase also reports its run-granularity statistics: hinted runs
//! admitted as single scheduling objects, their mean length and log2
//! length histogram, and the per-block fallback split by cause (refresh /
//! row / trace / traffic / other). All but the wall-clock times are
//! deterministic.
//!
//! Usage: `cargo run --release --example phase_time [M K N] \
//!         [--preset=ddr4|ddr5|lpddr5|hbm2]`
//! (defaults to 2048 2048 64 at StepStone-BG on DDR4).

use std::time::Instant;
use stepstone_addr::PimLevel;
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, RunCounters, FB_LABELS,
};
use stepstone_core::flow::{kernel_cursors, transfer_cursors, ExecMode, GemmContext};
use stepstone_core::{GemmSpec, Phase, SimOptions, SystemConfig};
use stepstone_dram::{CommandBus, DramConfig, TimingState};

fn main() {
    let mut dims: Vec<usize> = Vec::new();
    let mut dram = DramConfig::default();
    let mut preset = "ddr4".to_string();
    for arg in std::env::args().skip(1) {
        if let Some(name) = arg.strip_prefix("--preset=") {
            dram = DramConfig::by_name(name)
                .unwrap_or_else(|| panic!("unknown preset '{name}' (ddr4|ddr5|lpddr5|hbm2)"));
            preset = name.to_string();
        } else if let Ok(v) = arg.parse() {
            dims.push(v);
        }
    }
    let (m, k, n) =
        if dims.len() == 3 { (dims[0], dims[1], dims[2]) } else { (2048, 2048, 64) };
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() }.with_dram(dram);
    println!("{preset} ({} MHz)", dram.clock_hz / 1_000_000);
    profile(&mut TimingState::new(sys.dram), &sys, m, k, n);
}

fn profile(ts: &mut TimingState, sys: &SystemConfig, m: usize, k: usize, n: usize) {
    let spec = GemmSpec::new(m, k, n);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let ctx = GemmContext::build(sys, &spec, &opts);
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let loc_mode = sys.localization;

    let phase_stats = |label: &str, t0: Instant, blocks: u64, rc: RunCounters| {
        println!(
            "{label}: {:>9.1} ms  {:>6.1} ns/blk ({blocks} blocks)",
            t0.elapsed().as_secs_f64() * 1e3,
            t0.elapsed().as_nanos() as f64 / blocks.max(1) as f64,
        );
        let splits: Vec<String> = FB_LABELS
            .iter()
            .enumerate()
            .filter(|&(i, _)| rc.fallback[i] > 0)
            .map(|(i, l)| format!("{l} {}", rc.fallback[i]))
            .collect();
        println!(
            "        {} runs admitted, mean {:.1} blocks; per-block splits: {}",
            rc.runs,
            rc.mean_run_len(),
            if splits.is_empty() { "none".into() } else { splits.join(", ") },
        );
        // Bucket i holds runs of 2^i ..= 2^(i+1) - 1 blocks; the last one
        // also holds every longer run.
        let last = rc.hist.len() - 1;
        let hist: Vec<String> = rc
            .hist
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h > 0)
            .map(|(i, h)| {
                if i == last {
                    format!("{}+: {h}", 1u64 << i)
                } else {
                    format!("{}-{}: {h}", 1u64 << i, (2u64 << i) - 1)
                }
            })
            .collect();
        if !hist.is_empty() {
            println!("        run lengths (blocks: runs): {}", hist.join(", "));
        }
    };

    let t0 = Instant::now();
    reset_run_counters();
    let mut loc = transfer_cursors(
        &ctx,
        &ctx.b_regions,
        true,
        Phase::Localization,
        0,
        loc_mode.inter_block_gap(),
    );
    let loc_end = run_phase_auto(ts, &mut bus, &ctx.mapping, &mut loc, None, sys.parallel);
    let loc_blocks = ts.stats.accesses();
    phase_stats("loc   ", t0, loc_blocks, run_counters());

    let t0 = Instant::now();
    reset_run_counters();
    let mut units = kernel_cursors(&ctx, sys, &opts, ExecMode::Streaming, loc_end);
    run_phase_auto(ts, &mut bus, &ctx.mapping, &mut units, None, sys.parallel);
    let kern_blocks = ts.stats.accesses() - loc_blocks;
    phase_stats("kernel", t0, kern_blocks, run_counters());

    let kernel_end = units.iter().map(|u| u.end_time).max().unwrap_or(loc_end);
    let t0 = Instant::now();
    reset_run_counters();
    let mut red = transfer_cursors(
        &ctx,
        &ctx.c_regions,
        false,
        Phase::Reduction,
        kernel_end,
        loc_mode.inter_block_gap(),
    );
    run_phase_auto(ts, &mut bus, &ctx.mapping, &mut red, None, sys.parallel);
    let red_blocks = ts.stats.accesses() - loc_blocks - kern_blocks;
    phase_stats("red   ", t0, red_blocks, run_counters());
}
