//! `BackendKind::Analytic` means "the closed form where one exists": every
//! flow without a closed form must price on the exact tier and return the
//! exact tier's report, field for field.

use stepstone::addr::PimLevel;
use stepstone::core::{
    simulate_gemm_fused, simulate_gemm_opt, simulate_ncho, simulate_pei, GemmSpec, LatencyReport,
    SimOptions, SystemConfig,
};
use stepstone::dram::{BackendKind, DramConfig};
use stepstone::workloads::SyntheticTraffic;

const LEVEL: PimLevel = PimLevel::BankGroup;

fn run(flow: &str, sys: &SystemConfig) -> LatencyReport {
    let spec = GemmSpec::new(512, 1024, 4);
    let opts = SimOptions::stepstone(LEVEL);
    match flow {
        "traffic" => {
            let mut t = SyntheticTraffic::spec_mix(11, 4000);
            simulate_gemm_opt(sys, &spec, &opts, Some(&mut t))
        }
        "quiet" => simulate_gemm_opt(sys, &spec, &opts, None),
        "pei" => simulate_pei(sys, &spec, LEVEL, None),
        "ncho" => simulate_ncho(sys, &spec, LEVEL, None),
        // 768 = 512 + 256: two fused power-of-two sub-GEMMs.
        "fused" => simulate_gemm_fused(sys, &GemmSpec::new(768, 1024, 4), &opts, None),
        _ => unreachable!("unknown flow {flow}"),
    }
}

#[test]
fn analytic_tier_runs_exact_where_no_closed_form_exists() {
    let exact = SystemConfig::default();
    let analytic = SystemConfig::default().with_backend(BackendKind::Analytic);
    for flow in ["traffic", "pei", "ncho", "fused"] {
        let want = run(flow, &exact);
        assert!(want.total > 0, "{flow}: empty exact report");
        assert_eq!(run(flow, &analytic), want, "{flow}: analytic tier diverged from exact");
    }
    // The traffic arm really co-simulates: the colocated requests show up
    // in the DRAM statistics on top of the GEMM's own accesses.
    assert!(run("traffic", &exact).dram.accesses() > run("quiet", &exact).dram.accesses());
}

#[test]
fn every_flow_reports_the_simulated_dram_clock() {
    // Cycle counts are denominated in the simulated part's command clock,
    // so `seconds()` is only right when every flow carries that clock.
    for name in DramConfig::PRESET_NAMES {
        let sys = SystemConfig::default().with_dram(DramConfig::by_name(name).expect("preset"));
        for flow in ["pei", "ncho", "fused", "quiet"] {
            assert_eq!(run(flow, &sys).clock_hz, sys.dram.clock_hz, "{name} {flow}");
        }
    }
}
