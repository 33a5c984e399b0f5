//! The repository benchmark: host time the simulator takes to produce
//! checked answers, end to end and layer by layer.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_gemm|table1_exact|serving_analytic|paged_ring_gemm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client in one process issues the next op when the previous one
//! returns (closed loop). A run sets up, runs one untimed warm-up pass,
//! then runs timed passes until `--seconds` have gone by. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it spends half the
//! time on untraced passes and half on traced ones, and reports the
//! per-layer metrics, a self-time table, and the tracing overhead; the
//! spans go to `perfbench/out/<workload>-seed<n>.trace.json`. The last
//! line of standard output is one JSON object with the results.
//! `manifest.json` beside this package holds the reference outputs and
//! why each workload and metric was chosen.

mod json;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use json::{quote, Json};
use trace::{self_time_by_layer, total_time_by_name, Tracer};
use work::{Host, Inputs, Layer, Pass, References, Workload, WORKLOADS};

/// Set-up (reference load, configs, input generation) is repeated this
/// many times and the median kept.
const SETUP_REPS: usize = 5;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced run reports (span name prefixes),
/// with the metric each is reported as.
const LAYERS: [(&str, &str); 8] = [
    ("bench", "bench.self_ms"),
    ("flow", "flow.self_ms"),
    ("engine", "engine.self_ms"),
    ("analytic", "analytic.self_ms"),
    ("models", "models.self_ms"),
    ("select", "select.self_ms"),
    ("serving", "serving.self_ms"),
    ("workloads", "workloads.self_ms"),
];

/// Span names whose total time per traced pass (its ops and the probes
/// after it) the traced run reports.
const TIMED_CALLS: [(&str, &str); 7] = [
    ("flow.build", "flow.build_ms"),
    ("engine.kernel", "engine.kernel_ms"),
    ("analytic.kernel", "analytic.kernel_ms"),
    ("models.pass_cost", "models.pass_cost_ms"),
    ("serving.cost_table", "serving.cost_table_ms"),
    ("serving.loop", "serving.loop_ms"),
    ("workloads.arrivals", "workloads.arrivals_ms"),
];

/// Per-layer metrics (`--trace 1`), with their units. Every workload
/// reports all of them; a layer a workload does not drive reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("ns_per_block", "ns"),
    ("bench.self_ms", "ms"),
    ("flow.self_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("analytic.self_ms", "ms"),
    ("models.self_ms", "ms"),
    ("select.self_ms", "ms"),
    ("serving.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("flow.build_ms", "ms"),
    ("engine.kernel_ms", "ms"),
    ("analytic.kernel_ms", "ms"),
    ("models.pass_cost_ms", "ms"),
    ("serving.cost_table_ms", "ms"),
    ("serving.loop_ms", "ms"),
    ("workloads.arrivals_ms", "ms"),
    ("addrmap.agen_ns_per_span", "ns"),
    ("trace.overhead_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.untraced_pass_ms", "ms"),
    ("trace.spans_per_pass", "count"),
    ("ops.count", "count"),
    ("ops.ms_p90", "ms"),
    ("host.nproc", "count"),
    ("host.sweep_threads", "count"),
    ("addrmap.spans_live", "count"),
    ("addrmap.spans_replayed", "count"),
    ("addrmap.window_jumps", "count"),
    ("addrmap.boundary_successors", "count"),
    ("addrmap.skeleton_hits", "count"),
    ("addrmap.skeleton_misses", "count"),
    ("flow.session_hits", "count"),
    ("flow.session_misses", "count"),
    ("flow.region_resident_words", "count"),
    ("engine.runs", "count"),
    ("engine.run_blocks", "count"),
    ("engine.run_coverage", "ratio"),
    ("engine.mean_run_len", "blocks"),
    ("engine.fallback_refresh", "count"),
    ("engine.fallback_row", "count"),
    ("engine.fallback_trace", "count"),
    ("engine.fallback_traffic", "count"),
    ("engine.fallback_other", "count"),
    ("dram.accesses", "count"),
    ("dram.acts", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.data_cycles", "cycles"),
    ("sim.cycles", "cycles"),
    ("sim.phase_cycles.Gemm", "cycles"),
    ("sim.phase_cycles.FillB", "cycles"),
    ("sim.phase_cycles.FillC", "cycles"),
    ("sim.phase_cycles.DrainC", "cycles"),
    ("sim.phase_cycles.Localization", "cycles"),
    ("sim.phase_cycles.Reduction", "cycles"),
    ("sim.phase_cycles.Launch", "cycles"),
    ("sim.phase_cycles.CpuTime", "cycles"),
    ("analytic.cost_ratio_vs_exact_median", "ratio"),
    ("analytic.cost_ratio_vs_exact_max", "ratio"),
    ("serving.served", "count"),
    ("serving.rejected", "count"),
    ("serving.batches", "count"),
    ("serving.pim_batches", "count"),
    ("serving.mean_queue_depth", "requests"),
    ("paging.page_splits", "count"),
    ("paging.locality_vs_native", "ratio"),
    ("fabric.bytes_injected", "B"),
    ("fabric.messages", "count"),
    ("fabric.transit_cycles", "cycles"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value.as_str());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let seconds = num("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_references() -> Result<References, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/manifest.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    References::from_manifest(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// A traced pass and the spans it recorded: those of its ops, then those
/// of the probes that followed it.
struct Run {
    pass: Pass,
    ops: Range<usize>,
    probes: Range<usize>,
}

/// What the passes of one half of a run produced. Untraced passes keep only
/// their timings, so the benchmark's own memory does not grow with the
/// number of ops and `peak_rss_mb` stays the program's.
#[derive(Default)]
struct Passes {
    /// Host ns of each pass (its ops summed), sorted.
    pass_ns: Vec<f64>,
    /// Host ms of every op, sorted.
    op_ms: Vec<f64>,
    /// Median op ms of each pass, sorted.
    pass_op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Simulated DRAM accesses of the first pass.
    blocks: u64,
    /// Traced passes with their spans.
    traced: Vec<Run>,
}

/// Passes until `budget` has gone by (at least one). Traced passes are
/// followed by the workload's probes.
fn run_passes(w: &mut dyn Workload, tr: &mut Tracer, budget: Duration) -> Passes {
    let start = Instant::now();
    let mut out = Passes::default();
    while out.pass_ns.is_empty() || start.elapsed() < budget {
        let first = tr.spans().len();
        let mut pass = w.pass(tr, tr.enabled());
        let ops_end = tr.spans().len();
        if out.pass_ns.is_empty() {
            out.blocks = pass.blocks;
        }
        let op_ms = sorted(pass.op_ns.iter().map(|&n| n as f64 / 1e6).collect());
        out.pass_ns.push(pass_ns(&pass));
        out.pass_op_ms.push(median(&op_ms));
        out.op_ms.extend(op_ms);
        out.attempted += pass.op_ns.len() as u64;
        if tr.enabled() {
            w.probe(tr, &mut pass);
        }
        out.failed += pass.failed;
        if tr.enabled() {
            let probes = ops_end..tr.spans().len();
            out.traced.push(Run {
                pass,
                ops: first..ops_end,
                probes,
            });
        }
    }
    for v in [&mut out.pass_ns, &mut out.op_ms, &mut out.pass_op_ms] {
        v.sort_by(f64::total_cmp);
    }
    out
}

fn pass_ns(p: &Pass) -> f64 {
    p.op_ns.iter().sum::<u64>() as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = Host::detect();

    let mut setup_ns = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let refs = match load_references() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        };
        let inputs = Inputs::generate(args.seed, &refs);
        let w = work::build(&args.workload, &inputs, &refs, host).expect("workload name checked");
        setup_ns.push(t0.elapsed().as_nanos() as f64);
        built = Some((w, inputs));
    }
    let (mut w, inputs) = built.expect("at least one set-up");
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untraced_tr = Tracer::new(false);

    // Warm-up: the first pass of a process fills the process-wide caches
    // (span programs, corrector and window tables) once, as a user's first
    // simulation does. It is checked, counted, and charged to set-up, so
    // work moved into such caches shows in `setup_s`.
    let t0 = Instant::now();
    let warm = w.pass(&mut untraced_tr, true);
    let warm_ns = t0.elapsed().as_nanos() as f64;
    attempted += warm.op_ns.len() as u64;
    failed += warm.failed;
    let setup_s = (median(&sorted(setup_ns)) + warm_ns) / 1e9;

    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let untraced = run_passes(&mut *w, &mut untraced_tr, untraced_budget);
    let mut tr = Tracer::new(true);
    let traced = if args.trace {
        run_passes(&mut *w, &mut tr, budget / 2)
    } else {
        Passes::default()
    };
    attempted += untraced.attempted + traced.attempted;
    failed += untraced.failed + traced.failed;

    let blocks = untraced.blocks;
    println!(
        "perfbench {} seed {} (sweep seed {}, frame seed {}{}): nproc {}, sweep threads {}",
        args.workload,
        args.seed,
        inputs.sweep_seed,
        inputs.frame_seed,
        if inputs.at_reference {
            ", reference inputs"
        } else {
            ""
        },
        host.nproc,
        host.sweep_threads,
    );
    println!(
        "  {} untraced passes, {} ops; {} traced passes; {blocks} simulated blocks per pass",
        untraced.pass_ns.len(),
        untraced.op_ms.len(),
        traced.pass_ns.len(),
    );
    let q = |p: f64| percentile(&untraced.pass_ns, p) / 1e6;
    println!(
        "  untraced pass ms: min {:.1}, p25 {:.1}, median {:.1}, p75 {:.1}, max {:.1}",
        q(0.0),
        q(25.0),
        median(&untraced.pass_ns) / 1e6,
        q(75.0),
        q(100.0),
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let values = [
            setup_s,
            median(&untraced.pass_ns) / 1e9,
            // The median op of each pass, then the median over passes.
            // Pooling the ops of all passes instead would put the median
            // of `table1_exact` (equal counts of 18 very different op
            // sizes) between the slowest sample of one class and the
            // fastest of the next.
            median(&untraced.pass_op_ms),
            peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
    } else {
        let mut layer = layer_metrics(&traced.traced, tr.spans(), &untraced, host);
        if blocks > 0 {
            layer.insert("ns_per_block", median(&untraced.pass_ns) / blocks as f64);
        }
        print_self_times(&layer);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
        let dir = "perfbench/out";
        let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
    }
    println!("{}", result_json(failed, attempted, &metrics));
}

/// Per-layer metrics of the traced passes: medians over passes of each
/// pass's counters, probe results, per-call times (ops and probes) and
/// per-layer self times (ops only), plus the tracing overhead against the
/// untraced passes.
fn layer_metrics(traced: &[Run], spans: &[trace::Span], untraced: &Passes, host: Host) -> Layer {
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in traced {
        let mut layer = r.pass.layer.clone();
        let selfs = self_time_by_layer(spans, r.ops.clone());
        for (l, name) in LAYERS {
            layer.insert(name, selfs.get(l).copied().unwrap_or(0) as f64 / 1e6);
        }
        let calls = total_time_by_name(&spans[r.ops.start..r.probes.end]);
        for (span, name) in TIMED_CALLS {
            layer.insert(name, calls.get(span).copied().unwrap_or(0) as f64 / 1e6);
        }
        layer.insert("trace.traced_pass_ms", pass_ns(&r.pass) / 1e6);
        layer.insert("trace.spans_per_pass", r.ops.len() as f64);
        for (k, v) in layer {
            per_pass.entry(k).or_default().push(v);
        }
    }
    let mut out: Layer = per_pass
        .into_iter()
        .map(|(k, v)| (k, median(&sorted(v))))
        .collect();
    let untraced_ms = median(&untraced.pass_ns) / 1e6;
    out.insert("trace.untraced_pass_ms", untraced_ms);
    out.insert(
        "trace.overhead_ms",
        out["trace.traced_pass_ms"] - untraced_ms,
    );
    out.insert("ops.count", untraced.op_ms.len() as f64);
    out.insert("ops.ms_p90", percentile(&untraced.op_ms, 90.0));
    out.insert("host.nproc", host.nproc as f64);
    out.insert("host.sweep_threads", host.sweep_threads as f64);
    out
}

fn print_self_times(layer: &Layer) {
    let total: f64 = LAYERS.iter().map(|(_, name)| layer[name]).sum();
    println!("  self time per traced pass (median over passes):");
    for (l, name) in LAYERS {
        let ms = layer[name];
        println!(
            "    {l:<10} {ms:>10.2} ms  {:>5.1}%",
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "  traced pass {:.2} ms, untraced {:.2} ms: tracing overhead {:.2} ms",
        layer["trace.traced_pass_ms"], layer["trace.untraced_pass_ms"], layer["trace.overhead_ms"],
    );
}

fn result_json(failed: u64, attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs() -> References {
        load_references().expect("manifest.json loads")
    }

    /// Metric names and units printed here are the ones BENCHMARK.json
    /// declares, in both sections.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let b = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (section, printed) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = b
                .get(section)
                .unwrap()
                .arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().str().unwrap().into(),
                        m.get("unit").unwrap().str().unwrap().into(),
                    )
                })
                .collect();
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{section}");
        }
        let names: Vec<&str> = b
            .get("workloads")
            .unwrap()
            .arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn same_seed_generates_identical_inputs() {
        let r = refs();
        assert_eq!(Inputs::generate(7, &r), Inputs::generate(7, &r));
        let (a, b) = (Inputs::generate(7, &r), Inputs::generate(8, &r));
        assert_ne!(a.traces, b.traces);
        assert_ne!(a.frame_seed, b.frame_seed);
        let at_ref = Inputs::generate(r.seed, &r);
        assert!(at_ref.at_reference && !a.at_reference);
        assert_eq!(
            (at_ref.sweep_seed, at_ref.frame_seed),
            (r.sweep_seed, r.frame_seed)
        );
    }

    /// The serving workload passes against the recorded references at the
    /// reference seed, and a perturbed reference value fails the op
    /// instead of passing or stopping the run.
    #[test]
    fn perturbed_reference_fails_the_op() {
        let r = refs();
        let inputs = Inputs::generate(r.seed, &r);
        let host = Host::detect();
        let mut tr = Tracer::new(false);
        let mut w = work::build("serving_analytic", &inputs, &r, host).unwrap();
        assert_eq!(w.pass(&mut tr, false).failed, 0);
        let mut bad = r.clone();
        bad.serving[2][2] += 1;
        let mut w = work::build("serving_analytic", &inputs, &bad, host).unwrap();
        let pass = w.pass(&mut tr, false);
        assert_eq!((pass.op_ns.len(), pass.failed), (1, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload paper_gemm --seed 3 --seconds 10 --trace 1")).is_ok());
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload paper_gemm --seed x --seconds 10 --trace 1",
            "--workload paper_gemm --seed 3 --seconds 0 --trace 1",
            "--workload paper_gemm --seed 3 --seconds 10 --trace 2",
            "--workload paper_gemm --seed 3 --seconds 10",
            "--workload paper_gemm --seed 3 --seconds 10 --trace 1 --extra 1",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(0, 3, &[("wall_s", 1.25, "s")]);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct").unwrap(), &Json::Bool(true));
        assert_eq!(v.get("attempted").unwrap().u64().unwrap(), 3);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("wall_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .str()
                .unwrap(),
            "s"
        );
    }
}
