//! The four workloads, their seeded inputs, and the checks on their
//! simulated outputs.
//!
//! Every timing is host time; the simulated results (cycles, counters,
//! percentiles) are the outputs each op is checked on. A mismatch is
//! reported on stderr and counts the op as failed; it never stops the run.
//!
//! Each workload runs a pass in one of two forms. The plain form calls
//! the public entry points a user calls (`GemmContext::build` +
//! `simulate_pow2_gemm_ctx`, `SessionCoster::cost`,
//! `sweep_loads_with_threads`). The decomposed form does the same work
//! through the layer calls underneath them (context build, backend
//! selection, kernel, arrivals, event loop), so that spans around those
//! calls attribute host time to layers; its outputs are checked against
//! the plain form's. Traced passes and the untimed warm-up pass are
//! decomposed; timed untraced passes are plain.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use stepstone_addr::agen::{agen_counters, reset_agen_counters, AgenCounters};
use stepstone_addr::groups::partition_constraints;
use stepstone_addr::{paged_run_stats, PageMap, PagingConfig, PimLevel, StepStoneAgen};
use stepstone_core::engine::{reset_run_counters, run_counters, RunCounters, FB_LABELS};
use stepstone_core::{
    choose_backend, options_for, simulate_pow2_gemm_ctx, Backend, CpuModel, ExecMode, FabricConfig,
    FabricStats, GemmContext, GemmSpec, LatencyReport, Phase, ReduceVia, SessionCache, SimOptions,
    SystemConfig, TopologyKind,
};
use stepstone_dram::{BackendKind, DramStats};
use stepstone_models::{Bucket, ModelExecutor, ModelGraph, PassCost, Scheme};
use stepstone_serving::{
    build_cost_table, classes, run_serving, sweep_loads_with_threads, BatchCoster, CostTable,
    ServingConfig, ServingReport, SessionCoster, TableCoster,
};
use stepstone_workloads::{OpenLoopArrivals, Request, RequestKind, RequestMix};

use crate::json::Json;
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "paper_gemm",
    "table1_exact",
    "serving_analytic",
    "paged_ring_gemm",
];

/// Offered-load ladder of the serving sweep: mean inter-arrival gaps in
/// DRAM cycles, unloaded to past saturation (the ladder `bench_sim`
/// commits).
const GAPS: [f64; 5] = [
    400_000_000.0,
    100_000_000.0,
    25_000_000.0,
    6_250_000.0,
    1_562_500.0,
];
/// Requests per load point.
const REQUESTS: u64 = 1000;
/// Page size of the fragmented paging layer on `paged_ring_gemm`.
const PAGE_BYTES: u64 = 4096;

/// Host threads: the simulator's channel-parallel engine already caps
/// itself at `available_parallelism`; the sweep is capped here.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    pub sweep_threads: usize,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self {
            nproc,
            sweep_threads: nproc.min(GAPS.len()),
        }
    }
}

/// The inputs a workload receives, all derived from the benchmark seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Whether the seed is the one the reference outputs were recorded at.
    pub at_reference: bool,
    /// Base seed of the serving sweep (each load point re-seeds from it).
    pub sweep_seed: u64,
    /// Frame-permutation seed of the fragmented paging layer.
    pub frame_seed: u64,
    /// The arrival trace of each serving load point.
    pub traces: Vec<Vec<Request>>,
}

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The trace seed of sweep load point `i`, as `sweep_loads_with_threads`
/// derives it from the sweep's base seed. Kept identical so the
/// benchmark's own traces are the ones the sweep serves (checked: the
/// decomposed sweep must reproduce the plain one bit for bit).
fn point_seed(seed: u64, i: usize) -> u64 {
    mix64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
}

fn arrival_trace(sweep_seed: u64, i: usize) -> Vec<Request> {
    OpenLoopArrivals::trace(
        point_seed(sweep_seed, i),
        RequestMix::recommendation_heavy(),
        GAPS[i],
        REQUESTS,
    )
}

impl Inputs {
    /// Inputs for `seed`. At the reference seed they are the recorded
    /// ones (the committed sweep seed and frame seed); any other seed
    /// draws both from SplitMix64.
    pub fn generate(seed: u64, refs: &References) -> Self {
        let at_reference = seed == refs.seed;
        let (sweep_seed, frame_seed) = if at_reference {
            (refs.sweep_seed, refs.frame_seed)
        } else {
            (mix64(seed), mix64(seed ^ 0xA076_1D64_78BD_642F))
        };
        let traces = (0..GAPS.len())
            .map(|i| arrival_trace(sweep_seed, i))
            .collect();
        Self {
            at_reference,
            sweep_seed,
            frame_seed,
            traces,
        }
    }
}

/// Reference outputs, read from `manifest.json`.
#[derive(Debug, Clone)]
pub struct References {
    pub seed: u64,
    pub sweep_seed: u64,
    pub frame_seed: u64,
    pub paper: GemmRef,
    pub paged: GemmRef,
    /// Exact-tier pass cost of every (kind, class), in table order.
    pub table1: Vec<PassCost>,
    /// Per load point: p50, p95, p99, served, rejected, batches, pim_batches.
    pub serving: Vec<[u64; 7]>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct GemmRef {
    pub cycles: u64,
    pub blocks: u64,
    pub runs: u64,
    pub run_blocks: u64,
    pub fallback: [u64; 5],
    /// bytes injected, bytes delivered, messages, transit cycles.
    pub fabric: Option<[u64; 4]>,
}

const SERVING_FIELDS: [&str; 7] = [
    "p50",
    "p95",
    "p99",
    "served",
    "rejected",
    "batches",
    "pim_batches",
];
const FABRIC_FIELDS: [&str; 4] = [
    "bytes_injected",
    "bytes_delivered",
    "messages",
    "transit_cycles",
];
const PASS_COST_FIELDS: [&str; 5] = [
    "pim_cycles",
    "cpu_cycles",
    "data_cycles",
    "pim_gemms",
    "cpu_gemms",
];

fn table_order() -> Vec<(RequestKind, usize)> {
    RequestKind::ALL
        .iter()
        .flat_map(|&k| classes(k).into_iter().map(move |c| (k, c)))
        .collect()
}

impl References {
    pub fn from_manifest(m: &Json) -> Result<Self, String> {
        let r = m.get("references")?;
        let inputs = r.get("inputs")?;
        let gemm = |key: &str| -> Result<GemmRef, String> {
            let g = r.get(key)?;
            let fb = g.get("fallback")?;
            let mut fallback = [0; 5];
            for (i, label) in FB_LABELS.iter().enumerate() {
                fallback[i] = fb.u64_at(label)?;
            }
            let fabric = match g.get("fabric") {
                Ok(f) => {
                    let mut v = [0; 4];
                    for (i, k) in FABRIC_FIELDS.iter().enumerate() {
                        v[i] = f.u64_at(k)?;
                    }
                    Some(v)
                }
                Err(_) => None,
            };
            Ok(GemmRef {
                cycles: g.u64_at("cycles")?,
                blocks: g.u64_at("blocks")?,
                runs: g.u64_at("runs")?,
                run_blocks: g.u64_at("run_blocks")?,
                fallback,
                fabric,
            })
        };
        let order = table_order();
        let t1 = r.get("table1_exact")?.arr()?;
        if t1.len() != order.len() {
            return Err(format!(
                "table1_exact: {} classes recorded, {} priced",
                t1.len(),
                order.len()
            ));
        }
        let mut table1 = Vec::new();
        for (e, (kind, class)) in t1.iter().zip(&order) {
            if e.get("kind")?.str()? != kind.name() || e.u64_at("class")? != *class as u64 {
                return Err(format!(
                    "table1_exact: entry out of order at {} {class}",
                    kind.name()
                ));
            }
            let v: Vec<u64> = PASS_COST_FIELDS
                .iter()
                .map(|k| e.u64_at(k))
                .collect::<Result<_, _>>()?;
            table1.push(PassCost {
                pim_cycles: v[0],
                cpu_cycles: v[1],
                data_cycles: v[2],
                pim_gemms: v[3] as usize,
                cpu_gemms: v[4] as usize,
            });
        }
        let sv = r.get("serving_analytic")?;
        if sv.u64_at("requests")? != REQUESTS {
            return Err(
                "serving_analytic: recorded request count differs from the workload's".into(),
            );
        }
        let mut serving = Vec::new();
        for p in sv.get("points")?.arr()? {
            let mut v = [0; 7];
            for (i, k) in SERVING_FIELDS.iter().enumerate() {
                v[i] = p.u64_at(k)?;
            }
            serving.push(v);
        }
        if serving.len() != GAPS.len() {
            return Err("serving_analytic: one recorded point per gap expected".into());
        }
        Ok(Self {
            seed: r.u64_at("seed")?,
            sweep_seed: inputs.u64_at("sweep_seed")?,
            frame_seed: inputs.u64_at("frame_seed")?,
            paper: gemm("paper_gemm")?,
            paged: gemm("paged_ring_gemm")?,
            table1,
            serving,
        })
    }
}

/// Outputs of one op that differ from what they should be.
struct Check {
    what: String,
    diffs: Vec<String>,
}

impl Check {
    fn new(what: impl Into<String>) -> Self {
        Self {
            what: what.into(),
            diffs: Vec::new(),
        }
    }

    fn eq<T: PartialEq + std::fmt::Debug>(&mut self, field: &str, actual: T, expected: T) {
        if actual != expected {
            self.diffs
                .push(format!("{field} = {actual:?}, expected {expected:?}"));
        }
    }

    fn holds(&mut self, invariant: &str, ok: bool) {
        if !ok {
            self.diffs.push(format!("invariant broken: {invariant}"));
        }
    }

    /// 1 when any output mismatched (each mismatch is printed), else 0.
    fn failed(self) -> u64 {
        for d in &self.diffs {
            eprintln!("perfbench: {}: {d}", self.what);
        }
        u64::from(!self.diffs.is_empty())
    }
}

/// Per-layer values of one pass, keyed by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host nanoseconds of each op.
    pub op_ns: Vec<u64>,
    pub failed: u64,
    /// Simulated DRAM accesses the pass's simulations performed.
    pub blocks: u64,
    pub layer: Layer,
}

pub trait Workload {
    /// Run one pass. `decomposed` selects the layer-by-layer form (see the
    /// module docs); `tr` records spans when enabled.
    fn pass(&mut self, tr: &mut Tracer, decomposed: bool) -> Pass;
    /// Probes of single layers, run after a traced pass and outside every
    /// op: they add their metrics, and any mismatch they find, to `pass`.
    fn probe(&mut self, tr: &mut Tracer, pass: &mut Pass);
}

pub fn build(
    name: &str,
    inputs: &Inputs,
    refs: &References,
    host: Host,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_gemm" => Box::new(Gemm::new(
            SystemConfig::default(),
            refs.paper.clone(),
            None,
            true,
        )),
        "paged_ring_gemm" => {
            let paging = PagingConfig::fragmented(PAGE_BYTES, inputs.frame_seed);
            let sys = SystemConfig::default()
                .with_paging(paging)
                .with_reduce_via(ReduceVia::Fabric)
                .with_fabric(FabricConfig::default().with_topology(TopologyKind::Ring));
            Box::new(Gemm::new(
                sys,
                refs.paged.clone(),
                Some(paging),
                inputs.at_reference,
            ))
        }
        "table1_exact" => Box::new(Table1 {
            sys: SystemConfig::default(),
            reference: refs.table1.clone(),
            first: None,
            contexts: Vec::new(),
            blocks: 0,
        }),
        "serving_analytic" => {
            let sys = SystemConfig::default().with_backend(BackendKind::Analytic);
            Box::new(Serving {
                table: build_cost_table(&sys),
                sys,
                inputs: inputs.clone(),
                host,
                reference: inputs.at_reference.then(|| refs.serving.clone()),
                exact: refs.table1.clone(),
                first: None,
            })
        }
        _ => return None,
    })
}

/// Simulated work of a pass, summed over its simulations, with the
/// process-wide engine and AGEN counters read around each op.
#[derive(Default)]
struct Tally {
    total_cycles: u64,
    phase: [u64; 8],
    dram: DramStats,
    rc: RunCounters,
    agen: AgenCounters,
    fabric: Option<FabricStats>,
}

impl Tally {
    fn add_report(&mut self, r: &LatencyReport) {
        self.total_cycles += r.total;
        for (a, b) in self.phase.iter_mut().zip(r.phase_cycles) {
            *a += b;
        }
        self.dram.merge(&r.dram);
        if let Some(f) = &r.fabric {
            self.fabric
                .get_or_insert_with(FabricStats::default)
                .merge(f);
        }
    }

    fn add_counters(&mut self, rc: RunCounters, ag: AgenCounters) {
        self.rc.runs += rc.runs;
        self.rc.run_blocks += rc.run_blocks;
        for (a, b) in self.rc.fallback.iter_mut().zip(rc.fallback) {
            *a += b;
        }
        self.agen.live_spans += ag.live_spans;
        self.agen.replayed_spans += ag.replayed_spans;
        self.agen.window_jumps += ag.window_jumps;
        self.agen.boundary_successors += ag.boundary_successors;
        self.agen.skeleton_hits += ag.skeleton_hits;
        self.agen.skeleton_misses += ag.skeleton_misses;
    }

    fn write(&self, l: &mut Layer) {
        let ag = &self.agen;
        l.insert("addrmap.spans_live", ag.live_spans as f64);
        l.insert("addrmap.spans_replayed", ag.replayed_spans as f64);
        l.insert("addrmap.window_jumps", ag.window_jumps as f64);
        l.insert("addrmap.boundary_successors", ag.boundary_successors as f64);
        l.insert("addrmap.skeleton_hits", ag.skeleton_hits as f64);
        l.insert("addrmap.skeleton_misses", ag.skeleton_misses as f64);
        let accesses = self.dram.accesses();
        l.insert("engine.runs", self.rc.runs as f64);
        l.insert("engine.run_blocks", self.rc.run_blocks as f64);
        l.insert("engine.run_coverage", ratio(self.rc.run_blocks, accesses));
        l.insert("engine.mean_run_len", self.rc.mean_run_len());
        for (name, v) in [
            "engine.fallback_refresh",
            "engine.fallback_row",
            "engine.fallback_trace",
            "engine.fallback_traffic",
            "engine.fallback_other",
        ]
        .into_iter()
        .zip(self.rc.fallback)
        {
            l.insert(name, v as f64);
        }
        l.insert("dram.accesses", accesses as f64);
        l.insert("dram.acts", self.dram.acts as f64);
        l.insert(
            "dram.row_hit_ratio",
            ratio(
                self.dram.row_hits,
                self.dram.row_hits + self.dram.row_misses,
            ),
        );
        l.insert("dram.data_cycles", self.dram.data_cycles as f64);
        l.insert("sim.cycles", self.total_cycles as f64);
        for (p, c) in Phase::ALL.iter().zip(self.phase) {
            l.insert(phase_metric(*p), c as f64);
        }
        let f = self.fabric.clone().unwrap_or_default();
        l.insert("fabric.bytes_injected", f.bytes_injected as f64);
        l.insert(
            "fabric.messages",
            f.links.iter().map(|k| k.messages).sum::<u64>() as f64,
        );
        l.insert("fabric.transit_cycles", f.reduce_fabric_cycles as f64);
    }
}

fn phase_metric(p: Phase) -> &'static str {
    match p {
        Phase::Gemm => "sim.phase_cycles.Gemm",
        Phase::FillB => "sim.phase_cycles.FillB",
        Phase::FillC => "sim.phase_cycles.FillC",
        Phase::DrainC => "sim.phase_cycles.DrainC",
        Phase::Localization => "sim.phase_cycles.Localization",
        Phase::Reduction => "sim.phase_cycles.Reduction",
        Phase::Launch => "sim.phase_cycles.Launch",
        Phase::CpuTime => "sim.phase_cycles.CpuTime",
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn resident_words(ctx: &GemmContext) -> u64 {
    ctx.b_regions
        .iter()
        .chain(&ctx.c_regions)
        .map(|r| r.resident_words())
        .sum()
}

/// Span generation alone over every Algorithm-1 cell of `ctxs` (the
/// production `span_program`): host ns per span.
fn agen_probe(tr: &mut Tracer, ctxs: &[Arc<GemmContext>]) -> f64 {
    let id = tr.enter("addrmap.agen_probe");
    let t0 = Instant::now();
    let mut spans = 0u64;
    for ctx in ctxs {
        for &pim in &ctx.active_pims {
            for grp in 0..ctx.ga.n_groups() {
                if !ctx.ga.is_admissible(pim, grp) {
                    continue;
                }
                for rpart in 0..ctx.plan.rparts {
                    for cpart in 0..ctx.plan.cparts {
                        let mut cs = ctx.ga.constraints_for(pim, grp);
                        cs.extend(partition_constraints(
                            ctx.layout.mrow_mask(),
                            ctx.plan.rparts,
                            rpart,
                        ));
                        cs.extend(partition_constraints(
                            ctx.layout.mcol_mask(),
                            ctx.plan.cparts,
                            cpart,
                        ));
                        spans += StepStoneAgen::new(cs, ctx.layout.base, ctx.layout.end())
                            .span_program()
                            .count() as u64;
                    }
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    tr.exit(id);
    if spans == 0 {
        0.0
    } else {
        ns / spans as f64
    }
}

/// `paper_gemm` and `paged_ring_gemm`: one GEMM per op, context build plus
/// kernel, at paper scale on the exact tier.
struct Gemm {
    sys: SystemConfig,
    spec: GemmSpec,
    opts: SimOptions,
    reference: GemmRef,
    paging: Option<PagingConfig>,
    /// Whether `reference` applies to these inputs.
    at_reference: bool,
    first: Option<(LatencyReport, RunCounters)>,
    ctx: Option<Arc<GemmContext>>,
}

impl Gemm {
    fn new(
        sys: SystemConfig,
        reference: GemmRef,
        paging: Option<PagingConfig>,
        at_reference: bool,
    ) -> Self {
        Self {
            sys,
            spec: GemmSpec::new(4096, 4096, 256),
            opts: SimOptions::stepstone(PimLevel::BankGroup),
            reference,
            paging,
            at_reference,
            first: None,
            ctx: None,
        }
    }
}

impl Workload for Gemm {
    fn pass(&mut self, tr: &mut Tracer, _decomposed: bool) -> Pass {
        tr.next_op();
        let op = tr.enter("bench.op");
        reset_run_counters();
        reset_agen_counters();
        let t0 = Instant::now();
        let ctx = tr.span("flow.build", || {
            GemmContext::build(&self.sys, &self.spec, &self.opts)
        });
        let r = tr.span("engine.kernel", || {
            simulate_pow2_gemm_ctx(
                &self.sys,
                &self.spec,
                &self.opts,
                None,
                ExecMode::Streaming,
                &ctx,
                0,
            )
        });
        let op_ns = t0.elapsed().as_nanos() as u64;
        let (rc, ag) = (run_counters(), agen_counters());
        tr.exit(op);

        let mut c = Check::new("op");
        let g = &self.reference;
        // Paging permutes frames, never the blocks a kernel touches.
        c.eq("blocks", r.dram.accesses(), g.blocks);
        if self.at_reference {
            c.eq("cycles", r.total, g.cycles);
            c.eq("runs", rc.runs, g.runs);
            c.eq("run_blocks", rc.run_blocks, g.run_blocks);
            c.eq("fallback", rc.fallback, g.fallback);
            if let (Some(f), Some(want)) = (&r.fabric, g.fabric) {
                let messages = f.links.iter().map(|l| l.messages).sum();
                c.eq(
                    "fabric",
                    [
                        f.bytes_injected,
                        f.bytes_delivered,
                        messages,
                        f.reduce_fabric_cycles,
                    ],
                    want,
                );
            }
        }
        c.holds(
            "fabric stats present exactly under a fabric reduce",
            r.fabric.is_some() == g.fabric.is_some(),
        );
        if let Some(f) = &r.fabric {
            c.holds(
                "fabric bytes injected == delivered",
                f.bytes_injected == f.bytes_delivered,
            );
        }
        match &self.first {
            Some((r0, rc0)) => {
                c.holds("repeated ops agree bit for bit", r == *r0 && rc == *rc0);
            }
            None => self.first = Some((r.clone(), rc)),
        }
        let failed = c.failed();

        let mut t = Tally::default();
        t.add_report(&r);
        t.add_counters(rc, ag);
        let mut layer = Layer::new();
        t.write(&mut layer);
        layer.insert("flow.session_hits", 0.0);
        layer.insert("flow.session_misses", 1.0);
        layer.insert("flow.region_resident_words", resident_words(&ctx) as f64);
        self.ctx = Some(Arc::new(ctx));
        Pass {
            op_ns: vec![op_ns],
            failed,
            blocks: r.dram.accesses(),
            layer,
        }
    }

    fn probe(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let layer = &mut pass.layer;
        let Some(ctx) = self.ctx.clone() else { return };
        layer.insert(
            "addrmap.agen_ns_per_span",
            agen_probe(tr, std::slice::from_ref(&ctx)),
        );
        if let Some(paging) = self.paging {
            // Same-key run length over the first localized-B region under
            // this page map, against the unpaged key stream.
            let id = tr.enter("paging.run_stats");
            let mapping = self.sys.mapping();
            let plan = &ctx.b_regions[0];
            let sample = plan.len().min(1 << 16);
            let native = paged_run_stats(
                &PageMap::for_mapping(PagingConfig::identity(PAGE_BYTES), &mapping),
                plan,
                &mapping,
                sample,
            );
            let paged = paged_run_stats(
                &PageMap::for_mapping(paging, &mapping),
                plan,
                &mapping,
                sample,
            );
            tr.exit(id);
            layer.insert("paging.page_splits", paged.page_splits as f64);
            layer.insert(
                "paging.locality_vs_native",
                paged.mean_run_len() / native.mean_run_len(),
            );
        }
    }
}

/// A model pass decomposed into the calls `ModelExecutor::pass_cost`
/// makes: backend selection per distinct GEMM shape, then for PIM-routed
/// shapes a session-cached context build and a kernel per power-of-two
/// sub-GEMM. Shapes are memoized for the whole table pass, as one
/// executor memoizes them.
struct Decomposer<'a> {
    sys: &'a SystemConfig,
    kernel_span: &'static str,
    session: SessionCache,
    cpu: CpuModel,
    /// (is PIM, cycles, data-bus cycles) per GEMM shape.
    selected: HashMap<GemmSpec, (bool, u64, u64)>,
    /// CPU-side operator costs come from the executor's CPU scheme.
    cpu_ops: ModelExecutor,
    contexts: Vec<Arc<GemmContext>>,
    tally: Tally,
}

impl<'a> Decomposer<'a> {
    fn new(sys: &'a SystemConfig) -> Self {
        let kernel_span = match sys.backend {
            BackendKind::Exact => "engine.kernel",
            BackendKind::Analytic => "analytic.kernel",
        };
        Self {
            sys,
            kernel_span,
            session: SessionCache::new(),
            cpu: CpuModel::default(),
            selected: HashMap::new(),
            cpu_ops: ModelExecutor::new(sys.clone()),
            contexts: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn pass_cost(&mut self, tr: &mut Tracer, graph: &ModelGraph) -> PassCost {
        let id = tr.enter("models.pass_cost");
        let mut pass = PassCost::default();
        for op in &graph.ops {
            let stepstone_models::Op::Gemm(spec) = op else {
                continue;
            };
            let (pim, cycles, data) = match self.selected.get(spec) {
                Some(&hit) => hit,
                None => {
                    let sel = self.select(tr, spec);
                    self.selected.insert(*spec, sel);
                    sel
                }
            };
            if pim {
                pass.pim_cycles += cycles;
                pass.data_cycles += data;
                pass.pim_gemms += 1;
            } else {
                pass.cpu_cycles += cycles;
                pass.cpu_gemms += 1;
            }
        }
        pass.cpu_cycles += tr.span("models.cpu_ops", || {
            self.cpu_ops
                .run(graph, Scheme::Cpu)
                .bucket(Bucket::CpuOther)
        });
        tr.exit(id);
        pass
    }

    fn select(&mut self, tr: &mut Tracer, spec: &GemmSpec) -> (bool, u64, u64) {
        let backend = tr.span("select.choose_backend", || {
            choose_backend(self.sys, spec, &self.cpu)
        });
        if backend == Backend::Cpu {
            return (false, self.cpu.cycles(spec), 0);
        }
        let opts = options_for(backend);
        let (mut cycles, mut data) = (0, 0);
        for sub in spec.decompose_pow2() {
            let misses = self.session.misses();
            let ctx = tr.span("flow.build", || self.session.context(self.sys, &sub, &opts));
            if self.session.misses() > misses {
                self.contexts.push(ctx.clone());
            }
            let r = tr.span(self.kernel_span, || {
                simulate_pow2_gemm_ctx(self.sys, &sub, &opts, None, ExecMode::Streaming, &ctx, 0)
            });
            cycles += r.total;
            data += r.dram.data_cycles;
            self.tally.add_report(&r);
        }
        (true, cycles, data)
    }

    fn write(&self, l: &mut Layer) {
        self.tally.write(l);
        l.insert("flow.session_hits", self.session.hits() as f64);
        l.insert("flow.session_misses", self.session.misses() as f64);
        l.insert(
            "flow.region_resident_words",
            self.contexts.iter().map(|c| resident_words(c)).sum::<u64>() as f64,
        );
    }
}

fn graph_for(kind: RequestKind, class: usize) -> ModelGraph {
    match kind {
        RequestKind::Dlrm => stepstone_models::dlrm(class),
        RequestKind::Bert => stepstone_models::bert(class),
        RequestKind::Gpt2 => stepstone_models::gpt2(class),
    }
}

/// `table1_exact`: the whole serving surface priced on the exact tier, one
/// op per (kind, class), a fresh coster per pass.
struct Table1 {
    sys: SystemConfig,
    reference: Vec<PassCost>,
    first: Option<Vec<PassCost>>,
    contexts: Vec<Arc<GemmContext>>,
    /// Simulated DRAM accesses per pass (known after a decomposed pass).
    blocks: u64,
}

impl Workload for Table1 {
    fn pass(&mut self, tr: &mut Tracer, decomposed: bool) -> Pass {
        let mut out = Pass::default();
        let mut costs = Vec::new();
        let mut plain = SessionCoster::new(self.sys.clone());
        let mut dec = Decomposer::new(&self.sys);
        for (i, (kind, class)) in table_order().into_iter().enumerate() {
            tr.next_op();
            let op = tr.enter("bench.op");
            reset_run_counters();
            reset_agen_counters();
            let t0 = Instant::now();
            let cost = if decomposed {
                dec.pass_cost(tr, &graph_for(kind, class))
            } else {
                plain.cost(kind, class)
            };
            out.op_ns.push(t0.elapsed().as_nanos() as u64);
            dec.tally.add_counters(run_counters(), agen_counters());
            tr.exit(op);
            let mut c = Check::new(format!("{} class {class}", kind.name()));
            c.eq("pass cost", cost, self.reference[i]);
            if let Some(first) = &self.first {
                c.holds("repeated ops agree bit for bit", cost == first[i]);
            }
            out.failed += c.failed();
            costs.push(cost);
        }
        self.first.get_or_insert(costs);
        if decomposed {
            self.blocks = dec.tally.dram.accesses();
            dec.write(&mut out.layer);
            self.contexts = std::mem::take(&mut dec.contexts);
        }
        out.blocks = self.blocks;
        out
    }

    fn probe(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let ns = agen_probe(tr, &self.contexts);
        pass.layer.insert("addrmap.agen_ns_per_span", ns);
    }
}

/// `serving_analytic`: load sweeps over an analytic-tier cost table, one
/// sweep per op. The table is priced once per process at set-up, as a
/// serving study prices it once and then sweeps loads and mixes over it;
/// its pricing time is in `setup_s`, and traced runs time it layer by
/// layer in a probe.
struct Serving {
    sys: SystemConfig,
    inputs: Inputs,
    host: Host,
    table: CostTable,
    /// Recorded sweep outputs, when the inputs are the reference ones.
    reference: Option<Vec<[u64; 7]>>,
    /// Exact-tier pass costs the analytic table is compared with.
    exact: Vec<PassCost>,
    first: Option<Vec<ServingReport>>,
}

fn table_vec(table: &CostTable) -> Vec<PassCost> {
    table_order()
        .iter()
        .map(|k| table.get(k).copied().unwrap_or_default())
        .collect()
}

impl Serving {
    /// The sweep through its layers: each load point's arrivals and event
    /// loop, one point at a time so that spans nest. Returns the sweep and
    /// whether the regenerated arrivals equal the inputs'.
    fn decomposed(&self, tr: &mut Tracer) -> (Vec<ServingReport>, bool) {
        let cfg = ServingConfig::for_system(&self.sys);
        let id = tr.enter("serving.sweep");
        let mut sweep = Vec::new();
        let mut same_arrivals = true;
        for (i, given) in self.inputs.traces.iter().enumerate() {
            let trace = tr.span("workloads.arrivals", || {
                arrival_trace(self.inputs.sweep_seed, i)
            });
            same_arrivals &= trace == *given;
            sweep.push(tr.span("serving.loop", || {
                run_serving(&cfg, given, &mut TableCoster::new(&self.table))
            }));
        }
        tr.exit(id);
        (sweep, same_arrivals)
    }
}

impl Workload for Serving {
    fn pass(&mut self, tr: &mut Tracer, decomposed: bool) -> Pass {
        let mut out = Pass::default();
        tr.next_op();
        let op = tr.enter("bench.op");
        let t0 = Instant::now();
        let (sweep, same_arrivals) = if decomposed {
            self.decomposed(tr)
        } else {
            let sweep = sweep_loads_with_threads(
                &self.table,
                &ServingConfig::for_system(&self.sys),
                self.inputs.sweep_seed,
                RequestMix::recommendation_heavy(),
                REQUESTS,
                &GAPS,
                self.host.sweep_threads,
            );
            (sweep, true)
        };
        out.op_ns.push(t0.elapsed().as_nanos() as u64);
        tr.exit(op);

        let mut c = Check::new("op");
        c.holds("the same seed generates the same arrivals", same_arrivals);
        c.holds("one report per load point", sweep.len() == GAPS.len());
        for (i, r) in sweep.iter().enumerate() {
            c.holds(
                "served + rejected == offered",
                r.served + r.rejected == REQUESTS,
            );
            c.holds("p50 <= p95 <= p99", r.p50 <= r.p95 && r.p95 <= r.p99);
            if let Some(want) = self.reference.as_ref().map(|v| v[i]) {
                let got = [
                    r.p50,
                    r.p95,
                    r.p99,
                    r.served,
                    r.rejected,
                    r.batches,
                    r.pim_batches,
                ];
                c.eq(
                    &format!("point {i} [p50 p95 p99 served rejected batches pim_batches]"),
                    got,
                    want,
                );
            }
        }
        if decomposed {
            let sum = |f: fn(&ServingReport) -> u64| sweep.iter().map(f).sum::<u64>() as f64;
            out.layer.insert("serving.served", sum(|r| r.served));
            out.layer.insert("serving.rejected", sum(|r| r.rejected));
            out.layer.insert("serving.batches", sum(|r| r.batches));
            out.layer
                .insert("serving.pim_batches", sum(|r| r.pim_batches));
            out.layer.insert(
                "serving.mean_queue_depth",
                sweep.iter().map(|r| r.mean_queue_depth).sum::<f64>() / GAPS.len() as f64,
            );
        }
        match &self.first {
            Some(s0) => c.holds("repeated ops agree bit for bit", sweep == *s0),
            None => self.first = Some(sweep),
        }
        out.failed = c.failed();
        out
    }

    /// The cost table priced again through its layers, checked against
    /// the set-up table; then span generation over its contexts.
    fn probe(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        reset_run_counters();
        reset_agen_counters();
        let id = tr.enter("serving.cost_table");
        let mut dec = Decomposer::new(&self.sys);
        let table: Vec<PassCost> = table_order()
            .into_iter()
            .map(|(kind, class)| dec.pass_cost(tr, &graph_for(kind, class)))
            .collect();
        tr.exit(id);
        let (rc, ag) = (run_counters(), agen_counters());
        dec.tally.add_counters(rc, ag);
        dec.write(&mut pass.layer);

        let mut c = Check::new("cost table");
        c.eq("analytic pass costs", &table, &table_vec(&self.table));
        // The analytic tier never runs the exact engine's run admission.
        c.eq(
            "engine run and fallback blocks",
            rc.run_blocks + rc.fallback_blocks(),
            0,
        );
        pass.failed += c.failed();

        let mut ratios: Vec<f64> = table
            .iter()
            .zip(&self.exact)
            .map(|(a, e)| a.total() as f64 / e.total() as f64)
            .collect();
        ratios.sort_by(f64::total_cmp);
        pass.layer.insert(
            "analytic.cost_ratio_vs_exact_median",
            crate::median(&ratios),
        );
        pass.layer
            .insert("analytic.cost_ratio_vs_exact_max", ratios[ratios.len() - 1]);
        pass.layer
            .insert("addrmap.agen_ns_per_span", agen_probe(tr, &dec.contexts));
    }
}
