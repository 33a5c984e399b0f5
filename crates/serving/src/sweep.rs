//! Offered-load sweeps and batch costers.
//!
//! The serving loop prices batches by (kind, power-of-two class), so the
//! whole pricing surface is a small finite table (9 DLRM + 3 BERT + 6 GPT2
//! classes). Three costers cover the architecture comparison `bench_sim`
//! commits:
//!
//! * [`SessionCoster`] — a persistent `ModelExecutor` over one shared
//!   `SessionCache`: the warm serving architecture (contexts, span
//!   programs, KeyRuns built once per shape, then reused).
//! * [`ColdCoster`] — a fresh executor per batch: the pre-refactor
//!   cold-start pipeline, kept as the measured baseline.
//! * [`TableCoster`] — an immutable precomputed table, `Sync`, for
//!   load sweeps that fan out across threads.
//!
//! Both live costers produce identical `PassCost`s (the session layer is
//! cycle-exact); they differ only in wall-clock — the differential
//! `bench-smoke` gates.

use rustc_hash::FxHashMap;
use std::sync::Mutex;
use stepstone_core::SystemConfig;
use stepstone_models::{ModelExecutor, PassCost};
use stepstone_workloads::{OpenLoopArrivals, RequestKind, RequestMix};

use crate::metrics::ServingReport;
use crate::server::{max_batch_samples, run_serving, BatchCoster, ServingConfig};

/// The model graph a (kind, class) batch executes.
fn graph_for(kind: RequestKind, class: usize) -> stepstone_models::ModelGraph {
    match kind {
        RequestKind::Dlrm => stepstone_models::dlrm(class),
        RequestKind::Bert => stepstone_models::bert(class),
        RequestKind::Gpt2 => stepstone_models::gpt2(class),
    }
}

/// Power-of-two batch classes of a kind, up to its batch cap.
pub fn classes(kind: RequestKind) -> Vec<usize> {
    let mut c = Vec::new();
    let mut s = 1usize;
    while s <= max_batch_samples(kind) {
        c.push(s);
        s *= 2;
    }
    c
}

/// Warm-architecture coster: one long-lived executor, every distinct shape
/// simulated once, every later batch priced from memo tables.
pub struct SessionCoster {
    ex: ModelExecutor,
    memo: FxHashMap<(RequestKind, usize), PassCost>,
}

impl SessionCoster {
    pub fn new(sys: SystemConfig) -> Self {
        Self { ex: ModelExecutor::new(sys), memo: FxHashMap::default() }
    }

    pub fn executor(&self) -> &ModelExecutor {
        &self.ex
    }
}

impl BatchCoster for SessionCoster {
    fn cost(&mut self, kind: RequestKind, class: usize) -> PassCost {
        if let Some(&hit) = self.memo.get(&(kind, class)) {
            return hit;
        }
        let cost = self.ex.pass_cost(&graph_for(kind, class));
        self.memo.insert((kind, class), cost);
        cost
    }
}

/// Cold-start baseline: every batch rebuilds the executor (and with it
/// every context, span program, and KeyRuns table) from scratch — the
/// pre-refactor per-request pipeline.
pub struct ColdCoster {
    sys: SystemConfig,
}

impl ColdCoster {
    pub fn new(sys: SystemConfig) -> Self {
        Self { sys }
    }
}

impl BatchCoster for ColdCoster {
    fn cost(&mut self, kind: RequestKind, class: usize) -> PassCost {
        ModelExecutor::new(self.sys.clone()).pass_cost(&graph_for(kind, class))
    }
}

/// The full (kind, class) → cost table.
pub type CostTable = FxHashMap<(RequestKind, usize), PassCost>;

/// Precompute every batch class's pass cost (warm executor). This is the
/// expensive step of a sweep; the event loops themselves are arithmetic.
pub fn build_cost_table(sys: &SystemConfig) -> CostTable {
    let mut coster = SessionCoster::new(sys.clone());
    let mut table = CostTable::default();
    for kind in RequestKind::ALL {
        for class in classes(kind) {
            table.insert((kind, class), coster.cost(kind, class));
        }
    }
    table
}

/// Immutable table-backed coster (`&` shared across sweep threads).
pub struct TableCoster<'a> {
    table: &'a CostTable,
}

impl<'a> TableCoster<'a> {
    pub fn new(table: &'a CostTable) -> Self {
        Self { table }
    }
}

impl BatchCoster for TableCoster<'_> {
    fn cost(&mut self, kind: RequestKind, class: usize) -> PassCost {
        *self.table.get(&(kind, class)).unwrap_or_else(|| panic!("{kind:?} class {class} not in table"))
    }
}

/// Derive load point `i`'s trace seed from the sweep's base seed — a
/// SplitMix64 finalizer over (seed, index). The old `seed + i` scheme let
/// adjacent base seeds alias trace streams (seed 5's point 1 was seed 6's
/// point 0); the mix makes every (seed, i) pair an independent stream while
/// staying a pure function of the base seed, so same-seed sweeps are
/// reproducible point by point.
fn point_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sweep offered loads (mean inter-arrival gaps, in cycles): one serving
/// run per gap, each over its own deterministic seeded trace
/// (`point_seed` re-seeds each point from the base seed). With
/// `parallel`, points fan out via the vendored `rayon::scope`; results are
/// bit-identical to the serial order because each point is independent and
/// slotted by index.
pub fn sweep_loads(
    table: &CostTable,
    cfg: &ServingConfig,
    seed: u64,
    mix: RequestMix,
    requests: u64,
    mean_gaps: &[f64],
    parallel: bool,
) -> Vec<ServingReport> {
    let threads = if parallel { mean_gaps.len() } else { 1 };
    sweep_loads_with_threads(table, cfg, seed, mix, requests, mean_gaps, threads)
}

/// [`sweep_loads`] with an explicit worker count. Load points are claimed
/// from a shared index counter by `threads` workers (the calling thread is
/// one of them), so any worker may run any point — the per-point re-seeding is what guarantees two same-seed
/// sweeps produce identical `ServingReport`s whatever the thread count.
#[allow(clippy::too_many_arguments)]
pub fn sweep_loads_with_threads(
    table: &CostTable,
    cfg: &ServingConfig,
    seed: u64,
    mix: RequestMix,
    requests: u64,
    mean_gaps: &[f64],
    threads: usize,
) -> Vec<ServingReport> {
    let run_point = |i: usize| {
        let trace = OpenLoopArrivals::trace(point_seed(seed, i), mix, mean_gaps[i], requests);
        run_serving(cfg, &trace, &mut TableCoster::new(table))
    };
    let threads = threads.clamp(1, mean_gaps.len().max(1));
    if threads == 1 {
        return (0..mean_gaps.len()).map(run_point).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ServingReport>>> =
        (0..mean_gaps.len()).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if i >= slots.len() {
            break;
        }
        *slots[i].lock().unwrap() = Some(run_point(i));
    };
    // `threads − 1` spawned workers plus the calling thread.
    rayon::scope(|s| {
        for _ in 1..threads {
            s.spawn(move |_| work());
        }
        work();
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("point ran")).collect()
}

/// Find the saturation knee in a sweep ordered by *increasing* offered
/// load: the last point (prefix-wise) whose p99 stays within `factor` of
/// the lightest load's p99. Returns its index.
pub fn find_knee(reports: &[ServingReport], factor: f64) -> usize {
    assert!(!reports.is_empty());
    let base = reports[0].p99.max(1) as f64;
    let mut knee = 0;
    for (i, r) in reports.iter().enumerate() {
        if r.p99 as f64 <= base * factor && r.rejected == 0 {
            knee = i;
        } else {
            break;
        }
    }
    knee
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_pow2_up_to_cap() {
        assert_eq!(classes(RequestKind::Bert), vec![1, 2, 4]);
        assert_eq!(classes(RequestKind::Gpt2), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(classes(RequestKind::Dlrm).len(), 9);
    }

    #[test]
    fn knee_is_last_point_within_factor() {
        let mk = |p99: u64, rejected: u64| ServingReport {
            p99,
            rejected,
            ..Default::default()
        };
        let sweep = vec![mk(100, 0), mk(120, 0), mk(180, 0), mk(900, 0), mk(5000, 40)];
        assert_eq!(find_knee(&sweep, 2.0), 2);
        assert_eq!(find_knee(&sweep, 10.0), 3);
        assert_eq!(find_knee(&sweep, 1.0), 0);
    }
}
