//! The memory-model tier selector.
//!
//! Every engine-driven simulation commits its accesses to the exact
//! Table-II model, [`TimingState`](crate::TimingState): the engine asks it
//! to *perform* each access (or closed-form run) and learns when the data
//! moved — it never asks "how long would this take?" and then advances its
//! own clock. The DRAMsim3-integration postmortems that seeded this design
//! (SNIPPETS.md) found latency-query interfaces over stateful memory models
//! to be wrong by construction: the answer changes as soon as any other
//! access commits.
//!
//! [`BackendKind`] picks between that engine and the closed-form analytic
//! GEMM executor in `stepstone-core`, which prices a whole GEMM from its
//! context aggregates without touching a timing model.

/// Which memory-model tier a simulation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The exact cycle-level Table-II model ([`crate::TimingState`]).
    #[default]
    Exact,
    /// The closed-form analytic GEMM executor in `stepstone-core`, wherever
    /// a closed form exists: a StepStone GEMM with no colocated traffic.
    /// Everything else (colocated traffic, PEI, nCHO, fused kernels) runs
    /// on the exact model.
    Analytic,
}

impl BackendKind {
    /// Stable lowercase name (CLI flags, report tags, JSON sections).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::Analytic => "analytic",
        }
    }

    /// Parse a CLI/env selector.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "exact" | "timing" | "ddr" => Some(BackendKind::Exact),
            "analytic" | "fast" => Some(BackendKind::Analytic),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_names_round_trip() {
        for k in [BackendKind::Exact, BackendKind::Analytic] {
            assert_eq!(BackendKind::by_name(k.name()), Some(k));
        }
        assert_eq!(BackendKind::default(), BackendKind::Exact);
        assert!(BackendKind::by_name("dramsim").is_none());
    }
}
