//! Vendored data-parallelism subset of rayon built on `std::thread::scope`.
//!
//! Supports the `into_par_iter().map(..).collect()` shape the figure
//! drivers and the per-channel phase engine use. Work is distributed with
//! an atomic work-stealing index so heterogeneous jobs (e.g. GEMM sweeps
//! mixing small and huge matrices) balance across cores; result order
//! matches input order, as with rayon.
//!
//! There is no persistent pool: each parallel call spawns `threads − 1`
//! scoped OS threads and runs the same claim loop on the calling thread,
//! so a 2-way call costs one spawn: ~50–75 µs on a 2-vCPU x86-64 VM,
//! against ~130–150 µs when every share got its own thread and the worker
//! count was re-read per call. A panic in any item, inline or spawned,
//! propagates to the caller with its original payload.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParMap};
}

pub trait IntoParallelIterator: Sized {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send, const N: usize> IntoParallelIterator for [T; N] {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self.into() }
    }
}

pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }
}

pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run_map(self.items, &self.f).into_iter().collect()
    }
}

/// Worker count, read once per process as real rayon sizes its pool once:
/// `available_parallelism` re-reads the affinity mask and cgroup quota on
/// every call (~20–30 µs on a Linux VM).
fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

fn run_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i].lock().unwrap().take().expect("item claimed once");
        *results[i].lock().unwrap() = Some(f(item));
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        claim();
        for h in helpers {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    results.into_iter().map(|m| m.into_inner().unwrap().expect("result set")).collect()
}

/// A scope for spawning structured tasks — the `rayon::scope` subset the
/// serving-load sweeps use. Built directly on [`std::thread::scope`]: every
/// `spawn` is a fresh OS thread joined before `scope` returns, so borrows
/// of stack data from the enclosing frame are sound exactly as in rayon.
/// The scope body itself runs on the calling thread, so a caller that
/// wants `k`-way parallelism spawns `k − 1` tasks and does one share of
/// the work inline, as [`ParMap::collect`] does, instead of paying for a
/// `k`-th spawn while it waits.
///
/// API-compatibility note: real rayon's `Scope` has a single `'scope`
/// lifetime; the std-backed shim needs the underlying `'env` as well. Code
/// written against this shim (closure-typed `|s|` / `|_|` spawns) compiles
/// unchanged against real rayon, keeping the manifest swap trivial.
pub struct Scope<'scope, 'env: 'scope> {
    s: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task into the scope. The task may itself spawn more tasks.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let s = self.s;
        s.spawn(move || f(&Scope { s }));
    }
}

/// Create a scope in which structured tasks can be spawned; returns once
/// every spawned task (including nested spawns) has completed. Panics in
/// spawned tasks propagate, as with rayon.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { s }))
}

/// Run two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("join closure panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn range_par_iter() {
        let out: Vec<usize> = (0..16usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out.len(), 16);
        assert_eq!(out[15], 16);
    }

    /// Panic payload of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("call must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    #[test]
    fn panic_propagates_from_the_caller_share_and_from_a_spawned_share() {
        // One item per worker, and each waits until every worker holds its
        // item, so with two workers the caller runs exactly one item and
        // the spawned thread the other. Either panic must reach the caller
        // with its own payload, not a generic "thread panicked".
        let caller = std::thread::current().id();
        let workers = super::current_num_threads().min(2);
        for on_caller in [true, false] {
            if !on_caller && workers < 2 {
                continue; // one CPU: every item runs on the caller
            }
            let barrier = std::sync::Barrier::new(workers);
            let msg = panic_message(|| {
                let _: Vec<()> = (0..workers)
                    .into_par_iter()
                    .map(|i| {
                        barrier.wait();
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("item {i} failed on caller={on_caller}");
                        }
                    })
                    .collect();
            });
            assert!(msg.ends_with(&format!("failed on caller={on_caller}")), "{msg}");
        }
    }

    #[test]
    fn nested_par_iter_inside_map_preserves_order() {
        let out: Vec<Vec<usize>> = (0..6usize)
            .into_par_iter()
            .map(|i| (0..i + 3).into_par_iter().map(|j| i * 100 + j).collect())
            .collect();
        let want: Vec<Vec<usize>> =
            (0..6).map(|i| (0..i + 3).map(|j| i * 100 + j).collect()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn single_item_and_empty_inputs_run_inline() {
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> =
            vec![()].into_par_iter().map(|()| std::thread::current().id()).collect();
        assert_eq!(ids, vec![caller]);
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn scope_joins_all_spawns() {
        use std::sync::Mutex;
        let out: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        super::scope(|s| {
            for i in 0..8 {
                s.spawn({
                    let out = &out;
                    move |_| out.lock().unwrap().push(i)
                });
            }
        });
        let mut v = out.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scope_supports_nested_spawns_and_returns_value() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = AtomicUsize::new(0);
        let r = super::scope(|s| {
            s.spawn(|inner| {
                n.fetch_add(1, Ordering::Relaxed);
                inner.spawn(|_| {
                    n.fetch_add(10, Ordering::Relaxed);
                });
            });
            42
        });
        assert_eq!(r, 42);
        assert_eq!(n.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn join_runs_a_on_the_caller_and_propagates_b_panics() {
        let caller = std::thread::current().id();
        let (a, b) = super::join(|| std::thread::current().id(), || 7);
        assert_eq!((a, b), (caller, 7));
        let r = std::panic::catch_unwind(|| super::join(|| 1, || -> u32 { panic!("b failed") }));
        assert!(r.is_err());
    }

    #[test]
    fn scope_body_runs_on_the_caller_and_spawn_panics_propagate() {
        let caller = std::thread::current().id();
        assert_eq!(super::scope(|_| std::thread::current().id()), caller);
        let r = std::panic::catch_unwind(|| {
            super::scope(|s| s.spawn(|_| panic!("task failed")));
        });
        assert!(r.is_err());
    }

    #[test]
    fn scope_results_via_slot_vector() {
        // The fill-disjoint-slots pattern the serving sweep uses.
        use std::sync::Mutex;
        let slots: Vec<Mutex<Option<u64>>> = (0..5).map(|_| Mutex::new(None)).collect();
        super::scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                s.spawn(move |_| *slot.lock().unwrap() = Some(i as u64 * i as u64));
            }
        });
        let v: Vec<u64> = slots.into_iter().map(|m| m.into_inner().unwrap().unwrap()).collect();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }
}
