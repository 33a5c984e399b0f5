//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end in host
//! nanoseconds since the recorder was created, the span that was open when
//! it started, and the id of the op it belongs to. Spans stay in memory
//! and are written out once, at exit, as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`).
//!
//! A disabled recorder keeps nothing: `enter` returns a dummy id and
//! `exit` ignores it, so untraced and traced runs share one code path.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to a new op (ids count from 1).
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`] on the returned id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON of every recorded span ("X" events on one
    /// thread; the parent and op id ride along in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"op\": {}}}}}{}\n",
                crate::json::quote(s.name),
                crate::json::quote(s.layer()),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span in `range`: its duration minus the part of
/// its interval that its children cover (the union of their intervals, so
/// children that overlap are not counted twice). Parents are indices into
/// `spans`; a span's children lie in the same range as the span.
pub fn self_times(spans: &[Span], range: Range<usize>) -> Vec<u64> {
    let first = range.start;
    let own = &spans[range];
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); own.len()];
    for s in own {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    own.iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(reach, s.end_ns));
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Summed self time per layer, in host nanoseconds, over the spans in
/// `range`.
pub fn self_time_by_layer(spans: &[Span], range: Range<usize>) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans[range.clone()].iter().zip(self_times(spans, range)) {
        *by_layer.entry(s.layer()).or_insert(0) += t;
    }
    by_layer
}

/// Summed duration per span name, in host nanoseconds, over `spans`.
pub fn total_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += s.dur_ns();
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_times_are_non_negative_and_bounded_by_parent() {
        // A recorded tree: the self times of a span and all its
        // descendants add up to at most the span's own duration.
        let mut t = Tracer::new(true);
        let root = t.enter("bench.op");
        for _ in 0..3 {
            let a = t.enter("flow.build");
            std::hint::black_box((0..1000).sum::<u64>());
            t.exit(a);
            let b = t.enter("engine.kernel");
            let c = t.enter("addrmap.probe");
            t.exit(c);
            t.exit(b);
        }
        t.exit(root);
        let spans = t.spans();
        let selfs = self_times(spans, 0..spans.len());
        for (i, s) in spans.iter().enumerate() {
            assert!(selfs[i] <= s.dur_ns());
            let subtree: u64 = (0..spans.len())
                .filter(|&j| is_descendant_or_self(spans, j, i))
                .map(|j| selfs[j])
                .sum();
            assert!(
                subtree <= s.dur_ns(),
                "span {i}: {subtree} > {}",
                s.dur_ns()
            );
        }
        let by_layer = self_time_by_layer(spans, 0..spans.len());
        assert_eq!(by_layer.values().sum::<u64>(), selfs.iter().sum::<u64>());
        assert!(by_layer.values().sum::<u64>() <= spans[root].dur_ns());
    }

    fn is_descendant_or_self(spans: &[Span], mut j: usize, i: usize) -> bool {
        loop {
            if j == i {
                return true;
            }
            match spans[j].parent {
                Some(p) => j = p,
                None => return false,
            }
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("serving.sweep", 0, 100, None),
            span("serving.loop", 10, 60, Some(0)),
            span("serving.loop", 40, 90, Some(0)),
            span("serving.loop", 95, 120, Some(0)),
        ];
        // Children cover [10, 90) and [95, 100) of the parent: 85 ns.
        assert_eq!(self_times(&spans, 0..4), vec![15, 50, 50, 25]);
        // A later range holding the same tree resolves parents by index.
        let mut later = vec![span("bench.op", 0, 1, None)];
        later.extend(spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + 1),
            ..s.clone()
        }));
        assert_eq!(self_times(&later, 1..5), vec![15, 50, 50, 25]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("flow.build");
        t.exit(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.chrome_json(), "{\"traceEvents\": [\n]}\n");
    }
}
