//! An in-memory span ledger: the benchmark opens a span around each call
//! into a layer, keeps every span in memory, and folds them into per-name
//! totals (calls, inclusive time, self time) when the run ends.
//!
//! A span's self time is its duration minus the part its child spans
//! cover. Spans nest strictly (a stack), so children never overlap.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span, returned by [`Ledger::begin`].
#[derive(Debug)]
#[must_use = "a span must be closed with Ledger::end"]
pub struct Open(usize);

/// Per-name totals of the closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub incl_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// Spans of one traced run, kept in memory.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Ledger {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the caller).
    pub fn end(&mut self, span: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Durations of the spans named `child` grouped by their parent span,
    /// for parents named `parent` (in order).
    pub fn durations_by_parent(&self, parent: &str, child: &str) -> Vec<Vec<f64>> {
        let mut groups: BTreeMap<usize, Vec<f64>> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, Vec::new()))
            .collect();
        for s in &self.spans {
            if s.name != child {
                continue;
            }
            if let Some(g) = s.parent.and_then(|p| groups.get_mut(&p)) {
                g.push((s.end_ns - s.start_ns) as f64 * 1e-9);
            }
        }
        groups.into_values().collect()
    }

    /// Fold the spans into per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.incl_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            t.self_s += own.max(0) as f64 * 1e-9;
        }
        out
    }

    /// Seconds covered by top-level spans (the sum of all self times).
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut l = Ledger::new();
        let outer = l.begin("outer");
        l.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        l.time("inner", || ());
        l.end(outer);
        let t = l.totals();
        assert_eq!(t["inner"].calls, 2);
        assert_eq!(t["outer"].calls, 1);
        assert!(t["inner"].incl_s >= 0.005);
        let outer_t = t["outer"];
        assert!((outer_t.self_s + t["inner"].incl_s - outer_t.incl_s).abs() < 1e-6);
        assert!((l.covered_s() - outer_t.incl_s).abs() < 1e-12);
        assert_eq!(l.durations_by_parent("outer", "inner")[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut l = Ledger::new();
        let a = l.begin("a");
        let _b = l.begin("b");
        l.end(a);
    }
}
