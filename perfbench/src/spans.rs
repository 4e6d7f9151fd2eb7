//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around calls into the program's public functions —
//! never inside the program — and kept in memory until the run ends, when
//! the benchmark writes them out as a Chrome trace ([`Recorder::chrome_trace`]). The program's
//! process-wide `tensorlib_obs` switch is never touched, so its own spans
//! stay off.
//!
//! A layer's self time is the total duration of its spans minus the part
//! covered by their child spans. The root span is named `other`: its self
//! time is the residual no layer span covers, so the self times of all
//! layers sum to the root's duration — the traced wall — exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`hw.generate`, `sim.functional`, ... or `other`).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Counts as one call into the layer (`false` for bookkeeping spans such
    /// as freeing a generated design, which is charged to `hw.generate`).
    pub is_call: bool,
    /// A reference pass re-run outside its parent to estimate a share the
    /// parent's public interface does not expose (see [`Recorder::reference`]).
    pub reference: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time in seconds.
    pub self_s: f64,
    /// Calls into the layer.
    pub calls: u64,
}

/// Records spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        is_call: bool,
        reference: bool,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (usize, T) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            is_call,
            reference,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        (id, out)
    }

    /// Times `f` as one call into layer `name`, nested under the innermost
    /// open span. Returns the span's index with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (usize, T) {
        let parent = self.stack.last().copied();
        self.record(name, parent, true, false, f)
    }

    /// [`Recorder::span`] for a leaf call, dropping the index.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f()).1
    }

    /// Times `f` as work of layer `name` that is not a call into it.
    pub fn charge<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.stack.last().copied();
        self.record(name, parent, false, false, |_| f()).1
    }

    /// Times a reference pass: `f` re-runs, outside `parent`, work that
    /// `parent` did internally, and its time is charged to layer `name`
    /// instead of to `parent`. `parent`'s self time then becomes an estimate
    /// (its duration minus its reference passes). Call this with no span
    /// open, after the root span has closed, so the root's duration — the
    /// traced wall — does not include the re-run.
    pub fn reference<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        assert!(
            self.stack.is_empty(),
            "reference passes run outside the root span"
        );
        self.record(name, Some(parent), true, true, |_| f()).1
    }

    /// How much each span's reference passes are scaled by: 1, unless they
    /// add up to more than the span itself. They re-run its work at another
    /// moment, and the shared host's speed drifts between the two, so they
    /// are then shrunk to fit — the parent's estimated self time becomes 0
    /// instead of negative, and self times still sum to the traced wall.
    pub fn reference_scales(&self) -> Vec<f64> {
        let mut ref_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.reference) {
            if let Some(p) = s.parent {
                ref_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&ref_ns)
            .map(|(s, &r)| {
                if r > s.dur_ns() {
                    s.dur_ns() as f64 / r as f64
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Self time and call count per layer. The residual of root spans is
    /// reported under their own name (`other`).
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let scales = self.reference_scales();
        let dur = |s: &Span| match (s.reference, s.parent) {
            (true, Some(p)) => s.dur_ns() as f64 * scales[p],
            _ => s.dur_ns() as f64,
        };
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_s += (dur(s) - child) * 1e-9;
            if s.is_call {
                t.calls += 1;
            }
        }
        out
    }

    /// Total duration of root spans: the traced wall.
    pub fn root_wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto) JSON
    /// document: one complete (`"ph":"X"`) event per span, with its parent
    /// index and whether it is a reference pass in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"call\":{},\"reference\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.is_call,
                s.reference,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root_wall() {
        let mut rec = Recorder::new();
        rec.span("other", |rec| {
            spin(200_000);
            rec.span("a", |rec| {
                spin(300_000);
                rec.call("b", || spin(400_000));
            });
            rec.charge("b", || spin(100_000));
        });
        let totals = rec.layer_totals();
        let sum: f64 = totals.values().map(|t| t.self_s).sum();
        assert!(
            (sum - rec.root_wall_s()).abs() < 1e-9,
            "{sum} vs {}",
            rec.root_wall_s()
        );
        assert_eq!(totals["b"].calls, 1, "charged work is not a call");
        // Lower bounds only: a preempted spin lasts longer, never shorter.
        // Counting b's time in a as well would break the sum above.
        assert!(totals["b"].self_s >= 500e-6);
        assert!(totals["a"].self_s >= 300e-6);
        assert!(totals["other"].self_s >= 200e-6);
    }

    #[test]
    fn reference_passes_move_time_from_their_parent() {
        let mut rec = Recorder::new();
        let (_, campaign) = rec.span("other", |rec| rec.span("runner", |_| spin(5_000_000)).0);
        rec.reference(campaign, "engine", || spin(300_000));
        let totals = rec.layer_totals();
        let sum: f64 = totals.values().map(|t| t.self_s).sum();
        assert!((sum - rec.root_wall_s()).abs() < 1e-9);
        // The engine's time, scaled or not, is taken out of the runner's.
        assert!(totals["engine"].self_s >= 300e-6);
        assert!(totals["runner"].self_s <= rec.root_wall_s() - totals["engine"].self_s + 1e-9);
        assert!(rec.chrome_trace().contains("\"reference\":true"));
    }

    #[test]
    fn reference_passes_longer_than_their_parent_are_scaled_to_fit() {
        let mut rec = Recorder::new();
        // The runner does nothing, so the reference passes outlast it even
        // when a spin is preempted.
        let (_, campaign) = rec.span("other", |rec| rec.span("runner", |_| ()).0);
        rec.reference(campaign, "engine", || spin(2_000_000));
        rec.reference(campaign, "compile", || spin(200_000));
        let scale = rec.reference_scales()[campaign];
        assert!(scale < 1.0);
        let totals = rec.layer_totals();
        let sum: f64 = totals.values().map(|t| t.self_s).sum();
        assert!((sum - rec.root_wall_s()).abs() < 1e-9);
        assert!(
            totals["runner"].self_s.abs() < 1e-9,
            "{}",
            totals["runner"].self_s
        );
        assert!(totals["engine"].self_s > totals["compile"].self_s);
    }
}
