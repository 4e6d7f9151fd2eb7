//! The recording core: scoped [`Recording`]s on a per-thread recorder
//! stack, RAII span guards, and metric shards.
//!
//! Hot-path contract: every hook reads one `const`-initialized thread-local
//! flag *before* touching the recorder stack, the clock, or the allocator.
//! On a thread that is not recording each call is a branch and a return.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::now_micros;
use crate::metrics::{LocalMetrics, MetricsSnapshot};
use crate::session::{FinishedSpan, Session};

/// What one recording has collected, shared by the thread that started it
/// and every worker attached to it.
#[derive(Default)]
struct Collected {
    spans: Vec<FinishedSpan>,
    metrics: MetricsSnapshot,
    /// Worker pools started so far; the last pool's generation.
    pools: u64,
}

type Sink = Arc<Mutex<Collected>>;

/// Recovers a poisoned lock: every update leaves the telemetry whole, and
/// the recording's `Drop` must not panic.
fn lock(sink: &Sink) -> MutexGuard<'_, Collected> {
    sink.lock().unwrap_or_else(|p| p.into_inner())
}

/// A span still on some thread's stack.
struct OpenSpan {
    name: &'static str,
    /// Semicolon-joined path from the stack root, e.g. `explore;explore.point`.
    path: String,
    start_us: u64,
    seq: u64,
    /// Index in the stack when opened (0 = root).
    depth: u32,
}

/// One thread's buffer for one recording, flushed into its [`Sink`] when
/// uninstalled.
struct ThreadRec {
    sink: Sink,
    /// Chrome Trace thread name: the thread's name (`main` when unnamed),
    /// or `w00`, `w01`, … by pool slot for an attached worker.
    label: String,
    /// Pool generation of an attached worker (0 on the starting thread);
    /// distinguishes successive pools that reuse the same labels.
    generation: u64,
    next_seq: u64,
    stack: Vec<OpenSpan>,
    done: Vec<FinishedSpan>,
    metrics: LocalMetrics,
}

impl ThreadRec {
    fn flush(&mut self) {
        let mut collected = lock(&self.sink);
        collected.spans.append(&mut self.done);
        collected.metrics.absorb(&std::mem::take(&mut self.metrics));
    }
}

thread_local! {
    /// Whether this thread has a recorder installed; every hook reads this
    /// first, so a thread that is not recording touches nothing else.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// This thread's installed recorders, innermost (current) last.
    static STACK: RefCell<Vec<ThreadRec>> = const { RefCell::new(Vec::new()) };
}

/// Installs a recorder delivering to `sink` as the thread's current one.
fn install(sink: Sink, label: String, generation: u64) -> Recording {
    let level = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(ThreadRec {
            sink,
            label,
            generation,
            next_seq: 0,
            stack: Vec::new(),
            done: Vec::new(),
            metrics: LocalMetrics::default(),
        });
        stack.len()
    });
    RECORDING.set(true);
    Recording {
        level,
        _thread: PhantomData,
    }
}

/// Removes the recorder installed at stack `level` (and any left above it),
/// reinstating the one below. `None` when it is already gone.
fn uninstall(level: usize) -> Option<ThreadRec> {
    STACK
        .try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.len() < level {
                return None;
            }
            stack.truncate(level);
            let rec = stack.pop();
            RECORDING.set(!stack.is_empty());
            rec
        })
        .ok()
        .flatten()
}

/// Runs `f` on the calling thread's current recorder, if any.
fn with_current<R>(f: impl FnOnce(&mut ThreadRec) -> R) -> Option<R> {
    STACK.with(|stack| stack.borrow_mut().last_mut().map(f))
}

/// Whether the calling thread is recording — one thread-local read.
#[inline]
pub fn is_recording() -> bool {
    RECORDING.get()
}

/// A scoped recording, installed as the calling thread's current recorder.
///
/// [`Recording::start`] installs a fresh collector; [`Recording::finish`]
/// uninstalls it and returns what it captured. Either way whatever was
/// installed before comes back, so a nested recording shadows the outer one
/// until it ends. Dropping a started recording unfinished discards its data
/// (an early `?` return needs no cleanup). Other threads record into it
/// only while [attached](Recorder::attach), and the same drop is what
/// delivers an attached worker's spans and metrics.
#[must_use = "a recording captures until it is finished or dropped"]
pub struct Recording {
    level: usize,
    /// Tied to the thread whose recorder stack it sits on.
    _thread: PhantomData<*const ()>,
}

impl Recording {
    /// Starts recording on the calling thread, labelled by the thread's name
    /// (`main` when unnamed). Sequence numbers and pool generations count
    /// from zero, so two recordings of the same work get equal values.
    pub fn start() -> Recording {
        let thread = std::thread::current();
        let label = thread.name().filter(|n| !n.is_empty()).unwrap_or("main");
        install(Sink::default(), label.to_string(), 0)
    }

    /// Ends the recording this thread started and returns what it captured,
    /// in the deterministic [`Session`] order. Spans still open are dropped.
    pub fn finish(self) -> Session {
        let Some(mut rec) = uninstall(self.level) else {
            return Session::default();
        };
        rec.flush();
        let collected = std::mem::take(&mut *lock(&rec.sink));
        let mut session = Session {
            spans: collected.spans,
            metrics: collected.metrics,
        };
        session.sort();
        session
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        if let Some(mut rec) = uninstall(self.level) {
            rec.flush();
        }
    }
}

/// A handle on a thread's current recording that worker threads attach to.
#[derive(Clone)]
pub struct Recorder {
    sink: Sink,
}

impl Recorder {
    /// The calling thread's current recorder; `None` when not recording.
    pub fn current() -> Option<Recorder> {
        with_current(|rec| Recorder {
            sink: rec.sink.clone(),
        })
    }

    /// Numbers the next worker pool of this recording: 1, 2, … in start order.
    pub fn next_generation(&self) -> u64 {
        let mut collected = lock(&self.sink);
        collected.pools += 1;
        collected.pools
    }

    /// Makes this recorder the calling thread's current one, labelling its
    /// spans `label` (a pool slot like `w00`, never an OS thread id) and
    /// `generation`. Dropping the returned guard flushes the thread's spans
    /// and metrics into the recording, so a scoped worker holds it until its
    /// closure returns.
    pub fn attach(&self, label: String, generation: u64) -> Recording {
        install(self.sink.clone(), label, generation)
    }
}

/// Copies what the calling thread's current recording holds so far — its
/// own finished spans plus everything attached workers have flushed —
/// without ending it. `None` when the thread is not recording.
pub fn snapshot() -> Option<Session> {
    with_current(|rec| {
        let collected = lock(&rec.sink);
        let mut session = Session {
            spans: collected.spans.iter().chain(&rec.done).cloned().collect(),
            metrics: collected.metrics.clone(),
        };
        session.metrics.absorb(&rec.metrics);
        session.sort();
        session
    })
}

/// RAII guard for one span: opened by [`span`], closed (and recorded) when
/// dropped. Nothing is recorded if the thread was not recording when the
/// span opened.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    /// Stack level of the recorder the span opened on; 0 when inert.
    level: usize,
}

/// Opens a hierarchical span named `name` on this thread's stack.
///
/// The returned guard records the span on drop. On a thread that is not
/// recording this is one thread-local read and an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_recording() {
        return SpanGuard { level: 0 };
    }
    let start_us = now_micros();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let level = stack.len();
        let Some(rec) = stack.last_mut() else {
            return SpanGuard { level: 0 };
        };
        let path = match rec.stack.last() {
            Some(parent) => format!("{};{}", parent.path, name),
            None => name.to_string(),
        };
        rec.stack.push(OpenSpan {
            name,
            path,
            start_us,
            seq: rec.next_seq,
            depth: rec.stack.len() as u32,
        });
        rec.next_seq += 1;
        SpanGuard { level }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.level == 0 {
            return;
        }
        let end_us = now_micros();
        // try_with: survive TLS teardown if a guard outlives the buffer.
        let _ = STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            // A span closes into the recorder it opened on, never into one
            // installed after it or into the one restored once it ended.
            if stack.len() != self.level {
                return;
            }
            let Some(rec) = stack.last_mut() else { return };
            let Some(open) = rec.stack.pop() else { return };
            rec.done.push(FinishedSpan {
                name: open.name.to_string(),
                path: open.path,
                thread: rec.label.clone(),
                generation: rec.generation,
                seq: open.seq,
                depth: open.depth,
                start_us: open.start_us,
                dur_us: end_us.saturating_sub(open.start_us),
            });
        });
    }
}

/// Adds `delta` to the counter `name` (thread-local; merged by sum).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_recording() {
        return;
    }
    with_current(|rec| *rec.metrics.counters.entry(name).or_insert(0) += delta);
}

/// Raises the high-watermark gauge `name` to at least `value` (merged by max).
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !is_recording() {
        return;
    }
    with_current(|rec| {
        let e = rec.metrics.gauges.entry(name).or_insert(0);
        *e = (*e).max(value);
    });
}

/// Records `value` into the log2-bucketed histogram `name`.
#[inline]
pub fn hist_record(name: &'static str, value: u64) {
    if !is_recording() {
        return;
    }
    with_current(|rec| {
        rec.metrics
            .hists
            .entry(name)
            .or_insert_with(crate::metrics::Histogram::new)
            .record(value);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_outside_a_recording_capture_nothing() {
        let recording = Recording::start();
        // A fresh thread inherits nothing: it is not recording.
        std::thread::spawn(|| {
            assert!(!is_recording());
            {
                let _s = span("ignored");
                counter_add("ignored", 1);
                hist_record("ignored", 7);
                gauge_max("ignored", 9);
            }
            assert!(snapshot().is_none());
        })
        .join()
        .unwrap();
        let session = recording.finish();
        assert!(session.spans.is_empty());
        assert!(session.metrics.counters.is_empty());
        assert!(session.metrics.histograms.is_empty());
        assert!(session.metrics.gauges.is_empty());
        assert!(!is_recording());
    }

    #[test]
    fn nested_spans_record_paths_and_depths() {
        let recording = Recording::start();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            let _c = span("sibling");
        }
        let session = recording.finish();
        assert_eq!(session.spans.len(), 3);
        let by_name = |n: &str| session.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("outer").path, "outer");
        assert_eq!(by_name("outer").depth, 0);
        assert_eq!(by_name("inner").path, "outer;inner");
        assert_eq!(by_name("inner").depth, 1);
        assert_eq!(by_name("sibling").path, "outer;sibling");
        assert_eq!(
            session.spans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            [0, 1, 2],
            "sequence numbers count from zero in every recording"
        );
        // Ends are ordered: inner closed before outer.
        let outer = by_name("outer");
        let inner = by_name("inner");
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
    }

    #[test]
    fn attached_workers_flush_before_their_closure_returns() {
        let recording = Recording::start();
        let recorder = Recorder::current().unwrap();
        let generation = recorder.next_generation();
        assert_eq!(generation, 1, "pool generations count per recording");
        std::thread::scope(|scope| {
            for slot in 0..2u64 {
                let recorder = &recorder;
                scope.spawn(move || {
                    let _attached = recorder.attach(format!("w{slot:02}"), generation);
                    let _s = span("work");
                    counter_add("jobs", 1);
                });
            }
        });
        let session = recording.finish();
        assert_eq!(session.spans.len(), 2);
        let mut threads: Vec<&str> = session.spans.iter().map(|s| s.thread.as_str()).collect();
        threads.sort_unstable();
        assert_eq!(threads, ["w00", "w01"]);
        assert!(session.spans.iter().all(|s| s.generation == 1));
        assert_eq!(session.metrics.counters["jobs"], 2);
    }

    #[test]
    fn nested_recording_shadows_and_restores_the_outer_one() {
        let outer = Recording::start();
        let before = span("outer.before");
        counter_add("outer", 1);
        {
            let inner = Recording::start();
            {
                let _b = span("inner");
                counter_add("inner", 1);
            }
            let session = inner.finish();
            assert_eq!(session.spans.len(), 1);
            assert_eq!(session.spans[0].name, "inner");
            assert!(!session.metrics.counters.contains_key("outer"));
        }
        {
            // Dropped unfinished: discarded, and the outer one is back.
            let _abandoned = Recording::start();
            let _c = span("abandoned");
        }
        assert!(is_recording());
        drop(before);
        let so_far = snapshot().unwrap();
        assert_eq!(so_far.spans.len(), 1, "snapshot sees this thread's spans");
        let session = outer.finish();
        let names: Vec<&str> = session.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer.before"]);
        assert_eq!(session.metrics.counters.len(), 1);
        assert_eq!(session.metrics.counters["outer"], 1);
        assert!(!is_recording());
    }

    #[test]
    fn snapshot_preserves_and_finish_returns_everything() {
        let recording = Recording::start();
        {
            let _s = span("once");
        }
        assert_eq!(snapshot().unwrap().spans.len(), 1);
        assert_eq!(snapshot().unwrap().spans.len(), 1, "snapshot clears nothing");
        assert_eq!(recording.finish().spans.len(), 1);
        assert!(snapshot().is_none());
    }
}
