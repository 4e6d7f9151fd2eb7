//! A collected recording session and its export formats.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::manifest::Provenance;
use crate::metrics::MetricsSnapshot;

/// One completed span, flushed off a thread's stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FinishedSpan {
    /// Static span name, e.g. `dse.stt_enumeration`.
    pub name: String,
    /// Semicolon-joined path from the stack root, e.g. `explore;explore.point`.
    pub path: String,
    /// Stable thread label (`main`, `w00`, `w01`, …).
    pub thread: String,
    /// Worker-pool generation within the recording (0 on the recording's
    /// own thread); distinguishes successive pools reusing the same labels.
    pub generation: u64,
    /// Per-thread open order — part of the deterministic sort key.
    pub seq: u64,
    /// Stack depth when opened (0 = root).
    pub depth: u32,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Everything one recording window captured: sorted spans plus the merged
/// metrics snapshot. Produced by [`crate::Recording::finish`] and
/// [`crate::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Session {
    /// Completed spans, sorted by `(thread, generation, seq)` — a key with
    /// no timestamps in it, so emission order is reproducible.
    pub spans: Vec<FinishedSpan>,
    /// Merged counters/gauges/histograms.
    pub metrics: MetricsSnapshot,
}

impl Session {
    /// Restores the deterministic emission order.
    pub(crate) fn sort(&mut self) {
        self.spans
            .sort_by(|a, b| (&a.thread, a.generation, a.seq).cmp(&(&b.thread, b.generation, b.seq)));
    }

    /// Zeroes every `start_us`/`dur_us` so two traces of the *same work*
    /// compare byte-for-byte.
    pub fn scrub_timestamps(&mut self) {
        for s in &mut self.spans {
            s.start_us = 0;
            s.dur_us = 0;
        }
    }

    /// Aggregates spans by name: `name -> (count, total_dur_us)`.
    ///
    /// Totals are inclusive wall time (a parent's total contains its
    /// children), which is what a per-phase breakdown table wants.
    pub fn phase_totals(&self) -> BTreeMap<String, (u64, u64)> {
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = totals.entry(s.name.clone()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
        totals
    }

    /// Exports the session as Chrome Trace Event JSON, loadable in
    /// `chrome://tracing` and Perfetto.
    ///
    /// The envelope is an object with a `traceEvents` array (both viewers
    /// tolerate extra top-level keys, which is where the `schema_version`
    /// and optional provenance manifest ride along). Threads are numbered
    /// by sorted label, and events are emitted in the deterministic session
    /// order, so output is byte-stable modulo the `ts`/`dur` values.
    pub fn to_chrome_trace(&self, provenance: Option<&Provenance>) -> String {
        let tids = self.thread_ids();
        let mut out = String::with_capacity(4096 + self.spans.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n",
            crate::manifest::SCHEMA_VERSION
        ));
        if let Some(p) = provenance {
            let body = serde_json::to_string(p).expect("provenance serialization");
            out.push_str(&format!("  \"provenance\": {body},\n"));
        }
        out.push_str("  \"displayTimeUnit\": \"ms\",\n");
        out.push_str("  \"traceEvents\": [");
        let mut first = true;
        let mut push_event = |out: &mut String, event: String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&event);
        };
        for (label, tid) in &tids {
            push_event(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":{}}}}}",
                    escape(label)
                ),
            );
        }
        for s in &self.spans {
            let tid = tids[&s.thread];
            push_event(
                &mut out,
                format!(
                    "{{\"name\":{},\"cat\":\"tensorlib\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"path\":{},\"gen\":{},\"seq\":{},\
                     \"depth\":{}}}}}",
                    escape(&s.name),
                    s.start_us,
                    s.dur_us,
                    escape(&s.path),
                    s.generation,
                    s.seq,
                    s.depth
                ),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Self time per distinct span path, sorted by path: the path's
    /// inclusive time minus the inclusive time of its direct children
    /// (`a;b` is a direct child of `a`). A path's last segment is its span
    /// name, so summing by that segment gives per-phase self time.
    pub fn self_times(&self) -> BTreeMap<&str, u64> {
        let mut inclusive: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            *inclusive.entry(s.path.as_str()).or_insert(0) += s.dur_us;
        }
        let mut self_us = inclusive.clone();
        for (path, total) in &inclusive {
            if let Some(parent) = path.rsplit_once(';').and_then(|(p, _)| self_us.get_mut(p)) {
                *parent = parent.saturating_sub(*total);
            }
        }
        self_us
    }

    /// Exports folded flamegraph stacks: one `path weight` line per distinct
    /// span path, weighted by [self time](Session::self_times), sorted by
    /// path. Feed to `inferno`/`flamegraph.pl`.
    pub fn to_folded(&self) -> String {
        self.self_times()
            .into_iter()
            .map(|(path, self_us)| format!("{path} {self_us}\n"))
            .collect()
    }

    /// Deterministic thread numbering: sorted label → tid starting at 1.
    fn thread_ids(&self) -> BTreeMap<String, usize> {
        let labels: std::collections::BTreeSet<&str> =
            self.spans.iter().map(|s| s.thread.as_str()).collect();
        labels
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k.to_string(), i + 1))
            .collect()
    }
}

/// JSON string escape (quotes included).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{self, Value};

    fn sample_session() -> Session {
        let mk = |name: &str, path: &str, thread: &str, seq, depth, start, dur| FinishedSpan {
            name: name.to_string(),
            path: path.to_string(),
            thread: thread.to_string(),
            generation: 1,
            seq,
            depth,
            start_us: start,
            dur_us: dur,
        };
        let mut s = Session {
            spans: vec![
                mk("explore", "explore", "main", 0, 0, 0, 100),
                mk("explore.point", "explore;explore.point", "w00", 0, 0, 10, 40),
                mk("explore.point", "explore;explore.point", "w01", 0, 0, 12, 45),
            ],
            metrics: MetricsSnapshot::default(),
        };
        s.sort();
        s
    }

    /// The emitted Chrome trace must parse as JSON and carry a traceEvents
    /// array whose events all have the required fields.
    #[test]
    fn chrome_trace_is_well_formed_and_round_trips() {
        let session = sample_session();
        let trace = session.to_chrome_trace(None);
        let doc = value::parse(&trace).expect("trace must be valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(Value::as_u64),
            Some(u64::from(crate::manifest::SCHEMA_VERSION))
        );
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 3 thread_name metadata events (main, w00, w01) + 3 X events.
        assert_eq!(events.len(), 6);
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            assert!(ph == "M" || ph == "X");
            assert!(ev.get("pid").is_some());
            assert!(ev.get("tid").is_some());
            if ph == "X" {
                assert!(ev.get("ts").is_some());
                assert!(ev.get("dur").is_some());
                assert!(ev.get("name").is_some());
            }
        }
        // Round-trip: the parsed event data reconstructs the span set.
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), session.spans.len());
        for (ev, span) in xs.iter().zip(&session.spans) {
            assert_eq!(
                ev.get("name").and_then(Value::as_str),
                Some(span.name.as_str())
            );
            assert_eq!(ev.get("ts").and_then(Value::as_u64), Some(span.start_us));
            assert_eq!(ev.get("dur").and_then(Value::as_u64), Some(span.dur_us));
            let args = ev.get("args").unwrap();
            assert_eq!(
                args.get("path").and_then(Value::as_str),
                Some(span.path.as_str())
            );
        }
    }

    #[test]
    fn trace_is_byte_stable_after_timestamp_scrub() {
        let mut a = sample_session();
        let mut b = sample_session();
        // Perturb only timestamps, as a second run of the same work would.
        for s in &mut b.spans {
            s.start_us += 17;
            s.dur_us += 3;
        }
        a.scrub_timestamps();
        b.scrub_timestamps();
        assert_eq!(a.to_chrome_trace(None), b.to_chrome_trace(None));
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let session = sample_session();
        let folded = session.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        // explore inclusive 100, children 40+45 → self 15.
        assert_eq!(
            lines,
            vec!["explore 15", "explore;explore.point 85"]
        );
    }

    #[test]
    fn phase_totals_aggregate_by_name() {
        let totals = sample_session().phase_totals();
        assert_eq!(totals["explore"], (1, 100));
        assert_eq!(totals["explore.point"], (2, 85));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("tab\there"), "\"tab\\there\"");
    }
}
