//! Framework observability (`tensorlib-obs`) end-to-end:
//!
//! - recording spans/metrics must never change what the pipeline computes —
//!   an [`explore`] sweep returns byte-identical results with tracing on or
//!   off, at any worker count;
//! - two identical profiled runs produce byte-identical Chrome traces once
//!   timestamps are scrubbed (stable thread labels, deterministic
//!   round-robin scheduling, sorted emission);
//! - the exported trace is well-formed Chrome Trace Event JSON covering the
//!   pipeline phases, and it round-trips through the crate's own parser.
//!
//! Each test records on its own thread with a scoped
//! [`tensorlib_obs::Recording`], which sees only that thread's spans and
//! those of the worker pools it starts, so the tests run in parallel.

use tensorlib::explore::{explore_outcome, ExploreOptions};
use tensorlib::ir::workloads;
use tensorlib_obs::Recording;
use serde::value::{self, Value};

fn opts(workers: usize) -> ExploreOptions {
    ExploreOptions {
        // A small array keeps the per-point functional simulation cheap —
        // these tests run seven full sweeps.
        hw: tensorlib::HwConfig {
            array: tensorlib::ArrayConfig { rows: 4, cols: 4 },
            ..tensorlib::HwConfig::default()
        },
        workers,
        functional_verify: true,
        ..ExploreOptions::default()
    }
}

/// Serializes a sweep's observable result (every scored field) to JSON so
/// "identical results" is a byte comparison, not a field sample.
fn outcome_json(kernel: &tensorlib::Kernel, options: &ExploreOptions) -> String {
    serde_json::to_string(&explore_outcome(kernel, options)).expect("serialize outcome")
}

#[test]
fn explore_results_identical_with_tracing_on_and_off() {
    let kernel = workloads::gemm(4, 4, 4);
    for workers in [1, 4] {
        let plain = outcome_json(&kernel, &opts(workers));

        let recording = Recording::start();
        let profiled = outcome_json(&kernel, &opts(workers));
        let session = recording.finish();

        assert_eq!(
            plain, profiled,
            "recording changed sweep results at {workers} workers"
        );
        assert!(
            !session.spans.is_empty(),
            "profiled sweep recorded no spans at {workers} workers"
        );
    }
}

#[test]
fn profiled_runs_are_byte_identical_modulo_timestamps() {
    let kernel = workloads::gemm(4, 4, 4);
    let mut traces = Vec::new();
    for _ in 0..2 {
        let recording = Recording::start();
        let outcome = explore_outcome(&kernel, &opts(3));
        let mut session = recording.finish();
        assert!(!outcome.points.is_empty());
        session.scrub_timestamps();
        traces.push((session.to_chrome_trace(None), session.to_folded()));
    }
    assert_eq!(
        traces[0].0, traces[1].0,
        "two identical profiled runs diverged in their Chrome trace"
    );
    // Folded stacks aggregate scrubbed (zero) durations — still required to
    // carry the same path set in the same order.
    assert_eq!(traces[0].1, traces[1].1);
}

#[test]
fn sweep_trace_is_well_formed_and_covers_the_pipeline() {
    let recording = Recording::start();
    let outcome = explore_outcome(&workloads::gemm(4, 4, 4), &opts(2));
    let session = recording.finish();
    assert!(!outcome.points.is_empty());

    let trace = session.to_chrome_trace(None);
    let doc = value::parse(&trace).expect("trace must parse as JSON");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(tensorlib_obs::SCHEMA_VERSION))
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| e.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(span_names.len(), session.spans.len(), "one X event per span");
    for phase in [
        "dse.stt_enumeration",
        "dse.classification",
        "hw.elaboration",
        "sim.functional",
        "sim.cost_model",
        "cost.asic",
        "explore.point",
        "par.pool",
    ] {
        assert!(
            span_names.contains(&phase),
            "trace missing pipeline phase {phase}; got {span_names:?}"
        );
    }
    // Worker threads appear under their stable labels.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .unwrap()
        })
        .collect();
    assert!(
        thread_names.contains(&"w00") && thread_names.contains(&"w01"),
        "stable worker labels missing: {thread_names:?}"
    );
}

/// `tensorlib profile` lists phases heaviest self time first, so the
/// default `--top` keeps the phase that dominates a verified sweep
/// (`sim.functional`) and says how many lighter phases it left out; a
/// parent phase's self time excludes its children.
#[test]
fn profile_table_keeps_the_dominant_phase_at_the_default_top() {
    let dir = std::env::temp_dir().join(format!("tl_it_profile_top_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("p.trace.json");
    let profile = |extra: &[&str]| {
        let mut args = vec!["profile", "gemm:8,8,8", "-o", trace.to_str().unwrap()];
        args.extend_from_slice(extra);
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        tensorlib_cli::run(tensorlib_cli::parse_args(&args).unwrap()).unwrap()
    };
    // (phase, self_us, total_us) per table row.
    let rows_of = |out: &str| -> Vec<(String, u64, u64)> {
        out.lines()
            .skip_while(|l| !l.starts_with("phase "))
            .skip(1)
            .take_while(|l| !l.starts_with("counter ") && !l.starts_with('…'))
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                (
                    cols[0].to_string(),
                    cols[2].parse().unwrap(),
                    cols[3].parse().unwrap(),
                )
            })
            .collect()
    };
    let out = profile(&[]);
    let rows = rows_of(&out);
    assert!(
        rows.iter().any(|(name, _, _)| name == "sim.functional"),
        "no sim.functional row:\n{out}"
    );
    assert!(
        rows.windows(2).all(|w| w[0].1 >= w[1].1),
        "phases not sorted by self time:\n{out}"
    );
    assert_eq!(rows.len(), 10, "default --top is 10:\n{out}");
    assert!(out.contains("… and "), "truncation not reported:\n{out}");

    let out = profile(&["--top", "100"]);
    let rows = rows_of(&out);
    let explore = rows.iter().find(|(name, _, _)| name == "explore");
    assert!(
        explore.is_some_and(|(_, self_us, total_us)| self_us < total_us),
        "explore's self time is not below its total:\n{out}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
