//! Every type a reader decodes — journaled chunk results, `status.json`,
//! `history.jsonl` lines — round-trips through its derived codec:
//! `to_string(from_str(to_string(x))) == to_string(x)`, over real campaign
//! output that exercises every enum variant and every optional field both
//! set and null.

use std::collections::BTreeSet;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use tensorlib::explore::{explore_durable, explore_outcome, ExploreOptions, PointError};
use tensorlib::ir::workloads;
use tensorlib_hw::design::{generate, HwConfig};
use tensorlib_hw::fault::{FaultKind, Hardening};
use tensorlib_hw::fuzz::{gen_netlist, NetlistFuzzConfig};
use tensorlib_obs::events::StatusSnapshot;
use tensorlib_obs::history::{HistoryEntry, HistoryTiming};
use tensorlib_sim::functional::simulate_budgeted;
use tensorlib_sim::resilience::{
    run_gemm_campaign, run_gemm_campaign_durable, CampaignConfig, FaultOutcome,
};
use tensorlib_sim::verify::{run_verify_durable, sample_pipeline, Finding, ModeReport};
use tensorlib_sim::{DurabilityOptions, VerifyConfig};

/// Asserts the derived codec round-trip on `x` and returns its encoding.
fn round_trip<T: Serialize + Deserialize>(x: &T) -> String {
    let text = serde_json::to_string(x).unwrap();
    let back: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
    text
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tl_it_roundtrip_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn fault_campaign_outcomes_round_trip() {
    let cfg = CampaignConfig {
        faults: 24,
        seed: 3,
        ..CampaignConfig::default()
    };
    let plain = run_gemm_campaign(&cfg).unwrap();
    let hardened = run_gemm_campaign(&CampaignConfig {
        hardening: Hardening::full(),
        ..cfg
    })
    .unwrap();
    // An expired watchdog degrades every fault; a chaos target quarantines
    // the faults on one net with the panic captured in `error`.
    let expired = DurabilityOptions {
        chunk_timeout: Some(Duration::ZERO),
        ..DurabilityOptions::default()
    };
    let (degraded, _) = run_gemm_campaign_durable(&cfg, &expired).unwrap();
    let chaos = DurabilityOptions {
        chaos_panic_targets: vec![plain.outcomes[2].fault.target.clone()],
        ..DurabilityOptions::default()
    };
    let (quarantined, _) = run_gemm_campaign_durable(&cfg, &chaos).unwrap();

    let outcomes: Vec<FaultOutcome> = [plain, hardened, degraded, quarantined]
        .into_iter()
        .flat_map(|r| r.outcomes)
        .collect();
    let kinds: BTreeSet<&str> = outcomes
        .iter()
        .map(|o| match o.fault.kind {
            FaultKind::StuckAt { .. } => "StuckAt",
            FaultKind::TransientFlip { .. } => "TransientFlip",
            FaultKind::BankFlip { .. } => "BankFlip",
            FaultKind::DropTransition { .. } => "DropTransition",
        })
        .collect();
    assert_eq!(kinds.len(), 4, "{kinds:?}");
    let classes: BTreeSet<String> = outcomes.iter().map(|o| o.class.to_string()).collect();
    assert_eq!(classes.len(), 4, "{classes:?}");
    assert!(outcomes.iter().any(|o| o.error.is_some()));
    assert!(outcomes.iter().any(|o| !o.detectors.is_empty()));

    round_trip(&outcomes);
    for o in &outcomes {
        round_trip(o);
        round_trip(&o.fault);
        round_trip(&o.fault.kind);
        round_trip(&o.class);
    }
}

#[test]
fn fuzz_chunks_and_findings_round_trip() {
    let cfg = VerifyConfig {
        seeds: 4,
        ..VerifyConfig::default()
    };
    // Quarantined seeds are findings with every optional field null.
    let chaos = DurabilityOptions {
        chaos_panic_targets: vec!["netlist:1".into(), "pipeline:2".into()],
        ..DurabilityOptions::default()
    };
    let (report, _) = run_verify_durable(&cfg, true, true, &chaos).unwrap();
    let mut modes = vec![report.netlist.unwrap(), report.pipeline.unwrap()];
    assert!(modes.iter().all(|m| m.findings.len() == 1));

    // Healthy generators produce no shrunk or pipeline findings, so add one
    // of each with every optional field set, built from the campaign's own
    // netlist generator and pipeline sampler.
    let (modules, _) = gen_netlist(1, &NetlistFuzzConfig::default());
    let netlist_finding = Finding {
        mode: "netlist".into(),
        seed: 1,
        kind: "mismatch".into(),
        detail: "out differs at cycle 3: \"0x1\" vs \"0x0\"".into(),
        shrunk_nets: Some(modules.iter().map(|m| m.nets().len()).sum()),
        modules_json: Some(serde_json::to_string(&modules).unwrap()),
        rust_snippet: Some("#[test]\nfn repro() {\n\tassert!(true);\n}\n".into()),
        pipeline: None,
    };
    let pipeline_finding = Finding {
        mode: "pipeline".into(),
        seed: 2,
        kind: "functional".into(),
        detail: "coverage gap".into(),
        shrunk_nets: None,
        modules_json: None,
        rust_snippet: None,
        pipeline: Some(sample_pipeline(2)),
    };
    modes[0].findings.push(netlist_finding);
    modes[1].findings.push(pipeline_finding);

    for mode in &modes {
        round_trip::<ModeReport>(mode);
        for f in &mode.findings {
            round_trip(f);
            if let Some(sample) = &f.pipeline {
                round_trip(sample);
            }
        }
    }
}

#[test]
fn explore_chunks_round_trip() {
    let kernel = workloads::gemm(8, 8, 8);
    let baseline = explore_outcome(&kernel, &ExploreOptions::default());
    let median = baseline.points[baseline.points.len() / 2]
        .performance
        .total_cycles;
    let budgeted = ExploreOptions {
        cycle_budget: Some(median),
        ..ExploreOptions::default()
    };
    let chaos = DurabilityOptions {
        chaos_panic_targets: vec![baseline.points[0].name.clone()],
        ..DurabilityOptions::default()
    };
    let (mut sweep, _) = explore_durable(&kernel, &budgeted, &chaos).unwrap();

    // A sound generator never fails functional verification; take a real
    // simulator rejection (a design run against the wrong kernel) instead.
    let design = generate(&baseline.points[0].dataflow, &HwConfig::default()).unwrap();
    let err = simulate_budgeted(&design, &workloads::gemm(4, 4, 4), 42, None).unwrap_err();
    sweep.errors.push(PointError::Functional {
        name: baseline.points[0].name.clone(),
        message: err.to_string(),
    });
    let variants: BTreeSet<&str> = sweep
        .errors
        .iter()
        .map(|e| match e {
            PointError::Panicked { .. } => "Panicked",
            PointError::BudgetExceeded { .. } => "BudgetExceeded",
            PointError::Functional { .. } => "Functional",
        })
        .collect();
    assert_eq!(variants.len(), 3, "{variants:?}");
    assert!(!sweep.rows.is_empty());

    round_trip(&sweep);
    for row in &sweep.rows {
        round_trip(row);
    }
    for e in &sweep.errors {
        round_trip(e);
    }
}

#[test]
fn status_and_history_round_trip() {
    let dir = tmpdir("status");
    let cfg = CampaignConfig {
        faults: 8,
        ..CampaignConfig::default()
    };
    let opts = DurabilityOptions {
        chunk_size: Some(4),
        ..DurabilityOptions::with_dir(&dir)
    };
    run_gemm_campaign_durable(&cfg, &opts).unwrap();
    let status = StatusSnapshot::read(&dir).unwrap();
    assert_eq!(status.state, "finished");
    round_trip(&status);
    round_trip(&status.timing);
    std::fs::remove_dir_all(&dir).unwrap();

    let entry = HistoryEntry {
        kind: "faults".into(),
        config_hash: status.config_hash.clone(),
        command: "faults --faults 8".into(),
        pkg_version: env!("CARGO_PKG_VERSION").into(),
        host_cores: 2,
        workers: 1,
        lanes: 1,
        metrics: status
            .outcomes
            .iter()
            .map(|(k, v)| (k.clone(), *v as f64 / 3.0))
            .collect(),
        timing: HistoryTiming {
            unix_ms: 1_700_000_000_000,
            wall_ms: 1234,
        },
    };
    round_trip(&entry);
    round_trip(&entry.timing);
}
