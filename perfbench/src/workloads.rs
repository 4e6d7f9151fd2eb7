//! The four benchmark workloads.
//!
//! Each workload is built once per set-up (inputs, configs and an untimed
//! warm-up pass at reduced size) and then offers two ways to run the same
//! work:
//!
//! - [`Workload::call`]: one call into the program's public entry point
//!   (`explore_outcome`, `run_gemm_campaign`, `run_verify`), untraced.
//! - [`Workload::traced`]: a replica that re-drives the same work from the
//!   benchmark's own code, with a span around each call into a layer's
//!   public function.
//!
//! Every workload runs serially: one worker thread, no parallel map.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;

use tensorlib::cost::{asic_cost, Activity};
use tensorlib::dataflow::dse::{design_space, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::explore::{explore_outcome, ExploreOptions, PointError};
use tensorlib::hw::batch::BatchSim;
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::fault::{enumerate_sites, sample_faults, Hardening};
use tensorlib::hw::fuzz::{
    check_batch_netlist, check_netlist, check_opt_netlist, check_text_roundtrip,
    check_yosys_roundtrip, gen_netlist, NetlistFuzzConfig,
};
use tensorlib::hw::interp::{elaborate_design, Interpreter};
use tensorlib::hw::opt::OptOptions;
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::{workloads, Kernel};
use tensorlib::sim::resilience::run_gemm_campaign;
use tensorlib::sim::trace::fill_input_banks;
use tensorlib::sim::{
    perf, simulate_budgeted, CampaignConfig, ResilienceReport, SimError, VerifyConfig,
};

use crate::spans::Recorder;

/// The seed whose outputs have recorded digests.
pub const DEFAULT_SEED: u64 = 7;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "explore-conv2d",
    "verify-gemm",
    "faults-tmr",
    "fuzz-netlist",
];

/// The loop selections `explore-conv2d` sweeps: (k, y, x) and (k, y, p) of
/// the 20 the conv2d nest offers, 1,659 candidates. The whole capped sweep
/// takes 6-11 s, so a run held only three calls and its slowest call was a
/// coin toss between the host's fast and slow states; at 1-2 s a call
/// a run holds about twenty. These two keep every candidate outcome of the
/// whole sweep in about its proportions: 79% scored (86% in the whole
/// sweep), 6% over the cycle budget (2%) and 15% not implementable (12%).
const CONV2D_SELECTIONS: [[&str; 3]; 2] = [["k", "y", "x"], ["k", "y", "p"]];

/// Output digests recorded on the default seed at full size. The explore
/// workloads take no seed, so theirs hold for every seed.
const DIGEST_EXPLORE_CONV2D: u64 = 0xd5fe_28f2_d1fc_e21e;
const DIGEST_VERIFY_GEMM: u64 = 0x9649_22e7_179d_ee16;
const DIGEST_FAULTS_TMR: u64 = 0x5926_8322_396b_c0ca;
const DIGEST_FUZZ_NETLIST: u64 = 0xbb59_b416_5f36_229d;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one untraced call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// Operations attempted (candidates, classified faults, seeds).
    pub ops: u64,
    /// Operations that failed (panic, functional error, campaign error,
    /// injected-run error, fuzz finding).
    pub failed: u64,
    /// Digest of the call's deterministic output.
    pub digest: u64,
    /// Checks by the program's own oracles that passed during the call.
    pub oracle_passes: u64,
    /// What the traced replica must reproduce exactly.
    pub replica_key: String,
}

/// What one traced replica produced.
#[derive(Debug, Clone, Default)]
pub struct TracedOutcome {
    /// Must equal the untraced call's [`CallOutcome::replica_key`].
    pub replica_key: String,
    /// Work counts observed at layer boundaries (`designs`, `distinct`,
    /// `macs`, `lane_cycles`, `candidates`, `scored`).
    pub counts: BTreeMap<&'static str, f64>,
}

/// One benchmark workload.
pub trait Workload {
    /// Runs the workload's public entry point once, untraced.
    fn call(&self) -> CallOutcome;
    /// Re-drives the same work with a span around each layer call. The
    /// root span is `other`.
    fn traced(&self, rec: &mut Recorder) -> TracedOutcome;
    /// The recorded digest this run's outputs must match, if any.
    fn recorded_digest(&self) -> Option<u64>;
}

/// Lanes per bytecode pass of the lane-batched fault campaign.
const FAULT_LANES: usize = 64;

/// Simulation lanes per bytecode pass of workload `name`.
pub fn lanes_of(name: &str) -> usize {
    if name == "faults-tmr" {
        FAULT_LANES
    } else {
        1
    }
}

/// Builds workload `name` for `seed`, including its warm-up pass. `smoke`
/// selects toy sizes for the benchmark's own tests.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "explore-conv2d" => Box::new(Explore::new(
            workloads::resnet_layer2(),
            16,
            false,
            Some(&CONV2D_SELECTIONS),
            smoke,
            DIGEST_EXPLORE_CONV2D,
        )),
        // k = 8 rather than the profile sweep's 16 halves the executor's
        // work per candidate, so a run holds about 15 calls instead of 10.
        "verify-gemm" => Box::new(Explore::new(
            workloads::gemm(16, 16, 8),
            4,
            true,
            None,
            smoke,
            DIGEST_VERIFY_GEMM,
        )),
        "faults-tmr" => Box::new(Faults::new(seed, smoke)),
        "fuzz-netlist" => Box::new(Fuzz::new(seed, smoke)),
        _ => return None,
    };
    Some(w)
}

// ---------------------------------------------------------------------------
// explore-conv2d, verify-gemm
// ---------------------------------------------------------------------------

/// A serial design-space sweep through `explore_outcome`.
struct Explore {
    kernel: Kernel,
    opts: ExploreOptions,
    recorded: Option<u64>,
}

/// The per-point fields the explore digest covers.
struct PointKey {
    name: String,
    cycles: u64,
    power_mw: f64,
    area_mm2: f64,
}

/// Digest and replica key of a sweep result.
fn explore_fingerprint(points: &[PointKey], errors: usize, skipped: usize) -> (u64, String) {
    let mut h = FNV_OFFSET;
    for p in points {
        let line = format!(
            "{}|{}|{:016x}|{:016x}\n",
            p.name,
            p.cycles,
            p.power_mw.to_bits(),
            p.area_mm2.to_bits()
        );
        h = fnv1a(h, line.as_bytes());
    }
    h = fnv1a(h, format!("errors={errors} skipped={skipped}").as_bytes());
    let fastest = points.first().map_or("none".to_string(), |p| {
        format!("{}/{}/{:?}/{:?}", p.name, p.cycles, p.power_mw, p.area_mm2)
    });
    let key = format!(
        "points={} errors={errors} skipped={skipped} fastest={fastest} digest={h:016x}",
        points.len()
    );
    (h, key)
}

impl Explore {
    fn new(
        kernel: Kernel,
        array: usize,
        functional_verify: bool,
        selections: Option<&[[&str; 3]]>,
        smoke: bool,
        digest: u64,
    ) -> Explore {
        let mut opts = ExploreOptions {
            dse: DseConfig {
                workers: 1,
                selections: selections
                    .map(|sel| sel.iter().map(|names| names.map(str::to_string)).collect()),
                ..DseConfig::default()
            },
            hw: HwConfig {
                array: ArrayConfig::square(array),
                ..HwConfig::default()
            },
            workers: 1,
            functional_verify,
            ..ExploreOptions::default()
        };
        if smoke {
            opts.dse.max_designs = 40;
        }
        // Warm-up: the same sweep capped to its first few candidates.
        let warm = ExploreOptions {
            dse: DseConfig {
                max_designs: 24,
                ..opts.dse.clone()
            },
            ..opts.clone()
        };
        black_box(explore_outcome(&kernel, &warm));
        Explore {
            kernel,
            opts,
            recorded: (!smoke).then_some(digest),
        }
    }
}

impl Workload for Explore {
    fn call(&self) -> CallOutcome {
        let out = explore_outcome(&self.kernel, &self.opts);
        let keys: Vec<PointKey> = out
            .points
            .iter()
            .map(|p| PointKey {
                name: p.name.clone(),
                cycles: p.performance.total_cycles,
                power_mw: p.asic.power_mw,
                area_mm2: p.asic.area_mm2,
            })
            .collect();
        let (digest, replica_key) = explore_fingerprint(&keys, out.errors.len(), out.skipped);
        let failed = out
            .errors
            .iter()
            .filter(|e| !matches!(e, PointError::BudgetExceeded { .. }))
            .count();
        CallOutcome {
            ops: (out.points.len() + out.errors.len() + out.skipped) as u64,
            failed: failed as u64,
            digest,
            // Every scored point passed functional verification against the
            // reference executor when it is on.
            oracle_passes: if self.opts.functional_verify {
                out.points.len() as u64
            } else {
                0
            },
            replica_key,
        }
    }

    fn traced(&self, rec: &mut Recorder) -> TracedOutcome {
        let opts = &self.opts;
        let kernel = &self.kernel;
        let mut points: Vec<PointKey> = Vec::new();
        let (mut errors, mut skipped, mut generated, mut macs) = (0usize, 0usize, 0u64, 0u64);
        let mut distinct: HashSet<String> = HashSet::new();
        let mut candidates = 0usize;
        rec.span("other", |rec| {
            let space = rec.call("dataflow.dse", || design_space(kernel, &opts.dse));
            let variants = if opts.hardening_variants.is_empty() {
                vec![opts.hw.hardening]
            } else {
                opts.hardening_variants.clone()
            };
            // The body of `score`, in its order and with its options.
            for df in &space {
                for &hardening in &variants {
                    candidates += 1;
                    let hw = HwConfig {
                        hardening,
                        ..opts.hw
                    };
                    let Ok(design) = rec.call("hw.generate", || generate(df, &hw)) else {
                        skipped += 1;
                        continue;
                    };
                    generated += 1;
                    distinct.insert(format!(
                        "{:?}|{:?}|{:?}",
                        design.summary(),
                        design.phases(),
                        design.tiling()
                    ));
                    let performance =
                        rec.call("sim.perf", || perf::estimate(&design, kernel, &opts.sim));
                    let mut ok = opts
                        .cycle_budget
                        .is_none_or(|b| performance.total_cycles <= b);
                    if ok && opts.functional_verify {
                        let run = rec.call("sim.functional", || {
                            simulate_budgeted(&design, kernel, 42, opts.cycle_budget)
                        });
                        match run {
                            Ok(run) => macs += run.macs_executed,
                            Err(SimError::CycleBudgetExceeded { .. }) => ok = false,
                            Err(e) => {
                                eprintln!("{}: functional verification failed: {e}", df.name());
                                ok = false;
                            }
                        }
                    }
                    if !ok {
                        errors += 1;
                        rec.charge("hw.generate", || drop(design));
                        continue;
                    }
                    let utilization = if opts.synthesis_activity {
                        1.0
                    } else {
                        performance.normalized_perf
                    };
                    let activity = Activity {
                        utilization,
                        freq_mhz: opts.sim.freq_mhz,
                    };
                    let asic = rec.call("cost.asic", || asic_cost(&design, &activity));
                    rec.charge("hw.generate", || drop(design));
                    points.push(PointKey {
                        name: format!("{}{}", df.name(), hardening.suffix()),
                        cycles: performance.total_cycles,
                        power_mw: asic.power_mw,
                        area_mm2: asic.area_mm2,
                    });
                }
            }
            points.sort_by(|a, b| a.cycles.cmp(&b.cycles).then_with(|| a.name.cmp(&b.name)));
        });
        let (_, replica_key) = explore_fingerprint(&points, errors, skipped);
        let mut counts = BTreeMap::new();
        counts.insert("candidates", candidates as f64);
        counts.insert("scored", points.len() as f64);
        counts.insert("designs", generated as f64);
        counts.insert("distinct", distinct.len() as f64);
        counts.insert("macs", macs as f64);
        TracedOutcome {
            replica_key,
            counts,
        }
    }

    fn recorded_digest(&self) -> Option<u64> {
        self.recorded
    }
}

// ---------------------------------------------------------------------------
// faults-tmr
// ---------------------------------------------------------------------------

/// A lane-batched GEMM fault campaign on a TMR+parity+ABFT hardened array.
struct Faults {
    cfg: CampaignConfig,
    recorded: Option<u64>,
}

impl Faults {
    fn new(seed: u64, smoke: bool) -> Faults {
        let cfg = CampaignConfig {
            rows: 4,
            cols: 4,
            k: 256,
            faults: if smoke { 128 } else { 4096 },
            seed,
            hardening: Hardening::full(),
            workers: 1,
            lanes: FAULT_LANES,
            opt: true,
        };
        // Warm-up: one lane group of the same campaign.
        black_box(
            run_gemm_campaign(&CampaignConfig {
                faults: cfg.lanes,
                ..cfg
            })
            .ok(),
        );
        Faults {
            cfg,
            recorded: (seed == DEFAULT_SEED && !smoke).then_some(DIGEST_FAULTS_TMR),
        }
    }
}

/// What the traced campaign must reproduce.
fn campaign_key(r: &ResilienceReport) -> String {
    format!(
        "masked={} detected={} sdc={} cycles={}",
        r.masked, r.detected, r.sdc, r.cycles_per_run
    )
}

impl Workload for Faults {
    fn call(&self) -> CallOutcome {
        match run_gemm_campaign(&self.cfg) {
            Ok(report) => {
                let json = serde_json::to_string(&report).expect("campaign reports serialize");
                CallOutcome {
                    ops: report.faults as u64,
                    failed: (report.errors + report.degraded) as u64,
                    digest: fnv1a(FNV_OFFSET, json.as_bytes()),
                    // The golden run matched the reference executor.
                    oracle_passes: 1,
                    replica_key: campaign_key(&report),
                }
            }
            Err(e) => {
                eprintln!("faults-tmr: campaign failed: {e}");
                CallOutcome {
                    ops: self.cfg.faults as u64,
                    failed: self.cfg.faults as u64,
                    digest: 0,
                    oracle_passes: 0,
                    replica_key: format!("error: {e}"),
                }
            }
        }
    }

    /// The campaign's internals are private, so the campaign call is timed
    /// as `sim.resilience` and its layers are estimated by reference passes
    /// re-run through their public functions after the root span closes:
    /// the set-up calls once each, then per lane group the batch engine's
    /// construction (`hw.compile`) and a bare `BatchSim::step` pass over the
    /// group's cycles (`hw.batch`). `sim.resilience.self_s` — the campaign
    /// runner — is the difference, an estimate.
    fn traced(&self, rec: &mut Recorder) -> TracedOutcome {
        let cfg = self.cfg;
        let (_, (campaign, report)) = rec.span("other", |rec| {
            rec.span("sim.resilience", |_| run_gemm_campaign(&cfg))
        });
        let replica_key = match report {
            Ok(r) => campaign_key(&r),
            Err(e) => format!("error: {e}"),
        };

        let gemm = workloads::gemm(cfg.rows as u64, cfg.cols as u64, cfg.k);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).expect("gemm has m, n, k");
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())
            .expect("output-stationary gemm analyzes");
        let hw = HwConfig {
            array: ArrayConfig {
                rows: cfg.rows,
                cols: cfg.cols,
            },
            hardening: cfg.hardening,
            ..HwConfig::default()
        };
        let mut design = rec
            .reference(campaign, "hw.generate", || generate(&df, &hw))
            .expect("campaign design generates");
        if cfg.opt {
            rec.reference(campaign, "hw.opt", || {
                design.optimize(&OptOptions::default())
            });
        }
        let flat = rec
            .reference(campaign, "hw.elaborate", || {
                elaborate_design(&design, design.top())
            })
            .expect("campaign design elaborates");
        let phases = *design.phases();
        let faults = rec.reference(campaign, "hw.fault", || {
            sample_faults(
                &enumerate_sites(&flat),
                cfg.faults,
                cfg.seed,
                1 + phases.total(),
            )
        });
        let mut base = rec.reference(campaign, "hw.compile", || Interpreter::new(flat));
        fill_input_banks(&mut base, &design).expect("input banks fit the design");
        base.poke("start", 1);
        // One controller round plus the readback, as the campaign steps it.
        let steps =
            1 + phases.total() + phases.load_cycles + phases.compute_cycles + cfg.rows as u64;
        // Each lane group builds its batch engine from the preloaded base
        // (which compiles the design again) and steps it, as the campaign
        // does.
        let mut lane_cycles = 0u64;
        for group in faults.chunks(cfg.lanes.max(1)) {
            let mut sim = rec.reference(campaign, "hw.compile", || {
                BatchSim::from_scalar(&base, group.len())
            });
            rec.reference(campaign, "hw.batch", || {
                for _ in 0..steps {
                    sim.step();
                }
            });
            black_box(&sim);
            lane_cycles += group.len() as u64 * steps;
        }
        let mut counts = BTreeMap::new();
        counts.insert("lane_cycles", lane_cycles as f64);
        TracedOutcome {
            replica_key,
            counts,
        }
    }

    fn recorded_digest(&self) -> Option<u64> {
        self.recorded
    }
}

// ---------------------------------------------------------------------------
// fuzz-netlist
// ---------------------------------------------------------------------------

/// A netlist-mode differential fuzz campaign through `run_verify`.
struct Fuzz {
    cfg: VerifyConfig,
    recorded: Option<u64>,
}

impl Fuzz {
    fn new(seed: u64, smoke: bool) -> Fuzz {
        let seeds = if smoke { 40 } else { 1000 };
        // Each benchmark seed owns a disjoint window of generator seeds.
        let cfg = VerifyConfig {
            seed_start: (seed % (u64::MAX / seeds - 1)) * seeds,
            seeds,
            workers: 1,
            cycles: 16,
            lanes: 1,
            opt: true,
        };
        // Warm-up: the window's first few generator seeds.
        black_box(tensorlib::sim::run_verify(
            &VerifyConfig { seeds: 16, ..cfg },
            true,
            false,
        ));
        Fuzz {
            cfg,
            recorded: (seed == DEFAULT_SEED && !smoke).then_some(DIGEST_FUZZ_NETLIST),
        }
    }
}

impl Workload for Fuzz {
    fn call(&self) -> CallOutcome {
        let report = tensorlib::sim::run_verify(&self.cfg, true, false);
        let mode = report.netlist.as_ref().expect("netlist mode ran");
        let json = serde_json::to_string(&report).expect("verify reports serialize");
        let findings = report.total_findings as u64;
        CallOutcome {
            ops: self.cfg.seeds,
            failed: findings + mode.degraded,
            digest: fnv1a(FNV_OFFSET, json.as_bytes()),
            oracle_passes: mode.seeds_run.saturating_sub(findings),
            replica_key: format!("findings={findings}"),
        }
    }

    /// `gen_netlist`, then the five public oracles in
    /// `run_netlist_campaign`'s order, stopping at the first failure.
    fn traced(&self, rec: &mut Recorder) -> TracedOutcome {
        let cfg = self.cfg;
        let gen_cfg = NetlistFuzzConfig {
            cycles: cfg.cycles,
            ..NetlistFuzzConfig::default()
        };
        let lanes = cfg.lanes.max(1);
        let mut findings = 0u64;
        rec.span("other", |rec| {
            for seed in cfg.seed_start..cfg.seed_start + cfg.seeds {
                let (m, top) = rec.call("hw.fuzz", || gen_netlist(seed, &gen_cfg));
                let clean = rec
                    .call("hw.interp", || {
                        check_netlist(&m, &top, seed, cfg.cycles, None)
                    })
                    .is_ok()
                    && rec
                        .call("hw.batch", || {
                            check_batch_netlist(&m, &top, seed, cfg.cycles, lanes)
                        })
                        .is_ok()
                    && (!cfg.opt
                        || rec
                            .call("hw.opt", || {
                                check_opt_netlist(&m, &top, seed, cfg.cycles, lanes)
                            })
                            .is_ok())
                    && rec
                        .call("hw.text", || check_text_roundtrip(&m, &top))
                        .is_ok()
                    && rec
                        .call("hw.yosys", || check_yosys_roundtrip(&m, &top))
                        .is_ok();
                if !clean {
                    findings += 1;
                }
            }
        });
        let mut counts = BTreeMap::new();
        counts.insert(
            "lane_cycles",
            (cfg.seeds * lanes as u64 * cfg.cycles) as f64,
        );
        TracedOutcome {
            replica_key: format!("findings={findings}"),
            counts,
        }
    }

    fn recorded_digest(&self) -> Option<u64> {
        self.recorded
    }
}
