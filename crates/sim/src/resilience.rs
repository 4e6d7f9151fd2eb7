//! Fault-injection campaigns: inject seeded faults into the *generated
//! netlist itself*, compare against a golden fault-free run, and classify
//! every fault as masked, detected, or silent data corruption.
//!
//! Two campaign shapes:
//!
//! - [`run_campaign`] drives any generated top level under the fixed
//!   counter-harness protocol (ramp-filled banks, `start` pulsed) and uses
//!   the per-cycle output-port signature as the golden reference.
//! - [`run_gemm_campaign`] runs a real output-stationary GEMM with real
//!   matrices through the top level (banks preloaded with the skewed
//!   systolic schedule), harvests the result banks, cross-checks the golden
//!   run against the reference executor, and additionally applies **ABFT**
//!   row/column checksum verification when the design is hardened with it.
//!
//! Detection comes from the hardened design's own mechanisms: scratchpad
//! parity (sticky per-bank counters), the TMR controller's `tmr_mismatch`
//! output, and ABFT checksum mismatches. Classification follows the standard
//! taxonomy: a fault is **Detected** if any detector fired, else **Sdc** if
//! the harvested outputs differ from golden, else **Masked**.
//!
//! Every entry point runs the fault list as deterministic chunks through
//! [`crate::journal::run_chunked`] (in memory unless a journal directory is
//! given) and parallelizes within a chunk with per-fault panic isolation;
//! the outcome list is in fault order and byte-identical for any worker
//! count and chunk size, so reports are seed-deterministic artifacts.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib_hw::batch::BatchSim;
use tensorlib_hw::design::{generate, AcceleratorDesign, HwConfig};
use tensorlib_hw::fault::{enumerate_sites, sample_faults, FaultSpec, Hardening};
use tensorlib_hw::interp::{elaborate_design, ElaborateError, FlatDesign, Interpreter};
use tensorlib_hw::{ArrayConfig, HwError};
use tensorlib_ir::workloads;

use crate::journal::{self, DurabilityOptions, ItemOutcome, JournalError, RunStats};
use crate::trace::fill_input_banks;

/// Outcome class of one injected fault (standard fault-injection taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Outputs matched golden and no detector fired.
    Masked,
    /// A hardening detector (parity, TMR, ABFT) flagged the fault.
    Detected,
    /// Outputs differ from golden with no detection: silent data corruption.
    Sdc,
    /// The injected run was never started: the chunk's watchdog deadline
    /// passed first and the campaign degraded gracefully instead of
    /// stalling. Degraded faults are excluded from `detection_coverage`
    /// (they carry no verdict either way).
    Degraded,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::Masked => write!(f, "masked"),
            FaultClass::Detected => write!(f, "detected"),
            FaultClass::Sdc => write!(f, "sdc"),
            FaultClass::Degraded => write!(f, "degraded"),
        }
    }
}

/// Campaign parameters. `Default` is a small but non-trivial 4x4 campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CampaignConfig {
    /// Array rows (and GEMM `m` extent).
    pub rows: usize,
    /// Array columns (and GEMM `n` extent).
    pub cols: usize,
    /// GEMM reduction extent.
    pub k: u64,
    /// Faults to sample and inject.
    pub faults: usize,
    /// Seed for input data and fault sampling.
    pub seed: u64,
    /// Hardening options the generated design carries.
    pub hardening: Hardening,
    /// Worker threads (`0` = one per core).
    pub workers: usize,
    /// Simulation lanes per bytecode pass: `1` runs the scalar engine; `> 1`
    /// chunks the fault list into lane groups and retires each group in one
    /// batched pass ([`tensorlib_hw::batch::BatchSim`]). Reports are
    /// byte-identical for any lane width, so this field — like `workers` —
    /// is never serialized.
    #[serde(skip)]
    pub lanes: usize,
    /// Run the netlist optimizer over the generated design before
    /// elaborating it. Optimization preserves every port and register
    /// (name, order, width, init), so fault-site enumeration and report
    /// bytes are identical either way — which is exactly what the CI
    /// `--opt=off` vs `--opt=on` byte-compare asserts. Never serialized.
    #[serde(skip)]
    pub opt: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            rows: 4,
            cols: 4,
            k: 4,
            faults: 32,
            seed: 1,
            hardening: Hardening::none(),
            workers: 1,
            lanes: 1,
            opt: true,
        }
    }
}

/// The fate of one injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Classification against the golden run.
    pub class: FaultClass,
    /// Which detectors fired (`parity`, `tmr`, `abft`).
    pub detectors: Vec<String>,
    /// Set when the injected run itself failed (attach error or panic);
    /// such faults are counted separately and classified as `Detected`
    /// only if a detector fired before the failure.
    pub error: Option<String>,
}

/// A full campaign result: per-fault outcomes plus aggregates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// Name of the faulted design.
    pub design: String,
    /// Hardening options in force (`none` when unhardened).
    pub hardening: String,
    /// Cycles of the live round during which sampled faults can land.
    pub cycles_per_run: u64,
    /// Faults injected.
    pub faults: usize,
    /// Faults whose outputs matched golden with no detection.
    pub masked: usize,
    /// Faults flagged by a detector.
    pub detected: usize,
    /// Silent data corruptions.
    pub sdc: usize,
    /// Injected runs that failed outright (attach error or panic).
    pub errors: usize,
    /// Faults demoted by the per-chunk watchdog before they could run.
    pub degraded: usize,
    /// `detected / (detected + sdc)` — 1.0 when nothing corrupted outputs.
    pub detection_coverage: f64,
    /// Per-fault outcomes, in sampling order.
    pub outcomes: Vec<FaultOutcome>,
}

/// Campaign failure (setup or golden-run problems; injected-run failures are
/// per-fault [`FaultOutcome::error`]s, not campaign failures).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The design would not generate or flatten.
    Elaborate(ElaborateError),
    /// Bank preload failed.
    Hw(HwError),
    /// The design would not generate.
    Generate(HwError),
    /// The campaign journal could not be opened, appended, or replayed
    /// (including a `--resume` directory whose journal belongs to a
    /// different config).
    Journal(JournalError),
    /// The fault-free golden run disagrees with the reference executor —
    /// the campaign would classify against a wrong baseline.
    GoldenMismatch {
        /// Row of the first mismatching element.
        row: usize,
        /// Column of the first mismatching element.
        col: usize,
        /// Reference value.
        expected: i64,
        /// Value the golden netlist run produced.
        got: i64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Elaborate(e) => write!(f, "campaign design failed to flatten: {e}"),
            CampaignError::Hw(e) => write!(f, "campaign setup failed: {e}"),
            CampaignError::Generate(e) => write!(f, "campaign design failed to generate: {e}"),
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::GoldenMismatch {
                row,
                col,
                expected,
                got,
            } => write!(
                f,
                "golden run disagrees with the reference executor at C[{row}][{col}]: \
                 reference {expected}, netlist {got}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ElaborateError> for CampaignError {
    fn from(e: ElaborateError) -> CampaignError {
        CampaignError::Elaborate(e)
    }
}

impl From<HwError> for CampaignError {
    fn from(e: HwError) -> CampaignError {
        CampaignError::Hw(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

fn as_u16(v: i64) -> u64 {
    (v as u64) & 0xFFFF
}

/// Builds the output-stationary GEMM design a campaign runs on.
fn gemm_design(cfg: &CampaignConfig) -> Result<AcceleratorDesign, CampaignError> {
    let gemm = workloads::gemm(cfg.rows as u64, cfg.cols as u64, cfg.k);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])
        .expect("gemm always has m, n, k");
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())
        .expect("output-stationary gemm always analyzes");
    generate(
        &df,
        &HwConfig {
            array: ArrayConfig {
                rows: cfg.rows,
                cols: cfg.cols,
            },
            hardening: cfg.hardening,
            ..HwConfig::default()
        },
    )
    .map_err(CampaignError::Generate)
}

/// What one (golden or faulted) netlist run produced.
struct RunResult {
    /// Harvested result matrix, row-major `rows x cols`.
    c: Vec<i64>,
    /// `tmr_mismatch` was ever high during the run.
    tmr_seen: bool,
    /// Total sticky parity errors after readback.
    parity_errors: u64,
}

/// Steps one full controller round, waits for the ping-pong buffers to
/// swing back, and harvests the result banks.
///
/// The interpreter must be a fresh clone of the preloaded base (banks
/// loaded, `start` already poked high). Timing: the free-running controller
/// completes round 1 in `1 + phases.total()` steps, with the drained
/// results written to the double buffer selected by `phase` during drain.
/// Readback ports read the *other* buffer, so the harvest waits one more
/// compute phase for `phase` to toggle back before streaming the results
/// out (readback also fires the parity checks on the result banks).
fn run_round(sim: &mut Interpreter, design: &AcceleratorDesign) -> RunResult {
    let has_tmr = design.config().hardening.tmr_ctrl;
    let phases = design.phases();
    let pre = 1 + phases.total() + phases.load_cycles + phases.compute_cycles;
    let mut tmr_seen = false;
    for _ in 0..pre {
        sim.step();
        if has_tmr && sim.peek("tmr_mismatch") != 0 {
            tmr_seen = true;
        }
    }
    // Bottom-up drain order: word d of column j's bank holds C[rows-1-d][j].
    let rows = design.config().array.rows;
    let cols = design.config().array.cols;
    let out_banks: Vec<usize> = design
        .bank_bindings()
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.port.kind.is_input())
        .map(|(bi, _)| bi)
        .collect();
    for &bi in &out_banks {
        sim.poke(&format!("readback_{bi}"), 1);
    }
    let mut c = vec![0i64; rows * cols];
    for d in 0..rows {
        sim.step();
        if has_tmr && sim.peek("tmr_mismatch") != 0 {
            tmr_seen = true;
        }
        let row = rows - 1 - d;
        for (j, &bi) in out_banks.iter().enumerate() {
            c[row * cols + j] = sim.peek_signed(&format!("result_{bi}"));
        }
    }
    RunResult {
        c,
        tmr_seen,
        parity_errors: sim.parity_error_count(),
    }
}

/// [`run_round`] for a lane batch: one controller round advanced on every
/// lane simultaneously, harvested per lane. Stimulus (readback pokes) is
/// broadcast; divergence comes from the per-lane faults already attached.
/// Lane `l`'s [`RunResult`] is bit-identical to a scalar [`run_round`] of an
/// interpreter carrying lane `l`'s faults.
fn run_round_batch(sim: &mut BatchSim, design: &AcceleratorDesign) -> Vec<RunResult> {
    let has_tmr = design.config().hardening.tmr_ctrl;
    let lanes = sim.lanes();
    let phases = design.phases();
    let pre = 1 + phases.total() + phases.load_cycles + phases.compute_cycles;
    let mut tmr_seen = vec![false; lanes];
    for _ in 0..pre {
        sim.step();
        if has_tmr {
            for (l, seen) in tmr_seen.iter_mut().enumerate() {
                if sim.peek_lane("tmr_mismatch", l) != 0 {
                    *seen = true;
                }
            }
        }
    }
    let rows = design.config().array.rows;
    let cols = design.config().array.cols;
    let out_banks: Vec<usize> = design
        .bank_bindings()
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.port.kind.is_input())
        .map(|(bi, _)| bi)
        .collect();
    for &bi in &out_banks {
        sim.poke(&format!("readback_{bi}"), 1);
    }
    let mut c = vec![vec![0i64; rows * cols]; lanes];
    for d in 0..rows {
        sim.step();
        if has_tmr {
            for (l, seen) in tmr_seen.iter_mut().enumerate() {
                if sim.peek_lane("tmr_mismatch", l) != 0 {
                    *seen = true;
                }
            }
        }
        let row = rows - 1 - d;
        for (j, &bi) in out_banks.iter().enumerate() {
            let name = format!("result_{bi}");
            for (l, lane_c) in c.iter_mut().enumerate() {
                lane_c[row * cols + j] = sim.peek_signed_lane(&name, l);
            }
        }
    }
    c.into_iter()
        .enumerate()
        .map(|(l, c)| RunResult {
            c,
            tmr_seen: tmr_seen[l],
            parity_errors: sim.parity_error_count_lane(l),
        })
        .collect()
}

/// Preloads the top-level input banks with the skewed systolic schedule for
/// `a` and `b`, so the free-running controller round computes exact GEMM.
fn load_skewed_inputs(
    sim: &mut Interpreter,
    design: &AcceleratorDesign,
    a: &tensorlib_ir::DenseTensor,
    b: &tensorlib_ir::DenseTensor,
    k: i64,
) -> Result<(), HwError> {
    for (bi, binding) in design.bank_bindings().iter().enumerate() {
        if !binding.port.kind.is_input() {
            continue;
        }
        let bank = design
            .mem_banks()
            .iter()
            .find(|m| m.module_name() == binding.bank_module)
            .expect("binding references a planned bank");
        let mult = if bank.is_double_buffered() { 2 } else { 1 };
        let cap = (bank.words() * mult) as usize;
        let name = &binding.port.name;
        // Port names are `a_feed{i}` / `b_feed{j}`; word t carries the
        // operand entering that edge at compute cycle t (zero outside the
        // valid diagonal window).
        let words: Vec<u64> = if let Some(i) = name.strip_prefix("a_feed") {
            let i: i64 = i.parse().expect("generated port index");
            (0..cap as i64)
                .map(|t| {
                    let kk = t - i;
                    if (0..k).contains(&kk) {
                        as_u16(a.get(&[i, kk]))
                    } else {
                        0
                    }
                })
                .collect()
        } else if let Some(j) = name.strip_prefix("b_feed") {
            let j: i64 = j.parse().expect("generated port index");
            (0..cap as i64)
                .map(|t| {
                    let kk = t - j;
                    if (0..k).contains(&kk) {
                        as_u16(b.get(&[j, kk]))
                    } else {
                        0
                    }
                })
                .collect()
        } else {
            vec![0; cap]
        };
        sim.load_bank(bi, &words)?;
    }
    Ok(())
}

/// The outcome assigned to a fault that never ran because the chunk's
/// watchdog deadline passed first.
fn degraded_outcome(fault: &FaultSpec) -> FaultOutcome {
    FaultOutcome {
        fault: fault.clone(),
        class: FaultClass::Degraded,
        detectors: Vec::new(),
        error: None,
    }
}

/// The quarantine outcome for a fault (or lane group member) whose injected
/// run still panicked after every retry. The fault spec in the outcome *is*
/// the repro: replaying it with the campaign seed reproduces the panic.
fn quarantined_outcome(fault: &FaultSpec, attempts: usize, message: &str) -> FaultOutcome {
    let error = if attempts <= 1 {
        format!("injected run panicked: {message}")
    } else {
        format!("injected run panicked (quarantined after {attempts} attempts): {message}")
    };
    FaultOutcome {
        fault: fault.clone(),
        class: FaultClass::Sdc,
        detectors: Vec::new(),
        error: Some(error),
    }
}

/// Everything a campaign's work items share: the faulted design, the base
/// interpreter (banks loaded, `start` poked high), the golden run and its
/// ABFT checksums, and the fault list.
struct Campaign {
    cfg: CampaignConfig,
    design: AcceleratorDesign,
    base: Interpreter,
    golden: RunResult,
    abft_row_sums: Vec<i64>,
    abft_col_sums: Vec<i64>,
    faults: Vec<FaultSpec>,
    cycles: u64,
}

impl Campaign {
    /// Injects `fault` into a fresh clone of the base and classifies it.
    fn run_one(&self, fault: &FaultSpec) -> FaultOutcome {
        let mut sim = self.base.clone();
        match sim.attach_faults(std::slice::from_ref(fault)) {
            Ok(()) => {
                let run = run_round(&mut sim, &self.design);
                self.classify(fault, &run)
            }
            Err(e) => attach_failed(fault, &e),
        }
    }

    /// Retires a lane group in one batched round, one fault per lane.
    fn run_group(&self, group: &[FaultSpec]) -> Vec<FaultOutcome> {
        let mut sim = BatchSim::from_scalar(&self.base, group.len());
        let per_lane: Vec<Vec<FaultSpec>> = group.iter().map(|f| vec![f.clone()]).collect();
        let attach = sim.attach_lane_faults(&per_lane);
        let runs = run_round_batch(&mut sim, &self.design);
        group
            .iter()
            .zip(attach)
            .zip(runs)
            .map(|((fault, att), run)| match att {
                Ok(()) => self.classify(fault, &run),
                Err(e) => attach_failed(fault, &e),
            })
            .collect()
    }

    /// Assembles the report from the outcomes of the campaign's faults.
    fn report(&self, outcomes: Vec<FaultOutcome>) -> ResilienceReport {
        let masked = outcomes.iter().filter(|o| o.class == FaultClass::Masked).count();
        let detected = outcomes.iter().filter(|o| o.class == FaultClass::Detected).count();
        let sdc = outcomes.iter().filter(|o| o.class == FaultClass::Sdc).count();
        let errors = outcomes.iter().filter(|o| o.error.is_some()).count();
        let degraded = outcomes.iter().filter(|o| o.class == FaultClass::Degraded).count();
        let denom = detected + sdc;
        ResilienceReport {
            design: self.design.name().to_string(),
            hardening: self.cfg.hardening.to_string(),
            cycles_per_run: self.cycles,
            faults: outcomes.len(),
            masked,
            detected,
            sdc,
            errors,
            degraded,
            detection_coverage: if denom == 0 {
                1.0
            } else {
                detected as f64 / denom as f64
            },
            outcomes,
        }
    }

    /// Classifies one faulted run against golden.
    fn classify(&self, fault: &FaultSpec, run: &RunResult) -> FaultOutcome {
        let cfg = &self.cfg;
        let mut detectors = Vec::new();
        if run.parity_errors > 0 {
            detectors.push("parity".to_string());
        }
        if run.tmr_seen {
            detectors.push("tmr".to_string());
        }
        if cfg.hardening.abft {
            let rows = cfg.rows;
            let cols = cfg.cols;
            let mut mismatch = false;
            for (i, expected) in self.abft_row_sums.iter().enumerate().take(rows) {
                let sum: i64 = (0..cols).map(|j| run.c[i * cols + j]).sum();
                if sum != *expected {
                    mismatch = true;
                }
            }
            for (j, expected) in self.abft_col_sums.iter().enumerate().take(cols) {
                let sum: i64 = (0..rows).map(|i| run.c[i * cols + j]).sum();
                if sum != *expected {
                    mismatch = true;
                }
            }
            if mismatch {
                detectors.push("abft".to_string());
            }
        }
        let class = if !detectors.is_empty() {
            FaultClass::Detected
        } else if run.c != self.golden.c {
            FaultClass::Sdc
        } else {
            FaultClass::Masked
        };
        FaultOutcome {
            fault: fault.clone(),
            class,
            detectors,
            error: None,
        }
    }
}

fn attach_failed(fault: &FaultSpec, e: &impl fmt::Display) -> FaultOutcome {
    FaultOutcome {
        fault: fault.clone(),
        class: FaultClass::Masked,
        detectors: Vec::new(),
        error: Some(format!("attach failed: {e}")),
    }
}

/// Runs `faults` (one chunk of a campaign) under the campaign policy of
/// [`journal::run_items`]: the chunk watchdog demotes faults not started in
/// time to [`FaultClass::Degraded`], and a panicking fault is retried
/// serially before it is quarantined.
///
/// With `lanes > 1` the work items are lane groups rather than single
/// faults: each group is broadcast onto a [`BatchSim`] with one fault per
/// lane and retired in one batched round. Outcomes stay in fault order and —
/// because every lane is bit-identical to its scalar counterpart — the
/// assembled report is byte-identical to the scalar drive's for any lane
/// width and worker count. (The one divergence: a panic poisons its whole
/// lane group, so *which* faults carry a panic error can differ. Clean
/// campaigns are unaffected.)
fn drive_campaign(
    campaign: &Campaign,
    faults: &[FaultSpec],
    durability: &DurabilityOptions,
) -> Vec<FaultOutcome> {
    let _span = tensorlib_obs::span("sim.fault_injection");
    tensorlib_obs::counter_add("sim.faults_injected", faults.len() as u64);
    let cfg = &campaign.cfg;
    if cfg.lanes <= 1 {
        let outcomes = journal::run_items(
            faults,
            cfg.workers,
            1,
            durability,
            |f| vec![f.target.clone()],
            |f| campaign.run_one(f),
        );
        return outcomes
            .into_iter()
            .zip(faults)
            .map(|(o, fault)| match o {
                ItemOutcome::Done(outcome) => outcome,
                ItemOutcome::Degraded => degraded_outcome(fault),
                ItemOutcome::Quarantined { attempts, message } => {
                    quarantined_outcome(fault, attempts, &message)
                }
            })
            .collect();
    }
    let groups: Vec<&[FaultSpec]> = faults.chunks(cfg.lanes).collect();
    let outcomes = journal::run_items(
        &groups,
        cfg.workers,
        1,
        durability,
        |group| group.iter().map(|f| f.target.clone()).collect(),
        |group| campaign.run_group(group),
    );
    outcomes
        .into_iter()
        .zip(&groups)
        .flat_map(|(o, group)| match o {
            ItemOutcome::Done(outcomes) => outcomes,
            ItemOutcome::Degraded => group.iter().map(degraded_outcome).collect(),
            ItemOutcome::Quarantined { attempts, message } => group
                .iter()
                .map(|fault| quarantined_outcome(fault, attempts, &message))
                .collect(),
        })
        .collect()
}

/// Generates (and, with `cfg.opt`, optimizes) the campaign design and
/// flattens it.
fn prepare(cfg: &CampaignConfig) -> Result<(AcceleratorDesign, FlatDesign), CampaignError> {
    let mut design = gemm_design(cfg)?;
    if cfg.opt {
        design.optimize(&tensorlib_hw::opt::OptOptions::default());
    }
    let flat = elaborate_design(&design, design.top())?;
    Ok((design, flat))
}

/// How a campaign picks its faults from the flattened design.
enum FaultPlan {
    /// `cfg.faults` seeded samples over every register, bank word, and
    /// controller state.
    Sampled,
    /// Every `*_acc` register × every bit in `0..bits`, flipped at `cycle`.
    AccumulatorSweep { bits: u32, cycle: u64 },
    /// An explicit list.
    Explicit(Vec<FaultSpec>),
}

/// Prepares the design, picks the faults, loads the base interpreter with
/// `load`, and runs the golden round. The ABFT sums are left empty.
fn setup(
    cfg: &CampaignConfig,
    plan: FaultPlan,
    load: impl FnOnce(&mut Interpreter, &AcceleratorDesign) -> Result<(), HwError>,
) -> Result<Campaign, CampaignError> {
    let (design, flat) = prepare(cfg)?;
    // One idle handshake cycle plus one full load/compute/drain round.
    let cycles = 1 + design.phases().total();
    let faults = match plan {
        FaultPlan::Sampled => sample_faults(&enumerate_sites(&flat), cfg.faults, cfg.seed, cycles),
        FaultPlan::AccumulatorSweep { bits, cycle } => accumulator_nets(&flat)
            .iter()
            .flat_map(|net| (0..bits).map(move |b| FaultSpec::flip(net.as_str(), b, cycle)))
            .collect(),
        FaultPlan::Explicit(faults) => faults,
    };
    let mut base = Interpreter::new(flat);
    load(&mut base, &design)?;
    base.poke("start", 1);
    let mut golden_sim = base.clone();
    let golden = {
        let _golden_span = tensorlib_obs::span("sim.golden_run");
        run_round(&mut golden_sim, &design)
    };
    Ok(Campaign {
        cfg: *cfg,
        design,
        base,
        golden,
        abft_row_sums: Vec::new(),
        abft_col_sums: Vec::new(),
        faults,
        cycles,
    })
}

/// The real-data GEMM campaign setup: seeded random matrices streamed into
/// the input banks, the golden run cross-checked element-wise against the
/// reference executor, and the ABFT checksums taken from the verified
/// golden result.
fn setup_gemm(cfg: &CampaignConfig, plan: FaultPlan) -> Result<Campaign, CampaignError> {
    let gemm = workloads::gemm(cfg.rows as u64, cfg.cols as u64, cfg.k);
    let inputs = gemm.random_inputs(cfg.seed);
    let reference = gemm
        .execute_reference(&inputs)
        .expect("self-generated inputs fit the kernel");
    let mut campaign = setup(cfg, plan, |base, design| {
        load_skewed_inputs(base, design, &inputs[0], &inputs[1], cfg.k as i64)
    })?;
    let c = &campaign.golden.c;
    for i in 0..cfg.rows {
        for j in 0..cfg.cols {
            let expected = reference.get(&[i as i64, j as i64]);
            let got = c[i * cfg.cols + j];
            if got != expected {
                return Err(CampaignError::GoldenMismatch {
                    row: i,
                    col: j,
                    expected,
                    got,
                });
            }
        }
    }
    campaign.abft_row_sums = (0..cfg.rows)
        .map(|i| (0..cfg.cols).map(|j| c[i * cfg.cols + j]).sum())
        .collect();
    campaign.abft_col_sums = (0..cfg.cols)
        .map(|j| (0..cfg.rows).map(|i| c[i * cfg.cols + j]).sum())
        .collect();
    Ok(campaign)
}

/// Runs a generic ramp-stimulus campaign: banks filled with the counter
/// harness ramp, `count` seeded faults sampled over every register, bank
/// word, and controller state in the flattened design.
///
/// # Errors
///
/// Returns [`CampaignError`] if the design fails to generate, flatten, or
/// preload.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
    let campaign = setup(cfg, FaultPlan::Sampled, fill_input_banks)?;
    Ok(run_chunked_campaign(&campaign, "ramp", &DurabilityOptions::default())?.0)
}

/// Runs the real-data GEMM campaign: output-stationary `rows x cols` GEMM
/// with seeded random matrices streamed through the top level. The golden
/// run is cross-checked element-wise against [`tensorlib_ir`]'s reference
/// executor before any fault is injected, and ABFT row/column checksums are
/// verified on every harvested result when the design is hardened with
/// ABFT. This is [`run_gemm_campaign_durable`] with default options.
///
/// # Errors
///
/// Returns [`CampaignError`] on setup failure or if the golden run
/// disagrees with the reference executor.
pub fn run_gemm_campaign(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
    Ok(run_gemm_campaign_durable(cfg, &DurabilityOptions::default())?.0)
}

/// The `*_acc` nets of a flattened campaign design.
fn accumulator_nets(flat: &FlatDesign) -> Vec<String> {
    flat.regs()
        .iter()
        .map(|r| flat.nets()[r.target].name.clone())
        .filter(|n| n.ends_with("_acc"))
        .collect()
}

/// Enumerates PE accumulator registers (`*_acc` nets) of a campaign design —
/// the datapath state ABFT protects. Used by coverage tests and the CLI's
/// accumulator-sweep mode.
pub fn accumulator_sites(cfg: &CampaignConfig) -> Result<Vec<String>, CampaignError> {
    Ok(accumulator_nets(&prepare(cfg)?.1))
}

/// Runs the GEMM campaign over an exhaustive accumulator bit-flip sweep:
/// every `*_acc` register × every bit in `0..bits` flipped at `cycle`.
/// This is the ABFT acceptance sweep — with ABFT on, every flip that lands
/// while accumulation is still live must be detected.
///
/// # Errors
///
/// Same as [`run_gemm_campaign`].
pub fn run_accumulator_sweep(
    cfg: &CampaignConfig,
    bits: u32,
    cycle: u64,
) -> Result<ResilienceReport, CampaignError> {
    Ok(run_accumulator_sweep_durable(cfg, bits, cycle, &DurabilityOptions::default())?.0)
}

/// [`run_gemm_campaign`] with an explicit fault list instead of seeded
/// sampling.
///
/// # Errors
///
/// Same as [`run_gemm_campaign`].
pub fn run_gemm_campaign_with_faults(
    cfg: &CampaignConfig,
    faults: &[FaultSpec],
) -> Result<ResilienceReport, CampaignError> {
    let campaign = setup_gemm(cfg, FaultPlan::Explicit(faults.to_vec()))?;
    Ok(run_chunked_campaign(&campaign, "explicit", &DurabilityOptions::default())?.0)
}

// ---------------------------------------------------------------------------
// The chunked campaign runner.
// ---------------------------------------------------------------------------

/// Telemetry outcome counter for one fault-campaign chunk: fault classes
/// by name (`masked` / `detected` / `sdc` / `degraded`), plus `errors` for
/// outcomes carrying an error string and `panicked` for the
/// quarantined-panic subset.
fn count_fault_outcomes(outcomes: &[FaultOutcome]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for o in outcomes {
        *counts.entry(o.class.to_string()).or_insert(0) += 1;
        if let Some(error) = &o.error {
            *counts.entry("errors".to_string()).or_insert(0) += 1;
            if error.contains("panicked") {
                *counts.entry("panicked".to_string()).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Canonical config string for journal keying: the serialized config with
/// the worker count zeroed (resuming with a different `--workers` is legal —
/// reports are worker-count-independent), plus the knobs serde skips but
/// which shape the run (`lanes` sets lane-group and default chunk
/// boundaries; `opt` selects which netlist is faulted).
fn canonical_config(cfg: &CampaignConfig, variant: &str) -> String {
    let canon = CampaignConfig {
        workers: 0,
        ..*cfg
    };
    format!(
        "{}|{variant}|lanes={}|opt={}",
        serde_json::to_string(&canon).expect("campaign config serializes"),
        cfg.lanes.max(1),
        cfg.opt,
    )
}

/// The one fault-campaign loop: splits `campaign.faults` into
/// deterministic chunks and runs them through [`journal::run_chunked`] —
/// in memory without `durability.dir`, journaled and resumable with it.
/// `variant` tells apart, in the journal's config hash, campaigns whose
/// faults come from different plans.
fn run_chunked_campaign(
    campaign: &Campaign,
    variant: &str,
    durability: &DurabilityOptions,
) -> Result<(ResilienceReport, RunStats), CampaignError> {
    let _span = tensorlib_obs::span("sim.resilience_campaign");
    let Campaign { cfg, faults, .. } = campaign;
    // A chunk is a multiple of the lane width, so lane-group boundaries
    // inside a chunk coincide with those of one pass over the whole list.
    let lanes = cfg.lanes.max(1);
    let chunk_size = durability.chunk_size.unwrap_or(16 * lanes).max(1);
    let total_chunks = faults.len().div_ceil(chunk_size);
    let hash = journal::config_hash(
        "faults",
        chunk_size,
        total_chunks,
        &canonical_config(cfg, variant),
    );
    let count = |outcomes: &Vec<FaultOutcome>| count_fault_outcomes(outcomes);
    let (chunks, stats) =
        journal::run_chunked(durability, hash, total_chunks, "faults", count, |i| {
            let lo = i * chunk_size;
            let hi = (lo + chunk_size).min(faults.len());
            drive_campaign(campaign, &faults[lo..hi], durability)
        })?;
    Ok((campaign.report(chunks.into_iter().flatten().collect()), stats))
}

/// [`run_gemm_campaign`] with campaign durability: the fault list is split
/// into deterministic chunks, completed chunks are journaled to
/// `durability.dir` (when set) and replayed on resume, the per-chunk
/// watchdog demotes late faults to [`FaultClass::Degraded`], panicking
/// faults are retried then quarantined, and an interrupt drains the
/// in-flight chunk before returning a partial (but valid and resumable)
/// report with `stats.interrupted` set.
///
/// # Errors
///
/// Everything [`run_gemm_campaign`] returns, plus
/// [`CampaignError::Journal`] for journal open/append/decode failures —
/// including a `--resume` directory whose journal belongs to a different
/// config.
pub fn run_gemm_campaign_durable(
    cfg: &CampaignConfig,
    durability: &DurabilityOptions,
) -> Result<(ResilienceReport, RunStats), CampaignError> {
    let campaign = setup_gemm(cfg, FaultPlan::Sampled)?;
    run_chunked_campaign(&campaign, "sampled", durability)
}

/// [`run_accumulator_sweep`] with campaign durability; see
/// [`run_gemm_campaign_durable`].
///
/// # Errors
///
/// Same as [`run_gemm_campaign_durable`].
pub fn run_accumulator_sweep_durable(
    cfg: &CampaignConfig,
    bits: u32,
    cycle: u64,
    durability: &DurabilityOptions,
) -> Result<(ResilienceReport, RunStats), CampaignError> {
    let campaign = setup_gemm(cfg, FaultPlan::AccumulatorSweep { bits, cycle })?;
    let variant = format!("sweep|bits={bits}|cycle={cycle}");
    run_chunked_campaign(&campaign, &variant, durability)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_gemm_round_matches_reference() {
        // The campaign's own golden cross-check is the assertion: any skew
        // or drain mis-protocol fails here with GoldenMismatch.
        let report = run_gemm_campaign(&CampaignConfig {
            faults: 4,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert_eq!(report.faults, 4);
        assert_eq!(report.masked + report.detected + report.sdc, 4);
    }

    #[test]
    fn unhardened_campaign_detects_nothing() {
        let report = run_gemm_campaign(&CampaignConfig {
            faults: 24,
            seed: 3,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert_eq!(report.detected, 0, "no detectors on an unhardened design");
        assert_eq!(report.hardening, "none");
    }

    #[test]
    fn campaigns_are_seed_deterministic_across_worker_counts() {
        let mk = |workers| {
            run_gemm_campaign(&CampaignConfig {
                faults: 16,
                seed: 11,
                hardening: Hardening::full(),
                workers,
                ..CampaignConfig::default()
            })
            .unwrap()
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one, four, "worker count must not change the report");
        assert_ne!(
            one,
            run_gemm_campaign(&CampaignConfig {
                faults: 16,
                seed: 12,
                hardening: Hardening::full(),
                workers: 1,
                ..CampaignConfig::default()
            })
            .unwrap(),
            "different seed, different campaign"
        );
    }

    #[test]
    fn batched_campaign_report_is_byte_identical_to_scalar() {
        let mk = |lanes| {
            run_gemm_campaign(&CampaignConfig {
                faults: 20,
                seed: 11,
                hardening: Hardening::full(),
                lanes,
                ..CampaignConfig::default()
            })
            .unwrap()
        };
        let scalar = serde_json::to_string(&mk(1)).unwrap();
        // A lane width that divides the fault count, one that doesn't, and
        // one wider than the whole campaign.
        for lanes in [4, 7, 64] {
            let batched = serde_json::to_string(&mk(lanes)).unwrap();
            assert_eq!(scalar, batched, "lanes={lanes} changed the report bytes");
        }
    }

    #[test]
    fn abft_detects_every_accumulator_flip() {
        let cfg = CampaignConfig {
            hardening: Hardening {
                tmr_ctrl: false,
                parity_banks: false,
                abft: true,
            },
            ..CampaignConfig::default()
        };
        // Every accumulator × bits 0..8, flipped mid-accumulation: the
        // injected delta persists into the swap capture, so ABFT checksums
        // must catch every single one — zero silent corruptions.
        let report = run_accumulator_sweep(&cfg, 8, 6).unwrap();
        assert_eq!(report.faults, 16 * 8);
        assert_eq!(report.sdc, 0, "ABFT missed a corrupting accumulator flip");
        assert_eq!(report.masked, 0, "an accumulator flip cannot be masked");
        assert_eq!(report.detected, 16 * 8);
        assert_eq!(report.detection_coverage, 1.0);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tl_resil_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn chunk_geometry_does_not_change_the_report() {
        let cfg = CampaignConfig {
            faults: 19,
            seed: 11,
            hardening: Hardening::full(),
            ..CampaignConfig::default()
        };
        let default = serde_json::to_string(&run_gemm_campaign(&cfg).unwrap()).unwrap();
        for lanes in [1, 4] {
            for chunk_size in [Some(1), Some(4), Some(7), Some(19), Some(64), None] {
                let opts = DurabilityOptions {
                    chunk_size,
                    ..DurabilityOptions::default()
                };
                let (report, stats) =
                    run_gemm_campaign_durable(&CampaignConfig { lanes, ..cfg }, &opts).unwrap();
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    default,
                    "lanes={lanes} chunk_size={chunk_size:?}"
                );
                let size = chunk_size.unwrap_or(16 * lanes);
                assert_eq!(stats.chunks_total, 19usize.div_ceil(size));
                // An in-memory run executes every chunk and replays none.
                assert_eq!(stats.chunks_executed, stats.chunks_total);
                assert_eq!(stats.chunks_replayed, 0);
                assert!(!stats.interrupted);
            }
        }
    }

    #[test]
    fn durable_journaled_resume_is_byte_identical() {
        let dir = tmpdir("resume");
        let cfg = CampaignConfig {
            faults: 12,
            seed: 5,
            ..CampaignConfig::default()
        };
        let clean = serde_json::to_string(&run_gemm_campaign(&cfg).unwrap()).unwrap();
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            chunk_size: Some(3),
            ..DurabilityOptions::default()
        };
        // Full journaled run: byte-identical to the in-memory run.
        let (full, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), clean);
        assert_eq!(stats.chunks_executed, 4);
        // Simulate a crash mid-append: tear 10 bytes off the journal tail
        // (inside the last record). Resume must replay the intact prefix,
        // recompute only the torn chunk, and reproduce the report exactly.
        let path = dir.join(crate::journal::JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let (resumed, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), clean);
        assert_eq!(stats.chunks_replayed, 3);
        assert_eq!(stats.chunks_executed, 1);
        assert!(!stats.interrupted);
        // An interrupt latched before the run starts yields a valid empty
        // partial report (fresh dir so nothing replays).
        let dir2 = tmpdir("resume2");
        let opts = DurabilityOptions {
            dir: Some(dir2.clone()),
            chunk_size: Some(3),
            interrupt: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true))),
            ..DurabilityOptions::default()
        };
        let (partial, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert!(stats.interrupted);
        assert_eq!(partial.faults, 0);
        assert_eq!(partial.detection_coverage, 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn durable_resume_rejects_config_drift() {
        let dir = tmpdir("drift");
        let cfg = CampaignConfig {
            faults: 6,
            seed: 5,
            ..CampaignConfig::default()
        };
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            chunk_size: Some(3),
            ..DurabilityOptions::default()
        };
        run_gemm_campaign_durable(&cfg, &opts).unwrap();
        let drifted = CampaignConfig { seed: 6, ..cfg };
        let err = run_gemm_campaign_durable(&drifted, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Journal(JournalError::ConfigMismatch { .. })
            ),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watchdog_degrades_instead_of_stalling() {
        let cfg = CampaignConfig {
            faults: 6,
            seed: 3,
            ..CampaignConfig::default()
        };
        let opts = DurabilityOptions {
            chunk_timeout: Some(std::time::Duration::ZERO),
            chunk_size: Some(3),
            ..DurabilityOptions::default()
        };
        let (report, _) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(report.degraded, 6, "zero budget degrades every fault");
        assert_eq!(report.faults, 6);
        assert_eq!(report.masked + report.detected + report.sdc, 0);
        assert_eq!(report.errors, 0, "degraded faults are not errors");
        assert_eq!(report.detection_coverage, 1.0);
    }

    #[test]
    fn panicking_chunk_is_quarantined_and_campaign_completes() {
        let cfg = CampaignConfig {
            faults: 8,
            seed: 3,
            ..CampaignConfig::default()
        };
        // Every sampled fault target lives under the top module; chaos on
        // the full campaign would quarantine everything, so aim at one
        // sampled target by running a clean campaign first.
        let clean = run_gemm_campaign(&cfg).unwrap();
        let victim = clean.outcomes[2].fault.target.clone();
        let opts = DurabilityOptions {
            chunk_size: Some(4),
            panic_retries: 1,
            chaos_panic_targets: vec![victim.clone()],
            ..DurabilityOptions::default()
        };
        let (report, _) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(report.faults, 8, "campaign completed despite the panic");
        let quarantined: Vec<&FaultOutcome> = report
            .outcomes
            .iter()
            .filter(|o| {
                o.error
                    .as_deref()
                    .is_some_and(|e| e.contains("quarantined after 2 attempts"))
            })
            .collect();
        assert!(!quarantined.is_empty(), "panic captured as typed outcome");
        for o in &quarantined {
            assert!(o.error.as_deref().unwrap().contains("chaos hook tripped"));
        }
        // Non-chaos outcomes match the clean run exactly (substring match,
        // mirroring the chaos hook's own matching).
        for (clean_o, durable_o) in clean.outcomes.iter().zip(&report.outcomes) {
            if !durable_o.fault.target.contains(&victim) {
                assert_eq!(clean_o, durable_o);
            }
        }
    }

    #[test]
    fn generic_ramp_campaign_runs_and_classifies_everything() {
        let report = run_campaign(&CampaignConfig {
            faults: 12,
            seed: 5,
            hardening: Hardening {
                tmr_ctrl: true,
                parity_banks: true,
                abft: false,
            },
            workers: 2,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert_eq!(report.faults, 12);
        assert_eq!(
            report.masked + report.detected + report.sdc,
            12,
            "every fault classified"
        );
        assert!(report.hardening.contains("tmr"));
    }
}
