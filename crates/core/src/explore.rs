//! Design-space exploration: sweep every dataflow, score each design.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use tensorlib_cost::{asic_cost, Activity, AsicReport};
use tensorlib_dataflow::dse::{design_space, DseConfig};
use tensorlib_dataflow::Dataflow;
use tensorlib_hw::design::{generate, HwConfig};
use tensorlib_hw::fault::Hardening;
use tensorlib_ir::Kernel;
use tensorlib_sim::functional::{self, Golden};
use tensorlib_sim::journal::{self, DurabilityOptions, ItemOutcome, JournalError, RunStats};
use tensorlib_sim::{perf, SimConfig, SimError, SimReport};

/// One scored point of the design space.
#[derive(Debug, Clone, Serialize)]
pub struct DesignPoint {
    /// Paper-style dataflow name (e.g. `KCX-SST`), with the hardening
    /// suffix appended for hardened variants (e.g. `KCX-SST+tmr+par`).
    pub name: String,
    /// Per-tensor letters.
    pub letters: String,
    /// The analyzed dataflow.
    pub dataflow: Dataflow,
    /// Fault-tolerance hardening this variant carries (its area/power
    /// overhead is already priced into [`DesignPoint::asic`]).
    pub hardening: Hardening,
    /// Cycle/throughput estimate.
    pub performance: SimReport,
    /// ASIC area/power at synthesis activity.
    pub asic: AsicReport,
}

/// Options for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Enumeration configuration (selections, coefficient range, caps).
    pub dse: DseConfig,
    /// Hardware configuration for every candidate.
    pub hw: HwConfig,
    /// System configuration for the cycle model.
    pub sim: SimConfig,
    /// Evaluate power at synthesis-style full activity (`true`, the Figure 6
    /// methodology) or at the workload's achieved utilization (`false`).
    pub synthesis_activity: bool,
    /// Worker threads used to score candidates (`0` = one per available
    /// core, `1` = fully serial). Results are identical for every worker
    /// count — see [`explore`].
    pub workers: usize,
    /// Per-design-point simulated-cycle budget. A candidate whose estimated
    /// runtime exceeds this becomes an [`PointError::BudgetExceeded`] in
    /// [`ExploreOutcome::errors`] instead of a scored point; with
    /// [`ExploreOptions::functional_verify`] the same ceiling gates the
    /// functional simulation up front (see
    /// [`tensorlib_sim::simulate_budgeted`]). `None` disables the check.
    pub cycle_budget: Option<u64>,
    /// Additionally run the bit-exact functional simulator on every scored
    /// candidate (budgeted by [`ExploreOptions::cycle_budget`]). Expensive —
    /// off by default; sweeps that want end-to-end confidence opt in.
    pub functional_verify: bool,
    /// Hardening variants to score for every candidate dataflow. Empty (the
    /// default) scores only [`ExploreOptions::hw`]'s own hardening; a
    /// non-empty list expands the design space to candidates × variants, so
    /// resilience shows up as explicit points (with their priced overhead)
    /// in the Figure 6-style scatter.
    pub hardening_variants: Vec<Hardening>,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            dse: DseConfig::default(),
            hw: HwConfig::default(),
            sim: SimConfig::default(),
            synthesis_activity: true,
            workers: 0,
            cycle_budget: Some(1_000_000_000),
            functional_verify: false,
            hardening_variants: Vec::new(),
        }
    }
}

/// Why one candidate produced no [`DesignPoint`] (enumeration order is
/// preserved in [`ExploreOutcome::errors`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointError {
    /// Scoring the candidate panicked; the panic was caught and isolated, so
    /// the rest of the sweep is unaffected.
    Panicked {
        /// Dataflow name of the candidate.
        name: String,
        /// The panic message.
        message: String,
    },
    /// The candidate's estimated (or functionally required) cycle count
    /// blew the per-point budget.
    BudgetExceeded {
        /// Dataflow name of the candidate.
        name: String,
        /// The configured ceiling.
        budget: u64,
        /// Cycles the point would need.
        needed: u64,
    },
    /// The functional simulator rejected the candidate (coverage gap or
    /// output mismatch — a generator bug surfaced by verification).
    Functional {
        /// Dataflow name of the candidate.
        name: String,
        /// The simulator's error, rendered.
        message: String,
    },
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Panicked { name, message } => {
                write!(f, "{name}: scoring panicked: {message}")
            }
            PointError::BudgetExceeded {
                name,
                budget,
                needed,
            } => write!(
                f,
                "{name}: needs {needed} cycles, over the {budget}-cycle point budget"
            ),
            PointError::Functional { name, message } => {
                write!(f, "{name}: functional verification failed: {message}")
            }
        }
    }
}

/// Everything a sweep produced: scored points plus typed per-candidate
/// failures. [`explore`] returns just the points; callers that must account
/// for every candidate (CI sweeps, reports) use [`explore_outcome`].
#[derive(Debug, Clone, Serialize)]
pub struct ExploreOutcome {
    /// Scored designs, sorted by total cycles (fastest first).
    pub points: Vec<DesignPoint>,
    /// Candidates that failed to score, in enumeration order.
    pub errors: Vec<PointError>,
    /// Candidates skipped because their reuse pattern is not implementable
    /// by the hardware templates (expected, not an error).
    pub skipped: usize,
}

/// Enumerates the kernel's dataflow design space, generates hardware for
/// every *implementable* candidate (non-neighbour reuse vectors are skipped —
/// the same designs the paper's templates cannot wire), and scores each with
/// the cycle model and the ASIC cost model.
///
/// Candidates are scored on a scoped worker pool
/// ([`ExploreOptions::workers`] threads; the work is embarrassingly
/// parallel). The parallel map preserves enumeration order before the final
/// stable sort, so the returned points — names, ordering, every field — are
/// identical for any worker count.
///
/// Results are sorted by total cycles, fastest first.
///
/// # Examples
///
/// ```
/// use tensorlib::explore::{explore, ExploreOptions};
/// use tensorlib_ir::workloads;
///
/// let points = explore(&workloads::gemm(32, 32, 32), &ExploreOptions::default());
/// assert!(points.len() > 100);
/// // The fastest design beats the slowest by a wide margin.
/// let best = &points.first().unwrap().performance;
/// let worst = &points.last().unwrap().performance;
/// assert!(best.total_cycles < worst.total_cycles);
/// ```
pub fn explore(kernel: &Kernel, opts: &ExploreOptions) -> Vec<DesignPoint> {
    explore_outcome(kernel, opts).points
}

/// [`explore`], but with full accounting: every enumerated candidate ends up
/// either in `points`, in `errors` (typed — panic, budget, functional), or
/// in the `skipped` count. A panicking or budget-blowing candidate never
/// takes the sweep down and never steals another candidate's slot: scoring
/// runs under the campaign policy's per-point panic isolation (the scorer
/// [`explore_durable`] uses too) and both `points` and `errors` are
/// byte-identical for any worker count.
pub fn explore_outcome(kernel: &Kernel, opts: &ExploreOptions) -> ExploreOutcome {
    let _span = tensorlib_obs::span("explore");
    let candidates = design_space(kernel, &opts.dse);
    let jobs = explore_jobs(&candidates, opts);
    tensorlib_obs::counter_add("explore.jobs", jobs.len() as u64);
    // One pass over every job rather than 32-candidate chunks: nothing is
    // journaled here, and a single parallel map keeps every worker busy to
    // the end of the sweep. Without a chunk timeout nothing is degraded.
    let golden = OnceLock::new();
    let (mut outcome, _) = score_jobs(kernel, opts, &jobs, &DurabilityOptions::default(), &golden);
    tensorlib_obs::counter_add("explore.points", outcome.points.len() as u64);
    tensorlib_obs::counter_add("explore.errors", outcome.errors.len() as u64);
    tensorlib_obs::counter_add("explore.skipped", outcome.skipped as u64);
    // `points` is in enumeration order, so this stable sort reproduces the
    // serial implementation's output exactly, ties and all.
    outcome.points.sort_by(|a, b| {
        a.performance
            .total_cycles
            .cmp(&b.performance.total_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    outcome
}

/// Every (candidate, hardening variant) job of a sweep, in enumeration
/// order. An empty variant list means "whatever the base config carries";
/// otherwise every candidate is scored once per hardening variant.
fn explore_jobs<'a>(
    candidates: &'a [Dataflow],
    opts: &ExploreOptions,
) -> Vec<(&'a Dataflow, Hardening)> {
    let variants: Vec<Hardening> = if opts.hardening_variants.is_empty() {
        vec![opts.hw.hardening]
    } else {
        opts.hardening_variants.clone()
    };
    candidates
        .iter()
        .flat_map(|df| variants.iter().map(move |&h| (df, h)))
        .collect()
}

/// The one scorer behind [`explore_outcome`] and [`explore_durable`]: runs
/// [`score`] over `jobs` under the campaign policy of
/// [`tensorlib_sim::journal::run_items`] (watchdog, bounded serial retry,
/// panic quarantine, chaos hook). Returns the jobs split by fate, each list
/// in enumeration order for any worker count (`points` unsorted), plus the
/// count of jobs the chunk watchdog demoted before they started.
///
/// `golden` is the sweep's one functional-verification [`Golden`]: empty
/// until the first candidate that passes the cycle budget fills it, and
/// never filled when `functional_verify` is off.
fn score_jobs(
    kernel: &Kernel,
    opts: &ExploreOptions,
    jobs: &[(&Dataflow, Hardening)],
    durability: &DurabilityOptions,
    golden: &OnceLock<Golden>,
) -> (ExploreOutcome, u64) {
    // Scoring a candidate (hardware generation + cycle model + cost model)
    // is orders of magnitude heavier than the queue bookkeeping, so workers
    // take one job at a time: a 32-job sweep chunk then ends with at most
    // one job still running while the other workers wait.
    let outcomes = journal::run_items(
        jobs,
        opts.workers,
        1,
        durability,
        |&(df, h)| vec![point_name(df, h)],
        |&(df, h)| {
            let _point_span = tensorlib_obs::span("explore.point");
            let t0 = tensorlib_obs::is_recording().then(tensorlib_obs::now_micros);
            let result = score(kernel, opts, df, h, golden);
            if let Some(t0) = t0 {
                tensorlib_obs::hist_record(
                    "explore.point_us",
                    tensorlib_obs::now_micros().saturating_sub(t0),
                );
            }
            result
        },
    );
    let mut out = ExploreOutcome {
        points: Vec::new(),
        errors: Vec::new(),
        skipped: 0,
    };
    let mut degraded = 0;
    for (o, &(df, h)) in outcomes.into_iter().zip(jobs) {
        match o {
            ItemOutcome::Done(Some(Ok(point))) => out.points.push(point),
            ItemOutcome::Done(Some(Err(e))) => out.errors.push(e),
            ItemOutcome::Done(None) => out.skipped += 1,
            ItemOutcome::Degraded => degraded += 1,
            ItemOutcome::Quarantined { attempts, message } => {
                out.errors.push(PointError::Panicked {
                    name: point_name(df, h),
                    message: journal::quarantine_detail(attempts, message),
                })
            }
        }
    }
    (out, degraded)
}

/// The display name of one (dataflow, hardening) design point.
fn point_name(df: &Dataflow, hardening: Hardening) -> String {
    format!("{}{}", df.name(), hardening.suffix())
}

/// Scores one candidate dataflow under one hardening variant: `None` if its
/// reuse pattern is not implementable by the hardware templates (an expected
/// skip), `Some(Err)` for typed per-point failures.
fn score(
    kernel: &Kernel,
    opts: &ExploreOptions,
    df: &Dataflow,
    hardening: Hardening,
    golden: &OnceLock<Golden>,
) -> Option<Result<DesignPoint, PointError>> {
    let hw = HwConfig {
        hardening,
        ..opts.hw
    };
    let design = generate(df, &hw).ok()?;
    let performance = perf::estimate(&design, kernel, &opts.sim);
    if let Some(budget) = opts.cycle_budget {
        if performance.total_cycles > budget {
            return Some(Err(PointError::BudgetExceeded {
                name: point_name(df, hardening),
                budget,
                needed: performance.total_cycles,
            }));
        }
    }
    if opts.functional_verify {
        let golden = || golden.get_or_init(|| Golden::new(kernel, 42));
        match functional::simulate_against(&design, kernel, opts.cycle_budget, golden) {
            Ok(_) => {}
            Err(SimError::CycleBudgetExceeded { budget, needed }) => {
                return Some(Err(PointError::BudgetExceeded {
                    name: point_name(df, hardening),
                    budget,
                    needed,
                }))
            }
            Err(e) => {
                return Some(Err(PointError::Functional {
                    name: point_name(df, hardening),
                    message: e.to_string(),
                }))
            }
        }
    }
    let activity = if opts.synthesis_activity {
        Activity {
            utilization: 1.0,
            freq_mhz: opts.sim.freq_mhz,
        }
    } else {
        Activity {
            utilization: performance.normalized_perf,
            freq_mhz: opts.sim.freq_mhz,
        }
    };
    let asic = asic_cost(&design, &activity);
    Some(Ok(DesignPoint {
        name: point_name(df, hardening),
        letters: df.letters(),
        dataflow: df.clone(),
        hardening,
        performance,
        asic,
    }))
}

/// Returns the Pareto frontier of `points` in the (power, area) plane —
/// the view Figure 6 plots.
pub fn pareto_power_area(points: &[DesignPoint]) -> Vec<&DesignPoint> {
    let mut frontier: Vec<&DesignPoint> = Vec::new();
    for p in points {
        let dominated = points.iter().any(|q| {
            (q.asic.power_mw < p.asic.power_mw && q.asic.area_mm2 <= p.asic.area_mm2)
                || (q.asic.power_mw <= p.asic.power_mw && q.asic.area_mm2 < p.asic.area_mm2)
        });
        if !dominated {
            frontier.push(p);
        }
    }
    frontier
}

// ---------------------------------------------------------------------------
// Chunked (journaled or in-memory) sweeps
// ---------------------------------------------------------------------------

/// One scored design point, reduced to the fields a sweep report plots.
/// This is what chunked sweeps journal per candidate: unlike
/// [`DesignPoint`] it round-trips losslessly through its derived decoder, and
/// it is all the Figure 6-style scatter needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreRow {
    /// Paper-style dataflow name with hardening suffix.
    pub name: String,
    /// Per-tensor letters.
    pub letters: String,
    /// Estimated end-to-end cycles.
    pub total_cycles: u64,
    /// Achieved / peak throughput.
    pub normalized_perf: f64,
    /// ASIC power at the configured activity.
    pub power_mw: f64,
    /// ASIC area.
    pub area_mm2: f64,
}

impl ExploreRow {
    fn from_point(p: &DesignPoint) -> ExploreRow {
        ExploreRow {
            name: p.name.clone(),
            letters: p.letters.clone(),
            total_cycles: p.performance.total_cycles,
            normalized_perf: p.performance.normalized_perf,
            power_mw: p.asic.power_mw,
            area_mm2: p.asic.area_mm2,
        }
    }
}

/// A chunked sweep's full accounting: reduced rows plus typed failures,
/// demotions, and skips. Byte-stable for a given kernel and options
/// regardless of worker count, chunking, or crash/resume history. Each
/// journal chunk's result is one of these over the chunk's candidates,
/// with rows still in enumeration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreSweepReport {
    /// Scored candidates, sorted by total cycles (fastest first, ties by
    /// name) — the same order [`explore`] returns points in.
    pub rows: Vec<ExploreRow>,
    /// Candidates that failed to score, in enumeration order.
    pub errors: Vec<PointError>,
    /// Candidates whose reuse pattern the templates cannot wire (expected).
    pub skipped: u64,
    /// Candidates demoted by the per-chunk watchdog before they could run.
    pub degraded: u64,
}

/// Scores one chunk of jobs with the shared scorer, reducing each point to
/// its [`ExploreRow`].
fn run_explore_chunk(
    kernel: &Kernel,
    opts: &ExploreOptions,
    jobs: &[(&Dataflow, Hardening)],
    durability: &DurabilityOptions,
    golden: &OnceLock<Golden>,
) -> ExploreSweepReport {
    let (scored, degraded) = score_jobs(kernel, opts, jobs, durability, golden);
    ExploreSweepReport {
        rows: scored.points.iter().map(ExploreRow::from_point).collect(),
        errors: scored.errors,
        skipped: scored.skipped as u64,
        degraded,
    }
}

/// Canonical config string for journal keying: the kernel and every option
/// that shapes the result, with the worker count zeroed (resuming with a
/// different `--workers` is legal — sweeps are worker-count-independent).
fn canonical_explore_config(kernel: &Kernel, opts: &ExploreOptions, jobs: usize) -> String {
    let canon = format!(
        "{:?}",
        ExploreOptions {
            workers: 0,
            ..opts.clone()
        }
    );
    // Existing journals were keyed with a since-removed, always-empty
    // `chaos_panic_names` field last in the options; keep it in the string
    // so their config hashes still match.
    let canon = match canon.strip_suffix(" }") {
        Some(fields) => format!("{fields}, chaos_panic_names: [] }}"),
        None => canon,
    };
    format!("{kernel:?}|{canon}|jobs={jobs}")
}

/// Telemetry outcome counter for one explore chunk: scored designs, point
/// errors (with the `panicked` subset), skipped candidates, and degraded
/// (watchdog-demoted) candidates.
fn count_explore_outcomes(chunk: &ExploreSweepReport) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::from([
        ("designs".to_string(), chunk.rows.len() as u64),
        ("errors".to_string(), chunk.errors.len() as u64),
        ("skipped".to_string(), chunk.skipped),
        ("degraded".to_string(), chunk.degraded),
    ]);
    let panicked = chunk
        .errors
        .iter()
        .filter(|e| matches!(e, PointError::Panicked { .. }))
        .count() as u64;
    if panicked > 0 {
        counts.insert("panicked".to_string(), panicked);
    }
    counts
}

/// [`explore_outcome`] through the chunked campaign runner: the enumerated
/// candidate list is split into deterministic 32-candidate chunks,
/// completed chunks are journaled to `durability.dir` (when set) and
/// replayed on resume, the per-chunk watchdog demotes late candidates to
/// the `degraded` tally, panicking candidates are retried then quarantined
/// as [`PointError::Panicked`], and an interrupt drains the in-flight chunk
/// before returning a partial (but valid and resumable) report with
/// `stats.interrupted` set. Points are reduced to [`ExploreRow`]s; rows,
/// errors and skips match [`explore_outcome`]'s for any chunk size.
///
/// # Errors
///
/// [`JournalError`] for journal open/append/decode failures — including a
/// `--resume` directory whose journal belongs to a different config.
pub fn explore_durable(
    kernel: &Kernel,
    opts: &ExploreOptions,
    durability: &DurabilityOptions,
) -> Result<(ExploreSweepReport, RunStats), JournalError> {
    let _span = tensorlib_obs::span("explore.durable");
    let candidates = design_space(kernel, &opts.dse);
    let jobs = explore_jobs(&candidates, opts);
    let chunk_size = durability.chunk_size.unwrap_or(32).max(1);
    let total = jobs.len().div_ceil(chunk_size);
    let hash = journal::config_hash(
        "explore",
        chunk_size,
        total,
        &canonical_explore_config(kernel, opts, jobs.len()),
    );
    let golden = OnceLock::new();
    let (chunks, stats) = journal::run_chunked(
        durability,
        hash,
        total,
        "explore",
        count_explore_outcomes,
        |i| {
            let lo = i * chunk_size;
            let hi = (lo + chunk_size).min(jobs.len());
            run_explore_chunk(kernel, opts, &jobs[lo..hi], durability, &golden)
        },
    )?;
    let mut report = ExploreSweepReport {
        rows: Vec::new(),
        errors: Vec::new(),
        skipped: 0,
        degraded: 0,
    };
    for chunk in chunks {
        report.rows.extend(chunk.rows);
        report.errors.extend(chunk.errors);
        report.skipped += chunk.skipped;
        report.degraded += chunk.degraded;
    }
    // Chunks concatenate in enumeration order; this stable sort reproduces
    // `explore_outcome`'s fastest-first ordering exactly, ties and all.
    report
        .rows
        .sort_by(|a, b| a.total_cycles.cmp(&b.total_cycles).then_with(|| a.name.cmp(&b.name)));
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_ir::workloads;

    #[test]
    fn explore_gemm_covers_classics() {
        let points = explore(&workloads::gemm(32, 32, 32), &ExploreOptions::default());
        assert!(points.len() > 100);
        for want in ["SST", "STS", "MTM"] {
            assert!(
                points.iter().any(|p| p.letters == want),
                "missing {want} in explored space"
            );
        }
        // Sorted fastest-first.
        for w in points.windows(2) {
            assert!(w[0].performance.total_cycles <= w[1].performance.total_cycles);
        }
    }

    #[test]
    fn pareto_frontier_is_nonempty_and_undominated() {
        let points = explore(&workloads::gemm(16, 16, 16), &ExploreOptions::default());
        let frontier = pareto_power_area(&points);
        assert!(!frontier.is_empty());
        assert!(frontier.len() < points.len());
        for f in &frontier {
            for q in &points {
                assert!(
                    !(q.asic.power_mw < f.asic.power_mw && q.asic.area_mm2 < f.asic.area_mm2),
                    "{} dominates frontier point {}",
                    q.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn hardening_variants_are_explorable_design_points() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions {
            hardening_variants: vec![Hardening::none(), Hardening::full()],
            ..ExploreOptions::default()
        };
        let points = explore(&k, &opts);
        let base = points
            .iter()
            .find(|p| p.letters == "SST" && !p.hardening.is_any())
            .expect("unhardened SST point");
        let hard = points
            .iter()
            .find(|p| p.name == format!("{}+tmr+par+abft", base.name))
            .expect("hardened twin of the SST point");
        // The hardened variant pays real area/power for its protection and
        // is a distinct scatter point with the same schedule.
        assert!(hard.asic.area_mm2 > base.asic.area_mm2);
        assert!(hard.asic.power_mw > base.asic.power_mw);
        assert_eq!(
            hard.performance.total_cycles,
            base.performance.total_cycles
        );
        assert!(hard.hardening.abft);
        // Exactly two variants per implementable candidate.
        assert_eq!(points.len() % 2, 0);
        assert_eq!(
            points.iter().filter(|p| p.hardening.is_any()).count(),
            points.len() / 2
        );
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tl_explore_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// [`explore_outcome`]'s result reduced the way sweep reports are.
    fn reduce(o: ExploreOutcome) -> ExploreSweepReport {
        ExploreSweepReport {
            rows: o.points.iter().map(ExploreRow::from_point).collect(),
            errors: o.errors,
            skipped: o.skipped as u64,
            degraded: 0,
        }
    }

    #[test]
    fn chunk_geometry_does_not_change_the_sweep() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let single = serde_json::to_string(&reduce(explore_outcome(&k, &opts))).unwrap();
        for chunk_size in [Some(1), Some(7), None] {
            let durability = DurabilityOptions {
                chunk_size,
                ..DurabilityOptions::default()
            };
            let (report, stats) = explore_durable(&k, &opts, &durability).unwrap();
            assert!(!report.rows.is_empty());
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                single,
                "{chunk_size:?}"
            );
            // An in-memory run executes every chunk and replays none.
            assert_eq!(stats.chunks_executed, stats.chunks_total, "{chunk_size:?}");
            assert_eq!(stats.chunks_replayed, 0, "{chunk_size:?}");
        }
    }

    #[test]
    fn config_hash_matches_existing_journals() {
        // The hash `explore gemm:16,16,8 --resume` journals carry in their
        // header; a change here orphans every such journal.
        let k = workloads::gemm(16, 16, 8);
        let canon = canonical_explore_config(&k, &ExploreOptions::default(), 870);
        assert_eq!(
            journal::config_hash("explore", 32, 28, &canon),
            0x04f2_1a83_a4d7_79a5
        );
    }

    #[test]
    fn durable_journaled_resume_is_byte_identical() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let single = serde_json::to_string(&reduce(explore_outcome(&k, &opts))).unwrap();
        let dir = tmpdir("resume");
        let durability = DurabilityOptions {
            chunk_size: Some(25),
            ..DurabilityOptions::with_dir(&dir)
        };
        let (full, stats) = explore_durable(&k, &opts, &durability).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), single);
        assert!(stats.chunks_total >= 2, "sweep should span several chunks");
        assert_eq!(stats.chunks_executed, stats.chunks_total);

        // Simulate a crash mid-append: tear bytes off the journal tail, then
        // resume. The torn record re-executes; everything else replays.
        let journal_path = dir.join(journal::JOURNAL_FILE);
        let bytes = std::fs::read(&journal_path).unwrap();
        std::fs::write(&journal_path, &bytes[..bytes.len() - 7]).unwrap();
        let (resumed, stats) = explore_durable(&k, &opts, &durability).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), single);
        assert_eq!(stats.chunks_executed, 1, "only the torn chunk re-runs");
        assert_eq!(stats.chunks_replayed, stats.chunks_total - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_watchdog_degrades_instead_of_stalling() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let durability = DurabilityOptions {
            chunk_timeout: Some(std::time::Duration::ZERO),
            chunk_size: Some(64),
            ..DurabilityOptions::default()
        };
        let (report, _) = explore_durable(&k, &opts, &durability).unwrap();
        assert!(report.rows.is_empty());
        assert!(report.errors.is_empty());
        assert_eq!(report.skipped, 0);
        assert!(report.degraded > 0, "expired deadline degrades every candidate");
    }

    #[test]
    fn durable_panicking_candidate_is_quarantined() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let clean = reduce(explore_outcome(&k, &opts));
        let victim = clean.rows[0].name.clone();
        let durability = DurabilityOptions {
            panic_retries: 1,
            chaos_panic_targets: vec![victim.clone()],
            ..DurabilityOptions::default()
        };
        let (report, _) = explore_durable(&k, &opts, &durability).unwrap();
        let quarantined: Vec<&PointError> = report
            .errors
            .iter()
            .filter(|e| matches!(e, PointError::Panicked { .. }))
            .collect();
        assert!(!quarantined.is_empty());
        let PointError::Panicked { name, message } = quarantined[0] else {
            unreachable!()
        };
        assert!(name.contains(&victim));
        assert!(message.contains("quarantined after 2 attempts"));
        assert!(message.contains("chaos hook tripped"));
        // The sweep completed around the quarantine: every non-chaos row
        // matches the clean run.
        let surviving: Vec<&ExploreRow> = report
            .rows
            .iter()
            .filter(|r| !r.name.contains(&victim))
            .collect();
        let clean_rows: Vec<&ExploreRow> = clean
            .rows
            .iter()
            .filter(|r| !r.name.contains(&victim))
            .collect();
        assert_eq!(surviving, clean_rows);
    }

    #[test]
    fn workload_activity_lowers_power() {
        let k = workloads::batched_gemv(16, 16, 16);
        let synth = explore(&k, &ExploreOptions::default());
        let real = explore(
            &k,
            &ExploreOptions {
                synthesis_activity: false,
                ..ExploreOptions::default()
            },
        );
        // Batched-GEMV stalls on bandwidth, so achieved-utilization power is
        // lower than synthesis-activity power for the same design.
        let s = synth.iter().find(|p| p.letters == "UTS");
        let r = real.iter().find(|p| p.letters == "UTS");
        if let (Some(s), Some(r)) = (s, r) {
            assert!(r.asic.power_mw < s.asic.power_mw);
        }
    }
}
