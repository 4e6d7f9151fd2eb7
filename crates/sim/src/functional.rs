//! Bit-exact functional simulation of a generated design.
//!
//! Every (tile, cycle, PE) slot recovers its loop point through the inverse
//! STT (`x = T⁻¹·[p; t]`), performs one multiply-accumulate on real data, and
//! the accumulated output is compared against the reference executor. This
//! closes the loop on the whole analysis chain: if the dataflow
//! classification, tiling, or transformation math were wrong, outputs would
//! disagree or coverage would be incomplete.
//!
//! The simulator also measures *true* scratchpad traffic: a tensor element is
//! charged to the cycle of its first use inside a tile (later uses ride the
//! reuse structure — stationary registers, systolic forwarding, or multicast
//! fan-out), which is exactly the paper's premise that reuse saves bandwidth.
//!
//! A slot costs a few integer operations and no allocation: the slot →
//! loop-point map is solved once per run with
//! [`Stt::unapply`](tensorlib_dataflow::Stt::unapply), each access is
//! lowered to flat-offset weights `Σ_d stride_d·A_d`, first use is an
//! epoch-stamped array per input, and a sweep shares one [`Golden`]
//! ([`simulate_against`]). DESIGN.md §7 has the details.

use std::borrow::Borrow;
use std::fmt;

use serde::Serialize;
use tensorlib_hw::design::AcceleratorDesign;
use tensorlib_ir::{DenseTensor, Kernel};

/// Functional-simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design was generated for a different kernel.
    KernelMismatch {
        /// Kernel the design was generated for.
        design_kernel: String,
        /// Kernel passed to the simulator.
        given_kernel: String,
    },
    /// A selected loop of the design is longer than the kernel's loop: the
    /// design would step outside the kernel's tensors.
    ExtentMismatch {
        /// The selected iterator.
        iterator: String,
        /// Its extent in the design.
        design: u64,
        /// Its extent in the kernel (`0` if the kernel has no such loop).
        kernel: u64,
    },
    /// Not every loop point was executed exactly once.
    CoverageGap {
        /// MACs the kernel requires.
        expected: u64,
        /// MACs the simulation executed.
        executed: u64,
    },
    /// The simulated output tensor disagrees with the reference executor.
    OutputMismatch {
        /// First mismatching index.
        index: Vec<i64>,
        /// Reference value.
        expected: i64,
        /// Simulated value.
        got: i64,
    },
    /// The run would exceed the caller's per-design-point cycle budget.
    CycleBudgetExceeded {
        /// The budget the caller set.
        budget: u64,
        /// Cycles the full run would have needed.
        needed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::KernelMismatch {
                design_kernel,
                given_kernel,
            } => write!(
                f,
                "design was generated for kernel {design_kernel:?}, simulated with {given_kernel:?}"
            ),
            SimError::ExtentMismatch {
                iterator,
                design,
                kernel,
            } => write!(
                f,
                "design maps loop {iterator:?} over {design} iterations, kernel has {kernel}"
            ),
            SimError::CoverageGap { expected, executed } => write!(
                f,
                "space-time mapping executed {executed} MACs, kernel requires {expected}"
            ),
            SimError::OutputMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "output mismatch at {index:?}: reference {expected}, simulated {got}"
            ),
            SimError::CycleBudgetExceeded { budget, needed } => write!(
                f,
                "design point needs {needed} simulated cycles, over the {budget}-cycle budget"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Statistics from a successful functional run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FunctionalRun {
    /// `true` — returned only when the output matched the reference.
    pub matches_reference: bool,
    /// Compute cycles simulated (tiles × tile time extent).
    pub cycles_simulated: u64,
    /// Multiply-accumulates executed.
    pub macs_executed: u64,
    /// Mean scratchpad words delivered per compute cycle (first-use
    /// accounting, inputs only).
    pub avg_new_words_per_cycle: f64,
    /// Worst single-cycle scratchpad demand in words.
    pub peak_new_words_per_cycle: u64,
    /// Fraction of (PE × cycle) slots that performed work.
    pub pe_busy_fraction: f64,
}

/// The data a design is checked against: deterministic random inputs for a
/// seed and the [`Kernel::execute_reference`] output on them. It depends
/// only on `(kernel, seed)`, so one golden serves every design of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    inputs: Vec<DenseTensor>,
    reference: DenseTensor,
}

impl Golden {
    /// Draws the inputs for `seed` and runs the reference executor on them.
    pub fn new(kernel: &Kernel, seed: u64) -> Golden {
        let inputs = kernel.random_inputs(seed);
        let reference = kernel
            .execute_reference(&inputs)
            .expect("self-generated inputs fit the kernel");
        Golden { inputs, reference }
    }
}

/// Runs the design on random inputs (deterministic per `seed`) and checks the
/// result against [`Kernel::execute_reference`].
///
/// # Errors
///
/// Returns [`SimError`] if the kernel mismatches the design, the mapping
/// leaves loop points uncovered (or covers them twice), or any output element
/// differs from the reference.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn simulate(
    design: &AcceleratorDesign,
    kernel: &Kernel,
    seed: u64,
) -> Result<FunctionalRun, SimError> {
    simulate_budgeted(design, kernel, seed, None)
}

/// [`simulate`] with an optional per-run cycle budget. The total simulated
/// cycle count is known before any work happens (outer points × tiles ×
/// tile time extent), so an over-budget run fails fast with
/// [`SimError::CycleBudgetExceeded`] instead of grinding through it.
///
/// # Errors
///
/// Everything [`simulate`] returns, plus [`SimError::CycleBudgetExceeded`].
pub fn simulate_budgeted(
    design: &AcceleratorDesign,
    kernel: &Kernel,
    seed: u64,
    cycle_budget: Option<u64>,
) -> Result<FunctionalRun, SimError> {
    simulate_against(design, kernel, cycle_budget, || Golden::new(kernel, seed))
}

/// [`simulate_budgeted`] against a [`Golden`] for `kernel` (owned or
/// borrowed), asked for only once the kernel, extents and budget have
/// passed, so a sweep can share one built lazily and a rejected design never
/// pays for one.
///
/// # Errors
///
/// Everything [`simulate_budgeted`] returns, and [`SimError::ExtentMismatch`].
pub fn simulate_against<G: Borrow<Golden>>(
    design: &AcceleratorDesign,
    kernel: &Kernel,
    cycle_budget: Option<u64>,
    golden: impl FnOnce() -> G,
) -> Result<FunctionalRun, SimError> {
    let _span = tensorlib_obs::span("sim.functional");
    tensorlib_obs::counter_add("sim.functional_runs", 1);
    let dataflow = design.dataflow();
    if dataflow.kernel_name() != kernel.name() {
        return Err(SimError::KernelMismatch {
            design_kernel: dataflow.kernel_name().to_string(),
            given_kernel: kernel.name().to_string(),
        });
    }
    let sel_idx = dataflow.selection().indices();
    let sel_ext = dataflow.selected_extents();
    let loop_ext = kernel.loop_nest().extents();
    for d in 0..3 {
        let have = loop_ext.get(sel_idx[d]).copied().unwrap_or(0);
        if have < sel_ext[d] {
            return Err(SimError::ExtentMismatch {
                iterator: dataflow.selection().names()[d].to_string(),
                design: sel_ext[d],
                kernel: have,
            });
        }
    }
    let tiling = *design.tiling();
    let tile_ext = tiling.tile_extents.map(|e| e as i64);
    // One mixed-radix counter over (outer point, tile), last digit fastest.
    let outer_idx = dataflow.selection().outer_indices(kernel);
    let radix: Vec<u64> = outer_idx
        .iter()
        .map(|&i| loop_ext[i])
        .chain(tiling.tile_counts)
        .collect();
    let steps = radix.iter().fold(1u64, |n, &r| n.saturating_mul(r));
    let cycles_simulated = steps.saturating_mul(tiling.t_extent);
    if let Some(budget) = cycle_budget {
        if cycles_simulated > budget {
            return Err(SimError::CycleBudgetExceeded {
                budget,
                needed: cycles_simulated,
            });
        }
    }
    let golden = golden();
    let golden: &Golden = golden.borrow();
    let array = design.config().array;

    // Flat-offset weights per loop, `Σ_d stride_d·A_d`, of every input and
    // then the output; and the base-offset step of every counter digit.
    let decls = kernel.inputs().into_iter().chain([kernel.output()]);
    let weights: Vec<Vec<i64>> = decls
        .zip(golden.inputs.iter().chain([&golden.reference]))
        .map(|(decl, t)| {
            let rows = decl.access().exprs().iter().zip(t.strides());
            let w = |l: usize| rows.clone().map(|(e, &s)| e.coeffs()[l] * s as i64).sum();
            (0..loop_ext.len()).map(w).collect()
        })
        .collect();
    let sel_w: Vec<[i64; 3]> = weights.iter().map(|w| sel_idx.map(|l| w[l])).collect();
    let digit_w: Vec<Vec<i64>> = (weights.iter().zip(&sel_w))
        .map(|(w, sw)| {
            let tile_w = (0..3).map(|d| sw[d] * tile_ext[d]);
            outer_idx.iter().map(|&i| w[i]).chain(tile_w).collect()
        })
        .collect();

    // The in-tile slots, solved once (the map is the same for every tile):
    // cycle, tile-local loop point and each access's offset from the tile
    // base, in cycle-major, row-major PE order.
    let (so, to) = (tiling.space_offset, tiling.t_offset);
    let (mut slots, mut local) = (Vec::new(), Vec::new());
    for t in 0..tiling.t_extent as i64 {
        for r in 0..array.rows as i64 {
            for c in 0..array.cols as i64 {
                let st = [r - so[0], c - so[1], t - to];
                let Some(x) = dataflow.stt().unapply(&st) else {
                    continue;
                };
                if (0..3).all(|d| x[d] >= 0 && x[d] < tile_ext[d]) {
                    slots.push((t as usize, x));
                    let offset = |w: &[i64; 3]| w[0] * x[0] + w[1] * x[1] + w[2] * x[2];
                    local.extend(sel_w.iter().map(offset));
                }
            }
        }
    }

    let n_acc = weights.len();
    let mut out = vec![0i64; golden.reference.len()];
    let mut stamps: Vec<Vec<u64>> = golden.inputs.iter().map(|t| vec![0; t.len()]).collect();
    let (mut base, mut digits) = (vec![0i64; n_acc], vec![0u64; radix.len()]);
    let (mut macs_executed, mut total_new_words, mut peak_new_words) = (0u64, 0u64, 0u64);
    for epoch in 1..=steps {
        for (b, dw) in base.iter_mut().zip(&digit_w) {
            *b = dw.iter().zip(&digits).map(|(&w, &v)| w * v as i64).sum();
        }
        // Edge tiles stop at the loop bound.
        let tile = &digits[outer_idx.len()..];
        let limit: [i64; 3] =
            std::array::from_fn(|d| sel_ext[d] as i64 - tile[d] as i64 * tile_ext[d]);
        // Slots come in cycle order, so each cycle's first uses are
        // contiguous: `run` counts the current cycle's.
        let (mut cycle, mut run) = (usize::MAX, 0u64);
        for (&(t, x), loc) in slots.iter().zip(local.chunks_exact(n_acc)) {
            if x[0] >= limit[0] || x[1] >= limit[1] || x[2] >= limit[2] {
                continue;
            }
            let mut prod = 1i64;
            for (((input, stamp), &b), &l) in
                golden.inputs.iter().zip(&mut stamps).zip(&base).zip(loc)
            {
                let off = (b + l) as usize;
                prod *= input.as_slice()[off];
                if stamp[off] != epoch {
                    stamp[off] = epoch;
                    if t != cycle {
                        peak_new_words = peak_new_words.max(run);
                        (cycle, run) = (t, 0);
                    }
                    run += 1;
                    total_new_words += 1;
                }
            }
            out[(base[n_acc - 1] + loc[n_acc - 1]) as usize] += prod;
            macs_executed += 1;
        }
        peak_new_words = peak_new_words.max(run);
        for (digit, &r) in digits.iter_mut().zip(&radix).rev() {
            *digit += 1;
            if *digit < r {
                break;
            }
            *digit = 0;
        }
    }

    if macs_executed != kernel.macs() {
        return Err(SimError::CoverageGap {
            expected: kernel.macs(),
            executed: macs_executed,
        });
    }
    // Bit-exact comparison.
    let reference = golden.reference.as_slice();
    if let Some(i) = (0..out.len()).find(|&i| out[i] != reference[i]) {
        // Recover the multi-dimensional index for the report.
        let dims = golden.reference.dims();
        let (mut rem, mut index) = (i, vec![0i64; dims.len()]);
        for d in (0..dims.len()).rev() {
            index[d] = (rem % dims[d]) as i64;
            rem /= dims[d];
        }
        return Err(SimError::OutputMismatch {
            index,
            expected: reference[i],
            got: out[i],
        });
    }

    let pe_slots = cycles_simulated * array.pes() as u64;
    Ok(FunctionalRun {
        matches_reference: true,
        cycles_simulated,
        macs_executed,
        avg_new_words_per_cycle: total_new_words as f64 / cycles_simulated.max(1) as f64,
        peak_new_words_per_cycle: peak_new_words,
        pe_busy_fraction: macs_executed as f64 / pe_slots.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    use tensorlib_hw::design::{generate, HwConfig};
    use tensorlib_hw::ArrayConfig;
    use tensorlib_ir::workloads;

    fn small_cfg() -> HwConfig {
        HwConfig {
            array: ArrayConfig::square(4),
            ..HwConfig::default()
        }
    }

    fn check(kernel: &Kernel, sel: [&str; 3], rows: [[i64; 3]; 3]) -> FunctionalRun {
        let selection = LoopSelection::by_names(kernel, sel).unwrap();
        let df = Dataflow::analyze(kernel, selection, Stt::from_rows(rows).unwrap()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        simulate(&design, kernel, 7).unwrap_or_else(|e| panic!("{}: {e}", df.name()))
    }

    #[test]
    fn gemm_output_stationary_matches() {
        let k = workloads::gemm(8, 8, 8);
        let run = check(&k, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
        assert_eq!(run.macs_executed, 512);
        assert!(run.pe_busy_fraction > 0.0);
    }

    #[test]
    fn gemm_weight_stationary_matches() {
        let k = workloads::gemm(8, 8, 8);
        let run = check(&k, ["m", "n", "k"], [[0, 0, 1], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn gemm_multicast_matches() {
        let k = workloads::gemm(8, 8, 8);
        let run = check(&k, ["m", "n", "k"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn conv2d_kcx_matches() {
        let k = workloads::conv2d(4, 4, 6, 6, 3, 3);
        let run = check(&k, ["k", "c", "x"], [[1, 0, 0], [0, 0, 1], [1, 1, 1]]);
        assert!(run.matches_reference);
        assert_eq!(run.macs_executed, k.macs());
    }

    #[test]
    fn mttkrp_matches() {
        let k = workloads::mttkrp(6, 6, 6, 6);
        let run = check(&k, ["i", "j", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn ttmc_matches() {
        let k = workloads::ttmc(4, 4, 4, 4, 4);
        let run = check(&k, ["i", "j", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn depthwise_matches() {
        let k = workloads::depthwise_conv(4, 6, 6, 3, 3);
        let run = check(&k, ["k", "y", "x"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn batched_gemv_unicast_matches_and_is_traffic_heavy() {
        let k = workloads::batched_gemv(6, 6, 6);
        let run = check(&k, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
        // Unicast A: most uses are first uses.
        assert!(run.avg_new_words_per_cycle > 1.0);
    }

    #[test]
    fn reuse_cuts_traffic_versus_unicast() {
        // GEMM (full reuse) must deliver far fewer words per MAC than
        // Batched-GEMV (unicast A) on the same selection and STT.
        let g = workloads::gemm(8, 8, 8);
        let b = workloads::batched_gemv(8, 8, 8);
        let run_g = check(&g, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let run_b = check(&b, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let per_mac_g = run_g.avg_new_words_per_cycle * run_g.cycles_simulated as f64
            / run_g.macs_executed as f64;
        let per_mac_b = run_b.avg_new_words_per_cycle * run_b.cycles_simulated as f64
            / run_b.macs_executed as f64;
        assert!(
            per_mac_g < per_mac_b,
            "gemm {per_mac_g} words/MAC !< batched-gemv {per_mac_b}"
        );
    }

    #[test]
    fn kernel_mismatch_is_reported() {
        let k = workloads::gemm(8, 8, 8);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        let other = workloads::mttkrp(4, 4, 4, 4);
        assert!(matches!(
            simulate(&design, &other, 0).unwrap_err(),
            SimError::KernelMismatch { .. }
        ));
    }

    #[test]
    fn cycle_budget_is_enforced_before_any_work() {
        let k = workloads::gemm(8, 8, 8);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        // The unbudgeted run reports the true cycle count; a budget one
        // cycle below it must fail with exactly that count.
        let full = simulate_budgeted(&design, &k, 7, None).unwrap();
        let err = simulate_budgeted(&design, &k, 7, Some(full.cycles_simulated - 1)).unwrap_err();
        assert_eq!(
            err,
            SimError::CycleBudgetExceeded {
                budget: full.cycles_simulated - 1,
                needed: full.cycles_simulated
            }
        );
        assert!(err.to_string().contains("cycle budget"));
        // An exactly sufficient budget succeeds.
        let ok = simulate_budgeted(&design, &k, 7, Some(full.cycles_simulated)).unwrap();
        assert_eq!(ok, full);
    }

    #[test]
    fn shared_golden_matches_a_golden_per_call() {
        let k = workloads::conv2d(3, 2, 5, 4, 3, 2);
        let golden = Golden::new(&k, 9);
        for (sel, rows) in [
            (["k", "y", "p"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
            (["k", "c", "x"], [[1, 0, 0], [0, -1, 0], [0, -2, -2]]),
        ] {
            let selection = LoopSelection::by_names(&k, sel).unwrap();
            let df = Dataflow::analyze(&k, selection, Stt::from_rows(rows).unwrap()).unwrap();
            let design = generate(&df, &small_cfg()).unwrap();
            let shared = simulate_against(&design, &k, None, || &golden);
            assert_eq!(shared, simulate(&design, &k, 9));
            assert!(shared.unwrap().matches_reference);
        }
    }

    #[test]
    fn rejections_never_build_a_golden() {
        let k = workloads::gemm(8, 8, 8);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        let never = || -> &Golden { panic!("golden built for a rejected design") };
        let other = workloads::mttkrp(4, 4, 4, 4);
        assert!(matches!(
            simulate_against(&design, &other, None, never),
            Err(SimError::KernelMismatch { .. })
        ));
        let shrunk = workloads::gemm(8, 8, 4);
        assert_eq!(
            simulate_against(&design, &shrunk, None, never),
            Err(SimError::ExtentMismatch {
                iterator: "k".into(),
                design: 8,
                kernel: 4
            })
        );
        assert!(matches!(
            simulate_against(&design, &k, Some(1), never),
            Err(SimError::CycleBudgetExceeded { budget: 1, .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = SimError::CoverageGap {
            expected: 10,
            executed: 9,
        };
        assert!(e.to_string().contains("9"));
        let o = SimError::OutputMismatch {
            index: vec![1, 2],
            expected: 5,
            got: 6,
        };
        assert!(o.to_string().contains("[1, 2]"));
    }
}
