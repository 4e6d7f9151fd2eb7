//! Pins the functional executor's results across the design space.
//!
//! Every generated design of a grid — the six Table II kernels at small,
//! tile-misaligned sizes; every `design_space` dataflow, unimodular at
//! `max_coeff` 1 and non-unimodular at `max_coeff` 2; arrays 4×4, 3×5 and
//! 2×2 — is run through [`functional::simulate`] (and every seventh through
//! an over-budget [`functional::simulate_budgeted`]). Each
//! `Result<FunctionalRun, SimError>` is rendered exactly (f64 fields as raw
//! bits) and the whole sequence is folded into one FNV-1a digest. The
//! recorded digests were taken from the original per-MAC executor (Cramer's
//! rule, loop-point vectors, hashed first-use table), so any change in an
//! output, cycle count, MAC count, traffic figure or error shows up here.
//!
//! The subset runs in every `cargo test`; the full grid is `#[ignore]`d and
//! runs in release from `scripts/ci.sh`:
//!
//! ```text
//! cargo test --release -q --test functional_equivalence -- --ignored
//! ```

use tensorlib::dataflow::dse::{design_space, enumerate_stt, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection};
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::{workloads, Kernel};
use tensorlib::sim::functional::{self, FunctionalRun, SimError};
use tensorlib::sim::journal::fnv1a64;

/// The six Table II kernel families at sizes no array tile divides evenly,
/// each with the loop selection its dataflows are enumerated over.
fn kernels() -> Vec<(Kernel, [&'static str; 3])> {
    vec![
        (workloads::gemm(6, 5, 4), ["m", "n", "k"]),
        (workloads::batched_gemv(5, 4, 3), ["m", "n", "k"]),
        (workloads::conv2d(3, 2, 4, 3, 3, 2), ["k", "y", "p"]),
        (workloads::depthwise_conv(3, 4, 3, 3, 2), ["k", "y", "p"]),
        (workloads::mttkrp(4, 3, 3, 2), ["i", "j", "k"]),
        (workloads::ttmc(3, 3, 2, 2, 2), ["i", "j", "l"]),
    ]
}

fn arrays() -> [ArrayConfig; 3] {
    [
        ArrayConfig::square(4),
        ArrayConfig { rows: 3, cols: 5 },
        ArrayConfig::square(2),
    ]
}

/// The non-unimodular sweep: `max_coeff` 2 over one selection, capped
/// (its 5⁹ matrices take seconds to classify, per selection).
fn wide_config(sel: [&str; 3]) -> DseConfig {
    DseConfig {
        max_coeff: 2,
        require_unimodular: false,
        selections: Some(vec![sel.map(str::to_string)]),
        max_designs: 500,
        ..DseConfig::default()
    }
}

/// The dataflows of one kernel. The full grid is every `design_space`
/// dataflow of the selection, unimodular at `max_coeff` 1 and
/// non-unimodular at `max_coeff` 2. The subset skips the (slow)
/// classification sweep and analyzes every `stride`-th enumerated matrix
/// of both configurations instead.
fn dataflows(kernel: &Kernel, sel: [&str; 3], stride: Option<usize>) -> Vec<Dataflow> {
    let unimodular = DseConfig {
        selections: Some(vec![sel.map(str::to_string)]),
        ..DseConfig::default()
    };
    let wide = wide_config(sel);
    let Some(stride) = stride else {
        let mut out = design_space(kernel, &unimodular);
        out.extend(design_space(kernel, &wide));
        return out;
    };
    let selection = LoopSelection::by_names(kernel, sel).expect("grid selections are valid");
    enumerate_stt(&unimodular)
        .into_iter()
        .step_by(stride)
        .chain(enumerate_stt(&wide).into_iter().step_by(stride * 97))
        .filter_map(|stt| Dataflow::analyze(kernel, selection.clone(), stt).ok())
        .collect()
}

/// An exact rendering of one run: f64 fields as bits, errors via `Debug`.
fn fingerprint(r: &Result<FunctionalRun, SimError>) -> String {
    match r {
        Ok(run) => format!(
            "ok {} {} {} {:016x} {} {:016x}",
            run.matches_reference,
            run.cycles_simulated,
            run.macs_executed,
            run.avg_new_words_per_cycle.to_bits(),
            run.peak_new_words_per_cycle,
            run.pe_busy_fraction.to_bits()
        ),
        Err(e) => format!("err {e:?}"),
    }
}

/// Runs every generated design of the grid on every array and returns the
/// design count and the digest of all fingerprints in order.
fn digest(stride: Option<usize>) -> (usize, u64) {
    let mut log = String::new();
    let mut designs = 0usize;
    for (kernel, sel) in kernels() {
        let space = dataflows(&kernel, sel, stride);
        for array in arrays() {
            let hw = HwConfig {
                array,
                ..HwConfig::default()
            };
            for df in &space {
                let Ok(design) = generate(df, &hw) else {
                    continue;
                };
                let seed = designs as u64 % 5;
                let run = functional::simulate(&design, &kernel, seed);
                log.push_str(&format!(
                    "{} {}x{} {}\n",
                    df.name(),
                    array.rows,
                    array.cols,
                    fingerprint(&run)
                ));
                if designs.is_multiple_of(7) {
                    if let Ok(run) = &run {
                        let budget = Some(run.cycles_simulated - 1);
                        let over = functional::simulate_budgeted(&design, &kernel, seed, budget);
                        log.push_str(&format!("  budget {}\n", fingerprint(&over)));
                    }
                }
                designs += 1;
            }
        }
    }
    (designs, fnv1a64(log.as_bytes()))
}

#[test]
fn executor_subset_matches_recorded_digest() {
    assert_eq!(digest(Some(83)), (1956, 0x5686_d9d6_cb46_cc43));
}

#[test]
#[ignore = "full grid; run in release: cargo test --release --test functional_equivalence -- --ignored"]
fn executor_full_grid_matches_recorded_digest() {
    assert_eq!(digest(None), (14_541, 0x13b0_baf5_5726_5431));
}
