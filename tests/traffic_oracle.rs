//! An independent oracle for the functional executor's scratchpad traffic.
//!
//! The executor walks (cycle, PE) slots and maps each back to its loop point
//! through the inverse STT, stamping each input element the first time a
//! tile touches it. This oracle goes the other way, in the relation-centric
//! style of TENET: every loop point of the kernel is mapped *forward* with
//! [`Stt::apply`] into its tile's local time, an input element's first use in
//! a tile is the minimum cycle over all of its uses there, and those first
//! uses are binned per cycle. Total and peak per-cycle counts must equal the
//! executor's `avg_new_words_per_cycle` (bit for bit) and
//! `peak_new_words_per_cycle`.

use std::collections::{BTreeMap, HashMap};

use tensorlib::dataflow::dse::{design_space, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::hw::design::{generate, AcceleratorDesign, HwConfig};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::{workloads, Kernel};
use tensorlib::sim::functional;

/// `(avg_new_words_per_cycle, peak_new_words_per_cycle)` by forward mapping.
fn oracle(design: &AcceleratorDesign, kernel: &Kernel) -> (f64, u64) {
    let df = design.dataflow();
    let tiling = design.tiling();
    let sel = df.selection().indices();
    let outer = df.selection().outer_indices(kernel);
    let tile_ext = tiling.tile_extents.map(|e| e as i64);
    let inputs = kernel.inputs();
    // (outer point, tile) → (input, element index) → first-use cycle.
    type FirstUse = HashMap<(usize, Vec<i64>), i64>;
    let mut tiles: BTreeMap<(Vec<i64>, [i64; 3]), FirstUse> = BTreeMap::new();
    for point in kernel.loop_nest().points() {
        let x = sel.map(|i| point[i]);
        let tile = [0, 1, 2].map(|d| x[d] / tile_ext[d]);
        let local = [0, 1, 2].map(|d| x[d] % tile_ext[d]);
        let t = df.stt().apply(&local)[2] + tiling.t_offset;
        assert!(
            (0..tiling.t_extent as i64).contains(&t),
            "cycle {t} outside the tile"
        );
        let outer_point = outer.iter().map(|&i| point[i]).collect();
        let first = tiles.entry((outer_point, tile)).or_default();
        for (k, decl) in inputs.iter().enumerate() {
            let at = first.entry((k, decl.access().eval(&point))).or_insert(t);
            *at = (*at).min(t);
        }
    }
    let (mut total, mut peak) = (0u64, 0u64);
    for first in tiles.values() {
        let mut per_cycle = vec![0u64; tiling.t_extent as usize];
        for &t in first.values() {
            per_cycle[t as usize] += 1;
        }
        total += per_cycle.iter().sum::<u64>();
        peak = peak.max(per_cycle.iter().copied().max().unwrap_or(0));
    }
    let outer_points: u64 = outer
        .iter()
        .map(|&i| kernel.loop_nest().iters()[i].extent())
        .product();
    let cycles = outer_points * tiling.total_tiles() * tiling.t_extent;
    (total as f64 / cycles.max(1) as f64, peak)
}

fn check(design: &AcceleratorDesign, kernel: &Kernel) {
    let name = design.dataflow().name();
    let run = functional::simulate(design, kernel, 3).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (avg, peak) = oracle(design, kernel);
    assert_eq!(
        run.avg_new_words_per_cycle.to_bits(),
        avg.to_bits(),
        "{name}: executor avg {} vs oracle {avg}",
        run.avg_new_words_per_cycle
    );
    assert_eq!(run.peak_new_words_per_cycle, peak, "{name}: peak");
}

fn design(
    kernel: &Kernel,
    sel: [&str; 3],
    rows: [[i64; 3]; 3],
    array: ArrayConfig,
) -> AcceleratorDesign {
    let selection = LoopSelection::by_names(kernel, sel).unwrap();
    let stt = Stt::from_rows(rows).unwrap();
    let df = Dataflow::analyze(kernel, selection, stt).unwrap();
    let hw = HwConfig {
        array,
        ..HwConfig::default()
    };
    generate(&df, &hw).unwrap_or_else(|e| panic!("{}: {e}", df.name()))
}

#[test]
fn traffic_matches_the_forward_oracle_on_named_dataflows() {
    let gemm = workloads::gemm(6, 5, 4);
    let conv = workloads::conv2d(3, 2, 5, 4, 3, 2);
    let cases = [
        // Output-stationary, weight-stationary and multicast GEMM.
        (&gemm, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
        (&gemm, ["m", "n", "k"], [[0, 0, 1], [0, 1, 0], [1, 1, 1]]),
        (&gemm, ["m", "n", "k"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        // Non-unimodular (det 2): half the slots have no preimage.
        (&gemm, ["m", "n", "k"], [[1, 0, 0], [0, -1, 0], [0, -2, -2]]),
        // Conv2D with the `y+p` window inside the selection ...
        (&conv, ["k", "y", "p"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
        (&conv, ["k", "y", "p"], [[1, 0, 0], [0, 0, -1], [0, -2, -2]]),
        // ... and the `x+q` window split between a selected and an outer loop.
        (&conv, ["k", "c", "x"], [[1, 0, 0], [0, 0, 1], [1, 1, 1]]),
        (&conv, ["k", "c", "x"], [[1, 0, 0], [0, -1, 0], [0, -2, -2]]),
    ];
    for array in [ArrayConfig::square(4), ArrayConfig::square(2)] {
        for &(kernel, sel, rows) in &cases {
            check(&design(kernel, sel, rows, array), kernel);
        }
    }
}

#[test]
fn traffic_matches_the_forward_oracle_across_design_spaces() {
    let hw = HwConfig {
        array: ArrayConfig { rows: 3, cols: 5 },
        ..HwConfig::default()
    };
    for kernel in [
        workloads::gemm(6, 5, 4),
        workloads::depthwise_conv(3, 4, 3, 3, 2),
        workloads::mttkrp(4, 3, 3, 2),
    ] {
        let space = design_space(&kernel, &DseConfig::default());
        let mut checked = 0;
        for df in space.iter().step_by(37) {
            if let Ok(design) = generate(df, &hw) {
                check(&design, &kernel);
                checked += 1;
            }
        }
        assert!(checked >= 10, "{}: only {checked} designs", kernel.name());
    }
}
