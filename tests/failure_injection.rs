//! Failure injection: every guard in the stack must actually fire.
//!
//! These tests construct deliberately broken inputs at each layer — singular
//! STT matrices, malformed kernels, unwireable reuse vectors, corrupted
//! netlists, bad elaborations, wrong simulator pairings — and assert the
//! library reports them as typed errors rather than producing wrong hardware
//! silently.

use tensorlib::dataflow::{Dataflow, DataflowError, LoopSelection, Stt};
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::interp::{elaborate, ElaborateError};
use tensorlib::hw::netlist::{Expr, Module, NetlistError};
use tensorlib::hw::{ArrayConfig, HwError};
use tensorlib::ir::{workloads, Kernel, KernelError, LoopNest, TensorRole};
use tensorlib::sim::{functional, SimError};

#[test]
fn singular_stt_is_rejected() {
    for rows in [
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    ] {
        assert_eq!(Stt::from_rows(rows).unwrap_err(), DataflowError::SingularStt);
    }
}

#[test]
fn malformed_kernels_are_rejected() {
    use tensorlib::ir::{AccessMap, AffineExpr, TensorDecl};
    let nest = LoopNest::new(vec![("i", 2), ("j", 2), ("k", 2)]);
    let decl = |name: &str, role| {
        TensorDecl::new(
            name,
            role,
            AccessMap::new(vec![AffineExpr::var(&nest, "i")]),
        )
    };
    // No inputs.
    assert_eq!(
        Kernel::new("x", nest.clone(), vec![decl("C", TensorRole::Output)]).unwrap_err(),
        KernelError::MissingInputs
    );
    // Two outputs.
    assert_eq!(
        Kernel::new(
            "x",
            nest.clone(),
            vec![
                decl("A", TensorRole::Input),
                decl("C", TensorRole::Output),
                decl("D", TensorRole::Output),
            ]
        )
        .unwrap_err(),
        KernelError::MultipleOutputs
    );
}

#[test]
fn unwireable_reuse_vectors_are_a_generation_error() {
    // Build an STT whose reuse step is (2, 1): T·null must land outside the
    // neighbour set. A[m,k] has null (0,1,0); pick T columns so T·(0,1,0) =
    // (2, 1, 0) — needs a max_coeff-2 matrix.
    let gemm = workloads::gemm(8, 8, 8);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let stt = Stt::from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
    let df = Dataflow::analyze(&gemm, sel, stt).unwrap();
    let err = generate(&df, &HwConfig::default()).unwrap_err();
    assert!(matches!(err, HwError::NonNeighborReuse { .. }), "{err}");
}

#[test]
fn corrupted_netlists_fail_validation() {
    // Double driver.
    let mut m = Module::new("bad");
    let a = m.input("a", 4);
    let y = m.output("y", 4);
    m.assign(y, Expr::net(a));
    m.assign(y, Expr::lit(0, 4));
    assert!(matches!(
        m.validate().unwrap_err(),
        NetlistError::MultipleDrivers { .. }
    ));

    // Width mismatch through an instance boundary is caught at design level;
    // at module level widths are checked per assignment.
    let mut m = Module::new("bad2");
    let a = m.input("a", 4);
    let y = m.output("y", 8);
    m.assign(y, Expr::net(a));
    assert!(matches!(
        m.validate().unwrap_err(),
        NetlistError::WidthMismatch { .. }
    ));

    // Combinational loop.
    let mut m = Module::new("bad3");
    let x = m.net("x", 1);
    let y = m.net("y", 1);
    m.assign(x, Expr::net(y));
    m.assign(y, Expr::net(x));
    assert!(matches!(
        m.validate().unwrap_err(),
        NetlistError::CombinationalCycle { .. }
    ));
}

#[test]
fn undriven_read_nets_are_caught_at_design_level() {
    // A valid accelerator whose top module we corrupt by adding a read of an
    // undriven net.
    let gemm = workloads::gemm(8, 8, 8);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
    let design = generate(
        &df,
        &HwConfig {
            array: ArrayConfig::square(2),
            ..HwConfig::default()
        },
    )
    .unwrap();
    design.validate().unwrap();
    // The design type is immutable from outside — rebuild a module list with
    // a corrupted clone and validate it through a fresh module check.
    let mut corrupted = design.module(design.top()).unwrap().clone();
    let ghost = corrupted.net("ghost", 8);
    let sink = corrupted.net("sink", 8);
    corrupted.assign(sink, Expr::net(ghost));
    // Module-level validate doesn't chase drivers of internal nets (that is
    // the design-level census), but the ghost read must fail there:
    let mut flat_check_passed = corrupted.validate().is_ok();
    // Elaborating a standalone corrupted module and interpreting it is
    // allowed (undriven = constant zero), but the design-level census in
    // AcceleratorDesign::validate flags it. Emulate that census here.
    let mut drivers = vec![0u32; corrupted.nets().len()];
    for (id, dir) in corrupted.ports() {
        if *dir == tensorlib::hw::netlist::Dir::Input {
            drivers[*id] += 1;
        }
    }
    for (t, _) in corrupted.assigns() {
        drivers[*t] += 1;
    }
    for r in corrupted.regs() {
        drivers[r.target] += 1;
    }
    flat_check_passed &= drivers[ghost] == 0;
    assert!(flat_check_passed, "ghost net must have no driver");
}

#[test]
fn elaboration_rejects_unknown_modules_and_ports() {
    let mut top = Module::new("top");
    let x = top.input("x", 8);
    top.instance("missing", "u0", vec![("a".into(), x)]);
    assert!(matches!(
        elaborate(&[top], &[], "top").unwrap_err(),
        ElaborateError::UnknownModule(_)
    ));
    assert!(matches!(
        elaborate(&[], &[], "nothing").unwrap_err(),
        ElaborateError::UnknownModule(_)
    ));
}

#[test]
fn simulator_rejects_mismatched_kernels() {
    let gemm = workloads::gemm(8, 8, 8);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
    let design = generate(
        &df,
        &HwConfig {
            array: ArrayConfig::square(4),
            ..HwConfig::default()
        },
    )
    .unwrap();
    let other = workloads::ttmc(3, 3, 3, 3, 3);
    assert!(matches!(
        functional::simulate(&design, &other, 0).unwrap_err(),
        SimError::KernelMismatch { .. }
    ));
    // Same kernel name, different sizes: coverage gap must trip.
    let resized = workloads::gemm(10, 10, 10);
    match functional::simulate(&design, &resized, 0) {
        Err(SimError::CoverageGap { expected, executed }) => {
            assert_ne!(expected, executed);
        }
        other => panic!("expected a coverage gap, got {other:?}"),
    }
    // Same kernel name, smaller sizes: the design's loops would run past the
    // kernel's tensors, so it is refused before any work rather than reading
    // or writing the wrong elements.
    let shrunk = workloads::gemm(6, 6, 6);
    let err = functional::simulate(&design, &shrunk, 0).unwrap_err();
    assert_eq!(
        err,
        SimError::ExtentMismatch {
            iterator: "m".into(),
            design: 8,
            kernel: 6,
        }
    );
    assert!(err.to_string().contains("\"m\""), "{err}");
}

#[test]
fn selection_and_name_errors_are_typed() {
    let gemm = workloads::gemm(8, 8, 8);
    assert!(matches!(
        LoopSelection::by_names(&gemm, ["m", "n", "zz"]).unwrap_err(),
        DataflowError::UnknownLoop(_)
    ));
    assert!(matches!(
        tensorlib::dataflow::dse::find_named(
            &gemm,
            "MNK-UUU", // GEMM admits no all-unicast dataflow
            &tensorlib::dataflow::dse::DseConfig::default()
        )
        .unwrap_err(),
        DataflowError::BadName(_)
    ));
}
