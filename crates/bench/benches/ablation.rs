//! Benches for the design-choice ablations called out in `DESIGN.md` §5:
//! t-norm, conflict threshold and label cap of the fuzzy engine,
//! measured on the Fig. 7 soft-fault scenario.
//!
//! Runs with `cargo bench --features bench` on the dependency-free
//! harness in `flames_bench::harness`.

use flames_atms::TNorm;
use flames_bench::harness::Harness;
use flames_circuit::circuits::three_stage;
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure_all;
use flames_circuit::Fault;
use flames_core::propagation::PropagatorConfig;
use flames_core::{Diagnoser, DiagnoserConfig};
use std::hint::black_box;

fn session_run(diagnoser: &Diagnoser, readings: &[flames_fuzzy::FuzzyInterval]) -> usize {
    let mut s = diagnoser.session();
    s.measure("Vs", readings[0]).unwrap();
    s.measure("V1", readings[1]).unwrap();
    s.measure("V2", readings[2]).unwrap();
    s.propagate();
    s.refined_candidates(16, 0.5).len()
}

fn main() {
    let ts = three_stage(0.02);
    let board = inject_faults(&ts.netlist, &[(ts.r2, Fault::Param(14_000.0))]).unwrap();
    let readings = measure_all(&board, &[ts.vs, ts.v1, ts.v2], 0.05).unwrap();

    let h = Harness::new("ablation");
    let variants: Vec<(&str, PropagatorConfig)> = vec![
        ("tnorm_min", PropagatorConfig::default()),
        (
            "tnorm_product",
            PropagatorConfig {
                tnorm: TNorm::Product,
                ..Default::default()
            },
        ),
        (
            "conflict_threshold_0.10",
            PropagatorConfig {
                conflict_threshold: 0.10,
                ..Default::default()
            },
        ),
        (
            "max_entries_4",
            PropagatorConfig {
                max_entries: 4,
                ..Default::default()
            },
        ),
        (
            "max_entries_16",
            PropagatorConfig {
                max_entries: 16,
                ..Default::default()
            },
        ),
    ];
    for (name, propagator) in variants {
        let diagnoser = Diagnoser::from_netlist(
            &ts.netlist,
            ts.test_points.clone(),
            DiagnoserConfig {
                propagator,
                ..Default::default()
            },
        )
        .unwrap();
        h.bench(&format!("soft_r2/{name}"), || {
            black_box(session_run(&diagnoser, &readings))
        });
    }
}
