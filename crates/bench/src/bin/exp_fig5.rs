//! **E3 — Fig. 5**: candidate generation on the diode + two resistors
//! network, crisp (DIANA-style) vs fuzzy.
//!
//! The paper's worked example: the diode model bounds every branch
//! current by 100 µA; measuring `Vr1 = 1.05 V` and `Vr2 = 2 V` derives
//! `Ir1 = 105 µA` and `Ir2 = 200 µA` through Ohm's law, raising
//! `Nogood{r1, d1}` and `Nogood{r2, d1}` and finally
//! `CANDIDATES: [d1] or [r1, r2]`.
//!
//! With the fuzzy condition `[-1, 100, 0, 10]` µA the two nogoods come
//! out *graded* — 0.5 and 1 — which orders the candidates and lets the
//! diode's fault modes (open/short only) shift suspicion onto `r2`.
//!
//! Run with `cargo run -p flames-bench --bin exp_fig5`.

use flames_atms::hitting::minimal_hitting_sets;
use flames_atms::{Env, FuzzyAtms};
use flames_bench::{header, row};
use flames_circuit::circuits::diode_current_spec_micro_amps;
use flames_core::fault_model::standard_modes;

fn main() {
    header("E3 / Fig. 5 — diode network: crisp vs fuzzy candidates");

    // Measurements → currents through Ohm's law (10 kΩ resistors).
    let ir1_micro = 1.05 / 10_000.0 * 1e6; // 105 µA {r1}
    let ir2_micro = 2.0 / 10_000.0 * 1e6; // 200 µA {r2}
    println!("measurements: Vr1 = 1.05 V -> Ir1 = {ir1_micro:.0} µA {{r1}}");
    println!("              Vr2 = 2.00 V -> Ir2 = {ir2_micro:.0} µA {{r2}}");
    println!("diode model:  Id ≤ 100 µA {{d1}} (propagated to both branches via KCL)");
    println!();

    // --- Crisp reading: the condition is the sharp bound Id ≤ 100 µA. ---
    println!("crisp intervals (DIANA-style):");
    let violated1 = ir1_micro > 100.0;
    let violated2 = ir2_micro > 100.0;
    println!("  Ir1 = 105 µA vs ≤100 µA: conflict = {violated1} -> Nogood{{r1, d1}}");
    println!("  Ir2 = 200 µA vs ≤100 µA: conflict = {violated2} -> Nogood{{r2, d1}}");
    let d1 = 0u32;
    let r1 = 1u32;
    let r2 = 2u32;
    let nogoods = vec![Env::from_ids([r1, d1]), Env::from_ids([r2, d1])];
    let mut hs = minimal_hitting_sets(&nogoods, usize::MAX, 100);
    hs.sort_by_key(Env::len);
    let name = |e: &Env| -> String {
        let names: Vec<&str> = e
            .iter()
            .map(|a| match a.index() {
                0 => "d1",
                1 => "r1",
                _ => "r2",
            })
            .collect();
        format!("[{}]", names.join(", "))
    };
    let rendered: Vec<String> = hs.iter().map(name).collect();
    println!(
        "  CANDIDATES: {} (unranked — every candidate ties)",
        rendered.join(" or ")
    );
    println!();

    // --- Fuzzy reading: condition [-1, 100, 0, 10] µA grades the violations. ---
    println!("fuzzy intervals (FLAMES):");
    let spec = diode_current_spec_micro_amps();
    let mu1 = spec.membership(ir1_micro);
    let mu2 = spec.membership(ir2_micro);
    println!("  condition = [-1, 100, 0, 10] µA; µ(105) = {mu1:.2}, µ(200) = {mu2:.2}");
    let mut atms = FuzzyAtms::new();
    let d1 = atms.add_assumption();
    let r1 = atms.add_assumption();
    let r2 = atms.add_assumption();
    atms.add_nogood(&Env::from_assumptions([r1, d1]), 1.0 - mu1);
    atms.add_nogood(&Env::from_assumptions([r2, d1]), 1.0 - mu2);
    println!(
        "  Nogood{{r1, d1}} with degree {:.2} (paper: 0.5)",
        1.0 - mu1
    );
    println!("  Nogood{{r2, d1}} with degree {:.2} (paper: 1)", 1.0 - mu2);
    println!();
    println!("  ranked candidates (degree = weakest member suspicion):");
    let w = [16, 8];
    row(&["candidate", "degree"], &w);
    let names = ["d1", "r1", "r2"];
    for diag in atms.ranked_diagnoses(usize::MAX, 100) {
        let members: Vec<&str> = diag.env.iter().map(|a| names[a.index()]).collect();
        row(
            &[
                &format!("[{}]", members.join(", ")),
                &format!("{:.2}", diag.degree),
            ],
            &w,
        );
    }
    println!();

    // --- Fault-mode refinement: the paper's closing argument. ---
    println!("fault-mode refinement (§6.3):");
    let modes = standard_modes(0.05);
    // A diode only fails open or short; a 5 % overcurrent fits neither.
    // The resistor r2, however, must be *very low* to pass twice its
    // nominal current for the observed loop voltage: implied ratio ≈ 0.5.
    let nominal_current = 100e-6; // what 2 V across a healthy loop allows
    let observed_current = 200e-6;
    let implied_r2_ratio = nominal_current / observed_current; // ≈ 0.5
    let low = modes
        .iter()
        .find(|m| m.name() == "low")
        .expect("vocabulary");
    println!(
        "  r2 would have to be ~{:.0}% of nominal to explain 200 µA: \
         membership in mode 'low' = {:.2}",
        implied_r2_ratio * 100.0,
        low.membership(implied_r2_ratio)
    );
    println!(
        "  diode modes are open/short only — neither explains a 5 % overcurrent, \
         so the expert is driven to \"strongly suspect the resistance r2\"."
    );
}
