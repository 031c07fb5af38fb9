//! Benches for the truth-maintenance kernels: classic label propagation
//! and the graded nogood store's installs and candidate ranking.
//!
//! Runs with `cargo bench --features bench` on the dependency-free
//! harness in `flames_bench::harness`.

use flames_atms::{Atms, Env, FuzzyAtms};
use flames_bench::harness::Harness;
use std::hint::black_box;

/// Builds a chain n0 → n1 → … of `depth` justified nodes over `width`
/// assumptions feeding the first node.
fn classic_chain(width: usize, depth: usize) -> Atms {
    let mut atms = Atms::new();
    let assumptions: Vec<_> = (0..width)
        .map(|k| atms.add_assumption(format!("a{k}")))
        .collect();
    let mut prev = atms.add_node("n0");
    for a in &assumptions {
        let na = atms.assumption_node(*a);
        atms.justify([na], prev, "source").unwrap();
    }
    for d in 1..depth {
        let next = atms.add_node(format!("n{d}"));
        atms.justify([prev], next, "step").unwrap();
        prev = next;
    }
    atms
}

fn bench_classic() {
    let h = Harness::new("atms_classic");
    for (width, depth) in [(4usize, 8usize), (8, 16), (16, 32)] {
        h.bench(&format!("chain/{width}x{depth}"), || {
            classic_chain(black_box(width), black_box(depth))
        });
    }
    h.bench("nogood_install_64", || {
        let mut atms = classic_chain(8, 8);
        for k in 0..64u32 {
            atms.add_nogood(Env::from_ids([k % 8, (k + 1) % 8]));
        }
        black_box(atms.nogoods().len())
    });
}

fn bench_fuzzy() {
    let h = Harness::new("atms_fuzzy");
    h.bench("graded_nogoods_and_rank", || {
        let mut atms = FuzzyAtms::new();
        let assumptions: Vec<_> = (0..12).map(|_| atms.add_assumption()).collect();
        for k in 0..12 {
            let env = Env::from_assumptions([assumptions[k % 12], assumptions[(k + 3) % 12]]);
            atms.add_nogood(&env, 0.3 + 0.05 * k as f64);
        }
        black_box(atms.ranked_diagnoses(2, 256).len())
    });
}

fn main() {
    bench_classic();
    bench_fuzzy();
}
