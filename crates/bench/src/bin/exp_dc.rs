//! Conflict-recognition experiment: the allocation-free closed-form
//! trapezoid `Dc` kernel, measured against the path it replaced.
//!
//! `Consistency::between` (closed-form, stack-only) is timed against
//! the retained PWL fallback (`to_pwl`, polyline intersection and area
//! — the pre-refactor cost per comparison) on a fixed fleet of random
//! trapezoid pairs. The closed form is the one `Dc` the engine's reports
//! and the rule store grade with. Gate: closed-form ≥ 3× PWL.
//!
//! Before any timing, every pair must agree with the PWL fallback to
//! 1e-12 and in direction. The gated speedup is measured with
//! [`Harness::bench_pair`] — interleaved rounds whose per-round ratios
//! cancel host-noise drift — because on a busy or thermally-throttling
//! host two back-to-back absolute measurements would absorb the drift
//! into the ratio. Writes `BENCH_dc.json` in the current directory and
//! exits non-zero if the gate fails.

use flames_bench::harness::Harness;
use flames_bench::rng::SplitMix64;
use flames_fuzzy::{Consistency, FuzzyInterval};
use std::hint::black_box;
use std::time::Duration;

const PAIRS: usize = 256;

/// Random overlap-rich trapezoid pairs: plain shapes, zero-spread
/// flanks, crisp intervals and points, shifted near-copies — the same
/// corner mix as the property suite, so the timed workload covers every
/// kernel branch.
fn make_pairs(n: usize) -> Vec<(FuzzyInterval, FuzzyInterval)> {
    let mut rng = SplitMix64::new(0xDCBE_2026);
    let random = |rng: &mut SplitMix64| {
        let m1 = rng.range_f64(-50.0, 50.0);
        let m2 = m1 + rng.range_f64(0.0, 20.0);
        FuzzyInterval::new(m1, m2, rng.range_f64(0.0, 5.0), rng.range_f64(0.0, 5.0))
            .expect("valid trapezoid")
    };
    (0..n)
        .map(|i| {
            let vm = match i % 4 {
                0 => FuzzyInterval::crisp(SplitMix64::new(i as u64).range_f64(-50.0, 50.0)),
                1 => {
                    let t = random(&mut rng);
                    FuzzyInterval::new(t.core_lo(), t.core_hi(), 0.0, t.spread_right())
                        .expect("valid trapezoid")
                }
                _ => random(&mut rng),
            };
            let vn = if i % 3 == 0 {
                // Shifted near-copy: dense ramp–ramp crossings.
                let shift = rng.range_f64(-3.0, 3.0);
                FuzzyInterval::new(
                    vm.core_lo() + shift,
                    vm.core_hi() + shift,
                    vm.spread_left() + 0.5,
                    vm.spread_right() + 0.5,
                )
                .expect("valid trapezoid")
            } else {
                random(&mut rng)
            };
            (vm, vn)
        })
        .collect()
}

fn main() {
    // ----- kernel: closed-form vs PWL --------------------------------
    let pairs = make_pairs(PAIRS);

    // Exactness gate before timing: the two paths integrate the same
    // piecewise-linear minimum, so they must agree to FP noise.
    for (i, (vm, vn)) in pairs.iter().enumerate() {
        let fast = Consistency::between(vm, vn);
        let slow = Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl());
        assert!(
            (fast.degree() - slow.degree()).abs() <= 1e-12,
            "pair {i}: closed-form {} != pwl {}",
            fast.degree(),
            slow.degree()
        );
        assert_eq!(fast.direction(), slow.direction(), "pair {i}: direction");
    }
    println!("exactness gate passed: {PAIRS} pairs agree to 1e-12\n");

    let h = Harness::new("exp_dc").with_budget(Duration::from_millis(500));
    let kernel = h.bench_pair(
        "dc_pwl_fallback",
        "dc_closed_form",
        || {
            let mut acc = 0.0;
            for (vm, vn) in &pairs {
                let (vm, vn) = (black_box(vm), black_box(vn));
                acc += Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl()).degree();
            }
            black_box(acc)
        },
        || {
            let mut acc = 0.0;
            for (vm, vn) in &pairs {
                acc += Consistency::between(black_box(vm), black_box(vn)).degree();
            }
            black_box(acc)
        },
    );
    let pwl_ns = kernel.a_ns / PAIRS as f64;
    let closed_ns = kernel.b_ns / PAIRS as f64;
    let kernel_speedup = kernel.a_over_b;

    // Counter deltas over one untimed closed-form pass (zeros without
    // `obs`): the kernel counters prove the closed form served every pair.
    let before = flames_obs::MetricsSnapshot::capture();
    for (vm, vn) in &pairs {
        black_box(Consistency::between(vm, vn));
    }
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"exp_dc\",\n",
            "  \"kernel\": {{\n",
            "    \"pairs\": {pairs},\n",
            "    \"closed_form_ns_per_op\": {closed:.1},\n",
            "    \"pwl_ns_per_op\": {pwl:.1},\n",
            "    \"speedup\": {kspeed:.2}\n",
            "  }},\n",
            "  \"counters\": {counters}\n",
            "}}\n"
        ),
        pairs = PAIRS,
        closed = closed_ns,
        pwl = pwl_ns,
        kspeed = kernel_speedup,
        counters = counters.to_json(1),
    );
    std::fs::write("BENCH_dc.json", &json).expect("write BENCH_dc.json");
    println!("\n{json}");

    assert!(
        kernel_speedup >= 3.0,
        "closed-form Dc must be at least 3x the PWL fallback, measured {kernel_speedup:.2}x"
    );
}
