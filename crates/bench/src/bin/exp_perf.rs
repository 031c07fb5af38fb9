//! Perf experiment: the bitset-interned environment kernel vs the seed's
//! sorted-vec kernel, on the two ATMS workloads diagnosis runs:
//!
//! * **nogood installs** — Pareto-minimal maintenance of the graded
//!   conflict store;
//! * **hitting sets** — Reiter candidate generation over the conflicts.
//!
//! The baseline is the seed revision's `Env`/`install_nogood`/
//! `minimal_hitting_sets`, embedded below verbatim (modulo naming) so
//! the comparison survives further kernel changes.
//! Both sides run the same randomized workloads and are cross-checked for
//! identical results before timing. Writes `BENCH_atms.json` in the
//! current directory.

use flames_atms::hitting::minimal_hitting_sets;
use flames_atms::{Env, FuzzyAtms};
use flames_bench::harness::Harness;
use flames_bench::rng::SplitMix64;
use std::hint::black_box;
use std::time::Duration;

// ---------------------------------------------------------------------
// The seed kernel, embedded as the baseline.
// ---------------------------------------------------------------------

mod legacy {
    /// The seed's environment: a sorted, deduplicated `Vec<u32>`.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
    pub struct Env {
        ids: Vec<u32>,
    }

    impl Env {
        pub fn empty() -> Self {
            Self::default()
        }

        pub fn from_ids(ids: impl IntoIterator<Item = u32>) -> Self {
            let mut ids: Vec<u32> = ids.into_iter().collect();
            ids.sort_unstable();
            ids.dedup();
            Self { ids }
        }

        pub fn len(&self) -> usize {
            self.ids.len()
        }

        pub fn is_empty(&self) -> bool {
            self.ids.is_empty()
        }

        pub fn ids(&self) -> &[u32] {
            &self.ids
        }

        pub fn is_subset_of(&self, other: &Self) -> bool {
            if self.ids.len() > other.ids.len() {
                return false;
            }
            let mut j = 0;
            for &id in &self.ids {
                loop {
                    if j == other.ids.len() {
                        return false;
                    }
                    match other.ids[j].cmp(&id) {
                        std::cmp::Ordering::Less => j += 1,
                        std::cmp::Ordering::Equal => {
                            j += 1;
                            break;
                        }
                        std::cmp::Ordering::Greater => return false,
                    }
                }
            }
            true
        }

        pub fn intersects(&self, other: &Self) -> bool {
            let (mut i, mut j) = (0, 0);
            while i < self.ids.len() && j < other.ids.len() {
                match self.ids[i].cmp(&other.ids[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return true,
                }
            }
            false
        }

        pub fn with(&self, id: u32) -> Self {
            if self.ids.binary_search(&id).is_ok() {
                return self.clone();
            }
            let mut ids = self.ids.clone();
            let pos = ids.partition_point(|&x| x < id);
            ids.insert(pos, id);
            Self { ids }
        }
    }

    /// The seed's ⊆-minimization (quadratic scan over a length-sorted list).
    pub fn minimize(mut envs: Vec<Env>) -> Vec<Env> {
        envs.sort_by_key(Env::len);
        let mut keep: Vec<Env> = Vec::with_capacity(envs.len());
        for e in envs {
            if !keep.iter().any(|k| k.is_subset_of(&e)) {
                keep.push(e);
            }
        }
        keep
    }

    #[derive(Debug, Clone)]
    pub struct WeightedEnv {
        pub env: Env,
        pub degree: f64,
    }

    /// The seed's graded nogood store. The seed's install also re-swept
    /// every node label against the whole store; the nogood workload
    /// builds no nodes, so `labels` stays empty, but the sweep — and the
    /// store snapshot it took per install — is kept so the baseline
    /// costs what the seed's install did.
    pub struct FuzzyAtms {
        labels: Vec<Vec<WeightedEnv>>,
        nogoods: Vec<WeightedEnv>,
        kill_threshold: f64,
    }

    impl FuzzyAtms {
        pub fn new() -> Self {
            Self {
                labels: Vec::new(),
                nogoods: Vec::new(),
                kill_threshold: 1.0,
            }
        }

        pub fn add_nogood(&mut self, env: Env, degree: f64) {
            self.install_nogood(WeightedEnv { env, degree });
        }

        pub fn nogoods(&self) -> &[WeightedEnv] {
            &self.nogoods
        }

        fn install_nogood(&mut self, ng: WeightedEnv) {
            if self
                .nogoods
                .iter()
                .any(|n| n.env.is_subset_of(&ng.env) && n.degree >= ng.degree)
            {
                return;
            }
            self.nogoods
                .retain(|n| !(ng.env.is_subset_of(&n.env) && ng.degree >= n.degree));
            self.nogoods.push(ng);
            let kill = self.kill_threshold;
            let nogoods = self.nogoods.clone();
            for label in &mut self.labels {
                label.retain(|we| {
                    !nogoods
                        .iter()
                        .any(|n| n.degree >= kill && n.env.is_subset_of(&we.env))
                });
            }
        }
    }

    /// The seed's Reiter HS-tree search.
    pub fn minimal_hitting_sets(conflicts: &[Env], max_size: usize, max_count: usize) -> Vec<Env> {
        let mut conflicts: Vec<&Env> = conflicts.iter().filter(|c| !c.is_empty()).collect();
        if conflicts.is_empty() {
            return vec![Env::empty()];
        }
        conflicts.sort_by_key(|c| c.len());
        let mut found: Vec<Env> = Vec::new();
        let mut stack: Vec<Env> = vec![Env::empty()];
        while let Some(partial) = stack.pop() {
            if found.len() >= max_count {
                break;
            }
            if found.iter().any(|f| f.is_subset_of(&partial)) {
                continue;
            }
            match conflicts.iter().find(|c| !partial.intersects(c)) {
                None => found.push(partial),
                Some(unhit) => {
                    if partial.len() >= max_size {
                        continue;
                    }
                    for &a in unhit.ids() {
                        stack.push(partial.with(a));
                    }
                }
            }
        }
        minimize(found)
    }
}

// ---------------------------------------------------------------------
// Workload descriptions, generated once and replayed on both kernels.
// ---------------------------------------------------------------------

/// Draws the retired label-propagation workload took from the stream
/// (3 layers × 12 nodes × 3 justifications × 3 values, plus 6 nogoods ×
/// 4 values).
const RETIRED_LABEL_DRAWS: usize = 3 * 12 * 3 * 3 + 6 * 4;

fn nogood_workload(r: &mut SplitMix64) -> Vec<(Vec<u32>, f64)> {
    (0..400)
        .map(|_| {
            let len = 1 + r.below(4) as usize;
            let ids = (0..len).map(|_| r.below(32) as u32).collect();
            (ids, r.range_f64(0.05, 1.0))
        })
        .collect()
}

fn run_new_nogoods(w: &[(Vec<u32>, f64)]) -> usize {
    let mut atms = FuzzyAtms::new();
    for _ in 0..32 {
        atms.add_assumption();
    }
    for (ids, d) in w {
        atms.add_nogood(Env::from_ids(ids.iter().copied()), *d);
    }
    atms.nogoods().len()
}

fn run_legacy_nogoods(w: &[(Vec<u32>, f64)]) -> usize {
    let mut atms = legacy::FuzzyAtms::new();
    for (ids, d) in w {
        atms.add_nogood(legacy::Env::from_ids(ids.iter().copied()), *d);
    }
    atms.nogoods().len()
}

fn hitting_workload(r: &mut SplitMix64) -> Vec<Vec<u32>> {
    (0..12)
        .map(|_| {
            let len = 2 + r.below(3) as usize;
            (0..len).map(|_| r.below(20) as u32).collect()
        })
        .collect()
}

fn run_new_hitting(w: &[Vec<u32>]) -> usize {
    let conflicts: Vec<Env> = w
        .iter()
        .map(|ids| Env::from_ids(ids.iter().copied()))
        .collect();
    minimal_hitting_sets(&conflicts, usize::MAX, 100_000).len()
}

fn run_legacy_hitting(w: &[Vec<u32>]) -> usize {
    let conflicts: Vec<legacy::Env> = w
        .iter()
        .map(|ids| legacy::Env::from_ids(ids.iter().copied()))
        .collect();
    legacy::minimal_hitting_sets(&conflicts, usize::MAX, 100_000).len()
}

// ---------------------------------------------------------------------

struct Row {
    name: &'static str,
    legacy_ns: f64,
    new_ns: f64,
    /// Work units per run (installs / minimal sets).
    units: f64,
    unit: &'static str,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.legacy_ns / self.new_ns
    }
}

fn main() {
    let mut r = SplitMix64::new(0xF1A3E5);
    // The stream once drew a 348-value label-propagation workload first;
    // skipping those draws keeps the nogood and hitting-set workloads
    // the ones every earlier BENCH_atms.json measured.
    for _ in 0..RETIRED_LABEL_DRAWS {
        r.next_u64();
    }
    let nogoods = nogood_workload(&mut r);
    let hitting = hitting_workload(&mut r);

    // Equivalence gate: both kernels must produce identical results on
    // every workload before any timing is trusted.
    let retained = run_new_nogoods(&nogoods);
    assert_eq!(retained, run_legacy_nogoods(&nogoods), "nogood mismatch");
    let sets = run_new_hitting(&hitting);
    assert_eq!(sets, run_legacy_hitting(&hitting), "hitting-set mismatch");

    let h = Harness::new("exp_perf").with_budget(Duration::from_millis(400));
    let rows = [
        Row {
            name: "nogood_install",
            legacy_ns: h.bench("nogood_install/legacy", || {
                black_box(run_legacy_nogoods(&nogoods))
            }),
            new_ns: h.bench("nogood_install/new", || {
                black_box(run_new_nogoods(&nogoods))
            }),
            units: nogoods.len() as f64,
            unit: "installs",
        },
        Row {
            name: "hitting_sets",
            legacy_ns: h.bench("hitting_sets/legacy", || {
                black_box(run_legacy_hitting(&hitting))
            }),
            new_ns: h.bench("hitting_sets/new", || black_box(run_new_hitting(&hitting))),
            units: sets as f64,
            unit: "minimal_sets",
        },
    ];

    let entries: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    \"{name}\": {{\n",
                    "      \"legacy_ns_per_iter\": {legacy:.0},\n",
                    "      \"new_ns_per_iter\": {new:.0},\n",
                    "      \"speedup\": {speedup:.2},\n",
                    "      \"unit\": \"{unit}\",\n",
                    "      \"legacy_per_sec\": {legacy_rate:.0},\n",
                    "      \"new_per_sec\": {new_rate:.0}\n",
                    "    }}"
                ),
                name = row.name,
                legacy = row.legacy_ns,
                new = row.new_ns,
                speedup = row.speedup(),
                unit = row.unit,
                legacy_rate = row.units * 1e9 / row.legacy_ns,
                new_rate = row.units * 1e9 / row.new_ns,
            )
        })
        .collect();
    let min_speedup = rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min);

    // Kernel counter deltas over one untimed pass of the new-kernel
    // workloads — the live-observability column (all zeros when the
    // workspace is built with `--no-default-features`).
    let before = flames_obs::MetricsSnapshot::capture();
    black_box(run_new_nogoods(&nogoods));
    black_box(run_new_hitting(&hitting));
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);

    let json = format!(
        "{{\n  \"bench\": \"exp_perf\",\n  \"workloads\": {{\n{}\n  }},\n  \"counters\": {},\n  \"min_speedup\": {min_speedup:.2}\n}}\n",
        entries.join(",\n"),
        counters.to_json(2),
    );

    std::fs::write("BENCH_atms.json", &json).expect("write BENCH_atms.json");
    println!("\n{json}");
    for row in &rows {
        println!("{}: {:.2}x", row.name, row.speedup());
    }
    assert!(
        min_speedup >= 2.0,
        "bitset kernel must be at least 2x the seed kernel (got {min_speedup:.2}x)"
    );
}
