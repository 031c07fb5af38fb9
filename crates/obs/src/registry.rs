//! The fixed metric registry and [`MetricsSnapshot`].
//!
//! All FLAMES counters live here, at the bottom of the dependency
//! graph, so every crate (kernel, engine, serving, circuit) increments
//! the same process-wide table and one snapshot sees the whole stack.
//!
//! Counters are *global*: tests that assert exact deltas must run in
//! their own process (a dedicated integration-test binary) so parallel
//! sibling tests cannot bleed counts into the window.

use crate::counter::{Counter, Gauge};

macro_rules! define_metrics {
    ($($field:ident => $name:literal,)+ @gauges $($gfield:ident => $gname:literal,)+) => {
        /// The process-wide counter table. Access via [`metrics()`].
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(pub $field: Counter,)+
            $(pub $gfield: Gauge,)+
        }

        impl Metrics {
            const fn new() -> Self {
                Self {
                    $($field: Counter::new(),)+
                    $($gfield: Gauge::new(),)+
                }
            }

            fn values(&self) -> Vec<u64> {
                let mut v = Vec::with_capacity(METRIC_NAMES.len());
                $(v.push(self.$field.get());)+
                $(v.push(self.$gfield.get());)+
                v
            }
        }

        /// Every metric name, in snapshot order. Prefixes partition the
        /// stack: `atms.` / `core.` are deterministic kernel work,
        /// `serve.` covers pooling (thread-count dependent),
        /// `strategy.` the probe planner, `circuit.` the substrate.
        pub const METRIC_NAMES: &[&str] = &[$($name,)+ $($gname,)+];
    };
}

define_metrics! {
    // ATMS kernel -----------------------------------------------------
    // Environment-table interns. `FuzzyAtms::add_nogood` probes a
    // conflict against the store raw and interns only what it installs,
    // so on the nogood path these count installs, not conflicts.
    env_intern_hits => "atms.env_intern_hits",
    env_intern_misses => "atms.env_intern_misses",
    subsumption_checks => "atms.subsumption_checks",
    prefilter_rejects => "atms.prefilter_rejects",
    nogood_installs => "atms.nogood_installs",
    nogood_subsumed => "atms.nogood_subsumed",
    hitting_expansions => "atms.hitting_expansions",
    candidates_incremental => "atms.candidates_incremental",
    candidates_rebuilt => "atms.candidates_rebuilt",
    // Fuzzy numeric kernel --------------------------------------------
    dc_fast_path => "fuzzy.dc_fast_path",
    dc_pwl_fallback => "fuzzy.dc_pwl_fallback",
    dc_simd_batch => "fuzzy.dc_simd_batch",
    dc_scalar_tail => "fuzzy.dc_scalar_tail",
    entropy_memo_hit => "fuzzy.entropy_memo_hit",
    entropy_memo_miss => "fuzzy.entropy_memo_miss",
    // Propagation engine ----------------------------------------------
    waves => "core.waves",
    constraint_apps => "core.constraint_apps",
    // 4-wide signature prefilter groups of the coincidence scan — one
    // count per group per insert, covering both dominance directions
    // (own prefix: kept out of the thread-count invariance assertions
    // that cover `atms.` / `core.`).
    sig_prefilter_vec => "prop.sig_prefilter_vec",
    corroborations => "core.coincidence_corroborations",
    splits => "core.coincidence_splits",
    partial_conflicts => "core.coincidence_partial_conflicts",
    total_conflicts => "core.coincidence_total_conflicts",
    // Serving layer ---------------------------------------------------
    sessions_opened => "serve.sessions_opened",
    cold_sessions => "serve.cold_sessions",
    session_resets => "serve.session_resets",
    pool_hits => "serve.pool_hits",
    pool_misses => "serve.pool_misses",
    boards_diagnosed => "serve.boards_diagnosed",
    // HTTP diagnosis service (flames-serve) ---------------------------
    serve_accepted => "serve.accepted",
    serve_coalesced => "serve.coalesced",
    serve_deduped_boards => "serve.deduped_boards",
    serve_shed => "serve.shed",
    serve_deadline_missed => "serve.deadline_missed",
    // Learned-rule cache (rule-first fast path) ------------------------
    learn_hit => "learn.hit",
    learn_miss => "learn.miss",
    learn_fallback => "learn.fallback",
    learn_evicted => "learn.evicted",
    // Probe planning ---------------------------------------------------
    probe_evals => "strategy.probe_evals",
    // Circuit substrate -----------------------------------------------
    models_extracted => "circuit.models_extracted",
    dc_solves => "circuit.dc_solves",
    // Region-sharded engine --------------------------------------------
    shard_boundary_envs => "shard.boundary_envs",
    shard_cross_nogoods => "shard.cross_nogoods",
    shard_waves => "shard.waves",
    @gauges
    pool_idle => "serve.pool_idle",
}

static METRICS: Metrics = Metrics::new();

/// The process-wide metric table.
#[must_use]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// A point-in-time capture of every registered metric.
///
/// With the `enabled` feature off this still constructs (all zeros), so
/// consumers compile identically in both builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: Vec<u64>,
}

impl MetricsSnapshot {
    /// Captures the current table.
    #[must_use]
    pub fn capture() -> Self {
        Self {
            values: METRICS.values(),
        }
    }

    /// The counts accumulated between `earlier` and `self`
    /// (saturating, so a gauge that moved down reads 0).
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            values: self
                .values
                .iter()
                .zip(&earlier.values)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        }
    }

    /// Looks a metric up by its registered name.
    ///
    /// # Panics
    ///
    /// Panics on a name absent from [`METRIC_NAMES`] — a typo at the
    /// call site, not a runtime condition.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        let idx = METRIC_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name:?}"));
        self.values[idx]
    }

    /// All `(name, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        METRIC_NAMES
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The pairs whose names match one of `prefixes` — e.g.
    /// `&["atms.", "core."]` selects the deterministic kernel subset
    /// that must be invariant across `diagnose_batch_lanes` thread
    /// counts.
    pub fn with_prefixes<'a>(
        &'a self,
        prefixes: &'a [&'a str],
    ) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        self.iter()
            .filter(move |(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
    }

    /// Renders the snapshot as a JSON object, one key per metric, with
    /// `indent` leading spaces before every key line (for embedding in
    /// hand-formatted BENCH_*.json files).
    #[must_use]
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let body: Vec<String> = self
            .iter()
            .map(|(name, value)| format!("{pad}  \"{name}\": {value}"))
            .collect();
        format!("{{\n{}\n{pad}}}", body.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_values_align() {
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.iter().count(), METRIC_NAMES.len());
        assert!(METRIC_NAMES.len() >= 20, "registry covers the stack");
    }

    #[test]
    fn delta_reflects_increments() {
        let before = MetricsSnapshot::capture();
        metrics().candidates_rebuilt.add(3);
        let delta = MetricsSnapshot::capture().delta_since(&before);
        let expect = if cfg!(feature = "enabled") { 3 } else { 0 };
        // Another test may also touch the counter concurrently; the
        // delta is at least ours.
        assert!(delta.get("atms.candidates_rebuilt") >= expect);
    }

    #[test]
    fn prefix_filter_selects_kernel_counters() {
        let snap = MetricsSnapshot::capture();
        let kernel: Vec<&str> = snap
            .with_prefixes(&["atms.", "core."])
            .map(|(n, _)| n)
            .collect();
        assert!(kernel.contains(&"atms.env_intern_hits"));
        assert!(kernel.contains(&"core.waves"));
        assert!(!kernel.contains(&"serve.pool_hits"));
    }

    #[test]
    fn json_is_parseable() {
        let snap = MetricsSnapshot::capture();
        let json = snap.to_json(2);
        let value = crate::json::parse(&json).expect("valid JSON");
        let obj = value.as_object().expect("object");
        assert_eq!(obj.len(), METRIC_NAMES.len());
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_name_panics() {
        let _ = MetricsSnapshot::capture().get("atms.nonexistent");
    }
}
