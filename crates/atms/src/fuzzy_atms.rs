use crate::assumptions::Assumption;
use crate::candidates::CandidateSet;
use crate::env::Env;
use crate::hitting::minimal_hitting_sets_iter;
use crate::interner::{EnvId, EnvTable, SubsetStats};
use std::fmt;
use std::sync::Mutex;

/// Triangular norm used to combine certainty degrees along a derivation.
///
/// The paper combines degrees possibilistically; `Min` is the standard
/// possibilistic (Gödel) t-norm and the default. `Product` is offered as an
/// ablation knob (experiment E5/ablation bench): it compounds doubt along
/// long derivation chains instead of remembering only the weakest link.
/// The propagation engine applies it to value pedigrees and to the
/// degrees of the nogoods it installs here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TNorm {
    /// Gödel / possibilistic `min(a, b)` (default).
    #[default]
    Min,
    /// Probabilistic-style product `a · b`.
    Product,
}

impl TNorm {
    /// Combines two degrees.
    #[must_use]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            TNorm::Min => a.min(b),
            TNorm::Product => a * b,
        }
    }
}

/// A graded conflict: "the assumptions in `env` cannot all hold — with
/// membership degree `degree`" (§6.1.3 of the paper: a conflict indicates a
/// nogood with degree 1, a *partial* conflict a nogood with degree < 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Nogood {
    /// The conflicting assumption set.
    pub env: Env,
    /// Conflict strength in `(0, 1]` (`1 − Dc` for coincidence conflicts).
    pub degree: f64,
}

impl fmt::Display for Nogood {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nogood {} @ {:.2}", self.env, self.degree)
    }
}

/// A diagnosis candidate with its ranking degree.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedDiagnosis {
    /// The candidate set of (assumptions naming) faulty components.
    pub env: Env,
    /// Seriousness of the candidate: the weakest suspicion among its
    /// members, where a member's suspicion is the strongest conflict that
    /// implicates it.
    pub degree: f64,
}

/// The **fuzzy ATMS** of FLAMES (§6 of the paper), cut to what diagnosis
/// asks of it: a *graded nogood store* with ranked candidates.
///
/// The §6 labels — fuzzy values tagged with the environment and degree
/// of their derivation — live in the propagation engine's value columns
/// (`flames-core`), which derives them, classifies their coincidences
/// and reports every conflict here through [`FuzzyAtms::add_nogood`].
/// This store keeps the conflicts and answers the questions a report
/// asks:
///
/// * the store is *Pareto-minimal*: a nogood is dropped if a subset
///   nogood at least as strong is already present, and installing one
///   drops every stored nogood it dominates — so the final store depends
///   on the set of conflicts, not on their arrival order;
/// * nogoods are graded. A partial conflict (degree < 1) does not erase
///   an environment, it depresses its [plausibility](FuzzyAtms::plausibility)
///   — "the possibility to give the user a list of nogoods sorted
///   according to their consistency degrees … allows to restrict the
///   effect of explosion";
/// * candidates are the minimal hitting sets of the conflicts, ranked by
///   the suspicion degrees the conflicts induce
///   ([`FuzzyAtms::ranked_diagnoses`]).
///
/// Nogood environments are hash-consed through an [`EnvTable`], so
/// subsumption tests run through the cached length/signature index.
///
/// # Example
///
/// The paper's Fig. 5 with fuzzy degrees:
///
/// ```
/// use flames_atms::{Env, FuzzyAtms};
///
/// let mut atms = FuzzyAtms::new();
/// let d1 = atms.add_assumption();
/// let r1 = atms.add_assumption();
/// let r2 = atms.add_assumption();
/// atms.add_nogood(&Env::from_assumptions([r1, d1]), 0.5);
/// atms.add_nogood(&Env::from_assumptions([r2, d1]), 1.0);
/// let diags = atms.ranked_diagnoses(usize::MAX, 100);
/// // [d1] explains everything and is implicated by a degree-1 conflict.
/// assert_eq!(diags[0].env, Env::singleton(d1));
/// assert_eq!(diags[0].degree, 1.0);
/// // The double fault [r1, r2] is weakened by r1's 0.5 suspicion.
/// assert_eq!(diags[1].env, Env::from_assumptions([r1, r2]));
/// assert_eq!(diags[1].degree, 0.5);
/// ```
#[derive(Debug)]
pub struct FuzzyAtms {
    /// Number of assumptions handed out by [`FuzzyAtms::add_assumption`].
    assumptions: u32,
    /// Pareto-minimal nogood store, materialized for [`FuzzyAtms::nogoods`].
    nogoods: Vec<Nogood>,
    /// Interned ids parallel to `nogoods` (the subsumption index handles).
    nogood_ids: Vec<EnvId>,
    envs: EnvTable,
    /// Append-only log of the non-subsumed nogood installs, replayed
    /// lazily into the incremental candidate sets. Replaying the raw
    /// stream yields the same minimal hitting sets as the Pareto store:
    /// skipped (subsumed) installs and dominated-then-removed nogoods are
    /// all supersets of a surviving nogood, and superset conflicts never
    /// change a hitting-set antichain.
    install_log: Vec<Env>,
    /// Bumped on every non-subsumed install — the validity tag candidate
    /// caches (here and in `flames-core` sessions) key on.
    epoch: u64,
    /// Lazily replayed incremental candidate sets, one per queried
    /// `max_size`. Interior mutability keeps [`FuzzyAtms::ranked_diagnoses`]
    /// a `&self` read; a `Mutex` (not `RefCell`) so the engine stays
    /// `Sync` for the compile-once/serve-many split.
    cand_cache: Mutex<Vec<CachedCandidates>>,
}

/// One lazily maintained candidate set: `set` has replayed
/// `install_log[..cursor]`.
#[derive(Debug, Clone)]
struct CachedCandidates {
    max_size: usize,
    cursor: usize,
    set: CandidateSet,
}

impl Clone for FuzzyAtms {
    fn clone(&self) -> Self {
        Self {
            assumptions: self.assumptions,
            nogoods: self.nogoods.clone(),
            nogood_ids: self.nogood_ids.clone(),
            envs: self.envs.clone(),
            install_log: self.install_log.clone(),
            epoch: self.epoch,
            // Warm candidate sets travel with the clone (snapshot/restore
            // keeps them consistent with the cloned log).
            cand_cache: Mutex::new(self.locked_cache().clone()),
        }
    }
}

impl Default for FuzzyAtms {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzyAtms {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            assumptions: 0,
            nogoods: Vec::new(),
            nogood_ids: Vec::new(),
            envs: EnvTable::new(),
            install_log: Vec::new(),
            epoch: 0,
            cand_cache: Mutex::new(Vec::new()),
        }
    }

    /// Hands out the next assumption id (ids are dense, starting at 0, so
    /// they line up with an [`crate::AssumptionPool`] filled in the same
    /// order — the pool is what names them).
    pub fn add_assumption(&mut self) -> Assumption {
        let a = Assumption(self.assumptions);
        self.assumptions = self.assumptions.checked_add(1).expect("< 2^32");
        a
    }

    /// Installs a graded nogood (the coincidence engine's entry point:
    /// `degree = 1 − Dc`).
    ///
    /// Degrees ≤ 0 are ignored (no conflict); degrees are clamped to 1.
    /// The environment is borrowed: a conflict subsumed by the store —
    /// nearly every conflict a propagation run reports — is tested
    /// against it as it stands and never cloned or interned.
    pub fn add_nogood(&mut self, env: &Env, degree: f64) {
        if degree <= 0.0 {
            return;
        }
        self.install_nogood(env, degree.min(1.0));
    }

    /// The current nogood store (Pareto-minimal: no nogood has a subset
    /// nogood at least as strong).
    #[must_use]
    pub fn nogoods(&self) -> &[Nogood] {
        &self.nogoods
    }

    /// The nogoods sorted by decreasing conflict degree — the list FLAMES
    /// shows the expert (§6.1.3).
    #[must_use]
    pub fn sorted_nogoods(&self) -> Vec<Nogood> {
        let mut ns = self.nogoods.clone();
        ns.sort_by(|a, b| {
            b.degree
                .total_cmp(&a.degree)
                .then_with(|| a.env.cmp(&b.env))
        });
        ns
    }

    /// Plausibility of an environment: `1 − max{degree(N) : N ⊆ env}`
    /// (1 when no nogood applies).
    #[must_use]
    pub fn plausibility(&self, env: &Env) -> f64 {
        let sig = env.signature();
        1.0 - self
            .nogood_ids
            .iter()
            .zip(&self.nogoods)
            .filter(|(&id, _)| self.envs.is_subset_of_raw(id, env, sig))
            .map(|(_, n)| n.degree)
            .fold(0.0, f64::max)
    }

    /// Whether `env` is erased by a total conflict: some stored nogood of
    /// degree 1 is a subset of it. Exactly `plausibility(env) <= 0.0`,
    /// since installed degrees are clamped to ≤ 1 (NaN installs as 1),
    /// but it tests the degree before the subset walk and stops at the
    /// first hit.
    #[must_use]
    pub fn is_killed(&self, env: &Env) -> bool {
        let sig = env.signature();
        self.nogood_ids
            .iter()
            .zip(&self.nogoods)
            .any(|(&id, n)| n.degree >= 1.0 && self.envs.is_subset_of_raw(id, env, sig))
    }

    /// Suspicion of a single assumption: the strongest conflict that
    /// implicates it (0 when none does).
    #[must_use]
    pub fn suspicion(&self, a: Assumption) -> f64 {
        self.nogoods
            .iter()
            .filter(|n| n.env.contains(a))
            .map(|n| n.degree)
            .fold(0.0, f64::max)
    }

    /// Diagnosis candidates: minimal hitting sets of all recorded nogoods,
    /// ranked by decreasing degree (then by size, then lexicographically).
    ///
    /// A candidate's degree is the *weakest suspicion among its members* —
    /// a double fault is only as serious as its least-implicated component.
    /// This reproduces the paper's Fig. 5 ordering, where `[d1]` (hit by a
    /// degree-1 conflict) outranks `[r1, r2]` (dragged down by r1's 0.5).
    /// Served from the incrementally maintained [`CandidateSet`]: only the
    /// nogoods installed since the previous query with the same `max_size`
    /// are replayed (de Kleer's candidate-update step), so the steady-state
    /// cost of a query is proportional to *new* conflicts, not the full
    /// store. `max_count` keeps only the strongest candidates after
    /// ranking; [`FuzzyAtms::ranked_diagnoses_oracle`] is the re-enumerating
    /// reference the differential suites compare against.
    #[must_use]
    pub fn ranked_diagnoses(&self, max_size: usize, max_count: usize) -> Vec<RankedDiagnosis> {
        let mut cache = self.locked_cache();
        let entry = match cache.iter_mut().find(|e| e.max_size == max_size) {
            Some(entry) => entry,
            None => {
                cache.push(CachedCandidates {
                    max_size,
                    cursor: 0,
                    set: CandidateSet::new(max_size),
                });
                cache.last_mut().expect("just pushed")
            }
        };
        while entry.cursor < self.install_log.len() {
            entry.set.install(&self.install_log[entry.cursor]);
            entry.cursor += 1;
        }
        let mut out = self.graded(entry.set.sets().iter().cloned());
        drop(cache);
        Self::rank(&mut out);
        out.truncate(max_count);
        out
    }

    /// The pre-incremental diagnosis path: re-enumerates the HS-tree from
    /// the full nogood store on every call. Kept as the differential
    /// oracle (and the recompute baseline `exp_strategy` measures
    /// against). Identical to [`FuzzyAtms::ranked_diagnoses`] whenever
    /// `max_count` does not truncate; when it does, the incremental path
    /// keeps the `max_count` *strongest* candidates while this one keeps
    /// the first found.
    #[must_use]
    pub fn ranked_diagnoses_oracle(
        &self,
        max_size: usize,
        max_count: usize,
    ) -> Vec<RankedDiagnosis> {
        flames_obs::metrics().candidates_rebuilt.incr();
        let sets =
            minimal_hitting_sets_iter(self.nogoods.iter().map(|n| &n.env), max_size, max_count);
        let mut out = self.graded(sets.into_iter());
        Self::rank(&mut out);
        out
    }

    /// Attaches the weakest-member suspicion to every non-empty hitting
    /// set.
    fn graded(&self, sets: impl Iterator<Item = Env>) -> Vec<RankedDiagnosis> {
        sets.filter(|env| !env.is_empty())
            .map(|env| {
                let degree = env.iter().map(|a| self.suspicion(a)).fold(1.0, f64::min);
                RankedDiagnosis { env, degree }
            })
            .collect()
    }

    /// The shared candidate ordering: decreasing degree, then size, then
    /// lexicographic — total over distinct environments, so the
    /// incremental and oracle paths sort identically.
    fn rank(out: &mut [RankedDiagnosis]) {
        out.sort_by(|p, q| {
            q.degree
                .total_cmp(&p.degree)
                .then_with(|| p.env.len().cmp(&q.env.len()))
                .then_with(|| p.env.cmp(&q.env))
        });
    }

    /// Monotone counter of non-subsumed nogood installs — the validity
    /// tag for candidate caches layered above the engine: equal epochs on
    /// the same live engine mean "no new conflict landed", so cached
    /// candidates are still exact. [`FuzzyAtms::reset`] rewinds it along
    /// with the store.
    #[must_use]
    pub fn nogood_epoch(&self) -> u64 {
        self.epoch
    }

    /// Clears the per-board state — nogoods, the install log and the
    /// candidate caches — while retaining the per-model vocabulary: every
    /// [`Assumption`] handed out stays valid and the hash-consed
    /// [`EnvTable`] keeps its entries, so a long-lived engine serves
    /// board after board with no allocation churn.
    ///
    /// This is the serve-many half of the compile-once/serve-many split:
    /// the assumption vocabulary is a per-model constant, the graded
    /// nogoods are per-board state.
    pub fn reset(&mut self) {
        self.nogoods.clear();
        self.nogood_ids.clear();
        self.install_log.clear();
        self.epoch = 0;
        self.cand_cache
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    // ----- internals -------------------------------------------------

    /// The candidate cache, poison-blind: a panic mid-query cannot leave
    /// the cache logically inconsistent (installs are applied one whole
    /// conflict at a time before the cursor moves).
    fn locked_cache(&self) -> std::sync::MutexGuard<'_, Vec<CachedCandidates>> {
        self.cand_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Installs a graded nogood, keeping the store Pareto-minimal.
    ///
    /// The subsumption probe runs on the raw environment; only a nogood
    /// that will be installed is interned (subsumption is a set
    /// relation, so the probe's verdict is the interned test's).
    fn install_nogood(&mut self, env: &Env, degree: f64) {
        // Subset-test accounting is accumulated across the whole install
        // and flushed once — per-test atomics here cost the kernel ~30%.
        let mut stats = SubsetStats::default();
        // Subsumed by an existing subset nogood at least as strong?
        let (len, sig) = (env.len(), env.signature());
        let subsumed = self.nogood_ids.iter().zip(&self.nogoods).any(|(&id, n)| {
            n.degree >= degree
                && self
                    .envs
                    .is_subset_of_raw_counted(id, env, len, sig, &mut stats)
        });
        if subsumed {
            stats.flush();
            flames_obs::metrics().nogood_subsumed.incr();
            return;
        }
        let ngid = self.envs.intern_owned(env.clone());
        flames_obs::metrics().nogood_installs.incr();
        // Log the raw install and invalidate candidate caches. Subsumed
        // installs above do neither: they cannot change any hitting set,
        // so caches tagged with the current epoch stay exact.
        self.install_log.push(env.clone());
        self.epoch += 1;
        // Drop existing nogoods this one dominates (order-preserving).
        let mut w = 0;
        for r in 0..self.nogoods.len() {
            let dominated = degree >= self.nogoods[r].degree
                && self
                    .envs
                    .is_subset_counted(ngid, self.nogood_ids[r], &mut stats);
            if !dominated {
                self.nogoods.swap(w, r);
                self.nogood_ids.swap(w, r);
                w += 1;
            }
        }
        self.nogoods.truncate(w);
        self.nogood_ids.truncate(w);
        self.nogoods.push(Nogood {
            env: env.clone(),
            degree,
        });
        self.nogood_ids.push(ngid);
        stats.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_nogoods_orders_nan_degrees_without_panicking() {
        let mut atms = FuzzyAtms::new();
        let a = atms.add_assumption();
        let b = atms.add_assumption();
        atms.add_nogood(&Env::singleton(a), 0.5);
        // `add_nogood` clamps with `min`, which drops a NaN; install one
        // directly, as a NaN reaching the store would be.
        atms.install_nogood(&Env::singleton(b), f64::NAN);
        let sorted = atms.sorted_nogoods();
        assert_eq!(sorted.len(), 2);
        assert!(sorted[0].degree.is_nan());
        assert_eq!(sorted[1].degree, 0.5);
    }

    #[test]
    fn rank_orders_nan_degrees_without_panicking() {
        let mut atms = FuzzyAtms::new();
        let a = atms.add_assumption();
        let b = atms.add_assumption();
        let mut ranked = vec![
            RankedDiagnosis {
                env: Env::singleton(a),
                degree: 0.5,
            },
            RankedDiagnosis {
                env: Env::singleton(b),
                degree: f64::NAN,
            },
        ];
        FuzzyAtms::rank(&mut ranked);
        assert!(ranked[0].degree.is_nan());
        assert_eq!(ranked[1].env, Env::singleton(a));
    }

    #[test]
    fn tnorm_combines() {
        assert_eq!(TNorm::Min.combine(0.4, 0.8), 0.4);
        assert_eq!(TNorm::Product.combine(0.4, 0.8), 0.32000000000000006);
        assert_eq!(TNorm::default(), TNorm::Min);
    }

    #[test]
    fn assumptions_are_dense() {
        let mut atms = FuzzyAtms::new();
        assert_eq!(atms.add_assumption(), Assumption(0));
        assert_eq!(atms.add_assumption(), Assumption(1));
        atms.reset();
        assert_eq!(atms.add_assumption(), Assumption(2), "reset keeps ids");
    }

    #[test]
    fn partial_and_total_conflicts_grade_plausibility() {
        let mut atms = FuzzyAtms::new();
        let a = atms.add_assumption();
        let b = atms.add_assumption();
        let env_ab = Env::from_assumptions([a, b]);
        assert_eq!(atms.plausibility(&env_ab), 1.0);
        // Partial conflict on {a}: {a, b} stays plausible to 0.6.
        atms.add_nogood(&Env::singleton(a), 0.4);
        assert!((atms.plausibility(&env_ab) - 0.6).abs() < 1e-12);
        assert_eq!(atms.plausibility(&Env::singleton(b)), 1.0);
        // Total conflict: implausible.
        atms.add_nogood(&Env::singleton(a), 1.0);
        assert_eq!(atms.plausibility(&env_ab), 0.0);
    }

    #[test]
    fn nogood_store_is_pareto_minimal() {
        let mut atms = FuzzyAtms::new();
        let a = atms.add_assumption();
        let b = atms.add_assumption();
        let ab = Env::from_assumptions([a, b]);
        atms.add_nogood(&ab, 0.5);
        // Weaker superset information is subsumed.
        atms.add_nogood(&ab, 0.3);
        assert_eq!(atms.nogoods().len(), 1);
        assert!((atms.nogoods()[0].degree - 0.5).abs() < 1e-12);
        // A stronger subset wipes the pair nogood.
        atms.add_nogood(&Env::singleton(a), 0.9);
        assert_eq!(atms.nogoods().len(), 1);
        assert_eq!(atms.nogoods()[0].env, Env::singleton(a));
        // But a *weaker* subset coexists with a stronger superset.
        atms.add_nogood(&ab, 1.0);
        assert_eq!(atms.nogoods().len(), 2);
        // Zero-degree nogoods are ignored, degrees above 1 clamp.
        atms.add_nogood(&Env::singleton(b), 0.0);
        assert_eq!(atms.nogoods().len(), 2);
        atms.add_nogood(&Env::singleton(b), 7.0);
        assert_eq!(atms.suspicion(b), 1.0);
    }

    #[test]
    fn subsumed_installs_leave_the_epoch_alone() {
        let mut atms = FuzzyAtms::new();
        atms.add_nogood(&Env::from_ids([1, 2]), 0.5);
        assert_eq!(atms.nogood_epoch(), 1);
        atms.add_nogood(&Env::from_ids([1, 2]), 0.5);
        atms.add_nogood(&Env::from_ids([1, 2, 3]), 0.4);
        assert_eq!(atms.nogood_epoch(), 1);
        atms.add_nogood(&Env::from_ids([1, 2]), 0.9);
        assert_eq!(atms.nogood_epoch(), 2);
        assert_eq!(atms.nogoods().len(), 1);
    }

    #[test]
    fn fig5_ranked_diagnoses() {
        let mut atms = FuzzyAtms::new();
        let d1 = atms.add_assumption();
        let r1 = atms.add_assumption();
        let r2 = atms.add_assumption();
        atms.add_nogood(&Env::from_assumptions([r1, d1]), 0.5);
        atms.add_nogood(&Env::from_assumptions([r2, d1]), 1.0);

        let sorted = atms.sorted_nogoods();
        assert!((sorted[0].degree - 1.0).abs() < 1e-12);
        assert!((sorted[1].degree - 0.5).abs() < 1e-12);

        assert_eq!(atms.suspicion(d1), 1.0);
        assert_eq!(atms.suspicion(r1), 0.5);
        assert_eq!(atms.suspicion(r2), 1.0);

        let diags = atms.ranked_diagnoses(usize::MAX, 100);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].env, Env::singleton(d1));
        assert_eq!(diags[0].degree, 1.0);
        assert_eq!(diags[1].env, Env::from_assumptions([r1, r2]));
        assert_eq!(diags[1].degree, 0.5);
        assert_eq!(diags, atms.ranked_diagnoses_oracle(usize::MAX, 100));
    }

    #[test]
    fn reset_restores_the_fresh_store() {
        let mut atms = FuzzyAtms::new();
        let a = atms.add_assumption();
        let b = atms.add_assumption();
        let run = |atms: &mut FuzzyAtms| {
            atms.add_nogood(&Env::from_assumptions([a, b]), 0.6);
            atms.add_nogood(&Env::singleton(b), 0.3);
            (
                atms.sorted_nogoods(),
                atms.ranked_diagnoses(2, 16),
                atms.plausibility(&Env::from_assumptions([a, b])),
                atms.nogood_epoch(),
            )
        };
        let first = run(&mut atms);
        atms.reset();
        assert!(atms.nogoods().is_empty());
        assert_eq!(atms.nogood_epoch(), 0);
        assert!(atms.ranked_diagnoses(2, 16).is_empty());
        // Replaying the same board reproduces the same state exactly.
        assert_eq!(run(&mut atms), first);
    }

    #[test]
    fn diagnoses_empty_when_no_conflicts() {
        let atms = FuzzyAtms::new();
        assert!(atms.ranked_diagnoses(usize::MAX, 10).is_empty());
    }

    #[test]
    fn subsumed_conflicts_are_neither_interned_nor_logged() {
        let mut atms = FuzzyAtms::new();
        atms.add_nogood(&Env::from_ids([1, 2]), 0.5);
        let (envs, log, epoch) = (
            atms.envs.len(),
            atms.install_log.clone(),
            atms.nogood_epoch(),
        );
        // An equal env at a weaker degree and a fresh superset env: both
        // subsumed, so neither reaches the table.
        atms.add_nogood(&Env::from_ids([1, 2]), 0.4);
        atms.add_nogood(&Env::from_ids([1, 2, 7]), 0.5);
        assert_eq!(atms.envs.len(), envs);
        assert_eq!(atms.install_log, log);
        assert_eq!(atms.nogood_epoch(), epoch);
        // A stronger one is installed and interned.
        atms.add_nogood(&Env::from_ids([1, 2, 7]), 0.9);
        assert_eq!(atms.envs.len(), envs + 1);
        assert_eq!(atms.nogood_epoch(), epoch + 1);
    }

    /// The install this store ran before subsumption was probed on the
    /// raw environment: intern first, then test subsumption by id.
    fn intern_first_install(atms: &mut FuzzyAtms, env: Env, degree: f64) {
        if degree <= 0.0 {
            return;
        }
        let degree = degree.min(1.0);
        let ngid = atms.envs.intern_owned(env);
        let mut stats = SubsetStats::default();
        let subsumed = atms.nogood_ids.iter().zip(&atms.nogoods).any(|(&id, n)| {
            n.degree >= degree && atms.envs.is_subset_counted(id, ngid, &mut stats)
        });
        if subsumed {
            return;
        }
        atms.install_log.push(atms.envs.env(ngid).clone());
        atms.epoch += 1;
        let mut w = 0;
        for r in 0..atms.nogoods.len() {
            let dominated = degree >= atms.nogoods[r].degree
                && atms
                    .envs
                    .is_subset_counted(ngid, atms.nogood_ids[r], &mut stats);
            if !dominated {
                atms.nogoods.swap(w, r);
                atms.nogood_ids.swap(w, r);
                w += 1;
            }
        }
        atms.nogoods.truncate(w);
        atms.nogood_ids.truncate(w);
        atms.nogoods.push(Nogood {
            env: atms.envs.env(ngid).clone(),
            degree,
        });
        atms.nogood_ids.push(ngid);
    }

    #[test]
    fn probe_first_matches_the_intern_first_store() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200 {
            let mut probe = FuzzyAtms::new();
            let mut reference = FuzzyAtms::new();
            for _ in 0..8 {
                probe.add_assumption();
                reference.add_assumption();
            }
            let installs = 1 + next() % 40;
            for _ in 0..installs {
                // Small envs over 8 ids (plus an occasional id past the
                // inline words) and a few degrees, so equal envs,
                // subsets and ties recur.
                let mut env = Env::from_ids((0..8).filter(|_| next().is_multiple_of(4)));
                if next().is_multiple_of(16) {
                    env.insert(Assumption(200));
                }
                let degree = [0.0, 0.3, 0.5, 0.5, 0.8, 1.0][(next() % 6) as usize];
                probe.add_nogood(&env, degree);
                intern_first_install(&mut reference, env, degree);
                assert_eq!(probe.nogoods(), reference.nogoods());
                assert_eq!(probe.nogood_epoch(), reference.nogood_epoch());
            }
            for max_size in [1, 2, 3, usize::MAX] {
                assert_eq!(
                    probe.ranked_diagnoses(max_size, 64),
                    reference.ranked_diagnoses(max_size, 64)
                );
            }
        }
    }
}
