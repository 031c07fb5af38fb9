use crate::propagation::{
    CoincidenceRecord, CompiledSchedule, PropState, Propagator, PropagatorConfig, ValueEntry,
};
use crate::Result;
use flames_atms::{Env, Nogood, RankedDiagnosis};
use flames_circuit::constraint::{extract, ExtractOptions, Network, QuantityId};
use flames_circuit::predict::{nominal_predictions, TestPoint};
use flames_circuit::{CompId, Net, Netlist};
use flames_fuzzy::{Consistency, FuzzyInterval};
use std::fmt;
use std::sync::Arc;

/// Configuration of a [`Diagnoser`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiagnoserConfig {
    /// Propagation engine knobs (t-norm, conflict threshold, caps).
    pub propagator: PropagatorConfig,
    /// Model extraction options.
    pub extract: ExtractOptions,
}

/// A ranked diagnosis candidate with human-readable member names.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Names of the implicated components (or `conn:<net>` connections).
    pub members: Vec<String>,
    /// The underlying assumption set.
    pub env: Env,
    /// Seriousness degree (see
    /// [`flames_atms::FuzzyAtms::ranked_diagnoses`]).
    pub degree: f64,
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] @ {:.2}", self.members.join(", "), self.degree)
    }
}

/// Per-test-point entry of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// The test point's name.
    pub name: String,
    /// The model's fuzzy prediction.
    pub predicted: FuzzyInterval,
    /// The measured value, if this point has been probed.
    pub measured: Option<FuzzyInterval>,
    /// `Dc(measured, predicted)` with deviation direction, if probed.
    pub consistency: Option<Consistency>,
}

/// Grades every test point: `Dc(measured, predicted)` through the closed
/// form [`Consistency::between`] for each probed point. The one grading
/// behind [`Session::report`], the sharded report and the rule store's
/// symptom and hit-report paths, so a point's degree is the same number
/// wherever it is read.
pub(crate) fn point_reports(
    test_points: &[TestPoint],
    predictions: &[FuzzyInterval],
    measured: &[Option<FuzzyInterval>],
) -> Vec<PointReport> {
    test_points
        .iter()
        .zip(predictions)
        .zip(measured)
        .map(|((tp, predicted), measured)| PointReport {
            name: tp.name.clone(),
            predicted: *predicted,
            measured: *measured,
            consistency: measured.map(|m| Consistency::between(&m, predicted)),
        })
        .collect()
}

/// A diagnosis snapshot: per-point consistencies, the graded nogoods, and
/// the ranked candidates — the content of the paper's Fig. 7 table rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One entry per test point.
    pub points: Vec<PointReport>,
    /// Nogoods as (rendered member set, degree), strongest first.
    pub nogoods: Vec<(String, f64)>,
    /// Ranked candidates (initial suspects).
    pub candidates: Vec<Candidate>,
    /// Refined candidates (degree-filtered, Dc-exonerated) — the paper's
    /// `==>` column.
    pub refined: Vec<Candidate>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "test points:")?;
        for p in &self.points {
            match (&p.measured, &p.consistency) {
                (Some(m), Some(dc)) => writeln!(
                    f,
                    "  {:<6} predicted {:.3}  measured {:.3}  Dc = {}",
                    p.name, p.predicted, m, dc
                )?,
                _ => writeln!(
                    f,
                    "  {:<6} predicted {:.3}  (not probed)",
                    p.name, p.predicted
                )?,
            }
        }
        writeln!(f, "nogoods:")?;
        for (set, degree) in &self.nogoods {
            writeln!(f, "  {set} @ {degree:.2}")?;
        }
        writeln!(f, "candidates:")?;
        for c in &self.candidates {
            writeln!(f, "  {c}")?;
        }
        writeln!(f, "refined:")?;
        for c in &self.refined {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// The immutable, `Send + Sync` per-circuit model: the netlist, the
/// extracted constraint network, the compiled propagation schedule
/// ([`CompiledSchedule`]), the declared test points with their fuzzy
/// nominal predictions, the resolved test-point quantities, and the
/// pre-propagated *base state* — model seeds plus test-point predictions
/// already run to quiescence.
///
/// Built once per circuit (inside [`Diagnoser::from_netlist`] /
/// [`Diagnoser::from_network`]) and shared behind an [`Arc`] — cloning a
/// [`Diagnoser`] is a reference-count bump, and any number of threads can
/// open sessions against the same model concurrently (see
/// [`diagnose_batch_lanes`]).
///
/// The base state is the serve-many half of the compile: the seed
/// fixpoint is board-independent, so every session restores this
/// snapshot instead of re-deriving it, and only the board's own
/// measurements propagate (incrementally) per diagnosis.
#[derive(Debug)]
pub struct CompiledModel {
    netlist: Arc<Netlist>,
    network: Network,
    schedule: CompiledSchedule,
    test_points: Vec<TestPoint>,
    predictions: Vec<FuzzyInterval>,
    /// Voltage quantity of each test point, resolved once.
    point_quantities: Vec<QuantityId>,
    /// Seeds + predictions propagated to quiescence, captured once.
    base_state: PropState,
    config: DiagnoserConfig,
}

impl CompiledModel {
    fn new(
        netlist: Arc<Netlist>,
        network: Network,
        test_points: Vec<TestPoint>,
        predictions: Vec<FuzzyInterval>,
        config: DiagnoserConfig,
    ) -> Self {
        let schedule = CompiledSchedule::build(&netlist, &network, config.propagator);
        let point_quantities: Vec<QuantityId> = test_points
            .iter()
            .map(|tp| network.voltage_quantity(tp.net))
            .collect();
        // The seed fixpoint is board-independent: run it once here,
        // exactly as a cold session would live, and snapshot the result.
        // Sessions restore this state instead of re-propagating it.
        let base_state = {
            let mut prop = Propagator::with_schedule(&network, &schedule, config.propagator);
            seed_predictions_into(
                &mut prop,
                &test_points,
                &predictions,
                &point_quantities,
                &[],
            );
            prop.run();
            prop.snapshot_state()
        };
        Self {
            netlist,
            network,
            schedule,
            test_points,
            predictions,
            point_quantities,
            base_state,
            config,
        }
    }

    /// The netlist the model was compiled from.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The extracted constraint network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The compiled propagation schedule.
    #[must_use]
    pub fn schedule(&self) -> &CompiledSchedule {
        &self.schedule
    }

    /// The declared test points.
    #[must_use]
    pub fn test_points(&self) -> &[TestPoint] {
        &self.test_points
    }
}

/// The FLAMES diagnoser for one circuit: a shared handle on the
/// [`CompiledModel`] (model database, test points, nominal predictions).
///
/// Build once per circuit; open a fresh [`Session`] per board under test,
/// or reuse warm sessions through a [`SessionPool`] /
/// [`diagnose_batch_lanes`]. Cloning is cheap (an [`Arc`] bump) and clones
/// share the compiled model.
#[derive(Debug, Clone)]
pub struct Diagnoser {
    model: Arc<CompiledModel>,
}

impl Diagnoser {
    /// Builds a diagnoser: extracts the constraint network, computes
    /// fuzzy nominal predictions for every test point, and compiles the
    /// propagation schedule — the once-per-model costs.
    ///
    /// # Errors
    ///
    /// Propagates circuit-solver failures from the prediction corners.
    pub fn from_netlist(
        netlist: &Netlist,
        test_points: Vec<TestPoint>,
        config: DiagnoserConfig,
    ) -> Result<Self> {
        let network = extract(netlist, config.extract);
        let nets: Vec<Net> = test_points.iter().map(|tp| tp.net).collect();
        let predictions = nominal_predictions(netlist, &nets)?;
        Ok(Self {
            model: Arc::new(CompiledModel::new(
                Arc::new(netlist.clone()),
                network,
                test_points,
                predictions,
                config,
            )),
        })
    }

    /// Builds a diagnoser from an already-extracted network (used when
    /// the builder added specs or extra seeds) with explicit predictions.
    #[must_use]
    pub fn from_network(
        netlist: &Netlist,
        network: Network,
        test_points: Vec<TestPoint>,
        predictions: Vec<FuzzyInterval>,
        config: DiagnoserConfig,
    ) -> Self {
        Self {
            model: Arc::new(CompiledModel::new(
                Arc::new(netlist.clone()),
                network,
                test_points,
                predictions,
                config,
            )),
        }
    }

    /// The shared compiled model.
    #[must_use]
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The declared test points.
    #[must_use]
    pub fn test_points(&self) -> &[TestPoint] {
        &self.model.test_points
    }

    /// The fuzzy nominal prediction of a test point (by index), or
    /// `None` for an out-of-range index.
    #[must_use]
    pub fn prediction_checked(&self, point: usize) -> Option<&FuzzyInterval> {
        self.model.predictions.get(point)
    }

    /// The fuzzy nominal prediction of a test point (by index).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index; use
    /// [`Diagnoser::prediction_checked`] to handle that case.
    #[must_use]
    pub fn prediction(&self, point: usize) -> &FuzzyInterval {
        self.prediction_checked(point)
            .expect("test-point index out of range")
    }

    /// [`point_reports`] of this model's test points for one board's
    /// measurements (`None` where a point was not probed).
    pub(crate) fn point_reports(&self, measured: &[Option<FuzzyInterval>]) -> Vec<PointReport> {
        point_reports(&self.model.test_points, &self.model.predictions, measured)
    }

    /// The extracted constraint network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.model.network
    }

    /// The netlist the diagnoser was built from.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.model.netlist
    }

    /// Opens a fresh diagnosis session against the shared compiled
    /// model: a propagator *restored from the model's pre-propagated
    /// base state* — seeds and test-point predictions already at
    /// quiescence. None of the once-per-model work (schedule,
    /// vocabulary, environments, the seed fixpoint) is repeated here;
    /// only the board's own measurements propagate.
    #[must_use]
    pub fn session(&self) -> Session<'_> {
        self.session_excusing(&[])
    }

    /// Opens a session with the listed components' models *withdrawn*
    /// (their constraints and parameter seeds skipped) — the §6.2
    /// model-validity mechanism: a device driven out of the operating
    /// region its model assumes must not generate secondary conflicts.
    /// Test-point predictions whose cone contains an excused component
    /// are withheld too (they were computed with the invalid model).
    ///
    /// The seed filter runs against the compiled seed list of the
    /// shared schedule — the netlist is not re-walked.
    #[must_use]
    pub fn session_excusing(&self, excused: &[CompId]) -> Session<'_> {
        self.open(excused, excused.is_empty())
    }

    /// Opens a session that runs the seed fixpoint live instead of
    /// restoring the model's snapshot of it: the *cold* baseline of the
    /// batch benchmark and the reference the snapshot is checked against.
    #[must_use]
    pub fn cold_session(&self) -> Session<'_> {
        flames_obs::metrics().cold_sessions.incr();
        self.open(&[], false)
    }

    /// Opens a session on the model's schedule, either restoring the base
    /// snapshot (valid only without excusal, which changes the seeds and
    /// the constraint mask) or propagating the filtered seed fixpoint live.
    fn open(&self, excused: &[CompId], restore: bool) -> Session<'_> {
        flames_obs::metrics().sessions_opened.incr();
        let model = &*self.model;
        let mut prop = Propagator::with_schedule_filtered(
            &model.network,
            &model.schedule,
            model.config.propagator,
            excused,
            excused,
        );
        if restore {
            prop.restore_state(&model.base_state);
        } else {
            self.seed_predictions(&mut prop, excused);
            prop.run();
        }
        Session {
            diagnoser: self,
            prop,
            excused: excused.to_vec(),
            measured: vec![None; model.test_points.len()],
            priors: vec![None; model.netlist.component_count()],
            waves: Vec::new(),
            cand_cache: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Loads the test-point predictions into a propagator, skipping
    /// points whose support cone contains an excused component.
    fn seed_predictions(&self, prop: &mut Propagator<'_>, excused: &[CompId]) {
        let model = &*self.model;
        seed_predictions_into(
            prop,
            &model.test_points,
            &model.predictions,
            &model.point_quantities,
            excused,
        );
    }
}

/// Loads test-point predictions into a propagator, skipping points whose
/// support cone contains an excused component. Free-standing so
/// [`CompiledModel::new`] can seed the base-state propagator before the
/// model (and hence any [`Diagnoser`]) exists.
fn seed_predictions_into(
    prop: &mut Propagator<'_>,
    test_points: &[TestPoint],
    predictions: &[FuzzyInterval],
    point_quantities: &[QuantityId],
    excused: &[CompId],
) {
    for (idx, (tp, pred)) in test_points.iter().zip(predictions).enumerate() {
        if tp.support.iter().any(|c| excused.contains(c)) {
            continue;
        }
        prop.predict(point_quantities[idx], *pred, &tp.support, 1.0)
            .expect("test-point quantities exist in the extracted network");
    }
}

/// One diagnosis run against one (possibly faulty) board.
#[derive(Debug)]
pub struct Session<'d> {
    diagnoser: &'d Diagnoser,
    prop: Propagator<'d>,
    /// Components whose models were withdrawn when the session opened
    /// ([`Diagnoser::session_excusing`]); [`Session::reset`] reapplies
    /// them.
    excused: Vec<CompId>,
    measured: Vec<Option<FuzzyInterval>>,
    priors: Vec<Option<FuzzyInterval>>,
    /// One record per [`Session::propagate`] call, for the diagnosis
    /// trace ([`Session::trace`]). Lives on the session, not in the
    /// propagator state, so base-state snapshot restores cannot clobber
    /// it.
    waves: Vec<crate::trace::WaveRecord>,
    /// Nogood-epoch-tagged candidate cache: one rendered candidate list
    /// per queried `(max_size, max_count)`, valid while the ATMS epoch is
    /// unchanged. [`Session::reset`] clears it — a snapshot restore
    /// rewinds the epoch counter, so tags from before the restore must
    /// not be allowed to match tags after it. A `Mutex` (never contended:
    /// sessions are driven by one thread) keeps the session `Sync`.
    cand_cache: std::sync::Mutex<Vec<CandCacheEntry>>,
}

/// One [`Session::candidates`] result, tagged with the ATMS nogood epoch
/// it was computed at.
#[derive(Debug, Clone)]
struct CandCacheEntry {
    epoch: u64,
    max_size: usize,
    max_count: usize,
    candidates: Vec<Candidate>,
}

impl Clone for Session<'_> {
    fn clone(&self) -> Self {
        Self {
            diagnoser: self.diagnoser,
            prop: self.prop.clone(),
            excused: self.excused.clone(),
            measured: self.measured.clone(),
            priors: self.priors.clone(),
            waves: self.waves.clone(),
            cand_cache: std::sync::Mutex::new(self.locked_cand_cache().clone()),
        }
    }
}

impl<'d> Session<'d> {
    /// Clears the per-board state — measurements, labels, nogoods,
    /// coincidences, priors — without deallocating, then restores the
    /// model's pre-propagated base state (or, for an excusing session,
    /// re-runs the filtered seed fixpoint). A reset session produces
    /// reports identical to a freshly opened one (the serving tests
    /// assert this byte-for-byte), at a fraction of the cost: no
    /// schedule rebuild, no vocabulary interning, no seed fixpoint,
    /// warm allocations throughout.
    pub fn reset(&mut self) {
        flames_obs::metrics().session_resets.incr();
        self.waves.clear();
        // The snapshot restore below rewinds the ATMS nogood-epoch
        // counter, so cached candidate lists tagged with a pre-reset
        // epoch could otherwise match a post-reset query by accident.
        self.locked_cand_cache().clear();
        if self.excused.is_empty() {
            self.prop.restore_state(&self.diagnoser.model.base_state);
        } else {
            self.prop.reset();
            self.diagnoser
                .seed_predictions(&mut self.prop, &self.excused);
            self.prop.run();
        }
        for m in &mut self.measured {
            *m = None;
        }
        for p in &mut self.priors {
            *p = None;
        }
    }

    /// Records a measurement at a test point, by name.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an unknown point.
    pub fn measure(&mut self, point: &str, value: FuzzyInterval) -> Result<()> {
        let idx = self
            .diagnoser
            .model
            .test_points
            .iter()
            .position(|tp| tp.name == point)
            .ok_or_else(|| crate::CoreError::UnknownName {
                name: point.to_owned(),
            })?;
        self.measure_point(idx, value)
    }

    /// Records a measurement at a test point, by index.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an out-of-range
    /// index.
    pub fn measure_point(&mut self, idx: usize, value: FuzzyInterval) -> Result<()> {
        let model = Arc::as_ref(&self.diagnoser.model);
        if idx >= model.test_points.len() {
            return Err(crate::CoreError::UnknownName {
                name: format!("test point #{idx}"),
            });
        }
        let q = model.point_quantities[idx];
        self.prop.observe(q, value)?;
        self.measured[idx] = Some(value);
        Ok(())
    }

    /// Runs propagation to quiescence ([`Propagator::run`]) and records
    /// the wave; returns the number of constraint applications.
    pub fn propagate(&mut self) -> usize {
        let steps = self.prop.run();
        self.waves.push(crate::trace::WaveRecord {
            steps,
            coincidences_total: self.prop.coincidences().len(),
            nogoods_total: self.prop.atms().nogoods().len(),
        });
        steps
    }

    /// Propagates each session in turn with [`Session::propagate`];
    /// returns each session's constraint application count.
    pub fn propagate_lane(sessions: &mut [&mut Session<'d>]) -> Vec<usize> {
        sessions.iter_mut().map(|s| s.propagate()).collect()
    }

    /// The per-wave propagation records accumulated since the session
    /// opened (or was last reset) — one per [`Session::propagate`] call.
    #[must_use]
    pub fn waves(&self) -> &[crate::trace::WaveRecord] {
        &self.waves
    }

    /// Exports the session's diagnosis history as a deterministic
    /// [`flames_obs::Trace`] (see [`crate::trace`] for the schema).
    #[must_use]
    pub fn trace(&self) -> flames_obs::Trace {
        crate::trace::diagnosis_trace(self)
    }

    /// `Dc(measured, predicted)` of a probed test point.
    #[must_use]
    pub fn consistency(&self, point: &str) -> Option<Consistency> {
        let idx = self
            .diagnoser
            .model
            .test_points
            .iter()
            .position(|tp| tp.name == point)?;
        let measured = self.measured[idx]?;
        Some(Consistency::between(
            &measured,
            self.diagnoser.prediction_checked(idx)?,
        ))
    }

    /// Ranked candidates (minimal hitting sets of the graded nogoods),
    /// rendered with component names.
    ///
    /// Results are cached per `(max_size, max_count)` and tagged with the
    /// ATMS nogood epoch, so repeated calls between propagation waves —
    /// the probe planner asks after every hypothetical outcome — cost one
    /// lock-and-clone instead of a hitting-set computation.
    #[must_use]
    pub fn candidates(&self, max_size: usize, max_count: usize) -> Vec<Candidate> {
        let epoch = self.prop.atms().nogood_epoch();
        let mut cache = self.locked_cand_cache();
        if let Some(entry) = cache
            .iter()
            .find(|e| e.max_size == max_size && e.max_count == max_count)
        {
            if entry.epoch == epoch {
                return entry.candidates.clone();
            }
        }
        let candidates =
            self.render_candidates(self.prop.atms().ranked_diagnoses(max_size, max_count));
        match cache
            .iter_mut()
            .find(|e| e.max_size == max_size && e.max_count == max_count)
        {
            Some(entry) => {
                entry.epoch = epoch;
                entry.candidates = candidates.clone();
            }
            None => cache.push(CandCacheEntry {
                epoch,
                max_size,
                max_count,
                candidates: candidates.clone(),
            }),
        }
        candidates
    }

    /// [`Session::candidates`] without the epoch-tagged cache *and*
    /// without the incremental [`flames_atms::CandidateSet`] underneath:
    /// every call recomputes the minimal hitting sets from the full
    /// nogood store. Kept as the differential oracle for the strategy
    /// benchmark and the equivalence tests.
    #[must_use]
    pub fn candidates_uncached(&self, max_size: usize, max_count: usize) -> Vec<Candidate> {
        self.render_candidates(
            self.prop
                .atms()
                .ranked_diagnoses_oracle(max_size, max_count),
        )
    }

    fn render_candidates(&self, ranked: Vec<RankedDiagnosis>) -> Vec<Candidate> {
        ranked
            .into_iter()
            .map(|RankedDiagnosis { env, degree }| Candidate {
                members: env
                    .iter()
                    .map(|a| self.prop.schedule().assumption_name(a).to_owned())
                    .collect(),
                env,
                degree,
            })
            .collect()
    }

    fn locked_cand_cache(&self) -> std::sync::MutexGuard<'_, Vec<CandCacheEntry>> {
        self.cand_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Refined candidates — the right-hand side of the paper's Fig. 7
    /// rows (`{initial} ==> {refined}`): the **single-fault refinement**.
    ///
    /// Three gradings are applied on top of [`Session::candidates`]:
    ///
    /// * **degree filtering** (the paper's "list of nogoods sorted
    ///   according to their consistency degrees … allows to restrict the
    ///   effect of explosion"): only nogoods with degree at least
    ///   `rho × max_degree` are considered, so noise-level conflicts stop
    ///   steering the refinement;
    /// * **specificity**: among the strong nogoods, the smallest
    ///   (most informative) conflict sets name the suspects — secondary
    ///   conflicts raised downstream of an already-deviating point do not
    ///   dilute them;
    /// * **exoneration by Dc**: each suspect is scored by its strongest
    ///   conflict, discounted by the degree of consistency of the most
    ///   specific probed test point covering it — "thanks to Dc" a
    ///   component sitting under a consistent probe drops down the
    ///   ranking. Assumptions with no covering point (connections) are
    ///   discounted by the best Dc observed anywhere.
    ///
    /// The returned candidates are single components; use
    /// [`Session::candidates`] for the complete multiple-fault lattice.
    #[must_use]
    pub fn refined_candidates(&self, max_count: usize, rho: f64) -> Vec<Candidate> {
        let nogoods = self.prop.atms().nogoods();
        let max_degree = nogoods.iter().map(|n| n.degree).fold(0.0, f64::max);
        if max_degree <= 0.0 {
            return Vec::new();
        }
        let cut = rho.clamp(0.0, 1.0) * max_degree;
        let strong: Vec<&flames_atms::Nogood> =
            nogoods.iter().filter(|n| n.degree >= cut).collect();
        let min_size = strong.iter().map(|n| n.env.len()).min().unwrap_or(0);
        let mut members: Vec<flames_atms::Assumption> = strong
            .iter()
            .filter(|n| n.env.len() == min_size)
            .flat_map(|n| n.env.iter())
            .collect();
        members.sort();
        members.dedup();
        let mut out: Vec<Candidate> = members
            .into_iter()
            .map(|a| {
                let degree = self.prop.atms().suspicion(a) * (1.0 - self.exoneration(a));
                Candidate {
                    members: vec![self.prop.schedule().assumption_name(a).to_owned()],
                    env: Env::singleton(a),
                    degree,
                }
            })
            .collect();
        rank_refined(&mut out);
        out.truncate(max_count);
        out
    }

    /// Dc-based exoneration of an assumption: the consistency degree of
    /// the most specific (smallest-cone) probed point covering it, or the
    /// best Dc observed anywhere for assumptions outside every cone.
    fn exoneration(&self, a: flames_atms::Assumption) -> f64 {
        let model = Arc::as_ref(&self.diagnoser.model);
        let mut best: Option<(usize, f64)> = None;
        let mut any_dc: f64 = 0.0;
        for (idx, tp) in model.test_points.iter().enumerate() {
            let Some(measured) = self.measured[idx] else {
                continue;
            };
            let dc = Consistency::between(&measured, &model.predictions[idx]).degree();
            any_dc = any_dc.max(dc);
            let covers = tp
                .support
                .iter()
                .any(|c| self.prop.schedule().component_assumption(c.index()) == a);
            if covers {
                let cone = tp.support.len();
                if best.is_none_or(|(sz, _)| cone < sz) {
                    best = Some((cone, dc));
                }
            }
        }
        best.map_or(any_dc, |(_, dc)| dc)
    }

    /// Suspicion degree of a component (strongest conflict implicating
    /// it), by name; `None` for unknown names.
    #[must_use]
    pub fn suspicion(&self, component: &str) -> Option<f64> {
        let id = self.diagnoser.netlist().component_by_name(component)?;
        Some(
            self.prop
                .atms()
                .suspicion(self.prop.schedule().component_assumption(id.index())),
        )
    }

    /// Records the expert's a priori faultiness estimation of a component
    /// (§5: "a priori estimations of faultiness in components"). The set
    /// must live inside `[0, 1]`; it replaces the default "unknown"
    /// estimation and floors the suspicion-based one.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an unknown
    /// component, or a fuzzy-calculus error if the set leaves the unit
    /// interval.
    pub fn set_prior(&mut self, component: &str, estimation: FuzzyInterval) -> Result<()> {
        let id = self
            .diagnoser
            .netlist()
            .component_by_name(component)
            .ok_or_else(|| crate::CoreError::UnknownName {
                name: component.to_owned(),
            })?;
        let (lo, hi) = estimation.support();
        if lo < -1e-9 || hi > 1.0 + 1e-9 {
            return Err(crate::CoreError::Fuzzy(
                flames_fuzzy::FuzzyError::EstimationOutOfRange {
                    value: if lo < 0.0 { lo } else { hi },
                },
            ));
        }
        self.priors[id.index()] = Some(estimation);
        Ok(())
    }

    /// Fuzzy faultiness estimations per component (§8.1): suspicion-based
    /// fuzzy numbers for implicated components (floored by any expert
    /// prior), near-"correct" sets for components exonerated by a
    /// consistent measurement covering them, the expert's prior where one
    /// was given, and a mid-scale "unknown" otherwise. Returned in
    /// netlist component order as `(name, estimation)`.
    #[must_use]
    pub fn estimations(&self) -> Vec<(String, FuzzyInterval)> {
        let exonerated = self.exonerated_components();
        self.diagnoser
            .netlist()
            .components()
            .map(|(id, comp)| {
                let a = self.prop.schedule().component_assumption(id.index());
                let s = self.prop.atms().suspicion(a);
                let prior = self.priors[id.index()];
                let est = if s > 0.0 {
                    // Suspicion s as a fuzzy estimation around s.
                    let lo = (s - 0.1).max(0.0);
                    let hi = (s + 0.05).min(1.0);
                    let from_suspicion =
                        FuzzyInterval::new(lo, hi, lo.min(0.05), (1.0 - hi).min(0.05))
                            .expect("estimation inside unit interval");
                    match prior {
                        Some(p) => from_suspicion.max_ext(&p),
                        None => from_suspicion,
                    }
                } else if exonerated[id.index()] {
                    FuzzyInterval::new(0.0, 0.05, 0.0, 0.05).expect("static")
                } else if let Some(p) = prior {
                    p
                } else {
                    FuzzyInterval::new(0.3, 0.5, 0.1, 0.1).expect("static")
                };
                (comp.name().to_owned(), est)
            })
            .collect()
    }

    /// Marks components covered by a fully consistent probed point.
    fn exonerated_components(&self) -> Vec<bool> {
        let model = Arc::as_ref(&self.diagnoser.model);
        let mut out = vec![false; model.netlist.component_count()];
        for (idx, tp) in model.test_points.iter().enumerate() {
            let Some(measured) = self.measured[idx] else {
                continue;
            };
            let dc = Consistency::between(&measured, &model.predictions[idx]);
            if dc.is_consistent() {
                for comp in &tp.support {
                    out[comp.index()] = true;
                }
            }
        }
        out
    }

    /// Builds the full snapshot report.
    #[must_use]
    pub fn report(&self) -> Report {
        let points = self.diagnoser.point_reports(&self.measured);
        let nogoods = self
            .prop
            .atms()
            .sorted_nogoods()
            .into_iter()
            .map(|Nogood { env, degree }| (self.prop.schedule().pool().render(env.iter()), degree))
            .collect();
        let candidates = self.candidates(3, 64);
        let refined = self.refined_candidates(16, 0.5);
        Report {
            points,
            nogoods,
            candidates,
            refined,
        }
    }

    /// The diagnoser this session runs against.
    #[must_use]
    pub fn diagnoser(&self) -> &'d Diagnoser {
        self.diagnoser
    }

    /// The underlying propagator (labels, coincidences, ATMS).
    #[must_use]
    pub fn propagator(&self) -> &Propagator<'d> {
        &self.prop
    }

    /// Mutable access to the propagator, for expert extensions (extra
    /// nogoods, fault-model rules).
    #[must_use]
    pub fn propagator_mut(&mut self) -> &mut Propagator<'d> {
        &mut self.prop
    }

    /// All coincidences recorded by propagation.
    #[must_use]
    pub fn coincidences(&self) -> &[CoincidenceRecord] {
        self.prop.coincidences()
    }

    /// Which test points have been probed so far (by index).
    #[must_use]
    pub fn probed(&self) -> Vec<bool> {
        self.measured.iter().map(Option::is_some).collect()
    }

    /// The best derived value of a quantity, if any (exposes the label
    /// store for inspection and for fault-model parameter inference).
    /// Returned by value: the column store materializes entries on
    /// demand rather than holding them contiguously.
    #[must_use]
    pub fn best_value(&self, q: QuantityId) -> Option<ValueEntry> {
        self.prop.best_value(q)
    }
}

/// A pool of warm, reusable [`Session`]s over one [`Diagnoser`].
///
/// [`SessionPool::acquire`] pops an idle session and [`Session::reset`]s
/// it (or opens a fresh one when the pool is empty);
/// [`SessionPool::release`] returns a finished session for reuse. A
/// recycled session keeps its allocations — label stores, ATMS arenas,
/// the interned environment table — so steady-state serving does no
/// per-board setup beyond re-seeding model values.
///
/// The pool only recycles plain sessions of its own diagnoser;
/// model-excusing sessions ([`Diagnoser::session_excusing`]) and
/// foreign sessions are dropped on release rather than pooled.
#[derive(Debug)]
pub struct SessionPool<'d> {
    diagnoser: &'d Diagnoser,
    idle: Vec<Session<'d>>,
}

impl<'d> SessionPool<'d> {
    /// Creates an empty pool over a diagnoser.
    #[must_use]
    pub fn new(diagnoser: &'d Diagnoser) -> Self {
        Self {
            diagnoser,
            idle: Vec::new(),
        }
    }

    /// Pre-opens `n` idle sessions, so the first `n` acquisitions are
    /// warm.
    pub fn warm(&mut self, n: usize) {
        while self.idle.len() < n {
            self.idle.push(self.diagnoser.session());
        }
    }

    /// A ready-to-use session: a recycled one (reset) if available,
    /// freshly opened otherwise.
    #[must_use]
    pub fn acquire(&mut self) -> Session<'d> {
        let session = match self.idle.pop() {
            Some(mut session) => {
                flames_obs::metrics().pool_hits.incr();
                session.reset();
                session
            }
            None => {
                flames_obs::metrics().pool_misses.incr();
                self.diagnoser.session()
            }
        };
        flames_obs::metrics().pool_idle.set(self.idle.len() as u64);
        session
    }

    /// Returns a session to the pool for reuse. Sessions with an
    /// excusal filter or from a different diagnoser are dropped instead.
    pub fn release(&mut self, session: Session<'d>) {
        if session.excused.is_empty() && std::ptr::eq(session.diagnoser, self.diagnoser) {
            self.idle.push(session);
        }
        flames_obs::metrics().pool_idle.set(self.idle.len() as u64);
    }

    /// Number of idle sessions currently held.
    #[must_use]
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// The diagnoser this pool opens sessions against.
    #[must_use]
    pub fn diagnoser(&self) -> &'d Diagnoser {
        self.diagnoser
    }
}

/// The measurements of one board under test, as
/// `(test-point index, measured value)` pairs.
pub type Board = Vec<(usize, FuzzyInterval)>;

/// Diagnoses a batch of boards against one shared [`CompiledModel`],
/// spreading the boards over `threads` workers (`std::thread::scope` —
/// no external runtime). Each worker runs its own [`SessionPool`], so
/// after its first board it serves from one warm session, and
/// propagates each board alone.
///
/// Boards are split into contiguous chunks and results are written by
/// board index, so the output order — and, because a warm session is
/// indistinguishable from a fresh one, every report byte — is identical
/// for any thread count.
///
/// # Errors
///
/// Returns the first per-board error (e.g. an out-of-range test-point
/// index in a [`Board`]).
///
/// # Panics
///
/// Panics if a worker thread panics.
///
/// # Example
///
/// ```
/// use flames_circuit::{predict::TestPoint, Net, Netlist};
/// use flames_core::{diagnose_batch_lanes, Diagnoser, DiagnoserConfig};
/// use flames_fuzzy::FuzzyInterval;
///
/// # fn main() -> Result<(), flames_core::CoreError> {
/// let mut nl = Netlist::new();
/// let vin = nl.add_net("vin");
/// let mid = nl.add_net("mid");
/// nl.add_voltage_source("V", vin, Net::GROUND, 10.0)?;
/// let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05)?;
/// let r2 = nl.add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)?;
/// let diagnoser = Diagnoser::from_netlist(
///     &nl,
///     vec![TestPoint::new(mid, "Vmid", vec![r1, r2])],
///     DiagnoserConfig::default(),
/// )?;
/// // Two boards: one healthy, one reading high at Vmid.
/// let boards = vec![
///     vec![(0, FuzzyInterval::crisp(5.0).widened(0.05)?)],
///     vec![(0, FuzzyInterval::crisp(6.2).widened(0.05)?)],
/// ];
/// let reports = diagnose_batch_lanes(&diagnoser, &boards, 2)?;
/// assert!(reports[0].candidates.is_empty());
/// assert!(!reports[1].candidates.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn diagnose_batch_lanes(
    diagnoser: &Diagnoser,
    boards: &[Board],
    threads: usize,
) -> Result<Vec<Report>> {
    fan_out(diagnoser, boards, threads, |pool, board| {
        flames_obs::metrics().boards_diagnosed.incr();
        let mut session = pool.acquire();
        for &(idx, value) in board {
            session.measure_point(idx, value)?;
        }
        session.propagate();
        let report = session.report();
        pool.release(session);
        Ok(report)
    })
}

/// Runs `serve` on every item on `threads` scoped workers, each over a
/// contiguous chunk with a [`SessionPool`] of its own; results come back
/// in item order. The one fan-out behind every batch driver.
pub(crate) fn fan_out<'d, T: Sync, R: Send>(
    diagnoser: &'d Diagnoser,
    items: &[T],
    threads: usize,
    serve: impl Fn(&mut SessionPool<'d>, &T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let threads = threads.max(1).min(items.len().max(1));
    let worker = |batch: &[T]| -> Result<Vec<R>> {
        let mut pool = SessionPool::new(diagnoser);
        batch.iter().map(|item| serve(&mut pool, item)).collect()
    };
    if threads <= 1 {
        return worker(items);
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|batch| scope.spawn(|| worker(batch)))
            .collect();
        let mut results = Vec::with_capacity(items.len());
        for handle in handles {
            results.extend(handle.join().expect("batch worker panicked")?);
        }
        Ok(results)
    })
}

/// The refined-candidate order: decreasing degree (a NaN degree first,
/// never a panic), then environment.
pub(crate) fn rank_refined(out: &mut [Candidate]) {
    out.sort_by(|p, q| {
        q.degree
            .total_cmp(&p.degree)
            .then_with(|| p.env.cmp(&q.env))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refined_order_ranks_nan_degrees_without_panicking() {
        let candidate = |a: u32, degree: f64| Candidate {
            members: vec![format!("C{a}")],
            env: Env::singleton(flames_atms::Assumption(a)),
            degree,
        };
        let mut out = vec![candidate(0, 0.2), candidate(1, f64::NAN), candidate(2, 0.7)];
        rank_refined(&mut out);
        let members: Vec<&str> = out.iter().map(|c| c.members[0].as_str()).collect();
        assert_eq!(members, ["C1", "C2", "C0"]);
    }
    use flames_circuit::{Fault, Net};

    fn divider_diagnoser() -> Diagnoser {
        let mut nl = Netlist::new();
        let vin = nl.add_net("vin");
        let mid = nl.add_net("mid");
        nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
        let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05).unwrap();
        let r2 = nl
            .add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)
            .unwrap();
        let points = vec![
            TestPoint::new(mid, "Vmid", vec![r1, r2]),
            TestPoint::new(vin, "Vin", vec![]),
        ];
        Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default()).unwrap()
    }

    #[test]
    fn healthy_board_reports_consistent() {
        let d = divider_diagnoser();
        let mut s = d.session();
        s.measure("Vmid", FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        let dc = s.consistency("Vmid").unwrap();
        assert!(dc.is_consistent());
        assert!(s.candidates(2, 16).is_empty());
        let report = s.report();
        assert!(report.nogoods.is_empty());
        assert_eq!(report.points.len(), 2);
        assert!(report.points[1].measured.is_none());
    }

    #[test]
    fn faulty_board_yields_candidates() {
        let d = divider_diagnoser();
        // R1 drifted 40 % high: mid voltage drops to 10·(1/2.4) ≈ 4.17.
        let r1 = d.netlist().component_by_name("R1").unwrap();
        let bad =
            flames_circuit::fault::inject_faults(d.netlist(), &[(r1, Fault::ParamFactor(1.4))])
                .unwrap();
        let reading = flames_circuit::predict::measure(&bad, d.test_points()[0].net, 0.02).unwrap();
        let mut s = d.session();
        s.measure("Vmid", reading).unwrap();
        s.propagate();
        let dc = s.consistency("Vmid").unwrap();
        assert!(!dc.is_consistent());
        assert_eq!(dc.direction(), flames_fuzzy::Direction::Low);
        let candidates = s.candidates(2, 32);
        assert!(!candidates.is_empty());
        let names: Vec<&str> = candidates
            .iter()
            .flat_map(|c| c.members.iter().map(String::as_str))
            .collect();
        assert!(names.contains(&"R1") || names.contains(&"R2"));
        // Suspicion is positive for the divider resistors.
        assert!(s.suspicion("R1").unwrap() > 0.0);
        assert_eq!(s.suspicion("nope"), None);
    }

    #[test]
    fn estimations_reflect_session_state() {
        let d = divider_diagnoser();
        let mut s = d.session();
        // Nothing measured: everything mid-scale except nothing exonerated.
        let est0 = s.estimations();
        assert_eq!(est0.len(), 3);
        for (_, e) in &est0 {
            assert!(e.core_lo() >= 0.2);
        }
        // Healthy measurement exonerates the support cone.
        s.measure("Vmid", FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        let est = s.estimations();
        let r1 = est.iter().find(|(n, _)| n == "R1").unwrap();
        assert!(r1.1.core_hi() <= 0.1, "R1 exonerated: {}", r1.1);
    }

    #[test]
    fn unknown_point_is_an_error() {
        let d = divider_diagnoser();
        let mut s = d.session();
        assert!(matches!(
            s.measure("nope", FuzzyInterval::crisp(0.0)),
            Err(crate::CoreError::UnknownName { .. })
        ));
        assert!(s.measure_point(99, FuzzyInterval::crisp(0.0)).is_err());
        assert!(s.consistency("nope").is_none());
    }

    #[test]
    fn report_renders() {
        let d = divider_diagnoser();
        let mut s = d.session();
        s.measure("Vmid", FuzzyInterval::crisp(6.0).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        let text = format!("{}", s.report());
        assert!(text.contains("Vmid"));
        assert!(text.contains("candidates:"));
        assert!(!s.report().candidates.is_empty());
        let c = &s.report().candidates[0];
        assert!(format!("{c}").contains('@'));
    }

    #[test]
    fn expert_priors_shape_estimations() {
        let d = divider_diagnoser();
        let mut s = d.session();
        // The expert believes R2 came from a bad batch.
        let suspect = FuzzyInterval::new(0.7, 0.8, 0.1, 0.1).unwrap();
        s.set_prior("R2", suspect).unwrap();
        let est = s.estimations();
        let r2 = est.iter().find(|(n, _)| n == "R2").unwrap();
        assert!(r2.1.core_lo() >= 0.7 - 1e-9);
        let r1 = est.iter().find(|(n, _)| n == "R1").unwrap();
        assert!(r1.1.core_lo() < 0.7, "R1 keeps the default estimation");
        // Priors outside the unit interval are rejected, as are unknown names.
        assert!(s
            .set_prior("R2", FuzzyInterval::new(0.9, 1.4, 0.0, 0.0).unwrap())
            .is_err());
        assert!(s.set_prior("nope", suspect).is_err());
        // After exoneration by a consistent probe, the prior yields.
        s.measure("Vmid", FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        let est = s.estimations();
        let r2 = est.iter().find(|(n, _)| n == "R2").unwrap();
        assert!(
            r2.1.core_hi() <= 0.1,
            "consistent evidence overrides the prior"
        );
    }

    #[test]
    fn refinement_rho_extremes() {
        let d = divider_diagnoser();
        let mut s = d.session();
        s.measure("Vmid", FuzzyInterval::crisp(7.0).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        // rho = 0 keeps every nogood; rho = 1 keeps only the strongest.
        let all = s.refined_candidates(64, 0.0);
        let strongest = s.refined_candidates(64, 1.0);
        assert!(!all.is_empty());
        assert!(!strongest.is_empty());
        assert!(strongest.len() <= all.len());
        for c in all.iter().chain(&strongest) {
            assert_eq!(c.members.len(), 1);
            assert!((0.0..=1.0).contains(&c.degree));
        }
        // No conflicts -> empty refinement.
        let clean = d.session();
        assert!(clean.refined_candidates(8, 0.5).is_empty());
    }

    #[test]
    fn excused_session_skips_models() {
        let d = divider_diagnoser();
        let r1 = d.netlist().component_by_name("R1").unwrap();
        // With R1's model withdrawn, a wildly wrong reading cannot
        // implicate R1's constraints (no derivation uses them), so the
        // conflicts fall on R2 and the connection.
        let mut s = d.session_excusing(&[r1]);
        s.measure("Vmid", FuzzyInterval::crisp(9.0).widened(0.02).unwrap())
            .unwrap();
        s.propagate();
        let nogoods = s.propagator().atms().nogoods();
        let a_r1 = s.propagator().schedule().component_assumption(r1.index());
        assert!(
            nogoods.iter().all(|n| !n.env.contains(a_r1)),
            "withdrawn model must not appear in conflicts: {nogoods:?}"
        );
    }

    #[test]
    fn sessions_are_independent() {
        let d = divider_diagnoser();
        let mut s1 = d.session();
        s1.measure("Vmid", FuzzyInterval::crisp(9.0).widened(0.02).unwrap())
            .unwrap();
        s1.propagate();
        assert!(!s1.candidates(2, 16).is_empty());
        // A fresh session starts clean.
        let s2 = d.session();
        assert!(s2.candidates(2, 16).is_empty());
        assert_eq!(s2.probed(), vec![false, false]);
    }

    #[test]
    fn prediction_checked_bounds() {
        let d = divider_diagnoser();
        assert!(d.prediction_checked(0).is_some());
        assert!(d.prediction_checked(1).is_some());
        assert!(d.prediction_checked(2).is_none());
        assert_eq!(d.prediction(0), d.prediction_checked(0).unwrap());
    }

    #[test]
    fn cloned_diagnoser_shares_the_model() {
        let d = divider_diagnoser();
        let d2 = d.clone();
        assert!(Arc::ptr_eq(d.model(), d2.model()));
        assert!(std::ptr::eq(d.netlist(), d2.netlist()));
    }

    /// One faulty-board scenario, reused by the serving tests below.
    fn faulty_report(s: &mut Session<'_>) -> Report {
        s.measure("Vmid", FuzzyInterval::crisp(6.1).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        s.report()
    }

    #[test]
    fn cold_session_matches_compiled_session() {
        let d = divider_diagnoser();
        let compiled = faulty_report(&mut d.session());
        let cold = faulty_report(&mut d.cold_session());
        assert_eq!(
            format!("{compiled:?}"),
            format!("{cold:?}"),
            "snapshot restore must be byte-identical to the live seed fixpoint"
        );
    }

    #[test]
    fn reset_session_matches_fresh_session() {
        let d = divider_diagnoser();
        let expected = faulty_report(&mut d.session());
        let mut warm = d.session();
        // Run a different board first, then reset and replay.
        warm.measure("Vmid", FuzzyInterval::crisp(4.1).widened(0.02).unwrap())
            .unwrap();
        warm.set_prior("R2", FuzzyInterval::new(0.7, 0.8, 0.1, 0.1).unwrap())
            .unwrap();
        warm.propagate();
        warm.reset();
        assert_eq!(warm.probed(), vec![false, false]);
        let replay = faulty_report(&mut warm);
        assert_eq!(format!("{replay:?}"), format!("{expected:?}"));
    }

    #[test]
    fn pool_recycles_sessions() {
        let d = divider_diagnoser();
        let mut pool = SessionPool::new(&d);
        assert_eq!(pool.idle_count(), 0);
        pool.warm(2);
        assert_eq!(pool.idle_count(), 2);
        let s1 = pool.acquire();
        let s2 = pool.acquire();
        let s3 = pool.acquire(); // pool empty: fresh session
        assert_eq!(pool.idle_count(), 0);
        pool.release(s1);
        pool.release(s2);
        pool.release(s3);
        assert_eq!(pool.idle_count(), 3);
        // Excused sessions are not pooled.
        let r1 = d.netlist().component_by_name("R1").unwrap();
        pool.release(d.session_excusing(&[r1]));
        assert_eq!(pool.idle_count(), 3);
        // A recycled session behaves like a fresh one.
        let expected = faulty_report(&mut d.session());
        let got = faulty_report(&mut pool.acquire());
        assert_eq!(format!("{got:?}"), format!("{expected:?}"));
    }

    #[test]
    fn batch_matches_sequential_for_any_thread_count() {
        let d = divider_diagnoser();
        let boards: Vec<Board> = (0..7)
            .map(|i| {
                let v = 4.0 + 0.4 * f64::from(i);
                vec![(0usize, FuzzyInterval::crisp(v).widened(0.05).unwrap())]
            })
            .collect();
        // Ground truth: a fresh session per board.
        let expected: Vec<Report> = boards
            .iter()
            .map(|board| {
                let mut s = d.session();
                for &(idx, value) in board {
                    s.measure_point(idx, value).unwrap();
                }
                s.propagate();
                s.report()
            })
            .collect();
        for threads in [1, 2, 3, 8] {
            let got = diagnose_batch_lanes(&d, &boards, threads).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "{threads}-thread batch must be byte-identical to sequential"
            );
        }
        // Per-board errors surface.
        let bad: Vec<Board> = vec![vec![(99, FuzzyInterval::crisp(0.0))]];
        assert!(diagnose_batch_lanes(&d, &bad, 2).is_err());
    }
}
