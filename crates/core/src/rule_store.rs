//! The learned-rule store: §7's knowledge base as a serving-scale,
//! concurrently readable cache in front of the model-based solver.
//!
//! [`KnowledgeBase`] is a linear-scan `Vec` that only an interactive
//! expert consults. A [`RuleStore`] makes the same rules a *production
//! cache tier*:
//!
//! * **Symptom-inverted index.** A [`RuleSnapshot`] keys posting lists by
//!   `(point, direction, severity)`, so scoring an observation touches
//!   only the rules sharing at least one symptom — replacing the
//!   O(rules × symptoms²) scan in `suggest` — while producing results
//!   identical to the linear scan.
//! * **Epoch-published snapshots.** Writers (`learn` / `disconfirm` /
//!   [`RuleStore::absorb`]) rebuild the index under a mutex and publish
//!   it as a fresh immutable [`Arc<RuleSnapshot>`] with a bumped epoch;
//!   readers clone the current `Arc` (a reference-count bump under a
//!   briefly held read lock — the core crates forbid `unsafe`, so the
//!   swap is an `RwLock<Arc<_>>` rather than a raw atomic pointer) and
//!   then score entirely lock-free on the frozen snapshot. A reader
//!   never observes a half-applied update, and a batch that pins one
//!   snapshot is deterministic regardless of concurrent writers.
//! * **Rule-first fast path.** [`diagnose_batch_lanes_cached`]
//!   discretizes each board's measurements to [`Symptom`]s *without
//!   propagation* (the closed-form `Dc` against the compiled
//!   predictions), and on a confident hit — top score ≥
//!   [`CacheConfig::min_score`] with an unambiguous top-1 margin —
//!   short-circuits the whole propagation/ATMS machinery, emitting a
//!   report with [`RuleProvenance`]. Misses fall back to the unchanged
//!   [`diagnose_batch_lanes`] path (byte-identical reports) and feed
//!   the confirmed outcome back into the store.
//! * **Bounded size with eviction.** Past [`RuleStore::max_rules`] the
//!   weakest rule (lowest certainty, fewest confirmations, oldest) is
//!   evicted, so a long-running server cannot grow without bound.
//! * **Persistence.** [`RuleStore::to_json`] / [`RuleStore::from_json`]
//!   round-trip the store over the zero-dep `flames-obs` JSON (the same
//!   machinery as trace export), with certainties rendered
//!   shortest-round-trip so experience survives restarts bit-exactly.

use crate::engine::{diagnose_batch_lanes, Board, Candidate, Diagnoser, PointReport, Report};
use crate::learning::{
    dedup_suggestions, point_symptoms, symptoms_of, KnowledgeBase, Severity, Suggestion, Symptom,
    SymptomRule,
};
use flames_atms::Env;
use flames_fuzzy::{Direction, FuzzyInterval};
use flames_obs::trace::escape_json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Default bound on the number of stored rules.
pub const DEFAULT_MAX_RULES: usize = 4096;

/// Knobs of the rule-first fast path.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// When `false`, every board takes the model-based path (the cache
    /// is bypassed entirely — output is byte-identical to a build
    /// without the store).
    pub enabled: bool,
    /// Minimum score (certainty × match fraction) of the top suggestion
    /// for a hit.
    pub min_score: f64,
    /// Minimum margin between the top suggestion and the best
    /// *different-culprit* suggestion — an ambiguous top-1 falls back.
    pub min_margin: f64,
    /// When `true`, miss-path outcomes are fed back into the store
    /// ([`RuleStore::absorb`]): confirmed culprits reinforce, rivals on
    /// the same symptoms decay.
    pub learn: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            min_score: 0.6,
            min_margin: 0.1,
            learn: true,
        }
    }
}

/// Why a cached report is trustworthy: the rule that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleProvenance {
    /// The rule's culprit.
    pub culprit: String,
    /// The rule's fault mode, when recorded.
    pub mode: Option<String>,
    /// The suggestion score (certainty × match fraction).
    pub score: f64,
    /// The rule's certainty degree at hit time.
    pub certainty: f64,
    /// Confirmed diagnoses supporting the rule.
    pub confirmations: u32,
    /// Observed symptoms matching the rule.
    pub matched: u32,
    /// The rule's total symptom count.
    pub rule_size: u32,
    /// Epoch of the snapshot that served the hit.
    pub epoch: u64,
}

/// Outcome of consulting a snapshot for one observation.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheDecision {
    /// Confident: short-circuit propagation.
    Hit(RuleProvenance),
    /// Rules matched but below threshold or ambiguous: fall back.
    Fallback,
    /// No rule shares a symptom (or the board looks healthy): solve.
    Miss,
}

/// An immutable, index-accelerated view of the rule set at one epoch.
///
/// Shared via `Arc`: any number of threads score observations against
/// the same snapshot without synchronization.
#[derive(Debug)]
pub struct RuleSnapshot {
    rules: Vec<SymptomRule>,
    /// Posting lists: symptom → ids of rules containing it. An id
    /// appears once per occurrence, so duplicate symptoms inside a rule
    /// count exactly as the linear scan counts them.
    index: HashMap<Symptom, Vec<u32>>,
    epoch: u64,
}

impl RuleSnapshot {
    fn build(kb: &KnowledgeBase, epoch: u64) -> Self {
        let rules: Vec<SymptomRule> = kb.iter().cloned().collect();
        let mut index: HashMap<Symptom, Vec<u32>> = HashMap::new();
        for (id, rule) in rules.iter().enumerate() {
            for symptom in &rule.symptoms {
                index
                    .entry(symptom.clone())
                    .or_default()
                    .push(u32::try_from(id).expect("bounded store"));
            }
        }
        Self {
            rules,
            index,
            epoch,
        }
    }

    /// The epoch this snapshot was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of rules in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the snapshot holds no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The frozen rules, in store order.
    #[must_use]
    pub fn rules(&self) -> &[SymptomRule] {
        &self.rules
    }

    /// Index-accelerated [`KnowledgeBase::suggest`]: identical results
    /// (same scores, same order), but only rules sharing a symptom with
    /// the observation are touched.
    #[must_use]
    pub fn suggest(&self, observed: &[Symptom]) -> Vec<Suggestion> {
        let mut sorted = observed.to_vec();
        sorted.sort();
        sorted.dedup();
        let mut matched: HashMap<u32, u32> = HashMap::new();
        for symptom in &sorted {
            if let Some(ids) = self.index.get(symptom) {
                for &id in ids {
                    *matched.entry(id).or_insert(0) += 1;
                }
            }
        }
        // Visit touched rules in store order so ties rank exactly as
        // the linear scan ranks them.
        let mut touched: Vec<(u32, u32)> = matched.into_iter().collect();
        touched.sort_unstable_by_key(|&(id, _)| id);
        let mut out: Vec<Suggestion> = touched
            .into_iter()
            .map(|(id, count)| {
                let rule = &self.rules[id as usize];
                Suggestion {
                    culprit: rule.culprit.clone(),
                    mode: rule.mode.clone(),
                    score: rule.certainty * f64::from(count) / rule.symptoms.len() as f64,
                }
            })
            .collect();
        dedup_suggestions(&mut out);
        out
    }

    /// Applies the hit criterion to an observation: the top suggestion
    /// must clear [`CacheConfig::min_score`] and beat the best
    /// *different-culprit* suggestion by [`CacheConfig::min_margin`].
    /// A board whose symptoms are all [`Severity::Consistent`] is
    /// healthy — never served from the cache, so a high-certainty rule
    /// cannot false-hit on its consistent evidence alone.
    #[must_use]
    pub fn decide(&self, observed: &[Symptom], config: &CacheConfig) -> CacheDecision {
        if observed.iter().all(|s| s.severity == Severity::Consistent) {
            return CacheDecision::Miss;
        }
        let suggestions = self.suggest(observed);
        let Some(top) = suggestions.first() else {
            return CacheDecision::Miss;
        };
        let rival = suggestions
            .iter()
            .find(|s| s.culprit != top.culprit)
            .map_or(0.0, |s| s.score);
        if top.score < config.min_score || top.score - rival < config.min_margin {
            return CacheDecision::Fallback;
        }
        // Recover the winning rule for provenance: the best-scoring rule
        // with the top suggestion's (culprit, mode).
        let sorted = {
            let mut s = observed.to_vec();
            s.sort();
            s.dedup();
            s
        };
        let provenance = self
            .rules
            .iter()
            .filter(|r| r.culprit == top.culprit && r.mode == top.mode)
            .filter_map(|r| {
                let matched = r
                    .symptoms
                    .iter()
                    .filter(|s| sorted.binary_search(s).is_ok())
                    .count();
                (matched > 0).then(|| RuleProvenance {
                    culprit: r.culprit.clone(),
                    mode: r.mode.clone(),
                    score: r.certainty * matched as f64 / r.symptoms.len() as f64,
                    certainty: r.certainty,
                    confirmations: r.confirmations,
                    matched: u32::try_from(matched).expect("bounded symptoms"),
                    rule_size: u32::try_from(r.symptoms.len()).expect("bounded symptoms"),
                    epoch: self.epoch,
                })
            })
            .max_by(|a, b| a.score.total_cmp(&b.score));
        match provenance {
            Some(p) => CacheDecision::Hit(p),
            None => CacheDecision::Fallback,
        }
    }
}

#[derive(Debug)]
struct StoreInner {
    kb: KnowledgeBase,
}

/// The concurrent learned-rule store.
///
/// Writers serialize on an internal mutex and publish immutable
/// [`RuleSnapshot`]s; readers pin a snapshot ([`RuleStore::snapshot`])
/// and score lock-free. See the [module docs](self) for the layout.
#[derive(Debug)]
pub struct RuleStore {
    inner: Mutex<StoreInner>,
    published: RwLock<Arc<RuleSnapshot>>,
    epoch: AtomicU64,
    max_rules: usize,
}

impl Default for RuleStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleStore {
    /// An empty store bounded at [`DEFAULT_MAX_RULES`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_RULES)
    }

    /// An empty store bounded at `max_rules` (≥ 1).
    #[must_use]
    pub fn with_capacity(max_rules: usize) -> Self {
        Self::from_knowledge(KnowledgeBase::new(), max_rules)
    }

    /// Wraps an existing knowledge base (evicting down to `max_rules`
    /// if oversized).
    #[must_use]
    pub fn from_knowledge(mut kb: KnowledgeBase, max_rules: usize) -> Self {
        let max_rules = max_rules.max(1);
        while kb.len() > max_rules {
            let _ = kb.evict_weakest();
        }
        let snapshot = Arc::new(RuleSnapshot::build(&kb, 0));
        Self {
            inner: Mutex::new(StoreInner { kb }),
            published: RwLock::new(snapshot),
            epoch: AtomicU64::new(0),
            max_rules,
        }
    }

    /// The store's rule-count bound.
    #[must_use]
    pub fn max_rules(&self) -> usize {
        self.max_rules
    }

    /// The current publication epoch (bumped by every write).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of rules currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when no rule is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Pins the current snapshot: a reference-count bump under a
    /// briefly held read lock, after which scoring is lock-free.
    #[must_use]
    pub fn snapshot(&self) -> Arc<RuleSnapshot> {
        Arc::clone(&self.published.read().expect("store lock poisoned"))
    }

    /// Convenience: [`RuleSnapshot::suggest`] on the current snapshot.
    #[must_use]
    pub fn suggest(&self, observed: &[Symptom]) -> Vec<Suggestion> {
        self.snapshot().suggest(observed)
    }

    /// Records a confirmed diagnosis (see [`KnowledgeBase::learn`]),
    /// evicting the weakest rules past the bound, and publishes a new
    /// snapshot.
    pub fn learn(&self, symptoms: Vec<Symptom>, culprit: impl Into<String>, mode: Option<String>) {
        let mut inner = self.locked();
        inner.kb.learn(symptoms, culprit, mode);
        self.evict_over_bound(&mut inner);
        self.publish(&inner);
    }

    /// Decays a disconfirmed rule (see [`KnowledgeBase::disconfirm`])
    /// and publishes a new snapshot.
    pub fn disconfirm(&self, symptoms: &[Symptom], culprit: &str) {
        let mut inner = self.locked();
        inner.kb.disconfirm(symptoms, culprit);
        self.publish(&inner);
    }

    /// Feeds a solver (miss-path) outcome back into the store, all
    /// under one write lock and one publication: the refined top
    /// culprit's rule is reinforced (or created), and rival rules on
    /// exactly the same symptoms decay. Healthy boards (no deviating
    /// symptom) and reports without a refined culprit are ignored.
    pub fn absorb(&self, report: &Report) {
        let symptoms = symptoms_of(report);
        if symptoms.iter().all(|s| s.severity == Severity::Consistent) {
            return;
        }
        let Some(culprit) = report
            .refined
            .first()
            .or_else(|| report.candidates.first())
            .and_then(|c| c.members.first())
            .cloned()
        else {
            return;
        };
        let mut inner = self.locked();
        let rivals: Vec<String> = inner
            .kb
            .iter()
            .filter(|r| r.symptoms == symptoms && r.culprit != culprit)
            .map(|r| r.culprit.clone())
            .collect();
        for rival in rivals {
            inner.kb.disconfirm(&symptoms, &rival);
        }
        inner.kb.learn(symptoms, culprit, None);
        self.evict_over_bound(&mut inner);
        self.publish(&inner);
    }

    /// The writer lock. A writer that panicked leaves it poisoned; the
    /// rules it guards are plain data that at worst miss that writer's
    /// update, and readers only ever see published snapshots, so later
    /// writers take the guard back instead of failing for good (as
    /// `Session::locked_cand_cache` does for the candidate cache).
    fn locked(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn evict_over_bound(&self, inner: &mut StoreInner) {
        while inner.kb.len() > self.max_rules {
            if inner.kb.evict_weakest().is_none() {
                break;
            }
            flames_obs::metrics().learn_evicted.incr();
        }
    }

    fn publish(&self, inner: &StoreInner) {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let snapshot = Arc::new(RuleSnapshot::build(&inner.kb, epoch));
        *self.published.write().expect("store lock poisoned") = snapshot;
    }

    /// Serializes the store to JSON (stable member order, certainties
    /// rendered shortest-round-trip for bit-exact reload).
    #[must_use]
    pub fn to_json(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [");
        for (k, rule) in snapshot.rules().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"culprit\": ");
            out.push_str(&escape_json(&rule.culprit));
            out.push_str(", \"mode\": ");
            match &rule.mode {
                Some(m) => out.push_str(&escape_json(m)),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ", \"certainty\": {}, \"confirmations\": {}, \"symptoms\": [",
                rule.certainty, rule.confirmations
            ));
            for (j, s) in rule.symptoms.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"point\": {}, \"direction\": \"{}\", \"severity\": \"{}\"}}",
                    escape_json(&s.point),
                    s.direction,
                    s.severity
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Restores a store from [`RuleStore::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] describing the first
    /// malformed element.
    pub fn from_json(text: &str, max_rules: usize) -> crate::Result<Self> {
        let bad = |what: &str| crate::CoreError::UnknownName {
            name: format!("rule-store JSON: {what}"),
        };
        let doc = flames_obs::json::parse(text).map_err(|e| bad(&e))?;
        let rules = doc
            .member("rules")
            .and_then(|v| v.as_array())
            .ok_or_else(|| bad("missing rules array"))?;
        let mut kb = KnowledgeBase::new();
        let mut parsed: Vec<SymptomRule> = Vec::with_capacity(rules.len());
        for (k, rule) in rules.iter().enumerate() {
            let field = |name: &str| {
                rule.member(name)
                    .ok_or_else(|| bad(&format!("rule {k}: missing {name}")))
            };
            let culprit = field("culprit")?
                .as_str()
                .ok_or_else(|| bad(&format!("rule {k}: culprit")))?
                .to_owned();
            let mode = match field("mode")? {
                flames_obs::json::Value::Null => None,
                v => Some(
                    v.as_str()
                        .ok_or_else(|| bad(&format!("rule {k}: mode")))?
                        .to_owned(),
                ),
            };
            let certainty = field("certainty")?
                .as_f64()
                .filter(|c| (0.0..=1.0).contains(c))
                .ok_or_else(|| bad(&format!("rule {k}: certainty")))?;
            let confirmations = field("confirmations")?
                .as_f64()
                .filter(|c| *c >= 0.0 && c.fract() == 0.0 && *c <= f64::from(u32::MAX))
                .ok_or_else(|| bad(&format!("rule {k}: confirmations")))?
                as u32;
            let mut symptoms = Vec::new();
            for (j, s) in field("symptoms")?
                .as_array()
                .ok_or_else(|| bad(&format!("rule {k}: symptoms")))?
                .iter()
                .enumerate()
            {
                let part = |name: &str| {
                    s.member(name)
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| bad(&format!("rule {k} symptom {j}: {name}")))
                };
                let direction = match part("direction")? {
                    "low" => Direction::Low,
                    "within" => Direction::Within,
                    "high" => Direction::High,
                    other => return Err(bad(&format!("rule {k}: direction {other:?}"))),
                };
                let severity = match part("severity")? {
                    "consistent" => Severity::Consistent,
                    "slight" => Severity::Slight,
                    "strong" => Severity::Strong,
                    "total" => Severity::Total,
                    other => return Err(bad(&format!("rule {k}: severity {other:?}"))),
                };
                symptoms.push(Symptom {
                    point: part("point")?.to_owned(),
                    direction,
                    severity,
                });
            }
            symptoms.sort();
            parsed.push(SymptomRule {
                symptoms,
                culprit,
                mode,
                certainty,
                confirmations,
            });
        }
        for rule in parsed {
            kb.push_rule(rule);
        }
        Ok(Self::from_knowledge(kb, max_rules))
    }
}

/// Discretizes a board's measurements to [`Symptom`]s *without any
/// propagation*: every measured point is graded against the compiled
/// nominal prediction by the same closed-form `Dc` helper the full
/// report uses, so the symptom set is bit-identical to
/// [`symptoms_of`]`(session.report())` for the same board — including
/// last-write-wins on a twice-measured point.
///
/// # Errors
///
/// Returns [`crate::CoreError::UnknownName`] for an out-of-range point
/// index, exactly as [`crate::Session::measure_point`] would.
pub fn board_symptoms(diagnoser: &Diagnoser, board: &Board) -> crate::Result<Vec<Symptom>> {
    Ok(point_symptoms(&board_points(diagnoser, board)?))
}

/// One board graded against the compiled nominal predictions, without
/// propagation: its report points and the [`Symptom`]s they discretize
/// to. The rule-first path grades a board once, consults the store with
/// [`GradedBoard::symptoms`], and on a hit builds the report from the
/// same points ([`GradedBoard::into_hit_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GradedBoard {
    /// The report points, measured straight from the board's readings
    /// (last write wins on a twice-measured point).
    points: Vec<PointReport>,
    /// The symptom set of `points`.
    symptoms: Vec<Symptom>,
}

impl GradedBoard {
    /// Grades every measured point of `board`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an out-of-range
    /// point index, exactly as [`crate::Session::measure_point`] would.
    pub fn new(diagnoser: &Diagnoser, board: &Board) -> crate::Result<Self> {
        let points = board_points(diagnoser, board)?;
        let symptoms = point_symptoms(&points);
        Ok(Self { points, symptoms })
    }

    /// The board's symptom set, as [`board_symptoms`] returns it.
    #[must_use]
    pub fn symptoms(&self) -> &[Symptom] {
        &self.symptoms
    }

    /// The hit-path report of these points (see [`rule_hit_report`]).
    #[must_use]
    pub fn into_hit_report(self, hit: &RuleProvenance) -> Report {
        hit_report(self.points, hit)
    }
}

/// The report points of one board, measured straight from its readings
/// (no propagation): last write wins on a twice-measured point.
fn board_points(diagnoser: &Diagnoser, board: &Board) -> crate::Result<Vec<PointReport>> {
    let mut measured: Vec<Option<FuzzyInterval>> = vec![None; diagnoser.test_points().len()];
    for &(idx, value) in board {
        let slot = measured
            .get_mut(idx)
            .ok_or_else(|| crate::CoreError::UnknownName {
                name: format!("test point #{idx}"),
            })?;
        *slot = Some(value);
    }
    Ok(diagnoser.point_reports(&measured))
}

fn hit_report(points: Vec<PointReport>, hit: &RuleProvenance) -> Report {
    let candidate = Candidate {
        members: vec![hit.culprit.clone()],
        env: Env::empty(),
        degree: hit.score,
    };
    Report {
        points,
        nogoods: Vec::new(),
        candidates: vec![candidate.clone()],
        refined: vec![candidate],
    }
}

/// A [`Report`] plus the rule that produced it, when the cache did.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedReport {
    /// The diagnosis report — on the miss path, byte-identical to the
    /// model-based engine's output.
    pub report: Report,
    /// `Some` exactly when the rule-first fast path served the board.
    pub provenance: Option<RuleProvenance>,
}

/// Builds the hit-path report: points graded exactly as the full report
/// grades them, no nogoods (propagation never ran), and the rule's
/// culprit as the single candidate at the suggestion score. A caller
/// that already graded the board for [`RuleSnapshot::decide`] should
/// use [`GradedBoard::into_hit_report`] instead of grading it again.
///
/// # Panics
///
/// Panics for an out-of-range point index, which [`board_symptoms`]
/// rejects before any board can hit.
#[must_use]
pub fn rule_hit_report(diagnoser: &Diagnoser, board: &Board, hit: &RuleProvenance) -> Report {
    let points = board_points(diagnoser, board).expect("a hit board passed board_symptoms");
    hit_report(points, hit)
}

/// [`diagnose_batch_lanes`] behind the rule-first cache.
///
/// One snapshot is pinned for the whole batch. Each board is
/// discretized to symptoms and the snapshot consulted: confident hits
/// short-circuit propagation ([`CacheDecision::Hit`], counted as
/// `learn.hit`); everything else is diagnosed by the *literal*
/// [`diagnose_batch_lanes`] code path — miss-path reports are therefore
/// byte-identical to the uncached engine — and, when
/// [`CacheConfig::learn`] is set, absorbed back into the store.
/// With [`CacheConfig::enabled`] off the function is a pass-through.
///
/// `_lane_width` is not read: every board propagates alone. The
/// parameter stays until the service benchmark stops passing it.
///
/// # Errors
///
/// Returns the first per-board error, as [`diagnose_batch_lanes`] does.
pub fn diagnose_batch_lanes_cached(
    diagnoser: &Diagnoser,
    store: &RuleStore,
    config: &CacheConfig,
    boards: &[Board],
    threads: usize,
    _lane_width: usize,
) -> crate::Result<Vec<CachedReport>> {
    if !config.enabled {
        let reports = diagnose_batch_lanes(diagnoser, boards, threads)?;
        return Ok(reports
            .into_iter()
            .map(|report| CachedReport {
                report,
                provenance: None,
            })
            .collect());
    }
    let snapshot = store.snapshot();
    let metrics = flames_obs::metrics();
    let mut out: Vec<Option<CachedReport>> = Vec::new();
    out.resize_with(boards.len(), || None);
    let mut miss_boards: Vec<Board> = Vec::new();
    let mut miss_slots: Vec<usize> = Vec::new();
    for (i, board) in boards.iter().enumerate() {
        let graded = GradedBoard::new(diagnoser, board)?;
        match snapshot.decide(graded.symptoms(), config) {
            CacheDecision::Hit(hit) => {
                metrics.learn_hit.incr();
                out[i] = Some(CachedReport {
                    report: graded.into_hit_report(&hit),
                    provenance: Some(hit),
                });
            }
            CacheDecision::Fallback => {
                metrics.learn_fallback.incr();
                miss_boards.push(board.clone());
                miss_slots.push(i);
            }
            CacheDecision::Miss => {
                metrics.learn_miss.incr();
                miss_boards.push(board.clone());
                miss_slots.push(i);
            }
        }
    }
    let reports = diagnose_batch_lanes(diagnoser, &miss_boards, threads)?;
    for (slot, report) in miss_slots.into_iter().zip(reports) {
        if config.learn {
            store.absorb(&report);
        }
        out[slot] = Some(CachedReport {
            report,
            provenance: None,
        });
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every board served"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(point: &str, dir: Direction, sev: Severity) -> Symptom {
        Symptom {
            point: point.to_owned(),
            direction: dir,
            severity: sev,
        }
    }

    fn seeded_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.learn(
            vec![
                sym("V1", Direction::Low, Severity::Total),
                sym("V2", Direction::High, Severity::Slight),
            ],
            "R3",
            Some("open".to_owned()),
        );
        kb.learn(vec![sym("V1", Direction::Low, Severity::Total)], "R3", None);
        kb.learn(
            vec![sym("V2", Direction::High, Severity::Slight)],
            "T2",
            None,
        );
        kb.learn(
            vec![sym("V2", Direction::High, Severity::Slight)],
            "T2",
            None,
        );
        kb.learn(
            vec![sym("Vs", Direction::High, Severity::Strong)],
            "R1",
            None,
        );
        kb
    }

    #[test]
    fn decide_ranks_nan_scores_without_panicking() {
        // Two rules for the same failure, both matching: the provenance
        // pick compares their (NaN) scores.
        let mut kb = KnowledgeBase::new();
        for symptoms in [
            vec![sym("V1", Direction::Low, Severity::Total)],
            vec![
                sym("V1", Direction::Low, Severity::Total),
                sym("V2", Direction::High, Severity::Slight),
            ],
        ] {
            kb.push_rule(SymptomRule {
                symptoms,
                culprit: "R3".to_owned(),
                mode: None,
                certainty: f64::NAN,
                confirmations: 1,
            });
        }
        let snapshot = RuleSnapshot::build(&kb, 0);
        let observed = [
            sym("V1", Direction::Low, Severity::Total),
            sym("V2", Direction::High, Severity::Slight),
        ];
        match snapshot.decide(&observed, &CacheConfig::default()) {
            CacheDecision::Hit(hit) => {
                assert_eq!(hit.culprit, "R3");
                assert!(hit.score.is_nan());
            }
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_suggest_matches_linear_scan() {
        let kb = seeded_kb();
        let snapshot = RuleSnapshot::build(&kb, 7);
        let observations: Vec<Vec<Symptom>> = vec![
            vec![],
            vec![sym("V1", Direction::Low, Severity::Total)],
            vec![
                sym("V1", Direction::Low, Severity::Total),
                sym("V2", Direction::High, Severity::Slight),
            ],
            vec![
                sym("V2", Direction::High, Severity::Slight),
                sym("Vs", Direction::High, Severity::Strong),
                sym("Vx", Direction::Low, Severity::Total),
            ],
            // Duplicate observed symptom must not double-count.
            vec![
                sym("V1", Direction::Low, Severity::Total),
                sym("V1", Direction::Low, Severity::Total),
            ],
        ];
        for obs in &observations {
            assert_eq!(snapshot.suggest(obs), kb.suggest(obs), "obs {obs:?}");
        }
        assert_eq!(snapshot.epoch(), 7);
        assert_eq!(snapshot.len(), kb.len());
    }

    #[test]
    fn writes_bump_epoch_and_pinned_snapshots_stay_frozen() {
        let store = RuleStore::new();
        assert!(store.is_empty());
        let before = store.snapshot();
        store.learn(vec![sym("V1", Direction::Low, Severity::Total)], "R3", None);
        assert_eq!(store.epoch(), 1);
        assert!(before.is_empty(), "pinned snapshot unchanged by writes");
        assert_eq!(store.len(), 1);
        store.disconfirm(&[sym("V1", Direction::Low, Severity::Total)], "R3");
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn writers_survive_a_writer_that_panicked() {
        let store = RuleStore::new();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = store.locked();
                    panic!("writer panics while holding the store lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(store.inner.is_poisoned());
        let v1_low = sym("V1", Direction::Low, Severity::Total);
        store.learn(vec![v1_low.clone()], "R3", None);
        assert_eq!((store.epoch(), store.len()), (1, 1));
        store.disconfirm(std::slice::from_ref(&v1_low), "R3");
        assert_eq!(store.epoch(), 2);
        let report = Report {
            points: vec![PointReport {
                name: "V2".to_owned(),
                predicted: FuzzyInterval::crisp(1.0),
                measured: Some(FuzzyInterval::crisp(3.0)),
                consistency: Some(flames_fuzzy::Consistency::from_parts(0.0, Direction::High)),
            }],
            nogoods: Vec::new(),
            candidates: Vec::new(),
            refined: vec![Candidate {
                members: vec!["T2".to_owned()],
                env: Env::empty(),
                degree: 1.0,
            }],
        };
        store.absorb(&report);
        assert_eq!(store.epoch(), 3);
        assert!(store.snapshot().rules().iter().any(|r| r.culprit == "T2"));
    }

    #[test]
    fn decide_applies_score_margin_and_healthy_guards() {
        let store = RuleStore::from_knowledge(seeded_kb(), 64);
        // Reinforce T2 past the default 0.6 threshold.
        store.learn(
            vec![sym("V2", Direction::High, Severity::Slight)],
            "T2",
            None,
        );
        let snapshot = store.snapshot();
        let config = CacheConfig::default();
        let obs = vec![sym("V2", Direction::High, Severity::Slight)];
        match snapshot.decide(&obs, &config) {
            CacheDecision::Hit(p) => {
                assert_eq!(p.culprit, "T2");
                assert_eq!(p.epoch, snapshot.epoch());
                assert!(p.score >= config.min_score);
                assert_eq!((p.matched, p.rule_size), (1, 1));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // Unknown symptoms: miss.
        assert_eq!(
            snapshot.decide(&[sym("Vx", Direction::Low, Severity::Total)], &config),
            CacheDecision::Miss
        );
        // All-consistent (healthy) observation: miss, even though the
        // store could partial-match consistent evidence.
        store.learn(
            vec![sym("V9", Direction::Within, Severity::Consistent)],
            "R9",
            None,
        );
        for _ in 0..10 {
            store.learn(
                vec![sym("V9", Direction::Within, Severity::Consistent)],
                "R9",
                None,
            );
        }
        assert_eq!(
            store.snapshot().decide(
                &[sym("V9", Direction::Within, Severity::Consistent)],
                &config
            ),
            CacheDecision::Miss
        );
        // Weak match: fallback, not hit.
        assert_eq!(
            snapshot.decide(&[sym("V1", Direction::Low, Severity::Total)], &config),
            CacheDecision::Fallback,
        );
        // Disabled margin + low threshold turns the same observation
        // into a hit.
        let loose = CacheConfig {
            min_score: 0.1,
            min_margin: 0.0,
            ..CacheConfig::default()
        };
        assert!(matches!(
            snapshot.decide(&[sym("V1", Direction::Low, Severity::Total)], &loose),
            CacheDecision::Hit(_)
        ));
    }

    #[test]
    fn bounded_store_evicts_weakest() {
        let store = RuleStore::with_capacity(2);
        store.learn(vec![sym("V1", Direction::Low, Severity::Total)], "R1", None);
        store.learn(vec![sym("V1", Direction::Low, Severity::Total)], "R1", None);
        store.learn(
            vec![sym("V2", Direction::High, Severity::Slight)],
            "R2",
            None,
        );
        store.learn(
            vec![sym("V2", Direction::High, Severity::Slight)],
            "R2",
            None,
        );
        // Third distinct rule overflows the bound; the fresh 0.5-certainty
        // rule is itself the weakest and bounces.
        store.learn(
            vec![sym("Vs", Direction::High, Severity::Strong)],
            "R3",
            None,
        );
        assert_eq!(store.len(), 2);
        let snapshot = store.snapshot();
        assert!(snapshot.rules().iter().all(|r| r.culprit != "R3"));
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let store = RuleStore::from_knowledge(seeded_kb(), 64);
        let json = store.to_json();
        let restored = RuleStore::from_json(&json, 64).unwrap();
        let a = store.snapshot();
        let b = restored.snapshot();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.rules().iter().zip(b.rules()) {
            assert_eq!(x.culprit, y.culprit);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.symptoms, y.symptoms);
            assert_eq!(x.confirmations, y.confirmations);
            assert_eq!(
                x.certainty.to_bits(),
                y.certainty.to_bits(),
                "certainty restored bit-exactly"
            );
        }
        // And a second serialization is byte-identical.
        assert_eq!(json, restored.to_json());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(RuleStore::from_json("{", 8).is_err());
        assert!(RuleStore::from_json("{\"version\": 1}", 8).is_err());
        let bad_cert = "{\"rules\": [{\"culprit\": \"R1\", \"mode\": null, \"certainty\": 1.5, \"confirmations\": 1, \"symptoms\": []}]}";
        assert!(RuleStore::from_json(bad_cert, 8).is_err());
        let bad_dir = "{\"rules\": [{\"culprit\": \"R1\", \"mode\": null, \"certainty\": 0.5, \"confirmations\": 1, \"symptoms\": [{\"point\": \"V1\", \"direction\": \"sideways\", \"severity\": \"total\"}]}]}";
        assert!(RuleStore::from_json(bad_dir, 8).is_err());
    }
}
