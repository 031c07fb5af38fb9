//! Fuzzy interval labelling — the paper's §6.1.1 propagation engine.
//!
//! Quantities carry sets of fuzzy values, each tagged with the assumption
//! [`Env`]ironment and certainty degree of its derivation. Values enter as
//! model seeds (parameters under their component's correctness
//! assumption), expert predictions, or measurements; constraints derive
//! new values in every direction they can be inverted.
//!
//! "The discovery of a known value for a point for which we already know a
//! predicted propagated value is called a **coincidence**" — each
//! coincidence is classified per the paper's Fig. 4 (corroboration /
//! split / partial or total conflict) through the degree of consistency
//! `Dc`, and conflicts become graded nogoods in the fuzzy ATMS.
//!
//! # Compile-once / serve-many
//!
//! The paper's workflow diagnoses many boards against one circuit model,
//! so the engine is split along that line:
//!
//! * [`CompiledSchedule`] — the immutable per-**model** half: the
//!   compiled constraint schedule (see
//!   [`flames_circuit::compile::CompiledNetwork`]), the assumption
//!   vocabulary (component + connection assumptions with their interned
//!   names), the per-constraint support environments, the seed
//!   environments, and a vocabulary-only base ATMS. Build it once and
//!   share it — it is `Send + Sync`.
//! * [`Propagator`] — the mutable per-**board** half: value stores, the
//!   fuzzy ATMS labels and nogoods, coincidence records, withdrawn
//!   constraints. It either owns a private schedule (the legacy
//!   [`Propagator::new`] constructors, which re-derive everything per
//!   session) or borrows a shared one
//!   ([`Propagator::with_schedule_filtered`]); [`Propagator::reset`]
//!   clears the per-board state without deallocating, so a warm
//!   propagator serves the next board with zero rebuild cost.

use crate::error::CoreError;
use crate::Result;
use flames_atms::{Assumption, AssumptionPool, Env, FuzzyAtms, TNorm};
use flames_circuit::compile::{CompiledNetwork, CompiledRelation};
use flames_circuit::constraint::{Network, QuantityId};
use flames_circuit::{CompId, Net, Netlist};
use flames_fuzzy::simd::{
    add4, div4, included4, mul4, ne4, possibility4, scale4, width4, Traps4, W4,
};
use flames_fuzzy::{Consistency, FuzzyInterval};
use std::collections::VecDeque;

/// A fuzzy value for a quantity together with its derivation pedigree.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueEntry {
    /// The fuzzy value.
    pub value: FuzzyInterval,
    /// Assumptions the derivation rests on.
    pub env: Env,
    /// Certainty degree of the derivation (t-norm along the path).
    pub degree: f64,
    /// True when the derivation involves at least one measurement
    /// (orients the asymmetric `Dc` computation).
    pub measured: bool,
}

/// Struct-of-arrays store of one quantity's value entries: the four
/// trapezoid columns (`m1`/`m2`/`alpha`/`beta`) in parallel `Vec<f64>`s,
/// so constraint evaluation and the Bonissone–Decker LR arithmetic of a
/// propagation wave stream over contiguous memory, plus the derivation
/// pedigree — environment, its one-word [`Env::word_signature`],
/// certainty degree, measurement flag — in matching columns. The
/// signature column is the pedigree index: an `O(1)` necessary condition
/// for the subset tests of the dominance rules, checked before the full
/// bitset comparison. The label's widest support width is cached
/// alongside, so a full label can tell in `O(1)` whether an incoming
/// value could still enter it.
///
/// [`Propagator::entries`] materializes [`ValueEntry`] rows on demand;
/// internally everything works on the columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntryColumns {
    m1: Vec<f64>,
    m2: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    env: Vec<Env>,
    /// `Env::word_signature` of each entry's environment.
    sig: Vec<u64>,
    degree: Vec<f64>,
    measured: Vec<bool>,
    /// Support width of the widest entry under [`f64::total_cmp`] —
    /// what `(0..len).max_by(total_cmp)` over [`EntryColumns::width`]
    /// picks, NaN included — and `0.0` for the empty label. Kept by
    /// every mutator below.
    widest: f64,
}

impl EntryColumns {
    fn len(&self) -> usize {
        self.m1.len()
    }

    fn is_empty(&self) -> bool {
        self.m1.is_empty()
    }

    fn clear(&mut self) {
        self.m1.clear();
        self.m2.clear();
        self.alpha.clear();
        self.beta.clear();
        self.env.clear();
        self.sig.clear();
        self.degree.clear();
        self.measured.clear();
        self.widest = 0.0;
    }

    fn value(&self, i: usize) -> FuzzyInterval {
        FuzzyInterval::from_columns(self.m1[i], self.m2[i], self.alpha[i], self.beta[i])
    }

    /// Support width straight from the columns — the same
    /// `(m2 + β) − (m1 − α)` arithmetic as
    /// [`FuzzyInterval::support_width`], bit for bit.
    fn width(&self, i: usize) -> f64 {
        (self.m2[i] + self.beta[i]) - (self.m1[i] - self.alpha[i])
    }

    fn env(&self, i: usize) -> &Env {
        &self.env[i]
    }

    fn sig(&self, i: usize) -> u64 {
        self.sig[i]
    }

    fn degree(&self, i: usize) -> f64 {
        self.degree[i]
    }

    fn measured(&self, i: usize) -> bool {
        self.measured[i]
    }

    /// Materializes one row as an owned [`ValueEntry`].
    fn entry(&self, i: usize) -> ValueEntry {
        ValueEntry {
            value: self.value(i),
            env: self.env[i].clone(),
            degree: self.degree[i],
            measured: self.measured[i],
        }
    }

    fn to_entries(&self) -> Vec<ValueEntry> {
        (0..self.len()).map(|i| self.entry(i)).collect()
    }

    /// Index of the tightest (smallest-support) entry; ties resolve to
    /// the first, matching `Iterator::min_by` over materialized rows.
    /// `total_cmp` orders a NaN width after every number, so such an
    /// entry is never the tightest unless all widths are NaN.
    fn tightest(&self) -> Option<usize> {
        (0..self.len()).min_by(|&a, &b| self.width(a).total_cmp(&self.width(b)))
    }

    /// Index of the widest entry under `total_cmp`; ties resolve to the
    /// last, as `Iterator::max_by` does.
    fn widest_index(&self) -> Option<usize> {
        (0..self.len()).max_by(|&a, &b| self.width(a).total_cmp(&self.width(b)))
    }

    /// The widest width found by scanning the columns — what
    /// [`EntryColumns::widest`] caches.
    fn scan_widest(&self) -> f64 {
        self.widest_index().map_or(0.0, |i| self.width(i))
    }

    /// Whether a value of support width `inc_width` arriving at this
    /// label can only add coincidences — the conflict-only route of
    /// [`PropState::insert`]. True when the label is full, its widest
    /// width `w` is positive, `inc_width ≥ w` (so it replaces nothing:
    /// replacement needs `inc_width < w`) and `inc_width > w·(1 −
    /// min_tightening)` (so it drops nothing: a drop needs `inc_width ≤
    /// widthᵢ·(1 − min_tightening) ≤ w·(1 − min_tightening)`). Whether
    /// or not it is dominated, such an insert returns `false` and leaves
    /// the label as it was. The `w > 0` guard is conservative: it keeps
    /// a full label of crisp points on the full route.
    fn admits_only_conflicts(&self, inc_width: f64, config: PropagatorConfig) -> bool {
        let w = self.widest;
        self.len() >= config.max_entries
            && w > 0.0
            && inc_width >= w
            && inc_width > w * (1.0 - config.min_tightening)
    }

    fn push(&mut self, e: ValueEntry) {
        self.m1.push(e.value.core_lo());
        self.m2.push(e.value.core_hi());
        self.alpha.push(e.value.spread_left());
        self.beta.push(e.value.spread_right());
        self.sig.push(e.env.word_signature());
        self.env.push(e.env);
        self.degree.push(e.degree);
        self.measured.push(e.measured);
        let width = self.width(self.len() - 1);
        if self.len() == 1 || width.total_cmp(&self.widest).is_gt() {
            self.widest = width;
        }
    }

    fn set(&mut self, i: usize, e: ValueEntry) {
        self.m1[i] = e.value.core_lo();
        self.m2[i] = e.value.core_hi();
        self.alpha[i] = e.value.spread_left();
        self.beta[i] = e.value.spread_right();
        self.sig[i] = e.env.word_signature();
        self.env[i] = e.env;
        self.degree[i] = e.degree;
        self.measured[i] = e.measured;
        self.widest = self.scan_widest();
    }

    /// Drops every row whose `keep` flag is false, preserving order.
    fn retain_kept(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        let mut w = 0usize;
        for (r, &kept) in keep.iter().enumerate() {
            if !kept {
                continue;
            }
            if w != r {
                self.m1[w] = self.m1[r];
                self.m2[w] = self.m2[r];
                self.alpha[w] = self.alpha[r];
                self.beta[w] = self.beta[r];
                self.sig[w] = self.sig[r];
                self.degree[w] = self.degree[r];
                self.measured[w] = self.measured[r];
                self.env.swap(w, r);
            }
            w += 1;
        }
        self.m1.truncate(w);
        self.m2.truncate(w);
        self.alpha.truncate(w);
        self.beta.truncate(w);
        self.sig.truncate(w);
        self.degree.truncate(w);
        self.measured.truncate(w);
        self.env.truncate(w);
        self.widest = self.scan_widest();
    }

    /// The Fig. 4 coincidence resolution of `incoming` against every
    /// held entry, appending its conflicts (record plus nogood degree)
    /// to `conflicts` and returning the coincidence tallies
    /// `[corroborations, splits, partial, total]`. Coincidences
    /// are classified by inclusion and the *possibility of agreement*
    /// `π = sup min(μ₁, μ₂)`: inclusion is a split (refinement),
    /// overlapping cores a corroboration, and anything else a conflict
    /// graded by `1 − π` — the possibilistic-ATMS reading of the paper's
    /// partial conflicts. (The asymmetric area-based Dc is reserved for
    /// the measured-vs-nominal test-point comparison in the engine.)
    ///
    /// With `DOMINANCE` the same pass decides both dominance directions
    /// and returns them as `dominated` and `drops`: whether a held entry
    /// makes the incoming one redundant, and how many held entries the
    /// incoming one meaningfully improves on (`keep[i] == false`, one
    /// flag pushed per entry). Without it only the classification runs
    /// — over the same entries in the same order, so records and
    /// tallies are the same — and they are `false` and `0` with `keep`
    /// untouched.
    fn classify<const DOMINANCE: bool>(
        &self,
        q: QuantityId,
        incoming: &ValueEntry,
        inc_width: f64,
        config: PropagatorConfig,
        conflicts: &mut Vec<(CoincidenceRecord, f64)>,
        keep: &mut Vec<bool>,
    ) -> (bool, usize, [u64; 4]) {
        let mut dominated = false;
        let mut drops = 0usize;
        let mut tally = [0u64; 4];
        // Grades the (rare) conflicting coincidence for entry `i`, with
        // the degree-of-overlap `pi` and `conflict = 1 − pi` already in
        // hand — `pi` comes out bit-identical whether the entry was
        // classified in a 4-wide group or in the scalar tail, so both
        // share this body.
        let push_conflict =
            |i: usize,
             kind: CoincidenceKind,
             pi: f64,
             conflict: f64,
             conflicts: &mut Vec<(CoincidenceRecord, f64)>| {
                let evalue = self.value(i);
                // Orient the record: the measurement side plays Vm.
                let (vm, vn) = if self.measured(i) && !incoming.measured {
                    (&evalue, &incoming.value)
                } else {
                    (&incoming.value, &evalue)
                };
                let direction = if vm.centroid() < vn.centroid() {
                    flames_fuzzy::Direction::Low
                } else {
                    flames_fuzzy::Direction::High
                };
                let nogood_degree = config.tnorm.combine(
                    conflict,
                    config.tnorm.combine(incoming.degree, self.degree(i)),
                );
                let union_env = incoming.env.union(self.env(i));
                conflicts.push((
                    CoincidenceRecord {
                        quantity: q,
                        kind,
                        consistency: Consistency::from_parts(pi, direction),
                        env: union_env,
                    },
                    nogood_degree,
                ));
            };
        let inc_sig = if DOMINANCE {
            incoming.env.word_signature()
        } else {
            0
        };
        let mut i0 = 0usize;
        // 4-wide classification straight off the label columns. All
        // lane arithmetic mirrors the scalar expressions bit for bit
        // (see `flames_fuzzy::simd` and its differential suite), so
        // records, tallies and the dominance verdict match what the
        // scalar tail computes for the last 1–3 entries.
        let inc4 = Traps4::splat(&incoming.value);
        let zero = W4::splat(0.0);
        let one = W4::splat(1.0);
        let thr = W4::splat(config.conflict_threshold);
        let om = W4::splat(1.0 - config.min_tightening);
        let inc_w4 = W4::splat(inc_width);
        let inc_deg = W4::splat(incoming.degree - 1e-12);
        let inc_deg_keep = W4::splat(incoming.degree);
        let eps = W4::splat(1e-12);
        let mut sig_groups = 0u64;
        while i0 + 4 <= self.len() {
            let ev = Traps4::load(&self.m1, &self.m2, &self.alpha, &self.beta, i0);
            let inc_in_ev = included4(&inc4, &ev);
            let ev_in_inc = included4(&ev, &inc4);
            let nested = inc_in_ev.or(ev_in_inc);
            let pi = possibility4(&inc4, &ev);
            let conflict = W4::select(nested, zero, one.sub(pi));
            // Masks are consumed as bitmasks (lane `l` in bit `l`), never
            // through per-lane branches: tallies are popcounts, and only
            // set bits reach the scalar work below, in ascending lane
            // order.
            let noise = conflict.le(thr).bits();
            let split = noise & nested.and(ne4(&inc4, &ev)).bits();
            let total = pi.le(zero).bits() & !noise;
            let conflicting = !noise & 0xF;
            tally[0] += u64::from((noise & !split).count_ones());
            tally[1] += u64::from(split.count_ones());
            tally[2] += u64::from((conflicting & !total).count_ones());
            tally[3] += u64::from(total.count_ones());
            for l in set_lanes(conflicting) {
                let kind = if total & (1 << l) != 0 {
                    CoincidenceKind::TotalConflict
                } else {
                    CoincidenceKind::PartialConflict
                };
                push_conflict(i0 + l, kind, pi.lane(l), conflict.lane(l), conflicts);
            }
            if DOMINANCE {
                // Dominance prefilter, both directions, 4 signatures per
                // step: candidate lanes must pass the word test, the
                // degree bound and the width/inclusion geometry before
                // the (expensive) bitset subset walk runs scalar.
                // Held ⊆ incoming needs `s & !inc_sig == 0`, incoming ⊆
                // held needs `inc_sig & !s == 0`.
                sig_groups += 1;
                let sig: &[u64; 4] = self.sig[i0..i0 + 4].try_into().expect("4-lane window");
                let mut held_sub = 0u32;
                let mut inc_sub = 0u32;
                for (l, &s) in sig.iter().enumerate() {
                    held_sub |= u32::from(s & !inc_sig == 0) << l;
                    inc_sub |= u32::from(inc_sig & !s == 0) << l;
                }
                let degs = W4::load(&self.degree, i0);
                let meaningful = inc_w4.le(width4(&ev).mul(om));
                let geom = ev_in_inc.or(meaningful.not().and(inc_in_ev));
                let cand = degs.ge(inc_deg).and(geom).bits() & held_sub;
                let drop_cand = inc_deg_keep
                    .ge(degs.sub(eps))
                    .and(inc_in_ev)
                    .and(meaningful)
                    .bits()
                    & inc_sub;
                if !dominated {
                    dominated =
                        set_lanes(cand).any(|l| self.env(i0 + l).is_subset_of(&incoming.env));
                }
                let base = keep.len();
                keep.extend_from_slice(&[true; 4]);
                for l in set_lanes(drop_cand) {
                    if incoming.env.is_subset_of(self.env(i0 + l)) {
                        keep[base + l] = false;
                        drops += 1;
                    }
                }
            }
            i0 += 4;
        }
        if DOMINANCE {
            flames_obs::metrics().sig_prefilter_vec.add(sig_groups);
        }
        for i in i0..self.len() {
            let evalue = self.value(i);
            let inc_in_ev = incoming.value.is_included_in(&evalue);
            let ev_in_inc = evalue.is_included_in(&incoming.value);
            let nested = inc_in_ev || ev_in_inc;
            // `possibility_of` is bitwise symmetric, so the record's
            // Vm/Vn orientation (applied in `push_conflict`) does not
            // change the degree.
            let pi = incoming.value.possibility_of(&evalue);
            let conflict = if nested { 0.0 } else { 1.0 - pi };
            let kind = if conflict <= config.conflict_threshold {
                if nested && incoming.value != evalue {
                    CoincidenceKind::Split
                } else {
                    CoincidenceKind::Corroboration
                }
            } else if pi <= 0.0 {
                CoincidenceKind::TotalConflict
            } else {
                CoincidenceKind::PartialConflict
            };
            tally[match kind {
                CoincidenceKind::Corroboration => 0,
                CoincidenceKind::Split => 1,
                CoincidenceKind::PartialConflict => 2,
                CoincidenceKind::TotalConflict => 3,
            }] += 1;
            if matches!(
                kind,
                CoincidenceKind::PartialConflict | CoincidenceKind::TotalConflict
            ) {
                push_conflict(i, kind, pi, conflict, conflicts);
            }
            if DOMINANCE {
                // Dominance: an existing entry that is at least as
                // general (subset environment), at least as certain, and
                // at least as tight — or within the tightening threshold
                // — makes the incoming value redundant. The threshold is
                // what keeps fixpoint iteration from churning on
                // infinitesimal refinements. The word-signature test is a
                // cheap necessary condition for `existing ⊆ incoming`
                // that skips the bitset walk for most non-subset pairs.
                let meaningful = inc_width <= self.width(i) * (1.0 - config.min_tightening);
                if self.sig(i) & !inc_sig == 0
                    && self.env(i).is_subset_of(&incoming.env)
                    && self.degree(i) >= incoming.degree - 1e-12
                    && (ev_in_inc || (!meaningful && inc_in_ev))
                {
                    dominated = true;
                }
                // The converse: the incoming value meaningfully improves
                // on this entry, which is dropped.
                let drop = inc_sig & !self.sig(i) == 0
                    && incoming.env.is_subset_of(self.env(i))
                    && incoming.degree >= self.degree(i) - 1e-12
                    && inc_in_ev
                    && meaningful;
                keep.push(!drop);
                drops += usize::from(drop);
            }
        }
        (dominated, drops, tally)
    }
}

/// Flushes coincidence tallies `[corroborations, splits, partial,
/// total]` as one atomic add per kind that occurred.
fn flush_tally(tally: [u64; 4]) {
    let m = flames_obs::metrics();
    let [corr, split, partial, total] = tally;
    if corr > 0 {
        m.corroborations.add(corr);
    }
    if split > 0 {
        m.splits.add(split);
    }
    if partial > 0 {
        m.partial_conflicts.add(partial);
    }
    if total > 0 {
        m.total_conflicts.add(total);
    }
}

/// The set lanes of a [`flames_fuzzy::simd::M4::bits`] mask, in
/// ascending lane order.
fn set_lanes(mut bits: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let l = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            l
        })
    })
}

/// Rows one constraint direction derives per application at most: the
/// first 64 source combinations, in enumeration order, the last source
/// varying fastest.
const COMBO_CAP: usize = 64;

/// The vertex-method operation of one `Product` direction: `p = x·y`,
/// or one of the quotients `x = p/y`, `y = p/x`.
#[derive(Debug, Clone, Copy)]
enum ProductOp {
    Mul,
    Div,
}

/// Fig. 4 classification of a coincidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoincidenceKind {
    /// Case c: the values agree (`Dc = 1` both ways).
    Corroboration,
    /// Case a: one value refines (splits) the other.
    Split,
    /// Case b with `0 < Dc < 1`.
    PartialConflict,
    /// Case b with `Dc = 0`.
    TotalConflict,
}

/// A recorded coincidence between two values of one quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct CoincidenceRecord {
    /// The quantity on which the values met.
    pub quantity: QuantityId,
    /// Fig. 4 classification.
    pub kind: CoincidenceKind,
    /// Degree of consistency (with deviation direction) of the
    /// measurement-side value against the prediction-side value.
    pub consistency: Consistency,
    /// Union of the two environments (the nogood, for conflicts).
    pub env: Env,
}

/// Tuning knobs of the propagation engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagatorConfig {
    /// T-norm combining certainty degrees along derivations.
    pub tnorm: TNorm,
    /// Conflict degrees at or below this threshold are treated as noise
    /// (no nogood). Default `0.02`.
    pub conflict_threshold: f64,
    /// Maximum value entries kept per quantity (explosion guard).
    /// Default `8`.
    pub max_entries: usize,
    /// Minimum relative support tightening for a refined value to be
    /// recorded. Default `0.01`.
    pub min_tightening: f64,
    /// Upper bound on constraint applications per [`Propagator::run`].
    /// Default `20_000`.
    pub max_steps: usize,
}

impl Default for PropagatorConfig {
    fn default() -> Self {
        Self {
            tnorm: TNorm::Min,
            conflict_threshold: 0.02,
            max_entries: 8,
            min_tightening: 0.01,
            max_steps: 20_000,
        }
    }
}

/// The immutable per-model half of the propagation engine: the compiled
/// constraint schedule plus the assumption vocabulary and the
/// environments every session used to rebuild from scratch.
///
/// Build once per circuit model with [`CompiledSchedule::build`]; share
/// freely across sessions and threads (`Send + Sync` — verified by a
/// static audit in `flames-atms` and the workspace serving tests).
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// Compiled constraint application schedule + fanout adjacency.
    pub(crate) compiled: CompiledNetwork,
    /// The assumption vocabulary (names every env in reports).
    pub(crate) pool: AssumptionPool,
    /// Per-component correctness assumptions, in netlist order.
    pub(crate) comp_assumptions: Vec<Assumption>,
    /// Per-net connection assumptions (nets owning Kirchhoff laws).
    pub(crate) conn_assumptions: Vec<Option<Assumption>>,
    /// Per-constraint support environment (component assumptions ∪
    /// connection assumption).
    pub(crate) constraint_envs: Vec<Env>,
    /// Per-seed support environment, parallel to [`Network::seeds`].
    pub(crate) seed_envs: Vec<Env>,
    /// Vocabulary-only ATMS sessions start from (cloned cold, reset
    /// warm).
    pub(crate) base_atms: FuzzyAtms,
}

impl CompiledSchedule {
    /// Compiles the per-model schedule: one correctness assumption per
    /// component of `netlist`, one connection assumption per net owning a
    /// Kirchhoff constraint (in constraint first-appearance order — the
    /// numbering every session previously re-derived), the per-constraint
    /// support environments, and the seed environments. The schedule
    /// reads none of the engine knobs; `_config` stays in the signature
    /// for existing callers.
    #[must_use]
    pub fn build(netlist: &Netlist, network: &Network, _config: PropagatorConfig) -> Self {
        let compiled = CompiledNetwork::compile(network);
        let mut atms = FuzzyAtms::new();
        let mut pool = AssumptionPool::new();
        let mut comp_assumptions = Vec::with_capacity(netlist.component_count());
        for (_, comp) in netlist.components() {
            let a = atms.add_assumption();
            // The intern must run in release builds too — the pool is what
            // names every env in reports.
            let interned = pool.intern(comp.name());
            debug_assert_eq!(a, interned);
            comp_assumptions.push(a);
        }
        let mut conn_assumptions = vec![None; netlist.net_count()];
        for &net in compiled.conn_nets() {
            let name = format!("conn:{}", netlist.net_name(net));
            let a = atms.add_assumption();
            let interned = pool.intern(&name);
            debug_assert_eq!(a, interned);
            conn_assumptions[net.index()] = Some(a);
        }
        let constraint_envs: Vec<Env> = network
            .constraints()
            .iter()
            .map(|c| {
                let mut env =
                    Env::from_assumptions(c.support.iter().map(|s| comp_assumptions[s.index()]));
                if let Some(net) = c.conn {
                    if let Some(a) = conn_assumptions[net.index()] {
                        env = env.with(a);
                    }
                }
                env
            })
            .collect();
        let seed_envs: Vec<Env> = network
            .seeds()
            .iter()
            .map(|s| Env::from_assumptions(s.support.iter().map(|c| comp_assumptions[c.index()])))
            .collect();
        Self {
            compiled,
            pool,
            comp_assumptions,
            conn_assumptions,
            constraint_envs,
            seed_envs,
            base_atms: atms,
        }
    }

    /// Like [`CompiledSchedule::build`], but interning correctness
    /// assumptions only for the components flagged in `include` — the
    /// per-shard schedule of the region-sharded engine. `network` must
    /// already be the shard's filtered sub-network
    /// ([`Network::restricted`] via the region partition): the full
    /// global quantity list with only the shard's constraints, whose
    /// supports all lie inside `include`.
    ///
    /// Off-shard components get a sentinel assumption
    /// (`Assumption(u32::MAX)`) that must never reach an environment;
    /// shard engines only derive envs over constraints they own, so the
    /// sentinel is unreachable by construction (debug-asserted per kept
    /// constraint). The local assumption ids are dense over the shard's
    /// own vocabulary, which is what keeps per-shard [`Env`] bitsets
    /// narrow — the point of sharding on one core.
    ///
    /// [`Network::restricted`]: flames_circuit::constraint::Network::restricted
    ///
    /// # Panics
    ///
    /// Panics if `include` does not flag every component of `netlist`.
    #[must_use]
    pub fn build_restricted(netlist: &Netlist, network: &Network, include: &[bool]) -> Self {
        assert_eq!(
            include.len(),
            netlist.component_count(),
            "include must flag every component"
        );
        let compiled = CompiledNetwork::compile(network);
        let mut atms = FuzzyAtms::new();
        let mut pool = AssumptionPool::new();
        let mut comp_assumptions = Vec::with_capacity(netlist.component_count());
        for (id, comp) in netlist.components() {
            if include[id.index()] {
                let a = atms.add_assumption();
                let interned = pool.intern(comp.name());
                debug_assert_eq!(a, interned);
                comp_assumptions.push(a);
            } else {
                comp_assumptions.push(Assumption(u32::MAX));
            }
        }
        let mut conn_assumptions = vec![None; netlist.net_count()];
        for &net in compiled.conn_nets() {
            let name = format!("conn:{}", netlist.net_name(net));
            let a = atms.add_assumption();
            let interned = pool.intern(&name);
            debug_assert_eq!(a, interned);
            conn_assumptions[net.index()] = Some(a);
        }
        let constraint_envs: Vec<Env> = network
            .constraints()
            .iter()
            .map(|c| {
                debug_assert!(
                    c.support.iter().all(|s| include[s.index()]),
                    "shard constraint {} supported by an off-shard component",
                    c.name
                );
                let mut env =
                    Env::from_assumptions(c.support.iter().map(|s| comp_assumptions[s.index()]));
                if let Some(net) = c.conn {
                    if let Some(a) = conn_assumptions[net.index()] {
                        env = env.with(a);
                    }
                }
                env
            })
            .collect();
        let seed_envs: Vec<Env> = network
            .seeds()
            .iter()
            .map(|s| {
                debug_assert!(s.support.iter().all(|c| include[c.index()]));
                Env::from_assumptions(s.support.iter().map(|c| comp_assumptions[c.index()]))
            })
            .collect();
        Self {
            compiled,
            pool,
            comp_assumptions,
            conn_assumptions,
            constraint_envs,
            seed_envs,
            base_atms: atms,
        }
    }

    /// The compiled constraint schedule.
    #[must_use]
    pub fn compiled(&self) -> &CompiledNetwork {
        &self.compiled
    }

    /// The assumption vocabulary.
    #[must_use]
    pub fn pool(&self) -> &AssumptionPool {
        &self.pool
    }

    /// The correctness assumption of a component (by netlist index).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range component index.
    #[must_use]
    pub fn component_assumption(&self, comp_index: usize) -> Assumption {
        self.comp_assumptions[comp_index]
    }

    /// The connection assumption of a net, if it owns a Kirchhoff
    /// constraint.
    #[must_use]
    pub fn connection_assumption(&self, net: Net) -> Option<Assumption> {
        self.conn_assumptions.get(net.index()).copied().flatten()
    }
}

/// Owned-or-shared handle on a [`CompiledSchedule`]: the legacy
/// constructors compile a private schedule per propagator, the serving
/// path borrows one compiled model.
#[derive(Debug, Clone)]
enum ScheduleRef<'n> {
    Owned(Box<CompiledSchedule>),
    Shared(&'n CompiledSchedule),
}

impl ScheduleRef<'_> {
    fn get(&self) -> &CompiledSchedule {
        match self {
            ScheduleRef::Owned(s) => s,
            ScheduleRef::Shared(s) => s,
        }
    }
}

/// The mutable per-board state: value stores, ATMS labels and nogoods,
/// coincidences, withdrawn constraints.
///
/// Snapshotable: the engine layer captures the post-seed-fixpoint state
/// once per model and restores sessions from it
/// ([`Propagator::snapshot_state`] / [`Propagator::restore_state`]), so
/// warm boards skip the board-independent propagation entirely.
#[derive(Debug, Clone)]
pub(crate) struct PropState {
    entries: Vec<EntryColumns>,
    atms: FuzzyAtms,
    coincidences: Vec<CoincidenceRecord>,
    /// Constraints withdrawn by model-validity excusal (indexed like
    /// `network.constraints()`).
    disabled_constraints: Vec<bool>,
    /// Whether [`Propagator::run`] has quiesced at least once; until
    /// then a run schedules every constraint.
    ran: bool,
    /// Quantities with out-of-run insertions (seeds, observations,
    /// predictions) since the last quiescence — the wake set of the next
    /// incremental run.
    dirty: Vec<usize>,
    /// Reusable buffer of derived `(value, env, degree, measured)` rows —
    /// emptied between constraint applications, kept for its capacity.
    scratch_derived: Vec<(FuzzyInterval, Env, f64, bool)>,
    /// Reusable keep-mask of the dominance retain pass in
    /// [`PropState::insert`].
    scratch_keep: Vec<bool>,
    /// Reusable buffer of one insert's conflicting coincidences and
    /// their nogood degrees — drained before the insert returns.
    scratch_conflicts: Vec<(CoincidenceRecord, f64)>,
}

/// The propagation engine: quantity labels, the fuzzy ATMS, and the
/// assumption vocabulary for one diagnosis session.
#[derive(Debug, Clone)]
pub struct Propagator<'n> {
    network: &'n Network,
    config: PropagatorConfig,
    schedule: ScheduleRef<'n>,
    /// Components whose parameter seeds are withheld.
    unknown: Vec<CompId>,
    /// Components whose models are withdrawn entirely.
    excused: Vec<CompId>,
    state: PropState,
}

impl<'n> Propagator<'n> {
    /// Builds a propagator for `network`, creating one correctness
    /// assumption per component of `netlist` and one connection assumption
    /// per net that owns a Kirchhoff constraint, then loads the network's
    /// seed values.
    ///
    /// This compiles a private [`CompiledSchedule`] per call — the
    /// pre-compile behaviour, kept for one-shot uses and as the cold
    /// baseline; long-lived serving should build the schedule once and
    /// use [`Propagator::with_schedule`].
    #[must_use]
    pub fn new(netlist: &Netlist, network: &'n Network, config: PropagatorConfig) -> Self {
        Self::new_with_unknown(netlist, network, config, &[])
    }

    /// Like [`Propagator::new`], but the parameters of the listed
    /// components are left *unknown* (their seeds are withheld). Used by
    /// fault-mode refinement to infer a suspect's actual parameter from
    /// the measurements.
    #[must_use]
    pub fn new_with_unknown(
        netlist: &Netlist,
        network: &'n Network,
        config: PropagatorConfig,
        unknown: &[CompId],
    ) -> Self {
        Self::new_filtered(netlist, network, config, unknown, &[])
    }

    /// Like [`Propagator::new`], but the listed components' *models* are
    /// withdrawn entirely: their parameter seeds are skipped and every
    /// constraint they support is disabled. Used by the §6.2
    /// model-validity machinery when a device is driven out of the
    /// operating region its model assumes.
    #[must_use]
    pub fn new_excusing(
        netlist: &Netlist,
        network: &'n Network,
        config: PropagatorConfig,
        excused: &[CompId],
    ) -> Self {
        Self::new_filtered(netlist, network, config, excused, excused)
    }

    fn new_filtered(
        netlist: &Netlist,
        network: &'n Network,
        config: PropagatorConfig,
        unknown: &[CompId],
        excused: &[CompId],
    ) -> Self {
        let schedule = Box::new(CompiledSchedule::build(netlist, network, config));
        Self::from_parts(
            network,
            ScheduleRef::Owned(schedule),
            config,
            unknown.to_vec(),
            excused.to_vec(),
        )
    }

    /// Builds a propagator over a shared, pre-compiled schedule — the
    /// serve-many path: no vocabulary interning, no adjacency rebuild, no
    /// environment re-derivation; the cold cost is one clone of the
    /// vocabulary-only base ATMS plus the empty label stores.
    #[must_use]
    pub fn with_schedule(
        network: &'n Network,
        schedule: &'n CompiledSchedule,
        config: PropagatorConfig,
    ) -> Self {
        Self::with_schedule_filtered(network, schedule, config, &[], &[])
    }

    /// [`Propagator::with_schedule`] with the unknown/excused component
    /// filters of [`Propagator::new_with_unknown`] /
    /// [`Propagator::new_excusing`]. The filters are per-board state:
    /// [`Propagator::reset`] reapplies them.
    #[must_use]
    pub fn with_schedule_filtered(
        network: &'n Network,
        schedule: &'n CompiledSchedule,
        config: PropagatorConfig,
        unknown: &[CompId],
        excused: &[CompId],
    ) -> Self {
        Self::from_parts(
            network,
            ScheduleRef::Shared(schedule),
            config,
            unknown.to_vec(),
            excused.to_vec(),
        )
    }

    fn from_parts(
        network: &'n Network,
        schedule: ScheduleRef<'n>,
        config: PropagatorConfig,
        unknown: Vec<CompId>,
        excused: Vec<CompId>,
    ) -> Self {
        let state = PropState {
            entries: vec![EntryColumns::default(); network.quantity_count()],
            atms: schedule.get().base_atms.clone(),
            coincidences: Vec::new(),
            disabled_constraints: Vec::with_capacity(network.constraints().len()),
            ran: false,
            dirty: Vec::new(),
            scratch_derived: Vec::new(),
            scratch_keep: Vec::new(),
            scratch_conflicts: Vec::new(),
        };
        let mut prop = Self {
            network,
            config,
            schedule,
            unknown,
            excused,
            state,
        };
        prop.load_board();
        prop
    }

    /// Loads the per-board baseline: the excusal mask and the model
    /// seeds (minus withheld parameters). Runs on construction and on
    /// every [`Propagator::reset`].
    fn load_board(&mut self) {
        let sched = self.schedule.get();
        let network = self.network;
        let config = self.config;
        let unknown = &self.unknown;
        let excused = &self.excused;
        let state = &mut self.state;
        state.disabled_constraints.clear();
        state.disabled_constraints.extend(
            network
                .constraints()
                .iter()
                .map(|c| c.support.iter().any(|s| excused.contains(s))),
        );
        for (seed, env) in network.seeds().iter().zip(&sched.seed_envs) {
            if seed.support.iter().any(|c| unknown.contains(c)) {
                continue;
            }
            if state.insert(config, seed.quantity, seed.value, env.clone(), 1.0, false) {
                state.dirty.push(seed.quantity.index());
            }
        }
    }

    /// Clears the per-board state — labels, nogoods, coincidences,
    /// measurements' effects — without deallocating, then reloads the
    /// model seeds under the same unknown/excused filters. A reset
    /// propagator is indistinguishable from a freshly constructed one
    /// (the serving tests assert report-level identity), but costs no
    /// vocabulary rebuild and reuses every allocation it can.
    pub fn reset(&mut self) {
        for cols in &mut self.state.entries {
            cols.clear();
        }
        self.state.atms.reset();
        self.state.coincidences.clear();
        self.state.ran = false;
        self.state.dirty.clear();
        self.load_board();
    }

    /// Clones the full per-board state — the engine layer snapshots the
    /// board-independent seed fixpoint once per [`CompiledModel`] and
    /// restores every serving session from it.
    ///
    /// [`CompiledModel`]: crate::CompiledModel
    #[must_use]
    pub(crate) fn snapshot_state(&self) -> PropState {
        self.state.clone()
    }

    /// Overwrites the per-board state from a snapshot, reusing existing
    /// allocations. The propagator behaves exactly as the one the
    /// snapshot was taken from did at capture time.
    pub(crate) fn restore_state(&mut self, base: &PropState) {
        self.state.clone_from(base);
    }

    /// The schedule this propagator runs on (owned or shared).
    #[must_use]
    pub fn schedule(&self) -> &CompiledSchedule {
        self.schedule.get()
    }

    /// The assumption standing for "component `comp` (by netlist index)
    /// behaves correctly".
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range component index.
    #[must_use]
    pub fn component_assumption(&self, comp_index: usize) -> Assumption {
        self.schedule.get().comp_assumptions[comp_index]
    }

    /// The connection assumption of a net, if it has Kirchhoff constraints.
    #[must_use]
    pub fn connection_assumption(&self, net: Net) -> Option<Assumption> {
        self.schedule.get().connection_assumption(net)
    }

    /// Human-readable name of an assumption.
    #[must_use]
    pub fn assumption_name(&self, a: Assumption) -> &str {
        self.schedule.get().pool.name(a).unwrap_or("?")
    }

    /// The assumption vocabulary.
    #[must_use]
    pub fn pool(&self) -> &AssumptionPool {
        &self.schedule.get().pool
    }

    /// The underlying fuzzy ATMS (nogoods, suspicion, diagnoses).
    #[must_use]
    pub fn atms(&self) -> &FuzzyAtms {
        &self.state.atms
    }

    /// All coincidences recorded so far.
    #[must_use]
    pub fn coincidences(&self) -> &[CoincidenceRecord] {
        &self.state.coincidences
    }

    /// Current value entries of a quantity, materialized from the
    /// struct-of-arrays store.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownQuantity`] for a foreign id.
    pub fn entries(&self, q: QuantityId) -> Result<Vec<ValueEntry>> {
        self.state
            .entries
            .get(q.index())
            .map(EntryColumns::to_entries)
            .ok_or(CoreError::UnknownQuantity { index: q.index() })
    }

    /// The tightest (smallest-support) value of a quantity, if any.
    #[must_use]
    pub fn best_value(&self, q: QuantityId) -> Option<ValueEntry> {
        let cols = self.state.entries.get(q.index())?;
        cols.tightest().map(|i| cols.entry(i))
    }

    /// Enters a *measurement* for a quantity (premise environment,
    /// degree 1, measurement-rooted).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownQuantity`] for a foreign id.
    pub fn observe(&mut self, q: QuantityId, value: FuzzyInterval) -> Result<()> {
        self.check(q)?;
        if self
            .state
            .insert(self.config, q, value, Env::empty(), 1.0, true)
        {
            self.state.dirty.push(q.index());
        }
        Ok(())
    }

    /// Enters a *predicted* value under the correctness assumptions of
    /// `support` (netlist component indices) — the model-database entry
    /// point for test-point predictions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownQuantity`] for a foreign id.
    pub fn predict(
        &mut self,
        q: QuantityId,
        value: FuzzyInterval,
        support: &[CompId],
        degree: f64,
    ) -> Result<()> {
        self.check(q)?;
        let env = self.env_of_comps(support);
        if self.state.insert(
            self.config,
            q,
            value,
            env,
            degree.clamp(f64::MIN_POSITIVE, 1.0),
            false,
        ) {
            self.state.dirty.push(q.index());
        }
        Ok(())
    }

    /// Installs an external graded nogood (e.g. from a fault-model rule).
    pub fn add_nogood(&mut self, env: &Env, degree: f64) {
        self.state.atms.add_nogood(env, degree);
    }

    /// Enters a value derived *outside* this engine under an explicit
    /// environment — the boundary-exchange entry point of the
    /// region-sharded engine: a neighbouring shard derived `value` for a
    /// cut quantity under `env` (already renamed into this shard's
    /// vocabulary). Dominated and implausible values are rejected by the
    /// same store rules as internally derived ones, so re-delivering an
    /// entry is a no-op — that is what makes exchange rounds converge.
    ///
    /// Returns whether the value store changed (and the quantity joined
    /// the next run's wake set).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownQuantity`] for a foreign id.
    pub fn insert_external(
        &mut self,
        q: QuantityId,
        value: FuzzyInterval,
        env: Env,
        degree: f64,
        measured: bool,
    ) -> Result<bool> {
        self.check(q)?;
        let changed = self.state.insert(
            self.config,
            q,
            value,
            env,
            degree.clamp(f64::MIN_POSITIVE, 1.0),
            measured,
        );
        if changed {
            self.state.dirty.push(q.index());
        }
        Ok(changed)
    }

    /// Interns a *foreign* assumption into this session's ATMS (lazy
    /// boundary-vocabulary growth for the sharded engine). The id is
    /// per-session: [`Propagator::reset`] and state restores rewind it
    /// with the rest of the ATMS. The shared schedule's pool is not
    /// touched — sharded reports render through the global vocabulary.
    pub(crate) fn register_assumption(&mut self) -> Assumption {
        self.state.atms.add_assumption()
    }

    /// Runs constraint propagation to quiescence (bounded by
    /// [`PropagatorConfig::max_steps`]), then grades every spec condition.
    ///
    /// The first run after construction or [`Propagator::reset`]
    /// schedules every constraint; subsequent runs are *incremental* —
    /// they wake only the consumers of quantities changed since the last
    /// quiescence (new observations, predictions or nogoods' effects),
    /// in constraint-index order, exactly as a full rescan would reach
    /// them. This is what makes warm serving cheap: a session restored
    /// from the model's pre-propagated base state only ever pays for the
    /// cone of its own measurements.
    ///
    /// The agenda is a FIFO of constraint indices with one `queued` flag
    /// per constraint: a constraint whose inputs changed joins the back
    /// of the queue unless it is already waiting. A run stops early, with
    /// the rest of its queue dropped, once it has applied
    /// [`PropagatorConfig::max_steps`] constraints.
    ///
    /// Returns the number of constraint applications performed.
    pub fn run(&mut self) -> usize {
        let sched = self.schedule.get();
        let config = self.config;
        let state = &mut self.state;
        let n = sched.compiled.constraint_count();
        let consumers = sched.compiled.consumers();
        let mut wake: Vec<u32> = Vec::new();
        let mut queue: VecDeque<usize> = if state.ran {
            // Incremental: wake only the consumers of quantities touched
            // since the last quiescence, in constraint order.
            for &qi in &state.dirty {
                wake.extend_from_slice(&consumers[qi]);
            }
            wake.sort_unstable();
            wake.dedup();
            wake.iter().map(|&cj| cj as usize).collect()
        } else {
            // First run: every constraint starts queued.
            (0..n).collect()
        };
        let mut queued = vec![false; n];
        for &cj in &queue {
            queued[cj] = true;
        }
        state.dirty.clear();
        state.ran = true;
        let mut steps = 0usize;
        let mut changed: Vec<usize> = Vec::new();
        while let Some(ci) = queue.pop_front() {
            queued[ci] = false;
            if steps >= config.max_steps {
                break;
            }
            if state.disabled_constraints[ci] {
                continue;
            }
            steps += 1;
            state.apply_constraint(sched, config, ci, &mut changed);
            wake.clear();
            for &qi in &changed {
                wake.extend_from_slice(&consumers[qi]);
            }
            wake.sort_unstable();
            wake.dedup();
            for &cj in &wake {
                let cj = cj as usize;
                if !queued[cj] {
                    queued[cj] = true;
                    queue.push_back(cj);
                }
            }
        }
        state.grade_specs(sched, self.network, config);
        flames_obs::metrics().waves.incr();
        flames_obs::metrics().constraint_apps.add(steps as u64);
        steps
    }

    // ----- internals -------------------------------------------------

    fn check(&self, q: QuantityId) -> Result<()> {
        if q.index() < self.state.entries.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownQuantity { index: q.index() })
        }
    }

    fn env_of_comps(&self, comps: &[CompId]) -> Env {
        let sched = self.schedule.get();
        Env::from_assumptions(comps.iter().map(|c| sched.comp_assumptions[c.index()]))
    }
}

impl PropState {
    /// Applies one constraint in every invertible direction; fills
    /// `changed` with the (sorted, deduped) indices of quantities whose
    /// labels changed.
    fn apply_constraint(
        &mut self,
        sched: &CompiledSchedule,
        config: PropagatorConfig,
        ci: usize,
        changed: &mut Vec<usize>,
    ) {
        let tnorm = config.tnorm;
        changed.clear();
        let mut derived = std::mem::take(&mut self.scratch_derived);
        match *sched.compiled.relation(ci) {
            CompiledRelation::Linear {
                bias,
                ref directions,
            } => {
                for dir in directions {
                    self.combos_wide_linear(
                        bias,
                        dir,
                        &sched.constraint_envs[ci],
                        tnorm,
                        &mut derived,
                    );
                    self.insert_derived(config, dir.target, &mut derived, changed);
                }
            }
            CompiledRelation::Product { p, x, y } => {
                // p = x · y, x = p / y and y = p / x.
                for (target, a, b, op) in [
                    (p, x, y, ProductOp::Mul),
                    (x, p, y, ProductOp::Div),
                    (y, p, x, ProductOp::Div),
                ] {
                    self.combos_wide_product(
                        op,
                        a,
                        b,
                        &sched.constraint_envs[ci],
                        tnorm,
                        &mut derived,
                    );
                    self.insert_derived(config, target, &mut derived, changed);
                }
            }
        }
        self.scratch_derived = derived;
        changed.sort_unstable();
        changed.dedup();
    }

    /// Inserts every derived row into `target`'s label, draining
    /// `derived` and noting `target` in `changed` when its label moved.
    fn insert_derived(
        &mut self,
        config: PropagatorConfig,
        target: QuantityId,
        derived: &mut Vec<(FuzzyInterval, Env, f64, bool)>,
        changed: &mut Vec<usize>,
    ) {
        for (value, env, degree, measured) in derived.drain(..) {
            if self.insert(config, target, value, env, degree, measured) {
                changed.push(target.index());
            }
        }
    }

    /// The 4-wide cached-coefficient apply of one Linear direction,
    /// `target = −(bias + Σ coef_j · v_j) / coef` over every combination
    /// of the source entries: the combination prefix over all but the
    /// last source quantity — bias, coefficient-scaled sum, environment
    /// union, t-norm degree — is folded once per prefix combination,
    /// then the last, fastest-varying list streams through
    /// [`flames_fuzzy::simd::scale4`] / [`flames_fuzzy::simd::add4`]
    /// four entries per step, with the scalar fold as the tail for the
    /// last 1–3 entries. The association order per row is the plain
    /// scalar fold's — `(prefix + vᵢ·coef_last)·(−1/coef)` — so every
    /// emitted row is bit-identical to it, including the
    /// 64-row enumeration cap cutting mid-stream (pinned by a unit
    /// test). A direction with no source quantity emits its one
    /// constant row.
    fn combos_wide_linear(
        &self,
        bias: f64,
        dir: &flames_circuit::compile::LinearDirection,
        base_env: &Env,
        tnorm: TNorm,
        out: &mut Vec<(FuzzyInterval, Env, f64, bool)>,
    ) {
        let arity = dir.quantities.len();
        if arity == 0 {
            out.push((
                FuzzyInterval::crisp(bias).scaled(dir.neg_inv_coef),
                base_env.clone(),
                1.0,
                false,
            ));
            return;
        }
        let last = &self.entries[dir.quantities[arity - 1].index()];
        if last.is_empty() {
            return;
        }
        let (coef_last, _) = *dir.others.last().expect("arity >= 1");
        let mut lists: Vec<&EntryColumns> = Vec::with_capacity(arity - 1);
        for q in &dir.quantities[..arity - 1] {
            let cols = &self.entries[q.index()];
            if cols.is_empty() {
                return;
            }
            lists.push(cols);
        }
        let mut idx = vec![0usize; arity - 1];
        let mut rows_left = COMBO_CAP;
        loop {
            // Fold the prefix in the scalar order.
            let mut psum = FuzzyInterval::crisp(bias);
            let mut penv = base_env.clone();
            let mut pdeg = 1.0;
            let mut pmeas = false;
            for (j, list) in lists.iter().enumerate() {
                let (coef, _) = dir.others[j];
                psum = psum + list.value(idx[j]).scaled(coef);
                penv.union_with(list.env(idx[j]));
                pdeg = tnorm.combine(pdeg, list.degree(idx[j]));
                pmeas |= list.measured(idx[j]);
            }
            let take = last.len().min(rows_left);
            let p4 = Traps4::splat(&psum);
            let mut i = 0usize;
            while i + 4 <= take {
                let ev = Traps4::load(&last.m1, &last.m2, &last.alpha, &last.beta, i);
                let r = scale4(&add4(&p4, &scale4(&ev, coef_last)), dir.neg_inv_coef);
                for l in 0..4 {
                    let mut env = penv.clone();
                    env.union_with(last.env(i + l));
                    out.push((
                        r.lane(l),
                        env,
                        tnorm.combine(pdeg, last.degree(i + l)),
                        pmeas | last.measured(i + l),
                    ));
                }
                i += 4;
            }
            for i in i..take {
                let sum = psum + last.value(i).scaled(coef_last);
                let mut env = penv.clone();
                env.union_with(last.env(i));
                out.push((
                    sum.scaled(dir.neg_inv_coef),
                    env,
                    tnorm.combine(pdeg, last.degree(i)),
                    pmeas | last.measured(i),
                ));
            }
            rows_left -= take;
            if rows_left == 0 {
                return;
            }
            // Odometer over the prefix, last position fastest.
            let mut k = arity - 1;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < lists[k].len() {
                    break;
                }
                idx[k] = 0;
            }
        }
    }

    /// The 4-wide apply of one `Product` direction, `target = a ∘ b` over
    /// every entry pair of `(a, b)` with `∘` the vertex-method product
    /// or quotient: per `a` entry the splatted value, the environment
    /// `base_env ∪ env_a`, degree and measurement flag are set up once,
    /// then the `b` label streams through
    /// [`flames_fuzzy::simd::mul4`] / [`flames_fuzzy::simd::div4`] four
    /// entries per step, with the scalar operation as the tail for the
    /// last 1–3 entries. A pair whose scalar operation fails (a divisor
    /// spanning zero, an overflow) emits no row but still counts toward
    /// the 64-row enumeration cap, and rows come out `a`-major — the
    /// rows, order and cap of the plain scalar fold over every pair, bit
    /// for bit (pinned by a unit test).
    fn combos_wide_product(
        &self,
        op: ProductOp,
        a: QuantityId,
        b: QuantityId,
        base_env: &Env,
        tnorm: TNorm,
        out: &mut Vec<(FuzzyInterval, Env, f64, bool)>,
    ) {
        let (la, lb) = (&self.entries[a.index()], &self.entries[b.index()]);
        if lb.is_empty() {
            return;
        }
        let mut rows_left = COMBO_CAP;
        for ia in 0..la.len() {
            let av = la.value(ia);
            let a4 = Traps4::splat(&av);
            let mut aenv = base_env.clone();
            aenv.union_with(la.env(ia));
            let (adeg, ameas) = (la.degree(ia), la.measured(ia));
            let mut emit = |value: FuzzyInterval, j: usize| {
                let mut env = aenv.clone();
                env.union_with(lb.env(j));
                out.push((
                    value,
                    env,
                    tnorm.combine(adeg, lb.degree(j)),
                    ameas || lb.measured(j),
                ));
            };
            let take = lb.len().min(rows_left);
            let mut j = 0usize;
            while j + 4 <= take {
                let bv = Traps4::load(&lb.m1, &lb.m2, &lb.alpha, &lb.beta, j);
                let (r, ok) = match op {
                    ProductOp::Mul => mul4(&a4, &bv),
                    ProductOp::Div => div4(&a4, &bv),
                };
                for l in set_lanes(ok.bits()) {
                    emit(r.lane(l), j + l);
                }
                j += 4;
            }
            for j in j..take {
                let bv = lb.value(j);
                let r = match op {
                    ProductOp::Mul => av.mul(&bv),
                    ProductOp::Div => av.div(&bv),
                };
                if let Ok(value) = r {
                    emit(value, j);
                }
            }
            rows_left -= take;
            if rows_left == 0 {
                return;
            }
        }
    }

    /// Records a value for a quantity, running the Fig. 4 coincidence
    /// resolution against every held entry. Returns whether the label
    /// changed.
    fn insert(
        &mut self,
        config: PropagatorConfig,
        q: QuantityId,
        value: FuzzyInterval,
        env: Env,
        degree: f64,
        measured: bool,
    ) -> bool {
        // Environments already erased by a killing nogood derive nothing.
        if self.atms.is_killed(&env) {
            return false;
        }
        let incoming = ValueEntry {
            value,
            env,
            degree,
            measured,
        };
        let inc_width = incoming.value.support_width();
        let list = &self.entries[q.index()];
        debug_assert_eq!(
            list.widest.to_bits(),
            list.scan_widest().to_bits(),
            "cached widest width"
        );
        let mut conflicts = std::mem::take(&mut self.scratch_conflicts);
        let mut keep = std::mem::take(&mut self.scratch_keep);
        // A value that can neither replace nor drop a held entry of a
        // full label leaves it as it is, dominated or not: only its
        // coincidences matter, so it skips both dominance directions.
        // It then reaches the cap check below with `drops == 0` and
        // `inc_width ≥ list.widest`, which returns `false`.
        let (dominated, drops, tally) = if list.admits_only_conflicts(inc_width, config) {
            list.classify::<false>(q, &incoming, inc_width, config, &mut conflicts, &mut keep)
        } else {
            list.classify::<true>(q, &incoming, inc_width, config, &mut conflicts, &mut keep)
        };
        flush_tally(tally);
        for (record, nogood_degree) in conflicts.drain(..) {
            self.atms.add_nogood(&record.env, nogood_degree);
            self.coincidences.push(record);
        }
        self.scratch_conflicts = conflicts;
        let list = &mut self.entries[q.index()];
        if drops > 0 && !dominated {
            list.retain_kept(&keep);
        }
        keep.clear();
        self.scratch_keep = keep;
        if dominated {
            return false;
        }
        if list.len() >= config.max_entries {
            // The label is full: the incoming value may still replace the
            // widest held entry if it is strictly tighter. (The raw
            // measurement is always the narrowest entry, so it can never
            // be evicted by derived values.) This keeps the cap from
            // making results order-dependent — a late probe or a tight
            // conditional derivation must never bounce off stale wide
            // values. `list.widest` follows `total_cmp`, which departs
            // from IEEE order only on a ±0 tie, which picks a zero width
            // that `inc_width < width` rejects anyway.
            if inc_width < list.widest {
                let i = list.widest_index().expect("a wider entry is held");
                list.set(i, incoming);
                return true;
            }
            return drops > 0;
        }
        list.push(incoming);
        true
    }

    /// Grades every spec condition against the current best value of its
    /// quantity; violations raise nogoods over spec support ∪ value env.
    fn grade_specs(
        &mut self,
        sched: &CompiledSchedule,
        network: &Network,
        config: PropagatorConfig,
    ) {
        for spec in network.specs() {
            let Some(cols) = self.entries.get(spec.quantity.index()) else {
                continue;
            };
            let Some(bi) = cols.tightest() else {
                continue;
            };
            let satisfaction = cols.value(bi).satisfaction_of(&spec.condition);
            let violation = 1.0 - satisfaction;
            if violation <= config.conflict_threshold {
                continue;
            }
            let best_degree = cols.degree(bi);
            let mut env = cols.env(bi).clone();
            env.union_with(&Env::from_assumptions(
                spec.support
                    .iter()
                    .map(|c| sched.comp_assumptions[c.index()]),
            ));
            let record = CoincidenceRecord {
                quantity: spec.quantity,
                kind: if satisfaction <= 0.0 {
                    CoincidenceKind::TotalConflict
                } else {
                    CoincidenceKind::PartialConflict
                },
                consistency: Consistency::from_parts(satisfaction, flames_fuzzy::Direction::High),
                env,
            };
            self.atms
                .add_nogood(&record.env, config.tnorm.combine(violation, best_degree));
            // Specs are re-graded at the end of every run; a violation
            // that has not changed must not pile up duplicate records.
            if !self.coincidences.contains(&record) {
                self.coincidences.push(record);
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use flames_circuit::constraint::{extract, ExtractOptions};

    /// vin —R1— mid —R2— gnd divider network.
    fn divider(tol: f64) -> (Netlist, Network) {
        let mut nl = Netlist::new();
        let vin = nl.add_net("vin");
        let mid = nl.add_net("mid");
        nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
        nl.add_resistor("R1", vin, mid, 1000.0, tol).unwrap();
        nl.add_resistor("R2", mid, Net::GROUND, 1000.0, tol)
            .unwrap();
        let network = extract(&nl, ExtractOptions::default());
        (nl, network)
    }

    #[test]
    fn seeds_are_loaded() {
        let (nl, network) = divider(0.05);
        let prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let vg = network.voltage_quantity(Net::GROUND);
        let entries = prop.entries(vg).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].value.is_point());
        assert!(entries[0].env.is_empty());
    }

    #[test]
    fn healthy_divider_propagates_and_corroborates() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        // Measure the true mid voltage with a little imprecision.
        prop.observe(vq, FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        prop.run();
        assert!(
            prop.atms().nogoods().is_empty(),
            "healthy board: no conflicts"
        );
        // The engine derives the mid voltage from the model too.
        let best = prop.best_value(vq).unwrap();
        assert!(best.value.membership(5.0) > 0.0);
    }

    #[test]
    fn shifted_measurement_raises_graded_nogood() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        // Slightly off: a soft fault somewhere.
        prop.observe(vq, FuzzyInterval::crisp(5.4).widened(0.05).unwrap())
            .unwrap();
        prop.run();
        let nogoods = prop.atms().nogoods();
        assert!(
            !nogoods.is_empty(),
            "5.4 V against ~5±tolerances must conflict"
        );
        // The conflict implicates the divider resistors, not the source alone.
        let r1 = prop.component_assumption(nl.component_by_name("R1").unwrap().index());
        let r2 = prop.component_assumption(nl.component_by_name("R2").unwrap().index());
        assert!(nogoods
            .iter()
            .any(|n| n.env.contains(r1) || n.env.contains(r2)));
    }

    #[test]
    fn hard_fault_raises_total_conflict() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        prop.observe(vq, FuzzyInterval::crisp(9.99).widened(0.02).unwrap())
            .unwrap();
        prop.run();
        let max_degree = prop
            .atms()
            .nogoods()
            .iter()
            .map(|n| n.degree)
            .fold(0.0, f64::max);
        assert!(
            max_degree >= 0.99,
            "a near-rail reading is a total conflict"
        );
        assert!(prop
            .coincidences()
            .iter()
            .any(|c| c.kind == CoincidenceKind::TotalConflict));
    }

    #[test]
    fn soft_fault_conflict_is_graded_below_one() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        // Just at the edge of tolerance: partial conflict expected.
        prop.observe(vq, FuzzyInterval::crisp(5.3).widened(0.15).unwrap())
            .unwrap();
        prop.run();
        assert!(prop
            .coincidences()
            .iter()
            .any(|c| c.kind == CoincidenceKind::PartialConflict));
        let has_partial = prop
            .atms()
            .nogoods()
            .iter()
            .any(|n| n.degree > 0.02 && n.degree < 1.0);
        assert!(has_partial, "graded nogood expected");
    }

    #[test]
    fn diagnoses_point_at_divider_components() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        prop.observe(vq, FuzzyInterval::crisp(7.0).widened(0.05).unwrap())
            .unwrap();
        prop.run();
        let diags = prop.atms().ranked_diagnoses(2, 100);
        assert!(!diags.is_empty());
        // Single-component candidates must be among R1, R2, V or a
        // connection — never empty.
        let names: Vec<String> = diags
            .iter()
            .flat_map(|d| d.env.iter().map(|a| prop.assumption_name(a).to_owned()))
            .collect();
        assert!(names.iter().any(|n| n == "R1" || n == "R2"));
    }

    #[test]
    fn unknown_quantity_is_reported() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let bogus = flames_circuit::constraint::QuantityId::from_raw(network.quantity_count() + 5);
        let res = prop.observe(bogus, FuzzyInterval::crisp(0.0));
        assert!(matches!(res, Err(CoreError::UnknownQuantity { .. })));
        assert!(prop.entries(bogus).is_err());
    }

    #[test]
    fn observe_then_rerun_is_incremental() {
        let (nl, network) = divider(0.05);
        let mut prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let vin = nl.net_by_name("vin").unwrap();
        let mid = nl.net_by_name("mid").unwrap();
        prop.observe(
            network.voltage_quantity(vin),
            FuzzyInterval::crisp(10.0).widened(0.01).unwrap(),
        )
        .unwrap();
        prop.run();
        let before = prop.atms().nogoods().len();
        prop.observe(
            network.voltage_quantity(mid),
            FuzzyInterval::crisp(5.0).widened(0.05).unwrap(),
        )
        .unwrap();
        prop.run();
        assert_eq!(prop.atms().nogoods().len(), before, "still healthy");
    }

    /// Runs one faulty-board scenario on a propagator and snapshots
    /// everything a report is derived from.
    fn run_board(prop: &mut Propagator<'_>, network: &Network, nl: &Netlist) -> String {
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        prop.observe(vq, FuzzyInterval::crisp(5.4).widened(0.05).unwrap())
            .unwrap();
        prop.run();
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            prop.entries(vq).unwrap(),
            prop.atms().nogoods(),
            prop.coincidences(),
            prop.atms().ranked_diagnoses(3, 64),
        )
    }

    #[test]
    fn shared_schedule_matches_private_schedule() {
        let (nl, network) = divider(0.05);
        let config = PropagatorConfig::default();
        let schedule = CompiledSchedule::build(&nl, &network, config);
        let mut legacy = Propagator::new(&nl, &network, config);
        let mut shared = Propagator::with_schedule(&network, &schedule, config);
        let a = run_board(&mut legacy, &network, &nl);
        let b = run_board(&mut shared, &network, &nl);
        assert_eq!(a, b, "compiled path must be byte-identical to legacy");
    }

    #[test]
    fn reset_board_matches_fresh_propagator() {
        let (nl, network) = divider(0.05);
        let config = PropagatorConfig::default();
        let schedule = CompiledSchedule::build(&nl, &network, config);
        let mut fresh = Propagator::with_schedule(&network, &schedule, config);
        let expected = run_board(&mut fresh, &network, &nl);
        // Warm path: run a *different* board first, then reset and replay.
        let mut warm = Propagator::with_schedule(&network, &schedule, config);
        let vin = nl.net_by_name("vin").unwrap();
        warm.observe(
            network.voltage_quantity(vin),
            FuzzyInterval::crisp(9.2).widened(0.02).unwrap(),
        )
        .unwrap();
        warm.run();
        assert!(!warm.atms().nogoods().is_empty(), "first board is faulty");
        warm.reset();
        assert!(warm.atms().nogoods().is_empty());
        assert!(warm.coincidences().is_empty());
        let replay = run_board(&mut warm, &network, &nl);
        assert_eq!(replay, expected, "reset must equal rebuild");
    }

    #[test]
    fn reset_preserves_excusal_filters() {
        let (nl, network) = divider(0.05);
        let config = PropagatorConfig::default();
        let r2 = nl.component_by_name("R2").unwrap();
        let schedule = CompiledSchedule::build(&nl, &network, config);
        let mut legacy = Propagator::new_excusing(&nl, &network, config, &[r2]);
        let mut shared =
            Propagator::with_schedule_filtered(&network, &schedule, config, &[r2], &[r2]);
        shared.reset();
        let a = run_board(&mut legacy, &network, &nl);
        let b = run_board(&mut shared, &network, &nl);
        assert_eq!(a, b, "filters survive reset");
    }

    /// A borrowed view of one stored entry, materialized from the
    /// columns: a row of the scalar combination oracle.
    #[derive(Clone, Copy)]
    struct EntryRef<'a> {
        value: FuzzyInterval,
        env: &'a Env,
        degree: f64,
        measured: bool,
    }

    fn entry_ref(cols: &EntryColumns, i: usize) -> EntryRef<'_> {
        EntryRef {
            value: cols.value(i),
            env: cols.env(i),
            degree: cols.degree(i),
            measured: cols.measured(i),
        }
    }

    /// The odometer at the heart of [`each_combo`]: enumerates index
    /// tuples over `lists` (last position varying fastest), materializing
    /// each row for `f`, capped at 64 combinations.
    fn combo_loop<'s>(
        lists: &[&'s EntryColumns],
        idx: &mut [usize],
        row: &mut [EntryRef<'s>],
        mut f: impl FnMut(&[EntryRef<'s>]),
    ) {
        for _ in 0..COMBO_CAP {
            f(row);
            // Odometer increment, last position fastest.
            let mut k = lists.len();
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < lists[k].len() {
                    row[k] = entry_ref(lists[k], idx[k]);
                    break;
                }
                idx[k] = 0;
                row[k] = entry_ref(lists[k], 0);
            }
        }
    }

    /// The scalar reference enumeration both wide applies reproduce:
    /// `f` sees each cartesian combination of the current entries of
    /// `qs` in lexicographic order, the last quantity varying fastest,
    /// capped at 64 rows; nothing when a list is empty, and one empty
    /// row when `qs` is.
    fn each_combo<'s>(state: &'s PropState, qs: &[QuantityId], f: impl FnMut(&[EntryRef<'s>])) {
        let lists: Vec<&EntryColumns> = qs.iter().map(|q| &state.entries[q.index()]).collect();
        if lists.iter().any(|l| l.is_empty()) {
            return;
        }
        let mut idx = vec![0usize; lists.len()];
        let mut row: Vec<EntryRef<'s>> = lists.iter().map(|l| entry_ref(l, 0)).collect();
        combo_loop(&lists, &mut idx, &mut row, f);
    }

    /// The scalar definition of one Linear direction's rows: a plain
    /// fold over every [`each_combo`] row —
    /// `target = −(bias + Σ coef_j · v_j) / coef` — the reference
    /// [`PropState::combos_wide_linear`] must reproduce bit for bit.
    fn linear_rows_by_fold(
        state: &PropState,
        bias: f64,
        dir: &flames_circuit::compile::LinearDirection,
        base_env: &Env,
        tnorm: TNorm,
    ) -> Vec<(FuzzyInterval, Env, f64, bool)> {
        let mut out = Vec::new();
        each_combo(state, &dir.quantities, |row| {
            let mut sum = FuzzyInterval::crisp(bias);
            let mut env = base_env.clone();
            let mut degree = 1.0;
            let mut measured = false;
            for (&(coef, _), entry) in dir.others.iter().zip(row) {
                sum = sum + entry.value.scaled(coef);
                env.union_with(entry.env);
                degree = tnorm.combine(degree, entry.degree);
                measured |= entry.measured;
            }
            out.push((sum.scaled(dir.neg_inv_coef), env, degree, measured));
        });
        out
    }

    fn row_bits(rows: &[(FuzzyInterval, Env, f64, bool)]) -> Vec<([u64; 4], Env, u64, bool)> {
        rows.iter()
            .map(|(v, env, degree, measured)| {
                (
                    [
                        v.core_lo().to_bits(),
                        v.core_hi().to_bits(),
                        v.spread_left().to_bits(),
                        v.spread_right().to_bits(),
                    ],
                    env.clone(),
                    degree.to_bits(),
                    *measured,
                )
            })
            .collect()
    }

    /// The 4-wide Linear apply emits exactly the rows of the scalar fold,
    /// in the same order: full 4-groups, 1–3-entry tails, prefix
    /// odometers of arity 2 and 3, the sourceless constant direction,
    /// both coefficient signs, both t-norms, and the 64-row `COMBO_CAP`
    /// cutting at a group boundary, inside a tail, and in the middle of
    /// a 4-group (6 × 11 entries stop at entry 9 of the last prefix).
    #[test]
    fn wide_linear_rows_match_the_scalar_fold() {
        let (nl, network) = divider(0.05);
        let prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        assert!(network.quantity_count() >= 3);
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let shapes: [&[usize]; 12] = [
            &[],
            &[1],
            &[2],
            &[3],
            &[4],
            &[11],
            &[3, 7],
            &[6, 11],
            &[5, 14],
            &[3, 3, 9],
            &[2, 4, 10],
            &[2, 3, 13],
        ];
        let mut rows_seen = 0;
        for lens in shapes {
            let mut state = prop.snapshot_state();
            let quantities: Vec<QuantityId> = (0..lens.len()).map(QuantityId::from_raw).collect();
            for (q, &len) in quantities.iter().zip(lens) {
                let cols = &mut state.entries[q.index()];
                cols.clear();
                for _ in 0..len {
                    let m1 = next() * 20.0 - 10.0;
                    cols.push(ValueEntry {
                        value: FuzzyInterval::new(m1, m1 + next() * 3.0, next(), next())
                            .expect("valid trapezoid"),
                        env: Env::from_ids((0..3).filter(|_| next() < 0.5).map(|k| k * 2)),
                        degree: 0.3 + 0.7 * next(),
                        measured: next() < 0.3,
                    });
                }
            }
            for tnorm in [TNorm::Min, TNorm::Product] {
                for sign in [1.0, -1.0] {
                    let others: Vec<(f64, QuantityId)> = quantities
                        .iter()
                        .enumerate()
                        .map(|(j, &q)| (if j % 2 == 0 { sign } else { -sign } * (0.5 + next()), q))
                        .collect();
                    let dir = flames_circuit::compile::LinearDirection {
                        target: QuantityId::from_raw(lens.len()),
                        neg_inv_coef: -1.0 / (sign * (0.25 + next())),
                        others,
                        quantities: quantities.clone(),
                    };
                    let bias = next() - 0.5;
                    let base_env = Env::from_ids([1, 5]);
                    let mut wide = Vec::new();
                    state.combos_wide_linear(bias, &dir, &base_env, tnorm, &mut wide);
                    let fold = linear_rows_by_fold(&state, bias, &dir, &base_env, tnorm);
                    assert_eq!(
                        wide.len(),
                        lens.iter().product::<usize>().min(64),
                        "{lens:?}: row count"
                    );
                    assert_eq!(row_bits(&wide), row_bits(&fold), "{lens:?}: rows diverge");
                    rows_seen += wide.len();
                }
            }
        }
        assert!(rows_seen > 1_000);
    }

    /// The scalar definition of one Product direction's rows: the
    /// vertex-method product or quotient of every [`each_combo`] pair,
    /// `Err` pairs emitting nothing — the reference
    /// [`PropState::combos_wide_product`] must reproduce bit for bit.
    fn product_rows_by_fold(
        state: &PropState,
        op: ProductOp,
        a: QuantityId,
        b: QuantityId,
        base_env: &Env,
        tnorm: TNorm,
    ) -> Vec<(FuzzyInterval, Env, f64, bool)> {
        let mut out = Vec::new();
        each_combo(state, &[a, b], |row| {
            let r = match op {
                ProductOp::Mul => row[0].value.mul(&row[1].value),
                ProductOp::Div => row[0].value.div(&row[1].value),
            };
            if let Ok(value) = r {
                let mut env = base_env.clone();
                env.union_with(row[0].env);
                env.union_with(row[1].env);
                let degree = tnorm.combine(row[0].degree, row[1].degree);
                out.push((value, env, degree, row[0].measured || row[1].measured));
            }
        });
        out
    }

    /// The 4-wide Product apply emits exactly the rows of the scalar
    /// fold, in the same order, for every pair of label lengths up to 8
    /// and up to 16: full 4-groups, 1–3-entry tails, empty labels, both
    /// operations, both t-norms, `Err` pairs (divisors spanning zero,
    /// overflowing magnitudes) inside full groups, and the 64-row
    /// `COMBO_CAP` cutting inside an `a` row, in a tail and where a
    /// full group would have started (16 × 11 stops at entry 9 of the
    /// sixth row).
    #[test]
    fn wide_product_rows_match_the_scalar_fold() {
        let (nl, network) = divider(0.05);
        let prop = Propagator::new(&nl, &network, PropagatorConfig::default());
        let mut seed = 0x9A1E_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let (qa, qb) = (QuantityId::from_raw(0), QuantityId::from_raw(1));
        let (mut rows_seen, mut errs_mid_group) = (0, 0);
        for max_entries in [8, 16] {
            for la in 0..=max_entries {
                for lb in 0..=max_entries {
                    let mut state = prop.snapshot_state();
                    for (q, len) in [(qa, la), (qb, lb)] {
                        let cols = &mut state.entries[q.index()];
                        cols.clear();
                        for _ in 0..len {
                            // Mixed signs, supports around zero, and one
                            // entry in eight at an overflowing magnitude.
                            let scale = if next() < 0.125 { 1e200 } else { 1.0 };
                            let m1 = (next() * 8.0 - 4.0) * scale;
                            let value = FuzzyInterval::new(
                                m1,
                                m1 + next() * 2.0 * scale,
                                next() * scale,
                                next() * scale,
                            )
                            .expect("valid trapezoid");
                            cols.push(ValueEntry {
                                value,
                                env: Env::from_ids((0..3).filter(|_| next() < 0.5).map(|k| k * 2)),
                                degree: 0.3 + 0.7 * next(),
                                measured: next() < 0.3,
                            });
                        }
                    }
                    for op in [ProductOp::Mul, ProductOp::Div] {
                        for tnorm in [TNorm::Min, TNorm::Product] {
                            let base_env = Env::from_ids([1, 5]);
                            let mut wide = Vec::new();
                            state.combos_wide_product(op, qa, qb, &base_env, tnorm, &mut wide);
                            let fold = product_rows_by_fold(&state, op, qa, qb, &base_env, tnorm);
                            assert_eq!(
                                row_bits(&wide),
                                row_bits(&fold),
                                "{op:?} {la} × {lb}: rows diverge"
                            );
                            rows_seen += wide.len();
                        }
                        let cols = &state.entries;
                        for i in 0..la {
                            for j in (0..lb).filter(|j| j % 4 == 1 && (j | 3) < lb) {
                                let (x, y) = (cols[0].value(i), cols[1].value(j));
                                let r = match op {
                                    ProductOp::Mul => x.mul(&y),
                                    ProductOp::Div => x.div(&y),
                                };
                                errs_mid_group += usize::from(r.is_err());
                            }
                        }
                    }
                }
            }
        }
        assert!(rows_seen > 10_000, "{rows_seen} rows");
        assert!(errs_mid_group > 100, "{errs_mid_group} Err lanes mid-group");
    }

    #[test]
    fn a_nan_width_entry_reaches_grade_specs_without_a_panic() {
        let (nl, mut network) = divider(0.05);
        let mid = nl.net_by_name("mid").unwrap();
        let vq = network.voltage_quantity(mid);
        let r2 = nl.component_by_name("R2").unwrap();
        network.add_spec(
            "mid below 4 V",
            vq,
            FuzzyInterval::crisp_interval(0.0, 4.0).unwrap(),
            vec![r2],
        );
        let config = PropagatorConfig::default();
        let mut prop = Propagator::new(&nl, &network, config);
        prop.observe(vq, FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        prop.run();
        let graded = |prop: &mut Propagator<'_>| {
            prop.state.coincidences.clear();
            prop.state
                .grade_specs(prop.schedule.get(), &network, config);
            prop.coincidences().to_vec()
        };
        let want = graded(&mut prop);
        assert_eq!(want.len(), 1, "5 V violates the 4 V spec");
        // Put a wider entry ahead of the measurement and poison its
        // right spread: its width is NaN, which `total_cmp` orders after
        // every number, so the tightest entry and the spec's grade stay
        // as they were.
        let cols = &mut prop.state.entries[vq.index()];
        let held = cols.to_entries();
        cols.clear();
        cols.push(ValueEntry {
            value: FuzzyInterval::crisp(5.0).widened(1.0).unwrap(),
            env: Env::from_ids([0]),
            degree: 1.0,
            measured: false,
        });
        for e in held {
            cols.push(e);
        }
        let tightest = cols.tightest().unwrap();
        assert_ne!(tightest, 0);
        cols.beta[0] = f64::NAN;
        cols.widest = cols.scan_widest();
        assert!(cols.width(0).is_nan());
        assert_eq!(cols.tightest(), Some(tightest));
        assert_eq!(graded(&mut prop), want);
    }

    /// The two-pass insert this module shipped before the keep mask was
    /// fused into the classification pass: classify and test dominance,
    /// report conflicts, then walk the label columns a second time for
    /// the keep mask and compact unconditionally. The differential below
    /// pins [`PropState::insert`] to it.
    #[allow(clippy::too_many_lines)]
    fn reference_insert(
        state: &mut PropState,
        config: PropagatorConfig,
        q: QuantityId,
        value: FuzzyInterval,
        env: Env,
        degree: f64,
        measured: bool,
    ) -> bool {
        // Environments already erased by a killing nogood derive nothing.
        if state.atms.plausibility(&env) <= 0.0 {
            return false;
        }
        let incoming = ValueEntry {
            value,
            env,
            degree,
            measured,
        };
        let inc_sig = incoming.env.word_signature();
        let inc_width = incoming.value.support_width();
        let list = &state.entries[q.index()];

        // Coincidence resolution against existing entries (Fig. 4):
        // inclusion is a split (refinement), overlapping cores a
        // corroboration, and anything else a conflict graded by the
        // *possibility of agreement* `π = sup min(μ₁, μ₂)` — the
        // possibilistic-ATMS reading of the paper's partial conflicts.
        // (The asymmetric area-based Dc is reserved for the
        // measured-vs-nominal test-point comparison in the engine.)
        let mut dominated = false;
        let mut conflicts: Vec<(CoincidenceRecord, f64)> = Vec::new();
        // Coincidence tallies [corroborations, splits, partial, total]:
        // accumulated locally, flushed as one atomic add per kind.
        let mut tally = [0u64; 4];
        // Grades the (rare) conflicting coincidence for entry `i`, with
        // the degree-of-overlap `pi` and `conflict = 1 − pi` already in
        // hand — `pi` comes out bit-identical whether the entry was
        // classified in a 4-wide group or in the scalar tail, so both
        // routes share this body.
        let push_conflict =
            |i: usize,
             kind: CoincidenceKind,
             pi: f64,
             conflict: f64,
             conflicts: &mut Vec<(CoincidenceRecord, f64)>| {
                let evalue = list.value(i);
                // Orient the record: the measurement side plays Vm.
                let (vm, vn) = if list.measured(i) && !incoming.measured {
                    (&evalue, &incoming.value)
                } else {
                    (&incoming.value, &evalue)
                };
                let direction = if vm.centroid() < vn.centroid() {
                    flames_fuzzy::Direction::Low
                } else {
                    flames_fuzzy::Direction::High
                };
                let nogood_degree = config.tnorm.combine(
                    conflict,
                    config.tnorm.combine(incoming.degree, list.degree(i)),
                );
                let union_env = incoming.env.union(list.env(i));
                conflicts.push((
                    CoincidenceRecord {
                        quantity: q,
                        kind,
                        consistency: Consistency::from_parts(pi, direction),
                        env: union_env,
                    },
                    nogood_degree,
                ));
            };
        let mut i0 = 0usize;
        // 4-wide classification straight off the label columns. All
        // lane arithmetic mirrors the scalar expressions bit for bit
        // (see `flames_fuzzy::simd` and its differential suite), so
        // records, tallies and the dominance verdict match what the
        // scalar tail computes for the last 1–3 entries.
        let inc4 = Traps4::splat(&incoming.value);
        let zero = W4::splat(0.0);
        let one = W4::splat(1.0);
        let thr = W4::splat(config.conflict_threshold);
        let om = W4::splat(1.0 - config.min_tightening);
        let inc_w4 = W4::splat(inc_width);
        let inc_deg = W4::splat(incoming.degree - 1e-12);
        let mut sig_groups = 0u64;
        while i0 + 4 <= list.len() {
            let ev = Traps4::load(&list.m1, &list.m2, &list.alpha, &list.beta, i0);
            let inc_in_ev = included4(&inc4, &ev);
            let ev_in_inc = included4(&ev, &inc4);
            let nested = inc_in_ev.or(ev_in_inc);
            let pi = possibility4(&inc4, &ev);
            let conflict = W4::select(nested, zero, one.sub(pi));
            let noise = conflict.le(thr);
            let split = noise.and(nested).and(ne4(&inc4, &ev));
            let total = noise.not().and(pi.le(zero));
            for l in 0..4 {
                let kind_slot = if noise.lane(l) {
                    usize::from(split.lane(l))
                } else {
                    3 - usize::from(!total.lane(l))
                };
                tally[kind_slot] += 1;
            }
            if !noise.all() {
                for l in 0..4 {
                    if noise.lane(l) {
                        continue;
                    }
                    let kind = if total.lane(l) {
                        CoincidenceKind::TotalConflict
                    } else {
                        CoincidenceKind::PartialConflict
                    };
                    push_conflict(i0 + l, kind, pi.lane(l), conflict.lane(l), &mut conflicts);
                }
            }
            // Dominance prefilter, 4 signatures per step: candidate
            // lanes must pass the word test, the degree bound and
            // the width/inclusion geometry before the (expensive)
            // bitset subset walk runs scalar.
            sig_groups += 1;
            let sig: &[u64; 4] = list.sig[i0..i0 + 4].try_into().expect("4-lane window");
            let deg_ok = W4::load(&list.degree, i0).ge(inc_deg);
            let meaningful = inc_w4.le(width4(&ev).mul(om));
            let geom = ev_in_inc.or(meaningful.not().and(inc_in_ev));
            let cand = deg_ok.and(geom);
            for (l, &s) in sig.iter().enumerate() {
                if s & !inc_sig == 0 && cand.lane(l) && list.env(i0 + l).is_subset_of(&incoming.env)
                {
                    dominated = true;
                }
            }
            i0 += 4;
        }
        flames_obs::metrics().sig_prefilter_vec.add(sig_groups);
        for i in i0..list.len() {
            let evalue = list.value(i);
            let nested =
                incoming.value.is_included_in(&evalue) || evalue.is_included_in(&incoming.value);
            // `possibility_of` is bitwise symmetric, so the record's
            // Vm/Vn orientation (applied in `push_conflict`) does not
            // change the degree.
            let pi = incoming.value.possibility_of(&evalue);
            let conflict = if nested { 0.0 } else { 1.0 - pi };
            let kind = if conflict <= config.conflict_threshold {
                if nested && incoming.value != evalue {
                    CoincidenceKind::Split
                } else {
                    CoincidenceKind::Corroboration
                }
            } else if pi <= 0.0 {
                CoincidenceKind::TotalConflict
            } else {
                CoincidenceKind::PartialConflict
            };
            tally[match kind {
                CoincidenceKind::Corroboration => 0,
                CoincidenceKind::Split => 1,
                CoincidenceKind::PartialConflict => 2,
                CoincidenceKind::TotalConflict => 3,
            }] += 1;
            if matches!(
                kind,
                CoincidenceKind::PartialConflict | CoincidenceKind::TotalConflict
            ) {
                push_conflict(i, kind, pi, conflict, &mut conflicts);
            }
            // Dominance: an existing entry that is at least as general
            // (subset environment), at least as certain, and at least as
            // tight — or within the tightening threshold — makes the
            // incoming value redundant. The threshold is what keeps
            // fixpoint iteration from churning on infinitesimal
            // refinements. The word-signature test is a cheap necessary
            // condition for `existing ⊆ incoming` that skips the bitset
            // walk for most non-subset pairs.
            if list.sig(i) & !inc_sig == 0
                && list.env(i).is_subset_of(&incoming.env)
                && list.degree(i) >= incoming.degree - 1e-12
            {
                let meaningful = inc_width <= list.width(i) * (1.0 - config.min_tightening);
                if evalue.is_included_in(&incoming.value)
                    || (!meaningful && incoming.value.is_included_in(&evalue))
                {
                    dominated = true;
                }
            }
        }
        flush_tally(tally);
        for (record, nogood_degree) in conflicts {
            let env = record.env.clone();
            state.coincidences.push(record);
            state.atms.add_nogood(&env, nogood_degree);
        }
        if dominated {
            return false;
        }
        // Drop entries the incoming one meaningfully improves on. The
        // keep mask is computed against the immutable columns first, then
        // applied as one compaction pass.
        let min_tightening = config.min_tightening;
        let mut keep: Vec<bool> = Vec::new();
        {
            let list = &state.entries[q.index()];
            let mut k0 = 0usize;
            // Reversed-direction prefilter (incoming ⊆ existing needs
            // `inc_sig & !sig == 0`): degree, inclusion and width run
            // 4-wide; only lanes passing everything cheap pay the
            // scalar bitset subset walk.
            let inc4 = Traps4::splat(&incoming.value);
            let om = W4::splat(1.0 - min_tightening);
            let inc_w4 = W4::splat(inc_width);
            let inc_deg = W4::splat(incoming.degree);
            let eps = W4::splat(1e-12);
            let mut sig_groups = 0u64;
            while k0 + 4 <= list.len() {
                let ev = Traps4::load(&list.m1, &list.m2, &list.alpha, &list.beta, k0);
                let deg_ok = inc_deg.ge(W4::load(&list.degree, k0).sub(eps));
                let tighter = inc_w4.le(width4(&ev).mul(om));
                let cand = deg_ok.and(included4(&inc4, &ev)).and(tighter);
                sig_groups += 1;
                let sig: &[u64; 4] = list.sig[k0..k0 + 4].try_into().expect("4-lane window");
                for (l, &s) in sig.iter().enumerate() {
                    keep.push(
                        !(inc_sig & !s == 0
                            && cand.lane(l)
                            && incoming.env.is_subset_of(list.env(k0 + l))),
                    );
                }
                k0 += 4;
            }
            flames_obs::metrics().sig_prefilter_vec.add(sig_groups);
            for i in k0..list.len() {
                keep.push(
                    !(inc_sig & !list.sig(i) == 0
                        && incoming.env.is_subset_of(list.env(i))
                        && incoming.degree >= list.degree(i) - 1e-12
                        && incoming.value.is_included_in(&list.value(i))
                        && inc_width <= list.width(i) * (1.0 - min_tightening)),
                );
            }
        }
        let list = &mut state.entries[q.index()];
        let dropped = keep.iter().filter(|&&k| !k).count();
        list.retain_kept(&keep);
        if list.len() >= config.max_entries {
            // The label is full: the incoming value may still replace the
            // widest held entry if it is strictly tighter. (The raw
            // measurement is always the narrowest entry, so it can never
            // be evicted by derived values.) This keeps the cap from
            // making results order-dependent — a late probe or a tight
            // conditional derivation must never bounce off stale wide
            // values.
            let widest = (0..list.len())
                .max_by(|&a, &b| {
                    list.width(a)
                        .partial_cmp(&list.width(b))
                        .expect("finite widths")
                })
                .map(|i| (i, list.width(i)));
            match widest {
                Some((i, width)) if inc_width < width => {
                    list.set(i, incoming);
                    return true;
                }
                _ => return dropped > 0,
            }
        }
        list.push(incoming);
        true
    }

    /// SplitMix64, inlined so the insert streams need no dependency.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next_u64() % xs.len() as u64) as usize]
        }
    }

    /// A label store over `quantities` empty quantities and a
    /// five-assumption vocabulary, with a degree-1 nogood on {2, 3, 4} so
    /// some incoming environments arrive already killed.
    fn blank_state(quantities: usize) -> PropState {
        let mut atms = FuzzyAtms::new();
        for _ in 0..5 {
            atms.add_assumption();
        }
        atms.add_nogood(&Env::from_ids([2, 3, 4]), 1.0);
        PropState {
            entries: vec![EntryColumns::default(); quantities],
            atms,
            coincidences: Vec::new(),
            disabled_constraints: Vec::new(),
            ran: false,
            dirty: Vec::new(),
            scratch_derived: Vec::new(),
            scratch_keep: Vec::new(),
            scratch_conflicts: Vec::new(),
        }
    }

    /// One random insert: few centres and spreads (so inclusions, equal
    /// widths and crisp points recur), environments over five
    /// assumptions, and degrees that sit 5e-13 apart to straddle both
    /// dominance rules' `1e-12` slack.
    fn random_insert(rng: &mut Rng) -> (usize, FuzzyInterval, Env, f64, bool) {
        let q = usize::from(rng.next_u64().is_multiple_of(4));
        let c = rng.pick(&[0.0, 1.0, 1.5, 3.0, 10.0]);
        let core = rng.pick(&[0.0, 0.0, 0.5]);
        let spread = rng.pick(&[0.0, 0.25, 0.5, 1.0, 2.0]);
        let skew = rng.pick(&[0.0, 0.0, 0.25]);
        let value = FuzzyInterval::new(c, c + core, spread, spread + skew).expect("valid");
        let env = Env::from_ids((0..5).filter(|_| rng.next_u64().is_multiple_of(2)));
        let degree = rng.pick(&[1.0, 1.0, 0.8, 0.8 - 5e-13, 0.8 + 5e-13, 0.5]);
        let measured = rng.next_u64().is_multiple_of(10);
        (q, value, env, degree, measured)
    }

    /// Everything an insert can change, in exact (`{:?}`) form.
    fn store_bits(state: &PropState) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}",
            state.entries,
            state.coincidences,
            state.atms.nogoods(),
            state.atms.nogood_epoch()
        )
    }

    /// Asserts that two stores carry the same coincidence records, field
    /// by field and bit for bit in the consistency degree.
    fn assert_same_coincidences(got: &PropState, want: &PropState, at: &str) {
        assert_eq!(got.coincidences.len(), want.coincidences.len(), "{at}");
        for (g, w) in got.coincidences.iter().zip(&want.coincidences) {
            assert_eq!(g.quantity, w.quantity, "{at}");
            assert_eq!(g.kind, w.kind, "{at}");
            assert_eq!(
                g.consistency.degree().to_bits(),
                w.consistency.degree().to_bits(),
                "{at}"
            );
            assert_eq!(g.consistency.direction(), w.consistency.direction(), "{at}");
            assert_eq!(g.env, w.env, "{at}");
        }
    }

    /// Inserts into both stores, checks the route [`PropState::insert`]
    /// takes against its specification (full label, widest width
    /// `w > 0`, `inc_width ≥ w`, `inc_width > w·(1 − min_tightening)`,
    /// with `w` the last `total_cmp` maximum of the held widths), and
    /// that result and store match the reference. Returns whether the
    /// conflict-only route was taken and whether the label changed.
    fn insert_both(
        fused: &mut PropState,
        reference: &mut PropState,
        config: PropagatorConfig,
        (qi, value, env, degree, measured): (usize, FuzzyInterval, Env, f64, bool),
        at: &str,
    ) -> (bool, bool) {
        let q = QuantityId::from_raw(qi);
        let inc_width = value.support_width();
        let held = reference.entries[qi].to_entries();
        let widest = held
            .iter()
            .map(|h| h.value.support_width())
            .max_by(f64::total_cmp);
        let spec = held.len() >= config.max_entries
            && widest.is_some_and(|w| {
                w > 0.0 && inc_width >= w && inc_width > w * (1.0 - config.min_tightening)
            });
        let route = fused.atms.plausibility(&env) > 0.0
            && fused.entries[qi].admits_only_conflicts(inc_width, config);
        assert_eq!(
            route,
            spec && reference.atms.plausibility(&env) > 0.0,
            "{at}: route"
        );
        let want = reference_insert(reference, config, q, value, env.clone(), degree, measured);
        let got = fused.insert(config, q, value, env, degree, measured);
        assert_eq!(got, want, "{at}");
        assert_same_coincidences(fused, reference, at);
        assert_eq!(store_bits(fused), store_bits(reference), "{at}");
        (route, got)
    }

    #[test]
    fn insert_matches_the_two_pass_reference() {
        // Cases the streams must reach, counted against the reference's
        // inputs: [dominated, drop below cap, drop at cap, crisp, equal
        // width at cap, killed, conflict-only at equal width].
        let mut seen = [0usize; 7];
        for (max_entries, min_tightening) in [(2, 0.01), (3, 0.01), (8, 0.01), (3, 0.0)] {
            let config = PropagatorConfig {
                max_entries,
                min_tightening,
                ..PropagatorConfig::default()
            };
            let mut routed = 0usize;
            for seed in 0..100u64 {
                let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ max_entries as u64);
                let mut fused = blank_state(2);
                let mut reference = blank_state(2);
                for step in 0..80 {
                    let (qi, value, env, degree, measured) = random_insert(&mut rng);
                    let list = &reference.entries[qi];
                    let inc_width = value.support_width();
                    let held: Vec<ValueEntry> = list.to_entries();
                    let full = held.len() >= max_entries;
                    let widest = held
                        .iter()
                        .map(|h| h.value.support_width())
                        .fold(f64::NEG_INFINITY, f64::max);
                    if reference.atms.plausibility(&env) <= 0.0 {
                        seen[5] += 1;
                    } else {
                        let dominated = held.iter().any(|h| {
                            h.env.is_subset_of(&env)
                                && h.degree >= degree - 1e-12
                                && (h.value.is_included_in(&value)
                                    || (inc_width
                                        > h.value.support_width() * (1.0 - config.min_tightening)
                                        && value.is_included_in(&h.value)))
                        });
                        let drops = held.iter().any(|h| {
                            env.is_subset_of(&h.env)
                                && degree >= h.degree - 1e-12
                                && value.is_included_in(&h.value)
                                && inc_width
                                    <= h.value.support_width() * (1.0 - config.min_tightening)
                        });
                        seen[0] += usize::from(dominated);
                        if drops && !dominated {
                            seen[if full { 2 } else { 1 }] += 1;
                        }
                        seen[3] += usize::from(inc_width == 0.0);
                        seen[4] += usize::from(full && !dominated && !drops && widest == inc_width);
                    }
                    let at = format!("max {max_entries}/{min_tightening} seed {seed} step {step}");
                    let row = (qi, value, env, degree, measured);
                    if insert_both(&mut fused, &mut reference, config, row, &at).0 {
                        routed += 1;
                        seen[6] += usize::from(widest == inc_width);
                    }
                }
            }
            assert!(
                routed >= 20,
                "max {max_entries}/{min_tightening}: conflict-only route taken {routed} times"
            );
        }
        for (case, &n) in seen.iter().enumerate() {
            assert!(n >= 20, "case {case} reached only {n} times: {seen:?}");
        }
    }

    /// A fused store and a reference store whose quantity 0 holds
    /// `max_entries` copies of `value` under pairwise-incomparable
    /// two-assumption environments, so no held entry dominates or drops
    /// another.
    fn full_label(config: PropagatorConfig, value: FuzzyInterval) -> (PropState, PropState) {
        let mut fused = blank_state(1);
        let mut reference = blank_state(1);
        let pairs = (0..5u32).flat_map(|a| (a + 1..5).map(move |b| [a, b]));
        for (k, pair) in pairs.take(config.max_entries).enumerate() {
            let at = format!("max {} fill {k}", config.max_entries);
            let row = (0, value, Env::from_ids(pair), 1.0, false);
            insert_both(&mut fused, &mut reference, config, row, &at);
        }
        assert_eq!(fused.entries[0].len(), config.max_entries);
        (fused, reference)
    }

    #[test]
    fn full_labels_route_by_the_width_bounds() {
        let trap = |s: f64| FuzzyInterval::new(0.0, 0.0, s, s).expect("valid");
        for max_entries in [2, 3, 8] {
            let config = PropagatorConfig {
                max_entries,
                ..PropagatorConfig::default()
            };
            // A label of crisp points (widest width 0) keeps every
            // incoming value, wide or crisp, on the full route.
            for (k, value) in [trap(0.5), trap(0.0), FuzzyInterval::crisp(5.0)]
                .into_iter()
                .enumerate()
            {
                let (mut fused, mut reference) = full_label(config, FuzzyInterval::crisp(0.0));
                let at = format!("max {max_entries} crisp probe {k}");
                let row = (0, value, Env::from_ids([4]), 0.9, false);
                let (route, _) = insert_both(&mut fused, &mut reference, config, row, &at);
                assert!(!route, "{at}");
            }
            // A label of width-2 values, min_tightening 0.01: widths in
            // (1.98, 2) still replace the widest entry, 2 and above only
            // add coincidences, and 1.98 itself drops every held entry
            // whose environment contains the incoming one.
            for (spread, env, want_route, want_changed) in [
                (0.9995, [4].as_slice(), false, true),
                (1.0, &[4], true, false),
                (1.25, &[4], true, false),
                (3.0, &[0], true, false),
                (0.99, &[0], false, true),
            ] {
                let (mut fused, mut reference) = full_label(config, trap(1.0));
                let at = format!("max {max_entries} spread {spread}");
                let row = (
                    0,
                    trap(spread),
                    Env::from_ids(env.iter().copied()),
                    1.0,
                    false,
                );
                let (route, changed) = insert_both(&mut fused, &mut reference, config, row, &at);
                assert_eq!((route, changed), (want_route, want_changed), "{at}");
            }
        }
    }

    /// One [`EntryColumns::classify`] call on its own: the verdict, the
    /// tallies, the conflicts and the keep flags.
    type Classified = (
        bool,
        usize,
        [u64; 4],
        Vec<(CoincidenceRecord, f64)>,
        Vec<bool>,
    );

    fn classified<const DOMINANCE: bool>(
        cols: &EntryColumns,
        incoming: &ValueEntry,
        config: PropagatorConfig,
    ) -> Classified {
        let (mut conflicts, mut keep) = (Vec::new(), Vec::new());
        let (dominated, drops, tally) = cols.classify::<DOMINANCE>(
            QuantityId::from_raw(0),
            incoming,
            incoming.value.support_width(),
            config,
            &mut conflicts,
            &mut keep,
        );
        (dominated, drops, tally, conflicts, keep)
    }

    /// The 4-wide group loop of [`EntryColumns::classify`] against its
    /// scalar tail: a label of 4–13 entries must give the tallies, the
    /// conflicts (in order), the dominance verdict, the drop count and
    /// the keep flags of classifying each entry as a 1-entry label, which
    /// only the scalar tail sees — with and without the dominance pass.
    #[test]
    fn grouped_classification_matches_the_scalar_tail() {
        let config = PropagatorConfig::default();
        let mut tallies = [0u64; 4];
        let (mut dominated_seen, mut drops_seen) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = Rng(seed ^ 0xC1A5_51F1);
            let mut entry = || {
                let (_, value, env, degree, measured) = random_insert(&mut rng);
                ValueEntry {
                    value,
                    env,
                    degree,
                    measured,
                }
            };
            let incoming = entry();
            let mut label = EntryColumns::default();
            let mut singles = Vec::new();
            for _ in 0..4 + seed % 10 {
                let e = entry();
                let mut single = EntryColumns::default();
                single.push(e.clone());
                singles.push(single);
                label.push(e);
            }
            let fold = |parts: Vec<Classified>| {
                parts.into_iter().fold(
                    (false, 0, [0u64; 4], Vec::new(), Vec::new()),
                    |mut acc, (dominated, drops, tally, conflicts, keep)| {
                        acc.0 |= dominated;
                        acc.1 += drops;
                        for (a, t) in acc.2.iter_mut().zip(tally) {
                            *a += t;
                        }
                        acc.3.extend(conflicts);
                        acc.4.extend(keep);
                        acc
                    },
                )
            };
            let grouped = classified::<true>(&label, &incoming, config);
            let tail = fold(
                singles
                    .iter()
                    .map(|c| classified::<true>(c, &incoming, config))
                    .collect(),
            );
            assert_eq!(format!("{grouped:?}"), format!("{tail:?}"), "seed {seed}");
            dominated_seen += usize::from(tail.0);
            drops_seen += usize::from(tail.1 > 0);
            let grouped = classified::<false>(&label, &incoming, config);
            let tail = fold(
                singles
                    .iter()
                    .map(|c| classified::<false>(c, &incoming, config))
                    .collect(),
            );
            assert_eq!(format!("{grouped:?}"), format!("{tail:?}"), "seed {seed}");
            for (t, g) in tallies.iter_mut().zip(grouped.2) {
                *t += g;
            }
        }
        assert!(tallies.iter().all(|&t| t >= 50), "{tallies:?}");
        assert!(
            dominated_seen >= 20 && drops_seen >= 20,
            "{dominated_seen} dominated, {drops_seen} with drops"
        );
    }
}
