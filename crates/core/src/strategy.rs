//! Best-test strategies (§8 of the paper).
//!
//! "We want FLAMES to be able to recommend at any point the next best
//! test to make, from a set of predefined available tests." The fuzzy
//! strategy scores each unprobed test point by the **expected fuzzy
//! entropy** of the component-faultiness estimations after the
//! measurement, moving away from "the probabilistic approach with its
//! heavy calculus and hard assumptions"; that probabilistic (GDE-style)
//! approach is kept as a baseline, alongside a naive fixed-order probing.
//!
//! # Planning fast path
//!
//! Scoring a probe evaluates the posterior entropy of every component
//! estimation under each hypothetical outcome — `O(points × components)`
//! trapezoid-entropy evaluations per [`recommend`] call, repeated on
//! every iteration of [`probe_until_isolated`]. Three layers keep that
//! affordable while staying byte-identical to the direct computation:
//!
//! * per-component entropy *terms* are memoized in an [`EntropyMemo`]
//!   keyed on the exact bit pattern of the estimation, so each distinct
//!   posterior is evaluated once per planning run instead of once per
//!   point — and, via [`probe_until_isolated_with`], once per *run*
//!   rather than once per iteration;
//! * candidate queries go through the session's nogood-epoch-tagged
//!   cache ([`Session::candidates`]), so the hitting-set work is not
//!   redone between propagation waves;
//! * point evaluations are data-parallel: [`recommend_with`] fans the
//!   unprobed points out over scoped threads in contiguous chunks and
//!   merges by index, so the ranking is byte-identical for every thread
//!   count.
//!
//! The pre-optimization path is retained verbatim as
//! [`recommend_oracle`] / [`probe_until_isolated_oracle`] — the
//! differential suites and the `exp_strategy` benchmark gate assert the
//! fast path reproduces it bit for bit.

use crate::engine::{fan_out, Diagnoser, Session};
use flames_atms::Assumption;
use flames_fuzzy::entropy::{expected_entropy, fuzzy_entropy, shannon_entropy, EntropyMemo};
use flames_fuzzy::FuzzyInterval;
use std::fmt;

/// Which selection policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Fuzzy-entropy-guided (the paper's §8 proposal).
    FuzzyEntropy,
    /// GDE-style probabilistic expected Shannon entropy (the baseline the
    /// paper moves away from).
    Probabilistic,
    /// Probe test points in declaration order (naive baseline).
    FixedOrder,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::FuzzyEntropy => write!(f, "fuzzy-entropy"),
            Policy::Probabilistic => write!(f, "probabilistic"),
            Policy::FixedOrder => write!(f, "fixed-order"),
        }
    }
}

/// How many candidates the planner asks the ATMS for.
///
/// One named budget shared by every strategy-layer candidate query —
/// scoring ([`Policy::Probabilistic`]), the isolation test, and the
/// final [`ProbeRun`] report — so the fast and oracle paths compare the
/// same slice of the hitting-set antichain. (Historically the scorer
/// used `(2, 64)` while the probe loop used `(2, 16)`; the union is the
/// generous one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateBudget {
    /// Largest candidate (multi-fault) size considered.
    pub max_size: usize,
    /// Most candidates retained after ranking.
    pub max_count: usize,
}

/// The planner's single candidate budget: double faults, top 64.
pub const CANDIDATE_BUDGET: CandidateBudget = CandidateBudget {
    max_size: 2,
    max_count: 64,
};

/// A scored recommendation for one unprobed test point.
#[derive(Debug, Clone, PartialEq)]
pub struct TestChoice {
    /// Index of the test point in the diagnoser's declaration order.
    pub point: usize,
    /// The point's name.
    pub name: String,
    /// Expected post-measurement entropy (fuzzy for the fuzzy policy, a
    /// crisp number wrapped as a point for the baselines).
    pub expected_entropy: FuzzyInterval,
    /// Final score: defuzzified expected entropy + `λ · cost`
    /// (lower is better).
    pub score: f64,
    /// The probing cost of the point.
    pub cost: f64,
}

/// Posterior estimation of a support-cone component when the probe comes
/// back consistent: (close to) correct.
fn posterior_consistent() -> FuzzyInterval {
    FuzzyInterval::new(0.0, 0.05, 0.0, 0.05).expect("static")
}

/// Posterior estimation of a support-cone component when the probe
/// deviates: at least as suspect as before, and clearly suspect.
fn posterior_deviating(prior: &FuzzyInterval) -> FuzzyInterval {
    let suspect = FuzzyInterval::new(0.6, 0.8, 0.1, 0.1).expect("static");
    prior.max_ext(&suspect)
}

/// Everything one hypothetical-point evaluation needs, detached from the
/// session so the evaluations can run on worker threads.
struct PointCtx {
    point: usize,
    name: String,
    cost: f64,
    /// Per-component membership in the point's support cone, netlist
    /// order ([`Policy::FuzzyEntropy`]).
    in_support: Vec<bool>,
    /// The support cone's component assumptions
    /// ([`Policy::Probabilistic`]).
    support_assumptions: Vec<Assumption>,
    support_len: usize,
}

/// Memoized per-component entropy terms shared by every point evaluation
/// of one [`recommend_with_memo`] call. `None` marks an estimation whose
/// entropy errored; folding collapses to a crisp 0 then, exactly as the
/// direct `fuzzy_entropy(..).unwrap_or_else(..)` did.
struct FuzzyCtx {
    term_cons: Option<FuzzyInterval>,
    terms_base: Vec<Option<FuzzyInterval>>,
    terms_dev: Vec<Option<FuzzyInterval>>,
    centroids: Vec<f64>,
    total_mass: f64,
}

/// Candidate split inputs for the probabilistic baseline, hoisted out of
/// the per-point loop (the epoch-tagged session cache makes the repeated
/// query cheap; hoisting makes it free).
struct ProbCtx {
    /// `(env, degree)` of each candidate under [`CANDIDATE_BUDGET`].
    candidates: Vec<(flames_atms::Env, f64)>,
}

/// Sums precomputed entropy terms in component order — the same fold
/// `fuzzy_entropy` performs, so the result is bit-identical to the
/// unmemoized computation.
fn fold_terms<'a>(terms: impl Iterator<Item = &'a Option<FuzzyInterval>>) -> FuzzyInterval {
    let mut acc = FuzzyInterval::crisp(0.0);
    for term in terms {
        match term {
            Some(h) => acc = acc + *h,
            None => return FuzzyInterval::crisp(0.0),
        }
    }
    acc
}

/// Scores one unprobed point from precomputed context. Pure: safe to run
/// on any worker thread, identical output regardless of placement.
fn eval_point(
    policy: Policy,
    pt: &PointCtx,
    fuzzy: Option<&FuzzyCtx>,
    prob: Option<&ProbCtx>,
    lambda_cost: f64,
) -> TestChoice {
    flames_obs::metrics().probe_evals.incr();
    let (expected, info_score) = match policy {
        Policy::FuzzyEntropy => {
            let ctx = fuzzy.expect("fuzzy context prepared");
            // Outcome "consistent": the cone is exonerated.
            let ent_cons = fold_terms(ctx.terms_base.iter().enumerate().map(|(k, base)| {
                if pt.in_support[k] {
                    &ctx.term_cons
                } else {
                    base
                }
            }));
            // Outcome "deviates": the cone is implicated.
            let ent_dev = fold_terms(ctx.terms_base.iter().enumerate().map(|(k, base)| {
                if pt.in_support[k] {
                    &ctx.terms_dev[k]
                } else {
                    base
                }
            }));
            // Outcome possibilities: the share of the current suspicion
            // mass sitting inside the point's cone — a mid-cone probe
            // splits the mass and gets informative weights on both
            // outcomes.
            let cone_mass: f64 = ctx
                .centroids
                .iter()
                .enumerate()
                .filter(|(k, _)| pt.in_support[*k])
                .map(|(_, c)| *c)
                .sum();
            let w_dev = if ctx.total_mass > 0.0 {
                (cone_mass / ctx.total_mass).clamp(0.05, 0.95)
            } else {
                0.5
            };
            let expected = expected_entropy(&[(1.0 - w_dev, ent_cons), (w_dev, ent_dev)]);
            let score = expected.centroid();
            (expected, score)
        }
        Policy::Probabilistic => {
            // GDE-style: candidates predict the probe outcome by whether
            // they intersect the point's support cone; the expected
            // Shannon entropy of the split scores the test.
            let ctx = prob.expect("probabilistic context prepared");
            if ctx.candidates.is_empty() {
                // Fall back to cone-size heuristic: larger cones first.
                let h = 1.0 / (pt.support_len.max(1) as f64);
                (FuzzyInterval::crisp(h), h)
            } else {
                let (mut hit, mut miss): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
                for (env, degree) in &ctx.candidates {
                    let predicts_deviation =
                        pt.support_assumptions.iter().any(|a| env.contains(*a));
                    if predicts_deviation {
                        hit.push(degree.max(1e-3));
                    } else {
                        miss.push(degree.max(1e-3));
                    }
                }
                let w_hit: f64 = hit.iter().sum();
                let w_miss: f64 = miss.iter().sum();
                let total = (w_hit + w_miss).max(1e-12);
                let h = (w_hit / total) * shannon_entropy(&hit)
                    + (w_miss / total) * shannon_entropy(&miss);
                (FuzzyInterval::crisp(h), h)
            }
        }
        Policy::FixedOrder => {
            let h = pt.point as f64;
            (FuzzyInterval::crisp(h), h)
        }
    };
    TestChoice {
        point: pt.point,
        name: pt.name.clone(),
        expected_entropy: expected,
        score: info_score + lambda_cost * pt.cost,
        cost: pt.cost,
    }
}

/// Ranks the unprobed test points of a session under the given policy;
/// the best choice (lowest score) comes first. `lambda_cost` trades
/// information against probing cost (the paper's "expected total cost").
///
/// Returns an empty list when every point has been probed.
#[must_use]
pub fn recommend(session: &Session<'_>, policy: Policy, lambda_cost: f64) -> Vec<TestChoice> {
    recommend_with(session, policy, lambda_cost, 1)
}

/// [`recommend`] with the hypothetical-outcome evaluations fanned out
/// over `threads` scoped worker threads. Contiguous chunks written back
/// by index make the merge deterministic: the ranking is byte-identical
/// for every thread count (the serving suite asserts 1/2/4/8 agree).
#[must_use]
pub fn recommend_with(
    session: &Session<'_>,
    policy: Policy,
    lambda_cost: f64,
    threads: usize,
) -> Vec<TestChoice> {
    let mut memo = EntropyMemo::new();
    recommend_with_memo(session, policy, lambda_cost, threads, &mut memo)
}

/// [`recommend_with`] reusing a caller-held [`EntropyMemo`], so a probe
/// loop pays for each distinct posterior entropy once per *run* instead
/// of once per iteration. The memo is keyed on exact bit patterns, so
/// reuse cannot change any score.
#[must_use]
pub fn recommend_with_memo(
    session: &Session<'_>,
    policy: Policy,
    lambda_cost: f64,
    threads: usize,
    memo: &mut EntropyMemo,
) -> Vec<TestChoice> {
    let probed = session.probed();
    let diagnoser = session.diagnoser();
    let netlist = diagnoser.netlist();
    let schedule = session.propagator().schedule();

    // Detach everything a point evaluation needs from the session.
    let points: Vec<PointCtx> = diagnoser
        .test_points()
        .iter()
        .enumerate()
        .filter(|(idx, _)| !probed[*idx])
        .map(|(idx, tp)| PointCtx {
            point: idx,
            name: tp.name.clone(),
            cost: tp.cost,
            in_support: match policy {
                Policy::FuzzyEntropy => netlist
                    .components()
                    .map(|(id, _)| tp.support.contains(&id))
                    .collect(),
                _ => Vec::new(),
            },
            support_assumptions: match policy {
                Policy::Probabilistic => tp
                    .support
                    .iter()
                    .map(|c| schedule.component_assumption(c.index()))
                    .collect(),
                _ => Vec::new(),
            },
            support_len: tp.support.len(),
        })
        .collect();
    if points.is_empty() {
        return Vec::new();
    }

    let fuzzy = match policy {
        Policy::FuzzyEntropy => {
            let estimations = session.estimations();
            let term_cons = memo.point_entropy(&posterior_consistent());
            let terms_base: Vec<_> = estimations
                .iter()
                .map(|(_, e)| memo.point_entropy(e))
                .collect();
            let terms_dev: Vec<_> = estimations
                .iter()
                .map(|(_, e)| memo.point_entropy(&posterior_deviating(e)))
                .collect();
            let centroids: Vec<f64> = estimations.iter().map(|(_, e)| e.centroid()).collect();
            let total_mass: f64 = centroids.iter().sum();
            Some(FuzzyCtx {
                term_cons,
                terms_base,
                terms_dev,
                centroids,
                total_mass,
            })
        }
        _ => None,
    };
    let prob = match policy {
        Policy::Probabilistic => Some(ProbCtx {
            candidates: session
                .candidates(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count)
                .into_iter()
                .map(|c| (c.env, c.degree))
                .collect(),
        }),
        _ => None,
    };

    let threads = threads.max(1).min(points.len());
    let mut out: Vec<Option<TestChoice>> = Vec::new();
    out.resize_with(points.len(), || None);
    if threads <= 1 {
        for (slot, pt) in out.iter_mut().zip(&points) {
            *slot = Some(eval_point(
                policy,
                pt,
                fuzzy.as_ref(),
                prob.as_ref(),
                lambda_cost,
            ));
        }
    } else {
        let chunk = points.len().div_ceil(threads);
        let fuzzy = fuzzy.as_ref();
        let prob = prob.as_ref();
        std::thread::scope(|scope| {
            let mut rest: &mut [Option<TestChoice>] = &mut out;
            for batch in points.chunks(chunk) {
                let (head, tail) = rest.split_at_mut(batch.len());
                rest = tail;
                scope.spawn(move || {
                    for (slot, pt) in head.iter_mut().zip(batch) {
                        *slot = Some(eval_point(policy, pt, fuzzy, prob, lambda_cost));
                    }
                });
            }
        });
    }

    let mut out: Vec<TestChoice> = out
        .into_iter()
        .map(|c| c.expect("every point evaluated"))
        .collect();
    out.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.point.cmp(&b.point))
    });
    out
}

/// The pre-optimization [`recommend`]: no entropy memo, no candidate
/// cache (every probabilistic score re-enumerates the hitting sets via
/// [`Session::candidates_uncached`]), no parallelism. Kept verbatim as
/// the differential oracle; `exp_strategy` gates on the fast path
/// matching it byte for byte.
#[must_use]
pub fn recommend_oracle(
    session: &Session<'_>,
    policy: Policy,
    lambda_cost: f64,
) -> Vec<TestChoice> {
    let probed = session.probed();
    let estimations = session.estimations();
    let diagnoser = session.diagnoser();
    let schedule = session.propagator().schedule();
    let mut out = Vec::new();
    for (idx, tp) in diagnoser.test_points().iter().enumerate() {
        if probed[idx] {
            continue;
        }
        let in_support: Vec<bool> = diagnoser
            .netlist()
            .components()
            .map(|(id, _)| tp.support.contains(&id))
            .collect();
        let (expected, info_score) = match policy {
            Policy::FuzzyEntropy => {
                // Outcome "consistent": the cone is exonerated.
                let post_cons: Vec<FuzzyInterval> = estimations
                    .iter()
                    .enumerate()
                    .map(|(k, (_, e))| {
                        if in_support[k] {
                            posterior_consistent()
                        } else {
                            *e
                        }
                    })
                    .collect();
                // Outcome "deviates": the cone is implicated.
                let post_dev: Vec<FuzzyInterval> = estimations
                    .iter()
                    .enumerate()
                    .map(|(k, (_, e))| {
                        if in_support[k] {
                            posterior_deviating(e)
                        } else {
                            *e
                        }
                    })
                    .collect();
                let ent_cons =
                    fuzzy_entropy(&post_cons).unwrap_or_else(|_| FuzzyInterval::crisp(0.0));
                let ent_dev =
                    fuzzy_entropy(&post_dev).unwrap_or_else(|_| FuzzyInterval::crisp(0.0));
                let total_mass: f64 = estimations.iter().map(|(_, e)| e.centroid()).sum();
                let cone_mass: f64 = estimations
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| in_support[*k])
                    .map(|(_, (_, e))| e.centroid())
                    .sum();
                let w_dev = if total_mass > 0.0 {
                    (cone_mass / total_mass).clamp(0.05, 0.95)
                } else {
                    0.5
                };
                let expected = expected_entropy(&[(1.0 - w_dev, ent_cons), (w_dev, ent_dev)]);
                let score = expected.centroid();
                (expected, score)
            }
            Policy::Probabilistic => {
                let candidates = session
                    .candidates_uncached(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count);
                if candidates.is_empty() {
                    let h = 1.0 / (tp.support.len().max(1) as f64);
                    (FuzzyInterval::crisp(h), h)
                } else {
                    let support_assumptions: Vec<_> = tp
                        .support
                        .iter()
                        .map(|c| schedule.component_assumption(c.index()))
                        .collect();
                    let (mut hit, mut miss): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
                    for c in &candidates {
                        let predicts_deviation =
                            support_assumptions.iter().any(|a| c.env.contains(*a));
                        if predicts_deviation {
                            hit.push(c.degree.max(1e-3));
                        } else {
                            miss.push(c.degree.max(1e-3));
                        }
                    }
                    let w_hit: f64 = hit.iter().sum();
                    let w_miss: f64 = miss.iter().sum();
                    let total = (w_hit + w_miss).max(1e-12);
                    let h = (w_hit / total) * shannon_entropy(&hit)
                        + (w_miss / total) * shannon_entropy(&miss);
                    (FuzzyInterval::crisp(h), h)
                }
            }
            Policy::FixedOrder => {
                let h = idx as f64;
                (FuzzyInterval::crisp(h), h)
            }
        };
        out.push(TestChoice {
            point: idx,
            name: tp.name.clone(),
            expected_entropy: expected,
            score: info_score + lambda_cost * tp.cost,
            cost: tp.cost,
        });
    }
    out.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.point.cmp(&b.point))
    });
    out
}

/// Outcome of a guided probing run ([`probe_until_isolated`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRun {
    /// Probed point names, in order.
    pub probes: Vec<String>,
    /// Total probing cost.
    pub cost: f64,
    /// The top candidate's members at the end (empty when no conflict was
    /// ever observed).
    pub top_candidate: Vec<String>,
    /// Whether the run ended with a unique top single-component candidate.
    pub isolated: bool,
}

/// Drives a session to completion under a policy: repeatedly recommend,
/// probe (readings supplied by `read`, indexed like the diagnoser's test
/// points), and propagate — until the top candidate is a clearly ranked
/// single component or every point has been probed.
///
/// # Errors
///
/// Propagates measurement errors from the session.
pub fn probe_until_isolated(
    session: &mut Session<'_>,
    policy: Policy,
    lambda_cost: f64,
    read: &dyn Fn(usize) -> FuzzyInterval,
) -> crate::Result<ProbeRun> {
    probe_until_isolated_with(session, policy, lambda_cost, read, 1)
}

/// [`probe_until_isolated`] with `threads`-wide point evaluation on every
/// planning step, holding one [`EntropyMemo`] across iterations (the
/// posterior entropies of the unimplicated components carry over from
/// wave to wave). Byte-identical to the single-threaded and oracle runs.
///
/// # Errors
///
/// Propagates measurement errors from the session.
pub fn probe_until_isolated_with(
    session: &mut Session<'_>,
    policy: Policy,
    lambda_cost: f64,
    read: &dyn Fn(usize) -> FuzzyInterval,
    threads: usize,
) -> crate::Result<ProbeRun> {
    let mut memo = EntropyMemo::new();
    let mut probes = Vec::new();
    let mut cost = 0.0;
    loop {
        let choices = recommend_with_memo(session, policy, lambda_cost, threads, &mut memo);
        let Some(choice) = choices.first() else {
            break;
        };
        session.measure_point(choice.point, read(choice.point))?;
        session.propagate();
        probes.push(choice.name.clone());
        cost += choice.cost;
        if isolated(session) {
            break;
        }
    }
    let cands = session.candidates(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count);
    let top_candidate = cands.first().map(|c| c.members.clone()).unwrap_or_default();
    Ok(ProbeRun {
        probes,
        cost,
        top_candidate,
        isolated: isolated(session),
    })
}

/// The pre-optimization probe loop: [`recommend_oracle`] for planning,
/// uncached re-enumerated candidates for the isolation test and the
/// final report. The differential baseline `exp_strategy` times the fast
/// loop against.
///
/// # Errors
///
/// Propagates measurement errors from the session.
pub fn probe_until_isolated_oracle(
    session: &mut Session<'_>,
    policy: Policy,
    lambda_cost: f64,
    read: &dyn Fn(usize) -> FuzzyInterval,
) -> crate::Result<ProbeRun> {
    let mut probes = Vec::new();
    let mut cost = 0.0;
    loop {
        let choices = recommend_oracle(session, policy, lambda_cost);
        let Some(choice) = choices.first() else {
            break;
        };
        session.measure_point(choice.point, read(choice.point))?;
        session.propagate();
        probes.push(choice.name.clone());
        cost += choice.cost;
        if isolated_oracle(session) {
            break;
        }
    }
    let cands = session.candidates_uncached(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count);
    let top_candidate = cands.first().map(|c| c.members.clone()).unwrap_or_default();
    Ok(ProbeRun {
        probes,
        cost,
        top_candidate,
        isolated: isolated_oracle(session),
    })
}

/// A session is *isolated* when its best candidate is a single component
/// strictly outranking every other candidate.
fn isolated(session: &Session<'_>) -> bool {
    let cands = session.candidates(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count);
    isolated_in(&cands)
}

/// [`isolated`] on uncached, re-enumerated candidates (oracle loop).
fn isolated_oracle(session: &Session<'_>) -> bool {
    let cands = session.candidates_uncached(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count);
    isolated_in(&cands)
}

fn isolated_in(cands: &[crate::engine::Candidate]) -> bool {
    match cands {
        [] => false,
        [only] => only.members.len() == 1,
        [first, second, ..] => first.members.len() == 1 && first.degree > second.degree + 1e-9,
    }
}

/// Full per-point readings for one board under guided probing, indexed
/// like the diagnoser's test points (the probe loop decides which ones
/// it actually consumes).
pub type BoardReadings = Vec<FuzzyInterval>;

/// Runs [`probe_until_isolated`] for a fleet of boards on `threads`
/// scoped worker threads, each worker recycling one session through its
/// own [`crate::SessionPool`]. Runs are byte-identical to sequential
/// [`probe_until_isolated`] runs on fresh sessions, for any thread
/// count, and come back in board order.
///
/// # Errors
///
/// Returns the first per-board error.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn probe_batch_lanes(
    diagnoser: &Diagnoser,
    boards: &[BoardReadings],
    policy: Policy,
    lambda_cost: f64,
    threads: usize,
) -> crate::Result<Vec<ProbeRun>> {
    fan_out(diagnoser, boards, threads, |pool, readings| {
        let mut session = pool.acquire();
        let run = probe_until_isolated(&mut session, policy, lambda_cost, &|i| readings[i])?;
        pool.release(session);
        Ok(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Diagnoser, DiagnoserConfig};
    use flames_circuit::predict::TestPoint;
    use flames_circuit::{Net, Netlist};

    /// Two independent dividers sharing a source: probing one cone says
    /// nothing about the other.
    fn two_branch() -> (Netlist, Diagnoser) {
        let mut nl = Netlist::new();
        let vin = nl.add_net("vin");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
        let r1 = nl.add_resistor("R1", vin, a, 1e3, 0.05).unwrap();
        let r2 = nl.add_resistor("R2", a, Net::GROUND, 1e3, 0.05).unwrap();
        let r3 = nl.add_resistor("R3", vin, b, 1e3, 0.05).unwrap();
        let r4 = nl.add_resistor("R4", b, Net::GROUND, 1e3, 0.05).unwrap();
        let points = vec![
            TestPoint::new(a, "Va", vec![r1, r2]),
            TestPoint::new(b, "Vb", vec![r3, r4]).with_cost(3.0),
        ];
        let d = Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default()).unwrap();
        (nl, d)
    }

    /// [`two_branch`] with a NaN probing cost on `Vb`, so its score is
    /// NaN at any cost weight.
    fn nan_cost_branch() -> Diagnoser {
        let (nl, d) = two_branch();
        let mut points = d.test_points().to_vec();
        points[1].cost = f64::NAN;
        Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default()).unwrap()
    }

    #[test]
    fn recommend_orders_nan_scores_without_panicking() {
        let d = nan_cost_branch();
        let choices = recommend(&d.session(), Policy::FuzzyEntropy, 0.0);
        let names: Vec<&str> = choices.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["Va", "Vb"]);
        assert!(choices[1].score.is_nan());
    }

    #[test]
    fn recommend_oracle_orders_nan_scores_without_panicking() {
        let d = nan_cost_branch();
        let choices = recommend_oracle(&d.session(), Policy::FuzzyEntropy, 0.0);
        let names: Vec<&str> = choices.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["Va", "Vb"]);
    }

    #[test]
    fn recommend_covers_unprobed_points_only() {
        let (_, d) = two_branch();
        let mut s = d.session();
        let all = recommend(&s, Policy::FuzzyEntropy, 0.0);
        assert_eq!(all.len(), 2);
        s.measure("Va", FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        let rest = recommend(&s, Policy::FuzzyEntropy, 0.0);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name, "Vb");
        s.measure("Vb", FuzzyInterval::crisp(5.0).widened(0.05).unwrap())
            .unwrap();
        assert!(recommend(&s, Policy::FuzzyEntropy, 0.0).is_empty());
    }

    #[test]
    fn cost_weight_flips_preference() {
        let (_, d) = two_branch();
        let s = d.session();
        // Symmetric information; Vb costs 3×. With λ > 0 the cheap probe
        // must rank first.
        let ranked = recommend(&s, Policy::FuzzyEntropy, 1.0);
        assert_eq!(ranked[0].name, "Va");
        assert!(ranked[0].score < ranked[1].score);
    }

    #[test]
    fn fixed_order_is_declaration_order() {
        let (_, d) = two_branch();
        let s = d.session();
        let ranked = recommend(&s, Policy::FixedOrder, 0.0);
        assert_eq!(ranked[0].name, "Va");
        assert_eq!(ranked[1].name, "Vb");
    }

    #[test]
    fn probabilistic_uses_candidate_split() {
        let (nl, d) = two_branch();
        let mut s = d.session();
        // Fault in branch A: candidates concentrate on R1/R2.
        let r1 = nl.component_by_name("R1").unwrap();
        let bad = flames_circuit::fault::inject_faults(
            &nl,
            &[(r1, flames_circuit::Fault::ParamFactor(1.5))],
        )
        .unwrap();
        let reading =
            flames_circuit::predict::measure(&bad, nl.net_by_name("a").unwrap(), 0.02).unwrap();
        s.measure("Va", reading).unwrap();
        s.propagate();
        let ranked = recommend(&s, Policy::Probabilistic, 0.0);
        // Only Vb remains; its score reflects the candidate split.
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].score.is_finite());
    }

    #[test]
    fn probe_run_isolates_single_branch_fault() {
        let (nl, d) = two_branch();
        let r1 = nl.component_by_name("R1").unwrap();
        let bad = flames_circuit::fault::inject_faults(
            &nl,
            &[(r1, flames_circuit::Fault::ParamFactor(2.0))],
        )
        .unwrap();
        let nets = [nl.net_by_name("a").unwrap(), nl.net_by_name("b").unwrap()];
        let readings: Vec<FuzzyInterval> = nets
            .iter()
            .map(|&n| flames_circuit::predict::measure(&bad, n, 0.02).unwrap())
            .collect();
        let mut s = d.session();
        let run =
            probe_until_isolated(&mut s, Policy::FuzzyEntropy, 0.1, &|i| readings[i]).unwrap();
        assert!(!run.probes.is_empty());
        assert!(run.cost > 0.0);
        // The fault lives in branch A; the top candidate names R1 or R2.
        assert!(
            run.top_candidate.iter().any(|m| m == "R1" || m == "R2"),
            "{run:?}"
        );
    }

    #[test]
    fn fast_paths_match_oracle() {
        let (nl, d) = two_branch();
        let r1 = nl.component_by_name("R1").unwrap();
        let bad = flames_circuit::fault::inject_faults(
            &nl,
            &[(r1, flames_circuit::Fault::ParamFactor(2.0))],
        )
        .unwrap();
        let nets = [nl.net_by_name("a").unwrap(), nl.net_by_name("b").unwrap()];
        let readings: Vec<FuzzyInterval> = nets
            .iter()
            .map(|&n| flames_circuit::predict::measure(&bad, n, 0.02).unwrap())
            .collect();
        for policy in [
            Policy::FuzzyEntropy,
            Policy::Probabilistic,
            Policy::FixedOrder,
        ] {
            let fast = {
                let mut s = d.session();
                probe_until_isolated(&mut s, policy, 0.1, &|i| readings[i]).unwrap()
            };
            let oracle = {
                let mut s = d.session();
                probe_until_isolated_oracle(&mut s, policy, 0.1, &|i| readings[i]).unwrap()
            };
            assert_eq!(
                format!("{fast:?}"),
                format!("{oracle:?}"),
                "policy {policy}"
            );
        }
    }

    #[test]
    fn recommend_is_thread_count_invariant() {
        let (_, d) = two_branch();
        let s = d.session();
        for policy in [
            Policy::FuzzyEntropy,
            Policy::Probabilistic,
            Policy::FixedOrder,
        ] {
            let solo = recommend_with(&s, policy, 0.3, 1);
            for threads in [2, 4, 8] {
                let multi = recommend_with(&s, policy, 0.3, threads);
                assert_eq!(format!("{solo:?}"), format!("{multi:?}"), "{policy}");
            }
        }
    }

    #[test]
    fn probe_batch_lanes_match_solo_runs() {
        let (nl, d) = two_branch();
        let mut boards: Vec<BoardReadings> = Vec::new();
        for (name, factor) in [("R1", 2.0), ("R3", 0.5), ("R2", 3.0), ("R4", 1.7)] {
            let c = nl.component_by_name(name).unwrap();
            let bad = flames_circuit::fault::inject_faults(
                &nl,
                &[(c, flames_circuit::Fault::ParamFactor(factor))],
            )
            .unwrap();
            boards.push(
                ["a", "b"]
                    .iter()
                    .map(|n| {
                        flames_circuit::predict::measure(&bad, nl.net_by_name(n).unwrap(), 0.02)
                            .unwrap()
                    })
                    .collect(),
            );
        }
        let solo: Vec<ProbeRun> = boards
            .iter()
            .map(|readings| {
                let mut s = d.session();
                probe_until_isolated(&mut s, Policy::FuzzyEntropy, 0.1, &|i| readings[i]).unwrap()
            })
            .collect();
        for threads in [1, 2, 4] {
            let batch = probe_batch_lanes(&d, &boards, Policy::FuzzyEntropy, 0.1, threads).unwrap();
            assert_eq!(
                format!("{solo:?}"),
                format!("{batch:?}"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn policies_display() {
        assert_eq!(Policy::FuzzyEntropy.to_string(), "fuzzy-entropy");
        assert_eq!(Policy::Probabilistic.to_string(), "probabilistic");
        assert_eq!(Policy::FixedOrder.to_string(), "fixed-order");
    }
}
