//! Wave execution: coalesced requests → one propagation per unique
//! board.
//!
//! A *wave* is the unit of server-side work: the boards of every
//! request drained from the admission queue, deduplicated (identical
//! measurement sets collapse onto one propagation — the request
//! coalescing that makes concurrent duplicate queries nearly free), and
//! each unique board driven to quiescence alone on the batcher's warm
//! session ([`Session::propagate`]). Each board's propagation is
//! therefore a solo run, and coalescing is invisible in the responses —
//! the end-to-end suite pins server bytes against
//! [`flames_core::diagnose_batch_lanes`].

use flames_core::strategy::{recommend, Policy};
use flames_core::{
    Board, CacheConfig, CacheDecision, Diagnoser, GradedBoard, Report, Result, RuleProvenance,
    RuleStore, Session, SessionPool,
};
use flames_obs::trace::push_chrome_event;
use flames_obs::Trace;
use std::collections::HashMap;

/// The planner's verdict on where to probe next: the lowest-scoring
/// unprobed test point under the paper's fuzzy-entropy policy.
#[derive(Debug, Clone, PartialEq)]
pub struct NextProbe {
    /// Test-point index in the diagnoser's declaration order.
    pub point: usize,
    /// The point's name.
    pub name: String,
    /// Expected-entropy score (lower is better).
    pub score: f64,
}

/// Everything the service derives from one board: the full diagnosis
/// [`Report`] and the recommended next probe (absent when every point
/// has been probed or the request declined it). The board's diagnosis
/// trace is not built here: [`replay_traces`] rebuilds it when
/// `GET /trace/:id` asks.
#[derive(Debug, Clone)]
pub struct BoardOutcome {
    /// The diagnosis snapshot.
    pub report: Report,
    /// Best next test point, if requested and any point is unprobed.
    pub next_probe: Option<NextProbe>,
    /// `Some` exactly when the learned-rule fast path served this board
    /// without propagation (see [`flames_core::RuleStore`]); `None` on
    /// the model-based path, whose response bytes are unchanged.
    pub provenance: Option<RuleProvenance>,
}

/// Exact-content dedup key of a board: point indices with the four
/// trapezoid columns bit-cast, so two boards coalesce only when their
/// measurement sets are bit-identical (and therefore provably produce
/// byte-identical responses).
fn board_key(board: &Board) -> Vec<(usize, [u64; 4])> {
    board
        .iter()
        .map(|(idx, v)| {
            (
                *idx,
                [
                    v.core_lo().to_bits(),
                    v.core_hi().to_bits(),
                    v.spread_left().to_bits(),
                    v.spread_right().to_bits(),
                ],
            )
        })
        .collect()
}

/// Diagnoses one wave of boards on a pooled session: dedup, then
/// measure, propagate, report and next-probe each unique board in turn,
/// fanned back out to every input board.
///
/// `want_next_probe[i]` asks for a recommendation for board `i`; a
/// unique board computes it if *any* of its duplicates asked (the
/// report is unaffected either way).
///
/// # Errors
///
/// Returns the first per-board error (out-of-range test-point index —
/// unreachable through the HTTP path, which validates indices at
/// parse time).
pub fn run_wave<'d>(
    pool: &mut SessionPool<'d>,
    boards: &[Board],
    want_next_probe: &[bool],
) -> Result<Vec<BoardOutcome>> {
    run_wave_cached(pool, boards, want_next_probe, None)
}

/// [`run_wave`] behind the learned-rule fast path.
///
/// The cache pins one [`flames_core::RuleSnapshot`] for the whole wave.
/// Each *unique* board (dedup happens first, so coalesced duplicates
/// consult the cache once) is discretized to symptoms without
/// propagation; a confident hit is answered straight from the rule —
/// with [`RuleProvenance`] and no next-probe recommendation (the rule
/// already names the culprit) — while misses take the identical
/// propagation path `run_wave` takes, so their reports and response
/// bytes are unchanged. When [`CacheConfig::learn`] is set, each miss
/// outcome is absorbed back into the store. `cache: None` *is*
/// [`run_wave`]: one shared code path, so the cache-off bytes cannot
/// drift.
///
/// # Errors
///
/// Returns the first per-board error, as [`run_wave`] does.
pub fn run_wave_cached<'d>(
    pool: &mut SessionPool<'d>,
    boards: &[Board],
    want_next_probe: &[bool],
    cache: Option<(&RuleStore, &CacheConfig)>,
) -> Result<Vec<BoardOutcome>> {
    debug_assert_eq!(boards.len(), want_next_probe.len());
    // Dedup in first-occurrence order, so session order — and hence the
    // whole wave — is a deterministic function of the drained queue.
    let mut unique_of: HashMap<Vec<(usize, [u64; 4])>, usize> = HashMap::new();
    let mut unique_boards: Vec<&Board> = Vec::new();
    let mut unique_probe: Vec<bool> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(boards.len());
    for (board, &probe) in boards.iter().zip(want_next_probe) {
        let slot = *unique_of.entry(board_key(board)).or_insert_with(|| {
            unique_boards.push(board);
            unique_probe.push(false);
            unique_boards.len() - 1
        });
        unique_probe[slot] |= probe;
        slot_of.push(slot);
    }
    flames_obs::metrics()
        .serve_deduped_boards
        .add((boards.len() - unique_boards.len()) as u64);

    // Consult the rule store per unique board; hits never open a
    // session. `None` entries fall through to propagation below.
    let mut unique_outcomes: Vec<Option<BoardOutcome>> = Vec::new();
    unique_outcomes.resize_with(unique_boards.len(), || None);
    let snapshot = cache.map(|(store, _)| store.snapshot());
    if let (Some(snapshot), Some((_, config))) = (&snapshot, cache) {
        let diagnoser = pool.diagnoser();
        let metrics = flames_obs::metrics();
        for (slot, board) in unique_boards.iter().enumerate() {
            let graded = GradedBoard::new(diagnoser, board)?;
            match snapshot.decide(graded.symptoms(), config) {
                CacheDecision::Hit(hit) => {
                    metrics.learn_hit.incr();
                    unique_outcomes[slot] = Some(BoardOutcome {
                        report: graded.into_hit_report(&hit),
                        next_probe: None,
                        provenance: Some(hit),
                    });
                }
                CacheDecision::Fallback => metrics.learn_fallback.incr(),
                CacheDecision::Miss => metrics.learn_miss.incr(),
            }
        }
    }

    for (slot, board) in unique_boards.iter().enumerate() {
        if unique_outcomes[slot].is_some() {
            continue;
        }
        flames_obs::metrics().boards_diagnosed.incr();
        let mut session = pool.acquire();
        for &(idx, value) in board.iter() {
            session.measure_point(idx, value)?;
        }
        session.propagate();
        let report = session.report();
        if let Some((store, config)) = cache {
            if config.learn {
                store.absorb(&report);
            }
        }
        let next_probe = if unique_probe[slot] {
            recommend(&session, Policy::FuzzyEntropy, 0.0)
                .into_iter()
                .next()
                .map(|c| NextProbe {
                    point: c.point,
                    name: c.name,
                    score: c.score,
                })
        } else {
            None
        };
        pool.release(session);
        unique_outcomes[slot] = Some(BoardOutcome {
            report,
            next_probe,
            provenance: None,
        });
    }
    // Fan out: a duplicate gets a clone, and each unique outcome moves
    // into the last board that shares it.
    let mut last_use = vec![0; unique_outcomes.len()];
    for (i, &slot) in slot_of.iter().enumerate() {
        last_use[slot] = i;
    }
    Ok(slot_of
        .iter()
        .enumerate()
        .map(|(i, &slot)| {
            let outcome = &mut unique_outcomes[slot];
            if last_use[slot] == i {
                outcome.take()
            } else {
                outcome.clone()
            }
            .expect("every unique board served")
        })
        .collect())
}

/// The in-process reference for the end-to-end suite and the bench:
/// diagnoses `boards` exactly as the server's batcher would execute
/// them as one wave (fresh pool, dedup, one propagation per unique
/// board, next-probe recommendation per board).
///
/// # Errors
///
/// Returns the first per-board error, as [`run_wave`] does.
pub fn diagnose_boards(
    diagnoser: &Diagnoser,
    boards: &[Board],
    next_probe: bool,
) -> Result<Vec<BoardOutcome>> {
    let mut pool = SessionPool::new(diagnoser);
    run_wave(&mut pool, boards, &vec![next_probe; boards.len()])
}

/// [`diagnose_boards`] through the learned-rule fast path — the
/// in-process reference for a server configured with a
/// [`RuleStore`].
///
/// # Errors
///
/// Returns the first per-board error, as [`run_wave_cached`] does.
pub fn diagnose_boards_cached(
    diagnoser: &Diagnoser,
    boards: &[Board],
    next_probe: bool,
    store: &RuleStore,
    config: &CacheConfig,
) -> Result<Vec<BoardOutcome>> {
    let mut pool = SessionPool::new(diagnoser);
    run_wave_cached(
        &mut pool,
        boards,
        &vec![next_probe; boards.len()],
        Some((store, config)),
    )
}

/// Rebuilds the diagnosis traces of a served request's boards, one per
/// board, on a session of its own: each model-path board is measured,
/// propagated solo and traced; a board the learned-rule fast path
/// answered (`rule_hits[i]`) gets an empty trace, since nothing was
/// propagated for it.
///
/// The replay is exact. The wave propagated each board alone too, so
/// the trace equals the one the serving session would have exported;
/// and the model path never reads the rule store, so a store that
/// learned since the request was served cannot change it.
///
/// # Errors
///
/// Returns the first per-board error (out-of-range test-point index).
pub fn replay_traces(
    diagnoser: &Diagnoser,
    boards: &[Board],
    rule_hits: &[bool],
) -> Result<Vec<Trace>> {
    debug_assert_eq!(boards.len(), rule_hits.len());
    let mut session: Option<Session<'_>> = None;
    let mut traces = Vec::with_capacity(boards.len());
    for (board, &hit) in boards.iter().zip(rule_hits) {
        if hit {
            traces.push(Trace::new());
            continue;
        }
        let session = match &mut session {
            Some(session) => {
                session.reset();
                session
            }
            None => session.insert(diagnoser.session()),
        };
        for &(idx, value) in board {
            session.measure_point(idx, value)?;
        }
        session.propagate();
        traces.push(session.trace());
    }
    Ok(traces)
}

/// Merges per-board diagnosis traces into one Chrome `trace_event`
/// document, one `tid` per board, preserving each board's logical
/// clock. This is what `GET /trace/:id` streams for a completed
/// request — rendered on the GET, never on the serving path (a
/// propagation-heavy board's document runs to megabytes).
#[must_use]
pub fn traces_to_chrome_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (board, trace) in traces.iter().enumerate() {
        for ev in trace.events() {
            if !first {
                out.push(',');
            }
            first = false;
            push_chrome_event(&mut out, ev, board as u64 + 1);
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flames_circuit::predict::TestPoint;
    use flames_circuit::{Net, Netlist};
    use flames_core::{diagnose_batch_lanes, DiagnoserConfig};
    use flames_fuzzy::FuzzyInterval;

    fn divider() -> Diagnoser {
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

    fn board(v: f64) -> Board {
        vec![(0, FuzzyInterval::crisp(v).widened(0.05).unwrap())]
    }

    #[test]
    fn wave_reports_match_lane_batch_and_dedup_is_invisible() {
        let d = divider();
        // Boards 0 and 2 are bit-identical: the wave runs 2 sessions
        // for 3 boards, and the duplicate's outcome is a clone.
        let boards = vec![board(6.1), board(4.2), board(6.1)];
        let outcomes = diagnose_boards(&d, &boards, true).unwrap();
        let expected = diagnose_batch_lanes(&d, &boards, 1).unwrap();
        assert_eq!(outcomes.len(), 3);
        for (o, e) in outcomes.iter().zip(&expected) {
            assert_eq!(format!("{:?}", o.report), format!("{e:?}"));
        }
        assert_eq!(
            format!("{:?}", outcomes[0].report),
            format!("{:?}", outcomes[2].report)
        );
        assert_eq!(outcomes[0].next_probe, outcomes[2].next_probe);
        // One unprobed point (Vin) remains: the planner recommends it.
        let np = outcomes[0].next_probe.as_ref().expect("recommendation");
        assert_eq!(np.name, "Vin");
    }

    #[test]
    fn next_probe_respects_the_flag_and_exhaustion() {
        let d = divider();
        let boards = vec![board(6.1)];
        let without = diagnose_boards(&d, &boards, false).unwrap();
        assert!(without[0].next_probe.is_none());
        // Probe both points: nothing left to recommend.
        let full: Board = vec![
            (0, FuzzyInterval::crisp(6.1).widened(0.05).unwrap()),
            (1, FuzzyInterval::crisp(10.0).widened(0.05).unwrap()),
        ];
        let done = diagnose_boards(&d, &[full], true).unwrap();
        assert!(done[0].next_probe.is_none());
    }

    #[test]
    fn merged_trace_is_a_loadable_chrome_document() {
        let d = divider();
        let traces = replay_traces(&d, &[board(6.1), board(4.2)], &[false, false]).unwrap();
        let json = traces_to_chrome_json(&traces);
        let v = flames_obs::json::parse(&json).expect("valid JSON");
        let events = v.member("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Both boards contribute, on distinct tids.
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .map(|e| e.member("tid").unwrap().as_f64().unwrap() as u64)
            .collect();
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn replay_gives_hits_an_empty_trace_and_returns_board_errors() {
        let d = divider();
        let traces = replay_traces(&d, &[board(6.1), board(6.1)], &[true, false]).unwrap();
        assert_eq!(traces[0], Trace::new());
        let mut solo = d.session();
        solo.measure_point(0, board(6.1)[0].1).unwrap();
        solo.propagate();
        assert_eq!(traces[1], solo.trace());
        // An out-of-range point is an error, not a panic.
        let bad: Board = vec![(7, FuzzyInterval::crisp(1.0))];
        assert!(replay_traces(&d, &[board(6.1), bad], &[false, false]).is_err());
    }
}
