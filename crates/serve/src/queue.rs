//! Admission control: a bounded job queue with wave draining.
//!
//! `POST /diagnose` handlers submit a [`Job`] and block on its reply
//! channel; batcher threads drain jobs in *waves*. Backlog is bounded
//! in **boards** (the unit of diagnostic work), and a submit that would
//! overflow is shed immediately with a 429 + `Retry-After` — the
//! explicit-shedding half of admission control. The draining half is
//! the coalescing policy: with coalescing on, one wave takes every
//! queued request that fits the 64-board wave bound (requests that
//! arrive while a wave executes pile up and ride the next wave
//! together — dynamic batching, no timer needed under closed-loop
//! load); with it off, every wave carries exactly one request, the
//! baseline the `exp_serve` gate measures against.

use crate::error::ServeError;
use crate::protocol::MAX_BOARDS_PER_REQUEST;
use flames_core::Board;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One admitted `/diagnose` request, queued for a batcher.
#[derive(Debug)]
pub struct Job {
    /// The request id (also the trace handle).
    pub id: u64,
    /// The request's measurement sets.
    pub boards: Vec<Board>,
    /// Whether the client asked for next-probe recommendations.
    pub next_probe: bool,
    /// Latest instant at which starting the wave still honours the
    /// request's deadline.
    pub deadline: Instant,
    /// Where the handler thread waits for the rendered body.
    pub reply: Sender<Result<String, ServeError>>,
}

#[derive(Debug)]
struct State {
    jobs: VecDeque<Job>,
    queued_boards: usize,
    open: bool,
}

/// The bounded, condvar-signalled job queue shared by HTTP workers and
/// batchers.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<State>,
    available: Condvar,
    max_backlog_boards: usize,
    coalesce: bool,
}

impl JobQueue {
    /// An open queue holding at most `max_backlog_boards` boards
    /// (floored at one request's worth so a single maximal request is
    /// always admissible).
    #[must_use]
    pub fn new(max_backlog_boards: usize, coalesce: bool) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                queued_boards: 0,
                open: true,
            }),
            available: Condvar::new(),
            max_backlog_boards: max_backlog_boards.max(MAX_BOARDS_PER_REQUEST),
            coalesce,
        }
    }

    /// Admits a job, or sheds it.
    ///
    /// # Errors
    ///
    /// 429 `overload` when the backlog is full, 503 `overload` when the
    /// queue has been closed for shutdown.
    pub fn submit(&self, job: Job) -> Result<(), ServeError> {
        let mut state = self.lock();
        if !state.open {
            flames_obs::metrics().serve_shed.incr();
            return Err(ServeError::shutting_down());
        }
        if state.queued_boards + job.boards.len() > self.max_backlog_boards {
            flames_obs::metrics().serve_shed.incr();
            return Err(ServeError::overloaded(1));
        }
        state.queued_boards += job.boards.len();
        state.jobs.push_back(job);
        flames_obs::metrics().serve_accepted.incr();
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until work is available and drains the next wave, FIFO:
    /// the oldest job, plus — with coalescing on — every following job
    /// that keeps the wave within [`MAX_BOARDS_PER_REQUEST`] boards, so
    /// the work of one wave stays bounded. Returns `None` once the queue
    /// is closed *and* empty (batcher shutdown).
    pub fn next_wave(&self) -> Option<Vec<Job>> {
        let mut state = self.lock();
        loop {
            if !state.jobs.is_empty() {
                let mut wave = vec![remove_front(&mut state)];
                if self.coalesce {
                    let mut boards: usize = wave[0].boards.len();
                    while let Some(next) = state.jobs.front() {
                        if boards + next.boards.len() > MAX_BOARDS_PER_REQUEST {
                            break;
                        }
                        boards += next.boards.len();
                        wave.push(remove_front(&mut state));
                    }
                }
                if wave.len() > 1 {
                    flames_obs::metrics().serve_coalesced.add(wave.len() as u64);
                }
                return Some(wave);
            }
            if !state.open {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue: future submits shed with 503, and batchers
    /// drain what is left, then exit.
    pub fn close(&self) {
        self.lock().open = false;
        self.available.notify_all();
    }

    /// Boards currently queued (for tests and load probes).
    #[must_use]
    pub fn backlog_boards(&self) -> usize {
        self.lock().queued_boards
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn remove_front(state: &mut State) -> Job {
    let job = state.jobs.pop_front().expect("non-empty queue");
    state.queued_boards -= job.boards.len();
    job
}

#[cfg(test)]
mod tests {
    use super::*;
    use flames_fuzzy::FuzzyInterval;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn job(id: u64, boards: usize) -> (Job, std::sync::mpsc::Receiver<Result<String, ServeError>>) {
        let (tx, rx) = channel();
        (
            Job {
                id,
                boards: vec![vec![(0, FuzzyInterval::crisp(1.0))]; boards],
                next_probe: false,
                deadline: Instant::now() + Duration::from_secs(5),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn coalescing_drains_up_to_the_lane_cap() {
        let q = JobQueue::new(256, true);
        for id in 0..5 {
            let (j, _rx) = job(id, 20);
            q.submit(j).unwrap();
        }
        // 20+20+20 = 60 fits; adding the fourth (80) would not.
        let wave = q.next_wave().unwrap();
        assert_eq!(wave.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        let wave2 = q.next_wave().unwrap();
        assert_eq!(wave2.iter().map(|j| j.id).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(q.backlog_boards(), 0);
    }

    #[test]
    fn one_request_per_wave_without_coalescing() {
        let q = JobQueue::new(256, false);
        for id in 0..3 {
            let (j, _rx) = job(id, 1);
            q.submit(j).unwrap();
        }
        for id in 0..3 {
            let wave = q.next_wave().unwrap();
            assert_eq!(wave.len(), 1);
            assert_eq!(wave[0].id, id);
        }
    }

    #[test]
    fn overflow_sheds_and_close_drains() {
        let q = JobQueue::new(64, true);
        let (j, _rx) = job(0, 40);
        q.submit(j).unwrap();
        let (j, _rx2) = job(1, 40);
        let err = q.submit(j).unwrap_err();
        assert_eq!(err.status, 429);
        assert_eq!(err.headers[0].0, "Retry-After");
        q.close();
        let (j, _rx3) = job(2, 1);
        assert_eq!(q.submit(j).unwrap_err().status, 503);
        // The queued job is still drained, then the queue reports done.
        assert_eq!(q.next_wave().unwrap()[0].id, 0);
        assert!(q.next_wave().is_none());
    }
}
