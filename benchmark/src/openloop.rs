//! Open-loop load: a generator that sends on a schedule whatever the
//! pipeline does, and a collector that waits tickets in submit order (the
//! dispatcher answers FIFO, so the order costs nothing).
//!
//! Every query is timed from the instant it was *due*, not from when the
//! generator got round to sending it, so a stall charges the queries that
//! queued behind it (no coordinated omission). A shed or errored query has
//! infinite latency: it misses every limit.
//!
//! The generator sleeps until the next due time and never spins: on the
//! two-core box this was sized on, a spinning generator starves the
//! dispatcher and triples the median.

use crate::inputs::Arrival;
use crate::workloads::TOP_K;
use hcc_serve::{AdmissionPipeline, ServeError, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Answered,
    /// Refused at the door: designed behaviour under overload.
    Shed,
    /// Any other error, or an answer of the wrong length: a failed operation.
    Failed,
}

/// One query's instants, in seconds since the phase began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub due: f64,
    pub submit: f64,
    pub answer: f64,
    pub status: Status,
}

impl Query {
    /// Due→answer latency in µs; infinite unless answered.
    pub fn latency_us(&self) -> f64 {
        match self.status {
            Status::Answered => (self.answer - self.due) * 1e6,
            _ => f64::INFINITY,
        }
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Clone)]
pub struct Observed {
    pub start: Instant,
    pub span: Duration,
    pub queries: Vec<Query>,
    /// Deepest admission queue seen at the 10 Hz poll (traced runs only).
    pub depth_max: usize,
}

/// Sleeping is worth it only when the wait exceeds the timer's own slack.
const MIN_SLEEP: Duration = Duration::from_micros(30);

/// Sends `schedule` through `pipeline`, each query at its due time.
/// `answer_len[user]` is the length a correct answer has; `span` is the
/// schedule's nominal length; `poll_depth` samples the queue depth at 10 Hz.
pub fn run(
    pipeline: &AdmissionPipeline,
    schedule: &[Arrival],
    answer_len: &[u8],
    span: Duration,
    poll_depth: bool,
) -> Observed {
    std::thread::scope(|scope| {
        scope
            .spawn(|| generate(pipeline, schedule, answer_len, span, poll_depth))
            .join()
            .expect("generator thread panicked")
    })
}

fn generate(
    pipeline: &AdmissionPipeline,
    schedule: &[Arrival],
    answer_len: &[u8],
    span: Duration,
    poll_depth: bool,
) -> Observed {
    let (tx, rx) = mpsc::channel::<(usize, u32, Ticket)>();
    let start = Instant::now();
    let mut queries: Vec<Query> = Vec::with_capacity(schedule.len());
    let mut depth_max = 0usize;
    let mut next_poll = Duration::ZERO;

    let answers: Vec<(usize, f64, bool)> = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::new();
            for (idx, user, ticket) in rx {
                let want = usize::from(answer_len[user as usize]);
                let ok = matches!(ticket.wait(), Ok(a) if a.len() == want);
                out.push((idx, start.elapsed().as_secs_f64(), ok));
            }
            out
        });

        // Sends one query; `index` is the slot its record will occupy.
        let send = |due: f64, user: u32, index: usize| {
            let submit = start.elapsed().as_secs_f64();
            let status = match pipeline.submit(user, TOP_K) {
                Ok(ticket) => {
                    // The collector outlives every send: it ends when `tx` drops.
                    tx.send((index, user, ticket)).expect("collector alive");
                    Status::Answered
                }
                Err(ServeError::Overloaded { .. }) => Status::Shed,
                Err(_) => Status::Failed,
            };
            Query {
                due: due.min(submit),
                submit,
                answer: f64::NAN,
                status,
            }
        };

        for a in schedule {
            let due = Duration::from_nanos(a.due_ns);
            let now = start.elapsed();
            if due > now + MIN_SLEEP {
                std::thread::sleep(due - now);
            }
            if poll_depth && start.elapsed() >= next_poll {
                depth_max = depth_max.max(pipeline.stats().depth);
                next_poll += Duration::from_millis(100);
            }
            let q = send(due.as_secs_f64(), a.user, queries.len());
            queries.push(q);
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });

    for (idx, at, ok) in answers {
        queries[idx].answer = at;
        if !ok {
            queries[idx].status = Status::Failed;
        }
    }
    Observed {
        start,
        span,
        queries,
        depth_max,
    }
}
