//! Bounded admission queue + persistent per-shard worker pool.
//!
//! The old batch path spawned one thread per shard under
//! `std::thread::scope` for *every* batch: thread startup cost on the hot
//! path, and — worse — unbounded concurrency under overload, where every
//! waiting caller holds a full set of scan threads and tail latency
//! collapses. This module replaces that with the standard server-side
//! shape:
//!
//! 1. **Bounded admission.** [`AdmissionPipeline::submit`] enqueues the
//!    query or — when the queue already holds `capacity` entries — *sheds*
//!    it immediately with [`ServeError::Overloaded`]. Load the pipeline
//!    cannot serve within its latency budget is rejected at the door, so
//!    the latency of *admitted* queries stays bounded by
//!    `capacity / throughput` instead of growing with offered load.
//! 2. **Adaptive micro-batching.** A dispatcher thread drains up to
//!    `max_batch` waiting queries per wake-up. Under light load it drains
//!    batches of one (no added latency); as backlog builds, batches grow
//!    toward `max_batch` and the per-batch costs (model snapshot, fan-out,
//!    merge) amortize across more queries — throughput rises exactly when
//!    it is needed.
//! 3. **Persistent per-shard workers.** One worker thread per item shard
//!    (at construction), each owning a channel of batch jobs. Workers
//!    stride over shards (`shard s goes to worker s mod W`) so a hot
//!    reload that changes the shard count redistributes instead of
//!    crashing. The last worker to finish a job merges the per-shard
//!    heaps and answers every caller — no coordinator wake-up on the
//!    critical path.
//!
//! Per-query latency is measured enqueue→answer, so the engine's
//! percentiles include queue wait — the number that actually degrades
//! under overload. The dispatcher samples queue depth, cumulative shed
//! count, and batch size into an [`Event::Admission`] telemetry event
//! after every drain (on telemetry lane 0, which serving otherwise leaves
//! unused).

use crate::engine::{finish_all, scan_shard_batch, QueryScan, ServeEngine};
use crate::error::ServeError;
use crate::model::ServedModel;
use crate::topk::TopK;
use hcc_sync::{Arc, AtomicU64, Condvar, Mutex, Ordering};
use hcc_telemetry::Event;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Admission-queue tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries waiting in the queue; a submit beyond this sheds.
    pub capacity: usize,
    /// Maximum queries drained into one micro-batch.
    pub max_batch: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            capacity: 1024,
            max_batch: 64,
        }
    }
}

/// Counters describing the pipeline's admission behavior so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries accepted into the queue.
    pub admitted: u64,
    /// Queries rejected because the queue was full.
    pub shed: u64,
    /// Queries waiting right now.
    pub depth: usize,
}

type Answer = Result<Vec<(u32, f32)>, ServeError>;

/// One worker's best candidates per query of a batch job
/// (`partial[qi]` is worker-local top-k material for query `qi`).
type WorkerPartial = Vec<Vec<(u32, f32)>>;

/// One admitted query, owned by the queue and then by a batch job.
struct Request {
    user: u32,
    count: usize,
    enqueued: Instant,
    tx: mpsc::SyncSender<Answer>,
}

/// A pending answer; blocks on [`wait`](Ticket::wait).
pub struct Ticket {
    rx: mpsc::Receiver<Answer>,
}

impl Ticket {
    /// Blocks until the pipeline answers this query.
    pub fn wait(self) -> Answer {
        self.rx.recv().unwrap_or(Err(ServeError::PipelineClosed))
    }
}

/// One micro-batch in flight: a model snapshot, the admitted queries (every
/// user validated against that snapshot), and the workers' progress on it.
struct BatchJob {
    model: Arc<ServedModel>,
    queries: Vec<Request>,
    /// `(remaining, partials)`: the workers still running the job, and
    /// `partials[w][qi]`, worker `w`'s best candidates for query `qi`. One
    /// lock covers both, so the worker that brings `remaining` to zero
    /// finds every other worker's partial stored and takes them to merge.
    progress: Mutex<(usize, Vec<WorkerPartial>)>,
}

struct QueueState {
    waiting: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    notify: Condvar,
    config: AdmissionConfig,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// An asynchronous serving front end over a [`ServeEngine`]: bounded
/// admission, micro-batched dispatch, persistent per-shard scan workers.
///
/// Dropping the pipeline processes everything already admitted, then joins
/// the dispatcher and workers; queries submitted after the drop began get
/// [`ServeError::PipelineClosed`] from their tickets.
pub struct AdmissionPipeline {
    engine: Arc<ServeEngine>,
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl AdmissionPipeline {
    /// Starts the dispatcher and one scan worker per item shard of the
    /// engine's *current* model (a later reload with a different shard
    /// count redistributes shards across the existing workers).
    pub fn new(engine: Arc<ServeEngine>, config: AdmissionConfig) -> AdmissionPipeline {
        let config = AdmissionConfig {
            capacity: config.capacity.max(1),
            max_batch: config.max_batch.max(1),
        };
        let worker_count = engine.model().shard_count().max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                waiting: VecDeque::new(),
                shutdown: false,
            }),
            notify: Condvar::new(),
            config,
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });

        let mut senders = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        for w in 0..worker_count {
            // A buffer of one job per worker: the dispatcher blocks on
            // `send` once a worker already has an unstarted job queued, so
            // under overload the backlog accumulates in the *bounded*
            // admission queue (where it sheds) instead of growing without
            // limit inside the job channels. In-flight work is therefore
            // capped at two jobs (one scanning + one buffered), which is
            // what bounds the latency of admitted queries.
            let (tx, rx) = mpsc::sync_channel::<Arc<BatchJob>>(1);
            senders.push(tx);
            let engine = Arc::clone(&engine);
            workers.push(std::thread::spawn(move || {
                worker_loop(w, worker_count, rx, engine)
            }));
        }

        let dispatcher = {
            let shared = Arc::clone(&shared);
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || dispatcher_loop(shared, engine, senders))
        };

        AdmissionPipeline {
            engine,
            shared,
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    /// Admits a top-k query, or sheds it if the queue is full. The
    /// returned [`Ticket`] resolves once a worker batch answers it.
    pub fn submit(&self, user: u32, count: usize) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut q = self.shared.queue.lock();
            if q.shutdown {
                return Err(ServeError::PipelineClosed);
            }
            if q.waiting.len() >= self.shared.config.capacity {
                drop(q);
                // ordering: Relaxed — statistics counter; the shed
                // decision itself is made under the queue mutex.
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    capacity: self.shared.config.capacity,
                });
            }
            q.waiting.push_back(Request {
                user,
                count,
                enqueued: Instant::now(),
                tx,
            });
        }
        // ordering: Relaxed — statistics counter, as above.
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        self.shared.notify.notify_one();
        Ok(Ticket { rx })
    }

    /// Convenience: submit and wait.
    pub fn top_k(&self, user: u32, count: usize) -> Answer {
        self.submit(user, count)?.wait()
    }

    /// Admission counters (the engine's [`ServeEngine::stats`] carries the
    /// latency percentiles of the answered queries).
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            // ordering: Relaxed — statistics snapshot.
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            depth: self.shared.queue.lock().waiting.len(),
        }
    }

    /// The engine this pipeline answers from.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }
}

impl Drop for AdmissionPipeline {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
        }
        self.shared.notify.notify_all();
        if let Some(d) = self.dispatcher.take() {
            // A panicked dispatcher already answered no one; joining the
            // corpse is still correct and keeps Drop panic-free.
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for AdmissionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("AdmissionPipeline")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.config.capacity)
            .field("max_batch", &self.shared.config.max_batch)
            .field("admitted", &s.admitted)
            .field("shed", &s.shed)
            .finish()
    }
}

/// Dispatcher: drain a micro-batch, snapshot the model, validate the
/// users against it, fan the job out, sample telemetry. Exits once
/// shutdown is flagged *and* the queue is empty, so everything admitted
/// before a drop still gets answered.
fn dispatcher_loop(
    shared: Arc<Shared>,
    engine: Arc<ServeEngine>,
    senders: Vec<mpsc::SyncSender<Arc<BatchJob>>>,
) {
    loop {
        let (batch, depth_after) = {
            let mut q = shared.queue.lock();
            while q.waiting.is_empty() && !q.shutdown {
                shared.notify.wait(&mut q);
            }
            if q.waiting.is_empty() {
                break; // shutdown and fully drained
            }
            let n = q.waiting.len().min(shared.config.max_batch);
            let batch: Vec<Request> = q.waiting.drain(..n).collect();
            (batch, q.waiting.len())
        };
        let admitted_now = batch.len() as u64;

        let model = engine.model();
        // Validate users against the snapshot the workers will scan; a bad
        // id answers immediately and never reaches a worker.
        let mut queries = Vec::with_capacity(batch.len());
        for req in batch {
            match model.user_row(req.user) {
                Ok(_) => queries.push(req),
                Err(e) => {
                    let _ = req.tx.send(Err(e));
                }
            }
        }
        if !queries.is_empty() {
            let job = Arc::new(BatchJob {
                model,
                queries,
                progress: Mutex::new((senders.len(), vec![Vec::new(); senders.len()])),
            });
            for tx in &senders {
                // Blocks while the worker's one-job buffer is full — that
                // backpressure is what keeps in-flight work bounded. A
                // worker that died takes the whole process down with it
                // (its panic propagates at join); a failed send here only
                // happens during that teardown.
                let _ = tx.send(Arc::clone(&job));
            }
        }

        if engine.telemetry().is_enabled() {
            engine.telemetry().record(
                0,
                Event::Admission {
                    epoch: 0,
                    depth: depth_after as u64,
                    // ordering: Relaxed — a sampled statistic; slight lag
                    // behind concurrent sheds is fine.
                    shed: shared.shed.load(Ordering::Relaxed),
                    admitted: admitted_now,
                },
            );
        }
    }
    // Dropping `senders` here hangs up the job channels; workers exit
    // their recv loops once in-flight jobs finish.
}

/// Scan worker `w` of `total`: scores its shards (strided `w, w+total, …`)
/// for all queries of a job at once — the micro-batch is the query group of
/// the tile-major scan — and the last worker done with a job merges the
/// partial heaps and answers the callers.
fn worker_loop(
    w: usize,
    total: usize,
    rx: mpsc::Receiver<Arc<BatchJob>>,
    engine: Arc<ServeEngine>,
) {
    while let Ok(job) = rx.recv() {
        let model = &job.model;
        let mut queries: Vec<QueryScan<'_>> = job
            .queries
            .iter()
            .map(|req| {
                // Validated by the dispatcher against this same snapshot;
                // an empty row (unreachable) scores nothing rather than
                // panicking.
                let row = model.user_row(req.user).unwrap_or(&[]);
                QueryScan::new(row, model.seen_ranks(req.user), req.count)
            })
            .collect();
        let mut possible = 0u64;
        for shard in model.shards().iter().skip(w).step_by(total) {
            scan_shard_batch(shard, model.pruned(), &mut queries);
            possible += (shard.len * job.queries.len()) as u64;
        }
        let (mine, visited) = finish_all(queries);
        engine.note_scan(visited, possible);
        let done = {
            let mut progress = job.progress.lock();
            let (remaining, partials) = &mut *progress;
            partials[w] = mine;
            *remaining -= 1;
            (*remaining == 0).then(|| std::mem::take(partials))
        };
        if let Some(partials) = done {
            merge_and_respond(&engine, &job, &partials);
        }
    }
}

/// Merges every worker's partial heaps and answers each caller; records
/// the per-query enqueue→answer latencies on the engine.
fn merge_and_respond(engine: &ServeEngine, job: &BatchJob, per_worker: &[WorkerPartial]) {
    let mut lats = Vec::with_capacity(job.queries.len());
    for (qi, req) in job.queries.iter().enumerate() {
        let mut best = TopK::new(req.count);
        for partial in per_worker {
            for &(item, score) in &partial[qi] {
                best.offer(item, score);
            }
        }
        let _ = req.tx.send(Ok(best.into_sorted()));
        lats.push(req.enqueued.elapsed().as_micros() as u64);
    }
    engine.note_latencies(&lats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sgd::FactorMatrix;

    fn engine(users: usize, items: usize, k: usize, shards: usize) -> Arc<ServeEngine> {
        Arc::new(ServeEngine::new(
            ServedModel::build(
                FactorMatrix::random(users, k, 5),
                FactorMatrix::random(items, k, 6),
                None,
                shards,
            )
            .unwrap(),
        ))
    }

    #[test]
    fn pipeline_answers_match_the_synchronous_path() {
        let engine = engine(16, 200, 8, 3);
        let pipeline = AdmissionPipeline::new(Arc::clone(&engine), AdmissionConfig::default());
        for u in 0..16u32 {
            let got = pipeline.top_k(u, 7).unwrap();
            let want = engine.top_k(u, 7).unwrap();
            assert_eq!(got, want, "user {u}");
        }
        assert_eq!(pipeline.stats().admitted, 16);
        assert_eq!(pipeline.stats().shed, 0);
    }

    #[test]
    fn unknown_user_is_answered_typed_through_the_pipeline() {
        let engine = engine(4, 32, 4, 2);
        let pipeline = AdmissionPipeline::new(engine, AdmissionConfig::default());
        assert!(matches!(
            pipeline.top_k(99, 3),
            Err(ServeError::UnknownUser { user: 99, users: 4 })
        ));
    }

    #[test]
    fn micro_batches_amortize_under_concurrent_load() {
        let engine = engine(64, 300, 8, 4);
        let pipeline = AdmissionPipeline::new(
            Arc::clone(&engine),
            AdmissionConfig {
                capacity: 256,
                max_batch: 16,
            },
        );
        let tickets: Vec<(u32, Ticket)> = (0..64u32)
            .map(|u| (u, pipeline.submit(u, 5).unwrap()))
            .collect();
        for (u, t) in tickets {
            assert_eq!(t.wait().unwrap(), engine.top_k(u, 5).unwrap(), "user {u}");
        }
    }

    #[test]
    fn full_queue_sheds_with_a_typed_error() {
        let engine = engine(8, 64, 4, 2);
        // Capacity 1 and a held dispatcher? Simplest deterministic route:
        // enqueue while the dispatcher races — some submits may process
        // quickly, so drive until a shed is observed or the cap proves
        // unreachable (which would fail the final assertion).
        let pipeline = AdmissionPipeline::new(
            engine,
            AdmissionConfig {
                capacity: 1,
                max_batch: 1,
            },
        );
        let mut shed = 0u64;
        let mut tickets = Vec::new();
        for round in 0..200u32 {
            match pipeline.submit(round % 8, 3) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 1);
                    shed += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(pipeline.stats().shed, shed);
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn drop_drains_admitted_queries() {
        let engine = engine(8, 64, 4, 2);
        let pipeline = AdmissionPipeline::new(Arc::clone(&engine), AdmissionConfig::default());
        let tickets: Vec<Ticket> = (0..8u32)
            .filter_map(|u| pipeline.submit(u, 3).ok())
            .collect();
        drop(pipeline);
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted before drop ⇒ answered");
        }
    }
}
