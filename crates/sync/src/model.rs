//! Deterministic interleaving model checker (a vendored mini-loom).
//!
//! Under `--features model` the facade's types swap to the instrumented
//! versions in this module and [`explore`] drives a **replay-based DFS**
//! over thread interleavings:
//!
//! * Threads are real OS threads, but a cooperative scheduler serializes
//!   them: exactly one runs at a time, and every *visible* operation
//!   (atomic access, `MCell` access, lock acquire/release) is a schedule
//!   point. Scheduling only at visible operations is the first pruning
//!   lever (invisible thread-local work commutes, in the DPOR spirit);
//!   **bounded preemption** ([`Config::preemption_bound`]) is the second.
//! * Every nondeterministic choice (which runnable thread proceeds; which
//!   store an atomic load observes) is recorded on a decision path. After
//!   a schedule completes, the deepest non-exhausted decision is bumped
//!   and the test body re-runs, replaying the prefix — classic stateless
//!   model checking.
//! * Atomics follow a release/acquire **view semantics**: each location
//!   keeps its full store history; a load may observe any store not yet
//!   superseded in the loading thread's per-location view, so stale reads
//!   permitted by `Relaxed` really happen. Release stores publish the
//!   writer's vector clock; acquire loads join it; RMWs read the latest
//!   store and continue release sequences.
//! * [`MCell`] models a plain (non-atomic) shared cell with vector-clock
//!   race detection: any access pair not ordered by happens-before is
//!   reported as a data race — this is what catches a stale heartbeat
//!   statistic when an ordering is weakened.
//!
//! Exploration order is **seeded and deterministic** ([`Config::seed`]
//! rotates the option order at each decision node), so a reported
//! [`Violation`] carries a trace that [`Config::replay`] re-executes
//! exactly. Same seed, same schedule sequence — failures replay bit-for-bit.

use std::cell::{RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

pub use std::sync::atomic::Ordering;
pub use std::sync::Arc;

// ---------------------------------------------------------------------------
// Configuration, results
// ---------------------------------------------------------------------------

/// Exploration knobs. The defaults exhaust every schedule of the
/// real-type cases in `hcc-check` within the preemption bound.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum involuntary context switches per schedule. 2–3 preemptions
    /// expose the overwhelming majority of concurrency bugs (CHESS);
    /// raising it grows the space combinatorially.
    pub preemption_bound: usize,
    /// Hard cap on schedules explored; exceeded ⇒ `Stats::complete = false`.
    pub max_schedules: usize,
    /// Rotates option order at every decision node. Exploration *order*
    /// varies with the seed, the explored *set* does not; a violation
    /// message names the seed so the failing run replays exactly.
    pub seed: u64,
    /// Replay exactly one schedule: the resolved decision trace from a
    /// prior [`Violation`].
    pub replay: Option<Vec<usize>>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: 3,
            max_schedules: 500_000,
            seed: 0x5EED,
            replay: None,
        }
    }
}

/// Exploration summary for a passing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Schedules executed.
    pub schedules: usize,
    /// False when `max_schedules` cut exploration short.
    pub complete: bool,
    /// Deepest decision path seen.
    pub max_depth: usize,
}

/// A failing schedule: the first invariant breach, race, or deadlock found.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Panic payload, race report, or deadlock description.
    pub message: String,
    /// Resolved decision trace; feed to [`Config::replay`] to re-execute.
    pub trace: Vec<usize>,
    /// 1-based index of the failing schedule in exploration order.
    pub schedule: usize,
    /// Seed the exploration ran under.
    pub seed: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model violation (schedule {}, seed {:#x}): {}\n  replay trace: {:?}",
            self.schedule, self.seed, self.message, self.trace
        )
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

const NO_THREAD: usize = usize::MAX;

/// Sentinel panic payload used to unwind model threads on abort.
struct AbortRun;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    /// Parked until another thread transitions it back to `Ready`.
    Blocked,
    Finished,
}

#[derive(Debug, Clone)]
struct ThreadState {
    status: Status,
    /// Vector clock: `vc[t]` = latest epoch of thread `t` ordered before us.
    vc: Vec<u64>,
    /// Per-location coherence floor: smallest store sequence this thread
    /// may still observe at each atomic location.
    seen: BTreeMap<usize, u64>,
    /// Lock (or join target) this thread is parked on, for diagnostics.
    waiting_on: Option<String>,
}

/// One store in a location's modification order.
#[derive(Debug, Clone)]
struct Message {
    val: u64,
    seq: u64,
    /// Coherence knowledge transferred to acquire readers.
    seen: BTreeMap<usize, u64>,
    /// Writer's vector clock if the store (or its release sequence head)
    /// had release semantics.
    vc: Option<Vec<u64>>,
}

#[derive(Debug, Default)]
struct LocState {
    msgs: Vec<Message>,
}

#[derive(Debug, Default)]
struct CellState {
    last_write: Option<(usize, u64)>,
    reads: BTreeMap<usize, u64>,
}

#[derive(Debug)]
struct LockState {
    /// `NO_THREAD` = free; writer tid for a mutex/write lock.
    owner: usize,
    readers: Vec<usize>,
    /// Release clock joined on every acquire.
    vc: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    n: usize,
    pick: usize,
}

struct SchedState {
    active: usize,
    threads: Vec<ThreadState>,
    locs: Vec<LocState>,
    cells: Vec<CellState>,
    locks: Vec<LockState>,
    preemptions: usize,
    preemption_bound: usize,
    seed: u64,
    /// DFS decision path (pre-rotation picks) reused across schedules.
    path: Vec<Node>,
    depth: usize,
    /// Post-rotation picks actually taken this schedule (the replay trace).
    resolved: Vec<usize>,
    replay: Option<Vec<usize>>,
    abort: bool,
    violation: Option<String>,
}

struct Ctx {
    st: StdMutex<SchedState>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static TLS: RefCell<Option<(Arc<Ctx>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (Arc<Ctx>, usize) {
    TLS.with(|t| {
        t.borrow()
            .clone()
            .expect("hcc-sync model type used outside explore() — model structures may only be touched by model threads")
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unwinds the current model thread out of an aborted schedule with the
/// sentinel payload the thread wrapper swallows. Model ops must never be
/// invoked from `Drop` while panicking (the lock guards handle their own
/// abort path), so this cannot double-panic.
fn abort_now() -> ! {
    resume_unwind(Box::new(AbortRun));
}

fn join_vc(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn vc_at(vc: &[u64], t: usize) -> u64 {
    vc.get(t).copied().unwrap_or(0)
}

impl SchedState {
    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
        self.abort = true;
    }

    /// One nondeterministic decision among `n` options. Trivial (n == 1)
    /// decisions are not recorded so the DFS path stays minimal.
    fn decide(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        if let Some(replay) = &self.replay {
            let pick = replay.get(self.resolved.len()).copied().unwrap_or(0);
            self.resolved.push(pick.min(n - 1));
            return pick.min(n - 1);
        }
        let d = self.depth;
        if d == self.path.len() {
            self.path.push(Node { n, pick: 0 });
        }
        let node = self.path[d];
        assert_eq!(
            node.n, n,
            "nondeterministic model: decision {d} had {} options on a prior schedule, {n} now \
             (model bodies must be deterministic apart from interleaving)",
            node.n
        );
        self.depth += 1;
        let rot = (splitmix64(self.seed ^ (d as u64)) % n as u64) as usize;
        let resolved = (node.pick + rot) % n;
        self.resolved.push(resolved);
        resolved
    }

    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Ready)
            .map(|(i, _)| i)
            .collect()
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    /// Picks the next active thread. `voluntary` = the caller is at an
    /// ordinary schedule point and could itself continue.
    fn reschedule(&mut self, me: usize, voluntary: bool) {
        if self.abort {
            self.active = NO_THREAD;
            return;
        }
        let runnable = self.runnable();
        if runnable.is_empty() {
            if !self.all_finished() {
                let stuck: Vec<String> = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status == Status::Blocked)
                    .map(|(i, t)| {
                        format!(
                            "thread {i} on {}",
                            t.waiting_on.as_deref().unwrap_or("<unknown>")
                        )
                    })
                    .collect();
                self.fail(format!("deadlock: {}", stuck.join(", ")));
            }
            self.active = NO_THREAD;
            return;
        }
        let me_runnable = voluntary && runnable.contains(&me);
        let options = if me_runnable && self.preemptions >= self.preemption_bound {
            vec![me]
        } else {
            runnable
        };
        let next = options[self.decide(options.len())];
        if me_runnable && next != me {
            self.preemptions += 1;
        }
        self.active = next;
    }
}

// ---------------------------------------------------------------------------
// Schedule points
// ---------------------------------------------------------------------------

/// Runs `f` on the scheduler state at a schedule point: picks who runs
/// next, waits for this thread's turn, then applies `f` atomically w.r.t.
/// other model threads.
fn visible_op<R>(f: impl FnOnce(&mut SchedState, usize) -> R) -> R {
    let (ctx, me) = ctx();
    let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
    if st.abort {
        drop(st);
        abort_now();
    }
    st.reschedule(me, true);
    ctx.cv.notify_all();
    st = wait_for_turn(&ctx, st, me);
    let r = f(&mut st, me);
    if st.abort {
        drop(st);
        ctx.cv.notify_all();
        abort_now();
    }
    drop(st);
    r
}

fn wait_for_turn<'a>(
    ctx: &'a Ctx,
    mut st: StdMutexGuard<'a, SchedState>,
    me: usize,
) -> StdMutexGuard<'a, SchedState> {
    while st.active != me {
        if st.abort {
            drop(st);
            abort_now();
        }
        st = ctx.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    if st.abort {
        drop(st);
        abort_now();
    }
    st
}

/// Parks the current thread (status already set to Blocked by the caller's
/// closure) and waits until a waker readies it and the scheduler picks it.
fn block_here(ctx: &Arc<Ctx>, mut st: StdMutexGuard<'_, SchedState>, me: usize) {
    st.threads[me].status = Status::Blocked;
    st.reschedule(me, false);
    ctx.cv.notify_all();
    let st = wait_for_turn(ctx, st, me);
    drop(st);
}

/// An explicit no-op schedule point, for models that want to widen the
/// interleaving surface around invisible work.
pub fn thread_yield() {
    visible_op(|_, _| {});
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Handle to a model thread; `join` establishes the usual happens-before
/// edge from everything the child did.
pub struct JoinHandle {
    tid: usize,
}

/// Spawns a model thread. Must be called from inside a model (`explore`
/// body or another model thread).
pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
    let (ctx, me) = ctx();
    let tid;
    {
        let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            abort_now();
        }
        tid = st.threads.len();
        let mut vc = st.threads[me].vc.clone();
        if vc.len() <= tid {
            vc.resize(tid + 1, 0);
        }
        vc[tid] += 1;
        let seen = st.threads[me].seen.clone();
        st.threads.push(ThreadState {
            status: Status::Ready,
            vc,
            seen,
            waiting_on: None,
        });
        let e = st.threads[me].vc.len().max(me + 1);
        st.threads[me].vc.resize(e, 0);
        st.threads[me].vc[me] += 1;
    }
    let handle = run_thread(&ctx, tid, f);
    ctx.handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
    JoinHandle { tid }
}

fn run_thread(
    ctx: &Arc<Ctx>,
    tid: usize,
    f: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    std::thread::spawn(move || {
        TLS.with(|t| *t.borrow_mut() = Some((Arc::clone(&ctx), tid)));
        let aborted_before_start = {
            let st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
            let st = wait_for_turn_or_abort(&ctx, st, tid);
            st.abort
        };
        let result = if aborted_before_start {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(f))
        };
        let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(payload) = result {
            if !payload.is::<AbortRun>() {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "model thread panicked".into());
                st.fail(format!("thread {tid}: {msg}"));
            }
        }
        st.threads[tid].status = Status::Finished;
        // Wake joiners.
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::Blocked
                && st.threads[t].waiting_on.as_deref() == Some(join_key(tid).as_str())
            {
                st.threads[t].status = Status::Ready;
            }
        }
        st.reschedule(tid, false);
        ctx.cv.notify_all();
    })
}

/// Like [`wait_for_turn`] but swallows the abort (the thread has not run
/// any model body yet, so there is nothing to unwind).
fn wait_for_turn_or_abort<'a>(
    ctx: &'a Ctx,
    mut st: StdMutexGuard<'a, SchedState>,
    me: usize,
) -> StdMutexGuard<'a, SchedState> {
    while st.active != me && !st.abort {
        st = ctx.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st
}

fn join_key(tid: usize) -> String {
    format!("join({tid})")
}

impl JoinHandle {
    /// Waits for the thread to finish and joins its clock.
    pub fn join(self) {
        let (ctx, me) = ctx();
        loop {
            let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
            if st.abort {
                drop(st);
                abort_now();
            }
            if st.threads[self.tid].status == Status::Finished {
                let child_vc = st.threads[self.tid].vc.clone();
                let child_seen = st.threads[self.tid].seen.clone();
                join_vc(&mut st.threads[me].vc, &child_vc);
                for (loc, seq) in child_seen {
                    let e = st.threads[me].seen.entry(loc).or_insert(0);
                    *e = (*e).max(seq);
                }
                return;
            }
            st.threads[me].waiting_on = Some(join_key(self.tid));
            block_here(&ctx, st, me);
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics (release/acquire view semantics)
// ---------------------------------------------------------------------------

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// The untyped core every model atomic wraps: one location in the store
/// history table.
///
/// Registration in the table is lazy (first access), which keeps `new`
/// a `const fn`, as std's is. Model code must not reuse an instance
/// across schedules: the location id caches on first touch and each
/// schedule starts a fresh table (the explored bodies construct their
/// values inside the closure, so this holds by construction; a `static`
/// in a type they build would break it).
struct AtomicCore {
    init: u64,
    loc: std::sync::OnceLock<usize>,
}

impl AtomicCore {
    const fn new(init: u64) -> AtomicCore {
        AtomicCore {
            init,
            loc: std::sync::OnceLock::new(),
        }
    }

    fn loc(&self) -> usize {
        *self.loc.get_or_init(|| {
            let (ctx, _me) = ctx();
            let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
            let loc = st.locs.len();
            let mut seen = BTreeMap::new();
            seen.insert(loc, 0);
            st.locs.push(LocState {
                msgs: vec![Message {
                    val: self.init,
                    seq: 0,
                    seen,
                    vc: None,
                }],
            });
            loc
        })
    }

    fn load(&self, ord: Ordering) -> u64 {
        let loc = self.loc();
        visible_op(|st, me| {
            let floor = st.threads[me].seen.get(&loc).copied().unwrap_or(0);
            let candidates: Vec<usize> = st.locs[loc]
                .msgs
                .iter()
                .enumerate()
                .filter(|(_, m)| m.seq >= floor)
                .map(|(i, _)| i)
                .collect();
            let pick = candidates[st.decide(candidates.len())];
            let msg = st.locs[loc].msgs[pick].clone();
            let e = st.threads[me].seen.entry(loc).or_insert(0);
            *e = (*e).max(msg.seq);
            if is_acquire(ord) {
                for (l, s) in &msg.seen {
                    let e = st.threads[me].seen.entry(*l).or_insert(0);
                    *e = (*e).max(*s);
                }
                if let Some(vc) = &msg.vc {
                    join_vc(&mut st.threads[me].vc, vc);
                }
            }
            msg.val
        })
    }

    fn store(&self, val: u64, ord: Ordering) {
        let loc = self.loc();
        visible_op(|st, me| {
            let seq = st.locs[loc].msgs.last().map(|m| m.seq + 1).unwrap_or(0);
            st.threads[me].seen.insert(loc, seq);
            let (seen, vc) = if is_release(ord) {
                (st.threads[me].seen.clone(), Some(st.threads[me].vc.clone()))
            } else {
                let mut s = BTreeMap::new();
                s.insert(loc, seq);
                (s, None)
            };
            st.locs[loc].msgs.push(Message { val, seq, seen, vc });
            if is_release(ord) {
                let e = st.threads[me].vc.len().max(me + 1);
                st.threads[me].vc.resize(e, 0);
                st.threads[me].vc[me] += 1;
            }
        })
    }

    /// Atomic read-modify-write: reads the **latest** store (modification-
    /// order atomicity) and continues its release sequence.
    fn rmw(&self, ord: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        let loc = self.loc();
        visible_op(|st, me| {
            let tail = st.locs[loc].msgs.last().cloned().expect("init message");
            let old = tail.val;
            let new = f(old);
            let seq = tail.seq + 1;
            st.threads[me].seen.insert(loc, seq);
            if is_acquire(ord) {
                for (l, s) in &tail.seen {
                    let e = st.threads[me].seen.entry(*l).or_insert(0);
                    *e = (*e).max(*s);
                }
                if let Some(vc) = &tail.vc {
                    join_vc(&mut st.threads[me].vc, vc);
                }
            }
            // Release sequence: the new message keeps the tail's release
            // clock even when this RMW itself is not a release.
            let mut vc = tail.vc.clone();
            let mut seen = tail.seen.clone();
            if is_release(ord) {
                let mine = st.threads[me].vc.clone();
                match &mut vc {
                    Some(v) => join_vc(v, &mine),
                    None => vc = Some(mine),
                }
                for (l, s) in st.threads[me].seen.clone() {
                    let e = seen.entry(l).or_insert(0);
                    *e = (*e).max(s);
                }
            }
            seen.insert(loc, seq);
            st.locs[loc].msgs.push(Message {
                val: new,
                seq,
                seen,
                vc,
            });
            if is_release(ord) {
                let e = st.threads[me].vc.len().max(me + 1);
                st.threads[me].vc.resize(e, 0);
                st.threads[me].vc[me] += 1;
            }
            old
        })
    }

    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let loc = self.loc();
        // Peek the tail under a single visible op; branch to RMW or
        // failed-load semantics inside it so the CAS stays atomic.
        visible_op(|st, me| {
            let tail = st.locs[loc].msgs.last().cloned().expect("init message");
            if tail.val == current {
                let ord = success;
                let seq = tail.seq + 1;
                st.threads[me].seen.insert(loc, seq);
                if is_acquire(ord) {
                    for (l, s) in &tail.seen {
                        let e = st.threads[me].seen.entry(*l).or_insert(0);
                        *e = (*e).max(*s);
                    }
                    if let Some(vc) = &tail.vc {
                        join_vc(&mut st.threads[me].vc, vc);
                    }
                }
                let mut vc = tail.vc.clone();
                let mut seen = tail.seen.clone();
                if is_release(ord) {
                    let mine = st.threads[me].vc.clone();
                    match &mut vc {
                        Some(v) => join_vc(v, &mine),
                        None => vc = Some(mine),
                    }
                    for (l, s) in st.threads[me].seen.clone() {
                        let e = seen.entry(l).or_insert(0);
                        *e = (*e).max(s);
                    }
                }
                seen.insert(loc, seq);
                st.locs[loc].msgs.push(Message {
                    val: new,
                    seq,
                    seen,
                    vc,
                });
                if is_release(ord) {
                    let e = st.threads[me].vc.len().max(me + 1);
                    st.threads[me].vc.resize(e, 0);
                    st.threads[me].vc[me] += 1;
                }
                Ok(current)
            } else {
                // Failed CAS: a load of the latest value.
                let e = st.threads[me].seen.entry(loc).or_insert(0);
                *e = (*e).max(tail.seq);
                if is_acquire(failure) {
                    for (l, s) in &tail.seen {
                        let e = st.threads[me].seen.entry(*l).or_insert(0);
                        *e = (*e).max(*s);
                    }
                    if let Some(vc) = &tail.vc {
                        join_vc(&mut st.threads[me].vc, vc);
                    }
                }
                Err(tail.val)
            }
        })
    }
}

macro_rules! model_atomic {
    ($name:ident, $ty:ty) => {
        /// Model-checked drop-in for the `std::sync::atomic` type of the
        /// same name (subset of the API the workspace uses).
        pub struct $name {
            core: AtomicCore,
        }

        impl $name {
            #[allow(clippy::new_without_default)]
            pub const fn new(v: $ty) -> Self {
                Self {
                    core: AtomicCore::new(v as u64),
                }
            }

            pub fn load(&self, ord: Ordering) -> $ty {
                self.core.load(ord) as $ty
            }

            pub fn store(&self, v: $ty, ord: Ordering) {
                self.core.store(v as u64, ord)
            }

            pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                self.core.rmw(ord, |_| v as u64) as $ty
            }

            pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                self.core.rmw(ord, |x| (x as $ty).wrapping_add(v) as u64) as $ty
            }

            pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                self.core.rmw(ord, |x| (x as $ty).wrapping_sub(v) as u64) as $ty
            }

            pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                self.core.rmw(ord, |x| (x as $ty).max(v) as u64) as $ty
            }

            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.core
                    .compare_exchange(current as u64, new as u64, success, failure)
                    .map(|v| v as $ty)
                    .map_err(|v| v as $ty)
            }
        }

        // Opaque on purpose: reading the value would be a schedule point
        // (and panic outside `explore`), which a Debug impl must never be.
        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(concat!("model::", stringify!($name)))
            }
        }
    };
}

model_atomic!(AtomicU8, u8);
model_atomic!(AtomicU32, u32);
model_atomic!(AtomicU64, u64);
model_atomic!(AtomicUsize, usize);

/// Model-checked `AtomicBool` (bools ride the same u64 core).
pub struct AtomicBool {
    core: AtomicCore,
}

impl AtomicBool {
    #[allow(clippy::new_without_default)]
    pub const fn new(v: bool) -> Self {
        Self {
            core: AtomicCore::new(v as u64),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        self.core.load(ord) != 0
    }

    pub fn store(&self, v: bool, ord: Ordering) {
        self.core.store(v as u64, ord)
    }

    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        self.core.rmw(ord, |_| v as u64) != 0
    }
}

// Opaque for the same reason as the macro-generated atomics above.
impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("model::AtomicBool")
    }
}

// ---------------------------------------------------------------------------
// MCell: plain shared memory with race detection
// ---------------------------------------------------------------------------

/// A modeled **non-atomic** shared cell. Reads and writes are schedule
/// points checked with vector clocks: two accesses (at least one a write)
/// not ordered by happens-before abort the schedule with a data-race
/// violation. This is the model-world stand-in for the bytes behind an
/// `UnsafeCell` / raw pointer in the real tree.
pub struct MCell<T: Copy> {
    id: usize,
    name: &'static str,
    // SHARED: value — the modeled plain cell; every access goes through
    // read()/write() below, which serialize under the scheduler and
    // vector-clock-check the access pair, so the UnsafeCell is never
    // touched concurrently.
    value: UnsafeCell<T>,
}

// SAFETY: the scheduler runs exactly one model thread at a time and every
// access is race-checked; see the struct docs.
unsafe impl<T: Copy + Send> Sync for MCell<T> {}
// SAFETY: T: Send and the cell owns its value.
unsafe impl<T: Copy + Send> Send for MCell<T> {}

impl<T: Copy> MCell<T> {
    pub fn new(name: &'static str, v: T) -> MCell<T> {
        let (ctx, _me) = ctx();
        let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
        let id = st.cells.len();
        st.cells.push(CellState::default());
        MCell {
            id,
            name,
            value: UnsafeCell::new(v),
        }
    }

    pub fn read(&self) -> T {
        let id = self.id;
        let name = self.name;
        visible_op(|st, me| {
            if let Some((t, e)) = st.cells[id].last_write {
                if t != me && vc_at(&st.threads[me].vc, t) < e {
                    st.fail(format!(
                        "data race on `{name}`: write by thread {t} is not ordered before \
                         read by thread {me}"
                    ));
                }
            }
            let epoch = vc_at(&st.threads[me].vc, me);
            let r = st.cells[id].reads.entry(me).or_insert(0);
            *r = (*r).max(epoch);
        });
        // SAFETY: serialized by the scheduler; a racing pair aborted the
        // schedule inside visible_op and never reaches this read.
        unsafe { *self.value.get() }
    }

    pub fn write(&self, v: T) {
        let id = self.id;
        let name = self.name;
        visible_op(|st, me| {
            if let Some((t, e)) = st.cells[id].last_write {
                if t != me && vc_at(&st.threads[me].vc, t) < e {
                    st.fail(format!(
                        "data race on `{name}`: write by thread {t} is not ordered before \
                         write by thread {me}"
                    ));
                }
            }
            let racing_read = st.cells[id]
                .reads
                .iter()
                .find(|(&t, &e)| t != me && vc_at(&st.threads[me].vc, t) < e)
                .map(|(&t, _)| t);
            if let Some(t) = racing_read {
                st.fail(format!(
                    "data race on `{name}`: read by thread {t} is not ordered before \
                     write by thread {me}"
                ));
            }
            let epoch = vc_at(&st.threads[me].vc, me);
            st.cells[id].last_write = Some((me, epoch));
            st.cells[id].reads.clear();
        });
        // SAFETY: serialized by the scheduler; a racing pair aborted the
        // schedule inside visible_op and never reaches this write.
        unsafe { *self.value.get() = v }
    }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

fn new_lock() -> usize {
    let (ctx, _me) = ctx();
    let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
    let id = st.locks.len();
    st.locks.push(LockState {
        owner: NO_THREAD,
        readers: Vec::new(),
        vc: Vec::new(),
    });
    id
}

fn lock_exclusive(id: usize, what: &str) {
    let (ctx, me) = ctx();
    loop {
        visible_op(|_, _| {});
        let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            abort_now();
        }
        if st.locks[id].owner == NO_THREAD && st.locks[id].readers.is_empty() {
            st.locks[id].owner = me;
            let vc = st.locks[id].vc.clone();
            join_vc(&mut st.threads[me].vc, &vc);
            return;
        }
        st.threads[me].waiting_on = Some(format!("{what}({id})"));
        block_here(&ctx, st, me);
    }
}

fn unlock_exclusive(id: usize) {
    let (ctx, me) = ctx();
    let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
    if st.abort {
        if std::thread::panicking() {
            return; // guard drop during an abort unwind
        }
        drop(st);
        abort_now();
    }
    st.locks[id].owner = NO_THREAD;
    let mine = st.threads[me].vc.clone();
    join_vc(&mut st.locks[id].vc, &mine);
    let e = st.threads[me].vc.len().max(me + 1);
    st.threads[me].vc.resize(e, 0);
    st.threads[me].vc[me] += 1;
    wake_lock_waiters(&mut st, id);
    ctx.cv.notify_all();
}

fn lock_shared(id: usize) {
    let (ctx, me) = ctx();
    loop {
        visible_op(|_, _| {});
        let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            abort_now();
        }
        if st.locks[id].owner == NO_THREAD {
            st.locks[id].readers.push(me);
            let vc = st.locks[id].vc.clone();
            join_vc(&mut st.threads[me].vc, &vc);
            return;
        }
        st.threads[me].waiting_on = Some(format!("rwlock-read({id})"));
        block_here(&ctx, st, me);
    }
}

fn unlock_shared(id: usize) {
    let (ctx, me) = ctx();
    let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
    if st.abort {
        if std::thread::panicking() {
            return;
        }
        drop(st);
        abort_now();
    }
    st.locks[id].readers.retain(|&t| t != me);
    let mine = st.threads[me].vc.clone();
    join_vc(&mut st.locks[id].vc, &mine);
    let e = st.threads[me].vc.len().max(me + 1);
    st.threads[me].vc.resize(e, 0);
    st.threads[me].vc[me] += 1;
    wake_lock_waiters(&mut st, id);
    ctx.cv.notify_all();
}

fn wake_lock_waiters(st: &mut SchedState, id: usize) {
    let keys = [
        format!("mutex({id})"),
        format!("rwlock-write({id})"),
        format!("rwlock-read({id})"),
    ];
    for t in 0..st.threads.len() {
        if st.threads[t].status == Status::Blocked
            && st.threads[t]
                .waiting_on
                .as_deref()
                .is_some_and(|w| keys.iter().any(|k| k == w))
        {
            st.threads[t].status = Status::Ready;
        }
    }
}

/// Model-checked mutual-exclusion lock (parking_lot-shaped API).
pub struct Mutex<T> {
    id: usize,
    // SHARED: data — guarded by the modeled lock; accessed only through
    // guards handed out while `owner == me`, never concurrently.
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` requires holding the modeled lock, and the
// scheduler serializes model threads.
unsafe impl<T: Send> Sync for Mutex<T> {}
// SAFETY: the mutex owns its value.
unsafe impl<T: Send> Send for Mutex<T> {}

impl<T> Mutex<T> {
    pub fn new(v: T) -> Mutex<T> {
        Mutex {
            id: new_lock(),
            data: UnsafeCell::new(v),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        lock_exclusive(self.id, "mutex");
        MutexGuard { m: self }
    }

    /// Consumes the mutex and returns its value. Owning the mutex means no
    /// guard is alive, so this is not a schedule point.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// Guard for [`Mutex`]; unlocks (a visible operation) on drop.
pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard existence == lock held; see Mutex.
        unsafe { &*self.m.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: guard existence == exclusive lock held; see Mutex.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        unlock_exclusive(self.m.id);
    }
}

/// Model-checked reader-writer lock (parking_lot-shaped API).
pub struct RwLock<T> {
    id: usize,
    // SHARED: data — guarded by the modeled lock: shared by readers,
    // exclusive to the writer, never mixed.
    data: UnsafeCell<T>,
}

// SAFETY: see Mutex — guarded access only, serialized scheduler.
unsafe impl<T: Send + Sync> Sync for RwLock<T> {}
// SAFETY: the lock owns its value.
unsafe impl<T: Send> Send for RwLock<T> {}

impl<T> RwLock<T> {
    pub fn new(v: T) -> RwLock<T> {
        RwLock {
            id: new_lock(),
            data: UnsafeCell::new(v),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        lock_shared(self.id);
        RwLockReadGuard { l: self }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        lock_exclusive(self.id, "rwlock-write");
        RwLockWriteGuard { l: self }
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    l: &'a RwLock<T>,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: read guard held — no writer can hold the lock.
        unsafe { &*self.l.data.get() }
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        unlock_shared(self.l.id);
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    l: &'a RwLock<T>,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: write guard held — exclusive.
        unsafe { &*self.l.data.get() }
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: write guard held — exclusive.
        unsafe { &mut *self.l.data.get() }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        unlock_exclusive(self.l.id);
    }
}

/// Model condition variable. `wait` releases the lock, yields, and
/// re-acquires — i.e. every wakeup is spurious, which over-approximates
/// real condvar behavior (models must re-check their predicate, exactly as
/// correct condvar code does).
pub struct Condvar;

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Condvar {
        Condvar
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let id = guard.m.id;
        unlock_exclusive(id);
        thread_yield();
        lock_exclusive(id, "mutex");
    }

    pub fn notify_one(&self) {
        thread_yield();
    }

    pub fn notify_all(&self) {
        thread_yield();
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Explores every interleaving of `f` under [`Config::default`].
pub fn explore(f: impl Fn() + Send + Sync + 'static) -> Result<Stats, Violation> {
    explore_seeded(Config::default(), f)
}

/// Explores every interleaving of `f` (bounded preemption, seeded
/// deterministic order). Returns the first violation found — invariant
/// panic, data race, or deadlock — with its replayable trace.
pub fn explore_seeded(
    cfg: Config,
    f: impl Fn() + Send + Sync + 'static,
) -> Result<Stats, Violation> {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut path: Vec<Node> = Vec::new();
    let mut stats = Stats {
        schedules: 0,
        complete: true,
        max_depth: 0,
    };
    loop {
        stats.schedules += 1;
        let (outcome, new_path, depth) = run_once(&cfg, &f, path);
        path = new_path;
        stats.max_depth = stats.max_depth.max(depth);
        if let Some(v) = outcome {
            return Err(Violation {
                message: v.0,
                trace: v.1,
                schedule: stats.schedules,
                seed: cfg.seed,
            });
        }
        if cfg.replay.is_some() {
            return Ok(stats); // replay mode runs exactly one schedule
        }
        if !backtrack(&mut path) {
            return Ok(stats);
        }
        if stats.schedules >= cfg.max_schedules {
            stats.complete = false;
            return Ok(stats);
        }
    }
}

/// Advances the DFS: bumps the deepest non-exhausted decision, dropping
/// exhausted suffixes. False when the space is exhausted.
fn backtrack(path: &mut Vec<Node>) -> bool {
    while let Some(last) = path.last_mut() {
        if last.pick + 1 < last.n {
            last.pick += 1;
            return true;
        }
        path.pop();
    }
    false
}

type RunOutcome = (Option<(String, Vec<usize>)>, Vec<Node>, usize);

fn run_once(cfg: &Config, f: &Arc<dyn Fn() + Send + Sync>, path: Vec<Node>) -> RunOutcome {
    let ctx = Arc::new(Ctx {
        st: StdMutex::new(SchedState {
            active: 0,
            threads: vec![ThreadState {
                status: Status::Ready,
                vc: vec![1],
                seen: BTreeMap::new(),
                waiting_on: None,
            }],
            locs: Vec::new(),
            cells: Vec::new(),
            locks: Vec::new(),
            preemptions: 0,
            preemption_bound: cfg.preemption_bound,
            seed: cfg.seed,
            path,
            depth: 0,
            resolved: Vec::new(),
            replay: cfg.replay.clone(),
            abort: false,
            violation: None,
        }),
        cv: StdCondvar::new(),
        handles: StdMutex::new(Vec::new()),
    });

    // Root thread (tid 0) runs the model body; it may spawn more.
    let f = Arc::clone(f);
    let root = run_thread(&ctx, 0, move || f());
    ctx.handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(root);

    // Wait for the whole thread tree to finish (spawn pushes handles as it
    // goes; all threads are Finished before the last handle returns).
    {
        let mut st = ctx.st.lock().unwrap_or_else(|e| e.into_inner());
        while !st.all_finished() {
            st = ctx.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    loop {
        let h = ctx.handles.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match h {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }

    // All threads exited, so every `Arc<Ctx>` clone (thread-locals, thread
    // closures) is gone and the state can move out of its mutex. Poisoning
    // is expected: a violating model thread panics by design.
    let ctx = match Arc::try_unwrap(ctx) {
        Ok(c) => c,
        Err(_) => unreachable!("all model threads joined, no Ctx clones can remain"),
    };
    let mut st = ctx.st.into_inner().unwrap_or_else(|e| e.into_inner());
    let depth = st.depth;
    let outcome = st
        .violation
        .take()
        .map(|msg| (msg, std::mem::take(&mut st.resolved)));
    (outcome, st.path, depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic message passing: Release/Acquire makes the data write
    /// visible; the explorer must find no violation anywhere.
    #[test]
    fn message_passing_release_acquire_is_clean() {
        let stats = explore(|| {
            let data = Arc::new(MCell::new("data", 0u32));
            let flag = Arc::new(AtomicU64::new(0));
            let (d, fl) = (Arc::clone(&data), Arc::clone(&flag));
            let t = spawn(move || {
                d.write(42);
                fl.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.read(), 42, "acquire saw the flag but not the data");
            }
            t.join();
        })
        .expect("release/acquire message passing must be clean");
        assert!(stats.complete, "space must be exhausted: {stats:?}");
        assert!(stats.schedules > 1, "must explore >1 interleaving");
    }

    /// The same protocol with the publisher's store weakened to Relaxed
    /// must be caught as a data race on `data`.
    #[test]
    fn message_passing_relaxed_store_races() {
        let v = explore(|| {
            let data = Arc::new(MCell::new("data", 0u32));
            let flag = Arc::new(AtomicU64::new(0));
            let (d, fl) = (Arc::clone(&data), Arc::clone(&flag));
            let t = spawn(move || {
                d.write(42);
                fl.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 1 {
                let _ = data.read();
            }
            t.join();
        })
        .expect_err("relaxed publish must race");
        assert!(v.message.contains("data race"), "{v}");
    }

    /// A Relaxed load may legitimately observe a stale value even after
    /// the store ran first in wall-clock order — the view semantics must
    /// expose that schedule.
    #[test]
    fn relaxed_load_can_be_stale() {
        let v = explore(|| {
            let flag = Arc::new(AtomicU64::new(0));
            let fl = Arc::clone(&flag);
            let t = spawn(move || {
                fl.store(1, Ordering::Relaxed);
                fl.store(2, Ordering::Relaxed);
            });
            t.join();
            // After join the writes happened, but only joining the clock —
            // not the coherence floor — would let 0 be read. The model
            // propagates `seen` through join, so 2 is forced here…
            let seen = flag.load(Ordering::Relaxed);
            assert_eq!(seen, 2, "post-join load saw {seen}");
        });
        assert!(v.is_ok(), "join must carry the coherence floor: {v:?}");
    }

    /// AB/BA lock order must be reported as a deadlock.
    #[test]
    fn lock_order_inversion_deadlocks() {
        let v = explore(|| {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop(_ga);
            drop(_gb);
            t.join();
        })
        .expect_err("AB/BA must deadlock in some schedule");
        assert!(v.message.contains("deadlock"), "{v}");
    }

    /// Same seed ⇒ identical failing schedule and trace (determinism).
    #[test]
    fn violations_replay_deterministically() {
        let body = || {
            let c = Arc::new(MCell::new("cell", 0u32));
            let c2 = Arc::clone(&c);
            let t = spawn(move || c2.write(1));
            c.write(2); // unsynchronized write/write race
            t.join();
        };
        let cfg = Config {
            seed: 7,
            ..Config::default()
        };
        let v1 = explore_seeded(cfg.clone(), body).expect_err("racy");
        let v2 = explore_seeded(cfg.clone(), body).expect_err("racy");
        assert_eq!(v1.trace, v2.trace);
        assert_eq!(v1.schedule, v2.schedule);
        // And the recorded trace replays to the same failure.
        let replay = Config {
            replay: Some(v1.trace.clone()),
            ..cfg
        };
        let vr = explore_seeded(replay, body).expect_err("replay hits the race");
        assert_eq!(vr.message, v1.message);
    }

    /// Lost-update: two Relaxed RMWs never lose increments (modification
    /// order), but plain load+store does in some schedule.
    #[test]
    fn rmw_atomicity_vs_load_store() {
        let ok = explore(|| {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = Arc::clone(&n);
            // ordering: Relaxed — RMW atomicity is what's under test.
            let t = spawn(move || {
                n2.fetch_add(1, Ordering::Relaxed);
            });
            n.fetch_add(1, Ordering::Relaxed);
            t.join();
            assert_eq!(n.load(Ordering::Relaxed), 2);
        });
        assert!(ok.is_ok(), "atomic RMWs cannot lose updates: {ok:?}");

        let v = explore(|| {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = Arc::clone(&n);
            // ordering: Relaxed — the lost-update bug is the point.
            let t = spawn(move || {
                let x = n2.load(Ordering::Relaxed);
                n2.store(x + 1, Ordering::Relaxed);
            });
            let x = n.load(Ordering::Relaxed);
            n.store(x + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
        })
        .expect_err("load+store increment must lose an update in some schedule");
        assert!(v.message.contains("lost update"), "{v}");
    }

    /// A writer that updates a pair in one write section never shows a
    /// reader a mixed pair; splitting the update into two sections does.
    #[test]
    fn rwlock_pair_is_torn_only_across_two_write_sections() {
        fn body(sections: usize) -> impl Fn() + Send + Sync + 'static {
            move || {
                let pair = Arc::new(RwLock::new((0u32, 0u32)));
                let p = Arc::clone(&pair);
                let t = spawn(move || {
                    if sections == 1 {
                        *p.write() = (1, 1);
                    } else {
                        p.write().0 = 1;
                        p.write().1 = 1;
                    }
                });
                let (a, b) = *pair.read();
                assert_eq!(a, b, "mixed pair");
                t.join();
            }
        }
        let stats = explore(body(1)).expect("one write section is atomic to readers");
        assert!(stats.complete && stats.schedules > 1, "{stats:?}");
        let v = explore(body(2)).expect_err("two write sections expose a mixed pair");
        assert!(v.message.contains("mixed pair"), "{v}");
    }

    /// Each thread writes its own cell, then counts down; the one that
    /// reaches zero reads both cells. `AcqRel` carries the other thread's
    /// write to it through the RMW chain; `Relaxed` races.
    #[test]
    fn last_decrementer_needs_acqrel_to_read_the_other_cell() {
        fn body(ord: Ordering) -> impl Fn() + Send + Sync + 'static {
            move || {
                let cells = Arc::new([MCell::new("cell0", 0u32), MCell::new("cell1", 0u32)]);
                let left = Arc::new(AtomicUsize::new(2));
                let (c, l) = (Arc::clone(&cells), Arc::clone(&left));
                let finish = move |me: usize, cells: &[MCell<u32>; 2], left: &AtomicUsize| {
                    cells[me].write(1);
                    if left.fetch_sub(1, ord) == 1 {
                        assert_eq!(cells[0].read() + cells[1].read(), 2);
                    }
                };
                let t = spawn(move || finish(1, &c, &l));
                finish(0, &cells, &left);
                t.join();
            }
        }
        let stats = explore(body(Ordering::AcqRel)).expect("AcqRel countdown is clean");
        assert!(stats.complete && stats.schedules > 1, "{stats:?}");
        let v = explore(body(Ordering::Relaxed)).expect_err("Relaxed countdown races");
        assert!(v.message.contains("data race"), "{v}");
    }

    /// `into_inner` returns what the last guard left, after a join.
    #[test]
    fn into_inner_returns_the_last_write() {
        explore(|| {
            let m = Arc::new(Mutex::new(vec![0u32]));
            let m2 = Arc::clone(&m);
            let t = spawn(move || m2.lock().push(1));
            m.lock().push(2);
            t.join();
            let mut v = Arc::try_unwrap(m).ok().expect("sole owner").into_inner();
            v.sort_unstable();
            assert_eq!(v, [0, 1, 2]);
        })
        .expect("into_inner round trip");
    }
}
