//! Overload chaos for the async admission pipeline: saturate the bounded
//! queue well past capacity and demand the three load-shedding guarantees
//! hold together — admitted queries finish with bounded tail latency,
//! everything over capacity is shed with a typed error (never silently
//! dropped, never blocking the caller), and the sheds are visible in the
//! telemetry timeline, not just the in-process counters.
//!
//! Seeded by `CHAOS_SEED` (default 1) like `tests/chaos.rs`, so CI can
//! sweep a seed matrix while any single seed replays the same query
//! schedule. The *interleaving* of submitter vs dispatcher is still the
//! OS's choice — the assertions are therefore structural (counts balance,
//! bounds hold) rather than exact-trace.

use hcc_serve::{
    AdmissionConfig, AdmissionPipeline, Precision, ServeEngine, ServeError, ServedModel, Ticket,
};
use hcc_sgd::FactorMatrix;
use hcc_telemetry::{Event, Header, Telemetry};
use std::sync::Arc;
use std::time::Instant;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

const USERS: usize = 128;
const ITEMS: usize = 4_096;
const K: usize = 32;
const SHARDS: usize = 4;

/// f32 exhaustive (no norm pruning), so every query pays a full catalogue
/// scan: the point is queueing behaviour under real per-query work, and
/// pruning would make the skewless random catalogue artificially cheap.
fn overload_engine(seed: u64, lane_capacity: usize) -> Arc<ServeEngine> {
    let model = ServedModel::build_with(
        FactorMatrix::random(USERS, K, seed),
        FactorMatrix::random(ITEMS, K, seed ^ 0x5eed),
        None,
        SHARDS,
        Precision::F32,
        false,
    )
    .unwrap();
    let telemetry = Telemetry::enabled(
        Header {
            workers: model.shard_count() as u32,
            k: K as u32,
            nnz: 0,
            strategy: "serve".into(),
            streams: 1,
            backend: hcc_sgd::simd::active_backend().name().into(),
            schedule: "serve".into(),
        },
        lane_capacity,
    );
    Arc::new(ServeEngine::with_telemetry(model, telemetry))
}

#[test]
fn overload_sheds_typed_and_keeps_admitted_tail_latency_bounded() {
    let seed = chaos_seed();
    let capacity = 16usize;
    let max_batch = 8usize;
    let total = 4 * capacity; // saturate at 4x queue capacity
    let engine = overload_engine(seed, 4 * total);

    // Calibrate per-query service time on the synchronous path (also warms
    // the scan): the latency bound below is relative to real machine speed,
    // not an absolute number that flakes on slow CI.
    let calib = 8u32;
    let t0 = Instant::now();
    for u in 0..calib {
        engine.top_k(u % USERS as u32, 10).unwrap();
    }
    let per_query_us = t0.elapsed().as_secs_f64() * 1e6 / calib as f64;

    let pipeline = AdmissionPipeline::new(
        Arc::clone(&engine),
        AdmissionConfig {
            capacity,
            max_batch,
        },
    );

    // Burst `total` submissions as fast as the queue lock allows; a seeded
    // LCG picks the users. The submitter never blocks: each query either
    // admits with a ticket or sheds with the typed overload error.
    let mut state = seed | 1;
    let mut tickets: Vec<(u32, Ticket)> = Vec::new();
    let mut shed = 0u64;
    for _ in 0..total {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let user = (state >> 33) as u32 % USERS as u32;
        match pipeline.submit(user, 10) {
            Ok(t) => tickets.push((user, t)),
            Err(ServeError::Overloaded { capacity: c }) => {
                assert_eq!(
                    c, capacity,
                    "overload error reports the configured capacity"
                );
                shed += 1;
            }
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
    }

    // Conservation: every submission either got a ticket or was shed, and
    // the pipeline's own counters agree with the caller's view.
    assert_eq!(tickets.len() as u64 + shed, total as u64);
    let stats = pipeline.stats();
    assert_eq!(stats.admitted, tickets.len() as u64);
    assert_eq!(stats.shed, shed);
    assert!(
        shed > 0,
        "4x-capacity burst must shed: {total} submitted into capacity {capacity}"
    );

    // Every admitted query completes; latencies land in the engine
    // reservoir as each micro-batch answers.
    let answers: Vec<(u32, Vec<(u32, f32)>)> = tickets
        .into_iter()
        .map(|(user, t)| {
            let got = t.wait().unwrap_or_else(|e| panic!("user {user}: {e:?}"));
            (user, got)
        })
        .collect();

    // Bounded tail latency for admitted queries: the worst admitted query
    // waits behind at most (queue capacity + two in-flight jobs) queries
    // plus its own batch — the sync_channel backpressure between
    // dispatcher and workers is what caps the in-flight part. Slack
    // factor 50 absorbs debug-build scheduling noise while still failing
    // if backpressure stops working and latency grows with the burst size
    // instead of the queue bound.
    let backlog_bound = (capacity + 3 * max_batch) as f64;
    let p99_bound_us = 50.0 * backlog_bound * per_query_us;
    let p99_us = engine.stats().p99_us as f64;
    assert!(
        p99_us > 0.0 && p99_us <= p99_bound_us,
        "admitted p99 {p99_us:.0}us outside (0, {p99_bound_us:.0}us] \
         (per-query ~{per_query_us:.0}us, backlog bound {backlog_bound})"
    );

    // Answers match the synchronous path exactly (same scan kernels, same
    // deterministic merge tie-break).
    for (user, got) in &answers {
        assert_eq!(got, &engine.top_k(*user, 10).unwrap(), "user {user}");
    }

    // Shutdown joins dispatcher + workers, releasing the engine Arc; the
    // drained timeline must carry the sheds, not just the atomic counters.
    drop(pipeline);
    let timeline = Arc::try_unwrap(engine)
        .expect("pipeline shutdown released every engine handle")
        .finish_telemetry()
        .expect("telemetry was enabled");
    let mut max_shed = 0u64;
    let mut admitted_via_events = 0u64;
    let mut saw_admission_event = false;
    for e in &timeline.events {
        if let Event::Admission {
            epoch,
            depth,
            shed: s,
            admitted,
        } = e
        {
            saw_admission_event = true;
            assert_eq!(*epoch, 0, "serving admission events carry epoch 0");
            assert!(
                *depth <= capacity as u64,
                "sampled queue depth {depth} exceeds capacity {capacity}"
            );
            max_shed = max_shed.max(*s);
            admitted_via_events += admitted;
        }
    }
    assert!(saw_admission_event, "dispatcher records admission samples");
    assert_eq!(
        max_shed, shed,
        "cumulative shed count in the timeline matches the caller's"
    );
    assert_eq!(
        admitted_via_events, stats.admitted,
        "per-drain admitted counts sum to the admitted total"
    );
}

/// A hot reload to a model with different factors *and* a different shard
/// count lands while 256 admitted queries are in flight. A micro-batch is
/// scanned against the one snapshot its dispatcher took — every worker of
/// the job strides over that snapshot's shards — so each answer must be
/// exactly `top_k` on the old model or exactly `top_k` on the new one:
/// never shards of one merged with shards of the other. Queries answered
/// before the reload saw the old model; queries submitted after `reload`
/// returned are dispatched after it and see the new one.
#[test]
fn reload_to_another_shard_count_mid_stream_never_mixes_snapshots() {
    let seed = chaos_seed();
    let build = |seed: u64, shards: usize| {
        ServedModel::build_with(
            FactorMatrix::random(USERS, K, seed),
            FactorMatrix::random(ITEMS, K, seed ^ 0x5eed),
            None,
            shards,
            Precision::F32,
            false,
        )
        .unwrap()
    };
    let (old, new) = (build(seed, 3), build(seed + 100, 5));
    let on_old = ServeEngine::new(old.clone());
    let on_new = ServeEngine::new(new.clone());
    let engine = Arc::new(ServeEngine::new(old));
    let pipeline = AdmissionPipeline::new(
        Arc::clone(&engine),
        AdmissionConfig {
            capacity: 256,
            max_batch: 16,
        },
    );

    let submit = |i: u32| {
        let user = (i * 37) % USERS as u32;
        (
            user,
            pipeline.submit(user, 10).expect("queue holds all 256"),
        )
    };
    // The first answer back means the dispatcher is draining the queue in
    // batches of 16 on the old model while ~100 queries still wait: the
    // reload below lands in the middle of them.
    let mut before: Vec<(u32, Ticket)> = (0..128).map(submit).collect();
    let (first_user, first) = before.remove(0);
    assert_eq!(first.wait().unwrap(), on_old.top_k(first_user, 10).unwrap());
    engine.reload(new);
    let after: Vec<(u32, Ticket)> = (128..256).map(submit).collect();

    for (user, ticket) in before {
        let got = ticket.wait().unwrap();
        let is_old = got == on_old.top_k(user, 10).unwrap();
        let is_new = got == on_new.top_k(user, 10).unwrap();
        assert!(
            is_old != is_new,
            "user {user}: old {is_old}, new {is_new}: {got:?}"
        );
    }
    for (user, ticket) in after {
        assert_eq!(
            ticket.wait().unwrap(),
            on_new.top_k(user, 10).unwrap(),
            "user {user}"
        );
    }
    assert_eq!(pipeline.stats().shed, 0);
    assert_eq!(engine.stats().reloads, 1);
}
