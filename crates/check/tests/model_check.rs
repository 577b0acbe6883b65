//! Stage 2: the deterministic interleaving suite over the shipped types.
//!
//! Each case builds real workspace values — the supervisor's
//! `HeartbeatBoard`, a `ServeEngine`, a `Telemetry` handle — inside
//! `explore`, where their `hcc_sync` imports are the instrumented types,
//! and asserts an invariant on every schedule within the preemption bound.
//! A case must exhaust its space (`complete`) and be concurrent (more than
//! one schedule). The explorer's own teeth (a weakened ordering or a split
//! critical section is caught, failures replay) are `hcc-sync`'s tests.
//!
//! Runs only under `--features model`:
//! `cargo test -p hcc-check --features model`.

#![cfg(feature = "model")]

use hcc_mf::supervisor::HeartbeatBoard;
use hcc_mf::{FactorMatrix, ServeEngine, ServedModel, Telemetry};
use hcc_sync::{explore_seeded, spawn, Arc, Config, MCell};
use hcc_telemetry::{Event, Header};

/// `(shipped type, body)` for every case.
const CASES: [(&str, fn()); 3] = [
    ("HeartbeatBoard", heartbeat_board),
    ("ServeEngine", serve_engine_reload),
    ("Telemetry", telemetry_lane),
];

fn cfg(seed: u64) -> Config {
    Config {
        seed,
        ..Config::default()
    }
}

/// A worker writes its stats, beats, makes its last write and dies. A
/// reader that sees the beat (or the death) must see the writes before it:
/// `beat` / `mark_dead` release what `has_beat` / `is_dead` acquire.
fn heartbeat_board() {
    let board = Arc::new(HeartbeatBoard::new(1));
    let stat = Arc::new(MCell::new("stat", 0u64));
    let last = Arc::new(MCell::new("last_write", 0u64));
    let worker = {
        let (board, stat, last) = (Arc::clone(&board), Arc::clone(&stat), Arc::clone(&last));
        spawn(move || {
            stat.write(7);
            board.beat(0, 0);
            last.write(1);
            board.mark_dead(0);
        })
    };
    if board.has_beat(0, 0) {
        assert_eq!(stat.read(), 7, "beat seen with unsettled stats");
    }
    if board.is_dead(0) {
        assert_eq!(last.read(), 1, "death seen before the last write");
    }
    worker.join();
}

/// `reload` races `top_k`: the racing answer is the top-k of exactly one
/// of the two models — the one installed before or the one after.
fn serve_engine_reload() {
    let model = |seed: u64| {
        ServedModel::build(
            FactorMatrix::random(4, 2, seed),
            FactorMatrix::random(8, 2, seed + 1),
            None,
            2,
        )
        .expect("a valid shape")
    };
    let engine = Arc::new(ServeEngine::new(model(1)));
    let before = engine.top_k(0, 3).expect("known user");
    let reloader = {
        let (engine, incoming) = (Arc::clone(&engine), model(3));
        spawn(move || {
            engine.reload(incoming);
        })
    };
    let raced = engine.top_k(0, 3).expect("known user");
    reloader.join();
    let after = engine.top_k(0, 3).expect("known user");
    assert_ne!(before, after, "the two models must answer differently");
    assert!(
        raced == before || raced == after,
        "mixed answer {raced:?}: neither {before:?} nor {after:?}"
    );
}

/// Two threads record on one lane whose capacity is one below what they
/// send: every event is kept or counted as dropped, none is lost.
fn telemetry_lane() {
    const PER_THREAD: u32 = 2;
    const SENT: usize = 2 * PER_THREAD as usize;
    let header = Header {
        workers: 1,
        k: 2,
        nnz: 0,
        strategy: "model".into(),
        streams: 1,
        backend: "model".into(),
        schedule: "model".into(),
    };
    let telemetry = Arc::new(Telemetry::enabled(header, SENT - 1));
    let record = |t: &Telemetry| {
        for epoch in 0..PER_THREAD {
            t.record(0, Event::EpochEnd { epoch, wall_us: 1 });
        }
    };
    let other = {
        let telemetry = Arc::clone(&telemetry);
        spawn(move || record(&telemetry))
    };
    record(&telemetry);
    other.join();
    let timeline = Arc::try_unwrap(telemetry)
        .expect("both recorders are done")
        .finish()
        .expect("enabled");
    assert_eq!(
        (timeline.events.len(), timeline.dropped),
        (SENT - 1, 1),
        "kept + dropped must equal sent"
    );
}

#[test]
fn every_protocol_passes_exhaustively() {
    for (name, body) in CASES {
        let stats =
            explore_seeded(cfg(0x5EED), body).unwrap_or_else(|v| panic!("`{name}` violated: {v}"));
        assert!(
            stats.complete,
            "`{name}` not exhausted within the schedule cap: {stats:?}"
        );
        assert!(
            stats.schedules > 1,
            "`{name}` explored a single schedule — it is not concurrent"
        );
    }
}

/// Different seeds reorder exploration but never change the verdict or
/// the number of schedules explored.
#[test]
fn verdicts_are_seed_independent() {
    for (name, body) in CASES {
        let schedules = [0x5EED, 1, 99, 0xDEAD].map(|seed| {
            explore_seeded(cfg(seed), body)
                .unwrap_or_else(|v| panic!("`{name}` seed {seed:#x}: clean code flagged: {v}"))
                .schedules
        });
        assert!(
            schedules.iter().all(|&n| n == schedules[0]),
            "`{name}`: the explored set moved with the seed: {schedules:?}"
        );
    }
}
