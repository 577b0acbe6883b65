//! Stage 2: the deterministic interleaving suite.
//!
//! For every protocol model: the shipped protocol must survive *every*
//! schedule within the preemption bound (exhaustively — `complete` must be
//! true), and the one-ordering-weakened mutant must fail. The mutation leg
//! is what gives the suite teeth: a future edit that weakens the real code
//! the same way will fail here the same way.
//!
//! Runs only under `--features model`:
//! `cargo test -p hcc-check --features model`.

#![cfg(feature = "model")]

use hcc_check::models;
use hcc_sync::{explore_seeded, Config};

fn cfg(seed: u64) -> Config {
    Config {
        seed,
        ..Config::default()
    }
}

#[test]
fn every_protocol_passes_exhaustively() {
    for (name, body) in models::all() {
        let stats = explore_seeded(cfg(0x5EED), body(false))
            .unwrap_or_else(|v| panic!("model `{name}` violated: {v}"));
        assert!(
            stats.complete,
            "model `{name}` not exhausted within the schedule cap: {stats:?}"
        );
        assert!(
            stats.schedules > 1,
            "model `{name}` explored a single schedule — it is not concurrent"
        );
    }
}

#[test]
fn every_weakened_mutant_is_caught() {
    for (name, body) in models::all() {
        let v = explore_seeded(cfg(0x5EED), body(true)).expect_err(&format!(
            "model `{name}`: weakening one ordering must produce a violation"
        ));
        assert!(
            !v.trace.is_empty() || v.schedule >= 1,
            "model `{name}`: violation must carry a replayable trace: {v}"
        );
    }
}

/// Same seed ⇒ byte-identical failure (schedule index, trace, message);
/// the trace replays to the same violation. This is the determinism
/// contract recorded in results/README.md.
#[test]
fn failures_are_deterministic_and_replayable() {
    for (name, body) in models::all() {
        let v1 = explore_seeded(cfg(42), body(true)).expect_err("mutant fails");
        let v2 = explore_seeded(cfg(42), body(true)).expect_err("mutant fails");
        assert_eq!(
            v1.trace, v2.trace,
            "model `{name}`: trace not deterministic"
        );
        assert_eq!(
            v1.schedule, v2.schedule,
            "model `{name}`: schedule index not deterministic"
        );
        assert_eq!(
            v1.message, v2.message,
            "model `{name}`: message not deterministic"
        );
        let replay = Config {
            replay: Some(v1.trace.clone()),
            ..cfg(42)
        };
        let vr = explore_seeded(replay, body(true))
            .expect_err("replaying the recorded trace must reproduce the violation");
        assert_eq!(
            vr.message, v1.message,
            "model `{name}`: replay diverged from the recorded failure"
        );
    }
}

/// Different seeds reorder exploration but never change the verdict.
#[test]
fn verdicts_are_seed_independent() {
    for (name, body) in models::all() {
        for seed in [1u64, 99, 0xDEAD] {
            assert!(
                explore_seeded(cfg(seed), body(false)).is_ok(),
                "model `{name}` seed {seed}: clean protocol flagged"
            );
            assert!(
                explore_seeded(cfg(seed), body(true)).is_err(),
                "model `{name}` seed {seed}: mutant missed"
            );
        }
    }
}
