//! Checkpoint → serving glue: load `.hccmf` files into [`ServedModel`]s
//! and hot-reload running [`ServeEngine`]s from disk.
//!
//! The serving crate (`hcc-serve`) deliberately knows nothing about the
//! on-disk checkpoint formats; this module joins it to
//! [`crate::checkpoint`]. The joint is also the crash-safety boundary for
//! hot reload: a corrupt or truncated checkpoint fails *here*, before
//! [`ServeEngine::reload`] is ever called, so a bad deploy artifact leaves
//! the old model serving untouched.

use crate::checkpoint::load_model;
use crate::error::HccError;
use hcc_comm::Backoff;
use hcc_serve::{Precision, ServeEngine, ServeError, ServedModel};
use hcc_sparse::CooMatrix;
use std::path::Path;
use std::time::Duration;

impl From<ServeError> for HccError {
    fn from(err: ServeError) -> Self {
        HccError::BadInput(err.to_string())
    }
}

/// Loads a v1/v2 model checkpoint and builds an item-sharded serving
/// snapshot from it. `train`, when given, supplies the seen-item filter and
/// entry-weights the shard split; its dimensions must match the checkpoint.
/// Shards are stored at f32 with norm pruning on; use
/// [`load_served_model_with`] to pick a quantized tier.
pub fn load_served_model<P: AsRef<Path>>(
    path: P,
    train: Option<&CooMatrix>,
    shards: usize,
) -> Result<ServedModel, HccError> {
    load_served_model_with(path, train, shards, Precision::F32)
}

/// [`load_served_model`] with an explicit storage precision for the item
/// shards (the `--precision` CLI flag lands here). Checkpoints are always
/// full-precision on disk; quantization happens at build time, so the same
/// artifact can serve at any tier.
pub fn load_served_model_with<P: AsRef<Path>>(
    path: P,
    train: Option<&CooMatrix>,
    shards: usize,
    precision: Precision,
) -> Result<ServedModel, HccError> {
    load_and_build(path.as_ref(), train, shards, precision, true)
}

fn load_and_build(
    path: &Path,
    train: Option<&CooMatrix>,
    shards: usize,
    precision: Precision,
    prune: bool,
) -> Result<ServedModel, HccError> {
    let (p, q) = load_model(path)?;
    Ok(ServedModel::build_with(
        p, q, train, shards, precision, prune,
    )?)
}

/// Default retry budget for [`reload_from_checkpoint`]: three attempts
/// spaced by a 25 ms → 50 ms exponential ladder. Deployment tooling often
/// renames the artifact into place moments before triggering the reload,
/// so a briefly-missing or still-moving file deserves a short wait.
const RELOAD_ATTEMPTS: u32 = 3;
const RELOAD_BACKOFF: Duration = Duration::from_millis(25);

/// Hot-reloads `engine` from a checkpoint on disk; returns the engine's
/// reload count. The new model is stored at the precision, and pruned or
/// not, as the one it replaces: a reload changes the factors, not the tier
/// the engine serves at. Any failure — unreadable file, bad magic, CRC mismatch
/// ([`HccError::CorruptCheckpoint`]), factor/`train` shape disagreement —
/// happens before the swap, so the engine keeps serving its current model.
///
/// Transient failures ([`HccError::is_retryable`]: filesystem and
/// transport trouble) are retried a few times with exponential backoff.
/// Deterministic ones — a corrupt artifact, mismatched shapes — fail
/// immediately: re-reading the same bad bytes can't succeed.
pub fn reload_from_checkpoint<P: AsRef<Path>>(
    engine: &ServeEngine,
    path: P,
    train: Option<&CooMatrix>,
    shards: usize,
) -> Result<u64, HccError> {
    reload_with_backoff(
        engine,
        path,
        train,
        shards,
        RELOAD_ATTEMPTS,
        Backoff::new(RELOAD_BACKOFF, 2.0),
    )
}

/// [`reload_from_checkpoint`] with explicit retry tuning. `attempts` is
/// clamped to at least 1; `backoff` supplies the sleep before each retry.
pub fn reload_with_backoff<P: AsRef<Path>>(
    engine: &ServeEngine,
    path: P,
    train: Option<&CooMatrix>,
    shards: usize,
    attempts: u32,
    mut backoff: Backoff,
) -> Result<u64, HccError> {
    let (precision, prune) = {
        let serving = engine.model();
        (serving.precision(), serving.pruned())
    };
    let mut attempt = 0;
    loop {
        match load_and_build(path.as_ref(), train, shards, precision, prune) {
            Ok(model) => return Ok(engine.reload(model)),
            Err(err) if !err.is_retryable() => return Err(err),
            Err(err) => {
                attempt += 1;
                if attempt >= attempts.max(1) {
                    return Err(err);
                }
                std::thread::sleep(backoff.next_delay());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::save_model;
    use hcc_sgd::FactorMatrix;
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hcc_serving_glue");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn checkpoint_round_trips_into_a_serving_engine() {
        let path = tmp("roundtrip.hccmf");
        let p = FactorMatrix::random(6, 4, 1);
        let q = FactorMatrix::random(9, 4, 2);
        save_model(&path, &p, &q).unwrap();
        let model = load_served_model(&path, None, 3).unwrap();
        assert_eq!((model.users(), model.items(), model.k()), (6, 9, 4));
        let engine = ServeEngine::new(model);
        assert_eq!(engine.top_k(0, 4).unwrap().len(), 4);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_fails_before_the_swap() {
        let path = tmp("corrupt.hccmf");
        let p = FactorMatrix::random(4, 2, 3);
        let q = FactorMatrix::random(5, 2, 4);
        save_model(&path, &p, &q).unwrap();
        let engine = ServeEngine::new(load_served_model(&path, None, 2).unwrap());
        let before = engine.top_k(1, 3).unwrap();

        // Flip one payload byte: the CRC footer must reject the file.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = reload_from_checkpoint(&engine, &path, None, 2).unwrap_err();
        assert!(matches!(err, HccError::CorruptCheckpoint(_)), "{err:?}");

        // The engine never swapped: same answers, zero reloads.
        assert_eq!(engine.top_k(1, 3).unwrap(), before);
        assert_eq!(engine.stats().reloads, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_io_failure_is_retried_until_the_artifact_lands() {
        let path = tmp("transient.hccmf");
        fs::remove_file(&path).ok(); // not there yet: first attempts fail Io
        let seed = tmp("transient_seed.hccmf");
        let p = FactorMatrix::random(4, 2, 9);
        let q = FactorMatrix::random(5, 2, 10);
        save_model(&seed, &p, &q).unwrap();
        let engine = ServeEngine::new(load_served_model(&seed, None, 2).unwrap());

        // A deployer thread renames the artifact into place mid-retry.
        let landing = path.clone();
        let src = seed.clone();
        let deployer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            fs::copy(&src, &landing).unwrap();
        });
        let reloads = reload_with_backoff(
            &engine,
            &path,
            None,
            2,
            10,
            Backoff::new(Duration::from_millis(25), 1.0),
        )
        .unwrap();
        deployer.join().unwrap();
        assert_eq!(reloads, 1);
        assert_eq!(engine.stats().reloads, 1);

        // With the file still missing and the budget exhausted, the final
        // error is the transient one.
        fs::remove_file(&path).ok();
        let err = reload_with_backoff(
            &engine,
            &path,
            None,
            2,
            2,
            Backoff::new(Duration::from_millis(1), 1.0),
        )
        .unwrap_err();
        assert!(matches!(err, HccError::Io(_)), "{err:?}");
        fs::remove_file(&seed).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_not_retried() {
        let path = tmp("corrupt_fastfail.hccmf");
        let p = FactorMatrix::random(4, 2, 11);
        let q = FactorMatrix::random(5, 2, 12);
        save_model(&path, &p, &q).unwrap();
        let engine = ServeEngine::new(load_served_model(&path, None, 2).unwrap());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // A 5 s ladder would make even one retry obvious; the corrupt
        // artifact must fail deterministically without sleeping at all.
        let t0 = std::time::Instant::now();
        let err = reload_with_backoff(
            &engine,
            &path,
            None,
            2,
            5,
            Backoff::new(Duration::from_secs(5), 2.0),
        )
        .unwrap_err();
        assert!(matches!(err, HccError::CorruptCheckpoint(_)), "{err:?}");
        assert!(t0.elapsed() < Duration::from_secs(2), "reload slept");
        assert_eq!(engine.stats().reloads, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn precision_tiers_load_from_the_same_checkpoint() {
        let path = tmp("tiers.hccmf");
        let p = FactorMatrix::random(6, 8, 7);
        let q = FactorMatrix::random(40, 8, 8);
        save_model(&path, &p, &q).unwrap();
        let f32_model = load_served_model_with(&path, None, 2, Precision::F32).unwrap();
        let oracle = ServeEngine::new(f32_model).top_k(0, 5).unwrap();
        for tier in [Precision::Fp16, Precision::Int8] {
            let model = load_served_model_with(&path, None, 2, tier).unwrap();
            assert_eq!(model.precision(), tier);
            let got = ServeEngine::new(model).top_k(0, 5).unwrap();
            // Random factors are well separated at these sizes; ranks hold
            // across tiers even at int8.
            let gi: Vec<u32> = got.iter().map(|e| e.0).collect();
            let oi: Vec<u32> = oracle.iter().map(|e| e.0).collect();
            assert_eq!(gi, oi, "{tier}: {got:?} vs {oracle:?}");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_reload_keeps_the_precision_and_pruning_of_the_model_it_replaces() {
        let path = tmp("reload_tier.hccmf");
        let p = FactorMatrix::random(6, 8, 13);
        let q = FactorMatrix::random(40, 8, 14);
        save_model(&path, &p, &q).unwrap();
        for prune in [true, false] {
            let model =
                ServedModel::build_with(p.clone(), q.clone(), None, 2, Precision::Int8, prune)
                    .unwrap();
            let engine = ServeEngine::new(model);
            assert_eq!(reload_from_checkpoint(&engine, &path, None, 2).unwrap(), 1);
            let reloaded = engine.model();
            assert_eq!(reloaded.precision(), Precision::Int8, "prune = {prune}");
            assert_eq!(reloaded.pruned(), prune);
            // An exhaustive engine still scans every item of every query.
            if !prune {
                for user in 0..6 {
                    engine.top_k(user, 5).unwrap();
                }
                assert_eq!(engine.stats().scan_frac, 1.0);
            }
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_train_matrix_is_rejected() {
        let path = tmp("mismatch.hccmf");
        let p = FactorMatrix::random(4, 2, 5);
        let q = FactorMatrix::random(5, 2, 6);
        save_model(&path, &p, &q).unwrap();
        let train = CooMatrix::new(7, 5, vec![]).unwrap(); // 7 != 4 users
        let err = load_served_model(&path, Some(&train), 2).unwrap_err();
        assert!(matches!(err, HccError::BadInput(_)), "{err:?}");
        fs::remove_file(&path).ok();
    }
}
