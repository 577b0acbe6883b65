//! `hcc-sync`: the synchronization facade the lock-free cores route through.
//!
//! Every hand-argued concurrent protocol in the workspace — the heartbeat
//! board's Release/Acquire pairing, the serve engine's snapshot swap, the
//! admission queue's bounded backpressure and merger election, the
//! sharded server's delta-base snapshot, and the SIMD backend cache —
//! imports its atomics and locks from this crate instead of
//! `std::sync::atomic` / `parking_lot` directly, and so do the telemetry
//! lanes' mutexes, which need no protocol of their own.
//!
//! In a normal build the module is a set of **pure re-exports**: the same
//! types, zero cost, no behavioral change. Under the `model` cargo feature
//! the re-exports swap to an instrumented runtime (the `model` module) driven by a
//! deterministic interleaving explorer — a vendored, dependency-free
//! mini-loom. `hcc-check` extracts small models of the four protocols
//! above, runs them under `explore`, and asserts their invariants over
//! every schedule within a preemption bound (see DESIGN.md §15).
//!
//! The split keeps the production dependency edge trivial (feature
//! unification cannot leak `model` into release builds: only
//! `hcc-check`'s own test graph enables it) while giving the checker a
//! drop-in API: model code is written once against `hcc_sync::{...}` and
//! compiles both ways.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(feature = "model")]
pub mod model;

#[cfg(feature = "model")]
pub use model::{
    explore, explore_seeded, spawn, thread_yield, Arc, AtomicBool, AtomicU32, AtomicU64, AtomicU8,
    AtomicUsize, Condvar, Config, JoinHandle, MCell, Mutex, MutexGuard, Ordering, RwLock,
    RwLockReadGuard, RwLockWriteGuard, Stats, Violation,
};

#[cfg(not(feature = "model"))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(not(feature = "model"))]
pub use std::sync::Arc;

#[cfg(all(test, not(feature = "model")))]
mod tests {
    //! The default build must re-export the exact production types, so
    //! routing a module through `hcc_sync` is observationally a no-op.
    use super::*;

    #[test]
    fn default_reexports_are_the_production_types() {
        let a: AtomicU64 = AtomicU64::new(7);
        // ordering: Relaxed — single-threaded facade smoke test.
        assert_eq!(a.load(Ordering::Relaxed), 7);
        let m: Mutex<u32> = Mutex::new(1);
        assert_eq!(*m.lock(), 1);
        let rw: RwLock<u32> = RwLock::new(2);
        assert_eq!(*rw.read(), 2);
        let arc: Arc<u32> = Arc::new(3);
        assert_eq!(*arc, 3);
        // Type-level identity with std/parking_lot (compile-time check).
        fn takes_std(_: &std::sync::atomic::AtomicU64) {}
        takes_std(&a);
        fn takes_pl(_: &parking_lot::Mutex<u32>) {}
        takes_pl(&m);
    }
}
