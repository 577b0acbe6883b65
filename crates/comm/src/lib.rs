//! The COMM layer of HCC-MF (§3.4–3.5 of the paper).
//!
//! COMM connects the parameter server to its workers. The paper implements
//! it with shared pinned memory mapped into every process, one "pull buffer"
//! per worker (server → worker) and one "push buffer" (worker → server), so
//! a transfer is a single copy. This crate reproduces that design in-process:
//!
//! * [`strategy`] — the three communication optimization strategies:
//!   transmit-P&Q (unoptimized), "Transmitting Q matrix only", and
//!   "Transmitting FP16 Data" on top of Q-only ("half-Q"), with exact
//!   volume accounting used by both the real engine and the simulator.
//! * [`buffer`] — the shared pull/push buffers.
//! * [`transport`] — two interchangeable transports: [`CommShared`] (the
//!   paper's COMM: single-copy shared memory) and [`CommP`] (the ps-lite
//!   style baseline: serialize → channel → staging copy → destination copy),
//!   which Table 5 compares.
//! * [`pipeline`] — the asynchronous pull→compute→push pipeline used by
//!   Strategy 3 ("Asynchronous Computing-Transmission") to overlap
//!   communication with computation across multiple streams.
//! * [`block`] — the one block codec: a caller's header, then `f32`
//!   sections at a [`Precision`], then a CRC-32 trailer, streamed through
//!   one caller-owned block. Socket frames and `hcc_mf` checkpoints both
//!   cross through it, and [`Crc32`] is the workspace's one CRC.
//! * [`frame`] — the length-prefixed wire frame header the socket
//!   transport speaks around the block codec.
//! * [`socket`] — [`CommSocket`]: the same [`Transport`] contract over a
//!   Unix domain socket or loopback TCP with per-RPC deadlines, bounded
//!   retries, jittered reconnect backoff, and idempotent push dedup.
//! * [`delta`] — the row-delta payload codec that generalizes "Transmit Q
//!   only" to per-shard delta shipping: a push carries only the rows
//!   touched since the last publish.
//! * [`fault`] — the one fault vocabulary: a [`FaultPlan`] of scripted and
//!   rolled [`Fault`]s, addressed by starting-fleet worker id and training
//!   epoch, read by the threaded engine, the chaos wrapper and the
//!   simulator alike.
//! * [`chaos`] — [`ChaosTransport`]: the wrapper around any transport that
//!   enacts a plan's drop/delay/duplicate/corrupt/partition faults.
//! * [`backoff`] — the jittered-exponential [`Backoff`] ladder shared by
//!   every retry loop in the workspace.

//!
//! ```
//! use hcc_comm::{CommShared, Precision, Transport};
//!
//! let comm = CommShared::new(2, 4, 4, Precision::Fp32);
//! comm.publish(&[1.0, 2.0, 3.0, 4.0]);      // server → pull region
//! let mut local = [0f32; 4];
//! comm.pull(0, &mut local);                  // worker 0 reads it
//! comm.push(0, &local);                      // …and pushes back
//! let mut collected = [0f32; 4];
//! comm.collect(0, &mut collected);           // server merges
//! assert_eq!(collected, [1.0, 2.0, 3.0, 4.0]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod block;
pub mod buffer;
pub mod chaos;
mod clmul;
pub mod delta;
pub mod fault;
pub mod frame;
pub mod pipeline;
pub mod socket;
pub mod strategy;
pub mod transport;

pub use backoff::Backoff;
pub use block::{crc32, Crc32};
pub use buffer::SharedBuffer;
pub use chaos::{ChaosStats, ChaosTransport};
pub use delta::{apply_delta, delta_len, encode_delta, max_delta_len, DeltaError};
pub use fault::{Fault, FaultPlan};
pub use frame::{FrameError, Header, RpcKind};
pub use pipeline::{run_pipeline, PipelineStats};
pub use socket::{CommSocket, NetEvent, NetEventKind, NetStats, SocketConfig};
pub use strategy::TransferStrategy;
pub use transport::{CommError, CommP, CommShared, Precision, Transport};
