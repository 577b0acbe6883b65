//! Shared pull/push buffers.
//!
//! The paper's COMM creates one shared-memory region per direction per
//! worker: the server writes the global feature matrix into a worker's
//! *pull buffer*, the worker writes its updated local matrix into its *push
//! buffer*, and the opposite side reads directly from the mapping — so one
//! transfer is exactly one copy. In-process, a `SharedBuffer` is an
//! `Arc<RwLock<Vec<f32>>>` with explicit copy-in/copy-out operations, which
//! keeps the copy count observable: [`SharedBuffer::bytes_written`] and
//! [`SharedBuffer::bytes_read`] count the *physical* copies. Over
//! [`CommShared`](crate::CommShared) a 2-worker epoch is five — one publish,
//! two pulls, two pushes — because **a collect is a view**
//! ([`SharedBuffer::with_read`]): the server merges a push where the worker
//! wrote it. The four a worker made are the link traffic
//! [`Transport::wire_bytes_by_dir`](crate::Transport::wire_bytes_by_dir) counts.
//! Each copy is one `copy_from_slice` on the caller's thread: the paper's
//! multi-threaded copy (§3.5) is not reproduced.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed-capacity shared float buffer with copy accounting.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    data: RwLock<Vec<f32>>,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl SharedBuffer {
    /// Allocates a zeroed buffer of `len` floats.
    pub fn new(len: usize) -> SharedBuffer {
        SharedBuffer {
            inner: Arc::new(Inner {
                data: RwLock::new(vec![0.0; len]),
                bytes_written: AtomicU64::new(0),
                bytes_read: AtomicU64::new(0),
            }),
        }
    }

    /// Buffer length in floats.
    pub fn len(&self) -> usize {
        self.inner.data.read().len()
    }

    /// True when the buffer holds no floats.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `src` into the buffer starting at float offset `offset`.
    ///
    /// # Panics
    /// Panics if the region exceeds the buffer.
    pub fn write(&self, offset: usize, src: &[f32]) {
        self.inner.data.write()[offset..offset + src.len()].copy_from_slice(src);
        // ordering: Relaxed — wire-byte statistic; read only for reports
        // after the epoch's scope join, never to synchronize data.
        self.inner
            .bytes_written
            .fetch_add(src.len() as u64 * 4, Ordering::Relaxed);
    }

    /// Copies the region at `offset` into `dst`.
    ///
    /// # Panics
    /// Panics if the region exceeds the buffer.
    pub fn read(&self, offset: usize, dst: &mut [f32]) {
        dst.copy_from_slice(&self.inner.data.read()[offset..offset + dst.len()]);
        // ordering: Relaxed — wire-byte statistic (see `write`).
        self.inner
            .bytes_read
            .fetch_add(dst.len() as u64 * 4, Ordering::Relaxed);
    }

    /// Runs `f` with a read view of the whole buffer *without copying* — the
    /// "feature matrix stored directly in shared memory" fast path.
    pub fn with_read<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        f(&self.inner.data.read())
    }

    /// Runs `f` with a write view of the whole buffer without copying.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [f32]) -> R) -> R {
        f(&mut self.inner.data.write())
    }

    /// Total bytes copied in by [`write`](Self::write).
    pub fn bytes_written(&self) -> u64 {
        // ordering: Relaxed — statistic read; exactness across threads is
        // not required mid-epoch.
        self.inner.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes copied out by [`read`](Self::read).
    pub fn bytes_read(&self) -> u64 {
        // ordering: Relaxed — statistic read (see `bytes_written`).
        self.inner.bytes_read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrips() {
        let buf = SharedBuffer::new(8);
        buf.write(2, &[1.0, 2.0, 3.0]);
        let mut out = [0f32; 3];
        buf.read(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        let mut head = [9f32; 2];
        buf.read(0, &mut head);
        assert_eq!(head, [0.0, 0.0]);
    }

    #[test]
    fn clones_share_storage() {
        let a = SharedBuffer::new(4);
        let b = a.clone();
        a.write(0, &[5.0]);
        let mut out = [0f32; 1];
        b.read(0, &mut out);
        assert_eq!(out, [5.0]);
    }

    #[test]
    fn byte_accounting() {
        let buf = SharedBuffer::new(10);
        buf.write(0, &[0.0; 10]);
        buf.write(0, &[0.0; 4]);
        assert_eq!(buf.bytes_written(), 56);
        let mut out = [0f32; 10];
        buf.read(0, &mut out);
        assert_eq!(buf.bytes_read(), 40);
    }

    #[test]
    fn zero_copy_views() {
        let buf = SharedBuffer::new(3);
        buf.with_write(|s| s.copy_from_slice(&[1.0, 2.0, 3.0]));
        let sum = buf.with_read(|s| s.iter().sum::<f32>());
        assert_eq!(sum, 6.0);
        // Views don't count as copies.
        assert_eq!(buf.bytes_written(), 0);
        assert_eq!(buf.bytes_read(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_write_panics() {
        let buf = SharedBuffer::new(2);
        buf.write(1, &[1.0, 2.0]);
    }

    #[test]
    fn large_parallel_copies_roundtrip() {
        let len = (1 << 20) + 13; // a 4 MiB region with a ragged tail
        let buf = SharedBuffer::new(len);
        let src: Vec<f32> = (0..len).map(|j| (j % 1021) as f32).collect();
        buf.write(0, &src);
        let mut out = vec![0f32; len];
        buf.read(0, &mut out);
        assert_eq!(out, src);
        assert_eq!(buf.bytes_written(), len as u64 * 4);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let buf = SharedBuffer::new(64);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let buf = buf.clone();
                scope.spawn(move || {
                    buf.write(t * 16, &[t as f32; 16]);
                });
            }
        });
        let mut out = vec![0f32; 64];
        buf.read(0, &mut out);
        for t in 0..4 {
            assert!(out[t * 16..(t + 1) * 16].iter().all(|&v| v == t as f32));
        }
    }
}
