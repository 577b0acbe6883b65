//! Where model-sized buffers live.
//!
//! A factor matrix, a shard store, a checkpoint block: each is allocated
//! once, read for a phase and dropped, often on another thread than the one
//! that made it. glibc's malloc serves such a block from an anonymous
//! mapping of its own only while it is larger than the *dynamic* mmap
//! threshold, which starts at 128 KiB and rises to the size of every mapped
//! block the program frees (up to 32 MiB). After the first model has been
//! dropped, the next one — `posix_memalign` and a 2 MiB-aligned `Layout`
//! included, they go through the same threshold — is carved from the heap
//! of whichever thread asks: a reload thread's arena keeps its high-water
//! mark after the thread is gone, a block freed under a live neighbour is
//! never returned, and both `peak_rss_mb` and the kernel's page placement
//! become a function of malloc history (ROADMAP item 2; DESIGN §4.2).
//!
//! [`map_model_buffers`] pins the threshold at [`MAPPED_FROM`] and thereby
//! switches the dynamic adjustment off: every buffer at least that large is
//! its own mapping, zero-filled by the kernel, and leaves the process the
//! moment it is dropped, on whichever thread. The same dynamic rule raises
//! the *trim* threshold (how much free memory the main heap keeps at its
//! top) to twice the largest block freed, so the call also puts that back
//! at its default: from then on the process behaves as one started under
//! `GLIBC_TUNABLES=glibc.malloc.mmap_threshold=1048576`, whatever it
//! allocated and freed before. The entry points that create model-sized
//! state call it; it costs one `Once` check after the first call. This
//! module holds the crate's only foreign call.

/// Smallest allocation that gets a mapping of its own once
/// [`map_model_buffers`] has run: what `GLIBC_TUNABLES=
/// glibc.malloc.mmap_threshold=1048576` sets from outside the process.
pub const MAPPED_FROM: usize = 1 << 20;

/// Makes every later allocation of [`MAPPED_FROM`] bytes or more an
/// anonymous mapping of its own, for the rest of the process. Idempotent
/// and cheap; a no-op where the allocator is not glibc's.
pub fn map_model_buffers() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` of `<malloc.h>`, and
        /// the former's default.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const DEFAULT_TRIM_THRESHOLD: i32 = 128 << 10;
        static PINNED: std::sync::Once = std::sync::Once::new();
        PINNED.call_once(|| {
            // SAFETY: `mallopt` is glibc's own `int mallopt(int, int)`, which
            // std already links; it takes malloc's lock, so it may run beside
            // allocations on other threads, and both values are inside the
            // ranges it accepts. A refusal (return 0) would leave the default
            // policy in place, which costs memory, not correctness.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, MAPPED_FROM as i32);
                mallopt(M_TRIM_THRESHOLD, DEFAULT_TRIM_THRESHOLD);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_model_sized_buffer_is_a_mapping_whatever_was_freed_before_it() {
        map_model_buffers();
        map_model_buffers();
        // Freeing a mapped block is what raises glibc's dynamic threshold
        // (here it would go to 4 MiB) and sends the next, smaller one to the
        // heap.
        drop(vec![1u8; 4 * MAPPED_FROM]);
        let mut big = vec![0u8; 2 * MAPPED_FROM];
        big[MAPPED_FROM] = 7;
        assert_eq!(big.iter().map(|&b| b as u32).sum::<u32>(), 7);
        // A mapped chunk starts one chunk header into its first page.
        #[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
        assert_eq!(big.as_ptr() as usize % 4096, 16, "not a mapping of its own");
    }
}
