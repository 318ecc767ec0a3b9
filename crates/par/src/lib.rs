//! # ilt-par
//!
//! Deterministic intra-tile parallelism for the litho fast path.
//!
//! The tile-level `ilt-tile` executor parallelises *across* tiles; this
//! crate parallelises *inside* one tile's simulate/gradient evaluation —
//! per-kernel field transforms and FFT row batches — without changing a
//! single bit of the output. The rules that make that possible:
//!
//! * **Static partitioning.** Work items are split into contiguous index
//!   ranges, one per worker, so the mapping from item to thread is a pure
//!   function of `(count, threads)` — no work stealing, no racing claims.
//! * **Disjoint writes.** Every parallel entry point hands each worker an
//!   exclusive `&mut` sub-slice; items never share output state.
//! * **Fixed-order reduction.** Anything that must be *combined* across
//!   items (per-kernel intensity or gradient contributions) is written to
//!   per-item buffers in parallel and folded serially in item order by the
//!   caller, so floating-point association never depends on thread timing.
//!
//! Workers are scoped threads ([`std::thread::scope`]), which keeps the
//! crate `std`-only with no `unsafe`, but a spawn costs tens of
//! microseconds per call and the work it guards has shrunk under it: a
//! 256-pixel `simulate_into` is ~0.4 ms, so two inner threads *slow it
//! down* (`par.inner2_speedup` 0.5–0.6 on the benchmark's 2-core box, see
//! EXPERIMENTS.md "The FFT rung"). The serial default stands until the
//! persistent shared pool of ROADMAP item 2 replaces the per-call spawn.
//!
//! ## Thread budget
//!
//! The process-wide default worker count comes from `ILT_INNER_THREADS`
//! (default 1, i.e. serial). Harnesses that also run an *outer* tile or
//! job pool must cap the product: [`budget`] returns the configured count
//! clamped so `outer x inner <= available cores`.
//!
//! ```
//! use ilt_par::InnerPool;
//!
//! let pool = InnerPool::new(4);
//! let mut squares = vec![0usize; 10];
//! pool.for_each_mut(&mut squares, |i, s| *s = i * i);
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count override set by [`set_inner_threads`] (0 = unset, fall
/// back to the environment).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `ILT_INNER_THREADS` parsed once (warning once on invalid values).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Number of logical cores available to this process (1 if unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_inner_threads() -> usize {
    *ENV_THREADS.get_or_init(|| match std::env::var("ILT_INNER_THREADS") {
        Err(_) => 1,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) => v.max(1),
            Err(_) => {
                eprintln!("warning: invalid ILT_INNER_THREADS={raw:?}; using default 1");
                1
            }
        },
    })
}

/// Sets the process-wide inner worker count, overriding
/// `ILT_INNER_THREADS`. Harnesses call this once at startup with their
/// budgeted value; 0 is treated as 1.
pub fn set_inner_threads(threads: usize) {
    OVERRIDE.store(threads.max(1), Ordering::Relaxed);
}

/// The configured inner worker count: the [`set_inner_threads`] override
/// if set, else `ILT_INNER_THREADS` (default 1).
pub fn configured_inner_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_inner_threads(),
        n => n,
    }
}

/// The configured inner worker count clamped so that `outer_workers`
/// concurrent callers can each run a pool of this size without
/// oversubscribing the machine: `outer x inner <= available cores`
/// (always at least 1).
pub fn budget(outer_workers: usize) -> usize {
    let cap = (available_cores() / outer_workers.max(1)).max(1);
    configured_inner_threads().min(cap)
}

/// A fixed-width scoped worker pool with deterministic work assignment.
///
/// `InnerPool` is a plain `Copy` value (the threads are scoped per call),
/// so it can be stored inside simulators and shared freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InnerPool {
    threads: usize,
}

impl InnerPool {
    /// A pool running everything on the calling thread.
    pub const fn serial() -> Self {
        InnerPool { threads: 1 }
    }

    /// A pool of `threads` workers (0 is treated as 1).
    pub fn new(threads: usize) -> Self {
        InnerPool {
            threads: threads.max(1),
        }
    }

    /// The process-wide configured pool (see [`configured_inner_threads`]).
    pub fn current() -> Self {
        InnerPool::new(configured_inner_threads())
    }

    /// Worker count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns `true` if this pool never spawns (one worker).
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// How many workers a job of `count` items actually uses.
    fn workers_for(&self, count: usize) -> usize {
        self.threads.min(count).max(1)
    }

    /// Calls `f(i, &mut items[i])` for every item, items statically split
    /// into contiguous runs across the workers. Writes are disjoint, so
    /// the result is identical to the serial loop.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.for_each_chunk_mut(items, 1, |i, chunk| f(i, &mut chunk[0]));
    }

    /// Splits `data` into `data.len() / chunk_len` equally sized chunks and
    /// calls `f(chunk_index, chunk)` for each, chunks statically split into
    /// contiguous runs across the workers.
    ///
    /// This is the FFT row-batch primitive: rows are independent, so
    /// transforming them on any worker yields bit-identical buffers.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is 0 or does not divide `data.len()`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk length must be nonzero");
        assert!(
            data.len().is_multiple_of(chunk_len),
            "data length {} not divisible by chunk length {}",
            data.len(),
            chunk_len
        );
        let chunks = data.len() / chunk_len;
        let workers = self.workers_for(chunks);
        if workers <= 1 {
            for (i, c) in data.chunks_mut(chunk_len).enumerate() {
                f(i, c);
            }
            return;
        }
        let per_worker = chunks.div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = data;
            let mut base = 0usize;
            while !rest.is_empty() {
                let take = (per_worker * chunk_len).min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let start = base;
                base += take / chunk_len;
                scope.spawn(move || {
                    for (i, c) in head.chunks_mut(chunk_len).enumerate() {
                        f(start + i, c);
                    }
                });
            }
        });
    }

    /// Splits `a` and `b` into the same number of equally sized chunks and
    /// calls `f(chunk_index, a_chunk, b_chunk)` for each pair, pairs
    /// statically split into contiguous runs across the workers.
    ///
    /// This is the primitive for transforms whose input and output rows
    /// live in *different* buffers with different element types — e.g. the
    /// real-input FFT row pass, which reads a half-spectrum row and writes
    /// a real row. Writes are disjoint per pair, so the result is identical
    /// to the serial loop.
    ///
    /// # Panics
    ///
    /// Panics if either chunk length is 0 or does not divide its buffer
    /// length, or if the two buffers split into different chunk counts.
    pub fn for_each_chunk_zip_mut<A, B, F>(
        &self,
        a: &mut [A],
        chunk_a: usize,
        b: &mut [B],
        chunk_b: usize,
        f: F,
    ) where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        assert!(chunk_a > 0 && chunk_b > 0, "chunk lengths must be nonzero");
        assert!(
            a.len().is_multiple_of(chunk_a),
            "first buffer length {} not divisible by chunk length {}",
            a.len(),
            chunk_a
        );
        assert!(
            b.len().is_multiple_of(chunk_b),
            "second buffer length {} not divisible by chunk length {}",
            b.len(),
            chunk_b
        );
        let chunks = a.len() / chunk_a;
        assert!(
            chunks == b.len() / chunk_b,
            "buffers split into {} vs {} chunks",
            chunks,
            b.len() / chunk_b
        );
        let workers = self.workers_for(chunks);
        if workers <= 1 {
            for (i, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
                f(i, ca, cb);
            }
            return;
        }
        let per_worker = chunks.div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest_a = a;
            let mut rest_b = b;
            let mut base = 0usize;
            while !rest_a.is_empty() {
                let take = per_worker.min(rest_a.len() / chunk_a);
                let (head_a, tail_a) = rest_a.split_at_mut(take * chunk_a);
                let (head_b, tail_b) = rest_b.split_at_mut(take * chunk_b);
                rest_a = tail_a;
                rest_b = tail_b;
                let start = base;
                base += take;
                scope.spawn(move || {
                    for (i, (ca, cb)) in head_a
                        .chunks_mut(chunk_a)
                        .zip(head_b.chunks_mut(chunk_b))
                        .enumerate()
                    {
                        f(start + i, ca, cb);
                    }
                });
            }
        });
    }

    /// Like [`for_each_mut`](Self::for_each_mut), but each worker is also
    /// handed exclusive access to one scratch slot for the duration of its
    /// contiguous run — the pattern for per-kernel transforms that need a
    /// full-grid temporary.
    ///
    /// `scratch` must hold at least [`Self::threads`] slots (slot `w` is
    /// used by worker `w`; extra slots are ignored). In serial mode only
    /// `scratch[0]` is touched.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` has fewer slots than the workers this call
    /// spawns.
    pub fn for_each_with_scratch<T, S, F>(&self, items: &mut [T], scratch: &mut [S], f: F)
    where
        T: Send,
        S: Send,
        F: Fn(usize, &mut T, &mut S) + Sync,
    {
        if items.is_empty() {
            return;
        }
        let workers = self.workers_for(items.len());
        assert!(
            scratch.len() >= workers,
            "{} scratch slots for {} workers",
            scratch.len(),
            workers
        );
        if workers <= 1 {
            let s = &mut scratch[0];
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item, s);
            }
            return;
        }
        let per_worker = items.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = items;
            let mut scratch_rest = scratch;
            let mut base = 0usize;
            while !rest.is_empty() {
                let take = per_worker.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let (slot, s_tail) = scratch_rest.split_at_mut(1);
                scratch_rest = s_tail;
                let start = base;
                base += take;
                scope.spawn(move || {
                    let s = &mut slot[0];
                    for (i, item) in head.iter_mut().enumerate() {
                        f(start + i, item, s);
                    }
                });
            }
        });
    }

    /// Evaluates `f(i)` for `i in 0..count`, returning results in index
    /// order regardless of which worker produced them.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
        self.for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|s| s.expect("every index produced a value"))
            .collect()
    }
}

impl Default for InnerPool {
    fn default() -> Self {
        InnerPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_for_each_agree() {
        let mut a = vec![0usize; 37];
        let mut b = vec![0usize; 37];
        InnerPool::serial().for_each_mut(&mut a, |i, v| *v = i * 3 + 1);
        InnerPool::new(4).for_each_mut(&mut b, |i, v| *v = i * 3 + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_rows_cover_everything_once() {
        // 9 rows of 8 across 4 workers: every row index seen exactly once,
        // every element written.
        let mut data = vec![0usize; 72];
        InnerPool::new(4).for_each_chunk_mut(&mut data, 8, |row, chunk| {
            for (c, v) in chunk.iter_mut().enumerate() {
                *v = row * 100 + c;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 8) * 100 + i % 8);
        }
    }

    #[test]
    fn zipped_chunks_pair_rows_across_buffers() {
        // 8 spectrum rows of 5 paired with 8 output rows of 3; serial and
        // 4-worker runs must agree element for element.
        let src: Vec<usize> = (0..40).collect();
        let run = |threads: usize| {
            let mut a = src.clone();
            let mut b = vec![0usize; 24];
            InnerPool::new(threads).for_each_chunk_zip_mut(&mut a, 5, &mut b, 3, |r, ca, cb| {
                for v in ca.iter_mut() {
                    *v += 1;
                }
                for (c, v) in cb.iter_mut().enumerate() {
                    *v = r * 10 + c + ca[0];
                }
            });
            (a, b)
        };
        let (a1, b1) = run(1);
        let (a4, b4) = run(4);
        assert_eq!(a1, a4);
        assert_eq!(b1, b4);
        assert_eq!(b1[0], 1); // row 0: 0*10 + 0 + (0+1)
    }

    #[test]
    #[should_panic(expected = "vs")]
    fn zipped_chunk_counts_must_match() {
        let mut a = vec![0u8; 10];
        let mut b = vec![0u8; 9];
        InnerPool::serial().for_each_chunk_zip_mut(&mut a, 5, &mut b, 3, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn chunk_length_must_divide() {
        let mut data = vec![0u8; 10];
        InnerPool::serial().for_each_chunk_mut(&mut data, 3, |_, _| {});
    }

    #[test]
    fn scratch_slots_are_per_worker() {
        // Each worker accumulates into its own slot; the per-slot sums must
        // partition the total.
        let mut items: Vec<usize> = (0..23).collect();
        let mut scratch = vec![0usize; 4];
        InnerPool::new(4).for_each_with_scratch(&mut items, &mut scratch, |i, item, s| {
            *item *= 2;
            *s += i;
        });
        assert_eq!(items, (0..23).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(scratch.iter().sum::<usize>(), (0..23).sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "scratch slots")]
    fn too_few_scratch_slots_panics() {
        let mut items = vec![0usize; 8];
        let mut scratch = vec![0usize; 1];
        InnerPool::new(4).for_each_with_scratch(&mut items, &mut scratch, |_, _, _| {});
    }

    #[test]
    fn map_returns_index_order() {
        let out = InnerPool::new(3).map(10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut empty: Vec<usize> = Vec::new();
        InnerPool::new(4).for_each_mut(&mut empty, |_, _| unreachable!());
        let mut scratch = vec![0usize; 4];
        InnerPool::new(4).for_each_with_scratch(&mut empty, &mut scratch, |_, _, _| unreachable!());
        let out: Vec<usize> = InnerPool::new(4).map(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_treated_as_one() {
        assert_eq!(InnerPool::new(0).threads(), 1);
        assert!(InnerPool::new(0).is_serial());
        assert_eq!(InnerPool::default(), InnerPool::serial());
    }

    #[test]
    fn budget_caps_against_outer_workers() {
        // With more outer workers than cores the inner budget collapses to
        // 1; a single outer worker may use the whole configured pool.
        assert_eq!(budget(usize::MAX), 1);
        assert!(budget(1) >= 1);
        assert!(budget(available_cores()) <= available_cores());
    }

    #[test]
    fn override_wins_over_env() {
        // Note: the override is process-global; restore it afterwards.
        let before = configured_inner_threads();
        set_inner_threads(3);
        assert_eq!(configured_inner_threads(), 3);
        assert_eq!(InnerPool::current().threads(), 3);
        set_inner_threads(0);
        assert_eq!(configured_inner_threads(), 1);
        set_inner_threads(before);
    }
}
