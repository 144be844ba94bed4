//! Placement primitives for the flat tuple arena.
//!
//! This module holds the crate's unsafe code outside the worker pool (the
//! crate root is `#![deny(unsafe_code)]` with a targeted allow here). Its two
//! entry points implement one pattern: a set of workers, each owning a
//! *disjoint* slice of the index space, moves ([`permute_owned`]) or clones
//! ([`scatter_cloned`]) elements from a source buffer into predetermined
//! disjoint positions of a preallocated destination buffer. Safe Rust cannot
//! express "many threads write disjoint computed positions of one vector"
//! without either per-worker staging vectors (the clone-into-buckets layout
//! the arena replaced) or interior-mutability wrappers that cost a word per
//! element, so both are built on raw pointers with the disjointness argument
//! spelled out at every unsafe block.
//!
//! Invariants shared by both entry points:
//!
//! * a consumed source buffer is read by `ptr::read` exactly once per element
//!   — the source `Vec`'s length is set to zero *before* any worker runs, so a
//!   panic can only leak elements (safe), never double-drop them;
//! * destination buffers are `Vec<MaybeUninit<T>>`, fully initialised by the
//!   workers (each position written exactly once) and only then converted to
//!   `Vec<T>`;
//! * worker fan-out goes through [`Executor::run_spans`], which joins every
//!   worker before returning, so no pointer outlives the buffers it points
//!   into.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;

use crate::executor::Executor;

/// A raw pointer that may be captured by worker closures. Safety is argued
/// at the use sites: workers only dereference indices from their own
/// disjoint range/position set, and the underlying buffers outlive the
/// fan-out (scoped threads join before the owning function returns).
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. A method (rather than field access) so that
    /// closures capture the whole `SendPtr` — edition-2021 disjoint capture
    /// would otherwise capture the bare `*mut T` field, which is not `Send`.
    fn get(self) -> *mut T {
        self.0
    }
}

#[allow(unsafe_code)]
// SAFETY: sending/sharing the pointer itself is free; dereferences are
// justified per use site (disjoint index sets, buffers outlive the scope).
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
// SAFETY: see the `Send` impl above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Converts a fully-initialised `Vec<MaybeUninit<T>>` into `Vec<T>`.
///
/// Callers must have written every position exactly once.
#[allow(unsafe_code)]
fn assume_init_vec<T>(v: Vec<MaybeUninit<T>>) -> Vec<T> {
    let mut v = ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: `MaybeUninit<T>` has the same layout as `T`, every slot is
    // initialised (caller contract), and the original Vec is forgotten so
    // the allocation has exactly one owner.
    unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, cap) }
}

/// A fresh uninitialised buffer of length `n`.
fn uninit_vec<T>(n: usize) -> Vec<MaybeUninit<T>> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, MaybeUninit::uninit);
    v
}

#[cfg(debug_assertions)]
fn debug_check_permutation(pos: &[usize]) {
    let mut seen = vec![false; pos.len()];
    for &p in pos {
        assert!(p < pos.len(), "position {p} out of range");
        assert!(!seen[p], "position {p} written twice");
        seen[p] = true;
    }
}

#[cfg(not(debug_assertions))]
fn debug_check_permutation(_pos: &[usize]) {}

/// Consumes `src` and returns `out` with `out[pos[i]] = src[i]`, moving every
/// element exactly once. `pos` must be a permutation of `0..src.len()`
/// (checked in debug builds); workers move disjoint index ranges in
/// parallel.
#[allow(unsafe_code)]
pub(crate) fn permute_owned<T: Send>(
    executor: &Executor,
    mut src: Vec<T>,
    pos: &[usize],
) -> Vec<T> {
    let n = src.len();
    assert_eq!(pos.len(), n, "one position per element required");
    debug_check_permutation(pos);
    let mut out = uninit_vec::<T>(n);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let src_ptr = SendPtr(src.as_mut_ptr());
    // SAFETY: zero the length first so elements are owned by the moves below
    // (a panic leaks instead of double-dropping); the buffer itself stays
    // allocated until `src` drops at the end of this function, after every
    // worker has joined.
    unsafe { src.set_len(0) };
    executor.run_spans(&executor.element_spans(n), |_w, range| {
        for i in range {
            // SAFETY: ranges are disjoint, so `src[i]` is read exactly once;
            // `pos` is a permutation, so `out[pos[i]]` is written exactly
            // once; both buffers outlive the joined scope.
            unsafe {
                let t = src_ptr.get().add(i).read();
                out_ptr.get().add(pos[i]).cast::<T>().write(t);
            }
        }
    });
    assume_init_vec(out)
}

/// Debug-only validation that `cursors` (a flat worker-major table of
/// stride `num_dests`) are the exclusive prefix sums of the per-range
/// destination histograms of `dests` — the invariant that makes the scatter
/// below write every output slot exactly once.
#[cfg(debug_assertions)]
fn debug_check_scatter_plan(
    dests: &[usize],
    ranges: &[Range<usize>],
    cursors: &[usize],
    num_dests: usize,
) {
    let m = num_dests;
    let mut expected: Vec<Vec<usize>> = Vec::with_capacity(ranges.len());
    let mut totals = vec![0usize; m];
    for range in ranges {
        let mut hist = vec![0usize; m];
        for &d in &dests[range.clone()] {
            assert!(d < m, "destination {d} out of range");
            hist[d] += 1;
        }
        expected.push(totals.clone());
        for d in 0..m {
            totals[d] += hist[d];
        }
    }
    // Shift per-worker starts by the destination base offsets.
    let mut base = vec![0usize; m];
    let mut acc = 0usize;
    for d in 0..m {
        base[d] = acc;
        acc += totals[d];
    }
    assert_eq!(acc, dests.len(), "histograms must cover every element");
    for (w, starts) in expected.iter().enumerate() {
        for d in 0..m {
            assert_eq!(
                cursors[w * m + d],
                base[d] + starts[d],
                "cursor mismatch at worker {w}, destination {d}"
            );
        }
    }
}

#[cfg(not(debug_assertions))]
fn debug_check_scatter_plan(
    _dests: &[usize],
    _ranges: &[Range<usize>],
    _cursors: &[usize],
    _num_dests: usize,
) {
}

/// The scatter half of the counting shuffle, cloning out of a borrowed
/// source: worker `w` walks `ranges[w]` in order and writes element `i` to the
/// next free slot of its destination's cursor window. `cursors` is a flat
/// worker-major table of stride `num_dests` (`cursors[w * num_dests + d]` =
/// worker `w`'s exclusive-prefix-sum write cursor for destination `d`); each
/// worker advances **its own row in place**, so the table — typically scratch
/// reused across shuffles — is never cloned. The cursor windows partition
/// `0..src.len()` (checked in debug builds), so every output slot is
/// written exactly once.
#[allow(unsafe_code)]
pub(crate) fn scatter_cloned<T: Clone + Send + Sync>(
    executor: &Executor,
    src: &[T],
    dests: &[usize],
    ranges: &[Range<usize>],
    cursors: &mut [usize],
    num_dests: usize,
) -> Vec<T> {
    let n = src.len();
    assert_eq!(dests.len(), n, "one destination per element required");
    assert_eq!(
        ranges.len() * num_dests,
        cursors.len(),
        "one cursor row per range"
    );
    debug_check_scatter_plan(dests, ranges, cursors, num_dests);
    let mut out = uninit_vec::<T>(n);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let cursor_ptr = SendPtr(cursors.as_mut_ptr());
    executor.run_spans(ranges, |w, range| {
        // SAFETY: worker `w` touches only its own stride-`num_dests` cursor
        // row (rows are disjoint across workers), and the table outlives the
        // joined scope.
        let cursor = unsafe {
            std::slice::from_raw_parts_mut(cursor_ptr.get().add(w * num_dests), num_dests)
        };
        for i in range {
            let slot = cursor[dests[i]];
            cursor[dests[i]] += 1;
            // SAFETY: the cursor windows partition the output, so each slot
            // is written exactly once; the buffer outlives the joined scope.
            unsafe {
                out_ptr.get().add(slot).cast::<T>().write(src[i].clone());
            }
        }
    });
    assume_init_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute_owned_applies_the_permutation() {
        for threads in [1usize, 4] {
            let exec = Executor::threaded(threads);
            let src: Vec<String> = (0..500).map(|i| i.to_string()).collect();
            let pos: Vec<usize> = (0..500).map(|i| (i * 7) % 500).collect(); // 7 ⊥ 500
            let out = permute_owned(&exec, src, &pos);
            for i in 0..500 {
                assert_eq!(out[(i * 7) % 500], i.to_string());
            }
        }
    }

    #[test]
    fn scatter_cloned_matches_owned() {
        let exec = Executor::threaded(3);
        let src: Vec<u64> = (0..300).map(|i| i % 7).collect();
        let dests: Vec<usize> = src.iter().map(|&k| (k % 5) as usize).collect();
        // One worker range per executor span; flat worker-major cursor table
        // from the histograms.
        let ranges = exec.worker_spans(300);
        let mut totals = vec![0usize; 5];
        let mut starts: Vec<Vec<usize>> = Vec::new();
        for r in &ranges {
            starts.push(totals.clone());
            for &d in &dests[r.clone()] {
                totals[d] += 1;
            }
        }
        let mut base = [0usize; 5];
        for d in 1..5 {
            base[d] = base[d - 1] + totals[d - 1];
        }
        let mut cursors: Vec<usize> = starts
            .iter()
            .flat_map(|s| (0..5).map(|d| base[d] + s[d]))
            .collect();
        let cursors_before = cursors.clone();
        let cloned = scatter_cloned(&exec, &src, &dests, &ranges, &mut cursors, 5);
        // After the scatter each cursor row has advanced by its histogram.
        assert!(cursors
            .iter()
            .zip(&cursors_before)
            .all(|(after, before)| after >= before));
        assert_eq!(
            cursors.iter().sum::<usize>() - cursors_before.iter().sum::<usize>(),
            300
        );
        // The scatter is a stable counting sort by destination — the same
        // placement the owned primitive produces from explicit positions.
        let mut next = base;
        let pos: Vec<usize> = dests
            .iter()
            .map(|&d| {
                next[d] += 1;
                next[d] - 1
            })
            .collect();
        assert_eq!(cloned, permute_owned(&exec, src, &pos));
        let mut expected_groups: Vec<u64> = Vec::new();
        for d in 0..5u64 {
            expected_groups.extend((0..300u64).map(|i| i % 7).filter(|&k| k % 5 == d));
        }
        assert_eq!(cloned, expected_groups);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let exec = Executor::threaded(8);
        assert!(permute_owned(&exec, Vec::<u64>::new(), &[]).is_empty());
        assert!(scatter_cloned(&exec, &[] as &[u64], &[], &[], &mut [], 4).is_empty());
    }
}
