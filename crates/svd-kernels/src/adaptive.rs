//! Convergence-adaptive sweep state: threshold-Jacobi gating plus
//! dirty-column pair skipping.
//!
//! Classic cyclic Jacobi visits every one of the `n·(n−1)/2` column pairs
//! in every sweep, even in late sweeps where almost all pairs already
//! satisfy the Eq. (6) criterion and the rotation is numerically a no-op.
//! Two classic refinements cut that waste without giving up convergence:
//!
//! 1. **Threshold gating** (de Rijk / Demmel–Veselić): a per-sweep
//!    threshold gates each rotation — after the fused α/β/γ products, a
//!    pair whose measure `|γ|/√(αβ)` falls below the threshold skips the
//!    rotation and the O(n) apply traversal. The schedule
//!    ([`sweep_threshold`]) contracts with the measured convergence and is
//!    floored at the target precision, so a gated rotation is always one
//!    the final accuracy could have absorbed anyway.
//! 2. **Dirty-column pair skipping**: every column carries a version
//!    counter bumped when a rotation touches it, and every pair caches the
//!    measure of its last visit together with the column versions it was
//!    computed from ([`PairVisit`]). If neither column changed since a
//!    visit that was gated, the inner products would be *bitwise
//!    identical* — so the cached measure is reused and even the O(n) dot
//!    products are skipped. This is exact memoization, not an
//!    approximation: only the threshold gate itself perturbs the
//!    iteration.
//!
//! The memoization invariant in one line: a [`PairVisit`] entry stores the
//! *pre-rotation* column versions, and an applied rotation bumps both
//! columns' versions afterwards — so an entry written by a rotating visit
//! can never match and a stale measure can never be replayed.
//!
//! With `threshold == 0` the state is inert (the measure is non-negative,
//! so neither the gate nor the memo can ever fire) and the sweep is
//! bit-identical to the exact engine. All bookkeeping lives in two flat
//! vectors allocated up front, preserving the zero-alloc steady state of
//! the orthogonalization pipeline.
//!
//! A visit touches only its two columns, their version counters and the
//! pair's cache entry, so visits on disjoint columns may run on different
//! threads: [`SharedColumns`] opens a matrix and its state for that.

use crate::matrix::Matrix;
use crate::rotation::{orthogonalize_pair_gated, orthogonalize_pair_thresholded};
use crate::scalar::Real;
use std::marker::PhantomData;

/// Convergence level at which the threshold schedule trusts the
/// quadratic tail of one-sided Jacobi (see [`sweep_threshold`]).
///
/// Above this level the iteration is still in its chaotic early phase:
/// gating *any* rotation there defers work whose off-diagonal mass
/// compounds and measurably delays convergence (deferred pairs interact
/// with every rotation sharing a column, so even sub-dominant skips
/// stretch the pre-quadratic phase by whole sweeps). Below it the sweep
/// maximum contracts at least quadratically, and a pair gated at `prev²`
/// sits exactly where the exact sweep would have left it anyway.
pub const QUADRATIC_ONSET: f64 = 1e-2;

/// The per-sweep rotation threshold of the adaptive engine.
///
/// * First sweep (`prev_max_conv == None`) and any sweep while the
///   previous maximum is above [`QUADRATIC_ONSET`]: the target
///   `precision`. Only pairs that already satisfy the final Eq. (6)
///   criterion are gated — skipping them perturbs the factorization at
///   the level the accuracy budget absorbs by definition, so the early
///   trajectory is preserved sweep for sweep.
/// * Once the previous maximum falls below [`QUADRATIC_ONSET`]:
///   `max(precision, prev²)`. In the quadratic regime the exact sweep
///   would contract every measure to ~`prev²` anyway; gating below that
///   level leaves the next sweep's maximum — which gated pairs still
///   feed, since the measure is reported exactly — on the natural
///   trajectory. The threshold stays below `prev`, so the dominant pair
///   always rotates and the iteration cannot livelock.
pub fn sweep_threshold(prev_max_conv: Option<f64>, precision: f64) -> f64 {
    match prev_max_conv {
        Some(prev) if prev < QUADRATIC_ONSET => (prev * prev).max(precision),
        _ => precision,
    }
}

/// `true` when a call to
/// [`orthogonalize_pair_thresholded`] with this measure and threshold
/// applied a rotation: the measure is positive (not the identity) and at
/// or above the gate.
#[inline]
pub fn did_rotate<T: Real>(conv: T, threshold: T) -> bool {
    conv > T::ZERO && conv >= threshold
}

/// Canonical index of the unordered pair `{u, v}` in a flat triangular
/// array: with `i < j`, `pair_id = j·(j−1)/2 + i`, covering
/// `0..cols·(cols−1)/2`.
#[inline]
pub fn pair_id(u: usize, v: usize) -> usize {
    let (i, j) = if u < v { (u, v) } else { (v, u) };
    j * (j - 1) / 2 + i
}

/// One pair's last-visit record: the Eq. (6) measure it computed and the
/// versions both columns had *before* any rotation of that visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVisit<T> {
    /// Measure `|γ|/√(αβ)` computed at the last visit.
    pub conv: T,
    /// Version of the lower-indexed column when `conv` was computed.
    pub ver_lo: u32,
    /// Version of the higher-indexed column when `conv` was computed.
    pub ver_hi: u32,
}

/// Work the adaptive gate saved on one thread: merged into the state
/// with [`AdaptiveState::absorb`] after a [`SharedColumns`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VisitTally {
    /// Visits answered from the pair cache.
    pub memo_skips: u64,
    /// Visits that ran the products but gated the rotation.
    pub gated_rotations: u64,
}

impl VisitTally {
    /// Adds `other`'s counts.
    pub fn add(&mut self, other: VisitTally) {
        self.memo_skips += other.memo_skips;
        self.gated_rotations += other.gated_rotations;
    }
}

/// Dirty-column versions plus the per-pair last-visit cache for one
/// matrix, with the current sweep's threshold.
///
/// Allocated once up front (`cols` version counters plus
/// `cols·(cols−1)/2` cache entries); every visit afterwards is
/// allocation-free.
#[derive(Debug)]
pub struct AdaptiveState<T> {
    threshold: T,
    col_version: Vec<u32>,
    cache: Vec<PairVisit<T>>,
    tally: VisitTally,
}

impl<T: Real> AdaptiveState<T> {
    /// Fresh state for a matrix with `cols` columns. Column versions start
    /// at 1 and cache entries at version 0, so no pair can memo-skip
    /// before its first real visit.
    pub fn new(cols: usize) -> Self {
        AdaptiveState {
            threshold: T::ZERO,
            col_version: vec![1; cols],
            cache: vec![
                PairVisit {
                    conv: T::ZERO,
                    ver_lo: 0,
                    ver_hi: 0,
                };
                cols * cols.saturating_sub(1) / 2
            ],
            tally: VisitTally::default(),
        }
    }

    /// Sets the rotation threshold for the next sweep (see
    /// [`sweep_threshold`]). `0` makes the state inert (exact sweeps).
    pub fn set_threshold(&mut self, threshold: T) {
        self.threshold = threshold;
    }

    /// The current rotation threshold.
    pub fn threshold(&self) -> T {
        self.threshold
    }

    /// Number of visits answered from the pair cache (both columns clean
    /// since a gated visit): even the dot products were skipped.
    pub fn memo_skips(&self) -> u64 {
        self.tally.memo_skips
    }

    /// Number of visits that ran the products but gated the rotation
    /// (measure below the threshold, identity pairs included).
    pub fn gated_rotations(&self) -> u64 {
        self.tally.gated_rotations
    }

    /// Adds the counts of visits made through a [`SharedColumns`] view.
    pub fn absorb(&mut self, tally: VisitTally) {
        self.tally.add(tally);
    }

    /// Visits the column pair `(u, v)` of `m`: memo-skip when both columns
    /// are clean since a gated visit, otherwise run the threshold-gated
    /// kernel and update the dirty-column/cache state. Returns the exact
    /// Eq. (6) measure of the pair in both cases.
    pub fn visit(&mut self, m: &mut Matrix<T>, u: usize, v: usize, floor_sq: T) -> T {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let [ver_lo, ver_hi] = self
            .col_version
            .get_disjoint_mut([lo, hi])
            .expect("column pair indices must be distinct and in range");
        let (x, y) = m.col_pair_mut(u, v);
        visit_pair(
            x,
            y,
            ver_lo,
            ver_hi,
            &mut self.cache[pair_id(lo, hi)],
            self.threshold,
            floor_sq,
            &mut self.tally,
        )
    }
}

/// One adaptive visit on borrowed state: columns `x`/`y` with their
/// version counters (lower-indexed column first) and the pair's cache
/// entry.
#[allow(clippy::too_many_arguments)]
#[inline]
fn visit_pair<T: Real>(
    x: &mut [T],
    y: &mut [T],
    ver_lo: &mut u32,
    ver_hi: &mut u32,
    entry: &mut PairVisit<T>,
    threshold: T,
    floor_sq: T,
    tally: &mut VisitTally,
) -> T {
    if entry.ver_lo == *ver_lo && entry.ver_hi == *ver_hi && entry.conv < threshold {
        // Both columns untouched since a gated visit: the products would
        // be bitwise identical, so the cached measure stands in exactly.
        tally.memo_skips += 1;
        return entry.conv;
    }
    let conv = orthogonalize_pair_thresholded(x, y, floor_sq, threshold);
    // Record the *pre-rotation* versions: if the rotation fired, the
    // bumps below immediately invalidate this entry, so a stale measure
    // can never be replayed.
    *entry = PairVisit {
        conv,
        ver_lo: *ver_lo,
        ver_hi: *ver_hi,
    };
    if did_rotate(conv, threshold) {
        *ver_lo = ver_lo.wrapping_add(1);
        *ver_hi = ver_hi.wrapping_add(1);
    } else {
        tally.gated_rotations += 1;
    }
    conv
}

/// A matrix, and its adaptive state if any, opened for column-pair
/// visits from several threads at once.
///
/// **The matching invariant.** A visit of `(u, v)` writes columns `u` and
/// `v`, their two version counters and the `{u, v}` cache entry, and
/// nothing else. Visits whose column sets are disjoint therefore touch
/// disjoint memory, and may run concurrently. The passes of one round
/// of a round-robin block schedule qualify: a round is a matching of
/// blocks, so no column appears in two of its passes. Callers that
/// share a view across threads must uphold this; [`SharedColumns::visit`]
/// is `unsafe` for that reason alone.
///
/// Without an adaptive state a visit is the plain gated rotation
/// ([`crate::rotation::orthogonalize_pair_gated`]). With one it is
/// exactly [`AdaptiveState::visit`], except that the saved-work counts go
/// to the caller's [`VisitTally`] (merge them with
/// [`AdaptiveState::absorb`] once the view is dropped).
#[derive(Debug)]
pub struct SharedColumns<'a, T> {
    data: *mut T,
    rows: usize,
    cols: usize,
    /// Version counters and pair cache, `None` without adaptive state.
    adaptive: Option<(*mut u32, *mut PairVisit<T>)>,
    threshold: T,
    _borrow: PhantomData<(&'a mut Matrix<T>, &'a mut AdaptiveState<T>)>,
}

// SAFETY: the view is a pair of exclusive borrows; sharing it across
// threads is sound under the matching invariant that `visit` demands.
unsafe impl<T: Send> Send for SharedColumns<'_, T> {}
// SAFETY: as above — concurrent visits touch disjoint memory.
unsafe impl<T: Send> Sync for SharedColumns<'_, T> {}

impl<'a, T: Real> SharedColumns<'a, T> {
    /// Opens `m` (and `state`, sized for `m`) for shared visits.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different column count.
    pub fn new(m: &'a mut Matrix<T>, state: Option<&'a mut AdaptiveState<T>>) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let threshold = state.as_ref().map_or(T::ZERO, |s| s.threshold);
        let adaptive = state.map(|s| {
            assert_eq!(
                s.col_version.len(),
                cols,
                "adaptive state sized for another matrix"
            );
            (s.col_version.as_mut_ptr(), s.cache.as_mut_ptr())
        });
        SharedColumns {
            data: m.as_mut_slice().as_mut_ptr(),
            rows,
            cols,
            adaptive,
            threshold,
            _borrow: PhantomData,
        }
    }

    /// The rotation threshold visits gate at (`0` without adaptive
    /// state).
    pub fn threshold(&self) -> T {
        self.threshold
    }

    /// Visits the column pair `(u, v)` and returns its exact Eq. (6)
    /// measure (see the type docs for what it does).
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either index is out of range.
    ///
    /// # Safety
    ///
    /// No other visit on this view may run concurrently on column `u` or
    /// column `v` (the matching invariant).
    #[inline]
    pub unsafe fn visit(&self, u: usize, v: usize, floor_sq: T, tally: &mut VisitTally) -> T {
        assert!(
            u != v && u < self.cols && v < self.cols,
            "column pair ({u}, {v}) invalid for {} columns",
            self.cols
        );
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        // SAFETY: `u` and `v` are distinct in-range columns, so the two
        // slices, the two counters and the cache entry are disjoint and
        // in bounds; the caller guarantees no concurrent visit touches
        // them, so these are the only live references.
        unsafe {
            let x = std::slice::from_raw_parts_mut(self.data.add(u * self.rows), self.rows);
            let y = std::slice::from_raw_parts_mut(self.data.add(v * self.rows), self.rows);
            match self.adaptive {
                None => orthogonalize_pair_gated(x, y, floor_sq),
                Some((versions, cache)) => visit_pair(
                    x,
                    y,
                    &mut *versions.add(lo),
                    &mut *versions.add(hi),
                    &mut *cache.add(pair_id(lo, hi)),
                    self.threshold,
                    floor_sq,
                    tally,
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f64 - 1000.0) / 100.0
        })
    }

    #[test]
    fn pair_id_is_a_bijection_over_the_triangle() {
        let cols = 9;
        let mut seen = vec![false; cols * (cols - 1) / 2];
        for j in 1..cols {
            for i in 0..j {
                let id = pair_id(i, j);
                assert_eq!(id, pair_id(j, i), "order-independent");
                assert!(!seen[id], "duplicate id {id} for ({i},{j})");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn schedule_starts_at_precision_and_contracts() {
        let precision = 1e-6;
        assert_eq!(sweep_threshold(None, precision), precision);
        // Pre-quadratic phase: the gate stays pinned at precision so no
        // trajectory-relevant rotation is ever deferred.
        assert_eq!(sweep_threshold(Some(0.5), precision), precision);
        assert_eq!(sweep_threshold(Some(QUADRATIC_ONSET), precision), precision);
        // Quadratic tail: the gate tracks the natural contraction rate.
        let t = sweep_threshold(Some(1e-3), precision);
        assert_eq!(t, 1e-6);
        assert!(t < 1e-3, "dominant pair stays eligible");
        assert_eq!(
            sweep_threshold(Some(2e-4), precision),
            4e-8_f64.max(precision)
        );
        // Floored at precision once convergence gets close.
        assert_eq!(sweep_threshold(Some(2e-6), precision), precision);
    }

    /// The zero-threshold visit is the exact rotation, bit for bit, in
    /// both precisions (the orthogonalization pipeline runs `f32`).
    fn assert_zero_threshold_is_exact<T: Real>() {
        let seeded = test_matrix(12, 6, 3);
        let mut exact = Matrix::from_fn(12, 6, |r, c| T::from_f64(seeded[(r, c)]));
        let mut adaptive = exact.clone();
        let mut state = AdaptiveState::new(6);
        state.set_threshold(T::ZERO);
        for _ in 0..3 {
            for j in 1..6 {
                for i in 0..j {
                    let (x, y) = exact.col_pair_mut(i, j);
                    let c1 = orthogonalize_pair_gated(x, y, T::ZERO);
                    let c2 = state.visit(&mut adaptive, i, j, T::ZERO);
                    assert_eq!(c1, c2);
                }
            }
        }
        assert_eq!(exact.as_slice(), adaptive.as_slice());
        assert_eq!(state.memo_skips(), 0, "nothing can memo-skip at 0");
    }

    #[test]
    fn zero_threshold_state_is_inert_and_bit_identical() {
        assert_zero_threshold_is_exact::<f64>();
        assert_zero_threshold_is_exact::<f32>();
    }

    #[test]
    fn clean_gated_pair_memo_skips_and_reports_cached_measure() {
        let mut m = test_matrix(10, 4, 7);
        let mut state = AdaptiveState::new(4);
        // Huge threshold: every visit is gated, nothing rotates, so the
        // second full cycle must be answered entirely from the cache.
        state.set_threshold(1e9);
        let mut first = Vec::new();
        for j in 1..4 {
            for i in 0..j {
                first.push(state.visit(&mut m, i, j, 0.0));
            }
        }
        assert_eq!(state.memo_skips(), 0);
        let before = m.as_slice().to_vec();
        let mut second = Vec::new();
        for j in 1..4 {
            for i in 0..j {
                second.push(state.visit(&mut m, i, j, 0.0));
            }
        }
        assert_eq!(first, second, "cached measures are exact");
        assert_eq!(state.memo_skips(), 6);
        assert_eq!(m.as_slice(), &before[..]);
    }

    #[test]
    fn rotation_dirties_both_columns() {
        let mut m = test_matrix(10, 4, 11);
        let mut state = AdaptiveState::new(4);
        // Small threshold: the random pair (0,1) rotates.
        state.set_threshold(1e-12);
        let skips_before = state.memo_skips();
        state.visit(&mut m, 0, 1, 0.0);
        // Both columns now dirty: revisiting (0,1) — and any pair touching
        // column 0 or 1 — must recompute, not memo-skip.
        state.visit(&mut m, 0, 1, 0.0);
        state.visit(&mut m, 1, 2, 0.0);
        assert_eq!(state.memo_skips(), skips_before);
    }

    #[test]
    fn recompute_when_threshold_drops_below_cached_measure() {
        let mut m = test_matrix(10, 4, 5);
        let mut state = AdaptiveState::new(4);
        state.set_threshold(1e9);
        let conv = state.visit(&mut m, 0, 1, 0.0); // gated, cached
        assert!(conv > 0.0);
        // Tighten the threshold below the cached measure: the pair is no
        // longer converged for this sweep and must rotate.
        state.set_threshold(conv / 2.0);
        let skips = state.memo_skips();
        let conv2 = state.visit(&mut m, 0, 1, 0.0);
        assert_eq!(conv, conv2, "clean columns reproduce the measure");
        assert_eq!(state.memo_skips(), skips, "not a memo skip");
        // The rotation fired, so the pair is now (nearly) orthogonal.
        let conv3 = state.visit(&mut m, 0, 1, 0.0);
        assert!(conv3 < conv2);
    }

    /// Visits through a shared view, split across two threads by a
    /// matching, equal the serial state visits bit for bit.
    #[test]
    fn shared_view_matches_serial_visits_across_threads() {
        let seeded = test_matrix(16, 8, 9);
        let mut serial = seeded.cast::<f32>();
        let mut shared = serial.clone();
        let mut serial_state = AdaptiveState::<f32>::new(8);
        let mut shared_state = AdaptiveState::<f32>::new(8);
        let rounds = crate::jacobi::round_robin_rounds(8);
        for sweep in 0..4 {
            let threshold = if sweep == 0 { 0.0 } else { 1e-3 };
            serial_state.set_threshold(threshold);
            shared_state.set_threshold(threshold);
            for round in &rounds {
                for &(u, v) in round {
                    serial_state.visit(&mut serial, u, v, 0.0);
                }
            }
            let view = SharedColumns::new(&mut shared, Some(&mut shared_state));
            let mut tallies = [VisitTally::default(); 2];
            for round in &rounds {
                let (front, back) = round.split_at(round.len() / 2);
                std::thread::scope(|s| {
                    for (half, tally) in [front, back].into_iter().zip(tallies.iter_mut()) {
                        let view = &view;
                        s.spawn(move || {
                            for &(u, v) in half {
                                // SAFETY: a round is a matching, so the two
                                // halves visit disjoint columns.
                                unsafe { view.visit(u, v, 0.0, tally) };
                            }
                        });
                    }
                });
            }
            for tally in tallies {
                shared_state.absorb(tally);
            }
        }
        assert_eq!(serial.as_slice(), shared.as_slice());
        assert_eq!(serial_state.memo_skips(), shared_state.memo_skips());
        assert_eq!(
            serial_state.gated_rotations(),
            shared_state.gated_rotations()
        );
        assert!(shared_state.memo_skips() + shared_state.gated_rotations() > 0);
    }
}
