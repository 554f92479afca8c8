//! Block-Jacobi decomposition (Algorithm 1's software analog).
//!
//! To solve large problems with bounded per-step working sets, the matrix is
//! split into `p` blocks of `block_cols` columns. Block pairs are enumerated
//! round-robin; within a block pair all column pairs across the `2·block_cols`
//! columns are orthogonalized. This exactly mirrors how HeteroSVD streams
//! block pairs to the orth-AIE array (Algorithm 1, lines 4–16).

use crate::adaptive::{did_rotate, sweep_threshold, AdaptiveState};
use crate::jacobi::{normalize, round_robin_rounds, SvdResult, SweepStats};
use crate::matrix::Matrix;
use crate::rotation::{apply_rotation, column_products, compute_rotation_gated};
use crate::scalar::Real;
use crate::SvdError;
use serde::{Deserialize, Serialize};

/// A partition of a matrix's columns into equally sized blocks.
///
/// # Example
///
/// ```
/// use svd_kernels::BlockPartition;
///
/// # fn main() -> Result<(), svd_kernels::SvdError> {
/// let p = BlockPartition::new(16, 4)?;
/// assert_eq!(p.num_blocks(), 4);
/// assert_eq!(p.pair_columns(0, 2), vec![0, 1, 2, 3, 8, 9, 10, 11]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockPartition {
    /// Total number of columns.
    pub cols: usize,
    /// Columns per block (`k` in the paper; equals `P_eng` on hardware).
    pub block_cols: usize,
}

impl BlockPartition {
    /// Creates a partition of `cols` columns into blocks of `block_cols`.
    ///
    /// # Errors
    ///
    /// Returns [`SvdError::InvalidBlocking`] when `block_cols` is zero or
    /// does not divide `cols`.
    pub fn new(cols: usize, block_cols: usize) -> Result<Self, SvdError> {
        if block_cols == 0 || !cols.is_multiple_of(block_cols) {
            return Err(SvdError::InvalidBlocking { cols, block_cols });
        }
        Ok(BlockPartition { cols, block_cols })
    }

    /// Number of blocks `p = cols / block_cols`.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.cols / self.block_cols
    }

    /// The column index range of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.num_blocks()`.
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        assert!(b < self.num_blocks(), "block index {b} out of range");
        b * self.block_cols..(b + 1) * self.block_cols
    }

    /// Global column indices of the combined block pair `(u, v)`, block `u`
    /// first. This is the column set streamed to the AIE array for one
    /// block-pair pass.
    pub fn pair_columns(&self, u: usize, v: usize) -> Vec<usize> {
        let mut cols: Vec<usize> = self.block_range(u).collect();
        cols.extend(self.block_range(v));
        cols
    }
}

/// A schedule of block pairs covering all `p·(p−1)/2` pairs, arranged in
/// rounds of disjoint pairs (round-robin, Brent–Luk style).
///
/// Disjointness within a round is what allows `P_task`-way task parallelism
/// without write conflicts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockPairSchedule {
    rounds: Vec<Vec<(usize, usize)>>,
    num_blocks: usize,
}

impl BlockPairSchedule {
    /// Builds the round-robin schedule for `num_blocks` blocks.
    ///
    /// Every round is a matching (no block appears twice in it): the
    /// round-parallel sweep of the accelerator runs a round's passes on
    /// two threads and relies on this for memory safety.
    pub fn round_robin(num_blocks: usize) -> Self {
        let rounds = round_robin_rounds(num_blocks);
        debug_assert!(
            rounds.iter().all(|round| {
                let mut blocks: Vec<usize> = round.iter().flat_map(|&(u, v)| [u, v]).collect();
                blocks.sort_unstable();
                blocks.windows(2).all(|w| w[0] != w[1])
            }),
            "a round-robin round repeats a block"
        );
        BlockPairSchedule { rounds, num_blocks }
    }

    /// Rounds of disjoint block pairs.
    pub fn rounds(&self) -> &[Vec<(usize, usize)>] {
        &self.rounds
    }

    /// Flat iteration order over all block pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rounds.iter().flatten().copied()
    }

    /// Total number of block pairs.
    pub fn len(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// `true` when there are no pairs (fewer than two blocks).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks the schedule was built for.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }
}

/// Options for the block-Jacobi driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockJacobiOptions {
    /// Columns per block (`P_eng` on hardware).
    pub block_cols: usize,
    /// Convergence threshold for Eq. (6).
    pub precision: f64,
    /// Hard cap on outer iterations (full passes over all block pairs).
    pub max_iterations: usize,
    /// Run exactly this many iterations regardless of convergence
    /// (the paper's Table II/VI protocol fixes six iterations).
    pub fixed_iterations: Option<usize>,
    /// Run convergence-adaptive sweeps: threshold-Jacobi gating plus
    /// dirty-column pair skipping across block-pair passes (see
    /// [`crate::adaptive`]). Off by default — the block driver is the
    /// software reference the accelerator's exact trajectory is checked
    /// against.
    pub adaptive: bool,
}

impl Default for BlockJacobiOptions {
    fn default() -> Self {
        BlockJacobiOptions {
            block_cols: 4,
            precision: 1e-10,
            max_iterations: 40,
            fixed_iterations: None,
            adaptive: false,
        }
    }
}

/// Runs block-Jacobi SVD: the software reference for Algorithm 1.
///
/// Within each block pair, all column pairs over the combined `2k` columns
/// are orthogonalized in round-robin order — the same set of pair
/// orthogonalizations the shifting-ring hardware schedule performs, so the
/// numerical trajectory matches the accelerator's.
///
/// # Example
///
/// ```
/// use svd_kernels::{block::block_jacobi, BlockJacobiOptions, Matrix};
///
/// # fn main() -> Result<(), svd_kernels::SvdError> {
/// let a = Matrix::from_fn(12, 8, |r, c| ((r * 5 + c * 3) % 7) as f64 - 3.0);
/// let svd = block_jacobi(&a, &BlockJacobiOptions { block_cols: 2, ..Default::default() })?;
/// assert!(svd.reconstruction_error(&a) < 1e-8);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`SvdError::InvalidBlocking`] when `opts.block_cols` does not divide
///   the column count.
/// * [`SvdError::DimensionMismatch`] / [`SvdError::NonFinite`] as in
///   [`crate::jacobi::hestenes_jacobi`].
/// * [`SvdError::NotConverged`] when `max_iterations` passes do not reach
///   `precision` (not raised under `fixed_iterations`).
pub fn block_jacobi<T: Real>(
    a: &Matrix<T>,
    opts: &BlockJacobiOptions,
) -> Result<SvdResult<T>, SvdError> {
    if a.rows() < a.cols() {
        return Err(SvdError::DimensionMismatch(format!(
            "one-sided jacobi requires rows >= cols, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if !a.is_finite() {
        return Err(SvdError::NonFinite);
    }
    let partition = BlockPartition::new(a.cols(), opts.block_cols)?;
    let p = partition.num_blocks();
    let schedule = BlockPairSchedule::round_robin(p);

    let mut b = a.clone();
    let floor_sq = a.column_norm_floor_sq();
    let mut adaptive_state = opts.adaptive.then(|| AdaptiveState::<T>::new(a.cols()));
    let mut history = Vec::new();
    let iters = opts.fixed_iterations.unwrap_or(opts.max_iterations);
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..iters {
        let mut max_conv = 0.0_f64;
        let mut rotations = 0usize;

        if let Some(state) = adaptive_state.as_mut() {
            let prev = history.last().map(|h: &SweepStats| h.max_convergence);
            state.set_threshold(T::from_f64(sweep_threshold(prev, opts.precision)));
        }
        let mut run_set = |b: &mut Matrix<T>, cols: &[usize]| match adaptive_state.as_mut() {
            Some(state) => orthogonalize_column_set_adaptive(b, cols, floor_sq, state),
            None => orthogonalize_column_set(b, cols, floor_sq),
        };

        if p == 1 {
            // Single block: orthogonalize within it directly.
            let cols: Vec<usize> = partition.block_range(0).collect();
            let (c, r) = run_set(&mut b, &cols);
            max_conv = max_conv.max(c);
            rotations += r;
        } else {
            for (u, v) in schedule.iter() {
                let cols = partition.pair_columns(u, v);
                let (c, r) = run_set(&mut b, &cols);
                max_conv = max_conv.max(c);
                rotations += r;
            }
        }

        history.push(SweepStats {
            sweep: iter,
            max_convergence: max_conv,
            rotations,
        });
        iterations = iter + 1;
        if opts.fixed_iterations.is_none() && max_conv < opts.precision {
            converged = true;
            break;
        }
    }

    if opts.fixed_iterations.is_none() && !converged && a.cols() > 1 {
        let last = history.last().map(|h| h.max_convergence).unwrap_or(0.0);
        if last >= opts.precision {
            return Err(SvdError::NotConverged {
                sweeps: iterations,
                off_diagonal: last,
            });
        }
    }

    let (u, sigma) = normalize(&b);
    Ok(SvdResult {
        u,
        sigma,
        v: None,
        sweeps: iterations,
        history,
    })
}

/// Orthogonalizes all pairs of the given column subset (round-robin order),
/// returning `(max convergence measure, rotation count)`.
///
/// `floor_sq` is the numerical-noise gate of
/// [`crate::rotation::compute_rotation_gated`]; pass
/// [`Matrix::column_norm_floor_sq`] of the original matrix (or zero to
/// disable gating).
pub fn orthogonalize_column_set<T: Real>(
    b: &mut Matrix<T>,
    cols: &[usize],
    floor_sq: T,
) -> (f64, usize) {
    let mut max_conv = 0.0_f64;
    let mut rotations = 0usize;
    for round in round_robin_rounds(cols.len()) {
        for (li, lj) in round {
            let (i, j) = (cols[li], cols[lj]);
            let (alpha, beta, gamma) = {
                let (ci, cj) = b.col_pair_mut(i, j);
                column_products(ci, cj)
            };
            let rot = compute_rotation_gated(alpha, beta, gamma, floor_sq);
            max_conv = max_conv.max(rot.convergence.to_f64());
            if !rot.identity {
                rotations += 1;
                let (ci, cj) = b.col_pair_mut(i, j);
                apply_rotation(ci, cj, rot);
            }
        }
    }
    (max_conv, rotations)
}

/// [`orthogonalize_column_set`] through the convergence-adaptive state:
/// each pair either memo-skips, gates, or rotates per `state`'s current
/// threshold. The column indices in `cols` are global, matching the
/// state's matrix-wide version counters, so skips carry across block-pair
/// passes: a pair left clean by one pass stays skippable in every later
/// pass that revisits it.
pub fn orthogonalize_column_set_adaptive<T: Real>(
    b: &mut Matrix<T>,
    cols: &[usize],
    floor_sq: T,
    state: &mut AdaptiveState<T>,
) -> (f64, usize) {
    let mut max_conv = 0.0_f64;
    let mut rotations = 0usize;
    let threshold = state.threshold();
    for round in round_robin_rounds(cols.len()) {
        for (li, lj) in round {
            let conv = state.visit(b, cols[li], cols[lj], floor_sq);
            max_conv = max_conv.max(conv.to_f64());
            if did_rotate(conv, threshold) {
                rotations += 1;
            }
        }
    }
    (max_conv, rotations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::{hestenes_jacobi, JacobiOptions};
    use crate::verify;

    fn sample(m: usize, n: usize) -> Matrix<f64> {
        Matrix::from_fn(m, n, |r, c| {
            ((r * 41 + c * 17 + 5) % 23) as f64 / 5.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn partition_validates_divisibility() {
        assert!(BlockPartition::new(12, 4).is_ok());
        assert!(matches!(
            BlockPartition::new(10, 4),
            Err(SvdError::InvalidBlocking { .. })
        ));
        assert!(BlockPartition::new(10, 0).is_err());
    }

    #[test]
    fn partition_ranges_and_pair_columns() {
        let p = BlockPartition::new(12, 4).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.block_range(1), 4..8);
        assert_eq!(p.pair_columns(0, 2), vec![0, 1, 2, 3, 8, 9, 10, 11]);
    }

    #[test]
    fn schedule_covers_all_block_pairs() {
        let s = BlockPairSchedule::round_robin(6);
        assert_eq!(s.len(), 15);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in s.iter() {
            assert!(u < v);
            assert!(seen.insert((u, v)));
        }
        // Rounds contain disjoint blocks.
        for round in s.rounds() {
            let mut used = std::collections::HashSet::new();
            for &(u, v) in round {
                assert!(used.insert(u));
                assert!(used.insert(v));
            }
        }
    }

    #[test]
    fn schedule_one_block_is_empty() {
        let s = BlockPairSchedule::round_robin(1);
        assert!(s.is_empty());
    }

    #[test]
    fn block_jacobi_matches_reference_singular_values() {
        let a = sample(16, 16);
        let golden = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let blocked = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 4,
                precision: 1e-10,
                ..Default::default()
            },
        )
        .unwrap();
        let err = verify::singular_value_error(
            &golden.sorted_singular_values(),
            &blocked.sorted_singular_values(),
        );
        assert!(err < 1e-8, "singular value error {err}");
    }

    #[test]
    fn block_jacobi_single_block_works() {
        let a = sample(8, 4);
        let r = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.reconstruction_error(&a) < 1e-8);
    }

    #[test]
    fn block_jacobi_rejects_bad_blocking() {
        let a = sample(8, 6);
        let r = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 4,
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(SvdError::InvalidBlocking { .. })));
    }

    #[test]
    fn fixed_iterations_never_raises_not_converged() {
        let a = sample(12, 12);
        let r = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 4,
                precision: 1e-30, // unreachable
                fixed_iterations: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.sweeps, 2);
    }

    #[test]
    fn six_fixed_iterations_reach_high_accuracy() {
        // The paper's protocol: six iterations per matrix (§V-B).
        let a = sample(32, 32);
        let r = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 8,
                fixed_iterations: Some(6),
                ..Default::default()
            },
        )
        .unwrap();
        let golden = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let err = verify::singular_value_error(
            &golden.sorted_singular_values(),
            &r.sorted_singular_values(),
        );
        assert!(err < 1e-6, "singular value error after 6 iterations: {err}");
    }

    #[test]
    fn adaptive_block_jacobi_matches_exact_within_tolerance() {
        let a = sample(24, 16);
        let precision = 1e-8;
        let exact = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 4,
                precision,
                ..Default::default()
            },
        )
        .unwrap();
        let adaptive = block_jacobi(
            &a,
            &BlockJacobiOptions {
                block_cols: 4,
                precision,
                adaptive: true,
                ..Default::default()
            },
        )
        .unwrap();
        let err = verify::singular_value_error(
            &exact.sorted_singular_values(),
            &adaptive.sorted_singular_values(),
        );
        assert!(err <= 10.0 * precision, "singular value error {err}");
        let diff = exact.sweeps.abs_diff(adaptive.sweeps);
        assert!(diff <= 1, "{} vs {} sweeps", exact.sweeps, adaptive.sweeps);
    }

    #[test]
    fn orthogonalize_column_set_reduces_convergence_measure() {
        let mut b = sample(10, 6);
        let cols = vec![0, 1, 2, 3, 4, 5];
        let (c1, _) = orthogonalize_column_set(&mut b, &cols, 0.0);
        let (c2, _) = orthogonalize_column_set(&mut b, &cols, 0.0);
        let (c3, _) = orthogonalize_column_set(&mut b, &cols, 0.0);
        assert!(c1 > 0.0);
        assert!(c3 < c1, "convergence should improve: {c1} -> {c2} -> {c3}");
    }
}
