//! Property-based tests of the numerical kernels.

use proptest::prelude::*;
use std::collections::HashMap;
use svd_kernels::block::{block_jacobi, BlockJacobiOptions};
use svd_kernels::jacobi::{hestenes_jacobi, round_robin_rounds, JacobiOptions};
use svd_kernels::lru::ByteLru;
use svd_kernels::qr::{householder_qr, qr_preconditioned_svd};
use svd_kernels::rotation::{apply_rotation, column_products, compute_rotation};
use svd_kernels::{verify, Matrix};

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix<f64>> {
    (2usize..max_dim, 0usize..6, any::<u64>()).prop_map(|(n, extra, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n + extra, n, |_, _| rng.gen_range(-10.0..10.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Singular values are invariant under row permutations composed as
    /// sign flips (orthogonal transforms of the domain): Q·A has the same
    /// σ as A for a diagonal ±1 Q.
    #[test]
    fn singular_values_invariant_under_sign_flips(a in matrix_strategy(9), flip_seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(flip_seed);
        let flips: Vec<f64> = (0..a.rows()).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
        let flipped = Matrix::from_fn(a.rows(), a.cols(), |r, c| flips[r] * a[(r, c)]);

        let s1 = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap().sorted_singular_values();
        let s2 = hestenes_jacobi(&flipped, &JacobiOptions::default()).unwrap().sorted_singular_values();
        prop_assert!(verify::singular_value_error(&s1, &s2) < 1e-9);
    }

    /// Scaling the matrix scales every singular value.
    #[test]
    fn singular_values_scale_linearly(a in matrix_strategy(8), scale in 0.1_f64..10.0) {
        let s1 = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap().sorted_singular_values();
        let s2 = hestenes_jacobi(&a.scaled(scale), &JacobiOptions::default()).unwrap().sorted_singular_values();
        let scaled: Vec<f64> = s1.iter().map(|v| v * scale).collect();
        prop_assert!(verify::singular_value_error(&scaled, &s2) < 1e-9);
    }

    /// The Frobenius norm equals the l2 norm of the singular values.
    #[test]
    fn frobenius_equals_sigma_norm(a in matrix_strategy(9)) {
        let svd = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let sigma_norm: f64 = svd.sigma.iter().map(|s| s * s).sum::<f64>().sqrt();
        let rel = (a.frobenius_norm() - sigma_norm).abs() / a.frobenius_norm().max(1e-300);
        prop_assert!(rel < 1e-10);
    }

    /// Block-Jacobi agrees with the unblocked reference for every valid
    /// blocking.
    #[test]
    fn block_jacobi_matches_reference(seed in any::<u64>(), blocks in 2usize..5) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let block_cols = 2;
        let n = block_cols * blocks * 2;
        let a = Matrix::from_fn(n + 3, n, |_, _| rng.gen_range(-5.0..5.0));

        let reference = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let blocked = block_jacobi(&a, &BlockJacobiOptions {
            block_cols,
            precision: 1e-11,
            max_iterations: 60,
            fixed_iterations: None,
            adaptive: false,
        }).unwrap();
        let err = verify::singular_value_error(
            &reference.sorted_singular_values(),
            &blocked.sorted_singular_values(),
        );
        prop_assert!(err < 1e-7, "error {err}");
    }

    /// Round-robin schedules are complete tournaments whose rounds are
    /// matchings, for every block count in use (512² at P_eng 2 has 256
    /// blocks).
    #[test]
    fn round_robin_is_complete(n in 0usize..=256) {
        let rounds = round_robin_rounds(n);
        let mut seen = std::collections::HashSet::new();
        for round in &rounds {
            let mut used = std::collections::HashSet::new();
            for &(i, j) in round {
                prop_assert!(i < j && j < n);
                prop_assert!(used.insert(i) && used.insert(j));
                prop_assert!(seen.insert((i, j)));
            }
        }
        prop_assert_eq!(seen.len(), n * n.saturating_sub(1) / 2);
    }

    /// Applying a computed rotation twice keeps the pair orthogonal (the
    /// second rotation is the identity).
    #[test]
    fn rotation_is_idempotent_on_orthogonal_pairs(
        x in prop::collection::vec(-10.0_f64..10.0, 3..12),
        y in prop::collection::vec(-10.0_f64..10.0, 3..12),
    ) {
        let len = x.len().min(y.len());
        let mut xs = x[..len].to_vec();
        let mut ys = y[..len].to_vec();
        let (a, b, g) = column_products(&xs, &ys);
        let rot = compute_rotation(a, b, g);
        apply_rotation(&mut xs, &mut ys, rot);
        let (a2, b2, g2) = column_products(&xs, &ys);
        let rot2 = compute_rotation(a2, b2, g2);
        // The residual correlation is round-off noise.
        prop_assert!(rot2.convergence < 1e-10, "residual {}", rot2.convergence);
        let scale = (a2 * b2).sqrt();
        prop_assert!(g2.abs() <= 1e-10 * scale.max(1.0));
    }

    /// Matrix transpose preserves singular values (σ(A) = σ(Aᵀ) for
    /// square A).
    #[test]
    fn transpose_preserves_spectrum(seed in any::<u64>(), n in 2usize..8) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-5.0..5.0));
        let s1 = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap().sorted_singular_values();
        let s2 = hestenes_jacobi(&a.transpose(), &JacobiOptions::default()).unwrap().sorted_singular_values();
        prop_assert!(verify::singular_value_error(&s1, &s2) < 1e-8);
    }

    /// QR reconstructs and the preconditioned SVD agrees with the direct
    /// one on random tall matrices.
    #[test]
    fn qr_preconditioning_is_equivalent(seed in any::<u64>(), n in 2usize..7, extra in 1usize..20) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n + extra, n, |_, _| rng.gen_range(-5.0..5.0));

        let qr = householder_qr(&a).unwrap();
        let recon = qr.q.matmul(&qr.r).unwrap();
        prop_assert!(recon.sub(&a).unwrap().frobenius_norm() < 1e-9 * a.frobenius_norm().max(1.0));

        let direct = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let pre = qr_preconditioned_svd(&a, &JacobiOptions::default()).unwrap();
        let err = verify::singular_value_error(
            &direct.sorted_singular_values(),
            &pre.sorted_singular_values(),
        );
        prop_assert!(err < 1e-8, "error {err}");
    }

    /// Low-rank approximation error decreases monotonically with rank.
    #[test]
    fn truncation_error_is_monotone(a in matrix_strategy(7)) {
        let svd = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..=a.cols() {
            let ak = svd.low_rank_approximation(&a, k).unwrap();
            let err = ak.sub(&a).unwrap().frobenius_norm();
            prop_assert!(err <= prev + 1e-9, "rank {k}: {err} > {prev}");
            prev = err;
        }
    }

    /// Eckart–Young on `TruncatedSvd`: across random, ill-conditioned, and
    /// rank-deficient matrices the reconstruction error is monotonically
    /// non-increasing in rank and every rank's error matches the tail
    /// bound `‖A−A_k‖_F = √(Σ_{j>k} σⱼ²)` within tolerance (and dominates
    /// the spectral tail σ_{k+1} the struct reports).
    #[test]
    fn truncated_svd_satisfies_eckart_young(base in matrix_strategy(7), kind in 0usize..3) {
        let a = match kind {
            // Plain random matrix.
            0 => base,
            // Ill-conditioned: scale columns across ~6 decades.
            1 => Matrix::from_fn(base.rows(), base.cols(), |r, c| {
                base[(r, c)] * 10f64.powi(-(3 * c as i32))
            }),
            // Rank-deficient: duplicate the first column everywhere past
            // the midpoint.
            _ => Matrix::from_fn(base.rows(), base.cols(), |r, c| {
                if c > base.cols() / 2 { base[(r, 0)] } else { base[(r, c)] }
            }),
        };
        let svd = hestenes_jacobi(&a, &JacobiOptions { precision: 1e-13, ..Default::default() }).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        let mut prev = f64::INFINITY;
        for k in 1..=a.cols() {
            let trunc = svd.truncate(&a, k).unwrap();
            let err = trunc.reconstruct().sub(&a).unwrap().frobenius_norm();
            prop_assert!(err <= prev + 1e-9 * scale, "kind {kind} rank {k}: {err} > {prev}");
            prev = err;
            let tail_energy: f64 = trunc.tail_sigma; // σ_{k+1}
            let frob_tail: f64 = {
                let order = svd.descending_order();
                order[k..].iter().map(|&j| svd.sigma[j] * svd.sigma[j]).sum::<f64>().sqrt()
            };
            // Frobenius tail bound is met exactly (up to round-off)...
            prop_assert!(
                (err - frob_tail).abs() <= 1e-8 * scale,
                "kind {kind} rank {k}: err {err} vs Frobenius tail {frob_tail}"
            );
            // ...and therefore dominates the reported spectral tail σ_{k+1}.
            prop_assert!(
                err + 1e-8 * scale >= tail_energy,
                "kind {kind} rank {k}: err {err} below σ_(k+1) {tail_energy}"
            );
        }
    }

    /// Store-style serving is exact: `apply` on the truncated factors
    /// equals the matvec against the materialized rank-k matrix, and the
    /// retained-energy metadata complements the tail energy.
    #[test]
    fn truncated_apply_matches_reconstruction(a in matrix_strategy(7), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..a.cols()).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let svd = hestenes_jacobi(&a, &JacobiOptions { precision: 1e-13, ..Default::default() }).unwrap();
        let total: f64 = svd.sigma.iter().map(|s| s * s).sum();
        for k in 1..=a.cols() {
            let trunc = svd.truncate(&a, k).unwrap();
            let y = trunc.apply(&x).unwrap();
            let ak = trunc.reconstruct();
            for (r, &yr) in y.iter().enumerate() {
                let direct: f64 = (0..a.cols()).map(|c| ak[(r, c)] * x[c]).sum();
                prop_assert!((yr - direct).abs() <= 1e-8 * a.frobenius_norm().max(1.0));
            }
            if total > 0.0 {
                let kept: f64 = trunc.sigma.iter().map(|s| s * s).sum();
                prop_assert!((trunc.retained_energy - kept / total).abs() < 1e-12);
            }
        }
    }
}

/// Reference for `ByteLru`: the clock LRU every cache used before the
/// shared primitive, evicting by an O(n) `min_by_key` scan over
/// last-use stamps.
#[derive(Default)]
struct ScanLru {
    /// key -> (weight, last-use stamp, insert sequence of the value).
    entries: HashMap<u8, (usize, u64, u64)>,
    inserts: HashMap<u8, u64>,
    resident_weight: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ScanLru {
    fn get(&mut self, key: u8) -> Option<u64> {
        self.clock += 1;
        let Some((_, stamp, seq)) = self.entries.get_mut(&key) else {
            self.misses += 1;
            return None;
        };
        *stamp = self.clock;
        self.hits += 1;
        Some(*seq)
    }

    /// The factor store's and factor cache's byte-budget publish.
    fn insert(&mut self, key: u8, weight: usize, budget: usize) -> u64 {
        self.clock += 1;
        let seq = self.inserts.entry(key).or_insert(0);
        *seq += 1;
        let seq = *seq;
        if let Some((old, ..)) = self.entries.insert(key, (weight, self.clock, seq)) {
            self.resident_weight -= old;
        }
        self.resident_weight += weight;
        while self.resident_weight > budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, (_, stamp, _))| *stamp)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            self.resident_weight -= self.entries.remove(&victim).unwrap().0;
            self.evictions += 1;
        }
        seq
    }

    /// The plan cache's and apply-profile cache's build on miss: evict
    /// the oldest entry at capacity, then insert.
    fn get_or_build(&mut self, key: u8, capacity: usize, fail: bool) -> bool {
        if self.get(key).is_some() {
            return true;
        }
        if fail {
            return false;
        }
        *self.inserts.entry(key).or_insert(0) += 1;
        if self.entries.len() >= capacity {
            let oldest = self.entries.iter().min_by_key(|(_, (_, stamp, _))| *stamp);
            let oldest = *oldest.unwrap().0;
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
        self.entries.insert(key, (1, self.clock, 0));
        self.resident_weight = self.entries.len();
        true
    }

    fn check(&self, lru: &ByteLru<u8, u64>) -> Result<(), TestCaseError> {
        let totals = lru.totals();
        prop_assert_eq!(
            (totals.hits, totals.misses, totals.evictions, totals.inserts),
            (
                self.hits,
                self.misses,
                self.evictions,
                self.inserts.values().sum()
            )
        );
        prop_assert_eq!(totals.resident_weight, self.resident_weight as u64);
        let mut resident = lru.resident_weights();
        resident.sort_unstable();
        let mut expected: Vec<(u8, usize)> =
            self.entries.iter().map(|(&k, &(w, ..))| (k, w)).collect();
        expected.sort_unstable();
        prop_assert_eq!(resident, expected);
        for key in 0..KEYS {
            prop_assert_eq!(
                lru.inserts_of(&key),
                self.inserts.get(&key).copied().unwrap_or(0)
            );
        }
        Ok(())
    }
}

const KEYS: u8 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-budget mode: random gets and inserts with random weights
    /// give the same hits, misses, evictions, resident set and per-key
    /// insert counts as the scanning reference.
    #[test]
    fn byte_lru_matches_scanning_reference(
        budget in 0usize..60,
        ops in prop::collection::vec((any::<bool>(), 0..KEYS, 0usize..20), 1..200),
    ) {
        let lru = ByteLru::new(budget);
        let mut reference = ScanLru::default();
        for (is_get, k, w) in ops {
            if is_get {
                prop_assert_eq!(lru.get(&k).map(|seq| *seq), reference.get(k));
            } else {
                let seq = lru.insert_with(k, |seq| (seq, w));
                prop_assert_eq!(*seq, reference.insert(k, w, budget));
            }
            reference.check(&lru)?;
        }
    }

    /// Capacity mode (weight 1, budget = capacity): builds on miss,
    /// some failing, evict exactly as the evict-before-insert LRU did.
    #[test]
    fn byte_lru_matches_capacity_reference(
        capacity in 1usize..6,
        ops in prop::collection::vec((0..KEYS, any::<bool>()), 1..200),
    ) {
        let lru = ByteLru::new(capacity);
        let mut reference = ScanLru::default();
        for (k, fail) in ops {
            let got = lru.get_or_try_insert_with(k, || if fail { Err(()) } else { Ok((0, 1)) });
            prop_assert_eq!(got.is_ok(), reference.get_or_build(k, capacity, fail));
            reference.check(&lru)?;
        }
    }
}
