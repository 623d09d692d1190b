//! Gauss–Seidel iteration for `x = A·x + f`.
//!
//! The paper's convergence theory (§3) comes from Axelsson's *Iterative
//! Solution Methods* \[7\], which treats the whole family of splitting
//! methods. The Jacobi-style sweep in [`FixedPointSolver`](crate::solver)
//! matches what a *distributed* ranker must do — it only has last
//! iteration's values of remote pages — but *within one group* the ranker
//! owns every page, so within-sweep ordering is locally legal: Gauss–Seidel
//! consumes `x_j^{(k+1)}` for `j` already updated in the current sweep, and
//! for non-negative contractions converges at least as fast as Jacobi
//! (often ~2× on link graphs). Cross-group coupling stays Jacobi — the
//! "partially asynchronous iteration" regime — which is how the netrun
//! engine uses this solver as its per-group inner solve (`--inner-solver
//! gauss-seidel`). The sweep is generic over [`SpMatVec`] via
//! [`SpMatVec::gs_row`], so it drives the explicit, implicit and unrolled
//! matrix layouts alike.

use crate::csr::SpMatVec;
use crate::solver::SolveReport;
use crate::vec_ops;

/// Configuration for Gauss–Seidel sweeps.
#[derive(Debug, Clone, Copy)]
pub struct GaussSeidelSolver {
    /// Stop when `‖xᵢ₊₁ − xᵢ‖₁ ≤ tolerance` (sweep-to-sweep difference).
    pub tolerance: f64,
    /// Hard sweep cap.
    pub max_iters: usize,
}

impl Default for GaussSeidelSolver {
    fn default() -> Self {
        Self { tolerance: 1e-10, max_iters: 10_000 }
    }
}

impl GaussSeidelSolver {
    /// Creates a solver with the given tolerance.
    #[must_use]
    pub fn new(tolerance: f64) -> Self {
        Self { tolerance, ..Self::default() }
    }

    /// Solves `x = A·x + f` in place with forward Gauss–Seidel sweeps.
    ///
    /// Handles diagonal entries exactly: row `i` reads
    /// `x_i = Σ_{j<i} a_ij·x_j^{new} + a_ii·x_i + Σ_{j>i} a_ij·x_j^{old} + f_i`,
    /// solved for `x_i` as `x_i = (rhs_without_diag + f_i) / (1 − a_ii)`
    /// (requires `|a_ii| < 1`, implied by the contraction premise).
    ///
    /// # Panics
    /// If dimensions are inconsistent or some `a_ii ≥ 1`.
    pub fn solve<M: SpMatVec>(&self, a: &M, f: &[f64], x: &mut [f64]) -> SolveReport {
        let n = a.n_rows();
        assert_eq!(a.n_cols(), n, "Gauss–Seidel needs a square matrix");
        assert_eq!(f.len(), n);
        assert_eq!(x.len(), n);

        let mut iters = 0usize;
        let mut delta = f64::INFINITY;
        while iters < self.max_iters {
            delta = self.sweep_once(a, f, x);
            iters += 1;
            if delta <= self.tolerance {
                break;
            }
        }
        SolveReport::from_final_delta(iters, delta, self.tolerance, a.contraction_norm())
    }

    /// Performs exactly `steps` sweeps (the DPR2 node body does a single
    /// step per outer loop), returning the last sweep-to-sweep difference.
    ///
    /// # Panics
    /// If dimensions are inconsistent or some `a_ii ≥ 1`.
    pub fn step<M: SpMatVec>(&self, a: &M, f: &[f64], x: &mut [f64], steps: usize) -> f64 {
        let n = a.n_rows();
        assert_eq!(a.n_cols(), n);
        assert_eq!(f.len(), n);
        assert_eq!(x.len(), n);
        let mut delta = 0.0;
        for _ in 0..steps {
            delta = self.sweep_once(a, f, x);
        }
        delta
    }

    /// One forward sweep; returns `‖x_new − x_old‖₁` accumulated per row.
    fn sweep_once<M: SpMatVec>(&self, a: &M, f: &[f64], x: &mut [f64]) -> f64 {
        let mut delta = 0.0;
        for i in 0..x.len() {
            let (acc, diag) = a.gs_row(i, f[i], x);
            assert!(diag < 1.0 - 1e-12, "diagonal entry {diag} breaks the GS update");
            let new = acc / (1.0 - diag);
            delta += (new - x[i]).abs();
            x[i] = new;
        }
        delta
    }
}

/// Iteration counts of Jacobi vs Gauss–Seidel on the same system (for the
/// ablation bench). Asserts both reached the same fixed point.
#[must_use]
pub fn sweep_comparison<M: SpMatVec>(a: &M, f: &[f64], tolerance: f64) -> (usize, usize) {
    let mut xj = vec![0.0; f.len()];
    let j = crate::solver::FixedPointSolver { tolerance, max_iters: 100_000, ..Default::default() }
        .solve(a, f, &mut xj);
    let mut xg = vec![0.0; f.len()];
    let g = GaussSeidelSolver { tolerance, max_iters: 100_000 }.solve(a, f, &mut xg);
    debug_assert!(vec_ops::l1_diff(&xj, &xg) < tolerance * 1e3, "Jacobi and Gauss–Seidel disagree");
    (j.iterations, g.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Csr, CsrImplicit};
    use crate::triplet::TripletMatrix;

    fn chain_system(n: usize, w: f64) -> (Csr, Vec<f64>) {
        // x_i = w·x_{i-1} + 1 — strongly sequential, the GS best case.
        let mut t = TripletMatrix::new(n, n);
        for i in 1..n {
            t.push(i, i - 1, w);
        }
        (t.to_csr(), vec![1.0; n])
    }

    #[test]
    fn converges_to_the_jacobi_fixed_point() {
        let (a, f) = chain_system(12, 0.9);
        let mut xg = vec![0.0; 12];
        let report = GaussSeidelSolver::new(1e-12).solve(&a, &f, &mut xg);
        assert!(report.converged);
        let mut xj = vec![0.0; 12];
        crate::solver::FixedPointSolver::new(1e-12).solve(&a, &f, &mut xj);
        for (g, j) in xg.iter().zip(&xj) {
            assert!((g - j).abs() < 1e-8, "{g} vs {j}");
        }
    }

    #[test]
    fn sequential_chain_solved_in_one_sweep() {
        // Forward GS propagates the whole chain in a single sweep; Jacobi
        // needs ~n sweeps.
        let (a, f) = chain_system(30, 0.9);
        let (jacobi, gs) = sweep_comparison(&a, &f, 1e-10);
        assert!(gs <= 2, "GS took {gs} sweeps on a forward chain");
        assert!(jacobi > 10 * gs, "jacobi {jacobi} vs gs {gs}");
    }

    #[test]
    fn handles_diagonal_entries() {
        // x0 = 0.5·x0 + 1 ⇒ x0 = 2.
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 0.5);
        let a = t.to_csr();
        let mut x = vec![0.0];
        let report = GaussSeidelSolver::new(1e-12).solve(&a, &[1.0], &mut x);
        assert!(report.converged);
        assert!((x[0] - 2.0).abs() < 1e-10);
        // And in a single sweep — the diagonal is solved exactly.
        assert!(report.iterations <= 2);
    }

    #[test]
    #[should_panic(expected = "diagonal entry")]
    fn rejects_unit_diagonal() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 1.0);
        let a = t.to_csr();
        let mut x = vec![0.0];
        let _ = GaussSeidelSolver::default().solve(&a, &[1.0], &mut x);
    }

    #[test]
    fn never_slower_than_jacobi_on_nonneg_systems() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(3..20);
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                for _ in 0..3 {
                    let j = rng.gen_range(0..n);
                    t.push(i, j, rng.gen_range(0.0..0.25));
                }
            }
            let a = t.to_csr();
            if a.inf_norm() >= 1.0 {
                continue;
            }
            let f: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let (jacobi, gs) = sweep_comparison(&a, &f, 1e-10);
            assert!(gs <= jacobi, "GS {gs} slower than Jacobi {jacobi}");
        }
    }

    #[test]
    fn empty_system() {
        let a = Csr::zero(0, 0);
        let mut x: Vec<f64> = vec![];
        assert!(GaussSeidelSolver::default().solve(&a, &[], &mut x).converged);
    }

    /// A random pull-oriented ranking matrix in implicit form, with
    /// self-links (nonzero diagonal) allowed: column scale `α/d(u)`,
    /// targets drawn deterministically from `seed`.
    fn random_implicit(n: usize, seed: u64) -> (CsrImplicit, Vec<f64>) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut links: Vec<Vec<u32>> = vec![Vec::new(); n]; // links[dest] = sources
        let mut degree = vec![0u32; n];
        for (u, deg) in degree.iter_mut().enumerate() {
            let d = rng.gen_range(0..4u32);
            *deg = d;
            for _ in 0..d {
                // Self-links allowed: row v may carry a diagonal entry.
                let v = rng.gen_range(0..n);
                links[v].push(u as u32);
            }
        }
        let scale: Vec<f64> =
            degree.iter().map(|&d| if d == 0 { 0.0 } else { 0.85 / f64::from(d) }).collect();
        let mut row_ptr = vec![0u64; n + 1];
        let mut col_idx = Vec::new();
        for (v, srcs) in links.iter().enumerate() {
            col_idx.extend_from_slice(srcs);
            row_ptr[v + 1] = col_idx.len() as u64;
        }
        let a = CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, scale);
        let f: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        (a, f)
    }

    #[test]
    fn implicit_layout_is_bit_identical_to_explicit_twin() {
        // `gs_row` resolves implicit values in storage order, exactly like
        // the explicit row iterator — so the sweeps match bit for bit.
        for seed in 0..8 {
            let (ai, f) = random_implicit(40, seed);
            let ae = ai.to_explicit();
            let mut xi = vec![0.0; 40];
            let mut xe = vec![0.0; 40];
            let ri = GaussSeidelSolver::new(1e-12).solve(&ai, &f, &mut xi);
            let re = GaussSeidelSolver::new(1e-12).solve(&ae, &f, &mut xe);
            assert_eq!(ri.iterations, re.iterations);
            assert_eq!(
                xi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                xe.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: implicit and explicit GS sweeps diverged"
            );
        }
    }

    #[test]
    fn self_link_rows_match_jacobi() {
        // Nonzero diagonals from self-links: the `(1 − a_ii)` division must
        // land on the same fixed point the Jacobi iteration reaches.
        for seed in 100..108 {
            let (a, f) = random_implicit(30, seed);
            let mut xg = vec![0.0; 30];
            GaussSeidelSolver::new(1e-14).solve(&a, &f, &mut xg);
            let mut xj = vec![0.0; 30];
            crate::solver::FixedPointSolver::new(1e-14).solve(&a, &f, &mut xj);
            let diff = xg.iter().zip(&xj).map(|(g, j)| (g - j).abs()).fold(0.0, f64::max);
            assert!(diff < 1e-12, "seed {seed}: max diff {diff}");
        }
    }

    proptest::proptest! {
        #[test]
        fn gs_and_jacobi_reach_the_same_fixed_point(seed in 0u64..64, n in 2usize..48) {
            // Same point within 1e-12, with the Jacobi side run at 1/2/8
            // pool workers (pooled kernels are bit-identical across worker
            // counts, so one GS reference covers all three).
            let (a, f) = random_implicit(n, seed ^ 0x6A5);
            let mut xg = vec![0.0; n];
            GaussSeidelSolver::new(1e-14).solve(&a, &f, &mut xg);
            for workers in [1usize, 2, 8] {
                let pool = crate::Pool::with_workers(workers);
                let mut xj = vec![0.0; n];
                crate::solver::FixedPointSolver::new(1e-14)
                    .with_pool(pool)
                    .solve(&a, &f, &mut xj);
                let diff = xg.iter().zip(&xj).map(|(g, j)| (g - j).abs()).fold(0.0, f64::max);
                proptest::prop_assert!(diff < 1e-12, "workers {}: max diff {}", workers, diff);
            }
        }
    }
}
