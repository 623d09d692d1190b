//! Executable forms of the paper's convergence theory (§3 and the appendix).
//!
//! * **Theorem 3.1** — `x = Ax + f` converges for any start iff `ρ(A) < 1`.
//! * **Theorem 3.2** — `ρ(A) ≤ ‖A‖` for any matrix norm, so `‖A‖∞ < 1` is a
//!   sufficient, cheaply-checkable convergence certificate.
//! * **Theorem 3.3** — `‖x* − x_m‖ ≤ ‖A‖/(1 − ‖A‖)·‖x_m − x_{m−1}‖`, which
//!   justifies terminating on the successive difference.
//! * **Appendix Lemma 1** — `A ≥ 0`, `f ≥ 0`, `‖A‖∞ < 1` ⇒ the fixed point
//!   is non-negative.
//! * **Appendix Lemma 2** — under the same premises, `f₁ ≥ f₂ ⇒ r₁ ≥ r₂`
//!   (the fixed point is monotone in the inhomogeneous term). This is the
//!   engine behind Theorems 4.1/4.2 (DPR1 monotonicity and boundedness).
//!
//! The lemmas are provided as runtime *checks* over computed fixed points;
//! the property-test suite drives them with random contractions.

use crate::csr::{Csr, SpMatVec};
use crate::solver::FixedPointSolver;
use crate::vec_ops;

/// Theorem 3.2 as a certificate: a cheap upper bound on `ρ(A)`.
///
/// Returns `min(‖A‖∞, ‖A‖₁)` — both are valid norms, so both bound the
/// spectral radius and the tighter one is still a bound.
#[must_use]
pub fn spectral_radius_upper_bound(a: &Csr) -> f64 {
    a.contraction_norm()
}

/// Whether the iteration `x ← Ax + f` is *certified* convergent by
/// Theorem 3.2 (i.e. some computed norm of `A` is `< 1`). A `false` result
/// does not prove divergence — `ρ(A) < 1 ≤ ‖A‖` is possible — it only means
/// the cheap certificate failed.
#[must_use]
pub fn is_certified_contraction(a: &Csr) -> bool {
    spectral_radius_upper_bound(a) < 1.0
}

/// Theorem 3.3: given `q = ‖A‖ < 1` and the successive difference
/// `δ = ‖x_m − x_{m−1}‖`, the true error satisfies
/// `‖x* − x_m‖ ≤ q/(1−q)·δ`. Returns `None` when `q ≥ 1`.
#[must_use]
pub fn contraction_error_bound(norm: f64, delta: f64) -> Option<f64> {
    if norm < 1.0 {
        Some(norm / (1.0 - norm) * delta)
    } else {
        None
    }
}

/// How many iterations Theorem 3.3 predicts are needed to shrink an initial
/// error of `initial_err` below `target_err` under contraction factor `q`:
/// the smallest `m` with `qᵐ·initial_err ≤ target_err`.
///
/// Returns `None` when `q ≥ 1` (no a-priori guarantee).
#[must_use]
pub fn iterations_to_tolerance(q: f64, initial_err: f64, target_err: f64) -> Option<usize> {
    if !(0.0..1.0).contains(&q) {
        return None;
    }
    if initial_err <= target_err {
        return Some(0);
    }
    if q == 0.0 {
        return Some(1);
    }
    let m = ((target_err / initial_err).ln() / q.ln()).ceil();
    Some(m.max(0.0) as usize)
}

/// Appendix Lemma 1 as a runtime check: solves `r = Ar + f` and verifies
/// `r ≥ 0` (up to `-tol` float jitter). Panics on dimension mismatch.
///
/// Premises (`A ≥ 0`, `f ≥ 0`, `‖A‖∞ < 1`) are asserted; the return value is
/// the lemma's conclusion evaluated on the computed fixed point.
#[must_use]
pub fn check_lemma1_nonneg_fixed_point(a: &Csr, f: &[f64], tol: f64) -> bool {
    assert!(a.is_nonneg(), "Lemma 1 premise: A >= 0");
    assert!(vec_ops::is_nonneg(f), "Lemma 1 premise: f >= 0");
    assert!(a.inf_norm() < 1.0, "Lemma 1 premise: ||A||_inf < 1");
    let mut r = vec![0.0; f.len()];
    FixedPointSolver::new(tol * 1e-3).solve(a, f, &mut r);
    r.iter().all(|v| *v >= -tol)
}

/// Appendix Lemma 2 as a runtime check: solves both systems and verifies
/// `f₁ ≥ f₂ ⇒ r₁ ≥ r₂` element-wise (up to `tol`).
#[must_use]
pub fn check_lemma2_monotone_in_f(a: &Csr, f1: &[f64], f2: &[f64], tol: f64) -> bool {
    assert!(a.is_nonneg(), "Lemma 2 premise: A >= 0");
    assert!(a.inf_norm() < 1.0, "Lemma 2 premise: ||A||_inf < 1");
    assert!(vec_ops::ge_elementwise(f1, f2), "Lemma 2 premise: f1 >= f2 element-wise");
    let solver = FixedPointSolver::new(tol * 1e-3);
    let mut r1 = vec![0.0; f1.len()];
    let mut r2 = vec![0.0; f2.len()];
    solver.solve(a, f1, &mut r1);
    solver.solve(a, f2, &mut r2);
    vec_ops::ge_elementwise_tol(&r1, &r2, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn contraction() -> Csr {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 1, 0.4);
        t.push(1, 2, 0.3);
        t.push(2, 0, 0.5);
        t.push(2, 2, 0.2);
        t.to_csr()
    }

    #[test]
    fn certificate_on_contraction() {
        let a = contraction();
        assert!(is_certified_contraction(&a));
        assert!(spectral_radius_upper_bound(&a) < 1.0);
    }

    #[test]
    fn certificate_rejects_expanding_matrix() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.5);
        t.push(1, 1, 1.5);
        assert!(!is_certified_contraction(&t.to_csr()));
    }

    #[test]
    fn tighter_norm_is_used() {
        // ||A||_inf = 2.0 but ||A||_1 = 0.9: column norm certifies.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.9);
        t.push(0, 1, 0.9);
        let a = t.to_csr();
        assert_eq!(a.inf_norm(), 1.8);
        assert_eq!(a.one_norm(), 0.9);
        assert!(is_certified_contraction(&a));
    }

    #[test]
    fn error_bound_none_at_or_above_one() {
        assert!(contraction_error_bound(1.0, 0.5).is_none());
        assert!(contraction_error_bound(1.7, 0.5).is_none());
        let b = contraction_error_bound(0.5, 0.1).unwrap();
        assert!((b - 0.1).abs() < 1e-12);
    }

    #[test]
    fn iterations_to_tolerance_basics() {
        assert_eq!(iterations_to_tolerance(0.5, 1.0, 1.0), Some(0));
        assert_eq!(iterations_to_tolerance(0.0, 1.0, 0.5), Some(1));
        // 0.5^4 = 0.0625 <= 0.1 but 0.5^3 = 0.125 > 0.1
        assert_eq!(iterations_to_tolerance(0.5, 1.0, 0.1), Some(4));
        assert_eq!(iterations_to_tolerance(1.0, 1.0, 0.1), None);
    }

    #[test]
    fn lemma1_holds_on_contraction() {
        let a = contraction();
        assert!(check_lemma1_nonneg_fixed_point(&a, &[1.0, 0.5, 0.0], 1e-9));
    }

    #[test]
    fn lemma2_holds_on_contraction() {
        let a = contraction();
        assert!(check_lemma2_monotone_in_f(&a, &[1.0, 1.0, 1.0], &[0.5, 1.0, 0.0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "Lemma 2 premise: f1 >= f2")]
    fn lemma2_rejects_bad_premise() {
        let a = contraction();
        let _ = check_lemma2_monotone_in_f(&a, &[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], 1e-9);
    }
}
