//! Cyclic Jacobi eigensolver for the Hermitian Gram matrix behind the SOCS
//! kernels.
//!
//! The Hopkins transmission cross-coefficient (TCC) operator is Hermitian
//! positive semi-definite; the sum-of-coherent-systems (SOCS) decomposition
//! used by Eq. (1) of the paper is exactly its spectral decomposition.
//! [`crate::KernelSet::build`] reduces it to an `n_src x n_src` Gram matrix
//! (a few hundred rows at most), so the unconditionally stable
//! `O(n^3)`-per-sweep Jacobi method is a good fit.

use ilt_fft::Complex;

use crate::error::LithoError;

/// Maximum number of full sweeps over all off-diagonal pairs.
const MAX_SWEEPS: usize = 64;
/// Convergence threshold on `sqrt(off_diagonal_sqr) / frobenius_norm`.
const TOLERANCE: f64 = 1e-12;
/// Allowed Hermitian defect of the input.
const HERMITIAN_TOLERANCE: f64 = 1e-9;

/// A dense, row-major, square complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    n: usize,
    data: Vec<Complex>,
}

impl Matrix {
    /// Builds an `n x n` matrix by evaluating `f(row, col)` at every entry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn from_fn<F: FnMut(usize, usize) -> Complex>(n: usize, mut f: F) -> Self {
        assert!(n > 0, "matrix dimensions must be nonzero");
        let mut data = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                data.push(f(r, c));
            }
        }
        Matrix { n, data }
    }

    fn identity(n: usize) -> Self {
        Matrix::from_fn(n, |r, c| if r == c { Complex::ONE } else { Complex::ZERO })
    }

    #[inline]
    fn get(&self, row: usize, col: usize) -> Complex {
        self.data[row * self.n + col]
    }

    #[inline]
    fn set(&mut self, row: usize, col: usize, value: Complex) {
        self.data[row * self.n + col] = value;
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Sum of squared moduli of strictly off-diagonal entries. This is the
    /// quantity the Jacobi sweep drives to zero.
    fn off_diagonal_sqr(&self) -> f64 {
        let mut acc = 0.0;
        for r in 0..self.n {
            for c in 0..self.n {
                if r != c {
                    acc += self.get(r, c).norm_sqr();
                }
            }
        }
        acc
    }

    /// Maximum deviation from Hermitian symmetry, `max |a_ij - conj(a_ji)|`.
    /// Zero (to rounding) for a valid TCC matrix.
    fn hermitian_defect(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..self.n {
            for c in r..self.n {
                worst = worst.max((self.get(r, c) - self.get(c, r).conj()).abs());
            }
        }
        worst
    }
}

/// Result of a Hermitian eigendecomposition: `A = V diag(values) V^H`.
#[derive(Debug)]
pub(crate) struct Eigendecomposition {
    /// Real eigenvalues, sorted in descending order.
    pub(crate) values: Vec<f64>,
    /// Unitary matrix whose `k`-th **column** is the eigenvector for
    /// `values[k]`.
    vectors: Matrix,
}

impl Eigendecomposition {
    /// The `k`-th eigenvector as an owned column.
    ///
    /// # Panics
    ///
    /// Panics if `k >= values.len()`.
    pub(crate) fn vector(&self, k: usize) -> Vec<Complex> {
        assert!(k < self.values.len(), "eigenvector index out of range");
        (0..self.vectors.n)
            .map(|r| self.vectors.get(r, k))
            .collect()
    }
}

/// Computes the eigendecomposition of a Hermitian matrix.
///
/// # Errors
///
/// Returns [`LithoError::KernelConstruction`] if the matrix is not
/// Hermitian or the sweep limit is exhausted.
pub(crate) fn eigh(matrix: &Matrix) -> Result<Eigendecomposition, LithoError> {
    let defect = matrix.hermitian_defect();
    if defect > HERMITIAN_TOLERANCE {
        return Err(LithoError::KernelConstruction {
            reason: format!("matrix is not Hermitian (defect {defect:.3e})"),
        });
    }

    let n = matrix.n;
    let mut a = matrix.clone();
    let mut v = Matrix::identity(n);

    if n == 1 {
        return Ok(Eigendecomposition {
            values: vec![a.get(0, 0).re],
            vectors: v,
        });
    }

    let norm = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut converged = false;
    let mut sweeps = 0;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        for p in 0..n - 1 {
            for q in p + 1..n {
                rotate(&mut a, &mut v, p, q);
            }
        }
        if a.off_diagonal_sqr().sqrt() <= TOLERANCE * norm {
            converged = true;
            break;
        }
    }
    if !converged && a.off_diagonal_sqr().sqrt() > TOLERANCE * norm {
        return Err(LithoError::KernelConstruction {
            reason: format!(
                "jacobi iteration did not converge after {sweeps} sweeps \
                 (off-diagonal {:.3e})",
                a.off_diagonal_sqr()
            ),
        });
    }

    // Extract and sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a.get(i, i).re).collect();
    order.sort_by(|&x, &y| {
        diag[y]
            .partial_cmp(&diag[x])
            .expect("eigenvalues are finite")
    });
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let vectors = Matrix::from_fn(n, |r, c| v.get(r, order[c]));

    Ok(Eigendecomposition { values, vectors })
}

/// Applies one complex Jacobi rotation annihilating `a[p][q]`.
///
/// The rotation is the unitary matrix `R` equal to the identity except for
/// `R[p][p] = c`, `R[p][q] = s * phase`, `R[q][p] = -s * conj(phase)`,
/// `R[q][q] = c`, where `phase = a_pq / |a_pq|` and `(c, s)` are the
/// classical Jacobi cosine/sine. `a` is replaced by `R^H a R` and the
/// accumulated eigenvector matrix `v` by `v R`.
fn rotate(a: &mut Matrix, v: &mut Matrix, p: usize, q: usize) {
    let apq = a.get(p, q);
    let mag = apq.abs();
    if mag == 0.0 {
        return;
    }
    let phase = apq.scale(1.0 / mag);
    let app = a.get(p, p).re;
    let aqq = a.get(q, q).re;

    let tau = (aqq - app) / (2.0 * mag);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    let s_c = phase.scale(s); // complex sine

    let n = a.n;
    // Column update: B = A R  (touches columns p and q only).
    for i in 0..n {
        let aip = a.get(i, p);
        let aiq = a.get(i, q);
        a.set(i, p, aip.scale(c) - aiq * s_c.conj());
        a.set(i, q, aip * s_c + aiq.scale(c));
    }
    // Row update: A' = R^H B (touches rows p and q only).
    for j in 0..n {
        let apj = a.get(p, j);
        let aqj = a.get(q, j);
        a.set(p, j, apj.scale(c) - s_c * aqj);
        a.set(q, j, apj * s_c.conj() + aqj.scale(c));
    }
    // Clean up rounding on the annihilated pair and keep the diagonal real.
    a.set(p, q, Complex::ZERO);
    a.set(q, p, Complex::ZERO);
    a.set(p, p, Complex::from_re(a.get(p, p).re));
    a.set(q, q, Complex::from_re(a.get(q, q).re));

    // Accumulate eigenvectors: V = V R.
    for i in 0..v.n {
        let vip = v.get(i, p);
        let viq = v.get(i, q);
        v.set(i, p, vip.scale(c) - viq * s_c.conj());
        v.set(i, q, vip * s_c + viq.scale(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Dense products and the reconstruction, kept here as the oracles the
    // decomposition is checked against.

    fn adjoint(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.n, |r, c| m.get(c, r).conj())
    }

    fn mul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.n, b.n, "incompatible shapes");
        Matrix::from_fn(a.n, |r, c| {
            (0..a.n).fold(Complex::ZERO, |acc, k| {
                acc.mul_add(a.get(r, k), b.get(k, c))
            })
        })
    }

    fn mul_vec(m: &Matrix, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), m.n, "incompatible shapes");
        (0..m.n)
            .map(|r| {
                v.iter().enumerate().fold(Complex::ZERO, |acc, (c, value)| {
                    acc.mul_add(m.get(r, c), *value)
                })
            })
            .collect()
    }

    /// `V diag(values) V^H`.
    fn reconstruct(eig: &Eigendecomposition) -> Matrix {
        let n = eig.values.len();
        Matrix::from_fn(n, |r, c| {
            let mut acc = Complex::ZERO;
            for k in 0..n {
                acc += eig.vectors.get(r, k) * eig.vectors.get(c, k).conj() * eig.values[k];
            }
            acc
        })
    }

    fn from_rows(n: usize, entries: &[Complex]) -> Matrix {
        Matrix::from_fn(n, |r, c| entries[r * n + c])
    }

    fn hermitian_from_seed(n: usize, seed: u64) -> Matrix {
        // Deterministic pseudo-random Hermitian matrix.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, |_, _| Complex::ZERO);
        for r in 0..n {
            for c in r..n {
                if r == c {
                    m.set(r, c, Complex::from_re(next()));
                } else {
                    let z = Complex::new(next(), next());
                    m.set(r, c, z);
                    m.set(c, r, z.conj());
                }
            }
        }
        m
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = Matrix::from_fn(3, |r, c| Complex::new((r + c) as f64, r as f64 - c as f64));
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), Complex::ONE);
        assert_eq!(i.get(0, 1), Complex::ZERO);
        assert_eq!(mul(&m, &i), m);
        assert_eq!(mul(&i, &m), m);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Matrix::from_fn(0, |_, _| Complex::ZERO);
    }

    #[test]
    fn oracles_match_hand_computation() {
        let re = |v: &[f64]| v.iter().map(|&x| Complex::from_re(x)).collect::<Vec<_>>();
        let c = mul(
            &from_rows(2, &re(&[1.0, 2.0, 3.0, 4.0])),
            &from_rows(2, &re(&[5.0, 6.0, 7.0, 8.0])),
        );
        assert_eq!(c, from_rows(2, &re(&[19.0, 22.0, 43.0, 50.0])));

        let m = from_rows(2, &[Complex::ONE, Complex::I, Complex::ZERO, Complex::ONE]);
        let out = mul_vec(&m, &re(&[2.0, 3.0]));
        assert_eq!(out, vec![Complex::new(2.0, 3.0), Complex::from_re(3.0)]);

        let a = adjoint(&Matrix::from_fn(3, |r, c| Complex::new(r as f64, c as f64)));
        assert_eq!(a.get(2, 1), Complex::new(1.0, -2.0));
    }

    #[test]
    fn norms() {
        let re = |x: f64| Complex::from_re(x);
        let m = from_rows(2, &[re(3.0), re(4.0), Complex::ZERO, Complex::ZERO]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.off_diagonal_sqr() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn hermitian_defect_detects_asymmetry() {
        let h = from_rows(
            2,
            &[
                Complex::from_re(1.0),
                Complex::new(0.0, 2.0),
                Complex::new(0.0, -2.0),
                Complex::from_re(3.0),
            ],
        );
        assert_eq!(h.hermitian_defect(), 0.0);
        let nh = from_rows(2, &[Complex::ONE, Complex::I, Complex::I, Complex::ONE]);
        assert!(nh.hermitian_defect() > 1.0);
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_fn(3, |r, c| match (r, c) {
            (0, 0) => Complex::from_re(1.0),
            (1, 1) => Complex::from_re(-2.0),
            (2, 2) => Complex::from_re(5.0),
            _ => Complex::ZERO,
        });
        let eig = eigh(&a).unwrap();
        assert_eq!(eig.values, vec![5.0, 1.0, -2.0]);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[0, -i], [i, 0]] has eigenvalues +-1.
        let a = from_rows(2, &[Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO]);
        let eig = eigh(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let eig = eigh(&from_rows(1, &[Complex::from_re(7.0)])).unwrap();
        assert_eq!(eig.values, vec![7.0]);
        assert_eq!(eig.vectors.get(0, 0), Complex::ONE);
    }

    #[test]
    fn rejects_non_hermitian() {
        let nh = from_rows(2, &[Complex::ONE, Complex::I, Complex::I, Complex::ONE]);
        let Err(LithoError::KernelConstruction { reason }) = eigh(&nh) else {
            panic!("a non-Hermitian matrix was decomposed");
        };
        assert_eq!(reason, "matrix is not Hermitian (defect 2.000e0)");
    }

    #[test]
    fn reconstruction_matches_input() {
        for seed in 1..5u64 {
            let a = hermitian_from_seed(8, seed);
            let rec = reconstruct(&eigh(&a).unwrap());
            let mut diff: f64 = 0.0;
            for r in 0..8 {
                for c in 0..8 {
                    diff = diff.max((rec.get(r, c) - a.get(r, c)).abs());
                }
            }
            assert!(diff < 1e-9, "seed {seed}: reconstruction error {diff}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let eig = eigh(&hermitian_from_seed(10, 42)).unwrap();
        let vhv = mul(&adjoint(&eig.vectors), &eig.vectors);
        for r in 0..10 {
            for c in 0..10 {
                let expect = if r == c { Complex::ONE } else { Complex::ZERO };
                assert!((vhv.get(r, c) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn eigenvalues_are_sorted_descending() {
        let eig = eigh(&hermitian_from_seed(12, 7)).unwrap();
        for w in eig.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = hermitian_from_seed(9, 3);
        let trace: f64 = (0..9).map(|i| a.get(i, i).re).sum();
        let sum: f64 = eigh(&a).unwrap().values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn satisfies_eigen_equation() {
        let a = hermitian_from_seed(6, 11);
        let eig = eigh(&a).unwrap();
        for k in 0..6 {
            let v = eig.vector(k);
            let av = mul_vec(&a, &v);
            for i in 0..6 {
                let expect = v[i].scale(eig.values[k]);
                assert!((av[i] - expect).abs() < 1e-9, "pair {k}, row {i}");
            }
        }
    }

    #[test]
    fn positive_semidefinite_gram_matrix_has_nonnegative_eigenvalues() {
        // G = B^H B is PSD by construction.
        let b = hermitian_from_seed(7, 19);
        let eig = eigh(&mul(&adjoint(&b), &b)).unwrap();
        for &v in &eig.values {
            assert!(v > -1e-9);
        }
    }

    #[test]
    fn vector_accessor_panics_out_of_range() {
        let eig = eigh(&hermitian_from_seed(3, 2)).unwrap();
        let result = std::panic::catch_unwind(|| eig.vector(5));
        assert!(result.is_err());
    }
}
