//! Minimal double-precision complex number used throughout the workspace.
//!
//! The lithography pipeline only needs a small, predictable subset of complex
//! arithmetic (add/sub/mul, conjugation, modulus), so we implement it here
//! rather than pulling in an external numerics crate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use ilt_fft::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a + b, Complex::new(4.0, 1.0));
/// assert_eq!(a * Complex::I, Complex::new(-2.0, 1.0));
/// ```
///
/// The layout is part of the type: `repr(C)`, so a `Complex` is exactly the
/// two `f64`s `[re, im]` in that order, and a slice of them is a slice of
/// interleaved pairs. The vector kernels in [`crate::simd`] load and store
/// through that view.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    ///
    /// ```
    /// # use ilt_fft::Complex;
    /// assert_eq!(Complex::from_re(2.5), Complex::new(2.5, 0.0));
    /// ```
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates the unit-modulus complex number `e^{i theta}`.
    ///
    /// ```
    /// # use ilt_fft::Complex;
    /// let z = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-15 && (z.im - 1.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|^2 = re^2 + im^2`.
    ///
    /// This is the quantity the Hopkins model sums over kernels in Eq. (1) of
    /// the paper, so it is provided directly to avoid a needless square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Both components' bit patterns, for the tests that hold one code
    /// path to another bit for bit (`==` would let `0.0` pass for `-0.0`).
    #[cfg(test)]
    pub(crate) fn to_bits(self) -> [u64; 2] {
        [self.re.to_bits(), self.im.to_bits()]
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Fused multiply-accumulate: `self + a * b`.
    ///
    /// The FFT butterflies and TCC assembly are dominated by this pattern.
    #[inline]
    pub fn mul_add(self, a: Complex, b: Complex) -> Self {
        Complex {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I, Complex::new(0.0, 1.0));
        assert_eq!(Complex::from_re(3.0), Complex::new(3.0, 0.0));
        assert_eq!(Complex::from(2.0), Complex::new(2.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.5, 4.0);
        assert!(close(a + b - b, a));
        assert!(close(a * b / b, a));
        assert!(close(-(-a), a));
        assert!(close(a * Complex::ONE, a));
        assert!(close(a + Complex::ZERO, a));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(4.0, -5.0);
        // (2+3i)(4-5i) = 8 -10i +12i +15 = 23 + 2i
        assert!(close(a * b, Complex::new(23.0, 2.0)));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex::I * Complex::I, -Complex::ONE));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!((a * a.conj()).im.abs() < EPS);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn norm_and_abs() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert!((z.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn assign_operators() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::ONE;
        assert!(close(z, Complex::new(2.0, 1.0)));
        z -= Complex::I;
        assert!(close(z, Complex::new(2.0, 0.0)));
        z *= Complex::I;
        assert!(close(z, Complex::new(0.0, 2.0)));
        z /= Complex::new(0.0, 2.0);
        assert!(close(z, Complex::ONE));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex::new(1.0, -2.0);
        assert!(close(z * 2.0, Complex::new(2.0, -4.0)));
        assert!(close(2.0 * z, Complex::new(2.0, -4.0)));
        assert!(close(z / 2.0, Complex::new(0.5, -1.0)));
        assert!(close(z.scale(0.5), Complex::new(0.5, -1.0)));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let acc = Complex::new(0.5, 0.5);
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(close(acc.mul_add(a, b), acc + a * b));
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Complex::ONE, Complex::I, Complex::new(1.0, 1.0)];
        let s: Complex = v.into_iter().sum();
        assert!(close(s, Complex::new(2.0, 2.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn nan_detection() {
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
        assert!(Complex::new(0.0, f64::NAN).is_nan());
        assert!(!Complex::ONE.is_nan());
    }
}
