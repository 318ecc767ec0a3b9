//! The complex numbers of the workspace, generic over their element type.
//!
//! The lithography pipeline only needs a small, predictable subset of complex
//! arithmetic (add/sub/mul, conjugation, modulus), so we implement it here
//! rather than pulling in an external numerics crate.
//!
//! # Two precisions, one source
//!
//! Every transform and every complex value of this crate is generic over a
//! [`Float`] element: `f32`, the precision the simulation runs in, and
//! `f64`, the precision its test references run in. The trait is sealed —
//! those two are the only instances — because each carries its own compiled
//! vector kernels. [`Complex`] without a parameter is the `f64` instance.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real element type the transforms run in: `f32` or `f64`.
///
/// Sealed: besides the arithmetic listed here, each instance carries the
/// compiled vector kernels of [`crate::FftPlan`] and of the logistic sweeps,
/// which is why no other type can implement it.
pub trait Float:
    crate::simd::Kernels
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// `0`.
    const ZERO: Self;
    /// `1`.
    const ONE: Self;
    /// Rounds an `f64` to this type (the identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact).
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Four-quadrant arctangent of `self / other`.
    fn atan2(self, other: Self) -> Self;
    /// Sine and cosine.
    fn sin_cos(self) -> (Self, Self);
    /// Returns `true` for NaN.
    fn is_nan(self) -> bool;
    /// The bit pattern, widened to 64 bits: what the bit-identity tests
    /// compare (`==` would let `0.0` pass for `-0.0`).
    #[cfg(test)]
    fn bits(self) -> u64;
}

macro_rules! float_impl {
    ($t:ty) => {
        impl Float for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                f64::from(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn atan2(self, other: Self) -> Self {
                <$t>::atan2(self, other)
            }
            #[inline(always)]
            fn sin_cos(self) -> (Self, Self) {
                (<$t>::sin(self), <$t>::cos(self))
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[cfg(test)]
            fn bits(self) -> u64 {
                u64::from(self.to_bits())
            }
        }
    };
}

float_impl!(f64);
float_impl!(f32);

/// A complex number with real and imaginary parts of type `T` (`f64`
/// unless named otherwise).
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
/// The layout is part of the type: `repr(C)`, so a `Complex<T>` is exactly
/// the two `T`s `[re, im]` in that order, and a slice of them is a slice of
/// interleaved pairs. The vector kernels of the transforms load and store
/// through that view.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T = f64> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: Float> Complex<T> {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Self = Complex {
        re: T::ZERO,
        im: T::ZERO,
    };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Self = Complex {
        re: T::ONE,
        im: T::ZERO,
    };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Self = Complex {
        re: T::ZERO,
        im: T::ONE,
    };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    ///
    /// ```
    /// # use ilt_fft::Complex;
    /// assert_eq!(Complex::from_re(2.5), Complex::new(2.5, 0.0));
    /// ```
    #[inline]
    pub const fn from_re(re: T) -> Self {
        Complex { re, im: T::ZERO }
    }

    /// Creates the complex number `r e^{i theta}`.
    ///
    /// ```
    /// # use ilt_fft::Complex;
    /// let z = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-15 && (z.im - 1.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: T, theta: T) -> Self {
        let (sin, cos) = theta.sin_cos();
        Complex {
            re: r * cos,
            im: r * sin,
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
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Both components' bit patterns, for the tests that hold one code
    /// path to another bit for bit (`==` would let `0.0` pass for `-0.0`).
    #[cfg(test)]
    pub(crate) fn to_bits(self) -> [u64; 2] {
        [self.re.bits(), self.im.bits()]
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
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Complex {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }

    /// Rounds (or widens) both parts to another element type.
    #[inline]
    pub fn cast<U: Float>(self) -> Complex<U> {
        Complex {
            re: U::from_f64(self.re.to_f64()),
            im: U::from_f64(self.im.to_f64()),
        }
    }
}

impl<T: Float> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= T::ZERO {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl<T: Float> From<T> for Complex<T> {
    fn from(re: T) -> Self {
        Complex::from_re(re)
    }
}

impl<T: Float> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Float> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Float> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Float> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Float> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Float> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Float> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex<f64>> for f64 {
    type Output = Complex<f64>;
    #[inline]
    fn mul(self, rhs: Complex<f64>) -> Complex<f64> {
        rhs.scale(self)
    }
}

impl Mul<Complex<f32>> for f32 {
    type Output = Complex<f32>;
    #[inline]
    fn mul(self, rhs: Complex<f32>) -> Complex<f32> {
        rhs.scale(self)
    }
}

impl<T: Float> Div for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl<T: Float> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Float> Div<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: T) -> Self {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl<T: Float> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Complex::new(-self.re, -self.im)
    }
}

impl<T: Float> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
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
        let z = Complex::<f64>::from_polar(2.0, 0.7);
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
        let z = Complex::<f64>::new(3.0, 4.0);
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
        assert!(!Complex::<f64>::ONE.is_nan());
    }
}
