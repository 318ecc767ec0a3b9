//! Separable Gaussian low-pass filtering.
//!
//! The paper's Stitch-Loss metric (Definition 1) smooths mask contours with
//! "multiple iterations of Gaussian lowpass filtering"; the weighted
//! smoothing study of Fig. 6 also relies on a low-pass reference. Borders are
//! handled by mirror reflection, which avoids the artificial darkening a
//! zero-padded border would introduce right where stitch lines meet the clip
//! edge.

use crate::grid::RealGrid;

/// A separable Gaussian filter with a precomputed, normalised kernel.
///
/// # Examples
///
/// ```
/// use ilt_grid::{GaussianFilter, Grid};
///
/// let f = GaussianFilter::new(1.0);
/// let mut img = Grid::new(9, 9, 0.0);
/// img.set(4, 4, 1.0);
/// let out = f.apply(&img);
/// // Smoothing conserves total mass.
/// assert!((out.sum() - 1.0).abs() < 1e-12);
/// // And spreads the impulse.
/// assert!(out.get(4, 4) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianFilter {
    sigma: f64,
    kernel: Vec<f64>,
    radius: usize,
}

impl GaussianFilter {
    /// Creates a filter with standard deviation `sigma` and radius
    /// `ceil(3 sigma)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and positive.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be finite and positive"
        );
        let radius = (3.0 * sigma).ceil() as usize;
        let mut kernel = Vec::with_capacity(2 * radius + 1);
        for i in 0..=2 * radius {
            let d = i as f64 - radius as f64;
            kernel.push((-d * d / (2.0 * sigma * sigma)).exp());
        }
        let total: f64 = kernel.iter().sum();
        for k in &mut kernel {
            *k /= total;
        }
        GaussianFilter {
            sigma,
            kernel,
            radius,
        }
    }

    /// The standard deviation this filter was built with.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Kernel radius in pixels.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Applies the filter once (horizontal then vertical pass).
    pub fn apply(&self, img: &RealGrid) -> RealGrid {
        let horizontal = self.pass(img, true);
        self.pass(&horizontal, false)
    }

    /// [`Self::apply`] with the result written back into `img`, bit for
    /// bit: one intermediate grid is allocated instead of two.
    pub fn apply_in_place(&self, img: &mut RealGrid) {
        let horizontal = self.pass(img, true);
        img.as_mut_slice().fill(0.0);
        self.pass_into(&horizontal, false, img);
    }

    /// Applies the filter `iterations` times, as Definition 1 requires.
    pub fn apply_iterated(&self, img: &RealGrid, iterations: usize) -> RealGrid {
        let mut out = img.clone();
        for _ in 0..iterations {
            out = self.apply(&out);
        }
        out
    }

    /// One separable pass; `horizontal` selects the axis.
    ///
    /// Every output pixel is `((0 + k_0 v_0) + k_1 v_1) + ...` over the taps
    /// in kernel order, exactly as [`Self::pass_reference`] computes it;
    /// the loops are tap-major over row slices so the mirror reflection is
    /// paid once per (row, tap) — or only within `radius` of a vertical
    /// border — instead of once per (pixel, tap).
    fn pass(&self, img: &RealGrid, horizontal: bool) -> RealGrid {
        let mut out = RealGrid::new(img.width(), img.height(), 0.0);
        self.pass_into(img, horizontal, &mut out);
        out
    }

    /// [`Self::pass`] accumulated into `out`, which must be zero and of
    /// `img`'s size.
    fn pass_into(&self, img: &RealGrid, horizontal: bool, out: &mut RealGrid) {
        let (w, h) = (img.width(), img.height());
        debug_assert!(out.width() == w && out.height() == h);
        let r = self.radius;
        let rows = out.as_mut_slice().chunks_exact_mut(w).enumerate();
        if horizontal {
            // Columns whose taps all land inside the row.
            let interior = if w > 2 * r { r..w - r } else { 0..0 };
            for (y, acc) in rows {
                let src = img.row(y);
                if !interior.is_empty() {
                    for (i, &k) in self.kernel.iter().enumerate() {
                        let taps = &src[i..i + interior.len()];
                        for (a, &v) in acc[interior.clone()].iter_mut().zip(taps) {
                            *a += k * v;
                        }
                    }
                }
                for x in (0..interior.start).chain(interior.end..w) {
                    for (i, &k) in self.kernel.iter().enumerate() {
                        let sx = reflect(x as i64 + i as i64 - r as i64, w as i64);
                        acc[x] += k * src[sx as usize];
                    }
                }
            }
        } else {
            for (y, acc) in rows {
                for (i, &k) in self.kernel.iter().enumerate() {
                    let sy = reflect(y as i64 + i as i64 - r as i64, h as i64);
                    for (a, &v) in acc.iter_mut().zip(img.row(sy as usize)) {
                        *a += k * v;
                    }
                }
            }
        }
    }

    /// The per-pixel definition [`Self::pass`] must reproduce bit for bit.
    #[cfg(test)]
    fn pass_reference(&self, img: &RealGrid, horizontal: bool) -> RealGrid {
        let (w, h) = (img.width(), img.height());
        let r = self.radius as i64;
        RealGrid::from_fn(w, h, |x, y| {
            let mut acc = 0.0;
            for (i, &k) in self.kernel.iter().enumerate() {
                let off = i as i64 - r;
                let (sx, sy) = if horizontal {
                    (reflect(x as i64 + off, w as i64), y as i64)
                } else {
                    (x as i64, reflect(y as i64 + off, h as i64))
                };
                acc += k * img.get(sx as usize, sy as usize);
            }
            acc
        })
    }
}

/// Mirror-reflects an index into `[0, n)`.
fn reflect(i: i64, n: i64) -> i64 {
    debug_assert!(n > 0);
    let period = 2 * n;
    let mut i = i.rem_euclid(period);
    if i >= n {
        i = period - 1 - i;
    }
    i
}

/// Simple `size x size` box blur used for quick tests and coarse previews.
///
/// # Panics
///
/// Panics if `size` is zero or even.
pub fn box_blur(img: &RealGrid, size: usize) -> RealGrid {
    assert!(
        size % 2 == 1 && size > 0,
        "box size must be odd and nonzero"
    );
    let r = (size / 2) as i64;
    let (w, h) = (img.width(), img.height());
    let norm = 1.0 / (size * size) as f64;
    RealGrid::from_fn(w, h, |x, y| {
        let mut acc = 0.0;
        for dy in -r..=r {
            for dx in -r..=r {
                let sx = reflect(x as i64 + dx, w as i64);
                let sy = reflect(y as i64 + dy, h as i64);
                acc += img.get(sx as usize, sy as usize);
            }
        }
        acc * norm
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    #[should_panic(expected = "sigma")]
    fn rejects_bad_sigma() {
        let _ = GaussianFilter::new(0.0);
    }

    #[test]
    fn kernel_is_normalised_and_symmetric() {
        let f = GaussianFilter::new(1.7);
        let sum: f64 = f.kernel.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let n = f.kernel.len();
        for i in 0..n / 2 {
            assert!((f.kernel[i] - f.kernel[n - 1 - i]).abs() < 1e-15);
        }
        assert_eq!(f.radius(), (3.0 * 1.7f64).ceil() as usize);
        assert_eq!(f.sigma(), 1.7);
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let f = GaussianFilter::new(2.0);
        let img = Grid::new(16, 16, 0.7);
        let out = f.apply(&img);
        for (_, _, &v) in out.iter() {
            assert!((v - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_conserved_for_interior_impulse() {
        let f = GaussianFilter::new(1.0);
        let mut img = Grid::new(21, 21, 0.0);
        img.set(10, 10, 1.0);
        let out = f.apply(&img);
        assert!((out.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_reduces_maximum() {
        let f = GaussianFilter::new(1.0);
        let mut img = Grid::new(15, 15, 0.0);
        img.set(7, 7, 1.0);
        let once = f.apply(&img);
        let twice = f.apply_iterated(&img, 2);
        assert!(once.max() < 1.0);
        assert!(twice.max() < once.max());
    }

    #[test]
    fn iterated_zero_times_is_identity() {
        let f = GaussianFilter::new(1.0);
        let img = Grid::from_fn(8, 8, |x, y| (x * y) as f64);
        assert_eq!(f.apply_iterated(&img, 0), img);
    }

    #[test]
    fn smoothing_is_monotone_on_step_edge() {
        // A step edge must stay monotone after smoothing (no ringing).
        let f = GaussianFilter::new(1.5);
        let img = Grid::from_fn(32, 8, |x, _| if x < 16 { 1.0 } else { 0.0 });
        let out = f.apply(&img);
        for x in 1..32 {
            assert!(out.get(x, 4) <= out.get(x - 1, 4) + 1e-12);
        }
    }

    #[test]
    fn reflection_keeps_edges_bright() {
        // Mirror handling: an all-ones image must stay all ones at borders.
        let f = GaussianFilter::new(2.0);
        let img = Grid::new(10, 10, 1.0);
        let out = f.apply(&img);
        assert!((out.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((out.get(9, 9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_slice_pass_is_bit_identical_to_the_per_pixel_definition() {
        // Sizes on both sides of `2 * radius` (no interior at all), odd and
        // non-square; sigma 1 and 2 are the prolongation filters' values.
        for (w, h) in [(1, 1), (3, 7), (12, 5), (13, 40), (64, 33)] {
            let img = Grid::from_fn(w, h, |x, y| ((x * 37 + y * 101) % 29) as f64 / 7.0 - 1.5);
            for sigma in [0.5, 1.0, 2.0] {
                let f = GaussianFilter::new(sigma);
                for horizontal in [true, false] {
                    assert_eq!(
                        f.pass(&img, horizontal).as_slice(),
                        f.pass_reference(&img, horizontal).as_slice(),
                        "{w}x{h} sigma {sigma} horizontal {horizontal}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_place_application_is_bit_identical() {
        for (w, h) in [(1, 1), (13, 40), (64, 33)] {
            let img = Grid::from_fn(w, h, |x, y| ((x * 37 + y * 101) % 29) as f64 / 7.0 - 1.5);
            for sigma in [0.5, 1.0, 2.0] {
                let f = GaussianFilter::new(sigma);
                let mut in_place = img.clone();
                f.apply_in_place(&mut in_place);
                assert_eq!(
                    in_place.as_slice(),
                    f.apply(&img).as_slice(),
                    "{w}x{h} sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn reflect_index_math() {
        assert_eq!(reflect(0, 5), 0);
        assert_eq!(reflect(4, 5), 4);
        assert_eq!(reflect(5, 5), 4);
        assert_eq!(reflect(-1, 5), 0);
        assert_eq!(reflect(-2, 5), 1);
        assert_eq!(reflect(9, 5), 0);
    }

    #[test]
    fn box_blur_averages() {
        let img = Grid::from_fn(3, 3, |x, y| (y * 3 + x) as f64);
        let out = box_blur(&img, 3);
        // Center pixel is the mean of all nine values (reflection unused).
        assert!((out.get(1, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn box_blur_rejects_even_size() {
        let img = Grid::new(4, 4, 0.0);
        let _ = box_blur(&img, 2);
    }
}
