//! Spatial resampling: the `Downsample(..., factor = s)` of Algorithm 1 and
//! the corresponding upsampling used when a coarse-grid solution initialises
//! the fine grid.

use crate::grid::RealGrid;

/// Downsamples by integer factor `s` using `s x s` block averaging.
///
/// Block averaging (rather than decimation) is what "downsample the mask to
/// fit a single GPU" means physically: each coarse pixel carries the mean
/// transmission of the fine pixels it covers, which keeps the low-frequency
/// spectrum — the only part the optics sees — nearly unchanged.
///
/// # Panics
///
/// Panics if `s == 0` or the grid dimensions are not divisible by `s`.
pub fn downsample(img: &RealGrid, s: usize) -> RealGrid {
    assert!(s > 0, "downsample factor must be nonzero");
    let mut out = RealGrid::new(img.width() / s, img.height() / s, 0.0);
    downsample_into(img, s, &mut out);
    out
}

/// [`downsample`] into a caller-owned grid (no allocation), for solver
/// loops that resample every iteration.
///
/// # Panics
///
/// Panics if `s == 0`, the grid dimensions are not divisible by `s`, or
/// `out` is not `width/s x height/s`.
pub fn downsample_into(img: &RealGrid, s: usize, out: &mut RealGrid) {
    assert!(s > 0, "downsample factor must be nonzero");
    let (w, h) = (img.width(), img.height());
    assert!(
        w % s == 0 && h % s == 0,
        "grid {w}x{h} is not divisible by factor {s}"
    );
    assert!(
        out.width() == w / s && out.height() == h / s,
        "output grid does not match {w}x{h} downsampled by {s}"
    );
    if s == 1 {
        out.as_mut_slice().copy_from_slice(img.as_slice());
        return;
    }
    let norm = 1.0 / (s * s) as f64;
    let src = img.as_slice();
    for (y, row) in out.as_mut_slice().chunks_exact_mut(w / s).enumerate() {
        for (x, dst) in row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for dy in 0..s {
                let start = (y * s + dy) * w + x * s;
                for v in &src[start..start + s] {
                    acc += v;
                }
            }
            *dst = acc * norm;
        }
    }
}

/// Downsamples by taking every `s`-th pixel (pure decimation). Provided for
/// comparison with [`downsample`]; aliasing makes it a worse choice for
/// masks with fine SRAFs.
///
/// # Panics
///
/// Panics if `s == 0` or the grid dimensions are not divisible by `s`.
pub fn decimate(img: &RealGrid, s: usize) -> RealGrid {
    assert!(s > 0, "decimation factor must be nonzero");
    if s == 1 {
        return img.clone();
    }
    let (w, h) = (img.width(), img.height());
    assert!(
        w % s == 0 && h % s == 0,
        "grid {w}x{h} is not divisible by factor {s}"
    );
    RealGrid::from_fn(w / s, h / s, |x, y| img.get(x * s, y * s))
}

/// Upsamples by integer factor `s` with nearest-neighbour replication.
///
/// # Panics
///
/// Panics if `s == 0`.
pub fn upsample_nearest(img: &RealGrid, s: usize) -> RealGrid {
    assert!(s > 0, "upsample factor must be nonzero");
    let mut out = RealGrid::new(img.width() * s, img.height() * s, 0.0);
    upsample_nearest_into(img, s, &mut out);
    out
}

/// [`upsample_nearest`] into a caller-owned grid (no allocation).
///
/// # Panics
///
/// Panics if `s == 0` or `out` is not `width*s x height*s`.
pub fn upsample_nearest_into(img: &RealGrid, s: usize, out: &mut RealGrid) {
    assert!(s > 0, "upsample factor must be nonzero");
    let w = img.width();
    assert!(
        out.width() == w * s && out.height() == img.height() * s,
        "output grid does not match {w}x{} upsampled by {s}",
        img.height()
    );
    for (y, row) in out.as_mut_slice().chunks_exact_mut(w * s).enumerate() {
        for (cell, v) in row.chunks_exact_mut(s).zip(img.row(y / s)) {
            cell.fill(*v);
        }
    }
}

/// Upsamples by integer factor `s` with bilinear interpolation; used to
/// promote a coarse-grid ILT solution onto the fine grid without introducing
/// blocky jumps that the fine solver would then have to undo.
///
/// # Panics
///
/// Panics if `s == 0`.
pub fn upsample_bilinear(img: &RealGrid, s: usize) -> RealGrid {
    assert!(s > 0, "upsample factor must be nonzero");
    if s == 1 {
        return img.clone();
    }
    let (w, h) = (img.width(), img.height());
    // Per fine coordinate: the two coarse samples it sits between and its
    // fractional position. Coarse pixel centers sit at (i + 0.5) * s - 0.5
    // on the fine grid.
    let taps = |coarse: usize| -> Vec<(usize, usize, f64)> {
        (0..coarse * s)
            .map(|x| {
                let f = (x as f64 + 0.5) / s as f64 - 0.5;
                let i0 = f.floor().max(0.0) as usize;
                let i1 = (i0 + 1).min(coarse - 1);
                (i0, i1, (f - i0 as f64).clamp(0.0, 1.0))
            })
            .collect()
    };
    let (taps_x, taps_y) = (taps(w), taps(h));
    let mut out = RealGrid::new(w * s, h * s, 0.0);
    let rows = out.as_mut_slice().chunks_exact_mut(w * s);
    for (row, &(y0, y1, dy)) in rows.zip(&taps_y) {
        let (top, bottom) = (img.row(y0), img.row(y1));
        for (v, &(x0, x1, dx)) in row.iter_mut().zip(&taps_x) {
            *v = top[x0] * (1.0 - dx) * (1.0 - dy)
                + top[x1] * dx * (1.0 - dy)
                + bottom[x0] * (1.0 - dx) * dy
                + bottom[x1] * dx * dy;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    fn block_average_is_exact_mean() {
        let img = Grid::from_vec(4, 2, vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0]);
        let d = downsample(&img, 2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 1);
        assert_eq!(d.get(0, 0), 2.5);
        assert_eq!(d.get(1, 0), 6.5);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let img = Grid::from_fn(4, 4, |x, y| (x * y) as f64);
        assert_eq!(downsample(&img, 1), img);
        assert_eq!(decimate(&img, 1), img);
        assert_eq!(upsample_nearest(&img, 1), img);
        assert_eq!(upsample_bilinear(&img, 1), img);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn downsample_rejects_indivisible() {
        let img = Grid::new(5, 4, 0.0);
        let _ = downsample(&img, 2);
    }

    #[test]
    fn downsample_preserves_mean() {
        let img = Grid::from_fn(8, 8, |x, y| ((x * 31 + y * 17) % 7) as f64);
        let d = downsample(&img, 4);
        let mean_full = img.sum() / img.len() as f64;
        let mean_down = d.sum() / d.len() as f64;
        assert!((mean_full - mean_down).abs() < 1e-12);
    }

    #[test]
    fn decimate_picks_corner_samples() {
        let img = Grid::from_fn(4, 4, |x, y| (y * 4 + x) as f64);
        let d = decimate(&img, 2);
        assert_eq!(d.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn nearest_upsample_replicates_blocks() {
        let img = Grid::from_vec(2, 1, vec![1.0, 2.0]);
        let u = upsample_nearest(&img, 2);
        assert_eq!(u.as_slice(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn downsample_of_nearest_upsample_is_identity() {
        let img = Grid::from_fn(4, 4, |x, y| ((x + 2 * y) % 5) as f64);
        for s in [2usize, 3] {
            let u = upsample_nearest(&img, s);
            let d = downsample(&u, s);
            assert_eq!(d, img, "s={s}");
        }
    }

    #[test]
    fn into_variants_overwrite_stale_output_and_check_its_shape() {
        let img = Grid::from_fn(4, 4, |x, y| ((x + 2 * y) % 5) as f64);
        let mut down = Grid::new(2, 2, f64::NAN);
        downsample_into(&img, 2, &mut down);
        assert_eq!(down, downsample(&img, 2));
        let mut up = Grid::new(8, 8, f64::NAN);
        upsample_nearest_into(&img, 2, &mut up);
        assert_eq!(up, upsample_nearest(&img, 2));
        let wrong = std::panic::catch_unwind(|| {
            let mut out = Grid::new(3, 2, 0.0);
            downsample_into(&Grid::new(4, 4, 0.0), 2, &mut out);
        });
        assert!(wrong.is_err());
        let wrong = std::panic::catch_unwind(|| {
            let mut out = Grid::new(8, 4, 0.0);
            upsample_nearest_into(&Grid::new(4, 4, 0.0), 2, &mut out);
        });
        assert!(wrong.is_err());
    }

    /// The per-pixel definition `upsample_bilinear` must reproduce bit for
    /// bit.
    fn upsample_bilinear_reference(img: &RealGrid, s: usize) -> RealGrid {
        let (w, h) = (img.width(), img.height());
        RealGrid::from_fn(w * s, h * s, |x, y| {
            let fx = (x as f64 + 0.5) / s as f64 - 0.5;
            let fy = (y as f64 + 0.5) / s as f64 - 0.5;
            let x0 = fx.floor().max(0.0) as usize;
            let y0 = fy.floor().max(0.0) as usize;
            let x1 = (x0 + 1).min(w - 1);
            let y1 = (y0 + 1).min(h - 1);
            let dx = (fx - x0 as f64).clamp(0.0, 1.0);
            let dy = (fy - y0 as f64).clamp(0.0, 1.0);
            img.get(x0, y0) * (1.0 - dx) * (1.0 - dy)
                + img.get(x1, y0) * dx * (1.0 - dy)
                + img.get(x0, y1) * (1.0 - dx) * dy
                + img.get(x1, y1) * dx * dy
        })
    }

    #[test]
    fn tabulated_bilinear_is_bit_identical_to_the_per_pixel_definition() {
        for (w, h) in [(1, 1), (1, 5), (7, 3), (16, 16)] {
            let img = Grid::from_fn(w, h, |x, y| ((x * 37 + y * 101) % 29) as f64 / 7.0 - 1.5);
            for s in [2usize, 3, 4] {
                assert_eq!(
                    upsample_bilinear(&img, s).as_slice(),
                    upsample_bilinear_reference(&img, s).as_slice(),
                    "{w}x{h} s={s}"
                );
            }
        }
    }

    #[test]
    fn bilinear_preserves_constant_images() {
        let img = Grid::new(3, 3, 0.4);
        let u = upsample_bilinear(&img, 4);
        for (_, _, &v) in u.iter() {
            assert!((v - 0.4).abs() < 1e-12);
        }
    }

    #[test]
    fn bilinear_interpolates_between_pixels() {
        let img = Grid::from_vec(2, 1, vec![0.0, 1.0]);
        let u = upsample_bilinear(&img, 2);
        // Fine pixels at fractional source positions -0.25, 0.25, 0.75, 1.25.
        assert_eq!(u.get(0, 0), 0.0);
        assert!((u.get(1, 0) - 0.25).abs() < 1e-12);
        assert!((u.get(2, 0) - 0.75).abs() < 1e-12);
        assert_eq!(u.get(3, 0), 1.0);
    }

    #[test]
    fn bilinear_is_smoother_than_nearest() {
        // Total variation of the bilinear result never exceeds nearest.
        let img = Grid::from_vec(4, 1, vec![0.0, 1.0, 0.0, 1.0]);
        let tv = |g: &RealGrid| -> f64 {
            (1..g.width())
                .map(|x| (g.get(x, 0) - g.get(x - 1, 0)).abs())
                .sum()
        };
        let un = upsample_nearest(&img, 4);
        let ub = upsample_bilinear(&img, 4);
        assert!(tv(&ub) <= tv(&un) + 1e-12);
    }
}
