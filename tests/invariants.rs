//! Cross-crate invariants: property-based ones (proptest), and one of the
//! written record — every section of `EXPERIMENTS.md` that the code and
//! docs cite by name exists.

use multigrid_schwarz_ilt::fft::{spectral, Complex, Fft2d, FftPlan, RfftPlan};
use multigrid_schwarz_ilt::grid::{Grid, RealGrid};
use multigrid_schwarz_ilt::tile::{
    assemble, restrict, weight_map, AssemblyMode, Partition, PartitionConfig,
};
use proptest::prelude::*;

/// Strategy: a power-of-two length between 4 and 64.
fn pow2() -> impl Strategy<Value = usize> {
    (2u32..=6).prop_map(|e| 1usize << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fft_roundtrip_recovers_signal(n in pow2(), seed in 0u64..1000) {
        let plan = FftPlan::new(n).expect("plan");
        let data: Vec<Complex> = (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(seed.wrapping_add(7));
                Complex::new(
                    (x % 1000) as f64 / 500.0 - 1.0,
                    ((x / 1000) % 1000) as f64 / 500.0 - 1.0,
                )
            })
            .collect();
        let mut buf = data.clone();
        plan.forward(&mut buf).expect("fft");
        plan.inverse(&mut buf).expect("ifft");
        for (a, b) in data.iter().zip(&buf) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn rfft_matches_complex_fft(e in 3u32..=9, seed in 0u64..1000) {
        // Sizes 8..=512: the real-input plan must agree with the complex
        // plan on the stored half-spectrum for impulse, DC, and random
        // inputs alike (the random stream covers the first two in spirit;
        // dedicated impulse/DC cases live in `ilt-fft`'s unit tests).
        let n = 1usize << e;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let v = (i as u64).wrapping_mul(seed.wrapping_add(11)).wrapping_add(3);
                (v % 2000) as f64 / 1000.0 - 1.0
            })
            .collect();
        let rplan = RfftPlan::new(n).expect("rplan");
        let mut half = vec![Complex::ZERO; rplan.spectrum_len()];
        rplan.forward(&x, &mut half).expect("rfft");

        let plan = FftPlan::new(n).expect("plan");
        let mut full: Vec<Complex> = x.iter().map(|&v| Complex::from_re(v)).collect();
        plan.forward(&mut full).expect("fft");

        // Parity on the stored half, and the implied Hermitian symmetry on
        // the rest. Tolerance scales with the spectrum magnitude (sums of
        // up to n unit-sized terms).
        let tol = 1e-12 * (1.0 + n as f64);
        for k in 0..=n / 2 {
            prop_assert!((half[k] - full[k]).abs() < tol, "bin {} of {}", k, n);
        }
        for k in n / 2 + 1..n {
            prop_assert!((half[n - k].conj() - full[k]).abs() < tol);
        }

        // And the inverse recovers the signal.
        let mut back = vec![0.0f64; n];
        rplan.inverse(&mut half, &mut back).expect("irfft");
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < tol);
        }
    }

    #[test]
    fn fft2_parseval(n in pow2(), seed in 0u64..1000) {
        let fft = Fft2d::new(n, n).expect("plan");
        let data: Vec<Complex> = (0..n * n)
            .map(|i| Complex::from_re(((i as u64).wrapping_mul(seed + 3) % 97) as f64 / 97.0))
            .collect();
        let time: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = data;
        fft.forward(&mut freq).expect("fft");
        let spec: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / (n * n) as f64;
        prop_assert!((time - spec).abs() < 1e-6 * (1.0 + time));
    }

    #[test]
    fn crop_embed_idempotent(n in pow2(), p_frac in 1usize..4) {
        let p = (n / 4 * p_frac).max(1);
        prop_assume!(p <= n);
        let spectrum: Vec<Complex> = (0..n * n)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let block = spectral::crop_lowfreq(&spectrum, n, p).expect("crop");
        let embedded = spectral::embed_lowfreq(&block, p, n).expect("embed");
        // Cropping again recovers the same block exactly.
        let block2 = spectral::crop_lowfreq(&embedded, n, p).expect("crop2");
        prop_assert_eq!(block, block2);
    }

    #[test]
    fn partition_weights_sum_to_one(
        tiles_per_dim in 1usize..4,
        tile_exp in 4u32..6,
        band in 2usize..20,
    ) {
        let tile = 1usize << tile_exp;
        let overlap = tile / 2;
        let stride = tile - overlap;
        let extent = tile + (tiles_per_dim - 1) * stride;
        let partition =
            Partition::new(extent, extent, PartitionConfig { tile, overlap }).expect("partition");
        for mode in [
            AssemblyMode::Restricted,
            AssemblyMode::Weighted { band: band.min(overlap) },
        ] {
            let mut total = RealGrid::new(extent, extent, 0.0);
            for t in partition.tiles() {
                let w = weight_map(&partition, t.index, mode);
                for y in 0..tile {
                    for x in 0..tile {
                        let gx = t.rect.x0 as usize + x;
                        let gy = t.rect.y0 as usize + y;
                        total.set(gx, gy, total.get(gx, gy) + w.get(x, y));
                    }
                }
            }
            for (_, _, &v) in total.iter() {
                prop_assert!((v - 1.0).abs() < 1e-9, "{mode:?}: weight sum {v}");
            }
        }
    }

    #[test]
    fn assembly_reconstructs_any_layout(
        tiles_per_dim in 1usize..4,
        seed in 0u64..500,
        band in 2usize..16,
    ) {
        let tile = 32usize;
        let overlap = 16usize;
        let stride = tile - overlap;
        let extent = tile + (tiles_per_dim - 1) * stride;
        let partition =
            Partition::new(extent, extent, PartitionConfig { tile, overlap }).expect("partition");
        let layout = Grid::from_fn(extent, extent, |x, y| {
            (((x as u64 * 31 + y as u64 * 17).wrapping_mul(seed + 1)) % 11) as f64
        });
        let crops: Vec<RealGrid> = partition.tiles().iter().map(|t| restrict(&layout, t)).collect();
        for mode in [
            AssemblyMode::Restricted,
            AssemblyMode::Weighted { band },
        ] {
            let rebuilt = assemble(&partition, &crops, mode).expect("assemble");
            for y in 0..extent {
                for x in 0..extent {
                    prop_assert!(
                        (rebuilt.get(x, y) - layout.get(x, y)).abs() < 1e-9,
                        "{mode:?} at ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn downsample_upsample_mean_preserved(exp in 3u32..6, s in 1usize..4, seed in 0u64..100) {
        let n = (1usize << exp) * s;
        let img = Grid::from_fn(n, n, |x, y| {
            (((x * 13 + y * 7) as u64).wrapping_mul(seed + 5) % 23) as f64
        });
        let down = multigrid_schwarz_ilt::grid::resample::downsample(&img, s);
        prop_assert!((down.sum() * (s * s) as f64 - img.sum()).abs() < 1e-6 * (1.0 + img.sum()));
        let up = multigrid_schwarz_ilt::grid::resample::upsample_nearest(&down, s);
        prop_assert_eq!(up.width(), img.width());
    }
}

#[test]
fn stitch_loss_is_translation_invariant_along_the_line() {
    // Shifting a crossing along the stitch line must not change its loss
    // (away from clip borders).
    use multigrid_schwarz_ilt::metrics::{stitch_loss, StitchConfig};
    use multigrid_schwarz_ilt::tile::{Orientation, StitchLine};

    let line = StitchLine {
        orientation: Orientation::Vertical,
        position: 64,
        start: 0,
        end: 128,
    };
    let cfg = StitchConfig::paper_default();
    let mut losses = Vec::new();
    for y0 in [40i64, 56, 72] {
        let mut mask: multigrid_schwarz_ilt::grid::BitGrid = Grid::new(128, 128, 0);
        mask.fill_rect(
            multigrid_schwarz_ilt::grid::Rect::new(30, y0, 64, y0 + 10),
            1,
        );
        mask.fill_rect(
            multigrid_schwarz_ilt::grid::Rect::new(64, y0 + 6, 100, y0 + 16),
            1,
        );
        let report = stitch_loss(&mask, &[line], &cfg);
        assert_eq!(report.intersections.len(), 1);
        losses.push(report.total);
    }
    for w in losses.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-9,
            "translation changed the loss: {losses:?}"
        );
    }
}

/// Every section of `EXPERIMENTS.md` cited by quoted name (the file name,
/// a space, the name in double quotes) in the sources and the top-level
/// docs is the start of one of its headings. Citations may wrap across
/// comment lines.
#[test]
fn cited_experiments_sections_exist() {
    use std::path::{Path, PathBuf};

    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
                out.push(path);
            }
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let headings: Vec<String> = std::fs::read_to_string(root.join("EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md")
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim().to_string())
        .collect();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        collect(&root.join(dir), &mut files);
    }
    files.extend(["README.md", "DESIGN.md", "ROADMAP.md"].map(|f| root.join(f)));

    const CITE: &str = "EXPERIMENTS.md \"";
    let mut cited = 0;
    for file in &files {
        // One line per file, comment markers dropped, so a citation that
        // wraps reads as it would unwrapped.
        let text = std::fs::read_to_string(file).expect("readable source");
        let flat = text
            .lines()
            .map(|l| l.trim().trim_start_matches(['/', '!']).trim_start())
            .collect::<Vec<_>>()
            .join(" ");
        for (at, _) in flat.match_indices(CITE) {
            let rest = &flat[at + CITE.len()..];
            let name = &rest[..rest.find('"').expect("closing quote")];
            assert!(
                headings.iter().any(|h| h.starts_with(name)),
                "{} cites EXPERIMENTS.md \"{name}\", which is no heading there",
                file.display()
            );
            cited += 1;
        }
    }
    assert!(cited > 0, "no citation found: the scan is broken");
}
