//! Plain-text and binary image output for inspecting masks and wafer images.
//!
//! The experiment binaries dump PGM images (viewable everywhere) and CSV
//! tables (consumed by EXPERIMENTS.md).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::grid::{BitGrid, RealGrid};

/// Writes a real grid as an 8-bit binary PGM (P5), linearly mapping
/// `[min, max]` to `[0, 255]`.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_pgm<P: AsRef<Path>>(path: P, img: &RealGrid) -> io::Result<()> {
    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    write_pgm_to(&mut out, img)
}

/// Writes a real grid as PGM to any writer (pass `&mut w` to keep ownership).
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_pgm_to<W: Write>(mut w: W, img: &RealGrid) -> io::Result<()> {
    let (lo, hi) = (img.min(), img.max());
    let span = if hi > lo { hi - lo } else { 1.0 };
    writeln!(w, "P5")?;
    writeln!(w, "{} {}", img.width(), img.height())?;
    writeln!(w, "255")?;
    let bytes: Vec<u8> = img
        .as_slice()
        .iter()
        .map(|&v| (((v - lo) / span) * 255.0).round().clamp(0.0, 255.0) as u8)
        .collect();
    w.write_all(&bytes)
}

/// Writes a binary grid as a black/white PGM.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_bit_pgm<P: AsRef<Path>>(path: P, img: &BitGrid) -> io::Result<()> {
    write_pgm(path, &img.to_real())
}

/// Writes rows of named columns as CSV. All rows must have the same arity as
/// the header.
///
/// # Errors
///
/// Propagates I/O errors; returns [`io::ErrorKind::InvalidInput`] when a
/// row's length differs from the header's (checked before any bytes are
/// written, so a rejected table never leaves a half-written file).
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "CSV row arity mismatch: row {i} has {} cells, header has {}",
                    row.len(),
                    header.len()
                ),
            ));
        }
    }
    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    writeln!(out, "{}", header.join(","))?;
    for row in rows {
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    fn pgm_header_and_payload() {
        let img = Grid::from_vec(2, 2, vec![0.0, 1.0, 0.5, 1.0]);
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &img).unwrap();
        let text = String::from_utf8_lossy(&buf[..12]);
        assert!(text.starts_with("P5\n2 2\n255\n"));
        let pixels = &buf[buf.len() - 4..];
        assert_eq!(pixels[0], 0);
        assert_eq!(pixels[1], 255);
        assert_eq!(pixels[2], 128);
        assert_eq!(pixels[3], 255);
    }

    #[test]
    fn constant_image_does_not_divide_by_zero() {
        let img = Grid::new(3, 3, 0.7);
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &img).unwrap();
        assert_eq!(buf.len(), "P5\n3 3\n255\n".len() + 9);
    }

    #[test]
    fn files_roundtrip_through_tempdir() {
        let dir = std::env::temp_dir().join("ilt_grid_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let img = Grid::from_fn(4, 4, |x, y| (x + y) as f64);
        let p = dir.join("img.pgm");
        write_pgm(&p, &img).unwrap();
        assert!(p.exists());
        let bit = img.threshold(3.0);
        let pb = dir.join("bit.pgm");
        write_bit_pgm(&pb, &bit).unwrap();
        assert!(pb.exists());
        let pc = dir.join("table.csv");
        write_csv(
            &pc,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&pc).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_rejects_ragged_rows_without_writing() {
        let dir = std::env::temp_dir().join("ilt_grid_io_ragged");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.csv");
        let err = write_csv(&path, &["a", "b"], &[vec!["1".into()]]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("arity"), "{err}");
        assert!(!path.exists(), "rejected table must not leave a file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_pgm_is_black_and_white() {
        let bit = Grid::from_fn(5, 4, |x, y| u8::from((x + y) % 2 == 0));
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &bit.to_real()).unwrap();
        let header = b"P5\n5 4\n255\n";
        assert_eq!(&buf[..header.len()], header);
        let expected: Vec<u8> = bit.as_slice().iter().map(|&b| b * 255).collect();
        assert_eq!(&buf[header.len()..], &expected[..]);
    }
}
