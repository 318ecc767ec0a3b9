//! Plain-text and binary image output for inspecting masks and wafer images.
//!
//! The experiment binaries dump PGM images (viewable everywhere) and CSV
//! tables (consumed by EXPERIMENTS.md).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use ilt_telemetry::fault;

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

/// Reads an 8-bit binary PGM (P5) back into a real grid with values in
/// `[0, 255]` — the inverse of [`write_pgm`] up to the linear range
/// mapping (a grid already valued in `[0, 255]` with both endpoints
/// present round-trips exactly).
///
/// # Errors
///
/// Propagates I/O errors; returns [`io::ErrorKind::InvalidData`] for a
/// malformed header, a maxval other than 1–255, or a truncated payload.
pub fn read_pgm<P: AsRef<Path>>(path: P) -> io::Result<RealGrid> {
    read_pgm_from(BufReader::new(File::open(path)?))
}

/// Reads a P5 PGM from any reader (see [`read_pgm`]).
///
/// # Errors
///
/// Propagates I/O errors and malformed-PGM parse failures.
pub fn read_pgm_from<R: Read>(mut r: R) -> io::Result<RealGrid> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    // Fault drill: simulate a payload cut short on the wire/disk; the
    // size check below must turn it into a typed error, never a panic.
    if fault::should_fire(fault::points::GRID_PGM_TRUNCATE) {
        bytes.pop();
    }
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad PGM: {msg}"));
    let mut pos = 0usize;
    // Reads the next whitespace-delimited header token, skipping `#`
    // comment lines, and leaves `pos` one byte past the token.
    let mut token = |bytes: &[u8]| -> io::Result<String> {
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            break;
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad PGM: truncated header",
            ));
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };
    if token(&bytes)? != "P5" {
        return Err(bad("not a P5 file"));
    }
    let parse = |t: String| t.parse::<usize>().map_err(|_| bad("non-numeric header"));
    let width = parse(token(&bytes)?)?;
    let height = parse(token(&bytes)?)?;
    let maxval = parse(token(&bytes)?)?;
    if width == 0 || height == 0 {
        return Err(bad("zero dimension"));
    }
    if maxval == 0 || maxval > 255 {
        return Err(bad("unsupported maxval"));
    }
    // Exactly one whitespace byte separates the header from the payload.
    if pos >= bytes.len() || !bytes[pos].is_ascii_whitespace() {
        return Err(bad("missing header terminator"));
    }
    pos += 1;
    let payload = &bytes[pos..];
    if payload.len() != width * height {
        return Err(bad("payload size does not match dimensions"));
    }
    let data: Vec<f64> = payload.iter().map(|&b| f64::from(b)).collect();
    Ok(RealGrid::from_vec(width, height, data))
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

/// Reads a CSV written by [`write_csv`] back into a header plus rows.
/// Cells are split on plain commas (no quoting, matching the writer).
///
/// # Errors
///
/// Propagates I/O errors; returns [`io::ErrorKind::InvalidData`] for an
/// empty file or a row whose arity differs from the header's.
pub fn read_csv<P: AsRef<Path>>(path: P) -> io::Result<(Vec<String>, Vec<Vec<String>>)> {
    read_csv_from(BufReader::new(File::open(path)?))
}

/// Reads CSV from any reader (see [`read_csv`]).
///
/// # Errors
///
/// Propagates I/O errors and malformed-CSV parse failures.
pub fn read_csv_from<R: Read>(mut r: R) -> io::Result<(Vec<String>, Vec<Vec<String>>)> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut lines = text.lines();
    let header: Vec<String> = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad CSV: empty file"))?
        .split(',')
        .map(str::to_string)
        .collect();
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let row: Vec<String> = line.split(',').map(str::to_string).collect();
        if row.len() != header.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "bad CSV: row {i} has {} cells, header has {}",
                    row.len(),
                    header.len()
                ),
            ));
        }
        rows.push(row);
    }
    Ok((header, rows))
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
    fn csv_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join("ilt_grid_io_csv_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.csv");
        let rows = vec![
            vec!["1".to_string(), "2".to_string()],
            vec!["3".to_string(), "4".to_string()],
        ];
        write_csv(&path, &["a", "b"], &rows).unwrap();
        let (header, back) = read_csv(&path).unwrap();
        assert_eq!(header, vec!["a", "b"]);
        assert_eq!(back, rows);

        // Corrupt the file: drop a cell from the last row.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("3,4", "3")).unwrap();
        let err = read_csv(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("row 1"), "{err}");

        // An empty file is typed, not a panic or a silent empty table.
        std::fs::write(&path, "").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_pgm_payload_is_a_typed_error() {
        let img = Grid::from_fn(8, 8, |x, y| (x * 8 + y) as f64);
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &img).unwrap();
        for cut in [1, 7, buf.len() - 12] {
            let short = &buf[..buf.len() - cut];
            let err = read_pgm_from(short).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }
    }

    #[test]
    fn pgm_round_trip_is_bitwise_identical() {
        // A grid valued in [0, 255] with both endpoints present is a fixed
        // point of the write mapping, so write → read → write must produce
        // byte-identical files.
        let img = Grid::from_fn(16, 16, |x, y| ((x * 16 + y) % 256) as f64);
        let mut first = Vec::new();
        write_pgm_to(&mut first, &img).unwrap();
        let back = read_pgm_from(&first[..]).unwrap();
        assert_eq!(back, img);
        let mut second = Vec::new();
        write_pgm_to(&mut second, &back).unwrap();
        assert_eq!(first, second, "round-trip changed the bytes");
    }

    #[test]
    fn pgm_round_trip_preserves_non_square_shape() {
        // Regression: width and height must not be swapped for w != h.
        let img = Grid::from_fn(7, 3, |x, y| ((x + 10 * y) % 256) as f64);
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &img).unwrap();
        let back = read_pgm_from(&buf[..]).unwrap();
        assert_eq!((back.width(), back.height()), (7, 3));
        // The payload is row-major: pixel (6, 0) precedes pixel (0, 1).
        let lo = img.min();
        let span = img.max() - lo;
        for y in 0..3 {
            for x in 0..7 {
                let expect = (((img.get(x, y) - lo) / span) * 255.0).round();
                assert_eq!(back.get(x, y), expect, "pixel ({x}, {y})");
            }
        }
    }

    #[test]
    fn pgm_reader_skips_comments() {
        let mut bytes = b"P5\n# a comment\n2 1\n# another\n255\n".to_vec();
        bytes.extend_from_slice(&[0, 255]);
        let img = read_pgm_from(&bytes[..]).unwrap();
        assert_eq!((img.width(), img.height()), (2, 1));
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(1, 0), 255.0);
    }

    #[test]
    fn pgm_reader_rejects_malformed_input() {
        for case in [
            &b"P6\n2 2\n255\nxxxx"[..],   // wrong magic
            &b"P5\n2 2\n255\nxxx"[..],    // truncated payload
            &b"P5\n2 2\n65535\nxxxx"[..], // 16-bit maxval unsupported
            &b"P5\n2\n255\nxx"[..],       // missing height
            &b"P5\nx 2\n255\nxx"[..],     // non-numeric width
        ] {
            let err = read_pgm_from(case).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{case:?}");
        }
    }

    #[test]
    fn bit_pgm_round_trips_through_threshold() {
        let bit = Grid::from_fn(5, 4, |x, y| u8::from((x + y) % 2 == 0));
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &bit.to_real()).unwrap();
        let back = read_pgm_from(&buf[..]).unwrap().threshold(127.0);
        assert_eq!(back, bit);
    }
}
