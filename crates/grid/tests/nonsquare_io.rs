//! Output for non-square M×N grids. The incremental (ECO) subsystem works
//! on rectangular tile crops, so width≠height must survive every writer:
//! the PGM header names width then height and the payload is row-major,
//! and a CSV table keeps its row and column counts.

use ilt_grid::io::{write_csv, write_pgm_to};
use ilt_grid::{Grid, RealGrid};

fn nonsquare(width: usize, height: usize) -> RealGrid {
    // Values already in [0, 255] with both endpoints present, so the PGM
    // range mapping is the identity and each payload byte is its pixel.
    Grid::from_fn(width, height, |x, y| {
        if (x, y) == (0, 0) {
            0.0
        } else if (x, y) == (1, 0) {
            255.0
        } else {
            ((x * 37 + y * 101) % 256) as f64
        }
    })
}

/// Writes `img` as PGM and checks the header and the row-major payload.
fn check_pgm(width: usize, height: usize) {
    let img = nonsquare(width, height);
    let mut buf = Vec::new();
    write_pgm_to(&mut buf, &img).unwrap();
    let header = format!("P5\n{width} {height}\n255\n");
    assert_eq!(&buf[..header.len()], header.as_bytes());
    let payload = &buf[header.len()..];
    assert_eq!(payload.len(), width * height);
    for y in 0..height {
        for x in 0..width {
            assert_eq!(
                f64::from(payload[y * width + x]),
                img.get(x, y),
                "pixel ({x}, {y})"
            );
        }
    }
}

#[test]
fn wide_pgm_writes_its_pixels_row_major() {
    check_pgm(13, 5);
}

#[test]
fn tall_pgm_writes_its_pixels_row_major() {
    check_pgm(3, 17);
}

#[test]
fn pgm_header_dimensions_are_width_then_height() {
    // A transposition bug would swap these for any non-square grid.
    let img = nonsquare(7, 2);
    let mut buf = Vec::new();
    write_pgm_to(&mut buf, &img).unwrap();
    let text = String::from_utf8_lossy(&buf[..12]);
    assert!(text.contains("7 2"), "header: {text:?}");
}

#[test]
fn nonsquare_csv_keeps_its_shape() {
    let img = nonsquare(6, 4);
    let header: Vec<&str> = (0..img.width()).map(|_| "c").collect();
    let rows: Vec<Vec<String>> = (0..img.height())
        .map(|y| {
            (0..img.width())
                .map(|x| img.get(x, y).to_string())
                .collect()
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("ilt-grid-nonsquare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.csv");
    write_csv(&path, &header, &rows).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 4);
    assert_eq!(lines[0], "c,c,c,c,c,c");
    for (y, line) in lines[1..].iter().enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), 6, "row {y}");
        for (x, cell) in cells.iter().enumerate() {
            assert_eq!(cell.parse::<f64>().unwrap(), img.get(x, y));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
