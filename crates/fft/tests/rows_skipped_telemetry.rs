//! Proves the sparse-support inverse actually skips work: the
//! `fft.rows_skipped` counter must record the pruned first-pass rows.
//!
//! Lives in its own test binary (single test) because it toggles and
//! drains the process-global telemetry collector.

use ilt_fft::{Complex, Fft2d};

#[test]
fn sparse_inverse_reports_skipped_rows() {
    let (n, p) = (64usize, 23usize);
    let fft = Fft2d::new(n, n).unwrap();
    let bins: Vec<usize> = (0..p).collect(); // any valid support rows
    let mut data: Vec<Complex> = vec![Complex::ZERO; n * n];

    ilt_telemetry::set_enabled(true);
    let _ = ilt_telemetry::drain(); // discard anything collected so far
    fft.inverse_support(&mut data, &bins).unwrap();
    fft.inverse_support(&mut data, &bins).unwrap();
    let tele = ilt_telemetry::drain();
    ilt_telemetry::set_enabled(false);

    let skipped = tele.counters.get("fft.rows_skipped").copied().unwrap_or(0);
    assert_eq!(
        skipped,
        2 * (n - p) as u64,
        "each sparse inverse must skip n - P first-pass rows"
    );
    assert!(skipped > 0);
    assert_eq!(tele.counters.get("fft.inverse").copied(), Some(2));
}
