//! Fault-injected IO behaviour. Lives in its own integration binary
//! because arming the process-global fault registry must not race the
//! crate's other test binaries; within this binary the single test owns
//! the registry for its whole duration.

use ilt_grid::io::{read_pgm_from, write_pgm_to};
use ilt_grid::Grid;
use ilt_telemetry::fault::{self, points, FaultSpec};

#[test]
fn injected_pgm_truncation_is_a_typed_error_and_deterministic() {
    let img = Grid::from_fn(8, 8, |x, y| (x * 8 + y) as f64);
    let mut buf = Vec::new();
    write_pgm_to(&mut buf, &img).unwrap();

    // Uninjected read works.
    assert!(read_pgm_from(&buf[..]).is_ok());

    // At rate 1.0 every read sees a truncated payload and must return a
    // typed InvalidData error, never panic.
    fault::configure(vec![FaultSpec::always(points::GRID_PGM_TRUNCATE, 42)]);
    for _ in 0..4 {
        let err = read_pgm_from(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("payload"), "{err}");
    }
    assert_eq!(fault::fired_count(points::GRID_PGM_TRUNCATE), 4);

    // At rate 0.5 the fire pattern is a pure function of the seed.
    let pattern = |seed: u64| -> Vec<bool> {
        fault::configure(vec![FaultSpec {
            rate: 0.5,
            ..FaultSpec::always(points::GRID_PGM_TRUNCATE, seed)
        }]);
        (0..16).map(|_| read_pgm_from(&buf[..]).is_err()).collect()
    };
    let a = pattern(7);
    let b = pattern(7);
    assert_eq!(a, b, "same seed, same corruption pattern");
    assert!(a.iter().any(|e| *e) && !a.iter().all(|e| *e));

    fault::clear();
    assert!(read_pgm_from(&buf[..]).is_ok(), "disarmed reads recover");
}
