//! Error type for tile partitioning and assembly.

use std::error::Error;
use std::fmt;

/// Errors returned by partition construction and assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileError {
    /// The layout is smaller than one tile.
    LayoutTooSmall {
        /// Layout dimensions.
        layout: (usize, usize),
        /// Requested tile edge.
        tile: usize,
    },
    /// A streaming assembly push arrived out of canonical (colour-band)
    /// order, or pushed a tile twice. Streamed and batch assembly are only
    /// bit-identical when contributions fold in one fixed order.
    StreamOrder {
        /// Tile index the assembler expected next.
        expected: usize,
        /// Tile index that was pushed.
        actual: usize,
    },
    /// The overlap is not compatible with the tile size.
    BadOverlap {
        /// Tile edge.
        tile: usize,
        /// Requested overlap.
        overlap: usize,
    },
    /// Data supplied for assembly does not match the partition.
    AssemblyMismatch {
        /// Expected number of tiles.
        expected: usize,
        /// Number of tile grids supplied.
        actual: usize,
    },
    /// One tile grid supplied for assembly is not tile-sized.
    TileShape {
        /// Index of the offending tile.
        tile: usize,
        /// The partition's tile edge.
        expected: usize,
        /// The grid's actual `(width, height)`.
        actual: (usize, usize),
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::LayoutTooSmall { layout, tile } => write!(
                f,
                "layout {}x{} is smaller than one {tile}-pixel tile",
                layout.0, layout.1
            ),
            TileError::StreamOrder { expected, actual } => write!(
                f,
                "streaming assembly expected tile {expected} next but received tile {actual}"
            ),
            TileError::BadOverlap { tile, overlap } => write!(
                f,
                "overlap {overlap} must be positive, even, and smaller than the tile {tile}"
            ),
            TileError::AssemblyMismatch { expected, actual } => write!(
                f,
                "assembly received {actual} tile grids but the partition has {expected}"
            ),
            TileError::TileShape {
                tile,
                expected,
                actual,
            } => write!(
                f,
                "assembly received a {}x{} grid for tile {tile} but the partition's tiles are \
                 {expected}x{expected}",
                actual.0, actual.1
            ),
        }
    }
}

impl Error for TileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(TileError::LayoutTooSmall {
            layout: (10, 20),
            tile: 128
        }
        .to_string()
        .contains("128"));
        assert!(TileError::StreamOrder {
            expected: 2,
            actual: 7
        }
        .to_string()
        .contains("tile 7"));
        assert!(TileError::BadOverlap {
            tile: 128,
            overlap: 3
        }
        .to_string()
        .contains("overlap 3"));
        assert!(TileError::AssemblyMismatch {
            expected: 9,
            actual: 4
        }
        .to_string()
        .contains('9'));
        assert_eq!(
            TileError::TileShape {
                tile: 5,
                expected: 128,
                actual: (64, 96)
            }
            .to_string(),
            "assembly received a 64x96 grid for tile 5 but the partition's tiles are 128x128"
        );
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<TileError>();
    }
}
