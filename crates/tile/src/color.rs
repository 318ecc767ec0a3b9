//! Multi-colouring of the tile lattice for the multiplicative Schwarz
//! refine pass (Section 3.4 of the paper): tiles of the same colour never
//! overlap, so they can be optimised in parallel while tiles of other
//! colours stay fixed.

use crate::partition::Partition;

/// A colour assignment over the tiles of a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<usize>,
    count: usize,
}

impl Coloring {
    /// Colour of tile `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn color(&self, index: usize) -> usize {
        self.colors[index]
    }

    /// Number of distinct colours.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// All tile indices of one colour.
    pub fn tiles_of(&self, color: usize) -> Vec<usize> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == color)
            .map(|(i, _)| i)
            .collect()
    }

    /// Colours in processing order, each with its tile set.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        (0..self.count).map(|c| self.tiles_of(c)).collect()
    }
}

/// Per-axis colour modulus: the smallest `m` such that tiles `m` lattice
/// steps apart along the axis never overlap, read off the actual tile
/// origins. For uniform stride-spaced origins this is 2 (overlap < twice
/// the stride), but a clamped last column can reach back over an extra
/// step, requiring 3 along that axis.
fn axis_modulus(origins: &[usize], tile: usize) -> usize {
    let mut m = 1;
    for (i, &a) in origins.iter().enumerate() {
        let reach = origins[i + 1..]
            .iter()
            .take_while(|&&b| b < a + tile)
            .count();
        m = m.max(reach + 1);
    }
    m
}

/// Builds the block colouring with per-axis moduli derived from the actual
/// tile origins: for uniform lattices this is the classic 2x2 colouring
/// (four colours, fewer on thin lattices); clamped last rows/columns widen
/// the modulus along their axis so same-colour tiles still never overlap.
pub fn multi_coloring(partition: &Partition) -> Coloring {
    let nx = partition.tiles_x();
    let ny = partition.tiles_y();
    let tile = partition.config().tile;
    let xs: Vec<usize> = (0..nx)
        .map(|c| partition.tile(c).rect.x0 as usize)
        .collect();
    let ys: Vec<usize> = (0..ny)
        .map(|r| partition.tile(r * nx).rect.y0 as usize)
        .collect();
    let cx = axis_modulus(&xs, tile);
    let cy = axis_modulus(&ys, tile);
    let colors: Vec<usize> = partition
        .tiles()
        .iter()
        .map(|t| {
            let (col, row) = t.grid_pos;
            (row % cy) * cx + (col % cx)
        })
        .collect();
    let count = cx * cy;
    Coloring { colors, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{Partition, PartitionConfig};

    fn partition() -> Partition {
        Partition::new(
            256,
            256,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap()
    }

    #[test]
    fn four_colors_for_a_grid() {
        let c = multi_coloring(&partition());
        assert_eq!(c.count(), 4);
        // 3x3 lattice: colour 0 appears at (0,0), (2,0), (0,2), (2,2).
        assert_eq!(c.tiles_of(0), vec![0, 2, 6, 8]);
    }

    #[test]
    fn same_color_tiles_never_overlap() {
        let p = partition();
        let c = multi_coloring(&p);
        for group in c.groups() {
            for (a_pos, &a) in group.iter().enumerate() {
                for &b in group.iter().skip(a_pos + 1) {
                    assert!(
                        !p.tile(a).rect.overlaps(p.tile(b).rect),
                        "tiles {a} and {b} share colour and overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn partitions_keep_their_colour_bands() {
        let p = partition();
        assert_eq!(p.bands(), &multi_coloring(&p).groups()[..]);
        assert_eq!(p.fold_order(), &[0, 2, 6, 8, 1, 7, 3, 5, 4]);
    }

    #[test]
    fn groups_cover_all_tiles_once() {
        let p = partition();
        let c = multi_coloring(&p);
        let mut seen = vec![false; p.tiles().len()];
        for group in c.groups() {
            for idx in group {
                assert!(!seen[idx], "tile {idx} coloured twice");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn clamped_lattices_widen_the_modulus() {
        // 300 = 128 + 2*64 + 44: the clamped fourth column (origin 172)
        // still overlaps the second (origin 64), so the x-axis needs three
        // colours for same-colour tiles to stay disjoint.
        let p = Partition::new(
            300,
            128,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles_x(), 4);
        let c = multi_coloring(&p);
        assert_eq!(c.count(), 3);
        assert_eq!(c.tiles_of(0), vec![0, 3]);
        for group in c.groups() {
            for (a_pos, &a) in group.iter().enumerate() {
                for &b in group.iter().skip(a_pos + 1) {
                    assert!(!p.tile(a).rect.overlaps(p.tile(b).rect));
                }
            }
        }
    }

    #[test]
    fn thin_lattices_use_fewer_colors() {
        let p = Partition::new(
            256,
            128,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles_y(), 1);
        let c = multi_coloring(&p);
        assert_eq!(c.count(), 2);
        let p = Partition::new(
            128,
            128,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        let c = multi_coloring(&p);
        assert_eq!(c.count(), 1);
    }
}
