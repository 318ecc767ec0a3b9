//! The tile partition strategy of Fig. 2: overlapping tiles, disjoint core
//! sections, and the stitch lines where cores meet.

use ilt_grid::Rect;

use crate::color::multi_coloring;
use crate::error::TileError;

/// Parameters of the overlapping partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Tile edge length (the litho simulator input size).
    pub tile: usize,
    /// Total overlap `2l` between adjacent tiles; the stride between tile
    /// origins is `tile - overlap`.
    pub overlap: usize,
}

impl PartitionConfig {
    /// The paper's geometry: overlap of half a tile (2 x 512 at tile 2048;
    /// here expressed as a ratio so it holds at any tile size).
    pub fn paper_ratio(tile: usize) -> Self {
        PartitionConfig {
            tile,
            overlap: tile / 2,
        }
    }

    /// Stride between adjacent tile origins.
    pub fn stride(&self) -> usize {
        self.tile - self.overlap
    }

    /// Margin `l` between a tile edge and its core section.
    pub fn margin(&self) -> usize {
        self.overlap / 2
    }
}

/// One tile: its extent and its core section in layout coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Index into [`Partition::tiles`].
    pub index: usize,
    /// Position `(col, row)` in the tile lattice.
    pub grid_pos: (usize, usize),
    /// Tile extent (always `tile x tile`).
    pub rect: Rect,
    /// Core section: the part of the tile this tile alone contributes to a
    /// restricted assembly. Cores partition the layout.
    pub core: Rect,
}

/// Orientation of a stitch line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// A vertical line (constant `x`) between horizontally adjacent cores.
    Vertical,
    /// A horizontal line (constant `y`) between vertically adjacent cores.
    Horizontal,
}

/// A shared boundary between two adjacent core sections — the locus where
/// stitching discontinuities appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchLine {
    /// Line orientation.
    pub orientation: Orientation,
    /// The constant coordinate: `x` for vertical lines, `y` for horizontal.
    pub position: usize,
    /// Extent of the line along its axis (full layout span).
    pub start: usize,
    /// Exclusive end along the axis.
    pub end: usize,
}

/// An overlapping tile partition of a `width x height` layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    width: usize,
    height: usize,
    config: PartitionConfig,
    nx: usize,
    ny: usize,
    tiles: Vec<Tile>,
    /// The colour bands of [`multi_coloring`], in colour order.
    bands: Vec<Vec<usize>>,
    /// The bands concatenated: the one order every fold follows.
    order: Vec<usize>,
}

/// Tile origins along one axis: stride-spaced, with the last origin clamped
/// to `extent - tile` when the extent is not `tile + k * stride`. Origins
/// are strictly increasing, so adjacent tiles always overlap by at least
/// `overlap` (clamping only ever increases an overlap, never the stride).
fn axis_origins(extent: usize, tile: usize, stride: usize) -> Vec<usize> {
    if extent == tile {
        return vec![0];
    }
    let n = (extent - tile).div_ceil(stride) + 1;
    (0..n).map(|i| (i * stride).min(extent - tile)).collect()
}

/// Core cut positions along one axis: the midpoint `(a + b + tile) / 2`
/// between consecutive tile origins `a < b`, so the two cores meet exactly
/// (disjoint, covering) even when the last origin was clamped. For uniform
/// stride this reduces to `a + tile - overlap/2`, i.e. the classic
/// margin-`l` inset.
fn axis_cuts(origins: &[usize], tile: usize, extent: usize) -> Vec<(usize, usize)> {
    let mut bounds = Vec::with_capacity(origins.len());
    for (i, &a) in origins.iter().enumerate() {
        let lo = if i == 0 {
            0
        } else {
            (origins[i - 1] + a + tile) / 2
        };
        let hi = if i + 1 == origins.len() {
            extent
        } else {
            (a + origins[i + 1] + tile) / 2
        };
        bounds.push((lo, hi));
    }
    bounds
}

impl Partition {
    /// Builds the partition.
    ///
    /// Tile origins are stride-spaced; when a layout edge is not
    /// `tile + k * stride`, the last row/column is clamped flush with the
    /// layout boundary (all tiles stay full-size, which keeps every FFT
    /// power-of-two). Core boundaries are the midpoints between adjacent
    /// tile origins, so cores stay exactly disjoint and covering — clamped
    /// tiles never double-cover seam pixels.
    ///
    /// # Errors
    ///
    /// * [`TileError::BadOverlap`] unless `0 < overlap < tile` and `overlap`
    ///   is even;
    /// * [`TileError::LayoutTooSmall`] if the layout cannot hold one tile.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_tile::{Partition, PartitionConfig};
    ///
    /// // The paper's 3x3 geometry at 1/16 scale.
    /// let p = Partition::new(256, 256, PartitionConfig { tile: 128, overlap: 64 })?;
    /// assert_eq!(p.tiles().len(), 9);
    /// # Ok::<(), ilt_tile::TileError>(())
    /// ```
    pub fn new(width: usize, height: usize, config: PartitionConfig) -> Result<Self, TileError> {
        if config.overlap == 0 || !config.overlap.is_multiple_of(2) || config.overlap >= config.tile
        {
            return Err(TileError::BadOverlap {
                tile: config.tile,
                overlap: config.overlap,
            });
        }
        if width < config.tile || height < config.tile {
            return Err(TileError::LayoutTooSmall {
                layout: (width, height),
                tile: config.tile,
            });
        }
        let stride = config.stride();
        let xs = axis_origins(width, config.tile, stride);
        let ys = axis_origins(height, config.tile, stride);
        let x_cores = axis_cuts(&xs, config.tile, width);
        let y_cores = axis_cuts(&ys, config.tile, height);
        let nx = xs.len();
        let ny = ys.len();
        let mut tiles = Vec::with_capacity(nx * ny);
        for (row, (&y0, &(cy0, cy1))) in ys.iter().zip(&y_cores).enumerate() {
            for (col, (&x0, &(cx0, cx1))) in xs.iter().zip(&x_cores).enumerate() {
                let rect = Rect::from_origin_size(
                    x0 as i64,
                    y0 as i64,
                    config.tile as i64,
                    config.tile as i64,
                );
                let core = Rect::new(cx0 as i64, cy0 as i64, cx1 as i64, cy1 as i64);
                tiles.push(Tile {
                    index: row * nx + col,
                    grid_pos: (col, row),
                    rect,
                    core,
                });
            }
        }
        let mut partition = Partition {
            width,
            height,
            config,
            nx,
            ny,
            tiles,
            bands: Vec::new(),
            order: Vec::new(),
        };
        partition.bands = multi_coloring(&partition).groups();
        partition.order = partition.bands.concat();
        Ok(partition)
    }

    /// Layout width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Layout height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The configuration this partition was built with.
    #[inline]
    pub fn config(&self) -> PartitionConfig {
        self.config
    }

    /// Tiles per row.
    #[inline]
    pub fn tiles_x(&self) -> usize {
        self.nx
    }

    /// Tiles per column.
    #[inline]
    pub fn tiles_y(&self) -> usize {
        self.ny
    }

    /// All tiles in row-major order.
    #[inline]
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// One tile by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn tile(&self, index: usize) -> &Tile {
        &self.tiles[index]
    }

    /// The colour bands of [`multi_coloring`], colours in order and tiles
    /// ascending within each: no two tiles of a band overlap, so a band
    /// solves in parallel. Computed once, when the partition is built.
    #[inline]
    pub fn bands(&self) -> &[Vec<usize>] {
        &self.bands
    }

    /// Every tile in fold order: the [`bands`](Self::bands) concatenated.
    /// Assemblies fold in this one order, so their floating-point sums do
    /// not depend on how the tiles were scheduled.
    #[inline]
    pub fn fold_order(&self) -> &[usize] {
        &self.order
    }

    /// Indices of tiles whose extents overlap tile `index` (the neighbour
    /// set `N_j` of Eq. (11)).
    pub fn neighbors(&self, index: usize) -> Vec<usize> {
        let me = &self.tiles[index];
        self.tiles
            .iter()
            .filter(|t| t.index != index && t.rect.overlaps(me.rect))
            .map(|t| t.index)
            .collect()
    }

    /// The stitch lines: all interior core boundaries, read off the actual
    /// core rects so they stay correct for clamped (non-divisible) layouts.
    pub fn stitch_lines(&self) -> Vec<StitchLine> {
        let mut lines = Vec::new();
        for col in 1..self.nx {
            lines.push(StitchLine {
                orientation: Orientation::Vertical,
                position: self.tiles[col - 1].core.x1 as usize,
                start: 0,
                end: self.height,
            });
        }
        for row in 1..self.ny {
            lines.push(StitchLine {
                orientation: Orientation::Horizontal,
                position: self.tiles[(row - 1) * self.nx].core.y1 as usize,
                start: 0,
                end: self.width,
            });
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_partition() -> Partition {
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
    fn paper_geometry_is_three_by_three() {
        let p = paper_partition();
        assert_eq!(p.tiles_x(), 3);
        assert_eq!(p.tiles_y(), 3);
        assert_eq!(p.tiles().len(), 9);
        assert_eq!(p.width(), 256);
        assert_eq!(p.config().margin(), 32);
    }

    #[test]
    fn tiles_are_full_size_and_cover_layout() {
        let p = paper_partition();
        let mut covered = vec![false; 256 * 256];
        for t in p.tiles() {
            assert_eq!(t.rect.width(), 128);
            assert_eq!(t.rect.height(), 128);
            for (x, y) in t.rect.pixels() {
                covered[y as usize * 256 + x as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn cores_partition_layout_exactly() {
        let p = paper_partition();
        let mut count = vec![0u8; 256 * 256];
        for t in p.tiles() {
            assert!(t.rect.contains_rect(t.core), "core escapes tile");
            for (x, y) in t.core.pixels() {
                count[y as usize * 256 + x as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1), "cores must tile the layout");
    }

    #[test]
    fn interior_core_margins() {
        let p = paper_partition();
        // Center tile: core inset by l = 32 on all sides.
        let center = p.tile(4);
        assert_eq!(center.rect, Rect::new(64, 64, 192, 192));
        assert_eq!(center.core, Rect::new(96, 96, 160, 160));
        // Corner tile: core flush with the layout corner.
        let corner = p.tile(0);
        assert_eq!(corner.core, Rect::new(0, 0, 96, 96));
    }

    #[test]
    fn neighbor_sets() {
        let p = paper_partition();
        // Center tile overlaps all 8 others.
        assert_eq!(p.neighbors(4).len(), 8);
        // Corner tile overlaps right, below, and diagonal.
        let mut n = p.neighbors(0);
        n.sort_unstable();
        assert_eq!(n, vec![1, 3, 4]);
    }

    #[test]
    fn stitch_lines_sit_on_core_boundaries() {
        let p = paper_partition();
        let lines = p.stitch_lines();
        assert_eq!(lines.len(), 4);
        let verticals: Vec<usize> = lines
            .iter()
            .filter(|l| l.orientation == Orientation::Vertical)
            .map(|l| l.position)
            .collect();
        assert_eq!(verticals, vec![96, 160]);
        // Lines span the full layout.
        assert!(lines.iter().all(|l| l.start == 0 && l.end == 256));
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(matches!(
            Partition::new(
                256,
                256,
                PartitionConfig {
                    tile: 128,
                    overlap: 0
                }
            ),
            Err(TileError::BadOverlap { .. })
        ));
        assert!(matches!(
            Partition::new(
                256,
                256,
                PartitionConfig {
                    tile: 128,
                    overlap: 63
                }
            ),
            Err(TileError::BadOverlap { .. })
        ));
        assert!(matches!(
            Partition::new(
                100,
                256,
                PartitionConfig {
                    tile: 128,
                    overlap: 64
                }
            ),
            Err(TileError::LayoutTooSmall { .. })
        ));
    }

    #[test]
    fn non_divisible_layout_clamps_last_column() {
        // 300 is not 128 + k*64: the fourth column clamps to origin 172.
        let p = Partition::new(
            300,
            256,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles_x(), 4);
        assert_eq!(p.tiles_y(), 3);
        let origins: Vec<i64> = (0..4).map(|c| p.tile(c).rect.x0).collect();
        assert_eq!(origins, vec![0, 64, 128, 172]);
        // Every tile stays full-size.
        assert!(p
            .tiles()
            .iter()
            .all(|t| t.rect.width() == 128 && t.rect.height() == 128));
        // Cores stay exactly disjoint and covering despite the clamp: the
        // cut between the clamped pair sits at the midpoint of their union.
        let cuts: Vec<i64> = (0..3).map(|c| p.tile(c).core.x1).collect();
        assert_eq!(cuts, vec![96, 160, 214]);
        let mut count = vec![0u8; 300 * 256];
        for t in p.tiles() {
            assert!(t.rect.contains_rect(t.core), "core escapes tile");
            for (x, y) in t.core.pixels() {
                count[y as usize * 300 + x as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1), "cores must tile the layout");
        // Stitch lines follow the actual core boundaries.
        let verticals: Vec<usize> = p
            .stitch_lines()
            .iter()
            .filter(|l| l.orientation == Orientation::Vertical)
            .map(|l| l.position)
            .collect();
        assert_eq!(verticals, vec![96, 160, 214]);
    }

    #[test]
    fn clamped_neighbors_stay_symmetric_and_adjacent() {
        // 184 = 128 + 56 < 128 + stride: two columns, the second clamped to
        // origin 56, so their overlap grows from 64 to 72 pixels.
        let p = Partition::new(
            184,
            184,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles_x(), 2);
        assert_eq!(p.tiles_y(), 2);
        for t in p.tiles() {
            let n = p.neighbors(t.index);
            assert_eq!(n.len(), 3, "2x2 grid: everyone touches everyone");
            for &j in &n {
                assert!(p.neighbors(j).contains(&t.index), "symmetry");
            }
        }
        // Core cut at the union midpoint (0 + 56 + 128) / 2 = 92.
        assert_eq!(p.tile(0).core, Rect::new(0, 0, 92, 92));
        assert_eq!(p.tile(3).core, Rect::new(92, 92, 184, 184));
    }

    #[test]
    fn single_tile_partition() {
        let p = Partition::new(
            128,
            128,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles().len(), 1);
        assert_eq!(p.tile(0).core, Rect::new(0, 0, 128, 128));
        assert!(p.stitch_lines().is_empty());
        assert!(p.neighbors(0).is_empty());
    }

    #[test]
    fn paper_ratio_helper() {
        let cfg = PartitionConfig::paper_ratio(2048);
        assert_eq!(cfg.overlap, 1024);
        assert_eq!(cfg.stride(), 1024);
        assert_eq!(cfg.margin(), 512);
    }

    #[test]
    fn rectangular_layouts_work() {
        let p = Partition::new(
            256,
            192,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles_x(), 3);
        assert_eq!(p.tiles_y(), 2);
        let mut count = vec![0u8; 256 * 192];
        for t in p.tiles() {
            for (x, y) in t.core.pixels() {
                count[y as usize * 256 + x as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }
}
