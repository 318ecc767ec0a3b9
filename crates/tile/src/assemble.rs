//! Restriction and interpolation operators: Eq. (6) (restricted additive
//! Schwarz assembly) and Eq. (12)–(14) (weighted-smoothing assembly).
//!
//! # Separable weights
//!
//! Tiles sit on a tensor-product lattice: tile `(c, r)` has its x origin
//! and core x-range from column `c` alone and its y origin and core
//! y-range from row `r` alone. Every interpolation weight here is a product
//! of one function of `x` and one of `y` — the core (or extended-core)
//! indicator is a product of two interval indicators, and Eq. (13)'s blend
//! is a product of two 1-D ramps — so tile `(c, r)`'s raw weight at `(x, y)`
//! is `wx_c(x) · wy_r(y)`. The partition-of-unity denominator, the sum of
//! all covering tiles' raw weights, then factorises too:
//!
//! ```text
//! Σ_{c,r} wx_c(x) · wy_r(y) = (Σ_c wx_c(x)) · (Σ_r wy_r(y))
//! ```
//!
//! because the set of tiles covering `(x, y)` is {columns covering `x`} ×
//! {rows covering `y`}. This is exact algebra on any lattice `Partition`
//! builds, clamped last rows/columns included; only the rounding differs
//! from dividing the 2-D product by the 2-D sum (≤ 1e-12, checked against
//! [`normalized_weight_map`] by this module's tests).
//!
//! [`TileWeights`] therefore holds one normalised 1-D vector per tile
//! column and per tile row — `O((nx + ny) · tile)` numbers for the whole
//! partition — plus each vector's non-zero span, and both consumers
//! ([`StreamingAssembler::push`] and the in-place updates
//! [`TileWeights::update`] / [`TileWeights::update_stage`]) are row-slice
//! loops over that span: `out[x] += (wy · wx[x]) · data[x]`. The 2-D maps
//! [`weight_map`] / [`normalized_weight_map`] remain as the reference the
//! tests compare against; no production path calls them.
//!
//! # Partition of unity
//!
//! The same factorisation makes the pixel sum of an additive mode's 2-D
//! weights the product of its two axis sums, so [`TileWeights::new`]
//! checks each axis once — exactly 1 under [`AssemblyMode::Restricted`],
//! within 1e-12 under [`AssemblyMode::Weighted`] — in `O(width + height)`,
//! and panics otherwise. No assembly then needs a pixel-sum pass of its
//! own: every [`StreamingAssembler`] builds its weights there.

use std::ops::Range;

use ilt_grid::RealGrid;

use crate::error::TileError;
use crate::executor::TileExecutor;
use crate::partition::{Partition, Tile};

/// How tile results are interpolated back into the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyMode {
    /// The RAS interpolation `R~_j^T` of Eq. (6): each tile contributes
    /// exactly its core section (hard cut at core boundaries).
    Restricted,
    /// The weighted interpolation `R'_j^T` of Eq. (14): a linear ramp of
    /// width `band` (the buffer `D` of Eq. (13) / Fig. 5) centered on each
    /// core boundary blends adjacent tiles; outside the band each pixel is
    /// taken verbatim from the tile whose core owns it. The per-tile
    /// weights form an exact partition of unity.
    Weighted {
        /// Ramp width `D` in pixels (clamped to the overlap).
        band: usize,
    },
    /// The multiplicative-Schwarz replacement operator: the indicator of
    /// the tile's **extended core** (core grown by `margin` into the
    /// overlap, clipped to the tile). Not a partition of unity — intended
    /// for sequential (multi-colour) updates where later tiles overwrite
    /// earlier ones so every boundary band ends up authored by exactly one
    /// tile.
    ExtendedCore {
        /// How far beyond the core the replacement reaches, in pixels.
        margin: usize,
    },
}

impl AssemblyMode {
    /// The weighted mode with the default buffer: a quarter of the overlap
    /// (`D = l / 2` at the paper's geometry).
    pub fn weighted_default(partition: &Partition) -> AssemblyMode {
        AssemblyMode::Weighted {
            band: (partition.config().overlap / 4).max(2),
        }
    }
}

/// The restriction operator `R_j`: crops the tile's extent out of the
/// layout.
///
/// # Panics
///
/// Panics if the tile rectangle is not fully inside the layout (cannot
/// happen for rectangles produced by [`Partition::new`]).
pub fn restrict(layout: &RealGrid, tile: &Tile) -> RealGrid {
    assert!(
        layout.bounds().contains_rect(tile.rect),
        "tile escapes layout"
    );
    layout.crop(tile.rect)
}

/// The per-tile interpolation weights as a tile-sized grid.
///
/// For [`AssemblyMode::Restricted`] this is the indicator of the core; for
/// [`AssemblyMode::Weighted`] it is the product of two 1-D ramps of width
/// `band`, each centered on a core boundary (Eq. (13): weight 1 deeper than
/// `D` into the own-core side, linear in between) and constant 1 on
/// boundary-free sides.
pub fn weight_map(partition: &Partition, tile_index: usize, mode: AssemblyMode) -> RealGrid {
    let tile = *partition.tile(tile_index);
    let t = partition.config().tile;
    match mode {
        AssemblyMode::Restricted => RealGrid::from_fn(t, t, |x, y| {
            let gx = tile.rect.x0 + x as i64;
            let gy = tile.rect.y0 + y as i64;
            if tile.core.contains(gx, gy) {
                1.0
            } else {
                0.0
            }
        }),
        AssemblyMode::ExtendedCore { margin } => {
            let extended = tile
                .core
                .outset(margin as i64)
                .intersect(tile.rect)
                .expect("extended core intersects its tile");
            RealGrid::from_fn(t, t, |x, y| {
                let gx = tile.rect.x0 + x as i64;
                let gy = tile.rect.y0 + y as i64;
                if extended.contains(gx, gy) {
                    1.0
                } else {
                    0.0
                }
            })
        }
        AssemblyMode::Weighted { band } => {
            let d = (band.max(1).min(partition.config().overlap)) as f64;
            let (col, row) = tile.grid_pos;
            let nx = partition.tiles_x();
            let ny = partition.tiles_y();
            // Signed distance of a pixel center from a core boundary; the
            // ramp runs from 0 at `-d/2` (outside own core) to 1 at `+d/2`.
            let ramp = |g: f64, boundary: f64, own_side_positive: bool| -> f64 {
                let dist = if own_side_positive {
                    g - boundary
                } else {
                    boundary - g
                };
                (0.5 + dist / d).clamp(0.0, 1.0)
            };
            // Per-axis weights combine that axis's two ramps with `min`
            // (both are never mid-ramp at once since the band fits in the
            // core); axes multiply so the corner regions, where four tiles
            // meet, still sum to exactly 1.
            RealGrid::from_fn(t, t, |x, y| {
                let gx = (tile.rect.x0 + x as i64) as f64 + 0.5;
                let gy = (tile.rect.y0 + y as i64) as f64 + 0.5;
                let mut wx = 1.0f64;
                if col > 0 {
                    wx = wx.min(ramp(gx, tile.core.x0 as f64, true));
                }
                if col < nx - 1 {
                    wx = wx.min(ramp(gx, tile.core.x1 as f64, false));
                }
                let mut wy = 1.0f64;
                if row > 0 {
                    wy = wy.min(ramp(gy, tile.core.y0 as f64, true));
                }
                if row < ny - 1 {
                    wy = wy.min(ramp(gy, tile.core.y1 as f64, false));
                }
                wx * wy
            })
        }
    }
}

/// The per-tile interpolation weights renormalized to an exact partition
/// of unity.
///
/// [`weight_map`]'s ramps already sum to 1 wherever exactly the two tiles
/// adjacent across a cut share a ramp zone — the uniform-lattice interior.
/// At clamped last rows/columns of a non-divisible M×N grid (and for wide
/// bands on narrow clamped cores) more than two tiles can be mid-ramp at a
/// pixel, so this divides each raw weight by the pixelwise sum of all
/// covering tiles' raw weights. The denominator is accumulated in ascending
/// tile-index order so every tile sharing a pixel computes a bitwise
/// identical sum. [`AssemblyMode::Restricted`] is already exact (disjoint
/// cores) and [`AssemblyMode::ExtendedCore`] is intentionally not a
/// partition of unity; both return the raw map unchanged.
pub fn normalized_weight_map(
    partition: &Partition,
    tile_index: usize,
    mode: AssemblyMode,
) -> RealGrid {
    let raw = weight_map(partition, tile_index, mode);
    if !matches!(mode, AssemblyMode::Weighted { .. }) {
        return raw;
    }
    let tile = *partition.tile(tile_index);
    let t = partition.config().tile;
    let mut contributors = partition.neighbors(tile_index);
    contributors.push(tile_index);
    contributors.sort_unstable();
    let mut denom = RealGrid::new(t, t, 0.0);
    for j in contributors {
        let other = *partition.tile(j);
        let w = if j == tile_index {
            raw.clone()
        } else {
            weight_map(partition, j, mode)
        };
        let Some(shared) = tile.rect.intersect(other.rect) else {
            continue;
        };
        for (gx, gy) in shared.pixels() {
            let (x, y) = ((gx - tile.rect.x0) as usize, (gy - tile.rect.y0) as usize);
            let (ox, oy) = ((gx - other.rect.x0) as usize, (gy - other.rect.y0) as usize);
            let v = denom.get(x, y) + w.get(ox, oy);
            denom.set(x, y, v);
        }
    }
    RealGrid::from_fn(t, t, |x, y| {
        let d = denom.get(x, y);
        if d > 0.0 {
            raw.get(x, y) / d
        } else {
            0.0
        }
    })
}

/// One tile column's (or row's) normalised 1-D weights.
#[derive(Debug, Clone)]
struct AxisWeights {
    /// Tile origin along the axis, in layout pixels.
    origin: usize,
    /// Weight per tile-local offset (`tile` entries).
    weights: Vec<f64>,
    /// Tile-local range outside which every weight is exactly 0.
    span: Range<usize>,
}

/// The normalised 1-D weights of every tile along one axis. `lattice[i]` is
/// tile `i`'s `(origin, core)` on that axis; the raw per-axis expressions
/// are [`weight_map`]'s.
fn axis_weights(
    lattice: &[(usize, Range<usize>)],
    tile: usize,
    extent: usize,
    overlap: usize,
    mode: AssemblyMode,
) -> Vec<AxisWeights> {
    let last = lattice.len() - 1;
    let raw = |i: usize, g: usize| -> f64 {
        let (origin, core) = &lattice[i];
        match mode {
            AssemblyMode::Restricted => f64::from(core.contains(&g)),
            AssemblyMode::ExtendedCore { margin } => {
                let lo = core.start.saturating_sub(margin).max(*origin);
                let hi = (core.end + margin).min(origin + tile);
                f64::from((lo..hi).contains(&g))
            }
            AssemblyMode::Weighted { band } => {
                let d = band.max(1).min(overlap) as f64;
                let g = g as f64 + 0.5;
                let mut w = 1.0f64;
                if i > 0 {
                    w = w.min((0.5 + (g - core.start as f64) / d).clamp(0.0, 1.0));
                }
                if i < last {
                    w = w.min((0.5 + (core.end as f64 - g) / d).clamp(0.0, 1.0));
                }
                w
            }
        }
    };
    let mut weights: Vec<Vec<f64>> = lattice
        .iter()
        .enumerate()
        .map(|(i, (origin, _))| (0..tile).map(|o| raw(i, origin + o)).collect())
        .collect();
    // Only the blend needs renormalising (see `normalized_weight_map`):
    // per axis, divide by the sum over the tiles covering each pixel,
    // accumulated in ascending tile order.
    if matches!(mode, AssemblyMode::Weighted { .. }) {
        let mut total = vec![0.0f64; extent];
        for (w, (origin, _)) in weights.iter().zip(lattice) {
            for (sum, &v) in total[*origin..origin + tile].iter_mut().zip(w) {
                *sum += v;
            }
        }
        for (w, (origin, _)) in weights.iter_mut().zip(lattice) {
            for (v, &sum) in w.iter_mut().zip(&total[*origin..origin + tile]) {
                *v = if sum > 0.0 { *v / sum } else { 0.0 };
            }
        }
    }
    weights
        .into_iter()
        .zip(lattice)
        .map(|(weights, (origin, _))| {
            let start = weights.iter().position(|&v| v != 0.0).unwrap_or(0);
            let end = weights.iter().rposition(|&v| v != 0.0).map_or(0, |e| e + 1);
            AxisWeights {
                origin: *origin,
                weights,
                span: start..end,
            }
        })
        .collect()
}

/// One layout row of a tile's non-zero weight support.
struct SpanRow<'w> {
    /// Offset of the row's first supported pixel in the layout's slice.
    layout_start: usize,
    /// Offset of the same pixel in the tile's slice.
    tile_start: usize,
    /// The row's weight along y.
    wy: f64,
    /// The weights along x over the support; the 2-D weight is `wy * wx[k]`.
    wx: &'w [f64],
}

/// The separable interpolation weights of one partition under one
/// [`AssemblyMode`]: a normalised 1-D vector per tile column and per tile
/// row (see the module docs for why the product is the normalised 2-D
/// weight of [`normalized_weight_map`]), derived from the partition and
/// mode alone.
///
/// Besides feeding [`StreamingAssembler`], the weights apply the partial
/// in-place updates of the multiplicative refine ([`update`](Self::update))
/// and of the incremental fine stages
/// ([`update_stage`](Self::update_stage)), which touch only the updated
/// tiles' weight supports.
///
/// # Panics
///
/// [`new`](Self::new) panics if an additive mode's weights are not a
/// partition of unity along some axis (see the module docs) — a bug in the
/// weights, not a caller error.
#[derive(Debug, Clone)]
pub struct TileWeights {
    tile: usize,
    width: usize,
    height: usize,
    cols: Vec<AxisWeights>,
    rows: Vec<AxisWeights>,
    /// Each tile's position in the partition's fold order.
    fold_rank: Vec<usize>,
}

impl TileWeights {
    /// Builds the weights of every tile of `partition` under `mode`.
    pub fn new(partition: &Partition, mode: AssemblyMode) -> Self {
        let config = partition.config();
        let nx = partition.tiles_x();
        let columns: Vec<_> = (0..nx)
            .map(|c| {
                let t = partition.tile(c);
                (t.rect.x0 as usize, t.core.x0 as usize..t.core.x1 as usize)
            })
            .collect();
        let rows: Vec<_> = (0..partition.tiles_y())
            .map(|r| {
                let t = partition.tile(r * nx);
                (t.rect.y0 as usize, t.core.y0 as usize..t.core.y1 as usize)
            })
            .collect();
        let axis = |lattice: &[_], extent| {
            axis_weights(lattice, config.tile, extent, config.overlap, mode)
        };
        let mut weights = TileWeights {
            tile: config.tile,
            width: partition.width(),
            height: partition.height(),
            cols: axis(&columns, partition.width()),
            rows: axis(&rows, partition.height()),
            fold_rank: vec![0; partition.tiles().len()],
        };
        for (rank, &i) in partition.fold_order().iter().enumerate() {
            weights.fold_rank[i] = rank;
        }
        weights.check_partition_of_unity(mode);
        weights
    }

    /// Asserts that, under an additive `mode`, the weights of every layout
    /// column and row sum to 1 over the tiles covering it: exactly for
    /// [`AssemblyMode::Restricted`] (disjoint cores), to 1e-12 for
    /// [`AssemblyMode::Weighted`]. [`AssemblyMode::ExtendedCore`] is not a
    /// partition of unity and is not checked.
    fn check_partition_of_unity(&self, mode: AssemblyMode) {
        let tolerance = match mode {
            AssemblyMode::Restricted => 0.0,
            AssemblyMode::Weighted { .. } => 1e-12,
            AssemblyMode::ExtendedCore { .. } => return,
        };
        for (name, axis, extent) in [
            ("column", &self.cols, self.width),
            ("row", &self.rows, self.height),
        ] {
            let mut total = vec![0.0f64; extent];
            for a in axis {
                for (sum, &w) in total[a.origin..].iter_mut().zip(&a.weights) {
                    *sum += w;
                }
            }
            for (g, &sum) in total.iter().enumerate() {
                assert!(
                    (sum - 1.0).abs() <= tolerance,
                    "partition of unity violated at layout {name} {g}: total weight {sum}"
                );
            }
        }
    }

    /// The rows of tile `index`'s non-zero weight support, top to bottom.
    fn span_rows(&self, index: usize) -> impl Iterator<Item = SpanRow<'_>> {
        self.span_rows_within(index, 0..self.height)
    }

    /// The rows of tile `index`'s non-zero weight support that fall in the
    /// layout rows `rows`, top to bottom, with `layout_start` counted from
    /// the first pixel of row `rows.start`.
    fn span_rows_within(
        &self,
        index: usize,
        rows: Range<usize>,
    ) -> impl Iterator<Item = SpanRow<'_>> {
        let col = &self.cols[index % self.cols.len()];
        let row = &self.rows[index / self.cols.len()];
        let wx = &col.weights[col.span.clone()];
        let first = row.span.start.max(rows.start.saturating_sub(row.origin));
        let last = row.span.end.min(rows.end.saturating_sub(row.origin));
        (first..last).map(move |y| SpanRow {
            layout_start: (row.origin + y - rows.start) * self.width + col.origin + col.span.start,
            tile_start: y * self.tile + col.span.start,
            wy: row.weights[y],
            wx,
        })
    }

    /// Folds tile `index`'s weighted `data` into the layout rows `rows`,
    /// whose pixels `out` holds.
    fn fold_rows(&self, index: usize, data: &RealGrid, rows: Range<usize>, out: &mut [f64]) {
        let data = data.as_slice();
        for row in self.span_rows_within(index, rows) {
            let n = row.wx.len();
            let out = &mut out[row.layout_start..][..n];
            let data = &data[row.tile_start..][..n];
            for ((o, &v), &wx) in out.iter_mut().zip(data).zip(row.wx) {
                *o += (row.wy * wx) * v;
            }
        }
    }

    fn check_tile_shape(&self, index: usize, data: &RealGrid) -> Result<(), TileError> {
        if data.width() != self.tile || data.height() != self.tile {
            return Err(TileError::TileShape {
                tile: index,
                expected: self.tile,
                actual: (data.width(), data.height()),
            });
        }
        Ok(())
    }

    fn check_layout(&self, layout: &RealGrid) {
        assert!(
            layout.width() == self.width && layout.height() == self.height,
            "layout is {}x{} but the partition covers {}x{}",
            layout.width(),
            layout.height(),
            self.width,
            self.height
        );
    }

    /// Multiplicative partial update: replaces tile `index`'s weighted
    /// contribution in `layout` with `new_mask`, leaving every other tile's
    /// contribution untouched: `M <- M + W_j (M_j_new - R_j M)`, reading the
    /// live layout, so sequential updates see each other.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::TileShape`] if `new_mask` is not tile-sized.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not the partition's size.
    pub fn update(
        &self,
        layout: &mut RealGrid,
        index: usize,
        new_mask: &RealGrid,
    ) -> Result<(), TileError> {
        self.check_layout(layout);
        self.check_tile_shape(index, new_mask)?;
        let (out, new) = (layout.as_mut_slice(), new_mask.as_slice());
        for row in self.span_rows(index) {
            let n = row.wx.len();
            let out = &mut out[row.layout_start..][..n];
            let new = &new[row.tile_start..][..n];
            for ((m, &v), &wx) in out.iter_mut().zip(new).zip(row.wx) {
                *m += (row.wy * wx) * (v - *m);
            }
        }
        Ok(())
    }

    /// Additive in-place stage update: every `(tile, new mask)` pair in
    /// `updates` replaces that tile's contribution **relative to `layout` as
    /// it is on entry**, `M <- M + sum_j W_j (M_j_new - R_j M_entry)`,
    /// applied in the partition's fold order whatever order they come in,
    /// so the sums do not depend on how the tiles were scheduled. With normalised weights this equals a
    /// full assembly pass fed the new masks plus every other tile's crop of
    /// the entry layout (to rounding), at `O(updates · tile²)` cost: pixels
    /// outside the updated tiles' weight supports are not touched, and a
    /// tile fed its own crop back is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::TileShape`] if a mask is not tile-sized; the
    /// layout is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not the partition's size.
    pub fn update_stage(
        &self,
        layout: &mut RealGrid,
        mut updates: Vec<(usize, RealGrid)>,
    ) -> Result<(), TileError> {
        self.check_layout(layout);
        for (index, mask) in &updates {
            self.check_tile_shape(*index, mask)?;
        }
        updates.sort_by_key(|&(index, _)| self.fold_rank[index]);
        // Overlapping updates must all difference against the entry layout,
        // so turn every mask into its delta before the first write.
        for (index, mask) in &mut updates {
            let (entry, delta) = (layout.as_slice(), mask.as_mut_slice());
            for row in self.span_rows(*index) {
                let n = row.wx.len();
                let entry = &entry[row.layout_start..][..n];
                for (d, &m) in delta[row.tile_start..][..n].iter_mut().zip(entry) {
                    *d -= m;
                }
            }
        }
        let out = layout.as_mut_slice();
        for (index, delta) in &updates {
            let delta = delta.as_slice();
            for row in self.span_rows(*index) {
                let n = row.wx.len();
                let out = &mut out[row.layout_start..][..n];
                let delta = &delta[row.tile_start..][..n];
                for ((m, &d), &wx) in out.iter_mut().zip(delta).zip(row.wx) {
                    *m += (row.wy * wx) * d;
                }
            }
        }
        Ok(())
    }
}

/// Incremental (bounded-memory) assembly: tiles are folded into the output
/// a band at a time, in the canonical colour-band order, so a producer that
/// solves tiles colour by colour only ever keeps one colour band of fine
/// tiles resident instead of all `T`.
///
/// f64 addition is not associative, so streamed and batch assembly are only
/// bit-identical if both fold in one fixed order; the assembler therefore
/// enforces its [`canonical_order`](Self::canonical_order) on `push`, and
/// the batch [`assemble`] delegates here pushing in the same order.
///
/// Every fold ([`push_band`](Self::push_band)) splits the layout into
/// disjoint row ranges, one per worker of the executor it runs
/// [`on`](Self::on) (one range, on the calling thread, by default). A
/// worker folds every tile of the band, in order, into its own rows only,
/// so each pixel receives the same additions in the same order whatever the
/// worker count: the layout is bit-identical at any.
///
/// The partition of unity is checked where the weights are built
/// ([`TileWeights::new`], once per weight set), so the assembler holds no
/// accumulator besides the layout itself.
#[derive(Debug, Clone)]
pub struct StreamingAssembler<'a> {
    partition: &'a Partition,
    weights: TileWeights,
    cursor: usize,
    out: RealGrid,
    executor: TileExecutor,
}

impl<'a> StreamingAssembler<'a> {
    /// Creates an assembler for one full pass over `partition`'s tiles.
    ///
    /// # Panics
    ///
    /// Panics on [`AssemblyMode::ExtendedCore`], which is not a partition
    /// of unity and only meaningful for sequential in-place replacement,
    /// and if the weights are not a partition of unity
    /// ([`TileWeights::new`]).
    pub fn new(partition: &'a Partition, mode: AssemblyMode) -> Self {
        assert!(
            !matches!(mode, AssemblyMode::ExtendedCore { .. }),
            "extended-core replacement is sequential, not an additive assembly"
        );
        StreamingAssembler {
            partition,
            weights: TileWeights::new(partition, mode),
            cursor: 0,
            out: RealGrid::new(partition.width(), partition.height(), 0.0),
            executor: TileExecutor::sequential(),
        }
    }

    /// Splits every later fold over `executor`'s workers, one range of
    /// layout rows each.
    pub fn on(mut self, executor: &TileExecutor) -> Self {
        self.executor = *executor;
        self
    }

    /// The fold order `push` enforces: the partition's
    /// [`fold_order`](Partition::fold_order).
    #[inline]
    pub fn canonical_order(&self) -> &[usize] {
        self.partition.fold_order()
    }

    /// Number of tiles folded so far.
    #[inline]
    pub fn pushed(&self) -> usize {
        self.cursor
    }

    /// Folds one tile's contribution into the output. `data` can be dropped
    /// immediately afterwards — nothing per-tile is retained.
    ///
    /// # Errors
    ///
    /// As [`push_band`](Self::push_band).
    pub fn push(&mut self, tile_index: usize, data: &RealGrid) -> Result<(), TileError> {
        self.push_band(&[(tile_index, data)])
    }

    /// Folds `band`'s `(tile index, data)` pairs, in the order given, in one
    /// call split by rows over the workers. The whole band is checked
    /// before the first write, so on error nothing of it is folded.
    ///
    /// # Errors
    ///
    /// * [`TileError::StreamOrder`] if a tile is not the next one in
    ///   [`canonical_order`](Self::canonical_order);
    /// * [`TileError::TileShape`] if a grid is not tile-sized;
    /// * [`TileError::AssemblyMismatch`] if the band runs past the last
    ///   tile.
    pub fn push_band(&mut self, band: &[(usize, &RealGrid)]) -> Result<(), TileError> {
        let order = self.partition.fold_order();
        for (k, &(tile_index, data)) in band.iter().enumerate() {
            let Some(&expected) = order.get(self.cursor + k) else {
                return Err(TileError::AssemblyMismatch {
                    expected: order.len(),
                    actual: self.cursor + band.len(),
                });
            };
            if tile_index != expected {
                return Err(TileError::StreamOrder {
                    expected,
                    actual: tile_index,
                });
            }
            self.weights.check_tile_shape(tile_index, data)?;
        }
        // The first fold zeroes the layout, each worker its own rows. A
        // fresh clip-sized block is mapped lazily, and a fold that reads a
        // page before writing it faults twice (the shared zero page, then a
        // private copy); written first, every page faults once, on the
        // worker that folds into it.
        let zero = self.cursor == 0;
        let weights = &self.weights;
        by_rows(
            &self.executor,
            self.out.as_mut_slice(),
            weights.width,
            |rows, out| {
                if zero {
                    out.fill(0.0);
                }
                for &(tile_index, data) in band {
                    weights.fold_rows(tile_index, data, rows.clone(), out);
                }
            },
        );
        self.cursor += band.len();
        Ok(())
    }

    /// Validates that every tile was pushed, then returns the assembled
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::AssemblyMismatch`] if fewer tiles were pushed
    /// than the partition has.
    pub fn finish(self) -> Result<RealGrid, TileError> {
        let total = self.partition.tiles().len();
        if self.cursor != total {
            return Err(TileError::AssemblyMismatch {
                expected: total,
                actual: self.cursor,
            });
        }
        ilt_telemetry::counter_add(
            "tile.pixels_assembled",
            (self.partition.width() * self.partition.height()) as u64,
        );
        Ok(self.out)
    }
}

/// Runs `body` once per range of layout rows — one range per worker of
/// `executor`, as even as whole rows allow — with those rows of the
/// `width`-wide layout `out`. The ranges are disjoint, so each pixel is
/// written by exactly one call.
fn by_rows(
    executor: &TileExecutor,
    mut out: &mut [f64],
    width: usize,
    body: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    let height = out.len() / width;
    let parts = executor.workers().min(height).max(1);
    let mut ranges = Vec::with_capacity(parts);
    for k in 0..parts {
        let rows = k * height / parts..(k + 1) * height / parts;
        let (here, rest) = std::mem::take(&mut out).split_at_mut(rows.len() * width);
        ranges.push((rows, here));
        out = rest;
    }
    executor.run_parts(ranges, |(rows, out)| body(rows, out));
}

/// Assembles per-tile results into a full layout:
/// `M = sum_j W_j . M_j` with `W_j` from [`normalized_weight_map`] — every
/// tile pushed through a [`StreamingAssembler`] in its canonical order.
///
/// # Errors
///
/// Returns [`TileError::AssemblyMismatch`] if the number of tile grids does
/// not match the partition, [`TileError::TileShape`] if one is not
/// tile-sized.
///
/// # Panics
///
/// Panics on [`AssemblyMode::ExtendedCore`], like [`StreamingAssembler::new`].
pub fn assemble(
    partition: &Partition,
    tiles: &[RealGrid],
    mode: AssemblyMode,
) -> Result<RealGrid, TileError> {
    if tiles.len() != partition.tiles().len() {
        return Err(TileError::AssemblyMismatch {
            expected: partition.tiles().len(),
            actual: tiles.len(),
        });
    }
    let mut assembler = StreamingAssembler::new(partition, mode);
    for i in 0..assembler.canonical_order().len() {
        let index = assembler.canonical_order()[i];
        assembler.push(index, &tiles[index])?;
    }
    assembler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionConfig;
    use ilt_grid::Grid;
    use proptest::prelude::*;

    /// Tile `index`'s 2-D weights as the row kernels see them: the product
    /// `wy * wx` scattered through `span_rows`' tile offsets, 0 elsewhere.
    fn dense_weights(weights: &TileWeights, index: usize) -> RealGrid {
        let mut dense = RealGrid::new(weights.tile, weights.tile, 0.0);
        for row in weights.span_rows(index) {
            let out = &mut dense.as_mut_slice()[row.tile_start..][..row.wx.len()];
            for (o, &wx) in out.iter_mut().zip(row.wx) {
                *o = row.wy * wx;
            }
        }
        dense
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn separable_weights_match_the_2d_reference(
            tile_pow in 4u32..6,        // tile in {16, 32}
            half_overlap in 1usize..12,
            extra_w in 0usize..70,      // clamped last column unless divisible
            extra_h in 0usize..70,
            band in 1usize..30,
        ) {
            let tile = 1usize << tile_pow;
            let overlap = (2 * half_overlap).min(tile - 2);
            let p = Partition::new(tile + extra_w, tile + extra_h, PartitionConfig { tile, overlap })
                .unwrap();
            for mode in [
                AssemblyMode::Restricted,
                AssemblyMode::Weighted { band },
                AssemblyMode::ExtendedCore { margin: band },
            ] {
                // `new` also checks that each axis of an additive mode is a
                // 1-D partition of unity (exact / 1e-12), panicking if not.
                let weights = TileWeights::new(&p, mode);
                for t in p.tiles() {
                    let reference = normalized_weight_map(&p, t.index, mode);
                    let dense = dense_weights(&weights, t.index);
                    for (i, (a, b)) in dense.as_slice().iter().zip(reference.as_slice()).enumerate() {
                        prop_assert!(
                            (a - b).abs() <= 1e-12,
                            "{mode:?} tile {} at ({}, {}): separable {a} vs 2-D {b}",
                            t.index, i % tile, i / tile
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_that_are_not_a_partition_of_unity_panic_on_construction() {
        let p = partition();
        // One wrong entry inside tile column 1's support over-covers one
        // layout column; the check runs on the weights alone, before any
        // assembly and whatever its worker count.
        for (mode, error) in [
            (AssemblyMode::Restricted, f64::EPSILON),
            (AssemblyMode::weighted_default(&p), 1e-9),
        ] {
            let mut weights = TileWeights::new(&p, mode);
            let k = weights.cols[1].span.start + 20;
            weights.cols[1].weights[k] += error;
            let caught = std::panic::catch_unwind(|| weights.check_partition_of_unity(mode));
            let message = caught.expect_err("a broken weight set must panic");
            let message = message.downcast_ref::<String>().unwrap();
            assert!(
                message.starts_with("partition of unity violated at layout column "),
                "{mode:?}: {message}"
            );
        }
    }

    #[test]
    fn all_ones_tiles_assemble_to_an_all_ones_layout() {
        // Every partition the flows build at 512² and 1024² — fine 3×3 and
        // 7×7 (tile 256), the coarse levels s = 2 and s = 4 — and one that
        // clamps both axes.
        let geometries = [
            (512, 512, 256),
            (1024, 1024, 256),
            (512, 512, 512),
            (1024, 1024, 512),
            (1024, 1024, 1024),
            (300, 200, 128),
        ];
        for (w, h, tile) in geometries {
            let p = Partition::new(
                w,
                h,
                PartitionConfig {
                    tile,
                    overlap: tile / 2,
                },
            )
            .unwrap();
            let ones = Grid::new(tile, tile, 1.0);
            for (mode, tolerance) in [
                (AssemblyMode::Restricted, 0.0),
                (AssemblyMode::weighted_default(&p), 1e-12),
            ] {
                for workers in 1..=5 {
                    let mut asm = StreamingAssembler::new(&p, mode).on(&TileExecutor::new(workers));
                    let band: Vec<(usize, &RealGrid)> =
                        asm.canonical_order().iter().map(|&i| (i, &ones)).collect();
                    asm.push_band(&band).unwrap();
                    let layout = asm.finish().unwrap();
                    for (x, y, &v) in layout.iter() {
                        assert!(
                            (v - 1.0).abs() <= tolerance,
                            "{mode:?} at {w}x{h}, tile {tile}, {workers} workers: {v} at ({x}, {y})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_row_split_fold_is_bit_identical_to_the_serial_push_loop() {
        // 300x200 clamps both axes; 200x331 is taller than wide; neither
        // height divides evenly by 3, 4 or 5 workers.
        for (w, h) in [(256, 256), (300, 200), (200, 331)] {
            let p = Partition::new(
                w,
                h,
                PartitionConfig {
                    tile: 128,
                    overlap: 64,
                },
            )
            .unwrap();
            let tiles: Vec<RealGrid> = p
                .tiles()
                .iter()
                .map(|t| {
                    Grid::from_fn(128, 128, |x, y| {
                        ((x * 13 + y * 29 + t.index * 7) % 17) as f64 / 17.0 + 1e-9 * x as f64
                    })
                })
                .collect();
            for mode in [AssemblyMode::Restricted, AssemblyMode::weighted_default(&p)] {
                let mut serial = StreamingAssembler::new(&p, mode);
                for k in 0..serial.canonical_order().len() {
                    let i = serial.canonical_order()[k];
                    serial.push(i, &tiles[i]).unwrap();
                }
                let bits =
                    |g: &RealGrid| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let serial = bits(&serial.finish().unwrap());
                for workers in 1..=5 {
                    let executor = TileExecutor::new(workers);
                    // Band by band, as the cold flows fold, and every tile
                    // in one call, as the incremental reuse stage does.
                    for one_call in [false, true] {
                        let mut split = StreamingAssembler::new(&p, mode).on(&executor);
                        let band = |group: &[usize]| -> Vec<(usize, &RealGrid)> {
                            group.iter().map(|&i| (i, &tiles[i])).collect()
                        };
                        if one_call {
                            let order = split.canonical_order().to_vec();
                            split.push_band(&band(&order)).unwrap();
                        } else {
                            for group in p.bands() {
                                split.push_band(&band(group)).unwrap();
                            }
                        }
                        assert_eq!(
                            bits(&split.finish().unwrap()),
                            serial,
                            "{mode:?} at {w}x{h} on {workers} workers (one call: {one_call})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_rejected_band_folds_nothing() {
        let p = partition();
        let data = Grid::new(128, 128, 0.5);
        let mut asm =
            StreamingAssembler::new(&p, AssemblyMode::Restricted).on(&TileExecutor::new(2));
        let order = asm.canonical_order().to_vec();
        // The band's second tile is out of order: the first is not folded.
        let wrong = [(order[0], &data), (order[2], &data)];
        assert_eq!(
            asm.push_band(&wrong),
            Err(TileError::StreamOrder {
                expected: order[1],
                actual: order[2]
            })
        );
        assert_eq!(asm.pushed(), 0);
        // A band past the last tile names how far it reached.
        let all: Vec<(usize, &RealGrid)> = order.iter().map(|&i| (i, &data)).collect();
        asm.push_band(&all[..8]).unwrap();
        assert_eq!(
            asm.push_band(&all[7..]),
            Err(TileError::StreamOrder {
                expected: order[8],
                actual: order[7]
            })
        );
        assert_eq!(
            asm.push_band(&[(order[8], &data), (order[8], &data)]),
            Err(TileError::AssemblyMismatch {
                expected: 9,
                actual: 10
            })
        );
        asm.push_band(&all[8..]).unwrap();
        assert!(asm.finish().unwrap().as_slice().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn weighted_update_is_local() {
        let partition = Partition::new(
            128,
            128,
            PartitionConfig {
                tile: 64,
                overlap: 32,
            },
        )
        .unwrap();
        let weights = TileWeights::new(&partition, AssemblyMode::Weighted { band: 8 });
        let mut layout = RealGrid::new(128, 128, 0.25);
        let new_mask = RealGrid::new(64, 64, 1.0);
        weights.update(&mut layout, 0, &new_mask).unwrap();
        // Inside tile 0's full-weight region the value is replaced.
        assert!((layout.get(5, 5) - 1.0).abs() < 1e-12);
        // Outside tile 0 nothing changed.
        assert_eq!(layout.get(100, 100), 0.25);
        // Within the blend band around the core boundary (x = 48, band 8)
        // the update is partial.
        let mid = layout.get(46, 5);
        assert!(mid > 0.25 && mid < 1.0, "mid {mid}");
    }

    #[test]
    fn a_stage_update_folds_in_fold_order_whatever_order_it_is_given() {
        let p = partition();
        let weights = TileWeights::new(&p, AssemblyMode::weighted_default(&p));
        let before = Grid::from_fn(256, 256, |x, y| ((x * 7 + y * 13) % 19) as f64 / 19.0);
        let updates = |order: &[usize]| -> Vec<(usize, RealGrid)> {
            order
                .iter()
                .map(|&i| {
                    (
                        i,
                        Grid::from_fn(128, 128, |x, y| ((x + 3 * y + i) % 5) as f64 / 4.0),
                    )
                })
                .collect()
        };
        let mut folded = before.clone();
        weights
            .update_stage(&mut folded, updates(p.fold_order()))
            .unwrap();
        let mut reversed = before.clone();
        let backwards: Vec<usize> = p.fold_order().iter().rev().copied().collect();
        weights
            .update_stage(&mut reversed, updates(&backwards))
            .unwrap();
        assert_eq!(folded.as_slice(), reversed.as_slice());
    }

    #[test]
    fn updates_reject_a_wrong_sized_mask_and_leave_the_layout_alone() {
        let p = partition();
        let weights = TileWeights::new(&p, AssemblyMode::weighted_default(&p));
        let mut layout = RealGrid::new(256, 256, 0.25);
        let wrong = TileError::TileShape {
            tile: 4,
            expected: 128,
            actual: (64, 128),
        };
        assert_eq!(
            weights.update(&mut layout, 4, &Grid::new(64, 128, 1.0)),
            Err(wrong)
        );
        let updates = vec![(0, Grid::new(128, 128, 1.0)), (4, Grid::new(64, 128, 1.0))];
        assert_eq!(weights.update_stage(&mut layout, updates), Err(wrong));
        assert!(layout.as_slice().iter().all(|&v| v == 0.25));
    }

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
    fn restrict_crops_tile_extent() {
        let p = partition();
        let layout = Grid::from_fn(256, 256, |x, y| (x + y) as f64);
        let t = p.tile(4);
        let cropped = restrict(&layout, t);
        assert_eq!(cropped.width(), 128);
        assert_eq!(cropped.get(0, 0), layout.get(64, 64));
    }

    #[test]
    fn restricted_weights_are_core_indicator() {
        let p = partition();
        let w = weight_map(&p, 4, AssemblyMode::Restricted);
        // Core of center tile is [96,160) globally = [32,96) locally.
        assert_eq!(w.get(32, 32), 1.0);
        assert_eq!(w.get(95, 95), 1.0);
        assert_eq!(w.get(31, 32), 0.0);
        assert_eq!(w.get(96, 32), 0.0);
    }

    #[test]
    fn weighted_weights_ramp_across_band() {
        let p = partition();
        // Center tile: cores span [96,160) globally = [32,96) locally; the
        // default band is overlap/4 = 16 px centered on each core boundary.
        let mode = AssemblyMode::weighted_default(&p);
        assert_eq!(mode, AssemblyMode::Weighted { band: 16 });
        let w = weight_map(&p, 4, mode);
        // Outside the band towards the tile edge: weight 0.
        assert_eq!(w.get(0, 64), 0.0);
        assert_eq!(w.get(23, 64), 0.0);
        // Exactly on the core boundary: 0.5.
        assert!((w.get(32, 64) - 0.5).abs() < 0.04);
        // Past the band into the own core: weight 1.
        assert_eq!(w.get(40, 64), 1.0);
        assert_eq!(w.get(64, 64), 1.0);
        // Corner tile has no ramp on the layout side.
        let w0 = weight_map(&p, 0, mode);
        assert_eq!(w0.get(0, 0), 1.0);
        assert_eq!(w0.get(127, 0), 0.0);
    }

    #[test]
    fn explicit_band_width_controls_ramp_extent() {
        let p = partition();
        let narrow = weight_map(&p, 4, AssemblyMode::Weighted { band: 4 });
        let wide = weight_map(&p, 4, AssemblyMode::Weighted { band: 32 });
        // Narrow band saturates sooner.
        assert_eq!(narrow.get(35, 64), 1.0);
        assert!(wide.get(35, 64) < 1.0);
        // Band is clamped to the overlap; an enormous band must not panic.
        let huge = weight_map(&p, 4, AssemblyMode::Weighted { band: 10_000 });
        assert!(huge.get(64, 64) > 0.0);
    }

    #[test]
    fn weights_form_partition_of_unity() {
        let p = partition();
        for mode in [
            AssemblyMode::Restricted,
            AssemblyMode::weighted_default(&p),
            AssemblyMode::Weighted { band: 4 },
        ] {
            let mut total = Grid::new(256, 256, 0.0);
            for tile in p.tiles() {
                let w = weight_map(&p, tile.index, mode);
                total.paste(
                    &RealGrid::from_fn(128, 128, |x, y| {
                        total.get(tile.rect.x0 as usize + x, tile.rect.y0 as usize + y)
                            + w.get(x, y)
                    }),
                    tile.rect.x0,
                    tile.rect.y0,
                );
            }
            for (_, _, &v) in total.iter() {
                assert!((v - 1.0).abs() < 1e-12, "{mode:?}: weight sum {v}");
            }
        }
    }

    #[test]
    fn assembling_restrictions_reconstructs_layout() {
        // Cropping a layout into tiles and assembling must reproduce it for
        // both modes (consistency of R and R^T on consistent data).
        let p = partition();
        let layout = Grid::from_fn(256, 256, |x, y| ((x * 31 + y * 7) % 13) as f64);
        let crops: Vec<RealGrid> = p.tiles().iter().map(|t| restrict(&layout, t)).collect();
        for mode in [
            AssemblyMode::Restricted,
            AssemblyMode::weighted_default(&p),
            AssemblyMode::Weighted { band: 4 },
        ] {
            let rebuilt = assemble(&p, &crops, mode).unwrap();
            let mut worst: f64 = 0.0;
            for y in 0..256 {
                for x in 0..256 {
                    worst = worst.max((rebuilt.get(x, y) - layout.get(x, y)).abs());
                }
            }
            assert!(worst < 1e-12, "{mode:?}: reconstruction error {worst}");
        }
    }

    #[test]
    fn weighted_assembly_blends_disagreeing_tiles() {
        // Two tiles disagreeing in the overlap: restricted assembly jumps at
        // the core boundary, weighted assembly ramps linearly.
        let p = Partition::new(
            192,
            128,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        assert_eq!(p.tiles().len(), 2);
        let tiles = vec![Grid::new(128, 128, 0.0), Grid::new(128, 128, 1.0)];
        let hard = assemble(&p, &tiles, AssemblyMode::Restricted).unwrap();
        let soft = assemble(&p, &tiles, AssemblyMode::Weighted { band: 32 }).unwrap();
        // Hard: a step at x = 96 (core boundary).
        assert_eq!(hard.get(95, 64), 0.0);
        assert_eq!(hard.get(96, 64), 1.0);
        // Soft: the core boundary (x = 96, band center) blends to ~0.5.
        assert!((soft.get(96, 64) - 0.5).abs() < 0.03);
        // Soft is monotone across the overlap.
        for x in 65..128 {
            assert!(soft.get(x, 64) >= soft.get(x - 1, 64) - 1e-12);
        }
    }

    #[test]
    fn extended_core_is_indicator_of_grown_core() {
        let p = partition();
        // Center tile: core [96,160) globally = [32,96) locally; margin 8
        // grows it to [88,168) globally = [24,104) locally.
        let w = weight_map(&p, 4, AssemblyMode::ExtendedCore { margin: 8 });
        assert_eq!(w.get(24, 64), 1.0);
        assert_eq!(w.get(103, 64), 1.0);
        assert_eq!(w.get(23, 64), 0.0);
        assert_eq!(w.get(104, 64), 0.0);
        // Weights are exactly 0/1.
        assert!(w.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn extended_core_clips_to_tile() {
        let p = partition();
        // A margin larger than the tile margin must clip to the tile rect
        // without panicking.
        let w = weight_map(&p, 0, AssemblyMode::ExtendedCore { margin: 1000 });
        assert_eq!(w.get(0, 0), 1.0);
        assert_eq!(w.get(127, 127), 1.0);
    }

    #[test]
    fn sequential_extended_core_updates_author_bands_consistently() {
        // Simulate the multiplicative pass: two tiles, the second replaces
        // its extended core after the first; the shared band must end up
        // authored entirely by the later tile.
        let p = Partition::new(
            192,
            128,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        let mut layout = RealGrid::new(192, 128, 0.5);
        for (idx, value) in [(0usize, 0.2), (1usize, 0.9)] {
            let tile = p.tile(idx);
            let w = weight_map(&p, idx, AssemblyMode::ExtendedCore { margin: 8 });
            let data = RealGrid::new(128, 128, value);
            for y in 0..128 {
                for x in 0..128 {
                    if w.get(x, y) != 0.0 {
                        layout.set(
                            tile.rect.x0 as usize + x,
                            tile.rect.y0 as usize + y,
                            data.get(x, y),
                        );
                    }
                }
            }
        }
        // Core boundary at x = 96: band [88, 104) belongs to the later tile.
        assert_eq!(layout.get(90, 64), 0.9);
        assert_eq!(layout.get(100, 64), 0.9);
        // Outside both extended cores... everything is covered here; the
        // early tile's exclusive region keeps its value.
        assert_eq!(layout.get(10, 64), 0.2);
    }

    #[test]
    fn normalized_weights_form_partition_of_unity_on_clamped_grids() {
        // 300x200: both axes clamp, so border/corner tiles see asymmetric
        // neighbour counts and raw ramps alone would not always sum to 1.
        let p = Partition::new(
            300,
            200,
            PartitionConfig {
                tile: 128,
                overlap: 64,
            },
        )
        .unwrap();
        for mode in [
            AssemblyMode::Restricted,
            AssemblyMode::weighted_default(&p),
            AssemblyMode::Weighted { band: 48 },
        ] {
            let mut total = Grid::new(300, 200, 0.0);
            for tile in p.tiles() {
                let w = normalized_weight_map(&p, tile.index, mode);
                for y in 0..128 {
                    for x in 0..128 {
                        let gx = tile.rect.x0 as usize + x;
                        let gy = tile.rect.y0 as usize + y;
                        total.set(gx, gy, total.get(gx, gy) + w.get(x, y));
                    }
                }
            }
            for (x, y, &v) in total.iter() {
                assert!(
                    (v - 1.0).abs() < 1e-9,
                    "{mode:?}: weight sum {v} at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn streamed_assembly_is_bit_identical_to_batch() {
        for (w, h) in [(256, 256), (300, 200)] {
            let p = Partition::new(
                w,
                h,
                PartitionConfig {
                    tile: 128,
                    overlap: 64,
                },
            )
            .unwrap();
            let tiles: Vec<RealGrid> = p
                .tiles()
                .iter()
                .map(|t| {
                    Grid::from_fn(128, 128, |x, y| {
                        ((x * 13 + y * 29 + t.index * 7) % 17) as f64 / 17.0
                    })
                })
                .collect();
            for mode in [AssemblyMode::Restricted, AssemblyMode::weighted_default(&p)] {
                let batch = assemble(&p, &tiles, mode).unwrap();
                let mut streaming = StreamingAssembler::new(&p, mode);
                for i in 0..streaming.canonical_order().len() {
                    let idx = streaming.canonical_order()[i];
                    streaming.push(idx, &tiles[idx]).unwrap();
                }
                let streamed = streaming.finish().unwrap();
                assert_eq!(
                    batch.as_slice(),
                    streamed.as_slice(),
                    "{mode:?} at {w}x{h}: streamed and batch must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn streaming_assembler_enforces_canonical_order() {
        let p = partition();
        let data = Grid::new(128, 128, 0.5);
        let mut asm = StreamingAssembler::new(&p, AssemblyMode::Restricted);
        let first = asm.canonical_order()[0];
        let second = asm.canonical_order()[1];
        // Wrong tile first: rejected with the expected index.
        assert_eq!(
            asm.push(second, &data),
            Err(TileError::StreamOrder {
                expected: first,
                actual: second
            })
        );
        asm.push(first, &data).unwrap();
        assert_eq!(asm.pushed(), 1);
        // Pushing the same tile again is also out of order.
        assert!(matches!(
            asm.push(first, &data),
            Err(TileError::StreamOrder { .. })
        ));
        // Wrong shape: rejected, naming the tile and both shapes.
        let wrong_shape = asm.push(second, &Grid::new(64, 96, 0.0)).unwrap_err();
        assert_eq!(
            wrong_shape,
            TileError::TileShape {
                tile: second,
                expected: 128,
                actual: (64, 96)
            }
        );
        assert_eq!(
            wrong_shape.to_string(),
            format!(
                "assembly received a 64x96 grid for tile {second} but the partition's tiles \
                 are 128x128"
            )
        );
        // Finishing early: rejected with the push count.
        assert_eq!(
            asm.finish(),
            Err(TileError::AssemblyMismatch {
                expected: 9,
                actual: 1
            })
        );
    }

    #[test]
    fn assemble_validates_input() {
        let p = partition();
        let too_few = vec![Grid::new(128, 128, 0.0); 4];
        assert!(matches!(
            assemble(&p, &too_few, AssemblyMode::Restricted),
            Err(TileError::AssemblyMismatch { .. })
        ));
        let mut wrong_size = vec![Grid::new(128, 128, 0.0); 9];
        wrong_size[6] = Grid::new(64, 64, 0.0);
        assert_eq!(
            assemble(&p, &wrong_size, AssemblyMode::weighted_default(&p)),
            Err(TileError::TileShape {
                tile: 6,
                expected: 128,
                actual: (64, 64)
            })
        );
    }
}
