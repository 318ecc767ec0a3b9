//! Property tests over random clamped M×N partitions: exact disjoint-core
//! coverage, neighbour symmetry, streamed-vs-batch assembly bit-identity
//! (satellite of the paper-scale issue), and the in-place stage update
//! against a full assembly pass.

use ilt_grid::{Grid, RealGrid};
use ilt_tile::{
    assemble, normalized_weight_map, restrict, AssemblyMode, Partition, PartitionConfig,
    StreamingAssembler, TileWeights,
};
use proptest::prelude::*;

/// Deterministic per-tile fill so failures reproduce without shrinking.
fn tile_data(t: usize, index: usize) -> RealGrid {
    Grid::from_fn(t, t, |x, y| {
        ((x * 31 + y * 17 + index * 101) % 23) as f64 / 23.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cores_partition_any_clamped_layout(
        tile_pow in 4u32..7,        // tile in {16, 32, 64}
        half_overlap in 1usize..16,
        extra_w in 0usize..150,
        extra_h in 0usize..150,
    ) {
        let tile = 1usize << tile_pow;
        let overlap = (2 * half_overlap).min(tile - 2);
        let config = PartitionConfig { tile, overlap };
        let (width, height) = (tile + extra_w, tile + extra_h);
        let p = Partition::new(width, height, config).unwrap();
        let mut count = vec![0u8; width * height];
        for t in p.tiles() {
            prop_assert!(t.rect.contains_rect(t.core), "core escapes tile {}", t.index);
            prop_assert_eq!(t.rect.width() as usize, tile);
            prop_assert_eq!(t.rect.height() as usize, tile);
            for (x, y) in t.core.pixels() {
                count[y as usize * width + x as usize] += 1;
            }
        }
        for (i, &c) in count.iter().enumerate() {
            prop_assert!(
                c == 1,
                "pixel ({}, {}) covered by {} cores in {}x{} tile {} overlap {}",
                i % width, i / width, c, width, height, tile, overlap
            );
        }
    }

    #[test]
    fn neighbors_are_symmetric_and_exactly_the_overlapping_tiles(
        tile_pow in 4u32..7,
        half_overlap in 1usize..16,
        extra_w in 0usize..150,
        extra_h in 0usize..150,
    ) {
        let tile = 1usize << tile_pow;
        let overlap = (2 * half_overlap).min(tile - 2);
        let config = PartitionConfig { tile, overlap };
        let p = Partition::new(tile + extra_w, tile + extra_h, config).unwrap();
        for a in p.tiles() {
            let n = p.neighbors(a.index);
            for b in p.tiles() {
                if a.index == b.index {
                    prop_assert!(!n.contains(&b.index), "tile neighbours itself");
                    continue;
                }
                let overlapping = a.rect.overlaps(b.rect);
                prop_assert!(
                    n.contains(&b.index) == overlapping,
                    "adjacency of tiles {} and {}", a.index, b.index
                );
                if overlapping {
                    prop_assert!(
                        p.neighbors(b.index).contains(&a.index),
                        "asymmetric neighbours {} and {}", a.index, b.index
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_assembly_is_bit_identical_to_batch(
        tile_pow in 4u32..7,
        half_overlap in 1usize..16,
        extra_w in 0usize..100,
        extra_h in 0usize..100,
        weighted in 0usize..2,
    ) {
        let tile = 1usize << tile_pow;
        let overlap = (2 * half_overlap).min(tile - 2);
        let config = PartitionConfig { tile, overlap };
        let p = Partition::new(tile + extra_w, tile + extra_h, config).unwrap();
        let mode = if weighted == 1 {
            AssemblyMode::weighted_default(&p)
        } else {
            AssemblyMode::Restricted
        };
        let tiles: Vec<RealGrid> = p
            .tiles()
            .iter()
            .map(|t| tile_data(tile, t.index))
            .collect();
        let batch = assemble(&p, &tiles, mode).unwrap();
        let mut streaming = StreamingAssembler::new(&p, mode);
        for k in 0..streaming.canonical_order().len() {
            let idx = streaming.canonical_order()[k];
            streaming.push(idx, &tiles[idx]).unwrap();
        }
        let streamed = streaming.finish().unwrap();
        prop_assert!(
            batch.as_slice() == streamed.as_slice(),
            "streamed and batch assembly diverged"
        );
    }

    #[test]
    fn in_place_stage_update_matches_a_full_assembly_pass(
        tile_pow in 4u32..6,        // tile in {16, 32}
        half_overlap in 1usize..12,
        extra_w in 0usize..80,
        extra_h in 0usize..80,
        band in 1usize..20,
        dirty_bits in 1u64..u64::MAX,
    ) {
        let tile = 1usize << tile_pow;
        let overlap = (2 * half_overlap).min(tile - 2);
        let config = PartitionConfig { tile, overlap };
        let (width, height) = (tile + extra_w, tile + extra_h);
        let p = Partition::new(width, height, config).unwrap();
        let mode = AssemblyMode::Weighted { band };
        let before = Grid::from_fn(width, height, |x, y| ((x * 7 + y * 13) % 19) as f64 / 19.0);
        let dirty: Vec<usize> = (0..p.tiles().len())
            .filter(|i| dirty_bits >> (i % 64) & 1 == 1)
            .collect();

        // Full pass: new masks for the dirty tiles, own crops for the rest.
        let mut assembler = StreamingAssembler::new(&p, mode);
        let order = assembler.canonical_order().to_vec();
        for &i in &order {
            if dirty.contains(&i) {
                assembler.push(i, &tile_data(tile, i)).unwrap();
            } else {
                assembler.push(i, &restrict(&before, p.tile(i))).unwrap();
            }
        }
        let full = assembler.finish().unwrap();

        // In place: only the dirty tiles, in the same canonical order.
        let updates: Vec<(usize, RealGrid)> = order
            .iter()
            .filter(|i| dirty.contains(i))
            .map(|&i| (i, tile_data(tile, i)))
            .collect();
        let mut in_place = before.clone();
        TileWeights::new(&p, mode).update_stage(&mut in_place, updates).unwrap();

        let mut supported = vec![false; width * height];
        for &i in &dirty {
            let t = p.tile(i);
            let w = normalized_weight_map(&p, i, mode);
            for (x, y, &v) in w.iter() {
                if v != 0.0 {
                    supported[(t.rect.y0 as usize + y) * width + t.rect.x0 as usize + x] = true;
                }
            }
        }
        for (k, ((&a, &b), &m)) in in_place
            .as_slice()
            .iter()
            .zip(full.as_slice())
            .zip(before.as_slice())
            .enumerate()
        {
            prop_assert!(
                (a - b).abs() <= 1e-12,
                "pixel ({}, {}): in place {a} vs full pass {b}", k % width, k / width
            );
            if !supported[k] {
                prop_assert!(
                    a.to_bits() == m.to_bits(),
                    "pixel ({}, {}) outside every dirty support changed", k % width, k / width
                );
            }
        }
    }
}
