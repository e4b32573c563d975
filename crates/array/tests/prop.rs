//! Property tests: geometry bijectivity, array-vs-hashmap equivalence
//! across all chunk formats, and codec roundtrips.

use std::collections::HashMap;
use std::sync::Arc;

use molap_array::{diffseq, lzw, ArrayBuilder, ChunkBuilder, ChunkFormat, Shape};
use molap_storage::{BufferPool, MemDisk};
use proptest::prelude::*;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024))
}

/// A random shape of 1–4 dimensions with ragged chunking.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    proptest::collection::vec((1u32..12, 1u32..12), 1..4).prop_map(|spec| {
        let dims: Vec<u32> = spec.iter().map(|&(d, _)| d).collect();
        let chunks: Vec<u32> = spec.iter().map(|&(d, c)| c.min(d).max(1)).collect();
        Shape::new(dims, chunks).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn locate_decode_is_a_bijection(shape in shape_strategy()) {
        let n = shape.n_dims();
        let mut seen = std::collections::HashSet::new();
        let mut coords = vec![0u32; n];
        let mut out = vec![0u32; n];
        // Odometer over all cells.
        loop {
            let (chunk, off) = shape.locate(&coords).unwrap();
            prop_assert!(chunk < shape.num_chunks());
            prop_assert!((off as u64) < shape.chunk_cells());
            shape.decode(chunk, off, &mut out);
            prop_assert_eq!(&out, &coords);
            prop_assert!(seen.insert((chunk, off)));
            // advance
            let mut d = n;
            let mut done = true;
            while d > 0 {
                d -= 1;
                if coords[d] + 1 < shape.dims()[d] {
                    coords[d] += 1;
                    for c in coords.iter_mut().skip(d + 1) { *c = 0; }
                    done = false;
                    break;
                }
            }
            if done { break; }
        }
        prop_assert_eq!(seen.len() as u64, shape.total_cells());
    }

    #[test]
    fn array_matches_hashmap_model(
        shape in shape_strategy(),
        cells in proptest::collection::vec((proptest::collection::vec(0u32..12, 4), -100i64..100), 0..100),
        format_sel in 0u8..4,
    ) {
        let format = match format_sel {
            0 => ChunkFormat::ChunkOffset,
            1 => ChunkFormat::Dense,
            2 => ChunkFormat::DenseLzw,
            _ => ChunkFormat::DiffSeq,
        };
        let n = shape.n_dims();
        let mut model: HashMap<Vec<u32>, i64> = HashMap::new();
        for (raw, v) in &cells {
            let coords: Vec<u32> = (0..n).map(|d| raw[d] % shape.dims()[d]).collect();
            model.insert(coords, *v); // last write wins in the model
        }
        let mut b = ArrayBuilder::new(shape.clone(), 1, format);
        for (coords, v) in &model {
            b.add(coords, &[*v]).unwrap();
        }
        let a = b.build(pool()).unwrap();
        prop_assert_eq!(a.valid_cells(), model.len() as u64);

        // Every model cell is present; iterate cells and compare.
        let mut seen = 0u64;
        a.for_each_cell(|coords, values| {
            assert_eq!(model.get(coords), Some(&values[0]), "coords {coords:?}");
            seen += 1;
        }).unwrap();
        prop_assert_eq!(seen, model.len() as u64);

        // Spot-check gets, including misses.
        for (coords, v) in model.iter().take(10) {
            prop_assert_eq!(a.get(coords).unwrap(), Some(vec![*v]));
        }
    }

    #[test]
    fn sum_region_matches_model(
        cells in proptest::collection::vec((0u32..10, 0u32..10, -50i64..50), 0..80),
        bounds in (0u32..10, 0u32..10, 0u32..10, 0u32..10),
    ) {
        let shape = Shape::new(vec![10, 10], vec![3, 4]).unwrap();
        let mut model: HashMap<(u32, u32), i64> = HashMap::new();
        for &(x, y, v) in &cells {
            model.insert((x, y), v);
        }
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        for (&(x, y), &v) in &model {
            b.add(&[x, y], &[v]).unwrap();
        }
        let a = b.build(pool()).unwrap();
        let (x0, x1, y0, y1) = bounds;
        let (lo, hi) = ([x0.min(x1), y0.min(y1)], [x0.max(x1), y0.max(y1)]);
        let expect: i64 = model
            .iter()
            .filter(|(&(x, y), _)| lo[0] <= x && x <= hi[0] && lo[1] <= y && y <= hi[1])
            .map(|(_, &v)| v)
            .sum();
        prop_assert_eq!(a.sum_region(&lo, &hi).unwrap(), vec![expect]);
    }

    #[test]
    fn lzw_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
        let enc = lzw::compress(&data);
        prop_assert_eq!(&lzw::decompress(&enc).unwrap(), &data);
        prop_assert_eq!(lzw::decompress_fast(&enc).unwrap(), data);
    }

    #[test]
    fn lzw_roundtrips_runny_bytes(
        runs in proptest::collection::vec((any::<u8>(), 1usize..200), 0..50)
    ) {
        let mut data = Vec::new();
        for (byte, len) in runs {
            data.resize(data.len() + len, byte);
        }
        let enc = lzw::compress(&data);
        prop_assert_eq!(&lzw::decompress(&enc).unwrap(), &data);
        prop_assert_eq!(lzw::decompress_fast(&enc).unwrap(), data);
    }

    #[test]
    fn diffseq_roundtrips_and_decoders_agree(
        occupancy in proptest::collection::vec(0u32..2000, 0..300),
        n_measures in 1usize..4,
        fill in 0u8..10,
    ) {
        let limit = 2000u32;
        // Bias the distribution toward the structural edge cases the
        // codec special-cases: empty chunks (no sections at all) and
        // full chunks (every gap zero, width-0 blocks end to end).
        let offsets: Vec<u32> = match fill {
            0 => Vec::new(),
            1 => (0..limit).collect(),
            _ => occupancy
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect(),
        };
        let mut b = ChunkBuilder::new(n_measures);
        for (i, &off) in offsets.iter().enumerate() {
            let vals: Vec<i64> = (0..n_measures)
                .map(|m| off as i64 * 31 - i as i64 + m as i64 * 7)
                .collect();
            b.add(off, &vals);
        }
        let chunk = b.build().unwrap();
        let bytes = diffseq::compress(&chunk);
        let slow = diffseq::decompress(&bytes, limit).unwrap();
        let fast = diffseq::decompress_fast(&bytes, limit).unwrap();
        // Bit-identical roundtrip through both decoders.
        prop_assert_eq!(slow.to_bytes(), chunk.to_bytes());
        prop_assert_eq!(fast.to_bytes(), chunk.to_bytes());
    }

    #[test]
    fn set_then_get_is_consistent(
        initial in proptest::collection::vec((0u32..8, 0u32..8, -50i64..50), 0..30),
        updates in proptest::collection::vec((0u32..8, 0u32..8, -50i64..50), 1..20),
    ) {
        let shape = Shape::new(vec![8, 8], vec![3, 3]).unwrap();
        let mut model: HashMap<(u32, u32), i64> = HashMap::new();
        for &(x, y, v) in &initial {
            model.insert((x, y), v);
        }
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        for (&(x, y), &v) in &model {
            b.add(&[x, y], &[v]).unwrap();
        }
        let mut a = b.build(pool()).unwrap();
        for &(x, y, v) in &updates {
            a.set(&[x, y], &[v]).unwrap();
            model.insert((x, y), v);
        }
        prop_assert_eq!(a.valid_cells(), model.len() as u64);
        for x in 0..8u32 {
            for y in 0..8u32 {
                prop_assert_eq!(
                    a.get(&[x, y]).unwrap(),
                    model.get(&(x, y)).map(|&v| vec![v])
                );
            }
        }
    }
}
