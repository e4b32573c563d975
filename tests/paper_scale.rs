//! A scaled-down paper workload run end to end in CI: Data Set 2
//! geometry at 0.5 % density, the paper's chunking, all three engines
//! on Query 1 / Query 2 / Query 3, cross-checked — plus the extended
//! operators (parallel, bounded, CUBE, materialization) against the
//! same baseline.

use std::sync::Arc;

use molap::array::ChunkFormat;
use molap::core::{
    bitmap_consolidate, compute_cube, consolidate_pipelined, starjoin_consolidate, AttrRef,
    DimGrouping, JoinBitmapIndexes, OlapArray, PrefetchPlan, Query, Selection, StarSchema,
};
use molap::datagen::{generate, CubeSpec};
use molap::storage::{BufferPool, MemDisk};

#[test]
fn dataset2_smallest_density_full_pipeline() {
    // The real Data Set 2 shape (§5.4) at its smallest published
    // density: 40×40×40×100, 0.5 % = 32 000 valid cells, with the
    // paper's 80-chunk layout.
    let spec = CubeSpec::dataset2(0.005).with_selection_cardinality(4);
    let sel_level = spec.level_cards[0].len() - 1;
    let cube = generate(&spec).unwrap();
    assert_eq!(cube.len(), 32_000);

    let pool = Arc::new(BufferPool::with_bytes(Arc::new(MemDisk::new()), 16 << 20));
    let adt = OlapArray::build(
        pool.clone(),
        cube.dims.clone(),
        &[20, 20, 20, 10],
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    assert_eq!(adt.array().shape().num_chunks(), 80, "paper chunk count");
    let schema = StarSchema::build(
        pool.clone(),
        cube.dims.clone(),
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    let indexes = JoinBitmapIndexes::build(pool.clone(), &schema).unwrap();

    // Query 1: group by every dimension's h1.
    let q1 = Query::new(vec![DimGrouping::Level(0); 4]);
    // Query 2: Query 1 plus a selection on every dimension.
    let mut q2 = q1.clone();
    for d in 0..4 {
        q2 = q2.with_selection(d, Selection::eq(AttrRef::Level(sel_level), 1));
    }
    // Query 3: selection + grouping on three dimensions.
    let mut q3 = Query::new(vec![
        DimGrouping::Level(0),
        DimGrouping::Level(0),
        DimGrouping::Level(0),
        DimGrouping::Drop,
    ]);
    for d in 0..3 {
        q3 = q3.with_selection(d, Selection::eq(AttrRef::Level(sel_level), 2));
    }

    for (name, q) in [("Q1", &q1), ("Q2", &q2), ("Q3", &q3)] {
        let a = adt.consolidate(q).unwrap();
        let s = starjoin_consolidate(&schema, q).unwrap();
        let b = bitmap_consolidate(&schema, &indexes, q).unwrap();
        assert_eq!(a, s, "{name}: array vs starjoin");
        assert_eq!(s, b, "{name}: starjoin vs bitmap");
    }

    // Q1's total must be the generator's ground truth.
    let q1_res = adt.consolidate(&q1).unwrap();
    assert_eq!(q1_res.total(), cube.total_volume());

    // Extended operators agree with the baseline.
    let plan = PrefetchPlan::auto(adt.array().shape().num_chunks());
    assert_eq!(consolidate_pipelined(&adt, &q1, 4, plan).unwrap(), q1_res);
    assert_eq!(adt.consolidate_bounded(&q1, 16).unwrap(), q1_res);

    let slices = compute_cube(&adt, &q1).unwrap();
    assert_eq!(slices.len(), 16);
    assert_eq!(slices[0].result, q1_res, "finest CUBE slice == Query 1");
    assert_eq!(
        slices.last().unwrap().result.total(),
        cube.total_volume(),
        "coarsest CUBE slice == grand total"
    );

    // Materialize Query 1 and re-roll to the h2 level of dimension 0:
    // must equal the direct h2 consolidation of the source.
    let hop = adt.consolidate_to_array(&q1, pool.clone()).unwrap();
    let via_chain = hop
        .consolidate(&Query::new(vec![
            DimGrouping::Level(0), // carried h2 of dim0
            DimGrouping::Drop,
            DimGrouping::Drop,
            DimGrouping::Drop,
        ]))
        .unwrap();
    let direct = adt
        .consolidate(&Query::new(vec![
            DimGrouping::Level(1),
            DimGrouping::Drop,
            DimGrouping::Drop,
            DimGrouping::Drop,
        ]))
        .unwrap();
    assert_eq!(via_chain.rows().len(), direct.rows().len());
    for (a, b) in via_chain.rows().iter().zip(direct.rows()) {
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.values, b.values);
    }
}
