//! The CUBE operator: every GROUP BY subset of a consolidation in one
//! array pass plus lattice projections (the authors' [ZDN97] companion
//! technique), with a pipelined-scan comparison.
//!
//! ```sh
//! cargo run --release --example cube_explorer
//! ```

use std::sync::Arc;
use std::time::Instant;

use molap::array::ChunkFormat;
use molap::core::{
    compute_cube, consolidate_pipelined, DimGrouping, OlapArray, PrefetchPlan, Query,
};
use molap::datagen::{generate, AttrLayout, CubeSpec};
use molap::storage::{BufferPool, MemDisk};

fn main() {
    let spec = CubeSpec {
        dim_sizes: vec![36, 30, 24, 20],
        level_cards: vec![vec![6, 2], vec![5, 2], vec![4, 2], vec![4, 2]],
        valid_cells: 40_000,
        seed: 7,
        n_measures: 1,
        independent_last_level: false,
        layout: AttrLayout::Blocked,
    };
    let cube = generate(&spec).expect("generate");
    let pool = Arc::new(BufferPool::with_bytes(Arc::new(MemDisk::new()), 16 << 20));
    let adt = OlapArray::build(
        pool,
        cube.dims.clone(),
        &[12, 10, 8, 10],
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .expect("build");
    println!(
        "cube {:?}, {} valid cells ({:.1}% dense)\n",
        spec.dim_sizes,
        adt.valid_cells(),
        adt.array().density() * 100.0
    );

    // CUBE over all four h1 attributes: 16 group-bys.
    let query = Query::new(vec![DimGrouping::Level(0); 4]);

    let start = Instant::now();
    let slices = compute_cube(&adt, &query).expect("compute cube");
    let cube_ms = start.elapsed().as_secs_f64() * 1e3;

    // The naive alternative: 16 independent consolidations.
    let start = Instant::now();
    for slice in &slices {
        let mut group_by = Vec::new();
        let mut gi = 0;
        for g in &query.group_by {
            group_by.push(match g {
                DimGrouping::Drop => DimGrouping::Drop,
                g => {
                    let active = slice.mask[gi];
                    gi += 1;
                    if active {
                        *g
                    } else {
                        DimGrouping::Drop
                    }
                }
            });
        }
        let direct = adt.consolidate(&Query::new(group_by)).expect("direct");
        assert_eq!(
            &direct, &slice.result,
            "CUBE slice must equal direct GROUP BY"
        );
    }
    let naive_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("all {} group-bys of the 4-attribute lattice:", slices.len());
    println!("{:<28} {:>8}", "grouping (1=grouped)", "rows");
    for slice in &slices {
        let mask: String = slice
            .mask
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        println!("{mask:<28} {:>8}", slice.result.rows().len());
    }
    println!(
        "\nCUBE operator: {cube_ms:.1} ms   (16 independent consolidations: {naive_ms:.1} ms, \
         same results verified)"
    );

    // Pipelined scan of the finest consolidation.
    println!("\npipelined consolidation of the finest group-by:");
    let sequential = adt.consolidate(&query).expect("seq");
    let plan = PrefetchPlan::auto(adt.array().shape().num_chunks());
    for workers in [1, 2, 4, 8] {
        let start = Instant::now();
        let res = consolidate_pipelined(&adt, &query, workers, plan).expect("pipelined");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(res, sequential);
        println!("  {workers} worker(s): {ms:>7.1} ms");
    }

    // Memory-bounded mode: identical rows under a tiny result budget.
    let bounded = adt
        .consolidate_bounded(&query, 64)
        .expect("bounded consolidation");
    assert_eq!(bounded, sequential);
    println!(
        "\nmemory-bounded consolidation (64-cell bands) matches: {} rows",
        bounded.rows().len()
    );
}
