//! End-to-end integration: SQL statements against a persistent catalog
//! must match programmatic queries across process "restarts" (reopen),
//! for both physical designs.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use molap::array::ChunkFormat;
use molap::core::{
    compute_cube, consolidate_pipelined, parse_query, starjoin_consolidate, AttrRef, Database,
    DimGrouping, OlapArray, PrefetchPlan, Query, Selection, StarSchema, WriteBatch,
};
use molap::datagen::{generate, AttrLayout, CubeSpec};
use molap::storage::{BufferPool, MemDisk};

fn spec() -> CubeSpec {
    CubeSpec {
        dim_sizes: vec![16, 12, 10],
        level_cards: vec![vec![4, 2], vec![3, 2], vec![2, 2]],
        valid_cells: 400,
        seed: 123,
        n_measures: 1,
        independent_last_level: false,
        layout: AttrLayout::Blocked,
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("molap-it-{}-{tag}.db", std::process::id()))
}

#[test]
fn sql_matches_programmatic_queries() {
    let cube = generate(&spec()).unwrap();
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
    let adt = OlapArray::build(
        pool.clone(),
        cube.dims.clone(),
        &[8, 6, 5],
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    let schema = StarSchema::build(pool, cube.dims.clone(), cube.cells.iter().cloned(), 1).unwrap();

    let cases: Vec<(&str, Query)> = vec![
        (
            "SELECT SUM(volume), dim0.h01 FROM c GROUP BY dim0.h01",
            Query::new(vec![
                DimGrouping::Level(0),
                DimGrouping::Drop,
                DimGrouping::Drop,
            ]),
        ),
        (
            "SELECT SUM(volume) FROM c WHERE dim1.h12 = 1 AND dim2.h21 IN (0, 1) \
             GROUP BY dim0.h01, dim2.h21",
            Query::new(vec![
                DimGrouping::Level(0),
                DimGrouping::Drop,
                DimGrouping::Level(0),
            ])
            .with_selection(1, Selection::eq(AttrRef::Level(1), 1))
            .with_selection(2, Selection::in_list(AttrRef::Level(0), vec![0, 1])),
        ),
        (
            "SELECT SUM(volume), dim1.key FROM c GROUP BY dim1.key",
            Query::new(vec![DimGrouping::Drop, DimGrouping::Key, DimGrouping::Drop]),
        ),
    ];

    for (sql, expected_query) in cases {
        let stmt = parse_query(sql, &cube.dims, &["volume"]).unwrap();
        assert_eq!(stmt.query, expected_query, "{sql}");
        let via_sql_array = adt.consolidate(&stmt.query).unwrap();
        let programmatic = adt.consolidate(&expected_query).unwrap();
        assert_eq!(via_sql_array, programmatic);
        assert_eq!(
            starjoin_consolidate(&schema, &stmt.query).unwrap(),
            programmatic
        );
    }
}

#[test]
fn database_roundtrip_preserves_all_engines() {
    let path = temp_path("engines");
    let cube = generate(&spec()).unwrap();
    let q = "SELECT SUM(volume), dim0.h01, dim1.h11 FROM sales GROUP BY dim0.h01, dim1.h11";
    let expected;
    {
        let db = Database::create(&path, 4 << 20).unwrap();
        let adt = OlapArray::build(
            db.pool().clone(),
            cube.dims.clone(),
            &[8, 6, 5],
            ChunkFormat::ChunkOffset,
            cube.cells.iter().cloned(),
            1,
        )
        .unwrap();
        let schema = StarSchema::build(
            db.pool().clone(),
            cube.dims.clone(),
            cube.cells.iter().cloned(),
            1,
        )
        .unwrap();
        let indexes = molap::core::JoinBitmapIndexes::build(db.pool().clone(), &schema).unwrap();
        expected = db_expected(&adt);
        db.save_olap_array("sales", &adt).unwrap();
        db.save_star_schema("sales_rel", &schema).unwrap();
        db.save_bitmap_indexes("sales_bm", &indexes).unwrap();
        db.checkpoint().unwrap();
    }

    let db = Database::open(&path, 4 << 20).unwrap();
    let array_res = db.sql(q, &["volume"]).unwrap();
    assert_eq!(array_res, expected);
    let rel_res = db
        .sql(&q.replace("FROM sales", "FROM sales_rel"), &["volume"])
        .unwrap();
    assert_eq!(rel_res, expected);

    // Bitmap plan from reopened indexes.
    let schema = db.open_star_schema("sales_rel").unwrap();
    let indexes = db.open_bitmap_indexes("sales_bm").unwrap();
    let sel_q = Query::new(vec![
        DimGrouping::Level(0),
        DimGrouping::Drop,
        DimGrouping::Drop,
    ])
    .with_selection(1, Selection::eq(AttrRef::Level(0), 2));
    let adt = db.open_olap_array("sales").unwrap();
    assert_eq!(
        molap::core::bitmap_consolidate(&schema, &indexes, &sel_q).unwrap(),
        adt.consolidate(&sel_q).unwrap()
    );

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wal_recovers_a_torn_catalog_page() {
    use molap::storage::{PageBuf, Wal, PAGE_SIZE};

    let path = temp_path("crash");
    let wal_file = {
        let mut p = path.as_os_str().to_owned();
        p.push(".wal");
        std::path::PathBuf::from(p)
    };
    let cube = generate(&spec()).unwrap();
    {
        let db = Database::create(&path, 4 << 20).unwrap();
        let schema = StarSchema::build(
            db.pool().clone(),
            cube.dims.clone(),
            cube.cells.iter().cloned(),
            1,
        )
        .unwrap();
        db.save_star_schema("sales", &schema).unwrap();
        db.checkpoint().unwrap();
    }

    // Simulate a crash mid-flush: the WAL holds page 0's good image,
    // but the data file's page 0 write was torn (zeroed).
    let good_page0: Vec<u8> = std::fs::read(&path).unwrap()[..PAGE_SIZE].to_vec();
    {
        let wal = Wal::open(&wal_file).unwrap();
        let mut buf: PageBuf = [0u8; PAGE_SIZE];
        buf.copy_from_slice(&good_page0);
        wal.log_page(molap::storage::PageId(0), &buf).unwrap();
        wal.sync().unwrap();
    }
    {
        use std::os::unix::fs::FileExt;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&vec![0u8; PAGE_SIZE], 0).unwrap(); // torn write
    }
    // Without recovery this would fail with "bad magic"; open() replays
    // the WAL first and the catalog comes back intact.
    let db = Database::open(&path, 4 << 20).unwrap();
    assert!(db.contains("sales"));
    let res = db
        .sql("SELECT SUM(volume) FROM sales", &["volume"])
        .unwrap();
    assert_eq!(
        res.rows()[0].values[0].as_int().unwrap(),
        cube.total_volume()
    );

    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(&wal_file);
}

fn db_expected(adt: &OlapArray) -> molap::core::ConsolidationResult {
    adt.consolidate(&Query::new(vec![
        DimGrouping::Level(0),
        DimGrouping::Level(0),
        DimGrouping::Drop,
    ]))
    .unwrap()
}

#[test]
fn advanced_operators_agree_with_consolidate() {
    let cube = generate(&spec()).unwrap();
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
    let adt = OlapArray::build(
        pool,
        cube.dims.clone(),
        &[8, 6, 5],
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    let q = Query::new(vec![
        DimGrouping::Level(0),
        DimGrouping::Level(1),
        DimGrouping::Key,
    ]);
    let baseline = adt.consolidate(&q).unwrap();

    let plan = PrefetchPlan::auto(adt.array().shape().num_chunks());
    assert_eq!(consolidate_pipelined(&adt, &q, 4, plan).unwrap(), baseline);
    assert_eq!(adt.consolidate_bounded(&q, 10).unwrap(), baseline);

    let slices = compute_cube(&adt, &q).unwrap();
    assert_eq!(slices.len(), 8);
    assert_eq!(
        slices[0].result, baseline,
        "finest slice is the full group-by"
    );
    // Coarsest slice total equals the cube's total volume.
    assert_eq!(slices.last().unwrap().result.total(), cube.total_volume());
}

/// Two readers loop `Database::sql` while a writer commits twenty
/// single-cell inserting batches. A reader that opens the array between
/// a commit's catalog save and its publish reads the pre-batch state;
/// the cube it caches must never answer a statement sent after the
/// publish. After every commit, and at the end, `Database::sql` must
/// equal the reference consolidation of a freshly opened array.
#[test]
fn sql_never_serves_a_cube_from_before_a_commit() {
    let path = temp_path("race");
    let cube = generate(&spec()).unwrap();
    let q = "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01";
    let db = Database::create(&path, 4 << 20).unwrap();
    let adt = OlapArray::build(
        db.pool().clone(),
        cube.dims.clone(),
        &[8, 6, 5],
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    db.save_olap_array("sales", &adt).unwrap();
    db.checkpoint().unwrap();
    drop(adt);

    // Twenty empty cells, each filled by one batch.
    let taken: HashSet<&Vec<i64>> = cube.cells.iter().map(|(k, _)| k).collect();
    let keys = |d: usize| cube.dims[d].keys().to_vec();
    let holes: Vec<Vec<i64>> = keys(0)
        .into_iter()
        .flat_map(|a| keys(1).into_iter().map(move |b| (a, b)))
        .flat_map(|(a, b)| keys(2).into_iter().map(move |c| vec![a, b, c]))
        .filter(|k| !taken.contains(k))
        .take(20)
        .collect();
    assert_eq!(holes.len(), 20);

    let oracle = |db: &Database| {
        let adt = db.open_olap_array("sales").unwrap();
        let stmt = parse_query(q, adt.dims(), &["volume"]).unwrap();
        adt.consolidate(&stmt.query).unwrap()
    };
    let done = AtomicBool::new(false);
    let mut wrong = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    db.sql(q, &["volume"]).unwrap();
                }
            });
        }
        for (i, keys) in holes.iter().enumerate() {
            let mut batch = WriteBatch::new();
            batch.set(keys, &[1_000 + i as i64]);
            db.write_batch("sales", &batch).unwrap();
            if db.sql(q, &["volume"]).unwrap() != oracle(&db) {
                wrong.push(i);
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        wrong,
        Vec::<usize>::new(),
        "commits followed by a stale answer"
    );
    assert_eq!(db.sql(q, &["volume"]).unwrap(), oracle(&db));

    drop(db);
    std::fs::remove_file(&path).unwrap();
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}
