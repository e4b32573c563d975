//! Multi-threaded stress over one shared [`Database`]: concurrent full,
//! selection, pipelined, and SQL consolidations must all return the
//! sequential answers while racing on the sharded buffer pool and the
//! shared decoded-chunk cache.
//!
//! Run with `--features lock-order-tracking` to additionally have the
//! vendored `parking_lot` panic on any lock acquisition that inverts
//! the declared order (the runtime counterpart of molap-lint's static
//! `lock-order` rule).

use std::sync::Arc;

use molap_array::ChunkFormat;
use molap_core::{
    consolidate_auto, consolidate_pipelined, AttrRef, ConsolidationResult, Database, DimGrouping,
    DimensionTable, OlapArray, PrefetchPlan, Query, Selection,
};

const THREADS: usize = 8;
const ROUNDS: usize = 12;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("molap-stress-{}-{tag}.db", std::process::id()))
}

fn build_sales(db: &Database) -> OlapArray {
    let dims = vec![
        DimensionTable::build(
            "store",
            &(0..30i64).collect::<Vec<_>>(),
            vec![("region", (0..30i64).map(|k| k / 10).collect())],
        )
        .unwrap(),
        DimensionTable::build(
            "product",
            &(0..20i64).collect::<Vec<_>>(),
            vec![("ptype", (0..20i64).map(|k| k % 4).collect())],
        )
        .unwrap(),
    ];
    let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..30i64)
        .flat_map(|x| (0..20i64).map(move |y| (vec![x, y], vec![x * 31 + y])))
        .filter(|(k, _)| (k[0] * 13 + k[1] * 7) % 3 != 0)
        .collect();
    OlapArray::build(
        db.pool().clone(),
        dims,
        &[7, 6],
        ChunkFormat::ChunkOffset,
        cells,
        1,
    )
    .unwrap()
}

#[test]
fn mixed_concurrent_consolidations_match_sequential() {
    let path = temp_path("mixed");
    let db = Arc::new(Database::create(&path, 1 << 20).unwrap());
    let adt = build_sales(&db);
    db.save_olap_array("sales", &adt).unwrap();
    db.checkpoint().unwrap();

    // The query mix, with reference answers computed up front.
    let full = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
    let keyed = Query::new(vec![DimGrouping::Key, DimGrouping::Drop]);
    let selected = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
        .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2]))
        .with_selection(1, Selection::eq(AttrRef::Level(0), 1));
    let queries: Vec<(Query, ConsolidationResult)> = [full, keyed, selected]
        .into_iter()
        .map(|q| {
            let expect = adt.consolidate(&q).unwrap();
            (q, expect)
        })
        .collect();
    let queries = Arc::new(queries);
    let sql = "SELECT SUM(volume), store.region FROM sales GROUP BY store.region";
    let sql_expect = db.sql(sql, &["volume"]).unwrap();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            let queries = queries.clone();
            let sql_expect = sql_expect.clone();
            std::thread::spawn(move || {
                // Each thread reopens the ADT, as a session would.
                let adt = db.open_olap_array("sales").unwrap();
                for i in 0..ROUNDS {
                    let (q, expect) = &queries[(t + i) % queries.len()];
                    let got = match i % 4 {
                        0 => adt.consolidate(q).unwrap(),
                        1 => {
                            let plan = PrefetchPlan::auto(adt.array().shape().num_chunks());
                            consolidate_pipelined(&adt, q, 1 + (t + i) % 4, plan).unwrap()
                        }
                        2 => consolidate_auto(&adt, q).unwrap(),
                        _ => {
                            assert_eq!(db.sql(sql, &["volume"]).unwrap(), sql_expect);
                            continue;
                        }
                    };
                    assert_eq!(&got, expect, "thread {t} round {i} diverged on {q:?}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Counter consistency across all the racing: every chunk-cache
    // lookup is exactly one hit or one miss, and the workload was hot
    // enough that the cache did real work.
    let s = db.pool().stats().snapshot();
    assert_eq!(
        s.chunk_cache_lookups(),
        s.chunk_cache_hits + s.chunk_cache_misses
    );
    assert!(s.chunk_cache_hits > 0, "hot reruns must hit the cache");
    assert!(s.chunk_cache_misses > 0, "cold first reads must miss");
    let shard_totals: u64 = db
        .pool()
        .shard_stats()
        .iter()
        .map(|sh| sh.hits + sh.misses)
        .sum();
    assert!(shard_totals > 0, "pool shards must have seen traffic");
    // No structure reads optimistically: the twelve `olc` rows the
    // STATS layout keeps read zero after all this traffic.
    let olc = [
        s.opt_pool_reads,
        s.opt_pool_restarts,
        s.opt_pool_escalations,
        s.opt_chunk_reads,
        s.opt_chunk_restarts,
        s.opt_chunk_escalations,
        s.opt_result_reads,
        s.opt_result_restarts,
        s.opt_result_escalations,
        s.opt_btree_reads,
        s.opt_btree_restarts,
        s.opt_btree_escalations,
    ];
    assert_eq!(olc, [0; 12], "{s:?}");

    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}

/// A writer committing durable batches races pipelined and cached
/// readers. Every batch rewrites the array's first cell (chunk 0) and
/// last cell (the last chunk) together, so any reader that tears a
/// scan across a commit — mixing chunk 0 of one state with the last
/// chunk of another — produces a total outside the per-boundary set.
/// Under `--features lock-order-tracking` this also certifies the
/// whole write path (commit → catalog → results →
/// versions → LOB → pool) against the declared lock order while
/// readers hold pool and cache locks concurrently.
///
/// Here the readers' chunks stay warm: after the first scan every
/// chunk but the two a batch rewrites is resolved from the chunk cache
/// before the pipeline starts, so a commit landing mid-scan meets
/// resolved chunks, pinned pre-images and producer reads in one scan.
///
/// Each race runs on an eight-chunk array (16×8 cells) and on a
/// four-chunk one (16×4): `consolidate_auto` must pin a snapshot
/// however few chunks the array has.
#[test]
fn writer_vs_pipelined_readers_see_only_batch_boundaries() {
    writer_vs_pipelined_readers(false, 8);
    writer_vs_pipelined_readers(false, 4);
}

/// The same race with the readers' chunks cold: every scan starts by
/// clearing the pool (when no page is pinned), so the chunk cache's
/// epoch moves, nothing is resident and every chunk goes through a
/// producer's bypass read while the writer overwrites in place.
#[test]
fn writer_vs_cold_pipelined_readers_see_only_batch_boundaries() {
    writer_vs_pipelined_readers(true, 8);
    writer_vs_pipelined_readers(true, 4);
}

/// The race over a 16×`products` array in `[4, 4]` chunks.
fn writer_vs_pipelined_readers(cold: bool, products: i64) {
    use molap_core::{shared_result_cache, AggValue, WriteBatch};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const BATCHES: i64 = 10;
    const READERS: usize = 4;
    const READS: usize = 25;

    let mode = if cold { "writer-cold" } else { "writer" };
    let path = temp_path(&format!("{mode}-{products}"));
    let db = Arc::new(Database::create(&path, 1 << 20).unwrap());
    let dims = vec![
        DimensionTable::build(
            "store",
            &(0..16i64).collect::<Vec<_>>(),
            vec![("region", (0..16i64).map(|k| k / 4).collect())],
        )
        .unwrap(),
        DimensionTable::build(
            "product",
            &(0..products).collect::<Vec<_>>(),
            vec![("ptype", (0..products).map(|k| k % 2).collect())],
        )
        .unwrap(),
    ];
    let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..16i64)
        .flat_map(|x| (0..products).map(move |y| (vec![x, y], vec![x * products + y])))
        .collect();
    let base_sum: i64 = cells.iter().map(|(_, v)| v[0]).sum();
    let last = [15, products - 1];
    let last_value = 15 * products + products - 1;
    // Every cell is valid and every batch only updates existing ones,
    // so each chunk-offset rewrite keeps its length and lands in place.
    let adt = OlapArray::build(
        db.pool().clone(),
        dims,
        &[4, 4],
        ChunkFormat::ChunkOffset,
        cells,
        1,
    )
    .unwrap();
    let written = |adt: &OlapArray| {
        [[0, 0], [15, products as u32 - 1]].map(|coords| {
            let (chunk_no, _) = adt.array().shape().locate(&coords).unwrap();
            adt.array().chunk_key(chunk_no).unwrap()
        })
    };
    let locations = written(&adt);
    db.save_olap_array("wsales", &adt).unwrap();
    db.checkpoint().unwrap();

    // Total sums at every batch boundary: batch r sets cell [0,0]
    // (originally 0) to r*100_000 and the last cell to r*100_000 + 7.
    let valid: std::collections::HashSet<i64> = (0..=BATCHES)
        .map(|r| {
            if r == 0 {
                base_sum
            } else {
                base_sum - last_value + (r * 100_000) + (r * 100_000 + 7)
            }
        })
        .collect();

    let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]);
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let writer_done = Arc::new(AtomicBool::new(false));

    let writer = {
        let db = db.clone();
        let barrier = barrier.clone();
        let writer_done = writer_done.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for r in 1..=BATCHES {
                let mut batch = WriteBatch::new();
                batch.set(&[0, 0], &[r * 100_000]);
                batch.set(&last, &[r * 100_000 + 7]);
                let receipt = db.write_batch("wsales", &batch).unwrap();
                assert_eq!(receipt.cells_written, 2);
            }
            writer_done.store(true, Ordering::SeqCst);
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let db = db.clone();
            let q = q.clone();
            let valid = valid.clone();
            let barrier = barrier.clone();
            let writer_done = writer_done.clone();
            std::thread::spawn(move || {
                // One handle for the whole run: in-place commits are
                // visible through it, bridged by pinned pre-images
                // while a scan is mid-flight.
                let adt = db.open_olap_array("wsales").unwrap();
                let results = shared_result_cache(db.pool()).unwrap();
                let pipelined = t % 2 == 0;
                barrier.wait();
                // The `consolidate_auto` readers keep scanning until
                // the writer is done, so every commit races a scan.
                for i in 0.. {
                    if i >= READS && (pipelined || writer_done.load(Ordering::SeqCst)) {
                        break;
                    }
                    if cold {
                        // Fails while a page is pinned; the next round
                        // tries again.
                        let _ = db.pool().clear();
                    }
                    let got = if pipelined {
                        consolidate_pipelined(&adt, &q, 2, PrefetchPlan::new(2, 4)).unwrap()
                    } else {
                        // A cached cube would answer without a scan.
                        results.bump_write_gen();
                        consolidate_auto(&adt, &q).unwrap()
                    };
                    let sum = match got.rows()[0].values[0] {
                        AggValue::Int(v) => v,
                        ref other => panic!("unexpected aggregate {other:?}"),
                    };
                    assert!(
                        valid.contains(&sum),
                        "reader {t} round {i} tore a scan: total {sum} is not \
                         at any batch boundary"
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for h in readers {
        h.join().unwrap();
    }

    // Quiesced: a fresh handle must see exactly the final batch, with
    // both written chunks still where they were built.
    let adt = db.open_olap_array("wsales").unwrap();
    assert_eq!(written(&adt), locations, "an overwrite was not in place");
    let final_sum = match adt.consolidate(&q).unwrap().rows()[0].values[0] {
        AggValue::Int(v) => v,
        ref other => panic!("unexpected aggregate {other:?}"),
    };
    assert_eq!(
        final_sum,
        base_sum - last_value + BATCHES * 100_000 + BATCHES * 100_000 + 7
    );

    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}

/// The relocation variant of the writer-vs-readers race, over
/// [`ChunkFormat::ChunkOffset`]. Every batch *inserts* a previously
/// empty cell into chunk 0, so its encoded length grows and
/// `LobStore::overwrite` must relocate the chunk to a fresh extent —
/// the case where version pins keyed by storage location silently
/// stopped shielding anything (the pinned pre-image lived at the old
/// location while readers resolved the new one). With pins keyed by
/// logical chunk identity, readers reopening the array mid-batch must
/// still land on batch-boundary totals. The same batch also rewrites
/// the last cell in place, so each commit mixes a relocating and an
/// in-place overwrite.
#[test]
fn chunkoffset_relocating_writes_vs_reopening_readers() {
    use molap_core::{AggValue, WriteBatch};
    use std::sync::Barrier;

    const BATCHES: i64 = 10;
    const READERS: usize = 4;
    const READS: usize = 20;

    // One fresh coordinate per batch, all inside chunk 0 (x, y < 4):
    // inserting it grows chunk 0's valid-cell count and forces the
    // overwrite to relocate.
    const INSERTS: [[i64; 2]; BATCHES as usize] = [
        [1, 1],
        [1, 2],
        [1, 3],
        [2, 1],
        [2, 2],
        [2, 3],
        [3, 1],
        [3, 2],
        [3, 3],
        [2, 0],
    ];

    let path = temp_path("reloc");
    let db = Arc::new(Database::create(&path, 1 << 20).unwrap());
    let dims = vec![
        DimensionTable::build(
            "store",
            &(0..16i64).collect::<Vec<_>>(),
            vec![("region", (0..16i64).map(|k| k / 4).collect())],
        )
        .unwrap(),
        DimensionTable::build(
            "product",
            &(0..8i64).collect::<Vec<_>>(),
            vec![("ptype", (0..8i64).map(|k| k % 2).collect())],
        )
        .unwrap(),
    ];
    // Start with every cell valid *except* the reserved insert slots.
    let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..16i64)
        .flat_map(|x| (0..8i64).map(move |y| (vec![x, y], vec![x * 8 + y])))
        .filter(|(k, _)| !INSERTS.contains(&[k[0], k[1]]))
        .collect();
    let base_sum: i64 = cells.iter().map(|(_, v)| v[0]).sum();
    let adt = OlapArray::build(
        db.pool().clone(),
        dims,
        &[4, 4],
        ChunkFormat::ChunkOffset,
        cells,
        1,
    )
    .unwrap();
    db.save_olap_array("rsales", &adt).unwrap();
    db.checkpoint().unwrap();

    // Batch r sets [0,0] (originally 0) to r*100_000, [15,7]
    // (originally 127) to r*100_000 + 7, and inserts INSERTS[r-1]
    // with value r*1_000; boundary r carries all inserts up to r.
    let valid: std::collections::HashSet<i64> = (0..=BATCHES)
        .map(|r| {
            if r == 0 {
                base_sum
            } else {
                base_sum - 127 + 2 * r * 100_000 + 7 + 1_000 * r * (r + 1) / 2
            }
        })
        .collect();
    assert_eq!(valid.len(), BATCHES as usize + 1);

    let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]);
    let barrier = Arc::new(Barrier::new(READERS + 1));

    let writer = {
        let db = db.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for r in 1..=BATCHES {
                let mut batch = WriteBatch::new();
                batch.set(&[0, 0], &[r * 100_000]);
                batch.set(&[15, 7], &[r * 100_000 + 7]);
                batch.set(&INSERTS[(r - 1) as usize], &[r * 1_000]);
                let receipt = db.write_batch("rsales", &batch).unwrap();
                assert_eq!(receipt.cells_written, 3);
            }
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let db = db.clone();
            let q = q.clone();
            let valid = valid.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..READS {
                    // Reopen per read, as sessions do: a handle's chunk
                    // directory is frozen at open, so only a fresh open
                    // observes relocated chunks. An open that races a
                    // batch mid-commit picks up staged directory
                    // entries, and the snapshot-pinned scan below must
                    // resolve those chunks back to the pre-batch
                    // images via their logical version pins.
                    let adt = db.open_olap_array("rsales").unwrap();
                    let got = consolidate_pipelined(&adt, &q, 2, PrefetchPlan::new(2, 4)).unwrap();
                    let sum = match got.rows()[0].values[0] {
                        AggValue::Int(v) => v,
                        ref other => panic!("unexpected aggregate {other:?}"),
                    };
                    assert!(
                        valid.contains(&sum),
                        "reader {t} round {i} tore a scan: total {sum} is not \
                         at any batch boundary"
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for h in readers {
        h.join().unwrap();
    }

    // Quiesced: a fresh handle sees the final batch exactly.
    let adt = db.open_olap_array("rsales").unwrap();
    let final_sum = match adt.consolidate(&q).unwrap().rows()[0].values[0] {
        AggValue::Int(v) => v,
        ref other => panic!("unexpected aggregate {other:?}"),
    };
    assert_eq!(
        final_sum,
        base_sum - 127 + 2 * BATCHES * 100_000 + 7 + 1_000 * BATCHES * (BATCHES + 1) / 2
    );
    assert_eq!(adt.array().valid_cells(), 16 * 8);

    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(wal);
}
