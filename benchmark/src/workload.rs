//! The four workloads: which cube, codec, pool and cache regime each
//! runs on, and the seeded statement and write scripts that drive it.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! the same cube, the same statements in the same order and the same
//! written cells.

use molap_core::{AggFunc, AttrRef, ChunkFormat, DimGrouping, Query, Selection};
use molap_datagen::CubeSpec;

/// Chunk shape giving the paper's 80/800 chunk counts (§5.5.1).
pub const CHUNK_DIMS: [u32; 4] = [20, 20, 20, 10];
/// Catalog name of the one array every workload queries.
pub const OBJECT: &str = "sales";
/// Measure names handed to the SQL front end.
pub const MEASURES: [&str; 1] = ["volume"];
/// Cells per `WRITE`: half overwrite existing cells, half insert.
pub const BATCH_CELLS: usize = 8;
/// `select_sweep` class weights, in statements of the 200-statement
/// script: Query 2, Query 3, wide range, IN-lists.
pub const SWEEP_WEIGHTS: [usize; 4] = [60, 60, 40, 40];

/// What the benchmark does to the server's caches before each request
/// (untimed), so that a workload measures the path it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Bump the result cache's write generation: every request is a
    /// real scan, over warm chunk and page caches.
    BumpResultGen,
    /// `BufferPool::clear`: every cache goes cold (EXPERIMENTS.md's
    /// cold definition).
    ClearPool,
    /// No manual cache control.
    Untouched,
}

/// The shape of a workload's request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Paper Query 1 repeated, then a tail of commits.
    Query1,
    /// The seeded selection script cycled, then a tail of commits.
    SelectSweep,
    /// 1 `WRITE` then 4 `QUERY`s, for the whole window.
    WriteMix,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub format: ChunkFormat,
    pub pool_bytes: usize,
    pub regime: Regime,
    pub traffic: Traffic,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "q1_warm",
        format: ChunkFormat::ChunkOffset,
        pool_bytes: 16 << 20,
        regime: Regime::BumpResultGen,
        traffic: Traffic::Query1,
    },
    Workload {
        name: "q1_cold",
        format: ChunkFormat::DiffSeq,
        pool_bytes: 4 << 20,
        regime: Regime::ClearPool,
        traffic: Traffic::Query1,
    },
    Workload {
        name: "select_sweep",
        format: ChunkFormat::ChunkOffset,
        pool_bytes: 16 << 20,
        regime: Regime::BumpResultGen,
        traffic: Traffic::SelectSweep,
    },
    Workload {
        name: "write_mix",
        format: ChunkFormat::ChunkOffset,
        pool_bytes: 16 << 20,
        regime: Regime::Untouched,
        traffic: Traffic::WriteMix,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The cube: Data Set 1 (40³×1000, 1 %) for the Query 1 workloads,
    /// Data Set 2 (40³×100, 10 %) with a 10-value selection attribute
    /// for the others. Both hold 640 000 valid cells.
    pub fn cube_spec(&self, seed: u64) -> CubeSpec {
        let mut spec = match self.traffic {
            Traffic::Query1 => CubeSpec::dataset1(1000),
            Traffic::SelectSweep | Traffic::WriteMix => {
                CubeSpec::dataset2(0.10).with_selection_cardinality(10)
            }
        };
        spec.seed = seed;
        spec
    }
}

/// SplitMix64: the benchmark's own generator, so scripts do not depend
/// on the repository's vendored `rand` stand-in.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One `QUERY`: the SQL text sent over the wire and the engine-neutral
/// query built beside it (not parsed from it), which the oracle runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statement {
    pub class: &'static str,
    pub sql: String,
    pub query: Query,
}

const H1: [&str; 4] = ["dim0.h01", "dim1.h11", "dim2.h21", "dim3.h31"];
const H2: [&str; 4] = ["dim0.h02", "dim1.h12", "dim2.h22", "dim3.h32"];

fn select_sql(agg: &str, predicates: &[String], group_by: &[&str]) -> String {
    let mut sql = format!("SELECT {agg}(volume)");
    for col in group_by {
        sql.push_str(", ");
        sql.push_str(col);
    }
    sql.push_str(" FROM ");
    sql.push_str(OBJECT);
    if !predicates.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&predicates.join(" AND "));
    }
    if !group_by.is_empty() {
        sql.push_str(" GROUP BY ");
        sql.push_str(&group_by.join(", "));
    }
    sql
}

/// Paper Query 1: group by every dimension's `h1`, sum the volume.
pub fn query1() -> Statement {
    Statement {
        class: "query1",
        sql: select_sql("SUM", &[], &H1),
        query: Query::new(vec![DimGrouping::Level(0); 4]),
    }
}

/// The `select_sweep` script: 200 statements in a seeded order,
/// [`SWEEP_WEIGHTS`] of each class.
pub fn select_sweep_script(seed: u64) -> Vec<Statement> {
    let mut rng = Rng::new(seed ^ 0x5e1e_c75e_eb00_0001);
    let mut classes: Vec<usize> = SWEEP_WEIGHTS
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
        .collect();
    // Fisher-Yates.
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    classes
        .into_iter()
        .map(|class| match class {
            0 => {
                // Query 2: equality on the selection attribute of all
                // four dimensions.
                let mut query = Query::new(vec![DimGrouping::Level(0); 4]);
                let mut preds = Vec::new();
                for (d, column) in H2.iter().enumerate() {
                    let v = rng.below(10) as i64;
                    query = query.with_selection(d, Selection::eq(AttrRef::Level(1), v));
                    preds.push(format!("{column} = {v}"));
                }
                Statement {
                    class: "query2",
                    sql: select_sql("SUM", &preds, &H1),
                    query,
                }
            }
            1 => {
                // Query 3: three dimensions selected, the fourth
                // aggregated away.
                let mut group = vec![DimGrouping::Level(0); 3];
                group.push(DimGrouping::Drop);
                let mut query = Query::new(group);
                let mut preds = Vec::new();
                for (d, column) in H2.iter().enumerate().take(3) {
                    let v = rng.below(10) as i64;
                    query = query.with_selection(d, Selection::eq(AttrRef::Level(1), v));
                    preds.push(format!("{column} = {v}"));
                }
                Statement {
                    class: "query3",
                    sql: select_sql("SUM", &preds, &H1[..3]),
                    query,
                }
            }
            2 => {
                // Half of dim3's keys: wide enough for the planner's
                // HBI route.
                let lo = rng.below(51) as i64;
                let hi = lo + 49;
                Statement {
                    class: "wide_range",
                    sql: select_sql("SUM", &[format!("dim3.key BETWEEN {lo} AND {hi}")], &H1),
                    query: Query::new(vec![DimGrouping::Level(0); 4])
                        .with_selection(3, Selection::range(AttrRef::Key, lo, hi)),
                }
            }
            _ => {
                // 10 scattered keys on each of three dimensions: a
                // 1000-coordinate cross-product per dim3 slab.
                let mut query = Query::new(vec![DimGrouping::Level(0); 4]);
                let mut preds = Vec::new();
                for d in 0..3 {
                    let mut keys: Vec<i64> = (0..40).collect();
                    for i in (1..keys.len()).rev() {
                        keys.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    keys.truncate(10);
                    keys.sort_unstable();
                    let list: Vec<String> = keys.iter().map(i64::to_string).collect();
                    preds.push(format!("dim{d}.key IN ({})", list.join(", ")));
                    query = query.with_selection(d, Selection::in_list(AttrRef::Key, keys));
                }
                Statement {
                    class: "in_lists",
                    sql: select_sql("SUM", &preds, &H1),
                    query,
                }
            }
        })
        .collect()
}

/// One of `write_mix`'s query shapes: what it groups by and which
/// aggregate it asks for, so the model can keep its answer current.
#[derive(Clone, Debug)]
pub struct Shape {
    pub statement: Statement,
    /// Per dimension, the hierarchy level grouped by (`None` = dropped).
    pub levels: [Option<usize>; 4],
    pub agg: AggFunc,
}

/// `write_mix`'s six query shapes. Shape 0 (the grand total) is asked
/// after every commit; the other five rotate through the remaining
/// three slots of each cycle. The SQL front end takes one aggregate per
/// measure, so the grand total's SUM, MIN and MAX are three statements.
pub fn write_mix_shapes() -> Vec<Shape> {
    let shape = |class, agg_sql: &str, agg, levels: [Option<usize>; 4]| {
        let columns: Vec<&str> = (0..4)
            .filter_map(|d| levels[d].map(|l| if l == 0 { H1[d] } else { H2[d] }))
            .collect();
        let group = levels
            .iter()
            .map(|l| l.map_or(DimGrouping::Drop, DimGrouping::Level))
            .collect();
        Shape {
            statement: Statement {
                class,
                sql: select_sql(agg_sql, &[], &columns),
                query: Query::new(group).with_aggs(vec![agg]),
            },
            levels,
            agg,
        }
    };
    vec![
        shape("total_sum", "SUM", AggFunc::Sum, [None; 4]),
        shape("h1x4_sum", "SUM", AggFunc::Sum, [Some(0); 4]),
        shape("h2x4_sum", "SUM", AggFunc::Sum, [Some(1); 4]),
        shape(
            "h1x2_count",
            "COUNT",
            AggFunc::Count,
            [Some(0), Some(0), None, None],
        ),
        shape("total_min", "MIN", AggFunc::Min, [None; 4]),
        shape("total_max", "MAX", AggFunc::Max, [None; 4]),
    ]
}

/// The cube's cells as parallel arrays sorted by linear position: what
/// the write generator and the model need, at a fraction of the
/// generator's `Vec<(Vec, Vec)>` footprint.
pub struct Cells {
    pub dim_sizes: [u64; 4],
    pub positions: Vec<u64>,
    pub values: Vec<i64>,
}

impl Cells {
    pub fn from_generated(spec: &CubeSpec, cells: &[(Vec<i64>, Vec<i64>)]) -> Cells {
        let mut dim_sizes = [0u64; 4];
        for (d, &s) in spec.dim_sizes.iter().enumerate() {
            dim_sizes[d] = s as u64;
        }
        let mut out = Cells {
            dim_sizes,
            positions: Vec::with_capacity(cells.len()),
            values: Vec::with_capacity(cells.len()),
        };
        for (keys, measures) in cells {
            out.positions.push(out.position(keys));
            out.values.push(measures[0]);
        }
        debug_assert!(out.positions.windows(2).all(|w| w[0] < w[1]));
        out
    }

    pub fn total_cells(&self) -> u64 {
        self.dim_sizes.iter().product()
    }

    /// Row-major linear position of a key vector (keys are row numbers
    /// in the generated dimension tables).
    pub fn position(&self, keys: &[i64]) -> u64 {
        keys.iter()
            .zip(self.dim_sizes)
            .fold(0, |pos, (&k, size)| pos * size + k as u64)
    }

    pub fn keys(&self, mut pos: u64) -> Vec<i64> {
        let mut keys = vec![0i64; 4];
        for d in (0..4).rev() {
            keys[d] = (pos % self.dim_sizes[d]) as i64;
            pos /= self.dim_sizes[d];
        }
        keys
    }

    /// The generated value at `pos`, if the cell is valid.
    pub fn initial(&self, pos: u64) -> Option<i64> {
        self.positions
            .binary_search(&pos)
            .ok()
            .map(|i| self.values[i])
    }
}

/// The seeded stream of write batches: each holds
/// [`BATCH_CELLS`]` / 2` overwrites of generated cells and as many
/// inserts at positions the generator left empty, all distinct within
/// the batch, values in the generator's own 1..=99 range.
pub struct WriteGen {
    rng: Rng,
}

impl WriteGen {
    pub fn new(seed: u64) -> Self {
        WriteGen {
            rng: Rng::new(seed ^ 0x3717_e5ce_1150_0002),
        }
    }

    pub fn next_batch(&mut self, cells: &Cells) -> Vec<(Vec<i64>, Vec<i64>)> {
        let mut positions: Vec<u64> = Vec::with_capacity(BATCH_CELLS);
        while positions.len() < BATCH_CELLS {
            let overwrite = positions.len() < BATCH_CELLS / 2;
            let pos = if overwrite {
                cells.positions[self.rng.below(cells.positions.len() as u64) as usize]
            } else {
                self.rng.below(cells.total_cells())
            };
            let fresh = overwrite || cells.initial(pos).is_none();
            if fresh && !positions.contains(&pos) {
                positions.push(pos);
            }
        }
        positions
            .into_iter()
            .map(|pos| (cells.keys(pos), vec![1 + self.rng.below(99) as i64]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cells() -> Cells {
        Cells {
            dim_sizes: [4, 4, 4, 10],
            positions: (0..640).filter(|p| p % 3 == 0).collect(),
            values: (0..640)
                .filter(|p| p % 3 == 0)
                .map(|p| p as i64 % 99 + 1)
                .collect(),
        }
    }

    #[test]
    fn same_seed_gives_the_same_statement_script() {
        assert_eq!(select_sweep_script(7), select_sweep_script(7));
        assert_ne!(select_sweep_script(7), select_sweep_script(8));
    }

    #[test]
    fn script_has_the_declared_class_weights() {
        let script = select_sweep_script(1);
        assert_eq!(script.len(), 200);
        for (class, want) in ["query2", "query3", "wide_range", "in_lists"]
            .iter()
            .zip(SWEEP_WEIGHTS)
        {
            assert_eq!(script.iter().filter(|s| s.class == *class).count(), want);
        }
    }

    #[test]
    fn same_seed_gives_the_same_write_cells() {
        let cells = tiny_cells();
        let batches = |seed| {
            let mut gen = WriteGen::new(seed);
            (0..5).map(|_| gen.next_batch(&cells)).collect::<Vec<_>>()
        };
        assert_eq!(batches(3), batches(3));
        assert_ne!(batches(3), batches(4));
    }

    #[test]
    fn batches_are_half_overwrites_half_inserts_and_distinct() {
        let cells = tiny_cells();
        let mut gen = WriteGen::new(11);
        for _ in 0..50 {
            let batch = gen.next_batch(&cells);
            assert_eq!(batch.len(), BATCH_CELLS);
            let positions: Vec<u64> = batch.iter().map(|(k, _)| cells.position(k)).collect();
            let overwrites = positions
                .iter()
                .filter(|&&p| cells.initial(p).is_some())
                .count();
            assert_eq!(overwrites, BATCH_CELLS / 2);
            let mut unique = positions.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), BATCH_CELLS);
            assert!(batch.iter().all(|(_, v)| (1..=99).contains(&v[0])));
        }
    }

    #[test]
    fn positions_round_trip_through_keys() {
        let cells = tiny_cells();
        for pos in [0, 1, 9, 10, 639] {
            assert_eq!(cells.position(&cells.keys(pos)), pos);
        }
    }
}
