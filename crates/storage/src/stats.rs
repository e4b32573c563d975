//! I/O statistics counters.
//!
//! The paper's performance argument is partly a *footprint* argument: the
//! compressed array is smaller than the fact file, so scanning it costs
//! fewer I/Os. Absolute 1997 wall-clock times are not reproducible on
//! modern hardware, so the benchmark harness reports these counters next
//! to wall time; the I/O ratios are hardware-independent.
//!
//! Besides page-level I/O, the counters track the decoded-chunk cache
//! and the chunk prefetch pipeline (both maintained by the array layer,
//! which lacks a shared home of its own — the cache and the prefetcher
//! are pool-scoped, so their counters live with the pool's).
//!
//! The table below is the only declaration of a pool counter: its row
//! order is the `STATS` wire order, and its groups are the lines of the
//! `.stats` printout ([`PoolReport`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::PAGE_SIZE;

crate::counter_set! {
    /// Thread-safe I/O counters owned by a [`crate::BufferPool`].
    #[derive(Debug)]
    pub struct IoStats {
        /// The last page read, to classify the next read as sequential.
        /// Chosen so no first read can look sequential.
        last_read_pid: AtomicU64 = AtomicU64::new(u64::MAX - 1),
    }
    /// A point-in-time copy of [`IoStats`], with delta arithmetic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct IoSnapshot {}

    "pool I/O" {
        /// Page requests served by the pool (hits + misses).
        logical_reads: sum "logical",
        /// Page reads that went to the disk manager.
        physical_reads: sum "physical",
        /// Physical reads whose page directly follows the previous one
        /// (subset of `physical_reads`).
        seq_physical_reads: sum "sequential",
        /// Dirty pages written back to the disk manager.
        physical_writes: sum "writes",
        /// Frames recycled by the clock hand.
        evictions: sum "evictions",
    }
    "chunk cache" {
        /// Decoded-chunk cache lookups that found a live entry.
        chunk_cache_hits: sum "hits",
        /// Decoded-chunk cache lookups that had to decode.
        chunk_cache_misses: sum "misses",
        /// Decoded chunks evicted to stay under the cache's byte cap.
        chunk_cache_evictions: sum "evicted",
    }
    "prefetch" {
        /// Chunks handed to a prefetcher thread (read + decode started).
        prefetch_issued: sum "issued",
        /// Prefetched chunks consumed by a consolidation worker.
        prefetch_hits: sum "delivered",
        /// Prefetched chunks decoded but never consumed (cancellation).
        prefetch_wasted: sum "wasted",
        /// High-water mark of the prefetch delivery queue's depth since
        /// the pool was created.
        prefetch_queue_peak: gauge "queue peak",
    }
    "result cache" {
        /// Result-cube cache lookups answered by an exact cached cube.
        result_cache_hits: sum "hits",
        /// Result-cube cache lookups that found nothing usable.
        result_cache_misses: sum "misses",
        /// Results derived from a finer cached cube by rollup
        /// subsumption (counted *instead of* a hit or miss).
        result_cache_derived: sum "derived (rollup)",
        /// Cached result cubes evicted for the byte budget.
        result_cache_evictions: sum "evicted",
        /// Cache-wide invalidations observed (writes / pool clears).
        result_cache_invalidations: sum "invalidations",
    }
    "writes" {
        /// Write batches committed through the batched write path.
        write_batches: sum "batches",
        /// Cells mutated by committed write batches.
        write_cells: sum "cells",
        /// Cached result cubes patched in place by delta maintenance.
        result_cache_patched: sum "cubes patched",
        /// Cached result cubes dropped by delta maintenance (MIN/MAX
        /// shrinking update → recompute on next lookup).
        result_cache_fallbacks: sum "recompute fallbacks",
    }
    // Nothing writes the twelve `olc` rows: no structure has an
    // optimistic read path any more. They stay, always zero, because
    // the STATS wire layout and the benchmark's trace both read them;
    // removing them is a protocol change.
    "olc pool" {
        /// Unused: always zero (see above).
        opt_pool_reads: sum "reads",
        /// Unused: always zero (see above).
        opt_pool_restarts: sum "restarts",
        /// Unused: always zero (see above).
        opt_pool_escalations: sum "escalations",
    }
    "olc chunks" {
        /// Unused: always zero (see above).
        opt_chunk_reads: sum "reads",
        /// Unused: always zero (see above).
        opt_chunk_restarts: sum "restarts",
        /// Unused: always zero (see above).
        opt_chunk_escalations: sum "escalations",
    }
    "olc results" {
        /// Unused: always zero (see above).
        opt_result_reads: sum "reads",
        /// Unused: always zero (see above).
        opt_result_restarts: sum "restarts",
        /// Unused: always zero (see above).
        opt_result_escalations: sum "escalations",
    }
    "olc btree" {
        /// Unused: always zero (see above).
        opt_btree_reads: sum "reads",
        /// Unused: always zero (see above).
        opt_btree_restarts: sum "restarts",
        /// Unused: always zero (see above).
        opt_btree_escalations: sum "escalations",
    }
    "selection" {
        /// Predicates resolved against a hierarchical bitmap index (range
        /// covers + IN-list lookups).
        hbi_probes: sum "hbi probes",
        /// HBI node bitmaps fetched and decompressed.
        hbi_bitmaps_read: sum "hbi bitmaps read",
        /// Selections the predicate-shape planner routed to the B-tree
        /// index-list path.
        planner_btree: sum "btree-routed",
        /// Selections the predicate-shape planner routed to the
        /// hierarchical bitmap index.
        planner_hbi: sum "hbi-routed",
    }
}

impl IoStats {
    /// Records one disk read spanning `n` contiguous pages starting at
    /// `first` (a single page, or a vectored LOB fault). A read is
    /// "sequential" when it follows its predecessor on disk — the
    /// distinction that separates a chunk/fact scan from the bitmap
    /// plan's scattered tuple fetches under a seek-bound 1997 disk
    /// model. Pages 2..n trivially follow their predecessor, so `n - 1`
    /// of the reads count as sequential; the first page is sequential
    /// iff it follows the previous read.
    #[inline]
    pub(crate) fn physical_read_span(&self, first: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.physical_reads.add(n);
        let last = self
            .last_read_pid
            .swap(first.wrapping_add(n - 1), Ordering::Relaxed);
        let follows = u64::from(first == last.wrapping_add(1));
        self.seq_physical_reads.add(n - 1 + follows);
    }
}

/// Hit/miss counters for one buffer-pool shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Page requests answered from this shard's table.
    pub hits: u64,
    /// Page requests that faulted through this shard.
    pub misses: u64,
}

impl IoSnapshot {
    /// Bytes transferred from disk (physical reads × page size).
    pub fn bytes_read(&self) -> u64 {
        self.physical_reads * PAGE_SIZE as u64
    }

    /// Physical reads that were not sequential.
    pub fn random_physical_reads(&self) -> u64 {
        self.physical_reads - self.seq_physical_reads
    }

    /// Buffer-pool hit rate in `[0, 1]`; 1.0 when no reads were issued.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - self.physical_reads as f64 / self.logical_reads as f64
        }
    }

    /// Decoded-chunk cache lookups (hits + misses).
    pub fn chunk_cache_lookups(&self) -> u64 {
        self.chunk_cache_hits + self.chunk_cache_misses
    }

    /// Decoded-chunk cache hit rate in `[0, 1]`; 1.0 with no lookups.
    pub fn chunk_cache_hit_rate(&self) -> f64 {
        let lookups = self.chunk_cache_lookups();
        if lookups == 0 {
            1.0
        } else {
            self.chunk_cache_hits as f64 / lookups as f64
        }
    }

    /// Fraction of issued prefetches that were consumed, in `[0, 1]`;
    /// 1.0 when nothing was issued.
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetch_issued == 0 {
            1.0
        } else {
            self.prefetch_hits as f64 / self.prefetch_issued as f64
        }
    }
}

/// The pool's part of a `.stats` printout: every row of the counter
/// table, the derived rates, and the per-shard page-table totals. The
/// CLI prints it for an embedded database, and a server's printout
/// embeds it, so both show the same lines.
pub struct PoolReport<'a> {
    /// The pool's counters.
    pub io: &'a IoSnapshot,
    /// Per-shard page-table hits and misses (the line is omitted when
    /// empty).
    pub shards: &'a [ShardStats],
}

impl fmt::Display for PoolReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let io = self.io;
        io.fmt_counters(f)?;
        write!(
            f,
            "\nrates:        pool {:.0}% hit, chunk cache {:.0}% hit, prefetch {:.0}% delivered",
            io.hit_rate() * 100.0,
            io.chunk_cache_hit_rate() * 100.0,
            io.prefetch_hit_rate() * 100.0
        )?;
        if !self.shards.is_empty() {
            let hits: u64 = self.shards.iter().map(|s| s.hits).sum();
            let misses: u64 = self.shards.iter().map(|s| s.misses).sum();
            write!(
                f,
                "\nshards:       {} pool shards, {hits} table hits / {misses} misses",
                self.shards.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_reaches_its_snapshot_field() {
        let s = IoStats::new();
        // Bump row i by i + 1 through the live field the table declares,
        // so a row wired to the wrong snapshot field cannot pass.
        let live = [
            &s.logical_reads,
            &s.physical_reads,
            &s.seq_physical_reads,
            &s.physical_writes,
            &s.evictions,
            &s.chunk_cache_hits,
            &s.chunk_cache_misses,
            &s.chunk_cache_evictions,
            &s.prefetch_issued,
            &s.prefetch_hits,
            &s.prefetch_wasted,
            &s.prefetch_queue_peak,
            &s.result_cache_hits,
            &s.result_cache_misses,
            &s.result_cache_derived,
            &s.result_cache_evictions,
            &s.result_cache_invalidations,
            &s.write_batches,
            &s.write_cells,
            &s.result_cache_patched,
            &s.result_cache_fallbacks,
            &s.opt_pool_reads,
            &s.opt_pool_restarts,
            &s.opt_pool_escalations,
            &s.opt_chunk_reads,
            &s.opt_chunk_restarts,
            &s.opt_chunk_escalations,
            &s.opt_result_reads,
            &s.opt_result_restarts,
            &s.opt_result_escalations,
            &s.opt_btree_reads,
            &s.opt_btree_restarts,
            &s.opt_btree_escalations,
            &s.hbi_probes,
            &s.hbi_bitmaps_read,
            &s.planner_btree,
            &s.planner_hbi,
        ];
        assert_eq!(live.len(), IoSnapshot::LEN);
        for (i, counter) in live.iter().enumerate() {
            counter.add(i as u64 + 1);
        }
        let expected: Vec<u64> = (1..=IoSnapshot::LEN as u64).collect();
        let snap = s.snapshot();
        assert_eq!(snap.values().to_vec(), expected);
        assert_eq!(IoSnapshot::from_values(snap.values()), snap);
        assert_eq!(snap.prefetch_queue_peak, 12);
        assert_eq!(snap.planner_hbi, 37);
    }

    #[test]
    fn since_differences_sums_and_keeps_gauges() {
        let s = IoStats::new();
        s.logical_reads.inc();
        s.physical_read_span(5, 1);
        s.chunk_cache_misses.inc();
        s.prefetch_queue_peak.raise_to(3);
        let before = s.snapshot();
        s.logical_reads.add(2);
        s.physical_read_span(6, 1);
        s.chunk_cache_hits.add(2);
        s.prefetch_queue_peak.raise_to(1); // a peak keeps the max
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.logical_reads, 2);
        assert_eq!(delta.physical_reads, 1);
        assert_eq!(delta.physical_writes, 0);
        assert_eq!(delta.chunk_cache_hits, 2);
        assert_eq!(delta.chunk_cache_misses, 0);
        assert_eq!(delta.prefetch_queue_peak, 3);
        // A later snapshot "before" an earlier one saturates at zero.
        assert_eq!(before.since(&s.snapshot()).logical_reads, 0);
    }

    #[test]
    fn sequential_read_detection() {
        let s = IoStats::new();
        s.physical_read_span(0, 1); // first read never counts as sequential
        s.physical_read_span(1, 1); // seq
        s.physical_read_span(2, 1); // seq
        s.physical_read_span(9, 1); // random
        s.physical_read_span(10, 1); // seq
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 5);
        assert_eq!(snap.seq_physical_reads, 3);
        assert_eq!(snap.random_physical_reads(), 2);
    }

    #[test]
    fn derived_metrics() {
        let snap = IoSnapshot {
            logical_reads: 10,
            physical_reads: 2,
            seq_physical_reads: 1,
            chunk_cache_hits: 3,
            chunk_cache_misses: 1,
            prefetch_issued: 2,
            prefetch_hits: 1,
            ..Default::default()
        };
        assert_eq!(snap.random_physical_reads(), 1);
        assert_eq!(snap.bytes_read(), 2 * PAGE_SIZE as u64);
        assert!((snap.hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(snap.chunk_cache_lookups(), 4);
        assert!((snap.chunk_cache_hit_rate() - 0.75).abs() < 1e-9);
        // Delivered over issued; the two swapped would read 2.0.
        assert!((snap.prefetch_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(IoSnapshot::default().hit_rate(), 1.0);
        assert_eq!(IoSnapshot::default().chunk_cache_hit_rate(), 1.0);
        assert_eq!(IoSnapshot::default().prefetch_hit_rate(), 1.0);
    }

    #[test]
    fn span_reads_count_pages_and_sequentiality() {
        let s = IoStats::new();
        s.physical_read_span(10, 4); // 10..=13: 3 sequential followers
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 4);
        assert_eq!(snap.seq_physical_reads, 3);
        // A span starting right after the previous one is fully
        // sequential; a scattered span pays one random read.
        s.physical_read_span(14, 2);
        s.physical_read_span(100, 3);
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 9);
        assert_eq!(snap.seq_physical_reads, 3 + 2 + 2);
        s.physical_read_span(0, 0); // empty span is a no-op
        assert_eq!(s.snapshot().physical_reads, 9);
    }

    #[test]
    fn the_report_prints_every_counter_group_once() {
        let io = IoSnapshot::from_values([7; IoSnapshot::LEN]);
        let shards = [
            ShardStats { hits: 6, misses: 2 },
            ShardStats { hits: 4, misses: 2 },
        ];
        let text = PoolReport {
            io: &io,
            shards: &shards,
        }
        .to_string();
        for group in [
            "pool I/O:",
            "chunk cache:",
            "prefetch:",
            "result cache:",
            "writes:",
            "olc pool:",
            "olc chunks:",
            "olc results:",
            "olc btree:",
            "selection:",
            "rates:",
        ] {
            assert_eq!(text.matches(group).count(), 1, "{group} in\n{text}");
        }
        assert!(
            text.ends_with("2 pool shards, 10 table hits / 4 misses"),
            "{text}"
        );
        // Every counter printed once: no row is dropped or repeated.
        assert_eq!(text.matches(" 7 ").count(), IoSnapshot::LEN, "{text}");
        let no_shards = PoolReport {
            io: &io,
            shards: &[],
        }
        .to_string();
        assert!(!no_shards.contains("shards:"));
    }
}
