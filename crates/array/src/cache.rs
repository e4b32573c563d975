//! Decoded-chunk cache: `Arc<CompressedChunk>` by disk location, bounded
//! by bytes.
//!
//! `ChunkedArray::read_chunk` pays a parse (and for `DiffSeq` a gap
//! unpack) on every access, even when the underlying pages are already
//! hot in the buffer pool — so repeated consolidations, point probes,
//! and §4.2 selection binary-searches re-decode the same bytes over and
//! over. This cache keeps recently decoded chunks as shared
//! `Arc<CompressedChunk>`s so hot reads skip both the pool and the
//! codec.
//!
//! One cache is attached *per buffer pool* (as a pool extension, see
//! [`shared_chunk_cache`]) so every `ChunkedArray` opened over
//! the same database file shares it — `Database::sql` reopens arrays per
//! statement, and warmth must survive the reopen.
//!
//! Keys are LOB disk locations (`(start page, byte offset, length)`):
//! pack space is never reclaimed, so a location names at most one live
//! object and is identical across reopens. An in-place overwrite *does*
//! reuse a location, which is why `ChunkedArray::set` removes the key
//! before rewriting the object.
//!
//! The paper's cold-run methodology ("flush the buffer pool before each
//! query", §5.3) is preserved: every entry is stamped with the pool's
//! clear-epoch, and `BufferPool::clear` bumps it, so a cleared pool's
//! decoded chunks read as misses and are lazily dropped.
//!
//! # Locking
//!
//! Internally the cache is sharded like the pool: each shard owns a
//! `chunks` mutex (declared in the workspace lock order) over the map
//! plus a second-chance clock ring; eviction is by decoded byte
//! footprint. Every get, insert and removal takes the shard mutex, and
//! nothing else is ever locked while it is held — decoding happens
//! outside the lock.

use std::collections::HashMap;
use std::sync::Arc;

use molap_storage::util::fib_shard;
use molap_storage::BufferPool;
use parking_lot::Mutex;

use crate::CompressedChunk;

/// Cache key: the chunk object's disk location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// First page of the LOB holding the encoded chunk.
    pub start_page: u64,
    /// Byte offset of the object within its first page.
    pub byte_off: u32,
    /// Encoded length in bytes.
    pub len: u64,
}

impl ChunkKey {
    /// Mixed hash used for shard routing.
    fn hash64(&self) -> u64 {
        self.start_page
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(self.byte_off))
            .wrapping_add(self.len.rotate_left(32))
    }
}

struct CacheEntry {
    chunk: Arc<CompressedChunk>,
    bytes: usize,
    epoch: u64,
    referenced: bool,
}

struct ShardMap {
    map: HashMap<ChunkKey, CacheEntry>,
    /// Second-chance clock ring over the keys; may lag `map` (removed
    /// keys are compacted away as the hand passes them).
    ring: Vec<ChunkKey>,
    hand: usize,
    bytes: usize,
}

/// One cache shard. The field name `chunks` is load-bearing: it is the
/// rank the workspace lock order (and molap-lint) knows this mutex by.
struct CacheShard {
    chunks: Mutex<ShardMap>,
}

impl ShardMap {
    /// Removes `key` from the map.
    fn remove_chunk_entry(&mut self, key: &ChunkKey) {
        if let Some(entry) = self.map.remove(key) {
            self.bytes = self.bytes.saturating_sub(entry.bytes);
        }
    }

    /// Evicts one unreferenced entry; returns false if nothing was
    /// evictable (the ring cycled twice clearing reference bits).
    fn evict_one_chunk(&mut self) -> bool {
        let mut budget = 2 * self.ring.len();
        while budget > 0 && !self.ring.is_empty() {
            budget -= 1;
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let Some(&key) = self.ring.get(self.hand) else {
                break;
            };
            let touched = match self.map.get_mut(&key) {
                // Stale ring slot (entry removed/invalidated): compact.
                None => {
                    self.ring.swap_remove(self.hand);
                    continue;
                }
                Some(entry) => std::mem::replace(&mut entry.referenced, false),
            };
            if touched {
                self.hand += 1;
            } else {
                self.remove_chunk_entry(&key);
                self.ring.swap_remove(self.hand);
                return true;
            }
        }
        false
    }
}

/// A sharded, byte-bounded cache of decoded chunks.
pub struct ChunkCache {
    shards: Vec<CacheShard>,
    /// Byte cap per shard (total cap / shard count).
    shard_capacity: usize,
}

/// Shards; a power of two so the key hash can mask.
const CACHE_SHARDS: usize = 8;

impl ChunkCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of decoded
    /// chunk data. A zero capacity disables caching (inserts no-op).
    pub fn new(capacity_bytes: usize) -> Self {
        ChunkCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| CacheShard {
                    chunks: Mutex::new(ShardMap {
                        map: HashMap::new(),
                        ring: Vec::new(),
                        hand: 0,
                        bytes: 0,
                    }),
                })
                .collect(),
            shard_capacity: capacity_bytes / CACHE_SHARDS,
        }
    }

    fn shard(&self, key: &ChunkKey) -> &CacheShard {
        let idx = fib_shard(key.hash64(), CACHE_SHARDS);
        // The mask keeps idx < CACHE_SHARDS, so this never falls back.
        self.shards.get(idx).unwrap_or(&self.shards[0])
    }

    /// Looks up `key`, treating entries stamped with an epoch other
    /// than `epoch` as cold (they are dropped on the spot).
    pub fn get(&self, key: &ChunkKey, epoch: u64) -> Option<Arc<CompressedChunk>> {
        let mut m = self.shard(key).chunks.lock();
        match m.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.referenced = true;
                Some(entry.chunk.clone())
            }
            Some(_) => {
                m.remove_chunk_entry(key);
                None
            }
            None => None,
        }
    }

    /// Inserts a decoded chunk of `bytes` decoded footprint, evicting
    /// as needed; returns how many entries were evicted. Chunks larger
    /// than a whole shard's budget are not cached.
    ///
    /// `still_current` is asked under the shard lock, the one
    /// [`ChunkCache::remove`] takes: when it answers no, nothing is
    /// inserted. A writer that invalidates the condition and *then*
    /// removes the key therefore never leaves a pre-write image behind
    /// (see `VersionTable::pins_taken`).
    pub fn insert(
        &self,
        key: ChunkKey,
        epoch: u64,
        chunk: Arc<CompressedChunk>,
        bytes: usize,
        still_current: impl FnOnce() -> bool,
    ) -> u64 {
        if bytes == 0 || bytes > self.shard_capacity {
            return 0;
        }
        let mut evicted = 0u64;
        let shard = self.shard(&key);
        let mut m = shard.chunks.lock();
        if !still_current() {
            return 0;
        }
        m.remove_chunk_entry(&key); // replace any stale entry under the same key
        while m.bytes + bytes > self.shard_capacity {
            if !m.evict_one_chunk() {
                return evicted; // nothing evictable; skip caching
            }
            evicted += 1;
        }
        m.bytes += bytes;
        m.map.insert(
            key,
            CacheEntry {
                chunk,
                bytes,
                epoch,
                referenced: true,
            },
        );
        m.ring.push(key);
        evicted
    }

    /// Drops `key` if cached — called before a chunk object is
    /// overwritten, since an in-place overwrite reuses its location.
    pub fn remove(&self, key: &ChunkKey) {
        self.shard(key).chunks.lock().remove_chunk_entry(key);
    }

    /// Number of live entries (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.chunks.lock().map.len()).sum()
    }

    /// True if no chunks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total decoded bytes held (all shards).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.chunks.lock().bytes).sum()
    }
}

/// The pool-wide shared chunk cache, installed as a pool extension on
/// first use and sized to the pool's own byte budget.
pub fn shared_chunk_cache(pool: &Arc<BufferPool>) -> Arc<ChunkCache> {
    let budget = pool.num_frames() * molap_storage::PAGE_SIZE;
    pool.extension_or_init(|| Arc::new(ChunkCache::new(budget)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkBuilder;

    fn chunk(cells: u32) -> (Arc<CompressedChunk>, usize) {
        let mut b = ChunkBuilder::new(1);
        for off in 0..cells {
            b.add(off, &[i64::from(off)]);
        }
        let c: CompressedChunk = b.build().unwrap();
        let bytes = c.byte_size();
        (Arc::new(c), bytes)
    }

    fn key(n: u64) -> ChunkKey {
        ChunkKey {
            start_page: n,
            byte_off: 0,
            len: 100,
        }
    }

    #[test]
    fn hit_after_insert_miss_after_remove() {
        let cache = ChunkCache::new(1 << 20);
        let (c, bytes) = chunk(10);
        assert!(cache.get(&key(1), 0).is_none());
        cache.insert(key(1), 0, c, bytes, || true);
        assert_eq!(cache.get(&key(1), 0).unwrap().len(), 10);
        cache.remove(&key(1));
        assert!(cache.get(&key(1), 0).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn epoch_mismatch_reads_cold() {
        let cache = ChunkCache::new(1 << 20);
        let (c, bytes) = chunk(10);
        cache.insert(key(1), 0, c, bytes, || true);
        assert!(cache.get(&key(1), 1).is_none(), "cleared pool = cold");
        assert!(
            cache.get(&key(1), 0).is_none(),
            "stale entry dropped eagerly on the mismatching lookup"
        );
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn eviction_keeps_bytes_under_capacity() {
        let (c, bytes) = chunk(64);
        // Capacity for ~3 chunks per shard.
        let cache = ChunkCache::new(bytes * 3 * CACHE_SHARDS);
        let mut evictions = 0;
        for n in 0..200 {
            evictions += cache.insert(key(n), 0, c.clone(), bytes, || true);
        }
        assert!(evictions > 0, "inserting 200 chunks must evict");
        assert!(
            cache.bytes() <= bytes * 3 * CACHE_SHARDS,
            "{} > cap",
            cache.bytes()
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ChunkCache::new(0);
        let (c, bytes) = chunk(10);
        cache.insert(key(1), 0, c, bytes, || true);
        assert!(cache.get(&key(1), 0).is_none());
    }

    #[test]
    fn oversized_chunks_are_not_cached() {
        let cache = ChunkCache::new(64); // 8 bytes per shard
        let (c, bytes) = chunk(100);
        assert_eq!(cache.insert(key(1), 0, c, bytes, || true), 0);
        assert!(cache.get(&key(1), 0).is_none());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ChunkCache::new(1 << 18));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    let (c, bytes) = chunk(32);
                    for i in 0..500u64 {
                        let k = key((t * 131 + i) % 64);
                        if i % 3 == 0 {
                            cache.insert(k, 0, c.clone(), bytes, || true);
                        } else if i % 7 == 0 {
                            cache.remove(&k);
                        } else if let Some(hit) = cache.get(&k, 0) {
                            assert_eq!(hit.len(), 32);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
