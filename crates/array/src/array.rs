//! The on-disk chunked array: a chunk directory over large objects.
//!
//! One large object per chunk, appended in chunk-number order so that a
//! chunk-ordered scan reads pages in disk order (§4.2's first
//! optimization depends on this layout). Empty chunks occupy zero pages.
//! The directory ("the OID and the length of each chunk", §3.3) is the
//! LOB store's directory; [`ChunkedArray::meta_to_bytes`] persists it
//! together with the shape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use molap_storage::util::{read_u32, read_u64, write_u32, write_u64};
use molap_storage::{BufferPool, LobId, LobStore};

use crate::cache::{shared_chunk_cache, ChunkCache, ChunkKey};
use crate::chunk::{ChunkBuilder, CompressedChunk};
use crate::geometry::Shape;
use crate::version::{shared_version_table, ChunkSnapshot, VersionKey, VersionTable};
use crate::{diffseq, ArrayError, Result};

/// Allocates a fresh array uid: a counter mixed with the wall clock
/// through a SplitMix64 finalizer. Uids key chunk-version pins
/// ([`VersionKey`]), so they only need to be distinct among arrays
/// whose pages share one buffer pool — including arrays persisted by an
/// earlier process and reopened next to newly built ones, which is why
/// a bare counter is not enough.
fn next_array_uid() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = t.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// On-disk representation of each chunk. Both formats decode to a
/// [`CompressedChunk`]. Tags 1 and 2 belonged to the dense and
/// dense-LZW formats, which were retired from the engine; an array
/// stored with either reopens as [`ArrayError::UnsupportedFormat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkFormat {
    /// The paper's chunk-offset compression (§3.3): valid cells only,
    /// sorted `(offset, data)` pairs.
    ChunkOffset = 0,
    /// Difference-sequence compression: sorted offsets delta-encoded
    /// and bit-packed per block, measures columnar (Szépkúti,
    /// arXiv:1103.3857; see `diffseq`). The prefetch pipeline streams
    /// it to kernels without materializing a chunk at all.
    DiffSeq = 3,
}

impl ChunkFormat {
    /// Every format, in wire-tag order — the iteration order used by
    /// format-matrix tests and benches.
    pub const ALL: [ChunkFormat; 2] = [ChunkFormat::ChunkOffset, ChunkFormat::DiffSeq];

    fn from_u32(v: u32) -> Result<Self> {
        match v {
            0 => Ok(ChunkFormat::ChunkOffset),
            3 => Ok(ChunkFormat::DiffSeq),
            1 | 2 => Err(ArrayError::UnsupportedFormat(v)),
            _ => Err(ArrayError::Corrupt("unknown chunk format")),
        }
    }

    /// Canonical lower-case name, accepted back by
    /// [`ChunkFormat::parse`] — the spelling of CLI/bench `--format`
    /// flags.
    pub fn name(self) -> &'static str {
        match self {
            ChunkFormat::ChunkOffset => "chunkoffset",
            ChunkFormat::DiffSeq => "diffseq",
        }
    }

    /// Parses a format name as CLI flags spell it; case-insensitive,
    /// `-`/`_` separators ignored (`chunk-offset` == `chunkoffset`).
    pub fn parse(s: &str) -> Option<ChunkFormat> {
        let folded: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        ChunkFormat::ALL.into_iter().find(|f| f.name() == folded)
    }

    /// Encodes a chunk's stored bytes; an empty chunk is an empty
    /// object, which occupies no pages.
    fn encode(self, chunk: &CompressedChunk) -> Vec<u8> {
        if chunk.is_empty() {
            return Vec::new();
        }
        match self {
            ChunkFormat::ChunkOffset => chunk.to_bytes(),
            ChunkFormat::DiffSeq => diffseq::compress(chunk),
        }
    }

    /// Decodes a chunk's stored bytes; `limit` is the chunk's cell
    /// count, which bounds difference-sequence offsets.
    fn decode(self, bytes: &[u8], limit: u32) -> Result<CompressedChunk> {
        match self {
            ChunkFormat::ChunkOffset => CompressedChunk::from_bytes(bytes),
            ChunkFormat::DiffSeq => diffseq::decompress_fast(bytes, limit),
        }
    }
}

impl std::str::FromStr for ChunkFormat {
    type Err = ArrayError;

    fn from_str(s: &str) -> Result<Self> {
        ChunkFormat::parse(s).ok_or_else(|| ArrayError::UnknownFormat(s.to_string()))
    }
}

/// What a prefetch producer hands a pipeline consumer: a decoded chunk,
/// or — on the DiffSeq streaming path — the chunk's validated encoded
/// bytes, which the consumer unpacks block by block through a
/// `diffseq::DiffSeqCursor` without ever materializing a chunk.
#[derive(Clone)]
pub enum ChunkPayload {
    /// A fully decoded chunk (all materializing paths: chunk-offset
    /// chunks, empty chunks, version pins, chunk-cache hits).
    Chunk(Arc<CompressedChunk>),
    /// A DiffSeq chunk's encoded bytes, structurally validated by the
    /// producer (`diffseq::validate`).
    DiffSeq(Arc<Vec<u8>>),
}

impl ChunkPayload {
    /// Materializes the payload into a decoded chunk (identity for
    /// [`ChunkPayload::Chunk`]); `limit` is the chunk's cell count.
    pub fn into_chunk(self, limit: u32) -> Result<Arc<CompressedChunk>> {
        match self {
            ChunkPayload::Chunk(c) => Ok(c),
            ChunkPayload::DiffSeq(bytes) => Ok(Arc::new(diffseq::decompress_fast(&bytes, limit)?)),
        }
    }
}

/// Reusable buffers for the chunk loader: one per prefetcher thread, so
/// the pipeline's per-chunk page span and LOB byte allocations are
/// paid once per query instead of once per chunk.
#[derive(Default)]
pub struct PrefetchScratch {
    /// Whole-page span target for bypass reads.
    span: Vec<u8>,
    /// The chunk's LOB bytes (encoded form).
    bytes: Vec<u8>,
}

/// A chunked n-dimensional array stored on buffer-pool pages.
pub struct ChunkedArray {
    shape: Shape,
    n_measures: usize,
    format: ChunkFormat,
    lobs: LobStore,
    valid_cells: u64,
    /// Pool-shared decoded-chunk cache; `None` only if the pool's
    /// extension slot was claimed by a foreign type.
    cache: Option<Arc<ChunkCache>>,
    /// Pool-shared chunk version table for snapshot-isolated reads
    /// racing in-place writes; `None` only if the pool's extension
    /// slot was claimed by a foreign type.
    versions: Option<Arc<VersionTable>>,
    /// Persistent array identity ([`next_array_uid`]); with the chunk
    /// number it forms the [`VersionKey`] version pins are keyed by.
    /// Travels through the meta blob so every handle of one array
    /// agrees on it.
    uid: u64,
    /// Open writer ticket in the version table: set by the first
    /// [`ChunkedArray::apply_chunk_writes`] of a batch, retired by
    /// [`ChunkedArray::publish_writes`] /
    /// [`ChunkedArray::rollback_writes`].
    writer: Option<u64>,
}

impl ChunkedArray {
    /// The array geometry.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Measures per cell.
    pub fn n_measures(&self) -> usize {
        self.n_measures
    }

    /// Storage format of the chunks.
    pub fn format(&self) -> ChunkFormat {
        self.format
    }

    /// The array's persistent identity: assigned at build, carried in
    /// the meta blob, so every handle of one array agrees on it.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of valid cells in the whole array.
    pub fn valid_cells(&self) -> u64 {
        self.valid_cells
    }

    /// Fraction of logical cells that are valid.
    pub fn density(&self) -> f64 {
        self.valid_cells as f64 / self.shape.total_cells() as f64
    }

    /// On-disk footprint in pages.
    pub fn total_pages(&self) -> u64 {
        self.lobs.total_pages()
    }

    /// Logical (pre-page-rounding) byte footprint of all chunks.
    pub fn total_bytes(&self) -> u64 {
        self.lobs.total_bytes()
    }

    /// The buffer pool this array's pages live in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.lobs.pool()
    }

    /// Reads and decodes chunk `chunk_no`.
    ///
    /// Decoded chunks are served from (and inserted into) the pool's
    /// shared [`ChunkCache`], so repeated reads of a hot chunk skip both
    /// the buffer pool and the codec. Empty chunks are materialized
    /// fresh and never cached.
    pub fn read_chunk(&self, chunk_no: u64) -> Result<Arc<CompressedChunk>> {
        self.read_chunk_at(chunk_no, None)
    }

    /// The chunk's decoded image when one exists without touching its
    /// stored bytes: an empty object (materialized fresh, never
    /// cached), a version pin resolved under `snap`, or a decoded-chunk
    /// cache hit (counted as one unless a pin overrides it). `None`
    /// means the bytes must be read and decoded — the chunk loader
    /// starts here, and the prefetch pipeline asks up front so resident
    /// chunks never reach a producer thread.
    pub fn resident_chunk_at(
        &self,
        chunk_no: u64,
        snap: Option<&ChunkSnapshot>,
    ) -> Result<Option<Arc<CompressedChunk>>> {
        let id = LobId(chunk_no as u32);
        if self.lobs.object_len(id)? == 0 {
            return Ok(Some(Arc::new(CompressedChunk::empty(self.n_measures))));
        }
        let pool = self.lobs.pool();
        let hit = match self.cache.as_deref() {
            Some(cache) => cache.get(&self.chunk_key(chunk_no)?, pool.epoch()),
            None => None,
        };
        // The pin is checked *after* the cache: a commit published
        // since the snapshot may have put its image there (through a
        // later reader), and then its pre-image is pinned for as long
        // as the snapshot lives. Checked first, a commit landing
        // between the two lookups would slip through.
        if let Some(pinned) = self.resolve_version(self.version_key(chunk_no), snap) {
            return Ok(Some(pinned));
        }
        if hit.is_some() {
            pool.stats().chunk_cache_hits.inc();
        }
        Ok(hit)
    }

    /// [`ChunkedArray::read_chunk`] against a [`ChunkSnapshot`]: chunks
    /// superseded by a commit newer than the snapshot resolve to their
    /// pinned pre-image, so a long scan over many chunks observes one
    /// consistent commit generation. With `None` the read is served at
    /// the current generation (in-flight unpublished writes are still
    /// shielded by their provisional pins). The bytes come through the
    /// buffer pool and are always decoded.
    pub fn read_chunk_at(
        &self,
        chunk_no: u64,
        snap: Option<&ChunkSnapshot>,
    ) -> Result<Arc<CompressedChunk>> {
        let mut scratch = PrefetchScratch::default();
        self.load_chunk(chunk_no, &mut scratch, snap, false)?
            .into_chunk(self.diffseq_limit())
    }

    /// The prefetch pipeline's read: same cache behaviour as
    /// [`ChunkedArray::read_chunk_at`] (lookup, publication, hit/miss
    /// counters), but a cold multi-page chunk is read with **one
    /// vectored disk read that bypasses the buffer pool**
    /// ([`LobStore::read_into_prefetch`]) instead of per-page fault
    /// rounds, and a cache-missing DiffSeq chunk comes back as its
    /// **validated encoded bytes** ([`ChunkPayload::DiffSeq`]) for the
    /// consumer to stream through a `diffseq::DiffSeqCursor` — the scan
    /// then never builds a chunk, and nothing is inserted into the
    /// chunk cache, which stores decoded chunks only. `scratch` holds
    /// the caller's reusable buffers so a prefetcher thread allocates
    /// once, not per chunk.
    pub fn read_chunk_stream_at(
        &self,
        chunk_no: u64,
        scratch: &mut PrefetchScratch,
        snap: Option<&ChunkSnapshot>,
    ) -> Result<ChunkPayload> {
        self.load_chunk(chunk_no, scratch, snap, true)
    }

    /// The one chunk loader and its torn-read ladder. With `bypass` the
    /// bytes are read around the buffer pool where the LOB store allows
    /// it and a DiffSeq chunk is validated and handed over encoded;
    /// without it the read is pooled and every format is decoded.
    ///
    /// A bypass read holds no page latches, so it can race an in-place
    /// overwrite issued through *another* handle of the same array
    /// (writes on this handle take `&mut self` and cannot overlap). The
    /// writer pins the pre-image in the pool's [`VersionTable`] before
    /// its first byte lands, so every rung resolves through the pins:
    ///
    /// 1. sample the chunk's pin counter, then look for a resident image
    ///    (empty object, chunk-cache hit, pin — the pin last, so a
    ///    newer image in the cache cannot slip past it) — done;
    /// 2. sample the pool epoch, then read the bytes;
    /// 3. decode, or validate a chunk that stays encoded. On failure
    ///    serve the pin if one appeared — the bytes were torn; with no
    ///    pin, bytes that bypassed the pool are re-read once through
    ///    the page latches that serialize against the writer and step 3
    ///    repeats, and a pooled failure is real corruption;
    /// 4. re-check the pin: one that appeared mid-read means the bytes
    ///    may be torn even though they parsed, so the pre-image is
    ///    served and the suspect decode stays out of the shared cache;
    /// 5. publish a decoded chunk to the chunk cache under the epoch
    ///    from step 2 — unless the pin counter moved since step 1: a
    ///    writer may have pinned and dropped the cache entry after step
    ///    4, and the decode must not come back behind it
    ///    ([`VersionTable::pins_taken`]; the lookup still counts as a
    ///    chunk-cache miss, which it was) — or hand the encoded bytes
    ///    over.
    fn load_chunk(
        &self,
        chunk_no: u64,
        scratch: &mut PrefetchScratch,
        snap: Option<&ChunkSnapshot>,
        bypass: bool,
    ) -> Result<ChunkPayload> {
        let vkey = self.version_key(chunk_no);
        let pins_taken = || self.versions.as_deref().map(|v| v.pins_taken(vkey));
        let pins = pins_taken();
        if let Some(chunk) = self.resident_chunk_at(chunk_no, snap)? {
            return Ok(ChunkPayload::Chunk(chunk));
        }
        // Without the chunk cache nothing would keep a bypassed read's
        // result, so the pool has to.
        let bypass = bypass && self.cache.is_some();
        let id = LobId(chunk_no as u32);
        let epoch = self.lobs.pool().epoch();
        let mut bypassed = if bypass {
            self.lobs
                .read_into_prefetch(id, &mut scratch.bytes, &mut scratch.span)?
        } else {
            self.lobs.read_into(id, &mut scratch.bytes)?;
            false
        };
        let keep_encoded = bypass && self.format == ChunkFormat::DiffSeq;
        let decoded = loop {
            let attempt = if keep_encoded {
                diffseq::validate(&scratch.bytes, self.diffseq_limit()).map(|()| None)
            } else {
                self.format
                    .decode(&scratch.bytes, self.diffseq_limit())
                    .map(Some)
            };
            match attempt {
                Ok(decoded) => break decoded,
                Err(e) => {
                    if let Some(pinned) = self.resolve_version(vkey, snap) {
                        return Ok(ChunkPayload::Chunk(pinned));
                    }
                    if !bypassed {
                        return Err(e);
                    }
                    self.lobs.read_into(id, &mut scratch.bytes)?;
                    bypassed = false;
                }
            }
        };
        if let Some(pinned) = self.resolve_version(vkey, snap) {
            return Ok(ChunkPayload::Chunk(pinned));
        }
        let Some(chunk) = decoded else {
            // Hand the scratch buffer itself to the payload instead of
            // copying it; the next read grows a fresh (empty) scratch.
            let bytes = std::mem::take(&mut scratch.bytes);
            return Ok(ChunkPayload::DiffSeq(Arc::new(bytes)));
        };
        let chunk = Arc::new(chunk);
        if let Some(cache) = self.cache.as_deref() {
            let evicted = cache.insert(
                self.chunk_key(chunk_no)?,
                epoch,
                chunk.clone(),
                chunk.byte_size(),
                || pins_taken() == pins,
            );
            let stats = self.lobs.pool().stats();
            stats.chunk_cache_misses.inc();
            if evicted > 0 {
                stats.chunk_cache_evictions.add(evicted);
            }
        }
        Ok(ChunkPayload::Chunk(chunk))
    }

    /// The chunk's logical version-pin key: array uid + chunk number.
    /// Stable across relocation, unlike [`ChunkedArray::chunk_key`].
    fn version_key(&self, chunk_no: u64) -> VersionKey {
        VersionKey {
            array: self.uid,
            chunk_no,
        }
    }

    /// Resolves `key` through the version table: at the snapshot's
    /// generation when one is given, at the current commit generation
    /// otherwise. `None` means the on-disk bytes are the right image.
    fn resolve_version(
        &self,
        key: VersionKey,
        snap: Option<&ChunkSnapshot>,
    ) -> Option<Arc<CompressedChunk>> {
        match snap {
            Some(s) => s.chunk(key),
            None => self
                .versions
                .as_deref()
                .and_then(|v| v.resolve_current(key)),
        }
    }

    /// Chunk `chunk_no`'s cache key: its current disk location. An
    /// overwrite that keeps the byte length (an update of existing
    /// cells) rewrites the object in place and keeps the key.
    pub fn chunk_key(&self, chunk_no: u64) -> Result<ChunkKey> {
        let (start_page, byte_off, len) = self.lobs.location(LobId(chunk_no as u32))?;
        Ok(ChunkKey {
            start_page,
            byte_off,
            len,
        })
    }

    /// The chunk's cell-count bound for difference-sequence decoding
    /// (every `Shape` guarantees it fits `u32`).
    fn diffseq_limit(&self) -> u32 {
        self.shape.chunk_cells() as u32
    }

    /// Reads the measures of the cell at `coords`, if valid.
    ///
    /// Convenience point lookup: decodes the whole containing chunk.
    /// Batch access should use [`ChunkedArray::read_chunk`] /
    /// [`ChunkedArray::for_each_cell`].
    pub fn get(&self, coords: &[u32]) -> Result<Option<Vec<i64>>> {
        let (chunk_no, offset) = self.shape.locate(coords)?;
        let chunk = self.read_chunk(chunk_no)?;
        Ok(chunk.probe(offset).map(|v| v.to_vec()))
    }

    /// Writes (inserts or overwrites) the cell at `coords` — the ADT's
    /// Write function (§3.5). Rewrites the containing chunk's object
    /// and publishes the write immediately (single-cell commit). A
    /// failed rewrite restores the chunk's pre-image bytes (or poisons
    /// the pool's write path if even that fails), so the cell never
    /// stays half-applied.
    pub fn set(&mut self, coords: &[u32], values: &[i64]) -> Result<()> {
        let (chunk_no, offset) = self.shape.locate(coords)?;
        let pre = self.read_chunk(chunk_no)?;
        match self.apply_chunk_writes(chunk_no, &[(offset, values.to_vec())]) {
            Ok(_) => {
                self.publish_writes();
                Ok(())
            }
            Err(e) => {
                // The overwrite may have half-landed; `valid_cells` was
                // not yet bumped, so the restore reverses zero inserts.
                if self.restore_chunk(chunk_no, &pre, 0).is_ok() {
                    self.rollback_writes();
                } else {
                    self.poison_writes();
                }
                Err(e)
            }
        }
    }

    /// Applies a batch of cell edits to one chunk: decode once, pin the
    /// pre-image in the pool's [`VersionTable`] under this handle's
    /// writer ticket, rewrite the chunk's object once. Returns the
    /// pre-write measures per edit (aligned with `edits`; `None` for
    /// inserted cells).
    ///
    /// Offsets in `edits` must be unique (callers resolve duplicate
    /// writes last-wins before grouping by chunk). The write is **not
    /// published**: concurrent readers keep resolving this chunk to the
    /// pinned pre-image until [`ChunkedArray::publish_writes`], so a
    /// multi-chunk batch becomes visible as one atomic generation step.
    ///
    /// On error the chunk's bytes may be half-written (its pin keeps
    /// shielding readers). The caller must either restore every applied
    /// chunk ([`ChunkedArray::restore_chunk`]) and then
    /// [`ChunkedArray::rollback_writes`], or
    /// [`ChunkedArray::poison_writes`] — `molap-core`'s write engine
    /// and [`ChunkedArray::set`] do exactly that.
    pub fn apply_chunk_writes(
        &mut self,
        chunk_no: u64,
        edits: &[(u32, Vec<i64>)],
    ) -> Result<Vec<Option<Vec<i64>>>> {
        if self.versions.as_deref().is_some_and(|v| v.is_poisoned()) {
            return Err(ArrayError::Poisoned);
        }
        for (_, values) in edits {
            if values.len() != self.n_measures {
                return Err(ArrayError::Geometry("measure arity mismatch".into()));
            }
        }
        let chunk = self.read_chunk(chunk_no)?;
        let olds: Vec<Option<Vec<i64>>> = edits
            .iter()
            .map(|(off, _)| chunk.probe(*off).map(|v| v.to_vec()))
            .collect();
        let mut edited: Vec<u32> = edits.iter().map(|(off, _)| *off).collect();
        edited.sort_unstable();
        let mut b = ChunkBuilder::new(self.n_measures);
        for (off, v) in chunk.iter() {
            if edited.binary_search(&off).is_err() {
                b.add(off, v);
            }
        }
        for (off, values) in edits {
            b.add(*off, values);
        }
        let bytes = self.format.encode(&b.build()?);
        let id = LobId(chunk_no as u32);
        // Order matters: pin the pre-image first (readers racing the
        // overwrite resolve to it — even a fresh chunk pins its empty
        // image so the insert stays invisible until publish), then drop
        // the cached decode (keyed by the object's disk location, which
        // an in-place overwrite reuses), then write the bytes.
        if let Some(versions) = self.versions.clone() {
            let writer = *self.writer.get_or_insert_with(|| versions.begin_write());
            versions.pin_provisional(writer, self.version_key(chunk_no), Arc::clone(&chunk));
        }
        if self.lobs.object_len(id)? != 0 {
            if let Some(cache) = self.cache.as_deref() {
                cache.remove(&self.chunk_key(chunk_no)?);
            }
        }
        self.lobs.overwrite(id, &bytes)?;
        self.valid_cells += olds.iter().filter(|o| o.is_none()).count() as u64;
        Ok(olds)
    }

    /// Rewrites chunk `chunk_no` back to `pre` (a pre-image captured
    /// before [`ChunkedArray::apply_chunk_writes`]) and reverses the
    /// `cells_added` bump that apply recorded for it — the rollback
    /// half of a failed batch. The chunk's provisional pin stays in
    /// place while the bytes go back, so racing readers remain
    /// shielded; the caller drops the pins afterwards with
    /// [`ChunkedArray::rollback_writes`].
    pub fn restore_chunk(
        &mut self,
        chunk_no: u64,
        pre: &CompressedChunk,
        cells_added: u64,
    ) -> Result<()> {
        let bytes = self.format.encode(pre);
        let id = LobId(chunk_no as u32);
        if self.lobs.object_len(id)? != 0 {
            if let Some(cache) = self.cache.as_deref() {
                cache.remove(&self.chunk_key(chunk_no)?);
            }
        }
        self.lobs.overwrite(id, &bytes)?;
        self.valid_cells -= cells_added;
        Ok(())
    }

    /// Publishes every write applied since the last publish or
    /// rollback: snapshots opened from here on read the new bytes,
    /// older snapshots keep their pinned pre-images (see
    /// [`VersionTable::commit_publish`]). Returns the commit generation
    /// it published; `None` (a no-op) without a version table or an
    /// open writer ticket.
    pub fn publish_writes(&mut self) -> Option<u64> {
        let versions = self.versions.as_deref()?;
        let writer = self.writer.take()?;
        Some(versions.commit_publish(writer))
    }

    /// Drops the open writer ticket's provisional pins without
    /// publishing. Only correct after every chunk the ticket touched
    /// was restored to its pre-image (see
    /// [`ChunkedArray::restore_chunk`]); otherwise use
    /// [`ChunkedArray::poison_writes`].
    pub fn rollback_writes(&mut self) {
        if let (Some(versions), Some(writer)) = (self.versions.as_deref(), self.writer.take()) {
            versions.rollback_writer(writer);
        }
    }

    /// Poisons the pool's write path: a failed batch left chunk bytes
    /// it could not restore. Later writes on any array of the pool
    /// refuse with [`ArrayError::Poisoned`]; the failed batch's pins
    /// are left in place so readers keep resolving consistent
    /// pre-batch images.
    pub fn poison_writes(&self) {
        if let Some(versions) = self.versions.as_deref() {
            versions.poison();
        }
    }

    /// Calls `f(coords, measures)` for every valid cell, in chunk order
    /// then offset order.
    pub fn for_each_cell<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(&[u32], &[i64]),
    {
        let mut coords = vec![0u32; self.shape.n_dims()];
        for chunk_no in 0..self.shape.num_chunks() {
            for (offset, values) in self.read_chunk(chunk_no)?.iter() {
                self.shape.decode(chunk_no, offset, &mut coords);
                f(&coords, values);
            }
        }
        Ok(())
    }

    /// Sums each measure over the axis-aligned box `lo..=hi` — the
    /// ADT's "sum of a subset" function (§3.5). Chunks that do not
    /// intersect the box are not read.
    pub fn sum_region(&self, lo: &[u32], hi: &[u32]) -> Result<Vec<i64>> {
        let n = self.shape.n_dims();
        if lo.len() != n || hi.len() != n {
            return Err(ArrayError::Geometry("region arity mismatch".into()));
        }
        for d in 0..n {
            if lo[d] > hi[d] || hi[d] >= self.shape.dims()[d] {
                return Err(ArrayError::Geometry(format!(
                    "region [{}..={}] invalid for dimension {d}",
                    lo[d], hi[d]
                )));
            }
        }
        let mut sums = vec![0i64; self.n_measures];
        // Odometer over the chunk-grid sub-box covering the region.
        let lo_chunk: Vec<u32> = (0..n).map(|d| self.shape.chunk_coord(d, lo[d])).collect();
        let hi_chunk: Vec<u32> = (0..n).map(|d| self.shape.chunk_coord(d, hi[d])).collect();
        let mut grid = lo_chunk.clone();
        let mut coords = vec![0u32; n];
        loop {
            let chunk_no: u64 = (0..n)
                .map(|d| grid[d] as u64 * self.shape.chunk_stride(d))
                .sum();
            for (offset, values) in self.read_chunk(chunk_no)?.iter() {
                self.shape.decode(chunk_no, offset, &mut coords);
                if (0..n).all(|d| lo[d] <= coords[d] && coords[d] <= hi[d]) {
                    for (s, &v) in sums.iter_mut().zip(values) {
                        *s += v;
                    }
                }
            }
            // Advance the odometer.
            let mut d = n;
            loop {
                if d == 0 {
                    return Ok(sums);
                }
                d -= 1;
                if grid[d] < hi_chunk[d] {
                    grid[d] += 1;
                    grid[d + 1..].copy_from_slice(&lo_chunk[d + 1..]);
                    break;
                }
            }
        }
    }

    /// Extracts the sub-array `lo..=hi` into a new array on `pool` — the
    /// ADT's slicing function (§3.5). Coordinates are rebased to zero;
    /// chunk dimensions are clamped to the new extents.
    pub fn slice(&self, lo: &[u32], hi: &[u32], pool: Arc<BufferPool>) -> Result<ChunkedArray> {
        let n = self.shape.n_dims();
        // Reuse sum_region's validation by computing it first (cheap
        // relative to the copy, and keeps error behaviour identical).
        for d in 0..n {
            if d >= lo.len() || d >= hi.len() || lo[d] > hi[d] || hi[d] >= self.shape.dims()[d] {
                return Err(ArrayError::Geometry("invalid slice region".into()));
            }
        }
        let new_dims: Vec<u32> = (0..n).map(|d| hi[d] - lo[d] + 1).collect();
        let new_chunk_dims: Vec<u32> = (0..n)
            .map(|d| self.shape.chunk_dims()[d].min(new_dims[d]))
            .collect();
        let new_shape = Shape::new(new_dims, new_chunk_dims)?;
        let mut builder = ArrayBuilder::new(new_shape, self.n_measures, self.format);
        let mut rebased = vec![0u32; n];
        self.for_each_cell(|coords, values| {
            if (0..n).all(|d| lo[d] <= coords[d] && coords[d] <= hi[d]) {
                for d in 0..n {
                    rebased[d] = coords[d] - lo[d];
                }
                // Coordinates are in range by construction.
                builder.add(&rebased, values).unwrap();
            }
        })?;
        builder.build(pool)
    }

    /// Serializes shape + format + uid + counters + chunk directory.
    pub fn meta_to_bytes(&self) -> Vec<u8> {
        let shape = self.shape.to_bytes();
        let dir = self.lobs.directory_to_bytes();
        let mut out = vec![0u8; 32];
        write_u32(&mut out, 0, self.n_measures as u32);
        write_u32(&mut out, 4, self.format as u32);
        write_u64(&mut out, 8, self.valid_cells);
        write_u32(&mut out, 16, shape.len() as u32);
        write_u32(&mut out, 20, dir.len() as u32);
        write_u64(&mut out, 24, self.uid);
        out.extend_from_slice(&shape);
        out.extend_from_slice(&dir);
        out
    }

    /// Inverse of [`ChunkedArray::meta_to_bytes`] over the same pool.
    pub fn from_meta_bytes(pool: Arc<BufferPool>, bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 32 {
            return Err(ArrayError::Corrupt("array meta header"));
        }
        let n_measures = read_u32(bytes, 0) as usize;
        let format = ChunkFormat::from_u32(read_u32(bytes, 4))?;
        let valid_cells = read_u64(bytes, 8);
        let shape_len = read_u32(bytes, 16) as usize;
        let dir_len = read_u32(bytes, 20) as usize;
        let uid = read_u64(bytes, 24);
        if bytes.len() < 32 + shape_len + dir_len {
            return Err(ArrayError::Corrupt("array meta truncated"));
        }
        let shape = Shape::from_bytes(&bytes[32..32 + shape_len])?;
        let cache = shared_chunk_cache(&pool);
        let versions = shared_version_table(&pool);
        let lobs =
            LobStore::from_directory_bytes(pool, &bytes[32 + shape_len..32 + shape_len + dir_len])?;
        Ok(ChunkedArray {
            shape,
            n_measures,
            format,
            lobs,
            valid_cells,
            cache,
            versions,
            uid,
            writer: None,
        })
    }
}

/// Accumulates cells in memory, then writes chunks in chunk-number
/// order (disk order) in one pass.
pub struct ArrayBuilder {
    shape: Shape,
    n_measures: usize,
    format: ChunkFormat,
    /// (chunk_no, offset) per added cell.
    positions: Vec<(u64, u32)>,
    values: Vec<i64>,
}

impl ArrayBuilder {
    /// Creates a builder for an array of the given geometry and format.
    pub fn new(shape: Shape, n_measures: usize, format: ChunkFormat) -> Self {
        assert!(n_measures > 0, "cells must carry at least one measure");
        ArrayBuilder {
            shape,
            n_measures,
            format,
            positions: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of cells added.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if no cells were added.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Adds a valid cell at `coords`.
    pub fn add(&mut self, coords: &[u32], values: &[i64]) -> Result<()> {
        if values.len() != self.n_measures {
            return Err(ArrayError::Geometry("measure arity mismatch".into()));
        }
        let pos = self.shape.locate(coords)?;
        self.positions.push(pos);
        self.values.extend_from_slice(values);
        Ok(())
    }

    /// Sorts cells into chunk order and writes one large object per
    /// chunk (empty chunks become zero-length objects).
    pub fn build(self, pool: Arc<BufferPool>) -> Result<ChunkedArray> {
        let ArrayBuilder {
            shape,
            n_measures,
            format,
            positions,
            values,
        } = self;
        let mut order: Vec<u32> = (0..positions.len() as u32).collect();
        order.sort_unstable_by_key(|&i| positions[i as usize]);
        for w in order.windows(2) {
            if positions[w[0] as usize] == positions[w[1] as usize] {
                return Err(ArrayError::Geometry("duplicate cell".into()));
            }
        }

        let cache = shared_chunk_cache(&pool);
        let versions = shared_version_table(&pool);
        let lobs = LobStore::new(pool);
        let valid_cells = positions.len() as u64;
        let mut cursor = 0usize;
        for chunk_no in 0..shape.num_chunks() {
            let start = cursor;
            while cursor < order.len() && positions[order[cursor] as usize].0 == chunk_no {
                cursor += 1;
            }
            let mut b = ChunkBuilder::new(n_measures);
            for &i in &order[start..cursor] {
                let (_, off) = positions[i as usize];
                let vi = i as usize * n_measures;
                b.add(off, &values[vi..vi + n_measures]);
            }
            let bytes = format.encode(&b.build()?);
            lobs.append(&bytes)?;
        }
        debug_assert_eq!(lobs.len() as u64, shape.num_chunks());
        Ok(ChunkedArray {
            shape,
            n_measures,
            format,
            lobs,
            valid_cells,
            cache,
            versions,
            uid: next_array_uid(),
            writer: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molap_storage::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024))
    }

    fn build_sample(format: ChunkFormat) -> ChunkedArray {
        let shape = Shape::new(vec![8, 8, 8], vec![4, 4, 4]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, format);
        // Cells at every coordinate where x+y+z ≡ 0 mod 5.
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    if (x + y + z) % 5 == 0 {
                        b.add(&[x, y, z], &[(x * 100 + y * 10 + z) as i64]).unwrap();
                    }
                }
            }
        }
        b.build(pool()).unwrap()
    }

    fn check_contents(a: &ChunkedArray) {
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    let got = a.get(&[x, y, z]).unwrap();
                    if (x + y + z) % 5 == 0 {
                        assert_eq!(got, Some(vec![(x * 100 + y * 10 + z) as i64]));
                    } else {
                        assert_eq!(got, None);
                    }
                }
            }
        }
    }

    #[test]
    fn build_and_get_all_formats() {
        for format in ChunkFormat::ALL {
            let a = build_sample(format);
            assert_eq!(a.format(), format);
            check_contents(&a);
        }
    }

    #[test]
    fn valid_cell_count_and_density() {
        let a = build_sample(ChunkFormat::ChunkOffset);
        let expect = (0..8u32)
            .flat_map(|x| (0..8u32).flat_map(move |y| (0..8u32).map(move |z| (x, y, z))))
            .filter(|(x, y, z)| (x + y + z) % 5 == 0)
            .count() as u64;
        assert_eq!(a.valid_cells(), expect);
        assert!((a.density() - expect as f64 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_cells_rejected() {
        let shape = Shape::new(vec![4], vec![2]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        b.add(&[1], &[1]).unwrap();
        b.add(&[1], &[2]).unwrap();
        assert!(matches!(b.build(pool()), Err(ArrayError::Geometry(_))));
    }

    #[test]
    fn for_each_cell_visits_all_in_chunk_order() {
        let a = build_sample(ChunkFormat::ChunkOffset);
        let mut count = 0u64;
        let mut last = (0u64, 0u32);
        let mut first = true;
        a.for_each_cell(|coords, values| {
            assert_eq!(
                values[0],
                (coords[0] * 100 + coords[1] * 10 + coords[2]) as i64
            );
            let pos = a.shape().locate(coords).unwrap();
            if !first {
                assert!(pos > last, "cells must arrive in (chunk, offset) order");
            }
            first = false;
            last = pos;
            count += 1;
        })
        .unwrap();
        assert_eq!(count, a.valid_cells());
    }

    #[test]
    fn empty_chunks_use_no_pages() {
        let shape = Shape::new(vec![100], vec![10]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        b.add(&[5], &[1]).unwrap(); // only chunk 0 populated
        let a = b.build(pool()).unwrap();
        assert_eq!(a.total_pages(), 1, "nine empty chunks must cost nothing");
        assert_eq!(a.get(&[5]).unwrap(), Some(vec![1]));
        assert_eq!(a.get(&[95]).unwrap(), None);
    }

    #[test]
    fn set_inserts_and_overwrites() {
        let mut a = build_sample(ChunkFormat::ChunkOffset);
        let before = a.valid_cells();
        // Overwrite an existing cell.
        assert!(a.get(&[0, 0, 0]).unwrap().is_some());
        a.set(&[0, 0, 0], &[999]).unwrap();
        assert_eq!(a.get(&[0, 0, 0]).unwrap(), Some(vec![999]));
        assert_eq!(a.valid_cells(), before);
        // Insert a new cell.
        assert!(a.get(&[1, 0, 0]).unwrap().is_none());
        a.set(&[1, 0, 0], &[111]).unwrap();
        assert_eq!(a.get(&[1, 0, 0]).unwrap(), Some(vec![111]));
        assert_eq!(a.valid_cells(), before + 1);
        // Arity errors.
        assert!(a.set(&[0, 0, 0], &[1, 2]).is_err());
        assert!(a.set(&[9, 0, 0], &[1]).is_err());
    }

    #[test]
    fn set_works_on_every_format() {
        for format in ChunkFormat::ALL {
            let mut a = build_sample(format);
            a.set(&[1, 0, 0], &[42]).unwrap();
            assert_eq!(a.get(&[1, 0, 0]).unwrap(), Some(vec![42]));
            check_contents_after_one_insert(&a);
        }
    }

    fn check_contents_after_one_insert(a: &ChunkedArray) {
        // Original pattern must be intact apart from the inserted cell.
        for x in 0..8u32 {
            if x % 5 == 0 || x == 1 {
                assert!(a.get(&[x, 0, 0]).unwrap().is_some());
            } else {
                assert!(a.get(&[x, 0, 0]).unwrap().is_none());
            }
        }
    }

    #[test]
    fn sum_region_matches_naive() {
        let a = build_sample(ChunkFormat::ChunkOffset);
        let naive = |lo: [u32; 3], hi: [u32; 3]| -> i64 {
            let mut s = 0;
            for x in lo[0]..=hi[0] {
                for y in lo[1]..=hi[1] {
                    for z in lo[2]..=hi[2] {
                        if (x + y + z) % 5 == 0 {
                            s += (x * 100 + y * 10 + z) as i64;
                        }
                    }
                }
            }
            s
        };
        for (lo, hi) in [
            ([0, 0, 0], [7, 7, 7]),
            ([0, 0, 0], [0, 0, 0]),
            ([2, 3, 1], [6, 7, 4]),
            ([4, 4, 4], [7, 7, 7]),
            ([1, 1, 1], [2, 2, 2]),
        ] {
            assert_eq!(
                a.sum_region(&lo, &hi).unwrap(),
                vec![naive(lo, hi)],
                "region {lo:?}..={hi:?}"
            );
        }
        assert!(a.sum_region(&[5, 0, 0], &[4, 7, 7]).is_err());
        assert!(a.sum_region(&[0, 0, 0], &[8, 7, 7]).is_err());
    }

    #[test]
    fn sum_region_skips_disjoint_chunks() {
        let p = pool();
        let shape = Shape::new(vec![100], vec![10]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        for x in 0..100u32 {
            b.add(&[x], &[1]).unwrap();
        }
        let a = b.build(p.clone()).unwrap();
        p.clear().unwrap();
        let before = p.stats().snapshot();
        assert_eq!(a.sum_region(&[20], &[29]).unwrap(), vec![10]);
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.physical_reads, 1, "only chunk 2 may be read");
    }

    #[test]
    fn slice_extracts_rebased_subarray() {
        let a = build_sample(ChunkFormat::ChunkOffset);
        let s = a.slice(&[2, 2, 2], &[5, 6, 7], pool()).unwrap();
        assert_eq!(s.shape().dims(), &[4, 5, 6]);
        for x in 0..4u32 {
            for y in 0..5u32 {
                for z in 0..6u32 {
                    let orig = a.get(&[x + 2, y + 2, z + 2]).unwrap();
                    assert_eq!(s.get(&[x, y, z]).unwrap(), orig);
                }
            }
        }
        assert!(a.slice(&[5, 0, 0], &[4, 0, 0], pool()).is_err());
    }

    #[test]
    fn meta_roundtrip_reopens_array() {
        let p = pool();
        let shape = Shape::new(vec![8, 8, 8], vec![4, 4, 4]).unwrap();
        let mut b = ArrayBuilder::new(shape, 2, ChunkFormat::ChunkOffset);
        b.add(&[1, 2, 3], &[10, 20]).unwrap();
        b.add(&[7, 7, 7], &[-1, -2]).unwrap();
        let a = b.build(p.clone()).unwrap();
        let meta = a.meta_to_bytes();
        let reopened = ChunkedArray::from_meta_bytes(p, &meta).unwrap();
        assert_eq!(reopened.valid_cells(), 2);
        assert_eq!(reopened.n_measures(), 2);
        assert_eq!(reopened.get(&[1, 2, 3]).unwrap(), Some(vec![10, 20]));
        assert_eq!(reopened.get(&[7, 7, 7]).unwrap(), Some(vec![-1, -2]));
        assert!(ChunkedArray::from_meta_bytes(pool(), &meta[..10]).is_err());
    }

    #[test]
    fn retired_format_tags_reopen_as_unsupported() {
        let a = build_sample(ChunkFormat::ChunkOffset);
        let meta = a.meta_to_bytes();
        let reopen = |tag: u32| {
            let mut patched = meta.clone();
            write_u32(&mut patched, 4, tag);
            ChunkedArray::from_meta_bytes(a.pool().clone(), &patched).err()
        };
        for tag in [1, 2] {
            assert!(
                matches!(reopen(tag), Some(ArrayError::UnsupportedFormat(t)) if t == tag),
                "tag {tag}"
            );
        }
        assert!(matches!(reopen(7), Some(ArrayError::Corrupt(_))));
        assert!(reopen(0).is_none());
        // A typed name is a user error, not corrupt data.
        for name in ["dense", "denselzw", "lzw"] {
            assert!(
                matches!(name.parse::<ChunkFormat>(), Err(ArrayError::UnknownFormat(n)) if n == name)
            );
        }
        assert_eq!(
            "Chunk-Offset".parse::<ChunkFormat>().ok(),
            Some(ChunkFormat::ChunkOffset)
        );
    }

    #[test]
    fn read_chunk_hits_the_decoded_cache() {
        let p = pool();
        let shape = Shape::new(vec![8], vec![4]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        b.add(&[1], &[10]).unwrap();
        let mut a = b.build(p.clone()).unwrap();

        let before = p.stats().snapshot();
        a.read_chunk(0).unwrap();
        a.read_chunk(0).unwrap();
        a.read_chunk(0).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!((d.chunk_cache_misses, d.chunk_cache_hits), (1, 2));

        // A write invalidates the cached decode; the next read re-decodes
        // and must see the new value.
        a.set(&[2], &[20]).unwrap();
        let before = p.stats().snapshot();
        let chunk = a.read_chunk(0).unwrap();
        assert_eq!(p.stats().snapshot().since(&before).chunk_cache_misses, 1);
        assert_eq!(chunk.probe(2), Some(&[20i64][..]));

        // Clearing the pool makes cached decodes read as cold.
        p.clear().unwrap();
        let before = p.stats().snapshot();
        a.read_chunk(0).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!((d.chunk_cache_misses, d.chunk_cache_hits), (1, 0));

        // Empty chunks bypass the cache entirely.
        let before = p.stats().snapshot();
        a.read_chunk(1).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.chunk_cache_lookups(), 0);
    }

    #[test]
    fn prefetched_reads_match_the_pooled_path_and_share_the_cache() {
        for format in ChunkFormat::ALL {
            let p = pool();
            // Chunks big enough that a cold read spans several pages.
            let shape = Shape::new(vec![8192], vec![4096]).unwrap();
            let mut b = ArrayBuilder::new(shape, 1, format);
            for x in (0..8192u32).step_by(3) {
                b.add(&[x], &[x as i64 * 7]).unwrap();
            }
            let a = b.build(p.clone()).unwrap();
            let expect0 = a.read_chunk(0).unwrap();
            // DiffSeq stays encoded on the pipeline's entry point and
            // so never reaches the chunk cache from there.
            let streamed = format == ChunkFormat::DiffSeq;
            let published = u64::from(!streamed);

            let mut scratch = PrefetchScratch::default();
            for _ in 0..2 {
                // Clearing the pool bumps the epoch: the read is cold.
                p.clear().unwrap();
                let before = p.stats().snapshot();
                let payload = a.read_chunk_stream_at(0, &mut scratch, None).unwrap();
                assert_eq!(
                    matches!(payload, ChunkPayload::DiffSeq(_)),
                    streamed,
                    "{format:?}"
                );
                let got = payload.into_chunk(4096).unwrap();
                assert_eq!(got.len(), expect0.len());
                for x in (0..4096u32).step_by(3) {
                    assert_eq!(got.probe(x), Some(&[x as i64 * 7][..]), "{format:?}");
                }
                let d = p.stats().snapshot().since(&before);
                assert_eq!((d.chunk_cache_misses, d.chunk_cache_hits), (published, 0));
            }

            // A published decode serves both entry points; the pooled
            // read publishes what a streamed chunk did not.
            let before = p.stats().snapshot();
            a.read_chunk(0).unwrap();
            let again = a.read_chunk_stream_at(0, &mut scratch, None).unwrap();
            assert!(matches!(again, ChunkPayload::Chunk(_)), "{format:?}");
            let d = p.stats().snapshot().since(&before);
            assert_eq!(
                (d.chunk_cache_misses, d.chunk_cache_hits),
                (1 - published, 1 + published),
                "{format:?}"
            );
        }
    }

    #[test]
    fn snapshot_reads_pre_batch_image_until_publish() {
        // Readers hold their own handle (directory frozen at open), the
        // writer mutates its own — the production arrangement a
        // snapshot makes consistent. Relocating overwrites leave the
        // old bytes intact for the frozen directory; in-place
        // overwrites are bridged by the pinned pre-image.
        for (format, in_place) in [
            (ChunkFormat::ChunkOffset, false),
            (ChunkFormat::DiffSeq, false),
            // An update of existing cells keeps the chunk's byte
            // length, so `LobStore::overwrite` rewrites it in place.
            (ChunkFormat::ChunkOffset, true),
        ] {
            let mut a = build_sample(format);
            let reader =
                ChunkedArray::from_meta_bytes(a.pool().clone(), &a.meta_to_bytes()).unwrap();
            let (chunk_no, offset) = a.shape().locate(&[0, 0, 0]).unwrap();
            let old = a
                .read_chunk(chunk_no)
                .unwrap()
                .probe(offset)
                .unwrap()
                .to_vec();
            let location = a.chunk_key(chunk_no).unwrap();
            let vt = shared_version_table(a.pool()).unwrap();
            let snap = vt.begin_snapshot();

            // Unpublished batch: the pin shields both snapshotted and
            // unsnapshotted readers from the half-committed bytes.
            let mut edits = vec![(offset, vec![4242])];
            if !in_place {
                edits.push((offset + 1, vec![17]));
            }
            let olds = a.apply_chunk_writes(chunk_no, &edits).unwrap();
            assert_eq!(olds[0].as_deref(), Some(&old[..]));
            assert!(
                olds[1..].iter().all(Option::is_none),
                "offset+1 was invalid"
            );
            assert_eq!(
                a.chunk_key(chunk_no).unwrap() == location,
                in_place,
                "{format:?}: only an update of existing cells stays in place"
            );
            let via_snap = reader.read_chunk_at(chunk_no, Some(&snap)).unwrap();
            assert_eq!(via_snap.probe(offset), Some(&old[..]), "{format:?}");
            assert_eq!(via_snap.probe(offset + 1), None);
            let via_current = reader.read_chunk(chunk_no).unwrap();
            assert_eq!(via_current.probe(offset), Some(&old[..]), "{format:?}");

            // Published: the writer's handle sees the batch, the old
            // snapshot keeps resolving to its pre-batch image.
            a.publish_writes();
            let via_writer = a.read_chunk(chunk_no).unwrap();
            assert_eq!(via_writer.probe(offset), Some(&[4242i64][..]));
            let inserted = (!in_place).then_some(&[17i64][..]);
            assert_eq!(via_writer.probe(offset + 1), inserted);
            let via_snap = reader.read_chunk_at(chunk_no, Some(&snap)).unwrap();
            assert_eq!(via_snap.probe(offset), Some(&old[..]));
            assert_eq!(via_snap.probe(offset + 1), None);
            let mut scratch = PrefetchScratch::default();
            let via_prefetch = reader
                .read_chunk_stream_at(chunk_no, &mut scratch, Some(&snap))
                .and_then(|payload| payload.into_chunk(u32::MAX))
                .unwrap();
            assert_eq!(via_prefetch.probe(offset), Some(&old[..]));
            if in_place {
                // In place, even the frozen reader directory reads the
                // published bytes.
                let via_reader = reader.read_chunk(chunk_no).unwrap();
                assert_eq!(via_reader.probe(offset), Some(&[4242i64][..]));
            }

            // Dropping the snapshot releases the pinned image.
            drop(snap);
            assert_eq!(vt.pinned_versions(), 0);
        }
    }

    #[test]
    fn a_decode_from_before_a_pin_is_not_published_behind_it() {
        // The loader's last step when a writer pins between the
        // reader's final pin check and its cache insert: the insert is
        // conditional on the pin counter sampled before the read.
        let mut a = build_sample(ChunkFormat::ChunkOffset);
        let vt = shared_version_table(a.pool()).unwrap();
        let cache = shared_chunk_cache(a.pool()).unwrap();
        let (chunk_no, offset) = a.shape().locate(&[0, 0, 0]).unwrap();
        let key = a.chunk_key(chunk_no).unwrap();
        let vkey = a.version_key(chunk_no);
        let epoch = a.pool().epoch();

        // A second reader looks mid-pin, from inside the writer's
        // `pin_provisional`: what it can see without the table's lock.
        let mid_pin = Arc::new(parking_lot::Mutex::new(None));
        let seen = mid_pin.clone();
        let hook = move |vt: &VersionTable| {
            *seen.lock() = Some((vt.pins_taken(vkey), vt.pin_visible_lock_free()));
        };
        assert!(vt.mid_pin.set(Box::new(hook)).is_ok());

        let sampled = vt.pins_taken(vkey);
        let stale = a.read_chunk(chunk_no).unwrap();
        // The writer pins, drops the cached decode, overwrites in place
        // (an update of an existing cell keeps the byte length).
        a.apply_chunk_writes(chunk_no, &[(offset, vec![4242])])
            .unwrap();
        assert_eq!(a.chunk_key(chunk_no).unwrap(), key, "not in place");
        assert!(cache.get(&key, epoch).is_none());
        let unwritten = || vt.pins_taken(vkey) == sampled;
        cache.insert(key, epoch, stale.clone(), stale.byte_size(), unwritten);
        assert!(
            cache.get(&key, epoch).is_none(),
            "a pre-write image came back behind the pin"
        );
        // The reader that sampled the counter mid-pin: either its
        // sample is already invalid by the time the writer removes the
        // cache entry, or the pin was visible to its lock-free check —
        // never a current sample with the pin still hidden.
        let (mid_sample, pin_visible) = (*mid_pin.lock()).expect("the pin ran the hook");
        assert!(
            pin_visible || mid_sample != vt.pins_taken(vkey),
            "a sample taken mid-pin survives the pin without having seen it"
        );
        a.publish_writes();
        let now = a.read_chunk(chunk_no).unwrap();
        assert_eq!(now.probe(offset), Some(&[4242i64][..]));
    }

    #[test]
    fn arrays_on_one_pool_share_the_cache() {
        let p = pool();
        let shape = Shape::new(vec![8], vec![4]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
        b.add(&[1], &[10]).unwrap();
        let a = b.build(p.clone()).unwrap();
        a.read_chunk(0).unwrap(); // warm

        // Reopening over the same pool sees the same cache, so the first
        // read of the reopened array is already a hit.
        let reopened = ChunkedArray::from_meta_bytes(p.clone(), &a.meta_to_bytes()).unwrap();
        let before = p.stats().snapshot();
        reopened.read_chunk(0).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!((d.chunk_cache_hits, d.chunk_cache_misses), (1, 0));
    }

    #[test]
    fn storage_footprint_ordering() {
        // On sparse data: diff-seq < chunk-offset < lzw(dense) < dense
        // (§3.3). The two dense baselines encode the chunk-offset
        // array's own non-empty chunks.
        let shape = Shape::new(vec![40, 40, 40], vec![20, 20, 20]).unwrap();
        // 1% density, scattered, deduplicated.
        let mut coords = std::collections::BTreeSet::new();
        let mut x = 88172645463325252u64;
        while coords.len() < 640 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            coords.insert([
                (x % 40) as u32,
                ((x >> 8) % 40) as u32,
                ((x >> 16) % 40) as u32,
            ]);
        }
        let build = |format| {
            let mut b = ArrayBuilder::new(shape.clone(), 1, format);
            for c in &coords {
                b.add(c, &[1]).unwrap();
            }
            b.build(pool()).unwrap()
        };
        let offset = build(ChunkFormat::ChunkOffset);
        let (mut dense, mut lzw) = (0, 0);
        for chunk_no in 0..shape.num_chunks() {
            let chunk = offset.read_chunk(chunk_no).unwrap();
            if !chunk.is_empty() {
                let raw = chunk.to_dense(shape.chunk_cells() as usize).to_bytes();
                lzw += crate::lzw::compress(&raw).len() as u64;
                dense += raw.len() as u64;
            }
        }
        let sizes = [
            build(ChunkFormat::DiffSeq).total_bytes(),
            offset.total_bytes(),
            lzw,
            dense,
        ];
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "expected diff-seq < chunk-offset < lzw < dense, got {sizes:?}"
        );
    }
}
