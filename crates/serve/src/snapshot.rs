//! Snapshot format v4 — the one representation of a [`RewriteIndex`].
//!
//! Every index, whether built in this process, read from a reader, or
//! mapped from a file, is a view over these bytes: the shared arena
//! container (`simrankpp_util::arena`) with a 32-byte header, a
//! checksummed section table, and 8-byte-aligned zero-padded sections.
//! Two properties fall out of that:
//!
//! * **whole-section writes** — `encode` stages each array as a single
//!   section, and saving an index is one `write_all` of its bytes;
//! * **zero-copy loads** — the file can be `mmap`ed and consumed in place
//!   ([`RewriteIndex::open`]); parsing costs O(#sections), so startup time
//!   is independent of index size.
//!
//! ```text
//! tag   section         payload
//! 0x01  META            u64 × 7: method, max_rewrites,
//!                       flags (bid_filtered | approx_sharding << 1 |
//!                       has_names << 2), kernel, n_queries, n_entries,
//!                       segments
//! 0x02  OFFSETS         u32 × (n_queries + 1), row extents
//! 0x03  TARGETS         u32 × n_entries, rewrite ids
//! 0x04  SCORES          f64 × n_entries
//! 0x05  NAME_OFFS       u64 × (n_names + 1)   (named indexes only)
//! 0x06  NAME_BLOB       concatenated UTF-8 name bytes
//! 0x07  NAME_HASH       u64 × n_names, fnv1a(name), sorted
//! 0x08  NAME_IDS        u32 × n_names, query id per hash entry
//! ```
//!
//! `NAME_HASH`/`NAME_IDS` are a pre-sorted lookup table written at build
//! time, so `lookup("camera")` is a binary search over the bytes and no
//! hash map is ever materialised (which would make startup O(n)).
//!
//! There are two ways in:
//!
//! * [`RewriteIndex::open`] — shallow: version, arena table, meta block
//!   and the O(1) section-shape checks. Accessors stay bounds-checked, so
//!   a hostile file answers "absent" rather than panicking;
//! * [`RewriteIndex::load`] / [`RewriteIndex::read_snapshot`] — the same
//!   parse plus every section checksum and the full structural
//!   [`RewriteIndex::validate`].
//!
//! Version history: v4 this arena layout; v3 added the engine `kernel`
//! byte; v2 added the `approx_sharding` flag. Older versions are refused
//! with a rebuild hint — snapshots are cheap build artifacts, not
//! long-lived data. The v1–v3 header began `magic | version u32`, which
//! coincides with the arena header's magic/version slots, so the version
//! check below reads old files' true version and refuses them cleanly.
//!
//! The engine has one kernel (pull, word `0`) and only exact sharding,
//! so a v4 file whose kernel word names a retired kernel (`1` flat, `2`
//! hash-map) or whose `approx_sharding` flag is set gets the same rebuild
//! hint: every index is pull-built and exactly sharded.

use crate::index::{IndexMeta, RewriteIndex};
use crate::mmap::Backing;
use simrankpp_core::{KernelKind, MethodKind};
use simrankpp_util::{cast_slice, fnv1a, AlignedBytes, Arena, ArenaWriter, Pod};
use std::fs::File;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;

pub(crate) const MAGIC: [u8; 8] = *b"SRPPIDX\0";
pub(crate) const VERSION: u32 = 4;

const SEC_META: u64 = 0x01;
const SEC_OFFSETS: u64 = 0x02;
const SEC_TARGETS: u64 = 0x03;
const SEC_SCORES: u64 = 0x04;
const SEC_NAME_OFFS: u64 = 0x05;
const SEC_NAME_BLOB: u64 = 0x06;
const SEC_NAME_HASH: u64 = 0x07;
const SEC_NAME_IDS: u64 = 0x08;

const META_WORDS: usize = 7;
const FLAG_BID: u64 = 1;
const FLAG_APPROX: u64 = 1 << 1;
const FLAG_NAMES: u64 = 1 << 2;

/// How every refused-but-well-formed snapshot tells the operator to recover.
const REBUILD_HINT: &str = "rebuild the snapshot with `serve build`";

/// Longest name accepted on read; anything larger indicates corruption
/// rather than a real query string.
const MAX_NAME_BYTES: u64 = 1 << 20;

/// Encodes one index generation as v4 arena bytes. `offsets` has one
/// entry per query plus the end sentinel; `names`, when present, lists the
/// display names of queries `0..names.len()` in id order.
pub(crate) fn encode(
    meta: &IndexMeta,
    offsets: &[u32],
    targets: &[u32],
    scores: &[f64],
    names: Option<&[&str]>,
) -> AlignedBytes {
    let mut flags = 0u64;
    if meta.bid_filtered {
        flags |= FLAG_BID;
    }
    if names.is_some() {
        flags |= FLAG_NAMES;
    }
    let meta_words = [
        kind_to_u8(meta.method) as u64,
        meta.max_rewrites as u64,
        flags,
        0, // kernel word: pull, the engine's one kernel
        (offsets.len() - 1) as u64,
        targets.len() as u64,
        meta.segments as u64,
    ];
    let (mut name_offs, mut name_blob) = (vec![0u64], Vec::new());
    let mut hashed: Vec<(u64, u32)> = Vec::new();
    for (id, name) in names.unwrap_or_default().iter().enumerate() {
        name_blob.extend_from_slice(name.as_bytes());
        name_offs.push(name_blob.len() as u64);
        hashed.push((fnv1a(name.as_bytes()), id as u32));
    }
    hashed.sort_unstable();
    let (name_hash, name_ids): (Vec<u64>, Vec<u32>) = hashed.into_iter().unzip();

    let mut w = ArenaWriter::new(MAGIC, VERSION);
    w.slice(SEC_META, &meta_words)
        .slice(SEC_OFFSETS, offsets)
        .slice(SEC_TARGETS, targets)
        .slice(SEC_SCORES, scores);
    if names.is_some() {
        w.slice(SEC_NAME_OFFS, &name_offs)
            .section(SEC_NAME_BLOB, &name_blob)
            .slice(SEC_NAME_HASH, &name_hash)
            .slice(SEC_NAME_IDS, &name_ids);
    }
    w.to_aligned_bytes()
}

/// Byte ranges of the name sections within the backing buffer.
#[derive(Debug, Clone)]
pub(crate) struct NameRanges {
    pub(crate) offs: Range<usize>,
    pub(crate) blob: Range<usize>,
    pub(crate) hash: Range<usize>,
    pub(crate) ids: Range<usize>,
}

/// Where each section sits within an arena's bytes, plus the decoded meta
/// block: everything a shallow parse learns.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub(crate) meta: IndexMeta,
    pub(crate) n_queries: u32,
    pub(crate) offsets: Range<usize>,
    pub(crate) targets: Range<usize>,
    pub(crate) scores: Range<usize>,
    pub(crate) names: Option<NameRanges>,
}

/// Shallow O(#sections) parse: version, arena table, meta block, each
/// section's alignment and length, and the O(1) shape checks — section
/// lengths against the header counts plus the two offset endpoints.
/// Interior offsets are *not* scanned (that would make startup O(n));
/// accessors bounds-check instead, and [`RewriteIndex::validate`] covers
/// the rest.
pub(crate) fn parse(bytes: &[u8]) -> io::Result<Layout> {
    check_version(bytes)?;
    let arena = Arena::parse(bytes, MAGIC).map_err(|e| corrupt(&e))?;
    let meta_words: &[u64] = arena.slice(SEC_META).map_err(|e| corrupt(&e))?;
    let (meta, has_names, n_queries, n_entries) = decode_meta(meta_words)?;

    let offsets = typed_range::<u32>(&arena, SEC_OFFSETS)?;
    let targets = typed_range::<u32>(&arena, SEC_TARGETS)?;
    let scores = typed_range::<f64>(&arena, SEC_SCORES)?;
    if (offsets.len() / 4) as u64 != n_queries + 1 {
        return Err(corrupt("offsets section disagrees with header query count"));
    }
    if (targets.len() / 4) as u64 != n_entries || (scores.len() / 8) as u64 != n_entries {
        return Err(corrupt("entry sections disagree with header entry count"));
    }
    let offs: &[u32] = cast_slice(&bytes[offsets.clone()]).map_err(|e| corrupt(&e))?;
    if offs.first() != Some(&0) {
        return Err(corrupt("offsets must start at 0"));
    }
    if offs.last().map(|&o| o as u64) != Some(n_entries) {
        return Err(corrupt("offsets do not end at the entry count"));
    }

    let names = if has_names {
        let offs = typed_range::<u64>(&arena, SEC_NAME_OFFS)?;
        let blob = byte_range(&arena, SEC_NAME_BLOB)?;
        let hash = typed_range::<u64>(&arena, SEC_NAME_HASH)?;
        let ids = typed_range::<u32>(&arena, SEC_NAME_IDS)?;
        if offs.is_empty() {
            return Err(corrupt("empty name offsets section"));
        }
        let n_names = offs.len() / 8 - 1;
        if hash.len() / 8 != n_names || ids.len() / 4 != n_names {
            return Err(corrupt("name lookup table disagrees with name count"));
        }
        Some(NameRanges {
            offs,
            blob,
            hash,
            ids,
        })
    } else {
        None
    };
    Ok(Layout {
        meta,
        n_queries: n_queries as u32,
        offsets,
        targets,
        scores,
        names,
    })
}

fn byte_range(arena: &Arena<'_>, tag: u64) -> io::Result<Range<usize>> {
    let section = arena.require(tag).map_err(|e| corrupt(&e))?;
    let start = section.as_ptr() as usize - arena.bytes().as_ptr() as usize;
    Ok(start..start + section.len())
}

fn typed_range<T: Pod>(arena: &Arena<'_>, tag: u64) -> io::Result<Range<usize>> {
    // Alignment/length check once at parse; later accesses re-cast the
    // same immutable bytes.
    arena.slice::<T>(tag).map_err(|e| corrupt(&e))?;
    byte_range(arena, tag)
}

/// Re-hashes every section of `bytes` against its table checksum.
fn verify_checksums(bytes: &[u8]) -> io::Result<()> {
    check_version(bytes)?;
    let arena = Arena::parse(bytes, MAGIC).map_err(|e| corrupt(&e))?;
    arena.verify_deep().map_err(|e| corrupt(&e))
}

/// Checks the version field **before** arena parsing so v1–v3 files (whose
/// header also began `magic | version u32`) get the established refusal
/// message rather than an opaque table-checksum error.
fn check_version(bytes: &[u8]) -> io::Result<()> {
    if bytes.len() < 12 {
        return Err(corrupt("not a rewrite-index snapshot (truncated header)"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("not a rewrite-index snapshot (bad magic)"));
    }
    let version = u32::from_ne_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt(&format!(
            "unsupported snapshot version {version} (expected {VERSION}; {REBUILD_HINT})"
        )));
    }
    Ok(())
}

/// Decodes the meta section into `(IndexMeta, has_names, n_queries,
/// n_entries)`.
fn decode_meta(meta: &[u64]) -> io::Result<(IndexMeta, bool, u64, u64)> {
    if meta.len() != META_WORDS {
        return Err(corrupt(&format!(
            "meta section holds {} words (expected {META_WORDS})",
            meta.len()
        )));
    }
    let method = u8::try_from(meta[0])
        .ok()
        .and_then(kind_from_u8)
        .ok_or_else(|| corrupt("unknown method kind in header"))?;
    let max_rewrites = u32::try_from(meta[1]).map_err(|_| corrupt("max_rewrites out of range"))?;
    let flags = meta[2];
    match meta[3] {
        0 => {}
        1 | 2 => {
            return Err(corrupt(&format!(
                "snapshot was computed by a retired engine kernel (word {}); {REBUILD_HINT}",
                meta[3]
            )))
        }
        _ => return Err(corrupt("unknown engine kernel in header")),
    }
    if flags & FLAG_APPROX != 0 {
        return Err(corrupt(&format!(
            "snapshot was computed under approximate sharding; {REBUILD_HINT}"
        )));
    }
    let n_queries = meta[4];
    let n_entries = meta[5];
    let segments = u32::try_from(meta[6]).map_err(|_| corrupt("segment count out of range"))?;
    if u32::try_from(n_queries).is_err() {
        return Err(corrupt("query count out of range"));
    }
    Ok((
        IndexMeta {
            method,
            max_rewrites,
            bid_filtered: flags & FLAG_BID != 0,
            approx_sharding: false,
            kernel: KernelKind::Pull,
            segments,
        },
        flags & FLAG_NAMES != 0,
        n_queries,
        n_entries,
    ))
}

impl RewriteIndex {
    /// Opens a snapshot preferring `mmap` (heap fallback): O(#sections),
    /// no array copied, hashed or scanned. Accessors stay bounds-checked;
    /// [`RewriteIndex::verify_deep`] and [`RewriteIndex::validate`] run
    /// the deferred checks on demand.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<RewriteIndex> {
        Self::from_backing(Backing::open(path.as_ref())?)
    }

    /// [`RewriteIndex::open`] into the heap unconditionally (differential
    /// tests compare the two backings).
    pub fn open_heap<P: AsRef<Path>>(path: P) -> io::Result<RewriteIndex> {
        Self::from_backing(Backing::open_heap(path.as_ref())?)
    }

    /// Reads a snapshot into the heap and checks everything: the shallow
    /// parse, every section checksum, and the full structural
    /// [`RewriteIndex::validate`].
    pub fn read_snapshot<R: Read>(mut input: R) -> io::Result<RewriteIndex> {
        let mut raw = Vec::new();
        input.read_to_end(&mut raw)?;
        let backing = Backing::Live(AlignedBytes::copy_from(&raw));
        drop(raw);
        // Checksums first, so a flipped payload byte reports as corruption
        // rather than as whichever shape check it happens to break.
        verify_checksums(backing.bytes())?;
        let index = Self::from_backing(backing)?;
        index
            .validate()
            .map_err(|e| corrupt(&format!("invalid index structure: {e}")))?;
        Ok(index)
    }

    /// Loads and fully checks a snapshot from `path` (see
    /// [`RewriteIndex::read_snapshot`]).
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<RewriteIndex> {
        Self::read_snapshot(File::open(path)?)
    }

    /// Writes the index's v4 bytes to `out`.
    pub fn write_snapshot<W: Write>(&self, mut out: W) -> io::Result<()> {
        out.write_all(self.bytes())?;
        out.flush()
    }

    /// Writes the binary snapshot to `path` atomically and durably
    /// (sibling temp + fsync + rename + directory fsync): a crash mid-save
    /// leaves either the previous snapshot or the new one at `path`, never
    /// a torn file that later fails checksum with a confusing error.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        simrankpp_util::fail_point!("snapshot-save");
        simrankpp_util::durable::atomic_write(path.as_ref(), |w| self.write_snapshot(w))
    }

    /// Re-hashes every section against its table checksum — O(file size),
    /// run on demand, never at open.
    pub fn verify_deep(&self) -> io::Result<()> {
        verify_checksums(self.bytes())
    }

    /// Checks every structural invariant the shallow parse defers, so a
    /// corrupt or hand-edited artifact is refused before it serves traffic
    /// ([`RewriteIndex::load`] runs this).
    ///
    /// Verified: monotone offsets, target ids in range and off the
    /// diagonal, finite scores in non-increasing ranking order, row
    /// lengths within `meta.max_rewrites`; name offsets that span the
    /// blob, names that are UTF-8, at most 1 MiB long and
    /// unique (a duplicated name would route lookups to the wrong query's
    /// row), no more names than queries; and a `NAME_HASH`/`NAME_IDS`
    /// table that is exactly the sorted `(fnv1a(name), id)` pairs of the
    /// names, since lookups read that table.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_queries();
        let offsets: &[u32] = self.section(&self.layout.offsets);
        let targets: &[u32] = self.section(&self.layout.targets);
        let scores: &[f64] = self.section(&self.layout.scores);
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        for q in 0..n {
            let (lo, hi) = (offsets[q] as usize, offsets[q + 1] as usize);
            if hi - lo > self.meta().max_rewrites as usize {
                return Err(format!("query {q}: row exceeds max_rewrites"));
            }
            for i in lo..hi {
                if targets[i] as usize >= n {
                    return Err(format!("query {q}: target id out of range"));
                }
                if targets[i] as usize == q {
                    return Err(format!("query {q}: listed as its own rewrite"));
                }
                if !scores[i].is_finite() {
                    return Err(format!("query {q}: non-finite score"));
                }
                if i > lo && scores[i] > scores[i - 1] {
                    return Err(format!("query {q}: scores not in ranking order"));
                }
            }
        }
        let Some(ranges) = &self.layout.names else {
            return Ok(());
        };
        let offs: &[u64] = self.section(&ranges.offs);
        let blob = &self.bytes()[ranges.blob.clone()];
        let hash: &[u64] = self.section(&ranges.hash);
        let ids: &[u32] = self.section(&ranges.ids);
        if offs.first() != Some(&0) || offs.last().copied() != Some(blob.len() as u64) {
            return Err("name offsets do not span the name blob".into());
        }
        let n_names = offs.len() - 1;
        if n_names > n {
            return Err(format!("name table has {n_names} entries for {n} queries"));
        }
        let mut names = Vec::with_capacity(n_names);
        for w in offs.windows(2) {
            if w[1] < w[0] || w[1] - w[0] > MAX_NAME_BYTES {
                return Err("name length out of range".into());
            }
            let bytes = &blob[w[0] as usize..w[1] as usize];
            names.push(std::str::from_utf8(bytes).map_err(|_| "name is not valid UTF-8")?);
        }
        // Strictly increasing (hash, id) pairs whose hashes match their
        // names make `ids` a permutation of the name ids, and put any two
        // equal names (equal hashes) in one run of the table; each run is
        // sorted to find them, so even a file of colliding hashes costs
        // O(n log n).
        let mut run: Vec<&str> = Vec::new();
        for i in 0..n_names {
            let name = *names
                .get(ids[i] as usize)
                .ok_or("name lookup table names an id past the name table")?;
            if hash[i] != fnv1a(name.as_bytes()) {
                return Err("name lookup table disagrees with the names".into());
            }
            if i > 0 && (hash[i - 1], ids[i - 1]) >= (hash[i], ids[i]) {
                return Err("name lookup table is not sorted".into());
            }
            if i > 0 && hash[i - 1] != hash[i] {
                refuse_duplicates(&mut run)?;
            }
            run.push(name);
        }
        refuse_duplicates(&mut run)
    }
}

/// Sorts one run of equal-hash names, refuses a repeated name, and empties
/// the run for the next one.
fn refuse_duplicates(run: &mut Vec<&str>) -> Result<(), String> {
    run.sort_unstable();
    if let Some(w) = run.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate query name {:?} in name table", w[0]));
    }
    run.clear();
    Ok(())
}

fn kind_to_u8(kind: MethodKind) -> u8 {
    match kind {
        MethodKind::Naive => 0,
        MethodKind::Pearson => 1,
        MethodKind::Simrank => 2,
        MethodKind::EvidenceSimrank => 3,
        MethodKind::WeightedSimrank => 4,
    }
}

fn kind_from_u8(b: u8) -> Option<MethodKind> {
    Some(match b {
        0 => MethodKind::Naive,
        1 => MethodKind::Pearson,
        2 => MethodKind::Simrank,
        3 => MethodKind::EvidenceSimrank,
        4 => MethodKind::WeightedSimrank,
        _ => return None,
    })
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_core::{Method, Rewriter, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::{QueryId, WeightKind};
    use simrankpp_util::{ENDIAN_MARK, HEADER_BYTES, TABLE_ENTRY_BYTES};
    use std::path::PathBuf;

    fn fig3_index(kind: MethodKind) -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(kind, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    fn roundtrip(index: &RewriteIndex) -> RewriteIndex {
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        RewriteIndex::read_snapshot(buf.as_slice()).unwrap()
    }

    fn snapshot_bytes(index: &RewriteIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        buf
    }

    /// Writes `bytes` to a per-process temp file named after `name`.
    fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "simrankpp_snapshot_{name}_{}.idx",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Table extent of an encoded arena: `HEADER_BYTES .. table_end`.
    fn table_end(buf: &[u8]) -> usize {
        let n = u32::from_ne_bytes(buf[12..16].try_into().unwrap()) as usize;
        HEADER_BYTES + n * TABLE_ENTRY_BYTES
    }

    fn word(buf: &[u8], at: usize) -> u64 {
        u64::from_ne_bytes(buf[at..at + 8].try_into().unwrap())
    }

    /// Byte offset of section `tag`'s table entry.
    fn table_entry(buf: &[u8], tag: u64) -> usize {
        (HEADER_BYTES..table_end(buf))
            .step_by(TABLE_ENTRY_BYTES)
            .find(|&base| word(buf, base) == tag)
            .expect("section present")
    }

    /// Byte range of section `tag`'s payload.
    fn section_range(buf: &[u8], tag: u64) -> Range<usize> {
        let base = table_entry(buf, tag);
        let off = word(buf, base + 8) as usize;
        off..off + word(buf, base + 16) as usize
    }

    /// Re-seals a tampered arena: recomputes every section checksum from
    /// the (possibly corrupted) payload bytes and the table checksum from
    /// the (possibly corrupted) table, so tampering reaches the targeted
    /// validation layer instead of tripping an earlier checksum.
    fn reseal(buf: &mut [u8]) {
        let end = table_end(buf);
        for base in (HEADER_BYTES..end).step_by(TABLE_ENTRY_BYTES) {
            let off = word(buf, base + 8) as usize;
            let len = word(buf, base + 16) as usize;
            if off + len <= buf.len() {
                let h = fnv1a(&buf[off..off + len]);
                buf[base + 24..base + 32].copy_from_slice(&h.to_ne_bytes());
            }
        }
        let h = fnv1a(&buf[HEADER_BYTES..end]);
        buf[24..32].copy_from_slice(&h.to_ne_bytes());
    }

    /// `index`'s bytes with `edit` applied to section `tag`'s payload,
    /// re-sealed.
    fn tampered(index: &RewriteIndex, tag: u64, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut buf = snapshot_bytes(index);
        let range = section_range(&buf, tag);
        edit(&mut buf[range]);
        reseal(&mut buf);
        buf
    }

    fn put_u32(bytes: &mut [u8], i: usize, v: u32) {
        bytes[4 * i..4 * i + 4].copy_from_slice(&v.to_ne_bytes());
    }

    fn put_u64(bytes: &mut [u8], i: usize, v: u64) {
        bytes[8 * i..8 * i + 8].copy_from_slice(&v.to_ne_bytes());
    }

    /// Opens `bytes` from a file through both entry points — the checked
    /// [`RewriteIndex::load`] and the shallow [`RewriteIndex::open`] — and
    /// returns both refusals.
    fn refusals(bytes: &[u8], name: &str) -> [String; 2] {
        let path = temp_file(name, bytes);
        let loaded = RewriteIndex::load(&path).unwrap_err().to_string();
        let opened = RewriteIndex::open(&path).unwrap_err().to_string();
        std::fs::remove_file(&path).ok();
        [loaded, opened]
    }

    /// Touches every row, name and name lookup of `index` — what serving
    /// an unvalidated file may do — returning the names that resolve back
    /// to their own id.
    fn serve_everything(index: &RewriteIndex) -> usize {
        let mut resolved = 0;
        for q in 0..index.n_queries() as u32 + 2 {
            let row = index.row(QueryId(q));
            assert_eq!(row.ids().len(), row.scores().len());
            for (t, _, _) in row.iter() {
                index.query_name(t);
            }
            if let Some(name) = index.query_name(QueryId(q)) {
                resolved += usize::from(index.lookup(name) == Some(QueryId(q)));
            }
        }
        resolved
    }

    #[test]
    fn binary_roundtrip_is_identical() {
        for kind in MethodKind::EVALUATED {
            let index = fig3_index(kind);
            let loaded = roundtrip(&index);
            assert_eq!(loaded.meta(), index.meta());
            // Offsets, targets and scores roundtrip bit-exactly.
            assert_eq!(loaded.bytes(), index.bytes());
            for q in 0..index.n_queries() as u32 {
                let (a, b) = (loaded.row(QueryId(q)), index.row(QueryId(q)));
                assert_eq!(a.ids(), b.ids());
                for (x, y) in a.scores().iter().zip(b.scores()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            assert!(loaded.lookup("camera").is_some());
        }
    }

    #[test]
    fn snapshot_is_arena_with_aligned_sections() {
        let buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        assert_eq!(buf.len() % 8, 0);
        assert_eq!(&buf[..8], &MAGIC);
        assert_eq!(word(&buf, 16), ENDIAN_MARK);
        let end = table_end(&buf);
        for base in (HEADER_BYTES..end).step_by(TABLE_ENTRY_BYTES) {
            let off = word(&buf, base + 8);
            assert_eq!(off % 8, 0, "section at table offset {base} misaligned");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        for msg in refusals(b"NOTANIDX________", "magic") {
            assert!(msg.contains("magic"), "{msg}");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        buf[8] = 99; // version byte
        for msg in refusals(&buf, "version") {
            assert!(msg.contains("version"), "{msg}");
        }
    }

    #[test]
    fn v3_snapshot_refused_with_rebuild_hint() {
        // A v1–v3 file began `magic | version u32 | ...`; only those 12
        // bytes matter for the refusal path.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported snapshot version 3"), "{msg}");
        assert!(
            msg.contains("rebuild the snapshot with `serve build`"),
            "{msg}"
        );
    }

    #[test]
    fn mapped_refuses_v3_with_rebuild_hint() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SRPPIDX\0");
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let path = temp_file("v3", &buf);
        let err = RewriteIndex::open(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported snapshot version 3"), "{msg}");
        assert!(msg.contains("rebuild"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_caught_by_checksum() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // Flip one payload byte somewhere in the middle.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("corrupt") || msg.contains("invalid"),
            "{msg}"
        );
        // `open` defers payload hashing: whatever it accepts serves without
        // a panic, and the on-demand deep check refuses it.
        let path = temp_file("checksum", &buf);
        if let Ok(opened) = RewriteIndex::open(&path) {
            serve_everything(&opened);
            assert!(opened.verify_deep().is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_section_table_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        buf.truncate(HEADER_BYTES + TABLE_ENTRY_BYTES / 2);
        for msg in refusals(&buf, "table") {
            assert!(msg.contains("truncated"), "{msg}");
        }
    }

    #[test]
    fn misaligned_section_offset_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // Knock the first section's offset off 8-alignment, then re-seal the
        // table checksum so the tamper reaches the alignment check (the
        // table FNV is verified first and would otherwise mask it).
        let base = HEADER_BYTES;
        let off = word(&buf, base + 8);
        buf[base + 8..base + 16].copy_from_slice(&(off + 4).to_ne_bytes());
        reseal(&mut buf);
        for msg in refusals(&buf, "aligned") {
            assert!(msg.contains("aligned"), "{msg}");
        }
    }

    #[test]
    fn oversized_section_length_rejected_without_allocating() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // Claim the scores section extends far past the file, re-sealed so
        // the bounds check (not the table checksum) is what fires. The
        // reader must refuse via arithmetic, never allocate from the bogus
        // length.
        let base = table_entry(&buf, SEC_SCORES);
        buf[base + 16..base + 24].copy_from_slice(&(u64::MAX / 2).to_ne_bytes());
        reseal(&mut buf);
        for msg in refusals(&buf, "oversized") {
            assert!(msg.contains("beyond") || msg.contains("overflow"), "{msg}");
        }
    }

    #[test]
    fn absurd_section_count_rejected_without_allocating() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // A corrupted n_sections field must come back as Err, not as an
        // absurd up-front allocation that aborts the process.
        buf[12..16].copy_from_slice(&u32::MAX.to_ne_bytes());
        refusals(&buf, "count");
    }

    /// The v4 bytes of `index` with meta word `i` replaced and the arena
    /// re-sealed, so the meta check — not a checksum — is what fires.
    fn with_meta_word(index: &RewriteIndex, i: usize, value: u64) -> Vec<u8> {
        tampered(index, SEC_META, |meta| put_u64(meta, i, value))
    }

    #[test]
    fn kernel_provenance_survives_roundtrip_and_bad_value_rejected() {
        let index = fig3_index(MethodKind::Simrank);
        // Built with the default config, so the recorded kernel is Pull.
        assert_eq!(index.meta().kernel, KernelKind::Pull);
        let loaded = roundtrip(&index);
        assert_eq!(loaded.meta().kernel, KernelKind::Pull);
        assert_eq!(loaded.meta(), index.meta());
        for msg in refusals(&with_meta_word(&index, 3, 99), "kernel99") {
            assert!(msg.contains("unknown engine kernel"), "{msg}");
        }
    }

    #[test]
    fn retired_kernel_words_refused_with_rebuild_hint() {
        let index = fig3_index(MethodKind::Simrank);
        for w in [1u64, 2] {
            let buf = with_meta_word(&index, 3, w);
            for msg in refusals(&buf, &format!("kernel{w}")) {
                assert!(msg.contains("retired engine kernel"), "{msg}");
                assert!(msg.contains(REBUILD_HINT), "{msg}");
            }
        }
    }

    #[test]
    fn approx_sharding_flag_refused_with_rebuild_hint() {
        let index = fig3_index(MethodKind::Simrank);
        let flags = index.bytes()[section_range(index.bytes(), SEC_META)][16..24].to_vec();
        let flags = u64::from_ne_bytes(flags.try_into().unwrap());
        let buf = with_meta_word(&index, 2, flags | FLAG_APPROX);
        for msg in refusals(&buf, "approx") {
            assert!(msg.contains("approximate sharding"), "{msg}");
            assert!(msg.contains(REBUILD_HINT), "{msg}");
        }
    }

    #[test]
    fn pull_exact_snapshot_opens_through_both_loaders() {
        let index = fig3_index(MethodKind::Simrank);
        let path =
            std::env::temp_dir().join(format!("simrankpp_pull_exact_{}.idx", std::process::id()));
        index.save(&path).unwrap();
        let loaded = RewriteIndex::load(&path).unwrap();
        let opened = RewriteIndex::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.meta(), index.meta());
        assert_eq!(opened.meta(), index.meta());
        assert_eq!(opened.meta().kernel, KernelKind::Pull);
        assert!(!opened.meta().approx_sharding);
    }

    #[test]
    fn segments_provenance_survives_roundtrip() {
        let index = fig3_index(MethodKind::Simrank);
        let buf = with_meta_word(&index, 6, 17);
        let loaded = RewriteIndex::read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(loaded.meta().segments, 17);
        assert_eq!(roundtrip(&loaded).meta().segments, 17);
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        buf.truncate(buf.len() - 9);
        refusals(&buf, "truncated");
    }

    #[test]
    fn file_save_load_roundtrip() {
        let index = fig3_index(MethodKind::WeightedSimrank);
        let path = std::env::temp_dir().join("simrankpp_fig3_test.idx");
        index.save(&path).unwrap();
        let loaded = RewriteIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for q in 0..index.n_queries() {
            let q = QueryId(q as u32);
            assert_eq!(loaded.row(q).ids(), index.row(q).ids());
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        // Each tamper is structurally valid at the arena level and re-sealed,
        // so only the full validation can catch it: `load` refuses, the
        // opened view's `validate` refuses, and serving the opened view
        // anyway never panics.
        let good = fig3_index(MethodKind::WeightedSimrank);
        good.validate().unwrap();
        let n = good.n_queries() as u32;
        let offsets: Vec<u32> = good.section::<u32>(&good.layout.offsets).to_vec();
        let first_row = offsets.iter().position(|&o| o > 0).unwrap() - 1;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "target id out of range",
                tampered(&good, SEC_TARGETS, |t| put_u32(t, 0, n)),
            ),
            (
                "non-finite score",
                tampered(&good, SEC_SCORES, |s| put_u64(s, 0, f64::NAN.to_bits())),
            ),
            (
                "offsets not monotone",
                tampered(&good, SEC_OFFSETS, |o| put_u32(o, 1, offsets[2] + 1)),
            ),
            (
                "listed as its own rewrite",
                tampered(&good, SEC_TARGETS, |t| put_u32(t, 0, first_row as u32)),
            ),
        ];
        for (want, buf) in cases {
            let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains(want), "{want}: {err}");
            let path = temp_file("validate", &buf);
            let opened = RewriteIndex::open(&path).unwrap();
            assert!(opened.validate().unwrap_err().contains(want));
            serve_everything(&opened);
            std::fs::remove_file(&path).ok();
        }

        // A scores section one entry short no longer parallels targets: the
        // shallow shape check refuses it on both paths.
        let mut buf = snapshot_bytes(&good);
        let base = table_entry(&buf, SEC_SCORES);
        let len = word(&buf, base + 16);
        buf[base + 16..base + 24].copy_from_slice(&(len - 8).to_ne_bytes());
        reseal(&mut buf);
        for msg in refusals(&buf, "short_scores") {
            assert!(msg.contains("entry sections disagree"), "{msg}");
        }
    }

    #[test]
    fn swapped_name_ids_refused_by_load_and_missed_by_open() {
        // Swap the ids of two lookup-table entries: every name still
        // decodes, but two hashes now point at the wrong query. Lookups
        // read this table, so `load` must refuse the file; `open` defers
        // the check and must serve it without a panic, those names missing.
        let index = fig3_index(MethodKind::WeightedSimrank);
        let buf = tampered(&index, SEC_NAME_IDS, |ids| {
            let (a, b) = (ids[0..4].to_vec(), ids[4..8].to_vec());
            ids[0..4].copy_from_slice(&b);
            ids[4..8].copy_from_slice(&a);
        });
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string()
                .contains("name lookup table disagrees with the names"),
            "{err}"
        );
        let path = temp_file("swapped_ids", &buf);
        let opened = RewriteIndex::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(opened.validate().is_err());
        assert_eq!(serve_everything(&opened), index.n_queries() - 2);
        for q in 0..index.n_queries() as u32 {
            assert_eq!(opened.row(QueryId(q)).ids(), index.row(QueryId(q)).ids());
        }
    }

    #[test]
    fn duplicate_names_refused_by_load() {
        let meta = *fig3_index(MethodKind::Simrank).meta();
        let bytes = encode(&meta, &[0, 0, 0], &[], &[], Some(&["tv", "tv"]));
        let err = RewriteIndex::read_snapshot(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("duplicate query name"), "{err}");
        let bytes = encode(&meta, &[0, 0], &[], &[], Some(&["tv", "pc"]));
        let err = RewriteIndex::read_snapshot(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("2 entries for 1 queries"), "{err}");
    }

    fn saved(name: &str) -> (RewriteIndex, PathBuf) {
        let index = fig3_index(MethodKind::WeightedSimrank);
        let path = std::env::temp_dir().join(name);
        index.save(&path).unwrap();
        (index, path)
    }

    #[test]
    fn mapped_rows_match_heap_index_bit_for_bit() {
        let (index, path) = saved("simrankpp_mapped_rows.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        assert_eq!(mapped.meta(), index.meta());
        assert_eq!(mapped.n_queries(), index.n_queries());
        assert_eq!(mapped.n_entries(), index.n_entries());
        for q in 0..index.n_queries() {
            let q = QueryId(q as u32);
            let (got, want) = (mapped.row(q), index.row(q));
            assert_eq!(got.ids(), want.ids());
            assert_eq!(got.scores().len(), want.scores().len());
            for (a, b) in got.scores().iter().zip(want.scores()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(mapped.query_name(q), index.query_name(q));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_name_lookup_agrees_with_interner() {
        let (_, path) = saved("simrankpp_mapped_lookup.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        let g = figure3_graph();
        for q in g.queries() {
            let name = g.query_name(q).unwrap();
            assert_eq!(mapped.lookup(name), Some(q), "{name}");
        }
        assert_eq!(mapped.lookup("no such query"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_verify_deep_and_full_load() {
        let (index, path) = saved("simrankpp_mapped_deep.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        mapped.verify_deep().unwrap();
        mapped.validate().unwrap();
        let loaded = RewriteIndex::load(&path).unwrap();
        assert_eq!(loaded.meta(), index.meta());
        assert_eq!(loaded.n_entries(), index.n_entries());
        assert_eq!(loaded.bytes(), mapped.bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_row_is_empty_not_panic() {
        let (_, path) = saved("simrankpp_mapped_oob.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        let row = mapped.row(QueryId(u32::MAX));
        assert!(row.ids().is_empty() && row.scores().is_empty());
        assert_eq!(mapped.query_name(QueryId(u32::MAX)), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn built_and_opened_indexes_answer_identically() {
        let (index, path) = saved("simrankpp_serving_enum.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        assert_eq!(index.meta(), mapped.meta());
        assert_eq!(index.backing(), "live");
        assert_eq!(index.file_len(), None);
        assert!(matches!(mapped.backing(), "mmap" | "heap"));
        assert!(mapped.file_len().unwrap() > 0);
        for q in 0..index.n_queries() {
            let name = index.query_name(QueryId(q as u32)).unwrap().to_string();
            let hq = index.lookup(&name).unwrap();
            let mq = mapped.lookup(&name).unwrap();
            assert_eq!(hq, mq);
            assert_eq!(index.row(hq).ids(), mapped.row(mq).ids());
            assert_eq!(index.row(hq).scores(), mapped.row(mq).scores());
        }
        std::fs::remove_file(&path).ok();
    }
}
