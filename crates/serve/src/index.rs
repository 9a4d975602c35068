//! The immutable precomputed top-k rewrite index.
//!
//! `build` runs the full §9.3 pipeline — top-100 candidates → stem-dedup →
//! bid filter → top-5 — for *every* query of the click graph, offline and in
//! parallel, then freezes the results into one flat arena:
//!
//! ```text
//! offsets: [0, 2, 5, 5, ...]          one entry per query + end sentinel
//! targets: [q7, q3, q1, q9, q2, ...]  rewrite ids, ranking order per row
//! scores:  [.61, .43, ...]            parallel to targets
//! ```
//!
//! Every builder writes those arrays, plus the query names, as snapshot v4
//! bytes (see [`crate::snapshot`]) through one `RowAssembler`, and every
//! index — built, read, or mapped from a file — is the same immutable view
//! over such bytes. Lookups slice them: no per-request allocation, and no
//! second in-memory form to keep in step.

use crate::mmap::Backing;
use crate::snapshot::{self, Layout};
use simrankpp_core::{KernelKind, Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::{ClickGraph, DirtyComponents, QueryId, SegmentedStore, Sharding};
use simrankpp_util::{cast_slice, fnv1a, FxHashSet, Pod};
use std::ops::Range;
use std::sync::Arc;

/// Provenance carried by an index (and through snapshots): what produced the
/// rows, so a server can refuse mismatched artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexMeta {
    /// The similarity method the rows were ranked by.
    pub method: MethodKind,
    /// The per-query row-length cap the pipeline ran with (paper: 5).
    pub max_rewrites: u32,
    /// Whether the §9.3 bid-term filter was applied at build time.
    pub bid_filtered: bool,
    /// Whether the scores came from an approximate (edge-cutting) sharding.
    /// Always `false`: every sharding the engine runs is exact, and snapshot
    /// loading refuses files written with the flag set.
    pub approx_sharding: bool,
    /// The engine kernel that computed the scores — always
    /// [`KernelKind::Pull`]; snapshot loading refuses files naming the
    /// retired kernels.
    pub kernel: KernelKind,
    /// How many segments of a [`simrankpp_graph::SegmentedStore`] the index
    /// was built from — `0` for a monolithic in-memory build. Provenance
    /// only: segmented and monolithic builds over the same graph are
    /// bit-identical (both decompose exactly by component), so nothing
    /// refuses on a mismatch; the count surfaces in `serve info`.
    pub segments: u32,
}

/// One recomputed row during an incremental rebuild: the global query index
/// plus its refreshed `(target, score)` entries.
type FreshRow = (usize, Vec<(u32, f64)>);

/// Refresh accounting returned by [`RewriteIndex::rebuild_incremental`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildStats {
    /// Queries whose rows were recomputed (they live in dirty components).
    pub refreshed_queries: usize,
    /// Queries whose rows were copied verbatim from the previous generation.
    pub copied_queries: usize,
    /// Rewrite entries in the recomputed rows.
    pub refreshed_entries: usize,
    /// Rewrite entries copied verbatim.
    pub copied_entries: usize,
    /// Dirty components in the delta analysis.
    pub n_dirty_components: usize,
    /// Clean components whose queries were all copied.
    pub n_clean_components: usize,
}

/// An immutable query → top-k rewrites index over one click graph: a view
/// over snapshot v4 bytes. Cloning shares the bytes.
#[derive(Debug, Clone)]
pub struct RewriteIndex {
    backing: Arc<Backing>,
    pub(crate) layout: Layout,
}

/// Appends rows in query-id order to the flat `offsets`/`targets`/`scores`
/// arrays, then writes them as the v4 arena — the one path by which every
/// builder produces an index.
struct RowAssembler {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    scores: Vec<f64>,
}

impl RowAssembler {
    fn new(n_queries: usize) -> RowAssembler {
        let mut offsets = Vec::with_capacity(n_queries + 1);
        offsets.push(0);
        RowAssembler {
            offsets,
            targets: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Appends the next query's row, refusing an arena past u32 offsets.
    fn push(&mut self, row: impl IntoIterator<Item = (u32, f64)>) -> Result<(), String> {
        for (t, s) in row {
            self.targets.push(t);
            self.scores.push(s);
        }
        let total = self.targets.len() as u64;
        if total >= u64::from(u32::MAX) {
            return Err("index exceeds u32 arena offsets".into());
        }
        self.offsets.push(total as u32);
        Ok(())
    }

    /// Encodes the rows and `names` (query names in id order) as the index.
    fn finish(self, meta: IndexMeta, names: Option<&[&str]>) -> RewriteIndex {
        let bytes = snapshot::encode(&meta, &self.offsets, &self.targets, &self.scores, names);
        RewriteIndex::from_backing(Backing::Live(bytes)).expect("an assembled arena parses")
    }
}

impl RewriteIndex {
    /// Wraps `backing` after a shallow parse of its bytes.
    pub(crate) fn from_backing(backing: Backing) -> std::io::Result<RewriteIndex> {
        let layout = snapshot::parse(backing.bytes())?;
        Ok(RewriteIndex {
            backing: Arc::new(backing),
            layout,
        })
    }

    /// Runs the offline pipeline for every query of `rewriter`'s graph with
    /// `threads` chunked workers (`0` = all cores) and freezes the results.
    ///
    /// Each worker drives the name-free [`Rewriter::rewrite_ids_into`] with
    /// one reused buffer and emits chunk-local rows; stitching the chunks
    /// in order keeps the result deterministic for any thread count.
    pub fn build(
        rewriter: &Rewriter,
        bid_terms: Option<&FxHashSet<QueryId>>,
        threads: usize,
    ) -> RewriteIndex {
        let g = rewriter.graph();
        let chunks = simrankpp_core::engine::parallel::run_chunked(g.n_queries(), threads, |r| {
            let mut row = Vec::new();
            let mut lens = Vec::with_capacity(r.len());
            let mut entries = Vec::new();
            for q in r {
                rewriter.rewrite_ids_into(QueryId(q as u32), bid_terms, &mut row);
                lens.push(row.len());
                entries.extend(row.iter().map(|&(t, s)| (t.0, s)));
            }
            (lens, entries)
        });

        let mut rows = RowAssembler::new(g.n_queries());
        for (lens, entries) in chunks {
            let mut at = 0;
            for len in lens {
                rows.push(entries[at..at + len].iter().copied())
                    .expect("index exceeds u32 arena offsets");
                at += len;
            }
        }
        let meta = IndexMeta {
            method: rewriter.method().kind(),
            max_rewrites: rewriter.config().max_rewrites as u32,
            bid_filtered: bid_terms.is_some(),
            approx_sharding: false,
            kernel: KernelKind::Pull,
            segments: 0,
        };
        rows.finish(meta, graph_names(g).as_deref())
    }

    /// Builds the index from a [`SegmentedStore`] **one segment at a time**:
    /// peak memory is bounded by the largest segment plus the (flat,
    /// row-cap-bounded) output arena, never the whole graph.
    ///
    /// Segments hold whole connected components and their local ids are
    /// monotone in global ids, so per-segment method computation and the
    /// §9.3 pipeline produce rows bit-identical to a monolithic
    /// [`RewriteIndex::build`] over [`SegmentedStore::load_all`] — including
    /// equal-score tie-breaks. `bid_terms` are global query ids and are
    /// remapped into each segment.
    pub fn build_segmented(
        store: &mut SegmentedStore,
        kind: MethodKind,
        config: &SimrankConfig,
        rewriter_config: RewriterConfig,
        bid_terms: Option<&FxHashSet<QueryId>>,
    ) -> std::io::Result<RewriteIndex> {
        fn bad(msg: String) -> std::io::Error {
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        }

        let n_total = usize::try_from(store.total_queries())
            .map_err(|_| bad("store query count overflows usize".into()))?;
        let has_names = store.has_names();
        let mut rows: Vec<Option<Vec<(u32, f64)>>> = vec![None; n_total];
        let mut names: Vec<(u32, String)> = Vec::with_capacity(if has_names { n_total } else { 0 });

        for i in 0..store.n_segments() {
            let seg = store.load_segment(i)?;
            let method = Method::compute(kind, &seg.graph, config);
            let rewriter = Rewriter::new(&seg.graph, method, rewriter_config);
            let local_bids: Option<FxHashSet<QueryId>> = bid_terms.map(|bids| {
                seg.queries
                    .iter()
                    .enumerate()
                    .filter(|(_, &global)| bids.contains(&QueryId(global)))
                    .map(|(local, _)| QueryId(local as u32))
                    .collect()
            });
            let mut row = Vec::new();
            for (local, &global) in seg.queries.iter().enumerate() {
                rewriter.rewrite_ids_into(QueryId(local as u32), local_bids.as_ref(), &mut row);
                let global_row: Vec<(u32, f64)> = row
                    .iter()
                    .map(|&(t, s)| (seg.queries[t.index()], s))
                    .collect();
                let slot = rows.get_mut(global as usize).ok_or_else(|| {
                    bad(format!(
                        "segment {i}: global query id {global} out of range"
                    ))
                })?;
                if slot.replace(global_row).is_some() {
                    return Err(bad(format!(
                        "global query id {global} appears in more than one segment"
                    )));
                }
                if has_names {
                    let name = seg
                        .graph
                        .query_name(QueryId(local as u32))
                        .ok_or_else(|| bad(format!("segment {i}: query {local} has no name")))?;
                    names.push((global, name.to_string()));
                }
            }
        }

        let mut assembler = RowAssembler::new(n_total);
        for (q, slot) in rows.into_iter().enumerate() {
            let row =
                slot.ok_or_else(|| bad(format!("global query id {q} missing from every segment")))?;
            assembler.push(row).map_err(bad)?;
        }

        let names = if has_names {
            names.sort_unstable_by_key(|a| a.0);
            let mut seen = FxHashSet::default();
            for (expect, (global, name)) in names.iter().enumerate() {
                if *global != expect as u32 {
                    return Err(bad(format!(
                        "query id {expect} missing or duplicated across segment name maps"
                    )));
                }
                if !seen.insert(name.as_str()) {
                    return Err(bad(format!(
                        "duplicate query name {name:?} across segments"
                    )));
                }
            }
            Some(names.iter().map(|(_, n)| n.as_str()).collect::<Vec<_>>())
        } else {
            None
        };

        let meta = IndexMeta {
            method: kind,
            max_rewrites: rewriter_config.max_rewrites as u32,
            bid_filtered: bid_terms.is_some(),
            approx_sharding: false,
            kernel: KernelKind::Pull,
            segments: store.n_segments() as u32,
        };
        Ok(assembler.finish(meta, names.as_deref()))
    }

    /// Rebuilds only the **dirty** queries' rows after a graph delta,
    /// copying every clean query's row from `self` verbatim — the serving
    /// half of the incremental-update story.
    ///
    /// `new_graph` is the post-delta graph and `dirty` the analysis from
    /// [`simrankpp_graph::GraphDelta::dirty_components`] over it. For each
    /// dirty non-trivial component the similarity method named by
    /// `meta.method` is recomputed **on the induced component subgraph
    /// alone** (serial, unsharded — the regime where component decomposition
    /// is bit-exact, see `simrankpp_core::engine::sharded`) and the §9.3
    /// pipeline re-runs for its queries; shard-local ids remap monotonically
    /// to global ones, so candidate ordering ties break identically to a
    /// full rebuild. Queries in clean components keep their exact rows: the
    /// result is bit-identical to `RewriteIndex::build` over the new graph
    /// at test scale.
    ///
    /// `config`/`rewriter_config`/`bid_terms` must match what built `self`
    /// (checked against `meta` where recorded: method family via
    /// `meta.method`, row cap via `meta.max_rewrites`, bid filtering via
    /// `meta.bid_filtered`). Recursive methods assume the default
    /// (geometric) evidence formula, as [`RewriteIndex::build`] callers use.
    ///
    /// Clean rows are read straight from `self`'s bytes, whatever backs
    /// them, and copied unchecked: rebuild from a built or
    /// [`RewriteIndex::load`]ed index, or [`RewriteIndex::validate`] an
    /// opened one first.
    ///
    /// Returns the next index generation plus the refresh accounting.
    pub fn rebuild_incremental(
        &self,
        new_graph: &ClickGraph,
        dirty: &DirtyComponents,
        config: &SimrankConfig,
        rewriter_config: &RewriterConfig,
        bid_terms: Option<&FxHashSet<QueryId>>,
    ) -> Result<(RewriteIndex, RebuildStats), String> {
        if rewriter_config.max_rewrites as u32 != self.meta().max_rewrites {
            return Err(format!(
                "rewriter max_rewrites {} does not match the index's {}",
                rewriter_config.max_rewrites,
                self.meta().max_rewrites
            ));
        }
        if bid_terms.is_some() != self.meta().bid_filtered {
            return Err("bid filtering must match the original build".into());
        }
        let old_n = self.n_queries();
        let new_n = new_graph.n_queries();
        if new_n < old_n {
            return Err(format!(
                "updated graph has {new_n} queries but the index covers {old_n}: \
                 deltas never remove nodes"
            ));
        }
        if dirty.components.query_label.len() != new_n {
            return Err("dirty-component analysis was built for a different graph".into());
        }
        for q in old_n..new_n {
            if !dirty.query_dirty(QueryId(q as u32)) {
                return Err(format!(
                    "new query {q} is not marked dirty — stale delta analysis?"
                ));
            }
        }

        // Recompute the method per dirty component, on the induced subgraph,
        // in the serial unsharded regime (bit-exact decomposition). Like the
        // engine's sharded runner, parallelism lives at the shard level:
        // `config.threads` scoped workers pull shards off an atomic queue
        // (each shard stays serial inside, and shards write disjoint query
        // rows, so the result is identical for any worker count).
        let local_cfg = SimrankConfig {
            threads: 1,
            sharding: simrankpp_core::ShardStrategy::Off,
            ..*config
        };
        let sharding = Sharding::from_dirty(new_graph, dirty);
        let rebuild_shard = |shard: &simrankpp_graph::Shard| -> Vec<FreshRow> {
            let method = Method::compute(self.meta().method, &shard.graph, &local_cfg);
            let rewriter = Rewriter::new(&shard.graph, method, *rewriter_config);
            let shard_bids: Option<FxHashSet<QueryId>> = bid_terms.map(|bids| {
                bids.iter()
                    .filter_map(|&b| shard.mapping.to_sub_query(b))
                    .collect()
            });
            let mut row = Vec::new();
            let mut out = Vec::with_capacity(shard.graph.n_queries());
            for sq in shard.graph.queries() {
                rewriter.rewrite_ids_into(sq, shard_bids.as_ref(), &mut row);
                let global: Vec<(u32, f64)> = row
                    .iter()
                    .map(|&(t, s)| (shard.mapping.to_parent_query(t).0, s))
                    .collect();
                out.push((shard.mapping.to_parent_query(sq).index(), global));
            }
            out
        };
        let workers = config.effective_threads().min(sharding.n_shards()).max(1);
        let shard_rows: Vec<Vec<FreshRow>> =
            simrankpp_core::engine::parallel::run_indexed(sharding.n_shards(), workers, |i| {
                rebuild_shard(&sharding.shards[i])
            });
        let mut fresh: Vec<Option<Vec<(u32, f64)>>> = vec![None; new_n];
        let mut refreshed_entries = 0usize;
        for (q, global) in shard_rows.into_iter().flatten() {
            refreshed_entries += global.len();
            fresh[q] = Some(global);
        }

        // Assemble the next arena generation: fresh rows for dirty queries
        // (empty when their component holds no candidates), verbatim copies
        // of the old generation's bytes for clean ones.
        let mut rows = RowAssembler::new(new_n);
        let mut refreshed_queries = 0usize;
        let mut copied_entries = 0usize;
        for (q, slot) in fresh.into_iter().enumerate() {
            let qid = QueryId(q as u32);
            if dirty.query_dirty(qid) {
                refreshed_queries += 1;
                rows.push(slot.unwrap_or_default())?;
            } else {
                let old = self.row(qid);
                copied_entries += old.len();
                rows.push(old.ids().iter().copied().zip(old.scores().iter().copied()))?;
            }
        }

        let stats = RebuildStats {
            refreshed_queries,
            copied_queries: new_n - refreshed_queries,
            refreshed_entries,
            copied_entries,
            n_dirty_components: dirty.n_dirty(),
            n_clean_components: dirty.n_clean(),
        };
        Ok((
            rows.finish(*self.meta(), graph_names(new_graph).as_deref()),
            stats,
        ))
    }

    /// An index covering **zero** queries: every lookup misses. The
    /// single-source serving mode starts from this — the server skips the
    /// offline all-pairs build entirely and answers each query live, so the
    /// only thing an index contributes is the provenance in `meta`.
    pub fn empty(meta: IndexMeta) -> RewriteIndex {
        RowAssembler::new(0).finish(meta, None)
    }

    /// The arena bytes — exactly what [`RewriteIndex::save`] writes.
    pub fn bytes(&self) -> &[u8] {
        self.backing.bytes()
    }

    /// Where the bytes live: `"live"` for an index built (or read from a
    /// reader) in this process, `"mmap"`/`"heap"` for an opened snapshot
    /// file (surfaced by `serve info`).
    pub fn backing(&self) -> &'static str {
        self.backing.kind()
    }

    /// The backing snapshot file size, when file-backed.
    pub fn file_len(&self) -> Option<u64> {
        self.backing.file_len()
    }

    /// Build provenance.
    pub fn meta(&self) -> &IndexMeta {
        &self.layout.meta
    }

    /// Number of indexed queries.
    pub fn n_queries(&self) -> usize {
        self.layout.n_queries as usize
    }

    /// Total stored rewrites across all rows.
    pub fn n_entries(&self) -> usize {
        self.layout.targets.len() / 4
    }

    /// A section's typed view. The parse checked its alignment and length,
    /// and the bytes are immutable, so the cast cannot start failing later.
    #[inline]
    pub(crate) fn section<T: Pod>(&self, range: &Range<usize>) -> &[T] {
        cast_slice(&self.bytes()[range.clone()]).expect("section checked at parse")
    }

    /// The precomputed rewrites of `q` — borrowed slices, no allocation.
    /// Bounds-checked: an unknown id, or a corrupt (non-monotone or
    /// out-of-range) offset pair in an unvalidated file, answers an empty
    /// row rather than panicking.
    #[inline]
    pub fn row(&self, q: QueryId) -> RewriteSet<'_> {
        let offsets: &[u32] = self.section(&self.layout.offsets);
        let targets: &[u32] = self.section(&self.layout.targets);
        let scores: &[f64] = self.section(&self.layout.scores);
        let span = match (offsets.get(q.index()), offsets.get(q.index() + 1)) {
            (Some(&lo), Some(&hi)) if lo <= hi && hi as usize <= targets.len() => {
                lo as usize..hi as usize
            }
            _ => 0..0,
        };
        RewriteSet {
            index: self,
            targets: &targets[span.clone()],
            scores: &scores[span],
        }
    }

    /// Resolves a query display name to its id by binary search over the
    /// pre-sorted `NAME_HASH` table (equal-hash neighbours are told apart
    /// by comparing the stored name bytes).
    pub fn lookup(&self, name: &str) -> Option<QueryId> {
        let ranges = self.layout.names.as_ref()?;
        let hashes: &[u64] = self.section(&ranges.hash);
        let ids: &[u32] = self.section(&ranges.ids);
        let h = fnv1a(name.as_bytes());
        let mut i = hashes.partition_point(|&x| x < h);
        while i < hashes.len() && hashes[i] == h {
            let id = QueryId(*ids.get(i)?);
            if self.query_name(id) == Some(name) {
                return Some(id);
            }
            i += 1;
        }
        None
    }

    /// The display name of query `q`, when names were recorded.
    /// Bounds-checked and UTF-8-checked per access (`None` on corruption).
    pub fn query_name(&self, q: QueryId) -> Option<&str> {
        let ranges = self.layout.names.as_ref()?;
        let offs: &[u64] = self.section(&ranges.offs);
        let blob = &self.bytes()[ranges.blob.clone()];
        let (&lo, &hi) = (offs.get(q.index())?, offs.get(q.index() + 1)?);
        if lo > hi || hi > blob.len() as u64 {
            return None;
        }
        std::str::from_utf8(&blob[lo as usize..hi as usize]).ok()
    }
}

/// The query names of `g` in id order, when it has any.
fn graph_names(g: &ClickGraph) -> Option<Vec<&str>> {
    g.query_interner()
        .map(|names| names.iter().map(|(_, name)| name).collect())
}

/// A borrowed view of one query's precomputed rewrites.
#[derive(Debug, Clone, Copy)]
pub struct RewriteSet<'i> {
    index: &'i RewriteIndex,
    targets: &'i [u32],
    scores: &'i [f64],
}

impl<'i> RewriteSet<'i> {
    /// Number of rewrites (the method's §9.4 *depth* for this query).
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when the pipeline left this query uncovered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Rewrite target ids in ranking order.
    #[inline]
    pub fn ids(&self) -> &'i [u32] {
        self.targets
    }

    /// Final scores, parallel to [`RewriteSet::ids`].
    #[inline]
    pub fn scores(&self) -> &'i [f64] {
        self.scores
    }

    /// Iterates `(target, score, name)` in ranking order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, f64, Option<&'i str>)> + 'i {
        let index = self.index;
        self.targets
            .iter()
            .zip(self.scores)
            .map(move |(&t, &s)| (QueryId(t), s, index.query_name(QueryId(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_core::{Method, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::WeightKind;

    fn fig3_index() -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    #[test]
    fn figure3_index_serves_expected_rewrites() {
        let index = fig3_index();
        index.validate().unwrap();
        assert_eq!(index.n_queries(), 5);
        let camera = index.row(index.lookup("camera").unwrap());
        assert!(!camera.is_empty());
        let (_, _, name) = camera.iter().next().unwrap();
        assert_eq!(name, Some("digital camera"));
        // flower is isolated from the rest of the graph.
        assert!(index.row(index.lookup("flower").unwrap()).is_empty());
        assert!(index.lookup("no such query").is_none());
    }

    #[test]
    fn index_matches_live_rewriter() {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let index = RewriteIndex::build(&rewriter, None, 1);
        for q in g.queries() {
            let live = rewriter.rewrites(q, None);
            let served = index.row(q);
            assert_eq!(served.len(), live.len());
            for (got, want) in served.iter().zip(&live) {
                assert_eq!(got.0, want.query);
                assert_eq!(got.1, want.score);
                assert_eq!(got.2, want.name.as_deref());
            }
        }
    }

    #[test]
    fn bid_filter_recorded_and_applied() {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::Simrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let mut bids = FxHashSet::default();
        bids.insert(g.query_by_name("digital camera").unwrap());
        let index = RewriteIndex::build(&rewriter, Some(&bids), 2);
        index.validate().unwrap();
        assert!(index.meta().bid_filtered);
        // camera, pc and tv all reach "digital camera" (the only bid term);
        // everything else is filtered, and flower reaches nothing.
        let camera = index.row(index.lookup("camera").unwrap());
        assert_eq!(camera.len(), 1);
        assert_eq!(index.row(index.lookup("tv").unwrap()).len(), 1);
        assert_eq!(index.row(index.lookup("pc").unwrap()).len(), 1);
        assert!(index.row(index.lookup("flower").unwrap()).is_empty());
    }

    #[test]
    fn rebuild_incremental_matches_full_rebuild_and_copies_clean_rows() {
        use simrankpp_graph::{EdgeData, GraphDelta};
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();

        // Boost camera→bestbuy: only the big component is dirty; flower's
        // component (and row) must be copied untouched.
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("bestbuy.com").unwrap(),
            EdgeData::from_clicks(50),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);

        let (inc, stats) = old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
            .unwrap();
        inc.validate().unwrap();
        assert_eq!(stats.refreshed_queries, 4);
        assert_eq!(stats.copied_queries, 1);
        assert_eq!(stats.n_dirty_components, 1);
        assert_eq!(stats.n_clean_components, 1);

        // Bit-identical to a from-scratch build over the new graph.
        let method = Method::compute(MethodKind::WeightedSimrank, &g2, &cfg);
        let rewriter = Rewriter::new(&g2, method, RewriterConfig::default());
        let full = RewriteIndex::build(&rewriter, None, 1);
        assert_eq!(inc.n_entries(), full.n_entries());
        for q in g2.queries() {
            assert_eq!(inc.row(q).ids(), full.row(q).ids());
            assert_eq!(inc.row(q).scores(), full.row(q).scores());
        }
    }

    #[test]
    fn rebuild_incremental_handles_new_queries() {
        use simrankpp_graph::delta::{apply_named, NamedOp};
        use simrankpp_graph::EdgeData;
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();
        let ops = vec![NamedOp::Upsert {
            query: "laptop".into(),
            ad: "hp.com".into(),
            data: EdgeData::from_clicks(4),
        }];
        let (g2, delta) = apply_named(&g, &ops).unwrap();
        let dirty = delta.dirty_components(&g2);
        let (inc, stats) = old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
            .unwrap();
        inc.validate().unwrap();
        assert_eq!(inc.n_queries(), g.n_queries() + 1);
        assert_eq!(stats.copied_queries, 1); // flower only
        assert!(!inc.row(inc.lookup("laptop").unwrap()).is_empty());

        let method = Method::compute(MethodKind::WeightedSimrank, &g2, &cfg);
        let rewriter = Rewriter::new(&g2, method, RewriterConfig::default());
        let full = RewriteIndex::build(&rewriter, None, 1);
        for q in g2.queries() {
            assert_eq!(inc.row(q).ids(), full.row(q).ids());
            assert_eq!(inc.row(q).scores(), full.row(q).scores());
        }
    }

    #[test]
    fn rebuild_incremental_rejects_mismatched_parameters() {
        use simrankpp_graph::GraphDelta;
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();
        let d = GraphDelta::new();
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);

        // Row cap mismatch.
        let narrow = RewriterConfig {
            max_rewrites: 3,
            ..RewriterConfig::default()
        };
        assert!(old
            .rebuild_incremental(&g2, &dirty, &cfg, &narrow, None)
            .is_err());
        // Bid-filter mismatch (the index was built without bids).
        let bids = FxHashSet::default();
        assert!(old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), Some(&bids))
            .is_err());
        // Wrong-graph dirty analysis.
        let other = {
            use simrankpp_graph::{ClickGraphBuilder, EdgeData};
            let mut b = ClickGraphBuilder::new();
            b.add_named("x", "y", EdgeData::from_clicks(1));
            b.build()
        };
        let other_dirty = GraphDelta::new().dirty_components(&other);
        assert!(old
            .rebuild_incremental(&g2, &other_dirty, &cfg, &RewriterConfig::default(), None)
            .is_err());
    }

    #[test]
    fn rebuild_incremental_parallel_workers_match_serial() {
        use simrankpp_graph::{EdgeData, GraphDelta};
        // Shard-level parallelism must not change a single byte of the
        // rebuilt arena (shards write disjoint rows; each stays serial).
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();
        let mut d = GraphDelta::new();
        // Dirty both components so there are two shards to schedule.
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(9),
        );
        d.upsert(
            g.query_by_name("flower").unwrap(),
            g.ad_by_name("orchids.com").unwrap(),
            EdgeData::from_clicks(2),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        let (serial, s_stats) = old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
            .unwrap();
        let par_cfg = cfg.with_threads(4);
        let (parallel, p_stats) = old
            .rebuild_incremental(&g2, &dirty, &par_cfg, &RewriterConfig::default(), None)
            .unwrap();
        assert_eq!(s_stats, p_stats);
        assert_eq!(serial.bytes(), parallel.bytes());
    }
}
