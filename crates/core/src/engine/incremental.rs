//! Component-local incremental recompute.
//!
//! A [`GraphDelta`](simrankpp_graph::GraphDelta) only changes scores inside
//! the components its edge endpoints touch (`simrankpp_graph::delta` proves
//! the labeling sound, including component merges and splits), so
//! [`run_incremental`] recomputes **only the dirty components** of the
//! updated graph and stitches the recomputed blocks with the untouched
//! blocks of the previous score matrices:
//!
//! 1. [`Sharding::from_dirty`] carves one shard per dirty non-trivial
//!    component of the new graph;
//! 2. each dirty shard replays the unified kernel exactly as
//!    [`super::run_sharded`] would (serial per shard, shard-queue
//!    parallelism across shards);
//! 3. the previous matrices' pairs whose endpoints both lie in clean
//!    components are carried over **verbatim** (a `memcpy`-grade filter of
//!    an already key-sorted list — no recompute, no re-rounding), and the
//!    monotone disjoint merge stitches reused and recomputed blocks into the
//!    new global matrices.
//!
//! Exactness: provided `prev` was produced by the same `config` and
//! `transition` over the pre-delta graph (any of [`super::run`],
//! [`super::run_sharded`], [`super::run_with_strategy`] with exact
//! sharding, or a previous [`run_incremental`]), the result is
//! **bit-identical** to a from-scratch run over the updated graph under the
//! same conditions that make component sharding bit-exact (see
//! `super::sharded`). Clean components cost zero engine work — [`IncrementalRun`] reports the
//! reused-vs-recomputed pair split so callers can verify exactly that.

use super::accum::{merge_all_disjoint, PairVec};
use super::sharded::{aggregate_diagnostics, remap_pieces, run_all};
use super::{EngineRun, Transition};
use crate::config::SimrankConfig;
use crate::scores::ScoreMatrix;
use simrankpp_graph::{ClickGraph, DirtyComponents, QueryId, Sharding};

/// An [`EngineRun`] produced incrementally, plus the reuse accounting.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// The stitched result over the **new** graph: recomputed dirty blocks +
    /// reused clean blocks. Diagnostics (`pair_counts`, `max_deltas`,
    /// `iterations_run`, `converged`) cover the recomputed shards only —
    /// clean components executed zero iterations.
    pub run: EngineRun,
    /// Query pairs carried over from `prev` without recompute.
    pub reused_query_pairs: usize,
    /// Ad pairs carried over from `prev` without recompute.
    pub reused_ad_pairs: usize,
    /// Query pairs produced by the dirty-shard runs.
    pub recomputed_query_pairs: usize,
    /// Ad pairs produced by the dirty-shard runs.
    pub recomputed_ad_pairs: usize,
    /// Dirty components in the delta analysis (including trivial ones).
    pub n_dirty_components: usize,
    /// Clean components whose blocks were reused.
    pub n_clean_components: usize,
    /// Dirty components that actually became engine shards (non-trivial).
    pub n_dirty_shards: usize,
}

/// Recomputes only the dirty components of `g` and stitches with the clean
/// blocks of the previous score matrices.
///
/// `g` is the **post-delta** graph, `dirty` the analysis from
/// [`simrankpp_graph::GraphDelta::dirty_components`] over that same graph,
/// and `prev_queries`/`prev_ads` the matrices of the previous generation
/// (computed with the same `config` and `transition` — the reuse carries
/// their values verbatim, so a mismatched `prev` silently produces a
/// mixed-generation result).
///
/// # Panics
/// Panics if `dirty` was computed for a different graph (dimension
/// mismatch), if the previous matrices are wider than the new graph (nodes
/// never disappear under a delta), or if a reused pair collides with a
/// recomputed one (impossible for a sound `dirty` labeling; indicates a
/// `prev` from a different graph).
pub fn run_incremental<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
    prev_queries: &ScoreMatrix,
    prev_ads: &ScoreMatrix,
    dirty: &DirtyComponents,
) -> IncrementalRun {
    config.validate().expect("invalid SimRank configuration");
    assert_eq!(
        (
            dirty.components.query_label.len(),
            dirty.components.ad_label.len()
        ),
        (g.n_queries(), g.n_ads()),
        "dirty-component analysis was built for a different graph"
    );
    assert!(
        prev_queries.n_nodes() <= g.n_queries() && prev_ads.n_nodes() <= g.n_ads(),
        "previous matrices are wider than the updated graph"
    );

    let sharding = Sharding::from_dirty(g, dirty);
    let shard_config = SimrankConfig {
        threads: 1,
        sharding: crate::config::ShardStrategy::Off,
        ..*config
    };
    let workers = config.effective_threads().min(sharding.n_shards()).max(1);
    let mut runs = run_all(&sharding, &shard_config, transition, workers);
    let (mut q_pieces, mut a_pieces) = remap_pieces(&sharding, &mut runs);
    let recomputed_query_pairs: usize = q_pieces.iter().map(Vec::len).sum();
    let recomputed_ad_pairs: usize = a_pieces.iter().map(Vec::len).sum();

    // Carry clean blocks over verbatim. The previous matrices are
    // block-diagonal over the old components, and clean components keep
    // their exact node and edge sets, so filtering on both endpoints being
    // clean extracts whole untouched blocks (already key-sorted).
    let reused_q: PairVec = prev_queries
        .sorted_pairs()
        .filter(|&(k, _)| {
            let (a, b) = k.parts();
            !dirty.query_dirty(QueryId(a)) && !dirty.query_dirty(QueryId(b))
        })
        .collect();
    let reused_a: PairVec = prev_ads
        .sorted_pairs()
        .filter(|&(k, _)| {
            let (a, b) = k.parts();
            !dirty.ad_dirty(simrankpp_graph::AdId(a)) && !dirty.ad_dirty(simrankpp_graph::AdId(b))
        })
        .collect();
    let reused_query_pairs = reused_q.len();
    let reused_ad_pairs = reused_a.len();
    q_pieces.push(reused_q);
    a_pieces.push(reused_a);

    let queries = ScoreMatrix::from_sorted_pairs(
        g.n_queries(),
        merge_all_disjoint(q_pieces).expect("reused and recomputed query blocks overlap"),
    );
    let ads = ScoreMatrix::from_sorted_pairs(
        g.n_ads(),
        merge_all_disjoint(a_pieces).expect("reused and recomputed ad blocks overlap"),
    );

    let (pair_counts, max_deltas, iterations_run, converged) = aggregate_diagnostics(&runs, config);

    IncrementalRun {
        run: EngineRun {
            queries,
            ads,
            pair_counts,
            max_deltas,
            iterations_run,
            converged,
        },
        reused_query_pairs,
        reused_ad_pairs,
        recomputed_query_pairs,
        recomputed_ad_pairs,
        n_dirty_components: dirty.n_dirty(),
        n_clean_components: dirty.n_clean(),
        n_dirty_shards: sharding.n_shards(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_sharded, UniformTransition, WeightedTransition};
    use crate::weighted::SpreadMode;
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::{
        AdId, ClickGraphBuilder, EdgeData, GraphDelta, QueryId, Sharding as GraphSharding,
        WeightKind,
    };

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default().with_iterations(k)
    }

    /// Disjoint multi-blob graph (same shape as the sharded tests use).
    fn multi_component(blocks: usize, seed: u64) -> simrankpp_graph::ClickGraph {
        let mut b = ClickGraphBuilder::new();
        let mut x = seed | 1;
        for blk in 0..blocks as u32 {
            let qo = blk * 12;
            let ao = blk * 9;
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let q = qo + ((x >> 33) % 12) as u32;
                let a = ao + ((x >> 13) % 9) as u32;
                b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1 + (x % 4)));
            }
        }
        b.build()
    }

    fn assert_bits_equal(a: &ScoreMatrix, b: &ScoreMatrix, what: &str) {
        assert_eq!(a.n_pairs(), b.n_pairs(), "{what}: pair count");
        for ((x1, y1, v1), (x2, y2, v2)) in a.iter().zip(b.iter()) {
            assert_eq!((x1, y1), (x2, y2), "{what}: pair set");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: ({x1},{y1}) drifted");
        }
    }

    #[test]
    fn single_dirty_component_matches_from_scratch_bitwise() {
        let g0 = multi_component(5, 21);
        let prev = run(&g0, &cfg(6), &UniformTransition);
        // Touch one component only.
        let mut d = GraphDelta::new();
        d.upsert(QueryId(0), AdId(3), EdgeData::from_clicks(5));
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        assert!(dirty.n_clean() >= 4);

        let inc = run_incremental(
            &g1,
            &cfg(6),
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
        let scratch = run(&g1, &cfg(6), &UniformTransition);
        assert_bits_equal(&inc.run.queries, &scratch.queries, "queries");
        assert_bits_equal(&inc.run.ads, &scratch.ads, "ads");
        assert_eq!(inc.n_dirty_shards, 1);
        assert!(inc.reused_query_pairs > 0);
        assert!(inc.recomputed_query_pairs > 0);
        assert_eq!(
            inc.reused_query_pairs + inc.recomputed_query_pairs,
            inc.run.queries.n_pairs()
        );
    }

    #[test]
    fn merge_delta_recomputes_the_bridged_component() {
        // An edge bridging two components of figure 3: both old blocks are
        // recomputed as one merged component, nothing is reused.
        let g0 = figure3_graph();
        let prev = run(&g0, &cfg(7), &UniformTransition);
        let mut d = GraphDelta::new();
        d.upsert(
            g0.query_by_name("flower").unwrap(),
            g0.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(1),
        );
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        assert_eq!(dirty.n_components(), 1);

        let inc = run_incremental(
            &g1,
            &cfg(7),
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
        let scratch = run(&g1, &cfg(7), &UniformTransition);
        assert_bits_equal(&inc.run.queries, &scratch.queries, "merge queries");
        assert_eq!(inc.reused_query_pairs, 0);
        assert_eq!(inc.reused_ad_pairs, 0);
        assert_eq!(inc.n_clean_components, 0);
    }

    #[test]
    fn removal_delta_recomputes_both_split_halves() {
        let g0 = multi_component(3, 9);
        let t = WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        };
        let c = cfg(5).with_prune_threshold(1e-4);
        let prev = run(&g0, &c, &t);
        // Remove a real edge from component 0.
        let (q, a, _) = g0.edges().next().unwrap();
        let mut d = GraphDelta::new();
        d.remove(q, a);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);

        let inc = run_incremental(&g1, &c, &t, &prev.queries, &prev.ads, &dirty);
        let scratch = run(&g1, &c, &t);
        assert_bits_equal(&inc.run.queries, &scratch.queries, "removal queries");
        assert_bits_equal(&inc.run.ads, &scratch.ads, "removal ads");
    }

    #[test]
    fn empty_delta_reuses_everything() {
        let g = multi_component(4, 3);
        let prev = run(&g, &cfg(5), &UniformTransition);
        let d = GraphDelta::new();
        let g1 = d.apply(&g);
        let dirty = d.dirty_components(&g1);
        let inc = run_incremental(
            &g1,
            &cfg(5),
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
        assert_eq!(inc.recomputed_query_pairs, 0);
        assert_eq!(inc.recomputed_ad_pairs, 0);
        assert_eq!(inc.n_dirty_shards, 0);
        assert_eq!(inc.reused_query_pairs, prev.queries.n_pairs());
        assert_bits_equal(&inc.run.queries, &prev.queries, "reused queries");
    }

    #[test]
    fn chained_incremental_generations_stay_exact() {
        // prev produced by run_incremental itself must be a valid prev.
        let g0 = multi_component(4, 77);
        let mut prev = run(&g0, &cfg(5), &UniformTransition);
        let mut g = g0;
        for step in 0..3u32 {
            let mut d = GraphDelta::new();
            // Each step touches a different component's id range.
            d.upsert(
                QueryId(step * 12 + 1),
                AdId(step * 9 + 2),
                EdgeData::from_clicks(2 + step as u64),
            );
            let g1 = d.apply(&g);
            let dirty = d.dirty_components(&g1);
            let inc = run_incremental(
                &g1,
                &cfg(5),
                &UniformTransition,
                &prev.queries,
                &prev.ads,
                &dirty,
            );
            let scratch = run(&g1, &cfg(5), &UniformTransition);
            assert_bits_equal(&inc.run.queries, &scratch.queries, "chained queries");
            prev = inc.run;
            g = g1;
        }
    }

    #[test]
    fn new_nodes_extend_the_matrices() {
        let g0 = figure3_graph();
        let prev = run(&g0, &cfg(5), &UniformTransition);
        let mut d = GraphDelta::new();
        // A brand-new query attaching to the big component.
        let new_q = QueryId(g0.n_queries() as u32);
        d.upsert(new_q, AdId(0), EdgeData::from_clicks(3));
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let inc = run_incremental(
            &g1,
            &cfg(5),
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
        assert_eq!(inc.run.queries.n_nodes(), g1.n_queries());
        let scratch = run(&g1, &cfg(5), &UniformTransition);
        assert_bits_equal(&inc.run.queries, &scratch.queries, "grown queries");
    }

    #[test]
    fn incremental_matches_sharded_from_scratch_too() {
        let g0 = multi_component(4, 55);
        let prev = run(&g0, &cfg(6), &UniformTransition);
        let mut d = GraphDelta::new();
        d.upsert(QueryId(13), AdId(10), EdgeData::from_clicks(1));
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let inc = run_incremental(
            &g1,
            &cfg(6),
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
        let sharding = GraphSharding::from_components(&g1);
        let scratch = run_sharded(&g1, &cfg(6), &UniformTransition, &sharding);
        assert_bits_equal(&inc.run.queries, &scratch.queries, "vs sharded");
        assert_bits_equal(&inc.run.ads, &scratch.ads, "vs sharded ads");
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn mismatched_dirty_analysis_rejected() {
        let g = figure3_graph();
        let other = multi_component(2, 4);
        let prev = run(&other, &cfg(3), &UniformTransition);
        let d = GraphDelta::new();
        let dirty = d.dirty_components(&other);
        run_incremental(
            &g,
            &cfg(3),
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
    }
}
