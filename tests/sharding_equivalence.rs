//! Differential harness: component-sharded SimRank == whole-graph SimRank.
//!
//! Component sharding is exact because cross-component SimRank scores are
//! provably zero — the score matrix is block-diagonal over connected
//! components (see `simrankpp::graph::sharding`). This suite pins that
//! exactness end to end over proptest-generated synthetic graphs
//! (multi-topic, optional click-spam campaigns, varying density):
//!
//! * sharded scores are **bit-identical** f64s per pair, same iteration
//!   count, for both the uniform and the weighted transition;
//! * the served top-5 rewrites (the full §9.3 pipeline through
//!   [`RewriteIndex`]) are identical under `ShardStrategy::Components`;
//! * the invariant the decomposition rests on holds in the monolithic
//!   engine: every stored pair stays inside one component (equivalently,
//!   queries in different components score exactly 0.0);
//! * `Components::sizes` totals equal the graph's node counts.
//!
//! Runs in CI under `--release` too (`cargo test --release -- sharding`):
//! bit-identical stitching is only meaningful if it survives release
//! codegen.

use proptest::prelude::*;
use simrankpp::core::engine::{self, UniformTransition, WeightedTransition};
use simrankpp::core::weighted::SpreadMode;
use simrankpp::core::ShardStrategy;
use simrankpp::graph::components::connected_components;
use simrankpp::graph::sharding::Sharding;
use simrankpp::prelude::*;
use simrankpp::serve::RewriteIndex;
use simrankpp::synth::generator::generate;
use simrankpp::synth::spam::{inject_click_spam, SpamConfig};

/// One generated test world: multi-topic synth graph, optionally spammed,
/// with density controlled by the candidate cap.
fn synth_graph(
    n_topics: usize,
    n_queries: usize,
    seed: u64,
    spam: bool,
    dense: bool,
) -> ClickGraph {
    let mut gen = GeneratorConfig::tiny().with_seed(seed);
    gen.n_topics = n_topics;
    gen.n_queries = n_queries;
    gen.n_ads = (n_queries * 2 / 3).max(4);
    gen.max_ads_per_query = if dense { 12 } else { 4 };
    let g = generate(&gen).graph;
    if spam {
        inject_click_spam(
            &g,
            &SpamConfig {
                n_spam_ads: 1,
                queries_per_ad: 8,
                clicks_per_edge: 25,
                seed,
            },
        )
        .0
    } else {
        g
    }
}

fn cfg(k: usize) -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(k)
        .with_weight_kind(WeightKind::Clicks)
}

/// Asserts two score matrices store the same pairs with bit-identical f64s.
fn assert_bit_identical(
    mono: &simrankpp::core::ScoreMatrix,
    shard: &simrankpp::core::ScoreMatrix,
    what: &str,
) {
    assert_eq!(
        mono.n_pairs(),
        shard.n_pairs(),
        "{what}: pair count differs"
    );
    for ((a1, b1, v1), (a2, b2, v2)) in mono.iter().zip(shard.iter()) {
        assert_eq!((a1, b1), (a2, b2), "{what}: pair set differs");
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "{what}: pair ({a1}, {b1}) drifted: {v1:e} vs {v2:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharding_scores_bit_identical_to_monolithic(
        n_topics in 1usize..6,
        n_queries in 30usize..120,
        seed in 0u64..1_000_000,
        variant in 0u8..4,
    ) {
        let spam = variant & 1 == 1;
        let dense = variant & 2 == 2;
        let g = synth_graph(n_topics, n_queries, seed, spam, dense);
        let sharding = Sharding::from_components(&g);
        let c = cfg(5);

        let mono_u = engine::run(&g, &c, &UniformTransition);
        let shard_u = engine::run_sharded(&g, &c, &UniformTransition, &sharding);
        prop_assert_eq!(mono_u.iterations_run, shard_u.iterations_run);
        assert_bit_identical(&mono_u.queries, &shard_u.queries, "uniform queries");
        assert_bit_identical(&mono_u.ads, &shard_u.ads, "uniform ads");
        prop_assert_eq!(&mono_u.pair_counts, &shard_u.pair_counts);

        let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
        let mono_w = engine::run(&g, &c, &t);
        let shard_w = engine::run_sharded(&g, &c, &t, &sharding);
        prop_assert_eq!(mono_w.iterations_run, shard_w.iterations_run);
        assert_bit_identical(&mono_w.queries, &shard_w.queries, "weighted queries");
        assert_bit_identical(&mono_w.ads, &shard_w.ads, "weighted ads");
    }

    #[test]
    fn sharding_config_strategy_front_ends_agree(
        n_queries in 30usize..100,
        seed in 0u64..1_000_000,
    ) {
        // The same equivalence through the public front-ends and the
        // config knob (what `serve build` uses), pruning enabled.
        let g = synth_graph(3, n_queries, seed, false, false);
        let off = cfg(6).with_prune_threshold(1e-4);
        let on = off.with_sharding(ShardStrategy::Components);

        let mono = simrankpp::core::simrank(&g, &off);
        let shard = simrankpp::core::simrank(&g, &on);
        assert_bit_identical(&mono.queries, &shard.queries, "simrank queries");
        assert_bit_identical(&mono.ads, &shard.ads, "simrank ads");

        let ev = EvidenceKind::Geometric;
        let mono_w = simrankpp::core::weighted_simrank(&g, &off, ev);
        let shard_w = simrankpp::core::weighted_simrank(&g, &on, ev);
        assert_bit_identical(&mono_w.queries, &shard_w.queries, "weighted queries");
        assert_bit_identical(&mono_w.raw_queries, &shard_w.raw_queries, "raw queries");
    }

    #[test]
    fn sharding_served_top5_rewrites_identical(
        n_queries in 30usize..90,
        seed in 0u64..1_000_000,
        spam in 0u8..2,
    ) {
        // End to end: the full §9.3 pipeline (top-100 → stem-dedup → bid
        // filter off → top-5), precomputed for every query, must not change
        // under component sharding.
        let g = synth_graph(4, n_queries, seed, spam == 1, false);
        let build = |sharding: ShardStrategy| {
            let c = cfg(7).with_sharding(sharding);
            let method = Method::compute(MethodKind::WeightedSimrank, &g, &c);
            let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
            RewriteIndex::build(&rewriter, None, 1)
        };
        let mono = build(ShardStrategy::Off);
        let shard = build(ShardStrategy::Components);
        prop_assert_eq!(mono.n_entries(), shard.n_entries());
        for q in g.queries() {
            let m = mono.row(q);
            let s = shard.row(q);
            prop_assert_eq!(m.ids(), s.ids(), "rewrite targets differ for query {}", q);
            prop_assert_eq!(m.scores(), s.scores(), "rewrite scores differ for query {}", q);
        }
    }

    #[test]
    fn sharding_invariant_no_cross_component_scores(
        n_topics in 1usize..7,
        n_queries in 20usize..140,
        seed in 0u64..1_000_000,
    ) {
        // The invariant that makes sharding exact: the monolithic engine
        // never stores a pair straddling two components, i.e. queries (and
        // ads) in different components have score exactly 0.0.
        let g = synth_graph(n_topics, n_queries, seed, false, true);
        let labels = connected_components(&g);
        let r = simrankpp::core::simrank(&g, &cfg(8));
        for (a, b, v) in r.queries.iter() {
            prop_assert!(v > 0.0);
            prop_assert_eq!(
                labels.query_label[a as usize], labels.query_label[b as usize],
                "cross-component query pair ({}, {}) scored {}", a, b, v
            );
        }
        for (a, b, _) in r.ads.iter() {
            prop_assert_eq!(labels.ad_label[a as usize], labels.ad_label[b as usize]);
        }
        // Spot-check the contrapositive read-out: a pair from different
        // components reads exactly 0.0 through the matrix API.
        let mut cross = None;
        'outer: for q1 in g.queries() {
            for q2 in g.queries() {
                if labels.query_label[q1.index()] != labels.query_label[q2.index()] {
                    cross = Some((q1, q2));
                    break 'outer;
                }
            }
        }
        if let Some((q1, q2)) = cross {
            prop_assert_eq!(r.queries.get(q1.0, q2.0), 0.0);
        }
    }

    #[test]
    fn sharding_component_sizes_total_node_counts(
        n_topics in 1usize..7,
        n_queries in 20usize..140,
        seed in 0u64..1_000_000,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, false, false);
        let c = connected_components(&g);
        let sizes = c.sizes();
        prop_assert_eq!(sizes.len(), c.count);
        let total_q: usize = sizes.iter().map(|s| s.0).sum();
        let total_a: usize = sizes.iter().map(|s| s.1).sum();
        prop_assert_eq!(total_q, g.n_queries());
        prop_assert_eq!(total_a, g.n_ads());
        // And the sharding partitions exactly the non-trivial components.
        let sharding = Sharding::from_components(&g);
        sharding.validate_disjoint().unwrap();
        prop_assert_eq!(sharding.n_shards() + sharding.n_trivial, c.count);
    }
}

#[test]
fn sharding_remap_round_trip_is_identity() {
    // shard-local → global → shard-local over every node of every shard.
    let g = synth_graph(4, 80, 7, false, true);
    let sharding = Sharding::from_components(&g);
    assert!(sharding.n_shards() >= 1);
    for shard in &sharding.shards {
        for q in shard.graph.queries() {
            let global = shard.mapping.to_parent_query(q);
            assert_eq!(shard.mapping.to_sub_query(global), Some(q));
        }
        for a in shard.graph.ads() {
            let global = shard.mapping.to_parent_ad(a);
            assert_eq!(shard.mapping.to_sub_ad(global), Some(a));
        }
    }
}

#[test]
fn sharding_handles_singleton_and_empty_components() {
    // A graph that is *only* edge cases: an isolated query, an isolated ad,
    // a 1×1 edge component, and one real component.
    let mut b = ClickGraphBuilder::new();
    b.reserve_queries(5);
    b.reserve_ads(5);
    b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1)); // 1×1: trivial
    b.add_edge(QueryId(1), AdId(1), EdgeData::from_clicks(2)); // real K2,2
    b.add_edge(QueryId(1), AdId(2), EdgeData::from_clicks(1));
    b.add_edge(QueryId(2), AdId(1), EdgeData::from_clicks(1));
    b.add_edge(QueryId(2), AdId(2), EdgeData::from_clicks(3));
    // q3, q4, a3, a4 isolated.
    let g = b.build();
    let sharding = Sharding::from_components(&g);
    assert_eq!(sharding.n_shards(), 1);
    // Trivial: the 1×1 edge component plus the four isolated singletons.
    assert_eq!(sharding.n_trivial, 5);

    let c = cfg(6);
    let mono = engine::run(&g, &c, &UniformTransition);
    let shard = engine::run_sharded(&g, &c, &UniformTransition, &sharding);
    assert_bit_identical(&mono.queries, &shard.queries, "edge-case queries");
    assert_bit_identical(&mono.ads, &shard.ads, "edge-case ads");
    // Dimensions are the parent's, not the shard's.
    assert_eq!(shard.queries.n_nodes(), 5);
    assert_eq!(shard.ads.n_nodes(), 5);
    // Isolated / trivial nodes read 0 off-diagonal, 1 on the diagonal.
    assert_eq!(shard.queries.get(3, 4), 0.0);
    assert_eq!(shard.queries.get(3, 3), 1.0);
}
