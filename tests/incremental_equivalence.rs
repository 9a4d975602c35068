//! Differential harness: incremental recompute == from-scratch recompute.
//!
//! PR 3's sharding harness proved the score matrix block-diagonal over
//! connected components; this suite pins the *temporal* consequence: after a
//! [`GraphDelta`], recomputing only the dirty components and reusing every
//! clean block ([`engine::run_incremental`]) reproduces the from-scratch run
//! over the updated graph **bit for bit** at test scale — for insert-only
//! deltas, component-merging inserts, removals (splits), and mixed batches —
//! and the serving layer's [`RewriteIndex::rebuild_incremental`] reproduces
//! a full index rebuild the same way. Alongside the equivalences, the suite
//! proves the accounting ISSUE 4 demands:
//!
//! * delta application is equivalent to rebuilding the graph from the
//!   concatenated edge list (insert-only; duplicate edges accumulate
//!   identically — same [`EdgeData::merge`] order — so even the merged ECR
//!   f64s are bit-identical);
//! * `dirty_components` is *sound*: every changed, created, or removed
//!   score pair lies in a dirty component of the new labeling;
//! * clean components are strictly zero-recompute: the reused pair count
//!   equals exactly the previous matrix's clean-endpoint pairs, recomputed
//!   and reused counts add up to the stitched total, and every
//!   clean-component pair of the result is the previous generation's f64
//!   verbatim.
//!
//! Runs in CI under `--release` too (`cargo test --release -- incremental`):
//! bit-identical stitching must survive optimized codegen.

use proptest::prelude::*;
use simrankpp::core::engine::{self, run_incremental, UniformTransition, WeightedTransition};
use simrankpp::core::weighted::SpreadMode;
use simrankpp::core::{RewriterConfig, ScoreMatrix};
use simrankpp::graph::delta::GraphDelta;
use simrankpp::prelude::*;
use simrankpp::serve::RewriteIndex;
use simrankpp::synth::generator::generate;

fn synth_graph(n_topics: usize, n_queries: usize, seed: u64, dense: bool) -> ClickGraph {
    let mut gen = GeneratorConfig::tiny().with_seed(seed);
    gen.n_topics = n_topics;
    gen.n_queries = n_queries;
    gen.n_ads = (n_queries * 2 / 3).max(4);
    gen.max_ads_per_query = if dense { 12 } else { 4 };
    generate(&gen).graph
}

fn cfg(k: usize) -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(k)
        .with_weight_kind(WeightKind::Clicks)
}

/// A deterministic mixed delta over `g`'s id space: `n_upserts` edge
/// upserts (some onto existing edges, some new, some to brand-new node ids
/// when `grow`), plus up to `n_removals` removals of existing edges.
fn mixed_delta(
    g: &ClickGraph,
    seed: u64,
    n_upserts: usize,
    n_removals: usize,
    grow: bool,
) -> GraphDelta {
    let mut d = GraphDelta::new();
    let mut x = seed | 1;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let nq = g.n_queries() as u64;
    let na = g.n_ads() as u64;
    for i in 0..n_upserts {
        let grow_this = grow && i % 5 == 4;
        let q = if grow_this {
            nq + (step() % 3)
        } else {
            step() % nq.max(1)
        };
        let a = step() % na.max(1);
        d.upsert(
            QueryId(q as u32),
            AdId(a as u32),
            EdgeData::from_clicks(1 + step() % 7),
        );
    }
    let edges: Vec<(QueryId, AdId)> = g.edges().map(|(q, a, _)| (q, a)).collect();
    for _ in 0..n_removals {
        if edges.is_empty() {
            break;
        }
        let (q, a) = edges[(step() % edges.len() as u64) as usize];
        d.remove(q, a);
    }
    d
}

fn assert_bit_identical(a: &ScoreMatrix, b: &ScoreMatrix, what: &str) {
    assert_eq!(a.n_pairs(), b.n_pairs(), "{what}: pair count differs");
    for ((x1, y1, v1), (x2, y2, v2)) in a.iter().zip(b.iter()) {
        assert_eq!((x1, y1), (x2, y2), "{what}: pair set differs");
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "{what}: pair ({x1}, {y1}) drifted: {v1:e} vs {v2:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_delta_apply_equals_concatenated_rebuild(
        n_queries in 20usize..100,
        seed in 0u64..1_000_000,
        n_upserts in 1usize..25,
    ) {
        // Insert-only deltas are order-free: applying the delta must equal
        // rebuilding from the concatenation of the old edge list and the
        // delta's edges — including duplicate-edge weight accumulation,
        // which must merge in the same order and therefore produce
        // bit-identical ECR floats.
        let g0 = synth_graph(3, n_queries, seed, false);
        let d = mixed_delta(&g0, seed ^ 0xD5, n_upserts, 0, true);
        let applied = d.apply(&g0);

        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(g0.n_queries() as u32);
        b.reserve_ads(g0.n_ads() as u32);
        for (q, a, e) in g0.edges() {
            b.add_edge(q, a, *e);
        }
        for op in d.ops() {
            match *op {
                simrankpp::graph::delta::DeltaOp::Upsert { query, ad, data } => {
                    b.add_edge(query, ad, data)
                }
                simrankpp::graph::delta::DeltaOp::Remove { .. } => unreachable!(),
            }
        }
        let concat = b.build();

        prop_assert_eq!(applied.n_queries(), concat.n_queries());
        prop_assert_eq!(applied.n_ads(), concat.n_ads());
        prop_assert_eq!(applied.n_edges(), concat.n_edges());
        for (q, a, e) in concat.edges() {
            let got = applied.edge(q, a).expect("edge missing after apply");
            prop_assert_eq!(got.impressions, e.impressions);
            prop_assert_eq!(got.clicks, e.clicks);
            prop_assert_eq!(
                got.expected_click_rate.to_bits(),
                e.expected_click_rate.to_bits(),
                "ECR accumulation drifted on edge ({}, {})", q, a
            );
        }
        applied.validate().unwrap();
    }

    #[test]
    fn incremental_dirty_components_are_sound(
        n_queries in 20usize..100,
        seed in 0u64..1_000_000,
        n_upserts in 0usize..12,
        n_removals in 0usize..6,
    ) {
        // Soundness: every score that changed (value drift, new pair, or
        // vanished pair) lies in a dirty component of the new labeling.
        let g0 = synth_graph(4, n_queries, seed, true);
        let d = mixed_delta(&g0, seed ^ 0x50F7, n_upserts, n_removals, true);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);

        let c = cfg(5);
        let before = engine::run(&g0, &c, &UniformTransition);
        let after = engine::run(&g1, &c, &UniformTransition);

        let changed_pairs = |old: &ScoreMatrix, new: &ScoreMatrix| {
            let mut out: Vec<(u32, u32)> = Vec::new();
            for (a, b, v) in new.iter() {
                if old.get(a, b).to_bits() != v.to_bits() {
                    out.push((a, b));
                }
            }
            for (a, b, v) in old.iter() {
                if new.get(a, b).to_bits() != v.to_bits() {
                    out.push((a, b));
                }
            }
            out
        };
        for (a, b) in changed_pairs(&before.queries, &after.queries) {
            prop_assert!(
                dirty.query_dirty(QueryId(a)) && dirty.query_dirty(QueryId(b)),
                "changed query pair ({}, {}) is not in a dirty component", a, b
            );
        }
        for (a, b) in changed_pairs(&before.ads, &after.ads) {
            prop_assert!(
                dirty.ad_dirty(AdId(a)) && dirty.ad_dirty(AdId(b)),
                "changed ad pair ({}, {}) is not in a dirty component", a, b
            );
        }
    }

    #[test]
    fn incremental_run_bit_identical_to_scratch(
        n_queries in 20usize..90,
        seed in 0u64..1_000_000,
        n_upserts in 1usize..10,
        n_removals in 0usize..5,
        weighted in 0u8..2,
    ) {
        let g0 = synth_graph(4, n_queries, seed, false);
        let d = mixed_delta(&g0, seed ^ 0x1AC, n_upserts, n_removals, true);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let c = cfg(5).with_prune_threshold(1e-4);

        macro_rules! run_case {
            ($t:expr) => {{
                let prev = engine::run(&g0, &c, $t);
                let inc = run_incremental(&g1, &c, $t, &prev.queries, &prev.ads, &dirty);
                let scratch = engine::run(&g1, &c, $t);
                assert_bit_identical(&inc.run.queries, &scratch.queries, "queries");
                assert_bit_identical(&inc.run.ads, &scratch.ads, "ads");

                // Accounting: reused == prev's clean-endpoint pairs, and the
                // stitched total decomposes exactly.
                let clean_prev_q = prev.queries.iter()
                    .filter(|&(a, b, _)| {
                        !dirty.query_dirty(QueryId(a)) && !dirty.query_dirty(QueryId(b))
                    })
                    .count();
                prop_assert_eq!(inc.reused_query_pairs, clean_prev_q);
                prop_assert_eq!(
                    inc.reused_query_pairs + inc.recomputed_query_pairs,
                    inc.run.queries.n_pairs()
                );
                prop_assert_eq!(
                    inc.reused_ad_pairs + inc.recomputed_ad_pairs,
                    inc.run.ads.n_pairs()
                );
                // Strictly zero-recompute for clean components: every
                // clean-endpoint pair of the result is the previous
                // generation's value verbatim.
                for (a, b, v) in inc.run.queries.iter() {
                    if !dirty.query_dirty(QueryId(a)) {
                        prop_assert_eq!(v.to_bits(), prev.queries.get(a, b).to_bits());
                    }
                }
                inc
            }};
        }

        if weighted == 1 {
            let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
            run_case!(&t);
        } else {
            run_case!(&UniformTransition);
        }
    }

    #[test]
    fn incremental_index_rebuild_equals_full_rebuild(
        n_queries in 20usize..80,
        seed in 0u64..1_000_000,
        n_upserts in 1usize..8,
        n_removals in 0usize..4,
    ) {
        // End to end through the serving layer: refreshing only dirty rows
        // (and copying clean ones) reproduces a from-scratch index build
        // over the new graph, targets and scores bit-identical.
        let g0 = synth_graph(3, n_queries, seed, false);
        let d = mixed_delta(&g0, seed ^ 0x1DE, n_upserts, n_removals, false);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let c = cfg(5);

        let build = |g: &ClickGraph| {
            let method = Method::compute(MethodKind::WeightedSimrank, g, &c);
            let rewriter = Rewriter::new(g, method, RewriterConfig::default());
            RewriteIndex::build(&rewriter, None, 1)
        };
        let old_index = build(&g0);
        let (inc, stats) = old_index
            .rebuild_incremental(&g1, &dirty, &c, &RewriterConfig::default(), None)
            .unwrap();
        inc.validate().unwrap();
        let full = build(&g1);

        prop_assert_eq!(inc.n_queries(), full.n_queries());
        prop_assert_eq!(inc.n_entries(), full.n_entries());
        for q in g1.queries() {
            prop_assert_eq!(
                inc.row(q).ids(), full.row(q).ids(),
                "targets differ for query {}", q
            );
            prop_assert_eq!(
                inc.row(q).scores(), full.row(q).scores(),
                "scores differ for query {}", q
            );
        }
        prop_assert_eq!(stats.refreshed_queries + stats.copied_queries, g1.n_queries());
        prop_assert_eq!(stats.refreshed_queries, dirty.dirty_query_count());
    }

    #[test]
    fn incremental_rebuild_from_opened_snapshot_is_byte_identical(
        n_queries in 20usize..80,
        seed in 0u64..1_000_000,
        n_upserts in 1usize..8,
        n_removals in 0usize..4,
    ) {
        let g0 = synth_graph(3, n_queries, seed, false);
        let d = mixed_delta(&g0, seed ^ 0x0BE, n_upserts, n_removals, false);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let [opened, built, full] = rebuild_three_ways(&g0, &g1, &dirty, &format!("{seed}"));
        prop_assert!(opened == built, "opened-snapshot rebuild differs from in-memory rebuild");
        prop_assert!(opened == full, "incremental rebuild differs from a fresh build");
    }
}

/// Snapshot bytes of the post-delta index produced three ways:
/// `rebuild_incremental` from a snapshot of `g0`'s index opened from disk
/// (mmap), the same rebuild from the in-memory build, and a fresh build
/// over `g1`.
fn rebuild_three_ways(
    g0: &ClickGraph,
    g1: &ClickGraph,
    dirty: &simrankpp::graph::DirtyComponents,
    tag: &str,
) -> [Vec<u8>; 3] {
    let c = cfg(5);
    let build = |g: &ClickGraph| {
        let method = Method::compute(MethodKind::WeightedSimrank, g, &c);
        let rewriter = Rewriter::new(g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    };
    let rebuild = |old: &RewriteIndex| {
        let (next, _) = old
            .rebuild_incremental(g1, dirty, &c, &RewriterConfig::default(), None)
            .unwrap();
        next.bytes().to_vec()
    };
    let built = build(g0);
    let path = std::env::temp_dir().join(format!(
        "simrankpp_incremental_open_{tag}_{}.idx",
        std::process::id()
    ));
    built.save(&path).unwrap();
    let opened = RewriteIndex::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    #[cfg(unix)]
    assert_eq!(opened.backing(), "mmap");
    [
        rebuild(&opened),
        rebuild(&built),
        build(g1).bytes().to_vec(),
    ]
}

#[test]
fn incremental_rebuild_from_opened_figure3_snapshot_is_byte_identical() {
    use simrankpp::graph::delta::{apply_named, NamedOp};
    let g0 = simrankpp::graph::fixtures::figure3_graph();
    let ops = vec![
        NamedOp::Upsert {
            query: "camera".into(),
            ad: "bestbuy.com".into(),
            data: EdgeData::from_clicks(50),
        },
        NamedOp::Upsert {
            query: "laptop".into(),
            ad: "hp.com".into(),
            data: EdgeData::from_clicks(4),
        },
    ];
    let (g1, delta) = apply_named(&g0, &ops).unwrap();
    let dirty = delta.dirty_components(&g1);
    let [opened, built, full] = rebuild_three_ways(&g0, &g1, &dirty, "fig3");
    assert!(
        opened == built,
        "opened-snapshot rebuild differs from in-memory rebuild"
    );
    assert!(
        opened == full,
        "incremental rebuild differs from a fresh build"
    );
}

#[test]
fn incremental_insert_only_merge_and_removal_cases() {
    // The three delta shapes ISSUE 4 names, pinned deterministically on a
    // multi-component graph: (a) insert within a component, (b) insert
    // bridging two components (merge), (c) removal splitting a component.
    let g0 = synth_graph(5, 80, 42, false);
    let c = cfg(6);
    let prev = engine::run(&g0, &c, &UniformTransition);
    let components = simrankpp::graph::components::connected_components(&g0);
    assert!(components.count >= 2, "fixture must be multi-component");

    // (a) insert-only, component-local.
    let (q0, a0, _) = g0.edges().next().unwrap();
    let mut insert = GraphDelta::new();
    insert.upsert(q0, a0, EdgeData::from_clicks(5));

    // (b) merge: connect two queries from different components via a new ad
    // edge to the second component's ad.
    let mut merge = GraphDelta::new();
    let other_q = g0
        .queries()
        .find(|&q| {
            components.query_label[q.index()] != components.query_label[q0.index()]
                && g0.query_degree(q) > 0
        })
        .expect("a second component with a query");
    let (other_ads, _) = g0.ads_of(other_q);
    merge.upsert(q0, other_ads[0], EdgeData::from_clicks(2));

    // (c) removal.
    let mut removal = GraphDelta::new();
    removal.remove(q0, a0);

    for (name, d) in [("insert", insert), ("merge", merge), ("removal", removal)] {
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let inc = run_incremental(
            &g1,
            &c,
            &UniformTransition,
            &prev.queries,
            &prev.ads,
            &dirty,
        );
        let scratch = engine::run(&g1, &c, &UniformTransition);
        assert_bit_identical(&inc.run.queries, &scratch.queries, name);
        assert_bit_identical(&inc.run.ads, &scratch.ads, name);
        assert!(
            inc.n_clean_components > 0,
            "{name}: fixture should leave some components clean"
        );
        assert!(inc.reused_query_pairs > 0, "{name}: nothing was reused");
    }
}
