//! Differential harness for the engine's one propagation kernel.
//!
//! The unified engine runs one Jacobi loop on the row-parallel **pull**
//! kernel (Gustavson SpGEMM over CSR score rows). Its reference is the pair
//! of dense oracles, `simrank_dense` and `weighted_simrank_dense`: plain
//! `n × n` matrix iterations that share no code with the sparse path. This
//! suite pins:
//!
//! * pull == dense oracle to 1e-12 at `prune_threshold = 0`, for uniform and
//!   weighted transitions, on both sides of generated graphs;
//! * with pruning threshold `t`, pull stays within the stated bound
//!   `t / (1 − C)` of the unpruned dense oracle (each iteration drops only
//!   values ≤ `t`, and one propagation step shrinks an inherited error by
//!   `C`, because every row's walk factors sum to at most 1);
//! * pull is **bit-deterministic across thread counts** — worker chunk
//!   boundaries never touch a row's accumulation order;
//! * pull == pull under sharding and incremental recompute, **bit for bit**,
//!   including half-steps above 2²⁰ scatter contributions: the kernel
//!   materializes no contribution stream, so nothing at that scale can
//!   reassociate a pair's partial sums.

use proptest::prelude::*;
use simrankpp::core::engine::{self, UniformTransition, WeightedTransition};
use simrankpp::core::simrank::simrank_dense;
use simrankpp::core::weighted::{weighted_simrank_dense, SpreadMode};
use simrankpp::core::ScoreMatrix;
use simrankpp::graph::delta::GraphDelta;
use simrankpp::graph::Sharding;
use simrankpp::prelude::*;
use simrankpp::synth::generator::{generate, GeneratorConfig};

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

fn assert_bit_identical(a: &ScoreMatrix, b: &ScoreMatrix, what: &str) {
    assert_eq!(a.n_pairs(), b.n_pairs(), "{what}: pair count");
    for ((a1, b1, v1), (a2, b2, v2)) in a.iter().zip(b.iter()) {
        assert_eq!((a1, b1), (a2, b2), "{what}: pair set diverged");
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "{what}: pair ({a1}, {b1}) drifted: {v1:e} vs {v2:e}"
        );
    }
}

fn assert_within(a: &ScoreMatrix, b: &ScoreMatrix, bound: f64, what: &str) {
    let drift = a.max_abs_diff(b);
    assert!(drift <= bound, "{what}: drift {drift:e} exceeds {bound:e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pull_matches_dense_oracle_unpruned(
        n_topics in 1usize..5,
        n_queries in 30usize..110,
        seed in 0u64..1_000_000,
        dense_sel in 0u8..2,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, dense_sel == 1);
        let c = cfg(5);
        let pull_u = engine::run(&g, &c, &UniformTransition);
        let dense_u = simrank_dense(&g, &c);
        assert_within(&pull_u.queries, &dense_u.queries, 1e-12, "uniform queries");
        assert_within(&pull_u.ads, &dense_u.ads, 1e-12, "uniform ads");

        let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
        let pull_w = engine::run(&g, &c, &t);
        let (dense_wq, dense_wa) = weighted_simrank_dense(&g, &c, SpreadMode::Exponential);
        assert_within(&pull_w.queries, &dense_wq, 1e-12, "weighted queries");
        assert_within(&pull_w.ads, &dense_wa, 1e-12, "weighted ads");
        prop_assert_eq!(pull_u.iterations_run, 5);
    }

    #[test]
    fn pruned_pull_stays_within_stated_bound_of_dense_oracle(
        n_queries in 40usize..120,
        seed in 0u64..1_000_000,
    ) {
        let g = synth_graph(3, n_queries, seed, true);
        let prune = 1e-4;
        let c = cfg(6);
        // e_{k+1} ≤ C·e_k + t from e_0 = 0, so e_k < t / (1 − C) = 5t at
        // C = 0.8; 1e-12 covers rounding.
        let bound = prune / (1.0 - c.c1) + 1e-12;
        let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
        let pruned_u = engine::run(&g, &c.with_prune_threshold(prune), &UniformTransition);
        let dense_u = simrank_dense(&g, &c);
        assert_within(&pruned_u.queries, &dense_u.queries, bound, "pruned uniform queries");
        assert_within(&pruned_u.ads, &dense_u.ads, bound, "pruned uniform ads");
        let pruned_w = engine::run(&g, &c.with_prune_threshold(prune), &t);
        let (dense_wq, dense_wa) = weighted_simrank_dense(&g, &c, SpreadMode::Exponential);
        assert_within(&pruned_w.queries, &dense_wq, bound, "pruned weighted queries");
        assert_within(&pruned_w.ads, &dense_wa, bound, "pruned weighted ads");
        for (_, _, v) in pruned_u.queries.iter().chain(pruned_w.queries.iter()) {
            prop_assert!(v > prune);
        }
    }

    #[test]
    fn pull_is_bit_deterministic_across_thread_counts(
        n_queries in 60usize..140,
        seed in 0u64..1_000_000,
        pruned_sel in 0u8..2,
    ) {
        let g = synth_graph(3, n_queries, seed, true);
        let prune = if pruned_sel == 1 { 1e-5 } else { 0.0 };
        let base = cfg(5).with_prune_threshold(prune);
        let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
        let serial_u = engine::run(&g, &base, &UniformTransition);
        let serial_w = engine::run(&g, &base, &t);
        for threads in [2usize, 5] {
            let par_u = engine::run(&g, &base.with_threads(threads), &UniformTransition);
            assert_bit_identical(&serial_u.queries, &par_u.queries, "uniform queries");
            assert_bit_identical(&serial_u.ads, &par_u.ads, "uniform ads");
            prop_assert_eq!(&serial_u.pair_counts, &par_u.pair_counts);
            let par_w = engine::run(&g, &base.with_threads(threads), &t);
            assert_bit_identical(&serial_w.queries, &par_w.queries, "weighted queries");
        }
    }

    #[test]
    fn pull_sharded_and_incremental_stay_bitwise(
        n_topics in 2usize..5,
        n_queries in 40usize..100,
        seed in 0u64..1_000_000,
    ) {
        // sharded == monolithic and incremental == from-scratch, bit for
        // bit (the dedicated suites exercise these paths in depth).
        let g = synth_graph(n_topics, n_queries, seed, false);
        let c = cfg(5);
        let mono = engine::run(&g, &c, &UniformTransition);
        let sharding = Sharding::from_components(&g);
        let shard = engine::run_sharded(&g, &c, &UniformTransition, &sharding);
        assert_bit_identical(&mono.queries, &shard.queries, "sharded queries");
        assert_bit_identical(&mono.ads, &shard.ads, "sharded ads");

        let mut d = GraphDelta::new();
        d.upsert(QueryId(0), AdId(1), EdgeData::from_clicks(3));
        let g1 = d.apply(&g);
        let dirty = d.dirty_components(&g1);
        let inc = engine::run_incremental(
            &g1, &c, &UniformTransition, &mono.queries, &mono.ads, &dirty);
        let scratch = engine::run(&g1, &c, &UniformTransition);
        assert_bit_identical(&inc.run.queries, &scratch.queries, "incremental queries");
        assert_bit_identical(&inc.run.ads, &scratch.ads, "incremental ads");
    }
}

/// Seeded multi-blob bipartite graph dense enough that one Jacobi half-step
/// carries more than 2²⁰ scatter contributions.
fn dense_blobs(blocks: u32, q_per: u32, a_per: u32, deg: u32, seed: u64) -> ClickGraph {
    let mut b = ClickGraphBuilder::new();
    let mut x = seed | 1;
    for blk in 0..blocks {
        let (qo, ao) = (blk * q_per, blk * a_per);
        for q in 0..q_per {
            for _ in 0..deg {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b.add_edge(
                    QueryId(qo + q),
                    AdId(ao + ((x >> 33) % a_per as u64) as u32),
                    EdgeData::from_clicks(1 + (x % 7)),
                );
            }
        }
    }
    b.build()
}

/// Exact scatter-contribution count of the next query-side half-step:
/// `Σ_{(i,j) stored ad pairs} N(i)·N(j) + Σ_i C(N(i), 2)` — what a
/// scatter-style kernel would have to buffer, sort, and merge.
fn query_side_contributions(g: &ClickGraph, ads: &ScoreMatrix) -> usize {
    let stored: usize = ads
        .iter()
        .map(|(i, j, _)| g.ad_degree(AdId(i)) * g.ad_degree(AdId(j)))
        .sum();
    let diagonal: usize = (0..g.n_ads())
        .map(|a| {
            let d = g.ad_degree(AdId(a as u32));
            d * (d - 1) / 2
        })
        .sum();
    stored + diagonal
}

#[test]
fn pull_kernel_is_flush_order_free_above_the_old_flush_threshold() {
    // Two components, each alone pushing a half-step past 2^20
    // contributions — the scale at which a buffered scatter kernel has to
    // flush, and flush boundaries (which move with thread count and shard
    // extents) can reassociate a pair's partial sums. The pull kernel never
    // materializes contributions, so chunking must change nothing:
    // bit-identical across thread counts, across the component stitch, and
    // through an incremental recompute.
    let g = dense_blobs(2, 220, 70, 12, 0xC0FFEE);
    let c = SimrankConfig::paper().with_iterations(3);
    let serial = engine::run(&g, &c, &UniformTransition);
    assert!(
        query_side_contributions(&g, &serial.ads) > 1 << 20,
        "fixture must exceed 2^20 contributions per half-step, got {}",
        query_side_contributions(&g, &serial.ads)
    );

    for threads in [3usize, 8] {
        let par = engine::run(&g, &c.with_threads(threads), &UniformTransition);
        assert_bit_identical(&serial.queries, &par.queries, "threads queries");
        assert_bit_identical(&serial.ads, &par.ads, "threads ads");
    }

    let sharding = Sharding::from_components(&g);
    assert!(sharding.n_shards() >= 2, "fixture must be multi-component");
    let sharded = engine::run_sharded(&g, &c.with_threads(2), &UniformTransition, &sharding);
    assert_bit_identical(&serial.queries, &sharded.queries, "sharded queries");
    assert_bit_identical(&serial.ads, &sharded.ads, "sharded ads");

    // Dirty the first blob only: its recompute runs above 2^20 too, and the
    // clean blob is carried over verbatim.
    let mut d = GraphDelta::new();
    d.upsert(QueryId(0), AdId(1), EdgeData::from_clicks(5));
    let g1 = d.apply(&g);
    let dirty = d.dirty_components(&g1);
    let inc = engine::run_incremental(
        &g1,
        &c.with_threads(2),
        &UniformTransition,
        &serial.queries,
        &serial.ads,
        &dirty,
    );
    let scratch = engine::run(&g1, &c, &UniformTransition);
    assert!(inc.reused_query_pairs > 0, "the clean blob must be reused");
    assert_bit_identical(&scratch.queries, &inc.run.queries, "incremental queries");
    assert_bit_identical(&scratch.ads, &inc.run.ads, "incremental ads");
}

#[test]
fn pull_kernel_runs_the_full_engine_surface() {
    // Diagnostics, the sharded stitch and early exit all run through the
    // one kernel.
    let g = synth_graph(2, 50, 7, false);
    let c = cfg(4);
    let r = engine::run(&g, &c, &UniformTransition);
    assert_eq!(r.pair_counts.len(), 4);
    assert_eq!(r.max_deltas.len(), 4);
    let sharding = Sharding::from_components(&g);
    let s = engine::run_sharded(&g, &c, &UniformTransition, &sharding);
    assert_bit_identical(&r.queries, &s.queries, "sharded queries");
    let tol = engine::run(&g, &cfg(200).with_tolerance(1e-8), &UniformTransition);
    assert!(tol.converged);
    assert!(tol.iterations_run < 200);
}
