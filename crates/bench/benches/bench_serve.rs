//! Serving-layer throughput: precomputed [`RewriteIndex`] lookups vs running
//! the live §9.3 pipeline per request, plus snapshot round-trip cost, on the
//! same 10k-query synthetic graph as `bench_engine`. Lookup benches run 1 000
//! requests per iteration so per-request cost is measurable despite being
//! nanoseconds. Results are recorded in `BENCH_serve.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::QueryId;
use simrankpp_serve::RewriteIndex;
use simrankpp_synth::generator::{generate, GeneratorConfig, SynthDataset};

const LOOKUPS_PER_ITER: usize = 1_000;

fn ten_k_graph() -> SynthDataset {
    let mut gen = GeneratorConfig::small();
    gen.n_queries = 10_000;
    gen.n_ads = 7_000;
    generate(&gen)
}

fn serve(c: &mut Criterion) {
    let dataset = ten_k_graph();
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);
    let method = Method::compute(MethodKind::WeightedSimrank, &dataset.graph, &cfg);
    let rewriter = Rewriter::new(&dataset.graph, method, RewriterConfig::default());
    let index = RewriteIndex::build(&rewriter, None, 0);
    index.validate().unwrap();
    let n = index.n_queries() as u32;
    let names: Vec<String> = (0..LOOKUPS_PER_ITER as u32)
        .filter_map(|q| index.query_name(QueryId(q % n)).map(str::to_owned))
        .collect();

    let mut group = c.benchmark_group("serve_10k");
    group.sample_size(50);
    group.bench_function(format!("lookup_by_id_x{LOOKUPS_PER_ITER}"), |b| {
        let mut q = 0u32;
        b.iter(|| {
            let mut depth = 0usize;
            for _ in 0..LOOKUPS_PER_ITER {
                depth += index.row(QueryId(q)).len();
                q = (q + 1) % n;
            }
            black_box(depth)
        })
    });
    group.bench_function(format!("lookup_by_name_x{LOOKUPS_PER_ITER}"), |b| {
        b.iter(|| {
            let mut depth = 0usize;
            for name in &names {
                depth += index.lookup(name).map_or(0, |q| index.row(q).len());
            }
            black_box(depth)
        })
    });
    group.bench_function("live_rewriter_x100", |b| {
        let mut q = 0u32;
        b.iter(|| {
            let mut depth = 0usize;
            for _ in 0..100 {
                depth += rewriter.rewrites(QueryId(q), None).len();
                q = (q + 1) % n;
            }
            black_box(depth)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("serve_10k_offline");
    group.sample_size(10);
    group.bench_function("index_build_t1", |b| {
        b.iter(|| RewriteIndex::build(&rewriter, None, 1))
    });
    group.bench_function("snapshot_roundtrip", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            index.write_snapshot(&mut buf).unwrap();
            black_box(RewriteIndex::read_snapshot(buf.as_slice()).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, serve);
criterion_main!(benches);
