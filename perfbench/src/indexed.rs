//! `serve_indexed`: a 10k-query graph built offline by `serve build` and
//! served from the mmap-ed snapshot by `serve listen <idx>`.

use crate::common::{
    finish_trace, med, net_counters, restart_cycles, run_ladder, serve_config, session_answers,
    Ctx, Ladder, Sheet,
};
use crate::inputs::{Inputs, Request};
use crate::load::Check;
use crate::procs::{arg, children_peak_rss_mb, Server};
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::Tracer;
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig};
use simrankpp_graph::io::read_tsv;
use simrankpp_graph::WeightKind;
use simrankpp_serve::{serve_session, MappedIndex, RewriteIndex, ServeState};
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

pub const QUERIES: usize = 10_000;
pub const LADDER: Ladder = Ladder {
    rates: &[4000.0, 8000.0, 16000.0],
    shares: &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    nominal: 1,
    limit_ms: 10.0,
    conns: 2,
    check: Check::Stable,
};
const SETUP_REPS: usize = 3;
const RESTARTS: usize = 9;

fn listen_args(idx: &Path) -> Vec<String> {
    let mut a: Vec<String> = ["listen", "--addr", "127.0.0.1:0", "--admin", "127.0.0.1:0"]
        .map(String::from)
        .to_vec();
    a.push(arg(idx));
    a
}

fn ready(h: &str) -> bool {
    h.contains("state=ready")
}

pub fn run(ctx: &Ctx, sheet: &mut Sheet, inp: &Inputs) -> Result<(), String> {
    let graph = ctx.path("graph.tsv");
    std::fs::write(&graph, &inp.world.tsv).map_err(|e| e.to_string())?;

    // Set-up: graph on disk → `serve build` → `serve listen` answering
    // `health` ready; repeated, the last server stays up.
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    let mut idx = ctx.path("index.idx");
    for k in 0..SETUP_REPS {
        idx = ctx.path(&format!("index{k}.idx"));
        let t0 = Instant::now();
        ctx.serve
            .run(&["build".to_owned(), arg(&graph), arg(&idx)])?;
        let s = ctx.serve.spawn(&listen_args(&idx))?;
        s.wait_health(ready)?;
        setup.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUP_REPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let before = server.probe(&inp.probes)?;

    let ladder = run_ladder(sheet, server.data(), &LADDER, &inp.schedules)?;
    let info = server.admin_call("info")?;
    net_counters(sheet, &info);

    // Restart: SIGKILL → `serve listen` on the same snapshot → ready, with
    // the probe answers unchanged.
    let (server, restart, changed) = restart_cycles(
        ctx,
        server,
        &listen_args(&idx),
        ready,
        &inp.probes,
        &before,
        RESTARTS,
    )?;
    sheet
        .tally
        .count(restart.len(), changed, "restarts keeping the probe answers");
    server.shutdown()?;

    sheet.e2e.insert("setup_s", med(&setup));
    sheet.e2e.insert("restart_s", med(&restart));
    sheet.e2e.insert("rss_peak_mb", children_peak_rss_mb());

    // Oracle, outside the timed region: every distinct answer equals an
    // in-process session over the same snapshot.
    let mapped = MappedIndex::open(&idx).map_err(|e| format!("open {}: {e}", idx.display()))?;
    let state = ServeState::mapped(mapped);
    let mut queries: Vec<&str> = ladder.answers.by_query.keys().map(String::as_str).collect();
    queries.extend(inp.probes.iter().map(String::as_str));
    let expect = session_answers(&state, &queries);
    let n_seen = ladder.answers.by_query.len();
    for (i, q) in queries.iter().enumerate() {
        let got = if i < n_seen {
            &ladder.answers.by_query[*q]
        } else {
            &before[i - n_seen]
        };
        sheet.tally.check(*got == expect[i], || {
            format!("answer to {q:?}: {got:?} != oracle {:?}", expect[i])
        });
    }
    sheet.note(format!(
        "oracle: {} distinct answers and {} probes checked against an in-process session",
        n_seen,
        inp.probes.len()
    ));

    if ctx.trace {
        traced(
            ctx,
            sheet,
            &graph,
            &inp.schedules[LADDER.nominal],
            med(&setup),
        )?;
    }
    Ok(())
}

/// The traced in-process replay of the set-up path and the nominal
/// step's requests.
fn traced(
    ctx: &Ctx,
    sheet: &mut Sheet,
    graph_path: &Path,
    reqs: &[Request],
    e2e_setup_s: f64,
) -> Result<(), String> {
    let wall = Instant::now();
    let mut t = Tracer::default();
    let idx = ctx.path("traced.idx");
    let (pairs, entries, mapped) = t.span("setup", 0, |t| -> Result<_, String> {
        let graph = t.span("graph.io.read_tsv", 0, |_| {
            read_tsv(BufReader::new(
                File::open(graph_path).map_err(|e| e.to_string())?,
            ))
            .map_err(|e| e.to_string())
        })?;
        let method = t.span("core.method.compute", 0, |_| {
            Method::compute(
                MethodKind::WeightedSimrank,
                &graph,
                &serve_config(WeightKind::Clicks),
            )
        });
        let pairs = method.scores().n_pairs() + method.raw_scores().map_or(0, |r| r.n_pairs());
        let index = t.span("serve.index.build", 0, |_| {
            let rewriter = Rewriter::new(&graph, method, RewriterConfig::default());
            RewriteIndex::build(&rewriter, None, 0)
        });
        t.span("serve.snapshot.write", 0, |_| index.save(&idx))
            .map_err(|e| e.to_string())?;
        let mapped = t
            .span("serve.mapped.open", 0, |_| MappedIndex::open(&idx))
            .map_err(|e| e.to_string())?;
        Ok((pairs, index.n_entries(), mapped))
    })?;

    // Per request: the mapped lookup, then a whole protocol session.
    for (i, r) in reqs.iter().enumerate() {
        t.span("serve.mapped.lookup", i as u64, |_| {
            black_box(mapped.lookup(&r.query).map(|q| mapped.row(q)));
        });
    }
    let state = ServeState::mapped(mapped);
    for (i, r) in reqs.iter().enumerate() {
        let line = format!("rewrite {}\n", r.query);
        t.span("serve.server.session", i as u64, |_| {
            let mut out = Vec::with_capacity(256);
            serve_session(&state, line.as_bytes(), &mut out).expect("in-memory session");
            black_box(out);
        });
    }

    let one = |name: &str| t.ms(name).first().copied().unwrap_or(0.0);
    let session_us = sorted(
        t.ms("serve.server.session")
            .iter()
            .map(|ms| ms * 1e3)
            .collect(),
    );
    let lookup_ns = sorted(
        t.ms("serve.mapped.lookup")
            .iter()
            .map(|ms| ms * 1e6)
            .collect(),
    );
    let l = &mut sheet.layer;
    l.insert("graph.io.read_tsv_ms", one("graph.io.read_tsv"));
    l.insert("core.method.compute_ms", one("core.method.compute"));
    l.insert("core.method.pairs", pairs as f64);
    l.insert("serve.index.build_ms", one("serve.index.build"));
    l.insert("serve.index.entries", entries as f64);
    l.insert("serve.snapshot.write_ms", one("serve.snapshot.write"));
    l.insert(
        "serve.snapshot.bytes",
        std::fs::metadata(&idx).map_or(0.0, |m| m.len() as f64),
    );
    l.insert("serve.mapped.open_ms", one("serve.mapped.open"));
    l.insert("serve.mapped.lookup_ns_p50", median(&lookup_ns));
    l.insert("serve.server.session_us_p50", median(&session_us));
    l.insert(
        "serve.server.session_us_p99",
        nearest_rank(&session_us, 0.99),
    );
    l.insert(
        "serve.net.overhead_us_p50",
        sheet.e2e["rewrite_p50_ms"] * 1e3 - median(&session_us),
    );
    finish_trace(
        ctx,
        sheet,
        &t,
        &["setup"],
        one("setup") / 1e3,
        e2e_setup_s,
        wall,
    );
    Ok(())
}
