//! `ingest_mixed`: `serve ingest` tailing a click log that grows by one
//! epoch of popularity-sampled clicks at a fixed period, while open-loop
//! reads run on one data connection; the run ends with SIGKILL + `--resume`
//! cycles.

use crate::common::{
    finish_trace, med, net_counters, record_generator, restart_cycles, serve_config,
    session_answers, Ctx, Ladder, Sheet, FAILED_MS,
};
use crate::inputs::{
    click_log, fnv64, probe_queries, schedule, schedule_bytes, Request, Rng, World,
};
use crate::load::{self, Answers, Check};
use crate::procs::{arg, children_peak_rss_mb, field, Conn, Server};
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use simrankpp_core::{MethodKind, RewriterConfig};
use simrankpp_graph::WeightKind;
use simrankpp_serve::checkpoint::{capture, read_checkpoint, resume_ingestor, write_checkpoint};
use simrankpp_serve::{EpochIngestor, IngestConfig, IngestMetrics, LogTailer, ServeState};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const QUERIES: usize = 1_000;
/// Time between two epochs appended to the log.
pub const PERIOD: Duration = Duration::from_millis(600);
pub const EVENTS_PER_EPOCH: usize = 64;
/// Window length given to `serve ingest`: longer than any run, so the warm
/// epoch never retires and every epoch refreshes the same graph.
pub const WINDOW: usize = 256;
pub const LADDER: Ladder = Ladder {
    rates: &[100.0],
    shares: &[1.0],
    nominal: 0,
    limit_ms: 50.0,
    conns: 1,
    check: Check::Fresh,
};
const SETUP_REPS: usize = 3;
const RESTARTS: usize = 3;
/// How long an epoch may take to publish before it counts as failed.
const PUBLISH_GRACE: Duration = Duration::from_secs(10);

pub struct Inputs {
    pub warm: Vec<u8>,
    pub epochs: Vec<Vec<u8>>,
    pub reads: Vec<Request>,
    pub probes: Vec<String>,
    pub hashes: Vec<(&'static str, String)>,
}

pub fn epochs(seconds: f64) -> usize {
    ((seconds / PERIOD.as_secs_f64()).floor() as usize).clamp(1, WINDOW - 2)
}

pub fn inputs(seed: u64, seconds: f64) -> Inputs {
    let world = World::generate(QUERIES);
    let mut rng = Rng::new(seed, 2);
    let n = epochs(seconds);
    let (warm, epochs) = click_log(&world, n, EVENTS_PER_EPOCH, &mut rng);
    let reads = schedule(
        &world,
        LADDER.rates[0],
        n as f64 * PERIOD.as_secs_f64(),
        &mut rng,
    );
    let probes = probe_queries(&world, &mut Rng::new(seed, 3));
    let log: Vec<u8> = [warm.clone(), epochs.concat()].concat();
    let hashes = vec![
        ("graph.tsv", fnv64(&world.tsv)),
        ("click.log", fnv64(&log)),
        (
            "schedule",
            fnv64(&schedule_bytes(std::slice::from_ref(&reads))),
        ),
    ];
    Inputs {
        warm,
        epochs,
        reads,
        probes,
        hashes,
    }
}

fn ingest_args(log: &Path, ck: &Path, resume: bool) -> Vec<String> {
    let mut a = vec![
        "ingest".to_owned(),
        arg(log),
        "--checkpoint".to_owned(),
        arg(ck),
    ];
    if resume {
        a.push("--resume".to_owned());
    }
    a.extend(
        [
            "--window",
            &WINDOW.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--admin",
            "127.0.0.1:0",
        ]
        .map(String::from),
    );
    a
}

fn at_epoch(epoch: u64) -> impl Fn(&str) -> bool + Copy {
    move |h: &str| field(h, "ingest_epoch") == Some(epoch)
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        window: WINDOW,
        decay: 1.0,
        method: MethodKind::WeightedSimrank,
        config: serve_config(WeightKind::ExpectedClickRate),
        rewriter: RewriterConfig::default(),
        threads: 0,
    }
}

fn append(log: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(log)
        .map_err(|e| format!("open {}: {e}", log.display()))?;
    f.write_all(bytes).map_err(|e| format!("append: {e}"))
}

pub fn run(ctx: &Ctx, sheet: &mut Sheet, inp: &Inputs) -> Result<(), String> {
    // Set-up: the warm log on disk → `serve ingest` catches up, builds and
    // checkpoints → `health` answers at epoch 1; repeated on fresh copies,
    // the last server stays up.
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    let (mut log, mut ck) = (ctx.path("click.log"), ctx.path("ck.bin"));
    for k in 0..SETUP_REPS {
        log = ctx.path(&format!("click{k}.log"));
        ck = ctx.path(&format!("ck{k}.bin"));
        std::fs::write(&log, &inp.warm).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let s = ctx.serve.spawn(&ingest_args(&log, &ck, false))?;
        s.wait_health(at_epoch(1))?;
        setup.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUP_REPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    // Measure: epochs appended on schedule while reads run open loop on
    // their own connection; `health` is polled on the admin plane for each
    // epoch's publication.
    let mut streams =
        load::connect(server.data(), LADDER.conns).map_err(|e| format!("connect: {e}"))?;
    let mut admin = Conn::open(server.admin()).map_err(|e| format!("admin: {e}"))?;
    let mut answers = Answers::default();
    let n = inp.epochs.len();
    let mut marked: Vec<Option<Instant>> = vec![None; n];
    let mut published: Vec<Option<Instant>> = vec![None; n];
    let (reads, append_err) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            load::run_step(
                &mut streams,
                &inp.reads,
                LADDER.rates[0],
                LADDER.check,
                &mut answers,
            )
        });
        let t0 = Instant::now();
        let mut err = None;
        let mut next = 0;
        loop {
            let now = Instant::now();
            if next < n && now >= t0 + PERIOD.mul_f64(next as f64) {
                if let Err(e) = append(&log, &inp.epochs[next]) {
                    err = Some(e);
                    break;
                }
                marked[next] = Some(Instant::now());
                next += 1;
            }
            let epoch = admin
                .call("health")
                .ok()
                .and_then(|h| field(&h, "ingest_epoch"))
                .unwrap_or(0);
            for (k, p) in published.iter_mut().enumerate().take(next) {
                // Epoch batch k closes with the mark `@ k + 2`.
                if p.is_none() && epoch >= k as u64 + 2 {
                    *p = Some(Instant::now());
                }
            }
            let all = next == n && published.iter().all(Option::is_some);
            if all || now > t0 + PERIOD.mul_f64(n as f64) + PUBLISH_GRACE {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        (reader.join().expect("reader thread"), err)
    });
    if let Some(e) = append_err {
        return Err(e);
    }
    sheet
        .tally
        .count(inp.reads.len(), reads.failed, "reads under ingest");
    sheet.tally.count(
        answers.unstable,
        answers.unstable,
        "repeat answers that differed",
    );
    let mut c2s_ms = Vec::new();
    for k in 0..n {
        match (marked[k], published[k]) {
            (Some(m), Some(p)) => c2s_ms.push(p.saturating_duration_since(m).as_secs_f64() * 1e3),
            _ => sheet
                .tally
                .check(false, || format!("epoch {} never published", k + 2)),
        }
    }
    sheet.tally.attempted += c2s_ms.len() as u64;
    let c2s = sorted(c2s_ms);
    let t = tail(&c2s);
    sheet.note(format!(
        "click-to-serve over {} epochs: p50 {:.1} ms, tail p{:.1} {:.1} ms ({} beyond)",
        c2s.len(),
        median(&c2s),
        t.percentile,
        t.value,
        t.beyond
    ));
    sheet.note(format!(
        "reads at {}/s: p50 {:.3} ms, windowed p99 {:.3} ms, {} failed, backlog max {} end {}",
        LADDER.rates[0],
        reads.p50_ms().min(FAILED_MS),
        reads.p99_ms().min(FAILED_MS),
        reads.failed,
        reads.max_backlog,
        reads.end_backlog
    ));
    let last_epoch = n as u64 + 1;
    server.wait_health(at_epoch(last_epoch))?;
    let info = admin.call("info").map_err(|e| format!("info: {e}"))?;
    net_counters(sheet, &info);
    drop(admin);
    let before = server.probe(&inp.probes)?;

    // Restart: SIGKILL → `--resume` from the checkpoint → `health` at the
    // pre-kill epoch, with the probe answers unchanged.
    let (server, restart, changed) = restart_cycles(
        ctx,
        server,
        &ingest_args(&log, &ck, true),
        at_epoch(last_epoch),
        &inp.probes,
        &before,
        RESTARTS,
    )?;
    sheet
        .tally
        .count(restart.len(), changed, "restarts keeping the probe answers");
    server.shutdown()?;

    record_generator(
        sheet,
        reads.lateness_ms.clone(),
        reads.max_backlog,
        LADDER.limit_ms,
    );
    let e = &mut sheet.e2e;
    e.insert("setup_s", med(&setup));
    e.insert("restart_s", med(&restart));
    e.insert("rss_peak_mb", children_peak_rss_mb());
    e.insert("rewrite_p50_ms", reads.p50_ms().min(FAILED_MS));
    e.insert("rewrite_p99_ms", reads.p99_ms().min(FAILED_MS));
    e.insert(
        "rewrite_max_rps",
        if reads.passes(LADDER.limit_ms, LADDER.conns) {
            reads.achieved_rps
        } else {
            0.0
        },
    );
    e.insert("click_to_serve_p50_ms", median(&c2s));
    e.insert("click_to_serve_tail_ms", t.value);

    // Oracle, outside the timed region: the final answers equal a scratch
    // replay of the whole log through an in-process `EpochIngestor`.
    let mut scratch = EpochIngestor::new(ingest_config());
    let mut tailer = LogTailer::open(&log).map_err(|e| e.to_string())?;
    for sr in tailer.drain_spanned().map_err(|e| e.to_string())? {
        scratch.apply_record_at(&sr.rec, (sr.start, sr.end));
    }
    let (index, _, _) = scratch.refresh()?;
    let state = ServeState::fixed(index);
    let probes: Vec<&str> = inp.probes.iter().map(String::as_str).collect();
    let expect = session_answers(&state, &probes);
    for (i, q) in probes.iter().enumerate() {
        sheet.tally.check(before[i] == expect[i], || {
            format!("probe {q:?}: {:?} != replay {:?}", before[i], expect[i])
        });
    }
    sheet.note(format!(
        "oracle: {} probes checked against a scratch replay of the log",
        probes.len()
    ));

    if ctx.trace {
        traced(ctx, sheet, inp, median(&c2s), med(&setup))?;
    }
    Ok(())
}

/// The traced in-process replay: the warm catch-up, then each epoch
/// through drain → apply → refresh → publish → checkpoint, then resumes.
fn traced(
    ctx: &Ctx,
    sheet: &mut Sheet,
    inp: &Inputs,
    c2s_p50_ms: f64,
    e2e_setup_s: f64,
) -> Result<(), String> {
    let wall = Instant::now();
    let mut t = Tracer::default();
    let log = ctx.path("traced.log");
    let ck = ctx.path("traced.ck");
    std::fs::write(&log, &inp.warm).map_err(|e| e.to_string())?;
    let mut ingestor = EpochIngestor::new(ingest_config());
    let mut tailer = LogTailer::open(&log).map_err(|e| e.to_string())?;
    let state = t.span("setup", 0, |t| -> Result<_, String> {
        let recs = t
            .span("graph.delta.drain", 0, |_| tailer.drain_spanned())
            .map_err(|e| e.to_string())?;
        t.span("serve.ingest.apply", 0, |_| {
            for sr in &recs {
                ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
            }
        });
        let (index, _, _) = t.span("serve.ingest.full_build", 0, |_| ingestor.refresh())?;
        let state = t.span("serve.swap.publish", 0, |_| {
            ServeState::ingesting(index, Arc::new(IngestMetrics::default()))
        });
        t.span("serve.checkpoint.write", 0, |_| {
            write_checkpoint(&ck, &capture(&ingestor))
        })
        .map_err(|e| e.to_string())?;
        Ok(state)
    })?;
    let (mut copied, mut refreshed, mut dirty) = (0usize, 0usize, Vec::new());
    for (k, batch) in inp.epochs.iter().enumerate() {
        append(&log, batch)?;
        let id = k as u64 + 2;
        let stats = t.span("epoch", id, |t| -> Result<_, String> {
            let recs = t
                .span("graph.delta.drain", id, |_| tailer.drain_spanned())
                .map_err(|e| e.to_string())?;
            t.span("serve.ingest.apply", id, |_| {
                for sr in &recs {
                    ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
                }
            });
            let (index, stats, _) = t.span("serve.ingest.refresh", id, |_| ingestor.refresh())?;
            t.span("serve.swap.publish", id, |_| state.publish(index));
            t.span("serve.checkpoint.write", id, |_| {
                write_checkpoint(&ck, &capture(&ingestor))
            })
            .map_err(|e| e.to_string())?;
            Ok(stats)
        })?;
        copied += stats.copied_queries;
        refreshed += stats.refreshed_queries;
        dirty.push(stats.n_dirty_components as f64);
    }
    for k in 0..RESTARTS {
        t.span(
            "serve.checkpoint.resume",
            k as u64,
            |t| -> Result<_, String> {
                let c = t
                    .span("serve.checkpoint.read", k as u64, |_| read_checkpoint(&ck))
                    .map_err(|e| e.to_string())?;
                let mut r = t
                    .span("serve.checkpoint.replay", k as u64, |_| {
                        resume_ingestor(&log, &ingest_config(), &c)
                    })
                    .map_err(|e| e.to_string())?;
                t.span("serve.checkpoint.rebuild", k as u64, |_| {
                    r.ingestor.refresh()
                })?;
                Ok(())
            },
        )?;
    }

    // Epoch-phase spans only: the set-up's drain and checkpoint are excluded.
    let epoch_ms = |name: &str| -> Vec<f64> {
        let spans = t.spans();
        sorted(
            spans
                .iter()
                .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == "epoch"))
                .map(|s| s.ns() as f64 / 1e6)
                .collect(),
        )
    };
    let refresh = epoch_ms("serve.ingest.refresh");
    let l = &mut sheet.layer;
    l.insert(
        "graph.delta.drain_ms",
        median(&epoch_ms("graph.delta.drain")),
    );
    l.insert("serve.ingest.refresh_ms_p50", median(&refresh));
    l.insert("serve.ingest.refresh_ms_tail", tail(&refresh).value);
    l.insert(
        "serve.ingest.rows_copied_ratio",
        copied as f64 / (copied + refreshed).max(1) as f64,
    );
    l.insert("serve.ingest.dirty_components", median(&sorted(dirty)));
    l.insert(
        "serve.swap.publish_us",
        median(&epoch_ms("serve.swap.publish")) * 1e3,
    );
    l.insert(
        "serve.ingest.residual_ms_p50",
        c2s_p50_ms - median(&refresh),
    );
    l.insert(
        "serve.checkpoint.write_ms",
        median(&epoch_ms("serve.checkpoint.write")),
    );
    l.insert(
        "serve.checkpoint.bytes",
        std::fs::metadata(&ck).map_or(0.0, |m| m.len() as f64),
    );
    l.insert(
        "serve.checkpoint.resume_ms",
        median(&sorted(t.ms("serve.checkpoint.resume"))),
    );
    let setup_s = t.ms("setup")[0] / 1e3;
    finish_trace(
        ctx,
        sheet,
        &t,
        &["setup", "epoch"],
        setup_s,
        e2e_setup_s,
        wall,
    );
    Ok(())
}
