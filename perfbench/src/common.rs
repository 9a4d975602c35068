//! What every workload shares: the run context, the failure tally, the
//! metric sheets, and the rate-ladder runner.

use crate::inputs::Request;
use crate::load::{self, Answers, Check, StepResult};
use crate::procs::{field, Serve, Server};
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::Tracer;
use simrankpp_core::{ShardStrategy, SimrankConfig};
use simrankpp_graph::WeightKind;
use simrankpp_serve::{serve_session, ServeState};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

pub struct Ctx {
    pub serve: Serve,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub trace: bool,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failed one is kept with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn count(&mut self, n: usize, failed: usize, what: &str) {
        self.attempted += n as u64;
        self.failed += failed as u64;
        if failed > 0 && self.problems.len() < 20 {
            self.problems.push(format!("{failed} of {n} {what} failed"));
        }
    }
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Sheet {
    pub workload: &'static str,
    pub tally: Tally,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
}

impl Sheet {
    /// One line of the human-readable report (stderr).
    pub fn note(&mut self, line: String) {
        eprintln!("  {line}");
    }
}

/// One rate ladder: its steps in order and the latency limit.
pub struct Ladder<'a> {
    pub rates: &'a [f64],
    /// Share of the run's seconds each step lasts.
    pub shares: &'a [f64],
    /// Index of the nominal step in `rates`.
    pub nominal: usize,
    pub limit_ms: f64,
    pub conns: usize,
    pub check: Check,
}

/// Latency a failed request is reported at once percentiles reach it: the
/// generator gives a request up as failed this long after its due time.
pub const FAILED_MS: f64 = load::GRACE.as_millis() as f64;

pub struct LadderResult {
    pub steps: Vec<StepResult>,
    pub answers: Answers,
}

impl LadderResult {
    pub fn nominal(&self, l: &Ladder) -> &StepResult {
        &self.steps[l.nominal]
    }

    /// Achieved rate of the highest step that meets the limit, 0 if none.
    pub fn max_rps(&self, l: &Ladder) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|s| s.passes(l.limit_ms, l.conns))
            .map_or(0.0, |s| s.achieved_rps)
    }
}

/// Drives every step of `ladder` against `data`, back to back, on the
/// same connections, and records it in `sheet`.
pub fn run_ladder(
    sheet: &mut Sheet,
    data: SocketAddr,
    ladder: &Ladder,
    schedules: &[Vec<Request>],
) -> Result<LadderResult, String> {
    let mut streams = load::connect(data, ladder.conns).map_err(|e| format!("connect: {e}"))?;
    let mut answers = Answers::default();
    let mut steps = Vec::new();
    let mut lateness = Vec::new();
    for (&rate, reqs) in ladder.rates.iter().zip(schedules) {
        let step = load::run_step(&mut streams, reqs, rate, ladder.check, &mut answers);
        sheet
            .tally
            .count(reqs.len(), step.failed, &format!("requests at {rate}/s"));
        sheet.note(format!(
            "step {rate:>6}/s: {} requests, p50 {:.3} ms, windowed p99 {:.3} ms (whole-step p99 {:.3} ms), \
             achieved {:.1}/s, generator lateness p99 {:.3} ms, backlog max {} end {}, {} failed — {}",
            reqs.len(),
            step.p50_ms().min(FAILED_MS),
            step.p99_ms().min(FAILED_MS),
            step.p99_whole_ms().min(FAILED_MS),
            step.achieved_rps,
            nearest_rank(&sorted(step.lateness_ms.clone()), 0.99),
            step.max_backlog,
            step.end_backlog,
            step.failed,
            if step.passes(ladder.limit_ms, ladder.conns) {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        lateness.extend_from_slice(&step.lateness_ms);
        steps.push(step);
    }
    sheet.tally.count(
        answers.unstable,
        answers.unstable,
        "repeat answers that differed",
    );
    let backlog = steps.iter().map(|s| s.max_backlog).max().unwrap_or(0);
    record_generator(sheet, lateness, backlog, ladder.limit_ms);
    let res = LadderResult { steps, answers };
    let nominal = res.nominal(ladder);
    sheet
        .e2e
        .insert("rewrite_p50_ms", nominal.p50_ms().min(FAILED_MS));
    sheet
        .e2e
        .insert("rewrite_p99_ms", nominal.p99_ms().min(FAILED_MS));
    sheet.e2e.insert("rewrite_max_rps", res.max_rps(ladder));
    Ok(res)
}

/// A run is invalid when the generator's lateness p99 exceeds this share
/// of the latency limit.
pub const LATENESS_SHARE: f64 = 0.25;

/// Restart cycles: SIGKILL → `serve <args>` → `health` accepted by
/// `ready`, each timed from the kill. Returns the last server, the restart
/// times (s), and how many restarts changed the probe answers from
/// `before`.
pub fn restart_cycles(
    ctx: &Ctx,
    mut server: Server,
    args: &[String],
    ready: impl Fn(&str) -> bool + Copy,
    probes: &[String],
    before: &[String],
    n: usize,
) -> Result<(Server, Vec<f64>, usize), String> {
    let mut restart = Vec::with_capacity(n);
    let mut changed = 0;
    for _ in 0..n {
        let killed = server.kill();
        server = ctx.serve.spawn(args)?;
        server.wait_health(ready)?;
        restart.push(killed.elapsed().as_secs_f64());
        changed += usize::from(server.probe(probes)? != before);
    }
    Ok((server, restart, changed))
}

/// Records how late the generator ran and its largest backlog, and flags
/// the run invalid when the lateness p99 exceeds its share of the limit.
pub fn record_generator(
    sheet: &mut Sheet,
    lateness_ms: Vec<f64>,
    backlog_max: usize,
    limit_ms: f64,
) {
    let late_p99 = nearest_rank(&sorted(lateness_ms), 0.99);
    let valid = late_p99 <= LATENESS_SHARE * limit_ms;
    if !valid {
        sheet.note(format!(
            "INVALID RUN: generator lateness p99 {late_p99:.3} ms exceeds {}% of the {limit_ms} ms limit",
            LATENESS_SHARE * 100.0
        ));
    }
    let l = &mut sheet.layer;
    l.insert("bench.gen.lateness_ms_p99", late_p99);
    l.insert("bench.gen.backlog_max", backlog_max as f64);
    l.insert("bench.gen.valid", if valid { 1.0 } else { 0.0 });
}

/// Median of `v` (ms or s alike).
pub fn med(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// The engine configuration `serve` computes with when given no engine
/// flags: the library defaults, exact component sharding, and the
/// subcommand's weight kind (`clicks`, or `ecr` for `ingest`).
pub fn serve_config(weight: WeightKind) -> SimrankConfig {
    SimrankConfig::default()
        .with_weight_kind(weight)
        .with_sharding(ShardStrategy::Components)
}

/// Answers of an in-process `serve_session` to `rewrite <q>` for each query.
pub fn session_answers(state: &ServeState, queries: &[&str]) -> Vec<String> {
    let input: String = queries.iter().map(|q| format!("rewrite {q}\n")).collect();
    let mut out = Vec::new();
    serve_session(state, input.as_bytes(), &mut out).expect("in-memory session");
    String::from_utf8(out)
        .expect("protocol is UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Copies the data-plane counters of an admin `info` line.
pub fn net_counters(sheet: &mut Sheet, info: &str) {
    for (key, name) in [
        ("net_rejected", "serve.net.rejected"),
        ("net_timeouts", "serve.net.timeouts"),
        ("net_errors", "serve.net.errors"),
    ] {
        sheet
            .layer
            .insert(name, field(info, key).unwrap_or(0) as f64);
    }
}

/// Records coverage, wall time and span count of a traced run and writes
/// its spans out. `roots` name the phases whose children must cover
/// ≥ 90 % of each.
pub fn finish_trace(
    ctx: &Ctx,
    sheet: &mut Sheet,
    t: &Tracer,
    roots: &[&str],
    traced_setup_s: f64,
    e2e_setup_s: f64,
    wall: Instant,
) {
    let mut min_cov = f64::INFINITY;
    let mut uncovered_ns = 0;
    for root in roots {
        let (covered, total) = t.coverage(root);
        uncovered_ns += total - covered;
        min_cov = min_cov.min(t.min_coverage(root));
        sheet.note(format!(
            "trace: spans cover {:.2}% of `{root}` ({:.1} ms uncovered)",
            100.0 * covered as f64 / total.max(1) as f64,
            (total - covered) as f64 / 1e6
        ));
    }
    sheet.tally.check(min_cov >= COVERAGE, || {
        format!("span coverage {:.1}% below 90%", min_cov * 100.0)
    });
    let l = &mut sheet.layer;
    l.insert("bench.trace.coverage_pct", 100.0 * min_cov);
    l.insert("bench.trace.uncovered_ms", uncovered_ns as f64 / 1e6);
    l.insert("bench.trace.spans", t.spans().len() as f64);
    l.insert(
        "bench.trace.overhead_pct",
        100.0 * t.spans().len() as f64 * span_cost_ns() / wall.elapsed().as_nanos() as f64,
    );
    l.insert("bench.trace.wall_s", wall.elapsed().as_secs_f64());
    l.insert("bench.trace.setup_s", traced_setup_s);
    l.insert("bench.untraced.setup_s", e2e_setup_s);
    sheet.note(format!(
        "trace: traced set-up {traced_setup_s:.3} s in process vs untraced {e2e_setup_s:.3} s end to end; \
         traced replay wall {:.2} s over {} spans",
        wall.elapsed().as_secs_f64(),
        t.spans().len()
    ));
    let out = ctx
        .work
        .parent()
        .expect("work dir has a parent")
        .join(format!("spans-{}-{}.tsv", sheet.workload, ctx.seed));
    if let Err(e) = std::fs::write(&out, t.to_tsv()) {
        sheet.note(format!("cannot write spans to {}: {e}", out.display()));
    }
}

/// Least share of a phase its child spans must cover.
pub const COVERAGE: f64 = 0.9;

/// What recording one span costs, measured on a scratch tracer.
fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::default();
    let t0 = Instant::now();
    for i in 0..N {
        t.span("calibrate", i, |_| ());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}
