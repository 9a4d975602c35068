//! End-to-end benchmark of the release `serve` binary.
//!
//! ```text
//! simrankpp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                     --serve <path to serve> --work <scratch dir>
//! ```
//!
//! Each workload generates its inputs from the seed, drives `serve` as a
//! child process over loopback TCP with its default engine flags, checks
//! every answer against an in-process oracle, and prints one JSON object as
//! its last stdout line: the end-to-end metrics with `--trace 0`, or with
//! `--trace 1` the per-layer metrics of a traced in-process replay of the
//! same inputs. Everything human-readable goes to stderr. The exit code is
//! non-zero when any answer is wrong.

mod common;
mod indexed;
mod ingest;
mod inputs;
mod live;
mod load;
mod procs;
mod stats;
mod trace;

use common::{Ctx, Ladder, Sheet};
use procs::Serve;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with their units: the
/// gated set, each steady enough between runs to hold a regression bound.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("rewrite_max_rps", "1/s"),
];

/// End-to-end costs that are measured with tracing off like the gated set
/// but vary between runs by more than any regression bound can hold on a
/// small shared machine; they are printed on every run and reported in the
/// per-layer sheet. 0 where the workload has no such path.
const UNGATED: &[(&str, &str)] = &[
    ("rewrite_p50_ms", "ms"),
    ("rewrite_p99_ms", "ms"),
    ("restart_s", "s"),
    ("click_to_serve_p50_ms", "ms"),
    ("click_to_serve_tail_ms", "ms"),
];

/// The per-layer metrics of the traced run. A workload that bypasses a
/// layer reports 0 for it: that layer does no work there.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.read_tsv_ms", "ms"),
    ("core.method.compute_ms", "ms"),
    ("core.method.pairs", "count"),
    ("serve.index.build_ms", "ms"),
    ("serve.index.entries", "count"),
    ("serve.snapshot.write_ms", "ms"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.mapped.open_ms", "ms"),
    ("serve.mapped.lookup_ns_p50", "ns"),
    ("serve.server.session_us_p50", "us"),
    ("serve.server.session_us_p99", "us"),
    ("serve.net.overhead_us_p50", "us"),
    ("serve.net.rejected", "count"),
    ("serve.net.timeouts", "count"),
    ("serve.net.errors", "count"),
    ("core.single_source.precompute_ms", "ms"),
    ("core.single_source.row_ms_p50", "ms"),
    ("core.single_source.row_ms_p99", "ms"),
    ("serve.rowcache.hits", "count"),
    ("serve.rowcache.misses", "count"),
    ("serve.rowcache.hit_ratio", "ratio"),
    ("serve.live.wait_ms_p50", "ms"),
    ("graph.delta.drain_ms", "ms"),
    ("serve.ingest.refresh_ms_p50", "ms"),
    ("serve.ingest.refresh_ms_tail", "ms"),
    ("serve.ingest.rows_copied_ratio", "ratio"),
    ("serve.ingest.dirty_components", "count"),
    ("serve.swap.publish_us", "us"),
    ("serve.ingest.residual_ms_p50", "ms"),
    ("serve.checkpoint.write_ms", "ms"),
    ("serve.checkpoint.bytes", "bytes"),
    ("serve.checkpoint.resume_ms", "ms"),
    ("bench.gen.lateness_ms_p99", "ms"),
    ("bench.gen.backlog_max", "count"),
    ("bench.gen.valid", "flag"),
    ("bench.trace.coverage_pct", "%"),
    ("bench.trace.uncovered_ms", "ms"),
    ("bench.trace.spans", "count"),
    ("bench.trace.overhead_pct", "%"),
    ("bench.trace.wall_s", "s"),
    ("bench.trace.setup_s", "s"),
    ("bench.untraced.setup_s", "s"),
];

const WORKLOADS: &[&str] = &["serve_indexed", "serve_live", "ingest_mixed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?} (one of {WORKLOADS:?})"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        serve: PathBuf::from(get("--serve")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// Generates a workload's inputs twice and checks the bytes agree.
fn checked_hashes(
    sheet: &mut Sheet,
    a: Vec<(&'static str, String)>,
    b: Vec<(&'static str, String)>,
) {
    for ((name, h), (_, h2)) in a.iter().zip(&b) {
        sheet.note(format!("input {name}: fnv64 {h}"));
        sheet.tally.check(h == h2, || {
            format!("input {name} differs between two generations")
        });
    }
}

fn run(args: &Args, sheet: &mut Sheet) -> Result<(), String> {
    let ctx = Ctx {
        serve: Serve::new(args.serve.clone()),
        work: args.work.clone(),
        seed: args.seed,
        trace: args.trace,
    };
    let (seed, secs) = (args.seed, args.seconds);
    let ladder_inputs = |sheet: &mut Sheet, queries, ladder: &Ladder| {
        let gen = || inputs::ladder_inputs(queries, ladder.rates, ladder.shares, seed, secs);
        let inp = gen();
        checked_hashes(sheet, inp.hashes.clone(), gen().hashes);
        inp
    };
    let result = match args.workload {
        "serve_indexed" => {
            let inp = ladder_inputs(sheet, indexed::QUERIES, &indexed::LADDER);
            indexed::run(&ctx, sheet, &inp)
        }
        "serve_live" => {
            let inp = ladder_inputs(sheet, live::QUERIES, &live::LADDER);
            live::run(&ctx, sheet, &inp)
        }
        _ => {
            let inp = ingest::inputs(seed, secs);
            checked_hashes(sheet, inp.hashes.clone(), ingest::inputs(seed, secs).hashes);
            ingest::run(&ctx, sheet, &inp)
        }
    };
    for line in ctx.serve.commands.lock().expect("command log lock").iter() {
        sheet.note(format!("ran: {line}"));
    }
    result
}

/// A metric value as JSON: every digit kept; a non-finite value (a layer
/// that measured nothing) as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "perfbench {} seed {} for {} s (trace {}), {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut sheet = Sheet {
        workload: args.workload,
        ..Sheet::default()
    };
    let outcome = run(&args, &mut sheet);
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }

    eprintln!("end-to-end ({}):", args.workload);
    for (name, unit) in END_TO_END {
        let v = sheet
            .e2e
            .get(name)
            .copied()
            .expect("every workload reports every end-to-end metric");
        eprintln!("  {name:<24} {v:>14.4} {unit}");
    }
    eprintln!("end-to-end, not gated ({}):", args.workload);
    for (name, unit) in UNGATED {
        let v = sheet.e2e.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<24} {v:>14.4} {unit}");
        sheet.layer.insert(name, v);
    }
    if args.trace {
        eprintln!("per layer ({}):", args.workload);
        for (name, unit) in UNGATED.iter().chain(PER_LAYER) {
            eprintln!(
                "  {name:<34} {:>14.4} {unit}",
                sheet.layer.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    let t = &sheet.tally;
    eprintln!(
        "{} operations attempted, {} failed (failed share {:.6})",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for p in &t.problems {
        eprintln!("  FAILED: {p}");
    }

    let (table, values): (Vec<_>, _) = if args.trace {
        (UNGATED.iter().chain(PER_LAYER).collect(), &sheet.layer)
    } else {
        (END_TO_END.iter().collect(), &sheet.e2e)
    };
    let metrics: Vec<String> = table
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    let correct = t.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
