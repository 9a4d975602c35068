//! Command-line surface of the `serve` binary: the shard argument accepts
//! only the exact strategies, and a build's snapshot reports the pull
//! kernel.

use std::path::PathBuf;
use std::process::Command;

/// A fresh per-test scratch directory holding a tiny click-graph TSV.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("simrankpp_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tsv = dir.join("graph.tsv");
    std::fs::write(
        &tsv,
        "camera\thp.com\t130\t100\t0.76\n\
         digicam\thp.com\t140\t100\t0.71\n\
         camera\tbestbuy.com\t120\t40\t0.33\n\
         digicam\tbestbuy.com\t110\t40\t0.36\n\
         tv\tbestbuy.com\t150\t40\t0.27\n",
    )
    .unwrap();
    (dir, tsv)
}

fn serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("spawn serve")
}

#[test]
fn extracted_shard_strategy_is_refused_with_usage() {
    let (dir, tsv) = scratch("extracted");
    let idx = dir.join("out.idx");
    let out = serve(&[
        "build",
        tsv.to_str().unwrap(),
        idx.to_str().unwrap(),
        "weighted",
        "extracted:3",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "extracted:3 must fail: {stderr}");
    assert!(stderr.contains("unknown shard strategy"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!idx.exists(), "a refused build must write no snapshot");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn built_snapshot_reports_the_pull_kernel() {
    let (dir, tsv) = scratch("pull");
    let idx = dir.join("out.idx");
    for shard in ["components", "off"] {
        let out = serve(&[
            "build",
            tsv.to_str().unwrap(),
            idx.to_str().unwrap(),
            "weighted",
            shard,
        ]);
        assert!(out.status.success(), "{shard}: {out:?}");
        let info = serve(&["info", idx.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&info.stdout);
        assert!(stdout.contains("engine kernel   Pull"), "{stdout}");
        assert!(stdout.contains("approx sharding false"), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
