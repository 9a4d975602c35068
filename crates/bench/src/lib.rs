//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary honors the `SIMRANKPP_SCALE` environment variable:
//!
//! * `tiny` — seconds; smoke-testing the harness;
//! * `small` (default) — tens of seconds; the example scale (~2k queries);
//! * `paper` — minutes; the bench scale (~50k queries, the Table 5 shape
//!   scaled to a laptop).
//!
//! Scale changes only the dataset size — seeds, method parameters and the
//! evaluation pipeline stay fixed, so results are deterministic per scale.
//! Any other value — and any malformed numeric variable, such as
//! `ablation_spread`'s `TRIALS` — makes the binary exit with status 2 and
//! the accepted values rather than run a scale nobody asked for.

use simrankpp_core::{RewriterConfig, SimrankConfig};
use simrankpp_eval::ExperimentConfig;
use simrankpp_partition::ExtractConfig;
use simrankpp_synth::GeneratorConfig;

/// The scale names `SIMRANKPP_SCALE` accepts.
pub const SCALES: [&str; 3] = ["tiny", "small", "paper"];

/// Validates a `SIMRANKPP_SCALE` value; `None` (unset) selects `small`.
pub fn parse_scale(raw: Option<&str>) -> Result<String, String> {
    match raw {
        None => Ok("small".to_owned()),
        Some(s) if SCALES.contains(&s) => Ok(s.to_owned()),
        Some(s) => Err(format!(
            "SIMRANKPP_SCALE={s:?} is not a scale; accepted: {}",
            SCALES.join(" | ")
        )),
    }
}

/// Validates a positive count read from environment variable `name`;
/// `None` (unset) selects `default`.
pub fn parse_positive(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "{name}={s:?} is not accepted; expected a positive integer"
            )),
        },
    }
}

/// The scale selected via `SIMRANKPP_SCALE` (default `small`). Exits with
/// status 2 and the accepted names on any other value.
pub fn scale() -> String {
    or_exit(parse_scale(env_var("SIMRANKPP_SCALE").as_deref()))
}

/// A positive count from environment variable `name` (`default` when
/// unset). Exits with status 2 on anything that is not a positive integer.
pub fn env_positive(name: &str, default: usize) -> usize {
    or_exit(parse_positive(name, env_var(name).as_deref(), default))
}

/// The variable's value, non-UTF-8 bytes replaced so they fail validation
/// instead of reading as unset.
fn env_var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The generator configuration for a scale name.
pub fn generator_config(scale: &str) -> GeneratorConfig {
    match scale {
        "tiny" => GeneratorConfig::tiny(),
        "paper" => GeneratorConfig::paper_scale(),
        _ => GeneratorConfig::small(),
    }
}

/// The full experiment configuration for a scale name.
pub fn experiment_config(scale: &str) -> ExperimentConfig {
    let generator = generator_config(scale);
    let (n_subgraphs, min_size, max_size, sample, trials, prune) = match scale {
        "tiny" => (2, 6, 60, 30, 8, 0.0),
        "paper" => (5, 200, 30_000, 1200, 50, 1e-4),
        _ => (5, 20, 1200, 1200, 50, 0.0),
    };
    ExperimentConfig {
        generator,
        extract: ExtractConfig {
            n_subgraphs,
            min_size,
            max_size,
            ..ExtractConfig::default()
        },
        simrank: SimrankConfig::default()
            .with_iterations(7)
            .with_prune_threshold(prune)
            .with_threads(if scale == "paper" { 0 } else { 1 }),
        rewriter: RewriterConfig::default(),
        eval_sample_size: sample,
        desirability_trials: trials,
        seed: 0x5EED,
    }
}

/// Prints the standard banner for a regeneration binary.
pub fn banner(target: &str, paper_ref: &str) {
    let scale = scale();
    println!("=== {target} — reproduces {paper_ref} ===");
    println!("scale: {scale} (set SIMRANKPP_SCALE=tiny|small|paper)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        assert_eq!(generator_config("tiny").n_queries, 60);
        assert_eq!(generator_config("paper").n_queries, 50_000);
        assert_eq!(generator_config("small").n_queries, 2_000);
    }

    #[test]
    fn scale_names_are_validated() {
        assert_eq!(parse_scale(None).unwrap(), "small");
        for s in SCALES {
            assert_eq!(parse_scale(Some(s)).unwrap(), s);
        }
        for bad in ["", "huge", "Tiny", "small "] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("tiny | small | paper"), "{err}");
        }
    }

    #[test]
    fn positive_counts_are_validated() {
        assert_eq!(parse_positive("TRIALS", None, 50).unwrap(), 50);
        assert_eq!(parse_positive("TRIALS", Some("7"), 50).unwrap(), 7);
        for bad in ["", "0", "-3", "ten", "1.5"] {
            let err = parse_positive("TRIALS", Some(bad), 50).unwrap_err();
            assert!(
                err.contains("TRIALS") && err.contains("positive integer"),
                "{err}"
            );
        }
    }

    #[test]
    fn experiment_configs_are_consistent() {
        for s in ["tiny", "small", "paper"] {
            let c = experiment_config(s);
            assert!(c.extract.n_subgraphs >= 2);
            assert!(c.simrank.validate().is_ok());
        }
    }
}
