//! Regression gate comparing two `ilt-report` run reports.
//!
//! ```text
//! cargo run --release -p ilt-bench --bin report_diff -- \
//!     results/baselines/smoke.json smoke/report.json
//! ```
//!
//! Compares a candidate report against a baseline (the per-case quality
//! summaries and degraded-tile count of the `diagnostics` section, and the
//! ECO drill's reuse accounting) and exits non-zero when the candidate
//! regressed. Wall clock and memory are not compared — baselines come from
//! other machines; `benchmark/` measures those, parent against change.
//!
//! * exit `0` — no regression;
//! * exit `1` — at least one regression (each printed on stderr);
//! * exit `2` — usage or parse error.
//!
//! Flags (all optional, after the two report paths):
//!
//! * `--max-quality-ratio F` — fail when a quality metric exceeds
//!   `baseline * F + slack` (default 1.10);
//! * `--quality-slack F` — absolute slack added to every quality bound
//!   (default 0.5), so near-zero baselines don't fail on noise.

use std::process::ExitCode;

use ilt_diag::{compare_reports, DiffThresholds};
use ilt_json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(regressions) if regressions.is_empty() => {
            println!("report_diff: no regressions");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            eprintln!("report_diff: {} regression(s)", regressions.len());
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("report_diff: {message}");
            eprintln!(
                "usage: report_diff <baseline.json> <candidate.json> \
                 [--max-quality-ratio F] [--quality-slack F]"
            );
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<Vec<ilt_diag::Regression>, String> {
    let mut paths = Vec::new();
    let mut thresholds = DiffThresholds::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-quality-ratio" => thresholds.max_quality_ratio = ratio_arg(arg, it.next())?,
            "--quality-slack" => thresholds.quality_slack = ratio_arg(arg, it.next())?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return Err(format!(
            "expected exactly 2 report paths, got {}",
            paths.len()
        ));
    };
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    compare_reports(&baseline, &candidate, &thresholds)
}

fn ratio_arg(flag: &str, value: Option<&String>) -> Result<f64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("invalid {flag} value {raw:?}"))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}
