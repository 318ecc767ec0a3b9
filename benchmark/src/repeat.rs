//! The multi-process modes: every workload once (`run_all`), and the
//! repeat check that runs ten seeds per workload several times on one
//! build and holds the sets against the benchmark's own bounds.
//!
//! Each run is a child process of this same executable, so every workload
//! starts with cold caches and its own `VmHWM`. Children run one at a
//! time and are waited for before the next starts.

use std::collections::BTreeMap;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use ilt_json::Json;

use crate::names::{Better, END_TO_END};
use crate::report::{json_string, Machine};
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;
use crate::{Args, OUT_DIR};

/// Seeds per workload in one set of the repeat check.
const SEEDS_PER_SET: u64 = 10;

/// One child's parsed result line.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    /// The result line itself, for `out/results.json`.
    line: String,
}

/// Parses a result line: the keys `correct`, `attempted`, `failed` and
/// `metrics`, each metric an object with a numeric `value`.
fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = Json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let missing = |key: &str| format!("result line lacks {key}");
    let Some(Json::Obj(entries)) = doc.get("metrics") else {
        return Err(missing("metrics"));
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(ChildResult {
        correct: doc
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("correct"))?,
        metrics,
        line: line.to_string(),
    })
}

/// Runs this executable again with `args` and waits for it to end.
fn run_self(args: &[&str]) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {args:?}: {e}"))
}

/// Runs one workload in a child process, passing its human-readable lines
/// through, and returns its parsed result line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let output = run_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() && !last.starts_with('{') {
        return Err(format!("{workload} exited with {}", output.status));
    }
    parse_result_line(last).map_err(|e| format!("{workload}: {e}"))
}

/// Repeats the light part of `workload`'s set-up in a fresh process (cold
/// kernel-bank and FFT-plan caches) and returns the seconds it took.
pub fn setup_probe(workload: &str, seed: u64) -> Result<f64, String> {
    let seed = seed.to_string();
    let output = run_self(&["--workload", workload, "--seed", &seed, "--setup-only", "1"])?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("set-up probe printed {stdout:?} ({})", output.status))
}

/// Runs every workload once, untraced and (with `--trace 1`) traced, and
/// writes `out/results.json`. `Ok(false)` if any output check failed.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in WORKLOADS {
        let untraced = run_child(workload.name, args.seed, args.seconds, false)?;
        all_correct &= untraced.correct;
        let mut entry = format!(
            "{{\"workload\":{},\"end_to_end\":{}",
            json_string(workload.name),
            untraced.line
        );
        if args.trace {
            let traced = run_child(workload.name, args.seed, args.seconds, true)?;
            all_correct &= traced.correct;
            // End-to-end numbers always come from the untraced run; the
            // traced run's own tat shows what recording spans costs.
            let ratio = traced.metrics["trace.tat_s"] / untraced.metrics["tat_s"];
            println!("{} trace_overhead_ratio {ratio} ratio", workload.name);
            entry.push_str(&format!(
                ",\"per_layer\":{},\"trace_overhead_ratio\":{ratio}",
                traced.line
            ));
        }
        entry.push('}');
        entries.push(entry);
    }
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"machine\":{},\"workloads\":[{}]}}\n",
        args.seed,
        args.seconds,
        Machine::detect().to_json(),
        entries.join(",")
    );
    let path = format!("{OUT_DIR}/results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("warning: could not write {path}: {e}");
    }
    Ok(all_correct)
}

/// One metric of one workload across the sets of the repeat check.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatVerdict {
    pub spreads: Vec<f64>,
    pub medians: Vec<f64>,
    /// Largest amount by which a later set's median is worse than the
    /// first set's, as a share of the first.
    pub worsening: f64,
    pub problems: Vec<String>,
}

/// Judges one metric: every set's spread (except `setup_s`'s) within the
/// bound, no later median worse than the first by more than the bound,
/// and — for metrics that repeat exactly at a fixed seed — identical
/// values seed for seed.
pub fn judge(
    name: &str,
    better: Better,
    bound: f64,
    exact: bool,
    sets: &[Vec<f64>],
) -> RepeatVerdict {
    let spreads: Vec<f64> = sets.iter().map(|s| spread(s).unwrap_or(0.0)).collect();
    let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    let mut problems = Vec::new();
    if name != "setup_s" {
        for (i, s) in spreads.iter().enumerate() {
            if *s > bound {
                problems.push(format!("set {} spread {s:.4} exceeds bound {bound}", i + 1));
            }
        }
    }
    let first = medians[0];
    let mut worsening = 0.0f64;
    for (i, m) in medians.iter().enumerate().skip(1) {
        let worse = match better {
            Better::Lower => (m - first) / first,
            Better::Higher => (first - m) / first,
        };
        worsening = worsening.max(worse);
        if worse > bound {
            problems.push(format!(
                "set {} median {m} is {:.1}% worse than set 1's {first}",
                i + 1,
                worse * 100.0
            ));
        }
    }
    if exact && sets.iter().any(|s| s != &sets[0]) {
        problems.push("values differ between sets at the same seeds".to_string());
    }
    RepeatVerdict {
        spreads,
        medians,
        worsening,
        problems,
    }
}

/// Runs `sets` sets of ten seeds per workload on this build and checks
/// every end-to-end metric with [`judge`]. Prints the observed spread per
/// metric so the bounds can be revisited with data. `Ok(false)` when a
/// metric is out of bounds or an output check failed.
pub fn check_repeat(args: &Args, sets: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut set_wall_s = 0.0;
    for workload in WORKLOADS {
        // values[metric][set] = one value per seed.
        let mut values: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
        let mut walls = Vec::new();
        for set in 0..sets {
            for seed in args.seed..args.seed + SEEDS_PER_SET {
                let started = Instant::now();
                let result = run_child(workload.name, seed, args.seconds, false)?;
                walls.push(started.elapsed().as_secs_f64());
                if !result.correct {
                    println!("{} seed {seed}: output check failed", workload.name);
                    ok = false;
                }
                for m in END_TO_END {
                    let per_set = values
                        .entry(m.name)
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(result.metrics[m.name]);
                }
            }
        }
        println!(
            "repeat {} run wall: median {:.1} s, max {:.1} s",
            workload.name,
            median(&walls),
            walls.iter().copied().fold(0.0, f64::max)
        );
        set_wall_s += median(&walls);
        for m in END_TO_END {
            let verdict = judge(m.name, m.better, m.bound, m.exact, &values[m.name]);
            let spreads: Vec<String> = verdict.spreads.iter().map(|s| format!("{s:.4}")).collect();
            let medians: Vec<String> = verdict.medians.iter().map(|v| format!("{v:.5}")).collect();
            println!(
                "repeat {} {}: spread [{}] median [{}] worsening {:.4} bound {}{}",
                workload.name,
                m.name,
                spreads.join(" "),
                medians.join(" "),
                verdict.worsening,
                m.bound,
                if verdict.problems.is_empty() {
                    ""
                } else {
                    "  FAIL"
                }
            );
            for problem in &verdict.problems {
                println!("  {problem}");
                ok = false;
            }
        }
    }
    // The contract's cap: 4 + 22 runs per workload inside 3420 s.
    println!(
        "one run of each workload takes {set_wall_s:.0} s; 23 of each take {:.0} s of the \
         driver's 3420 s (two builds come on top)",
        23.0 * set_wall_s
    );
    println!("repeat check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let line = crate::report::result_line(
            false,
            4,
            1,
            &[("tat_s", 4.25, "s"), ("l2_px", 1700.0, "px")],
        );
        let parsed = parse_result_line(&line).unwrap();
        assert!(!parsed.correct);
        assert_eq!(parsed.metrics["tat_s"], 4.25);
        assert_eq!(parsed.metrics["l2_px"], 1700.0);
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line("{\"correct\":true}").is_err());
    }

    #[test]
    fn steady_sets_pass() {
        let a: Vec<f64> = (0..10).map(|i| 5.0 + 0.01 * f64::from(i)).collect();
        let b: Vec<f64> = (0..10).map(|i| 5.05 + 0.01 * f64::from(i)).collect();
        let verdict = judge("tat_s", Better::Lower, 0.10, false, &[a, b]);
        assert!(verdict.problems.is_empty(), "{:?}", verdict.problems);
        assert!(verdict.worsening > 0.0 && verdict.worsening < 0.02);
    }

    #[test]
    fn wide_spread_fails_except_for_setup() {
        let wide: Vec<f64> = (0..10).map(|i| 1.0 + 0.2 * f64::from(i)).collect();
        let sets = [wide.clone(), wide];
        assert!(!judge("tat_s", Better::Lower, 0.25, false, &sets)
            .problems
            .is_empty());
        assert!(judge("setup_s", Better::Lower, 0.25, false, &sets)
            .problems
            .is_empty());
    }

    #[test]
    fn a_worse_second_median_fails_in_the_metric_s_direction() {
        let slow = vec![vec![1.0; 10], vec![1.3; 10]];
        assert!(!judge("tat_s", Better::Lower, 0.25, false, &slow)
            .problems
            .is_empty());
        // The same numbers are an improvement for a higher-is-better metric.
        assert!(judge("mpix_per_s", Better::Higher, 0.25, false, &slow)
            .problems
            .is_empty());
        let fewer = vec![vec![1.3; 10], vec![1.0; 10]];
        assert!(!judge("mpix_per_s", Better::Higher, 0.2, false, &fewer)
            .problems
            .is_empty());
    }

    #[test]
    fn exact_metrics_must_repeat_seed_for_seed() {
        let a = vec![1700.0, 1650.0, 1800.0];
        let mut b = a.clone();
        assert!(
            judge("l2_px", Better::Lower, 0.25, true, &[a.clone(), b.clone()])
                .problems
                .is_empty()
        );
        b[1] += 1.0;
        assert!(!judge("l2_px", Better::Lower, 0.25, true, &[a, b])
            .problems
            .is_empty());
    }
}
