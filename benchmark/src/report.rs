//! Environment hygiene and the run's written record: the machine the
//! numbers came from, the `ILT_*` variables that were cleared, and the
//! small JSON helpers the output files share.

use std::process::{Command, Stdio};

use crate::stats::Summary;

/// Removes every `ILT_*` variable from this process's environment and
/// returns their names, sorted: the program reads ~26 such knobs across
/// nine crates, and a stray one (`ILT_FFT_AUTOTUNE=0`, `ILT_STORE=0`, …)
/// would silently change what is measured. Call first thing in `main`,
/// before any thread exists and before any library reads the environment.
pub fn clear_ilt_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ILT_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_cache: String,
    pub l3_cache: String,
    pub rustc: String,
    pub git_commit: String,
}

fn first_line_of(mut command: Command) -> Option<String> {
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    Some(std::fs::read_to_string(path).ok()?.trim().to_string())
}

impl Machine {
    /// Reads `/proc`, `/sys`, `rustc --version` and `git rev-parse HEAD`;
    /// anything unavailable (the driver's checkout is not a git
    /// repository) is recorded as `"unknown"`.
    pub fn detect() -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let cache = |index: u32| {
            read_trimmed(&format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
        };
        let mut rustc = Command::new("rustc");
        rustc.arg("--version");
        let mut git = Command::new("git");
        git.args(["rev-parse", "HEAD"]);
        Machine {
            nproc: ilt_par::available_cores(),
            cpu_model,
            l2_cache: cache(2).unwrap_or_else(unknown),
            l3_cache: cache(3).unwrap_or_else(unknown),
            rustc: first_line_of(rustc).unwrap_or_else(unknown),
            git_commit: first_line_of(git).unwrap_or_else(unknown),
        }
    }

    /// The machine as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"l2_cache\":{},\"l3_cache\":{},\"rustc\":{},\"git_commit\":{}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.l2_cache),
            json_string(&self.l3_cache),
            json_string(&self.rustc),
            json_string(&self.git_commit),
        )
    }
}

/// `text` as a JSON string literal (the repo's own escaping).
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    ilt_telemetry::json::push_str_literal(&mut out, text);
    out
}

/// `["a","b"]`.
pub fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", quoted.join(","))
}

/// `[1.5,2]`.
pub fn json_number_array(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// A [`Summary`] as a JSON object.
pub fn json_summary(s: &Summary) -> String {
    format!(
        "{{\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    )
}

/// The `"metrics"` object of the result line: every value printed with all
/// its digits (`f64`'s shortest round-trip form).
pub fn json_metrics(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                value,
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_json::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[("tat_s", 4.7031, "s"), ("setup_s", 0.25, "s")],
        );
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.path(&["metrics", "tat_s", "value"])
                .and_then(Json::as_f64),
            Some(4.7031)
        );
        assert_eq!(
            doc.path(&["metrics", "setup_s", "unit"])
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn machine_record_parses() {
        let doc = Json::parse(&Machine::detect().to_json()).unwrap();
        assert!(doc.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert!(doc.get("rustc").and_then(Json::as_str).is_some());
    }
}
