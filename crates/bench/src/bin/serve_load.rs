//! Closed-loop load generator for the `ilt-serve` job service.
//!
//! Runs `ILT_LOAD_CONNS` client connections (default 2) that together
//! submit `ILT_LOAD_JOBS` jobs (default 8) and poll each to completion,
//! then reports end-to-end latency percentiles, throughput, the
//! queue-rejection rate, and the kernel-cache hit ratio. Client-side
//! histograms split each job's end-to-end latency into queue wait
//! (`serve.load.queue_wait_us`, from the done body's `queue_seconds`)
//! and service time (`serve.load.service_us`), alongside the combined
//! `serve.load.latency_us`, and everything lands in the usual
//! `ilt-report/v2` `report.json` so `report_diff` can gate runs against
//! `results/baselines/serve_smoke.json`.
//!
//! By default the target server is started **in-process** (so a smoke run
//! needs exactly one command and the report also carries the server-side
//! telemetry). Set `ILT_SERVE_TARGET=host:port` to drive an external
//! server instead.
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin serve_load
//! ```
//!
//! Extra knobs: `ILT_LOAD_CONNS`, `ILT_LOAD_JOBS`, and the `ILT_SERVE_*`
//! variables of the in-process server. Exits non-zero if any job is lost —
//! rejected past the retry budget, failed server-side, or never reaching
//! `done`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ilt_bench::HarnessOptions;
use ilt_json::Json;
use ilt_serve::{ServeConfig, ServerHandle};

/// Per-job attempts before a rejected job counts as lost.
const MAX_SUBMIT_ATTEMPTS: u32 = 20;
/// Poll cadence while a job is queued or running.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Give up polling one job after this long.
const POLL_BUDGET: Duration = Duration::from_secs(300);

fn main() {
    // A load test without telemetry would have nothing to report: collect
    // unless the environment explicitly said otherwise.
    let opts = HarnessOptions::from_env_traced();
    let conns = ilt_telemetry::env_or_warn("ILT_LOAD_CONNS", 2usize).max(1);
    let jobs = ilt_telemetry::env_or_warn("ILT_LOAD_JOBS", 8usize).max(1);

    let (target, server) = match std::env::var("ILT_SERVE_TARGET") {
        Ok(addr) => (addr, None),
        Err(_) => {
            let mut config = ServeConfig::from_env();
            config.addr = "127.0.0.1:0".to_string(); // never fight over a port
            let handle = ilt_serve::start(config).expect("cannot start in-process server");
            (handle.addr().to_string(), Some(handle))
        }
    };
    println!(
        "serve_load: {conns} connection(s) x {jobs} job(s) against {target} ({})",
        if server.is_some() {
            "in-process"
        } else {
            "external"
        }
    );

    let started = Instant::now();
    let stats = run_load(&target, conns, jobs, &opts.scale);
    let wall = started.elapsed().as_secs_f64();

    // Scrape the cache counters over HTTP so the numbers are honest for
    // external targets too (in-process they come from the same sink).
    let metrics = http_request(&target, "GET", "/metrics", None)
        .map(|r| r.body)
        .unwrap_or_default();
    let bank_hits = scrape_counter(&metrics, "ilt_litho_bank_cache_hit_total");
    let bank_misses = scrape_counter(&metrics, "ilt_litho_bank_cache_miss_total");

    if let Some(handle) = server {
        let summary = drain(handle);
        println!(
            "server drained: {} completed, {} failed, {} unfinished",
            summary.completed, summary.failed, summary.unfinished
        );
    }

    let mut latencies = stats.latencies_s.clone();
    latencies.sort_by(f64::total_cmp);
    println!(
        "latency p50 {:.3}s  p95 {:.3}s  p99 {:.3}s  (n = {})",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
        latencies.len()
    );
    println!(
        "throughput {:.2} jobs/s over {wall:.2}s; {} rejected ({:.1}% of submissions), {} lost",
        stats.completed as f64 / wall.max(1e-9),
        stats.rejected,
        100.0 * stats.rejected as f64 / (stats.completed + stats.rejected).max(1) as f64,
        stats.lost
    );
    let lookups = bank_hits + bank_misses;
    if lookups > 0 {
        println!(
            "kernel bank cache: {bank_hits} hit(s) / {bank_misses} miss(es) — {:.1}% hit ratio",
            100.0 * bank_hits as f64 / lookups as f64
        );
    } else {
        println!("kernel bank cache: no lookups observed (is server telemetry off?)");
    }

    opts.finish_run("serve_load", &[], &[]);
    if stats.lost > 0 {
        eprintln!("serve_load: {} job(s) lost", stats.lost);
        std::process::exit(1);
    }
}

/// Drains an in-process server, flushing this thread's telemetry first so
/// the report sees both sides.
fn drain(handle: ServerHandle) -> ilt_serve::DrainSummary {
    ilt_telemetry::flush_thread();
    handle.shutdown()
}

#[derive(Default)]
struct LoadStats {
    completed: u64,
    rejected: u64,
    lost: u64,
    latencies_s: Vec<f64>,
}

impl LoadStats {
    fn merge(&mut self, other: LoadStats) {
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.lost += other.lost;
        self.latencies_s.extend(other.latencies_s);
    }
}

/// Runs the closed loop: each connection thread submits its share of the
/// jobs sequentially, polling every job to completion before the next.
fn run_load(target: &str, conns: usize, jobs: usize, scale: &str) -> LoadStats {
    let mut total = LoadStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                // Round-robin split of the job ids across connections.
                let my_jobs: Vec<usize> = (0..jobs).filter(|j| j % conns == c).collect();
                scope.spawn(move || {
                    let mut stats = LoadStats::default();
                    for j in my_jobs {
                        run_one_job(target, j, scale, &mut stats);
                    }
                    ilt_telemetry::flush_thread();
                    stats
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("load thread panicked"));
        }
    });
    total
}

fn run_one_job(target: &str, index: usize, scale: &str, stats: &mut LoadStats) {
    // Cycle through the benchmark suite so the cases vary but stay valid.
    let case = (index % 20) + 1;
    let spec = format!("{{\"case\":{case},\"method\":\"ours\",\"scale\":\"{scale}\"}}");
    let started = Instant::now();
    let mut id = None;
    for _attempt in 0..MAX_SUBMIT_ATTEMPTS {
        match http_request(target, "POST", "/v1/jobs", Some(&spec)) {
            Ok(response) if response.status == 202 => {
                id = Json::parse(&response.body)
                    .ok()
                    .and_then(|j| j.get("id").and_then(|v| v.as_str().map(String::from)));
                break;
            }
            Ok(response) if response.status == 429 => {
                stats.rejected += 1;
                ilt_telemetry::counter_add("serve.load.rejected", 1);
                let retry_s = response
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_secs(retry_s.min(5)));
            }
            Ok(response) => {
                eprintln!("job {index}: unexpected status {}", response.status);
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => {
                eprintln!("job {index}: submit failed: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
    let Some(id) = id else {
        stats.lost += 1;
        ilt_telemetry::counter_add("serve.load.lost", 1);
        return;
    };
    let path = format!("/v1/jobs/{id}");
    let poll_started = Instant::now();
    loop {
        if poll_started.elapsed() > POLL_BUDGET {
            eprintln!("job {index} (id {id}): poll budget exhausted");
            stats.lost += 1;
            ilt_telemetry::counter_add("serve.load.lost", 1);
            return;
        }
        let last_body = http_request(target, "GET", &path, None)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| Json::parse(&r.body).ok());
        let status = last_body
            .as_ref()
            .and_then(|j| j.get("status").and_then(|s| s.as_str().map(String::from)));
        match status.as_deref() {
            Some("done") => {
                let latency = started.elapsed().as_secs_f64();
                stats.completed += 1;
                stats.latencies_s.push(latency);
                ilt_telemetry::counter_add("serve.load.jobs_ok", 1);
                ilt_telemetry::record_value("serve.load.latency_us", (latency * 1e6) as u64);
                // Split the wait from the work: the done body reports how
                // long the job sat queued, so queue wait and service time
                // land in separate histograms and a saturated queue is
                // distinguishable from a slow solver.
                let queue_s = last_body
                    .as_ref()
                    .and_then(|j| j.path(&["queue_seconds"]).and_then(|v| v.as_f64()))
                    .unwrap_or(0.0);
                ilt_telemetry::record_value("serve.load.queue_wait_us", (queue_s * 1e6) as u64);
                ilt_telemetry::record_value(
                    "serve.load.service_us",
                    ((latency - queue_s).max(0.0) * 1e6) as u64,
                );
                return;
            }
            Some("failed") => {
                eprintln!("job {index} (id {id}): failed server-side");
                stats.lost += 1;
                ilt_telemetry::counter_add("serve.load.lost", 1);
                return;
            }
            _ => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Interpolation-free percentile over an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Pulls one counter value out of a Prometheus text exposition.
fn scrape_counter(exposition: &str, metric: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (name, value) = line.split_once(' ')?;
            (name == metric).then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0)
}

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One HTTP/1.1 request over a fresh connection (closed-loop clients spend
/// their time waiting on solves, so connection reuse buys nothing here).
fn http_request(
    target: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let stream = TcpStream::connect(target).map_err(|e| format!("connect {target}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {target}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(HttpResponse {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}
