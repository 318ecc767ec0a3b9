//! Live-introspection test: two concurrent jobs through a real server,
//! then the `/debug` endpoints. Asserts the per-job trace trees are
//! complete (queue → session → flow → tiles → assembly), disjoint, and
//! consistently tagged with each job's trace id, and that every debug
//! body is well-formed non-empty JSON. With the tracking allocator
//! installed, also exercises `/debug/profile` and `/debug/memory` against
//! real jobs.
//!
//! Telemetry, the flight recorder, and the allocator are process-global,
//! so the endpoint phases share one server and one test function, and the
//! second test — the daemon's span memory stays bounded with collection
//! enabled — takes the same [`GLOBALS`] lock.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ilt_json::Json;
use ilt_serve::{start, ServeConfig};
use ilt_telemetry as tele;

// The server binary installs the tracking allocator; this test binary
// does the same so /debug/memory sees real attribution.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// Serialises the tests of this binary: both drive process-global state.
static GLOBALS: Mutex<()> = Mutex::new(());

const POLL_INTERVAL: Duration = Duration::from_millis(25);
const POLL_BUDGET: Duration = Duration::from_secs(120);

struct ClientResponse {
    status: u16,
    body: String,
}

impl ClientResponse {
    fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body))
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {raw:?}"));
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    ClientResponse {
        status,
        body: body.to_string(),
    }
}

fn submit(addr: SocketAddr, spec: &str) -> String {
    let response = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(response.status, 202, "submit failed: {}", response.body);
    response
        .json()
        .get("id")
        .and_then(Json::as_str)
        .expect("submit response carries an id")
        .to_string()
}

fn poll_done(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + POLL_BUDGET;
    loop {
        let response = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(response.status, 200, "poll failed: {}", response.body);
        match response.json().get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {}
            Some("done") => return,
            other => panic!("job {id} ended {other:?}: {}", response.body),
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Collects `(id, trace, name)` for every node of a span forest.
fn collect_spans(forest: &Json, out: &mut Vec<(u64, u64, String)>) {
    for node in forest.as_arr().expect("span forest is an array") {
        let id = node.get("id").and_then(Json::as_u64).expect("span id");
        let trace = node
            .get("trace")
            .and_then(Json::as_u64)
            .expect("span trace");
        let name = node
            .get("name")
            .and_then(Json::as_str)
            .expect("span name")
            .to_string();
        out.push((id, trace, name));
        if let Some(children) = node.get("children") {
            collect_spans(children, out);
        }
    }
}

/// Fetches a job's trace tree, retrying briefly until the root
/// `serve.job` span has landed (the worker closes it just after the
/// status flips to done).
fn job_spans(addr: SocketAddr, id: &str) -> (u64, Vec<(u64, u64, String)>) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let response = request(addr, "GET", &format!("/debug/jobs/{id}/trace"), None);
        assert_eq!(
            response.status, 200,
            "trace fetch failed: {}",
            response.body
        );
        let json = response.json();
        let trace = json
            .get("trace")
            .and_then(Json::as_u64)
            .expect("trace id in debug body");
        let mut spans = Vec::new();
        collect_spans(json.get("spans").expect("spans section"), &mut spans);
        if spans.iter().any(|(_, _, name)| name == "serve.job") || Instant::now() >= deadline {
            return (trace, spans);
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

#[test]
fn debug_endpoints_and_disjoint_job_traces() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    tele::set_enabled(true);
    ilt_prof::alloc::set_enabled(true);
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        workers: 2,
        tile_workers: 1,
    })
    .expect("server starts");
    let addr = handle.addr();

    // Two jobs admitted back-to-back run concurrently on the two workers,
    // so their spans interleave in time — the traces must not.
    let id_a = submit(addr, r#"{"case": 1, "scale": "tiny"}"#);
    let id_b = submit(addr, r#"{"case": 2, "scale": "tiny"}"#);
    poll_done(addr, &id_a);
    poll_done(addr, &id_b);

    let (trace_a, spans_a) = job_spans(addr, &id_a);
    let (trace_b, spans_b) = job_spans(addr, &id_b);
    assert_ne!(trace_a, 0, "jobs get a nonzero trace id at admission");
    assert_ne!(trace_a, trace_b, "distinct jobs get distinct traces");

    // Complete trees: admission wait, session, flow orchestration, tile
    // solves, and stitching all present under each job's trace.
    for (trace, spans, id) in [(trace_a, &spans_a, &id_a), (trace_b, &spans_b, &id_b)] {
        assert!(!spans.is_empty(), "job {id} recorded no spans");
        for needed in [
            "serve.job",
            "queue",
            "session",
            "flow",
            "stage",
            "tile",
            "assembly",
        ] {
            assert!(
                spans.iter().any(|(_, _, name)| name == needed),
                "job {id} trace misses a {needed:?} span: {:?}",
                spans.iter().map(|(_, _, n)| n).collect::<Vec<_>>()
            );
        }
        for (span_id, span_trace, name) in spans {
            assert_eq!(
                *span_trace, trace,
                "span {span_id} ({name}) of job {id} carries a foreign trace"
            );
        }
    }

    // Disjoint: concurrent jobs never share a span.
    let ids_a: BTreeSet<u64> = spans_a.iter().map(|(id, _, _)| *id).collect();
    let ids_b: BTreeSet<u64> = spans_b.iter().map(|(id, _, _)| *id).collect();
    assert!(
        ids_a.is_disjoint(&ids_b),
        "concurrent jobs share spans: {:?}",
        ids_a.intersection(&ids_b).collect::<Vec<_>>()
    );

    // /debug/queue lists both jobs with their trace ids.
    let queue = request(addr, "GET", "/debug/queue", None);
    assert_eq!(queue.status, 200);
    let queue = queue.json();
    let listed = queue
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("queue body lists jobs");
    assert!(listed.len() >= 2, "queue body lists the submitted jobs");
    for trace in [trace_a, trace_b] {
        assert!(
            listed
                .iter()
                .any(|j| j.get("trace").and_then(Json::as_u64) == Some(trace)),
            "queue body misses trace {trace}"
        );
    }

    // /debug/caches shows the kernel bank the two jobs shared, with a
    // nonzero resident-byte estimate.
    let caches = request(addr, "GET", "/debug/caches", None);
    assert_eq!(caches.status, 200);
    let caches = caches.json();
    assert!(
        caches
            .path(&["litho_bank_cache", "entries"])
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1),
        "bank cache holds the shared bank: {caches:?}"
    );
    assert!(
        caches
            .path(&["litho_bank_cache", "estimated_bytes"])
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "bank cache estimates resident bytes: {caches:?}"
    );
    assert!(
        caches
            .path(&["fft_plan_cache", "estimated_bytes"])
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "plan cache estimates resident bytes: {caches:?}"
    );

    // /debug/slo reports every objective with a burn rate per window; two
    // clean jobs mean the error objective burns at zero.
    let slo = request(addr, "GET", "/debug/slo", None);
    assert_eq!(slo.status, 200);
    let slo = slo.json();
    let objectives = slo
        .get("objectives")
        .and_then(Json::as_arr)
        .expect("slo body lists objectives");
    assert!(!objectives.is_empty(), "default SLO config is non-empty");
    let errors = objectives
        .iter()
        .find(|o| o.get("name").and_then(Json::as_str) == Some("job_errors"))
        .expect("default config tracks job_errors");
    let windows = errors
        .get("windows")
        .and_then(Json::as_arr)
        .expect("objective carries windows");
    assert!(!windows.is_empty());
    for w in windows {
        assert_eq!(
            w.get("burn_rate").and_then(Json::as_f64),
            Some(0.0),
            "two clean jobs must not burn the error budget: {slo:?}"
        );
    }

    // /metrics carries the SLO series next to the ordinary exposition,
    // and the span-store, RSS and allocator facts the handler writes into
    // the snapshot each exactly once (one sample line, one TYPE line).
    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("ilt_slo_burn_rate{"));
    let mut series = vec![
        ("ilt_obs_spans_buffered", "gauge"),
        ("ilt_obs_spans_dropped_total", "counter"),
        ("ilt_alloc_live_bytes", "gauge"),
        ("ilt_alloc_allocated_bytes_total", "counter"),
        ("ilt_alloc_freed_bytes_total", "counter"),
    ];
    if cfg!(target_os = "linux") {
        series.push(("ilt_process_rss_bytes", "gauge"));
        series.push(("ilt_process_peak_rss_bytes", "gauge"));
    }
    for (name, kind) in series {
        let samples = metrics
            .body
            .lines()
            .filter(|l| l.split_once(' ').is_some_and(|(n, _)| n == name))
            .count();
        assert_eq!(samples, 1, "{name} samples in {}", metrics.body);
        let type_line = format!("# TYPE {name} {kind}");
        assert_eq!(
            metrics.body.lines().filter(|l| *l == type_line).count(),
            1,
            "{type_line:?} in {}",
            metrics.body
        );
    }

    // /debug/profile: the self-time profile of the buffered spans — the
    // two jobs' solves, and a span closed here under a name of its own.
    {
        let mut span = tele::span(tele::names::FLOW);
        span.add_field("name", "obs test");
        std::thread::sleep(Duration::from_millis(1));
    }
    let profile = request(addr, "GET", "/debug/profile", None);
    assert_eq!(profile.status, 200);
    let profile = profile.json();
    let collapsed = profile
        .get("collapsed")
        .and_then(Json::as_str)
        .expect("collapsed-stack text");
    let mut total_us = 0;
    for line in collapsed.lines() {
        let (path, count) = line.rsplit_once(' ').expect("collapsed line `path count`");
        assert!(!path.is_empty(), "empty path in {line:?}");
        total_us += count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad count in {line:?}"));
    }
    assert!(
        collapsed.contains("flow(obs_test) "),
        "own span missing: {collapsed}"
    );
    assert!(
        collapsed.lines().any(|l| l.contains(";solve")),
        "no job solve in the profile: {collapsed}"
    );
    assert_eq!(
        profile.get("total_us").and_then(Json::as_u64),
        Some(total_us)
    );

    // /debug/memory: allocator totals, per-stage attribution, and the
    // two jobs' traces among the heaviest allocators.
    let memory = request(addr, "GET", "/debug/memory", None);
    assert_eq!(memory.status, 200);
    let memory = memory.json();
    assert!(
        memory
            .path(&["alloc", "allocated_bytes"])
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "jobs allocated while counting was on: {memory:?}"
    );
    assert!(memory.path(&["alloc", "stages", "fine"]).is_some());
    #[cfg(target_os = "linux")]
    assert!(
        memory
            .path(&["rss", "current_bytes"])
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "linux RSS readable: {memory:?}"
    );
    let top = memory
        .get("top_traces")
        .and_then(Json::as_arr)
        .expect("top_traces array");
    for trace in [trace_a, trace_b] {
        let entry = top
            .iter()
            .find(|t| t.get("trace").and_then(Json::as_u64) == Some(trace))
            .unwrap_or_else(|| panic!("trace {trace} missing from top_traces: {memory:?}"));
        assert!(
            entry
                .get("bytes")
                .and_then(Json::as_u64)
                .is_some_and(|b| b > 0),
            "job trace {trace} attributed no bytes: {entry:?}"
        );
    }

    ilt_prof::alloc::set_enabled(false);
    handle.shutdown();
}

/// A daemon enables collection (as `main.rs` does) and never drains, so
/// whatever it stores per closed span or per tile solve has to be bounded:
/// after a run that overflows the ring several times, the spans held are
/// within the ring's bound, the overflow was counted, the counters still
/// read right, and the newest job's trace is still whole.
#[test]
fn span_memory_stays_bounded_while_collection_is_enabled() {
    const CAPACITY: usize = 512;
    const SHARDS: usize = 8;
    const JOBS: usize = 60; // ~115 spans each, all on the one job worker

    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    tele::set_enabled(true);
    tele::flight::set_capacity(CAPACITY);
    let dropped_before = tele::flight::spans_dropped();
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        workers: 1,
        tile_workers: 1,
    })
    .expect("server starts");
    let addr = handle.addr();
    let accepted = |body: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix("ilt_serve_jobs_accepted_total "))
            .map_or(0, |v| v.parse().expect("counter value"))
    };
    let accepted_before = accepted(&request(addr, "GET", "/metrics", None).body);

    let mut last = String::new();
    for case in 0..JOBS {
        last = submit(
            addr,
            &format!(r#"{{"case": {}, "scale": "tiny"}}"#, case % 4 + 1),
        );
        poll_done(addr, &last);
    }

    let (_trace, spans) = job_spans(addr, &last);
    for needed in ["serve.job", "queue", "session", "flow", "tile", "assembly"] {
        assert!(
            spans.iter().any(|(_, _, name)| name == needed),
            "newest job's trace misses a {needed:?} span"
        );
    }
    let metrics = request(addr, "GET", "/metrics", None).body;
    assert_eq!(accepted(&metrics) - accepted_before, JOBS as u64);
    let dropped = tele::flight::spans_dropped() - dropped_before;
    assert!(
        dropped as usize >= 2 * CAPACITY,
        "the load was meant to overflow the ring several times, dropped {dropped}"
    );
    assert!(tele::flight::len() <= SHARDS * CAPACITY);
    handle.shutdown();
    // `drain` hands out every span the process still holds anywhere.
    let held = tele::drain().events.len();
    assert!(
        held <= SHARDS * CAPACITY,
        "{held} spans held after {JOBS} jobs against a bound of {}",
        SHARDS * CAPACITY
    );
    tele::flight::set_capacity(tele::flight::DEFAULT_CAPACITY);
}
