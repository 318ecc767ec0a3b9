//! End-to-end loopback test: a real server on an ephemeral port, a real
//! TCP client, and the full job lifecycle — submit, poll, admission
//! control, warm-cache reuse, and graceful drain.
//!
//! Everything runs in one test function because telemetry counters are
//! process-global: the phases share one server and assert counter deltas
//! between snapshots.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ilt_core::experiment::Method;
use ilt_core::Session;
use ilt_json::Json;
use ilt_layout::generate_clip;
use ilt_serve::{start, ServeConfig};
use ilt_telemetry as tele;
use ilt_tile::{Partition, TileExecutor};

const POLL_INTERVAL: Duration = Duration::from_millis(25);
const POLL_BUDGET: Duration = Duration::from_secs(120);

/// Minimal HTTP/1.1 response: status code, headers (lower-cased names),
/// body.
struct ClientResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl ClientResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body))
    }
}

/// One request on a fresh connection (`Connection: close`), like an
/// external client would issue.
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
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    ClientResponse {
        status,
        headers,
        body: body.to_string(),
    }
}

/// Polls a job until it leaves the queued/running states.
fn poll_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + POLL_BUDGET;
    loop {
        let response = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(response.status, 200, "poll failed: {}", response.body);
        let record = response.json();
        match record.get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {}
            Some(_) => return record,
            None => panic!("record without status: {}", response.body),
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Snapshot a single counter (0 when it has not been touched yet).
fn counter(name: &str) -> u64 {
    tele::snapshot().counters.get(name).copied().unwrap_or(0)
}

/// Waits for a counter to reach at least `target` — worker threads flush
/// their buffers just after publishing the job status, so a fast poll can
/// observe `done` before the counters land.
fn await_counter_at_least(name: &str, target: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let value = counter(name);
        if value >= target || Instant::now() >= deadline {
            return value;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn loopback_end_to_end() {
    tele::set_enabled(true);

    // Reference: the same case computed directly through the library path
    // the server uses (Session -> run_method -> inspect_mask). This also
    // builds the shared kernel bank, so the server workers below must hit
    // the warm cache instead of re-running the eigendecomposition.
    let config = ilt_core::ExperimentConfig::test_tiny();
    let executor = TileExecutor::new(2);
    let session = Session::new(config.clone()).expect("reference session");
    let target = generate_clip(&config.generator, 3);
    let flow = session
        .run_method(Method::Ours, &target, &executor)
        .expect("reference flow");
    let partition =
        Partition::new(target.width(), target.height(), config.partition).expect("partition");
    let (quality, stitch) = session
        .inspect_mask(&partition.stitch_lines(), &target, &flow.mask)
        .expect("reference inspection");

    // The reference run recorded its cache counters into this thread's
    // buffer; land them in the global sink before taking baselines.
    tele::flush_thread();
    let bank_misses_cold = counter("litho.bank_cache.miss");
    let bank_hits_cold = counter("litho.bank_cache.hit");

    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 2,
        workers: 1,
        tile_workers: 2,
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Health check.
    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Submit the same case and poll it to completion.
    let spec = r#"{"case":3,"method":"ours","scale":"tiny"}"#;
    let accepted = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(accepted.status, 202, "submit failed: {}", accepted.body);
    let first_id = accepted
        .json()
        .get("id")
        .and_then(Json::as_str)
        .expect("accepted job id")
        .to_string();
    let record = poll_done(addr, &first_id);
    assert_eq!(record.get("status").and_then(Json::as_str), Some("done"));

    // The served metrics must match the direct run exactly: same bank,
    // same target, same flow, so identical L2 / PV band / stitch error.
    let metrics = record.get("metrics").expect("metrics in done record");
    assert_eq!(
        metrics.get("l2").and_then(Json::as_u64),
        Some(quality.l2 as u64)
    );
    assert_eq!(
        metrics.get("pvband").and_then(Json::as_u64),
        Some(quality.pvband as u64)
    );
    let served_stitch = metrics
        .get("stitch")
        .and_then(Json::as_f64)
        .expect("stitch metric");
    assert!(
        (served_stitch - stitch.total).abs() <= 1e-9 * stitch.total.abs().max(1.0),
        "stitch mismatch: served {served_stitch} vs direct {}",
        stitch.total
    );

    // Warm cache: the worker's session must have reused the bank built by
    // the reference run above — a cache hit, and no new eigendecomposition.
    let bank_hits_warm = await_counter_at_least("litho.bank_cache.hit", bank_hits_cold + 1);
    assert!(
        bank_hits_warm > bank_hits_cold,
        "server worker did not hit the shared kernel bank cache"
    );
    assert_eq!(
        counter("litho.bank_cache.miss"),
        bank_misses_cold,
        "server worker rebuilt the kernel bank instead of reusing it"
    );

    // Second identical job: now even the per-worker session is warm.
    let session_hits_before = counter("serve.session_cache.hit");
    let again = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(again.status, 202);
    let second_id = again
        .json()
        .get("id")
        .and_then(Json::as_str)
        .expect("second job id")
        .to_string();
    let record = poll_done(addr, &second_id);
    assert_eq!(record.get("status").and_then(Json::as_str), Some("done"));
    let session_hits_after =
        await_counter_at_least("serve.session_cache.hit", session_hits_before + 1);
    assert!(
        session_hits_after > session_hits_before,
        "second job did not reuse the worker's cached session"
    );
    assert_eq!(counter("litho.bank_cache.miss"), bank_misses_cold);

    // Admission control: with queue depth 2 and one worker, a burst must
    // overflow the queue and get 429 + Retry-After. Accepted jobs are
    // tracked so we can verify none are lost.
    let mut accepted_ids = Vec::new();
    let mut saw_rejection = false;
    for _ in 0..20 {
        let response = request(addr, "POST", "/v1/jobs", Some(spec));
        match response.status {
            202 => {
                let id = response
                    .json()
                    .get("id")
                    .and_then(Json::as_str)
                    .expect("burst job id")
                    .to_string();
                accepted_ids.push(id);
            }
            429 => {
                assert_eq!(
                    response.header("retry-after"),
                    Some("1"),
                    "429 without Retry-After"
                );
                saw_rejection = true;
                break;
            }
            other => panic!("unexpected submit status {other}: {}", response.body),
        }
    }
    assert!(
        saw_rejection,
        "queue (depth 2, 1 worker) never overflowed across 20 rapid submissions"
    );
    assert!(!accepted_ids.is_empty(), "burst accepted no jobs at all");

    // Graceful drain: shut down while the burst is still queued/running.
    // Every accepted job must finish; nothing may be dropped.
    let summary = handle.shutdown();
    assert_eq!(summary.unfinished, 0, "drain dropped in-flight jobs");
    assert_eq!(summary.failed, 0, "jobs failed during drain");
    assert_eq!(
        summary.completed as usize,
        2 + accepted_ids.len(),
        "drain summary does not account for every accepted job"
    );
}

#[test]
fn rejects_after_drain_and_reports_errors() {
    tele::set_enabled(true);
    // The deliberately-broken job below panics inside the worker (where it
    // is caught); keep its backtrace out of the test output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let deliberate = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("wire width"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("wire width"));
        if !deliberate {
            default_hook(info);
        }
    }));
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 4,
        workers: 1,
        tile_workers: 1,
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Unknown route and malformed spec are client errors, not crashes.
    assert_eq!(request(addr, "GET", "/nope", None).status, 404);
    let bad = request(addr, "POST", "/v1/jobs", Some(r#"{"case":99}"#));
    assert_eq!(bad.status, 400, "out-of-range case must be rejected");
    assert_eq!(request(addr, "GET", "/v1/jobs/123", None).status, 404);

    // A failing job (a 1 px wire width parses but fails the generator's
    // geometry validation) is reported as failed, and does not take down
    // the worker.
    let broken = r#"{"layout":{"seed":1,"wire_width":1},"scale":"tiny"}"#;
    let response = request(addr, "POST", "/v1/jobs", Some(broken));
    assert_eq!(response.status, 202, "submit failed: {}", response.body);
    let id = response
        .json()
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    let record = poll_done(addr, &id);
    assert_eq!(record.get("status").and_then(Json::as_str), Some("failed"));
    assert!(
        record.get("error").and_then(Json::as_str).is_some(),
        "failed record must carry an error message"
    );

    // The drain endpoint flips submissions to 503 while polls keep working.
    let drain = request(addr, "POST", "/admin/shutdown", None);
    assert_eq!(drain.status, 200);
    let refused = request(addr, "POST", "/v1/jobs", Some(r#"{"case":1}"#));
    assert_eq!(refused.status, 503, "draining server must refuse new jobs");
    assert_eq!(
        request(addr, "GET", &format!("/v1/jobs/{id}"), None).status,
        200,
        "polls must keep working during the drain"
    );
    let summary = handle.wait();
    assert_eq!(summary.unfinished, 0);
    assert_eq!(summary.failed, 1, "exactly the broken job failed");
}
