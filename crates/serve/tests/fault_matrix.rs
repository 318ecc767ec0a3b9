//! Fault-matrix drill: every registered injection point armed at rate 1.0
//! against a live loopback server, asserting the three drill invariants —
//! (a) the process never aborts, (b) every fault surfaces as a typed HTTP
//! error or a degraded-but-valid result, and (c) outcomes are
//! deterministic for a fixed seed.
//!
//! Everything runs in one test function because the fault registry is
//! process-global: arming a point for one scenario must never overlap
//! another. This file is its own integration binary for the same reason —
//! the serve crate's other test binaries run with the registry disarmed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ilt_fault::{points, FaultSpec};
use ilt_json::Json;
use ilt_serve::{start, ServeConfig};
use ilt_telemetry as tele;

const POLL_INTERVAL: Duration = Duration::from_millis(25);
const POLL_BUDGET: Duration = Duration::from_secs(120);

struct ClientResponse {
    status: u16,
    body: String,
}

/// One request on a fresh connection. Returns `None` when the server hung
/// up without answering (the `serve.conn_drop` outcome).
fn raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Option<ClientResponse> {
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
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status: u16 = head
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())?;
    Some(ClientResponse {
        status,
        body: body.to_string(),
    })
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
    raw_request(addr, method, path, body)
        .unwrap_or_else(|| panic!("server dropped {method} {path} without answering"))
}

/// Submits a job spec and returns the accepted id.
fn submit(addr: SocketAddr, spec: &str) -> String {
    let response = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(response.status, 202, "submit failed: {}", response.body);
    Json::parse(&response.body)
        .expect("accepted body parses")
        .get("id")
        .and_then(Json::as_str)
        .expect("accepted job id")
        .to_string()
}

/// Polls a job until it leaves the queued/running states.
fn poll_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + POLL_BUDGET;
    loop {
        let response = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(response.status, 200, "poll failed: {}", response.body);
        let record = Json::parse(&response.body).expect("job record parses");
        match record.get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {}
            Some(_) => return record,
            None => panic!("record without status: {}", response.body),
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        std::thread::sleep(POLL_INTERVAL);
    }
}

fn healthy(addr: SocketAddr) {
    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200, "server unhealthy: {}", health.body);
}

fn counter(name: &str) -> u64 {
    tele::snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn every_injection_point_fails_cleanly_and_deterministically() {
    tele::set_enabled(true);
    ilt_fault::quiet_injected_panics();
    // One tile worker so the fault registry sees tile invocations in
    // deterministic order (matters for the skip/limit acceptance drill).
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 4,
        workers: 1,
        tile_workers: 1,
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();
    healthy(addr);

    let spec = r#"{"case":3,"method":"ours","scale":"tiny"}"#;
    let mut swept: Vec<&str> = Vec::new();

    // tile.panic at rate 1.0: every attempt of every tile dies, yet the
    // job completes with a full mask — every tile degraded to its
    // coarse-grid fallback (1 coarse + 2x9 fine + 9 refine at tiny scale).
    ilt_fault::configure(vec![FaultSpec::always(points::TILE_PANIC, 1)]);
    let id = submit(addr, spec);
    let record = poll_done(addr, &id);
    ilt_fault::clear();
    assert_eq!(record.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        record.get("tiles_degraded").and_then(Json::as_u64),
        Some(28),
        "all-tiles drill: {record}"
    );
    assert!(
        record.get("metrics").is_some(),
        "degraded job still reports"
    );
    swept.push(points::TILE_PANIC);
    healthy(addr);

    // tile.slow at rate 1.0: latency only, zero degradation.
    ilt_fault::configure(vec![FaultSpec::always(points::TILE_SLOW, 2)]);
    let id = submit(addr, spec);
    let record = poll_done(addr, &id);
    ilt_fault::clear();
    assert_eq!(record.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(record.get("tiles_degraded").and_then(Json::as_u64), Some(0));
    swept.push(points::TILE_SLOW);

    // serve.queue_full: the production 429 path, Retry-After included.
    ilt_fault::configure(vec![FaultSpec::always(points::SERVE_QUEUE_FULL, 3)]);
    let response = request(addr, "POST", "/v1/jobs", Some(spec));
    ilt_fault::clear();
    assert_eq!(response.status, 429, "{}", response.body);
    swept.push(points::SERVE_QUEUE_FULL);
    healthy(addr);

    // serve.deadline: admission passes, but the budget expires mid-solve
    // and the in-loop deadline checks surface a typed failure.
    ilt_fault::configure(vec![FaultSpec::always(points::SERVE_DEADLINE, 4)]);
    let id = submit(addr, spec);
    let record = poll_done(addr, &id);
    ilt_fault::clear();
    assert_eq!(record.get("status").and_then(Json::as_str), Some("failed"));
    let error = record
        .get("error")
        .and_then(Json::as_str)
        .expect("failed record carries an error");
    assert!(error.contains("deadline exceeded"), "{error}");
    swept.push(points::SERVE_DEADLINE);
    healthy(addr);

    // serve.conn_drop: the server hangs up without answering, and the
    // next (disarmed) request finds it alive.
    let dropped_before = counter("serve.http.conn_dropped");
    ilt_fault::configure(vec![FaultSpec::always(points::SERVE_CONN_DROP, 5)]);
    let dropped = raw_request(addr, "GET", "/healthz", None);
    ilt_fault::clear();
    assert!(dropped.is_none(), "conn_drop must close without a response");
    assert!(counter("serve.http.conn_dropped") > dropped_before);
    swept.push(points::SERVE_CONN_DROP);
    healthy(addr);

    // serve.body_truncate: the body read comes up short of Content-Length
    // — a typed 400, not a hang or a worker crash.
    ilt_fault::configure(vec![FaultSpec::always(points::SERVE_BODY_TRUNCATE, 6)]);
    let response = request(addr, "POST", "/v1/jobs", Some(spec));
    ilt_fault::clear();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("shorter than Content-Length"));
    swept.push(points::SERVE_BODY_TRUNCATE);
    healthy(addr);

    // serve.body_oversize: the declared size inflates past MAX_BODY → 413.
    ilt_fault::configure(vec![FaultSpec::always(points::SERVE_BODY_OVERSIZE, 7)]);
    let response = request(addr, "POST", "/v1/jobs", Some(spec));
    ilt_fault::clear();
    assert_eq!(response.status, 413, "{}", response.body);
    swept.push(points::SERVE_BODY_OVERSIZE);
    healthy(addr);

    // json.invalid: spec parsing fails with a client-safe 400. (While this
    // point is armed every in-process parse fails, so assert on the raw
    // body, not through Json::parse.)
    ilt_fault::configure(vec![FaultSpec::always(points::JSON_INVALID, 8)]);
    let response = request(addr, "POST", "/v1/jobs", Some(spec));
    ilt_fault::clear();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("invalid JSON"), "{}", response.body);
    swept.push(points::JSON_INVALID);
    healthy(addr);

    // grid.pgm_truncate is not on the serve request path; drill the
    // reader directly in the same armed process.
    ilt_fault::configure(vec![FaultSpec::always(points::GRID_PGM_TRUNCATE, 9)]);
    let img = ilt_grid::Grid::from_fn(4, 4, |x, y| (x + y) as f64);
    let mut buf = Vec::new();
    ilt_grid::io::write_pgm_to(&mut buf, &img).unwrap();
    let err = ilt_grid::io::read_pgm_from(&buf[..]).unwrap_err();
    ilt_fault::clear();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    swept.push(points::GRID_PGM_TRUNCATE);

    // The sweep above must cover the whole registry — a new injection
    // point without a drill scenario fails here.
    let mut all: Vec<&str> = points::ALL.to_vec();
    let mut covered = swept.clone();
    all.sort_unstable();
    covered.sort_unstable();
    assert_eq!(covered, all, "every registered point needs a drill");

    // Acceptance drill: skip the coarse tile's attempt, then kill both
    // retry attempts of the first fine-stage tile. The job must still
    // answer 200/done with exactly one degraded tile, and the whole
    // outcome must be a pure function of the seed.
    let degraded_jobs_before = counter("serve.jobs.degraded");
    let drill = |seed: u64| -> (String, u64, String) {
        ilt_fault::configure(vec![FaultSpec {
            limit: Some(2),
            skip: 1,
            ..FaultSpec::always(points::TILE_PANIC, seed)
        }]);
        let id = submit(addr, spec);
        let record = poll_done(addr, &id);
        ilt_fault::clear();
        let status = record
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let degraded = record
            .get("tiles_degraded")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        // Quality metrics + mask summary pin the degraded result
        // bit-for-bit (timings excluded — wall clock is not the drill).
        let fingerprint = format!(
            "{:?}/{:?}/{:?}/{:?}",
            record.path(&["metrics", "l2"]),
            record.path(&["metrics", "pvband"]),
            record.path(&["metrics", "stitch"]),
            record.get("mask")
        );
        (status, degraded, fingerprint)
    };
    let (status_a, degraded_a, fingerprint_a) = drill(1913);
    assert_eq!(status_a, "done");
    assert_eq!(degraded_a, 1, "exactly one fine tile degrades");
    let (status_b, degraded_b, fingerprint_b) = drill(1913);
    assert_eq!(
        (status_a, degraded_a, fingerprint_a),
        (status_b, degraded_b, fingerprint_b),
        "fixed seed, fixed outcome"
    );
    assert!(
        counter("serve.jobs.degraded") >= degraded_jobs_before + 2,
        "degraded jobs must be counted"
    );

    // Disarmed, the same spec solves cleanly end to end.
    let id = submit(addr, spec);
    let record = poll_done(addr, &id);
    assert_eq!(record.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(record.get("tiles_degraded").and_then(Json::as_u64), Some(0));

    let summary = handle.shutdown();
    assert_eq!(summary.unfinished, 0, "drills left jobs behind");
}
