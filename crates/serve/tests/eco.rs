//! Loopback test of the incremental (ECO) job path: a base `ours` job
//! populates the shared mask store, an edit job warm-starts from it and
//! reports its reuse accounting, and `/debug/store` / `/debug/caches`
//! expose the store's occupancy.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ilt_json::Json;
use ilt_layout::generate_clip;
use ilt_serve::{start, ServeConfig};
use ilt_telemetry as tele;

const POLL_INTERVAL: Duration = Duration::from_millis(25);
const POLL_BUDGET: Duration = Duration::from_secs(120);

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
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
    (status, body.to_string())
}

fn submit(addr: SocketAddr, spec: &str) -> String {
    let (status, body) = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(status, 202, "submit failed: {body}");
    Json::parse(&body)
        .expect("submit response JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("accepted job id")
        .to_string()
}

fn poll_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + POLL_BUDGET;
    loop {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "poll failed: {body}");
        let record = Json::parse(&body).expect("job record JSON");
        match record.get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {}
            Some(_) => return record,
            None => panic!("record without status: {body}"),
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in time");
        std::thread::sleep(POLL_INTERVAL);
    }
}

#[test]
fn eco_job_reuses_clean_tiles_from_the_base_solve() {
    tele::set_enabled(true);
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        workers: 1,
        tile_workers: 2,
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Base solve: an `ours` job, which also populates the mask store.
    let base_id = submit(addr, r#"{"case":5,"method":"ours","scale":"tiny"}"#);
    let base = poll_done(addr, &base_id);
    assert_eq!(base.get("status").and_then(Json::as_str), Some("done"));
    assert!(
        base.path(&["incremental"]).is_none(),
        "plain jobs must not report incremental stats"
    );

    // The store now holds the base solve's tile crops.
    let (status, body) = request(addr, "GET", "/debug/store", None);
    assert_eq!(status, 200);
    let store = Json::parse(&body).expect("store debug JSON");
    assert_eq!(store.get("enabled").and_then(Json::as_bool), Some(true));
    let puts = store
        .path(&["stats", "puts"])
        .and_then(Json::as_u64)
        .expect("store puts");
    assert!(puts >= 9, "base solve stored {puts} crops, expected >= 9");
    let listed = store
        .get("entries")
        .and_then(Json::as_arr)
        .expect("entry listing");
    assert!(!listed.is_empty(), "store listing is empty after a put");

    // Flip one pixel region deep inside tile 0's exclusive region (the
    // suite target is deterministic, so pick a fill that guarantees a
    // change): dirty set = tile 0 + its 3 overlap neighbours on the tiny
    // 3x3 partition, the other 5 tiles reused.
    let config = ilt_core::ExperimentConfig::test_tiny();
    let target = generate_clip(&config.generator, 5);
    let fill = 1 - target.get(12, 12);
    let eco_spec = format!(
        r#"{{"base_job":{base_id},"edit":{{"rect":[10,10,18,18],"fill":{fill}}},"scale":"tiny"}}"#
    );
    let eco_id = submit(addr, &eco_spec);
    let record = poll_done(addr, &eco_id);
    assert_eq!(
        record.get("status").and_then(Json::as_str),
        Some("done"),
        "eco job failed: {record:?}"
    );
    assert_eq!(
        record.get("target").and_then(Json::as_str),
        Some(format!("eco:base={base_id}").as_str())
    );
    let reused = record
        .path(&["incremental", "tiles_reused"])
        .and_then(Json::as_u64)
        .expect("tiles_reused");
    let resolved = record
        .path(&["incremental", "tiles_resolved"])
        .and_then(Json::as_u64)
        .expect("tiles_resolved");
    assert_eq!(resolved, 4, "dirty set on a 3x3 partition is 4 tiles");
    assert_eq!(reused, 5, "the other 5 tiles must come from the store");
    let hit_ratio = record
        .path(&["incremental", "hit_ratio"])
        .and_then(Json::as_f64)
        .expect("hit_ratio");
    assert!(
        (hit_ratio - 5.0 / 9.0).abs() < 1e-9,
        "hit_ratio {hit_ratio}"
    );

    // /debug/caches carries the mask_store section.
    let (status, body) = request(addr, "GET", "/debug/caches", None);
    assert_eq!(status, 200);
    let caches = Json::parse(&body).expect("caches JSON");
    assert!(
        caches
            .path(&["mask_store", "entries"])
            .and_then(Json::as_u64)
            .expect("mask_store entries")
            >= 9
    );

    // /metrics exports the store series under the promised names.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    for needle in [
        "ilt_store_hits_total",
        "ilt_store_bytes",
        "ilt_store_entries",
    ] {
        assert!(body.contains(needle), "metrics missing {needle}");
    }

    // Referencing a missing base fails cleanly, as does chaining off an
    // eco job.
    let missing = submit(addr, r#"{"base_job":999,"edit":{"rect":[0,0,8,8]}}"#);
    let record = poll_done(addr, &missing);
    assert_eq!(record.get("status").and_then(Json::as_str), Some("failed"));
    assert!(
        record
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("not found")),
        "unexpected error: {record:?}"
    );
    let chained = submit(
        addr,
        &format!(r#"{{"base_job":{eco_id},"edit":{{"rect":[0,0,8,8]}}}}"#),
    );
    let record = poll_done(addr, &chained);
    assert_eq!(record.get("status").and_then(Json::as_str), Some("failed"));
    assert!(
        record
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("itself incremental")),
        "unexpected error: {record:?}"
    );

    let summary = handle.shutdown();
    assert_eq!(summary.unfinished, 0);
    assert_eq!(summary.failed, 2, "exactly the two bad eco jobs failed");
}
