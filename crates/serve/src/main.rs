//! The `ilt-serve` daemon.
//!
//! Binds `ILT_SERVE_ADDR` (default `127.0.0.1:8117`) and serves jobs until
//! `POST /admin/shutdown` starts the graceful drain; every queued and
//! in-flight job finishes before the process exits. Telemetry collection
//! is on by default so `/metrics` has something to say; set `ILT_TRACE=0`
//! to switch it off.
//!
//! Environment: `ILT_SERVE_ADDR`, `ILT_SERVE_QUEUE` (queue depth, default
//! 64), `ILT_SERVE_WORKERS` (job workers, default 1), `ILT_WORKERS`
//! (tile threads per job, default 1), `ILT_TRACE`, `ILT_FAULTS`
//! (deterministic fault-injection profile for drills, see `ilt_telemetry::fault`),
//! `ILT_OBS_RING` (flight-recorder capacity per shard, or `off`) and
//! `ILT_PROF_ALLOC` (allocation counting for `/debug/memory`). The SLO
//! objectives and windows are fixed.

use ilt_serve::ServeConfig;

// Install the tracking allocator so `ILT_PROF_ALLOC=1` can attribute
// allocations per stage and per trace. Off (the default) it adds one
// relaxed load per allocation.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

fn main() {
    // Opposite default from the batch binaries: a service should expose
    // metrics unless explicitly muted.
    ilt_telemetry::init_from_env(true);
    ilt_telemetry::flight::init_from_env();
    ilt_prof::init_from_env();
    ilt_telemetry::fault::configure_from_env();
    let config = ServeConfig::from_env();
    let handle = match ilt_serve::start(config.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("ilt-serve: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "ilt-serve listening on {} (queue depth {}, {} worker{})",
        handle.addr(),
        config.queue_depth,
        config.workers,
        if config.workers == 1 { "" } else { "s" }
    );
    let summary = handle.wait();
    println!(
        "ilt-serve drained: {} completed, {} failed, {} unfinished",
        summary.completed, summary.failed, summary.unfinished
    );
    if summary.unfinished > 0 {
        std::process::exit(1);
    }
}
