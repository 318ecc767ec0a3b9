//! # ilt-serve
//!
//! A zero-dependency ILT job service over `std::net`: submit optimisation
//! jobs as JSON, poll their results, scrape telemetry — with admission
//! control in front and kernel/plan caching behind, so a long-lived
//! process amortises the expensive SOCS kernel construction across jobs
//! instead of across one batch run.
//!
//! ## Endpoints
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /v1/jobs` | Admit a job (JSON spec); `202` with an id, or `429` + `Retry-After` when the queue is full |
//! | `GET /v1/jobs/{id}` | Job status; when `done`, Table 1 quality metrics and a mask summary |
//! | `GET /healthz` | Liveness plus queue depth/capacity |
//! | `GET /metrics` | Prometheus text exposition of counters, gauges, histograms (span-store, RSS and allocator facts included), and SLO burn rates |
//! | `GET /debug/jobs/{id}/trace` | The job's span tree (queue → session → tiles → assembly) from the flight recorder |
//! | `GET /debug/queue` | Admission state plus recent jobs with their trace ids |
//! | `GET /debug/caches` | Kernel-bank / FFT-plan / session-cache sizes and hit rates |
//! | `GET /debug/slo` | Burn rates per objective and window, with raw good/bad counts, over the daemon's three fixed objectives |
//! | `GET /debug/profile` | Self-time profile of the spans the store holds: collapsed-stack text, top self-time frames and the total (the `report.json` `profile` section) |
//! | `GET /debug/memory` | RSS and allocator counters (the `report.json` `memory` section) plus the heaviest-allocating traces |
//! | `POST /admin/shutdown` | Start the graceful drain (in-flight and queued jobs still finish) |
//!
//! ## Job spec
//!
//! ```json
//! {"case": 3, "method": "ours", "scale": "tiny", "timeout_ms": 60000}
//! ```
//!
//! or with an inline layout instead of a suite case:
//!
//! ```json
//! {"layout": {"seed": 7, "wire_width": 9}, "method": "full-chip"}
//! ```
//!
//! See [`job::JobSpec::parse`] for the full field reference.
//!
//! ## Architecture
//!
//! One accept thread, one short-lived thread per connection, and a fixed
//! pool of job workers behind a bounded FIFO ([`queue::JobQueue`]). Each
//! worker owns a [`cache::SessionCache`]; the heavyweight state —
//! SOCS kernel banks, FFT plans — is shared process-wide through
//! [`ilt_litho::shared_bank`] and `ilt_fft::shared_plan`, so a warm
//! job at a known scale never rebuilds kernels. Requests are traced as
//! `request` spans and the service exports `serve.*` counters and
//! histograms alongside the solver telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod debug;
pub mod http;
pub mod job;
pub mod queue;
pub mod server;
mod slo;

pub use server::{start, DrainSummary, ServeConfig, ServeError, ServerHandle};
