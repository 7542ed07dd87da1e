//! thistle-serve: a long-running optimization service over the Thistle
//! optimizer.
//!
//! Layered bottom-up:
//!
//! 1. [`lru`] — an LRU cache with hit/miss/eviction statistics, keyed by
//!    [`thistle::canon::CanonicalQuery`]: requests equal up to layer naming
//!    and h/w orientation share one cached [`thistle::DesignPoint`].
//! 2. [`pool`] — a worker pool on `crossbeam` channels fanning solves
//!    across cores, with single-flight deduplication (identical concurrent
//!    requests join one solve) and per-request timeouts.
//! 3. [`http`] — a hand-rolled HTTP/1.1 server (`std::net::TcpListener`,
//!    no format crates) exposing `POST /optimize`, `GET /metrics` (JSON or
//!    `?format=prometheus` text), `GET /healthz`, and the `GET /debug/*`
//!    introspection surfaces (solve reports, exemplar traces, lock
//!    contention), with graceful shutdown and connection draining.
//! 4. [`service`] — [`Service::optimize`], the embedding API the CLI and
//!    the benchmark's serve workload reuse. Every solve runs under a `thistle_obs` trace context whose spans feed a
//!    `thistle_obs::MetricsBridge` (its span durations are the per-stage
//!    histograms, [`metrics::STAGES`], in `GET /metrics`), a tail-sampling
//!    `thistle_obs::ExemplarSink`, plus any extra sinks from
//!    [`ServiceOptions::trace_sinks`]. Fresh solves additionally file a
//!    [`thistle::SolveReport`] retrievable by id.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use thistle::Optimizer;
//! use thistle_arch::TechnologyParams;
//! use thistle_serve::{HttpServer, Service, ServiceOptions};
//!
//! let optimizer = Optimizer::new(TechnologyParams::cgo2022_45nm());
//! let service = Arc::new(Service::new(optimizer, ServiceOptions::default()));
//! let server = HttpServer::start(service, "127.0.0.1:7878").unwrap();
//! println!("listening on port {}", server.port());
//! ```

pub mod http;
pub mod json;
pub mod lru;
pub mod metrics;
pub mod pool;
pub mod service;

pub use http::{HttpOptions, HttpServer};
pub use json::{Json, JsonError};
pub use lru::{LruCache, LruStats};
pub use metrics::{
    CacheSnapshot, LatencyBreakdown, LockSnapshot, Metrics, MetricsSnapshot, SummarySnapshot,
};
pub use pool::{PoolError, PoolTimings, SolvePool};
pub use service::{ServeError, Service, ServiceOptions, SolveResponse, BUILD_INFO};
