//! # seghdc-server — a framed service front-end for the SegHDC engine
//!
//! Turns the long-lived [`SegEngine`](seghdc::SegEngine) into a network
//! service with production-shaped semantics:
//!
//! * **A versioned, length-prefixed wire protocol** ([`wire`],
//!   [`protocol`]): magic bytes, a frame-size cap enforced *before*
//!   allocation, an FNV-1a checksum, and little-endian typed payloads —
//!   hand-rolled because the workspace vendors its dependencies.
//! * **Bounded admission with explicit backpressure** ([`queue`],
//!   [`shard`]): admission is sharded per worker, routed by a stable hash
//!   of the [`CodebookKey`](seghdc::CodebookKey), spilling and stealing
//!   between shards; only when every shard is full does a request get
//!   [`WireStatus::Busy`] instead of queuing without bound.
//! * **Per-request deadlines** ([`server`]): expired jobs are answered
//!   [`WireStatus::DeadlineExceeded`] without touching the engine, with a
//!   connection-side safety net for stalled workers.
//! * **Cache-aware scheduling**: same-shape traffic is pinned to the
//!   worker whose cache path is warm, and workers dequeue groups of
//!   requests with the same codebook key, so same-shape bursts pay one
//!   codebook build.
//! * **One execution path** ([`ServerConfig::max_group`]): every
//!   dequeued group, one request or several sharing a configuration, mode,
//!   and shape, runs as one engine batch, with byte-identical payloads
//!   coalesced onto a single image and label maps scattered back to each
//!   originating connection. The run's cancel token fires at the group's
//!   latest deadline, so fused batches honour deadlines like lone
//!   requests. [`ServerConfig::fuse_window`] optionally holds a partial
//!   group open (on a condvar) for late fusible arrivals, and
//!   `max_group: 1` serves every request on its own.
//! * **Warm starts** ([`ServerConfig::codebook_snapshot`],
//!   [`ServerHandle::save_snapshot`]): the shared codebook cache persists
//!   to the versioned, checksummed [`seghdc::snapshot`] format and
//!   preloads before the listener accepts.
//! * **Observability** ([`SegClient::stats`]): a `STATS` frame reports
//!   uptime plus per-connection, server-wide, cache and per-shard
//!   counters.
//! * **Panic containment**: a panicking execution answers
//!   [`WireStatus::Internal`] and the engine's poison-recovering shared
//!   state (codebook cache, arena pool) keeps serving.
//!
//! Every successful response carries the engine's telemetry envelope
//! (cache hits/misses, arena high-water mark, backend and kernel ISA), so
//! a fleet scheduler can observe cache behaviour from outside.
//!
//! ## Example
//!
//! ```no_run
//! use imaging::{DynamicImage, GrayImage};
//! use seghdc::SegHdcConfig;
//! use seghdc_server::{serve, RequestMode, SegClient, ServerConfig, WireSegmentRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = serve("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = SegClient::connect(handle.local_addr())?;
//!
//! let image = DynamicImage::Gray(GrayImage::filled(64, 64, 128)?);
//! let config = SegHdcConfig::builder().dimension(1024).build()?;
//! let request = WireSegmentRequest::from_image(&config, &image, RequestMode::Auto, 500);
//! let response = client.segment(&request)?;
//! let labels = response.label_map()?;
//! println!("{}x{} labels", labels.width(), labels.height());
//!
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod shard;
pub mod wire;

mod error;

pub use client::SegClient;
pub use error::ServerError;
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use protocol::{
    RequestMode, ResponseBody, WireCacheStats, WireConnectionStats, WireProgress,
    WireSegmentRequest, WireSegmentResponse, WireServerStats, WireShardStats, WireStatsRequest,
    WireStatsResponse, WireStatus, WireTelemetry, PROTOCOL_VERSION,
};
pub use queue::{AdmissionQueue, PushError};
pub use server::{serve, ServerConfig, ServerHandle};
pub use shard::{key_hash, ShardStats, ShardedQueue};
pub use wire::{WireError, WireResult, DEFAULT_MAX_FRAME_BYTES};
