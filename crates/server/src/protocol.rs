//! Versioned request/response messages carried inside wire frames.
//!
//! A request frame carries everything the server needs to serve a
//! segmentation with no out-of-band state: the full algorithmic
//! configuration (seed, dimension, α/β/γ, encodings), the
//! requested execution mode, a per-request deadline, and the raw pixel
//! buffer. A response frame carries either the label map plus the
//! [`SegmentReport`](seghdc::SegmentReport)-style telemetry envelope, or
//! one of the typed error statuses ([`WireStatus::Busy`],
//! [`WireStatus::DeadlineExceeded`], …) the admission queue and deadline
//! machinery promise instead of unbounded queuing.
//!
//! Both payloads start with [`PROTOCOL_VERSION`]; a decoder refuses
//! versions it does not speak with [`WireError::UnsupportedVersion`]
//! rather than misreading fields.

use crate::wire::{PayloadReader, PayloadWriter, WireError, WireResult};
use imaging::{DynamicImage, GrayImage, RgbImage};
use seghdc::{ColorEncoding, PositionEncoding, SegHdcConfig};

/// Version every payload layout is written at. Version 2 extended the
/// stats response's server counters with the fused-execution counters
/// (`fused_groups`, `fused_requests`, `fused_coalesced`,
/// `fusion_fallbacks`). Version 3 added the streaming [`WireProgress`]
/// payload and the `cancelled_mid_run` server counter. Version 4 dropped
/// the request's distance-metric byte, which followed the colour encoding:
/// the clusterer measures cosine distance only.
pub const PROTOCOL_VERSION: u16 = 4;

/// Execution mode requested on the wire (mirrors
/// [`seghdc::ExecutionMode`], with tile geometry spelled out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestMode {
    /// Let the engine planner pick whole-image or tiled per image.
    Auto,
    /// Force whole-image execution.
    WholeImage,
    /// Force streaming tiled execution with this geometry.
    Tiled {
        /// Tile width in pixels.
        tile_width: u32,
        /// Tile height in pixels.
        tile_height: u32,
        /// Halo width in pixels.
        halo: u32,
    },
}

/// One segmentation request as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSegmentRequest {
    /// Deadline in milliseconds from admission; `0` asks for the server's
    /// default deadline.
    pub deadline_ms: u32,
    /// Full algorithmic configuration (snapshots are never recorded
    /// server-side, so [`SegHdcConfig::record_snapshots`] is not on the
    /// wire).
    pub config: SegHdcConfig,
    /// Requested execution mode.
    pub mode: RequestMode,
    /// Colour channel count: `1` (gray) or `3` (interleaved RGB).
    pub channels: u8,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Row-major pixel bytes (`width × height × channels` of them).
    pub pixels: Vec<u8>,
    /// Whether the client opted in to streaming progress: when `true`,
    /// the server interleaves zero or more `FRAME_PROGRESS` frames
    /// ([`WireProgress`]) before the final response frame. When `false`
    /// (the default, and what [`from_image`](Self::from_image) emits),
    /// the connection stays strictly one frame per request, so clients
    /// that never opt in never see a progress frame.
    pub progress: bool,
}

/// A configuration value as its narrower wire type, or a typed error if
/// it does not fit.
fn wire_field<T: TryFrom<usize>>(value: usize, field: &'static str) -> WireResult<T> {
    T::try_from(value).map_err(|_| WireError::InvalidField {
        field,
        message: format!("{value} does not fit the field's wire width"),
    })
}

impl WireSegmentRequest {
    /// Serializes the request payload.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidField`] if a configuration value does not fit
    /// its wire field (`clusters` and `iterations` travel as `u16`,
    /// `dimension`, `beta` and `gamma` as `u32`): narrowing it would serve
    /// the request under a different configuration.
    pub fn encode(&self) -> WireResult<Vec<u8>> {
        let mut w = PayloadWriter::new();
        w.put_u16(PROTOCOL_VERSION);
        w.put_u32(self.deadline_ms);
        w.put_u64(self.config.seed);
        w.put_u32(wire_field(self.config.dimension, "dimension")?);
        w.put_u16(wire_field(self.config.clusters, "clusters")?);
        w.put_u16(wire_field(self.config.iterations, "iterations")?);
        w.put_u64(self.config.alpha.to_bits());
        w.put_u32(wire_field(self.config.beta, "beta")?);
        w.put_u32(wire_field(self.config.gamma, "gamma")?);
        w.put_u8(self.config.position_encoding.code());
        w.put_u8(self.config.color_encoding.code());
        match self.mode {
            RequestMode::Auto => w.put_u8(0),
            RequestMode::WholeImage => w.put_u8(1),
            RequestMode::Tiled {
                tile_width,
                tile_height,
                halo,
            } => {
                w.put_u8(2);
                w.put_u32(tile_width);
                w.put_u32(tile_height);
                w.put_u32(halo);
            }
        }
        w.put_u8(self.channels);
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_bytes(&self.pixels);
        w.put_u8(u8::from(self.progress));
        Ok(w.finish())
    }

    /// Deserializes a request payload.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`]s for version/enum/shape violations; the pixel
    /// buffer length is validated against `width × height × channels`
    /// exactly (a short buffer is [`WireError::Truncated`], a long one
    /// [`WireError::TrailingBytes`]).
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = PayloadReader::new(payload);
        let version = r.take_u16("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let deadline_ms = r.take_u32("deadline_ms")?;
        let seed = r.take_u64("seed")?;
        let dimension = r.take_u32("dimension")? as usize;
        let clusters = r.take_u16("clusters")? as usize;
        let iterations = r.take_u16("iterations")? as usize;
        let alpha = f64::from_bits(r.take_u64("alpha_bits")?);
        let beta = r.take_u32("beta")? as usize;
        let gamma = r.take_u32("gamma")? as usize;
        let position_encoding =
            take_variant(&mut r, "position_encoding", PositionEncoding::from_code)?;
        let color_encoding = take_variant(&mut r, "color_encoding", ColorEncoding::from_code)?;
        let mode = match r.take_u8("mode")? {
            0 => RequestMode::Auto,
            1 => RequestMode::WholeImage,
            2 => RequestMode::Tiled {
                tile_width: r.take_u32("tile_width")?,
                tile_height: r.take_u32("tile_height")?,
                halo: r.take_u32("halo")?,
            },
            other => {
                return Err(WireError::InvalidField {
                    field: "mode",
                    message: format!("unknown execution mode {other}"),
                })
            }
        };
        let channels = r.take_u8("channels")?;
        if channels != 1 && channels != 3 {
            return Err(WireError::InvalidField {
                field: "channels",
                message: format!("channel count must be 1 or 3, got {channels}"),
            });
        }
        let width = r.take_u32("width")?;
        let height = r.take_u32("height")?;
        let pixel_bytes = (width as usize)
            .checked_mul(height as usize)
            .and_then(|p| p.checked_mul(channels as usize))
            .ok_or(WireError::InvalidField {
                field: "width",
                message: "image shape overflows".to_string(),
            })?;
        let pixels = r.take_bytes(pixel_bytes, "pixels")?.to_vec();
        let progress = match r.take_u8("progress")? {
            0 => false,
            1 => true,
            other => {
                return Err(WireError::InvalidField {
                    field: "progress",
                    message: format!("progress flag must be 0 or 1, got {other}"),
                })
            }
        };
        r.expect_end()?;
        let config = SegHdcConfig {
            dimension,
            alpha,
            beta,
            gamma,
            clusters,
            iterations,
            position_encoding,
            color_encoding,
            seed,
            record_snapshots: false,
        };
        Ok(Self {
            deadline_ms,
            config,
            mode,
            channels,
            width,
            height,
            pixels,
            progress,
        })
    }

    /// Reassembles the pixel buffer into an image, cloning the pixels
    /// (the request stays usable — the client-side and test-side variant).
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidField`] for degenerate shapes (zero-sized
    /// frames included — a server must reject them, not crash).
    pub fn to_image(&self) -> WireResult<DynamicImage> {
        assemble_image(self.channels, self.width, self.height, self.pixels.clone())
    }

    /// Like [`to_image`](Self::to_image), but **moves** the pixel buffer
    /// into the image instead of cloning it — the server's hot path,
    /// where the request is not needed after the image exists.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidField`] for degenerate shapes.
    pub fn into_dynamic_image(self) -> WireResult<DynamicImage> {
        assemble_image(self.channels, self.width, self.height, self.pixels)
    }

    /// Builds a wire request from an in-memory image.
    pub fn from_image(
        config: &SegHdcConfig,
        image: &DynamicImage,
        mode: RequestMode,
        deadline_ms: u32,
    ) -> Self {
        let (channels, pixels) = match image {
            DynamicImage::Gray(img) => (1u8, img.as_raw().to_vec()),
            DynamicImage::Rgb(img) => (3u8, img.as_raw().to_vec()),
        };
        Self {
            deadline_ms,
            config: SegHdcConfig {
                record_snapshots: false,
                ..config.clone()
            },
            mode,
            channels,
            width: image.width() as u32,
            height: image.height() as u32,
            pixels,
            progress: false,
        }
    }

    /// Opts this request in to streaming `FRAME_PROGRESS` frames
    /// (builder-style; see the [`progress`](Self::progress) field).
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }
}

/// The shared image-reassembly step behind [`WireSegmentRequest::to_image`]
/// and [`WireSegmentRequest::into_dynamic_image`].
fn assemble_image(
    channels: u8,
    width: u32,
    height: u32,
    pixels: Vec<u8>,
) -> WireResult<DynamicImage> {
    let invalid = |message: String| WireError::InvalidField {
        field: "image",
        message,
    };
    let width = width as usize;
    let height = height as usize;
    match channels {
        1 => GrayImage::from_raw(width, height, pixels)
            .map(DynamicImage::Gray)
            .map_err(|err| invalid(err.to_string())),
        3 => RgbImage::from_raw(width, height, pixels)
            .map(DynamicImage::Rgb)
            .map_err(|err| invalid(err.to_string())),
        other => Err(invalid(format!(
            "channel count must be 1 or 3, got {other}"
        ))),
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// Labels follow.
    Ok,
    /// The admission queue was full; retry with backoff.
    Busy,
    /// The deadline elapsed before (or while) the request was served.
    DeadlineExceeded,
    /// The request was malformed or out of domain; retrying is futile.
    Invalid,
    /// The server failed internally (including a panicking worker).
    Internal,
}

impl WireStatus {
    fn to_byte(self) -> u8 {
        match self {
            WireStatus::Ok => 0,
            WireStatus::Busy => 1,
            WireStatus::DeadlineExceeded => 2,
            WireStatus::Invalid => 3,
            WireStatus::Internal => 4,
        }
    }

    fn from_byte(byte: u8) -> WireResult<Self> {
        Ok(match byte {
            0 => WireStatus::Ok,
            1 => WireStatus::Busy,
            2 => WireStatus::DeadlineExceeded,
            3 => WireStatus::Invalid,
            4 => WireStatus::Internal,
            other => {
                return Err(WireError::InvalidField {
                    field: "status",
                    message: format!("unknown status byte {other}"),
                })
            }
        })
    }
}

/// Engine telemetry echoed in every successful response (the
/// [`seghdc::EngineTelemetry`] envelope, serialized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTelemetry {
    /// Codebook-cache hits over the serving engine's lifetime.
    pub cache_hits: u64,
    /// Codebook-cache misses over the serving engine's lifetime.
    pub cache_misses: u64,
    /// Encoders currently resident in the shared cache.
    pub cache_entries: u32,
    /// Codebook bytes currently resident in the shared cache.
    pub cache_bytes: u64,
    /// Arena matrix high-water mark in bytes.
    pub peak_matrix_bytes: u64,
    /// Execution backend name.
    pub backend: String,
    /// Word-kernel instruction set that served the request.
    pub kernel_isa: String,
}

/// The body of a response: labels or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A served segmentation.
    Labels {
        /// Whether the engine executed the image as streamed tiles.
        executed_tiled: bool,
        /// Label-map width in pixels.
        width: u32,
        /// Label-map height in pixels.
        height: u32,
        /// Row-major per-pixel labels.
        labels: Vec<u32>,
        /// The telemetry envelope.
        telemetry: WireTelemetry,
    },
    /// A typed failure; `status` is never [`WireStatus::Ok`].
    Error {
        /// Which failure.
        status: WireStatus,
        /// Human-readable detail.
        message: String,
    },
}

/// One response as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSegmentResponse {
    /// Microseconds the request waited in the admission queue.
    pub queue_wait_us: u64,
    /// Microseconds the engine spent serving it (zero for rejections).
    pub service_us: u64,
    /// Labels or a typed error.
    pub body: ResponseBody,
}

impl WireSegmentResponse {
    /// Shorthand for an error response.
    pub fn error(status: WireStatus, message: impl Into<String>, queue_wait_us: u64) -> Self {
        Self {
            queue_wait_us,
            service_us: 0,
            body: ResponseBody::Error {
                status,
                message: message.into(),
            },
        }
    }

    /// The response status byte.
    pub fn status(&self) -> WireStatus {
        match &self.body {
            ResponseBody::Labels { .. } => WireStatus::Ok,
            ResponseBody::Error { status, .. } => *status,
        }
    }

    /// The label map of a successful response.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidField`] when the response is an error frame or
    /// the labels do not form a valid map.
    pub fn label_map(&self) -> WireResult<imaging::LabelMap> {
        match &self.body {
            ResponseBody::Labels {
                width,
                height,
                labels,
                ..
            } => imaging::LabelMap::from_raw(*width as usize, *height as usize, labels.clone())
                .map_err(|err| WireError::InvalidField {
                    field: "labels",
                    message: err.to_string(),
                }),
            ResponseBody::Error { status, message } => Err(WireError::InvalidField {
                field: "status",
                message: format!("response is {status:?}: {message}"),
            }),
        }
    }

    /// Serializes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes the response payload into `buf`, reusing its allocation
    /// (the server encodes every response on a connection into one pooled
    /// buffer instead of allocating per response).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::reuse(std::mem::take(buf));
        w.put_u16(PROTOCOL_VERSION);
        w.put_u8(self.status().to_byte());
        w.put_u64(self.queue_wait_us);
        w.put_u64(self.service_us);
        match &self.body {
            ResponseBody::Labels {
                executed_tiled,
                width,
                height,
                labels,
                telemetry,
            } => {
                w.put_u8(u8::from(*executed_tiled));
                w.put_u32(*width);
                w.put_u32(*height);
                for &label in labels {
                    w.put_u32(label);
                }
                w.put_u64(telemetry.cache_hits);
                w.put_u64(telemetry.cache_misses);
                w.put_u32(telemetry.cache_entries);
                w.put_u64(telemetry.cache_bytes);
                w.put_u64(telemetry.peak_matrix_bytes);
                w.put_str(&telemetry.backend);
                w.put_str(&telemetry.kernel_isa);
            }
            ResponseBody::Error { message, .. } => {
                w.put_str(message);
            }
        }
        *buf = w.finish();
    }

    /// Deserializes a response payload.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`]s for version/status/shape violations.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = PayloadReader::new(payload);
        let version = r.take_u16("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let status = WireStatus::from_byte(r.take_u8("status")?)?;
        let queue_wait_us = r.take_u64("queue_wait_us")?;
        let service_us = r.take_u64("service_us")?;
        let body = if status == WireStatus::Ok {
            let executed_tiled = r.take_u8("executed_tiled")? != 0;
            let width = r.take_u32("width")?;
            let height = r.take_u32("height")?;
            let count =
                (width as usize)
                    .checked_mul(height as usize)
                    .ok_or(WireError::InvalidField {
                        field: "width",
                        message: "label shape overflows".to_string(),
                    })?;
            let mut labels = Vec::with_capacity(count);
            let raw = r.take_bytes(count * 4, "labels")?;
            for chunk in raw.chunks_exact(4) {
                labels.push(u32::from_le_bytes(chunk.try_into().unwrap()));
            }
            let telemetry = WireTelemetry {
                cache_hits: r.take_u64("cache_hits")?,
                cache_misses: r.take_u64("cache_misses")?,
                cache_entries: r.take_u32("cache_entries")?,
                cache_bytes: r.take_u64("cache_bytes")?,
                peak_matrix_bytes: r.take_u64("peak_matrix_bytes")?,
                backend: r.take_str("backend")?,
                kernel_isa: r.take_str("kernel_isa")?,
            };
            ResponseBody::Labels {
                executed_tiled,
                width,
                height,
                labels,
                telemetry,
            }
        } else {
            ResponseBody::Error {
                status,
                message: r.take_str("message")?,
            }
        };
        r.expect_end()?;
        Ok(Self {
            queue_wait_us,
            service_us,
            body,
        })
    }
}

/// One streaming progress update for an in-flight segmentation request,
/// carried in a [`crate::wire::FRAME_PROGRESS`] frame between the request
/// and its final response.
///
/// `request_id` is the connection's request sequence number (the first
/// segmentation request on a connection is id 1), so a client that
/// pipelines can attribute updates; `rows_done`/`rows_total` count
/// completed tile rows of a streaming tiled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireProgress {
    /// Connection-scoped request sequence number this update belongs to.
    pub request_id: u64,
    /// Tile rows completed so far.
    pub rows_done: u32,
    /// Total tile rows the run will process.
    pub rows_total: u32,
    /// Microseconds elapsed since the engine run started.
    pub elapsed_us: u64,
}

impl WireProgress {
    /// Serializes the progress payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes the progress payload into `buf`, reusing its allocation
    /// (progress frames share the connection's pooled write buffer).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::reuse(std::mem::take(buf));
        w.put_u16(PROTOCOL_VERSION);
        w.put_u64(self.request_id);
        w.put_u32(self.rows_done);
        w.put_u32(self.rows_total);
        w.put_u64(self.elapsed_us);
        *buf = w.finish();
    }

    /// Deserializes a progress payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedVersion`] on a version this build does not
    /// speak, [`WireError::Truncated`] on a short payload,
    /// [`WireError::TrailingBytes`] on extra bytes.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = PayloadReader::new(payload);
        let version = r.take_u16("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let progress = Self {
            request_id: r.take_u64("request_id")?,
            rows_done: r.take_u32("rows_done")?,
            rows_total: r.take_u32("rows_total")?,
            elapsed_us: r.take_u64("elapsed_us")?,
        };
        r.expect_end()?;
        Ok(progress)
    }
}

/// A statistics request as it travels on the wire (version only — the
/// response always carries every counter the server keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStatsRequest;

impl WireStatsRequest {
    /// Serializes the stats-request payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u16(PROTOCOL_VERSION);
        w.finish()
    }

    /// Deserializes a stats-request payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedVersion`] on a version this build does not
    /// speak, [`WireError::TrailingBytes`] on extra bytes.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = PayloadReader::new(payload);
        let version = r.take_u16("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        r.expect_end()?;
        Ok(Self)
    }
}

/// Counters kept by the connection thread serving this client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireConnectionStats {
    /// Segmentation requests received on this connection.
    pub requests: u64,
    /// Responses on this connection that carried labels.
    pub responses_ok: u64,
    /// Responses on this connection that carried a typed error.
    pub responses_error: u64,
}

/// Server-wide counters since the server started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireServerStats {
    /// Jobs the admission queue accepted.
    pub admitted: u64,
    /// Responses with served labels.
    pub responses_ok: u64,
    /// `Busy` rejections.
    pub responses_busy: u64,
    /// `DeadlineExceeded` responses.
    pub responses_deadline: u64,
    /// `Invalid` responses.
    pub responses_invalid: u64,
    /// `Internal` responses.
    pub responses_internal: u64,
    /// Cumulative admission-queue wait, microseconds.
    pub queue_wait_us: u64,
    /// Cumulative engine service time, microseconds.
    pub service_us: u64,
    /// Same-codebook groups executed as one fused engine batch.
    pub fused_groups: u64,
    /// Requests served by those fused batches.
    pub fused_requests: u64,
    /// Fused requests answered from another request's engine run because
    /// their pixel payloads were identical (request coalescing).
    pub fused_coalesced: u64,
    /// Fused batches that fell back to per-image serial execution after a
    /// batch error or panic.
    pub fusion_fallbacks: u64,
    /// Engine runs aborted mid-flight by a fired cancel token (deadline
    /// expiry or client abandonment after execution had started).
    pub cancelled_mid_run: u64,
}

/// The shared codebook cache as the server sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireCacheStats {
    /// Cache hits over the server's lifetime.
    pub hits: u64,
    /// Cache misses over the server's lifetime.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Encoders currently resident.
    pub entries: u32,
    /// Codebook bytes currently resident.
    pub bytes: u64,
    /// Codebooks warm-started from a startup snapshot.
    pub snapshot_loaded: u32,
}

/// One admission shard's counters (see `crate::shard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireShardStats {
    /// Jobs admitted here because this was their home shard.
    pub routed: u64,
    /// Jobs admitted here because their home shard was full.
    pub spilled: u64,
    /// Jobs dequeued from here by a different worker.
    pub stolen: u64,
    /// Jobs dequeued from here by this shard's own worker.
    pub served: u64,
    /// Jobs queued here right now.
    pub depth: u64,
}

/// A statistics response as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStatsResponse {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Worker threads (== admission shards).
    pub workers: u32,
    /// Counters for the connection that asked.
    pub connection: WireConnectionStats,
    /// Server-wide counters.
    pub server: WireServerStats,
    /// Shared codebook-cache counters.
    pub cache: WireCacheStats,
    /// Per-shard routing counters, in shard order.
    pub shards: Vec<WireShardStats>,
}

impl WireStatsResponse {
    /// Serializes the stats-response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes the stats-response payload into `buf`, reusing its
    /// allocation (so a connection's STATS responses share the pooled
    /// write buffer with every other response kind).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::reuse(std::mem::take(buf));
        w.put_u16(PROTOCOL_VERSION);
        w.put_u64(self.uptime_ms);
        w.put_u32(self.workers);
        w.put_u64(self.connection.requests);
        w.put_u64(self.connection.responses_ok);
        w.put_u64(self.connection.responses_error);
        w.put_u64(self.server.admitted);
        w.put_u64(self.server.responses_ok);
        w.put_u64(self.server.responses_busy);
        w.put_u64(self.server.responses_deadline);
        w.put_u64(self.server.responses_invalid);
        w.put_u64(self.server.responses_internal);
        w.put_u64(self.server.queue_wait_us);
        w.put_u64(self.server.service_us);
        w.put_u64(self.server.fused_groups);
        w.put_u64(self.server.fused_requests);
        w.put_u64(self.server.fused_coalesced);
        w.put_u64(self.server.fusion_fallbacks);
        w.put_u64(self.server.cancelled_mid_run);
        w.put_u64(self.cache.hits);
        w.put_u64(self.cache.misses);
        w.put_u64(self.cache.evictions);
        w.put_u32(self.cache.entries);
        w.put_u64(self.cache.bytes);
        w.put_u32(self.cache.snapshot_loaded);
        w.put_u32(self.shards.len() as u32);
        for shard in &self.shards {
            w.put_u64(shard.routed);
            w.put_u64(shard.spilled);
            w.put_u64(shard.stolen);
            w.put_u64(shard.served);
            w.put_u64(shard.depth);
        }
        *buf = w.finish();
    }

    /// Deserializes a stats-response payload.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`]s for version/shape violations; the shard count
    /// is validated against the remaining payload length before the shard
    /// list is allocated.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = PayloadReader::new(payload);
        let version = r.take_u16("version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let uptime_ms = r.take_u64("uptime_ms")?;
        let workers = r.take_u32("workers")?;
        let connection = WireConnectionStats {
            requests: r.take_u64("connection.requests")?,
            responses_ok: r.take_u64("connection.responses_ok")?,
            responses_error: r.take_u64("connection.responses_error")?,
        };
        let server = WireServerStats {
            admitted: r.take_u64("server.admitted")?,
            responses_ok: r.take_u64("server.responses_ok")?,
            responses_busy: r.take_u64("server.responses_busy")?,
            responses_deadline: r.take_u64("server.responses_deadline")?,
            responses_invalid: r.take_u64("server.responses_invalid")?,
            responses_internal: r.take_u64("server.responses_internal")?,
            queue_wait_us: r.take_u64("server.queue_wait_us")?,
            service_us: r.take_u64("server.service_us")?,
            fused_groups: r.take_u64("server.fused_groups")?,
            fused_requests: r.take_u64("server.fused_requests")?,
            fused_coalesced: r.take_u64("server.fused_coalesced")?,
            fusion_fallbacks: r.take_u64("server.fusion_fallbacks")?,
            cancelled_mid_run: r.take_u64("server.cancelled_mid_run")?,
        };
        let cache = WireCacheStats {
            hits: r.take_u64("cache.hits")?,
            misses: r.take_u64("cache.misses")?,
            evictions: r.take_u64("cache.evictions")?,
            entries: r.take_u32("cache.entries")?,
            bytes: r.take_u64("cache.bytes")?,
            snapshot_loaded: r.take_u32("cache.snapshot_loaded")?,
        };
        let shard_count = r.take_u32("shard_count")? as usize;
        let mut shards = Vec::with_capacity(shard_count.min(1024));
        for _ in 0..shard_count {
            shards.push(WireShardStats {
                routed: r.take_u64("shard.routed")?,
                spilled: r.take_u64("shard.spilled")?,
                stolen: r.take_u64("shard.stolen")?,
                served: r.take_u64("shard.served")?,
                depth: r.take_u64("shard.depth")?,
            });
        }
        r.expect_end()?;
        Ok(Self {
            uptime_ms,
            workers,
            connection,
            server,
            cache,
            shards,
        })
    }
}

/// A variant byte, decoded by `from_code`; an unknown byte is a typed
/// error naming `field`.
fn take_variant<T>(
    r: &mut PayloadReader<'_>,
    field: &'static str,
    from_code: fn(u8) -> Option<T>,
) -> WireResult<T> {
    let byte = r.take_u8(field)?;
    from_code(byte).ok_or_else(|| WireError::InvalidField {
        field,
        message: format!("unknown variant {byte}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A `usize` drawn across its whole range, or masked to 16 or 32 bits,
    /// or small, so that every wire width is both met and exceeded.
    fn any_width() -> impl Strategy<Value = usize> {
        (0u8..4, any::<usize>()).prop_map(|(width, value)| match width {
            0 => value,
            1 => value & 0xFFFF,
            2 => value & 0xFFFF_FFFF,
            _ => value % 64,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every `SegHdcConfig` either round-trips bit for bit or fails to
        /// encode with a typed error naming the first field too wide for
        /// the wire; none is narrowed into a different configuration.
        #[test]
        fn every_config_round_trips_or_is_refused_by_name(
            seed in any::<u64>(),
            alpha_bits in any::<u64>(),
            widths in (any_width(), any_width(), any_width(), any_width(), any_width()),
            enums in (0usize..5, any::<bool>()),
            record_snapshots in any::<bool>(),
        ) {
            let (dimension, clusters, iterations, beta, gamma) = widths;
            let config = SegHdcConfig {
                dimension,
                alpha: f64::from_bits(alpha_bits),
                beta,
                gamma,
                clusters,
                iterations,
                position_encoding: [
                    PositionEncoding::Uniform,
                    PositionEncoding::Manhattan,
                    PositionEncoding::DecayManhattan,
                    PositionEncoding::BlockDecayManhattan,
                    PositionEncoding::Random,
                ][enums.0],
                color_encoding: if enums.1 {
                    ColorEncoding::Random
                } else {
                    ColorEncoding::Manhattan
                },
                seed,
                record_snapshots,
            };
            let request = WireSegmentRequest {
                deadline_ms: 7,
                config: config.clone(),
                mode: RequestMode::Auto,
                channels: 1,
                width: 1,
                height: 1,
                pixels: vec![3],
                progress: false,
            };
            let too_wide = [
                ("dimension", dimension > u32::MAX as usize),
                ("clusters", clusters > usize::from(u16::MAX)),
                ("iterations", iterations > usize::from(u16::MAX)),
                ("beta", beta > u32::MAX as usize),
                ("gamma", gamma > u32::MAX as usize),
            ]
            .into_iter()
            .find(|&(_, wide)| wide);
            match (request.encode(), too_wide) {
                (Ok(payload), None) => {
                    let decoded = WireSegmentRequest::decode(&payload).unwrap().config;
                    prop_assert_eq!(decoded.alpha.to_bits(), alpha_bits);
                    prop_assert!(!decoded.record_snapshots);
                    let without_alpha = |c: SegHdcConfig| SegHdcConfig {
                        alpha: 0.0,
                        record_snapshots: false,
                        ..c
                    };
                    prop_assert_eq!(without_alpha(decoded), without_alpha(config));
                }
                (Err(WireError::InvalidField { field, .. }), Some((wide, _))) => {
                    prop_assert_eq!(field, wide);
                }
                (outcome, expected) => prop_assert!(
                    false,
                    "encode gave {:?} where the first too-wide field is {:?}",
                    outcome.map(|payload| payload.len()),
                    expected
                ),
            }
        }
    }

    fn sample_config() -> SegHdcConfig {
        SegHdcConfig::builder()
            .dimension(512)
            .beta(4)
            .iterations(3)
            .seed(42)
            .build()
            .unwrap()
    }

    fn sample_image() -> DynamicImage {
        let mut img = GrayImage::filled(6, 4, 10).unwrap();
        img.set(2, 2, 240).unwrap();
        DynamicImage::Gray(img)
    }

    #[test]
    fn requests_round_trip_for_every_mode() {
        let config = sample_config();
        let image = sample_image();
        for mode in [
            RequestMode::Auto,
            RequestMode::WholeImage,
            RequestMode::Tiled {
                tile_width: 16,
                tile_height: 16,
                halo: 2,
            },
        ] {
            let request = WireSegmentRequest::from_image(&config, &image, mode, 250);
            assert!(!request.progress, "progress streaming is opt-in");
            let decoded = WireSegmentRequest::decode(&request.encode().unwrap()).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(decoded.config, config);
            assert_eq!(decoded.to_image().unwrap(), image);

            let opted = request.with_progress();
            let decoded = WireSegmentRequest::decode(&opted.encode().unwrap()).unwrap();
            assert!(decoded.progress);
            assert_eq!(decoded, opted);
        }
    }

    #[test]
    fn rgb_requests_round_trip() {
        let mut rgb = RgbImage::new(3, 2).unwrap();
        rgb.set(1, 1, [200, 100, 50]).unwrap();
        let image = DynamicImage::Rgb(rgb);
        let request =
            WireSegmentRequest::from_image(&sample_config(), &image, RequestMode::Auto, 0);
        let decoded = WireSegmentRequest::decode(&request.encode().unwrap()).unwrap();
        assert_eq!(decoded.channels, 3);
        assert_eq!(decoded.to_image().unwrap(), image);
    }

    #[test]
    fn consuming_image_conversion_matches_the_cloning_one() {
        let image = sample_image();
        let request =
            WireSegmentRequest::from_image(&sample_config(), &image, RequestMode::Auto, 0);
        assert_eq!(request.to_image().unwrap(), image);
        assert_eq!(request.into_dynamic_image().unwrap(), image);

        let mut degenerate =
            WireSegmentRequest::from_image(&sample_config(), &image, RequestMode::Auto, 0);
        degenerate.width = 0;
        degenerate.height = 0;
        degenerate.pixels.clear();
        assert!(matches!(
            degenerate.into_dynamic_image(),
            Err(WireError::InvalidField { field: "image", .. })
        ));
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let ok = WireSegmentResponse {
            queue_wait_us: 5,
            service_us: 10,
            body: ResponseBody::Labels {
                executed_tiled: false,
                width: 2,
                height: 1,
                labels: vec![1, 0],
                telemetry: WireTelemetry {
                    cache_hits: 1,
                    cache_misses: 0,
                    cache_entries: 1,
                    cache_bytes: 64,
                    peak_matrix_bytes: 32,
                    backend: "simd-cpu".to_string(),
                    kernel_isa: "scalar".to_string(),
                },
            },
        };
        let error = WireSegmentResponse::error(WireStatus::Busy, "full", 0);

        let mut buf = Vec::new();
        ok.encode_into(&mut buf);
        assert_eq!(buf, ok.encode());
        let capacity = buf.capacity();
        // A smaller follow-up response reuses the same allocation.
        error.encode_into(&mut buf);
        assert_eq!(buf, error.encode());
        assert_eq!(buf.capacity(), capacity);
    }

    #[test]
    fn snapshot_recording_never_crosses_the_wire() {
        let mut config = sample_config();
        config.record_snapshots = true;
        let request =
            WireSegmentRequest::from_image(&config, &sample_image(), RequestMode::Auto, 0);
        assert!(!request.config.record_snapshots);
    }

    #[test]
    fn wrong_version_is_refused() {
        let request =
            WireSegmentRequest::from_image(&sample_config(), &sample_image(), RequestMode::Auto, 0);
        let mut payload = request.encode().unwrap();
        payload[0] = 9; // version low byte
        assert!(matches!(
            WireSegmentRequest::decode(&payload),
            Err(WireError::UnsupportedVersion(9))
        ));
        // A version 3 request, which still carried a distance-metric byte
        // (0, cosine) after the colour encoding, is refused rather than
        // misread.
        let mut v3 = request.encode().unwrap();
        v3[..2].copy_from_slice(&3u16.to_le_bytes());
        v3.insert(40, 0);
        assert!(matches!(
            WireSegmentRequest::decode(&v3),
            Err(WireError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn zero_sized_images_decode_but_fail_image_reassembly() {
        let mut request =
            WireSegmentRequest::from_image(&sample_config(), &sample_image(), RequestMode::Auto, 0);
        request.width = 0;
        request.height = 0;
        request.pixels.clear();
        let decoded = WireSegmentRequest::decode(&request.encode().unwrap()).unwrap();
        assert!(matches!(
            decoded.to_image(),
            Err(WireError::InvalidField { field: "image", .. })
        ));
    }

    #[test]
    fn short_pixel_buffers_are_truncation_errors() {
        let request =
            WireSegmentRequest::from_image(&sample_config(), &sample_image(), RequestMode::Auto, 0);
        let payload = request.encode().unwrap();
        assert!(matches!(
            WireSegmentRequest::decode(&payload[..payload.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            WireSegmentRequest::decode(&long),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn ok_responses_round_trip() {
        let response = WireSegmentResponse {
            queue_wait_us: 1_250,
            service_us: 88_000,
            body: ResponseBody::Labels {
                executed_tiled: true,
                width: 3,
                height: 2,
                labels: vec![0, 1, 1, 0, 2, 2],
                telemetry: WireTelemetry {
                    cache_hits: 9,
                    cache_misses: 1,
                    cache_entries: 1,
                    cache_bytes: 123_456,
                    peak_matrix_bytes: 777,
                    backend: "simd-cpu".to_string(),
                    kernel_isa: "avx2".to_string(),
                },
            },
        };
        let decoded = WireSegmentResponse::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        assert_eq!(decoded.status(), WireStatus::Ok);
        let map = decoded.label_map().unwrap();
        assert_eq!(map.as_raw(), &[0, 1, 1, 0, 2, 2]);
    }

    #[test]
    fn error_responses_round_trip_every_status() {
        for status in [
            WireStatus::Busy,
            WireStatus::DeadlineExceeded,
            WireStatus::Invalid,
            WireStatus::Internal,
        ] {
            let response = WireSegmentResponse::error(status, "queue full", 42);
            let decoded = WireSegmentResponse::decode(&response.encode()).unwrap();
            assert_eq!(decoded.status(), status);
            assert!(decoded.label_map().is_err());
            match decoded.body {
                ResponseBody::Error { message, .. } => assert_eq!(message, "queue full"),
                ResponseBody::Labels { .. } => panic!("expected an error body"),
            }
        }
    }

    #[test]
    fn stats_requests_round_trip_and_refuse_unknown_versions() {
        let request = WireStatsRequest;
        assert_eq!(
            WireStatsRequest::decode(&request.encode()).unwrap(),
            request
        );
        let mut payload = request.encode();
        payload[0] = 9;
        assert!(matches!(
            WireStatsRequest::decode(&payload),
            Err(WireError::UnsupportedVersion(9))
        ));
        let mut long = request.encode();
        long.push(0);
        assert!(matches!(
            WireStatsRequest::decode(&long),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn stats_responses_round_trip_with_shard_lists() {
        let response = WireStatsResponse {
            uptime_ms: 123_456,
            workers: 4,
            connection: WireConnectionStats {
                requests: 10,
                responses_ok: 9,
                responses_error: 1,
            },
            server: WireServerStats {
                admitted: 40,
                responses_ok: 36,
                responses_busy: 2,
                responses_deadline: 1,
                responses_invalid: 1,
                responses_internal: 0,
                queue_wait_us: 5_000,
                service_us: 90_000,
                fused_groups: 6,
                fused_requests: 20,
                fused_coalesced: 7,
                fusion_fallbacks: 1,
                cancelled_mid_run: 3,
            },
            cache: WireCacheStats {
                hits: 35,
                misses: 3,
                evictions: 1,
                entries: 2,
                bytes: 1 << 20,
                snapshot_loaded: 2,
            },
            shards: vec![
                WireShardStats {
                    routed: 30,
                    spilled: 2,
                    stolen: 4,
                    served: 28,
                    depth: 0,
                },
                WireShardStats::default(),
            ],
        };
        let decoded = WireStatsResponse::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);

        // An empty shard list survives too.
        let empty = WireStatsResponse {
            shards: Vec::new(),
            ..response
        };
        assert_eq!(WireStatsResponse::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn truncated_stats_responses_are_typed_errors() {
        let response = WireStatsResponse {
            uptime_ms: 1,
            workers: 1,
            connection: WireConnectionStats::default(),
            server: WireServerStats::default(),
            cache: WireCacheStats::default(),
            shards: vec![WireShardStats::default()],
        };
        let payload = response.encode();
        for len in 0..payload.len() {
            assert!(
                WireStatsResponse::decode(&payload[..len]).is_err(),
                "truncation to {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn stats_encode_into_reuses_the_buffer_and_matches_encode() {
        let response = WireStatsResponse {
            uptime_ms: 7,
            workers: 2,
            connection: WireConnectionStats::default(),
            server: WireServerStats::default(),
            cache: WireCacheStats::default(),
            shards: vec![WireShardStats::default(); 2],
        };
        let mut buf = vec![0u8; 512];
        let capacity = buf.capacity();
        response.encode_into(&mut buf);
        assert_eq!(buf, response.encode());
        assert_eq!(buf.capacity(), capacity, "the allocation must be reused");
    }

    #[test]
    fn progress_payloads_round_trip() {
        let progress = WireProgress {
            request_id: 42,
            rows_done: 3,
            rows_total: 8,
            elapsed_us: 1_234_567,
        };
        let decoded = WireProgress::decode(&progress.encode()).unwrap();
        assert_eq!(decoded, progress);

        let mut buf = Vec::new();
        progress.encode_into(&mut buf);
        assert_eq!(buf, progress.encode());

        let mut payload = progress.encode();
        payload[0] = 9;
        assert!(matches!(
            WireProgress::decode(&payload),
            Err(WireError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn unknown_enum_bytes_are_typed_errors() {
        let request =
            WireSegmentRequest::from_image(&sample_config(), &sample_image(), RequestMode::Auto, 0);
        let base = request.encode().unwrap();
        // position_encoding is at a fixed offset:
        // version(2) deadline(4) seed(8) dim(4) clusters(2) iters(2)
        // alpha(8) beta(4) gamma(4) = 38; color_encoding and the mode
        // follow it at 39 and 40.
        let mut bad = base.clone();
        bad[38] = 99;
        assert!(matches!(
            WireSegmentRequest::decode(&bad),
            Err(WireError::InvalidField {
                field: "position_encoding",
                ..
            })
        ));
        let mut bad = base.clone();
        bad[39] = 99;
        assert!(matches!(
            WireSegmentRequest::decode(&bad),
            Err(WireError::InvalidField {
                field: "color_encoding",
                ..
            })
        ));
        let mut bad = base;
        bad[40] = 99;
        assert!(matches!(
            WireSegmentRequest::decode(&bad),
            Err(WireError::InvalidField { field: "mode", .. })
        ));
    }
}
