//! The threaded segmentation server.
//!
//! One accept loop, one connection thread per client, a **sharded**
//! admission queue ([`crate::shard`]) with one shard per worker, and a
//! fixed worker pool dispatching into shared [`SegEngine`]s. The contract
//! a client sees:
//!
//! * **Backpressure, not queuing collapse.** A request that fits no
//!   admission shard is answered immediately with a [`WireStatus::Busy`]
//!   frame.
//! * **Deadlines are honoured.** Each request carries a deadline; a worker
//!   that dequeues an already-expired job answers
//!   [`WireStatus::DeadlineExceeded`] without touching the engine, and the
//!   connection thread enforces the same bound as a safety net even if a
//!   worker stalls.
//! * **Panics stay inside the worker.** A panicking execution is caught
//!   and answered with [`WireStatus::Internal`]; the shared codebook cache
//!   and arena pools recover from the poisoned locks (see the
//!   `seghdc::cache` and `seghdc::engine` panic-safety tests), so the next
//!   request on the same engine is served normally.
//! * **Cache-aware scheduling, twice over.** Admission hashes each
//!   request's [`CodebookKey`] to a home shard, so same-shape traffic keeps
//!   landing on the worker whose cache path is warm; on top of that,
//!   workers dequeue *groups* of same-key requests, so a burst pays one
//!   codebook build and then hits the shared cache. Overflowing shards
//!   spill at admission and are stolen from at dispatch, so pinning never
//!   strands capacity.
//! * **One execution path.** Every dequeued group — one request, or
//!   several whose codebook key, engine configuration, execution mode and
//!   image shape agree — runs as **one** [`SegmentRequest::batch`]
//!   through `SegEngine::run_observed`: one codebook lookup, one
//!   arena-pooled plan, the engine's parallel cluster path. The per-image
//!   label maps are scattered back to each originating connection, and
//!   byte-identical pixel payloads inside a group coalesce onto a single
//!   batch image. Expired deadlines are pruned *before* the run (each
//!   pruned request still gets its `DeadlineExceeded` frame), and a failed
//!   fused batch re-runs each image alone. Knobs:
//!   [`ServerConfig::max_group`] (`1` runs every request on its own) and
//!   [`ServerConfig::fuse_window`] (a partial group waits on its shard's
//!   condvar for late fusible arrivals).
//! * **Warm starts.** [`ServerConfig::codebook_snapshot`] names a
//!   [`seghdc::snapshot`]-format file to preload the codebook cache from
//!   before the listener accepts, and [`ServerHandle::save_snapshot`]
//!   writes one back; a warm-started server serves its first same-shape
//!   request with zero cache misses.
//! * **Streaming progress and mid-run cancellation.** A request that
//!   opts in ([`WireSegmentRequest::with_progress`]) runs alone and
//!   receives a `FRAME_PROGRESS` frame per completed tile row of a tiled
//!   run before its final response; requests that never opt in keep the
//!   strict one-frame-per-request contract. Every run carries a
//!   [`CancelToken`] armed at the latest deadline in its group, so an
//!   over-budget tiled run aborts at the next tile boundary once no member
//!   can still use its answer. A lone job runs under its own token, which
//!   its connection thread also fires when the safety net abandons the
//!   job; a fused batch that fails re-runs each image under its member's
//!   own token. Aborted runs answer `DeadlineExceeded` and count each
//!   member in the `cancelled_mid_run` server stat.
//! * **Observable from outside.** A `STATS` frame returns uptime,
//!   per-connection and server-wide request/latency counters, cache
//!   counters, and per-shard routing counters (see
//!   [`crate::protocol::WireStatsResponse`]).

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use imaging::DynamicImage;
use seghdc::{
    CancelToken, CodebookCache, CodebookKey, EngineTelemetry, ExecutedMode, ExecutionMode,
    RunObserver, SegEngine, SegHdcConfig, SegHdcError, SegmentOutput, SegmentRequest,
    SnapshotError, TileConfig,
};

use crate::metrics::ServerMetrics;
use crate::protocol::{
    RequestMode, ResponseBody, WireCacheStats, WireConnectionStats, WireProgress,
    WireSegmentRequest, WireSegmentResponse, WireServerStats, WireShardStats, WireStatsRequest,
    WireStatsResponse, WireStatus, WireTelemetry,
};
use crate::queue::PushError;
use crate::shard::{key_hash, ShardedQueue};
use crate::wire::{
    checksum, read_frame_into, write_frame, WireError, DEFAULT_MAX_FRAME_BYTES, FRAME_PROGRESS,
    FRAME_REQUEST, FRAME_RESPONSE, FRAME_STATS_REQUEST, FRAME_STATS_RESPONSE,
};
use crate::ServerError;

/// Tuning knobs of a running server (see [`serve`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing segmentations; also the admission shard
    /// count (one shard per worker).
    pub workers: usize,
    /// Admission capacity **per shard**; requests beyond it spill to other
    /// shards, and get `Busy` only when every shard is full.
    pub queue_depth: usize,
    /// Largest frame accepted or produced, in bytes.
    pub max_frame_bytes: usize,
    /// Deadline applied when a request asks for `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Most same-codebook requests a worker dequeues back-to-back; also
    /// the largest fused engine batch. `1` turns fusion off: every group
    /// holds one request, which runs on its own with no fuse-window hold.
    pub max_group: usize,
    /// How long a worker holding a partial group waits on its own shard
    /// for late-arriving fusible jobs before executing the batch (never
    /// past the group's earliest deadline). Zero (the default) disables
    /// the wait entirely: a group is whatever one dequeue found, and no
    /// request ever idles on the window.
    pub fuse_window: Duration,
    /// Most distinct engine configurations kept resident; the least
    /// recently used engine is dropped beyond this (its codebooks stay in
    /// the shared cache, so resurrecting it later is cheap).
    pub max_engines: usize,
    /// Byte capacity of the codebook cache shared by every engine.
    pub codebook_cache_bytes: usize,
    /// Snapshot file to warm-start the codebook cache from before the
    /// listener accepts. A missing file is a normal cold start (first
    /// boot); an existing-but-corrupt file refuses to start with
    /// [`ServerError::Snapshot`].
    pub codebook_snapshot: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue_depth: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_deadline: Duration::from_secs(10),
            max_group: 8,
            fuse_window: Duration::ZERO,
            max_engines: 16,
            codebook_cache_bytes: 64 << 20,
            codebook_snapshot: None,
        }
    }
}

/// What a worker sends back over a job's event channel: zero or more
/// progress updates (only when the request opted in), then exactly one
/// final response.
enum JobEvent {
    /// One completed tile row of an observed tiled run.
    Progress(WireProgress),
    /// The final response; nothing follows it.
    Done(WireSegmentResponse),
}

/// One admitted request travelling from a connection thread to a worker.
struct Job {
    request: WireSegmentRequest,
    key: CodebookKey,
    deadline: Instant,
    enqueued: Instant,
    /// Connection-scoped request sequence number (first request is `1`),
    /// echoed in every progress frame so the client can attribute them.
    id: u64,
    /// Carries progress updates and the final response back to the
    /// connection thread.
    events: mpsc::Sender<JobEvent>,
    /// Shared with the connection thread: armed from `deadline` by the
    /// worker before execution, fired by the connection thread when the
    /// safety net abandons the job.
    cancel: CancelToken,
    /// Where a test holds the worker running this job.
    #[cfg(test)]
    hold: Option<Arc<tests::Hold>>,
}

impl Job {
    /// Sends the final response. A closed receiver means the connection
    /// thread already answered (deadline safety net) or hung up; nothing
    /// to do then.
    fn answer(&self, response: WireSegmentResponse) {
        let _ = self.events.send(JobEvent::Done(response));
    }
}

/// Engines keyed by configuration, all sharing one codebook cache.
struct EngineFleet {
    engines: Mutex<Engines>,
    cache: Arc<CodebookCache>,
    max_engines: usize,
}

/// The resident engines (at most `max_engines`), each with the tick of its
/// last use.
#[derive(Default)]
struct Engines {
    resident: Vec<(Arc<SegEngine>, u64)>,
    tick: u64,
}

impl EngineFleet {
    fn new(codebook_cache_bytes: usize, max_engines: usize) -> Self {
        Self {
            engines: Mutex::new(Engines::default()),
            cache: Arc::new(CodebookCache::with_capacity(codebook_cache_bytes)),
            max_engines: max_engines.max(1),
        }
    }

    /// The engine whose configuration equals `config` (the same `==`
    /// [`fusible`] applies), building and validating it on first use. A
    /// full fleet drops its least recently used engine.
    fn engine_for(&self, config: &SegHdcConfig) -> Result<Arc<SegEngine>, SegHdcError> {
        let mut engines = self
            .engines
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        engines.tick += 1;
        let tick = engines.tick;
        if let Some((engine, last_used)) = engines
            .resident
            .iter_mut()
            .find(|(engine, _)| engine.config() == config)
        {
            *last_used = tick;
            return Ok(Arc::clone(engine));
        }
        let engine = Arc::new(
            SegEngine::builder(config.clone())
                .cache(Arc::clone(&self.cache))
                .build()?,
        );
        if engines.resident.len() >= self.max_engines {
            let victim = engines
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(index, _)| index);
            if let Some(victim) = victim {
                engines.resident.swap_remove(victim);
            }
        }
        engines.resident.push((Arc::clone(&engine), tick));
        Ok(engine)
    }

    fn cache_stats(&self) -> seghdc::CacheStats {
        self.cache.stats()
    }

    fn load_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        self.cache.load_snapshot(path)
    }

    fn save_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        self.cache.save_snapshot(path)
    }
}

/// Everything a connection thread or worker needs, behind one `Arc`.
struct ServerShared {
    config: ServerConfig,
    queue: ShardedQueue<Job>,
    fleet: EngineFleet,
    metrics: ServerMetrics,
    /// The hold a test installed, handed to every job admitted after it.
    #[cfg(test)]
    hold: Mutex<Option<Arc<tests::Hold>>>,
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serializes every codebook resident in the shared cache to `path`
    /// in the [`seghdc::snapshot`] format, returning how many codebooks
    /// were written. A later server started with
    /// [`ServerConfig::codebook_snapshot`] pointing at the file serves its
    /// first same-shape request warm.
    ///
    /// # Errors
    ///
    /// [`ServerError::Snapshot`] if writing fails.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, ServerError> {
        Ok(self.shared.fleet.save_snapshot(path)?)
    }

    /// Stops accepting, drains admitted jobs, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a server on `addr` (use port `0` for an ephemeral port).
///
/// # Errors
///
/// [`ServerError::Io`] if the listener cannot bind;
/// [`ServerError::Snapshot`] if [`ServerConfig::codebook_snapshot`] names
/// an existing file that fails to load (a missing file is a cold start,
/// not an error).
pub fn serve(addr: &str, config: ServerConfig) -> Result<ServerHandle, ServerError> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = config.workers.max(1);
    let fleet = EngineFleet::new(config.codebook_cache_bytes, config.max_engines);
    let metrics = ServerMetrics::new();

    if let Some(path) = config.codebook_snapshot.as_deref() {
        if path.exists() {
            let loaded = fleet.load_snapshot(path)?;
            metrics.record_snapshot_loaded(loaded);
        }
    }

    let shared = Arc::new(ServerShared {
        queue: ShardedQueue::new(workers, config.queue_depth),
        config,
        fleet,
        metrics,
        #[cfg(test)]
        hold: Mutex::new(None),
    });

    let worker_threads = (0..workers)
        .map(|worker| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(worker, &shared))
        })
        .collect();

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &shared);
                });
            }
        })
    };

    Ok(ServerHandle {
        local_addr,
        shutdown,
        shared,
        accept_thread: Some(accept_thread),
        workers: worker_threads,
    })
}

/// Reads frames off one connection until EOF, answering each.
fn serve_connection(mut stream: TcpStream, shared: &ServerShared) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    let max_frame_bytes = shared.config.max_frame_bytes;
    let mut connection = WireConnectionStats::default();
    // Both buffers persist across frames: the connection pays for its
    // largest request and response once instead of allocating per frame.
    let mut read_buf = Vec::new();
    let mut write_buf = Vec::new();
    loop {
        let kind = match read_frame_into(&mut stream, max_frame_bytes, &mut read_buf) {
            Ok(Some(kind)) => kind,
            // Clean EOF: the client is done.
            Ok(None) => return Ok(()),
            Err(err) => {
                // Malformed framing: answer with one Invalid frame, then
                // hang up (resynchronising a corrupt byte stream is not
                // worth guessing at).
                let response = WireSegmentResponse::error(WireStatus::Invalid, err.to_string(), 0);
                response.encode_into(&mut write_buf);
                let _ = write_frame(&mut stream, FRAME_RESPONSE, &write_buf, max_frame_bytes);
                let _ = stream.flush();
                // A frame refused for its length is still arriving, and
                // it is longer than the cap: sink the rest of it (payload
                // and 8-byte checksum), so the hang-up does not reset a
                // peer that is still writing it.
                let in_flight = match err {
                    WireError::FrameTooLarge { len, .. } => len.saturating_add(8),
                    _ => max_frame_bytes,
                };
                drain_before_close(&mut stream, in_flight);
                return Err(err);
            }
        };
        match kind {
            FRAME_REQUEST => {
                connection.requests += 1;
                let request_id = connection.requests;
                let response = {
                    let stream = &mut stream;
                    let write_buf = &mut write_buf;
                    // Progress events arrive only for requests that opted
                    // in; each is forwarded as its own frame while the
                    // final response is still in flight. A write failure
                    // is ignored here — the final-response write below
                    // reports the broken connection.
                    handle_request(&read_buf, shared, request_id, &mut |progress| {
                        progress.encode_into(write_buf);
                        let _ = write_frame(stream, FRAME_PROGRESS, write_buf, max_frame_bytes);
                        let _ = stream.flush();
                    })
                };
                match response.status() {
                    WireStatus::Ok => connection.responses_ok += 1,
                    _ => connection.responses_error += 1,
                }
                response.encode_into(&mut write_buf);
                write_frame(&mut stream, FRAME_RESPONSE, &write_buf, max_frame_bytes)?;
            }
            FRAME_STATS_REQUEST => match WireStatsRequest::decode(&read_buf) {
                Ok(WireStatsRequest) => {
                    let response = stats_response(shared, &connection);
                    response.encode_into(&mut write_buf);
                    write_frame(
                        &mut stream,
                        FRAME_STATS_RESPONSE,
                        &write_buf,
                        max_frame_bytes,
                    )?;
                }
                Err(err) => {
                    let response =
                        WireSegmentResponse::error(WireStatus::Invalid, err.to_string(), 0);
                    response.encode_into(&mut write_buf);
                    write_frame(&mut stream, FRAME_RESPONSE, &write_buf, max_frame_bytes)?;
                }
            },
            other => {
                let response = WireSegmentResponse::error(
                    WireStatus::Invalid,
                    format!("expected a request frame, got kind {other}"),
                    0,
                );
                response.encode_into(&mut write_buf);
                write_frame(&mut stream, FRAME_RESPONSE, &write_buf, max_frame_bytes)?;
            }
        }
    }
}

/// Consumes whatever the peer has already sent (bounded in bytes and
/// time) before the socket drops. Closing with unread data in the receive
/// buffer makes TCP reset the connection, which can destroy the error
/// frame still in flight and break the peer's pending write — e.g. a
/// client mid-way through sending the oversized frame that triggered the
/// rejection.
fn drain_before_close(stream: &mut TcpStream, max_bytes: usize) {
    use std::io::Read as _;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 8192];
    // Bounded in time *and* bytes: a stalling peer gets the RST after the
    // deadline instead of holding the thread, and an endlessly streaming
    // peer stops costing reads once `max_bytes` have been sunk — the
    // courtesy drain exists to let a well-behaved peer finish its
    // in-flight frame, not to tail an unbounded stream.
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut drained = 0usize;
    while Instant::now() < deadline && drained < max_bytes {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => drained += n,
            // EOF, a read timeout, or an error: nothing more in flight.
            _ => break,
        }
    }
}

/// Saturating narrowing for `u32` wire counters: a value past `u32::MAX`
/// reports the ceiling instead of silently wrapping around.
fn clamp_u32(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

/// Builds a `STATS` response from the shared counters.
fn stats_response(shared: &ServerShared, connection: &WireConnectionStats) -> WireStatsResponse {
    let metrics = shared.metrics.snapshot();
    let cache = shared.fleet.cache_stats();
    WireStatsResponse {
        uptime_ms: shared.metrics.uptime_ms(),
        workers: clamp_u32(shared.queue.shard_count() as u64),
        connection: *connection,
        server: WireServerStats {
            admitted: metrics.admitted,
            responses_ok: metrics.ok,
            responses_busy: metrics.busy,
            responses_deadline: metrics.deadline_exceeded,
            responses_invalid: metrics.invalid,
            responses_internal: metrics.internal,
            queue_wait_us: metrics.queue_wait_us,
            service_us: metrics.service_us,
            fused_groups: metrics.fused_groups,
            fused_requests: metrics.fused_requests,
            fused_coalesced: metrics.fused_coalesced,
            fusion_fallbacks: metrics.fusion_fallbacks,
            cancelled_mid_run: metrics.cancelled_mid_run,
        },
        cache: WireCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            entries: clamp_u32(cache.entries as u64),
            bytes: cache.bytes as u64,
            snapshot_loaded: clamp_u32(metrics.snapshot_codebooks_loaded),
        },
        shards: shared
            .queue
            .stats()
            .into_iter()
            .map(|shard| WireShardStats {
                routed: shard.routed,
                spilled: shard.spilled,
                stolen: shard.stolen,
                served: shard.served,
                depth: shard.depth,
            })
            .collect(),
    }
}

/// Admits one decoded request and waits (deadline-bounded) for its
/// response, handing each interleaved progress event to
/// `forward_progress` as it arrives. Every response path records itself
/// in the server metrics exactly once — as the client will see it.
fn handle_request(
    payload: &[u8],
    shared: &ServerShared,
    request_id: u64,
    forward_progress: &mut dyn FnMut(&WireProgress),
) -> WireSegmentResponse {
    let response = admit_and_wait(payload, shared, request_id, forward_progress);
    shared.metrics.record_response(
        response.status(),
        response.queue_wait_us,
        response.service_us,
    );
    response
}

fn admit_and_wait(
    payload: &[u8],
    shared: &ServerShared,
    request_id: u64,
    forward_progress: &mut dyn FnMut(&WireProgress),
) -> WireSegmentResponse {
    let request = match WireSegmentRequest::decode(payload) {
        Ok(request) => request,
        Err(err) => return WireSegmentResponse::error(WireStatus::Invalid, err.to_string(), 0),
    };
    let deadline_budget = if request.deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(u64::from(request.deadline_ms))
    };
    let enqueued = Instant::now();
    let deadline = enqueued + deadline_budget;
    let key = CodebookKey::for_shape(
        &request.config,
        request.width as usize,
        request.height as usize,
        usize::from(request.channels),
    );
    let hash = key_hash(&key);
    let cancel = CancelToken::new();
    let (events_tx, events_rx) = mpsc::channel();
    #[cfg(test)]
    let hold = lock_hold(shared).clone();
    let job = Job {
        request,
        key,
        deadline,
        enqueued,
        id: request_id,
        events: events_tx,
        cancel: cancel.clone(),
        #[cfg(test)]
        hold: hold.clone(),
    };
    match shared.queue.try_push(job, hash) {
        Ok(_shard) => {
            shared.metrics.record_admitted();
            #[cfg(test)]
            if let Some(hold) = hold {
                hold.admitted();
            }
        }
        Err(err) => {
            let (status, message) = match err {
                PushError::Full(_) => (
                    WireStatus::Busy,
                    format!(
                        "admission queue is full ({} jobs per shard across {} shards)",
                        shared.config.queue_depth,
                        shared.queue.shard_count()
                    ),
                ),
                PushError::ShutDown(_) => (WireStatus::Busy, "server is shutting down".to_string()),
            };
            return WireSegmentResponse::error(status, message, 0);
        }
    }
    // Safety net on top of the worker-side deadline check: even if every
    // worker is stuck in a long execution, the client hears back shortly
    // after its deadline. Progress events are forwarded as they arrive.
    let grace = Duration::from_millis(50);
    let give_up = deadline + grace;
    loop {
        let timeout = give_up.saturating_duration_since(Instant::now());
        match events_rx.recv_timeout(timeout) {
            Ok(JobEvent::Progress(progress)) => forward_progress(&progress),
            Ok(JobEvent::Done(response)) => return response,
            // Timed out (or the job was dropped unanswered): abandon the
            // wait, and fire the cancel token so a worker mid-run stops
            // at the next tile boundary instead of finishing work nobody
            // will read.
            Err(_) => {
                cancel.cancel();
                return WireSegmentResponse::error(
                    WireStatus::DeadlineExceeded,
                    format!("deadline of {deadline_budget:?} elapsed before a worker finished"),
                    enqueued.elapsed().as_micros() as u64,
                );
            }
        }
    }
}

/// Whether two queued jobs may run inside one fused engine batch: neither
/// opted into progress, same codebook key, same full engine
/// configuration, same execution mode, same image shape. The codebook key
/// alone is not enough — it ignores `clusters`, `iterations`, and the
/// distance metric, all of which change the label maps, so a batch mixing
/// them would silently serve wrong results. A progress-opted job runs
/// alone: only a lone job's run streams progress frames.
fn fusible(a: &Job, b: &Job) -> bool {
    !a.request.progress
        && !b.request.progress
        && a.key == b.key
        && a.request.config == b.request.config
        && a.request.mode == b.request.mode
        && a.request.channels == b.request.channels
        && a.request.width == b.request.width
        && a.request.height == b.request.height
}

/// Worker: dequeue a fusible group (own shard first, stealing when idle),
/// optionally hold it open for [`ServerConfig::fuse_window`] so late
/// same-key arrivals can join, then serve it.
fn worker_loop(worker: usize, shared: &ServerShared) {
    let max_group = shared.config.max_group;
    let window = shared.config.fuse_window;
    while let Some(mut group) = shared.queue.pop_group_for(worker, max_group, fusible) {
        if !window.is_zero() && group.len() < max_group {
            let until = fuse_hold_until(Instant::now(), window, &group);
            shared
                .queue
                .extend_group_for(worker, &mut group, max_group, until, fusible);
        }
        // serve_group re-prunes against *now*, so anything that expired
        // during the hold still gets its DeadlineExceeded frame promptly.
        serve_group(group, shared);
    }
}

/// How long a worker may hold a partial group open for late fusible
/// arrivals: the fuse window, capped at the group's earliest member
/// deadline. Without the cap, a job with 1 ms of budget left could sit
/// out a 10 ms window and miss a deadline it would otherwise have made —
/// the window exists to improve throughput, never to sacrifice a live
/// deadline.
fn fuse_hold_until(now: Instant, window: Duration, group: &[Job]) -> Instant {
    let until = now + window;
    group
        .iter()
        .map(|job| job.deadline)
        .min()
        .map_or(until, |deadline| until.min(deadline))
}

/// Serves one dequeued group: prune expired deadlines first (each pruned
/// job still gets its `DeadlineExceeded` frame), then run the survivors.
fn serve_group(group: Vec<Job>, shared: &ServerShared) {
    let live = prune_expired(group, Instant::now());
    if !live.is_empty() {
        execute(live, &shared.fleet, &shared.metrics);
    }
}

/// Splits off jobs whose deadline has already passed, answering each with
/// its `DeadlineExceeded` frame, and returns the still-live remainder.
/// Runs *before* fusion so one slow batch cannot silently eat a fast
/// client's budget.
fn prune_expired(group: Vec<Job>, now: Instant) -> Vec<Job> {
    let mut live = Vec::with_capacity(group.len());
    for job in group {
        if now >= job.deadline {
            let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
            job.answer(WireSegmentResponse::error(
                WireStatus::DeadlineExceeded,
                "deadline elapsed while queued",
                queue_wait_us,
            ));
        } else {
            live.push(job);
        }
    }
    live
}

/// Maps a wire-level execution mode onto the engine's.
fn resolve_mode(mode: RequestMode) -> Result<ExecutionMode, String> {
    match mode {
        RequestMode::Auto => Ok(ExecutionMode::Auto),
        RequestMode::WholeImage => Ok(ExecutionMode::WholeImage),
        RequestMode::Tiled {
            tile_width,
            tile_height,
            halo,
        } => TileConfig::new(tile_width as usize, tile_height as usize, halo as usize)
            .map(ExecutionMode::Tiled)
            .map_err(|err| err.to_string()),
    }
}

/// One job of a group once its pixels have moved into a batch image.
struct Member {
    /// Which batch image answers this job.
    image: usize,
    deadline: Instant,
    queue_wait_us: u64,
    /// The request id stamped on progress frames, when the request opted
    /// in.
    progress: Option<u64>,
    /// The job's own token (see [`Job::cancel`]).
    cancel: CancelToken,
    events: mpsc::Sender<JobEvent>,
    #[cfg(test)]
    hold: Option<Arc<tests::Hold>>,
}

impl Member {
    /// Sends the final response (see [`Job::answer`]).
    fn answer(&self, response: WireSegmentResponse) {
        let _ = self.events.send(JobEvent::Done(response));
    }
}

/// Runs one dequeued group, one job or several fusible ones, as one engine
/// batch through [`run_batch`]. Consumes the jobs, so each pixel buffer
/// moves (not clones) into its image. Requests of a fused group whose
/// pixel payloads are byte-identical coalesce onto a single batch image
/// and fan out from its label map — the engine is deterministic, so the
/// labels match a dedicated run exactly. A request that fails to assemble
/// answers `Invalid` alone.
fn execute(group: Vec<Job>, fleet: &EngineFleet, metrics: &ServerMetrics) {
    let first = &group[0];
    let engine = match fleet.engine_for(&first.request.config) {
        Ok(engine) => engine,
        Err(err) => return fail_group(group, &err.to_string()),
    };
    let mode = match resolve_mode(first.request.mode) {
        Ok(mode) => mode,
        Err(message) => return fail_group(group, &message),
    };

    let lone = group.len() == 1;
    let mut images: Vec<DynamicImage> = Vec::with_capacity(group.len());
    let mut digests: Vec<u64> = Vec::new();
    let mut members: Vec<Member> = Vec::with_capacity(group.len());
    for job in group {
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        let progress = job.request.progress.then_some(job.id);
        // Digest prefilter, then a full byte compare: a colliding digest
        // only costs a missed coalesce, never a wrong answer. A lone job
        // has nothing to coalesce with, so it computes no digest.
        let digest = (!lone).then(|| checksum(&[&job.request.pixels]));
        let duplicate = digest.and_then(|digest| {
            digests
                .iter()
                .position(|&d| d == digest)
                .filter(|&i| image_pixels(&images[i]) == job.request.pixels.as_slice())
        });
        let image = match duplicate {
            Some(index) => index,
            None => match job.request.into_dynamic_image() {
                Ok(image) => {
                    images.push(image);
                    digests.extend(digest);
                    images.len() - 1
                }
                Err(err) => {
                    let _ = job.events.send(JobEvent::Done(WireSegmentResponse::error(
                        WireStatus::Invalid,
                        err.to_string(),
                        queue_wait_us,
                    )));
                    continue;
                }
            },
        };
        members.push(Member {
            image,
            deadline: job.deadline,
            queue_wait_us,
            progress,
            cancel: job.cancel,
            events: job.events,
            #[cfg(test)]
            hold: job.hold,
        });
    }
    if !members.is_empty() {
        run_batch(&engine, mode, &images, members, metrics);
    }
}

/// The one engine run every group takes: `images` as one
/// [`SegmentRequest::batch`], every member answered from its image's label
/// map, panics caught.
///
/// The run's token fires at the latest member deadline, so a batch stops
/// only once no member can still use its answer. A lone member runs under
/// its own token, which its connection also fires when it gives up, and
/// streams its progress frames if it opted in; a fused batch gets a fresh
/// token. A cancelled run answers every member `DeadlineExceeded` and
/// counts each in `cancelled_mid_run`. A fused batch that errors or
/// panics re-runs each image alone through this function, under that
/// member's own token, so only the poisoned request answers with an error.
fn run_batch(
    engine: &SegEngine,
    mode: ExecutionMode,
    images: &[DynamicImage],
    members: Vec<Member>,
    metrics: &ServerMetrics,
) {
    #[cfg(test)]
    let hold = members[0].hold.clone();
    #[cfg(test)]
    if let Some(hold) = &hold {
        hold.pass(tests::HoldSite::JobStart);
    }
    let fused = members.len() > 1;
    let (cancel, progress) = match members.as_slice() {
        [lone] => (
            lone.cancel.clone(),
            lone.progress.map(|id| (id, lone.events.clone())),
        ),
        _ => (CancelToken::new(), None),
    };
    if let Some(latest) = members.iter().map(|member| member.deadline).max() {
        cancel.cancel_at(latest);
    }
    let started = Instant::now();
    let mut observer = RunObserver::new().cancel_token(cancel);
    if progress.is_some() || cfg!(test) {
        observer = observer.on_progress(move |update| {
            #[cfg(test)]
            if let Some(hold) = &hold {
                hold.pass(tests::HoldSite::TileRow);
            }
            if let Some((id, events)) = &progress {
                let _ = events.send(JobEvent::Progress(WireProgress {
                    request_id: *id,
                    rows_done: update.rows_done as u32,
                    rows_total: update.rows_total as u32,
                    elapsed_us: started.elapsed().as_micros() as u64,
                }));
            }
        });
    }
    // The engine's shared state (codebook cache, arena pool) recovers from
    // poisoned locks by design, so resuming after a caught panic is sound.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        engine.run_observed(&SegmentRequest::batch(images).mode(mode), &observer)
    }));
    let service_us = started.elapsed().as_micros() as u64;
    match outcome {
        Ok(Ok(report)) => {
            if fused {
                // Members beyond the images were answered from another
                // member's image.
                let coalesced = members.len() - images.len();
                metrics.record_fused(members.len() as u64, coalesced as u64);
            }
            let telemetry = engine.telemetry();
            // Each image's output moves into the response of the last
            // member that reads it; the coalesced duplicates before that
            // member get copies.
            let mut readers = vec![0usize; images.len()];
            for member in &members {
                readers[member.image] += 1;
            }
            let mut outputs: Vec<Option<SegmentOutput>> =
                report.outputs.into_iter().map(Some).collect();
            for member in members {
                readers[member.image] -= 1;
                let slot = &mut outputs[member.image];
                let output = if readers[member.image] == 0 {
                    slot.take()
                } else {
                    slot.clone()
                }
                .expect("only an image's last reader takes its output");
                // The batch ran as one unit, so each request is billed the
                // full batch wall time.
                member.answer(labels_response(
                    output,
                    &telemetry,
                    member.queue_wait_us,
                    service_us,
                ));
            }
        }
        Ok(Err(err)) if !fused || matches!(err, SegHdcError::Cancelled) => {
            for member in members {
                if matches!(err, SegHdcError::Cancelled) {
                    metrics.record_cancelled_mid_run();
                }
                member.answer(engine_error_response(
                    &err,
                    member.queue_wait_us,
                    service_us,
                ));
            }
        }
        Err(panic) if !fused => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            let mut response = WireSegmentResponse::error(
                WireStatus::Internal,
                format!("execution panicked: {message}"),
                members[0].queue_wait_us,
            );
            response.service_us = service_us;
            members[0].answer(response);
        }
        // The fused batch failed as a unit.
        Ok(Err(_)) | Err(_) => {
            metrics.record_fusion_fallback();
            for mut member in members {
                let image = std::slice::from_ref(&images[member.image]);
                member.image = 0;
                run_batch(engine, mode, image, vec![member], metrics);
            }
        }
    }
}

/// Answers every job in a group with the same `Invalid` message (the
/// group shares one engine configuration, so a config error is shared).
fn fail_group(group: Vec<Job>, message: &str) {
    for job in group {
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        job.answer(WireSegmentResponse::error(
            WireStatus::Invalid,
            message,
            queue_wait_us,
        ));
    }
}

/// The raw pixel bytes of an assembled image (coalescing comparisons).
fn image_pixels(image: &DynamicImage) -> &[u8] {
    match image {
        DynamicImage::Gray(img) => img.as_raw(),
        DynamicImage::Rgb(img) => img.as_raw(),
    }
}

/// Maps an engine error onto a wire status.
fn engine_error_response(
    err: &SegHdcError,
    queue_wait_us: u64,
    service_us: u64,
) -> WireSegmentResponse {
    let status = match err {
        SegHdcError::InvalidConfig { .. } => WireStatus::Invalid,
        SegHdcError::Hdc(_) | SegHdcError::Imaging(_) => WireStatus::Invalid,
        // A fired cancel token means the job's budget ran out (deadline
        // expired, or the client abandoned it) after execution started —
        // bill it as the deadline miss it is, not a server fault.
        SegHdcError::Cancelled => WireStatus::DeadlineExceeded,
        // Future engine error variants default to Internal: the request
        // may be fine and the server is not.
        _ => WireStatus::Internal,
    };
    let mut response = WireSegmentResponse::error(status, err.to_string(), queue_wait_us);
    response.service_us = service_us;
    response
}

/// Builds the `Ok` response for one segmented output, moving its label
/// map into the response.
fn labels_response(
    output: SegmentOutput,
    telemetry: &EngineTelemetry,
    queue_wait_us: u64,
    service_us: u64,
) -> WireSegmentResponse {
    let executed_tiled = matches!(output.mode, ExecutedMode::Tiled { .. });
    WireSegmentResponse {
        queue_wait_us,
        service_us,
        body: ResponseBody::Labels {
            executed_tiled,
            width: output.label_map.width() as u32,
            height: output.label_map.height() as u32,
            labels: output.label_map.into_raw(),
            telemetry: WireTelemetry {
                cache_hits: telemetry.cache_hits,
                cache_misses: telemetry.cache_misses,
                cache_entries: telemetry.cache_entries as u32,
                cache_bytes: telemetry.cache_bytes as u64,
                peak_matrix_bytes: telemetry.peak_matrix_bytes as u64,
                backend: telemetry.backend.to_string(),
                kernel_isa: telemetry.kernel_isa.to_string(),
            },
        },
    }
}

/// The hold a test installed on this server, if any.
#[cfg(test)]
fn lock_hold(shared: &ServerShared) -> std::sync::MutexGuard<'_, Option<Arc<tests::Hold>>> {
    shared
        .hold
        .lock()
        .expect("no test panics while installing a hold")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegClient;
    use imaging::GrayImage;
    use std::sync::Condvar;

    /// Where a [`Hold`] stops a worker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum HoldSite {
        /// Before a job's engine run starts.
        JobStart,
        /// After a tiled run completes a tile row, before the next tile's
        /// cancellation check.
        TileRow,
    }

    /// A gate a test puts in a worker's path: a worker that reaches its
    /// site blocks there until the test opens it, so a test occupies the
    /// worker for exactly as long as it needs, whatever the machine's
    /// speed. It also counts the jobs admitted after it was installed.
    pub(super) struct Hold {
        site: HoldSite,
        state: Mutex<HoldState>,
        changed: Condvar,
    }

    #[derive(Default)]
    struct HoldState {
        held: bool,
        open: bool,
        admitted: u64,
    }

    impl Hold {
        fn lock(&self) -> std::sync::MutexGuard<'_, HoldState> {
            self.state
                .lock()
                .expect("no thread panics holding the hold")
        }

        fn wait_until(&self, done: impl Fn(&HoldState) -> bool) {
            let mut state = self.lock();
            while !done(&state) {
                state = self
                    .changed
                    .wait(state)
                    .expect("no thread panics holding the hold");
            }
        }

        /// Blocks a worker at `site` (if it is this hold's) until opened.
        pub(super) fn pass(&self, site: HoldSite) {
            if site != self.site {
                return;
            }
            self.lock().held = true;
            self.changed.notify_all();
            self.wait_until(|state| state.open);
        }

        /// Counts one admitted job.
        pub(super) fn admitted(&self) {
            self.lock().admitted += 1;
            self.changed.notify_all();
        }

        /// Waits until a worker is blocked at the site.
        fn wait_until_held(&self) {
            self.wait_until(|state| state.held);
        }

        /// Waits until `count` jobs were admitted since installation.
        fn wait_until_admitted(&self, count: u64) {
            self.wait_until(|state| state.admitted >= count);
        }

        /// Lets every blocked and later worker through.
        fn open(&self) {
            self.lock().open = true;
            self.changed.notify_all();
        }
    }

    impl ServerHandle {
        /// Installs a hold at `site` for every job admitted from now on.
        fn hold_at(&self, site: HoldSite) -> Arc<Hold> {
            let hold = Arc::new(Hold {
                site,
                state: Mutex::new(HoldState::default()),
                changed: Condvar::new(),
            });
            *lock_hold(&self.shared) = Some(Arc::clone(&hold));
            hold
        }
    }

    fn test_config(seed: u64) -> SegHdcConfig {
        SegHdcConfig::builder()
            .dimension(256)
            .beta(2)
            .iterations(2)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn test_image(edge: usize, phase: usize) -> DynamicImage {
        let mut img = GrayImage::new(edge, edge).expect("non-empty");
        for y in 0..edge {
            for x in 0..edge {
                img.set(x, y, ((x * 7 + y * 13 + phase * 31) % 256) as u8)
                    .expect("in bounds");
            }
        }
        DynamicImage::Gray(img)
    }

    fn job_for(
        config: &SegHdcConfig,
        image: &DynamicImage,
        deadline: Instant,
    ) -> (Job, mpsc::Receiver<JobEvent>) {
        let request = WireSegmentRequest::from_image(config, image, RequestMode::WholeImage, 0);
        let key = CodebookKey::for_shape(
            &request.config,
            request.width as usize,
            request.height as usize,
            usize::from(request.channels),
        );
        let (tx, rx) = mpsc::channel();
        let job = Job {
            request,
            key,
            deadline,
            enqueued: Instant::now(),
            id: 1,
            events: tx,
            cancel: CancelToken::new(),
            hold: None,
        };
        (job, rx)
    }

    /// Skips past any progress events to the job's final response.
    fn final_response(rx: &mpsc::Receiver<JobEvent>) -> WireSegmentResponse {
        loop {
            match rx.try_recv().expect("a final response should be queued") {
                JobEvent::Done(response) => return response,
                JobEvent::Progress(_) => {}
            }
        }
    }

    #[test]
    fn expired_jobs_in_a_group_are_pruned_with_deadline_frames() {
        let config = test_config(5);
        let image = test_image(8, 0);
        let now = Instant::now();
        let (expired, expired_rx) = job_for(&config, &image, now);
        let (live, live_rx) = job_for(&config, &image, now + Duration::from_secs(60));
        let remaining = prune_expired(vec![expired, live], now);
        assert_eq!(remaining.len(), 1);
        let frame = final_response(&expired_rx);
        assert_eq!(frame.status(), WireStatus::DeadlineExceeded);
        // The live job was not answered: it is handed on to execution.
        assert!(live_rx.try_recv().is_err());
    }

    #[test]
    fn a_fused_group_scatters_byte_identical_labels_and_coalesces_duplicates() {
        let config = test_config(7);
        let fleet = EngineFleet::new(16 << 20, 4);
        let metrics = ServerMetrics::new();
        let image_a = test_image(12, 0);
        let image_b = test_image(12, 1);
        let far = Instant::now() + Duration::from_secs(60);
        let (job_a, rx_a) = job_for(&config, &image_a, far);
        let (job_b, rx_b) = job_for(&config, &image_b, far);
        let (job_dup, rx_dup) = job_for(&config, &image_a, far);
        execute(vec![job_a, job_b, job_dup], &fleet, &metrics);

        let direct = |image: &DynamicImage| {
            let engine = fleet.engine_for(&config).unwrap();
            let report = engine
                .run(&SegmentRequest::image(image).mode(ExecutionMode::WholeImage))
                .unwrap();
            report.single().label_map.as_raw().to_vec()
        };
        let expected_a = direct(&image_a);
        let expected_b = direct(&image_b);
        for (rx, expected) in [
            (rx_a, &expected_a),
            (rx_b, &expected_b),
            (rx_dup, &expected_a),
        ] {
            let response = final_response(&rx);
            assert_eq!(response.status(), WireStatus::Ok);
            let ResponseBody::Labels { labels, .. } = response.body else {
                panic!("expected a labels body");
            };
            assert_eq!(&labels, expected);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.fused_groups, 1);
        assert_eq!(snap.fused_requests, 3);
        assert_eq!(snap.fused_coalesced, 1);
        assert_eq!(snap.fusion_fallbacks, 0);
    }

    #[test]
    fn an_unassemblable_request_fails_alone_not_the_group() {
        let config = test_config(9);
        let fleet = EngineFleet::new(16 << 20, 4);
        let metrics = ServerMetrics::new();
        let far = Instant::now() + Duration::from_secs(60);
        let (good, good_rx) = job_for(&config, &test_image(8, 0), far);
        let (mut bad, bad_rx) = job_for(&config, &test_image(8, 1), far);
        // Unassemblable: the shape no longer matches the pixel buffer.
        bad.request.width = 0;
        execute(vec![good, bad], &fleet, &metrics);
        assert_eq!(final_response(&bad_rx).status(), WireStatus::Invalid);
        assert_eq!(final_response(&good_rx).status(), WireStatus::Ok);
    }

    #[test]
    fn a_fuse_window_never_holds_a_job_past_its_deadline() {
        let config = test_config(11);
        let image = test_image(8, 0);
        let now = Instant::now();
        let window = Duration::from_millis(10);

        // A job with 1 ms of budget left caps the hold at its deadline,
        // not the 10 ms window.
        let (tight, _tight_rx) = job_for(&config, &image, now + Duration::from_millis(1));
        let until = fuse_hold_until(now, window, std::slice::from_ref(&tight));
        assert_eq!(until, tight.deadline);
        assert!(until < now + window);

        // A group's *earliest* deadline governs the whole hold.
        let (lazy, _lazy_rx) = job_for(&config, &image, now + Duration::from_secs(60));
        let until = fuse_hold_until(now, window, &[tight, lazy]);
        assert_eq!(until, now + Duration::from_millis(1));

        // With only lazy deadlines the full window is available.
        let (lazy, _lazy_rx) = job_for(&config, &image, now + Duration::from_secs(60));
        assert_eq!(fuse_hold_until(now, window, &[lazy]), now + window);
    }

    #[test]
    fn drain_before_close_stops_at_the_byte_cap() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut peer = TcpStream::connect(addr).unwrap();
            peer.set_write_timeout(Some(Duration::from_millis(200)))
                .ok();
            let chunk = vec![0xABu8; 16 * 1024];
            // Push well past the drain cap; stop once the kernel buffers
            // fill (the drain under test must not need all of it).
            for _ in 0..8 {
                if peer.write_all(&chunk).is_err() {
                    break;
                }
            }
            peer
        });
        let (mut stream, _) = listener.accept().unwrap();
        // Let a first burst land so the drain has bytes to count.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        drain_before_close(&mut stream, 4096);
        // The byte cap fires on the first 8 KiB read — long before the
        // 500 ms time cap.
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "drain should stop at the byte cap, not run out the clock"
        );
        // And it genuinely stopped early: unread bytes remain.
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .ok();
        let mut probe = [0u8; 64];
        let n = stream.read(&mut probe).unwrap();
        assert!(n > 0, "data past the byte cap must be left unread");
        let _ = writer.join();
    }

    #[test]
    fn wire_counters_saturate_instead_of_wrapping() {
        assert_eq!(clamp_u32(7), 7);
        assert_eq!(clamp_u32(u64::from(u32::MAX)), u32::MAX);
        // One past the ceiling used to wrap to 0 under `as u32`.
        assert_eq!(clamp_u32(u64::from(u32::MAX) + 1), u32::MAX);
        assert_eq!(clamp_u32(u64::MAX), u32::MAX);
    }

    #[test]
    fn a_full_fleet_drops_its_least_recently_used_engine() {
        let fleet = EngineFleet::new(16 << 20, 2);
        let hot = test_config(1);
        let first_hot = fleet.engine_for(&hot).unwrap();
        let mut previous = fleet.engine_for(&test_config(2)).unwrap();
        for seed in 3..23 {
            // The hot engine is used last, so the next new configuration
            // must drop the other one.
            assert!(Arc::ptr_eq(&fleet.engine_for(&hot).unwrap(), &first_hot));
            let cold = fleet.engine_for(&test_config(seed)).unwrap();
            assert!(Arc::ptr_eq(&fleet.engine_for(&hot).unwrap(), &first_hot));
            // The dropped engine is rebuilt on its next use.
            let rebuilt = fleet.engine_for(previous.config()).unwrap();
            assert!(!Arc::ptr_eq(&rebuilt, &previous), "seed {seed}");
            previous = cold;
        }
    }

    #[test]
    fn an_abandoned_job_is_cancelled_and_billed_as_a_deadline_miss() {
        let config = test_config(13);
        let fleet = EngineFleet::new(16 << 20, 4);
        let metrics = ServerMetrics::new();
        let far = Instant::now() + Duration::from_secs(60);
        let (job, rx) = job_for(&config, &test_image(8, 0), far);
        // The connection side gave up on this job before a worker got to
        // it (deadline safety net fired).
        job.cancel.cancel();
        execute(vec![job], &fleet, &metrics);
        let response = final_response(&rx);
        assert_eq!(response.status(), WireStatus::DeadlineExceeded);
        assert_eq!(metrics.snapshot().cancelled_mid_run, 1);
    }

    #[test]
    fn an_over_deadline_fused_group_is_cancelled_and_every_member_counted() {
        let config = test_config(15);
        let fleet = EngineFleet::new(16 << 20, 4);
        let metrics = ServerMetrics::new();
        let past = Instant::now();
        let (job_a, rx_a) = job_for(&config, &test_image(8, 0), past);
        let (job_b, rx_b) = job_for(&config, &test_image(8, 1), past);
        execute(vec![job_a, job_b], &fleet, &metrics);
        for rx in [rx_a, rx_b] {
            assert_eq!(final_response(&rx).status(), WireStatus::DeadlineExceeded);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.cancelled_mid_run, 2);
        assert_eq!(snap.fusion_fallbacks, 0);

        // The batch stops only once no member can use its answer: one
        // live member keeps it running, and both members are answered.
        let far = Instant::now() + Duration::from_secs(60);
        let (expired, expired_rx) = job_for(&config, &test_image(8, 0), past);
        let (live, live_rx) = job_for(&config, &test_image(8, 1), far);
        execute(vec![expired, live], &fleet, &metrics);
        for rx in [expired_rx, live_rx] {
            assert_eq!(final_response(&rx).status(), WireStatus::Ok);
        }
    }

    // Loopback tests that need the single worker occupied while other
    // requests arrive: a hold occupies it deterministically.

    fn request(
        config: &SegHdcConfig,
        image: &DynamicImage,
        deadline_ms: u32,
    ) -> WireSegmentRequest {
        WireSegmentRequest::from_image(config, image, RequestMode::WholeImage, deadline_ms)
    }

    fn one_worker() -> ServerConfig {
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn expired_deadlines_are_answered_with_deadline_exceeded() {
        let handle = serve("127.0.0.1:0", one_worker()).unwrap();
        let hold = handle.hold_at(HoldSite::JobStart);
        let addr = handle.local_addr();

        // Occupy the single worker.
        let occupant = std::thread::spawn(move || {
            let mut client = SegClient::connect(addr).unwrap();
            client
                .segment(&request(&test_config(1), &test_image(24, 0), 30_000))
                .unwrap()
        });
        hold.wait_until_held();

        // This request's 1 ms deadline expires while it waits in the queue.
        let mut client = SegClient::connect(addr).unwrap();
        let doomed = WireSegmentRequest::from_image(
            &test_config(2),
            &test_image(16, 1),
            RequestMode::Auto,
            1,
        );
        let response = client.segment(&doomed).unwrap();
        assert_eq!(response.status(), WireStatus::DeadlineExceeded);

        hold.open();
        assert_eq!(occupant.join().unwrap().status(), WireStatus::Ok);
        handle.shutdown();
    }

    #[test]
    fn a_full_admission_queue_answers_busy() {
        let handle = serve(
            "127.0.0.1:0",
            ServerConfig {
                queue_depth: 1,
                ..one_worker()
            },
        )
        .unwrap();
        let hold = handle.hold_at(HoldSite::JobStart);
        let addr = handle.local_addr();

        // The first request occupies the worker; the second fills the
        // queue.
        let occupant = |n: usize| {
            std::thread::spawn(move || {
                let mut client = SegClient::connect(addr).unwrap();
                client
                    .segment(&request(&test_config(n as u64), &test_image(24, n), 60_000))
                    .unwrap()
            })
        };
        let first = occupant(0);
        hold.wait_until_held();
        let second = occupant(1);
        hold.wait_until_admitted(2);

        let mut client = SegClient::connect(addr).unwrap();
        let rejected = WireSegmentRequest::from_image(
            &test_config(9),
            &test_image(16, 2),
            RequestMode::Auto,
            60_000,
        );
        let response = client.segment(&rejected).unwrap();
        assert_eq!(response.status(), WireStatus::Busy);
        assert_eq!(response.service_us, 0);

        hold.open();
        for occupant in [first, second] {
            let status = occupant.join().unwrap().status();
            assert!(
                status == WireStatus::Ok || status == WireStatus::DeadlineExceeded,
                "occupant ended as {status:?}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn a_mixed_burst_is_fused_with_byte_identical_labels_per_connection() {
        let fused = serve(
            "127.0.0.1:0",
            ServerConfig {
                fuse_window: Duration::from_millis(5),
                ..one_worker()
            },
        )
        .unwrap();
        let serial = serve(
            "127.0.0.1:0",
            ServerConfig {
                max_group: 1,
                ..one_worker()
            },
        )
        .unwrap();
        let hold = fused.hold_at(HoldSite::JobStart);
        let fused_addr = fused.local_addr();

        // Occupy the fused server's single worker so the burst queues
        // behind it and dequeues as whole groups.
        let occupy = std::thread::spawn(move || {
            let mut client = SegClient::connect(fused_addr).unwrap();
            client
                .segment(&request(&test_config(51), &test_image(40, 0), 60_000))
                .unwrap()
        });
        hold.wait_until_held();

        // Mixed shapes (two codebook keys) with connection-distinct pixels,
        // so a label map scattered to the wrong connection cannot pass.
        let shapes = [
            (24usize, 24usize),
            (24, 24),
            (24, 24),
            (32, 32),
            (32, 32),
            (24, 24),
        ];
        let burst: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(n, &(w, h))| {
                std::thread::spawn(move || {
                    let mut image = GrayImage::new(w, h).unwrap();
                    for y in 0..h {
                        for x in 0..w {
                            image
                                .set(x, y, ((x * 3 + y * 5 + n * 37) % 256) as u8)
                                .unwrap();
                        }
                    }
                    let image = DynamicImage::Gray(image);
                    let mut client = SegClient::connect(fused_addr).unwrap();
                    let response = client
                        .segment(&request(&test_config(50), &image, 60_000))
                        .unwrap();
                    (image, response)
                })
            })
            .collect();
        // The occupant and the whole burst are admitted before the worker
        // moves on.
        hold.wait_until_admitted(1 + shapes.len() as u64);
        hold.open();

        let mut serial_client = SegClient::connect(serial.local_addr()).unwrap();
        for worker in burst {
            let (image, response) = worker.join().unwrap();
            assert_eq!(response.status(), WireStatus::Ok);
            // Byte-identical to the serial (`max_group: 1`) execution of
            // the exact same request.
            let serial_response = serial_client
                .segment(&request(&test_config(50), &image, 60_000))
                .unwrap();
            assert_eq!(serial_response.status(), WireStatus::Ok);
            assert_eq!(
                response.label_map().unwrap().as_raw(),
                serial_response.label_map().unwrap().as_raw()
            );
        }
        assert_eq!(occupy.join().unwrap().status(), WireStatus::Ok);

        let mut observer = SegClient::connect(fused_addr).unwrap();
        let stats = observer.stats().unwrap();
        // The queued burst dequeued as groups; at least one multi-request
        // group ran fused.
        assert!(
            stats.server.fused_groups >= 1 && stats.server.fused_requests >= 2,
            "expected fused execution, got {:?}",
            stats.server
        );
        assert_eq!(stats.server.fusion_fallbacks, 0);
        fused.shutdown();
        serial.shutdown();
    }

    #[test]
    fn a_tiled_request_for_more_clusters_than_any_tile_has_pixels_is_answered() {
        let handle = serve("127.0.0.1:0", one_worker()).unwrap();
        let mut client = SegClient::connect(handle.local_addr()).unwrap();

        // Every tile collapses to one cluster, a 1×1 tile without a halo
        // to its one pixel. The run's tables grow with the clusters the
        // tiles formed, not with tiles × the largest cluster count the
        // wire carries.
        let mut config = test_config(71);
        config.clusters = usize::from(u16::MAX);
        let image = test_image(32, 0);
        let engine = SegEngine::new(config.clone()).unwrap();
        for (edge, halo) in [(16, 2), (1, 0)] {
            let tiled = RequestMode::Tiled {
                tile_width: edge,
                tile_height: edge,
                halo,
            };
            let response = client
                .segment(&WireSegmentRequest::from_image(&config, &image, tiled, 0))
                .unwrap();
            assert_eq!(response.status(), WireStatus::Ok, "{edge}x{edge} tiles");
            let tiles = TileConfig::square(edge as usize, halo as usize).unwrap();
            let direct = engine
                .run(&SegmentRequest::image(&image).tiled(tiles))
                .unwrap();
            assert_eq!(
                response.label_map().unwrap().as_raw(),
                direct.single().label_map.as_raw(),
                "{edge}x{edge} tiles"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn an_over_deadline_tiled_job_is_cancelled_mid_run_and_counted() {
        let handle = serve("127.0.0.1:0", one_worker()).unwrap();
        let hold = handle.hold_at(HoldSite::TileRow);
        let mut client = SegClient::connect(handle.local_addr()).unwrap();

        // A tiled run held after a tile row until its 150 ms deadline has
        // passed: the connection answers DeadlineExceeded, the deadline-
        // armed cancel token has fired, and once released the engine stops
        // at the next tile boundary instead of completing the job.
        let tiled = WireSegmentRequest::from_image(
            &test_config(23),
            &test_image(96, 0),
            RequestMode::Tiled {
                tile_width: 16,
                tile_height: 16,
                halo: 2,
            },
            150,
        );
        let response = client.segment(&tiled).unwrap();
        assert_eq!(response.status(), WireStatus::DeadlineExceeded);
        hold.open();

        // The worker recorded the abort (it lands after the client's
        // safety-net response, so poll the stats frame).
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.stats().unwrap();
            if stats.server.cancelled_mid_run >= 1 {
                break;
            }
            assert!(
                Instant::now() < give_up,
                "the worker never recorded the mid-run cancellation"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        // The aborted run poisoned nothing: the server keeps serving.
        let quick = WireSegmentRequest::from_image(
            &test_config(24),
            &test_image(16, 3),
            RequestMode::Auto,
            0,
        );
        assert_eq!(client.segment(&quick).unwrap().status(), WireStatus::Ok);
        handle.shutdown();
    }

    #[test]
    fn progress_opted_requests_do_not_fuse_and_each_streams_progress() {
        let handle = serve("127.0.0.1:0", one_worker()).unwrap();
        let hold = handle.hold_at(HoldSite::JobStart);
        let addr = handle.local_addr();

        // Occupy the single worker so the two identical requests queue
        // behind it and would dequeue as one fusible group.
        let occupant = std::thread::spawn(move || {
            let mut client = SegClient::connect(addr).unwrap();
            client
                .segment(&request(&test_config(61), &test_image(24, 0), 60_000))
                .unwrap()
        });
        hold.wait_until_held();

        let tiled = WireSegmentRequest::from_image(
            &test_config(62),
            &test_image(32, 1),
            RequestMode::Tiled {
                tile_width: 16,
                tile_height: 16,
                halo: 2,
            },
            60_000,
        );
        let opted: Vec<_> = (0..2)
            .map(|_| {
                let tiled = tiled.clone();
                std::thread::spawn(move || {
                    let mut client = SegClient::connect(addr).unwrap();
                    let mut frames = 0;
                    let response = client
                        .segment_with_progress(&tiled, |_| frames += 1)
                        .unwrap();
                    (frames, response)
                })
            })
            .collect();
        hold.wait_until_admitted(3);
        hold.open();

        for worker in opted {
            let (frames, response) = worker.join().unwrap();
            assert_eq!(response.status(), WireStatus::Ok);
            assert!(frames >= 1, "no progress frame before the final frame");
        }
        assert_eq!(occupant.join().unwrap().status(), WireStatus::Ok);
        let stats = SegClient::connect(addr).unwrap().stats().unwrap();
        assert_eq!(stats.server.fused_groups, 0);
        handle.shutdown();
    }
}
