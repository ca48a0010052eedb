//! `serve-mixed` and `serve-burst`: an in-process `seghdc_server` with the
//! default `ServerConfig` on loopback, driven over `min(nproc, 2)`
//! connections.
//!
//! Every response is checked byte for byte against an in-process
//! `SegEngine` run of the same request, computed before the server starts.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use imaging::metrics::matched_binary_iou;
use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
use seghdc_server::{
    serve, RequestMode, ResponseBody, SegClient, ServerConfig, ServerHandle, WireError,
    WireSegmentRequest, WireShardStats, WireStatsResponse,
};

use crate::inputs::{self, mix, Sample};
use crate::report::{json_string, Metrics};
use crate::stats::{mean, percentile, quietest, quietest_median, sorted, Completion};
use crate::{client_threads, Outcome, RunSpec, MIB};

/// Offered load of `serve-mixed`, fixed and never derived from a measured
/// capacity, so a parent commit and its change see the same load.
const MIXED_RATE_PER_S: f64 = 250.0;
/// Frame edges of `serve-mixed`: one hot codebook key each.
const MIXED_EDGES: [usize; 3] = [32, 48, 64];
const MIXED_FRAMES_PER_EDGE: usize = 8;
/// One `serve-mixed` request in this many carries a fresh codebook seed,
/// so codebook and engine builds run on the request path.
const FRESH_EVERY: usize = 16;
/// The one `serve-burst` key: a 48² gray frame, three distinct payloads.
const BURST_EDGE: usize = 48;
const BURST_FRAMES: usize = 3;
/// Times set-up is repeated before and again after the measured window;
/// `setup_s` is the lower of the two medians. A set-up takes a few
/// milliseconds, so many repeats keep each median steady.
const SETUP_REPEATS: usize = 21;
/// Lead time between starting the client threads and the first send.
const START_LEAD: Duration = Duration::from_millis(20);

/// One distinct request and the engine's answer to it.
struct Entry {
    request: WireSegmentRequest,
    expected: Vec<u32>,
    iou: f64,
}

impl Entry {
    /// The request of `sample` under `config`, answered by `engine`.
    fn new(engine: &SegEngine, config: &SegHdcConfig, sample: &Sample) -> Self {
        let report = engine
            .run(&SegmentRequest::image(&sample.image).whole_image())
            .expect("reference run succeeds");
        let labels = &report.single().label_map;
        Self {
            request: WireSegmentRequest::from_image(
                config,
                &sample.image,
                RequestMode::WholeImage,
                0,
            ),
            expected: labels.as_raw().to_vec(),
            iou: matched_binary_iou(labels, &sample.truth).expect("same shape"),
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    /// From the scheduled send (open loop) or the send (closed loop) to
    /// the response; infinite when the request failed or was refused.
    latency_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
    /// From the actual send to the response.
    round_trip_us: f64,
    queue_wait_us: f64,
    service_us: f64,
    peak_matrix_bytes: u64,
    ok: bool,
    /// When the response arrived.
    done: Instant,
}

/// One client connection and what it measured.
struct Connection {
    addr: SocketAddr,
    client: Option<SegClient>,
    exchanges: Vec<Exchange>,
    problems: Vec<String>,
    kernel_isa: String,
}

impl Connection {
    fn open(addr: SocketAddr) -> Self {
        Self {
            addr,
            client: SegClient::connect(addr).ok(),
            exchanges: Vec::new(),
            problems: Vec::new(),
            kernel_isa: String::new(),
        }
    }

    /// Sends `entry` and records the exchange, its latency counted from
    /// `due`. A broken connection fails the request and is reopened.
    fn exchange(&mut self, entry: &Entry, due: Instant) {
        let sent = Instant::now();
        let response = match &mut self.client {
            Some(client) => client.segment(&entry.request),
            None => Err(WireError::Truncated {
                field: "connection",
            }),
        };
        let done = Instant::now();
        let mut exchange = Exchange {
            latency_ms: f64::INFINITY,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            round_trip_us: (done - sent).as_secs_f64() * 1e6,
            queue_wait_us: 0.0,
            service_us: 0.0,
            peak_matrix_bytes: 0,
            ok: false,
            done,
        };
        match response {
            Ok(response) => {
                exchange.queue_wait_us = response.queue_wait_us as f64;
                exchange.service_us = response.service_us as f64;
                match &response.body {
                    ResponseBody::Labels {
                        labels, telemetry, ..
                    } => {
                        exchange.ok = true;
                        exchange.latency_ms = (done - due).as_secs_f64() * 1e3;
                        exchange.peak_matrix_bytes = telemetry.peak_matrix_bytes;
                        if self.kernel_isa.is_empty() {
                            self.kernel_isa = telemetry.kernel_isa.clone();
                        }
                        if labels != &entry.expected {
                            self.problems.push(format!(
                                "{}x{} request (codebook seed {}): served labels differ from \
                                 the in-process engine",
                                entry.request.width,
                                entry.request.height,
                                entry.request.config.seed
                            ));
                        }
                    }
                    ResponseBody::Error { status, message } => {
                        eprintln!("request refused: {status:?}: {message}");
                    }
                }
            }
            Err(err) => {
                eprintln!("exchange failed: {err}; reconnecting");
                self.client = SegClient::connect(self.addr).ok();
            }
        }
        self.exchanges.push(exchange);
    }
}

/// Runs `body(connection_index, connection_count, connection)` on
/// `min(nproc, 2)` client threads, one connection each, after a short
/// common lead time. Returns the connections and the time from the common
/// start to the last response.
fn on_connections(
    addr: SocketAddr,
    body: impl Fn(usize, usize, Instant, &mut Connection) + Sync,
) -> (Vec<Connection>, Duration) {
    let threads = client_threads();
    let start_at = Instant::now() + START_LEAD;
    let body = &body;
    let connections = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                scope.spawn(move || {
                    let mut connection = Connection::open(addr);
                    sleep_until(start_at);
                    body(c, threads, start_at, &mut connection);
                    connection
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (connections, start_at.elapsed())
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A started server and its set-up time: starting it, connecting, and the
/// first request of every key in `warm`.
fn set_up(warm: &[&Entry]) -> (ServerHandle, Duration) {
    let start = Instant::now();
    let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("bind loopback server");
    let mut client = SegClient::connect(handle.local_addr()).expect("connect to loopback server");
    for entry in warm {
        let response = client.segment(&entry.request).expect("warm-up exchange");
        assert!(
            matches!(response.body, ResponseBody::Labels { .. }),
            "warm-up request failed: {:?}",
            response.body
        );
    }
    (handle, start.elapsed())
}

/// Starts the server [`SETUP_REPEATS`] times, keeping the last one.
fn set_up_repeatedly(warm: &[&Entry]) -> (ServerHandle, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            previous.shutdown();
        }
        let (handle, took) = set_up(warm);
        times.push(took.as_secs_f64());
        kept = Some(handle);
    }
    (kept.expect("at least one set-up"), times)
}

/// `serve-mixed`: an open loop at a fixed [`MIXED_RATE_PER_S`] over gray
/// 32²/48²/64² frames, one hot codebook key per edge, with one request in
/// [`FRESH_EVERY`] on a fresh codebook seed.
pub fn serve_mixed(spec: &RunSpec) -> Outcome {
    let config = inputs::serve_config(spec.codebook_seed);
    let frames: Vec<Sample> = MIXED_EDGES
        .iter()
        .enumerate()
        .flat_map(|(i, &edge)| {
            inputs::gray_frames(edge, spec.seed, 10 + i as u64, MIXED_FRAMES_PER_EDGE)
        })
        .collect();
    let total = (MIXED_RATE_PER_S * spec.measure.as_secs_f64()).round() as usize;

    // Request n asks for a seeded frame; every FRESH_EVERY-th request asks
    // under a codebook seed no other request uses.
    let hot_engine = SegEngine::new(config.clone()).expect("valid config");
    let mut entries: Vec<Entry> = frames
        .iter()
        .map(|frame| Entry::new(&hot_engine, &config, frame))
        .collect();
    let schedule: Vec<usize> = (0..total)
        .map(|n| {
            let frame = (mix(spec.seed, 1_000_000 + n as u64) % frames.len() as u64) as usize;
            if n % FRESH_EVERY != FRESH_EVERY - 1 {
                return frame;
            }
            let fresh = SegHdcConfig {
                seed: mix(spec.codebook_seed, (1 << 40) + n as u64),
                ..config.clone()
            };
            let engine = SegEngine::new(fresh.clone()).expect("valid config");
            entries.push(Entry::new(&engine, &fresh, &frames[frame]));
            entries.len() - 1
        })
        .collect();
    let distinct: BTreeSet<usize> = schedule.iter().copied().collect();
    let iou_mean = mean(&distinct.iter().map(|&i| entries[i].iou).collect::<Vec<_>>());

    let warm: Vec<&Entry> = (0..MIXED_EDGES.len())
        .map(|i| &entries[i * MIXED_FRAMES_PER_EDGE])
        .collect();
    let (handle, setup_times) = set_up_repeatedly(&warm);
    let addr = handle.local_addr();
    let (entries, schedule) = (&entries, &schedule);

    // Part `part` of `parts` sends its share of the schedule, request n due
    // n / rate after the part starts, spread round-robin over connections.
    let mut drive = |part: usize, parts: usize| {
        let range = total * part / parts..total * (part + 1) / parts;
        on_connections(addr, |c, connections, start_at, connection| {
            for n in range.clone().skip(c).step_by(connections) {
                let due =
                    start_at + Duration::from_secs_f64((n - range.start) as f64 / MIXED_RATE_PER_S);
                sleep_until(due);
                connection.exchange(&entries[schedule[n]], due);
            }
        })
    };
    let phases = measure_phases(spec, addr, &mut drive);
    handle.shutdown();
    let setup_s = setup_s(spec, &setup_times, &warm);
    finish(spec, phases, setup_s, iou_mean, "open")
}

/// `serve-burst`: a closed loop over `min(nproc, 2)` connections, one 48²
/// codebook key, cycling three distinct frames.
pub fn serve_burst(spec: &RunSpec) -> Outcome {
    let config = inputs::serve_config(spec.codebook_seed);
    let engine = SegEngine::new(config.clone()).expect("valid config");
    let entries: Vec<Entry> = inputs::gray_frames(BURST_EDGE, spec.seed, 20, BURST_FRAMES)
        .iter()
        .map(|frame| Entry::new(&engine, &config, frame))
        .collect();
    let iou_mean = mean(&entries.iter().map(|e| e.iou).collect::<Vec<_>>());
    let warm = [&entries[0]];
    let (handle, setup_times) = set_up_repeatedly(&warm);
    let addr = handle.local_addr();
    let entries = &entries;

    // Part `part` of `parts` runs for that share of the window.
    let mut drive = |_part: usize, parts: usize| {
        let window = spec.measure / parts as u32;
        on_connections(addr, |c, _, start_at, connection| {
            let stop = start_at + window;
            let mut n = c;
            while Instant::now() < stop {
                connection.exchange(&entries[n % BURST_FRAMES], Instant::now());
                n += 1;
            }
        })
    };
    let phases = measure_phases(spec, addr, &mut drive);
    handle.shutdown();
    let setup_s = setup_s(spec, &setup_times, &warm);
    finish(spec, phases, setup_s, iou_mean, "closed")
}

/// The measured phases of a service run.
#[derive(Default)]
struct Phases {
    untraced: Vec<Exchange>,
    untraced_elapsed: Duration,
    traced: Vec<Exchange>,
    traced_elapsed: Duration,
    /// `STATS` frames before and after each traced part.
    stats: Vec<(WireStatsResponse, WireStatsResponse)>,
    problems: Vec<String>,
    kernel_isa: String,
}

impl Phases {
    fn absorb(&mut self, connections: Vec<Connection>, traced: bool) {
        for connection in connections {
            let into = if traced {
                &mut self.traced
            } else {
                &mut self.untraced
            };
            into.extend(connection.exchanges);
            self.problems.extend(connection.problems);
            if self.kernel_isa.is_empty() {
                self.kernel_isa = connection.kernel_isa;
            }
        }
    }
}

/// Drives part `part` of `parts` of a workload's measured window.
type Drive<'a> = dyn FnMut(usize, usize) -> (Vec<Connection>, Duration) + 'a;

/// Runs the window untraced in one part, or — for a traced run — in four
/// parts alternating untraced and traced, with `STATS` frames taken around
/// each traced part.
fn measure_phases(spec: &RunSpec, addr: SocketAddr, drive: &mut Drive<'_>) -> Phases {
    let mut phases = Phases::default();
    let parts = if spec.trace { 4 } else { 1 };
    let mut observer = spec
        .trace
        .then(|| SegClient::connect(addr).expect("stats connection"));
    for part in 0..parts {
        let traced = part % 2 == 1;
        let before = traced.then(|| stats(&mut observer));
        let (connections, elapsed) = drive(part, parts);
        if let Some(before) = before {
            phases.stats.push((before, stats(&mut observer)));
            phases.traced_elapsed += elapsed;
        } else {
            phases.untraced_elapsed += elapsed;
        }
        phases.absorb(connections, traced);
    }
    phases
}

fn stats(observer: &mut Option<SegClient>) -> WireStatsResponse {
    observer
        .as_mut()
        .expect("traced runs open a stats connection")
        .stats()
        .expect("stats frame")
}

/// `setup_s` of an untraced run: `before`, the set-up times taken before
/// the measured window, and as many taken after it, each group reduced to
/// its median, and the lower median kept. A traced run reports no
/// `setup_s` and sets up only once more.
fn setup_s(spec: &RunSpec, before: &[f64], warm: &[&Entry]) -> f64 {
    if spec.trace {
        return 0.0;
    }
    let (handle, after) = set_up_repeatedly(warm);
    handle.shutdown();
    quietest_median(&[before, &after])
}

fn finish(spec: &RunSpec, phases: Phases, setup_s: f64, iou_mean: f64, generator: &str) -> Outcome {
    let mut outcome = Outcome {
        problems: phases.problems,
        ..Outcome::default()
    };
    let all = phases.untraced.iter().chain(&phases.traced);
    outcome.attempted = all.clone().count() as u64;
    outcome.failed = all.filter(|e| !e.ok).count() as u64;
    outcome.note("kernel_isa", json_string(&phases.kernel_isa));
    outcome.note("client_threads", client_threads().to_string());
    outcome.note(
        "server_workers",
        ServerConfig::default().workers.to_string(),
    );
    outcome.note("generator", json_string(generator));
    if generator == "open" {
        outcome.note("offered_rate_per_s", MIXED_RATE_PER_S.to_string());
    }
    outcome.note("setup_repeats", SETUP_REPEATS.to_string());
    outcome.note("setup_groups", "2".to_string());

    let served = |exchanges: &[Exchange]| exchanges.iter().filter(|e| e.ok).count() as f64;
    let metrics = &mut outcome.metrics;
    if !spec.trace {
        let exchanges = &phases.untraced;
        let quiet = quietest(&completions(exchanges));
        metrics.set("setup_s", setup_s);
        metrics.set("latency_p50_ms", quiet.p50_ms);
        metrics.set("throughput_per_s", quiet.per_s);
        metrics.set("ok_ratio", served(exchanges) / exchanges.len() as f64);
        metrics.set("iou_mean", iou_mean);
        outcome.note_windows(exchanges.len(), &quiet);
        outcome.note("generator_late_max_ms", late_max_ms(exchanges).to_string());
        return outcome;
    }

    metrics.set(
        "latency_p90_ms",
        quietest(&completions(&phases.untraced)).p90_ms,
    );
    let traced = &phases.traced;
    let units = traced.len().max(1) as f64;
    let p = |values: Vec<f64>, p| {
        let values = sorted(values);
        if values.is_empty() {
            0.0
        } else {
            percentile(&values, p)
        }
    };
    let queue: Vec<f64> = traced.iter().map(|e| e.queue_wait_us).collect();
    let service: Vec<f64> = traced.iter().map(|e| e.service_us).collect();
    let wire: Vec<f64> = traced
        .iter()
        .filter(|e| e.ok)
        .map(|e| e.round_trip_us - e.queue_wait_us - e.service_us)
        .collect();
    metrics.set("server.queue_wait_us.p50", p(queue.clone(), 50.0));
    metrics.set("server.queue_wait_us.p90", p(queue, 90.0));
    metrics.set("server.service_us.p50", p(service.clone(), 50.0));
    metrics.set("server.service_us.p90", p(service, 90.0));
    metrics.set("wire.overhead_us.p50", p(wire, 50.0));
    metrics.set("generator.late_max_ms", late_max_ms(traced));
    let peak = traced
        .iter()
        .map(|e| e.peak_matrix_bytes)
        .max()
        .unwrap_or(0);
    metrics.set("arena.peak_matrix_mib", peak as f64 / MIB);
    set_server_metrics(metrics, &phases.stats, units);
    metrics.set("fail_ratio", (units - served(traced)) / units);
    metrics.set(
        "trace.overhead_ratio",
        (served(traced) / phases.traced_elapsed.as_secs_f64())
            / (served(&phases.untraced) / phases.untraced_elapsed.as_secs_f64()),
    );
    outcome.note("traced_units", traced.len().to_string());
    outcome
}

/// `exchanges` as completions timed from the first response.
fn completions(exchanges: &[Exchange]) -> Vec<Completion> {
    let Some(first) = exchanges.iter().map(|e| e.done).min() else {
        return Vec::new();
    };
    exchanges
        .iter()
        .map(|e| Completion {
            at_s: (e.done - first).as_secs_f64(),
            latency_ms: e.latency_ms,
        })
        .collect()
}

/// How late the generator sent its latest request, in milliseconds.
fn late_max_ms(exchanges: &[Exchange]) -> f64 {
    exchanges.iter().map(|e| e.late_ms).fold(0.0, f64::max)
}

/// Server, fusion, shard and cache metrics from `STATS` frames taken
/// before and after each traced part.
fn set_server_metrics(
    metrics: &mut Metrics,
    stats: &[(WireStatsResponse, WireStatsResponse)],
    units: f64,
) {
    let delta = |f: &dyn Fn(&WireStatsResponse) -> u64| {
        stats
            .iter()
            .map(|(before, after)| (f(after) - f(before)) as f64)
            .sum::<f64>()
    };
    let served = delta(&|s| s.server.responses_ok).max(1.0);
    let fused = delta(&|s| s.server.fused_requests);
    metrics.set(
        "fusion.requests_per_group",
        fused / delta(&|s| s.server.fused_groups).max(1.0),
    );
    metrics.set("fusion.fused_share", fused / served);
    metrics.set(
        "fusion.coalesced_share",
        delta(&|s| s.server.fused_coalesced) / served,
    );
    metrics.set("fusion.fallbacks", delta(&|s| s.server.fusion_fallbacks));
    metrics.set("server.busy", delta(&|s| s.server.responses_busy));

    let shards = |f: fn(&WireShardStats) -> u64| delta(&|s| s.shards.iter().map(f).sum());
    metrics.set(
        "shard.stolen_share",
        shards(|s| s.stolen) / shards(|s| s.served).max(1.0),
    );
    metrics.set("shard.spilled", shards(|s| s.spilled));

    let hits = delta(&|s| s.cache.hits);
    let misses = delta(&|s| s.cache.misses);
    metrics.set("cache.hits", hits / units);
    metrics.set("cache.misses", misses / units);
    metrics.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
}
