//! Open-loop load generator for the `seghdc-server` service front-end.
//!
//! Starts an in-process server on a loopback socket, then drives it from
//! several client connections, each issuing requests on a *fixed schedule*
//! (open loop): a request's latency is measured from its **scheduled**
//! send time, so queueing delay from a server falling behind the offered
//! rate shows up in the percentiles instead of silently throttling the
//! generator — the coordinated-omission-free way to measure a service.
//!
//! The offered rate is calibrated from a short serial warm-up (60% of the
//! measured serial capacity), so the run reports a *sustained* throughput
//! rather than a collapse. Shapes are mixed (32², 48², 64² gray) to
//! exercise the shared codebook cache with several keys at once.
//!
//! Results are merged into `crates/bench/BENCH_server.json` (or
//! `SEGHDC_BENCH_JSON` when set) as:
//!
//! * `server_req`         — mean ns per sustained request (1e9 / req/s)
//! * `server_p50_latency` — median end-to-end latency, ns
//! * `server_p99_latency` — 99th-percentile end-to-end latency, ns
//!
//! with `dim` the hypervector dimension and `k` the client connection
//! count. `--quick` runs a seconds-scale smoke (serve a handful of
//! requests, assert they succeed) without touching the JSON — that is the
//! CI mode.
//!
//! `--snapshot-warm` measures the codebook-snapshot warm-start path
//! instead: first-request latency on a cold server (cache build on the
//! request path) versus a server started from a persisted snapshot, plus
//! a short sustained warm run. It records:
//!
//! * `server_cold_first` — first-request latency on a cold cache, ns
//! * `server_warm_first` — first-request latency after warm start, ns
//! * `server_warm_req`   — mean ns per request, warm serial stream
//!
//! `--quick --snapshot-warm` combines the two: a JSON-free smoke that
//! still asserts the warm-started server serves with zero cache misses.
//!
//! `--batch-burst` measures fused same-codebook batch execution instead:
//! a closed-loop burst of one-key traffic is served twice by a one-worker
//! server — once with groups of one request (the serial per-request
//! baseline) and once with fusion on plus a short batching window — and the
//! sustained req/s of both arms is reported with the fusion counters. It
//! records:
//!
//! * `server_serial_req` — mean ns per request, fusion off
//! * `server_fused_req`  — mean ns per request, fusion + window on
//!
//! `--quick --batch-burst` is the JSON-free CI smoke for the same path.
//!
//! `--progress` measures the streaming-progress and mid-run-cancellation
//! path instead: a long tiled job is driven through
//! [`SegClient::segment_with_progress`] to time the first
//! `FRAME_PROGRESS` frame, then the same job is re-sent with a deadline
//! of half its measured runtime so the worker's deadline-armed cancel
//! token aborts it mid-run. It records:
//!
//! * `server_first_progress` — ns from send to the first progress frame
//! * `server_cancel_latency` — ns past the deadline until the
//!   `DeadlineExceeded` response for the aborted run
//!
//! `--quick --progress` is the JSON-free CI smoke: it still asserts at
//! least one progress frame streamed and that the over-deadline run was
//! cancelled mid-flight (the `cancelled_mid_run` stats counter moved).

use std::path::Path;
use std::time::{Duration, Instant};

use imaging::{DynamicImage, GrayImage};
use seghdc::SegHdcConfig;
use seghdc_bench::bench_json::{merge_into_file, BenchRecord};
use seghdc_server::{
    serve, RequestMode, ResponseBody, SegClient, ServerConfig, WireSegmentRequest, WireStatus,
};

const DIMENSION: usize = 512;
const SHAPE_EDGES: [usize; 3] = [32, 48, 64];

fn load_config() -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(DIMENSION)
        .beta(4)
        .iterations(3)
        .seed(99)
        .build()
        .expect("load config is valid")
}

fn gradient_image(edge: usize) -> DynamicImage {
    let mut img = GrayImage::new(edge, edge).expect("non-empty");
    for y in 0..edge {
        for x in 0..edge {
            img.set(x, y, (((x + y) * 255) / (2 * edge - 2)) as u8)
                .expect("in bounds");
        }
    }
    DynamicImage::Gray(img)
}

/// The request mix, one per shape, reused round-robin.
fn request_mix() -> Vec<WireSegmentRequest> {
    let config = load_config();
    SHAPE_EDGES
        .iter()
        .map(|&edge| {
            WireSegmentRequest::from_image(
                &config,
                &gradient_image(edge),
                RequestMode::WholeImage,
                0,
            )
        })
        .collect()
}

struct ConnectionStats {
    /// End-to-end latencies (scheduled send → response), nanoseconds.
    latencies_ns: Vec<u64>,
    ok: usize,
    rejected: usize,
    kernel_isa: String,
}

/// Drives one connection on a fixed schedule of `count` sends spaced
/// `interval` apart.
fn drive_connection(
    addr: std::net::SocketAddr,
    start_at: Instant,
    interval: Duration,
    count: usize,
) -> ConnectionStats {
    let mut client = SegClient::connect(addr).expect("connect to loopback server");
    let mix = request_mix();
    let mut stats = ConnectionStats {
        latencies_ns: Vec::with_capacity(count),
        ok: 0,
        rejected: 0,
        kernel_isa: String::new(),
    };
    for n in 0..count {
        let scheduled = start_at + interval * n as u32;
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let response = client
            .segment(&mix[n % mix.len()])
            .expect("loopback exchange");
        stats
            .latencies_ns
            .push(scheduled.elapsed().as_nanos() as u64);
        match &response.body {
            ResponseBody::Labels { telemetry, .. } => {
                stats.ok += 1;
                if stats.kernel_isa.is_empty() {
                    stats.kernel_isa = telemetry.kernel_isa.clone();
                }
            }
            ResponseBody::Error { .. } => stats.rejected += 1,
        }
    }
    stats
}

/// One shape, one codebook key: the burst workload group fusion targets.
const BURST_EDGE: usize = 48;
/// Distinct frames cycled through the burst; repeats of a frame inside
/// one fused group exercise identical-payload coalescing.
const BURST_FRAMES: usize = 3;
/// Closed-loop client connections in the burst.
const BURST_CONNECTIONS: usize = 8;

/// Same-key burst mix: `BURST_FRAMES` distinct 48² frames.
fn burst_mix() -> Vec<WireSegmentRequest> {
    let config = load_config();
    (0..BURST_FRAMES)
        .map(|phase| {
            let mut img = GrayImage::new(BURST_EDGE, BURST_EDGE).expect("non-empty");
            for y in 0..BURST_EDGE {
                for x in 0..BURST_EDGE {
                    img.set(x, y, ((x * 7 + y * 13 + phase * 31) % 256) as u8)
                        .expect("in bounds");
                }
            }
            WireSegmentRequest::from_image(
                &config,
                &DynamicImage::Gray(img),
                RequestMode::WholeImage,
                0,
            )
        })
        .collect()
}

/// Serves the same closed-loop one-key burst with fusion off (serial
/// baseline) and on (fused batches plus a short batching window), and
/// reports the sustained req/s of both arms.
fn batch_burst(quick: bool) {
    let per_connection = if quick { 4 } else { 48 };

    // Both arms pin one worker: the burst is one codebook key, which
    // consistent hashing routes to one shard anyway, and a single worker
    // keeps the serial-versus-fused comparison free of steal noise. The
    // serial arm dequeues groups of one request, so nothing fuses.
    let run = |fuse: bool| {
        let defaults = ServerConfig::default();
        let handle = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                max_group: if fuse { defaults.max_group } else { 1 },
                fuse_window: if fuse {
                    Duration::from_micros(500)
                } else {
                    Duration::ZERO
                },
                ..defaults
            },
        )
        .expect("bind burst server");
        let addr = handle.local_addr();

        // Warm the codebook off the clock and grab the kernel ISA.
        let mut observer = SegClient::connect(addr).expect("observer connection");
        let mix = burst_mix();
        let mut kernel_isa = String::from("unknown");
        for request in &mix {
            let response = observer.segment(request).expect("warm-up exchange");
            assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
            if let ResponseBody::Labels { telemetry, .. } = &response.body {
                kernel_isa = telemetry.kernel_isa.clone();
            }
        }

        let started = Instant::now();
        let threads: Vec<_> = (0..BURST_CONNECTIONS)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = SegClient::connect(addr).expect("burst connection");
                    let mix = burst_mix();
                    for n in 0..per_connection {
                        let response = client
                            .segment(&mix[(c + n) % mix.len()])
                            .expect("burst exchange");
                        assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("burst thread");
        }
        let elapsed = started.elapsed();
        let stats = observer.stats().expect("stats frame");
        handle.shutdown();

        let rps = (BURST_CONNECTIONS * per_connection) as f64 / elapsed.as_secs_f64();
        (rps, stats, kernel_isa)
    };

    let (serial_rps, serial_stats, _) = run(false);
    let (fused_rps, fused_stats, kernel_isa) = run(true);
    assert_eq!(
        serial_stats.server.fused_requests, 0,
        "the serial arm must not fuse"
    );
    assert!(
        fused_stats.server.fused_requests > 0,
        "the fused arm never fused: {:?}",
        fused_stats.server
    );
    assert_eq!(
        fused_stats.server.fusion_fallbacks, 0,
        "the burst should never hit the fallback path"
    );

    println!(
        "batch burst ({BURST_CONNECTIONS} connections, one {BURST_EDGE}\u{b2} codebook key): \
         serial {serial_rps:.1} req/s, fused {fused_rps:.1} req/s ({:.2}x)",
        fused_rps / serial_rps
    );
    println!(
        "fusion: {} groups covering {} requests, {} coalesced, {} fallbacks",
        fused_stats.server.fused_groups,
        fused_stats.server.fused_requests,
        fused_stats.server.fused_coalesced,
        fused_stats.server.fusion_fallbacks
    );

    if quick {
        println!("server_load --quick --batch-burst: both arms served every request");
        return;
    }

    let records = vec![
        BenchRecord {
            op: "server_serial_req".to_string(),
            isa: kernel_isa.clone(),
            dim: DIMENSION,
            k: BURST_CONNECTIONS,
            ns_per_op: 1e9 / serial_rps,
        },
        BenchRecord {
            op: "server_fused_req".to_string(),
            isa: kernel_isa,
            dim: DIMENSION,
            k: BURST_CONNECTIONS,
            ns_per_op: 1e9 / fused_rps,
        },
    ];
    let path = std::env::var_os("SEGHDC_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_server.json"));
    merge_into_file(&path, &records).expect("write bench records");
    println!("recorded {} records to {}", records.len(), path.display());
}

/// Dimension of the long-tiled-job config: big hypervectors and many
/// k-means iterations make each 16×16 tile a visible unit of work, so
/// tile-row progress frames arrive well before the final response.
const PROGRESS_DIMENSION: usize = 4096;
/// Edge of the square image segmented by the progress mode (16 tile
/// rows): long enough that half a warm run clears the cancel arm's 25 ms
/// deadline floor on a fast machine.
const PROGRESS_EDGE: usize = 256;

/// The long tiled job the progress/cancel mode measures.
fn progress_request(deadline_ms: u32) -> WireSegmentRequest {
    let config = SegHdcConfig::builder()
        .dimension(PROGRESS_DIMENSION)
        .beta(4)
        .iterations(10)
        .seed(17)
        .build()
        .expect("progress config is valid");
    WireSegmentRequest::from_image(
        &config,
        &gradient_image(PROGRESS_EDGE),
        RequestMode::Tiled {
            tile_width: 16,
            tile_height: 16,
            halo: 2,
        },
        deadline_ms,
    )
}

/// Measures time-to-first-progress-frame on a long tiled job, then the
/// latency of a deadline-armed mid-run cancellation of the same job.
fn progress_mode(quick: bool) {
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind progress server");
    let mut client = SegClient::connect(handle.local_addr()).expect("progress connection");

    // Warm-up: the first run also builds the codebook, so timing it would
    // put arm 2's half-runtime deadline past a warm re-run's end.
    let warm_up = client
        .segment(&progress_request(60_000))
        .expect("warm-up exchange");
    assert_eq!(warm_up.status(), WireStatus::Ok, "{:?}", warm_up.body);

    // Arm 1: the full warm run, streaming progress. The first frame's
    // arrival time is the interactivity figure a UI cares about.
    let request = progress_request(60_000);
    let started = Instant::now();
    let mut first_progress_ns = 0u64;
    let mut frames = 0usize;
    let response = client
        .segment_with_progress(&request, |_| {
            if frames == 0 {
                first_progress_ns = started.elapsed().as_nanos() as u64;
            }
            frames += 1;
        })
        .expect("progress exchange");
    let total_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
    assert!(frames > 0, "a multi-row tiled run must stream progress");
    let kernel_isa = match &response.body {
        ResponseBody::Labels { telemetry, .. } => telemetry.kernel_isa.clone(),
        ResponseBody::Error { .. } => unreachable!("status was Ok"),
    };

    // Arm 2: the same job with half its measured runtime as the deadline —
    // guaranteed to expire mid-run at any machine speed — timing how far
    // past the deadline the client learns of the abort.
    let deadline_ms = ((total_ns / 2) / 1_000_000).max(25) as u32;
    let sent = Instant::now();
    let response = client
        .segment(&progress_request(deadline_ms))
        .expect("cancel exchange");
    let answered_ns = sent.elapsed().as_nanos() as u64;
    assert_eq!(
        response.status(),
        WireStatus::DeadlineExceeded,
        "a half-runtime deadline must expire mid-run: {:?}",
        response.body
    );
    let cancel_latency_ns = answered_ns.saturating_sub(u64::from(deadline_ms) * 1_000_000);

    // The worker recorded the abort (it can land shortly after the
    // client's safety-net response, so poll the stats frame briefly).
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats frame");
        if stats.server.cancelled_mid_run >= 1 {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "the worker never recorded a mid-run cancellation"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();

    println!(
        "progress: first frame after {:.2} ms ({frames} frames over a {:.2} ms tiled run); \
         cancel answered {:.2} ms past its {deadline_ms} ms deadline",
        first_progress_ns as f64 / 1e6,
        total_ns as f64 / 1e6,
        cancel_latency_ns as f64 / 1e6,
    );

    if quick {
        println!("server_load --quick --progress: streamed progress and cancelled mid-run");
        return;
    }

    let records = vec![
        BenchRecord {
            op: "server_first_progress".to_string(),
            isa: kernel_isa.clone(),
            dim: PROGRESS_DIMENSION,
            k: 1,
            ns_per_op: first_progress_ns as f64,
        },
        BenchRecord {
            op: "server_cancel_latency".to_string(),
            isa: kernel_isa,
            dim: PROGRESS_DIMENSION,
            k: 1,
            ns_per_op: cancel_latency_ns as f64,
        },
    ];
    let path = std::env::var_os("SEGHDC_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_server.json"));
    merge_into_file(&path, &records).expect("write bench records");
    println!("recorded {} records to {}", records.len(), path.display());
}

fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index]
}

/// Measures cold-cache versus snapshot-warm-started first-request
/// latency, then a short sustained warm stream.
fn snapshot_warm(quick: bool) {
    let dir = std::env::temp_dir().join(format!("seghdc-server-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot scratch dir");
    let path = dir.join("codebooks.sgsn");
    let mix = request_mix();

    // Cold server: the first request pays the codebook build.
    let cold = serve("127.0.0.1:0", ServerConfig::default()).expect("bind cold server");
    let mut client = SegClient::connect(cold.local_addr()).expect("cold connection");
    let cold_start = Instant::now();
    let response = client.segment(&mix[0]).expect("cold exchange");
    let cold_first_ns = cold_start.elapsed().as_nanos() as u64;
    assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
    let kernel_isa = match &response.body {
        ResponseBody::Labels { telemetry, .. } => telemetry.kernel_isa.clone(),
        ResponseBody::Error { .. } => unreachable!("status was Ok"),
    };
    // Touch every key in the mix so the snapshot carries all of them.
    for request in &mix[1..] {
        let response = client.segment(request).expect("cold exchange");
        assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
    }
    let saved = cold
        .save_snapshot(&path)
        .expect("persist codebook snapshot");
    cold.shutdown();

    // Warm server: the build cost moved off the request path to startup.
    let warm = serve(
        "127.0.0.1:0",
        ServerConfig {
            codebook_snapshot: Some(path),
            ..ServerConfig::default()
        },
    )
    .expect("bind warm server");
    let mut client = SegClient::connect(warm.local_addr()).expect("warm connection");
    let warm_start = Instant::now();
    let response = client.segment(&mix[0]).expect("warm exchange");
    let warm_first_ns = warm_start.elapsed().as_nanos() as u64;
    assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
    match &response.body {
        ResponseBody::Labels { telemetry, .. } => assert_eq!(
            telemetry.cache_misses, 0,
            "warm-started server rebuilt a codebook"
        ),
        ResponseBody::Error { .. } => unreachable!("status was Ok"),
    }

    // Short sustained warm stream for a mean ns/request figure.
    let rounds = if quick { 2 } else { 16 };
    let stream_start = Instant::now();
    for _ in 0..rounds {
        for request in &mix {
            let response = client.segment(request).expect("warm exchange");
            assert_eq!(response.status(), WireStatus::Ok, "{:?}", response.body);
        }
    }
    let warm_req_ns = stream_start.elapsed().as_nanos() as f64 / (rounds * mix.len()) as f64;
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "snapshot warm start ({saved} codebooks): cold first {:.2} ms, warm first {:.2} ms, \
         warm sustained {:.3} ms/req",
        cold_first_ns as f64 / 1e6,
        warm_first_ns as f64 / 1e6,
        warm_req_ns / 1e6
    );

    if quick {
        println!("server_load --quick --snapshot-warm: warm start served with zero misses");
        return;
    }

    let records = vec![
        BenchRecord {
            op: "server_cold_first".to_string(),
            isa: kernel_isa.clone(),
            dim: DIMENSION,
            k: 1,
            ns_per_op: cold_first_ns as f64,
        },
        BenchRecord {
            op: "server_warm_first".to_string(),
            isa: kernel_isa.clone(),
            dim: DIMENSION,
            k: 1,
            ns_per_op: warm_first_ns as f64,
        },
        BenchRecord {
            op: "server_warm_req".to_string(),
            isa: kernel_isa,
            dim: DIMENSION,
            k: 1,
            ns_per_op: warm_req_ns,
        },
    ];
    let path = std::env::var_os("SEGHDC_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_server.json"));
    merge_into_file(&path, &records).expect("write bench records");
    println!("recorded {} records to {}", records.len(), path.display());
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    if std::env::args().any(|arg| arg == "--snapshot-warm") {
        snapshot_warm(quick);
        return;
    }
    if std::env::args().any(|arg| arg == "--batch-burst") {
        batch_burst(quick);
        return;
    }
    if std::env::args().any(|arg| arg == "--progress") {
        progress_mode(quick);
        return;
    }
    let connections: usize = if quick { 2 } else { 4 };

    let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("bind loopback server");
    let addr = handle.local_addr();

    // Serial warm-up: builds the codebooks and measures serial capacity.
    let mut warm_client = SegClient::connect(addr).expect("warm-up connection");
    let mix = request_mix();
    let warm_start = Instant::now();
    let warm_rounds = 2;
    for _ in 0..warm_rounds {
        for request in &mix {
            let response = warm_client.segment(request).expect("warm-up exchange");
            assert_eq!(
                response.status(),
                WireStatus::Ok,
                "warm-up request failed: {:?}",
                response.body
            );
        }
    }
    let serial_ns = warm_start.elapsed().as_nanos() as f64 / (warm_rounds * mix.len()) as f64;

    if quick {
        // CI smoke: the warm-up already proved the loopback path; run one
        // short concurrent burst and exit without touching the JSON.
        let start_at = Instant::now() + Duration::from_millis(20);
        let interval = Duration::from_nanos((serial_ns * connections as f64) as u64);
        let threads: Vec<_> = (0..connections)
            .map(|_| std::thread::spawn(move || drive_connection(addr, start_at, interval, 8)))
            .collect();
        let mut ok = 0;
        for thread in threads {
            let stats = thread.join().expect("driver thread");
            assert_eq!(stats.rejected, 0, "smoke run saw rejected requests");
            ok += stats.ok;
        }
        handle.shutdown();
        println!("server_load --quick: {ok} requests served over {connections} connections");
        return;
    }

    // Offer 60% of serial capacity per the whole fleet: sustainable by
    // construction, so percentiles measure the service, not a collapse.
    let offered_interval_ns = (serial_ns / 0.6) * connections as f64;
    let interval = Duration::from_nanos(offered_interval_ns as u64);
    let target = Duration::from_secs(6);
    let per_connection = (target.as_nanos() as f64 / offered_interval_ns).ceil() as usize;

    let start_at = Instant::now() + Duration::from_millis(50);
    let threads: Vec<_> = (0..connections)
        .map(|_| {
            std::thread::spawn(move || drive_connection(addr, start_at, interval, per_connection))
        })
        .collect();

    let mut latencies = Vec::new();
    let mut ok = 0;
    let mut rejected = 0;
    let mut kernel_isa = String::from("unknown");
    for thread in threads {
        let stats = thread.join().expect("driver thread");
        latencies.extend(stats.latencies_ns);
        ok += stats.ok;
        rejected += stats.rejected;
        if !stats.kernel_isa.is_empty() {
            kernel_isa = stats.kernel_isa;
        }
    }
    let elapsed = start_at.elapsed();
    handle.shutdown();

    latencies.sort_unstable();
    let total = ok + rejected;
    let rps = ok as f64 / elapsed.as_secs_f64();
    let p50 = percentile_ns(&latencies, 0.50);
    let p99 = percentile_ns(&latencies, 0.99);

    println!(
        "sustained: {rps:.1} req/s over {connections} connections ({ok}/{total} ok, \
         {rejected} rejected) in {:.1}s",
        elapsed.as_secs_f64()
    );
    println!(
        "latency: p50 {:.2} ms, p99 {:.2} ms (from scheduled send time)",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6
    );

    let records = vec![
        BenchRecord {
            op: "server_req".to_string(),
            isa: kernel_isa.clone(),
            dim: DIMENSION,
            k: connections,
            ns_per_op: 1e9 / rps,
        },
        BenchRecord {
            op: "server_p50_latency".to_string(),
            isa: kernel_isa.clone(),
            dim: DIMENSION,
            k: connections,
            ns_per_op: p50 as f64,
        },
        BenchRecord {
            op: "server_p99_latency".to_string(),
            isa: kernel_isa,
            dim: DIMENSION,
            k: connections,
            ns_per_op: p99 as f64,
        },
    ];
    let path = std::env::var_os("SEGHDC_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_server.json"));
    merge_into_file(&path, &records).expect("write bench records");
    println!("recorded {} records to {}", records.len(), path.display());
}
