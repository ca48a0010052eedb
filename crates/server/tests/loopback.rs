//! End-to-end loopback tests: a real listener, real sockets, real workers.

use std::path::PathBuf;

use imaging::{DynamicImage, GrayImage};
use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
use seghdc_server::{
    serve, RequestMode, ResponseBody, SegClient, ServerConfig, ServerError, WireProgress,
    WireSegmentRequest, WireStatus,
};

fn test_config(seed: u64) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(512)
        .beta(4)
        .iterations(3)
        .seed(seed)
        .build()
        .unwrap()
}

fn gradient_image(width: usize, height: usize) -> DynamicImage {
    let mut img = GrayImage::new(width, height).unwrap();
    for y in 0..height {
        for x in 0..width {
            img.set(x, y, (((x + y) * 255) / (width + height - 1)) as u8)
                .unwrap();
        }
    }
    DynamicImage::Gray(img)
}

/// A config whose tile rows take long enough to stream as separate
/// progress frames.
fn slow_config(seed: u64) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(4096)
        .beta(4)
        .iterations(10)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn served_labels_are_byte_identical_to_a_direct_engine_run() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SegClient::connect(handle.local_addr()).unwrap();

    let config = test_config(7);
    let image = gradient_image(48, 32);
    let request = WireSegmentRequest::from_image(&config, &image, RequestMode::Auto, 0);
    let response = client.segment(&request).unwrap();
    assert_eq!(response.status(), WireStatus::Ok);
    let served = response.label_map().unwrap();

    let engine = SegEngine::new(config).unwrap();
    let direct = engine.run(&SegmentRequest::image(&image)).unwrap();
    assert_eq!(served.as_raw(), direct.single().label_map.as_raw());

    // The telemetry envelope travels with the labels.
    match &response.body {
        ResponseBody::Labels { telemetry, .. } => {
            assert_eq!(telemetry.cache_misses, 1);
            assert!(!telemetry.kernel_isa.is_empty());
            assert!(!telemetry.backend.is_empty());
        }
        ResponseBody::Error { .. } => panic!("expected labels"),
    }
    handle.shutdown();
}

#[test]
fn forced_modes_round_trip_through_the_server() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SegClient::connect(handle.local_addr()).unwrap();
    let config = test_config(11);
    let image = gradient_image(64, 48);

    let whole = client
        .segment(&WireSegmentRequest::from_image(
            &config,
            &image,
            RequestMode::WholeImage,
            0,
        ))
        .unwrap();
    let tiled = client
        .segment(&WireSegmentRequest::from_image(
            &config,
            &image,
            RequestMode::Tiled {
                tile_width: 32,
                tile_height: 32,
                halo: 4,
            },
            0,
        ))
        .unwrap();
    match (&whole.body, &tiled.body) {
        (
            ResponseBody::Labels {
                executed_tiled: whole_tiled,
                ..
            },
            ResponseBody::Labels {
                executed_tiled: tiled_tiled,
                ..
            },
        ) => {
            assert!(!whole_tiled);
            assert!(tiled_tiled);
        }
        _ => panic!("expected labels from both modes"),
    }
    handle.shutdown();
}

#[test]
fn oversized_frames_get_an_invalid_frame_then_eof() {
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_frame_bytes: 4096,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The client's own cap must be larger, or it would refuse to send.
    let mut client = SegClient::connect(handle.local_addr())
        .unwrap()
        .max_frame_bytes(64 << 20);

    let request = WireSegmentRequest::from_image(
        &test_config(3),
        &gradient_image(128, 128),
        RequestMode::Auto,
        0,
    );
    assert!(request.encode().unwrap().len() > 4096);
    let response = client.segment(&request).unwrap();
    assert_eq!(response.status(), WireStatus::Invalid);

    // The server hangs up after a framing violation: the next exchange
    // fails instead of hanging.
    let small = WireSegmentRequest::from_image(
        &test_config(3),
        &gradient_image(8, 8),
        RequestMode::Auto,
        0,
    );
    assert!(client.segment(&small).is_err());
    handle.shutdown();
}

#[test]
fn zero_sized_images_are_refused_with_an_invalid_frame() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SegClient::connect(handle.local_addr()).unwrap();

    let mut request = WireSegmentRequest::from_image(
        &test_config(5),
        &gradient_image(8, 8),
        RequestMode::Auto,
        0,
    );
    request.width = 0;
    request.height = 0;
    request.pixels.clear();
    let response = client.segment(&request).unwrap();
    assert_eq!(response.status(), WireStatus::Invalid);

    // The connection survives a well-framed but invalid request.
    let good = WireSegmentRequest::from_image(
        &test_config(5),
        &gradient_image(8, 8),
        RequestMode::Auto,
        0,
    );
    assert_eq!(client.segment(&good).unwrap().status(), WireStatus::Ok);
    handle.shutdown();
}

#[test]
fn concurrent_same_codebook_clients_share_one_cache_miss() {
    // Groups of one request: this test pins down the *serial* path's
    // per-request cache telemetry. The four requests carry identical
    // pixels, so the fused path would coalesce them into one engine run and
    // the cache would never be consulted four times.
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_group: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = SegClient::connect(addr).unwrap();
                let request = WireSegmentRequest::from_image(
                    &test_config(21),
                    &gradient_image(40, 40),
                    RequestMode::Auto,
                    0,
                );
                client.segment(&request).unwrap()
            })
        })
        .collect();

    let mut max_hits = 0u64;
    for client in clients {
        let response = client.join().unwrap();
        match response.body {
            ResponseBody::Labels { telemetry, .. } => {
                // The per-key build lock guarantees one build no matter
                // how the four runs interleave.
                assert_eq!(telemetry.cache_misses, 1);
                max_hits = max_hits.max(telemetry.cache_hits);
            }
            ResponseBody::Error { status, message } => {
                panic!("expected labels, got {status:?}: {message}")
            }
        }
    }
    // The last run to finish observed the other three as hits.
    assert_eq!(max_hits, 3);
    handle.shutdown();
}

/// A scratch directory under the system tempdir, removed on drop even if
/// the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("seghdc-loopback-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_snapshot_warm_started_server_serves_identical_labels_without_a_miss() {
    let dir = TempDir::new("warm");
    let path = dir.path("codebooks.sgsn");

    let config = test_config(31);
    let image = gradient_image(40, 28);
    let request = WireSegmentRequest::from_image(&config, &image, RequestMode::Auto, 0);

    // Cold server: serve once (one miss), then persist its cache.
    let cold = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SegClient::connect(cold.local_addr()).unwrap();
    let cold_response = client.segment(&request).unwrap();
    assert_eq!(cold_response.status(), WireStatus::Ok);
    let cold_labels = cold_response.label_map().unwrap();
    assert_eq!(cold.save_snapshot(&path).unwrap(), 1);
    cold.shutdown();

    // Warm server: byte-identical labels, zero cache misses.
    let warm = serve(
        "127.0.0.1:0",
        ServerConfig {
            codebook_snapshot: Some(path),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = SegClient::connect(warm.local_addr()).unwrap();
    let warm_response = client.segment(&request).unwrap();
    assert_eq!(warm_response.status(), WireStatus::Ok);
    assert_eq!(
        warm_response.label_map().unwrap().as_raw(),
        cold_labels.as_raw()
    );
    match &warm_response.body {
        ResponseBody::Labels { telemetry, .. } => {
            assert_eq!(telemetry.cache_misses, 0, "warm start must not rebuild");
            assert!(telemetry.cache_hits >= 1);
        }
        ResponseBody::Error { status, message } => {
            panic!("expected labels, got {status:?}: {message}")
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.snapshot_loaded, 1);
    assert_eq!(stats.cache.misses, 0);
    warm.shutdown();
}

#[test]
fn a_corrupt_snapshot_refuses_to_start_but_a_missing_one_is_a_cold_start() {
    let dir = TempDir::new("corrupt");

    // Corrupt file: the server must refuse to start rather than silently
    // serve cold from a file the operator believes is warm.
    let corrupt = dir.path("corrupt.sgsn");
    std::fs::write(&corrupt, b"not a snapshot at all").unwrap();
    let err = serve(
        "127.0.0.1:0",
        ServerConfig {
            codebook_snapshot: Some(corrupt),
            ..ServerConfig::default()
        },
    )
    .err()
    .expect("a corrupt snapshot must refuse to start");
    assert!(matches!(err, ServerError::Snapshot(_)), "got {err:?}");

    // Missing file: a normal first-boot cold start.
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            codebook_snapshot: Some(dir.path("never-written.sgsn")),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = SegClient::connect(handle.local_addr()).unwrap();
    let request = WireSegmentRequest::from_image(
        &test_config(32),
        &gradient_image(16, 16),
        RequestMode::Auto,
        0,
    );
    assert_eq!(client.segment(&request).unwrap().status(), WireStatus::Ok);
    assert_eq!(client.stats().unwrap().cache.snapshot_loaded, 0);
    handle.shutdown();
}

#[test]
fn a_same_key_burst_routes_to_one_shard_with_one_cache_miss() {
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Eight same-shape requests over four connections: one codebook key.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = SegClient::connect(addr).unwrap();
                let request = WireSegmentRequest::from_image(
                    &test_config(77),
                    &gradient_image(36, 36),
                    RequestMode::Auto,
                    0,
                );
                for _ in 0..2 {
                    assert_eq!(client.segment(&request).unwrap().status(), WireStatus::Ok);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let mut observer = SegClient::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.shards.len(), 4);

    // Consistent hashing pins every admission to the key's home shard.
    let routed: Vec<u64> = stats.shards.iter().map(|shard| shard.routed).collect();
    assert_eq!(routed.iter().sum::<u64>(), 8, "routing: {routed:?}");
    assert_eq!(
        routed.iter().filter(|&&count| count > 0).count(),
        1,
        "a same-key burst must land on exactly one shard: {routed:?}"
    );
    assert_eq!(stats.shards.iter().map(|s| s.spilled).sum::<u64>(), 0);
    // One burst, one codebook build.
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.server.admitted, 8);
    assert_eq!(stats.server.responses_ok, 8);
    // This observer connection has not sent any segmentation request.
    assert_eq!(stats.connection.requests, 0);
    handle.shutdown();
}

#[test]
fn stats_frames_report_connection_and_server_counters() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SegClient::connect(handle.local_addr()).unwrap();

    let good = WireSegmentRequest::from_image(
        &test_config(41),
        &gradient_image(16, 16),
        RequestMode::Auto,
        0,
    );
    assert_eq!(client.segment(&good).unwrap().status(), WireStatus::Ok);

    let mut bad = good.clone();
    bad.width = 0;
    bad.height = 0;
    bad.pixels.clear();
    assert_eq!(client.segment(&bad).unwrap().status(), WireStatus::Invalid);

    let stats = client.stats().unwrap();
    assert_eq!(stats.connection.requests, 2);
    assert_eq!(stats.connection.responses_ok, 1);
    assert_eq!(stats.connection.responses_error, 1);
    assert_eq!(stats.server.responses_ok, 1);
    assert_eq!(stats.server.responses_invalid, 1);
    assert!(stats.server.service_us > 0);
    assert_eq!(stats.workers as usize, stats.shards.len());

    // The served group shows up in exactly the shard counters.
    let served: u64 = stats.shards.iter().map(|s| s.served + s.stolen).sum();
    assert_eq!(served, 2);
    handle.shutdown();
}

#[test]
fn a_long_tiled_job_streams_progress_frames_before_its_response() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SegClient::connect(handle.local_addr()).unwrap();

    // 64×64 tiled as 16×16 → four tile rows, each slow enough to matter.
    let config = slow_config(21);
    let image = gradient_image(64, 64);
    let request = WireSegmentRequest::from_image(
        &config,
        &image,
        RequestMode::Tiled {
            tile_width: 16,
            tile_height: 16,
            halo: 2,
        },
        60_000,
    );

    let mut frames: Vec<WireProgress> = Vec::new();
    let streamed = client
        .segment_with_progress(&request, |progress| frames.push(*progress))
        .unwrap();
    assert_eq!(streamed.status(), WireStatus::Ok);

    // One frame per completed tile row, all before the final response.
    assert_eq!(frames.len(), 4, "expected one progress frame per tile row");
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.request_id, 1, "first request on this connection");
        assert_eq!(frame.rows_done, i as u32 + 1);
        assert_eq!(frame.rows_total, 4);
    }
    assert!(
        frames
            .windows(2)
            .all(|w| w[0].elapsed_us <= w[1].elapsed_us),
        "elapsed time must be monotone across progress frames"
    );

    // Observation is passive: the plain path returns identical labels.
    let plain = client.segment(&request).unwrap();
    assert_eq!(plain.status(), WireStatus::Ok);
    assert_eq!(
        streamed.label_map().unwrap().as_raw(),
        plain.label_map().unwrap().as_raw()
    );
    handle.shutdown();
}

#[test]
fn shutdown_answers_new_requests_with_busy_or_refuses_the_connection() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut client = SegClient::connect(addr).unwrap();
    let request = WireSegmentRequest::from_image(
        &test_config(4),
        &gradient_image(8, 8),
        RequestMode::Auto,
        0,
    );
    assert_eq!(client.segment(&request).unwrap().status(), WireStatus::Ok);
    handle.shutdown();
    // After shutdown the port no longer serves: either the connection is
    // refused or an admitted frame is answered Busy by the draining queue.
    if let Ok(mut client) = SegClient::connect(addr) {
        if let Ok(response) = client.segment(&request) {
            assert_eq!(response.status(), WireStatus::Busy);
        }
    }
}
