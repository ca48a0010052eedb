//! Cache-semantics harness for the engine's persistent codebook cache at
//! the public API level: keying, byte-capacity eviction, and cross-thread
//! sharing under parallel batch requests.

use seghdc_suite::prelude::*;
use std::sync::Arc;

fn images(count: usize, edge: usize) -> Vec<DynamicImage> {
    let dataset =
        SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(edge, edge), 29, count)
            .unwrap();
    dataset.iter().map(|s| s.image).collect()
}

fn config(seed: u64) -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(512)
        .beta(4)
        .iterations(2)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn a_parallel_batch_of_one_shape_builds_codebooks_exactly_once() {
    let batch = images(6, 32);
    let engine = SegEngine::new(config(0)).unwrap();
    let first = engine.run(&SegmentRequest::batch(&batch)).unwrap();
    // Six parallel images, one shape: one miss, zero redundant builds.
    assert_eq!(first.telemetry.cache_misses, 1);
    assert_eq!(first.telemetry.cache_entries, 1);
    // The next batch is fully warm.
    let second = engine.run(&SegmentRequest::batch(&batch)).unwrap();
    assert_eq!(second.telemetry.cache_misses, 1);
    assert_eq!(second.telemetry.cache_hits, 1);
    for (a, b) in first.outputs.iter().zip(&second.outputs) {
        assert_eq!(a.label_map.as_raw(), b.label_map.as_raw());
    }
}

#[test]
fn different_seed_shape_or_encoding_misses_the_cache() {
    let image_a = images(1, 32).remove(0);
    let image_b = images(1, 24).remove(0);
    let cache = Arc::new(CodebookCache::with_capacity(usize::MAX));

    let engine = SegEngine::builder(config(0))
        .cache(Arc::clone(&cache))
        .build()
        .unwrap();
    engine.run(&SegmentRequest::image(&image_a)).unwrap();
    assert_eq!(cache.stats().misses, 1);

    // Different shape: miss.
    engine.run(&SegmentRequest::image(&image_b)).unwrap();
    assert_eq!(cache.stats().misses, 2);

    // Different seed, same shape: miss.
    let other_seed = SegEngine::builder(config(1))
        .cache(Arc::clone(&cache))
        .build()
        .unwrap();
    other_seed.run(&SegmentRequest::image(&image_a)).unwrap();
    assert_eq!(cache.stats().misses, 3);

    // Different encoding variant, same seed and shape: miss.
    let mut ablation = config(0);
    ablation.position_encoding = PositionEncoding::Random;
    let other_encoding = SegEngine::builder(ablation)
        .cache(Arc::clone(&cache))
        .build()
        .unwrap();
    other_encoding
        .run(&SegmentRequest::image(&image_a))
        .unwrap();
    assert_eq!(cache.stats().misses, 4);

    // Same seed/shape/encoding but different iteration count: HIT — the
    // codebooks do not depend on clustering parameters.
    let mut more_iterations = config(0);
    more_iterations.iterations = 5;
    let same_codebooks = SegEngine::builder(more_iterations)
        .cache(Arc::clone(&cache))
        .build()
        .unwrap();
    same_codebooks
        .run(&SegmentRequest::image(&image_a))
        .unwrap();
    assert_eq!(cache.stats().misses, 4);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn byte_capacity_bounds_the_cache_and_evicts_lru_first() {
    let image_a = images(1, 32).remove(0);
    let image_b = images(1, 28).remove(0);
    let image_c = images(1, 24).remove(0);

    // Measure one entry, then bound the engine cache to roughly two.
    let probe = SegEngine::new(config(0)).unwrap();
    probe.run(&SegmentRequest::image(&image_a)).unwrap();
    let one_entry = probe.telemetry().cache_bytes;
    assert!(one_entry > 0);

    let engine = SegEngine::builder(config(0))
        .codebook_cache_bytes(one_entry * 2 + one_entry / 2)
        .build()
        .unwrap();
    engine.run(&SegmentRequest::image(&image_a)).unwrap();
    engine.run(&SegmentRequest::image(&image_b)).unwrap();
    // Touch A so B is the least recently used, then insert C.
    engine.run(&SegmentRequest::image(&image_a)).unwrap();
    engine.run(&SegmentRequest::image(&image_c)).unwrap();
    let telemetry = engine.telemetry();
    assert_eq!(telemetry.cache_evictions, 1);
    assert!(telemetry.cache_bytes <= one_entry * 2 + one_entry / 2);

    // A must still be resident (recently used), B must rebuild.
    engine.run(&SegmentRequest::image(&image_a)).unwrap();
    assert_eq!(engine.telemetry().cache_misses, 3);
    engine.run(&SegmentRequest::image(&image_b)).unwrap();
    assert_eq!(engine.telemetry().cache_misses, 4);
}

#[test]
fn one_engine_is_shareable_across_request_threads() {
    let batch = images(2, 24);
    let engine = Arc::new(SegEngine::new(config(0)).unwrap());
    let mut label_maps = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let batch = &batch;
                scope.spawn(move || {
                    engine
                        .run(&SegmentRequest::batch(batch))
                        .unwrap()
                        .outputs
                        .into_iter()
                        .map(|o| o.label_map)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            label_maps.push(handle.join().unwrap());
        }
    });
    // One codebook build total, shared by every thread; identical outputs.
    assert_eq!(engine.telemetry().cache_misses, 1);
    assert_eq!(engine.telemetry().cache_hits, 3);
    for maps in &label_maps[1..] {
        for (a, b) in label_maps[0].iter().zip(maps) {
            assert_eq!(a.as_raw(), b.as_raw());
        }
    }
}
