//! Persistent codebook cache: an LRU of built [`PixelEncoder`]s shared
//! across calls and threads.
//!
//! Building the position and colour codebooks is the per-request fixed cost
//! of every segmentation path — for a 1024×1024 request at `d = 10 000`
//! it allocates a few megabytes of hypervectors and dominates small-image
//! latency. The codebooks depend only on the configuration (seed, dimension,
//! α, β, γ, encoding variants) and the image shape, never on pixel data, so
//! a long-running service can reuse them across requests. [`CodebookCache`]
//! is that reuse: a byte-capacity-bounded, least-recently-used map from
//! [`CodebookKey`] to [`Arc<PixelEncoder>`], safe to share across threads
//! (every [`crate::SegEngine`] holds one behind an `Arc`, and
//! [`crate::SegEngineBuilder::cache`] lets several engines share a single
//! cache).

use crate::snapshot::{Snapshot, SnapshotError};
use crate::sync::lock_unpoisoned;
use crate::{ColorEncoding, PixelEncoder, PositionEncoding, Result, SegHdcConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identity of one built codebook set: everything
/// [`PixelEncoder::for_shape`] derives the codebooks from, and nothing
/// else.
///
/// Two configurations that agree on these fields produce bit-identical
/// encoders, so a cache hit is exact — no tolerance, no revalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodebookKey {
    /// RNG seed every codebook is derived from.
    pub seed: u64,
    /// Hypervector dimensionality `d`.
    pub dimension: usize,
    /// Image width the position codebook is built for.
    pub width: usize,
    /// Image height the position codebook is built for.
    pub height: usize,
    /// Colour channel count the colour codebook is built for.
    pub channels: usize,
    /// Bit pattern of the decay factor `α` (bit-compared: `0.2` and the
    /// nearest representable neighbour are different codebooks).
    pub alpha_bits: u64,
    /// Block size `β`.
    pub beta: usize,
    /// Colour weighting `γ`.
    pub gamma: usize,
    /// Position-encoding variant.
    pub position_encoding: PositionEncoding,
    /// Colour-encoding variant.
    pub color_encoding: ColorEncoding,
}

impl CodebookKey {
    /// The cache key for `config`'s codebooks built at a
    /// `width × height × channels` image shape.
    pub fn for_shape(config: &SegHdcConfig, width: usize, height: usize, channels: usize) -> Self {
        Self {
            seed: config.seed,
            dimension: config.dimension,
            width,
            height,
            channels,
            alpha_bits: config.alpha.to_bits(),
            beta: config.beta,
            gamma: config.gamma,
            position_encoding: config.position_encoding,
            color_encoding: config.color_encoding,
        }
    }
}

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident encoder.
    pub hits: u64,
    /// Lookups that had to build the encoder.
    pub misses: u64,
    /// Entries dropped to stay within the byte capacity.
    pub evictions: u64,
    /// Encoders currently resident.
    pub entries: usize,
    /// Codebook bytes currently resident.
    pub bytes: usize,
}

struct CacheEntry {
    encoder: Arc<PixelEncoder>,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<CodebookKey, CacheEntry>,
    /// Per-key build locks: concurrent same-key misses serialize on these
    /// (outside the main mutex) so a slow build never blocks hits or
    /// builds for other keys.
    building: HashMap<CodebookKey, Arc<Mutex<()>>>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheInner {
    /// Fast path: bump recency and return the resident encoder, if any.
    fn lookup(&mut self, key: &CodebookKey) -> Option<Arc<PixelEncoder>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.last_used = tick;
            let encoder = Arc::clone(&entry.encoder);
            self.hits += 1;
            return Some(encoder);
        }
        None
    }
}

/// Byte-capacity-bounded LRU cache of built [`PixelEncoder`]s.
///
/// * **Keying** — exact equality on [`CodebookKey`]: any change to the
///   seed, shape, dimension or encoding parameters is a different entry.
/// * **Eviction** — when resident codebook bytes (measured with
///   [`PixelEncoder::codebook_bytes`]) exceed the capacity, the
///   least-recently-used entries are dropped, oldest first, until the cache
///   fits. The entry being inserted or returned is never evicted by its own
///   insertion, so a single oversized codebook still gets built and handed
///   out (with everything else evicted) rather than failing.
/// * **Sharing** — the map sits behind one internal mutex and `&self`
///   methods make the cache freely shareable across threads, but codebook
///   **builds run outside that mutex** under a per-key build lock:
///   concurrent requests for the same key construct the encoder once (the
///   waiters pick up the resident `Arc`), while lookups and builds for
///   other keys proceed unblocked.
pub struct CodebookCache {
    capacity_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for CodebookCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CodebookCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &stats)
            .finish()
    }
}

impl CodebookCache {
    /// Creates an empty cache bounded at `capacity_bytes` of resident
    /// codebooks.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                building: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Returns the encoder for `key`, building it with `build` on a miss.
    ///
    /// The build runs **outside** the cache-wide lock, serialized only
    /// against same-key builders: concurrent callers asking for the same
    /// key construct the codebooks once (the rest pick up the resident
    /// encoder when the builder finishes), while hits and builds for other
    /// keys proceed unblocked.
    ///
    /// # Errors
    ///
    /// Propagates the error from `build`; nothing is cached on failure
    /// (the next caller for the key retries the build).
    ///
    /// # Panic safety
    ///
    /// A `build` closure that **panics** leaves the cache fully
    /// serviceable: the panic propagates to the caller, but the key's
    /// build registration is removed on the way out (a drop guard) and
    /// both the per-key build lock and the cache-wide lock recover from
    /// poisoning, so the next caller for the same key simply retries the
    /// build. Waiters already queued on the panicking builder's key lock
    /// retry too (at worst a post-panic burst builds the encoder more than
    /// once; the byte accounting stays exact either way).
    pub fn get_or_build(
        &self,
        key: CodebookKey,
        build: impl FnOnce() -> Result<PixelEncoder>,
    ) -> Result<Arc<PixelEncoder>> {
        // Fast path, and registration of the intent to build on a miss.
        let key_lock = {
            let mut inner = lock_unpoisoned(&self.inner);
            if let Some(encoder) = inner.lookup(&key) {
                return Ok(encoder);
            }
            Arc::clone(inner.building.entry(key).or_default())
        };

        // The `Mutex<()>` guards no data, so recovering from a previous
        // builder's panic is trivially sound.
        let _build_guard = key_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Re-check: the builder we waited on may have inserted the entry.
        {
            let mut inner = lock_unpoisoned(&self.inner);
            if let Some(encoder) = inner.lookup(&key) {
                return Ok(encoder);
            }
            inner.misses += 1;
        }

        // Deregister the build intent however this call exits — success,
        // error, or a panic unwinding out of `build` — so a failed builder
        // can never wedge its key for every future request.
        let _unregister = UnregisterBuild {
            cache: self,
            key,
            lock: &key_lock,
        };

        // The expensive part, with no cache-wide lock held.
        let built = build();

        let mut inner = lock_unpoisoned(&self.inner);
        let encoder = Arc::new(built?);
        let bytes = encoder.codebook_bytes();
        let tick = inner.tick;
        inner.bytes += bytes;
        if let Some(previous) = inner.entries.insert(
            key,
            CacheEntry {
                encoder: Arc::clone(&encoder),
                bytes,
                last_used: tick,
            },
        ) {
            // Lost a (rare) race with another builder for the same key:
            // keep the byte accounting exact.
            inner.bytes -= previous.bytes;
        }
        Self::evict_to_capacity(&mut inner, self.capacity_bytes, &key);
        Ok(encoder)
    }

    /// Drops least-recently-used entries (never `protect`) until the
    /// resident bytes fit the capacity.
    fn evict_to_capacity(inner: &mut CacheInner, capacity: usize, protect: &CodebookKey) {
        while inner.bytes > capacity && inner.entries.len() > 1 {
            let Some(victim) = inner
                .entries
                .iter()
                .filter(|(key, _)| *key != protect)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            if let Some(entry) = inner.entries.remove(&victim) {
                inner.bytes -= entry.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// Whether `key` is currently resident (does not touch recency).
    pub fn contains(&self, key: &CodebookKey) -> bool {
        lock_unpoisoned(&self.inner).entries.contains_key(key)
    }

    /// Snapshot of the hit/miss/eviction counters and resident footprint.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_unpoisoned(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            bytes: inner.bytes,
        }
    }

    /// Drops every resident encoder (the counters are kept).
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.entries.clear();
        inner.bytes = 0;
    }

    /// Exports every resident codebook into a [`Snapshot`], ordered by a
    /// canonical key sort so the serialized bytes are stable across runs
    /// (the backing map iterates in arbitrary order).
    pub fn export_snapshot(&self) -> Snapshot {
        let mut resident: Vec<(CodebookKey, Arc<PixelEncoder>)> = {
            let inner = lock_unpoisoned(&self.inner);
            inner
                .entries
                .iter()
                .map(|(key, entry)| (*key, Arc::clone(&entry.encoder)))
                .collect()
        };
        resident.sort_by_key(|(key, _)| key_sort_order(key));
        let mut snapshot = Snapshot::new();
        for (key, encoder) in resident {
            snapshot
                .push_codebook(key, encoder)
                .expect("resident entries were built for their own key");
        }
        snapshot
    }

    /// Installs a snapshot's codebooks as resident entries, returning how
    /// many were installed.
    ///
    /// Loaded entries count as neither hits nor misses — the stats keep
    /// describing request traffic, and a warm-started server's first
    /// same-shape request reports zero cache misses. Entries already
    /// resident for a key are replaced (byte accounting stays exact), and
    /// the usual LRU eviction applies if the snapshot overflows the
    /// capacity: codebooks early in the snapshot are evicted first.
    pub fn install_snapshot(&self, snapshot: &Snapshot) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let mut installed = 0;
        for (key, encoder) in snapshot.codebooks() {
            inner.tick += 1;
            let tick = inner.tick;
            let bytes = encoder.codebook_bytes();
            inner.bytes += bytes;
            if let Some(previous) = inner.entries.insert(
                *key,
                CacheEntry {
                    encoder: Arc::clone(encoder),
                    bytes,
                    last_used: tick,
                },
            ) {
                inner.bytes -= previous.bytes;
            }
            Self::evict_to_capacity(&mut inner, self.capacity_bytes, key);
            installed += 1;
        }
        installed
    }

    /// Serializes every resident codebook to `path` in the
    /// [`snapshot`](crate::snapshot) format, returning how many codebooks
    /// were written.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if writing the file fails.
    pub fn save_snapshot(
        &self,
        path: &std::path::Path,
    ) -> std::result::Result<usize, SnapshotError> {
        let snapshot = self.export_snapshot();
        let count = snapshot.codebooks().len();
        snapshot.save(path)?;
        Ok(count)
    }

    /// Restores codebooks from a snapshot file written by
    /// [`save_snapshot`](Self::save_snapshot), returning how many were
    /// installed (see [`install_snapshot`](Self::install_snapshot) for the
    /// stats and eviction semantics).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O failure (including a missing file),
    /// corruption, or an oversized file.
    pub fn load_snapshot(
        &self,
        path: &std::path::Path,
    ) -> std::result::Result<usize, SnapshotError> {
        let snapshot = Snapshot::load(path)?;
        Ok(self.install_snapshot(&snapshot))
    }
}

/// A canonical total order over [`CodebookKey`]s for byte-stable exports.
fn key_sort_order(
    key: &CodebookKey,
) -> (u64, usize, usize, usize, usize, u64, usize, usize, u8, u8) {
    (
        key.seed,
        key.dimension,
        key.width,
        key.height,
        key.channels,
        key.alpha_bits,
        key.beta,
        key.gamma,
        key.position_encoding as u8,
        key.color_encoding as u8,
    )
}

/// Removes a builder's `building` registration when it goes out of scope —
/// including by panic, which is the whole point: a panicking `build`
/// closure must not leave a stale entry (and its poisoned lock) wedging
/// the key.
///
/// The removal is identity-checked: only the exact lock this builder
/// registered is removed, so a later builder that re-registered the key
/// after a panic is left undisturbed.
struct UnregisterBuild<'a> {
    cache: &'a CodebookCache,
    key: CodebookKey,
    lock: &'a Arc<Mutex<()>>,
}

impl Drop for UnregisterBuild<'_> {
    fn drop(&mut self) {
        let mut inner = lock_unpoisoned(&self.cache.inner);
        if inner
            .building
            .get(&self.key)
            .is_some_and(|registered| Arc::ptr_eq(registered, self.lock))
        {
            inner.building.remove(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> SegHdcConfig {
        SegHdcConfig::builder()
            .dimension(256)
            .beta(2)
            .iterations(1)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn build_for(config: &SegHdcConfig, width: usize, height: usize) -> PixelEncoder {
        PixelEncoder::for_shape(config, width, height, 1).unwrap()
    }

    #[test]
    fn keys_differ_by_seed_shape_and_encoding() {
        let base = config(0);
        let key = CodebookKey::for_shape(&base, 16, 16, 1);
        assert_eq!(key, CodebookKey::for_shape(&base, 16, 16, 1));
        assert_ne!(key, CodebookKey::for_shape(&config(1), 16, 16, 1));
        assert_ne!(key, CodebookKey::for_shape(&base, 17, 16, 1));
        assert_ne!(key, CodebookKey::for_shape(&base, 16, 17, 1));
        assert_ne!(key, CodebookKey::for_shape(&base, 16, 16, 3));
        let mut other = base.clone();
        other.position_encoding = PositionEncoding::Random;
        assert_ne!(key, CodebookKey::for_shape(&other, 16, 16, 1));
        let mut other = base.clone();
        other.color_encoding = ColorEncoding::Random;
        assert_ne!(key, CodebookKey::for_shape(&other, 16, 16, 1));
        let mut other = base.clone();
        other.dimension = 512;
        assert_ne!(key, CodebookKey::for_shape(&other, 16, 16, 1));
        let mut other = base.clone();
        other.alpha = 0.21;
        assert_ne!(key, CodebookKey::for_shape(&other, 16, 16, 1));
        // Iterations/clusters/snapshots do NOT affect the codebooks and must
        // not fragment the cache.
        let mut other = base.clone();
        other.iterations = 9;
        other.clusters = 3;
        other.record_snapshots = true;
        assert_eq!(key, CodebookKey::for_shape(&other, 16, 16, 1));
    }

    #[test]
    fn hit_returns_the_same_encoder_without_rebuilding() {
        let cfg = config(3);
        let cache = CodebookCache::with_capacity(usize::MAX);
        let key = CodebookKey::for_shape(&cfg, 12, 12, 1);
        let first = cache
            .get_or_build(key, || Ok(build_for(&cfg, 12, 12)))
            .unwrap();
        let second = cache
            .get_or_build(key, || panic!("must not rebuild on a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, first.codebook_bytes());
    }

    #[test]
    fn byte_capacity_evicts_least_recently_used_first() {
        let cfg = config(5);
        let probe = build_for(&cfg, 8, 8);
        let one_entry = probe.codebook_bytes();
        // Room for two encoders of this shape class, not three.
        let cache = CodebookCache::with_capacity(one_entry * 2 + one_entry / 2);
        let key_a = CodebookKey::for_shape(&cfg, 8, 8, 1);
        let key_b = CodebookKey::for_shape(&cfg, 8, 9, 1);
        let key_c = CodebookKey::for_shape(&cfg, 8, 10, 1);
        cache
            .get_or_build(key_a, || Ok(build_for(&cfg, 8, 8)))
            .unwrap();
        cache
            .get_or_build(key_b, || Ok(build_for(&cfg, 8, 9)))
            .unwrap();
        // Touch A so B becomes the least recently used.
        cache
            .get_or_build(key_a, || panic!("A is resident"))
            .unwrap();
        cache
            .get_or_build(key_c, || Ok(build_for(&cfg, 8, 10)))
            .unwrap();
        assert!(cache.contains(&key_a), "recently-used entry must survive");
        assert!(!cache.contains(&key_b), "LRU entry must be evicted");
        assert!(cache.contains(&key_c));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= cache.capacity_bytes());
    }

    #[test]
    fn oversized_entries_are_still_served() {
        let cfg = config(7);
        let cache = CodebookCache::with_capacity(1); // nothing fits
        let key_a = CodebookKey::for_shape(&cfg, 8, 8, 1);
        let key_b = CodebookKey::for_shape(&cfg, 9, 9, 1);
        let a = cache
            .get_or_build(key_a, || Ok(build_for(&cfg, 8, 8)))
            .unwrap();
        assert!(a.codebook_bytes() > 1);
        assert!(cache.contains(&key_a), "sole entry is kept even oversized");
        cache
            .get_or_build(key_b, || Ok(build_for(&cfg, 9, 9)))
            .unwrap();
        // The newcomer displaces the old oversized resident.
        assert!(!cache.contains(&key_a));
        assert!(cache.contains(&key_b));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cfg = config(9);
        let cache = CodebookCache::with_capacity(usize::MAX);
        let key = CodebookKey::for_shape(&cfg, 8, 8, 1);
        let err = cache.get_or_build(key, || {
            Err(crate::SegHdcError::InvalidConfig {
                message: "boom".to_string(),
            })
        });
        assert!(err.is_err());
        assert!(!cache.contains(&key));
        let ok = cache.get_or_build(key, || Ok(build_for(&cfg, 8, 8)));
        assert!(ok.is_ok());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn concurrent_same_key_lookups_build_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cfg = config(11);
        let cache = CodebookCache::with_capacity(usize::MAX);
        let key = CodebookKey::for_shape(&cfg, 10, 10, 1);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache
                        .get_or_build(key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            Ok(build_for(&cfg, 10, 10))
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn panicked_build_does_not_wedge_the_key() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cfg = config(15);
        let cache = CodebookCache::with_capacity(usize::MAX);
        let key = CodebookKey::for_shape(&cfg, 8, 8, 1);
        // Two panicking builds back to back: the second proves the first
        // left no stale `building` registration (it would deadlock or
        // panic on a poisoned per-key lock otherwise).
        for _ in 0..2 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _ = cache.get_or_build(key, || panic!("builder died"));
            }));
            assert!(result.is_err());
            assert!(!cache.contains(&key));
        }
        // The next caller retries cleanly and the cache serves hits again.
        let encoder = cache
            .get_or_build(key, || Ok(build_for(&cfg, 8, 8)))
            .unwrap();
        let again = cache
            .get_or_build(key, || panic!("must be resident"))
            .unwrap();
        assert!(Arc::ptr_eq(&encoder, &again));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes, encoder.codebook_bytes());
    }

    #[test]
    fn waiters_on_a_panicked_builder_retry_cleanly() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let cfg = config(17);
        let cache = CodebookCache::with_capacity(usize::MAX);
        let key = CodebookKey::for_shape(&cfg, 10, 10, 1);
        let rendezvous = Barrier::new(2);
        let successful_builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Thread A registers the build, lets B queue up behind the
            // per-key lock, then panics mid-build.
            let panicker = scope.spawn(|| {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _ = cache.get_or_build(key, || {
                        rendezvous.wait();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("builder died mid-build");
                    });
                }));
                assert!(result.is_err());
            });
            // Thread B arrives while A is building and must end up with a
            // successfully built encoder, not a poisoned-lock panic.
            let waiter = scope.spawn(|| {
                rendezvous.wait();
                cache
                    .get_or_build(key, || {
                        successful_builds.fetch_add(1, Ordering::SeqCst);
                        Ok(build_for(&cfg, 10, 10))
                    })
                    .unwrap()
            });
            panicker.join().unwrap();
            let encoder = waiter.join().unwrap();
            assert_eq!(encoder.codebook_bytes(), cache.stats().bytes);
        });
        assert!(successful_builds.load(Ordering::SeqCst) >= 1);
        assert!(cache.contains(&key));
    }

    #[test]
    fn snapshot_save_load_warm_starts_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("seghdc-cache-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.sgsn");

        let cfg = config(23);
        let warm = CodebookCache::with_capacity(usize::MAX);
        let key_a = CodebookKey::for_shape(&cfg, 8, 8, 1);
        let key_b = CodebookKey::for_shape(&cfg, 9, 7, 1);
        let built_a = warm
            .get_or_build(key_a, || Ok(build_for(&cfg, 8, 8)))
            .unwrap();
        warm.get_or_build(key_b, || Ok(build_for(&cfg, 9, 7)))
            .unwrap();
        assert_eq!(warm.save_snapshot(&path).unwrap(), 2);

        let cold = CodebookCache::with_capacity(usize::MAX);
        assert_eq!(cold.load_snapshot(&path).unwrap(), 2);
        let stats = cold.stats();
        // Loading counts as neither hit nor miss.
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, warm.stats().bytes);
        // The restored entry serves hits without rebuilding, bit-identical
        // to the original build.
        let restored = cold
            .get_or_build(key_a, || panic!("must be served from the snapshot"))
            .unwrap();
        assert_eq!(restored.codebook_bytes(), built_a.codebook_bytes());
        for i in 0..8 {
            assert_eq!(
                restored.position().row_hv(i).unwrap(),
                built_a.position().row_hv(i).unwrap()
            );
        }
        assert_eq!(cold.stats().hits, 1);

        // Deterministic export: both caches serialize to identical bytes.
        assert_eq!(
            warm.export_snapshot().to_bytes(),
            cold.export_snapshot().to_bytes()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_install_respects_the_byte_capacity() {
        let cfg = config(29);
        let donor = CodebookCache::with_capacity(usize::MAX);
        let keys: Vec<CodebookKey> = (0..3)
            .map(|n| CodebookKey::for_shape(&cfg, 8, 8 + n, 1))
            .collect();
        for (n, key) in keys.iter().enumerate() {
            donor
                .get_or_build(*key, || Ok(build_for(&cfg, 8, 8 + n)))
                .unwrap();
        }
        let one_entry = build_for(&cfg, 8, 8).codebook_bytes();
        let bounded = CodebookCache::with_capacity(one_entry + one_entry / 2);
        let installed = bounded.install_snapshot(&donor.export_snapshot());
        assert_eq!(installed, 3);
        let stats = bounded.stats();
        assert_eq!(stats.entries, 1, "capacity holds one entry");
        assert!(stats.bytes <= bounded.capacity_bytes());
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cfg = config(13);
        let cache = CodebookCache::with_capacity(usize::MAX);
        let key = CodebookKey::for_shape(&cfg, 8, 8, 1);
        cache
            .get_or_build(key, || Ok(build_for(&cfg, 8, 8)))
            .unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.misses, 1);
        assert!(!cache.contains(&key));
    }
}
