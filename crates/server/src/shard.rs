//! Sharded admission: per-worker queues, hash routing, work stealing.
//!
//! The single global [`AdmissionQueue`] gave every worker an equal shot at
//! every job, so a burst of same-[`CodebookKey`]
//! requests could land on whichever workers woke first — each paying its
//! own cold codebook path even though the cache is shared. Sharding pins
//! same-shape traffic to one worker instead:
//!
//! * **Routing.** Every job carries a deterministic FNV-1a hash of its
//!   codebook key ([`key_hash`]), and the hash picks a *home shard*
//!   ([`ShardedQueue::home_shard`]). The shard count is fixed for the life
//!   of the process, so a direct map is as stable as a consistent-hash
//!   ring: same key → same shard, every time, on every platform (no
//!   `RandomState`, no per-process seeds), so the worker that built a
//!   codebook is the worker that keeps serving it.
//! * **Spill.** A full home shard does not mean the server is full: the
//!   job spills to the least-loaded other shard, and only when *every*
//!   shard is at capacity does admission answer `Busy`. With one shard the
//!   behaviour degenerates to exactly the old global queue.
//! * **Stealing.** A worker whose own shard is empty steals a group from
//!   the deepest other shard, so a skewed key distribution cannot idle
//!   half the pool while one shard backs up.
//! * **Fuse window.** A worker holding a partial group waits on its own
//!   shard's condvar, which every push signals, for late fusible jobs
//!   ([`ShardedQueue::extend_group_for`]).
//!
//! Each shard keeps four monotone counters — `routed`, `spilled`,
//! `stolen`, `served` — surfaced through the `STATS` frame so routing
//! behaviour is observable from outside (the loopback suite asserts a
//! same-key burst routes to exactly one shard).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use seghdc::CodebookKey;

use crate::queue::{AdmissionQueue, PushError};
use crate::wire::checksum;

/// A deterministic, platform-stable hash of a codebook key.
///
/// `std`'s `Hash` + `RandomState` is seeded per process, which would move
/// every key to a different shard on every restart — exactly what a
/// warm-started cache cannot afford. FNV-1a ([`checksum`], the frame
/// checksum) over the key's canonical little-endian field encoding gives
/// the same shard assignment on every run and every platform.
pub fn key_hash(key: &CodebookKey) -> u64 {
    checksum(&[
        &key.seed.to_le_bytes(),
        &(key.dimension as u64).to_le_bytes(),
        &(key.width as u64).to_le_bytes(),
        &(key.height as u64).to_le_bytes(),
        &(key.channels as u64).to_le_bytes(),
        &key.alpha_bits.to_le_bytes(),
        &(key.beta as u64).to_le_bytes(),
        &(key.gamma as u64).to_le_bytes(),
        &[key.position_encoding as u8, key.color_encoding as u8],
    ])
}

/// A point-in-time snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Jobs admitted to this shard because it was their home.
    pub routed: u64,
    /// Jobs admitted to this shard because their home shard was full.
    pub spilled: u64,
    /// Jobs dequeued from this shard by a *different* worker (steals).
    pub stolen: u64,
    /// Jobs dequeued from this shard by its own worker.
    pub served: u64,
    /// Jobs currently queued on this shard.
    pub depth: u64,
}

struct Shard<T> {
    queue: AdmissionQueue<T>,
    routed: AtomicU64,
    spilled: AtomicU64,
    stolen: AtomicU64,
    served: AtomicU64,
}

/// Per-worker admission queues behind one hash-routed front door.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
}

impl<T> ShardedQueue<T> {
    /// `shards` queues of `depth_per_shard` jobs each.
    pub fn new(shards: usize, depth_per_shard: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    queue: AdmissionQueue::new(depth_per_shard),
                    routed: AtomicU64::new(0),
                    spilled: AtomicU64::new(0),
                    stolen: AtomicU64::new(0),
                    served: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// How many shards (== workers) this queue fans out over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard for a key hash (exposed for tests and telemetry):
    /// the hash scaled onto the shard range by its high bits,
    /// `hash · shards / 2⁶⁴`. Not `hash % shards`: FNV-1a's low `k` bits
    /// depend only on the low `k` bits of each input byte, so with 2 or 4
    /// shards every shape whose dimensions share their low bits would
    /// home on one shard.
    pub fn home_shard(&self, hash: u64) -> usize {
        ((u128::from(hash) * self.shards.len() as u128) >> 64) as usize
    }

    /// Admits a job to its home shard, spilling to the least-loaded other
    /// shard when the home is full. Returns the shard that accepted it.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] only when **every** shard is at capacity;
    /// [`PushError::ShutDown`] after [`shutdown`](Self::shutdown). Both
    /// hand the job back.
    pub fn try_push(&self, job: T, hash: u64) -> Result<usize, PushError<T>> {
        let home = self.home_shard(hash);
        let mut job = match self.shards[home].queue.try_push(job) {
            Ok(()) => {
                self.shards[home].routed.fetch_add(1, Ordering::Relaxed);
                return Ok(home);
            }
            Err(PushError::ShutDown(job)) => return Err(PushError::ShutDown(job)),
            Err(PushError::Full(job)) => job,
        };
        // Home full: offer the job to every other shard, emptiest first.
        let mut others: Vec<usize> = (0..self.shards.len()).filter(|&s| s != home).collect();
        others.sort_by_key(|&s| self.shards[s].queue.len());
        for shard in others {
            job = match self.shards[shard].queue.try_push(job) {
                Ok(()) => {
                    self.shards[shard].spilled.fetch_add(1, Ordering::Relaxed);
                    return Ok(shard);
                }
                Err(PushError::ShutDown(job)) => return Err(PushError::ShutDown(job)),
                Err(PushError::Full(job)) => job,
            };
        }
        Err(PushError::Full(job))
    }

    /// Worker-side dequeue: a group from the worker's own shard if it has
    /// one, else a group stolen from the deepest other shard, else a short
    /// park and retry. Returns `None` once the queue is shut down and every
    /// shard has drained (admitted jobs still get real responses).
    pub fn pop_group_for<F>(&self, worker: usize, max_group: usize, same_group: F) -> Option<Vec<T>>
    where
        F: Fn(&T, &T) -> bool,
    {
        let own = worker % self.shards.len();
        loop {
            if let Some(group) = self.shards[own].queue.try_pop_group(max_group, &same_group) {
                self.shards[own]
                    .served
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                return Some(group);
            }
            // Steal from the deepest other shard so a skewed key mix
            // cannot idle this worker while another shard backs up.
            let victim = (0..self.shards.len())
                .filter(|&s| s != own)
                .max_by_key(|&s| self.shards[s].queue.len())
                .filter(|&s| !self.shards[s].queue.is_empty());
            if let Some(victim) = victim {
                if let Some(group) = self.shards[victim]
                    .queue
                    .try_pop_group(max_group, &same_group)
                {
                    self.shards[victim]
                        .stolen
                        .fetch_add(group.len() as u64, Ordering::Relaxed);
                    return Some(group);
                }
            }
            if self.shards[own].queue.is_shut_down() && self.total_len() == 0 {
                return None;
            }
            // Park on the home shard; pushes there wake us immediately and
            // the timeout bounds how stale a steal opportunity can get.
            self.shards[own]
                .queue
                .wait_for_job(Duration::from_millis(2));
        }
    }

    /// Grows an already-popped `group` with fusible jobs from the worker's
    /// **own** shard, waiting on it until the group holds `max_group` jobs,
    /// `until` passes or the queue shuts down (see
    /// [`AdmissionQueue::extend_group_until`]). Returns how many jobs were
    /// added.
    ///
    /// Only the home shard is searched: routing sends same-key traffic
    /// there, so that is where a late fusible job will land; raiding other
    /// shards from inside a batching window would race their owners.
    pub fn extend_group_for<F>(
        &self,
        worker: usize,
        group: &mut Vec<T>,
        max_group: usize,
        until: Instant,
        same_group: F,
    ) -> usize
    where
        F: Fn(&T, &T) -> bool,
    {
        let own = worker % self.shards.len();
        let added = self.shards[own]
            .queue
            .extend_group_until(group, max_group, until, same_group);
        if added > 0 {
            self.shards[own]
                .served
                .fetch_add(added as u64, Ordering::Relaxed);
        }
        added
    }

    /// Shuts every shard down and wakes every parked worker.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.queue.shutdown();
        }
    }

    /// Jobs currently queued across all shards.
    pub fn total_len(&self) -> usize {
        self.shards.iter().map(|shard| shard.queue.len()).sum()
    }

    /// A counter snapshot per shard, in shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                routed: shard.routed.load(Ordering::Relaxed),
                spilled: shard.spilled.load(Ordering::Relaxed),
                stolen: shard.stolen.load(Ordering::Relaxed),
                served: shard.served.load(Ordering::Relaxed),
                depth: shard.queue.len() as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seghdc::SegHdcConfig;

    fn sample_key(seed: u64, edge: usize) -> CodebookKey {
        let config = SegHdcConfig::builder()
            .dimension(256)
            .beta(2)
            .seed(seed)
            .build()
            .unwrap();
        CodebookKey::for_shape(&config, edge, edge, 1)
    }

    #[test]
    fn key_hashes_are_deterministic_and_shape_sensitive() {
        assert_eq!(key_hash(&sample_key(1, 32)), key_hash(&sample_key(1, 32)));
        assert_ne!(key_hash(&sample_key(1, 32)), key_hash(&sample_key(2, 32)));
        assert_ne!(key_hash(&sample_key(1, 32)), key_hash(&sample_key(1, 48)));
    }

    #[test]
    fn home_shards_spread_keys_across_shards() {
        let queue = ShardedQueue::<u32>::new(4, 1);
        let mut hit = [0usize; 4];
        for seed in 0..64 {
            hit[queue.home_shard(key_hash(&sample_key(seed, 32)))] += 1;
        }
        // Every shard owns some keys; no shard owns almost all of them.
        assert!(hit.iter().all(|&count| count > 0), "ownership: {hit:?}");
        assert!(hit.iter().all(|&count| count < 48), "ownership: {hit:?}");

        // Shapes of one configuration spread too, although their edges
        // share their low bits.
        let queue = ShardedQueue::<u32>::new(2, 1);
        let mut hit = [0usize; 2];
        for edge in [16, 24, 32, 48, 64, 96, 128, 256] {
            hit[queue.home_shard(key_hash(&sample_key(1, edge)))] += 1;
        }
        assert!(hit.iter().all(|&count| count > 0), "ownership: {hit:?}");
    }

    #[test]
    fn same_hash_always_routes_to_the_same_shard() {
        let queue = ShardedQueue::new(4, 16);
        let hash = key_hash(&sample_key(9, 32));
        let home = queue.home_shard(hash);
        for n in 0..8 {
            assert_eq!(queue.try_push(n, hash).unwrap(), home);
        }
        let stats = queue.stats();
        assert_eq!(stats[home].routed, 8);
        assert_eq!(stats.iter().map(|s| s.spilled).sum::<u64>(), 0);
    }

    #[test]
    fn a_full_home_shard_spills_and_a_full_queue_refuses() {
        let queue = ShardedQueue::new(2, 1);
        let hash = key_hash(&sample_key(3, 32));
        let home = queue.home_shard(hash);
        assert_eq!(queue.try_push(1u32, hash).unwrap(), home);
        let spill = queue.try_push(2, hash).unwrap();
        assert_ne!(spill, home);
        assert_eq!(queue.stats()[spill].spilled, 1);
        assert!(matches!(queue.try_push(3, hash), Err(PushError::Full(3))));
    }

    #[test]
    fn workers_steal_from_other_shards() {
        let queue = ShardedQueue::new(2, 8);
        let hash = key_hash(&sample_key(5, 32));
        let home = queue.home_shard(hash);
        queue.try_push(1u32, hash).unwrap();
        // The *other* worker finds its own shard empty and steals.
        let thief = 1 - home;
        let group = queue.pop_group_for(thief, 4, |_, _| true).unwrap();
        assert_eq!(group, vec![1]);
        let stats = queue.stats();
        assert_eq!(stats[home].stolen, 1);
        assert_eq!(stats[home].served, 0);
    }

    #[test]
    fn extend_polls_only_the_workers_own_shard() {
        let queue = ShardedQueue::new(2, 8);
        let hash = key_hash(&sample_key(5, 32));
        let home = queue.home_shard(hash);
        queue.try_push(10u32, hash).unwrap();
        let mut group = queue.pop_group_for(home, 1, |_, _| true).unwrap();
        assert_eq!(group, vec![10]);
        // A late same-key arrival on the home shard joins the group...
        queue.try_push(11, hash).unwrap();
        let now = Instant::now();
        assert_eq!(
            queue.extend_group_for(home, &mut group, 4, now, |_, _| true),
            1
        );
        assert_eq!(group, vec![10, 11]);
        // ...but a job on another shard is left for its own worker.
        queue.try_push(12, hash).unwrap();
        let other = 1 - home;
        assert_eq!(
            queue.extend_group_for(other, &mut group, 8, now, |_, _| true),
            0
        );
        assert_eq!(group, vec![10, 11]);
        assert_eq!(queue.stats()[home].served, 2);
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_returns_none() {
        let queue = ShardedQueue::new(2, 8);
        let hash = key_hash(&sample_key(7, 32));
        let home = queue.home_shard(hash);
        queue.try_push(1u32, hash).unwrap();
        queue.shutdown();
        assert!(matches!(
            queue.try_push(2, hash),
            Err(PushError::ShutDown(2))
        ));
        assert_eq!(queue.pop_group_for(home, 4, |_, _| true), Some(vec![1]));
        assert_eq!(queue.pop_group_for(home, 4, |_, _| true), None);
    }
}
