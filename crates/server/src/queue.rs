//! Bounded admission queue with cache-aware group dequeue.
//!
//! The queue is the server's backpressure mechanism: [`AdmissionQueue::try_push`]
//! never blocks and hands the job back when the queue is full, so the
//! connection thread can answer with an explicit `Busy` frame instead of
//! letting latency grow without bound.
//!
//! Dequeue is group-aware: [`AdmissionQueue::pop_group`] takes the oldest
//! job and then scans the remaining queue for jobs with the same group key
//! (for the server, the [`CodebookKey`](seghdc::CodebookKey) the request
//! resolves to). A worker that serves such a group back-to-back turns what
//! would be interleaved codebook-cache churn into one miss followed by
//! hits — the scheduling half of the engine's cache story.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the job is handed back.
    Full(T),
    /// The queue is shut down; the job is handed back.
    ShutDown(T),
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    shutdown: bool,
}

/// A bounded FIFO with non-blocking admission and blocking, group-aware
/// removal.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` jobs at a time.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity.min(1024)),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // A worker panic between push and pop cannot corrupt a VecDeque of
        // owned jobs, so a poisoned queue mutex is safe to recover.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::ShutDown`] after
    /// [`shutdown`](Self::shutdown); both return the job to the caller so
    /// it can answer with an error frame.
    pub fn try_push(&self, job: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(PushError::ShutDown(job));
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the oldest job, then drains up to `max_group - 1` more
    /// jobs for which `same_group(&oldest, &candidate)` holds, preserving
    /// FIFO order within the group and leaving everything else queued.
    ///
    /// Returns `None` once the queue is shut down **and** empty (jobs
    /// admitted before shutdown are still drained, so accepted requests
    /// get real responses).
    pub fn pop_group<F>(&self, max_group: usize, same_group: F) -> Option<Vec<T>>
    where
        F: Fn(&T, &T) -> bool,
    {
        let mut state = self.lock();
        loop {
            if let Some(group) = drain_group(&mut state, max_group, &same_group) {
                return Some(group);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Like [`pop_group`](Self::pop_group), but returns `None` immediately
    /// when the queue is empty instead of blocking. Used by sharded
    /// dispatch, where an empty home shard means "go steal", not "sleep".
    pub fn try_pop_group<F>(&self, max_group: usize, same_group: F) -> Option<Vec<T>>
    where
        F: Fn(&T, &T) -> bool,
    {
        drain_group(&mut self.lock(), max_group, &same_group)
    }

    /// Grows an already-popped `group` in place with queued jobs for which
    /// `same_group(&group[0], &candidate)` holds, then waits for pushes
    /// (every push signals the queue's condvar) until the group holds
    /// `max_group` jobs, `until` passes or the queue shuts down. Returns
    /// how many jobs were added; an empty group never grows.
    ///
    /// This is the queue half of the fused-batching window: a worker
    /// holding a partial group collects late-arriving fusible jobs before
    /// committing the group to one engine batch.
    pub fn extend_group_until<F>(
        &self,
        group: &mut Vec<T>,
        max_group: usize,
        until: Instant,
        same_group: F,
    ) -> usize
    where
        F: Fn(&T, &T) -> bool,
    {
        if group.is_empty() {
            return 0;
        }
        let before = group.len();
        let mut state = self.lock();
        loop {
            pull_group(&mut state, group, max_group, &same_group);
            let now = Instant::now();
            if group.len() >= max_group || state.shutdown || now >= until {
                return group.len() - before;
            }
            state = self
                .available
                .wait_timeout(state, until - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Parks the caller until a job arrives, the queue shuts down, or
    /// `timeout` elapses — whichever happens first. Purely a wakeup hint:
    /// the caller re-checks the queue (and its steal victims) afterwards.
    pub fn wait_for_job(&self, timeout: Duration) {
        let state = self.lock();
        if !state.jobs.is_empty() || state.shutdown {
            return;
        }
        let _ = self
            .available
            .wait_timeout(state, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }

    /// Whether [`shutdown`](Self::shutdown) has been called.
    pub fn is_shut_down(&self) -> bool {
        self.lock().shutdown
    }

    /// Marks the queue as shut down and wakes every blocked worker.
    /// Already-admitted jobs remain drainable.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.available.notify_all();
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The shared group-dequeue step: pop the oldest job, then pull up to
/// `max_group - 1` same-group jobs past any interlopers.
fn drain_group<T, F>(state: &mut QueueState<T>, max_group: usize, same_group: &F) -> Option<Vec<T>>
where
    F: Fn(&T, &T) -> bool,
{
    let mut group = vec![state.jobs.pop_front()?];
    pull_group(state, &mut group, max_group, same_group);
    Some(group)
}

/// Moves queued jobs for which `same_group(&group[0], &candidate)` holds
/// into the non-empty `group`, up to `max_group` in all, preserving FIFO
/// order within the group and leaving everything else queued.
fn pull_group<T, F>(state: &mut QueueState<T>, group: &mut Vec<T>, max_group: usize, same_group: &F)
where
    F: Fn(&T, &T) -> bool,
{
    let mut index = 0;
    while group.len() < max_group.max(1) && index < state.jobs.len() {
        if same_group(&group[0], &state.jobs[index]) {
            let job = state.jobs.remove(index).expect("index is in bounds");
            group.push(job);
        } else {
            index += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_is_preserved() {
        let queue = AdmissionQueue::new(8);
        for n in 0..5 {
            queue.try_push(n).unwrap();
        }
        let group = queue.pop_group(1, |_, _| false).unwrap();
        assert_eq!(group, vec![0]);
        let group = queue.pop_group(4, |_, _| true).unwrap();
        assert_eq!(group, vec![1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        let queue = AdmissionQueue::new(2);
        queue.try_push("a").unwrap();
        queue.try_push("b").unwrap();
        assert_eq!(queue.try_push("c"), Err(PushError::Full("c")));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn grouping_pulls_matching_jobs_past_interlopers() {
        let queue = AdmissionQueue::new(8);
        for job in ["x1", "y1", "x2", "y2", "x3"] {
            queue.try_push(job).unwrap();
        }
        let group = queue
            .pop_group(8, |a, b| a.as_bytes()[0] == b.as_bytes()[0])
            .unwrap();
        assert_eq!(group, vec!["x1", "x2", "x3"]);
        // The interlopers keep their relative order.
        assert_eq!(queue.pop_group(1, |_, _| false).unwrap(), vec!["y1"]);
        assert_eq!(queue.pop_group(1, |_, _| false).unwrap(), vec!["y2"]);
    }

    #[test]
    fn group_size_is_capped() {
        let queue = AdmissionQueue::new(8);
        for n in 0..6 {
            queue.try_push(n).unwrap();
        }
        let group = queue.pop_group(3, |_, _| true).unwrap();
        assert_eq!(group, vec![0, 1, 2]);
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn shutdown_wakes_blocked_workers_and_rejects_new_jobs() {
        let queue = Arc::new(AdmissionQueue::<u32>::new(4));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop_group(1, |_, _| false))
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.shutdown();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(queue.try_push(7), Err(PushError::ShutDown(7)));
    }

    #[test]
    fn try_pop_group_never_blocks() {
        let queue = AdmissionQueue::new(4);
        assert_eq!(queue.try_pop_group(4, |_, _: &u32| true), None);
        queue.try_push(1u32).unwrap();
        queue.try_push(2).unwrap();
        assert_eq!(queue.try_pop_group(4, |_, _| true), Some(vec![1, 2]));
        assert_eq!(queue.try_pop_group(4, |_, _| true), None);
    }

    #[test]
    fn extend_group_until_pulls_matching_jobs_until_its_deadline() {
        let queue = AdmissionQueue::new(8);
        for job in ["x1", "y1", "x2"] {
            queue.try_push(job).unwrap();
        }
        let same = |a: &&str, b: &&str| a.as_bytes()[0] == b.as_bytes()[0];
        let mut group = queue.pop_group(1, same).unwrap();
        assert_eq!(group, vec!["x1"]);
        // The window pulls the late fusible job past the interloper.
        let now = Instant::now();
        assert_eq!(queue.extend_group_until(&mut group, 4, now, same), 1);
        assert_eq!(group, vec!["x1", "x2"]);
        // Nothing fusible arrives: it returns once `until` passes, and the
        // interloper stays queued.
        let until = Instant::now() + Duration::from_millis(10);
        assert_eq!(queue.extend_group_until(&mut group, 4, until, same), 0);
        assert!(Instant::now() >= until);
        assert_eq!(queue.pop_group(1, |_, _| false).unwrap(), vec!["y1"]);
        // An empty group never extends.
        let mut empty: Vec<&str> = Vec::new();
        queue.try_push("x9").unwrap();
        assert_eq!(queue.extend_group_until(&mut empty, 4, now, same), 0);
    }

    #[test]
    fn a_push_wakes_a_holder_before_its_deadline() {
        let same = |a: &&str, b: &&str| a.as_bytes()[0] == b.as_bytes()[0];
        let until = Instant::now() + Duration::from_secs(30);
        let queue = Arc::new(AdmissionQueue::new(8));
        let hold = |queue: &Arc<AdmissionQueue<&'static str>>, first| {
            let shared = Arc::clone(queue);
            let holder = std::thread::spawn(move || {
                let mut group = vec![first];
                let added = shared.extend_group_until(&mut group, 3, until, same);
                (added, group)
            });
            // The holder's first pass takes the queued fusible job under
            // the lock, which it releases only by starting to wait: once
            // the queue reads empty, the holder is waiting.
            while !queue.is_empty() {
                std::thread::yield_now();
            }
            holder
        };

        queue.try_push("x2").unwrap();
        let holder = hold(&queue, "x1");
        // An interloper wakes the holder without joining; a fusible job
        // fills the group.
        queue.try_push("y1").unwrap();
        queue.try_push("x3").unwrap();
        assert_eq!(holder.join().unwrap(), (2, vec!["x1", "x2", "x3"]));
        assert!(Instant::now() < until);
        assert_eq!(queue.pop_group(1, |_, _| false).unwrap(), vec!["y1"]);

        // Shutdown also ends the hold early.
        queue.try_push("x5").unwrap();
        let holder = hold(&queue, "x4");
        queue.shutdown();
        assert_eq!(holder.join().unwrap(), (1, vec!["x4", "x5"]));
        assert!(Instant::now() < until);
    }

    #[test]
    fn wait_for_job_returns_on_push_shutdown_and_timeout() {
        // Timeout: an empty, live queue parks for roughly the timeout.
        let queue = AdmissionQueue::<u32>::new(4);
        let start = std::time::Instant::now();
        queue.wait_for_job(Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(5));

        // Push: a queued job returns immediately.
        queue.try_push(1).unwrap();
        let start = std::time::Instant::now();
        queue.wait_for_job(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));

        // Shutdown: a blocked waiter is woken.
        let queue = Arc::new(AdmissionQueue::<u32>::new(4));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.wait_for_job(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.shutdown();
        waiter.join().unwrap();
        assert!(queue.is_shut_down());
    }

    #[test]
    fn jobs_admitted_before_shutdown_still_drain() {
        let queue = AdmissionQueue::new(4);
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        queue.shutdown();
        assert_eq!(queue.pop_group(1, |_, _| false).unwrap(), vec![1]);
        assert_eq!(queue.pop_group(1, |_, _| false).unwrap(), vec![2]);
        assert_eq!(queue.pop_group(1, |_, _| false), None);
    }
}
