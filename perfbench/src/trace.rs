//! Tracing installed from outside the library, through its public seams.
//!
//! * [`CountingKernels`] wraps a [`Kernels`] implementation and counts the
//!   calls and computed bytes of every trait method. It is handed to the
//!   engine through [`seghdc::SimdCpuBackend::with_kernels`].
//! * [`TracingBackend`] wraps an [`ExecBackend`] installed with
//!   [`seghdc::SegEngineBuilder::backend`] and records one span per
//!   `encode_region` and `cluster_matrix` call.
//!
//! Both wrappers forward every trait method, the defaulted ones included,
//! so a traced engine runs exactly the code an untraced one runs and
//! reports the inner backend's name and kernel ISA.
//!
//! Kernel calls that bypass the injected kernels are not counted: the
//! `HvRow`/`BinaryHypervector` helpers and the plain `Accumulator` methods
//! call `hdc::kernels::auto()` directly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use hdc::kernels::Kernels;
use hdc::HvMatrix;
use imaging::{ImageView, TileRect};
use seghdc::{ClusterOutcome, ExecBackend, HvKmeans, PixelEncoder};

/// Every [`Kernels`] trait operation, in the order counters are stored.
pub const KERNEL_OPS: [&str; 9] = [
    "xor_into",
    "popcount",
    "hamming",
    "and_popcount",
    "plane_dot",
    "plane_dot_multi",
    "hamming_multi",
    "counts_dot_multi",
    "bundle_add_planes",
];

const COUNTS_DOT_MULTI: usize = 7;
/// Per op: calls and bytes; then one slot for accepted `counts_dot_multi`.
const SLOTS: usize = 2 * KERNEL_OPS.len() + 1;
const ACCEPTED_SLOT: usize = SLOTS - 1;

/// One thread's counters. Only the owning thread writes them, so an
/// update is a plain load and store; other threads only read.
struct ThreadCounters([AtomicU64; SLOTS]);

impl ThreadCounters {
    fn add(&self, slot: usize, value: u64) {
        let cell = &self.0[slot];
        cell.store(cell.load(Ordering::Relaxed) + value, Ordering::Relaxed);
    }
}

/// Counters of live threads, and the totals of threads that have exited.
/// The engine's parallel loops spawn short-lived scoped threads, so a
/// thread folds its counts into `retired` when it exits.
struct Registry {
    live: Vec<Arc<ThreadCounters>>,
    retired: [u64; SLOTS],
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    retired: [0; SLOTS],
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY
        .lock()
        .expect("kernel counter registry lock poisoned")
}

/// A thread's registration; retires the counters when the thread exits.
struct Local(Arc<ThreadCounters>);

impl Drop for Local {
    fn drop(&mut self) {
        // A poisoned registry only loses this thread's counts.
        if let Ok(mut registry) = REGISTRY.lock() {
            for (total, cell) in registry.retired.iter_mut().zip(&self.0 .0) {
                *total += cell.load(Ordering::Relaxed);
            }
            registry.live.retain(|c| !Arc::ptr_eq(c, &self.0));
        }
    }
}

thread_local! {
    static LOCAL: Local = {
        let counters = Arc::new(ThreadCounters(std::array::from_fn(|_| AtomicU64::new(0))));
        registry().live.push(Arc::clone(&counters));
        Local(counters)
    };
}

fn add(slot: usize, value: u64) {
    LOCAL.with(|local| local.0.add(slot, value));
}

fn count(op: usize, words: usize) {
    add(2 * op, 1);
    add(2 * op + 1, 8 * words as u64);
}

/// Totals of every counter, summed over all threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounts([u64; SLOTS]);

impl KernelCounts {
    /// Current totals.
    pub fn now() -> Self {
        let registry = registry();
        let mut totals = registry.retired;
        for counters in &registry.live {
            for (total, cell) in totals.iter_mut().zip(&counters.0) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        Self(totals)
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Calls of `KERNEL_OPS[op]`.
    pub fn calls(&self, op: usize) -> u64 {
        self.0[2 * op]
    }

    /// Bytes read plus bytes written by `KERNEL_OPS[op]`, computed from
    /// the slice lengths of each call (an upper bound for the early-exit
    /// `bundle_add_planes`).
    pub fn bytes(&self, op: usize) -> u64 {
        self.0[2 * op + 1]
    }

    /// Share of `counts_dot_multi` calls the fast path accepted (0 when
    /// there were none).
    pub fn counts_dot_multi_accept_ratio(&self) -> f64 {
        self.0[ACCEPTED_SLOT] as f64 / self.calls(COUNTS_DOT_MULTI).max(1) as f64
    }
}

/// A [`Kernels`] wrapper that counts every call into the wrapped kernels.
#[derive(Debug)]
pub struct CountingKernels {
    inner: &'static dyn Kernels,
}

impl CountingKernels {
    /// Wraps `inner` for the life of the process (backends hold kernels by
    /// `'static` reference).
    pub fn leak(inner: &'static dyn Kernels) -> &'static dyn Kernels {
        Box::leak(Box::new(Self { inner }))
    }
}

impl Kernels for CountingKernels {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn xor_into(&self, dst: &mut [u64], src: &[u64]) {
        count(0, 2 * dst.len() + src.len());
        self.inner.xor_into(dst, src);
    }

    fn popcount(&self, words: &[u64]) -> u64 {
        count(1, words.len());
        self.inner.popcount(words)
    }

    fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
        count(2, a.len() + b.len());
        self.inner.hamming(a, b)
    }

    fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        count(3, a.len() + b.len());
        self.inner.and_popcount(a, b)
    }

    fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
        count(4, planes.len() + row.len());
        self.inner.plane_dot(planes, words_per_plane, row)
    }

    fn plane_dot_multi(
        &self,
        planes: &[u64],
        words_per_plane: usize,
        group_plane_counts: &[usize],
        row: &[u64],
        out: &mut [u64],
    ) {
        count(5, planes.len() + row.len() + 2 * out.len());
        self.inner
            .plane_dot_multi(planes, words_per_plane, group_plane_counts, row, out);
    }

    fn hamming_multi(&self, row: &[u64], stacked: &[u64], out: &mut [u64]) {
        count(6, row.len() + stacked.len() + out.len());
        self.inner.hamming_multi(row, stacked, out);
    }

    fn counts_dot_multi(&self, counts: &[u16], row: &[u64], out: &mut [u64]) -> bool {
        count(
            COUNTS_DOT_MULTI,
            counts.len().div_ceil(4) + row.len() + 2 * out.len(),
        );
        let accepted = self.inner.counts_dot_multi(counts, row, out);
        if accepted {
            add(ACCEPTED_SLOT, 1);
        }
        accepted
    }

    fn bundle_add_planes(
        &self,
        planes: &mut [u64],
        words_per_plane: usize,
        carry: &mut [u64],
    ) -> bool {
        count(8, 2 * planes.len() + 2 * carry.len());
        self.inner.bundle_add_planes(planes, words_per_plane, carry)
    }
}

/// Which backend call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `ExecBackend::encode_region` call.
    Encode,
    /// One `ExecBackend::cluster_matrix` call.
    Cluster,
}

/// One recorded backend call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// The unit (image or scan) the call served; see [`set_unit`].
    pub unit: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// K-Means iterations run (cluster spans only).
    pub iterations: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static UNIT: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the first call in this process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the spans this thread records from now on with `unit`, the parent
/// identifier of every backend call made while one engine run executes.
/// Whole-image and tiled runs of one image call the backend on the
/// caller's thread.
pub fn set_unit(unit: u64) {
    UNIT.with(|current| current.set(unit));
}

/// Removes and returns every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log lock poisoned"))
}

fn record(kind: SpanKind, start_ns: u64, iterations: u64) {
    let span = Span {
        kind,
        unit: UNIT.with(Cell::get),
        start_ns,
        end_ns: now_ns(),
        iterations,
    };
    SPANS.lock().expect("span log lock poisoned").push(span);
}

/// An [`ExecBackend`] wrapper that records a span around each call.
#[derive(Debug)]
pub struct TracingBackend {
    inner: Box<dyn ExecBackend>,
}

impl TracingBackend {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ExecBackend>) -> Self {
        Self { inner }
    }

    /// The default engine backend with its kernels wrapped in
    /// [`CountingKernels`], itself wrapped in span recording.
    pub fn counting_auto() -> Self {
        Self::new(Box::new(seghdc::SimdCpuBackend::with_kernels(
            CountingKernels::leak(hdc::kernels::auto()),
        )))
    }
}

impl ExecBackend for TracingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kernel_isa(&self) -> &'static str {
        self.inner.kernel_isa()
    }

    fn host_kernels(&self) -> &'static dyn Kernels {
        self.inner.host_kernels()
    }

    fn encode_region(
        &self,
        encoder: &PixelEncoder,
        view: &ImageView<'_>,
        region: &TileRect,
        scratch: &mut HvMatrix,
    ) -> seghdc::Result<()> {
        let start = now_ns();
        let result = self.inner.encode_region(encoder, view, region, scratch);
        record(SpanKind::Encode, start, 0);
        result
    }

    fn cluster_matrix(
        &self,
        kmeans: &HvKmeans,
        pixels: &HvMatrix,
        intensities: &[u8],
    ) -> seghdc::Result<ClusterOutcome> {
        let start = now_ns();
        let result = self.inner.cluster_matrix(kmeans, pixels, intensities);
        let iterations = result.as_ref().map_or(0, |o| o.iterations_run as u64);
        record(SpanKind::Cluster, start, iterations);
        result
    }
}
