//! Pluggable per-tile execution backends for the segmentation engine.
//!
//! The unit of work every [`crate::SegEngine`] path reduces to — whole
//! image, batch, or streaming tiles — is "encode one region into a scratch
//! matrix, then cluster that matrix". [`ExecBackend`] abstracts exactly that
//! unit so it can be dispatched to different hardware: [`SimdCpuBackend`]
//! runs it through an explicit [`hdc::kernels`] selection (runtime-detected
//! SIMD by default; [`SimdCpuBackend::scalar`] pins the scalar kernels, the
//! bit-exact reference), and a GPU/accelerator backend only needs to
//! reproduce these two calls over a device-resident scratch buffer.

use crate::{ClusterOutcome, HvKmeans, PixelEncoder, Result};
use hdc::kernels::{self, Kernels};
use hdc::HvMatrix;
use imaging::{ImageView, TileRect};

/// A segmentation execution backend: the per-tile "encode region + cluster
/// matrix" unit every engine path runs through.
///
/// # Scratch-matrix lifecycle
///
/// Both calls operate over **one scratch [`HvMatrix`]** owned by the
/// caller (the engine, from its pool of scratch arenas), never by the
/// backend:
///
/// 1. Before [`encode_region`](Self::encode_region) the caller shapes the
///    matrix to exactly `region.area()` rows of the encoder's dimension
///    with [`hdc::HvMatrix::reset_shared`]: every row reads one all-zero
///    stored row, and the buffers are *reused*, not reallocated, whenever
///    their capacity suffices.
/// 2. The backend fills the matrix in place, one row per region pixel.
///    The CPU backends key the pixels and store each distinct key's row
///    once ([`PixelEncoder::encode_region_into`]), so the stored rows grow
///    to the region's distinct key count; that growth stays inside the
///    matrix, and the key table the call holds meanwhile has at most one
///    slot per region pixel (dense) or one entry per distinct key
///    (hashed). A backend must not allocate its own full-size buffers:
///    [`hdc::HvMatrix::capacity_bytes`] is the high-water mark the
///    streaming-memory guarantee is asserted against, and memory held
///    elsewhere silently breaks it.
/// 3. [`cluster_matrix`](Self::cluster_matrix) reads the same matrix
///    immutably and returns the labels, clustering each stored row once
///    for every row that reads it; the caller then reshapes the matrix for
///    the next tile.
///
/// This is deliberately the lifecycle of a device scratch buffer: an
/// accelerator backend maps `prepare` to (re)binding pre-allocated device
/// allocations and `capacity_bytes` to their size.
///
/// # Determinism
///
/// Implementations must be deterministic for fixed inputs and must produce
/// labels equivalent to [`SimdCpuBackend::scalar`]'s (byte-identical for
/// the CPU-exact case; a backend with different float reduction order
/// should document its tolerance). The kernel and engine equivalence
/// suites pin every kernel selection to that reference bit-for-bit.
pub trait ExecBackend: std::fmt::Debug + Send + Sync {
    /// A short human-readable backend name for telemetry and reports.
    fn name(&self) -> &'static str;

    /// The word-kernel instruction set this backend actually executes with
    /// (`"scalar"`, `"avx2"`, `"neon"`, `"avx512"`, `"avx512-vpopcnt"`),
    /// reported on every
    /// [`crate::SegmentReport`] so users can confirm which path served a
    /// request. Backends that do not run the CPU kernel layer (e.g. a
    /// device backend) report their own identifier.
    fn kernel_isa(&self) -> &'static str {
        self.host_kernels().name()
    }

    /// The CPU word kernels used for the host-side glue that surrounds the
    /// per-tile unit — centroid bundling and stitch similarity in streaming
    /// tiled mode — which always runs on the host even for a device
    /// backend.
    ///
    /// CPU backends return the same kernels their encode/cluster unit runs
    /// on, so pinning a backend to scalar pins the *whole* request (and
    /// [`kernel_isa`](Self::kernel_isa) stays truthful). The default is
    /// [`hdc::kernels::auto`].
    fn host_kernels(&self) -> &'static dyn Kernels {
        kernels::auto()
    }

    /// Encodes the `region` rectangle of `view` into `scratch`, one row per
    /// region pixel in region-local row-major order; pixels with equal keys
    /// may share one stored row.
    ///
    /// `scratch` is the arena matrix, already shaped to
    /// `region.area() × encoder.dimension()` by the caller (see the
    /// trait-level lifecycle contract). Positions are taken from the
    /// view-global coordinates, so rows must be bit-identical to the same
    /// pixels of a whole-view encode.
    ///
    /// # Errors
    ///
    /// Returns an error if the view, region, or scratch shape does not
    /// match the encoder.
    fn encode_region(
        &self,
        encoder: &PixelEncoder,
        view: &ImageView<'_>,
        region: &TileRect,
        scratch: &mut HvMatrix,
    ) -> Result<()>;

    /// Clusters the scratch matrix filled by
    /// [`encode_region`](Self::encode_region).
    ///
    /// `intensities` holds one scalar intensity per matrix row (used for
    /// centroid initialisation) in the same row order.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is empty, the row and intensity
    /// counts disagree, or there are fewer rows than clusters.
    fn cluster_matrix(
        &self,
        kmeans: &HvKmeans,
        pixels: &HvMatrix,
        intensities: &[u8],
    ) -> Result<ClusterOutcome>;
}

/// A CPU backend that executes the per-tile unit through an explicit
/// [`Kernels`] selection — SIMD (AVX2/NEON) when the build and the CPU
/// support it.
///
/// This is the default backend of every [`crate::SegEngine`]:
/// [`SimdCpuBackend::auto`] probes the CPU once and picks the best kernels
/// (falling back to scalar on unsupported hardware or `--no-default-features`
/// builds), so engines get the SIMD path without opting in. Labels are
/// **byte-identical** to [`SimdCpuBackend::scalar`] for every selection —
/// kernels are exact integer operations and the pipeline's float math
/// consumes only their results (the invariant pinned by the
/// `kernel_equivalence` suite).
/// [`ExecBackend::kernel_isa`] reports which instruction set actually ran.
///
/// To force the scalar kernels on a SIMD-capable machine, install
/// [`SimdCpuBackend::scalar`] via [`crate::SegEngineBuilder::backend`] (or
/// set the `SEGHDC_KERNELS=scalar` environment variable before first use,
/// which downgrades [`hdc::kernels::auto`] globally).
#[derive(Debug, Clone, Copy)]
pub struct SimdCpuBackend {
    kernels: &'static dyn Kernels,
}

impl SimdCpuBackend {
    /// The best kernels for the running CPU (SIMD when supported, scalar
    /// otherwise) — see [`hdc::kernels::auto`].
    pub fn auto() -> Self {
        Self {
            kernels: kernels::auto(),
        }
    }

    /// Forces the scalar kernels regardless of CPU support.
    pub fn scalar() -> Self {
        Self {
            kernels: kernels::scalar(),
        }
    }

    /// Runs an explicit kernel implementation (e.g. a specific ISA from
    /// [`hdc::kernels::simd`]).
    pub fn with_kernels(kernels: &'static dyn Kernels) -> Self {
        Self { kernels }
    }

    /// The kernel implementation this backend executes with.
    pub fn kernels(&self) -> &'static dyn Kernels {
        self.kernels
    }
}

impl Default for SimdCpuBackend {
    fn default() -> Self {
        Self::auto()
    }
}

impl ExecBackend for SimdCpuBackend {
    fn name(&self) -> &'static str {
        "simd-cpu"
    }

    fn host_kernels(&self) -> &'static dyn Kernels {
        self.kernels
    }

    fn encode_region(
        &self,
        encoder: &PixelEncoder,
        view: &ImageView<'_>,
        region: &TileRect,
        scratch: &mut HvMatrix,
    ) -> Result<()> {
        encoder.encode_region_into_with(view, region, scratch, self.kernels)
    }

    fn cluster_matrix(
        &self,
        kmeans: &HvKmeans,
        pixels: &HvMatrix,
        intensities: &[u8],
    ) -> Result<ClusterOutcome> {
        kmeans.cluster_matrix_with(pixels, intensities, self.kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorEncoder, ColorEncoding, PositionEncoder, PositionEncoding};
    use hdc::HdcRng;
    use imaging::{DynamicImage, GrayImage};

    fn encoder(dim: usize, width: usize, height: usize) -> PixelEncoder {
        let mut rng = HdcRng::seed_from(41);
        let position = PositionEncoder::new(
            PositionEncoding::Manhattan,
            dim,
            height,
            width,
            1.0,
            1,
            &mut rng,
        )
        .unwrap();
        let color = ColorEncoder::new(ColorEncoding::Manhattan, dim, 1, 1, &mut rng).unwrap();
        PixelEncoder::new(position, color).unwrap()
    }

    fn gradient(width: usize, height: usize) -> DynamicImage {
        let mut img = GrayImage::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, ((x * 255) / (width - 1).max(1)) as u8)
                    .unwrap();
            }
        }
        DynamicImage::Gray(img)
    }

    #[test]
    fn scalar_backend_encode_matches_the_direct_kernel_bitwise() {
        let enc = encoder(1000, 8, 6);
        let image = gradient(8, 6);
        let view = ImageView::full(&image);
        let region = TileRect {
            x: 1,
            y: 2,
            width: 5,
            height: 3,
        };
        let mut direct = HvMatrix::zeros(region.area(), 1000).unwrap();
        enc.encode_region_into(&view, &region, &mut direct).unwrap();
        let mut via_backend = HvMatrix::zeros(region.area(), 1000).unwrap();
        SimdCpuBackend::scalar()
            .encode_region(&enc, &view, &region, &mut via_backend)
            .unwrap();
        assert_eq!(direct, via_backend);
    }

    #[test]
    fn scalar_backend_cluster_matches_the_direct_kernel() {
        let enc = encoder(512, 6, 6);
        let image = gradient(6, 6);
        let matrix = enc.encode_matrix(&image).unwrap();
        let intensities: Vec<u8> = (0..36).map(|i| (i * 7) as u8).collect();
        let kmeans = HvKmeans::new(2, 3, false).unwrap();
        let direct = kmeans.cluster_matrix(&matrix, &intensities).unwrap();
        let via_backend = SimdCpuBackend::scalar()
            .cluster_matrix(&kmeans, &matrix, &intensities)
            .unwrap();
        assert_eq!(direct.labels, via_backend.labels);
        assert_eq!(direct.cluster_sizes, via_backend.cluster_sizes);
    }

    #[test]
    fn backend_trait_objects_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimdCpuBackend>();
        assert_send_sync::<Box<dyn ExecBackend>>();
    }

    #[test]
    fn backends_report_their_kernel_isa() {
        assert_eq!(SimdCpuBackend::scalar().kernel_isa(), "scalar");
        let auto = SimdCpuBackend::auto();
        assert_eq!(auto.name(), "simd-cpu");
        assert_eq!(auto.kernel_isa(), auto.kernels().name());
        assert!(hdc::kernels::KNOWN_ISAS.contains(&auto.kernel_isa()));
        assert_eq!(SimdCpuBackend::default().kernel_isa(), auto.kernel_isa());
    }

    #[test]
    fn simd_backend_encode_and_cluster_match_the_scalar_reference_bitwise() {
        // dim 1000 exercises a non-lane-multiple word tail (16 words).
        let enc = encoder(1000, 8, 6);
        let image = gradient(8, 6);
        let view = ImageView::full(&image);
        let region = TileRect {
            x: 1,
            y: 0,
            width: 7,
            height: 5,
        };
        let mut scalar = HvMatrix::zeros(region.area(), 1000).unwrap();
        SimdCpuBackend::scalar()
            .encode_region(&enc, &view, &region, &mut scalar)
            .unwrap();
        let mut simd = HvMatrix::zeros(region.area(), 1000).unwrap();
        SimdCpuBackend::auto()
            .encode_region(&enc, &view, &region, &mut simd)
            .unwrap();
        assert_eq!(scalar, simd);

        let intensities: Vec<u8> = (0..region.area()).map(|i| (i * 7) as u8).collect();
        let kmeans = HvKmeans::new(2, 3, true).unwrap();
        let by_scalar = SimdCpuBackend::scalar()
            .cluster_matrix(&kmeans, &scalar, &intensities)
            .unwrap();
        let by_simd = SimdCpuBackend::auto()
            .cluster_matrix(&kmeans, &simd, &intensities)
            .unwrap();
        assert_eq!(by_scalar.labels, by_simd.labels);
        assert_eq!(by_scalar.snapshots, by_simd.snapshots);
        assert_eq!(by_scalar.cluster_sizes, by_simd.cluster_sizes);
    }
}
