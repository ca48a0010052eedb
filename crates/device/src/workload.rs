/// Operation and memory accounting for one algorithm run on one image.
///
/// Counts are analytical (derived from the algorithm definition), not
/// sampled, so they are exact for the modelled implementation and
/// independent of the machine the model runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human readable workload name (shown by the experiment harnesses).
    pub name: String,
    /// Dense single-precision floating-point operations (multiply and add
    /// counted separately).
    pub flops: f64,
    /// Integer / bit-level operations: 64-bit XOR + popcount words, integer
    /// accumulations and comparisons of the HDC kernels.
    pub int_ops: f64,
    /// Peak resident memory in bytes (buffers that must be live at the same
    /// time).
    pub peak_memory_bytes: u64,
}

impl Workload {
    /// Workload of the **Kim et al. CNN baseline** training on one image.
    ///
    /// The model follows the reference implementation: `conv_blocks` 3×3
    /// convolutions (first from `in_channels`, then `feature_channels` →
    /// `feature_channels`), a 1×1 classifier, batch-norm after every
    /// convolution, and `iterations` rounds of self-training where each
    /// round costs roughly one forward plus two forward-equivalents for the
    /// backward pass.
    ///
    /// Peak memory counts, as in the PyTorch reference running on an ARM
    /// CPU: weights (plus gradient and momentum copies), cached forward
    /// activations, an equally sized gradient buffer during the backward
    /// pass, and the im2col workspace of the widest convolution (forward and
    /// backward copies).
    pub fn cnn_unsupervised(
        width: usize,
        height: usize,
        in_channels: usize,
        feature_channels: usize,
        conv_blocks: usize,
        iterations: usize,
    ) -> Self {
        let pixels = (width * height) as f64;
        let f = feature_channels as f64;
        let c_in = in_channels as f64;

        // Multiply-accumulate counts per forward pass.
        let first_conv = pixels * 9.0 * c_in * f;
        let middle_convs = pixels * 9.0 * f * f * (conv_blocks.saturating_sub(1)) as f64;
        let classifier = pixels * f * f;
        let batch_norms = 6.0 * pixels * f * (conv_blocks + 1) as f64;
        let forward_macs = first_conv + middle_convs + classifier + batch_norms;
        // One MAC = 2 FLOPs; backward ≈ 2x forward.
        let flops = iterations as f64 * forward_macs * 2.0 * 3.0;

        // Peak memory (bytes, f32 everywhere).
        let weights = 4.0
            * (9.0 * c_in * f
                + 9.0 * f * f * (conv_blocks.saturating_sub(1)) as f64
                + f * f
                + 4.0 * f * (conv_blocks + 1) as f64);
        let weight_copies = 3.0 * weights; // parameters + gradients + momentum
        let activations = 4.0 * pixels * (c_in + f * (3 * conv_blocks + 2) as f64);
        let gradient_buffers = activations;
        let im2col = 2.0 * 4.0 * pixels * 9.0 * f.max(c_in);
        let peak_memory_bytes = (weight_copies + activations + gradient_buffers + im2col) as u64;

        Self {
            name: format!(
                "cnn-baseline {width}x{height}x{in_channels} F={feature_channels} iters={iterations}"
            ),
            flops,
            int_ops: 0.0,
            peak_memory_bytes,
        }
    }

    /// Workload of **SegHDC** on one image.
    ///
    /// Encoding XORs two packed hypervectors per pixel (plus the one-off
    /// codebook generation); each clustering iteration computes one dot
    /// product per pixel per cluster against the integer centroids and one
    /// centroid update pass. Peak memory holds all pixel hypervectors
    /// (packed, 1 bit per element), the row/column/colour codebooks and the
    /// integer centroid accumulators.
    pub fn seghdc(
        width: usize,
        height: usize,
        channels: usize,
        dimension: usize,
        clusters: usize,
        iterations: usize,
    ) -> Self {
        let pixels = (width * height) as f64;
        let d = dimension as f64;
        let words = (dimension as f64 / 64.0).ceil();
        let k = clusters as f64;

        let codebook_ops = (height as f64 + width as f64 + 256.0 * channels as f64) * words;
        let encode_ops = pixels * 2.0 * words;
        // Assignment: one sparse dot product (≈ d/2 set bits) per pixel per
        // cluster; update: one accumulation pass over all pixels.
        let per_iteration = pixels * k * (d / 2.0) + pixels * (d / 2.0);
        let int_ops = codebook_ops + encode_ops + iterations as f64 * per_iteration;
        // Norms, square roots and divisions of the cosine distances.
        let flops = iterations as f64 * pixels * k * 4.0;

        let pixel_hvs = pixels * d / 8.0;
        let codebooks = (height as f64 + width as f64 + 256.0 * channels as f64) * d / 8.0;
        let centroids = k * d * 4.0;
        let intensities = pixels;
        let peak_memory_bytes = (pixel_hvs + codebooks + centroids + intensities) as u64;

        Self {
            name: format!(
                "seghdc {width}x{height}x{channels} d={dimension} k={clusters} iters={iterations}"
            ),
            flops,
            int_ops,
            peak_memory_bytes,
        }
    }

    /// Total operation count (integer plus floating point).
    pub fn total_ops(&self) -> f64 {
        self.flops + self.int_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnn_workload_scales_with_image_iterations_and_channels() {
        let small = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
        let large = Workload::cnn_unsupervised(696, 520, 1, 100, 2, 1000);
        assert!(large.flops > small.flops);
        assert!(large.peak_memory_bytes > small.peak_memory_bytes);

        let short = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 10);
        assert!((small.flops / short.flops - 100.0).abs() < 1.0);
        // Iteration count does not change peak memory.
        assert_eq!(small.peak_memory_bytes, short.peak_memory_bytes);

        let narrow = Workload::cnn_unsupervised(320, 256, 3, 50, 2, 1000);
        assert!(narrow.flops < small.flops);
        assert!(narrow.peak_memory_bytes < small.peak_memory_bytes);
    }

    #[test]
    fn cnn_flops_match_the_dominant_conv_term() {
        // 256x320x3, F=100, 2 blocks, 1 iteration: the 100->100 3x3 conv
        // dominates at 81920 * 9 * 100 * 100 MACs.
        let w = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1);
        let dominant_macs = 81_920.0 * 9.0 * 100.0 * 100.0;
        assert!(w.flops > dominant_macs * 2.0);
        assert!(w.flops < dominant_macs * 2.0 * 3.0 * 1.5);
    }

    #[test]
    fn paper_scale_cnn_memory_exceeds_four_gigabytes_only_for_the_large_image() {
        let dsb = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
        let bbbc = Workload::cnn_unsupervised(696, 520, 1, 100, 2, 1000);
        assert!(dsb.peak_memory_bytes < 3_200_000_000);
        assert!(bbbc.peak_memory_bytes > 3_200_000_000);
    }

    #[test]
    fn seghdc_workload_scales_with_dimension_and_iterations() {
        let base = Workload::seghdc(320, 256, 3, 800, 2, 3);
        let wide = Workload::seghdc(320, 256, 3, 1600, 2, 3);
        let long = Workload::seghdc(320, 256, 3, 800, 2, 6);
        assert!(wide.int_ops > base.int_ops * 1.8);
        assert!(wide.peak_memory_bytes > base.peak_memory_bytes);
        assert!(long.int_ops > base.int_ops * 1.5);
        assert_eq!(base.peak_memory_bytes, long.peak_memory_bytes);
    }

    #[test]
    fn seghdc_is_orders_of_magnitude_cheaper_than_the_cnn_baseline() {
        // The asymmetry behind Table II's 300x speedup.
        let cnn = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
        let seghdc = Workload::seghdc(320, 256, 3, 800, 2, 3);
        assert!(cnn.total_ops() / seghdc.total_ops() > 1_000.0);
        assert!(cnn.peak_memory_bytes > 10 * seghdc.peak_memory_bytes);
    }

    #[test]
    fn seghdc_fits_on_an_edge_device_even_for_the_large_image() {
        let seghdc = Workload::seghdc(696, 520, 1, 2000, 2, 3);
        assert!(seghdc.peak_memory_bytes < 500_000_000);
    }

    #[test]
    fn workload_names_describe_the_configuration() {
        let w = Workload::seghdc(64, 48, 1, 800, 2, 3);
        assert!(w.name.contains("64x48"));
        assert!(w.name.contains("d=800"));
        let c = Workload::cnn_unsupervised(64, 48, 3, 100, 2, 10);
        assert!(c.name.contains("F=100"));
    }
}
