use crate::{DeviceError, Result, Workload};
use std::time::Duration;

/// Sustained-throughput description of a target device.
///
/// The constants are deliberately coarse — the experiments reproduced from
/// the paper only rely on *relative* latencies (SegHDC vs. the CNN baseline)
/// and on the absolute memory capacity, both of which are insensitive to
/// ±2× errors in the throughput numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human readable device name.
    pub name: String,
    /// Number of CPU cores.
    pub cores: u32,
    /// Core clock frequency in Hz.
    pub clock_hz: f64,
    /// Sustained single-precision FLOP/s for dense convolution kernels
    /// (all cores, SIMD, as achieved by an optimised BLAS/NNPACK backend).
    pub flops_per_second: f64,
    /// Sustained 64-bit integer/bit operations per second for the HDC
    /// kernels (XOR, popcount, integer accumulation).
    pub int_ops_per_second: f64,
    /// Memory that a user process can actually allocate (total RAM minus
    /// OS, framework and allocator overhead).
    pub usable_memory_bytes: u64,
    /// Single-thread speed relative to the development host profile
    /// (`1.0` = host); used to rescale wall-clock measurements.
    pub relative_speed: f64,
}

/// A latency estimate produced by [`DeviceProfile::estimate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyEstimate {
    /// Time attributed to floating-point work.
    pub float_seconds: f64,
    /// Time attributed to integer/bit work.
    pub int_seconds: f64,
}

impl LatencyEstimate {
    /// Total estimated latency.
    pub fn total(&self) -> Duration {
        Duration::from_secs_f64(self.float_seconds + self.int_seconds)
    }
}

impl DeviceProfile {
    /// Raspberry Pi 4 Model B (4 GB), the edge device of the paper.
    ///
    /// Throughput constants are calibrated so that the CNN baseline's
    /// reference workload (≈ 50 TFLOP for 1000 training iterations on a
    /// 256×320×3 image) lands in the `10^4`-second range the paper reports,
    /// and usable memory is 4 GB minus roughly 0.8 GB of OS + framework
    /// overhead.
    pub fn raspberry_pi_4() -> Self {
        Self {
            name: "Raspberry Pi 4 Model B (4 GB)".to_string(),
            cores: 4,
            clock_hz: 1.5e9,
            flops_per_second: 4.5e9,
            int_ops_per_second: 6.0e9,
            usable_memory_bytes: 3_200_000_000,
            relative_speed: 0.12,
        }
    }

    /// A typical x86-64 development host (the machine this repository's
    /// benchmarks run on); the reference point for
    /// [`scale_measurement`](Self::scale_measurement).
    pub fn desktop_host() -> Self {
        Self {
            name: "x86-64 development host".to_string(),
            cores: 16,
            clock_hz: 3.0e9,
            flops_per_second: 1.5e11,
            int_ops_per_second: 8.0e10,
            usable_memory_bytes: 28_000_000_000,
            relative_speed: 1.0,
        }
    }

    /// Checks whether `workload` fits in the device's usable memory.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when it does not — the condition
    /// rendered as `×*` in Table II.
    pub fn check_memory(&self, workload: &Workload) -> Result<()> {
        if workload.peak_memory_bytes > self.usable_memory_bytes {
            return Err(DeviceError::OutOfMemory {
                required_bytes: workload.peak_memory_bytes,
                available_bytes: self.usable_memory_bytes,
            });
        }
        Ok(())
    }

    /// Estimates the latency of `workload` on this device.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] if the workload does not fit in
    /// memory (a workload that cannot run has no latency), or
    /// [`DeviceError::InvalidParameter`] if the profile has non-positive
    /// throughput numbers.
    pub fn estimate(&self, workload: &Workload) -> Result<LatencyEstimate> {
        if self.flops_per_second <= 0.0 || self.int_ops_per_second <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                message: "device throughput must be positive".to_string(),
            });
        }
        self.check_memory(workload)?;
        Ok(LatencyEstimate {
            float_seconds: workload.flops / self.flops_per_second,
            int_seconds: workload.int_ops / self.int_ops_per_second,
        })
    }

    /// Rescales a wall-clock duration measured on `measured_on` to this
    /// device using the `relative_speed` ratio of the two profiles.
    ///
    /// This is how the Table II harness converts host measurements of the
    /// Rust SegHDC implementation into Raspberry-Pi-class latencies.
    pub fn scale_measurement(&self, measured_on: &DeviceProfile, measured: Duration) -> Duration {
        let ratio = measured_on.relative_speed / self.relative_speed;
        Duration::from_secs_f64(measured.as_secs_f64() * ratio)
    }

    /// Speedup of workload `fast` over workload `slow` on this device
    /// (`slow latency / fast latency`).
    ///
    /// # Errors
    ///
    /// Propagates estimation errors from either workload.
    pub fn speedup(&self, slow: &Workload, fast: &Workload) -> Result<f64> {
        let slow_latency = self.estimate(slow)?.total().as_secs_f64();
        let fast_latency = self.estimate(fast)?.total().as_secs_f64();
        if fast_latency == 0.0 {
            return Err(DeviceError::InvalidParameter {
                message: "fast workload has zero estimated latency".to_string(),
            });
        }
        Ok(slow_latency / fast_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_profile_matches_the_paper_hardware() {
        let pi = DeviceProfile::raspberry_pi_4();
        assert_eq!(pi.cores, 4);
        assert!((pi.clock_hz - 1.5e9).abs() < 1.0);
        assert!(pi.usable_memory_bytes < 4_000_000_000);
        assert!(pi.relative_speed < 1.0);
    }

    #[test]
    fn baseline_latency_on_pi_is_in_the_papers_range() {
        // Paper: 11453 s for the reference baseline on a 256x320x3 image.
        let pi = DeviceProfile::raspberry_pi_4();
        let cnn = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
        let estimate = pi.estimate(&cnn).unwrap();
        let seconds = estimate.total().as_secs_f64();
        assert!(
            (3_000.0..40_000.0).contains(&seconds),
            "estimated {seconds} s"
        );
    }

    #[test]
    fn baseline_oom_on_the_large_image_but_not_the_small_one() {
        let pi = DeviceProfile::raspberry_pi_4();
        let small = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
        let large = Workload::cnn_unsupervised(696, 520, 1, 100, 2, 1000);
        assert!(pi.check_memory(&small).is_ok());
        assert!(matches!(
            pi.check_memory(&large),
            Err(DeviceError::OutOfMemory { .. })
        ));
        assert!(pi.estimate(&large).is_err());
    }

    #[test]
    fn seghdc_speedup_over_baseline_is_hundreds_fold() {
        // Table II reports 319.9x; the analytical model should land within
        // an order of magnitude of that.
        let pi = DeviceProfile::raspberry_pi_4();
        let cnn = Workload::cnn_unsupervised(320, 256, 3, 100, 2, 1000);
        let seghdc = Workload::seghdc(320, 256, 3, 800, 2, 3);
        let speedup = pi.speedup(&cnn, &seghdc).unwrap();
        assert!(speedup > 100.0, "speedup {speedup}");
    }

    #[test]
    fn host_is_faster_than_the_pi() {
        let pi = DeviceProfile::raspberry_pi_4();
        let host = DeviceProfile::desktop_host();
        let workload = Workload::seghdc(320, 256, 3, 800, 2, 3);
        let on_pi = pi.estimate(&workload).unwrap().total();
        let on_host = host.estimate(&workload).unwrap().total();
        assert!(on_pi > on_host);
    }

    #[test]
    fn measurement_scaling_is_inverse_between_devices() {
        let pi = DeviceProfile::raspberry_pi_4();
        let host = DeviceProfile::desktop_host();
        let measured = Duration::from_secs_f64(2.0);
        let on_pi = pi.scale_measurement(&host, measured);
        assert!(on_pi > measured);
        let back = host.scale_measurement(&pi, on_pi);
        assert!((back.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let mut broken = DeviceProfile::raspberry_pi_4();
        broken.flops_per_second = 0.0;
        let workload = Workload::seghdc(32, 32, 1, 256, 2, 1);
        assert!(matches!(
            broken.estimate(&workload),
            Err(DeviceError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn latency_estimate_splits_into_components() {
        let pi = DeviceProfile::raspberry_pi_4();
        let workload = Workload::seghdc(64, 64, 1, 1024, 2, 3);
        let estimate = pi.estimate(&workload).unwrap();
        assert!(estimate.int_seconds > 0.0);
        assert!(estimate.total().as_secs_f64() >= estimate.int_seconds);
    }
}
