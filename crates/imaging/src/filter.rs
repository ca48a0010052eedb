//! Image filtering: Gaussian blur and synthetic noise models.

use crate::{GrayImage, ImagingError, Result};
use rand::Rng;

/// Builds a normalised 1-D Gaussian kernel with standard deviation `sigma`.
/// The radius is `ceil(3 * sigma)`, which captures > 99% of the mass.
fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    let radius = (3.0 * sigma).ceil().max(1.0) as isize;
    let mut kernel: Vec<f64> = (-radius..=radius)
        .map(|i| (-((i * i) as f64) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

/// Applies a separable Gaussian blur with standard deviation `sigma`.
///
/// Border pixels are handled by clamping (edge replication).
///
/// # Errors
///
/// Returns [`ImagingError::InvalidParameter`] if `sigma` is not finite and
/// strictly positive.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), imaging::ImagingError> {
/// use imaging::{filter, GrayImage};
/// let mut img = GrayImage::new(9, 9)?;
/// img.set(4, 4, 255)?;
/// let blurred = filter::gaussian_blur(&img, 1.0)?;
/// assert!(blurred.get(4, 4)? < 255);
/// assert!(blurred.get(3, 4)? > 0);
/// # Ok(())
/// # }
/// ```
pub fn gaussian_blur(image: &GrayImage, sigma: f64) -> Result<GrayImage> {
    if !sigma.is_finite() || sigma <= 0.0 {
        return Err(ImagingError::InvalidParameter {
            message: format!("gaussian sigma must be positive and finite, got {sigma}"),
        });
    }
    let kernel = gaussian_kernel(sigma);
    let radius = (kernel.len() / 2) as isize;
    let width = image.width();
    let height = image.height();

    // Horizontal pass.
    let mut horizontal = vec![0.0f64; width * height];
    for y in 0..height {
        for x in 0..width {
            let mut acc = 0.0;
            for (k, &w) in kernel.iter().enumerate() {
                let sx = x as isize + k as isize - radius;
                acc += w * f64::from(image.get_clamped(sx, y as isize));
            }
            horizontal[y * width + x] = acc;
        }
    }
    // Vertical pass.
    let mut out = vec![0u8; width * height];
    for y in 0..height {
        for x in 0..width {
            let mut acc = 0.0;
            for (k, &w) in kernel.iter().enumerate() {
                let sy = (y as isize + k as isize - radius).clamp(0, height as isize - 1) as usize;
                acc += w * horizontal[sy * width + x];
            }
            out[y * width + x] = acc.round().clamp(0.0, 255.0) as u8;
        }
    }
    GrayImage::from_raw(width, height, out)
}

/// Adds zero-mean Gaussian noise with standard deviation `sigma` to every
/// pixel, saturating at the 8-bit range.
///
/// # Errors
///
/// Returns [`ImagingError::InvalidParameter`] if `sigma` is negative or not
/// finite.
pub fn add_gaussian_noise<R: Rng>(image: &mut GrayImage, sigma: f64, rng: &mut R) -> Result<()> {
    if !sigma.is_finite() || sigma < 0.0 {
        return Err(ImagingError::InvalidParameter {
            message: format!("noise sigma must be non-negative and finite, got {sigma}"),
        });
    }
    if sigma == 0.0 {
        return Ok(());
    }
    for v in image.as_raw_mut() {
        // Box-Muller transform for a standard normal sample.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let noisy = f64::from(*v) + sigma * n;
        *v = noisy.round().clamp(0.0, 255.0) as u8;
    }
    Ok(())
}

/// Smooth pseudo-random "value noise" texture in `[0, 1]`, evaluated at
/// `(x, y)` with the given cell size and seed. Used for MoNuSeg-style tissue
/// texture in the synthetic generators.
///
/// The function is deterministic in `(x, y, cell, seed)`.
pub fn value_noise(x: f64, y: f64, cell: f64, seed: u64) -> f64 {
    fn hash(ix: i64, iy: i64, seed: u64) -> f64 {
        let mut h = seed ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        (h & 0xFFFF_FFFF) as f64 / f64::from(u32::MAX)
    }
    fn smooth(t: f64) -> f64 {
        t * t * (3.0 - 2.0 * t)
    }
    let cell = cell.max(1.0);
    let gx = x / cell;
    let gy = y / cell;
    let ix = gx.floor() as i64;
    let iy = gy.floor() as i64;
    let fx = smooth(gx - gx.floor());
    let fy = smooth(gy - gy.floor());
    let v00 = hash(ix, iy, seed);
    let v10 = hash(ix + 1, iy, seed);
    let v01 = hash(ix, iy + 1, seed);
    let v11 = hash(ix + 1, iy + 1, seed);
    let top = v00 + (v10 - v00) * fx;
    let bottom = v01 + (v11 - v01) * fx;
    top + (bottom - top) * fy
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn kernel_is_normalised_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayImage::filled(16, 16, 120).unwrap();
        let blurred = gaussian_blur(&img, 2.0).unwrap();
        assert!(blurred.as_raw().iter().all(|&v| (119..=121).contains(&v)));
    }

    #[test]
    fn blur_spreads_an_impulse() {
        let mut img = GrayImage::new(15, 15).unwrap();
        img.set(7, 7, 255).unwrap();
        let blurred = gaussian_blur(&img, 1.0).unwrap();
        assert!(blurred.get(7, 7).unwrap() < 255);
        assert!(blurred.get(6, 7).unwrap() > 0);
        assert!(blurred.get(7, 6).unwrap() > 0);
        // Far corner stays black.
        assert_eq!(blurred.get(0, 0).unwrap(), 0);
    }

    #[test]
    fn blur_rejects_bad_sigma() {
        let img = GrayImage::new(4, 4).unwrap();
        assert!(gaussian_blur(&img, 0.0).is_err());
        assert!(gaussian_blur(&img, -1.0).is_err());
        assert!(gaussian_blur(&img, f64::NAN).is_err());
    }

    #[test]
    fn gaussian_noise_perturbs_roughly_by_sigma() {
        let mut img = GrayImage::filled(64, 64, 128).unwrap();
        add_gaussian_noise(&mut img, 10.0, &mut rng()).unwrap();
        let mean = img.mean();
        assert!((mean - 128.0).abs() < 3.0, "mean {mean}");
        let var: f64 = img
            .as_raw()
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / img.pixel_count() as f64;
        assert!((var.sqrt() - 10.0).abs() < 2.0, "std {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_noise_is_identity() {
        let mut img = GrayImage::filled(8, 8, 42).unwrap();
        let before = img.clone();
        add_gaussian_noise(&mut img, 0.0, &mut rng()).unwrap();
        assert_eq!(img, before);
    }

    #[test]
    fn noise_rejects_invalid_parameters() {
        let mut img = GrayImage::new(4, 4).unwrap();
        assert!(add_gaussian_noise(&mut img, -1.0, &mut rng()).is_err());
    }

    #[test]
    fn value_noise_is_deterministic_bounded_and_varies() {
        let a = value_noise(10.3, 42.7, 16.0, 99);
        let b = value_noise(10.3, 42.7, 16.0, 99);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
        let c = value_noise(200.0, 300.0, 16.0, 99);
        let d = value_noise(10.3, 42.7, 16.0, 100);
        assert!((a - c).abs() > 1e-9 || (a - d).abs() > 1e-9);
    }

    #[test]
    fn value_noise_is_smooth_within_a_cell() {
        let a = value_noise(32.0, 32.0, 32.0, 1);
        let b = value_noise(32.5, 32.0, 32.0, 1);
        assert!((a - b).abs() < 0.2);
    }
}
