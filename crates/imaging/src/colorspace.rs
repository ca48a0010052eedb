//! Colour space conversions.

use crate::{GrayImage, RgbImage};

/// ITU-R BT.601 luma of an RGB triple, rounded to the nearest integer.
///
/// # Example
///
/// ```rust
/// assert_eq!(imaging::colorspace::luma(255, 255, 255), 255);
/// assert_eq!(imaging::colorspace::luma(0, 0, 0), 0);
/// ```
pub fn luma(r: u8, g: u8, b: u8) -> u8 {
    let y = 0.299 * f64::from(r) + 0.587 * f64::from(g) + 0.114 * f64::from(b);
    y.round().clamp(0.0, 255.0) as u8
}

/// Converts an RGB image to grayscale using [`luma`].
pub fn rgb_to_gray(image: &RgbImage) -> GrayImage {
    let data: Vec<u8> = image
        .as_raw()
        .chunks_exact(3)
        .map(|px| luma(px[0], px[1], px[2]))
        .collect();
    GrayImage::from_raw(image.width(), image.height(), data)
        .expect("gray buffer has one value per rgb pixel")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_matches_reference_weights() {
        assert_eq!(luma(255, 0, 0), 76);
        assert_eq!(luma(0, 255, 0), 150);
        assert_eq!(luma(0, 0, 255), 29);
        assert_eq!(luma(128, 128, 128), 128);
    }

    #[test]
    fn rgb_gray_roundtrip_for_neutral_colors() {
        let mut rgb = RgbImage::new(2, 1).unwrap();
        rgb.set(0, 0, [40, 40, 40]).unwrap();
        rgb.set(1, 0, [200, 200, 200]).unwrap();
        let gray = rgb_to_gray(&rgb);
        assert_eq!(gray.get(0, 0).unwrap(), 40);
        assert_eq!(gray.get(1, 0).unwrap(), 200);
        let back = gray.to_rgb();
        assert_eq!(back.get(1, 0).unwrap(), [200, 200, 200]);
    }
}
