//! Drawing primitives used by the synthetic dataset generators.
//!
//! All functions clip silently at the image border, so shapes may be placed
//! partially outside of the canvas (real microscopy nuclei are frequently cut
//! off at the image edge, and the generators reproduce that).

use crate::{GrayImage, LabelMap};

/// Fills an axis-aligned ellipse centred at `(cx, cy)` with radii
/// `(rx, ry)` into a grayscale image.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), imaging::ImagingError> {
/// use imaging::{draw, GrayImage};
/// let mut img = GrayImage::new(32, 32)?;
/// draw::fill_ellipse(&mut img, 16.0, 16.0, 5.0, 8.0, 255);
/// assert!(img.get(16, 16)? == 255);
/// assert!(img.get(0, 0)? == 0);
/// # Ok(())
/// # }
/// ```
pub fn fill_ellipse(image: &mut GrayImage, cx: f64, cy: f64, rx: f64, ry: f64, value: u8) {
    let (width, height) = (image.width(), image.height());
    let x_min = (cx - rx).floor().max(0.0) as usize;
    let x_max = (cx + rx).ceil().min(width as f64 - 1.0) as usize;
    let y_min = (cy - ry).floor().max(0.0) as usize;
    let y_max = (cy + ry).ceil().min(height as f64 - 1.0) as usize;
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    for y in y_min..=y_max {
        for x in x_min..=x_max {
            let dx = (x as f64 - cx) / rx;
            let dy = (y as f64 - cy) / ry;
            if dx * dx + dy * dy <= 1.0 {
                image
                    .set(x, y, value)
                    .expect("loop bounds are clipped to the image");
            }
        }
    }
}

/// Fills an axis-aligned ellipse into a label map with the given label.
pub fn fill_ellipse_label(map: &mut LabelMap, cx: f64, cy: f64, rx: f64, ry: f64, label: u32) {
    let (width, height) = (map.width(), map.height());
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    let x_min = (cx - rx).floor().max(0.0) as usize;
    let x_max = (cx + rx).ceil().min(width as f64 - 1.0) as usize;
    let y_min = (cy - ry).floor().max(0.0) as usize;
    let y_max = (cy + ry).ceil().min(height as f64 - 1.0) as usize;
    for y in y_min..=y_max {
        for x in x_min..=x_max {
            let dx = (x as f64 - cx) / rx;
            let dy = (y as f64 - cy) / ry;
            if dx * dx + dy * dy <= 1.0 {
                map.set(x, y, label)
                    .expect("loop bounds are clipped to the map");
            }
        }
    }
}

/// Adds a linear intensity gradient across the image: the value at `(x, y)`
/// is increased by `strength * (a*x + b*y)` normalised to the image diagonal,
/// saturating at 255. This reproduces the uneven illumination typical of
/// microscopy backgrounds.
pub fn add_linear_gradient(image: &mut GrayImage, a: f64, b: f64, strength: f64) {
    let width = image.width();
    let height = image.height();
    let norm = (a.abs() * width as f64 + b.abs() * height as f64).max(1.0);
    for y in 0..height {
        for x in 0..width {
            let g = strength * (a * x as f64 + b * y as f64) / norm;
            let old = f64::from(image.get(x, y).expect("in bounds"));
            let new = (old + g).clamp(0.0, 255.0) as u8;
            image.set(x, y, new).expect("in bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ellipse_fills_centre_and_leaves_corners() {
        let mut img = GrayImage::new(21, 21).unwrap();
        fill_ellipse(&mut img, 10.0, 10.0, 4.0, 6.0, 200);
        assert_eq!(img.get(10, 10).unwrap(), 200);
        assert_eq!(img.get(10, 15).unwrap(), 200); // within ry
        assert_eq!(img.get(15, 10).unwrap(), 0); // outside rx
        assert_eq!(img.get(0, 0).unwrap(), 0);
    }

    #[test]
    fn disc_is_symmetric() {
        let mut img = GrayImage::new(21, 21).unwrap();
        fill_ellipse(&mut img, 10.0, 10.0, 5.0, 5.0, 255);
        for (dx, dy) in [(5i64, 0i64), (-5, 0), (0, 5), (0, -5)] {
            let x = (10 + dx) as usize;
            let y = (10 + dy) as usize;
            assert_eq!(img.get(x, y).unwrap(), 255, "({dx},{dy})");
        }
    }

    #[test]
    fn shapes_clip_at_borders_without_panicking() {
        let mut img = GrayImage::new(10, 10).unwrap();
        fill_ellipse(&mut img, 0.0, 0.0, 6.0, 6.0, 100);
        fill_ellipse(&mut img, 9.0, 9.0, 6.0, 6.0, 100);
        fill_ellipse(&mut img, -3.0, -3.0, 2.0, 2.0, 50);
        assert_eq!(img.get(0, 0).unwrap(), 100);
        assert_eq!(img.get(9, 9).unwrap(), 100);
    }

    #[test]
    fn degenerate_radii_draw_nothing() {
        let mut img = GrayImage::new(10, 10).unwrap();
        fill_ellipse(&mut img, 5.0, 5.0, 0.0, 3.0, 100);
        assert!(img.as_raw().iter().all(|&v| v == 0));
    }

    #[test]
    fn label_ellipse_writes_labels() {
        let mut map = LabelMap::new(16, 16).unwrap();
        fill_ellipse_label(&mut map, 8.0, 8.0, 3.0, 3.0, 7);
        assert_eq!(map.get(8, 8).unwrap(), 7);
        assert_eq!(map.get(0, 0).unwrap(), 0);
        assert!(map.foreground_pixels() > 20);
    }

    #[test]
    fn gradient_is_monotonic_along_its_direction() {
        let mut img = GrayImage::new(32, 4).unwrap();
        add_linear_gradient(&mut img, 1.0, 0.0, 120.0);
        let left = img.get(0, 0).unwrap();
        let mid = img.get(16, 0).unwrap();
        let right = img.get(31, 0).unwrap();
        assert!(left <= mid && mid <= right);
        assert!(right > left);
    }

    #[test]
    fn gradient_saturates_instead_of_wrapping() {
        let mut img = GrayImage::filled(8, 8, 250).unwrap();
        add_linear_gradient(&mut img, 1.0, 1.0, 300.0);
        assert!(img.as_raw().iter().all(|&v| v >= 250));
    }
}
