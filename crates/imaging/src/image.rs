use crate::{ImagingError, Result};

/// An 8-bit single-channel (grayscale) image stored row-major.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), imaging::ImagingError> {
/// use imaging::GrayImage;
/// let mut img = GrayImage::new(4, 3)?;
/// img.set(1, 2, 200)?;
/// assert_eq!(img.get(1, 2)?, 200);
/// assert_eq!(img.pixel_count(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black image of the given size.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        Self::filled(width, height, 0)
    }

    /// Creates an image where every pixel is `value`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        Ok(Self {
            width,
            height,
            data: vec![value; width * height],
        })
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] for zero dimensions and
    /// [`ImagingError::BufferSizeMismatch`] if `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        if data.len() != width * height {
            return Err(ImagingError::BufferSizeMismatch {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels (`width * height`).
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    pub fn as_raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    fn check_bounds(&self, x: usize, y: usize) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(ImagingError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(())
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// image.
    pub fn get(&self, x: usize, y: usize) -> Result<u8> {
        self.check_bounds(x, y)?;
        Ok(self.data[y * self.width + x])
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// image.
    pub fn set(&mut self, x: usize, y: usize, value: u8) -> Result<()> {
        self.check_bounds(x, y)?;
        self.data[y * self.width + x] = value;
        Ok(())
    }

    /// Returns the pixel at `(x, y)` clamped to the image borders (useful for
    /// convolution without explicit padding).
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Iterates over `(x, y, value)` for every pixel in row-major order.
    pub fn iter_pixels(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        let width = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i % width, i / width, v))
    }

    /// Minimum and maximum pixel value.
    pub fn min_max(&self) -> (u8, u8) {
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        for &v in &self.data {
            min = min.min(v);
            max = max.max(v);
        }
        (min, max)
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum::<f64>() / self.pixel_count() as f64
    }

    /// Converts to a three-channel RGB image by replicating the gray channel.
    pub fn to_rgb(&self) -> RgbImage {
        let mut data = Vec::with_capacity(self.data.len() * 3);
        for &v in &self.data {
            data.extend_from_slice(&[v, v, v]);
        }
        RgbImage::from_raw(self.width, self.height, data)
            .expect("buffer size is width * height * 3 by construction")
    }
}

/// An 8-bit three-channel (RGB) image stored row-major, interleaved.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), imaging::ImagingError> {
/// use imaging::RgbImage;
/// let mut img = RgbImage::new(2, 2)?;
/// img.set(0, 1, [255, 10, 0])?;
/// assert_eq!(img.get(0, 1)?, [255, 10, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl RgbImage {
    /// Creates a black RGB image.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        Ok(Self {
            width,
            height,
            data: vec![0; width * height * 3],
        })
    }

    /// Wraps an existing interleaved RGB buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] for zero dimensions and
    /// [`ImagingError::BufferSizeMismatch`] if
    /// `data.len() != width * height * 3`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        if data.len() != width * height * 3 {
            return Err(ImagingError::BufferSizeMismatch {
                expected: width * height * 3,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels (`width * height`).
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Borrow of the underlying interleaved RGB buffer.
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Mutable borrow of the underlying interleaved RGB buffer.
    pub fn as_raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    fn check_bounds(&self, x: usize, y: usize) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(ImagingError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(())
    }

    /// Returns the `[r, g, b]` pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// image.
    pub fn get(&self, x: usize, y: usize) -> Result<[u8; 3]> {
        self.check_bounds(x, y)?;
        let i = (y * self.width + x) * 3;
        Ok([self.data[i], self.data[i + 1], self.data[i + 2]])
    }

    /// Sets the `[r, g, b]` pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// image.
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) -> Result<()> {
        self.check_bounds(x, y)?;
        let i = (y * self.width + x) * 3;
        self.data[i] = rgb[0];
        self.data[i + 1] = rgb[1];
        self.data[i + 2] = rgb[2];
        Ok(())
    }

    /// Iterates over `(x, y, [r, g, b])` for every pixel in row-major order.
    pub fn iter_pixels(&self) -> impl Iterator<Item = (usize, usize, [u8; 3])> + '_ {
        let width = self.width;
        (0..self.pixel_count()).map(move |i| {
            let x = i % width;
            let y = i / width;
            let j = i * 3;
            (x, y, [self.data[j], self.data[j + 1], self.data[j + 2]])
        })
    }

    /// Converts to grayscale with the ITU-R BT.601 luma weights.
    pub fn to_gray(&self) -> GrayImage {
        crate::colorspace::rgb_to_gray(self)
    }
}

/// Either a grayscale or an RGB image.
///
/// The SegHDC pipeline accepts both (the BBBC005 evaluation image is
/// single-channel, the DSB2018 one has three channels); `DynamicImage` lets
/// callers pass either without committing to a channel count at the type
/// level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicImage {
    /// A single-channel image.
    Gray(GrayImage),
    /// A three-channel image.
    Rgb(RgbImage),
}

impl DynamicImage {
    /// Image width in pixels.
    pub fn width(&self) -> usize {
        match self {
            DynamicImage::Gray(img) => img.width(),
            DynamicImage::Rgb(img) => img.width(),
        }
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        match self {
            DynamicImage::Gray(img) => img.height(),
            DynamicImage::Rgb(img) => img.height(),
        }
    }

    /// Number of colour channels (1 or 3).
    pub fn channels(&self) -> usize {
        match self {
            DynamicImage::Gray(_) => 1,
            DynamicImage::Rgb(_) => 3,
        }
    }

    /// Number of pixels (`width * height`).
    pub fn pixel_count(&self) -> usize {
        self.width() * self.height()
    }

    /// Returns the channel values of the pixel at `(x, y)` as a fixed-size
    /// array padded with the first channel (`[v, v, v]` for gray images).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// image.
    pub fn channels_at(&self, x: usize, y: usize) -> Result<[u8; 3]> {
        match self {
            DynamicImage::Gray(img) => {
                let v = img.get(x, y)?;
                Ok([v, v, v])
            }
            DynamicImage::Rgb(img) => img.get(x, y),
        }
    }

    /// Scalar intensity of the pixel at `(x, y)` (the gray value, or the
    /// luma of an RGB pixel). Used by the clusterer's max-colour-difference
    /// centroid initialisation.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// image.
    pub fn intensity_at(&self, x: usize, y: usize) -> Result<u8> {
        match self {
            DynamicImage::Gray(img) => img.get(x, y),
            DynamicImage::Rgb(img) => {
                let [r, g, b] = img.get(x, y)?;
                Ok(crate::colorspace::luma(r, g, b))
            }
        }
    }

    /// Converts to grayscale (identity for gray images).
    pub fn to_gray(&self) -> GrayImage {
        match self {
            DynamicImage::Gray(img) => img.clone(),
            DynamicImage::Rgb(img) => img.to_gray(),
        }
    }

    /// Converts to RGB (channel replication for gray images).
    pub fn to_rgb(&self) -> RgbImage {
        match self {
            DynamicImage::Gray(img) => img.to_rgb(),
            DynamicImage::Rgb(img) => img.clone(),
        }
    }
}

impl From<GrayImage> for DynamicImage {
    fn from(img: GrayImage) -> Self {
        DynamicImage::Gray(img)
    }
}

impl From<RgbImage> for DynamicImage {
    fn from(img: RgbImage) -> Self {
        DynamicImage::Rgb(img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_image_construction_and_access() {
        let mut img = GrayImage::new(3, 2).unwrap();
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert_eq!(img.pixel_count(), 6);
        img.set(2, 1, 77).unwrap();
        assert_eq!(img.get(2, 1).unwrap(), 77);
        assert_eq!(img.as_raw()[3 + 2], 77);
    }

    #[test]
    fn gray_image_rejects_bad_construction() {
        assert!(matches!(
            GrayImage::new(0, 5),
            Err(ImagingError::EmptyImage)
        ));
        assert!(matches!(
            GrayImage::new(5, 0),
            Err(ImagingError::EmptyImage)
        ));
        assert!(matches!(
            GrayImage::from_raw(2, 2, vec![0; 5]),
            Err(ImagingError::BufferSizeMismatch {
                expected: 4,
                actual: 5
            })
        ));
    }

    #[test]
    fn gray_image_out_of_bounds_access_errors() {
        let mut img = GrayImage::new(2, 2).unwrap();
        assert!(img.get(2, 0).is_err());
        assert!(img.get(0, 2).is_err());
        assert!(img.set(5, 5, 1).is_err());
    }

    #[test]
    fn gray_image_clamped_access_never_fails() {
        let img = GrayImage::from_raw(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(img.get_clamped(-5, -5), 1);
        assert_eq!(img.get_clamped(10, 10), 4);
        assert_eq!(img.get_clamped(1, 0), 2);
    }

    #[test]
    fn gray_image_statistics() {
        let img = GrayImage::from_raw(2, 2, vec![10, 20, 30, 40]).unwrap();
        assert_eq!(img.min_max(), (10, 40));
        assert!((img.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn gray_to_rgb_replicates_channels() {
        let img = GrayImage::from_raw(2, 1, vec![5, 9]).unwrap();
        let rgb = img.to_rgb();
        assert_eq!(rgb.get(0, 0).unwrap(), [5, 5, 5]);
        assert_eq!(rgb.get(1, 0).unwrap(), [9, 9, 9]);
    }

    #[test]
    fn rgb_image_construction_and_access() {
        let mut img = RgbImage::new(2, 2).unwrap();
        img.set(1, 1, [9, 8, 7]).unwrap();
        assert_eq!(img.get(1, 1).unwrap(), [9, 8, 7]);
        assert!(img.get(2, 0).is_err());
        assert!(RgbImage::from_raw(2, 2, vec![0; 11]).is_err());
        assert!(matches!(RgbImage::new(0, 1), Err(ImagingError::EmptyImage)));
    }

    #[test]
    fn iter_pixels_visits_every_pixel_once_in_order() {
        let img = GrayImage::from_raw(3, 2, vec![0, 1, 2, 3, 4, 5]).unwrap();
        let pixels: Vec<(usize, usize, u8)> = img.iter_pixels().collect();
        assert_eq!(pixels.len(), 6);
        assert_eq!(pixels[0], (0, 0, 0));
        assert_eq!(pixels[4], (1, 1, 4));
        let rgb = img.to_rgb();
        assert_eq!(rgb.iter_pixels().count(), 6);
    }

    #[test]
    fn dynamic_image_unifies_gray_and_rgb() {
        let gray = DynamicImage::from(GrayImage::from_raw(1, 1, vec![100]).unwrap());
        assert_eq!(gray.channels(), 1);
        assert_eq!(gray.channels_at(0, 0).unwrap(), [100, 100, 100]);
        assert_eq!(gray.intensity_at(0, 0).unwrap(), 100);

        let mut rgb_img = RgbImage::new(1, 1).unwrap();
        rgb_img.set(0, 0, [255, 0, 0]).unwrap();
        let rgb = DynamicImage::from(rgb_img);
        assert_eq!(rgb.channels(), 3);
        assert_eq!(rgb.channels_at(0, 0).unwrap(), [255, 0, 0]);
        // Luma of pure red is 0.299 * 255 ≈ 76.
        let intensity = rgb.intensity_at(0, 0).unwrap();
        assert!((75..=77).contains(&intensity));
        assert_eq!(rgb.pixel_count(), 1);
    }

    #[test]
    fn dynamic_image_roundtrip_conversions() {
        let gray = GrayImage::from_raw(2, 1, vec![10, 250]).unwrap();
        let dynamic = DynamicImage::from(gray.clone());
        assert_eq!(dynamic.to_gray(), gray);
        assert_eq!(dynamic.to_rgb().get(1, 0).unwrap(), [250, 250, 250]);
    }
}
