use crate::{DynamicImage, GrayImage, ImagingError, Result, RgbImage, TileRect};

/// A borrowed rectangular view into a [`DynamicImage`].
///
/// A view re-addresses a sub-rectangle of an existing image without copying
/// any pixels: coordinates passed to the accessors are *view-local* and are
/// translated to the parent image internally. The streaming tiled segmenter
/// consumes views so that callers can segment a region of interest of a
/// scan that is itself too large to segment in one piece.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), imaging::ImagingError> {
/// use imaging::{DynamicImage, GrayImage, ImageView};
///
/// let mut img = GrayImage::new(8, 8)?;
/// img.set(5, 6, 200)?;
/// let image = DynamicImage::Gray(img);
/// let view = ImageView::crop(&image, 4, 4, 4, 4)?;
/// assert_eq!(view.width(), 4);
/// assert_eq!(view.intensity_at(1, 2)?, 200); // (5, 6) in image coordinates
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ImageView<'a> {
    image: &'a DynamicImage,
    origin_x: usize,
    origin_y: usize,
    width: usize,
    height: usize,
}

impl<'a> ImageView<'a> {
    /// A view covering the whole image.
    pub fn full(image: &'a DynamicImage) -> Self {
        Self {
            image,
            origin_x: 0,
            origin_y: 0,
            width: image.width(),
            height: image.height(),
        }
    }

    /// A view of the `width × height` rectangle whose top-left corner is at
    /// `(x, y)` in image coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero and
    /// [`ImagingError::OutOfBounds`] if the rectangle does not fit in the
    /// image.
    pub fn crop(
        image: &'a DynamicImage,
        x: usize,
        y: usize,
        width: usize,
        height: usize,
    ) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        if x + width > image.width() || y + height > image.height() {
            return Err(ImagingError::OutOfBounds {
                x: x + width - 1,
                y: y + height - 1,
                width: image.width(),
                height: image.height(),
            });
        }
        Ok(Self {
            image,
            origin_x: x,
            origin_y: y,
            width,
            height,
        })
    }

    /// The underlying image the view borrows from.
    pub fn image(&self) -> &'a DynamicImage {
        self.image
    }

    /// Leftmost image column covered by the view.
    pub fn origin_x(&self) -> usize {
        self.origin_x
    }

    /// Topmost image row covered by the view.
    pub fn origin_y(&self) -> usize {
        self.origin_y
    }

    /// View width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// View height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels in the view.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Number of colour channels of the underlying image (1 or 3).
    pub fn channels(&self) -> usize {
        self.image.channels()
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

    /// Channel values at view-local `(x, y)`, padded like
    /// [`DynamicImage::channels_at`].
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside
    /// the view.
    pub fn channels_at(&self, x: usize, y: usize) -> Result<[u8; 3]> {
        self.check_bounds(x, y)?;
        self.image.channels_at(self.origin_x + x, self.origin_y + y)
    }

    /// The interleaved channel bytes of view-local row `y`: `width()`
    /// pixels of [`channels()`](Self::channels) bytes each, borrowed from
    /// the parent image (one byte a pixel for gray, `r, g, b` for RGB).
    ///
    /// This is the accessor for a pass over every pixel of a region: one
    /// bounds check and one image-type match per row, where
    /// [`channels_at`](Self::channels_at) pays both per pixel.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if `y` is not a row of the
    /// view.
    pub fn row_bytes(&self, y: usize) -> Result<&'a [u8]> {
        self.check_bounds(0, y)?;
        let (raw, channels) = match self.image {
            DynamicImage::Gray(img) => (img.as_raw(), 1),
            DynamicImage::Rgb(img) => (img.as_raw(), 3),
        };
        let start = ((self.origin_y + y) * self.image.width() + self.origin_x) * channels;
        Ok(&raw[start..start + self.width * channels])
    }

    /// Scalar intensity at view-local `(x, y)` (see
    /// [`DynamicImage::intensity_at`]).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside
    /// the view.
    pub fn intensity_at(&self, x: usize, y: usize) -> Result<u8> {
        self.check_bounds(x, y)?;
        self.image
            .intensity_at(self.origin_x + x, self.origin_y + y)
    }

    /// Copies the rectangle `rect` (in view coordinates) out of the view
    /// into an owned image of the same colour type.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if `rect` does not fit in the
    /// view.
    pub fn extract(&self, rect: &TileRect) -> Result<DynamicImage> {
        if rect.width == 0 || rect.height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        if rect.right() > self.width || rect.bottom() > self.height {
            return Err(ImagingError::OutOfBounds {
                x: rect.right().saturating_sub(1),
                y: rect.bottom().saturating_sub(1),
                width: self.width,
                height: self.height,
            });
        }
        let channels = self.channels();
        let mut data = Vec::with_capacity(rect.area() * channels);
        for y in rect.y..rect.bottom() {
            data.extend_from_slice(&self.row_bytes(y)?[rect.x * channels..rect.right() * channels]);
        }
        Ok(match self.image {
            DynamicImage::Gray(_) => {
                DynamicImage::Gray(GrayImage::from_raw(rect.width, rect.height, data)?)
            }
            DynamicImage::Rgb(_) => {
                DynamicImage::Rgb(RgbImage::from_raw(rect.width, rect.height, data)?)
            }
        })
    }

    /// Copies the whole view into an owned image.
    ///
    /// # Errors
    ///
    /// Propagates pixel access errors (which cannot occur for a validated
    /// view).
    pub fn to_image(&self) -> Result<DynamicImage> {
        self.extract(&TileRect {
            x: 0,
            y: 0,
            width: self.width,
            height: self.height,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient() -> DynamicImage {
        let mut img = GrayImage::new(6, 4).unwrap();
        for y in 0..4 {
            for x in 0..6 {
                img.set(x, y, (y * 6 + x) as u8).unwrap();
            }
        }
        DynamicImage::Gray(img)
    }

    #[test]
    fn full_view_matches_the_image() {
        let image = gradient();
        let view = ImageView::full(&image);
        assert_eq!((view.width(), view.height()), (6, 4));
        assert_eq!(view.channels(), 1);
        assert_eq!(view.pixel_count(), 24);
        assert_eq!((view.origin_x(), view.origin_y()), (0, 0));
        assert_eq!(view.intensity_at(5, 3).unwrap(), 23);
        assert_eq!(view.channels_at(1, 0).unwrap(), [1, 1, 1]);
        assert_eq!(view.to_image().unwrap(), image);
    }

    #[test]
    fn cropped_view_translates_coordinates() {
        let image = gradient();
        let view = ImageView::crop(&image, 2, 1, 3, 2).unwrap();
        assert_eq!(view.intensity_at(0, 0).unwrap(), 8); // image (2, 1)
        assert_eq!(view.intensity_at(2, 1).unwrap(), 16); // image (4, 2)
        assert!(view.intensity_at(3, 0).is_err());
        assert!(view.channels_at(0, 2).is_err());
    }

    #[test]
    fn crop_validation() {
        let image = gradient();
        assert!(ImageView::crop(&image, 0, 0, 0, 2).is_err());
        assert!(ImageView::crop(&image, 4, 0, 3, 1).is_err());
        assert!(ImageView::crop(&image, 0, 3, 1, 2).is_err());
        assert!(ImageView::crop(&image, 5, 3, 1, 1).is_ok());
    }

    #[test]
    fn extract_copies_the_rectangle() {
        let image = gradient();
        let view = ImageView::full(&image);
        let rect = TileRect {
            x: 1,
            y: 1,
            width: 2,
            height: 2,
        };
        let owned = view.extract(&rect).unwrap();
        assert_eq!(owned.width(), 2);
        assert_eq!(owned.intensity_at(0, 0).unwrap(), 7);
        assert_eq!(owned.intensity_at(1, 1).unwrap(), 14);
        assert!(view
            .extract(&TileRect {
                x: 5,
                y: 0,
                width: 2,
                height: 1
            })
            .is_err());
    }

    #[test]
    fn gray_rows_are_the_view_columns_of_the_image_row() {
        let image = gradient();
        let view = ImageView::full(&image);
        assert_eq!(view.row_bytes(0).unwrap(), &[0, 1, 2, 3, 4, 5]);
        // The last row.
        assert_eq!(view.row_bytes(3).unwrap(), &[18, 19, 20, 21, 22, 23]);
        let crop = ImageView::crop(&image, 2, 1, 3, 3).unwrap();
        assert_eq!(crop.row_bytes(0).unwrap(), &[8, 9, 10]);
        assert_eq!(crop.row_bytes(2).unwrap(), &[20, 21, 22]);
    }

    #[test]
    fn rgb_rows_interleave_the_channels() {
        let mut rgb = RgbImage::new(4, 2).unwrap();
        for y in 0..2 {
            for x in 0..4 {
                let v = (y * 4 + x) as u8;
                rgb.set(x, y, [v, v + 100, v + 200]).unwrap();
            }
        }
        let image = DynamicImage::Rgb(rgb);
        let view = ImageView::full(&image);
        assert_eq!(view.row_bytes(1).unwrap().len(), 4 * 3);
        assert_eq!(view.row_bytes(1).unwrap()[..6], [4, 104, 204, 5, 105, 205]);
        let crop = ImageView::crop(&image, 1, 1, 2, 1).unwrap();
        assert_eq!(crop.row_bytes(0).unwrap(), &[5, 105, 205, 6, 106, 206]);
    }

    #[test]
    fn cropped_rows_start_at_the_view_origin() {
        // A crop at origin (3, 5): every row matches `channels_at` pixel
        // for pixel, in gray and RGB, down to the last row.
        let (width, height) = (9, 11);
        let value = |x: usize, y: usize| (y * 17 + x * 5) as u8;
        let mut gray = GrayImage::new(width, height).unwrap();
        let mut rgb = RgbImage::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                gray.set(x, y, value(x, y)).unwrap();
                rgb.set(x, y, [value(x, y), !value(x, y), value(y, x)])
                    .unwrap();
            }
        }
        for image in [DynamicImage::Gray(gray), DynamicImage::Rgb(rgb)] {
            let channels = image.channels();
            let view = ImageView::crop(&image, 3, 5, 4, 6).unwrap();
            for y in 0..view.height() {
                let row = view.row_bytes(y).unwrap();
                assert_eq!(row.len(), 4 * channels);
                for x in 0..view.width() {
                    let expected = view.channels_at(x, y).unwrap();
                    assert_eq!(
                        row[x * channels..(x + 1) * channels],
                        expected[..channels],
                        "pixel ({x}, {y}) of a {channels}-channel crop"
                    );
                }
            }
        }
    }

    #[test]
    fn a_row_past_the_end_is_out_of_bounds() {
        let image = gradient();
        assert!(matches!(
            ImageView::full(&image).row_bytes(4),
            Err(ImagingError::OutOfBounds { y: 4, .. })
        ));
        // The parent image has the row; the crop does not.
        let crop = ImageView::crop(&image, 0, 1, 6, 2).unwrap();
        assert!(crop.row_bytes(1).is_ok());
        assert!(matches!(
            crop.row_bytes(2),
            Err(ImagingError::OutOfBounds { y: 2, .. })
        ));
    }

    #[test]
    fn rgb_views_expose_channels() {
        let mut rgb = RgbImage::new(3, 3).unwrap();
        rgb.set(2, 2, [9, 8, 7]).unwrap();
        let image = DynamicImage::Rgb(rgb);
        let view = ImageView::crop(&image, 1, 1, 2, 2).unwrap();
        assert_eq!(view.channels(), 3);
        assert_eq!(view.channels_at(1, 1).unwrap(), [9, 8, 7]);
        let owned = view.to_image().unwrap();
        assert_eq!(owned.channels_at(1, 1).unwrap(), [9, 8, 7]);
    }
}
