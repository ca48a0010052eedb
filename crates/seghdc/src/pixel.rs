use crate::{keys, ColorEncoder, PositionEncoder, Result, SegHdcConfig, SegHdcError};
use hdc::kernels::{self, Kernels};
use hdc::{BinaryHypervector, HvMatrix};
use imaging::{DynamicImage, ImageView, TileRect};

/// Produces pixel hypervectors by binding position and colour hypervectors
/// with XOR (§III-3 of the paper, Fig. 5).
///
/// The encoder owns a [`PositionEncoder`] and a [`ColorEncoder`] built for a
/// specific image shape; [`encode_image`](Self::encode_image) then maps every
/// pixel of a matching image to one hypervector (in parallel across pixels).
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use hdc::HdcRng;
/// use imaging::{DynamicImage, GrayImage};
/// use seghdc::{ColorEncoder, ColorEncoding, PixelEncoder, PositionEncoder, PositionEncoding};
///
/// let mut rng = HdcRng::seed_from(1);
/// let position = PositionEncoder::new(PositionEncoding::Manhattan, 2048, 8, 8, 1.0, 1, &mut rng)?;
/// let color = ColorEncoder::new(ColorEncoding::Manhattan, 2048, 1, 1, &mut rng)?;
/// let pixel = PixelEncoder::new(position, color)?;
///
/// let image = DynamicImage::Gray(GrayImage::filled(8, 8, 128)?);
/// let hvs = pixel.encode_image(&image)?;
/// assert_eq!(hvs.len(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PixelEncoder {
    position: PositionEncoder,
    color: ColorEncoder,
}

impl PixelEncoder {
    /// Combines a position encoder and a colour encoder.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the two encoders use
    /// different hypervector dimensions.
    pub fn new(position: PositionEncoder, color: ColorEncoder) -> Result<Self> {
        if position.dimension() != color.dimension() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "position encoder dimension {} differs from colour encoder dimension {}",
                    position.dimension(),
                    color.dimension()
                ),
            });
        }
        Ok(Self { position, color })
    }

    /// Builds the position and colour codebooks of `config` for a
    /// `width × height` image with `channels` colour channels — the single
    /// codebook-construction path every engine cache lookup funnels
    /// through.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the configuration is
    /// inconsistent or the shape is degenerate (e.g. the hypervector
    /// dimension is smaller than the number of colour channels).
    pub fn for_shape(
        config: &SegHdcConfig,
        width: usize,
        height: usize,
        channels: usize,
    ) -> Result<Self> {
        config.validate()?;
        let root = hdc::HdcRng::seed_from(config.seed);
        let mut position_rng = root.derive(1);
        let mut color_rng = root.derive(2);
        let position = PositionEncoder::new(
            config.position_encoding,
            config.dimension,
            height,
            width,
            config.alpha,
            config.beta,
            &mut position_rng,
        )?;
        let color = ColorEncoder::new(
            config.color_encoding,
            config.dimension,
            channels,
            config.gamma,
            &mut color_rng,
        )?;
        Self::new(position, color)
    }

    /// The shared hypervector dimensionality.
    pub fn dimension(&self) -> usize {
        self.position.dimension()
    }

    /// The position encoder half of this pixel encoder.
    pub fn position(&self) -> &PositionEncoder {
        &self.position
    }

    /// The colour encoder half of this pixel encoder.
    pub fn color(&self) -> &ColorEncoder {
        &self.color
    }

    /// Heap bytes held by the position and colour codebooks together — what
    /// one cached encoder costs the engine's byte-capacity-bounded
    /// [`crate::CodebookCache`].
    pub fn codebook_bytes(&self) -> usize {
        self.position.codebook_bytes() + self.color.codebook_bytes()
    }

    /// Encodes the pixel at `(x, y)` of `image` as
    /// `position(y, x) XOR colour(image[x, y])`.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate lies outside the encoder's grid or
    /// the image, or if the image channel count does not match the colour
    /// encoder.
    pub fn encode_pixel(
        &self,
        image: &DynamicImage,
        x: usize,
        y: usize,
    ) -> Result<BinaryHypervector> {
        let position_hv = self.position.encode(y, x)?;
        let channels = image.channels_at(x, y)?;
        let color_hv = self.color.encode(&channels[..self.color.channels()])?;
        Ok(position_hv.xor(&color_hv)?)
    }

    /// Encodes every pixel of `image` into one [`HvMatrix`] row per pixel,
    /// in row-major order (row index `y * width + x`), as a shared matrix
    /// that stores each distinct pixel key's row once (see
    /// [`encode_region_into`](Self::encode_region_into)).
    ///
    /// The rows agree bit-for-bit with [`encode_pixel`](Self::encode_pixel).
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the image shape or channel
    /// count does not match the encoders.
    pub fn encode_matrix(&self, image: &DynamicImage) -> Result<HvMatrix> {
        self.check_shape(image)?;
        let view = ImageView::full(image);
        let full = TileRect {
            x: 0,
            y: 0,
            width: image.width(),
            height: image.height(),
        };
        let mut matrix = HvMatrix::zeros(0, self.dimension())?;
        matrix.reset_shared(image.pixel_count(), self.dimension())?;
        self.encode_region_into(&view, &full, &mut matrix)?;
        Ok(matrix)
    }

    /// Encodes the `region` rectangle of `view` into `matrix`, one row per
    /// region pixel in region-local row-major order (row index
    /// `ly * region.width + lx`).
    ///
    /// The view must have the exact shape the encoders were built for —
    /// positions are taken from the **view-global** coordinate
    /// `(region.y + ly, region.x + lx)`, so a tile encoded through this
    /// method gets bit-identical rows to the same pixels in a whole-view
    /// [`encode_matrix`](Self::encode_matrix) call. This is the streaming
    /// tiled segmenter's encoding primitive: the caller hands in a reused
    /// arena matrix, already shaped to `region.area()` rows.
    ///
    /// The encode is keyed. The block-decay position code gives every
    /// pixel of a β×β block the same row and column vectors, so each pixel
    /// is keyed by (row vector id, column vector id, colour code ids) —
    /// ids are equal exactly for bit-identical codebook vectors — and
    /// `matrix` becomes a shared [`HvMatrix`]: one stored row per distinct
    /// key, in order of first use, plus a `u32` per pixel naming its
    /// stored row. Gray regions key through a dense table when it has no
    /// more slots than the region has pixels, everything else through a
    /// `HashMap` with the default hasher, whose keys are drawn per map.
    /// Beyond `matrix` (whose stored rows grow to the distinct key count),
    /// the call allocates only the key table (no bigger than the index, or
    /// one entry per distinct key), a rank per region row and column (and
    /// for the dense table each column's offset into it), and the first
    /// pixel of each key. Pixels are read a view row at a time.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the view shape or channel
    /// count does not match the encoders, if `region` does not fit in the
    /// view, or if `matrix` is not shaped `region.area() × dimension()`.
    pub fn encode_region_into(
        &self,
        view: &ImageView<'_>,
        region: &TileRect,
        matrix: &mut HvMatrix,
    ) -> Result<()> {
        self.encode_region_into_with(view, region, matrix, kernels::auto())
    }

    /// [`encode_region_into`](Self::encode_region_into) through an explicit
    /// [`Kernels`] selection — the variant an execution backend threads its
    /// kernels into. Every XOR bind of the batch encode dispatches through
    /// `kernels`; since XOR is exact whichever implementation runs it, the
    /// rows are bit-identical for every selection.
    ///
    /// # Errors
    ///
    /// Same as [`encode_region_into`](Self::encode_region_into).
    pub fn encode_region_into_with(
        &self,
        view: &ImageView<'_>,
        region: &TileRect,
        matrix: &mut HvMatrix,
        kernels: &dyn Kernels,
    ) -> Result<()> {
        if view.height() != self.position.rows() || view.width() != self.position.cols() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "view is {}x{} but the position encoder was built for {}x{}",
                    view.width(),
                    view.height(),
                    self.position.cols(),
                    self.position.rows()
                ),
            });
        }
        if view.channels() != self.color.channels() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "view has {} channels but the colour encoder was built for {}",
                    view.channels(),
                    self.color.channels()
                ),
            });
        }
        if region.area() == 0 || region.right() > view.width() || region.bottom() > view.height() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "region {region:?} does not fit in the {}x{} view",
                    view.width(),
                    view.height()
                ),
            });
        }
        if matrix.rows() != region.area() || matrix.dim() != self.dimension() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "matrix is {}x{} but the region needs {}x{}",
                    matrix.rows(),
                    matrix.dim(),
                    region.area(),
                    self.dimension()
                ),
            });
        }
        let mut firsts = Vec::new();
        matrix.share_rows(|index| {
            firsts = keys::key_region(&self.position, &self.color, view, region, index);
            firsts.len()
        })?;
        let channels = self.color.channels();
        matrix.fill_stored_rows(|stored, row| {
            let pixel = firsts[stored] as usize;
            let x = region.x + pixel % region.width;
            let y = region.y + pixel / region.width;
            // The shape checks above make every lookup below in-range.
            let position_row = self
                .position
                .row_hv(y)
                .expect("row index is within the validated grid");
            let position_col = self
                .position
                .col_hv(x)
                .expect("column index is within the validated grid");
            let px = view
                .channels_at(x, y)
                .expect("pixel coordinate is within the validated view");
            row.copy_from(position_row)
                .expect("encoder dimensions are validated at construction");
            row.xor_assign_with(position_col, kernels)
                .expect("encoder dimensions are validated at construction");
            for (channel, &value) in px.iter().take(channels).enumerate() {
                row.xor_assign_with(self.color.placed_code(channel, value), kernels)
                    .expect("encoder dimensions are validated at construction");
            }
        });
        Ok(())
    }

    /// Encodes every pixel of `image` in row-major order, as owned
    /// hypervectors.
    ///
    /// Convenience wrapper over [`encode_matrix`](Self::encode_matrix);
    /// prefer the matrix form anywhere throughput matters, since this copies
    /// every row into its own allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the image shape or channel
    /// count does not match the encoders.
    pub fn encode_image(&self, image: &DynamicImage) -> Result<Vec<BinaryHypervector>> {
        Ok(self.encode_matrix(image)?.to_vectors())
    }

    fn check_shape(&self, image: &DynamicImage) -> Result<()> {
        let width = image.width();
        let height = image.height();
        if height != self.position.rows() || width != self.position.cols() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "image is {width}x{height} but the position encoder was built for {}x{}",
                    self.position.cols(),
                    self.position.rows()
                ),
            });
        }
        if image.channels() != self.color.channels() {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "image has {} channels but the colour encoder was built for {}",
                    image.channels(),
                    self.color.channels()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorEncoding, PositionEncoding};
    use hdc::HdcRng;
    use imaging::GrayImage;

    fn encoder(dim: usize, width: usize, height: usize) -> PixelEncoder {
        let mut rng = HdcRng::seed_from(9);
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

    fn gradient_image(width: usize, height: usize) -> DynamicImage {
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
    fn mismatched_dimensions_are_rejected() {
        let mut rng = HdcRng::seed_from(1);
        let position =
            PositionEncoder::new(PositionEncoding::Manhattan, 1024, 4, 4, 1.0, 1, &mut rng)
                .unwrap();
        let color = ColorEncoder::new(ColorEncoding::Manhattan, 2048, 1, 1, &mut rng).unwrap();
        assert!(PixelEncoder::new(position, color).is_err());
    }

    #[test]
    fn encode_image_produces_one_hv_per_pixel_in_row_major_order() {
        let enc = encoder(2048, 6, 4);
        let image = gradient_image(6, 4);
        let hvs = enc.encode_image(&image).unwrap();
        assert_eq!(hvs.len(), 24);
        // Spot-check against the scalar path.
        let direct = enc.encode_pixel(&image, 5, 3).unwrap();
        assert_eq!(hvs[3 * 6 + 5], direct);
        assert_eq!(enc.dimension(), 2048);
    }

    #[test]
    fn shape_and_channel_mismatches_are_rejected() {
        let enc = encoder(2048, 6, 4);
        let wrong_shape = gradient_image(4, 6);
        assert!(enc.encode_image(&wrong_shape).is_err());
        assert!(enc.encode_matrix(&wrong_shape).is_err());
        let rgb = DynamicImage::Rgb(gradient_image(6, 4).to_rgb());
        assert!(enc.encode_image(&rgb).is_err());
        assert!(enc.encode_matrix(&rgb).is_err());
    }

    #[test]
    fn matrix_rows_agree_bitwise_with_the_scalar_path() {
        let enc = encoder(1000, 7, 5); // dim deliberately not a multiple of 64
        let image = gradient_image(7, 5);
        let matrix = enc.encode_matrix(&image).unwrap();
        assert_eq!(matrix.rows(), 35);
        assert_eq!(matrix.dim(), 1000);
        for y in 0..5 {
            for x in 0..7 {
                let scalar = enc.encode_pixel(&image, x, y).unwrap();
                assert_eq!(
                    matrix.row(y * 7 + x).to_hypervector(),
                    scalar,
                    "pixel ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn region_rows_agree_bitwise_with_the_whole_image_matrix() {
        let enc = encoder(1000, 9, 6);
        let image = gradient_image(9, 6);
        let whole = enc.encode_matrix(&image).unwrap();
        let view = ImageView::full(&image);
        let region = TileRect {
            x: 2,
            y: 1,
            width: 5,
            height: 4,
        };
        let mut matrix = HvMatrix::zeros(region.area(), 1000).unwrap();
        enc.encode_region_into(&view, &region, &mut matrix).unwrap();
        for ly in 0..region.height {
            for lx in 0..region.width {
                let global = (region.y + ly) * 9 + (region.x + lx);
                assert_eq!(
                    matrix.row(ly * region.width + lx).to_hypervector(),
                    whole.row(global).to_hypervector(),
                    "pixel ({lx},{ly})"
                );
            }
        }
    }

    #[test]
    fn encode_region_validates_its_inputs() {
        let enc = encoder(512, 6, 4);
        let image = gradient_image(6, 4);
        let view = ImageView::full(&image);
        let region = TileRect {
            x: 0,
            y: 0,
            width: 6,
            height: 4,
        };
        // Matrix shape must match the region.
        let mut wrong_rows = HvMatrix::zeros(5, 512).unwrap();
        assert!(enc
            .encode_region_into(&view, &region, &mut wrong_rows)
            .is_err());
        let mut wrong_dim = HvMatrix::zeros(24, 256).unwrap();
        assert!(enc
            .encode_region_into(&view, &region, &mut wrong_dim)
            .is_err());
        // Region must fit in the view.
        let mut ok = HvMatrix::zeros(24, 512).unwrap();
        let outside = TileRect {
            x: 3,
            y: 0,
            width: 4,
            height: 4,
        };
        assert!(enc.encode_region_into(&view, &outside, &mut ok).is_err());
        // View must match the encoder grid.
        let small = gradient_image(4, 4);
        let small_view = ImageView::full(&small);
        assert!(enc
            .encode_region_into(&small_view, &region, &mut ok)
            .is_err());
        assert!(enc.encode_region_into(&view, &region, &mut ok).is_ok());
    }

    #[test]
    fn rgb_matrix_rows_agree_bitwise_with_the_scalar_path() {
        let mut rng = HdcRng::seed_from(31);
        let position =
            PositionEncoder::new(PositionEncoding::Manhattan, 1500, 4, 4, 1.0, 1, &mut rng)
                .unwrap();
        let color = ColorEncoder::new(ColorEncoding::Manhattan, 1500, 3, 1, &mut rng).unwrap();
        let enc = PixelEncoder::new(position, color).unwrap();
        let rgb = DynamicImage::Rgb(gradient_image(4, 4).to_rgb());
        let matrix = enc.encode_matrix(&rgb).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                let scalar = enc.encode_pixel(&rgb, x, y).unwrap();
                assert_eq!(matrix.row(y * 4 + x).to_hypervector(), scalar);
            }
        }
    }

    #[test]
    fn binding_preserves_color_distances_at_the_same_position() {
        // Fig. 5(b): if only the colour hypervector changes, the pixel
        // hypervector changes by exactly the same number of bits.
        let enc = encoder(4096, 8, 8);
        let mut img_a = GrayImage::filled(8, 8, 100).unwrap();
        let mut img_b = GrayImage::filled(8, 8, 100).unwrap();
        img_a.set(3, 3, 100).unwrap();
        img_b.set(3, 3, 110).unwrap();
        let hv_a = enc.encode_pixel(&DynamicImage::Gray(img_a), 3, 3).unwrap();
        let hv_b = enc.encode_pixel(&DynamicImage::Gray(img_b), 3, 3).unwrap();
        let expected = enc.color().intensity_distance(100, 110).unwrap();
        assert_eq!(hv_a.hamming(&hv_b).unwrap(), expected);
    }

    #[test]
    fn binding_preserves_position_distances_for_the_same_color() {
        // Fig. 5: same colour, different position -> distance equals the
        // position distance.
        let enc = encoder(4096, 8, 8);
        let image = DynamicImage::Gray(GrayImage::filled(8, 8, 77).unwrap());
        let a = enc.encode_pixel(&image, 1, 1).unwrap();
        let b = enc.encode_pixel(&image, 1, 5).unwrap();
        let expected = enc
            .position()
            .encode(1, 1)
            .unwrap()
            .hamming(&enc.position().encode(5, 1).unwrap())
            .unwrap();
        assert_eq!(a.hamming(&b).unwrap(), expected);
    }

    #[test]
    fn nearby_same_color_pixels_are_closer_than_distant_different_ones() {
        // The property motivating the whole design (Fig. 1): pixels with the
        // same colour in a small neighbourhood cluster tightly.
        let enc = encoder(8192, 8, 8);
        let image = gradient_image(8, 8);
        let hvs = enc.encode_image(&image).unwrap();
        let same_color_near = hvs[0].hamming(&hvs[8]).unwrap(); // (0,0) vs (0,1): same column
        let diff_color_far = hvs[0].hamming(&hvs[7]).unwrap(); // (0,0) vs (7,0): other end
        assert!(same_color_near < diff_color_far);
    }
}
