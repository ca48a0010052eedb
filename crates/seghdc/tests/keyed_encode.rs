//! The keyed encode (`PixelEncoder::encode_region_into`, which keys every
//! pixel by its row vector, column vector and colour codes, encodes one
//! stored row per distinct key and shares it between the pixels with that
//! key) against `PixelEncoder::encode_pixel`, one pixel at a time. Every
//! position and colour encoding, gray and RGB, dimensions off the 64-bit
//! word grid, dimensions so small that colour codes repeat, and views
//! cropped out of a larger parent image.

use std::collections::HashSet;

use hdc::{HdcRng, HvMatrix};
use imaging::{DynamicImage, GrayImage, ImageView, RgbImage, TileRect};
use proptest::prelude::*;
use proptest::TestCaseError;
use seghdc::{ColorEncoder, ColorEncoding, PixelEncoder, PositionEncoder, PositionEncoding};

const POSITION_ENCODINGS: [PositionEncoding; 5] = [
    PositionEncoding::Uniform,
    PositionEncoding::Manhattan,
    PositionEncoding::DecayManhattan,
    PositionEncoding::BlockDecayManhattan,
    PositionEncoding::Random,
];

/// A `width × height` image whose pixels come from a palette of
/// `palette` random colours, so that pixel keys repeat.
fn palette_image(
    rng: &mut HdcRng,
    width: usize,
    height: usize,
    rgb: bool,
    palette: usize,
) -> DynamicImage {
    let colours: Vec<[u8; 3]> = (0..palette)
        .map(|_| {
            [
                rng.next_below(256) as u8,
                rng.next_below(256) as u8,
                rng.next_below(256) as u8,
            ]
        })
        .collect();
    let mut pick = || colours[rng.next_below(palette as u64) as usize];
    if rgb {
        let mut image = RgbImage::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                image.set(x, y, pick()).unwrap();
            }
        }
        DynamicImage::Rgb(image)
    } else {
        let mut image = GrayImage::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                image.set(x, y, pick()[0]).unwrap();
            }
        }
        DynamicImage::Gray(image)
    }
}

/// Checks every row of `matrix` (the encode of `region`) against
/// `encode_pixel`, and that it stores exactly one row per distinct
/// (row vector, column vector, colour code) key of the region.
fn check_region(
    encoder: &PixelEncoder,
    image: &DynamicImage,
    region: &TileRect,
    matrix: &HvMatrix,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(matrix.rows(), region.area());
    let mut keys = HashSet::new();
    for ly in 0..region.height {
        for lx in 0..region.width {
            let (x, y) = (region.x + lx, region.y + ly);
            let expected = encoder.encode_pixel(image, x, y).unwrap();
            let row = matrix.row(ly * region.width + lx).to_hypervector();
            prop_assert!(row == expected, "pixel ({}, {}) differs", x, y);
            let channels = image.channels_at(x, y).unwrap();
            let colour = encoder
                .color()
                .encode(&channels[..image.channels()])
                .unwrap();
            keys.insert((
                encoder.position().row_hv(y).unwrap().as_words().to_vec(),
                encoder.position().col_hv(x).unwrap().as_words().to_vec(),
                colour.as_words().to_vec(),
            ));
        }
    }
    prop_assert_eq!(matrix.stored_rows(), keys.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_row_of_a_keyed_encode_equals_encode_pixel(
        seed in any::<u64>(),
        encodings in (0usize..5, any::<bool>()),
        rgb in any::<bool>(),
        // Half the cases below 130 bits, where a colour chunk is narrower
        // than 256 bits and neighbouring intensities share a code.
        dim in (any::<bool>(), 3usize..130, 130usize..1200)
            .prop_map(|(small, low, high)| if small { low } else { high }),
        shape in (1usize..24, 1usize..24),
        decay in (0.05f64..1.0, 1usize..6, 1usize..4),
        palette in 1usize..40,
    ) {
        let (width, height) = shape;
        let (alpha, beta, gamma) = decay;
        let mut rng = HdcRng::seed_from(seed);
        let position_encoding = POSITION_ENCODINGS[encodings.0];
        let color_encoding = if encodings.1 {
            ColorEncoding::Random
        } else {
            ColorEncoding::Manhattan
        };
        let channels = if rgb { 3 } else { 1 };
        let position =
            PositionEncoder::new(position_encoding, dim, height, width, alpha, beta, &mut rng)
                .unwrap();
        let color = ColorEncoder::new(color_encoding, dim, channels, gamma, &mut rng).unwrap();
        let encoder = PixelEncoder::new(position, color).unwrap();
        let image = palette_image(&mut rng, width, height, rgb, palette);

        // The whole image, as `encode_matrix` shapes it.
        let whole = encoder.encode_matrix(&image).unwrap();
        let full = TileRect { x: 0, y: 0, width, height };
        check_region(&encoder, &image, &full, &whole)?;

        // A sub-region with global positions, into a matrix of one stored
        // row per row that the encode reshapes.
        let x = rng.next_below(width as u64) as usize;
        let y = rng.next_below(height as u64) as usize;
        let region = TileRect {
            x,
            y,
            width: 1 + rng.next_below((width - x) as u64) as usize,
            height: 1 + rng.next_below((height - y) as u64) as usize,
        };
        let mut matrix = HvMatrix::zeros(region.area(), dim).unwrap();
        encoder
            .encode_region_into(&ImageView::full(&image), &region, &mut matrix)
            .unwrap();
        check_region(&encoder, &image, &region, &matrix)?;

        // The same region of a crop of a larger parent, at a random
        // origin, against the crop extracted into its own image: the
        // keying pass reads the crop's rows at the parent's offsets.
        let (origin_x, origin_y) = (rng.next_below(9) as usize, rng.next_below(9) as usize);
        let parent_width = origin_x + width + rng.next_below(5) as usize;
        let parent_height = origin_y + height + rng.next_below(5) as usize;
        let parent = palette_image(&mut rng, parent_width, parent_height, rgb, palette);
        let crop = ImageView::crop(&parent, origin_x, origin_y, width, height).unwrap();
        let extracted = crop.to_image().unwrap();
        let mut matrix = HvMatrix::zeros(region.area(), dim).unwrap();
        encoder.encode_region_into(&crop, &region, &mut matrix).unwrap();
        check_region(&encoder, &extracted, &region, &matrix)?;
    }
}

/// A gray region keyed through the dense table, with several distinct row
/// and column vectors (4 × 4 blocks of β = 16) and colours repeating
/// across blocks, matches `encode_pixel` row for row.
#[test]
fn a_gray_region_keyed_through_the_dense_table_matches_encode_pixel() {
    let mut rng = HdcRng::seed_from(23);
    let (width, height) = (64, 64);
    let position = PositionEncoder::new(
        PositionEncoding::BlockDecayManhattan,
        300,
        height,
        width,
        1.0,
        16,
        &mut rng,
    )
    .unwrap();
    let color = ColorEncoder::new(ColorEncoding::Manhattan, 300, 1, 1, &mut rng).unwrap();
    let encoder = PixelEncoder::new(position, color).unwrap();
    let image = palette_image(&mut rng, width, height, false, 5);
    let matrix = encoder.encode_matrix(&image).unwrap();
    let full = TileRect {
        x: 0,
        y: 0,
        width,
        height,
    };
    check_region(&encoder, &image, &full, &matrix).unwrap();
    assert!(matrix.stored_rows() <= 16 * 5);
}

/// A gray region whose dense key table would be too large (every
/// position vector distinct, all 256 intensities present) goes through the
/// hashed table, and still matches `encode_pixel` row for row.
#[test]
fn a_gray_region_too_varied_for_the_dense_table_matches_encode_pixel() {
    let mut rng = HdcRng::seed_from(17);
    let (width, height) = (32, 32);
    let position = PositionEncoder::new(
        PositionEncoding::Random,
        256,
        height,
        width,
        1.0,
        1,
        &mut rng,
    )
    .unwrap();
    let color = ColorEncoder::new(ColorEncoding::Manhattan, 256, 1, 1, &mut rng).unwrap();
    let encoder = PixelEncoder::new(position, color).unwrap();
    let mut image = GrayImage::new(width, height).unwrap();
    for y in 0..height {
        for x in 0..width {
            image.set(x, y, ((x * 37 + y * 11) % 256) as u8).unwrap();
        }
    }
    let image = DynamicImage::Gray(image);
    let matrix = encoder.encode_matrix(&image).unwrap();
    let full = TileRect {
        x: 0,
        y: 0,
        width,
        height,
    };
    check_region(&encoder, &image, &full, &matrix).unwrap();
    assert_eq!(matrix.stored_rows(), width * height);
}
