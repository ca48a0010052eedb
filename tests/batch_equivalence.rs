//! Property tests for the batched engine: a whole-image batch request
//! must be an observationally exact, faster spelling of one whole-image
//! request per image.

use proptest::prelude::*;
use seghdc_suite::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and cluster count, segmenting a batch of images (two of
    /// them sharing a shape, so the codebook is genuinely reused) produces
    /// byte-identical label maps to segmenting each image on its own.
    #[test]
    fn segment_batch_equals_per_image_segment(
        seed in any::<u64>(),
        clusters in 2usize..4,
    ) {
        let profile = DatasetProfile::dsb2018_like().scaled(32, 32);
        let dataset = SyntheticDataset::new(profile, seed, 2).unwrap();
        let other = SyntheticDataset::new(
            DatasetProfile::bbbc005_like().scaled(24, 40),
            seed,
            1,
        )
        .unwrap();
        let images = vec![
            dataset.sample(0).unwrap().image,
            dataset.sample(1).unwrap().image,
            other.sample(0).unwrap().image,
        ];

        let config = SegHdcConfig::builder()
            .dimension(512)
            .beta(4)
            .clusters(clusters)
            .iterations(2)
            .seed(seed)
            .build()
            .unwrap();
        let engine = SegEngine::new(config).unwrap();

        let batch = engine
            .run(&SegmentRequest::batch(&images).whole_image())
            .unwrap()
            .outputs;
        prop_assert_eq!(batch.len(), images.len());
        for (image, batched) in images.iter().zip(&batch) {
            let report = engine
                .run(&SegmentRequest::image(image).whole_image())
                .unwrap();
            let single = report.single();
            prop_assert_eq!(single.label_map.as_raw(), batched.label_map.as_raw());
            prop_assert_eq!(&single.cluster_sizes, &batched.cluster_sizes);
            prop_assert_eq!(single.iterations_run, batched.iterations_run);
        }
    }

    /// The encoder's matrix path and per-pixel path agree bit-for-bit on
    /// real synthetic images, for any seed and odd dimensions.
    #[test]
    fn encode_matrix_equals_encode_pixel(
        seed in any::<u64>(),
        dim in 256usize..700,
    ) {
        let dataset = SyntheticDataset::new(
            DatasetProfile::monuseg_like().scaled(16, 16),
            seed,
            1,
        )
        .unwrap();
        let image = dataset.sample(0).unwrap().image;
        let config = SegHdcConfig::builder()
            .dimension(dim)
            .beta(4)
            .iterations(1)
            .seed(seed)
            .build()
            .unwrap();
        let encoder = seghdc::PixelEncoder::for_shape(
            &config,
            image.width(),
            image.height(),
            image.channels(),
        )
        .unwrap();
        let matrix = encoder.encode_matrix(&image).unwrap();
        prop_assert_eq!(matrix.rows(), image.pixel_count());
        for index in [0usize, 7, 100, 255] {
            let x = index % image.width();
            let y = index / image.width();
            let scalar = encoder.encode_pixel(&image, x, y).unwrap();
            prop_assert_eq!(matrix.row(index).to_hypervector(), scalar);
        }
    }
}
