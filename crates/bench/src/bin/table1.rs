//! Regenerates **Table I** of the SegHDC paper: mean IoU on the three
//! nuclei datasets for the CNN baseline (BL), the RPos and RColor ablations
//! and SegHDC, plus the relative improvement of SegHDC over the baseline.
//!
//! Usage: `cargo run -p seghdc_bench --release --bin table1 [--full|--tiny]`

use seghdc_bench::{
    baseline_config_for, dataset_profiles, evaluate_method_batch, samples_per_dataset,
    seghdc_config_for, Method, Scale,
};
use synthdata::SyntheticDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    let samples = samples_per_dataset(scale);
    let baseline_config = baseline_config_for(scale);

    println!("Table I reproduction: IoU score on 3 (synthetic) datasets");
    println!("scale: {scale:?}, {samples} images per dataset\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "Dataset", "BL [16]", "RPos", "RColor", "SegHDC", "Improvement"
    );

    for profile in dataset_profiles(scale) {
        let dataset = SyntheticDataset::new(profile.clone(), 2023, samples)?;
        let seghdc_config = seghdc_config_for(&profile, scale);
        // Generate each dataset's images once; every method then runs as one
        // batch over them (SegHDC-family methods share codebooks per shape
        // through the engine's batch request path).
        let mut images = Vec::with_capacity(samples);
        let mut truths = Vec::with_capacity(samples);
        for index in 0..samples.min(dataset.len()) {
            let sample = dataset.sample(index)?;
            images.push(sample.image);
            truths.push(sample.ground_truth);
        }
        let mut scores = Vec::new();
        for method in Method::all() {
            let per_image =
                evaluate_method_batch(method, &images, &truths, &seghdc_config, &baseline_config)?;
            scores.push(per_image.iter().sum::<f64>() / per_image.len() as f64);
        }
        let improvement = (scores[3] - scores[0]) * 100.0;
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12.1}%",
            profile.name.trim_end_matches("-like"),
            scores[0],
            scores[1],
            scores[2],
            scores[3],
            improvement
        );
    }
    println!("\npaper (real datasets): BBBC005 0.7490/0.0361/0.1016/0.9414 (+25.7%),");
    println!("                       DSB2018 0.6281/0.1172/0.2352/0.8038 (+28.0%),");
    println!("                       MoNuSeg 0.5088/0.1959/0.3832/0.5509 (+8.27%)");
    Ok(())
}
