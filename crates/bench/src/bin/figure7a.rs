//! Regenerates **Fig. 7(a)** of the SegHDC paper: IoU score and latency as a
//! function of the number of clustering iterations (1–10) on a
//! DSB2018-style sample image, with the hypervector dimension fixed.
//!
//! Latency is measured on this host and also rescaled to the Raspberry Pi
//! profile so the series has the same units as the paper's right axis.
//!
//! Usage: `cargo run -p seghdc_bench --release --bin figure7a [--full|--tiny]`

use edge_device::DeviceProfile;
use seghdc::sweep;
use seghdc_bench::{seghdc_config_for, Scale};
use synthdata::{DatasetProfile, NucleiImageGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    let (profile, dimension) = match scale {
        // The paper fixes d = 10 000 for this sweep on the 256x320x3 image.
        Scale::Full => (DatasetProfile::dsb2018_like(), 10_000),
        Scale::Quick => (DatasetProfile::dsb2018_like().scaled(128, 96), 2_000),
        Scale::Tiny => (DatasetProfile::dsb2018_like().scaled(16, 16), 256),
    };
    let generator = NucleiImageGenerator::new(profile.clone(), 11)?;
    let sample = generator.generate(0)?;
    let truth = sample.ground_truth.to_binary();

    let mut base = seghdc_config_for(&profile, scale);
    base.dimension = dimension;

    let pi = DeviceProfile::raspberry_pi_4();
    let host = DeviceProfile::desktop_host();

    println!("Fig. 7(a) reproduction: IoU and latency vs. number of iterations");
    println!(
        "scale: {scale:?}, image {}x{}x{}, d = {dimension}\n",
        sample.image.width(),
        sample.image.height(),
        sample.image.channels()
    );
    println!(
        "{:>11} {:>10} {:>14} {:>18}",
        "iterations", "IoU", "host latency", "est. Pi latency"
    );
    let points = sweep::iteration_sweep(&base, 1..=10, &sample.image, &truth)?;
    for point in &points {
        let pi_latency = pi.scale_measurement(&host, point.latency);
        println!(
            "{:>11} {:>10.4} {:>13.2}s {:>17.2}s",
            point.value,
            point.iou,
            point.latency.as_secs_f64(),
            pi_latency.as_secs_f64()
        );
    }
    println!("\npaper: latency grows from ~20s (1 iteration) to ~300s (10 iterations) on the");
    println!("Pi while the IoU saturates after about 4 iterations.");
    println!("note: here the latency columns flatten once the labels settle, because the");
    println!("clusterer stops at the label fixed point the paper's loop keeps recomputing;");
    println!("the IoU column is unchanged.");
    Ok(())
}
