//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <edge-images|scan-tiled|serve-mixed|serve-burst> \
//!     --seed <n> --seconds <n> --trace <0|1> [--codebook-seed <n>]
//! ```
//!
//! Prints a record of the run's context, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and the metrics. Exits
//! non-zero when an output check fails.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::{json_string, result_line};
use perfbench::{cpu_ticks, nproc, run, RunSpec, Workload};

const USAGE: &str = "usage: perfbench --workload <edge-images|scan-tiled|serve-mixed|serve-burst> \
                     --seed <n> --seconds <n> --trace <0|1> [--codebook-seed <n>]";

/// Threads each engine's data-parallel loops use (`RAYON_NUM_THREADS`).
const ENGINE_THREADS: &str = "1";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut values = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--codebook-seed" => {
                values.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let number = |flag: &str| -> Result<u64, String> {
        let text = values
            .get(flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        text.parse()
            .map_err(|_| format!("{flag} takes a whole number, got {text}"))
    };
    let name = values.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let codebook_seed = if values.contains_key("--codebook-seed") {
        number("--codebook-seed")?
    } else {
        0
    };
    Ok(RunSpec {
        workload,
        seed: number("--seed")?,
        codebook_seed,
        measure: Duration::from_secs(seconds),
        trace,
    })
}

/// FNV-1a of this executable, so remembered results are tied to the code
/// that produced them.
fn executable_hash() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks that this build reports the same `iou_mean` for the same run as
/// every earlier invocation in this checkout, remembering new results in
/// the build directory. Returns a problem when the value moved.
fn check_iou_repeats(spec: &RunSpec, iou: f64) -> Option<String> {
    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    let path = dir.join("perfbench-iou.txt");
    let key = format!(
        "{:016x} {} {} {} {}",
        executable_hash(),
        spec.workload.name(),
        spec.seed,
        spec.codebook_seed,
        spec.measure.as_secs()
    );
    let value = format!("{:016x}", iou.to_bits());
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    for line in known.lines() {
        if let Some(previous) = line.strip_prefix(&key).map(str::trim) {
            return (previous != value).then(|| {
                format!(
                    "iou_mean {iou} differs from an earlier run of the same build and inputs ({})",
                    f64::from_bits(u64::from_str_radix(previous, 16).unwrap_or(0))
                )
            });
        }
    }
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(file, "{key} {value}");
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // The engine's data-parallel loops split each call across freshly
    // spawned threads, one per core, and wait for the slowest. On a shared
    // host that wait measures whichever core the host holds back, and the
    // split gains little here, so every engine runs its loops on the
    // calling thread. Set before any thread starts.
    std::env::set_var("RAYON_NUM_THREADS", ENGINE_THREADS);

    let ticks_before = cpu_ticks();
    let mut outcome = run(&spec);
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            format!("{}", (steal1 - steal0) as f64 / (total1 - total0) as f64)
        }
        _ => "null".to_string(),
    };
    if !spec.trace {
        let iou = outcome.metrics.get("iou_mean").unwrap_or(0.0);
        if let Some(problem) = check_iou_repeats(&spec, iou) {
            outcome.problem(problem);
        }
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }

    let mut record = vec![
        ("workload", json_string(spec.workload.name())),
        ("seed", spec.seed.to_string()),
        ("codebook_seed", spec.codebook_seed.to_string()),
        ("seconds", spec.measure.as_secs().to_string()),
        ("trace", u8::from(spec.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("engine_threads", ENGINE_THREADS.to_string()),
        ("host_steal_share", steal_share),
    ];
    record.extend(outcome.record.iter().cloned());
    let fields: Vec<String> = record
        .iter()
        .map(|(key, value)| format!("{}: {value}", json_string(key)))
        .collect();
    println!("{{\"record\": {{{}}}}}", fields.join(", "));

    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            spec.trace,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
