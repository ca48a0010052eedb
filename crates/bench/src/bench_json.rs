//! Machine-readable benchmark records (`BENCH_kernels.json`,
//! `BENCH_server.json`).
//!
//! The `kernels` bench and the `server_load` binary merge their
//! measurements into JSON files so the perf trajectory of the kernel
//! layer, the engine and the service is tracked in the repository rather
//! than in scrollback. The format is deliberately
//! rigid — a JSON array with exactly one record object per line:
//!
//! ```json
//! [
//! {"op":"hamming","isa":"avx2","dim":16384,"k":1,"ns_per_op":1234.5},
//! {"op":"cluster_matrix_fused","isa":"avx512-vpopcnt","dim":2048,"k":4,"ns_per_op":9.0e6}
//! ]
//! ```
//!
//! Rigid enough that the workspace needs no JSON dependency (the build
//! environment is offline): the writer emits exactly this shape and the
//! parser accepts only it. Records are keyed by `(op, isa, dim, k)`;
//! [`merge_into_file`] replaces same-key records and appends new ones, so
//! a run that measures only some records (one `server_load` mode, say)
//! keeps the rest, and re-runs refresh numbers in place.

use std::fmt::Write as _;
use std::path::Path;

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Operation name (e.g. `hamming`, `cluster_matrix_fused`).
    pub op: String,
    /// Kernel ISA the measurement ran with (`scalar`, `avx2`, …).
    pub isa: String,
    /// Hypervector dimension of the workload.
    pub dim: usize,
    /// Number of centroids/groups (1 for single-operand kernels).
    pub k: usize,
    /// Median wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
}

impl BenchRecord {
    /// The merge key: records describing the same workload replace each
    /// other.
    pub fn key(&self) -> (String, String, usize, usize) {
        (self.op.clone(), self.isa.clone(), self.dim, self.k)
    }

    /// Renders the record as its canonical single-line JSON object.
    pub fn to_json_line(&self) -> String {
        debug_assert!(is_plain(&self.op) && is_plain(&self.isa));
        format!(
            "{{\"op\":\"{}\",\"isa\":\"{}\",\"dim\":{},\"k\":{},\"ns_per_op\":{:.1}}}",
            self.op, self.isa, self.dim, self.k, self.ns_per_op
        )
    }

    /// Parses one canonical record line (the exact shape
    /// [`to_json_line`](Self::to_json_line) emits, trailing comma allowed).
    pub fn parse_json_line(line: &str) -> Option<Self> {
        let body = line
            .trim()
            .trim_end_matches(',')
            .strip_prefix('{')?
            .strip_suffix('}')?;
        let mut op = None;
        let mut isa = None;
        let mut dim = None;
        let mut k = None;
        let mut ns = None;
        for field in split_top_level_fields(body) {
            let (key, value) = field.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let value = value.trim();
            match key {
                "op" => op = Some(unquote(value)?),
                "isa" => isa = Some(unquote(value)?),
                "dim" => dim = value.parse::<usize>().ok(),
                "k" => k = value.parse::<usize>().ok(),
                "ns_per_op" => ns = value.parse::<f64>().ok(),
                _ => return None,
            }
        }
        Some(Self {
            op: op?,
            isa: isa?,
            dim: dim?,
            k: k?,
            ns_per_op: ns?,
        })
    }
}

/// Only benign identifier-ish strings may appear in the string fields, so
/// no escaping is ever needed in either direction.
fn is_plain(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

fn unquote(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    is_plain(inner).then(|| inner.to_string())
}

/// Splits `"a":"b","c":1` on commas (values are never nested, so top-level
/// commas are the only commas outside quotes).
fn split_top_level_fields(body: &str) -> impl Iterator<Item = &str> {
    body.split(',').filter(|f| !f.trim().is_empty())
}

/// Parses a whole `BENCH_kernels.json` body; `None` when any non-bracket
/// line is malformed (strictness keeps hand edits honest).
pub fn parse_file(content: &str) -> Option<Vec<BenchRecord>> {
    let mut records = Vec::new();
    for line in content.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed == "[" || trimmed == "]" {
            continue;
        }
        records.push(BenchRecord::parse_json_line(trimmed)?);
    }
    Some(records)
}

/// Renders records as the canonical file body (sorted by op, dim, k, then
/// ISA, so diffs stay stable across runs).
pub fn render_file(records: &[BenchRecord]) -> String {
    let mut sorted: Vec<&BenchRecord> = records.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.op, a.dim, a.k, &a.isa)
            .partial_cmp(&(&b.op, b.dim, b.k, &b.isa))
            .unwrap()
    });
    let mut out = String::from("[\n");
    for (i, record) in sorted.iter().enumerate() {
        let comma = if i + 1 == sorted.len() { "" } else { "," };
        let _ = writeln!(out, "{}{}", record.to_json_line(), comma);
    }
    out.push_str("]\n");
    out
}

/// Merges `new_records` into the JSON file at `path`: same-key records are
/// replaced, new keys appended, everything else preserved. A missing or
/// unparsable file is treated as empty (a fresh file is written).
///
/// # Errors
///
/// Returns an IO error when the file cannot be written.
pub fn merge_into_file(path: &Path, new_records: &[BenchRecord]) -> std::io::Result<()> {
    let mut records = std::fs::read_to_string(path)
        .ok()
        .and_then(|content| parse_file(&content))
        .unwrap_or_default();
    for new in new_records {
        match records.iter_mut().find(|r| r.key() == new.key()) {
            Some(existing) => *existing = new.clone(),
            None => records.push(new.clone()),
        }
    }
    std::fs::write(path, render_file(&records))
}

/// The bench JSON output path: `SEGHDC_BENCH_JSON` when set, otherwise
/// `BENCH_kernels.json` in the bench crate (the committed location —
/// `cargo bench` runs with the package directory as its working
/// directory).
pub fn default_path() -> std::path::PathBuf {
    std::env::var_os("SEGHDC_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_kernels.json"))
}

/// Median wall-clock nanoseconds per operation: one untimed warm-up, then
/// `samples` timed runs of `routine` (each covering `ops_per_sample`
/// operations), reporting the median sample.
pub fn median_ns_per_op<R>(
    samples: usize,
    ops_per_sample: u64,
    mut routine: impl FnMut() -> R,
) -> f64 {
    assert!(samples > 0 && ops_per_sample > 0);
    std::hint::black_box(routine());
    let mut timings: Vec<u128> = (0..samples)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(routine());
            start.elapsed().as_nanos()
        })
        .collect();
    timings.sort_unstable();
    timings[timings.len() / 2] as f64 / ops_per_sample as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op: &str, isa: &str, dim: usize, k: usize, ns: f64) -> BenchRecord {
        BenchRecord {
            op: op.to_string(),
            isa: isa.to_string(),
            dim,
            k,
            ns_per_op: ns,
        }
    }

    #[test]
    fn records_round_trip_through_the_line_format() {
        let r = record("cluster_matrix_fused", "avx512-vpopcnt", 2048, 4, 12345.6);
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"op\":\"cluster_matrix_fused\",\"isa\":\"avx512-vpopcnt\",\
             \"dim\":2048,\"k\":4,\"ns_per_op\":12345.6"
                .to_owned()
                + "}"
        );
        assert_eq!(BenchRecord::parse_json_line(&line).unwrap(), r);
        // Trailing comma (non-final array line) parses too.
        assert_eq!(
            BenchRecord::parse_json_line(&format!("{line},")).unwrap(),
            r
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "not json",
            "{\"op\":\"a\",\"isa\":\"b\",\"dim\":1,\"k\":1}",
            "{\"op\":\"a\",\"isa\":\"b\",\"dim\":x,\"k\":1,\"ns_per_op\":1.0}",
            "{\"op\":\"a b\",\"isa\":\"b\",\"dim\":1,\"k\":1,\"ns_per_op\":1.0}",
            "{\"op\":\"a\",\"isa\":\"b\",\"dim\":1,\"k\":1,\"ns_per_op\":1.0,\"extra\":2}",
        ] {
            assert!(BenchRecord::parse_json_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn file_render_and_parse_round_trip_sorted() {
        let records = vec![
            record("b_op", "scalar", 64, 2, 2.0),
            record("a_op", "avx2", 128, 1, 1.0),
            record("a_op", "avx2", 64, 1, 3.0),
        ];
        let body = render_file(&records);
        assert!(body.starts_with("[\n"));
        assert!(body.ends_with("]\n"));
        let parsed = parse_file(&body).unwrap();
        // Sorted by (op, dim, k, isa).
        assert_eq!(parsed[0], records[2]);
        assert_eq!(parsed[1], records[1]);
        assert_eq!(parsed[2], records[0]);
        assert!(parse_file("[\ngarbage\n]\n").is_none());
        assert_eq!(parse_file("[\n]\n").unwrap(), Vec::new());
    }

    #[test]
    fn merge_replaces_same_key_records_and_appends_new_ones() {
        let dir = std::env::temp_dir().join(format!("bench_json_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_kernels.json");
        let _ = std::fs::remove_file(&path);

        merge_into_file(&path, &[record("op", "scalar", 64, 1, 10.0)]).unwrap();
        merge_into_file(
            &path,
            &[
                record("op", "scalar", 64, 1, 20.0), // replaces
                record("op", "avx2", 64, 1, 5.0),    // appends
            ],
        )
        .unwrap();
        let merged = parse_file(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.len(), 2);
        let scalar = merged.iter().find(|r| r.isa == "scalar").unwrap();
        assert_eq!(scalar.ns_per_op, 20.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn median_timing_counts_each_operation() {
        let mut calls = 0usize;
        let ns = median_ns_per_op(3, 100, || calls += 1);
        assert_eq!(calls, 4); // warm-up + 3 samples
        assert!(ns >= 0.0);
    }
}
