//! The metric tables the benchmark emits and `BENCHMARK.json` agree.

use perfbench::report::{result_line, Metrics, END_TO_END, PER_LAYER};

/// `(name, unit)` pairs listed under `section` of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} missing"));
    let open = start + text[start..].find('[').expect("section is a list");
    let close = open + text[open..].find(']').expect("list closes");
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        let rest = &entry[at + key.len() + 2..];
        let value = &rest[rest.find('"').expect("string value") + 1..];
        value[..value.find('"').expect("string closes")].to_string()
    };
    text[open + 1..close]
        .split('}')
        .filter(|entry| entry.contains("\"name\""))
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn table(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
}

#[test]
fn result_lines_carry_every_metric_of_their_table() {
    let mut metrics = Metrics::default();
    for &(name, _) in END_TO_END {
        metrics.set(name, 1.5);
    }
    for (trace, entries) in [(false, END_TO_END), (true, PER_LAYER)] {
        let line = result_line(true, 3, 0, trace, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for &(name, unit) in entries {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(line.matches("\"value\"").count(), entries.len());
    }
}

#[test]
#[should_panic(expected = "is in neither table")]
fn unknown_metric_names_are_rejected() {
    Metrics::default().set("latency_p99_ms", 1.0);
}

#[test]
fn names_and_units_fit_the_benchmark_format() {
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|e| e.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
}
