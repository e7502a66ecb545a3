//! The result line reports exactly the metrics `BENCHMARK.json` names.

use lynceus_perfbench::{END_TO_END, PER_LAYER};
use lynceus_serve::json;

fn names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let benchmark = json::parse(&text).expect("BENCHMARK.json is valid JSON");
    benchmark
        .get(section)
        .and_then(json::Value::as_arr)
        .expect("the section is a list")
        .iter()
        .map(|metric| {
            metric
                .get("name")
                .and_then(json::Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    assert_eq!(names("end_to_end"), END_TO_END);
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    assert_eq!(names("per_layer"), PER_LAYER);
}
