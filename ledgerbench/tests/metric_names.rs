//! The metric and workload names the benchmark prints are the names
//! `BENCHMARK.json` declares, in both modes.

use ledgerbench::spec::{workload, END_TO_END, PER_LAYER, WORKLOADS};

/// `"name": "…"` values of one top-level array of `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .expect("the key is present");
    let body = &json[start..];
    let end = body.find(']').expect("the array closes");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

fn manifest() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn printed(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics present")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Every chunk but the last ends with the next metric's quoted name.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn declared_names_match_the_code() {
    let json = manifest();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    let layer: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    let wl: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(&json, "end_to_end"), e2e);
    assert_eq!(names(&json, "per_layer"), layer);
    assert_eq!(names(&json, "workloads"), wl);
}

#[test]
fn printed_names_match_benchmark_json() {
    let json = manifest();
    let spec = workload("hot_topk").expect("declared");
    let dir = ledgerbench::setup::scratch_dir("names-test", 0);
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = if trace {
            ledgerbench::trace::run(&spec, 1, 2, &dir)
        } else {
            ledgerbench::run::run(&spec, 1, 2, &dir)
        };
        assert!(out.correct, "{:?}", out.notes);
        let line =
            ledgerbench::report::result_line(out.correct, out.attempted, out.failed, &out.metrics);
        assert_eq!(printed(&line), names(&json, key), "trace {trace}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
