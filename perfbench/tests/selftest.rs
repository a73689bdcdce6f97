//! Self-test of the benchmark: tiny runs of every workload must print
//! every metric `BENCHMARK.json` names, with its unit, and pass their
//! correctness checks; traced runs must write spans whose self times
//! add up, and repeat their exact counts for a seed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::Value;
use std::collections::HashMap;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

/// Run one tiny workload; returns its `run` line and its result line.
fn run(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.4",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a run line and a result line"
    );
    let parse = |l: &str| serde_json::from_str(l).unwrap_or_else(|e| panic!("{l}: {e:?}"));
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn metrics(result: &Value) -> HashMap<String, (f64, String)> {
    let obj = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    obj.iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            (name.clone(), (value, str_of(m, "unit").to_string()))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let bench = benchmark_json();
    for workload in list(&bench, "workloads") {
        let name = str_of(workload, "name");
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (_, result) = run(name, 11, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let got = metrics(&result);
            let want = list(&bench, key);
            assert_eq!(got.len(), want.len(), "{name}: metric count for {key}");
            for m in want {
                let metric = str_of(m, "name");
                let (value, unit) = got
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} trace={trace} lacks {metric}"));
                assert_eq!(unit, str_of(m, "unit"), "{name}: unit of {metric}");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if !trace {
                    assert!(*value > 0.0, "{name}: end-to-end {metric} is {value}");
                }
            }
        }
    }
}

#[test]
fn traced_spans_account_for_their_time() {
    for workload in [
        "mcmc_chain",
        "serve_proposals",
        "serve_fresh_durable",
        "device_sim",
    ] {
        let (run_line, _) = run(workload, 12, true);
        let path = run_line
            .get("run")
            .map(|r| str_of(r, "spans").to_string())
            .expect("run line names its spans file");
        let text = std::fs::read_to_string(&path).expect("spans file written");
        let spans: Vec<Value> = text
            .lines()
            .skip(1)
            .map(|l| serde_json::from_str(l).expect("span line parses"))
            .collect();
        assert!(!spans.is_empty(), "{workload}: no spans");
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64).expect("integer field");
        let mut children: HashMap<u64, Vec<&Value>> = HashMap::new();
        for s in &spans {
            children.entry(num(s, "parent")).or_default().push(s);
        }
        for s in &spans {
            let (start, end) = (num(s, "start_ns"), num(s, "end_ns"));
            assert!(start <= end, "{workload}: span ends before it starts");
            let kids = children.get(&num(s, "id")).map_or(&[][..], Vec::as_slice);
            let mut child_ns = 0;
            for k in kids {
                assert!(
                    start <= num(k, "start_ns") && num(k, "end_ns") <= end,
                    "{workload}: child outside its parent"
                );
                child_ns += num(k, "end_ns") - num(k, "start_ns");
            }
            assert_eq!(
                num(s, "self_ns") + child_ns,
                end - start,
                "{workload}: self time plus children's time is not the duration"
            );
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let exact: &[(&str, &[&str])] = &[
        (
            "mcmc_chain",
            &[
                "mcmc.acceptance_ratio",
                "incremental.kernel_calls_per_gen",
                "kernels.down.calls",
                "kernels.root.calls",
                "kernels.scale.calls",
                "kernels.patterns",
            ],
        ),
        (
            "device_sim",
            &[
                "kernels.down.calls",
                "kernels.patterns",
                "cellbe.modeled_ms_per_eval",
                "cellbe.dma_bytes_per_eval",
                "cellbe.overlap_ratio",
                "gpu.modeled_ms_per_eval",
                "gpu.launches_per_eval",
                "gpu.pcie_share_modeled",
            ],
        ),
    ];
    for (workload, names) in exact {
        let (_, a) = run(workload, 13, true);
        let (_, b) = run(workload, 13, true);
        let (a, b) = (metrics(&a), metrics(&b));
        for name in *names {
            assert_eq!(
                a[*name].0.to_bits(),
                b[*name].0.to_bits(),
                "{workload}: {name} differs between runs of one seed"
            );
        }
    }
}
