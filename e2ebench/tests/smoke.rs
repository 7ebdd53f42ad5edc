//! Smoke test: every workload, at its smallest size, traced and not,
//! prints exactly the metrics `BENCHMARK.json` names, each with its
//! declared unit, and passes its own correctness check.

use gpl_e2ebench::workload::Workload;
use gpl_e2ebench::{run, Options};
use gpl_obs::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    gpl_obs::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key}"))
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing {section}"))
        .iter()
        .map(|m| (str_field(m, "name").into(), str_field(m, "unit").into()))
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Γ calibration is too slow unoptimised; run with --release"
)]
fn every_declared_metric_is_printed_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::NAMES);

    for name in workloads {
        let mut workload = Workload::named(name).expect("declared workload exists");
        workload.sf = 0.002;
        workload.requests = if name == "adhoc-serve" { 16 } else { 10 };
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(&Options {
                workload: workload.clone(),
                seed: 1,
                seconds: 0.0,
                trace,
            });
            assert!(out.correct, "{name} trace {trace}:\n{}", out.report);
            assert_eq!(out.failed, 0);
            let line = gpl_obs::parse(&out.json()).expect("result line is JSON");
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics object in {}", out.json());
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(Json::as_f64).is_some(),
                        "{name}: {k} has no numeric value"
                    );
                    (k.clone(), str_field(v, "unit").to_string())
                })
                .collect();
            assert_eq!(printed, declared(&bench, section), "{name} trace {trace}");
        }
    }
}
