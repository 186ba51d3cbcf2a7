//! Runs every workload named in `BENCHMARK.json` (and `daemon-durable`)
//! once, end to end and traced, at the shortest run length and on a seed
//! no tuning run used, and checks that the last line of output reports
//! every metric the file declares, with its unit, and that no operation
//! failed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

const HELD_OUT_SEED: &str = "987654321";

/// The string values of `key` inside the JSON array that follows
/// `"section":` (the file is flat enough that a scan suffices).
fn values(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &json[start..];
    let end = rest.find(']').expect("section is an array");
    let body = &rest[..end];
    let pat = format!("\"{key}\": \"");
    body.match_indices(&pat)
        .map(|(i, _)| {
            let v = &body[i + pat.len()..];
            v[..v.find('"').expect("closed string")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str, dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_parinda-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            HELD_OUT_SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let mut workloads = values(&spec, "workloads", "name");
    assert!(workloads.len() >= 2);
    // runnable by hand although BENCHMARK.json leaves it out (see README)
    workloads.push("daemon-durable".into());
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("metrics-test");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = values(&spec, section, "name");
        let units = values(&spec, section, "unit");
        assert_eq!(names.len(), units.len());
        for w in &workloads {
            let stdout = run(w, trace, &scratch);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{w} --trace {trace}: {last}"
            );
            assert!(
                last.contains("\"failed\": 0, "),
                "{w} --trace {trace}: {last}"
            );
            for (n, u) in names.iter().zip(&units) {
                let key = format!("\"{n}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{w}: {n} missing in {last}"));
                let tail = &last[at + key.len()..];
                let unit = format!(", \"unit\": \"{u}\"}}");
                let close = tail.find('}').expect("metric object closes") + 1;
                assert!(
                    tail[..close].ends_with(&unit),
                    "{w}: {n} lacks unit {u}: {}",
                    &tail[..close]
                );
            }
            let declared = last.matches("\"value\": ").count();
            assert_eq!(declared, names.len(), "{w}: undeclared metrics in {last}");
        }
    }
}
