//! Self-test of the benchmark: a tiny-scale pass of every workload must
//! print every metric `BENCHMARK.json` names, once, with its unit and a
//! finite value; the simulated-cost counts must repeat for one seed;
//! bad arguments must fail loudly. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["tpcd-reopt", "sql-families", "concurrent-skew"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (which keeps one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in `line`.
fn field(line: &str, key: &str) -> String {
    let at = line
        .find(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + key.len() + 5..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

struct Run {
    code: i32,
    stdout: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_midq-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

fn tiny(workload: &str, seed: &str, trace: &str) -> Run {
    let r = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ]);
    assert_eq!(r.code, 0, "{workload} trace={trace} failed:\n{}", r.stdout);
    r
}

/// Metrics of the JSON summary on the last line: name → (value, unit),
/// failing if a name appears twice.
fn summary(r: &Run) -> HashMap<String, (f64, String)> {
    let last = r.stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    let mut out = HashMap::new();
    for entry in metrics.split("}, ") {
        let name = entry.trim_start_matches('"');
        let name = &name[..name.find('"').expect("metric name")];
        let value = &entry[entry.find("\"value\": ").expect("value") + 9..];
        let value: f64 = value[..value.find(',').expect("value ends")]
            .parse()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let unit = field(entry, "unit");
        assert!(
            out.insert(name.to_string(), (value, unit)).is_none(),
            "{name} printed twice"
        );
    }
    out
}

fn note<'a>(r: &'a Run, name: &str) -> &'a str {
    let prefix = format!("note   {name} = ");
    r.stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {name} note in\n{}", r.stdout))
}

fn assert_all_declared(r: &Run, section: &str, workload: &str) {
    let got = summary(r);
    let want = declared(section);
    assert!(!want.is_empty());
    for (name, unit) in &want {
        let (value, got_unit) = got
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {section} metric {name} not printed"));
        assert_eq!(got_unit, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "{workload}: undeclared metrics printed"
    );
}

#[test]
fn every_declared_metric_prints_once_with_unit_and_finite_value() {
    for w in WORKLOADS {
        assert_all_declared(&tiny(w, "7", "0"), "end_to_end", w);
        assert_all_declared(&tiny(w, "7", "1"), "per_layer", w);
    }
}

#[test]
fn simulated_costs_repeat_for_one_seed_and_follow_the_seed() {
    for w in ["tpcd-reopt", "sql-families"] {
        let a = tiny(w, "11", "0");
        let b = tiny(w, "11", "0");
        let c = tiny(w, "12", "0");
        assert_eq!(
            note(&a, "sim_fingerprint"),
            note(&b, "sim_fingerprint"),
            "{w}"
        );
        assert_ne!(
            note(&a, "sim_fingerprint"),
            note(&c, "sim_fingerprint"),
            "{w}"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "tpcd-reopt",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "tpcd-reopt",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "tpcd-reopt", "--seed", "1", "--trace", "0"],
    ] {
        let r = run(&args);
        assert_ne!(r.code, 0, "{args:?}");
        assert!(!r.stdout.contains("\"correct\""), "{args:?}: {}", r.stdout);
    }
}
