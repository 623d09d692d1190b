//! Tiny-scale runs of every workload through every check, the metric
//! schema against `BENCHMARK.json`, seeds, and the command line.

use std::path::PathBuf;
use std::process::Command;

use perfbench::{run, Outcome, Spec, Workload, END_TO_END, PER_LAYER};

/// A data directory of the test's own, emptied first.
fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".bench_data").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record<'a>(out: &'a Outcome, key: &str) -> &'a str {
    &out.record.iter().find(|(k, _)| *k == key).unwrap_or_else(|| panic!("no {key}")).1
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

fn smoke(w: Workload) {
    let dir = data_dir(&format!("smoke-{}", w.name()));
    let spec = Spec::tiny(w);
    for trace in [false, true] {
        let out = run(&spec, 1, 0.0, trace, &dir).expect("tiny run");
        assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.notes);
        assert!(out.attempted >= 2, "{}: {}", w.name(), out.attempted);
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, expected);
        if !trace {
            assert!(out.metrics.iter().all(|m| m.value > 0.0), "{:?}", out.metrics);
        }
        for key in ["seed", "host_threads", "engine_workers", "readers", "git_describe", "pages"] {
            assert!(!record(&out, key).is_empty(), "{key}");
        }
        assert_eq!(record(&out, "pages"), spec.pages.to_string());
        let line = out.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        assert!(!line.contains('\n'));
        if trace && w != Workload::Ingest10m {
            let coverage = value(&out, "netrun.coverage");
            assert!(coverage > 0.0 && coverage <= 1.0, "coverage {coverage}");
            let engine = value(&out, "netrun.engine_s");
            let rest = value(&out, "netrun.unattributed_s");
            assert!((engine - rest - coverage * engine).abs() < 1e-9 * engine.max(1.0));
            assert!(value(&out, "linalg.inner_sweeps") > 0.0);
        }
        if w == Workload::DeltaServe100k {
            assert!(record(&out, "resolve_stalls").ends_with(" deltas"));
            // Re-solve stalls are reported, never counted as failures.
            assert_eq!(out.failed, 0, "{:?}", out.notes);
        }
        if trace && w == Workload::DeltaServe100k {
            assert!(value(&out, "store.query_qps") > 0.0);
            assert!(value(&out, "group.rebuild_s") > 0.0);
            let share = value(&out, "netrun.resolve_stall_share");
            assert!((0.0..=1.0).contains(&share), "stall share {share}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_smoke() {
    smoke(Workload::Cold1mDpr1);
}

#[test]
fn steady_smoke() {
    smoke(Workload::Steady100kDpr2);
}

#[test]
fn delta_serve_smoke() {
    smoke(Workload::DeltaServe100k);
}

#[test]
fn ingest_smoke() {
    smoke(Workload::Ingest10m);
}

#[test]
fn second_seed_changes_the_inputs_and_still_checks_out() {
    let dir = data_dir("seeds");
    let spec = Spec::tiny(Workload::Steady100kDpr2);
    let a = run(&spec, 1, 0.0, false, &dir).expect("seed 1");
    let b = run(&spec, 2, 0.0, false, &dir).expect("seed 2");
    let again = run(&spec, 2, 0.0, false, &dir).expect("seed 2 again");
    assert!(b.correct, "{:?}", b.notes);
    assert_eq!(record(&b, "seed"), "2");
    assert_ne!(record(&a, "links"), record(&b, "links"), "a new seed is a new graph");
    assert_eq!(record(&b, "links"), record(&again, "links"), "a seed fixes its inputs");
    assert_eq!(record(&b, "final_rel_err"), record(&again, "final_rel_err"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_check_fails_the_run() {
    let dir = data_dir("corrupt");
    let spec = Spec::tiny(Workload::Cold1mDpr1);
    run(&spec, 1, 0.0, false, &dir).expect("first run generates the input");
    // Swap in a graph of another size under this seed's name: the loaded
    // counts no longer match what the workload generates.
    let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let other = dpr_graph::generators::edu::EduDomainConfig {
        n_pages: spec.pages + 10,
        n_sites: spec.sites,
        seed: 1,
        ..Default::default()
    };
    dpr_graph::generators::edu::edu_domain_to_snapshot_path(&other, &file).unwrap();
    let out = run(&spec, 1, 0.0, false, &dir).expect("a failed check is not an error");
    assert!(!out.correct);
    assert!(out.failed >= 1);
    assert!(out.notes.iter().any(|n| n.contains("graph counts differ")), "{:?}", out.notes);
    let _ = std::fs::remove_dir_all(&dir);
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_schema_matches_benchmark_json() {
    let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} for {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names must be unique");
    assert!(END_TO_END.contains(&("setup_s", "s")));

    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in &all {
        assert!(
            compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "{name} ({unit}) is not declared in BENCHMARK.json"
        );
    }
    assert_eq!(compact.matches("\"unit\":").count(), all.len(), "undeclared metric in the json");
    for w in Workload::ALL {
        assert!(compact.contains(&format!("\"name\":\"{}\"", w.name())), "{}", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn command_line_refuses_bad_arguments_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "ingest-10m", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "ingest-10m", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "ingest-10m", "--bogus", "1"],
        &["--workload"],
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
