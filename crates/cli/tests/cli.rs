//! Integration tests for the `dpr` CLI subcommands, driven through the
//! library API (no subprocess spawning, so they run everywhere).

use dpr_cli::args::Args;
use dpr_cli::commands;

fn args(s: &[&str]) -> Args {
    Args::parse(s.iter().map(ToString::to_string))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("dpr-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_stats_partition_rank_simulate_pipeline() {
    let path = tmp("pipeline.graph");
    commands::generate(&args(&["generate", "--pages", "3000", "--sites", "20", "--out", &path]))
        .unwrap();
    commands::stats(&args(&["stats", &path])).unwrap();
    commands::partition(&args(&["partition", &path, "--k", "8", "--strategy", "site"])).unwrap();
    commands::rank(&args(&["rank", &path, "--top", "5"])).unwrap();
    commands::rank(&args(&["rank", &path, "--algo", "hits", "--top", "3"])).unwrap();
    commands::rank(&args(&["rank", &path, "--algo", "pagerank", "--accelerated"])).unwrap();
    commands::simulate(&args(&["simulate", &path, "--k", "10", "--p", "0.8", "--t-end", "60"]))
        .unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn crawl_subcommand_produces_rankable_dataset() {
    let path = tmp("crawled.graph");
    commands::crawl(&args(&[
        "crawl",
        "--web-pages",
        "5000",
        "--sites",
        "16",
        "--agents",
        "3",
        "--budget",
        "400",
        "--out",
        &path,
    ]))
    .unwrap();
    commands::rank(&args(&["rank", &path, "--top", "3"])).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_save_and_warm_start_roundtrip() {
    let graph = tmp("warm.graph");
    let ranks = tmp("warm.ranks");
    commands::generate(&args(&["generate", "--pages", "2000", "--sites", "15", "--out", &graph]))
        .unwrap();
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--k",
        "8",
        "--t-end",
        "80",
        "--save-ranks",
        &ranks,
    ]))
    .unwrap();
    let saved = dpr_core::ranks_io::load(&ranks).unwrap();
    assert_eq!(saved.len(), 2000);
    assert!(saved.iter().any(|&r| r > 0.0));
    // Second invocation warm-starts from the saved file.
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--k",
        "8",
        "--t-end",
        "40",
        "--warm-start",
        &ranks,
    ]))
    .unwrap();
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&ranks).ok();
}

#[test]
fn threaded_simulate_via_cli() {
    let graph = tmp("threaded.graph");
    commands::generate(&args(&["generate", "--pages", "1500", "--sites", "12", "--out", &graph]))
        .unwrap();
    commands::simulate(&args(&["simulate", &graph, "--k", "6", "--threaded"])).unwrap();
    std::fs::remove_file(&graph).ok();
}

#[test]
fn top_reads_saved_ranks() {
    let graph = tmp("top.graph");
    let ranks = tmp("top.ranks");
    commands::generate(&args(&["generate", "--pages", "800", "--sites", "8", "--out", &graph]))
        .unwrap();
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--k",
        "8",
        "--t-end",
        "60",
        "--save-ranks",
        &ranks,
    ]))
    .unwrap();
    commands::top(&args(&["top", &graph, "--ranks", &ranks, "--k", "5"])).unwrap();
    commands::top(&args(&["top", &graph, "--ranks", &ranks, "--site", "1"])).unwrap();
    // Mismatched rank file is a clean error.
    let small = tmp("small.graph");
    commands::generate(&args(&["generate", "--pages", "100", "--sites", "4", "--out", &small]))
        .unwrap();
    assert!(commands::top(&args(&["top", &small, "--ranks", &ranks]))
        .unwrap_err()
        .contains("entries"));
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&ranks).ok();
    std::fs::remove_file(&small).ok();
}

#[test]
fn analyze_reports_structure() {
    let path = tmp("analyze.graph");
    commands::generate(&args(&["generate", "--pages", "1000", "--sites", "10", "--out", &path]))
        .unwrap();
    commands::analyze(&args(&["analyze", &path])).unwrap();
    commands::analyze(&args(&["analyze", &path, "--sinks-only"])).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_runs_with_defaults_and_overrides() {
    commands::plan(&args(&["plan"])).unwrap();
    commands::plan(&args(&["plan", "--rankers", "100000", "--pages", "3e10"])).unwrap();
}

#[test]
fn missing_file_is_a_clean_error() {
    let err = commands::stats(&args(&["stats", "/nonexistent/x.graph"])).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn bad_enums_are_clean_errors() {
    let path = tmp("enums.graph");
    commands::generate(&args(&["generate", "--pages", "500", "--sites", "5", "--out", &path]))
        .unwrap();
    assert!(commands::partition(&args(&["partition", &path, "--strategy", "zigzag"]))
        .unwrap_err()
        .contains("unknown strategy"));
    assert!(commands::rank(&args(&["rank", &path, "--algo", "eigentrust"]))
        .unwrap_err()
        .contains("unknown algo"));
    assert!(commands::simulate(&args(&["simulate", &path, "--variant", "dpr9"]))
        .unwrap_err()
        .contains("unknown variant"));
    assert!(commands::crawl(&args(&["crawl", "--mode", "psychic", "--out", "/tmp/x"]))
        .unwrap_err()
        .contains("unknown mode"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn generate_requires_out() {
    assert!(commands::generate(&args(&["generate"])).unwrap_err().contains("--out"));
}

#[test]
fn net_simulate_with_faults_and_reliability() {
    let graph = tmp("net.graph");
    commands::generate(&args(&["generate", "--pages", "800", "--sites", "8", "--out", &graph]))
        .unwrap();
    // Plain whole-system run over the default Pastry overlay.
    commands::simulate(&args(&["simulate", &graph, "--net", "--k", "8", "--t-end", "120"]))
        .unwrap();
    // Lossy run with the reliability protocol and a crash + join schedule.
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--k",
        "8",
        "--t-end",
        "150",
        "--p",
        "0.7",
        "--reliable",
        "--ack-timeout",
        "0.5",
        "--max-retries",
        "4",
        "--crash",
        "40:2",
        "--join",
        "60:901",
    ]))
    .unwrap();
    // Partition window on a Chord deployment.
    commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--k",
        "8",
        "--overlay",
        "chord",
        "--t-end",
        "150",
        "--partition",
        "30:60:0-3",
    ]))
    .unwrap();
    std::fs::remove_file(&graph).ok();
}

#[test]
fn net_simulate_rejects_bad_specs() {
    let graph = tmp("net-bad.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--overlay", "kademlia"]))
        .unwrap_err()
        .contains("unknown overlay"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--crash", "oops"]))
        .unwrap_err()
        .contains("--crash"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--partition", "9:3:0-1"]))
        .unwrap_err()
        .contains("--partition"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--p", "1.5"]))
        .unwrap_err()
        .contains("--p"));
    assert!(commands::simulate(&args(&["simulate", &graph, "--net", "--join", "5:9,3:8"]))
        .unwrap_err()
        .contains("strictly increasing"));
    // Churn on an overlay that cannot support it surfaces as an error, not
    // a panic.
    assert!(commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--overlay",
        "can",
        "--crash",
        "10:1",
    ]))
    .unwrap_err()
    .contains("not supported on the CAN overlay"));
    std::fs::remove_file(&graph).ok();
}

#[test]
fn removed_engine_modes_are_unknown_options() {
    let graph = tmp("strict-modes.graph");
    commands::generate(&args(&["generate", "--pages", "400", "--sites", "4", "--out", &graph]))
        .unwrap();
    for flag in [
        "--heap-scheduler",
        "--no-ext-cache",
        "--no-coalesce",
        "--no-route-cache",
        "--explicit-matrix",
    ] {
        let err = commands::simulate(&args(&["simulate", &graph, "--net", "--t-end", "5", flag]))
            .unwrap_err();
        assert_eq!(err, format!("unknown option {flag} for `simulate`"));
    }
    let err = commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--t-end",
        "5",
        "--inner-solver",
        "sor:1.1",
    ]))
    .unwrap_err();
    assert!(err.contains("unknown solver \"sor:1.1\""), "{err}");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn malformed_values_and_misspelled_options_are_errors() {
    let out = tmp("strict-2k.graph");
    std::fs::remove_file(&out).ok();
    let err = commands::generate(&args(&["generate", "--pages", "2k", "--out", &out])).unwrap_err();
    assert_eq!(err, "bad value `2k` for --pages");
    assert!(!std::path::Path::new(&out).exists(), "a rejected command must write nothing");
    let err = commands::generate(&args(&["generate", "--sitez", "4", "--out", &out])).unwrap_err();
    assert_eq!(err, "unknown option --sitez for `generate`");

    let graph = tmp("strict-values.graph");
    commands::generate(&args(&["generate", "--pages", "300", "--sites", "3", "--out", &graph]))
        .unwrap();
    let err = commands::simulate(&args(&[
        "simulate",
        &graph,
        "--net",
        "--no-such-flag",
        "--engine-workers",
        "two",
    ]))
    .unwrap_err();
    assert_eq!(err, "unknown option --no-such-flag for `simulate`");
    let err = commands::simulate(&args(&["simulate", &graph, "--net", "--engine-workers", "two"]))
        .unwrap_err();
    assert_eq!(err, "bad value `two` for --engine-workers");
    let err = commands::simulate(&args(&["simulate", &graph, "--threaded", "yes"])).unwrap_err();
    assert!(err.contains("--threaded is a flag"), "{err}");
    std::fs::remove_file(&graph).ok();
}
