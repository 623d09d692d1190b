//! **INNER_SOLVER** — sweep-count benchmark for the per-group inner solve
//! kernels: Jacobi (the bit-exact baseline), Gauss–Seidel, and
//! Gauss–Seidel under the adaptive inner–outer tolerance schedule.
//!
//! Every mode drives the *same* outer process (the paper's asynchronous
//! group exchange) toward the same fixed point, so the interesting axes
//! are work and agreement:
//!
//! * `inner_sweeps` — matrix sweeps actually executed across all group
//!   thinks; the work-proportionality headline.
//! * `sweeps_saved` — windows skipped by the stall short-circuit plus the
//!   geometric estimate of sweeps the adaptive schedule avoided.
//! * accuracy vs the Jacobi run at the same grid point: the max per-page
//!   relative gap must be ≤ 1e-12 and the top-10 pages must match exactly
//!   (relative because top ranks grow with page count, and every mode
//!   stalls on its own ulp-scale float fixed point — the same cross-run
//!   contract as the incremental benchmark).
//!
//! In-run asserts (the regression harness):
//!
//! 1. Gauss–Seidel finishes the reference DPR1 point with ≥ 1.3× fewer
//!    total sweeps than Jacobi.
//! 2. Gauss–Seidel + adaptive-ε uses *strictly* fewer sweeps than plain
//!    Gauss–Seidel on every DPR1 point.
//! 3. Every non-Jacobi mode agrees with Jacobi to 1e-12 with an exactly
//!    matching top-10 at every grid point.
//!
//! Usage: `inner_solver [--t-end T] [--quick] [--out PATH]`
//!
//! `--quick` shrinks the grid for CI smoke testing while keeping all
//! three asserts live. `--out` writes the JSON payload to the given path
//! (used to commit `BENCH_inner.json` at the repo root).

use std::time::Instant;

use dpr_bench::BenchArgs;
use dpr_core::{
    try_run_over_network, AdaptiveEpsilon, DprVariant, InnerSolver, NetRunConfig, NetRunResult,
};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::WebGraph;
use dpr_partition::Strategy;
use serde::Serialize;

#[derive(Serialize)]
struct GridRow {
    pages: usize,
    groups: usize,
    nodes: usize,
    variant: String,
    mode: String,
    adaptive: bool,
    wall_secs: f64,
    engine_secs: f64,
    /// Inner solve sweeps actually executed across all group thinks.
    inner_sweeps: u64,
    /// Stall-skipped windows plus the adaptive schedule's geometric
    /// estimate of avoided sweeps.
    sweeps_saved: u64,
    rows_recomputed: u64,
    /// Max per-page relative gap against the Jacobi run at this grid
    /// point (0 for the Jacobi row itself). Relative, not absolute: top
    /// ranks grow with page count, and every mode stalls on its own
    /// ulp-scale float fixed point (same contract as `max_rel_gap_vs_cold`
    /// in the incremental benchmark).
    max_rel_gap_vs_jacobi: f64,
    /// Exact agreement of the ten highest-ranked pages with the Jacobi run.
    top10_matches: bool,
    final_rel_err: f64,
}

#[derive(Serialize)]
struct Payload {
    quick: bool,
    t_end: f64,
    /// inner_sweeps(jacobi) / inner_sweeps(gauss-seidel) on the reference
    /// (smallest-scale) DPR1 point — the work-proportionality headline.
    sweep_ratio_gs_dpr1: f64,
    grid: Vec<GridRow>,
}

/// Ten highest-ranked pages, index-tiebroken so exact ties compare stably.
fn top10(ranks: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ranks.len()).collect();
    idx.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap().then(a.cmp(&b)));
    idx.truncate(10);
    idx
}

fn timed_run(g: &WebGraph, cfg: NetRunConfig) -> (NetRunResult, f64) {
    let t0 = Instant::now();
    let res = try_run_over_network(g, cfg).expect("bench configs schedule no churn");
    (res, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = BenchArgs::from_env("inner_solver");
    let quick = args.flag("quick");
    let t_end = args.get("t-end", if quick { 300.0 } else { 600.0f64 });

    // Group size is the lever that makes tolerance matter: with ~1000+
    // pages per group the inner solves genuinely take many sweeps, so
    // within-sweep updates and coarse early windows both pay off.
    let scales: &[(usize, usize, usize, usize)] = if quick {
        &[(20_000, 50, 20, 64)]
    } else {
        &[(100_000, 100, 50, 256), (1_000_000, 100, 100, 256)]
    };
    let modes: [(&str, InnerSolver, bool); 3] = [
        ("jacobi", InnerSolver::Jacobi, false),
        ("gauss-seidel", InnerSolver::GaussSeidel, false),
        ("gs+adaptive", InnerSolver::GaussSeidel, true),
    ];

    let mut grid: Vec<GridRow> = Vec::new();
    let mut sweep_ratio_gs_dpr1 = 0.0;
    for &(pages, sites, groups, nodes) in scales {
        eprintln!("[inner_solver] building {pages}-page graph ({sites} sites)");
        let g = edu_domain(&EduDomainConfig {
            n_pages: pages,
            n_sites: sites,
            ..EduDomainConfig::default()
        });
        for variant in [DprVariant::Dpr1, DprVariant::Dpr2] {
            let base = NetRunConfig {
                k: groups,
                n_nodes: nodes,
                strategy: Strategy::HashBySite,
                variant,
                t_end,
                sample_every: t_end / 4.0,
                ..NetRunConfig::default()
            };
            let mut jacobi: Option<NetRunResult> = None;
            let mut gs_sweeps: Option<u64> = None;
            for &(name, inner_solver, adaptive) in &modes {
                let cfg = NetRunConfig {
                    inner_solver,
                    adaptive_epsilon: adaptive.then(AdaptiveEpsilon::default),
                    ..base.clone()
                };
                let (res, wall) = timed_run(&g, cfg);
                let (diff, top_ok) = match &jacobi {
                    None => (0.0, true),
                    Some(j) => {
                        let diff = j
                            .final_ranks
                            .iter()
                            .zip(&res.final_ranks)
                            .map(|(&a, &b)| if a == 0.0 { b.abs() } else { ((a - b) / a).abs() })
                            .fold(0.0f64, f64::max);
                        (diff, top10(&j.final_ranks) == top10(&res.final_ranks))
                    }
                };
                let row = GridRow {
                    pages,
                    groups,
                    nodes,
                    variant: format!("{variant:?}"),
                    mode: name.to_string(),
                    adaptive,
                    wall_secs: wall,
                    engine_secs: res.engine_secs,
                    inner_sweeps: res.counters.inner_sweeps,
                    sweeps_saved: res.counters.sweeps_saved,
                    rows_recomputed: res.counters.rows_recomputed,
                    max_rel_gap_vs_jacobi: diff,
                    top10_matches: top_ok,
                    final_rel_err: res.final_rel_err,
                };
                eprintln!(
                    "[inner_solver] {pages:>9} pages {variant:?} {name:>12}: \
                     {} sweeps ({} saved), diff {diff:.2e}, {:.2}s engine",
                    row.inner_sweeps, row.sweeps_saved, row.engine_secs
                );

                // Assert 3: every mode lands on the Jacobi fixed point.
                assert!(
                    diff <= 1e-12,
                    "{name} ({variant:?}, {pages} pages): max rel gap vs jacobi {diff:.3e} > 1e-12"
                );
                assert!(top_ok, "{name} ({variant:?}, {pages} pages): top-10 moved vs jacobi");

                if variant == DprVariant::Dpr1 {
                    match (name, &jacobi) {
                        // Assert 1: within-sweep updates must buy ≥ 1.3×
                        // fewer sweeps on the reference DPR1 point.
                        ("gauss-seidel", Some(j)) => {
                            let ratio = j.counters.inner_sweeps as f64
                                / res.counters.inner_sweeps.max(1) as f64;
                            if pages == scales[0].0 {
                                sweep_ratio_gs_dpr1 = ratio;
                                assert!(
                                    ratio >= 1.3,
                                    "gauss-seidel only {ratio:.2}x fewer sweeps than jacobi \
                                     on {pages}-page DPR1 (need >= 1.3x)"
                                );
                            }
                            gs_sweeps = Some(res.counters.inner_sweeps);
                        }
                        // Assert 2: coarse early windows must save real work
                        // on top of Gauss-Seidel, strictly.
                        ("gs+adaptive", _) => {
                            let gs = gs_sweeps.expect("gs ran before gs+adaptive");
                            assert!(
                                res.counters.inner_sweeps < gs,
                                "adaptive-e: {} sweeps not strictly fewer than plain GS's {gs} \
                                 ({pages}-page DPR1)",
                                res.counters.inner_sweeps
                            );
                        }
                        _ => {}
                    }
                }
                if name == "jacobi" {
                    jacobi = Some(res);
                }
                grid.push(row);
            }
        }
    }

    println!(
        "{:>9}  {:>5}  {:>12}  {:>12}  {:>12}  {:>10}  {:>6}",
        "pages", "alg", "mode", "sweeps", "saved", "diff", "top10"
    );
    for r in &grid {
        println!(
            "{:>9}  {:>5}  {:>12}  {:>12}  {:>12}  {:>10.2e}  {:>6}",
            r.pages,
            r.variant,
            r.mode,
            r.inner_sweeps,
            r.sweeps_saved,
            r.max_rel_gap_vs_jacobi,
            r.top10_matches
        );
    }
    println!("gauss-seidel sweep win over jacobi (reference DPR1): {sweep_ratio_gs_dpr1:.2}x");

    let payload = Payload { quick, t_end, sweep_ratio_gs_dpr1, grid };
    args.emit(&payload).expect("write experiment json");
}
