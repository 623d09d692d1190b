//! **NETRUN_PARALLEL** — the deterministic parallel engine benchmark:
//! same-window node solves fanned out over the worker pool, committed in
//! canonical `(time, seq)` order.
//!
//! For every page scale in the grid the sequential engine
//! (`engine_workers = 1`) sets the reference, then each parallel worker
//! count runs the *identical* config and must reproduce the reference
//! **bit for bit** — rank bits and engine stats are asserted in-run, so a
//! recorded speedup is a speedup of the same computation, not of a
//! divergent one. Rows record events/sec, the engine-time speedup over
//! sequential, and the batch counters (`batches`, `max_batch`,
//! `singleton_batches`, `fanned_out_batches`) that show how much
//! same-window parallelism the workload actually exposes and how much of
//! it reached the pool. `--quick` also checks, as a count, that the run's
//! converged second half fans out fewer batches than it extracts.
//!
//! `host_threads` is recorded next to the timings: on a 1-core host every
//! pool degenerates to sequential execution, so speedup ≈ 1× **by
//! construction** and the numbers certify determinism, not scaling (the
//! same caveat applies to the solver-level `BENCH_parallel.json`).
//!
//! Usage: `netrun_parallel [--workers 1,2,4,8] [--t-end T]
//!         [--sample-every T] [--latency L] [--reps R] [--dpr2] [--quick]
//!         [--out PATH]`
//!
//! `--quick` runs one small scale for CI smoke testing, still asserting
//! bit-identity across every worker count. `--out` writes the JSON payload
//! (used to commit `BENCH_parallel_netrun.json` at the repo root).

use std::time::Instant;

use dpr_bench::BenchArgs;
use dpr_core::{try_run_over_network, DprVariant, NetRunConfig, NetRunResult};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::WebGraph;
use dpr_linalg::pool::Pool;
use dpr_partition::Strategy;
use dpr_sim::FaultPlan;
use serde::Serialize;

#[derive(Serialize)]
struct WorkerRow {
    pages: usize,
    groups: usize,
    nodes: usize,
    workers: usize,
    wall_secs: f64,
    engine_secs: f64,
    events_per_sec: f64,
    /// Sequential engine seconds over this row's engine seconds at the
    /// same scale (1.0 for the reference row itself).
    speedup_vs_sequential: f64,
    /// Wake batches the lookahead window extracted (0 when sequential).
    batches: u64,
    max_batch: usize,
    singleton_batches: u64,
    /// Batches whose thinks went to the pool (at least two thinks with
    /// work); the rest thought inline.
    fanned_out_batches: u64,
    /// Deliveries committed through a held batch instead of breaking
    /// extraction (the amortized-scan engine; 0 when sequential).
    held_deliveries: u64,
    wakes: u64,
    deliveries: u64,
    /// Rank bits and `SimStats` matched the sequential reference exactly.
    bit_identical: bool,
    final_rel_err: f64,
}

#[derive(Serialize)]
struct Payload {
    /// `available_parallelism()` of the recording host. When 1, every
    /// speedup below is ≈ 1× by construction (pools degenerate to
    /// sequential) and this file certifies determinism, not scaling.
    host_threads: usize,
    quick: bool,
    variant: String,
    t_end: f64,
    latency: f64,
    workers: Vec<usize>,
    grid: Vec<WorkerRow>,
}

fn timed_run(g: &WebGraph, cfg: NetRunConfig) -> (NetRunResult, f64) {
    let t0 = Instant::now();
    let res = try_run_over_network(g, cfg).expect("parallel configs schedule no churn");
    (res, t0.elapsed().as_secs_f64())
}

fn rank_bits(r: &NetRunResult) -> Vec<u64> {
    r.final_ranks.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let args = BenchArgs::from_env("netrun_parallel");
    let quick = args.flag("quick");
    let workers: Vec<usize> = args.list("workers", if quick { "1,2,4" } else { "1,2,4,8" });
    assert_eq!(workers.first(), Some(&1), "the grid needs the sequential reference first");
    let t_end = args.get("t-end", if quick { 300.0 } else { 1200.0f64 });
    let sample_every = args.get("sample-every", if quick { 50.0 } else { 200.0f64 });
    // Base engine latency: also the batch lookahead window, so it bounds
    // how many same-window wakes one batch can hold.
    let latency = args.get("latency", 0.01f64);
    let reps = args.get("reps", if quick { 1 } else { 3usize });
    let variant = if args.flag("dpr2") { DprVariant::Dpr2 } else { DprVariant::Dpr1 };
    let host_threads = Pool::host_threads();

    // (pages, sites, groups, nodes): the issue's speedup grid — 100k and
    // 1M pages; --quick shrinks to one CI-sized scale.
    let scales: &[(usize, usize, usize, usize)] = if quick {
        &[(50_000, 50, 50, 128)]
    } else {
        &[(100_000, 100, 100, 256), (1_000_000, 100, 100, 256)]
    };

    eprintln!(
        "[netrun_parallel] host_threads {host_threads}, workers {workers:?}, \
         t_end {t_end}, {variant:?}{}",
        if host_threads == 1 { " (1-core host: speedup ≈ 1x by construction)" } else { "" }
    );

    let mut grid: Vec<WorkerRow> = Vec::new();
    for &(pages, sites, k, nodes) in scales {
        let g = edu_domain(&EduDomainConfig {
            n_pages: pages,
            n_sites: sites,
            ..EduDomainConfig::default()
        });
        let base = NetRunConfig {
            k,
            n_nodes: nodes,
            strategy: Strategy::HashBySite,
            variant,
            t_end,
            sample_every,
            faults: Some(FaultPlan::new().with_latency(latency)),
            ..NetRunConfig::default()
        };
        // Interleave reps across worker counts (1 2 4 8, 1 2 4 8, ...) so
        // sustained host-load weather hits every mode equally; runs are
        // deterministic, reps differ only in timing. Keep the best
        // (lowest engine time) per worker count.
        let mut best: Vec<Option<(NetRunResult, f64)>> = workers.iter().map(|_| None).collect();
        for _ in 0..reps.max(1) {
            for (slot, &w) in best.iter_mut().zip(&workers) {
                let (res, wall) = timed_run(&g, NetRunConfig { engine_workers: w, ..base.clone() });
                if slot.as_ref().is_none_or(|(b, _)| res.engine_secs < b.engine_secs) {
                    *slot = Some((res, wall));
                }
            }
        }
        let runs: Vec<(NetRunResult, f64)> = best.into_iter().map(|s| s.expect("ran")).collect();
        let (reference, _) = &runs[0];
        let ref_bits = rank_bits(reference);
        let ref_secs = reference.engine_secs.max(1e-9);
        for (&w, (res, wall)) in workers.iter().zip(&runs) {
            // The acceptance gate: every parallel run reproduces the
            // sequential engine bit for bit before its timing counts.
            assert_eq!(rank_bits(res), ref_bits, "{w}-worker rank bits diverged at {pages} pages");
            assert_eq!(
                res.sim_stats, reference.sim_stats,
                "{w}-worker engine stats diverged at {pages} pages"
            );
            let events = res.sim_stats.wakes + res.sim_stats.deliveries;
            let engine = res.engine_secs.max(1e-9);
            let row = WorkerRow {
                pages,
                groups: k,
                nodes,
                workers: w,
                wall_secs: *wall,
                engine_secs: res.engine_secs,
                events_per_sec: events as f64 / engine,
                speedup_vs_sequential: ref_secs / engine,
                batches: res.sched_stats.batches,
                max_batch: res.sched_stats.max_batch,
                singleton_batches: res.sched_stats.singleton_batches,
                fanned_out_batches: res.sched_stats.fanned_out_batches,
                held_deliveries: res.sched_stats.held_deliveries,
                wakes: res.sim_stats.wakes,
                deliveries: res.sim_stats.deliveries,
                bit_identical: true,
                final_rel_err: res.final_rel_err,
            };
            eprintln!(
                "[netrun_parallel] {pages} pages, {w} workers: {:.3}s engine, \
                 {:.0} events/s, {:.2}x vs sequential, {} batches (max {}, {} fanned out)",
                row.engine_secs,
                row.events_per_sec,
                row.speedup_vs_sequential,
                row.batches,
                row.max_batch,
                row.fanned_out_batches
            );
            if w > 1 {
                assert!(row.batches > 0, "parallel engine never batched at {pages} pages");
                assert!(row.max_batch >= 2, "no same-window parallelism at {pages} pages");
            }
            if quick && w > 1 {
                // The converged half: the run to `t_end / 2` is an exact
                // prefix of this one (same sample slices), so the counter
                // differences are what the second half extracted and
                // fanned out. Once groups stall, thinks have no work and
                // batches think inline.
                let half = NetRunConfig { engine_workers: w, t_end: t_end / 2.0, ..base.clone() };
                let (half, _) = timed_run(&g, half);
                let tail_batches = row.batches - half.sched_stats.batches;
                let tail_fanned = row.fanned_out_batches - half.sched_stats.fanned_out_batches;
                eprintln!(
                    "[netrun_parallel] {pages} pages, {w} workers, converged half: \
                     {tail_fanned} of {tail_batches} batches fanned out"
                );
                assert!(
                    tail_fanned < tail_batches,
                    "the converged half fanned out {tail_fanned} of {tail_batches} batches"
                );
            }
            grid.push(row);
        }
    }

    println!(
        "{:>9}  {:>7}  {:>9}  {:>12}  {:>8}  {:>10}  {:>10}  {:>9}",
        "pages", "workers", "engine(s)", "events/s", "speedup", "batches", "fanned", "max batch"
    );
    for r in &grid {
        println!(
            "{:>9}  {:>7}  {:>9.3}  {:>12.0}  {:>7.2}x  {:>10}  {:>10}  {:>9}",
            r.pages,
            r.workers,
            r.engine_secs,
            r.events_per_sec,
            r.speedup_vs_sequential,
            r.batches,
            r.fanned_out_batches,
            r.max_batch
        );
    }
    if host_threads == 1 {
        println!(
            "host_threads = 1: speedups ≈ 1x by construction; this run certifies bit-identity"
        );
    }

    let payload = Payload {
        host_threads,
        quick,
        variant: format!("{variant:?}"),
        t_end,
        latency,
        workers,
        grid,
    };
    args.emit(&payload).expect("write experiment json");
}
