//! **NETRUN_SCALE** — whole-system scale benchmark for the event engine
//! and the think-step hot path: the slab-backed scheduler, the dirty-row
//! external-contribution cache, and the allocation-hoisted solve buffers.
//!
//! Two sections:
//!
//! 1. **Reference run** (the regression harness): the 100k-page reference
//!    config, best engine time of `--reps` runs, which must all replay the
//!    same rank bits and engine statistics. Records events/sec, sends/sec,
//!    rows recomputed and the scheduler's arena high-water mark.
//! 2. **Scale sweep**: growing workloads up to one million pages on ≥256
//!    overlay nodes, recording events/sec, sends/sec, and the scheduler's
//!    arena high-water mark (its peak-memory proxy: slots are recycled
//!    through a free list, so `arena_slots` is exactly the peak number of
//!    simultaneously pending events, never the push count).
//!
//! Usage: `netrun_scale [--pages N] [--sites S] [--groups K] [--nodes M]
//!         [--t-end T] [--sample-every T] [--sweep-t-end T] [--reps R]
//!         [--dpr2] [--quick] [--no-sweep] [--out PATH]`
//!
//! `--quick` shrinks both sections for CI smoke testing; it still asserts
//! bit-identical replays and steady-state arena recycling (pushes ≫ arena
//! slots). `--out` writes the JSON payload to the given path (used to
//! commit `BENCH_scale.json` at the repo root).

use std::time::Instant;

use dpr_bench::BenchArgs;
use dpr_core::{try_run_over_network, DprVariant, NetRunConfig, NetRunResult};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::WebGraph;
use dpr_partition::Strategy;
use serde::Serialize;

#[derive(Serialize)]
struct EngineRow {
    wall_secs: f64,
    /// Wall-clock seconds inside the event loop only (setup — graph
    /// partitioning, the centralized reference solve, context assembly —
    /// is excluded).
    engine_secs: f64,
    /// Engine events (wakes + message deliveries) per engine second.
    events_per_sec: f64,
    sends_per_sec: f64,
    wakes: u64,
    deliveries: u64,
    sends_attempted: u64,
    /// Scheduler arena high-water mark: peak simultaneously pending events.
    arena_slots: usize,
    peak_queue_len: usize,
    /// Total events ever scheduled; `pushes / arena_slots` is the slot
    /// recycling factor.
    pushes: u64,
    rows_recomputed: u64,
    payload_clones: u64,
    /// Inner solve sweeps actually executed across all group thinks.
    inner_sweeps: u64,
    /// Sweeps avoided by the stall short-circuit (and, under adaptive-ε,
    /// by stopping coarse windows early).
    sweeps_saved: u64,
    final_rel_err: f64,
}

#[derive(Serialize)]
struct SweepRow {
    pages: usize,
    sites: usize,
    groups: usize,
    nodes: usize,
    t_end: f64,
    wall_secs: f64,
    engine_secs: f64,
    events_per_sec: f64,
    sends_per_sec: f64,
    arena_slots: usize,
    peak_queue_len: usize,
    pushes: u64,
    final_rel_err: f64,
}

#[derive(Serialize)]
struct Payload {
    pages: usize,
    sites: usize,
    groups: usize,
    nodes: usize,
    t_end: f64,
    quick: bool,
    variant: String,
    reference: EngineRow,
    sweep: Vec<SweepRow>,
}

fn timed_run(g: &WebGraph, cfg: NetRunConfig) -> (NetRunResult, f64) {
    let t0 = Instant::now();
    let res = try_run_over_network(g, cfg).expect("scale configs schedule no churn");
    (res, t0.elapsed().as_secs_f64())
}

fn engine_row(res: &NetRunResult, wall: f64) -> EngineRow {
    let events = res.sim_stats.wakes + res.sim_stats.deliveries;
    let engine = res.engine_secs.max(1e-9);
    let row = EngineRow {
        wall_secs: wall,
        engine_secs: res.engine_secs,
        events_per_sec: events as f64 / engine,
        sends_per_sec: res.sim_stats.sends_attempted as f64 / engine,
        wakes: res.sim_stats.wakes,
        deliveries: res.sim_stats.deliveries,
        sends_attempted: res.sim_stats.sends_attempted,
        arena_slots: res.sched_stats.arena_slots,
        peak_queue_len: res.sched_stats.peak_queue_len,
        pushes: res.sched_stats.pushes,
        rows_recomputed: res.counters.rows_recomputed,
        payload_clones: res.counters.payload_clones,
        inner_sweeps: res.counters.inner_sweeps,
        sweeps_saved: res.counters.sweeps_saved,
        final_rel_err: res.final_rel_err,
    };
    eprintln!(
        "[netrun_scale] reference: {:.3}s engine ({:.3}s total), {:.0} events/s, \
         {:.0} sends/s, rows {}",
        row.engine_secs, row.wall_secs, row.events_per_sec, row.sends_per_sec, row.rows_recomputed
    );
    row
}

fn rank_bits(r: &NetRunResult) -> Vec<u64> {
    r.final_ranks.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let args = BenchArgs::from_env("netrun_scale");
    let quick = args.flag("quick");
    let pages = args.get("pages", if quick { 50_000 } else { 100_000usize });
    let sites = args.get("sites", if quick { 50 } else { 100usize });
    let groups = args.get("groups", if quick { 50 } else { 100usize });
    let nodes = args.get("nodes", if quick { 128 } else { 256usize });
    let t_end = args.get("t-end", if quick { 600.0 } else { 2400.0f64 });
    let sample_every = args.get("sample-every", if quick { 50.0 } else { 200.0f64 });
    // The sweep is about throughput at scale, not the speedup tail, so it
    // gets a shorter horizon than the reference grid.
    let sweep_t_end = args.get("sweep-t-end", 600.0f64);
    let reps = args.get("reps", if quick { 2 } else { 3usize });
    // DPR1 (solve-to-convergence per wake, the paper's primary algorithm)
    // is the reference variant; --dpr2 switches to the one-iteration
    // variant, which shifts the think/transport balance toward transport.
    let variant = if args.flag("dpr2") { DprVariant::Dpr2 } else { DprVariant::Dpr1 };

    eprintln!(
        "[netrun_scale] reference config: {pages} pages, {sites} sites, \
         {groups} groups on {nodes} nodes, t_end {t_end}, {variant:?}"
    );
    let g = edu_domain(&EduDomainConfig {
        n_pages: pages,
        n_sites: sites,
        ..EduDomainConfig::default()
    });
    let base = NetRunConfig {
        k: groups,
        n_nodes: nodes,
        strategy: Strategy::HashBySite,
        variant,
        t_end,
        sample_every,
        ..NetRunConfig::default()
    };

    // Best engine time of `reps` runs. Runs are deterministic, so reps
    // differ only in timing — and must agree on every bit.
    let mut best: Option<(NetRunResult, f64)> = None;
    for _ in 0..reps.max(1) {
        let (res, wall) = timed_run(&g, base.clone());
        if let Some((b, _)) = &best {
            assert_eq!(rank_bits(&res), rank_bits(b), "replays must agree bit-for-bit");
            assert_eq!(res.sim_stats, b.sim_stats, "replays must run the same schedule");
        }
        if best.as_ref().is_none_or(|(b, _)| res.engine_secs < b.engine_secs) {
            best = Some((res, wall));
        }
    }
    let (res, wall) = best.expect("one rep ran");
    let reference = engine_row(&res, wall);

    // Arena recycling: slots must be reused through the free list, not
    // grown per event — the whole point of the slab arena.
    assert_eq!(
        reference.arena_slots, reference.peak_queue_len,
        "arena must track the queue peak exactly"
    );
    assert!(
        reference.pushes > 10 * reference.arena_slots as u64,
        "steady state must recycle slots: {} pushes but {} arena slots",
        reference.pushes,
        reference.arena_slots
    );

    // Scale sweep: pages × nodes up to the paper's
    // million-page crawl on a 256-node overlay.
    let sweep_cfgs: &[(usize, usize, usize, usize)] = if quick {
        &[(50_000, 50, 50, 128)]
    } else if args.flag("no-sweep") {
        &[]
    } else {
        &[
            (100_000, 100, 100, 64),
            (100_000, 100, 100, 256),
            (300_000, 100, 100, 256),
            (1_000_000, 100, 100, 256),
        ]
    };
    let mut sweep = Vec::new();
    for &(p, s, k, m) in sweep_cfgs {
        let sg = if p == pages && s == sites {
            None
        } else {
            Some(edu_domain(&EduDomainConfig {
                n_pages: p,
                n_sites: s,
                ..EduDomainConfig::default()
            }))
        };
        let cfg = NetRunConfig { k, n_nodes: m, t_end: sweep_t_end, ..base.clone() };
        let (res, wall) = timed_run(sg.as_ref().unwrap_or(&g), cfg);
        let events = res.sim_stats.wakes + res.sim_stats.deliveries;
        let engine = res.engine_secs.max(1e-9);
        let row = SweepRow {
            pages: p,
            sites: s,
            groups: k,
            nodes: m,
            t_end: sweep_t_end,
            wall_secs: wall,
            engine_secs: res.engine_secs,
            events_per_sec: events as f64 / engine,
            sends_per_sec: res.sim_stats.sends_attempted as f64 / engine,
            arena_slots: res.sched_stats.arena_slots,
            peak_queue_len: res.sched_stats.peak_queue_len,
            pushes: res.sched_stats.pushes,
            final_rel_err: res.final_rel_err,
        };
        eprintln!(
            "[netrun_scale] sweep {p} pages / {m} nodes: {:.3}s, {:.0} events/s, \
             arena {} slots for {} pushes",
            row.wall_secs, row.events_per_sec, row.arena_slots, row.pushes
        );
        sweep.push(row);
    }

    println!(
        "{:>9}  {:>12}  {:>12}  {:>10}  {:>12}",
        "wall(s)", "events/s", "sends/s", "arena", "rows"
    );
    let r = &reference;
    println!(
        "{:>9.3}  {:>12.0}  {:>12.0}  {:>10}  {:>12}",
        r.wall_secs, r.events_per_sec, r.sends_per_sec, r.arena_slots, r.rows_recomputed
    );
    for r in &sweep {
        println!(
            "sweep {:>9} pages / {:>3} nodes: {:>7.3}s  {:>12.0} events/s  arena {} slots",
            r.pages, r.nodes, r.wall_secs, r.events_per_sec, r.arena_slots
        );
    }

    let payload = Payload {
        pages,
        sites,
        groups,
        nodes,
        t_end,
        quick,
        variant: format!("{variant:?}"),
        reference,
        sweep,
    };
    args.emit(&payload).expect("write experiment json");
}
