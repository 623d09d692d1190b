//! **NETRUN_HOTPATH** — message-path microbenchmark for the §4.4/§4.5
//! transmission hot path: route caching, update coalescing, and the
//! allocation-light transport. Runs the full network simulation under both
//! transmission schemes — `direct` (per-owner batching after a priced
//! lookup) and `indirect` (§4.4 hop-by-hop forwarding with per-relay
//! coalescing) — and reports throughput, bytes on wire, route-cache
//! behavior, and an allocations-per-delivery proxy.
//!
//! Steady-state cache behavior is isolated by running each mode twice —
//! to `t_end/2` and to `t_end` — and diffing the (deterministic)
//! counters, so warm-up misses don't dilute the steady hit rate.
//!
//! Usage: `netrun_hotpath [--pages N] [--sites S] [--groups K] [--nodes M]
//!         [--t-end T] [--quick] [--out PATH]`
//!
//! `--quick` shrinks the workload for CI smoke testing and asserts the
//! steady-state route-cache hit rate is nonzero in both modes.
//! `--out` additionally writes the JSON payload to the given path (used to
//! commit `BENCH_netrun.json` at the repo root).

use std::time::Instant;

use dpr_bench::BenchArgs;
use dpr_core::{try_run_over_network, NetRunConfig, Transmission};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::WebGraph;
use dpr_partition::Strategy;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mode: String,
    transmission: String,
    /// Wall-clock seconds for the full run.
    wall_secs: f64,
    /// Simulator deliveries per wall-clock second — the throughput the
    /// allocation-light hot path is meant to raise.
    deliveries_per_sec: f64,
    data_messages: u64,
    lookup_messages: u64,
    acks: u64,
    bytes_on_wire: u64,
    coalesced_parts: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    /// Whole-run hit rate (warm-up included).
    cache_hit_rate: f64,
    /// Hit rate over the second half of the run only.
    steady_hit_rate: f64,
    /// Fresh route computations (each allocates a route vector) per data
    /// message — the proxy for allocations on the delivery path (only
    /// cache misses walk the overlay).
    route_allocs_per_msg: f64,
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
    rows: Vec<Row>,
}

fn run_mode(name: &str, g: &WebGraph, base: &NetRunConfig, transmission: Transmission) -> Row {
    let cfg = NetRunConfig { transmission, ..base.clone() };
    // Deterministic prefix run to t_end/2: its counters are exactly the
    // full run's first half, so the diff isolates steady-state behavior.
    let half = try_run_over_network(g, NetRunConfig { t_end: cfg.t_end / 2.0, ..cfg.clone() })
        .expect("bench schedules no churn");
    let t0 = Instant::now();
    let full = try_run_over_network(g, cfg).expect("bench schedules no churn");
    let wall = t0.elapsed().as_secs_f64();

    let steady = full.route_cache.delta(&half.route_cache);
    let lookups = full.route_cache.hits + full.route_cache.misses;
    let row = Row {
        mode: name.to_string(),
        transmission: format!("{transmission:?}"),
        wall_secs: wall,
        deliveries_per_sec: full.sim_stats.deliveries as f64 / wall.max(1e-9),
        data_messages: full.counters.data_messages,
        lookup_messages: full.counters.lookup_messages,
        acks: full.counters.acks,
        bytes_on_wire: full.counters.bytes,
        coalesced_parts: full.counters.coalesced_parts,
        cache_hits: full.route_cache.hits,
        cache_misses: full.route_cache.misses,
        cache_invalidations: full.route_cache.invalidations,
        cache_hit_rate: full.route_cache.hit_rate(),
        steady_hit_rate: steady.hit_rate(),
        route_allocs_per_msg: full.route_cache.misses as f64
            / (full.counters.data_messages.max(1)) as f64,
        final_rel_err: full.final_rel_err,
    };
    assert!(row.final_rel_err < 1e-3, "{name}: run must converge (rel err {})", row.final_rel_err);
    eprintln!(
        "[netrun_hotpath] {name:>8}: {:.3}s, {} data msgs, {} bytes, \
         hit rate {:.1}% (steady {:.1}%), {} parts coalesced",
        row.wall_secs,
        row.data_messages,
        row.bytes_on_wire,
        100.0 * row.cache_hit_rate,
        100.0 * row.steady_hit_rate,
        row.coalesced_parts,
    );
    debug_assert!(lookups > 0);
    row
}

fn main() {
    let args = BenchArgs::from_env("netrun_hotpath");
    let quick = args.flag("quick");
    let pages = args.get("pages", if quick { 800 } else { 2_000usize });
    let sites = args.get("sites", if quick { 10 } else { 20usize });
    // Many small groups: the regime §4.5 prices, where per-part headers
    // and lookups are a large share of the wire and coalescing pays most.
    let groups = args.get("groups", if quick { 64 } else { 128usize });
    let nodes = args.get("nodes", 16usize);
    let t_end = args.get("t-end", if quick { 60.0 } else { 200.0f64 });

    eprintln!(
        "[netrun_hotpath] edu-domain graph: {pages} pages, {sites} sites; \
         {groups} groups on {nodes} overlay nodes, t_end {t_end}"
    );
    let g = edu_domain(&EduDomainConfig {
        n_pages: pages,
        n_sites: sites,
        ..EduDomainConfig::default()
    });
    let base = NetRunConfig {
        k: groups,
        n_nodes: nodes,
        strategy: Strategy::HashByUrl,
        t_end,
        ..NetRunConfig::default()
    };

    let rows = vec![
        run_mode("direct", &g, &base, Transmission::Direct),
        run_mode("indirect", &g, &base, Transmission::Indirect),
    ];
    let payload = Payload { pages, sites, groups, nodes, t_end, quick, rows };

    println!(
        "{:>8}  {:>10}  {:>12}  {:>9}  {:>8}  {:>8}",
        "mode", "data msgs", "bytes", "hit rate", "steady", "allocs/msg"
    );
    for r in &payload.rows {
        println!(
            "{:>8}  {:>10}  {:>12}  {:>8.1}%  {:>7.1}%  {:>9.3}",
            r.mode,
            r.data_messages,
            r.bytes_on_wire,
            100.0 * r.cache_hit_rate,
            100.0 * r.steady_hit_rate,
            r.route_allocs_per_msg
        );
    }

    // CI smoke contract: the route cache must actually be hitting once
    // warm — a zero steady-state hit rate means it is being flushed on the
    // hot path.
    for r in &payload.rows {
        assert!(r.steady_hit_rate > 0.0, "{}: steady-state route-cache hit rate is zero", r.mode);
    }

    args.emit(&payload).expect("write experiment json");
}
