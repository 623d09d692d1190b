//! The traced run's attribution of engine time to layers.
//!
//! Spans inside the engine do not exist yet, so each layer is replayed
//! from outside: its public functions are called on the workload's own
//! groups, ranks and overlay, exactly as many times as the run's own
//! counters say the engine did that work, and the replay's time is the
//! layer's share of `engine_s`. Work no counter counts (computing `Y`,
//! the per-part receive path, coalescing and encoding, the engine pool's
//! batch hand-off, assembling the ranks for each error sample) is not
//! replayed into the sum and stays in `netrun.unattributed_s`; the first
//! two still get a replayed unit cost.

use std::hint::black_box;
use std::time::Instant;

use dpr_core::{
    group_owners, AfferentState, GroupContext, GroupPublish, MatrixLayout, NetCounters,
    NetRunConfig, NetRunResult, RankStore, StoreStats,
};
use dpr_graph::{PageId, WebGraph};
use dpr_linalg::vec_ops::relative_error;
use dpr_overlay::{PastryNetwork, RouteCache};
use dpr_partition::{GroupId, Partition};
use dpr_sim::sched::SlabScheduler;

use crate::measure::Tracer;

/// What the replay needs from the run.
pub struct ReplayIn<'a> {
    /// The loaded graph the run started from.
    pub g: &'a WebGraph,
    /// The run's configuration (deltas included).
    pub cfg: &'a NetRunConfig,
    /// The run's result: counters, final ranks, error series.
    pub res: &'a NetRunResult,
    /// The store's counters, when the run published into one.
    pub store: Option<StoreStats>,
    /// The centralized reference ranks.
    pub reference: &'a [f64],
}

/// One replayed layer: what was called, how often, by which counter.
struct Line {
    layer: &'static str,
    call: &'static str,
    count: u64,
    counter: &'static str,
    secs: f64,
}

/// Replay timings, the layers' unit costs and the replay's own checks.
#[derive(Default)]
pub struct ReplayOut {
    pub partition_s: f64,
    pub build_s: f64,
    pub bytes_per_nnz: f64,
    pub solve_s: f64,
    pub sweeps: u64,
    pub afferent_s: f64,
    pub compute_y_us: f64,
    pub receive_part_us: f64,
    pub route_s: f64,
    pub sched_s: f64,
    pub publish_s: f64,
    pub delta_apply_s: f64,
    pub rebuild_s: f64,
    pub sample_s: f64,
    /// Replay checks made (one per replayed layer).
    pub checks: u64,
    /// Replayed call counts that differ from the run's counters.
    pub mismatches: Vec<String>,
    lines: Vec<Line>,
}

impl ReplayOut {
    /// Engine seconds the replayed layers account for.
    #[must_use]
    pub fn attributed_s(&self) -> f64 {
        self.lines.iter().map(|l| l.secs).sum()
    }

    fn add(&mut self, line: Line, replayed: u64) {
        self.checks += 1;
        if replayed != line.count {
            self.mismatches.push(format!(
                "replay of {} made {replayed} calls, the run's {} says {}",
                line.call, line.counter, line.count
            ));
        }
        self.lines.push(line);
    }

    /// The per-layer table: replayed seconds and share of `engine_s`, then
    /// the unattributed remainder and what it holds.
    #[must_use]
    pub fn table(&self, engine_s: f64) -> Vec<String> {
        let mut out = vec![format!(
            "{:<22} {:<40} {:>11} {:<34} {:>9} {:>7}",
            "layer", "replayed call", "count", "counted by", "secs", "share"
        )];
        for l in &self.lines {
            out.push(format!(
                "{:<22} {:<40} {:>11} {:<34} {:>9.4} {:>6.1}%",
                l.layer,
                l.call,
                l.count,
                l.counter,
                l.secs,
                100.0 * l.secs / engine_s
            ));
        }
        let rest = engine_s - self.attributed_s();
        out.push(format!(
            "{:<22} {:<40} {:>11} {:<34} {:>9.4} {:>6.1}%",
            "netrun.unattributed",
            "-",
            "-",
            "-",
            rest,
            100.0 * rest / engine_s
        ));
        out.push(
            "  unattributed (no counter counts the calls): GroupContext::compute_y, \
             the receive path (localize/bits_match/set), coalescing and encoding, \
             engine pool batch hand-off, rank assembly per error sample"
                .to_string(),
        );
        out.push(format!(
            "  unit costs: compute_y {:.3} us/call, receive {:.3} us/part",
            self.compute_y_us, self.receive_part_us
        ));
        out
    }
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Replays every layer of the run in `inp`.
pub fn engine(inp: &ReplayIn<'_>, tr: &mut Tracer) -> ReplayOut {
    let (g, cfg, res) = (inp.g, inp.cfg, inp.res);
    let mut out = ReplayOut::default();

    let t0 = Instant::now();
    let partition = tr.span("partition.build", |_| Partition::build(g, &cfg.strategy, cfg.k, 0));
    out.partition_s = secs_since(t0);
    let t0 = Instant::now();
    let mut contexts =
        tr.span("group.build_all", |_| GroupContext::build_all(g, &partition, &cfg.rank));
    out.build_s = secs_since(t0);
    contexts.sort_by_key(GroupContext::group_id);
    let nnz: usize = contexts.iter().map(|c| c.matrix().nnz()).sum();
    let heap: usize = contexts.iter().map(|c| c.matrix().heap_bytes()).sum();
    out.bytes_per_nnz = if nnz == 0 { 0.0 } else { heap as f64 / nnz as f64 };
    let ranks: Vec<Vec<f64>> = contexts
        .iter()
        .map(|c| c.pages().iter().map(|&p| res.final_ranks[p as usize]).collect())
        .collect();
    // Which node hosts which groups: the run's own placement.
    let owners = group_owners(cfg);
    let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); res.per_node.len()];
    for (gid, &node) in owners.iter().enumerate() {
        if contexts[gid].n_local() > 0 {
            hosted[node].push(gid);
        }
    }

    tr.span("replay.solve", |_| solve(&contexts, &ranks, &hosted, &res.per_node, &mut out));
    tr.span("replay.afferent", |_| afferent(&contexts, &ranks, &hosted, &res.per_node, &mut out));
    tr.span("replay.route", |_| route(cfg, &contexts, &owners, res, &mut out));
    tr.span("replay.sched", |_| sched(cfg.seed, res, &mut out));
    if let Some(stats) = inp.store {
        tr.span("replay.publish", |_| publish(g, &contexts, &ranks, stats, &mut out));
    }
    tr.span("replay.sample", |_| {
        let samples = res.rel_err.len() as u64;
        let t0 = Instant::now();
        for _ in 0..samples {
            black_box(relative_error(black_box(&res.final_ranks), inp.reference));
        }
        out.sample_s = secs_since(t0);
        let line = Line {
            layer: "netrun.sample",
            call: "vec_ops::relative_error",
            count: samples,
            counter: "NetRunResult::rel_err samples",
            secs: out.sample_s,
        };
        out.add(line, samples);
    });
    if !cfg.deltas.is_empty() {
        tr.span("replay.deltas", |_| deltas(g, cfg, &partition, contexts, &mut out));
    }
    out
}

/// `linalg`: one `step_prepared` Jacobi sweep per counted inner sweep,
/// round-robin over each node's own groups.
fn solve(
    contexts: &[GroupContext],
    ranks: &[Vec<f64>],
    hosted: &[Vec<usize>],
    per_node: &[NetCounters],
    out: &mut ReplayOut,
) {
    let mut r = ranks.to_vec();
    let (mut scratch, mut ws) = (Vec::new(), Vec::new());
    let target: u64 = per_node.iter().map(|c| c.inner_sweeps).sum();
    let mut replayed = 0u64;
    let t0 = Instant::now();
    for (groups, c) in hosted.iter().zip(per_node) {
        for i in 0..if groups.is_empty() { 0 } else { c.inner_sweeps } {
            let ctx = &contexts[groups[i as usize % groups.len()]];
            let gid = ctx.group_id() as usize;
            black_box(ctx.step_prepared(&mut r[gid], ctx.beta_e(), &mut scratch, &mut ws));
            replayed += 1;
        }
    }
    out.solve_s = secs_since(t0);
    out.sweeps = replayed;
    let line = Line {
        layer: "linalg.solve",
        call: "GroupContext::step_prepared",
        count: target,
        counter: "NetCounters::inner_sweeps",
        secs: out.solve_s,
    };
    out.add(line, replayed);
}

/// One group's outgoing `Y`, per destination group (`compute_y`).
type YParts = Vec<(GroupId, Vec<(PageId, f64)>)>;
/// One group's localized incoming `Y`, per source group.
type Inbound = Vec<(GroupId, Vec<(u32, f64)>)>;

/// A different-bits twin of a `Y` score, so re-sending it dirties rows.
fn bump(v: f64) -> f64 {
    if v == 0.0 {
        1e-12
    } else {
        v * (1.0 + f64::EPSILON * 64.0)
    }
}

/// `core::group` afferent refresh: each node's groups receive every
/// source's `Y` (the replay also prices `compute_y` and the receive path
/// per call), then rows are re-dirtied and refreshed with
/// `refresh_tracked` until as many rows were recomputed as the node's
/// `rows_recomputed` counter says. Only the refreshes are timed.
fn afferent(
    contexts: &[GroupContext],
    ranks: &[Vec<f64>],
    hosted: &[Vec<usize>],
    per_node: &[NetCounters],
    out: &mut ReplayOut,
) {
    let t0 = Instant::now();
    let ys: Vec<YParts> = contexts.iter().zip(ranks).map(|(c, r)| c.compute_y(r)).collect();
    out.compute_y_us = secs_since(t0) * 1e6 / contexts.len().max(1) as f64;

    let mut states: Vec<AfferentState> =
        contexts.iter().map(|c| AfferentState::new(c.n_local())).collect();
    let mut inbound: Vec<Inbound> = vec![Vec::new(); contexts.len()];
    let (mut parts, mut secs) = (0u64, 0.0);
    for (src, y) in ys.iter().enumerate() {
        let src = src as GroupId;
        for (dest, entries) in y {
            let (ctx, st) = (&contexts[*dest as usize], &mut states[*dest as usize]);
            let t0 = Instant::now();
            let localized = ctx.localize(entries);
            secs += secs_since(t0);
            inbound[*dest as usize].push((src, localized.clone()));
            let t0 = Instant::now();
            if !st.bits_match(src, localized.iter().copied()) {
                st.set(src, localized);
            }
            secs += secs_since(t0);
            parts += 1;
        }
    }
    out.receive_part_us = secs * 1e6 / parts.max(1) as f64;
    let bumped: Vec<Inbound> = inbound
        .iter()
        .map(|srcs| {
            srcs.iter()
                .map(|(s, e)| (*s, e.iter().map(|&(li, v)| (li, bump(v))).collect()))
                .collect()
        })
        .collect();
    let distinct: Vec<u64> = inbound
        .iter()
        .zip(contexts)
        .map(|(srcs, c)| {
            let mut seen = vec![false; c.n_local()];
            srcs.iter()
                .flat_map(|(_, e)| e)
                .filter(|&&(li, _)| !std::mem::replace(&mut seen[li as usize], true))
                .count() as u64
        })
        .collect();
    for st in &mut states {
        st.refresh_tracked(None);
    }
    let base: u64 = states.iter().map(AfferentState::rows_recomputed).sum();

    let target: u64 = per_node.iter().map(|c| c.rows_recomputed).sum();
    let mut round = vec![0u64; contexts.len()];
    let mut touched = Vec::new();
    let mut secs = 0.0;
    for (groups, c) in hosted.iter().zip(per_node) {
        let mut left = c.rows_recomputed;
        if groups.iter().all(|&g| distinct[g] == 0) {
            continue;
        }
        let mut i = 0usize;
        while left > 0 {
            let gid = groups[i % groups.len()];
            i += 1;
            if distinct[gid] == 0 {
                continue;
            }
            round[gid] += 1;
            let values = if round[gid] % 2 == 1 { &bumped[gid] } else { &inbound[gid] };
            let st = &mut states[gid];
            if left >= distinct[gid] {
                for (src, e) in values {
                    st.merge(*src, e);
                }
                left -= distinct[gid];
            } else {
                // Last, partial round: dirty exactly `left` distinct rows.
                let mut seen = vec![false; contexts[gid].n_local()];
                'rows: for (src, e) in values {
                    for &(li, v) in e {
                        if left == 0 {
                            break 'rows;
                        }
                        st.merge(*src, &[(li, v)]);
                        if !std::mem::replace(&mut seen[li as usize], true) {
                            left -= 1;
                        }
                    }
                }
            }
            touched.clear();
            let t0 = Instant::now();
            st.refresh_tracked(Some(&mut touched));
            secs += secs_since(t0);
            black_box(&touched);
        }
    }
    out.afferent_s = secs;
    let replayed = states.iter().map(AfferentState::rows_recomputed).sum::<u64>() - base;
    let line = Line {
        layer: "group.afferent",
        call: "AfferentState::refresh_tracked (rows)",
        count: target,
        counter: "NetCounters::rows_recomputed",
        secs,
    };
    out.add(line, replayed);
}

/// `overlay`: one `route_hops` per counted route-cache lookup, cycling
/// over the run's publisher-to-owner pairs on the run's own overlay.
fn route(
    cfg: &NetRunConfig,
    contexts: &[GroupContext],
    owners: &[usize],
    res: &NetRunResult,
    out: &mut ReplayOut,
) {
    // The same overlay the run placed groups on (see `group_owners`).
    let overlay = PastryNetwork::with_nodes(cfg.n_nodes, cfg.seed ^ 0x0E0E);
    let pairs: Vec<(usize, u128)> = contexts
        .iter()
        .flat_map(|c| {
            let src = owners[c.group_id() as usize];
            c.efferent_groups().map(move |d| (src, dpr_overlay::id::key_from_u64(u64::from(d))))
        })
        .collect();
    let target = res.route_cache.hits + res.route_cache.misses;
    let mut cache = RouteCache::new();
    let t0 = Instant::now();
    if !pairs.is_empty() {
        for i in 0..target {
            let (src, key) = pairs[i as usize % pairs.len()];
            black_box(cache.route_hops(&overlay, src, key));
        }
    }
    out.route_s = secs_since(t0);
    let s = cache.stats();
    let line = Line {
        layer: "overlay.route",
        call: "RouteCache::route_hops",
        count: target,
        counter: "RouteCacheStats hits+misses",
        secs: out.route_s,
    };
    out.add(line, s.hits + s.misses);
}

/// `sim`: as many `SlabScheduler` pushes (each later popped) as the run's
/// scheduler counted, holding the queue at the run's peak length.
fn sched(seed: u64, res: &NetRunResult, out: &mut ReplayOut) {
    let stats = res.sched_stats;
    let target = stats.pushes;
    let mut q: SlabScheduler<[u64; 4]> = SlabScheduler::new();
    let mut rng = seed | 1;
    let mut jitter = || {
        // xorshift64: cheap, deterministic event spacing in [0, 3).
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 11) as f64 / (1u64 << 53) as f64 * 3.0
    };
    let prefill = (stats.peak_queue_len as u64).clamp(1, target.max(1)).min(target);
    let t0 = Instant::now();
    let mut seq = 0u64;
    while seq < prefill {
        q.push(jitter(), seq, [seq; 4]);
        seq += 1;
    }
    while seq < target {
        let (now, ev) = q.pop().expect("queue holds the prefill");
        black_box(ev);
        q.push(now + jitter(), seq, [seq; 4]);
        seq += 1;
    }
    while let Some(ev) = q.pop() {
        black_box(ev);
    }
    out.sched_s = secs_since(t0);
    let line = Line {
        layer: "sim.sched",
        call: "SlabScheduler::push+pop",
        count: target,
        counter: "SchedStats::pushes",
        secs: out.sched_s,
    };
    out.add(line, q.stats().pushes);
}

/// `core::store`: `publish` calls carrying as many accepted and as many
/// skipped group snapshots as the run's store counted.
fn publish(
    g: &WebGraph,
    contexts: &[GroupContext],
    ranks: &[Vec<f64>],
    stats: StoreStats,
    out: &mut ReplayOut,
) {
    let site_of: Vec<u32> = (0..g.n_pages() as u32).map(|p| g.site(p)).collect();
    let store = RankStore::new(128).with_sites(site_of, g.n_sites());
    let (mut updates, mut skips) = (stats.group_updates, stats.skipped_updates);
    let mut epoch = vec![0u64; contexts.len()];
    let mut secs = 0.0;
    while updates + skips > 0 {
        let mut batch = Vec::with_capacity(contexts.len());
        for (gid, c) in contexts.iter().enumerate() {
            if updates > 0 {
                updates -= 1;
                epoch[gid] += 1;
            } else if skips > 0 && epoch[gid] > 0 {
                skips -= 1;
            } else {
                continue;
            }
            batch.push(GroupPublish {
                group: c.group_id(),
                epoch: epoch[gid],
                pages: c.pages(),
                ranks: &ranks[gid],
            });
        }
        if batch.is_empty() {
            break;
        }
        let t0 = Instant::now();
        store.publish(batch);
        secs += secs_since(t0);
    }
    out.publish_s = secs;
    let s = store.stats();
    let line = Line {
        layer: "store.publish",
        call: "RankStore::publish (group snapshots)",
        count: stats.group_updates + stats.skipped_updates,
        counter: "StoreStats group_updates+skipped",
        secs,
    };
    if (s.group_updates, s.skipped_updates) != (stats.group_updates, stats.skipped_updates) {
        out.mismatches.push(format!(
            "store replay accepted/skipped {}/{} snapshots, the run's store {}/{}",
            s.group_updates, s.skipped_updates, stats.group_updates, stats.skipped_updates
        ));
    }
    let replayed = s.group_updates + s.skipped_updates;
    out.add(line, replayed);
}

/// `graph` deltas and `core::group` rebuilds: the run's delta chain
/// through `apply_report`, then the one-group `rebuild` or
/// `rescale_in_place` of each dirtied group, classified as the engine
/// does.
fn deltas(
    g: &WebGraph,
    cfg: &NetRunConfig,
    partition: &Partition,
    mut contexts: Vec<GroupContext>,
    out: &mut ReplayOut,
) {
    let mut live = g.clone();
    let mut assignment = partition.assignment().to_vec();
    let mut rebuilds = 0u64;
    for (_, d) in &cfg.deltas {
        let t0 = Instant::now();
        let (g2, report) = d.apply_report(&live);
        out.delta_apply_s += secs_since(t0);
        live = g2;
        for p in assignment.len() as PageId..live.n_pages() as PageId {
            assignment.push(cfg.strategy.assign(&live, p, cfg.k, 0));
        }
        let mut dirty: std::collections::BTreeMap<GroupId, bool> = Default::default();
        for &p in &report.touched_pages {
            *dirty.entry(assignment[p as usize]).or_insert(false) |=
                report.ext_only_pages.binary_search(&p).is_err();
        }
        for &p in report.inserted.iter().chain(&report.deleted) {
            dirty.insert(assignment[p as usize], true);
        }
        let t0 = Instant::now();
        for (&gid, &structural) in &dirty {
            let old = &contexts[gid as usize];
            let new = if structural {
                let mut pages: Vec<PageId> = old
                    .pages()
                    .iter()
                    .copied()
                    .filter(|p| report.deleted.binary_search(p).is_err())
                    .collect();
                pages.extend(
                    report.inserted.iter().copied().filter(|&p| assignment[p as usize] == gid),
                );
                GroupContext::rebuild(
                    &live,
                    &assignment,
                    &cfg.rank,
                    gid,
                    pages,
                    MatrixLayout::default(),
                )
            } else {
                let mut c = old.clone();
                c.rescale_in_place(&live, &cfg.rank);
                c
            };
            contexts[gid as usize] = new;
            rebuilds += 1;
        }
        out.rebuild_s += secs_since(t0);
    }
    let n = cfg.deltas.len() as u64;
    let line = Line {
        layer: "graph.delta_apply",
        call: "GraphDelta::apply_report",
        count: n,
        counter: "NetRunConfig::deltas",
        secs: out.delta_apply_s,
    };
    out.add(line, n);
    let line = Line {
        layer: "group.rebuild",
        call: "GroupContext::rebuild/rescale_in_place",
        count: rebuilds,
        counter: "dirty groups of each DeltaReport",
        secs: out.rebuild_s,
    };
    out.add(line, rebuilds);
}
