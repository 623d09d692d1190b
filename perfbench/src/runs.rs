//! The workloads: input generation, the timed calls, and the output
//! checks.

use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dpr_core::netrun::try_run_over_network_with_store;
use dpr_core::{
    open_pagerank, try_run_over_network, GroupContext, NetRunConfig, NetRunResult, RankConfig,
    RankStore, StoreStats,
};
use dpr_graph::generators::edu::{edu_domain_to_snapshot_path, EduDomainConfig};
use dpr_graph::io::load_snapshot;
use dpr_graph::{GraphDelta, PageId, WebGraph};
use dpr_linalg::vec_ops::relative_error;
use dpr_partition::{Partition, Strategy};
use dpr_sim::TimeSeries;

use crate::measure::{
    median, metric, peak_rss_mb, process_cpu_secs, thread_cpu_secs, Metric, NsHistogram, Tracer,
};
use crate::replay::{self, ReplayIn};
use crate::{Outcome, Spec, CONVERGED, PER_LAYER};

/// Page and link counts the generator wrote into the `DPRG1` header, and
/// the file size.
struct Header {
    pages: u64,
    links: u64,
    bytes: u64,
}

/// Generates the workload's graph into `data_dir` unless this seed's file
/// is already there (one file per graph size is kept), and reads back the
/// generator's header counts.
fn graph_input(spec: &Spec, seed: u64, data_dir: &Path) -> Result<(PathBuf, Header), String> {
    std::fs::create_dir_all(data_dir)
        .map_err(|e| format!("cannot create {}: {e}", data_dir.display()))?;
    let stem = format!("edu-p{}-s", spec.pages);
    let path = data_dir.join(format!("{stem}{seed}.dprg"));
    if !path.exists() {
        let entries = std::fs::read_dir(data_dir)
            .map_err(|e| format!("cannot list {}: {e}", data_dir.display()))?;
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with(&stem) {
                let _ = std::fs::remove_file(e.path());
            }
        }
        let cfg = EduDomainConfig {
            n_pages: spec.pages,
            n_sites: spec.sites,
            seed,
            ..EduDomainConfig::default()
        };
        let tmp = path.with_extension("part");
        edu_domain_to_snapshot_path(&cfg, &tmp)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename {}: {e}", tmp.display()))?;
    }
    let header =
        read_header(&path).map_err(|e| format!("bad header in {}: {e}", path.display()))?;
    Ok((path, header))
}

fn read_varint(r: &mut impl Read) -> std::io::Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(std::io::Error::other("varint too long"))
}

/// Reads only the `DPRG1` header: magic, site table, page count and the
/// link count the generator back-patched.
fn read_header(path: &Path) -> std::io::Result<Header> {
    let bytes = std::fs::metadata(path)?.len();
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != dpr_graph::io::SNAPSHOT_MAGIC {
        return Err(std::io::Error::other("not a DPRG1 file"));
    }
    for _ in 0..read_varint(&mut r)? {
        let len = read_varint(&mut r)?;
        std::io::copy(&mut (&mut r).take(len), &mut std::io::sink())?;
    }
    let pages = read_varint(&mut r)?;
    let mut links = [0u8; 8];
    r.read_exact(&mut links)?;
    Ok(Header { pages, links: u64::from_le_bytes(links), bytes })
}

/// Runs `f`, returning its result with the wall and the process CPU
/// seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Secs) {
    let (c0, t0) = (process_cpu_secs(), Instant::now());
    let out = f();
    (out, Secs { wall: t0.elapsed().as_secs_f64(), cpu: process_cpu_secs() - c0 })
}

/// Wall and process CPU seconds of one timed call.
#[derive(Debug, Clone, Copy)]
struct Secs {
    wall: f64,
    cpu: f64,
}

fn walls(xs: &[Secs]) -> Vec<f64> {
    xs.iter().map(|s| s.wall).collect()
}

fn cpus(xs: &[Secs]) -> Vec<f64> {
    xs.iter().map(|s| s.cpu).collect()
}

/// Loads the graph at least `reps` times and for at least `min_secs`,
/// dropping the previous copy first; returns the last copy and every
/// load's timing.
fn load(
    path: &Path,
    reps: usize,
    min_secs: f64,
    tr: &mut Tracer,
) -> Result<(WebGraph, Vec<Secs>), String> {
    let mut g = None;
    let mut secs: Vec<Secs> = Vec::new();
    while secs.len() < reps.max(1) || secs.iter().map(|s| s.wall).sum::<f64>() < min_secs {
        drop(g.take());
        let (loaded, t) = timed(|| tr.span("graph.load_snapshot", |_| load_snapshot(path)));
        secs.push(t);
        g = Some(loaded.map_err(|e| format!("cannot load {}: {e}", path.display()))?);
    }
    Ok((g.expect("loaded at least once"), secs))
}

/// Checks a loaded graph against the generator's counts; returns a note
/// on mismatch.
fn check_graph(g: &WebGraph, spec: &Spec, h: &Header) -> Option<String> {
    let ok = g.n_pages() == spec.pages
        && g.n_pages() as u64 == h.pages
        && g.n_internal_links() as u64 == h.links;
    (!ok).then(|| {
        format!(
            "graph counts differ: loaded {} pages / {} links, generator wrote {} / {}",
            g.n_pages(),
            g.n_internal_links(),
            h.pages,
            h.links
        )
    })
}

/// Links whose both ends share a group: the entries the group matrices
/// must hold.
fn intra_group_links(g: &WebGraph, partition: &Partition) -> u64 {
    let group = partition.assignment();
    g.links().filter(|&(u, v)| group[u as usize] == group[v as usize]).count() as u64
}

/// Per-layer values by name, emitted in [`PER_LAYER`] order; unset
/// layers report 0.
struct Layers(Vec<f64>);

impl Layers {
    fn new() -> Self {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    fn set(&mut self, name: &str, v: f64) {
        let i = PER_LAYER.iter().position(|(n, _)| *n == name).expect("declared per-layer metric");
        self.0[i] = v;
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER.iter().zip(self.0).map(|(&(n, u), v)| metric(n, v, u)).collect()
    }
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The least of several CPU-second samples of one operation. Interference
/// from other work on the host only ever adds time, so within a run the
/// best repetition is the steadiest estimate of what the operation costs.
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).expect("at least one sample")
}

/// The end-to-end metrics, in CPU seconds: the best set-up and load, and
/// `total_s = load_s +` the best of `after_load` (the CPU from the loaded
/// graph to the workload's end state); `peak_rss_mb` as sampled by the
/// caller.
fn end_to_end(setup: &[Secs], load: &[Secs], after_load: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let load_s = best(&cpus(load));
    vec![
        metric("setup_s", best(&cpus(setup)), "s"),
        metric("load_s", load_s, "s"),
        metric("total_s", load_s + best(after_load), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Ingest: `load_snapshot`, `Partition::build`, `GroupContext::build_all`,
/// repeated until `seconds` have passed and `setup_reps` set-ups ran.
pub fn ingest(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: &Path,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(trace);
    let (path, header) = graph_input(spec, seed, data_dir)?;
    let (mut loads, mut parts, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut record = Vec::new();
    let (mut bytes_per_nnz, mut peak) = (0.0, 0.0);
    let t_start = Instant::now();
    while builds.len() < spec.setup_reps.max(1) || t_start.elapsed().as_secs_f64() < seconds {
        let (g, load_s) = load(&path, 1, 0.0, &mut tr)?;
        loads.extend(load_s);
        let (partition, t) = timed(|| {
            tr.span("partition.build", |_| Partition::build(&g, &Strategy::HashBySite, spec.k, 0))
        });
        parts.push(t);
        let (contexts, t) = timed(|| {
            tr.span("group.build_all", |_| {
                GroupContext::build_all(&g, &partition, &RankConfig::default())
            })
        });
        builds.push(t);

        let nnz: u64 = contexts.iter().map(|c| c.matrix().nnz() as u64).sum();
        let heap: u64 = contexts.iter().map(|c| c.matrix().heap_bytes() as u64).sum();
        let intra = intra_group_links(&g, &partition);
        attempted += 1;
        let mut bad: Vec<String> = check_graph(&g, spec, &header).into_iter().collect();
        if nnz != intra {
            bad.push(format!("matrix nnz {nnz} != intra-group links {intra}"));
        }
        if !bad.is_empty() {
            failed += 1;
            notes.extend(bad);
        }
        if record.is_empty() {
            // The first pass's high-water mark: later passes only add
            // allocator fragmentation, which varies from run to run.
            peak = peak_rss_mb()?;
            bytes_per_nnz = ratio(heap as f64, nnz as f64);
            record = vec![
                ("pages", g.n_pages().to_string()),
                ("links", g.n_internal_links().to_string()),
                ("groups", spec.k.to_string()),
                ("matrix_nnz", nnz.to_string()),
                ("matrix_bytes", heap.to_string()),
                ("engine_workers", "0".to_string()),
                ("readers", "0".to_string()),
            ];
        }
    }
    let setup: Vec<Secs> = parts
        .iter()
        .zip(&builds)
        .map(|(p, b)| Secs { wall: p.wall + b.wall, cpu: p.cpu + b.cpu })
        .collect();
    let metrics = if trace {
        let mut l = Layers::new();
        let load_s = median(&walls(&loads));
        l.set("graph.load_s", load_s);
        l.set("graph.load_mb_per_s", header.bytes as f64 / 1e6 / load_s);
        l.set("partition.build_s", median(&walls(&parts)));
        l.set("group.build_s", median(&walls(&builds)));
        l.set("group.bytes_per_nnz", bytes_per_nnz);
        notes.extend(span_table(&tr));
        l.into_metrics()
    } else {
        end_to_end(&setup, &loads, &cpus(&setup), peak)
    };
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, record, notes })
}

/// The link-churn delta chain: one `GraphDelta::link_churn` of
/// `spec.churn` links every `spec.delta_every` virtual units before
/// `t_end`, each drawn against the graph the previous ones produced.
fn delta_chain(g: &WebGraph, spec: &Spec, seed: u64) -> Vec<(f64, GraphDelta)> {
    let mut out = Vec::new();
    if spec.delta_every <= 0.0 {
        return out;
    }
    let mut live = g.clone();
    let mut t = spec.delta_every;
    while t < spec.t_end {
        let d = GraphDelta::link_churn(&live, spec.churn, seed.wrapping_add(out.len() as u64 + 1));
        live = d.apply(&live);
        out.push((t, d));
        t += spec.delta_every;
    }
    out
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Store query kinds, in mix order, with their share of the mix in
/// percent (the `queries` bench's 70/20/8/2).
const QUERY_KINDS: [(&str, u64); 4] = [
    ("store.lookup", 70),
    ("store.top_k", 20),
    ("store.top_k_candidates", 8),
    ("store.site_totals", 2),
];

/// What one closed-loop reader saw.
#[derive(Default)]
struct QueryLog {
    per_kind: [NsHistogram; 4],
    unanswered: u64,
    secs: f64,
    /// The reader thread's own CPU seconds.
    cpu: f64,
}

impl QueryLog {
    fn queries(&self) -> u64 {
        self.per_kind.iter().map(NsHistogram::count).sum()
    }

    fn merge(&mut self, o: &QueryLog) {
        for (a, b) in self.per_kind.iter_mut().zip(&o.per_kind) {
            a.merge(b);
        }
        self.unanswered += o.unanswered;
        self.secs = self.secs.max(o.secs);
        self.cpu += o.cpu;
    }
}

/// One reader: waits for the first publication, then issues the query
/// mix back to back until `stop`, timing every query. A query whose
/// answer is missing or short counts as unanswered.
fn read_loop(store: &RankStore, n_pages: u32, stop: &AtomicBool, seed: u64) -> QueryLog {
    let cpu0 = thread_cpu_secs();
    let mut log = QueryLog::default();
    while store.view().version() == 0 {
        if stop.load(Ordering::Relaxed) {
            log.cpu = thread_cpu_secs() - cpu0;
            return log;
        }
        std::thread::yield_now();
    }
    let mut rng = seed ^ 0xC0FF_EE00_5EED;
    let top = 10.min(n_pages as usize);
    let t0 = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let draw = splitmix64(&mut rng);
        let page = ((draw >> 32) % u64::from(n_pages)) as PageId;
        let pick = draw % 100;
        let mut acc = 0;
        let kind = QUERY_KINDS
            .iter()
            .position(|&(_, share)| {
                acc += share;
                pick < acc
            })
            .expect("shares sum to 100");
        let q0 = Instant::now();
        let answered = match kind {
            0 => store.lookup(page).is_some(),
            1 => store.top_k(10).len() == top,
            2 => {
                let c: Vec<PageId> = (0..8u32)
                    .map(|i| (page + i * 977) % n_pages)
                    .chain([page]) // a duplicate, to keep dedup hot
                    .collect();
                !store.top_k_candidates(5, &c).is_empty()
            }
            _ => store.view().site_totals().is_some(),
        };
        log.per_kind[kind].record(q0.elapsed().as_nanos() as u64);
        log.unanswered += u64::from(!answered);
    }
    log.secs = t0.elapsed().as_secs_f64();
    log.cpu = thread_cpu_secs() - cpu0;
    log
}

/// The serving side of one run: readers' log, the store's counters, and
/// whether its final view equals `final_ranks` bit for bit.
struct Served {
    log: QueryLog,
    stats: StoreStats,
    view_matches: bool,
}

/// One whole-system run, with `spec.readers` closed-loop readers on a
/// rank store when the workload serves. Also returns the CPU seconds the
/// call took, readers excluded.
fn run_once(
    g: &WebGraph,
    cfg: NetRunConfig,
    spec: &Spec,
    seed: u64,
) -> Result<(NetRunResult, Option<Served>, f64), String> {
    if spec.readers == 0 {
        let (res, t) = timed(|| try_run_over_network(g, cfg));
        return Ok((res.map_err(|e| e.to_string())?, None, t.cpu));
    }
    let site_of: Vec<u32> = (0..g.n_pages() as u32).map(|p| g.site(p)).collect();
    let store = RankStore::new(128).with_sites(site_of, g.n_sites());
    let stop = AtomicBool::new(false);
    let n = g.n_pages() as u32;
    let ((res, logs), t) = timed(|| {
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..spec.readers as u64)
                .map(|i| {
                    let (store, stop) = (&store, &stop);
                    s.spawn(move || read_loop(store, n, stop, seed.wrapping_add(i)))
                })
                .collect();
            let res = try_run_over_network_with_store(g, cfg, Some(&store));
            stop.store(true, Ordering::Relaxed);
            let logs: Vec<QueryLog> =
                readers.into_iter().map(|h| h.join().expect("reader thread panicked")).collect();
            (res, logs)
        })
    });
    let res = res.map_err(|e| e.to_string())?;
    let mut log = QueryLog::default();
    for l in &logs {
        log.merge(l);
    }
    let view = store.view();
    let view_matches =
        res.final_ranks.iter().enumerate().all(|(p, r)| {
            view.lookup(p as PageId).is_some_and(|l| l.rank.to_bits() == r.to_bits())
        });
    let cpu = t.cpu - log.cpu;
    Ok((res, Some(Served { log, stats: store.stats(), view_matches }), cpu))
}

/// First virtual time at or after `from` where the error series reaches
/// [`CONVERGED`], interpolated log-linearly between the bracketing
/// samples taken at or after `from`; `None` if it never does before
/// `until`.
fn crossing(series: &TimeSeries, from: f64, until: f64) -> Option<f64> {
    let pts: Vec<(f64, f64)> =
        series.points().iter().copied().filter(|&(t, _)| t >= from && t <= until).collect();
    let i = pts.iter().position(|&(_, e)| e <= CONVERGED)?;
    if i == 0 {
        return Some(pts[0].0);
    }
    let ((t0, e0), (t1, e1)) = (pts[i - 1], pts[i]);
    let (l0, l1, lt) = (e0.ln(), e1.max(f64::MIN_POSITIVE).ln(), CONVERGED.ln());
    Some(t0 + (t1 - t0) * (l0 - lt) / (l0 - l1))
}

/// The three whole-system workloads.
pub fn netrun(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: &Path,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(trace);
    let (path, header) = graph_input(spec, seed, data_dir)?;
    // Loads come in three batches of a third of a second or more, before
    // the whole runs, after them and after the set-ups, so the best load
    // is taken across the run's whole span instead of one moment of it.
    let batch = spec.load_reps.div_ceil(3);
    let (g, mut loads) = load(&path, batch, 1.0 / 3.0, &mut tr)?;
    let (mut attempted, mut failed) = (1u64, 0u64);
    // Re-solves that stall are a known engine defect, not a failed
    // operation of the benchmark: they are counted and reported apart.
    let mut stalled = 0u64;
    let mut notes: Vec<String> = check_graph(&g, spec, &header).into_iter().collect();
    failed += notes.len() as u64;

    // Inputs and the independent reference, outside every timed window.
    let t0 = Instant::now();
    let reference =
        tr.span("centralized.open_pagerank", |_| open_pagerank(&g, &RankConfig::default()).ranks);
    let reference_s = t0.elapsed().as_secs_f64();
    let deltas = delta_chain(&g, spec, seed);
    let cfg = NetRunConfig {
        k: spec.k,
        n_nodes: spec.nodes,
        transmission: spec.transmission,
        variant: spec.variant,
        // The simulated network (node ids, wait times, loss draws) is part
        // of the workload, not of its input: `--seed` varies the web graph,
        // the deltas and the query stream. Varying the network too would
        // move per-node think rates, and with them the work done, by
        // 20-25% between seeds.
        seed: 0,
        t_end: spec.t_end,
        deltas: deltas.clone(),
        engine_workers: spec.workers,
        ..NetRunConfig::default()
    };

    // Whole runs for `seconds`, at least one. Their CPU seconds, less the
    // measurement-only reference re-solves after deltas, give `total_s`.
    let (mut runs_cpu, mut engines, mut setups_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(NetRunResult, Option<Served>)> = None;
    let mut peak = 0.0;
    let mut reconverge: Vec<f64> = Vec::new();
    let t_start = Instant::now();
    while runs_cpu.is_empty() || t_start.elapsed().as_secs_f64() < seconds {
        let (res, served, cpu) = tr.span("netrun.try_run_over_network_with_store", |_| {
            run_once(&g, cfg.clone(), spec, seed)
        })?;
        runs_cpu.push(cpu - res.delta_ref_secs);
        setups_wall.push(res.setup_secs);
        engines.push(res.engine_secs - res.delta_ref_secs);
        let first_delta = deltas.first().map_or(spec.t_end, |d| d.0);
        attempted += 1;
        if crossing(&res.rel_err, 0.0, first_delta).is_none() {
            failed += 1;
            notes.push(format!("never reached rel_err {CONVERGED:e} before t={first_delta}"));
        }
        if deltas.is_empty() {
            attempted += 1;
            let rel = relative_error(&res.final_ranks, &reference);
            if rel.is_nan() || rel > CONVERGED {
                failed += 1;
                notes.push(format!("final rel_err {rel:e} against the reference > {CONVERGED:e}"));
            }
        }
        for (i, &(td, _)) in deltas.iter().enumerate() {
            let until = deltas.get(i + 1).map_or(spec.t_end, |d| d.0);
            match crossing(&res.rel_err, td, until) {
                Some(t) => reconverge.push(t - td),
                // Every run replays the same evolution, so the first
                // run's stalls stand for all of them.
                None if first.is_none() => {
                    stalled += 1;
                    let stuck = res.rel_err.value_at(until).unwrap_or(f64::NAN);
                    notes.push(format!(
                        "re-solve stall (known engine defect): after the t={td} delta \
                         rel_err did not get under {CONVERGED:e} before t={until} \
                         (rel_err {stuck:e})"
                    ));
                }
                None => {}
            }
        }
        if let Some(s) = &served {
            attempted += 1 + s.log.queries();
            failed += s.log.unanswered;
            if !s.view_matches {
                failed += 1;
                notes.push("store's final view differs from final_ranks".to_string());
            }
            if s.log.unanswered > 0 {
                notes.push(format!("{} store queries unanswered", s.log.unanswered));
            }
        }
        if first.is_none() {
            // The first run's high-water mark: later runs only add
            // allocator fragmentation, which varies from run to run.
            peak = peak_rss_mb()?;
            first = Some((res, served));
        }
    }
    loads.extend(load(&path, batch, 1.0 / 3.0, &mut tr)?.1);
    // Set-up alone: the same run with a zero horizon stops right after
    // set-up, so its CPU seconds are the set-up's.
    let mut setups = Vec::new();
    for _ in 0..spec.setup_reps.max(1) {
        let bare = NetRunConfig { t_end: 0.0, deltas: Vec::new(), ..cfg.clone() };
        let (res, t) =
            timed(|| tr.span("netrun.try_run_over_network", |_| try_run_over_network(&g, bare)));
        setups_wall.push(res.map_err(|e| e.to_string())?.setup_secs);
        setups.push(t);
    }

    loads.extend(load(&path, batch, 1.0 / 3.0, &mut tr)?.1);
    let (res, served) = first.expect("at least one run");
    let counters = &res.counters;
    let partition = Partition::build(&g, &cfg.strategy, cfg.k, 0);
    let record = vec![
        ("pages", g.n_pages().to_string()),
        ("links", g.n_internal_links().to_string()),
        ("groups", spec.k.to_string()),
        ("matrix_nnz", intra_group_links(&g, &partition).to_string()),
        ("nodes", spec.nodes.to_string()),
        ("engine_workers", spec.workers.to_string()),
        ("readers", spec.readers.to_string()),
        ("t_end", spec.t_end.to_string()),
        ("deltas", deltas.len().to_string()),
        ("runs", runs_cpu.len().to_string()),
        ("final_rel_err", format!("{:e}", res.final_rel_err)),
        ("resolve_stalls", format!("{stalled} of {} deltas", deltas.len())),
    ];
    if !trace {
        let metrics = end_to_end(&setups, &loads, &runs_cpu, peak);
        let correct = failed == 0;
        return Ok(Outcome { correct, attempted, failed, metrics, record, notes });
    }

    let engine_s = engines[0];
    let mut l = Layers::new();
    let load_s = median(&walls(&loads));
    l.set("graph.load_s", load_s);
    l.set("graph.load_mb_per_s", header.bytes as f64 / 1e6 / load_s);
    l.set("netrun.setup_wall_s", median(&setups_wall));
    l.set("netrun.run_cpu_s", median(&runs_cpu));
    l.set("graph.delta_bytes", counters.delta_bytes as f64);
    l.set("group.rows_recomputed", counters.rows_recomputed as f64);
    l.set("linalg.inner_sweeps", counters.inner_sweeps as f64);
    l.set("linalg.sweeps_saved", counters.sweeps_saved as f64);
    l.set(
        "linalg.skip_ratio",
        ratio(counters.sweeps_saved as f64, (counters.inner_sweeps + counters.sweeps_saved) as f64),
    );
    l.set("centralized.reference_s", reference_s);
    l.set("centralized.delta_ref_s", res.delta_ref_secs);
    let (sim, sched) = (res.sim_stats, res.sched_stats);
    l.set("sim.pushes", sched.pushes as f64);
    l.set("sim.events_per_s", (sim.deliveries + sim.wakes) as f64 / engine_s);
    l.set("sim.batches", sched.batches as f64);
    l.set("sim.max_batch", sched.max_batch as f64);
    l.set("sim.singleton_batch_ratio", ratio(sched.singleton_batches as f64, sched.batches as f64));
    l.set("overlay.cache_hit_rate", res.route_cache.hit_rate());
    l.set("overlay.lookup_messages", counters.lookup_messages as f64);
    l.set("overlay.mean_hops", res.mean_route_hops);
    l.set("transport.data_messages", counters.data_messages as f64);
    l.set("transport.coalesced_parts", counters.coalesced_parts as f64);
    l.set("transport.bytes_per_delivery", ratio(counters.bytes as f64, sim.deliveries as f64));
    l.set("transport.wire_mb", counters.bytes as f64 / 1e6);
    l.set("netrun.engine_s", engine_s);
    let first_delta = deltas.first().map_or(spec.t_end, |d| d.0);
    l.set("netrun.converge_vt", crossing(&res.rel_err, 0.0, first_delta).unwrap_or(0.0));
    if !reconverge.is_empty() {
        l.set("netrun.reconverge_vt", median(&reconverge));
    }
    l.set("netrun.resolve_stall_share", ratio(stalled as f64, deltas.len() as f64));
    if let Some(s) = &served {
        let all = s.log.per_kind.iter().fold(NsHistogram::default(), |mut a, h| {
            a.merge(h);
            a
        });
        let p50 = |i: usize| s.log.per_kind[i].percentile(0.5) as f64;
        l.set("store.publishes", s.stats.publishes as f64);
        l.set(
            "store.skip_ratio",
            ratio(
                s.stats.skipped_updates as f64,
                (s.stats.group_updates + s.stats.skipped_updates) as f64,
            ),
        );
        l.set("store.lookup_p50_ns", p50(0));
        l.set("store.topk_p50_ns", p50(1));
        l.set("store.candidates_p50_ns", p50(2));
        l.set("store.site_totals_p50_ns", p50(3));
        l.set("store.query_qps", ratio(s.log.queries() as f64, s.log.secs));
        l.set("store.query_p99_us", all.percentile(0.99) as f64 / 1e3);
        for (i, (name, _)) in QUERY_KINDS.iter().enumerate() {
            let h = &s.log.per_kind[i];
            tr.record(name, h.count(), h.sum_ns() as f64 / 1e9);
        }
    }

    let rep = replay::engine(
        &ReplayIn {
            g: &g,
            cfg: &cfg,
            res: &res,
            store: served.as_ref().map(|s| s.stats),
            reference: &reference,
        },
        &mut tr,
    );
    l.set("partition.build_s", rep.partition_s);
    l.set("group.build_s", rep.build_s);
    l.set("group.bytes_per_nnz", rep.bytes_per_nnz);
    l.set("linalg.solve_s", rep.solve_s);
    l.set("linalg.sweep_us", ratio(rep.solve_s * 1e6, rep.sweeps as f64));
    l.set("group.afferent_s", rep.afferent_s);
    l.set("group.compute_y_us", rep.compute_y_us);
    l.set("group.receive_part_us", rep.receive_part_us);
    l.set("overlay.route_s", rep.route_s);
    l.set("sim.sched_s", rep.sched_s);
    l.set("store.publish_s", rep.publish_s);
    l.set("graph.delta_apply_s", rep.delta_apply_s);
    l.set("group.rebuild_s", rep.rebuild_s);
    l.set("netrun.sample_s", rep.sample_s);
    let layers = rep.attributed_s();
    l.set("netrun.unattributed_s", engine_s - layers);
    l.set("netrun.coverage", layers / engine_s);
    attempted += rep.checks;
    failed += rep.mismatches.len() as u64;
    notes.extend(rep.mismatches.iter().cloned());
    attempted += 1;
    if layers > engine_s {
        failed += 1;
        notes.push(format!(
            "traced run invalid: replayed layers {layers:.3} s exceed engine_s {engine_s:.3} s"
        ));
    }
    notes.extend(rep.table(engine_s));
    notes.extend(span_table(&tr));
    let correct = failed == 0;
    Ok(Outcome { correct, attempted, failed, metrics: l.into_metrics(), record, notes })
}

/// The traced run's spans, one line per call site: calls, total and self
/// seconds.
fn span_table(tr: &Tracer) -> Vec<String> {
    let mut out = vec![format!("{:<44} {:>9} {:>10} {:>10}", "span", "calls", "total_s", "self_s")];
    for (name, calls, total, own) in tr.summary() {
        out.push(format!("{name:<44} {calls:>9} {total:>10.4} {own:>10.4}"));
    }
    out
}
