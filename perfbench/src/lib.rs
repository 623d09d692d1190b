//! The repository benchmark: four workloads over the whole DPR stack, each
//! built from an edu-domain graph generated from `--seed`, written as
//! `DPRG1` before timing starts and loaded back from that file.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]): spans around
//! every call the benchmark makes into a module, plus a replay of the
//! engine's layers on the workload's own data, priced by the run's own
//! counters (see `replay`). Workload rationale and the layer table are in
//! `README.md` next to this package's manifest.

pub mod measure;
mod replay;
mod runs;

use std::path::Path;

use dpr_core::{DprVariant, Transmission};
use measure::Metric;

/// End-to-end metrics with their units, in report order. Every workload
/// reports every one of them, and none can be 0.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("load_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics with their units, in report order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("graph.load_s", "s"),
    ("graph.load_mb_per_s", "MB/s"),
    ("graph.delta_apply_s", "s"),
    ("graph.delta_bytes", "B"),
    ("partition.build_s", "s"),
    ("group.build_s", "s"),
    ("group.bytes_per_nnz", "B"),
    ("group.afferent_s", "s"),
    ("group.rows_recomputed", "count"),
    ("group.compute_y_us", "us"),
    ("group.receive_part_us", "us"),
    ("group.rebuild_s", "s"),
    ("linalg.sweep_us", "us"),
    ("linalg.solve_s", "s"),
    ("linalg.inner_sweeps", "count"),
    ("linalg.sweeps_saved", "count"),
    ("linalg.skip_ratio", "ratio"),
    ("centralized.reference_s", "s"),
    ("centralized.delta_ref_s", "s"),
    ("sim.sched_s", "s"),
    ("sim.pushes", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.batches", "count"),
    ("sim.max_batch", "count"),
    ("sim.singleton_batch_ratio", "ratio"),
    ("overlay.route_s", "s"),
    ("overlay.cache_hit_rate", "ratio"),
    ("overlay.lookup_messages", "count"),
    ("overlay.mean_hops", "hops"),
    ("transport.data_messages", "count"),
    ("transport.coalesced_parts", "count"),
    ("transport.bytes_per_delivery", "B"),
    ("transport.wire_mb", "MB"),
    ("store.publish_s", "s"),
    ("store.publishes", "count"),
    ("store.skip_ratio", "ratio"),
    ("store.lookup_p50_ns", "ns"),
    ("store.topk_p50_ns", "ns"),
    ("store.candidates_p50_ns", "ns"),
    ("store.site_totals_p50_ns", "ns"),
    ("store.query_qps", "1/s"),
    ("store.query_p99_us", "us"),
    ("netrun.setup_wall_s", "s"),
    ("netrun.run_cpu_s", "s"),
    ("netrun.engine_s", "s"),
    ("netrun.converge_vt", "vt"),
    ("netrun.reconverge_vt", "vt"),
    ("netrun.resolve_stall_share", "ratio"),
    ("netrun.sample_s", "s"),
    ("netrun.unattributed_s", "s"),
    ("netrun.coverage", "ratio"),
];

/// Relative error against the centralized reference that counts as
/// converged.
pub const CONVERGED: f64 = 1e-8;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M pages, DPR1, indirect, 2 engine workers, horizon just past
    /// convergence: every group solves in every window.
    Cold1mDpr1,
    /// 100k pages, DPR2, direct, 2 engine workers, horizon far past
    /// convergence: scheduler, lookups and wire traffic carry the time.
    Steady100kDpr2,
    /// 100k pages, DPR1, 1 engine worker, a chain of link-churn deltas and
    /// one closed-loop reader on the rank store.
    DeltaServe100k,
    /// 10M pages: load, partition and group-context build only.
    Ingest10m,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Cold1mDpr1,
        Workload::Steady100kDpr2,
        Workload::DeltaServe100k,
        Workload::Ingest10m,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold1mDpr1 => "cold-1m-dpr1",
            Workload::Steady100kDpr2 => "steady-100k-dpr2",
            Workload::DeltaServe100k => "delta-serve-100k",
            Workload::Ingest10m => "ingest-10m",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The sizes and settings of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Generated pages.
    pub pages: usize,
    /// Generated sites.
    pub sites: usize,
    /// Page groups (`HashBySite`).
    pub k: usize,
    /// Pastry nodes (netrun workloads).
    pub nodes: usize,
    /// DPR1 or DPR2.
    pub variant: DprVariant,
    /// Indirect or direct `Y` transmission.
    pub transmission: Transmission,
    /// `NetRunConfig::engine_workers`.
    pub workers: usize,
    /// Virtual-time horizon (0 for ingest).
    pub t_end: f64,
    /// Virtual time between link-churn deltas (0 = no deltas).
    pub delta_every: f64,
    /// Link fraction each delta rewires.
    pub churn: f64,
    /// Closed-loop store readers during the run.
    pub readers: usize,
    /// `DPRG1` loads per run, at least (and a second of loads for the
    /// whole-system workloads); `load_s` is the best of them.
    pub load_reps: usize,
    /// Set-ups per run; `setup_s` is the best of them.
    pub setup_reps: usize,
}

impl Spec {
    /// The benchmark's own sizes.
    #[must_use]
    pub fn full(workload: Workload) -> Self {
        let base = Spec {
            workload,
            pages: 100_000,
            sites: 100,
            k: 100,
            nodes: 256,
            variant: DprVariant::Dpr1,
            transmission: Transmission::Indirect,
            workers: 2,
            t_end: 0.0,
            delta_every: 0.0,
            churn: 0.0,
            readers: 0,
            load_reps: 15,
            setup_reps: 7,
        };
        match workload {
            Workload::Cold1mDpr1 => {
                Spec { pages: 1_000_000, t_end: 60.0, load_reps: 18, setup_reps: 3, ..base }
            }
            Workload::Steady100kDpr2 => Spec {
                k: 256,
                variant: DprVariant::Dpr2,
                transmission: Transmission::Direct,
                t_end: 800.0,
                ..base
            },
            Workload::DeltaServe100k => Spec {
                workers: 1,
                t_end: 600.0,
                delta_every: 100.0,
                churn: 0.001,
                readers: 1,
                ..base
            },
            Workload::Ingest10m => Spec { pages: 10_000_000, load_reps: 1, setup_reps: 2, ..base },
        }
    }

    /// A seconds-long version of each workload with the same shape, for
    /// the smoke tests.
    #[must_use]
    pub fn tiny(workload: Workload) -> Self {
        let full = Spec::full(workload);
        let small = Spec { pages: 3_000, sites: 20, load_reps: 3, setup_reps: 2, ..full.clone() };
        match workload {
            Workload::Cold1mDpr1 => Spec { k: 16, nodes: 32, t_end: 120.0, ..small },
            Workload::Steady100kDpr2 => Spec { k: 32, nodes: 32, t_end: 300.0, ..small },
            Workload::DeltaServe100k => Spec { k: 16, nodes: 32, t_end: 300.0, ..small },
            Workload::Ingest10m => Spec { pages: 20_000, ..small },
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: checked runs, checks, store queries.
    pub attempted: u64,
    /// Operations that failed: failed checks and unanswered queries.
    /// Re-solves that stall after a delta are a known engine defect and
    /// are reported apart (record `resolve_stalls`, per-layer
    /// `netrun.resolve_stall_share`), not counted here.
    pub failed: u64,
    /// [`END_TO_END`] untraced, [`PER_LAYER`] traced, in that order.
    pub metrics: Vec<Metric>,
    /// Run facts: seed, thread counts, sizes, `git describe`.
    pub record: Vec<(&'static str, String)>,
    /// Human-readable lines: failed checks, the span table, replay notes.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record as one JSON object.
    #[must_use]
    pub fn record_json(&self) -> String {
        let fields: Vec<String> =
            self.record.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Runs `spec` once: generates its inputs from `seed` into `data_dir`
/// (reused across runs of the same seed), measures for at least `seconds`
/// and checks every output.
///
/// # Errors
/// When the inputs cannot be generated or loaded, the run is refused by
/// the engine, or a metric comes out non-finite. A failed output check
/// is not an error: it is counted in [`Outcome::failed`].
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = match spec.workload {
        Workload::Ingest10m => runs::ingest(spec, seed, seconds, trace, data_dir)?,
        _ => runs::netrun(spec, seed, seconds, trace, data_dir)?,
    };
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if names != expected {
        return Err(format!("metric set mismatch: {names:?}"));
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    // Every repetition checks its own output; say each failure once.
    let mut seen = std::collections::HashSet::new();
    out.notes.retain(|n| seen.insert(n.clone()));
    out.record.insert(0, ("workload", spec.workload.name().to_string()));
    out.record.insert(1, ("seed", seed.to_string()));
    out.record.insert(2, ("trace", trace.to_string()));
    out.record.push(("host_threads", dpr_linalg::pool::Pool::host_threads().to_string()));
    out.record.push(("git_describe", git_describe()));
    Ok(out)
}

/// `git describe` of the checkout in the working directory, or `none`
/// when it is not a git repository (only `./.git` is consulted).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "--work-tree=.", "describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}
