//! Whole-system mode: DPR with rank exchange **routed through the
//! structured overlay**, in both §4.4 transmission styles.
//!
//! [`run::DistributedRun`](crate::run::DistributedRun) abstracts the network
//! away (group *g* is actor *g*; `Y` travels in one hop), which is the model
//! the paper's own convergence experiments use. This module closes the loop
//! with the rest of the system:
//!
//! * page groups are placed on overlay nodes by **DHT responsibility** —
//!   group `g` lives on the node numerically closest to `key(g)`;
//! * with [`Transmission::Direct`], a publishing node first pays an
//!   `h`-hop lookup (modelled as added latency and counted messages), then
//!   ships `Y` point-to-point;
//! * with [`Transmission::Indirect`], `Y` parts travel hop-by-hop along the
//!   overlay's own routes as real simulator messages: every relay buffers
//!   arriving parts and, at its next wake, recombines them by destination
//!   and forwards **one package per neighbor** (Fig 4's pack/unpack cycle),
//!   so in-network aggregation emerges from the simulation instead of being
//!   assumed;
//! * message and byte counters per node reproduce the §4.4 cost asymmetry
//!   (direct: `O((h+1)K²)` messages; indirect: neighbor-bound packages but
//!   `h×` forwarded bytes) *while the ranks are converging*.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use dpr_graph::{GraphDelta, PageId, WebGraph};
use dpr_linalg::{vec_ops, SpMatVec};
use dpr_overlay::{
    CanNetwork, ChordNetwork, NodeIndex, Overlay, PastryNetwork, RouteCache, RouteCacheStats,
};
use dpr_partition::{GroupId, Partition};
use dpr_sim::waits::WaitModel;
use dpr_sim::{Actor, Ctx, FaultPlan, SchedStats, SimStats, Simulation, TimeSeries};
use dpr_transport::snapshot::paper_snapshot_bytes;

use crate::centralized::open_pagerank;
use crate::config::RankConfig;
use crate::dpr::DprVariant;
use crate::group::{AfferentState, GroupContext, MatrixLayout};

/// Which structured overlay carries the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayKind {
    /// Pastry prefix routing (the paper's §4.5 assumption).
    Pastry,
    /// Chord ring with finger tables.
    Chord,
    /// CAN coordinate torus with the given dimensionality.
    Can {
        /// Number of torus dimensions (1..=4).
        d: usize,
    },
}

/// A churn operation the active overlay implementation does not support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnUnsupported {
    /// The requested operation (`"departures"` or `"joins"`).
    pub op: &'static str,
    /// The overlay that rejected it.
    pub overlay: &'static str,
}

impl std::fmt::Display for ChurnUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mid-run {} are not supported on the {} overlay", self.op, self.overlay)
    }
}

impl std::error::Error for ChurnUnsupported {}

/// Why a whole-system run was rejected before its event loop started.
/// Malformed configurations come back as structured errors instead of
/// aborting the process (the churn schedules and the replication knobs
/// arrive from CLI flags and experiment scripts, where a typo should fail
/// the run, not the harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRunError {
    /// Scheduled churn the chosen overlay cannot perform.
    Churn(ChurnUnsupported),
    /// A configuration value failed validation.
    Config {
        /// The offending field or aspect.
        what: &'static str,
        /// Human-readable explanation.
        detail: String,
    },
}

impl std::fmt::Display for NetRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetRunError::Churn(c) => c.fmt(f),
            NetRunError::Config { what, detail } => {
                write!(f, "invalid net-run config ({what}): {detail}")
            }
        }
    }
}

impl std::error::Error for NetRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetRunError::Churn(c) => Some(c),
            NetRunError::Config { .. } => None,
        }
    }
}

impl From<ChurnUnsupported> for NetRunError {
    fn from(c: ChurnUnsupported) -> Self {
        NetRunError::Churn(c)
    }
}

/// Concrete overlay storage behind the shared lock (an enum rather than a
/// trait object so churn operations, which not every overlay supports,
/// stay available).
pub enum AnyOverlay {
    /// Pastry prefix routing.
    Pastry(PastryNetwork),
    /// Chord ring.
    Chord(ChordNetwork),
    /// CAN torus.
    Can(CanNetwork),
}

impl AnyOverlay {
    fn as_overlay(&self) -> &dyn Overlay {
        match self {
            AnyOverlay::Pastry(p) => p,
            AnyOverlay::Chord(c) => c,
            AnyOverlay::Can(c) => c,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyOverlay::Pastry(_) => "Pastry",
            AnyOverlay::Chord(_) => "Chord",
            AnyOverlay::Can(_) => "CAN",
        }
    }

    /// Node departure. Pastry and Chord repair their routing state; CAN
    /// does not model churn and returns an error.
    ///
    /// # Errors
    /// [`ChurnUnsupported`] on CAN.
    pub fn depart(&mut self, h: NodeIndex) -> Result<(), ChurnUnsupported> {
        match self {
            AnyOverlay::Pastry(p) => {
                p.depart(h);
                Ok(())
            }
            AnyOverlay::Chord(c) => {
                c.depart(h);
                Ok(())
            }
            AnyOverlay::Can(_) => Err(ChurnUnsupported { op: "departures", overlay: self.name() }),
        }
    }

    /// Mid-run join: derives a fresh node id from `seed`, bootstraps off
    /// the first live node, and returns the newcomer's handle. Only Pastry
    /// implements incremental joins.
    ///
    /// # Errors
    /// [`ChurnUnsupported`] on Chord/CAN.
    pub fn join(&mut self, seed: u64) -> Result<NodeIndex, ChurnUnsupported> {
        match self {
            AnyOverlay::Pastry(p) => {
                let bootstrap = (0..p.n_nodes())
                    .find(|&h| p.is_alive(h))
                    .expect("network has at least one live node");
                Ok(p.join(bootstrap, seed))
            }
            _ => Err(ChurnUnsupported { op: "joins", overlay: self.name() }),
        }
    }
}

/// Which §4.4 transmission scheme carries the `Y` exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmission {
    /// Lookup (h hops of latency + h counted messages) then point-to-point.
    Direct,
    /// Hop-by-hop forwarding along overlay routes with per-relay
    /// aggregation.
    Indirect,
}

/// Hop-by-hop reliable-delivery settings: every data package is
/// sequence-numbered, the receiver acknowledges it, and the sender
/// retransmits unacked packages with exponential backoff until a bounded
/// retry budget runs out. Receivers suppress duplicates (a retransmission
/// whose original did arrive) but re-ack them, since the earlier ack may
/// itself have been lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability {
    /// Time to wait for an ack before the first retransmission. Should
    /// comfortably exceed one round trip (`2 × hop_latency` plus engine
    /// latency).
    pub ack_timeout: f64,
    /// Maximum retransmissions per package; afterwards the package is
    /// abandoned and counted in [`NetCounters::retry_exhausted`].
    pub max_retries: u32,
    /// Multiplier applied to the timeout after every retransmission
    /// (exponential backoff).
    pub backoff: f64,
}

impl Default for Reliability {
    fn default() -> Self {
        Self { ack_timeout: 1.0, max_retries: 5, backoff: 2.0 }
    }
}

/// Which solver runs the per-group inner solve of a think step.
///
/// Within one group the ranker owns every page, so within-sweep
/// (Gauss–Seidel) ordering is locally legal; cross-group coupling stays
/// Jacobi either way — the "partially asynchronous iteration" regime.
/// Both modes are deterministic and bit-identical across engine worker
/// counts and replays *against their own reference*; they differ from
/// each other only in low-order bits (both agree with the Jacobi fixed
/// point to well under 1e-12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InnerSolver {
    /// Plain Jacobi fixed-point iteration — the pre-PR baseline, proven
    /// bit-for-bit identical to it (ranks, counters, event stream).
    #[default]
    Jacobi,
    /// Forward Gauss–Seidel sweeps: consumes within-sweep updates, which
    /// typically reaches each window's fixed point in ~2× fewer sweeps on
    /// link graphs.
    GaussSeidel,
}

impl std::str::FromStr for InnerSolver {
    type Err = NetRunError;

    /// Parses the CLI spelling: `jacobi` or `gauss-seidel` (alias `gs`).
    /// Anything else becomes a structured config error, never a panic.
    fn from_str(s: &str) -> Result<Self, NetRunError> {
        match s {
            "jacobi" => Ok(InnerSolver::Jacobi),
            "gauss-seidel" | "gs" => Ok(InnerSolver::GaussSeidel),
            _ => Err(NetRunError::Config {
                what: "inner_solver",
                detail: format!("unknown solver {s:?} (try jacobi or gauss-seidel)"),
            }),
        }
    }
}

/// Adaptive (inexact inner–outer) tolerance schedule: early think windows
/// solve only to a coarse tolerance `ε_k` that tightens geometrically
/// toward [`NetRunConfig::inner_epsilon`] as the group's own convergence
/// progresses. `ε_k = clamp(margin × held_residual, inner_epsilon,
/// initial)` where `held_residual` is the final successive difference of
/// the group's last solve — a pure deterministic function of per-group
/// state (no RNG, no wall clock), so worker-count and replay bit-identity
/// hold within the mode. Final convergence (the stall short-circuit) is
/// still only declared at a residual of exactly `0.0`, which implies full
/// `inner_epsilon` precision was reached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEpsilon {
    /// Coarsest tolerance `ε_0`, used while a group has no held residual
    /// yet (first window, post-crash cold restarts).
    pub initial: f64,
    /// Ratio of the window tolerance to the held outer residual, in
    /// `(0, 1)`: the inner solve always lands this factor below the
    /// residual level the group is currently at.
    pub margin: f64,
}

impl Default for AdaptiveEpsilon {
    fn default() -> Self {
        Self { initial: 1e-4, margin: 1e-2 }
    }
}

impl AdaptiveEpsilon {
    /// The tolerance for the next solve of a group whose last solve ended
    /// with successive difference `held` (`∞` when it never solved).
    fn window_epsilon(self, held: f64, full: f64) -> f64 {
        if held.is_finite() {
            (self.margin * held).clamp(full, self.initial.max(full))
        } else {
            self.initial.max(full)
        }
    }
}

/// Parameters of a whole-system run.
#[derive(Debug, Clone)]
pub struct NetRunConfig {
    /// Number of page groups `K`.
    pub k: usize,
    /// Number of overlay nodes `N` (groups are placed on them by DHT
    /// responsibility; `N` may differ from `K` in either direction).
    pub n_nodes: usize,
    /// Transmission scheme.
    pub transmission: Transmission,
    /// Overlay flavor hosting the rankers.
    pub overlay: OverlayKind,
    /// DPR1 or DPR2.
    pub variant: DprVariant,
    /// Page → group strategy.
    pub strategy: dpr_partition::Strategy,
    /// Ranking parameters.
    pub rank: RankConfig,
    /// Think-time interval `[T1, T2]`.
    pub t1: f64,
    /// Upper end of the think-time interval.
    pub t2: f64,
    /// Per-message success probability (applies to every routed hop under
    /// indirect transmission — losses compound with path length, a harsher
    /// but more realistic reading than the paper's per-Y loss).
    pub send_success_prob: f64,
    /// Virtual-time cost of one overlay hop.
    pub hop_latency: f64,
    /// Master seed.
    pub seed: u64,
    /// Virtual-time horizon.
    pub t_end: f64,
    /// Sampling period for the error series.
    pub sample_every: f64,
    /// Bytes per rank update on the wire (the paper's `l` = 100).
    pub update_bytes: u64,
    /// Bytes per lookup message (the `r` of formula 4.2).
    pub lookup_bytes: u64,
    /// Fixed per-message header bytes.
    pub header_bytes: u64,
    /// Per-node bottleneck bandwidth in bytes per virtual-time unit
    /// (§4.5's `B`): every outgoing message is serialized through the
    /// sender's uplink, so messages queue when the node produces bytes
    /// faster than `B`. `None` = infinite uplink.
    pub bottleneck_bytes_per_time: Option<f64>,
    /// Scheduled node crashes: at each `(time, node)` the node departs the
    /// overlay, its hosted groups *lose their state* and migrate to the
    /// new responsible nodes, and ranking must re-converge. Requires
    /// [`OverlayKind::Pastry`] or [`OverlayKind::Chord`]. Times must be
    /// strictly increasing.
    pub departures: Vec<(f64, NodeIndex)>,
    /// Scheduled node joins: at each `(time, id_seed)` a fresh node joins
    /// the overlay and the groups it becomes responsible for are handed
    /// over *gracefully* — ranking state moves with them (contrast with
    /// `departures`, where state is lost). Requires
    /// [`OverlayKind::Pastry`]. Times must be strictly increasing.
    pub joins: Vec<(f64, u64)>,
    /// Scheduled crawl deltas: at each `(time, delta)` the live graph is
    /// patched in place and the affected groups re-rank *incrementally* —
    /// each dirtied owner receives the delta as a priced message, patches
    /// its group's matrix (a pure column rescale when only out-degrees
    /// changed, a one-group rebuild otherwise), and warm-starts its solve
    /// from the previous fixed point with ranks and afferent history
    /// kept. Untouched converged groups never leave the stall
    /// short-circuit, and when a [`RankStore`](crate::store::RankStore)
    /// is attached it keeps serving each dirtied group's pre-delta epoch
    /// until the group re-converges. Times must be strictly increasing;
    /// an empty delta is bit-invisible. Works on every overlay.
    pub deltas: Vec<(f64, GraphDelta)>,
    /// Optional ack/retry/dedup protocol on every data package. `None`
    /// keeps the paper's fire-and-forget model where lost `Y` vectors are
    /// simply absorbed by the next exchange.
    pub reliability: Option<Reliability>,
    /// Full fault model for the underlying engine. When set, it takes
    /// precedence over `send_success_prob` (the plan's own loss, latency,
    /// jitter, partitions, stragglers and crash windows govern delivery).
    pub faults: Option<FaultPlan>,
    /// Replication factor `k` for crash-survivable ranking. When `> 0`,
    /// every group owner periodically ships a compact checkpoint of each
    /// hosted group's dynamic state (`r`, afferent `X`, iteration epoch) to
    /// the group's `k` overlay replicas ([`Overlay::replicas`]: Pastry's
    /// numerically adjacent leaves, Chord's successor list), priced as
    /// §4.5 traffic. When a crashed node's groups fall to a replica by DHT
    /// responsibility, the replica detects the owner's silence by
    /// checkpoint timeout and re-hosts the groups *warm* from its newest
    /// checkpoint instead of rank-zero. `0` (the default) disables the
    /// protocol entirely — no extra messages, no extra state, the exact
    /// pre-replication baseline. Requires Pastry or Chord.
    pub replication: usize,
    /// Virtual-time interval between checkpoint shipments (`replication >
    /// 0` only). Shorter intervals mean fresher warm starts and faster
    /// suspicion at more checkpoint bytes.
    pub checkpoint_every: f64,
    /// Failure-detection threshold: a replica suspects the owner dead — and
    /// takes over the orphaned groups it is now responsible for — once it
    /// has heard no checkpoint for `suspect_after × checkpoint_every`
    /// virtual time. Timeout-based, no oracle knowledge: detection costs
    /// real windows, which is exactly the gap the warm start then recovers.
    pub suspect_after: u32,
    /// Worker threads for the engine's deterministic parallel think stage.
    /// `1` (the default) runs the plain sequential event loop; `> 1` runs
    /// same-window node solves concurrently on a shared pool and commits
    /// their outputs in canonical `(time, seq)` order — bit-identical to
    /// the sequential engine at any worker count (the
    /// [`dpr_sim`] batched-engine contract).
    pub engine_workers: usize,
    /// Opt into the 4-wide unrolled SpMV accumulator (implicit layout
    /// only). The unroll re-associates per-row sums, so ranks may differ
    /// from the default kernel in the low bits — a documented opt-in per
    /// the bit-identity contract.
    pub unrolled_spmv: bool,
    /// Which solver runs the per-group inner solve (Jacobi or
    /// Gauss–Seidel). The default [`InnerSolver::Jacobi`] is bit-for-bit
    /// the pre-option baseline; Gauss–Seidel reaches each window's fixed
    /// point in measurably fewer sweeps (see `BENCH_inner.json`) and lands
    /// on the same fixed point up to low-order bits.
    pub inner_solver: InnerSolver,
    /// Full inner-solve tolerance: the `ε` each think window's
    /// `R = A·R + βE + X` solve targets (and the floor any adaptive
    /// schedule tightens to). The default `1e-10` is the historical
    /// hard-wired value, so default configs replay the pre-option runs
    /// bit for bit.
    pub inner_epsilon: f64,
    /// Optional adaptive tolerance schedule (see [`AdaptiveEpsilon`]).
    /// `None` (the default) solves every window to `inner_epsilon`.
    pub adaptive_epsilon: Option<AdaptiveEpsilon>,
}

impl Default for NetRunConfig {
    fn default() -> Self {
        Self {
            k: 64,
            n_nodes: 64,
            transmission: Transmission::Indirect,
            overlay: OverlayKind::Pastry,
            variant: DprVariant::Dpr1,
            strategy: dpr_partition::Strategy::HashBySite,
            rank: RankConfig::default(),
            t1: 0.5,
            t2: 3.0,
            send_success_prob: 1.0,
            hop_latency: 0.05,
            seed: 0,
            t_end: 200.0,
            sample_every: 2.0,
            update_bytes: 100,
            lookup_bytes: 50,
            header_bytes: 40,
            bottleneck_bytes_per_time: None,
            departures: Vec::new(),
            joins: Vec::new(),
            deltas: Vec::new(),
            reliability: None,
            faults: None,
            replication: 0,
            checkpoint_every: 4.0,
            suspect_after: 2,
            engine_workers: 1,
            unrolled_spmv: false,
            inner_solver: InnerSolver::Jacobi,
            inner_epsilon: 1e-10,
            adaptive_epsilon: None,
        }
    }
}

/// One `Y` in flight: the publishing group, the destination group, and the
/// aggregated `(page, score)` payload.
#[derive(Debug, Clone)]
pub struct YPart {
    /// Publishing group.
    pub src_group: GroupId,
    /// Destination group.
    pub dest_group: GroupId,
    /// Aggregated rank transfers (global page ids). Shared, not owned: a
    /// converged group re-publishes the same `Y` every wake, and the `Arc`
    /// lets every re-publication (and every coalesced/relayed copy) alias
    /// the sender's memoized buffer instead of cloning it onto the wire.
    pub entries: Arc<Vec<(PageId, f64)>>,
}

/// A package of parts sharing one overlay hop.
///
/// The payload is behind an `Arc` so the in-flight copy and the sender's
/// retransmit queue share one allocation: a retransmission clones the
/// `Arc`, never the parts. (`Arc<Vec<_>>` rather than `Arc<[_]>` so a
/// receiver holding the last reference can take the parts back out with
/// [`Arc::try_unwrap`] — the fire-and-forget path moves payloads end to
/// end without copying them once.)
#[derive(Debug, Clone)]
pub struct Package(pub Arc<Vec<YPart>>);

/// Per-source afferent contributions in localized form: `(source group,
/// (local page index, contribution))` pairs in ascending source order —
/// the shape [`AfferentState::snapshot_received`] produces.
pub type AfferentSnapshot = Vec<(GroupId, Vec<(u32, f64)>)>;

/// One group's dynamic solver state as carried by a checkpoint message —
/// the in-simulator twin of the wire frame in
/// [`dpr_transport::snapshot`]. Only dynamic state travels (`r`, afferent
/// contributions in localized per-source form, iteration epoch): the
/// group's pages and link structure are deterministic functions of the
/// graph and partition, so the taking-over replica rebuilds its
/// [`GroupContext`] locally from the shared context directory. Payloads
/// are `Arc`-shared across the `k` replica copies — shipping to more
/// replicas bumps pointers, not allocations, exactly like [`YPart`]s.
#[derive(Debug, Clone)]
pub struct GroupSnapshot {
    /// The checkpointed group.
    pub group: GroupId,
    /// The owner's outer-iteration count when the snapshot was taken;
    /// replicas keep the highest-epoch snapshot they have seen.
    pub epoch: u64,
    /// The group's local rank vector (exact bits).
    pub r: Arc<Vec<f64>>,
    /// Per-source afferent contributions — what
    /// [`AfferentState::snapshot_received`] produced on the owner.
    pub afferent: Arc<AfferentSnapshot>,
}

impl GroupSnapshot {
    /// Scored entries the snapshot carries (`r` plus afferent) — the
    /// record count the §4.5-style pricing charges.
    fn n_entries(&self) -> u64 {
        self.r.len() as u64 + self.afferent.iter().map(|(_, v)| v.len() as u64).sum::<u64>()
    }
}

/// The simulator message: a data package (sequence-numbered when the
/// reliability protocol is active), a hop-by-hop acknowledgment, or a
/// replication checkpoint.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// A data package.
    Data {
        /// Sender-local sequence number; `None` = fire-and-forget.
        seq: Option<u64>,
        /// The payload.
        package: Package,
    },
    /// Acknowledgment of the sender's `Data { seq }`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Group-state checkpoint from an owner to one of its replicas.
    /// Fire-and-forget: a lost checkpoint is superseded by the next one,
    /// so freshness — not retransmission — is the delivery guarantee.
    Checkpoint {
        /// Every snapshot this owner ships to the receiving replica,
        /// `Arc`-shared with the copies bound for the other replicas.
        snaps: Arc<Vec<GroupSnapshot>>,
    },
}

/// Per-node network cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Data packages sent (each counted once per hop under indirect;
    /// retransmissions count again — they cost real bandwidth).
    pub data_messages: u64,
    /// Lookup messages charged (direct transmission only).
    pub lookup_messages: u64,
    /// Bytes put on the wire (forwarded bytes count at every hop; ack
    /// frames and retransmitted payloads included).
    pub bytes: u64,
    /// Retransmissions triggered by ack timeouts.
    pub retries: u64,
    /// Ack frames sent.
    pub acks: u64,
    /// Received duplicates suppressed by the dedup filter.
    pub duplicates_suppressed: u64,
    /// Packages abandoned after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// `Y` parts absorbed by per-destination coalescing before reaching
    /// the wire (each one a superseded update that was never sent).
    pub coalesced_parts: u64,
    /// Receive-path payload copies forced by a still-shared `Arc` (a
    /// reliable-mode sender holding the package for retransmission). Zero
    /// under fire-and-forget: payloads move end to end without a copy.
    pub payload_clones: u64,
    /// Afferent `X` rows recomputed during refreshes (only the stale ones
    /// — see [`AfferentState`]). Charged to the group's host at collection
    /// time.
    pub rows_recomputed: u64,
    /// `Y` parts abandoned with their package when the retry budget ran
    /// out — the per-part face of [`NetCounters::retry_exhausted`]
    /// (updates that were *silently never delivered*, the quantity a
    /// liveness analysis actually cares about).
    pub gave_up: u64,
    /// Checkpoint messages shipped to replicas (`replication > 0` only).
    pub checkpoints_sent: u64,
    /// Bytes of checkpoint traffic (also included in `bytes`): the §4.5
    /// price of crash survivability, separable from the `Y` exchange.
    pub checkpoint_bytes: u64,
    /// Orphaned groups re-hosted *warm* from a replica's checkpoint.
    pub takeovers_warm: u64,
    /// Orphaned groups re-hosted *cold* (rank zero) because no checkpoint
    /// had arrived before the owner went silent — the liveness fallback.
    pub takeovers_cold: u64,
    /// Crawl-delta shipments received: one per scheduled delta per node
    /// that owned at least one dirtied group at delivery time.
    pub delta_messages: u64,
    /// Bytes of serialized crawl deltas (the `DPRG1` delta-record wire
    /// form plus a per-message header; also included in `bytes`) — the
    /// §4.5-style price of keeping ranks live against an evolving web.
    pub delta_bytes: u64,
    /// Inner-solver sweeps (Jacobi iterations or Gauss–Seidel sweeps)
    /// run by this node's hosted groups across all think windows — the
    /// FLOP-side twin of [`NetCounters::rows_recomputed`]. Charged to the
    /// group's host at collection time.
    pub inner_sweeps: u64,
    /// Sweeps the think step avoided relative to re-solving every window
    /// to the full inner tolerance: each stall-short-circuited window
    /// saves its one verification sweep, and an adaptive-ε window that
    /// stopped at a coarse tolerance saves the Theorem 3.3 geometric-decay
    /// estimate of the sweeps remaining to full tolerance. Deterministic —
    /// a pure function of per-group solver state.
    pub sweeps_saved: u64,
}

/// One group's ranking state hosted on a node. The `f_buf`/`scratch`/
/// `touched` buffers persist across think steps so the steady-state wake
/// path allocates nothing (the §4.5 "million-page" scaling requirement).
/// Memoized per-destination `Y` publication: `(dest group, shared payload)`.
type YCache = Vec<(GroupId, Arc<Vec<(PageId, f64)>>)>;

struct GroupState {
    /// Static group structure, shared with the run-wide context directory
    /// (every node can rebuild any group's state from it on takeover).
    ctx: Arc<GroupContext>,
    r: Vec<f64>,
    afferent: AfferentState,
    /// Persistent solve input `f = βE + X`; rows are patched from the
    /// refresh worklist instead of being rebuilt.
    f_buf: Vec<f64>,
    /// Reusable solve double buffer.
    scratch: Vec<f64>,
    /// Reusable multiply workspace: the implicit-value matrix pre-scales
    /// the iterate into it once per SpMV (stays empty for the explicit
    /// layout).
    ws: Vec<f64>,
    /// Worklist of `X` rows the last refresh recomputed.
    touched: Vec<u32>,
    /// Final successive difference of the last solve that actually ran.
    /// Exactly `0.0` means `r` is the *exact* f64 fixed point of the
    /// current iteration map: rerunning the solve with an unchanged `f`
    /// would reproduce `r` bit-for-bit, so the think step may skip it.
    last_delta: f64,
    /// Memoized `compute_y(&r)` — a deterministic function of `r`, valid
    /// until a solve changes `r`. Entries are behind
    /// `Arc`s so publication is a pointer bump, not a payload copy.
    y_cache: Option<YCache>,
    /// Last accepted raw `Y` payload per source: the sender's own `Arc`,
    /// the receive-path twin of its `y_cache`. A converged sender
    /// re-publishes that same allocation, so the common re-publication is
    /// recognized by pointer identity alone.
    last_payload: BTreeMap<GroupId, Arc<Vec<(PageId, f64)>>>,
    outer_iterations: u64,
    /// Inner-solver sweeps this group ran (see
    /// [`NetCounters::inner_sweeps`]; collected per node at run end).
    inner_sweeps: u64,
    /// Sweeps avoided by the stall short-circuit and adaptive-ε early
    /// stops (see [`NetCounters::sweeps_saved`]).
    sweeps_saved: u64,
}

impl GroupState {
    /// Fresh (rank-zero) state for `ctx`.
    fn new(ctx: Arc<GroupContext>) -> Self {
        let n = ctx.n_local();
        // `X` starts at zero, so `f = βE` exactly (βE ≥ 0, and `b + 0.0`
        // is bitwise `b` for non-negative `b`).
        let f_buf = ctx.beta_e().to_vec();
        Self {
            ctx,
            r: vec![0.0; n],
            afferent: AfferentState::new(n),
            f_buf,
            scratch: vec![0.0; n],
            ws: Vec::new(),
            touched: Vec::new(),
            last_delta: f64::INFINITY,
            y_cache: None,
            last_payload: BTreeMap::new(),
            outer_iterations: 0,
            inner_sweeps: 0,
            sweeps_saved: 0,
        }
    }

    /// Accepts the latest `Y` payload from `src`. Equivalent to
    /// `afferent.set(src, ctx.localize(entries))` — same `X` bits, same
    /// stale rows — but skips the localization whenever the receiver
    /// already holds what it would produce.
    fn receive(&mut self, src: GroupId, entries: &Arc<Vec<(PageId, f64)>>) {
        // Receive tiers, cheapest first. A converged sender re-publishes
        // the very allocation accepted last time (pointer identity is
        // sound: the held `Arc` keeps it from being freed and reused). A
        // moving sender re-publishes over the same page set — it only
        // changes at a crawl delta — and `received[src]` holds exactly
        // `localize(last_payload[src])`, so when every page localized (one
        // stored row per entry) `rescore` drops the new scores onto those
        // rows in order, with no page→local search and no `Vec`, and
        // recognizes bit-identical scores itself. A payload with pages
        // this group does not own falls back to a raw bit compare. Both
        // adopt the new `Arc`, so its next re-publication hits by pointer.
        if let Some(prev) = self.last_payload.get_mut(&src) {
            if Arc::ptr_eq(prev, entries) {
                return;
            }
            let same_pages = prev.len() == entries.len()
                && prev.iter().zip(entries.iter()).all(|(a, b)| a.0 == b.0);
            if same_pages
                && (self.afferent.rescore(src, entries.iter().map(|e| e.1))
                    || prev.iter().zip(entries.iter()).all(|(a, b)| a.1.to_bits() == b.1.to_bits()))
            {
                *prev = Arc::clone(entries);
                return;
            }
        }
        // Page set changed, or some page is not ours: localize once. `set`
        // still drops a payload whose *localized* form matches (e.g. the
        // change is confined to pages this group no longer owns).
        self.afferent.set(src, self.ctx.localize(entries));
        self.last_payload.insert(src, Arc::clone(entries));
    }
}

/// Sweeps an adaptive-ε early stop avoided: when a window's solve was
/// allowed to stop at a coarse tolerance (final residual still above
/// `inner_epsilon`), the Theorem 3.3 geometric-decay model says reaching
/// full tolerance would have cost another
/// `⌈ln(inner_epsilon / residual) / ln(‖A‖)⌉` sweeps. A pure f64 function
/// of per-group state — deterministic across worker counts and replays.
/// Returns 0 when no adaptive schedule is active or the solve already
/// reached full tolerance.
fn adaptive_sweeps_saved(cfg: &NetRunConfig, ctx: &GroupContext, final_delta: f64) -> u64 {
    if cfg.adaptive_epsilon.is_none() || !final_delta.is_finite() {
        return 0;
    }
    if final_delta <= cfg.inner_epsilon {
        return 0;
    }
    let norm = ctx.matrix().contraction_norm();
    if !(norm > 0.0 && norm < 1.0) {
        return 0;
    }
    let remaining = ((cfg.inner_epsilon / final_delta).ln() / norm.ln()).ceil();
    // Cap at the solver's own iteration budget — the estimate can blow up
    // when the norm is close to 1.
    remaining.clamp(0.0, 10_000.0) as u64
}

/// An overlay node hosting zero or more page groups and relaying traffic.
pub struct NetNode {
    me: NodeIndex,
    groups: Vec<GroupState>,
    overlay: Arc<RwLock<AnyOverlay>>,
    /// `group → owner node` (responsible node of the group's key).
    owner_of: Arc<RwLock<Vec<NodeIndex>>>,
    /// `group → DHT key`.
    key_of: Arc<Vec<u128>>,
    /// Shared memo of routing decisions (keys include the source node, so
    /// one shared cache is equivalent to per-node caches).
    cache: Arc<RwLock<RouteCache>>,
    relay: Vec<YPart>,
    /// `Y` parts produced by the last `think` (the engine's parallel
    /// compute stage), awaiting dispatch by the matching `on_wake` commit.
    pending_y: Vec<YPart>,
    cfg: Arc<NetRunConfig>,
    mean_wait: f64,
    /// Virtual time until which this node's uplink is busy serializing
    /// previously sent bytes (bottleneck model).
    uplink_busy_until: f64,
    /// False once the node departed: it stops waking and drops traffic.
    active: bool,
    /// Network cost counters for traffic *originated or forwarded* here.
    pub counters: NetCounters,
    /// Next data sequence number (reliability protocol).
    next_seq: u64,
    /// Unacked packages awaiting retransmission, by sequence number
    /// (`BTreeMap` so the retransmit scan order is deterministic).
    pending: BTreeMap<u64, PendingSend>,
    /// `(sender, seq)` pairs already processed, for duplicate suppression.
    seen: HashSet<(usize, u64)>,
    /// Run-wide group-context directory indexed by group id: static group
    /// structure is never shipped, any node rebuilds it from here when it
    /// takes over an orphaned group. Behind a lock because crawl deltas
    /// swap dirtied groups' contexts mid-run (the driver writes, nodes
    /// read).
    contexts: Arc<RwLock<Vec<Arc<GroupContext>>>>,
    /// Newest checkpoint held for each group this node replicates, plus
    /// when the owner was last heard from (`BTreeMap`: takeover scan order
    /// is deterministic).
    replica_store: BTreeMap<GroupId, ReplicaEntry>,
    /// When this node first noticed each orphaned group it is responsible
    /// for but holds no checkpoint of — the cold-takeover liveness
    /// fallback's suspicion clock.
    orphan_since: BTreeMap<GroupId, f64>,
    /// Virtual time of the last checkpoint shipment (`-inf` initially, so
    /// the first wake establishes a baseline at the replicas).
    last_checkpoint: f64,
}

/// A replica's record of one group it guards: the newest snapshot and the
/// freshness of the owner's last sign of life.
struct ReplicaEntry {
    snap: GroupSnapshot,
    /// Virtual time of the last checkpoint from the owner — *any*
    /// checkpoint refreshes it, even one carrying an older epoch, since it
    /// proves the owner is alive.
    last_heard: f64,
}

/// One unacked package on the sender side. `parts` shares the in-flight
/// package's allocation; retransmissions put the *same* bytes back on the
/// wire without copying them.
struct PendingSend {
    dst: NodeIndex,
    parts: Arc<Vec<YPart>>,
    /// Retransmissions already performed.
    retries: u32,
    /// Virtual time at which the package is considered lost.
    deadline: f64,
    /// Current retransmission timeout (grows by the backoff factor).
    rto: f64,
}

impl NetNode {
    fn payload_bytes(&self, parts: &[YPart]) -> u64 {
        let updates: u64 = parts.iter().map(|p| p.entries.len() as u64).sum();
        updates * self.cfg.update_bytes + self.cfg.header_bytes
    }

    /// Whether `src`'s current context still links into `dest`. Always true
    /// on a static graph; after a crawl delta, parts from a source that
    /// lost its last link into `dest` (in flight, relayed, or held in a
    /// checkpoint) would resurrect the `Y` the delta retracted.
    fn still_links(&self, src: GroupId, dest: GroupId) -> bool {
        self.cfg.deltas.is_empty() || self.contexts.read()[src as usize].links_to(dest)
    }

    /// Delivers a part to a locally hosted group.
    fn deliver_local(&mut self, part: &YPart) {
        if !self.still_links(part.src_group, part.dest_group) {
            return;
        }
        if let Some(gs) = self.groups.iter_mut().find(|g| g.ctx.group_id() == part.dest_group) {
            gs.receive(part.src_group, &part.entries);
        }
        // A part for a group we do not host is stale traffic after a
        // membership change; §4.2 lets nodes drop it silently.
    }

    /// Cached next hop toward `dest_group`'s key.
    fn next_hop_for(&self, dest_group: GroupId) -> Option<NodeIndex> {
        let ov = self.overlay.read();
        self.cache.write().next_hop(ov.as_overlay(), self.me, self.key_of[dest_group as usize])
    }

    /// Cached route length toward `dest_group`'s key — the `h` a direct
    /// transmission's lookup pays in messages and latency (§4.5).
    fn lookup_hops(&self, dest_group: GroupId) -> u64 {
        let ov = self.overlay.read();
        self.cache.write().route_hops(ov.as_overlay(), self.me, self.key_of[dest_group as usize])
            as u64
    }

    /// Merges parts sharing `(src_group, dest_group)`, keeping the newest
    /// payload at the earliest occurrence's position. Sequential delivery
    /// would feed both through [`AfferentState::set`], which replaces per
    /// source — so dropping the superseded payload is rank-neutral and the
    /// stale bytes simply never reach the wire.
    fn coalesce_parts(&mut self, parts: &mut Vec<YPart>) {
        if parts.len() < 2 {
            return;
        }
        let mut slot: HashMap<(GroupId, GroupId), usize> = HashMap::with_capacity(parts.len());
        let mut kept: Vec<YPart> = Vec::with_capacity(parts.len());
        for part in parts.drain(..) {
            match slot.entry((part.src_group, part.dest_group)) {
                Entry::Occupied(e) => {
                    self.counters.coalesced_parts += 1;
                    kept[*e.get()] = part;
                }
                Entry::Vacant(e) => {
                    e.insert(kept.len());
                    kept.push(part);
                }
            }
        }
        *parts = kept;
    }

    /// Serializes `bytes` through the node's uplink: returns the extra
    /// delay before the message can leave and advances the busy horizon
    /// (§4.5's per-node bottleneck `B`; formula 4.7's constraint appears
    /// here as queueing delay instead of an inequality).
    fn uplink_delay(&mut self, now: f64, bytes: u64) -> f64 {
        let Some(b) = self.cfg.bottleneck_bytes_per_time else { return 0.0 };
        let start = self.uplink_busy_until.max(now);
        let done = start + bytes as f64 / b;
        self.uplink_busy_until = done;
        done - now
    }

    /// The single data-send path: counts the message and bytes, pays the
    /// uplink, registers the package for retransmission when reliability
    /// is on, and hands it to the engine. `extra_delay` models time spent
    /// before the message can leave (a direct-mode lookup).
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg>,
        dst: NodeIndex,
        extra_delay: f64,
        parts: Vec<YPart>,
    ) {
        self.counters.data_messages += 1;
        let bytes = self.payload_bytes(&parts);
        self.counters.bytes += bytes;
        let queueing = self.uplink_delay(ctx.now(), bytes);
        let delay = self.cfg.hop_latency + queueing + extra_delay;
        let parts = Arc::new(parts);
        let seq = self.cfg.reliability.map(|rel| {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(
                seq,
                PendingSend {
                    dst,
                    parts: Arc::clone(&parts),
                    retries: 0,
                    deadline: ctx.now() + delay + rel.ack_timeout,
                    rto: rel.ack_timeout,
                },
            );
            seq
        });
        ctx.send_after(dst, delay, NetMsg::Data { seq, package: Package(parts) });
    }

    /// Retransmits every pending package whose ack deadline has passed,
    /// with exponential backoff, abandoning those out of retry budget.
    /// Runs at every wake, so the scan granularity is the think time.
    fn retransmit_due(&mut self, ctx: &mut Ctx<'_, NetMsg>, rel: Reliability) {
        let now = ctx.now();
        let due: Vec<u64> =
            self.pending.iter().filter(|(_, p)| p.deadline <= now).map(|(&s, _)| s).collect();
        for seq in due {
            let mut p = self.pending.remove(&seq).expect("due entry present");
            if p.retries >= rel.max_retries {
                self.counters.retry_exhausted += 1;
                self.counters.gave_up += p.parts.len() as u64;
                continue;
            }
            p.retries += 1;
            self.counters.retries += 1;
            self.counters.data_messages += 1;
            let bytes = self.payload_bytes(&p.parts);
            self.counters.bytes += bytes;
            let queueing = self.uplink_delay(now, bytes);
            let delay = self.cfg.hop_latency + queueing;
            // The retransmitted package shares the original's allocation:
            // byte-for-byte the same payload, no copy.
            ctx.send_after(
                p.dst,
                delay,
                NetMsg::Data { seq: Some(seq), package: Package(Arc::clone(&p.parts)) },
            );
            p.rto *= rel.backoff;
            p.deadline = now + delay + p.rto;
            self.pending.insert(seq, p);
        }
    }

    /// Routes parts one overlay hop (indirect) or directly to the owner
    /// (direct), grouping by next hop so each neighbor gets one package.
    /// Superseded same-`(src, dest)` parts are merged away first (§4.4
    /// coalescing), and direct mode batches everything bound for one owner
    /// into a single package (one data message, one header; every part's
    /// destination still pays its §4.5 lookup).
    fn dispatch(&mut self, ctx: &mut Ctx<'_, NetMsg>, mut parts: Vec<YPart>) {
        self.coalesce_parts(&mut parts);
        match self.cfg.transmission {
            Transmission::Direct => {
                // BTreeMap: package send order must be deterministic.
                let mut by_owner: BTreeMap<NodeIndex, (u64, Vec<YPart>)> = BTreeMap::new();
                for part in parts {
                    let owner = self.owner_of.read()[part.dest_group as usize];
                    if owner == self.me {
                        self.deliver_local(&part);
                        continue;
                    }
                    let hops = self.lookup_hops(part.dest_group);
                    self.counters.lookup_messages += hops;
                    self.counters.bytes += hops * self.cfg.lookup_bytes;
                    let slot = by_owner.entry(owner).or_insert((0, Vec::new()));
                    // The batch leaves once its slowest lookup resolves.
                    slot.0 = slot.0.max(hops);
                    slot.1.push(part);
                }
                for (owner, (hops, batch)) in by_owner {
                    let lookup_delay = hops as f64 * self.cfg.hop_latency;
                    self.transmit(ctx, owner, lookup_delay, batch);
                }
            }
            Transmission::Indirect => {
                // BTreeMap: package send order must be deterministic.
                let mut by_hop: BTreeMap<NodeIndex, Vec<YPart>> = BTreeMap::new();
                for part in parts {
                    match self.next_hop_for(part.dest_group) {
                        None => self.deliver_local(&part),
                        Some(hop) => by_hop.entry(hop).or_default().push(part),
                    }
                }
                for (hop, package) in by_hop {
                    self.transmit(ctx, hop, 0.0, package);
                }
            }
        }
    }

    /// The DPR loop body for every hosted group: refresh afferent state,
    /// solve, and buffer the resulting `Y` parts in `pending_y` for the
    /// next dispatch. This is the wake's pure-compute slice — it touches
    /// only this node's own state, draws no RNG, and sends nothing, which
    /// is what lets the batched engine run it concurrently with other
    /// nodes' solves ([`Actor::think`]) without observable divergence.
    fn run_group_thinks(&mut self) {
        for gi in 0..self.groups.len() {
            let gs = &mut self.groups[gi];
            if gs.ctx.n_local() == 0 {
                continue;
            }
            // Dirty-row path: refresh only the stale X rows, patch the
            // persistent f = βE + X on exactly those rows, and solve with
            // the reusable double buffer — no allocation.
            gs.touched.clear();
            gs.afferent.refresh_tracked(Some(&mut gs.touched));
            let (beta_e, x) = (gs.ctx.beta_e(), gs.afferent.x());
            for &li in &gs.touched {
                gs.f_buf[li as usize] = beta_e[li as usize] + x[li as usize];
            }
            // Stall short-circuit: no row of f changed and the last solve
            // ended with a successive difference of exactly 0.0, so `r` is
            // the exact f64 fixed point of `r ← A·r + f` — rerunning the
            // solve would reproduce `r` bit-for-bit (ranks are
            // non-negative, so even ±0.0 cannot differ; the Gauss–Seidel
            // sweep updates in place with the same property). The group
            // still publishes below; only the arithmetic is skipped.
            if !(gs.touched.is_empty() && gs.last_delta == 0.0) {
                // Adaptive inexact inner–outer scheduling: the window
                // tolerance is a pure function of the group's held
                // residual — deterministic across workers and replays.
                let epsilon = match self.cfg.adaptive_epsilon {
                    Some(s) => s.window_epsilon(gs.last_delta, self.cfg.inner_epsilon),
                    None => self.cfg.inner_epsilon,
                };
                let (delta, r_unchanged) = match self.cfg.variant {
                    DprVariant::Dpr1 => {
                        let report = match self.cfg.inner_solver {
                            InnerSolver::Jacobi => gs.ctx.group_pagerank_prepared(
                                &mut gs.r,
                                &gs.f_buf,
                                epsilon,
                                10_000,
                                &mut gs.scratch,
                                &mut gs.ws,
                            ),
                            InnerSolver::GaussSeidel => gs
                                .ctx
                                .group_pagerank_gs_prepared(&mut gs.r, &gs.f_buf, epsilon, 10_000),
                        };
                        gs.inner_sweeps += report.iterations as u64;
                        gs.sweeps_saved +=
                            adaptive_sweeps_saved(&self.cfg, &gs.ctx, report.final_delta);
                        // A multi-iteration solve moved `r` even if its
                        // final step didn't.
                        (report.final_delta, report.iterations <= 1 && report.final_delta == 0.0)
                    }
                    DprVariant::Dpr2 => {
                        let delta = match self.cfg.inner_solver {
                            InnerSolver::Jacobi => gs.ctx.step_prepared(
                                &mut gs.r,
                                &gs.f_buf,
                                &mut gs.scratch,
                                &mut gs.ws,
                            ),
                            InnerSolver::GaussSeidel => {
                                gs.ctx.step_gs_prepared(&mut gs.r, &gs.f_buf)
                            }
                        };
                        gs.inner_sweeps += 1;
                        (delta, delta == 0.0)
                    }
                };
                gs.last_delta = delta;
                if !r_unchanged {
                    gs.y_cache = None;
                }
            } else {
                // The one verification sweep a solve would have paid to
                // rediscover that `r` is already the fixed point.
                gs.sweeps_saved += 1;
            }
            gs.outer_iterations += 1;
            let src = gs.ctx.group_id();
            // Y is a pure function of `r`; while `r` is bitwise unchanged
            // the memoized parts are bit-identical to a fresh computation
            // and only need cloning onto the wire.
            let y = gs.y_cache.get_or_insert_with(|| {
                gs.ctx.compute_y(&gs.r).into_iter().map(|(d, e)| (d, Arc::new(e))).collect()
            });
            for (dest, entries) in y {
                self.pending_y.push(YPart {
                    src_group: src,
                    dest_group: *dest,
                    entries: Arc::clone(entries),
                });
            }
        }
    }

    /// Ships one checkpoint message to each replica of every group this
    /// node owns: the group's dynamic state (`r`, afferent contributions,
    /// epoch), batched per destination so a replica guarding several of
    /// this owner's groups receives a single message. Checkpoints are
    /// priced like §4.5 rank updates (one record per carried entry plus a
    /// header per message) and pay the sender's uplink — survivability
    /// competes for the same bandwidth as the `Y` exchange.
    fn ship_checkpoints(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let k = self.cfg.replication;
        // BTreeMap: the per-replica send order must be deterministic.
        let mut per_dst: BTreeMap<NodeIndex, Vec<GroupSnapshot>> = BTreeMap::new();
        for gs in &self.groups {
            let gid = gs.ctx.group_id();
            if self.owner_of.read()[gid as usize] != self.me {
                continue; // not ours to checkpoint (transient misplacement)
            }
            let reps = {
                let ov = self.overlay.read();
                self.cache.write().replicas(ov.as_overlay(), self.key_of[gid as usize], k)
            };
            if reps.is_empty() {
                continue;
            }
            let snap = GroupSnapshot {
                group: gid,
                epoch: gs.outer_iterations,
                r: Arc::new(gs.r.clone()),
                afferent: Arc::new(gs.afferent.snapshot_received()),
            };
            for &rep in reps.iter() {
                if rep != self.me {
                    per_dst.entry(rep).or_default().push(snap.clone());
                }
            }
        }
        for (dst, snaps) in per_dst {
            let entries: u64 = snaps.iter().map(GroupSnapshot::n_entries).sum();
            let bytes =
                paper_snapshot_bytes(entries, self.cfg.update_bytes) + self.cfg.header_bytes;
            self.counters.checkpoints_sent += 1;
            self.counters.checkpoint_bytes += bytes;
            self.counters.bytes += bytes;
            let queueing = self.uplink_delay(ctx.now(), bytes);
            // One hop: replicas are the owner's overlay neighbors (Pastry
            // leaf set, Chord successor list) by construction.
            ctx.send_after(
                dst,
                self.cfg.hop_latency + queueing,
                NetMsg::Checkpoint { snaps: Arc::new(snaps) },
            );
        }
    }

    /// Failure detection and takeover: for every group this node is DHT-
    /// responsible for but does not host, suspect the former owner dead
    /// once no checkpoint has been heard for `suspect_after ×
    /// checkpoint_every` virtual time, then re-host the group — warm from
    /// the newest held checkpoint, or cold (rank zero) via the
    /// `orphan_since` fallback when none ever arrived. Purely timeout-
    /// based: no oracle tells the replica about the crash, so detection
    /// costs real windows (the gap the warm start then recovers).
    fn scan_takeover(&mut self, now: f64) {
        let timeout = f64::from(self.cfg.suspect_after) * self.cfg.checkpoint_every;
        let mut adopt: Vec<GroupId> = Vec::new();
        {
            let owners = self.owner_of.read();
            for (gid, &owner) in owners.iter().enumerate() {
                let gid = gid as GroupId;
                if owner != self.me || self.groups.iter().any(|g| g.ctx.group_id() == gid) {
                    self.orphan_since.remove(&gid);
                    continue;
                }
                // Responsible but not hosting: the group is orphaned.
                match self.replica_store.get(&gid) {
                    Some(e) if now - e.last_heard >= timeout => adopt.push(gid),
                    Some(_) => {} // owner (or a takeover peer) still alive
                    None => {
                        let since = *self.orphan_since.entry(gid).or_insert(now);
                        if now - since >= timeout {
                            adopt.push(gid);
                        }
                    }
                }
            }
        }
        for gid in adopt {
            self.install_group(gid);
            self.orphan_since.remove(&gid);
        }
    }

    /// Re-hosts `gid` on this node: a fresh [`GroupState`] rebuilt from
    /// the shared context directory, warm-started from the newest held
    /// checkpoint when there is one. The afferent contributions replay
    /// through [`AfferentState::set`] exactly as the original deliveries
    /// did, so the rebuilt `X` is bit-identical to the owner's at snapshot
    /// time (minus any source a crawl delta has since cut off); the next
    /// think then solves from the checkpointed `r` instead of from zero.
    fn install_group(&mut self, gid: GroupId) {
        let ctx = Arc::clone(&self.contexts.read()[gid as usize]);
        let mut gs = GroupState::new(ctx);
        match self.replica_store.get(&gid) {
            // A checkpoint whose rank vector no longer matches the group's
            // page count describes the group *before* a crawl delta
            // repaged it (the driver purges stale entries at delta time,
            // but a frame already in flight can still land afterwards) —
            // useless for a warm start, so fall through to cold.
            Some(e) if e.snap.r.len() == gs.r.len() => {
                let snap = &e.snap;
                gs.r.copy_from_slice(&snap.r);
                for (src, entries) in snap.afferent.iter() {
                    if self.still_links(*src, gid) {
                        gs.afferent.set(*src, entries.clone());
                    }
                }
                gs.outer_iterations = snap.epoch;
                self.counters.takeovers_warm += 1;
            }
            _ => self.counters.takeovers_cold += 1,
        }
        self.groups.push(gs);
    }

    fn sample_wait(&self, ctx: &mut Ctx<'_, NetMsg>) -> f64 {
        use rand::Rng;
        if self.mean_wait <= 0.0 {
            return 1e-3;
        }
        let u: f64 = ctx.rng().gen::<f64>();
        -self.mean_wait * (1.0 - u).ln()
    }
}

impl Actor for NetNode {
    type Msg = NetMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let w = self.sample_wait(ctx);
        ctx.schedule_wake(w);
    }

    fn think(&mut self, _now: f64) {
        // The engine runs this (possibly concurrently with other nodes'
        // thinks) exactly once before every on_wake.
        if self.active {
            self.run_group_thinks();
        }
    }

    fn has_think_work(&self) -> bool {
        // A group at the stall short-circuit (no stale `X` row, last solve
        // exactly at its fixed point, `Y` memoized) only bumps counters
        // and re-queues its memoized parts: not worth a pool hand-off.
        self.active
            && self.groups.iter().any(|gs| {
                gs.ctx.n_local() > 0
                    && (gs.afferent.has_stale_rows()
                        || gs.last_delta != 0.0
                        || gs.y_cache.is_none())
            })
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if !self.active {
            return; // departed: no work, no reschedule
        }
        // 1. Retransmit unacked packages whose deadline passed.
        if let Some(rel) = self.cfg.reliability {
            self.retransmit_due(ctx, rel);
        }

        // 2. Forward buffered relay traffic (indirect transmission's
        //    store-recombine-forward cycle) together with this wake's
        //    freshly produced Y — relayed parts and local output share the
        //    wake's packages, §4.4's merge at intermediate nodes. The
        //    solves already ran in think() — the engine's (possibly
        //    parallel) compute stage — and buffered their output in
        //    `pending_y`.
        let mut outgoing = std::mem::take(&mut self.relay);
        outgoing.append(&mut self.pending_y);
        if !outgoing.is_empty() {
            self.dispatch(ctx, outgoing);
        }

        // 3. Replication protocol (gated: with `replication == 0` this
        //    wake is byte-for-byte the pre-replication baseline). Adopt
        //    orphaned groups whose owner went silent, then ship fresh
        //    checkpoints on the checkpoint clock — adoption first, so a
        //    just-taken-over group announces itself to *its* replicas in
        //    the same wake.
        if self.cfg.replication > 0 {
            self.scan_takeover(ctx.now());
            if ctx.now() - self.last_checkpoint >= self.cfg.checkpoint_every {
                self.ship_checkpoints(ctx);
                self.last_checkpoint = ctx.now();
            }
        }

        let w = self.sample_wait(ctx);
        ctx.schedule_wake(w);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg>, from: usize, msg: NetMsg) {
        if !self.active {
            return; // a departed node neither relays nor delivers
        }
        let package = match msg {
            NetMsg::Ack { seq } => {
                self.pending.remove(&seq);
                return;
            }
            NetMsg::Checkpoint { snaps } => {
                let now = ctx.now();
                for snap in snaps.iter() {
                    let e = self
                        .replica_store
                        .entry(snap.group)
                        .or_insert_with(|| ReplicaEntry { snap: snap.clone(), last_heard: now });
                    // An out-of-order older frame must not roll back a
                    // newer epoch, but any checkpoint proves the owner
                    // (or its takeover successor) is alive.
                    if snap.epoch >= e.snap.epoch {
                        e.snap = snap.clone();
                    }
                    e.last_heard = now;
                    self.orphan_since.remove(&snap.group);
                }
                return;
            }
            NetMsg::Data { seq, package } => {
                if let Some(seq) = seq {
                    // Ack first — even for duplicates, since the previous
                    // ack may have been lost. Ack frames are header-sized
                    // control traffic; they skip the §4.5 data uplink.
                    self.counters.acks += 1;
                    self.counters.bytes += self.cfg.header_bytes;
                    ctx.send(from, NetMsg::Ack { seq });
                    if !self.seen.insert((from, seq)) {
                        self.counters.duplicates_suppressed += 1;
                        return;
                    }
                }
                package
            }
        };
        // Fire-and-forget packages arrive holding the last `Arc` reference,
        // so the parts move out without a copy; only a reliable-mode sender
        // still holding the payload for retransmission forces a clone.
        let parts = Arc::try_unwrap(package.0).unwrap_or_else(|shared| {
            self.counters.payload_clones += 1;
            (*shared).clone()
        });
        for part in parts {
            if self.owner_of.read()[part.dest_group as usize] == self.me {
                self.deliver_local(&part);
            } else {
                // Buffer for the next wake; recombination with other parts
                // for the same destination happens in dispatch().
                self.relay.push(part);
            }
        }
    }
}

/// Result of a whole-system run.
#[derive(Debug, Clone)]
pub struct NetRunResult {
    /// Relative error vs the centralized fixed point, over time.
    pub rel_err: TimeSeries,
    /// Final relative error.
    pub final_rel_err: f64,
    /// Final global ranks.
    pub final_ranks: Vec<f64>,
    /// Summed per-node network counters.
    pub counters: NetCounters,
    /// The same counters before summing, indexed by overlay node. Sends
    /// (data, lookups, retries) are charged to the sender; acks and
    /// duplicate suppressions to the receiver.
    pub per_node: Vec<NetCounters>,
    /// Wall-clock seconds spent before the event loop started: graph
    /// partitioning, the centralized reference solve, group-context
    /// assembly, and overlay placement. Identical work across engine
    /// configurations, so throughput comparisons should exclude it.
    pub setup_secs: f64,
    /// Wall-clock seconds spent inside the event loop (simulation plus
    /// periodic error sampling) — the denominator for events/sec.
    pub engine_secs: f64,
    /// Wall-clock seconds of the `engine_secs` window spent recomputing
    /// the centralized reference after crawl deltas — measurement-only
    /// overhead (error tracking), not protocol work. Subtract it when
    /// comparing incremental-update engine time against a cold restart.
    pub delta_ref_secs: f64,
    /// Engine counters.
    pub sim_stats: SimStats,
    /// Event-scheduler allocation counters (arena recycling
    /// observability; never part of the replay contract).
    pub sched_stats: SchedStats,
    /// Measured mean route length between group publishers and owners.
    pub mean_route_hops: f64,
    /// Route-cache hit/miss/invalidation counters for the whole run.
    pub route_cache: RouteCacheStats,
}

/// One scheduled churn event, merged from `departures`, `joins`, and
/// `deltas` (the index points into `cfg.deltas`).
enum ChurnEvent {
    Depart(NodeIndex),
    Join { id_seed: u64 },
    Delta(usize),
}

/// Builds and executes a whole-system run, validating churn support and
/// configuration shape up front.
///
/// # Errors
/// [`NetRunError::Churn`] when `departures` are scheduled on CAN or
/// `joins` on anything but Pastry; [`NetRunError::Config`] for malformed
/// values (empty system, non-increasing churn schedules, replication on
/// CAN, degenerate checkpoint/suspicion settings).
pub fn try_run_over_network(g: &WebGraph, cfg: NetRunConfig) -> Result<NetRunResult, NetRunError> {
    try_run_over_network_with_store(g, cfg, None)
}

/// [`try_run_over_network`] with a serving-side publication hook: after
/// every sample slice (the same cadence as the convergence series) the
/// driver publishes each hosted group's rank vector and outer epoch into
/// `store`, so concurrent readers query a consistent, epoch-versioned
/// picture of the run while the engine keeps committing. Publication
/// happens outside the event loop and never mutates node state, so it is
/// bit-neutral: results are identical with or without a store (and the
/// store's converged-group skip logic keeps steady-state publishes cheap).
///
/// The final published view equals [`NetRunResult::final_ranks`] exactly —
/// the last slice ends at `t_end`, where the result itself is assembled.
///
/// # Errors
/// Same as [`try_run_over_network`].
pub fn try_run_over_network_with_store(
    g: &WebGraph,
    cfg: NetRunConfig,
    store: Option<&crate::store::RankStore>,
) -> Result<NetRunResult, NetRunError> {
    let wall_start = std::time::Instant::now();
    cfg.rank.validate(g.n_pages());
    if cfg.k < 1 || cfg.n_nodes < 1 {
        return Err(NetRunError::Config {
            what: "k/n_nodes",
            detail: format!(
                "need at least one group and one node, got k={} n_nodes={}",
                cfg.k, cfg.n_nodes
            ),
        });
    }
    let cfg = Arc::new(cfg);

    if !cfg.departures.is_empty() {
        if matches!(cfg.overlay, OverlayKind::Can { .. }) {
            return Err(ChurnUnsupported { op: "departures", overlay: "CAN" }.into());
        }
        if !cfg.departures.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(NetRunError::Config {
                what: "departures",
                detail: "departure times must be strictly increasing".into(),
            });
        }
    }
    if !cfg.joins.is_empty() {
        match cfg.overlay {
            OverlayKind::Pastry => {}
            OverlayKind::Chord => {
                return Err(ChurnUnsupported { op: "joins", overlay: "Chord" }.into())
            }
            OverlayKind::Can { .. } => {
                return Err(ChurnUnsupported { op: "joins", overlay: "CAN" }.into())
            }
        }
        if !cfg.joins.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(NetRunError::Config {
                what: "joins",
                detail: "join times must be strictly increasing".into(),
            });
        }
    }
    if !cfg.deltas.is_empty() {
        if !cfg.deltas.iter().all(|&(t, _)| t.is_finite() && t >= 0.0) {
            return Err(NetRunError::Config {
                what: "deltas",
                detail: "delta times must be finite and non-negative".into(),
            });
        }
        if !cfg.deltas.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(NetRunError::Config {
                what: "deltas",
                detail: "delta times must be strictly increasing".into(),
            });
        }
    }
    if cfg.replication > 0 {
        if matches!(cfg.overlay, OverlayKind::Can { .. }) {
            return Err(NetRunError::Config {
                what: "replication",
                detail: "the CAN overlay has no replica sets (see DESIGN.md §11); \
                         use Pastry or Chord"
                    .into(),
            });
        }
        if !(cfg.checkpoint_every > 0.0 && cfg.checkpoint_every.is_finite()) {
            return Err(NetRunError::Config {
                what: "checkpoint_every",
                detail: format!("must be positive and finite, got {}", cfg.checkpoint_every),
            });
        }
        if cfg.suspect_after < 1 {
            return Err(NetRunError::Config {
                what: "suspect_after",
                detail: "must be at least 1 missed checkpoint interval".into(),
            });
        }
    }
    if !(cfg.inner_epsilon > 0.0 && cfg.inner_epsilon.is_finite()) {
        return Err(NetRunError::Config {
            what: "inner_epsilon",
            detail: format!("must be positive and finite, got {}", cfg.inner_epsilon),
        });
    }
    if let Some(s) = cfg.adaptive_epsilon {
        if !(s.initial > 0.0 && s.initial.is_finite()) {
            return Err(NetRunError::Config {
                what: "adaptive_epsilon",
                detail: format!("initial tolerance must be positive and finite, got {}", s.initial),
            });
        }
        if !(s.margin > 0.0 && s.margin < 1.0) {
            return Err(NetRunError::Config {
                what: "adaptive_epsilon",
                detail: format!("margin must be in (0, 1), got {}", s.margin),
            });
        }
    }
    let overlay: Arc<RwLock<AnyOverlay>> = Arc::new(RwLock::new(match cfg.overlay {
        OverlayKind::Pastry => {
            AnyOverlay::Pastry(PastryNetwork::with_nodes(cfg.n_nodes, cfg.seed ^ 0x0E0E))
        }
        OverlayKind::Chord => {
            AnyOverlay::Chord(ChordNetwork::with_nodes(cfg.n_nodes, cfg.seed ^ 0x0E0E))
        }
        OverlayKind::Can { d } => {
            AnyOverlay::Can(CanNetwork::with_nodes(cfg.n_nodes, d, cfg.seed ^ 0x0E0E))
        }
    }));
    let key_of: Arc<Vec<u128>> =
        Arc::new((0..cfg.k as u64).map(dpr_overlay::id::key_from_u64).collect());
    let owner_of: Arc<RwLock<Vec<NodeIndex>>> = Arc::new(RwLock::new(
        key_of.iter().map(|&k| overlay.read().as_overlay().responsible(k)).collect(),
    ));
    let cache = Arc::new(RwLock::new(RouteCache::new()));

    let partition = Partition::build(g, &cfg.strategy, cfg.k, 0);
    let mut reference = open_pagerank(g, &cfg.rank).ranks;
    // Run-wide context directory, indexed by group id and shared with
    // every node: static group structure is rebuilt from here (never
    // shipped) when a replica takes over an orphaned group.
    let layout =
        if cfg.unrolled_spmv { MatrixLayout::ImplicitUnrolled } else { MatrixLayout::Implicit };
    let contexts: Arc<RwLock<Vec<Arc<GroupContext>>>> = {
        let mut dir: Vec<Option<Arc<GroupContext>>> = (0..cfg.k).map(|_| None).collect();
        for c in GroupContext::build_all_with_layout(g, &partition, &cfg.rank, layout) {
            let gid = c.group_id() as usize;
            dir[gid] = Some(Arc::new(c));
        }
        Arc::new(RwLock::new(dir.into_iter().map(|c| c.expect("one context per group")).collect()))
    };
    // Draw means for joiners too; uniform_means samples sequentially, so
    // the first n_nodes means are unchanged by the extension.
    let waits =
        WaitModel::uniform_means(cfg.n_nodes + cfg.joins.len(), cfg.t1, cfg.t2, cfg.seed ^ 0xCAFE);

    // Place groups on their owner nodes.
    let mut hosted: Vec<Vec<GroupState>> = (0..cfg.n_nodes).map(|_| Vec::new()).collect();
    let mut hop_total = 0usize;
    let mut hop_count = 0usize;
    for c in contexts.read().iter() {
        let gid = c.group_id() as usize;
        let owner = owner_of.read()[gid];
        // Record the publisher→owner route lengths for reporting.
        for dest in c.efferent_groups() {
            hop_total += overlay.read().as_overlay().route(owner, key_of[dest as usize]).len();
            hop_count += 1;
        }
        hosted[owner].push(GroupState::new(Arc::clone(c)));
    }

    let nodes: Vec<NetNode> = hosted
        .into_iter()
        .enumerate()
        .map(|(i, groups)| NetNode {
            me: i,
            groups,
            overlay: Arc::clone(&overlay),
            owner_of: Arc::clone(&owner_of),
            key_of: Arc::clone(&key_of),
            cache: Arc::clone(&cache),
            relay: Vec::new(),
            pending_y: Vec::new(),
            cfg: Arc::clone(&cfg),
            mean_wait: waits.mean(i),
            uplink_busy_until: 0.0,
            active: true,
            counters: NetCounters::default(),
            next_seq: 0,
            pending: BTreeMap::new(),
            seen: HashSet::new(),
            contexts: Arc::clone(&contexts),
            replica_store: BTreeMap::new(),
            orphan_since: BTreeMap::new(),
            last_checkpoint: f64::NEG_INFINITY,
        })
        .collect();

    // The fault plan takes precedence over the legacy scalar knob.
    let plan = cfg.faults.clone().unwrap_or_else(|| {
        FaultPlan::new().with_latency(0.01).with_default_success(cfg.send_success_prob)
    });
    let mut sim = Simulation::with_plan(nodes, cfg.seed, plan);

    // Merge departures, joins, and crawl deltas into one time-ordered
    // churn schedule (the sort is stable, so coinciding times keep the
    // departures → joins → deltas order deterministically).
    let mut churn: Vec<(f64, ChurnEvent)> = cfg
        .departures
        .iter()
        .map(|&(t, node)| (t, ChurnEvent::Depart(node)))
        .chain(cfg.joins.iter().map(|&(t, id_seed)| (t, ChurnEvent::Join { id_seed })))
        .chain(cfg.deltas.iter().enumerate().map(|(i, &(t, _))| (t, ChurnEvent::Delta(i))))
        .collect();
    churn.sort_by(|a, b| a.0.total_cmp(&b.0));

    let setup_secs = wall_start.elapsed().as_secs_f64();
    // `engine_workers == 1` is the plain sequential event loop (the
    // replay-contract reference); `> 1` takes the batched path, which
    // commits in the identical (time, seq) order and is bit-identical.
    let engine_pool =
        (cfg.engine_workers > 1).then(|| dpr_linalg::pool::Pool::with_workers(cfg.engine_workers));
    let engine_start = std::time::Instant::now();
    let mut delta_ref_secs = 0.0f64;
    let mut rel_err = TimeSeries::new();
    let mut n_pages = g.n_pages();
    let mut churn = churn.into_iter().peekable();
    let mut joined = 0usize;
    // Live-graph state, materialized lazily on the first crawl delta: the
    // mutable graph plus the page→group assignment (extended as pages are
    // inserted; pinned for existing pages).
    let mut live: Option<(WebGraph, Vec<GroupId>)> = None;
    // Tombstoned pages: no group ranks them anymore, so their reference
    // entries are pinned to 0.0 (the centralized solve still hands a
    // tombstone its βE share — rank that never propagates and that the
    // distributed system deliberately stops serving).
    let mut dead: Vec<PageId> = Vec::new();
    // Groups re-solving after a delta: their store publishes are held
    // back — the store keeps serving the pre-delta epoch — until the
    // group's solver re-stalls on the new fixed point.
    let mut resolving: HashSet<GroupId> = HashSet::new();
    let mut t = 0.0;
    while t < cfg.t_end {
        let next_t = (t + cfg.sample_every).min(cfg.t_end);
        // Apply any churn scheduled inside this slice first.
        while let Some(&(ct, _)) = churn.peek() {
            if ct > next_t {
                break;
            }
            let (ct, ev) = churn.next().expect("peeked");
            match &engine_pool {
                Some(pool) => sim.run_until_pooled(ct, pool),
                None => sim.run_until(ct),
            }
            match ev {
                ChurnEvent::Depart(node) => {
                    apply_departure(&mut sim, &overlay, &owner_of, &key_of, node);
                }
                ChurnEvent::Join { id_seed } => {
                    let mean_wait = waits.mean(cfg.n_nodes + joined);
                    joined += 1;
                    apply_join(
                        &mut sim, &overlay, &owner_of, &key_of, &cache, &cfg, &contexts, mean_wait,
                        id_seed,
                    );
                }
                ChurnEvent::Delta(i) => {
                    let (gl, asg) =
                        live.get_or_insert_with(|| (g.clone(), partition.assignment().to_vec()));
                    let report = apply_delta(
                        &mut sim,
                        &cfg,
                        &contexts,
                        layout,
                        gl,
                        asg,
                        &cfg.deltas[i].1,
                        &mut resolving,
                    );
                    if !report.is_noop() {
                        for &p in &report.deleted {
                            dead.push(p);
                        }
                        n_pages = gl.n_pages();
                        let ref_start = std::time::Instant::now();
                        reference = open_pagerank(gl, &cfg.rank).ranks;
                        for &p in &dead {
                            reference[p as usize] = 0.0;
                        }
                        delta_ref_secs += ref_start.elapsed().as_secs_f64();
                    }
                }
            }
        }
        match &engine_pool {
            Some(pool) => sim.run_until_pooled(next_t, pool),
            None => sim.run_until(next_t),
        }
        rel_err.push(next_t, vec_ops::relative_error(&assemble(sim.actors(), n_pages), &reference));
        // A dirtied group leaves the resolving set once its solver has
        // re-stalled on the exact post-delta fixed point (reads state
        // only — bit-neutral to the run).
        if !resolving.is_empty() {
            let actors = sim.actors();
            resolving.retain(|&gid| {
                !actors.iter().any(|n| {
                    n.active
                        && n.groups.iter().any(|gs| {
                            gs.ctx.group_id() == gid
                                && gs.touched.is_empty()
                                && gs.last_delta == 0.0
                        })
                })
            });
        }
        if let Some(store) = store {
            // Group state is only read here: publication cannot perturb
            // the run. Crashed/migrated groups publish from their current
            // host; a group orphaned mid-takeover simply keeps its last
            // published epoch until a survivor re-hosts it; a group still
            // re-solving a crawl delta keeps serving its pre-delta epoch
            // until the new fixed point is reached.
            store.publish(sim.actors().iter().filter(|n| n.active).flat_map(|node| {
                node.groups.iter().filter(|gs| !resolving.contains(&gs.ctx.group_id())).map(|gs| {
                    crate::store::GroupPublish {
                        group: gs.ctx.group_id(),
                        epoch: gs.outer_iterations,
                        pages: gs.ctx.pages(),
                        ranks: &gs.r,
                    }
                })
            }));
        }
        t = next_t;
    }
    if let Some(store) = store {
        // Final flush, gate lifted: a group still mid-resolve at `t_end`
        // publishes its best current state, so the served view equals
        // `final_ranks` exactly (already-published groups skip via the
        // store's bit-identical-republish path).
        store.publish(sim.actors().iter().filter(|n| n.active).flat_map(|node| {
            node.groups.iter().map(|gs| crate::store::GroupPublish {
                group: gs.ctx.group_id(),
                epoch: gs.outer_iterations,
                pages: gs.ctx.pages(),
                ranks: &gs.r,
            })
        }));
    }

    let engine_secs = engine_start.elapsed().as_secs_f64();
    let final_ranks = assemble(sim.actors(), n_pages);
    let per_node: Vec<NetCounters> = sim
        .actors()
        .iter()
        .map(|n| {
            let mut c = n.counters;
            c.rows_recomputed = n.groups.iter().map(|g| g.afferent.rows_recomputed()).sum();
            c.inner_sweeps = n.groups.iter().map(|g| g.inner_sweeps).sum();
            c.sweeps_saved = n.groups.iter().map(|g| g.sweeps_saved).sum();
            c
        })
        .collect();
    let counters = per_node.iter().fold(NetCounters::default(), |mut acc, c| {
        acc.data_messages += c.data_messages;
        acc.lookup_messages += c.lookup_messages;
        acc.bytes += c.bytes;
        acc.retries += c.retries;
        acc.acks += c.acks;
        acc.duplicates_suppressed += c.duplicates_suppressed;
        acc.retry_exhausted += c.retry_exhausted;
        acc.coalesced_parts += c.coalesced_parts;
        acc.payload_clones += c.payload_clones;
        acc.rows_recomputed += c.rows_recomputed;
        acc.gave_up += c.gave_up;
        acc.checkpoints_sent += c.checkpoints_sent;
        acc.checkpoint_bytes += c.checkpoint_bytes;
        acc.takeovers_warm += c.takeovers_warm;
        acc.takeovers_cold += c.takeovers_cold;
        acc.delta_messages += c.delta_messages;
        acc.delta_bytes += c.delta_bytes;
        acc.inner_sweeps += c.inner_sweeps;
        acc.sweeps_saved += c.sweeps_saved;
        acc
    });
    let route_cache = cache.read().stats();
    Ok(NetRunResult {
        final_rel_err: vec_ops::relative_error(&final_ranks, &reference),
        rel_err,
        final_ranks,
        counters,
        per_node,
        setup_secs,
        engine_secs,
        delta_ref_secs,
        sim_stats: sim.stats(),
        sched_stats: sim.sched_stats(),
        mean_route_hops: if hop_count == 0 { 0.0 } else { hop_total as f64 / hop_count as f64 },
        route_cache,
    })
}

/// Crashes `node`: removes it from the overlay, recomputes group
/// ownership, and discards everything the node held — its ranking state
/// dies with it.
///
/// What happens to the orphaned groups depends on the replication mode:
///
/// * `replication == 0` (the baseline): the driver migrates them to the
///   new responsible nodes *with all ranking state lost* (R back to 0,
///   afferent history cleared) — the peers' next Y deliveries rebuild it.
///   This oracle re-hosting is instant but cold.
/// * `replication > 0`: nobody is told anything. The surviving replicas
///   notice the owner's silence by checkpoint timeout
///   ([`NetNode::scan_takeover`]) and re-host the groups warm from their
///   newest snapshots — detection costs real windows, recovery starts
///   near the fixed point instead of at zero.
fn apply_departure(
    sim: &mut Simulation<NetNode>,
    overlay: &Arc<RwLock<AnyOverlay>>,
    owner_of: &Arc<RwLock<Vec<NodeIndex>>>,
    key_of: &Arc<Vec<u128>>,
    node: NodeIndex,
) {
    overlay.write().depart(node).expect("churn support validated before the run");
    {
        let ov = overlay.read();
        let mut owners = owner_of.write();
        for (gid, slot) in owners.iter_mut().enumerate() {
            *slot = ov.as_overlay().responsible(key_of[gid]);
        }
    }
    let actors = sim.actors_mut();
    actors[node].active = false;
    let replication = actors[node].cfg.replication;
    let orphaned = std::mem::take(&mut actors[node].groups);
    actors[node].relay.clear();
    actors[node].pending_y.clear();
    actors[node].pending.clear();
    actors[node].replica_store.clear();
    actors[node].orphan_since.clear();
    if replication > 0 {
        // Crash-survivable mode: the state is simply gone; takeover is
        // the replicas' job, driven by their own failure detectors.
        return;
    }
    let owners = owner_of.read();
    for gs in orphaned {
        let gid = gs.ctx.group_id() as usize;
        let new_owner = owners[gid];
        actors[new_owner].groups.push(GroupState::new(gs.ctx));
    }
}

/// Joins a fresh node (id derived from `id_seed`): inserts it into the
/// overlay, recomputes group ownership, spawns its actor mid-run, and
/// hands over the groups it is now responsible for *with their ranking
/// state intact* — a graceful handoff, unlike the state loss of
/// [`apply_departure`].
#[allow(clippy::too_many_arguments)]
fn apply_join(
    sim: &mut Simulation<NetNode>,
    overlay: &Arc<RwLock<AnyOverlay>>,
    owner_of: &Arc<RwLock<Vec<NodeIndex>>>,
    key_of: &Arc<Vec<u128>>,
    cache: &Arc<RwLock<RouteCache>>,
    cfg: &Arc<NetRunConfig>,
    contexts: &Arc<RwLock<Vec<Arc<GroupContext>>>>,
    mean_wait: f64,
    id_seed: u64,
) {
    let new = overlay.write().join(id_seed).expect("churn support validated before the run");
    {
        let ov = overlay.read();
        let mut owners = owner_of.write();
        for (gid, slot) in owners.iter_mut().enumerate() {
            *slot = ov.as_overlay().responsible(key_of[gid]);
        }
    }
    let idx = sim.add_actor(NetNode {
        me: new,
        groups: Vec::new(),
        overlay: Arc::clone(overlay),
        owner_of: Arc::clone(owner_of),
        key_of: Arc::clone(key_of),
        cache: Arc::clone(cache),
        relay: Vec::new(),
        pending_y: Vec::new(),
        cfg: Arc::clone(cfg),
        mean_wait,
        uplink_busy_until: 0.0,
        active: true,
        counters: NetCounters::default(),
        next_seq: 0,
        pending: BTreeMap::new(),
        seen: HashSet::new(),
        contexts: Arc::clone(contexts),
        replica_store: BTreeMap::new(),
        orphan_since: BTreeMap::new(),
        last_checkpoint: f64::NEG_INFINITY,
    });
    debug_assert_eq!(idx, new, "overlay handle and actor index must agree");

    // Graceful handoff: any group no longer hosted by its owner moves,
    // state and all.
    let owners = owner_of.read();
    let actors = sim.actors_mut();
    let mut migrating = Vec::new();
    for (host, actor) in actors.iter_mut().enumerate() {
        let mut i = 0;
        while i < actor.groups.len() {
            let gid = actor.groups[i].ctx.group_id() as usize;
            if owners[gid] != host {
                migrating.push(actor.groups.remove(i));
            } else {
                i += 1;
            }
        }
    }
    for gs in migrating {
        let gid = gs.ctx.group_id() as usize;
        actors[owners[gid]].groups.push(gs);
    }
}

/// Applies one scheduled crawl delta to the running system — the
/// incremental-ranking path. The graph is patched in place and only the
/// groups the delta actually dirties are touched:
///
/// * a dirty group whose pages all kept their internal out-rows (pure
///   out-degree edits, including pages left dangling by a deletion)
///   gets its matrix *rescaled in place* — same entry structure, new
///   `α/d(u)` column factors;
/// * any other dirty group (links rewired, pages inserted or tombstoned)
///   gets a one-group [`GroupContext::rebuild`] against the new graph —
///   cost proportional to the group, not the web;
/// * each dirty group's host *warm-starts*: surviving pages keep their
///   converged ranks, the afferent history replays from the last
///   accepted raw payloads (re-localized against the new context, so
///   shifted local indices and dropped pages are handled by
///   construction), and the outer epoch keeps counting — the solver
///   resumes from the previous fixed point instead of from zero;
/// * every group — dirty or not — forgets the `Y` of each dirty source
///   that no longer links into it at all. Such a source never publishes
///   to it again, so without the retraction its last `Y` would stay in
///   `X` forever and the group would settle on a wrong fixed point (the
///   asynchronous-iteration premise that every input eventually reflects
///   current values, Kollias et al.). Parts still in flight from it are
///   dropped on arrival ([`NetNode::still_links`]);
/// * every other group keeps its context, its ranks, and its stall
///   short-circuit — it never notices the delta;
/// * each node owning at least one dirty group is charged one delta
///   shipment (the `DPRG1` delta-record wire bytes plus a header) — the
///   §4.5-style price of the crawler pushing the update into the
///   overlay.
///
/// Inserted pages are assigned by the run's own strategy (crawl epoch 0,
/// like the initial partition); existing pages keep their pinned
/// assignment, so a `SplitSite` op affects future assignments only (the
/// DESIGN.md §14 caveat for URL-hashed strategies). Replica checkpoints
/// of dirty groups are purged — they describe the pre-delta group.
///
/// Runs in the sequential driver between engine slices, like the other
/// churn events, so worker counts cannot reorder it: the replay and
/// cross-worker bit-identity contracts hold with deltas exactly as
/// without. Returns the delta report; the caller refreshes the
/// centralized reference and the page count from it.
#[allow(clippy::too_many_arguments)]
fn apply_delta(
    sim: &mut Simulation<NetNode>,
    cfg: &Arc<NetRunConfig>,
    contexts: &Arc<RwLock<Vec<Arc<GroupContext>>>>,
    layout: MatrixLayout,
    g_live: &mut WebGraph,
    assignment: &mut Vec<GroupId>,
    delta: &GraphDelta,
    resolving: &mut HashSet<GroupId>,
) -> dpr_graph::DeltaReport {
    let (g2, report) = delta.apply_report(g_live);
    *g_live = g2;
    // Every new id slot gets an assignment — including pages inserted and
    // tombstoned within the same delta, which still occupy a slot.
    for p in assignment.len() as PageId..g_live.n_pages() as PageId {
        assignment.push(cfg.strategy.assign(g_live, p, cfg.k, 0));
    }
    // Classify the dirty groups (BTreeMap: patch order is deterministic).
    // `true` = structural (page set or link structure changed, full
    // one-group rebuild); `false` = every dirty page kept its internal
    // out-row, so an in-place column rescale suffices.
    let ext_only: HashSet<PageId> = report.ext_only_pages.iter().copied().collect();
    let mut dirty: BTreeMap<GroupId, bool> = BTreeMap::new();
    for &p in &report.touched_pages {
        let structural = dirty.entry(assignment[p as usize]).or_insert(false);
        *structural |= !ext_only.contains(&p);
    }
    for &p in report.inserted.iter().chain(report.deleted.iter()) {
        dirty.insert(assignment[p as usize], true);
    }
    if dirty.is_empty() {
        return report; // an empty delta is bit-invisible
    }
    {
        let mut dir = contexts.write();
        for (&gid, &structural) in &dirty {
            let old_ctx = &dir[gid as usize];
            let new_ctx = if structural {
                let mut pages: Vec<PageId> = old_ctx
                    .pages()
                    .iter()
                    .copied()
                    .filter(|p| report.deleted.binary_search(p).is_err())
                    .collect();
                // Inserted ids all exceed the old page count, so appending
                // the group's share keeps `pages` sorted.
                pages.extend(
                    report.inserted.iter().copied().filter(|&p| assignment[p as usize] == gid),
                );
                Arc::new(GroupContext::rebuild(g_live, assignment, &cfg.rank, gid, pages, layout))
            } else {
                let mut c = (**old_ctx).clone();
                c.rescale_in_place(g_live, &cfg.rank);
                Arc::new(c)
            };
            dir[gid as usize] = new_ctx;
        }
    }
    // Warm-restart each dirty group's hosted state and price the delta
    // shipment to the nodes owning dirty groups.
    let dir = contexts.read();
    let actors = sim.actors_mut();
    let wire = dpr_graph::io::delta_wire_bytes(delta) + cfg.header_bytes;
    let mut charged: BTreeSet<usize> = BTreeSet::new();
    for &gid in dirty.keys() {
        resolving.insert(gid);
        // Stale pre-delta checkpoints are useless for a warm takeover;
        // purge them everywhere (a frame already in flight is caught by
        // the length guard in `install_group`).
        for a in actors.iter_mut() {
            a.replica_store.remove(&gid);
        }
        let new_ctx = Arc::clone(&dir[gid as usize]);
        let Some((host, slot)) = actors.iter().enumerate().find_map(|(h, a)| {
            a.groups.iter().position(|gs| gs.ctx.group_id() == gid).map(|i| (h, i))
        }) else {
            // Orphaned by a crash: the eventual takeover rebuilds from
            // the already-updated context directory.
            continue;
        };
        charged.insert(host);
        let node = &mut actors[host];
        let mut gs = GroupState::new(new_ctx);
        {
            let old = &node.groups[slot];
            // Surviving pages keep their converged ranks; inserted pages
            // start at zero.
            for (li, &p) in gs.ctx.pages().iter().enumerate() {
                if let Some(j) = old.ctx.local_index(p) {
                    gs.r[li] = old.r[j];
                }
            }
            // Replay the afferent history from the last accepted raw
            // payloads — exactly what re-delivering those messages would
            // do under the new context (sources cut off by this delta are
            // retracted below).
            for (&src, payload) in &old.last_payload {
                gs.afferent.set(src, gs.ctx.localize(payload));
                gs.last_payload.insert(src, Arc::clone(payload));
            }
            gs.outer_iterations = old.outer_iterations;
        }
        node.groups[slot] = gs;
    }
    // Only a dirty group's links changed, so only a dirty source can have
    // lost its last link into some group.
    for gs in actors.iter_mut().flat_map(|a| a.groups.iter_mut()) {
        let gid = gs.ctx.group_id();
        for &src in dirty.keys() {
            if !dir[src as usize].links_to(gid) {
                gs.afferent.retract(src);
                gs.last_payload.remove(&src);
            }
        }
    }
    drop(dir);
    for host in charged {
        let c = &mut actors[host].counters;
        c.delta_messages += 1;
        c.delta_bytes += wire;
        c.bytes += wire;
    }
    report
}

/// The owner node of every group under `cfg` — the same DHT-responsibility
/// mapping `try_run_over_network` computes at placement time, rebuilt from
/// the config's overlay seed without running a simulation. Tests and
/// benches use it to pick a crash victim that actually hosts groups (e.g.
/// `group_owners(&cfg)[0]` is the owner of group 0).
#[must_use]
pub fn group_owners(cfg: &NetRunConfig) -> Vec<NodeIndex> {
    let overlay = match cfg.overlay {
        OverlayKind::Pastry => {
            AnyOverlay::Pastry(PastryNetwork::with_nodes(cfg.n_nodes, cfg.seed ^ 0x0E0E))
        }
        OverlayKind::Chord => {
            AnyOverlay::Chord(ChordNetwork::with_nodes(cfg.n_nodes, cfg.seed ^ 0x0E0E))
        }
        OverlayKind::Can { d } => {
            AnyOverlay::Can(CanNetwork::with_nodes(cfg.n_nodes, d, cfg.seed ^ 0x0E0E))
        }
    };
    let ov = overlay.as_overlay();
    (0..cfg.k as u64).map(|g| ov.responsible(dpr_overlay::id::key_from_u64(g))).collect()
}

fn assemble(nodes: &[NetNode], n_pages: usize) -> Vec<f64> {
    let mut global = vec![0.0; n_pages];
    for node in nodes {
        for gs in &node.groups {
            for (li, &p) in gs.ctx.pages().iter().enumerate() {
                global[p as usize] = gs.r[li];
            }
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
    use dpr_graph::generators::toy;
    use dpr_graph::DeltaOp;
    use dpr_partition::Strategy;

    /// Test convenience: every config in this module schedules churn the
    /// overlay supports, so unwrap the `Result` here instead of threading
    /// `expect` through every call site.
    fn run_over_network(g: &WebGraph, cfg: NetRunConfig) -> NetRunResult {
        try_run_over_network(g, cfg).expect("test configs use supported churn schedules")
    }

    fn quick(transmission: Transmission) -> NetRunConfig {
        NetRunConfig {
            k: 24,
            n_nodes: 24,
            transmission,
            strategy: Strategy::HashByUrl,
            t_end: 300.0,
            ..NetRunConfig::default()
        }
    }

    #[test]
    fn direct_mode_converges_over_overlay() {
        let g = toy::two_cliques(6);
        let res = run_over_network(&g, quick(Transmission::Direct));
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
        assert!(res.counters.lookup_messages > 0, "direct mode must pay lookups");
    }

    #[test]
    fn indirect_mode_converges_over_overlay() {
        let g = toy::two_cliques(6);
        let res = run_over_network(&g, quick(Transmission::Indirect));
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
        assert_eq!(res.counters.lookup_messages, 0, "indirect mode never looks up");
    }

    #[test]
    fn indirect_sends_fewer_messages_than_direct() {
        let g = edu_domain(&EduDomainConfig {
            n_pages: 3_000,
            n_sites: 30,
            ..EduDomainConfig::default()
        });
        let k = 48;
        let run =
            |t| run_over_network(&g, NetRunConfig { k, n_nodes: k, t_end: 150.0, ..quick(t) });
        let d = run(Transmission::Direct);
        let i = run(Transmission::Indirect);
        assert!(d.final_rel_err < 1e-3);
        assert!(i.final_rel_err < 1e-3);
        let d_total = d.counters.data_messages + d.counters.lookup_messages;
        let i_total = i.counters.data_messages;
        assert!(i_total < d_total, "indirect {i_total} should beat direct {d_total} messages");
    }

    #[test]
    fn fewer_nodes_than_groups_collocates() {
        // 32 groups on 4 overlay nodes: several groups per node, including
        // group-local deliveries.
        let g = toy::complete(24);
        let res = run_over_network(
            &g,
            NetRunConfig {
                k: 32,
                n_nodes: 4,
                strategy: Strategy::HashByUrl,
                t_end: 300.0,
                ..NetRunConfig::default()
            },
        );
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn lossy_network_still_converges() {
        let g = toy::two_cliques(5);
        let res = run_over_network(
            &g,
            NetRunConfig { send_success_prob: 0.8, t_end: 900.0, ..quick(Transmission::Indirect) },
        );
        assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
        assert!(res.sim_stats.sends_dropped > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = toy::two_cliques(4);
        let run = || run_over_network(&g, quick(Transmission::Indirect));
        let a = run();
        let b = run();
        assert_eq!(a.final_ranks, b.final_ranks);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn converges_on_every_overlay_kind() {
        let g = toy::two_cliques(5);
        for overlay in [OverlayKind::Pastry, OverlayKind::Chord, OverlayKind::Can { d: 2 }] {
            let res =
                run_over_network(&g, NetRunConfig { overlay, ..quick(Transmission::Indirect) });
            assert!(res.final_rel_err < 1e-4, "{overlay:?}: rel err {}", res.final_rel_err);
        }
    }

    #[test]
    fn tight_bottleneck_slows_convergence() {
        // §4.5's B as queueing: an uplink that cannot keep up with the Y
        // traffic must push the 1%-error crossing later, but never break
        // convergence.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 900.0,
            ..NetRunConfig::default()
        };
        let fast = run_over_network(&g, base.clone());
        let slow = run_over_network(
            &g,
            NetRunConfig { bottleneck_bytes_per_time: Some(20_000.0), ..base },
        );
        assert!(fast.final_rel_err < 1e-3);
        assert!(slow.final_rel_err < 1e-2, "rel err {}", slow.final_rel_err);
        let tf = fast.rel_err.first_time_below(0.01).expect("fast hits 1%");
        let ts = slow.rel_err.first_time_below(0.01).expect("slow hits 1%");
        assert!(ts > tf, "bottleneck should delay convergence: {ts} vs {tf}");
    }

    #[test]
    fn ranking_recovers_from_a_node_crash() {
        // A node hosting groups crashes mid-run: its state is lost, its
        // groups migrate cold to the new responsible nodes, and the system
        // re-converges — quantitatively: the error spikes above the
        // converged level, then returns below the pre-crash tolerance
        // within a bounded number of sample windows.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 500.0,
            sample_every: 2.0,
            ..NetRunConfig::default()
        };
        let crash = 120.0;
        // The owner of group 0 hosts ranking state by construction — no
        // probe run needed to find a meaningful victim.
        let victim = group_owners(&base)[0];
        let res = run_over_network(
            &g,
            NetRunConfig { departures: vec![(crash, victim)], ..base.clone() },
        );
        let tol = 1e-3;
        let before = res.rel_err.value_at(crash - 1.0).unwrap();
        assert!(before < tol, "must converge before the crash: {before}");
        let after: Vec<(f64, f64)> =
            res.rel_err.points().iter().copied().filter(|&(t, _)| t > crash).collect();
        let spike = after.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        assert!(spike > before * 5.0, "state loss must perturb the ranks: spike {spike}");
        let recovered_at = after
            .iter()
            .find(|&&(_, v)| v < tol)
            .map(|&(t, _)| t)
            .expect("error must drop back below the pre-crash tolerance");
        let windows = ((recovered_at - crash) / base.sample_every).round() as u64;
        assert!(
            windows <= 60,
            "cold re-convergence took {windows} windows (recovered at t = {recovered_at})"
        );
        assert!(res.final_rel_err < tol, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn crash_spike_then_reconvergence_is_visible() {
        let g = toy::two_cliques(6);
        let base = NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 1.0,
            ..NetRunConfig::default()
        };
        // Crash every node once except node 0, late enough that the system
        // converged first; at least one crash must perturb the ranks.
        let res = run_over_network(
            &g,
            NetRunConfig {
                departures: (1..8).map(|i| (100.0 + 10.0 * i as f64, i)).collect(),
                ..base
            },
        );
        let before = res.rel_err.value_at(99.0).unwrap();
        assert!(before < 1e-3, "should converge before the crashes: {before}");
        let spike = res
            .rel_err
            .points()
            .iter()
            .filter(|&&(t, _)| t > 100.0)
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(spike > before * 5.0, "crashes should perturb ranks: spike {spike}");
        assert!(res.final_rel_err < 1e-3, "must re-converge: {}", res.final_rel_err);
    }

    #[test]
    fn departures_rejected_on_can() {
        let g = toy::cycle(4);
        let err = try_run_over_network(
            &g,
            NetRunConfig {
                overlay: OverlayKind::Can { d: 2 },
                departures: vec![(1.0, 0)],
                ..NetRunConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, NetRunError::Churn(ChurnUnsupported { op: "departures", overlay: "CAN" }));
        assert!(err.to_string().contains("not supported on the CAN overlay"));
    }

    #[test]
    fn joins_rejected_on_chord_and_can() {
        let g = toy::cycle(4);
        for overlay in [OverlayKind::Chord, OverlayKind::Can { d: 2 }] {
            let err = try_run_over_network(
                &g,
                NetRunConfig { overlay, joins: vec![(1.0, 77)], ..NetRunConfig::default() },
            )
            .unwrap_err();
            match err {
                NetRunError::Churn(c) => assert_eq!(c.op, "joins"),
                other => panic!("expected a churn error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_configs_are_rejected_with_structured_errors() {
        // Formerly panicking validations: a bad config from a CLI flag or
        // an experiment script must fail the run, not abort the process.
        let g = toy::cycle(4);
        let what = |cfg: NetRunConfig| match try_run_over_network(&g, cfg).unwrap_err() {
            NetRunError::Config { what, .. } => what,
            other => panic!("expected a config error, got {other:?}"),
        };
        let base = NetRunConfig::default;
        assert_eq!(what(NetRunConfig { k: 0, ..base() }), "k/n_nodes");
        assert_eq!(what(NetRunConfig { n_nodes: 0, ..base() }), "k/n_nodes");
        assert_eq!(
            what(NetRunConfig { departures: vec![(5.0, 1), (5.0, 2)], ..base() }),
            "departures"
        );
        assert_eq!(what(NetRunConfig { joins: vec![(9.0, 1), (5.0, 2)], ..base() }), "joins");
        assert_eq!(
            what(NetRunConfig { replication: 1, checkpoint_every: 0.0, ..base() }),
            "checkpoint_every"
        );
        assert_eq!(
            what(NetRunConfig { replication: 1, checkpoint_every: f64::INFINITY, ..base() }),
            "checkpoint_every"
        );
        assert_eq!(
            what(NetRunConfig { replication: 1, suspect_after: 0, ..base() }),
            "suspect_after"
        );
        assert_eq!(
            what(NetRunConfig { replication: 1, overlay: OverlayKind::Can { d: 2 }, ..base() }),
            "replication"
        );
        for eps in [0.0, -1e-10, f64::INFINITY, f64::NAN] {
            assert_eq!(what(NetRunConfig { inner_epsilon: eps, ..base() }), "inner_epsilon");
        }
        for bad in [
            AdaptiveEpsilon { initial: 0.0, ..AdaptiveEpsilon::default() },
            AdaptiveEpsilon { initial: f64::NAN, ..AdaptiveEpsilon::default() },
            AdaptiveEpsilon { margin: 0.0, ..AdaptiveEpsilon::default() },
            AdaptiveEpsilon { margin: 1.0, ..AdaptiveEpsilon::default() },
        ] {
            assert_eq!(
                what(NetRunConfig { adaptive_epsilon: Some(bad), ..base() }),
                "adaptive_epsilon",
                "{bad:?} must be rejected"
            );
        }
        let err = try_run_over_network(&g, NetRunConfig { k: 0, ..base() }).unwrap_err();
        assert!(err.to_string().contains("invalid net-run config"));
    }

    #[test]
    fn inner_solver_strings_parse_or_reject_structurally() {
        assert_eq!("jacobi".parse::<InnerSolver>().unwrap(), InnerSolver::Jacobi);
        assert_eq!("gauss-seidel".parse::<InnerSolver>().unwrap(), InnerSolver::GaussSeidel);
        assert_eq!("gs".parse::<InnerSolver>().unwrap(), InnerSolver::GaussSeidel);
        for bad in ["frobnicate", "sor:1.1", "sor:", "gauss_seidel", "Jacobi", ""] {
            match bad.parse::<InnerSolver>().unwrap_err() {
                NetRunError::Config { what, .. } => assert_eq!(what, "inner_solver"),
                other => panic!("expected a config error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn can_churn_gap_is_pinned() {
        // CAN's departure repair (zone merging) is deliberately out of
        // scope — see DESIGN.md §11. Pin the gap at the overlay seam so a
        // future implementation must flip this test consciously, and check
        // the replication layer refuses to start on CAN rather than
        // silently running with empty replica sets.
        let mut ov = AnyOverlay::Can(CanNetwork::with_nodes(8, 2, 1));
        assert_eq!(
            ov.depart(3).unwrap_err(),
            ChurnUnsupported { op: "departures", overlay: "CAN" }
        );
        assert!(
            ov.as_overlay().replicas(dpr_overlay::id::key_from_u64(0), 2).is_empty(),
            "CAN keeps the Overlay::replicas default: no replica sets"
        );
        let g = toy::cycle(4);
        let err = try_run_over_network(
            &g,
            NetRunConfig {
                overlay: OverlayKind::Can { d: 2 },
                replication: 1,
                ..NetRunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, NetRunError::Config { what: "replication", .. }));
    }

    #[test]
    fn chord_departures_reconverge() {
        // The former panic path: Chord now repairs successors and fingers
        // on departure and the ranking survives the migration.
        let g = toy::two_cliques(5);
        let res = run_over_network(
            &g,
            NetRunConfig {
                overlay: OverlayKind::Chord,
                departures: vec![(60.0, 2), (90.0, 5)],
                t_end: 400.0,
                ..quick(Transmission::Indirect)
            },
        );
        assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn joins_hand_over_groups_gracefully() {
        let g = toy::two_cliques(5);
        let base = NetRunConfig {
            n_nodes: 8, // few nodes: joiners very likely take over groups
            t_end: 400.0,
            ..quick(Transmission::Indirect)
        };
        let res = run_over_network(
            &g,
            NetRunConfig { joins: vec![(50.0, 901), (80.0, 902), (110.0, 903)], ..base.clone() },
        );
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
        // Handoff keeps state: the error curve never spikes back above the
        // pre-join level once converged (graceful, not a crash).
        let before = res.rel_err.value_at(49.0).unwrap();
        let after_max = res
            .rel_err
            .points()
            .iter()
            .filter(|&&(t, _)| t > 50.0)
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(
            after_max <= before * 1.5 + 1e-12,
            "joins must not perturb ranks: before {before}, after max {after_max}"
        );
    }

    #[test]
    fn reliable_delivery_suppresses_duplicates_and_acks() {
        let g = toy::two_cliques(5);
        let res = run_over_network(
            &g,
            NetRunConfig {
                send_success_prob: 0.5,
                reliability: Some(Reliability::default()),
                t_end: 300.0,
                ..quick(Transmission::Indirect)
            },
        );
        assert!(res.counters.acks > 0, "acks must flow");
        assert!(res.counters.retries > 0, "50% loss must trigger retries");
        assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn reliability_is_quiet_on_a_perfect_network() {
        let g = toy::two_cliques(4);
        let res = run_over_network(
            &g,
            NetRunConfig {
                reliability: Some(Reliability::default()),
                ..quick(Transmission::Indirect)
            },
        );
        assert_eq!(res.counters.retries, 0);
        assert_eq!(res.counters.duplicates_suppressed, 0);
        assert_eq!(res.counters.retry_exhausted, 0);
        assert_eq!(res.counters.gave_up, 0, "no update may be silently abandoned");
        assert!(res.counters.acks >= res.counters.data_messages);
        assert!(res.final_rel_err < 1e-4);
    }

    #[test]
    fn package_clones_share_the_payload_allocation() {
        // The retransmit path clones `Package`s; payloads must be shared,
        // never copied.
        let parts = Arc::new(vec![YPart {
            src_group: 0,
            dest_group: 1,
            entries: Arc::new(vec![(0, 0.5)]),
        }]);
        let original = Package(Arc::clone(&parts));
        let retransmitted = original.clone();
        assert!(Arc::ptr_eq(&original.0, &retransmitted.0));
    }

    #[test]
    fn retransmitted_bytes_match_the_original_send() {
        // On a 2-node overlay every node's data packages have one constant
        // payload size (the same parts structure every wake). Solve that
        // size per node from a clean run, then check a partition-stressed
        // run — where every data message past the first attempt is a
        // retransmission sharing the original's payload — against the same
        // per-node accounting identity: bytes = data·P + acks·header. Any
        // retransmission that put different bytes on the wire than its
        // original breaks the identity.
        let g = toy::two_cliques(4);
        let base = NetRunConfig {
            k: 2,
            n_nodes: 2,
            strategy: Strategy::HashByUrl,
            reliability: Some(Reliability::default()),
            t_end: 120.0,
            ..quick(Transmission::Indirect)
        };
        let clean = run_over_network(&g, base.clone());
        let stressed = run_over_network(
            &g,
            NetRunConfig {
                faults: Some(FaultPlan::new().with_latency(0.01).with_partition(20.0, 45.0, &[0])),
                ..base
            },
        );
        assert!(stressed.counters.retries > 0, "the partition must force retransmissions");
        let hdr = 40u64;
        // On two nodes each sender emits the same parts structure every
        // wake, so all of one node's packages share a single payload size.
        // Solve it from the per-node byte identity and require the
        // partition-stressed run — where the extra data messages are
        // retransmissions sharing the original send's payload — to satisfy
        // the identity with the *same* size (both runs place groups
        // identically).
        let solve = |c: &NetCounters| {
            if c.data_messages == 0 {
                return None;
            }
            let payload = c.bytes - c.acks * hdr;
            assert_eq!(
                payload % c.data_messages,
                0,
                "bytes must be an integer number of equal-sized packages"
            );
            Some(payload / c.data_messages)
        };
        assert_eq!(clean.per_node.len(), stressed.per_node.len());
        let mut senders = 0;
        for (c, s) in clean.per_node.iter().zip(&stressed.per_node) {
            assert_eq!(solve(c), solve(s));
            senders += usize::from(c.data_messages > 0);
        }
        assert!(senders > 0, "the topology must produce cross-node traffic");
        // And the retransmitted payloads were *correct*: ranking still
        // reaches the centralized fixed point after the partition heals.
        assert!(stressed.final_rel_err < 1e-3, "rel err {}", stressed.final_rel_err);
    }

    #[test]
    fn direct_coalescing_batches_per_owner() {
        // With fewer nodes than groups every node hosts several groups, so
        // a sender has multiple parts bound for the same owner per wake;
        // §4.4 batching must collapse them into one data message each —
        // while still pricing every part's own §4.5 lookup — without
        // disturbing the final ranks. The numbers are what per-part sends
        // (one data message per part, removed from the engine) did on
        // this run, rank bits included as an FNV-1a digest.
        let (per_part_ranks, per_part_messages, per_part_bytes, lookups) =
            (0xee5f_da0d_15a7_50fb_u64, 9_732, 2_048_080, 9_732);
        let g = toy::two_cliques(6);
        let res = run_over_network(&g, NetRunConfig { n_nodes: 6, ..quick(Transmission::Direct) });
        let bits: Vec<u8> =
            res.final_ranks.iter().flat_map(|r| r.to_bits().to_le_bytes()).collect();
        let digest = dpr_graph::urls::fnv1a(&bits);
        assert_eq!(digest, per_part_ranks, "batching must be rank-neutral");
        assert!(
            res.counters.data_messages < per_part_messages,
            "batching must cut data messages: {} vs {per_part_messages}",
            res.counters.data_messages
        );
        assert!(res.counters.bytes < per_part_bytes);
        assert_eq!(
            res.counters.lookup_messages, lookups,
            "batched parts still pay their own lookups"
        );
    }

    #[test]
    fn engine_workers_are_bit_invisible() {
        // The tentpole contract: any worker count replays the sequential
        // engine bit for bit — ranks, cost counters, engine stats, the
        // whole error time series, and even the order-sensitive route
        // cache bookkeeping.
        let g = toy::two_cliques(6);
        let base = NetRunConfig {
            faults: Some(
                FaultPlan::new()
                    .with_latency(0.01)
                    .with_default_success(0.85)
                    .with_jitter(dpr_sim::Jitter::Uniform { max: 0.005 })
                    .with_straggler(3, 2.0, 1.5),
            ),
            t_end: 250.0,
            ..quick(Transmission::Indirect)
        };
        let run = |workers| {
            run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
        };
        let seq = run(1);
        assert_eq!(seq.sched_stats.batches, 0, "one worker is the plain sequential loop");
        for workers in [2, 4, 8] {
            let par = run(workers);
            assert_eq!(
                par.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                seq.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                "rank bits diverged at {workers} workers"
            );
            assert_eq!(par.counters, seq.counters, "counters diverged at {workers} workers");
            assert_eq!(par.per_node, seq.per_node);
            assert_eq!(par.sim_stats, seq.sim_stats, "engine stats diverged at {workers} workers");
            assert_eq!(par.rel_err.points(), seq.rel_err.points());
            assert_eq!(par.route_cache.hits, seq.route_cache.hits);
            assert_eq!(par.route_cache.misses, seq.route_cache.misses);
            assert!(par.sched_stats.batches > 0, "parallel runs must actually batch");
            assert!(par.sched_stats.max_batch >= 2, "no same-window parallelism exposed");
        }
    }

    #[test]
    fn inner_solver_modes_are_bit_identical_across_workers_and_replays() {
        // Each non-default mode must replay against its *own* reference bit
        // for bit — ranks, counters (including the new sweep counters),
        // engine stats, the whole error series — at every worker count,
        // under a lossy fault plan. The solves are per-node sequential
        // arithmetic, so worker count can only reorder scheduling, never
        // the bits.
        let g = toy::two_cliques(5);
        let modes: [(InnerSolver, Option<AdaptiveEpsilon>); 2] = [
            (InnerSolver::GaussSeidel, None),
            (InnerSolver::GaussSeidel, Some(AdaptiveEpsilon::default())),
        ];
        for (inner_solver, adaptive_epsilon) in modes {
            let base = NetRunConfig {
                inner_solver,
                adaptive_epsilon,
                faults: Some(
                    FaultPlan::new()
                        .with_latency(0.01)
                        .with_default_success(0.8)
                        .with_jitter(dpr_sim::Jitter::Uniform { max: 0.005 }),
                ),
                t_end: 200.0,
                ..quick(Transmission::Indirect)
            };
            let run = |workers| {
                run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
            };
            let seq = run(1);
            assert!(seq.counters.inner_sweeps > 0, "{inner_solver:?}: no sweeps counted");
            let replay = run(1);
            assert_eq!(replay.final_ranks, seq.final_ranks, "{inner_solver:?}: replay diverged");
            assert_eq!(replay.counters, seq.counters);
            for workers in [2, 4, 8] {
                let par = run(workers);
                assert_eq!(
                    par.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    seq.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    "{inner_solver:?}: rank bits diverged at {workers} workers"
                );
                assert_eq!(
                    par.counters, seq.counters,
                    "{inner_solver:?}: counters diverged at {workers} workers"
                );
                assert_eq!(par.per_node, seq.per_node);
                assert_eq!(par.sim_stats, seq.sim_stats);
                assert_eq!(par.rel_err.points(), seq.rel_err.points());
            }
        }
    }

    #[test]
    fn inner_solver_modes_agree_with_the_jacobi_fixed_point() {
        // Different inner solvers walk different arithmetic paths, but all
        // contract to the same distributed fixed point: final ranks agree
        // with the Jacobi run's to well under 1e-12 with the exact same
        // top-10, and the within-sweep modes spend measurably fewer
        // sweeps getting there. A random graph, not a symmetric toy — tied
        // ranks would make top-10 order meaningless at 1e-15 noise — and
        // few groups, so each holds enough internal coupling that solves
        // genuinely take multiple sweeps (tolerance must matter).
        let g = dpr_graph::generators::random::erdos_renyi(240, 8, 5.0, 42);
        let base = NetRunConfig { k: 6, n_nodes: 6, t_end: 400.0, ..quick(Transmission::Indirect) };
        let run = |inner_solver, adaptive_epsilon| {
            run_over_network(&g, NetRunConfig { inner_solver, adaptive_epsilon, ..base.clone() })
        };
        let top10 = |ranks: &[f64]| {
            let mut idx: Vec<usize> = (0..ranks.len()).collect();
            idx.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap().then_with(|| a.cmp(&b)));
            idx.truncate(10);
            idx
        };
        let jacobi = run(InnerSolver::Jacobi, None);
        assert!(
            jacobi.counters.sweeps_saved > 0,
            "a converged run must bank its stall-skipped verification sweeps"
        );
        for (mode, adaptive) in [
            (InnerSolver::GaussSeidel, None),
            (InnerSolver::GaussSeidel, Some(AdaptiveEpsilon::default())),
        ] {
            let res = run(mode, adaptive);
            let diff = res
                .final_ranks
                .iter()
                .zip(&jacobi.final_ranks)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-12, "{mode:?} adaptive={adaptive:?}: max diff {diff}");
            assert_eq!(
                top10(&res.final_ranks),
                top10(&jacobi.final_ranks),
                "{mode:?} adaptive={adaptive:?}: top-10 moved"
            );
            // Sweep win over Jacobi.
            assert!(
                res.counters.inner_sweeps < jacobi.counters.inner_sweeps,
                "{mode:?} adaptive={adaptive:?}: {} sweeps vs jacobi's {}",
                res.counters.inner_sweeps,
                jacobi.counters.inner_sweeps
            );
        }
        // The adaptive schedule must save real work over plain GS and say
        // so in the counter.
        let gs = run(InnerSolver::GaussSeidel, None);
        let gsa = run(InnerSolver::GaussSeidel, Some(AdaptiveEpsilon::default()));
        assert!(
            gsa.counters.inner_sweeps < gs.counters.inner_sweeps,
            "adaptive-ε: {} sweeps vs plain GS's {}",
            gsa.counters.inner_sweeps,
            gs.counters.inner_sweeps
        );
        assert!(gsa.counters.sweeps_saved > gs.counters.sweeps_saved);
    }

    #[test]
    fn engine_workers_survive_churn_and_reliability() {
        // The hard mode: departures (state loss + ownership churn), a
        // join (graceful handoff + mid-run actor spawn), retransmissions,
        // and direct-mode lookups — still bit-identical across workers.
        let g = toy::two_cliques(5);
        let base = NetRunConfig {
            n_nodes: 8,
            send_success_prob: 0.7,
            reliability: Some(Reliability::default()),
            departures: vec![(60.0, 2)],
            joins: vec![(90.0, 901)],
            t_end: 300.0,
            ..quick(Transmission::Direct)
        };
        let run = |workers| {
            run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
        };
        let seq = run(1);
        let par = run(2);
        assert_eq!(
            par.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            seq.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(par.counters, seq.counters);
        assert_eq!(par.sim_stats, seq.sim_stats);
        assert!(par.counters.retries > 0, "loss must exercise the retransmit path");
        assert!(seq.final_rel_err < 1e-3, "rel err {}", seq.final_rel_err);
    }

    #[test]
    fn fault_plan_overrides_scalar_loss() {
        // A plan with no loss beats the scalar knob claiming total loss:
        // `faults` must take precedence.
        let g = toy::two_cliques(4);
        let res = run_over_network(
            &g,
            NetRunConfig {
                send_success_prob: 0.0,
                faults: Some(FaultPlan::new().with_latency(0.01)),
                ..quick(Transmission::Indirect)
            },
        );
        assert_eq!(res.sim_stats.sends_dropped, 0);
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn replication_zero_is_the_exact_baseline() {
        // The observation-invariance contract: with `replication: 0` the
        // protocol knobs must be completely inert — same rank bits, same
        // counters, same engine stats, zero checkpoint traffic — even
        // through a departure (which takes the legacy cold-migration
        // path).
        let g = toy::two_cliques(5);
        let base = NetRunConfig {
            departures: vec![(60.0, 2)],
            t_end: 250.0,
            ..quick(Transmission::Indirect)
        };
        let a = run_over_network(&g, base.clone());
        let b =
            run_over_network(&g, NetRunConfig { checkpoint_every: 0.25, suspect_after: 9, ..base });
        assert_eq!(
            a.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            b.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            "inert knobs must not change a single bit"
        );
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.sim_stats, b.sim_stats);
        assert_eq!(a.rel_err.points(), b.rel_err.points());
        assert_eq!(a.counters.checkpoints_sent, 0);
        assert_eq!(a.counters.checkpoint_bytes, 0);
        assert_eq!(a.counters.takeovers_warm + a.counters.takeovers_cold, 0);
    }

    #[test]
    fn warm_takeover_beats_cold_restart() {
        // The acceptance scenario: a mid-run permanent crash of a group-
        // hosting node under DPR2 — one power step per think, the regime
        // where restarting from zero costs real virtual time (DPR1's
        // unbounded inner solve would erase the difference as soon as the
        // afferent state is rebuilt). With replicas, the orphaned groups
        // come back warm from checkpoints and the error returns below
        // tolerance in measurably fewer sample windows than the cold
        // replication-0 baseline; both end at the same fixed point
        // (top-10 pages compared against an undisturbed run, L1 error
        // below tolerance).
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let crash = 150.0;
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            variant: DprVariant::Dpr2,
            t_end: 400.0,
            sample_every: 2.0,
            ..NetRunConfig::default()
        };
        let victim = group_owners(&base)[0];
        let run = |replication| {
            run_over_network(
                &g,
                NetRunConfig {
                    replication,
                    departures: vec![(crash, victim)],
                    faults: Some(
                        FaultPlan::new().with_latency(0.01).with_permanent_crash(victim, crash),
                    ),
                    ..base.clone()
                },
            )
        };
        let cold = run(0);
        let warm = run(2);
        let healthy = run_over_network(&g, base.clone());
        let tol = 1e-3;
        assert!(healthy.final_rel_err < tol);
        assert!(cold.final_rel_err < tol, "cold rel err {}", cold.final_rel_err);
        assert!(warm.final_rel_err < tol, "warm rel err {}", warm.final_rel_err);
        assert!(warm.counters.checkpoints_sent > 0, "owners must ship checkpoints");
        assert!(warm.counters.checkpoint_bytes > 0, "checkpoints must be priced");
        assert!(warm.counters.takeovers_warm > 0, "orphaned groups must be re-hosted warm");
        assert_eq!(warm.counters.takeovers_cold, 0, "checkpoints had ample time to arrive");
        assert_eq!(cold.counters.checkpoints_sent, 0);
        // Same fixed point: the top pages agree with the undisturbed run.
        let top = |r: &[f64]| {
            let mut idx: Vec<usize> = (0..r.len()).collect();
            idx.sort_by(|&a, &b| r[b].total_cmp(&r[a]).then(a.cmp(&b)));
            idx.truncate(10);
            idx
        };
        assert_eq!(top(&warm.final_ranks), top(&healthy.final_ranks));
        assert_eq!(top(&cold.final_ranks), top(&healthy.final_ranks));
        // And the headline: measurably fewer post-crash windows to get
        // back below tolerance.
        let windows = |res: &NetRunResult| {
            res.rel_err
                .points()
                .iter()
                .filter(|&&(t, _)| t > crash)
                .find(|&&(_, v)| v < tol)
                .map(|&(t, _)| ((t - crash) / base.sample_every).round() as u64)
                .expect("re-converges before t_end")
        };
        let (wc, ww) = (windows(&cold), windows(&warm));
        assert!(ww < wc, "warm takeover must recover in fewer windows: warm {ww} vs cold {wc}");
    }

    #[test]
    fn crash_recovery_is_bit_identical_across_engine_workers() {
        // The replication protocol must preserve the batched-engine
        // contract: checkpoints, failure detection, and warm takeover all
        // happen in the sequential commit stage, so a crashed-and-
        // recovered run replays bit for bit at any worker count.
        let g = toy::two_cliques(6);
        let crash = 100.0;
        let base = NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            variant: DprVariant::Dpr2,
            replication: 2,
            t_end: 300.0,
            sample_every: 2.0,
            ..NetRunConfig::default()
        };
        let victim = group_owners(&base)[0];
        let base = NetRunConfig {
            departures: vec![(crash, victim)],
            faults: Some(FaultPlan::new().with_latency(0.01).with_permanent_crash(victim, crash)),
            ..base
        };
        let run = |workers| {
            run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
        };
        let seq = run(1);
        assert!(seq.counters.checkpoints_sent > 0, "protocol must be exercised");
        assert!(seq.counters.takeovers_warm > 0, "the victim's groups must be re-hosted warm");
        assert_eq!(seq.counters.takeovers_cold, 0);
        for workers in [2, 4] {
            let par = run(workers);
            assert_eq!(
                par.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                seq.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                "rank bits diverged at {workers} workers"
            );
            assert_eq!(par.counters, seq.counters, "counters diverged at {workers} workers");
            assert_eq!(par.per_node, seq.per_node);
            assert_eq!(par.sim_stats, seq.sim_stats);
            assert_eq!(par.rel_err.points(), seq.rel_err.points());
        }
    }

    #[test]
    fn zero_op_delta_is_bit_invisible() {
        // A delta carrying zero ops must leave every rank bit and every
        // counter identical to an undisturbed run, at any worker count —
        // the delta machinery itself is observation-free.
        let g = toy::two_cliques(6);
        let base = NetRunConfig { t_end: 250.0, ..quick(Transmission::Indirect) };
        let undisturbed = run_over_network(&g, base.clone());
        for workers in [1, 2, 4] {
            let res = run_over_network(
                &g,
                NetRunConfig {
                    deltas: vec![(60.0, GraphDelta::empty())],
                    engine_workers: workers,
                    ..base.clone()
                },
            );
            assert_eq!(
                res.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                undisturbed.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                "rank bits diverged at {workers} workers"
            );
            assert_eq!(res.counters, undisturbed.counters, "counters diverged at {workers}");
            assert_eq!(res.per_node, undisturbed.per_node);
            assert_eq!(res.sim_stats, undisturbed.sim_stats);
            assert_eq!(res.rel_err.points(), undisturbed.rel_err.points());
            assert_eq!(res.counters.delta_messages, 0, "an empty delta ships nothing");
        }
    }

    #[test]
    fn crawl_delta_reconverges_warm_and_prices_shipment() {
        // The tentpole scenario: converge, then a real crawl delta (link
        // churn plus a page delete and a page insert) lands mid-run. The
        // dirtied groups warm-start from the previous fixed point and the
        // system re-converges to the *mutated* graph's fixed point (the
        // in-run reference swaps at delta time); the shipment is priced;
        // and the whole evolution replays bit-identically at any worker
        // count.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let mut delta = GraphDelta::link_churn(&g, 0.02, 7);
        delta.ops.push(DeltaOp::DeletePage { page: 3 });
        delta.ops.push(DeltaOp::InsertPage { site: 0, ext_out: 2, links: vec![0, 1] });
        let when = 150.0;
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 2.0,
            deltas: vec![(when, delta)],
            ..NetRunConfig::default()
        };
        let res = run_over_network(&g, base.clone());
        let tol = 1e-3;
        assert!(res.rel_err.value_at(when - 1.0).unwrap() < tol, "must converge before the delta");
        assert!(res.final_rel_err < tol, "must re-converge: rel err {}", res.final_rel_err);
        assert_eq!(res.final_ranks.len(), g.n_pages() + 1, "the insert extends the rank vector");
        assert_eq!(res.final_ranks[3], 0.0, "a tombstoned page is no longer ranked");
        assert!(res.final_ranks[g.n_pages()] > 0.0, "the inserted page earns rank");
        assert!(res.counters.delta_messages > 0, "dirty owners receive priced shipments");
        assert!(res.counters.delta_bytes > 0, "delta bytes must be charged");
        // Warm beats cold: re-convergence after the delta takes less
        // virtual time than the initial convergence from rank zero.
        let initial = res.rel_err.first_time_below(tol).expect("initially converges");
        let recovered = res
            .rel_err
            .points()
            .iter()
            .filter(|&&(t, _)| t > when)
            .find(|&&(_, v)| v < tol)
            .map(|&(t, _)| t - when)
            .expect("re-converges after the delta");
        assert!(
            recovered < initial,
            "warm re-solve must beat the cold start: {recovered} vs {initial}"
        );
        for workers in [2, 4] {
            let par =
                run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() });
            assert_eq!(
                par.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                res.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                "rank bits diverged at {workers} workers"
            );
            assert_eq!(par.counters, res.counters, "counters diverged at {workers} workers");
            assert_eq!(par.sim_stats, res.sim_stats);
            assert_eq!(par.rel_err.points(), res.rel_err.points());
        }
    }

    #[test]
    fn store_epoch_handoff_across_a_delta() {
        // A store attached across a crawl delta: dirtied groups hold
        // their publishes while re-solving (readers keep the pre-delta
        // epoch), then the final flush serves the new fixed point — the
        // tombstoned page drops out of the view, every surviving page
        // answers with the exact final rank bits.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_000,
            n_sites: 10,
            ..EduDomainConfig::default()
        });
        let mut delta = GraphDelta::link_churn(&g, 0.02, 11);
        delta.ops.push(DeltaOp::DeletePage { page: 5 });
        let when = 150.0;
        let cfg = NetRunConfig {
            k: 16,
            n_nodes: 16,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 2.0,
            deltas: vec![(when, delta)],
            ..NetRunConfig::default()
        };
        let store = crate::store::RankStore::new(16);
        let res = try_run_over_network_with_store(&g, cfg, Some(&store)).expect("valid config");
        let view = store.view();
        assert_eq!(view.lookup(5), None, "tombstoned page must drop out of the served view");
        for (p, &r) in res.final_ranks.iter().enumerate() {
            if p == 5 {
                continue;
            }
            let got = view.lookup(p as PageId);
            assert_eq!(
                got.map(|l| l.rank.to_bits()),
                Some(r.to_bits()),
                "served rank for page {p} must match the final fixed point"
            );
        }
    }

    #[test]
    fn continuous_delta_stream_tracks_the_evolving_web() {
        // The "live web" loop: crawl → delta → re-converge → repeat. Three
        // successive churn deltas land mid-run, each computed against the
        // graph state the previous one produced (exactly what a continuous
        // recrawl feeds in). The run must re-converge between every pair of
        // deltas, end at the final graph's fixed point, and replay
        // bit-identically across worker counts.
        let g0 = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 15,
            ..EduDomainConfig::default()
        });
        let times = [150.0, 320.0, 490.0];
        let mut deltas = Vec::new();
        let mut g = g0.clone();
        for (i, &t) in times.iter().enumerate() {
            let d = GraphDelta::link_churn(&g, 0.01, 100 + i as u64);
            g = d.apply(&g);
            deltas.push((t, d));
        }
        let base = NetRunConfig {
            k: 16,
            n_nodes: 16,
            strategy: Strategy::HashByUrl,
            t_end: 700.0,
            sample_every: 2.0,
            deltas,
            ..NetRunConfig::default()
        };
        let res = run_over_network(&g0, base.clone());
        let tol = 1e-3;
        // Converged before the first delta and re-converged inside every
        // inter-delta window.
        assert!(res.rel_err.value_at(times[0] - 1.0).unwrap() < tol);
        for w in times.windows(2) {
            let back = res.rel_err.first_time_below_after(w[0], tol);
            assert!(
                back.is_some_and(|t| t < w[1]),
                "must re-converge inside ({}, {}): {back:?}",
                w[0],
                w[1]
            );
        }
        assert!(res.final_rel_err < tol, "final fixed point: {}", res.final_rel_err);
        // Each delta ships to at least one dirty owner.
        assert!(res.counters.delta_messages >= times.len() as u64);
        let par = run_over_network(&g0, NetRunConfig { engine_workers: 4, ..base });
        assert_eq!(
            par.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            res.final_ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(par.counters, res.counters);
        assert_eq!(par.rel_err.points(), res.rel_err.points());
    }

    /// The ordered group pair `(src, dest)` joined by the fewest links
    /// under `cfg`'s partition, with every link instance from `src` into
    /// `dest` — a delta removing all of them cuts `src` off from `dest`.
    fn thinnest_cross_link(
        g: &WebGraph,
        cfg: &NetRunConfig,
    ) -> (GroupId, GroupId, Vec<(PageId, PageId)>) {
        let partition = Partition::build(g, &cfg.strategy, cfg.k, 0);
        let mut links: BTreeMap<(GroupId, GroupId), Vec<(PageId, PageId)>> = BTreeMap::new();
        for u in 0..g.n_pages() as PageId {
            for &v in g.out_links(u) {
                let (gu, gv) = (partition.group_of(u), partition.group_of(v));
                if gu != gv {
                    links.entry((gu, gv)).or_default().push((u, v));
                }
            }
        }
        let ((src, dest), cut) =
            links.into_iter().min_by_key(|(_, l)| l.len()).expect("a cross-group link");
        (src, dest, cut)
    }

    /// A converged run, then one delta at t = 150 that removes every link
    /// of the thinnest group pair plus `extra` ops; returns the final
    /// relative error against the post-delta fixed point.
    fn cut_off_run(extra: impl Fn(GroupId, GroupId, &Partition) -> Vec<DeltaOp>) -> f64 {
        let g = dpr_graph::generators::random::erdos_renyi(300, 10, 4.0, 7);
        let base = NetRunConfig { k: 8, n_nodes: 8, t_end: 600.0, ..quick(Transmission::Indirect) };
        let (src, dest, cut) = thinnest_cross_link(&g, &base);
        let partition = Partition::build(&g, &base.strategy, base.k, 0);
        let mut ops: Vec<DeltaOp> =
            cut.iter().map(|&(from, to)| DeltaOp::RemoveLink { from, to }).collect();
        ops.extend(extra(src, dest, &partition));
        let delta = GraphDelta { ops };
        let res = run_over_network(&g, NetRunConfig { deltas: vec![(150.0, delta)], ..base });
        assert!(res.rel_err.value_at(149.0).unwrap() < 1e-6, "must converge before the delta");
        res.final_rel_err
    }

    #[test]
    fn cut_off_source_is_retracted_from_a_dirty_receiver() {
        // The receiver is itself rebuilt by the delta (one of its pages
        // gains an internal link), so its warm restart replays its
        // afferent history — which must not include the source the same
        // delta cut off.
        let err = cut_off_run(|_, dest, partition| {
            let own: Vec<PageId> = (0..partition.assignment().len() as PageId)
                .filter(|&p| partition.group_of(p) == dest)
                .take(2)
                .collect();
            vec![DeltaOp::AddLink { from: own[0], to: own[1] }]
        });
        assert!(err <= 1e-9, "stale afferent Y survived the delta: rel err {err}");
    }

    #[test]
    fn cut_off_source_is_retracted_from_an_untouched_receiver() {
        // Only the source's pages change: the cut links are redirected
        // inside the source group, so the receiver is not dirtied at all —
        // yet it still has to drop the source's last Y.
        let err = cut_off_run(|src, _, partition| {
            let own: Vec<PageId> = (0..partition.assignment().len() as PageId)
                .filter(|&p| partition.group_of(p) == src)
                .take(2)
                .collect();
            vec![DeltaOp::AddLink { from: own[1], to: own[0] }]
        });
        assert!(err <= 1e-9, "stale afferent Y survived the delta: rel err {err}");
    }

    #[test]
    fn delta_and_warm_takeover_keep_rank_bits_and_row_counts() {
        // The receive path's in-place tier leans on one invariant: the
        // stored rows of a source are the localized form of its last
        // accepted payload. A crawl delta that inserts and deletes pages
        // re-localizes every payload of a dirtied group, and a warm
        // takeover restores contributions from a checkpoint with no
        // payload behind them; both must leave the run exactly as it was
        // before the tier existed. Pinned from that engine: the rank bits
        // (FNV-1a) and the afferent rows recomputed.
        let (rank_digest, rows_recomputed) = (0x268c_2457_3a99_4266_u64, 48_635_u64);
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 15,
            ..EduDomainConfig::default()
        });
        let mut delta = GraphDelta::link_churn(&g, 0.02, 5);
        delta.ops.push(DeltaOp::DeletePage { page: 4 });
        delta.ops.push(DeltaOp::InsertPage { site: 1, ext_out: 1, links: vec![2, 9] });
        let base = NetRunConfig {
            k: 16,
            n_nodes: 16,
            strategy: Strategy::HashByUrl,
            replication: 2,
            t_end: 320.0,
            sample_every: 4.0,
            deltas: vec![(120.0, delta)],
            ..NetRunConfig::default()
        };
        let victim = group_owners(&base)[0];
        let crash = 200.0;
        let res = run_over_network(
            &g,
            NetRunConfig {
                departures: vec![(crash, victim)],
                faults: Some(
                    FaultPlan::new().with_latency(0.01).with_permanent_crash(victim, crash),
                ),
                ..base
            },
        );
        assert!(res.counters.delta_messages > 0, "the delta must land");
        assert!(res.counters.takeovers_warm > 0, "the crash must be survived warm");
        assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
        let bits: Vec<u8> =
            res.final_ranks.iter().flat_map(|r| r.to_bits().to_le_bytes()).collect();
        assert_eq!(dpr_graph::urls::fnv1a(&bits), rank_digest, "rank bits moved");
        assert_eq!(res.counters.rows_recomputed, rows_recomputed, "afferent work moved");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// `GroupState::receive` against the plain `set(localize(..))` it
        /// stands in for, over random delivery sequences from a few
        /// sources into one group: same pages with new (or partly, or
        /// wholly unchanged) scores, payloads carrying pages the group
        /// does not own, changed page sets, a re-sent `Arc`, and a
        /// retraction followed by re-delivery. After every step both must
        /// hold the same `X` bits, the same stale-row worklist, the same
        /// `rows_recomputed` and the same stored contributions.
        #[test]
        fn in_place_receive_matches_set_of_localize(seed in 0u64..1 << 32) {
            use proptest::prelude::prop_assert_eq;
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let g = toy::complete(30);
            let partition = Partition::from_assignment(3, (0..30u32).map(|p| p % 3).collect());
            let ctx = Arc::new(
                GroupContext::build_all(&g, &partition, &RankConfig::default()).swap_remove(0),
            );
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut fast = GroupState::new(Arc::clone(&ctx));
            let mut reference = AfferentState::new(ctx.n_local());
            let mut sent: BTreeMap<GroupId, Arc<Vec<(PageId, f64)>>> = BTreeMap::new();
            for _ in 0..40 {
                let src: GroupId = rng.gen_range(1..4);
                let prev = sent.get(&src).cloned();
                let fresh_pages = |rng: &mut SmallRng, foreign: bool| -> Vec<PageId> {
                    (0..30u32)
                        .filter(|p| (foreign || p % 3 == 0) && rng.gen_bool(0.4))
                        .collect()
                };
                let payload: Arc<Vec<(PageId, f64)>> = match (rng.gen_range(0..6), prev) {
                    // Same pages; each score kept or redrawn.
                    (0 | 1, Some(p)) => {
                        let keep = rng.gen_range(0.0..1.0);
                        Arc::new(
                            p.iter()
                                .map(|&(pg, s)| {
                                    (pg, if rng.gen_bool(keep) { s } else { rng.gen_range(0.0..1.0) })
                                })
                                .collect(),
                        )
                    }
                    // The very allocation sent last time.
                    (2, Some(p)) => p,
                    // Retract (what a crawl delta does to a source that
                    // cut its last link), then re-deliver.
                    (3, Some(p)) => {
                        fast.afferent.retract(src);
                        fast.last_payload.remove(&src);
                        reference.retract(src);
                        Arc::new(p.to_vec())
                    }
                    // A new page set, some of it owned by other groups.
                    (4, _) => Arc::new(
                        fresh_pages(&mut rng, true)
                            .into_iter()
                            .map(|p| (p, rng.gen_range(0.0..1.0)))
                            .collect(),
                    ),
                    // A new page set the group owns entirely.
                    _ => Arc::new(
                        fresh_pages(&mut rng, false)
                            .into_iter()
                            .map(|p| (p, rng.gen_range(0.0..1.0)))
                            .collect(),
                    ),
                };
                fast.receive(src, &payload);
                reference.set(src, ctx.localize(&payload));
                sent.insert(src, payload);
                prop_assert_eq!(fast.afferent.has_stale_rows(), reference.has_stale_rows());
                prop_assert_eq!(fast.afferent.snapshot_received(), reference.snapshot_received());
                if rng.gen_bool(0.5) {
                    let (mut touched_fast, mut touched_ref) = (Vec::new(), Vec::new());
                    fast.afferent.refresh_tracked(Some(&mut touched_fast));
                    reference.refresh_tracked(Some(&mut touched_ref));
                    prop_assert_eq!(touched_fast, touched_ref);
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(fast.afferent.x()), bits(reference.x()));
                    prop_assert_eq!(fast.afferent.rows_recomputed(), reference.rows_recomputed());
                }
            }
        }
    }
}
