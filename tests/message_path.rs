//! Whole-system guarantees for the message-path fast paths: §4.4 update
//! coalescing, the overlay route cache, the slab event scheduler and the
//! dirty-row afferent cache may change *cost* (messages, bytes, work) but
//! never *results*. Each of them used to sit next to a slower reference
//! twin selectable in `NetRunConfig` (per-part sends, uncached lookups, a
//! `BinaryHeap` event queue, full `X` rebuilds), and these tests compared
//! the two on the same run. The twins are gone from the engine; what they
//! produced on these scenarios — recorded while both paths existed and
//! agreed bit for bit — is pinned here instead: the final rank bits as a
//! digest, plus every counter the comparisons asserted on. The scenarios
//! cover clean reliable delivery and the fault plans (loss, partition,
//! crash windows), and the route cache must leave every observable
//! counter untouched even through churn.

use dpr::core::{
    try_run_over_network, NetCounters, NetRunConfig, NetRunResult, Reliability, Transmission,
};
use dpr::graph::generators::toy;
use dpr::graph::urls::fnv1a;
use dpr::graph::WebGraph;
use dpr::partition::Strategy;
use dpr::sim::{FaultPlan, SimStats};

fn run_over_network(g: &WebGraph, cfg: NetRunConfig) -> NetRunResult {
    try_run_over_network(g, cfg).expect("test configs use supported churn schedules")
}

fn base(t_end: f64) -> NetRunConfig {
    NetRunConfig {
        k: 24,
        n_nodes: 24,
        transmission: Transmission::Indirect,
        strategy: Strategy::HashByUrl,
        reliability: Some(Reliability::default()),
        t_end,
        ..NetRunConfig::default()
    }
}

/// FNV-1a digest of the exact bits of the final rank vector.
fn rank_digest(r: &NetRunResult) -> u64 {
    let bytes: Vec<u8> = r.final_ranks.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// What the per-part (non-coalescing) reference sent on one scenario.
struct PerPartReference {
    /// Digest of its final rank bits.
    ranks: u64,
    /// Bytes it put on the wire.
    bytes: u64,
    /// Data packages it sent.
    data_messages: u64,
}

/// Runs the scenario and requires the final ranks to match the per-part
/// reference to the last bit. Message/byte counters may differ (that is
/// the point of coalescing), so they are asserted directionally.
fn assert_coalescing_bit_identical(g: &WebGraph, cfg: NetRunConfig, reference: PerPartReference) {
    let on = run_over_network(g, cfg);
    assert!(on.final_rel_err < 1e-3, "coalesced run must converge: {}", on.final_rel_err);
    assert_eq!(rank_digest(&on), reference.ranks, "coalescing must be bit-neutral on final ranks");
    assert!(on.counters.coalesced_parts > 0, "the schedule must actually exercise coalescing");
    assert!(on.counters.bytes < reference.bytes, "coalescing must pay for itself in bytes");
    assert!(on.counters.data_messages <= reference.data_messages);
}

#[test]
fn coalescing_bit_identical_under_reliable_delivery() {
    let reference =
        PerPartReference { ranks: 0x0150_ab9f_ebc9_3ce9, bytes: 2_213_520, data_messages: 7_954 };
    assert_coalescing_bit_identical(&toy::two_cliques(6), base(300.0), reference);
}

#[test]
fn coalescing_bit_identical_under_loss() {
    // Per-hop loss consumes one RNG draw per send, and coalescing changes
    // the send count, so the two trajectories diverged mid-run — they
    // still stalled at the same fixed point of the (deterministic) rank
    // map. That takes a longer horizon than the other plans: the
    // trajectories approach the f64 fixed point from different directions
    // and only become bit-identical once both have *exactly* stalled
    // (t_end 500 still showed ~100-ULP residue; 2000 is comfortably past
    // stall).
    let cfg = NetRunConfig {
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.7)),
        ..base(2000.0)
    };
    let reference = PerPartReference {
        ranks: 0x38ca_99b2_921a_9355,
        bytes: 27_453_820,
        data_messages: 103_907,
    };
    assert_coalescing_bit_identical(&toy::two_cliques(6), cfg, reference);
}

#[test]
fn coalescing_bit_identical_under_partition() {
    let cfg = NetRunConfig {
        faults: Some(FaultPlan::new().with_latency(0.01).with_partition(40.0, 80.0, &[0, 1, 2, 3])),
        ..base(500.0)
    };
    let reference =
        PerPartReference { ranks: 0x38ca_99b2_921a_9355, bytes: 3_905_900, data_messages: 14_175 };
    assert_coalescing_bit_identical(&toy::two_cliques(6), cfg, reference);
}

#[test]
fn coalescing_bit_identical_under_crash_windows() {
    let cfg = NetRunConfig {
        faults: Some(
            FaultPlan::new()
                .with_latency(0.01)
                .with_crash(2, 50.0, 90.0)
                .with_crash(7, 120.0, 150.0),
        ),
        ..base(500.0)
    };
    let reference =
        PerPartReference { ranks: 0x38ca_99b2_921a_9355, bytes: 3_702_100, data_messages: 13_264 };
    assert_coalescing_bit_identical(&toy::two_cliques(6), cfg, reference);
}

/// Churn + loss + reliable delivery: the scenario both remaining tests
/// replay.
fn churn_and_loss() -> NetRunConfig {
    NetRunConfig {
        departures: vec![(60.0, 3), (110.0, 9)],
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.8)),
        ..base(400.0)
    }
}

/// The reference engine's rank digest and engine statistics on
/// [`churn_and_loss`] — identical for the uncached-lookup run and the
/// `BinaryHeap` + full-rebuild run.
const CHURN_RANKS: u64 = 0x59ab_e33d_00b0_a594;
const CHURN_SIM_STATS: SimStats = SimStats {
    sends_attempted: 28_481,
    sends_dropped: 5_631,
    partition_dropped: 0,
    crash_dropped: 0,
    deliveries: 22_850,
    wakes: 8_219,
};

/// The counters of the uncached-lookup reference on [`churn_and_loss`].
const CHURN_COUNTERS: NetCounters = NetCounters {
    data_messages: 15_784,
    lookup_messages: 0,
    bytes: 4_016_140,
    retries: 5_582,
    acks: 12_697,
    duplicates_suppressed: 2_510,
    retry_exhausted: 13,
    coalesced_parts: 1_491,
    payload_clones: 10_187,
    rows_recomputed: 3_259,
    gave_up: 21,
    checkpoints_sent: 0,
    checkpoint_bytes: 0,
    takeovers_warm: 0,
    takeovers_cold: 0,
    delta_messages: 0,
    delta_bytes: 0,
    inner_sweeps: 6_279,
    sweeps_saved: 504,
};

/// The route cache is pure memoization: with churn, loss, and reliable
/// delivery all active, the cached run must reproduce *everything*
/// observable of the uncached reference — ranks, §4.5 counters (also per
/// node), and engine statistics — while it really does serve lookups
/// from cache and flush it on churn.
#[test]
fn route_cache_invisible_under_churn_and_faults() {
    let cached = run_over_network(&toy::two_cliques(6), churn_and_loss());
    assert_eq!(rank_digest(&cached), CHURN_RANKS);
    assert_eq!(cached.counters, CHURN_COUNTERS);
    // Digest of the reference's `{:?}` rendering of its per-node counters.
    let per_node = fnv1a(format!("{:?}", cached.per_node).as_bytes());
    assert_eq!(per_node, 0x418c_9a21_6d8a_abeb, "per-node counters diverged");
    assert_eq!(cached.sim_stats, CHURN_SIM_STATS);
    assert!(cached.final_rel_err < 1e-3, "rel err {}", cached.final_rel_err);
    assert!(cached.route_cache.hits > 0, "the cached run must actually hit");
    assert!(cached.route_cache.invalidations >= 2, "each departure must flush the cache");
    assert_eq!(
        cached.route_cache.hits + cached.route_cache.misses,
        16_640,
        "the cached run must observe the reference's lookup stream"
    );
}

/// The slab scheduler and the dirty-row external-contribution cache are
/// pure performance work: on the same churn + loss + reliable-delivery
/// scenario they must reproduce the legacy `BinaryHeap` + full-rebuild
/// engine's ranks, engine statistics, and network counters — while
/// really skipping most row recomputation.
#[test]
fn scheduler_and_ext_cache_invisible_under_churn_and_faults() {
    let run = run_over_network(&toy::two_cliques(6), churn_and_loss());
    assert_eq!(rank_digest(&run), CHURN_RANKS, "ranks diverged from the legacy engine");
    assert_eq!(run.sim_stats, CHURN_SIM_STATS);
    // What the legacy engine did: every row of every refresh, and a
    // verification sweep in every window (it had no stall short-circuit).
    let (legacy_rows, legacy_sweeps) = (3_507, 6_783);
    // Every counter except the work-observability ones must match the
    // legacy engine exactly. Rows recomputed and inner sweeps measure the
    // work the cache *saves*, so they legitimately differ.
    let traffic =
        |c: NetCounters| NetCounters { rows_recomputed: 0, inner_sweeps: 0, sweeps_saved: 0, ..c };
    assert_eq!(traffic(run.counters), traffic(CHURN_COUNTERS));
    assert!(
        run.counters.rows_recomputed < legacy_rows,
        "dirty-row cache recomputed {} rows, full rebuild {legacy_rows}",
        run.counters.rows_recomputed
    );
    assert!(
        run.counters.inner_sweeps < legacy_sweeps,
        "stall short-circuit ran {} sweeps, full rebuild {legacy_sweeps}",
        run.counters.inner_sweeps
    );
    assert!(run.counters.sweeps_saved > 0, "cached run must skip stalled windows");
    assert!(run.final_rel_err < 1e-3);
}

/// Fire-and-forget packages must move through the receive path without a
/// single payload copy — the counter this guards is the alloc-regression
/// canary for the zero-copy `Arc` transport.
#[test]
fn fire_and_forget_receive_path_never_copies_payloads() {
    let g = toy::two_cliques(6);
    let fire_and_forget = NetRunConfig { reliability: None, ..base(300.0) };
    let run = run_over_network(&g, fire_and_forget);
    assert!(run.counters.data_messages > 0);
    assert_eq!(
        run.counters.payload_clones, 0,
        "receive path cloned {} payloads under fire-and-forget",
        run.counters.payload_clones
    );
    // Reliable delivery keeps the payload in the sender's retransmit queue,
    // so the receiver's `Arc` is still shared — the counter must see it.
    let reliable = run_over_network(&g, base(300.0));
    assert!(reliable.counters.payload_clones > 0, "reliability must exercise the clone fallback");
}
