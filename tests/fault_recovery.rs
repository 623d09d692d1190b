//! Whole-system fault-injection tests: the ack/retry/dedup protocol
//! rescuing convergence under heavy loss, Chord surviving node crashes,
//! a network partition healing, bounded retry budgets on a dead network,
//! and bit-exact replay of faulty runs.

use dpr::core::{
    try_run_over_network, NetRunConfig, NetRunResult, OverlayKind, Reliability, Transmission,
};
use dpr::graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr::graph::generators::toy;
use dpr::partition::Strategy;
use dpr::sim::{FaultPlan, Jitter};
use proptest::prelude::*;

/// Every config in this file schedules churn its overlay supports, so a
/// `ChurnUnsupported` error would be a test bug — unwrap it once here.
fn run_over_network(g: &dpr::graph::WebGraph, cfg: NetRunConfig) -> NetRunResult {
    try_run_over_network(g, cfg).expect("test configs use supported churn schedules")
}

/// The headline robustness claim: at 50% per-hop loss the reliable
/// protocol reaches the paper's 0.1% error threshold within a horizon
/// where silent loss does not. Loss compounds per routed hop here, so a
/// 96-node overlay makes the unreliable path lose most packages end to
/// end — yet acks + retransmits recover them.
#[test]
fn retries_beat_silent_loss_within_the_same_horizon() {
    let g = edu_domain(&EduDomainConfig { n_pages: 2_000, n_sites: 20, ..Default::default() });
    let base = NetRunConfig {
        k: 32,
        n_nodes: 96,
        transmission: Transmission::Indirect,
        strategy: Strategy::HashByUrl,
        t_end: 80.0,
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.5)),
        ..NetRunConfig::default()
    };
    let silent = run_over_network(&g, base.clone());
    let reliable =
        run_over_network(&g, NetRunConfig { reliability: Some(Reliability::default()), ..base });

    assert!(
        reliable.final_rel_err < 1e-3,
        "reliable delivery should reach 0.1%: rel err {}",
        reliable.final_rel_err
    );
    assert!(reliable.rel_err.first_time_below(1e-3).is_some());
    assert!(
        silent.final_rel_err > 1e-3,
        "silent loss should still be above 0.1% at the same horizon: rel err {}",
        silent.final_rel_err
    );
    assert!(silent.rel_err.first_time_below(1e-3).is_none());
    // The win is bought with real retransmissions, and the loss is real.
    assert!(reliable.counters.retries > 0);
    assert!(reliable.counters.duplicates_suppressed > 0);
    assert!(silent.sim_stats.sends_dropped > 0);
}

/// Chord nodes crash mid-run (state lost, groups migrate to the clockwise
/// successor) and ranking still re-converges — the churn path that used
/// to panic with "Chord departures unsupported".
#[test]
fn chord_crashes_reconverge_below_threshold() {
    let g = toy::two_cliques(6);
    let res = run_over_network(
        &g,
        NetRunConfig {
            k: 24,
            n_nodes: 24,
            overlay: OverlayKind::Chord,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            departures: vec![(60.0, 2), (90.0, 5)],
            ..NetRunConfig::default()
        },
    );
    assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
}

/// A partition splits the overlay in half early in the run, then heals;
/// cross-cell Y-traffic is blocked during the window and ranking
/// re-converges afterwards.
#[test]
fn partition_then_heal_reconverges() {
    let g = toy::two_cliques(6);
    let side_a: Vec<usize> = (0..12).collect();
    let res = run_over_network(
        &g,
        NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 1.0,
            faults: Some(FaultPlan::new().with_latency(0.01).with_partition(10.0, 60.0, &side_a)),
            ..NetRunConfig::default()
        },
    );
    assert!(res.sim_stats.partition_dropped > 0, "the partition must drop traffic");
    let during = res.rel_err.value_at(59.0).expect("sampled during the window");
    assert!(during > 1e-3, "cross-cell rank cannot settle while partitioned: rel err {during}");
    assert!(
        res.final_rel_err < 1e-3,
        "must re-converge after healing: rel err {}",
        res.final_rel_err
    );
}

/// The fault-recovery scenarios replay bit-identically what the legacy
/// `BinaryHeap` + full-rebuild engine produced (pinned while both engines
/// existed and agreed): same ranks, same engine statistics, through Chord
/// crashes with state-loss migration and a partition window.
#[test]
fn legacy_and_slab_engines_agree_under_recovery_scenarios() {
    let g = toy::two_cliques(6);
    let side_a: Vec<usize> = (0..12).collect();
    let stats = |sends_attempted, dropped, deliveries, wakes| dpr::sim::SimStats {
        sends_attempted,
        sends_dropped: dropped,
        partition_dropped: dropped,
        crash_dropped: 0,
        deliveries,
        wakes,
    };
    // (scenario, FNV-1a digest of the legacy rank bits, legacy engine
    // statistics)
    let scenarios = [
        (
            NetRunConfig {
                k: 24,
                n_nodes: 24,
                overlay: OverlayKind::Chord,
                strategy: Strategy::HashByUrl,
                t_end: 400.0,
                departures: vec![(60.0, 2), (90.0, 5)],
                ..NetRunConfig::default()
            },
            0x4f98_24eb_0bce_1055,
            stats(10_083, 0, 10_083, 7_461),
        ),
        (
            NetRunConfig {
                k: 24,
                n_nodes: 24,
                strategy: Strategy::HashByUrl,
                t_end: 400.0,
                faults: Some(
                    FaultPlan::new().with_latency(0.01).with_partition(10.0, 60.0, &side_a),
                ),
                ..NetRunConfig::default()
            },
            0x44f2_5da1_7939_92a1,
            stats(10_387, 746, 9_641, 8_561),
        ),
    ];
    for (cfg, legacy_ranks, legacy_stats) in scenarios {
        let new = run_over_network(&g, cfg);
        let bits: Vec<u8> =
            new.final_ranks.iter().flat_map(|r| r.to_bits().to_le_bytes()).collect();
        let digest = dpr::graph::urls::fnv1a(&bits);
        assert_eq!(digest, legacy_ranks, "ranks diverged between engines");
        assert_eq!(new.sim_stats, legacy_stats);
    }
}

/// On a network that drops everything, the retry budget is bounded: every
/// package is retransmitted at most `max_retries` times, then abandoned.
/// The run terminating at all is the termination half of the claim.
#[test]
fn dead_network_exhausts_bounded_retry_budgets() {
    let g = toy::two_cliques(4);
    let rel = Reliability { ack_timeout: 0.5, max_retries: 3, backoff: 2.0 };
    let res = run_over_network(
        &g,
        NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 60.0,
            faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.0)),
            reliability: Some(rel),
            ..NetRunConfig::default()
        },
    );
    assert_eq!(res.counters.acks, 0, "nothing arrives, so nothing is acked");
    assert!(res.counters.retry_exhausted > 0, "budgets must actually run out");
    assert!(
        res.counters.gave_up >= res.counters.retry_exhausted,
        "every abandoned package carries at least one update: {} parts for {} packages",
        res.counters.gave_up,
        res.counters.retry_exhausted
    );
    assert!(res.counters.retries > 0);
    let originals = res.counters.data_messages - res.counters.retries;
    assert!(
        res.counters.retries <= originals * u64::from(rel.max_retries),
        "retries {} exceed budget for {} originals",
        res.counters.retries,
        originals
    );
}

/// The README's fault-injection quickstart, kept honest.
#[test]
fn readme_fault_snippet_holds() {
    let graph = toy::two_cliques(5);
    let result = run_over_network(
        &graph,
        NetRunConfig {
            k: 8,
            n_nodes: 8,
            t_end: 400.0,
            faults: Some(FaultPlan::new().with_default_success(0.7).with_partition(
                10.0,
                60.0,
                &[0, 1, 2, 3],
            )),
            reliability: Some(Reliability::default()),
            ..NetRunConfig::default()
        },
    );
    assert!(result.final_rel_err < 1e-3, "rel err {}", result.final_rel_err);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Replay determinism of the full network stack: the same seed and the
    /// same fault plan — loss, jitter, a straggler, a crash window — yield
    /// bit-identical final ranks, engine stats and protocol counters.
    #[test]
    fn same_seed_and_plan_replay_bit_identically(
        seed in any::<u64>(),
        p in 0.3f64..=1.0,
        reliable in any::<bool>(),
    ) {
        let g = toy::two_cliques(4);
        let plan = FaultPlan::new()
            .with_latency(0.01)
            .with_default_success(p)
            .with_jitter(Jitter::Uniform { max: 0.05 })
            .with_straggler(1, 2.0, 2.0)
            .with_crash(2, 20.0, 30.0);
        let cfg = NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 60.0,
            seed,
            faults: Some(plan),
            reliability: reliable.then(Reliability::default),
            ..NetRunConfig::default()
        };
        let a = run_over_network(&g, cfg.clone());
        let b = run_over_network(&g, cfg);
        prop_assert_eq!(a.final_ranks, b.final_ranks);
        prop_assert_eq!(a.sim_stats, b.sim_stats);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.rel_err.points(), b.rel_err.points());
    }
}
