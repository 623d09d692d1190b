//! Event-ordering tests. The slab scheduler must dequeue in exactly the
//! order of a plain `BinaryHeap<Reverse<(time, seq)>>` (a property test
//! over random push/pop/peek interleavings with equal-time ties), and a
//! mixed wake/send/fault workload — equal-time FIFO ties, random loss,
//! jitter, partitions, crash windows and stragglers — must replay the
//! same `SimStats`, delivery trace (time, source, payload per actor), wake
//! trace and final virtual time for the same seed, pinned to the trace the
//! engine produced back when it could still run on a `BinaryHeap` queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpr_sim::sched::SlabScheduler;
use dpr_sim::{Actor, Ctx, FaultPlan, Jitter, SimStats, Simulation};
use proptest::prelude::*;
use rand::Rng;

/// An actor that wakes on a randomized period, fans messages out to a few
/// peers (sometimes several to one peer in the same instant, so equal-time
/// FIFO ordering matters), and records everything it observes.
struct Chatter {
    n: usize,
    counter: u64,
    /// (now, from, payload) for every delivery.
    deliveries: Vec<(f64, usize, u64)>,
    /// now at every wake.
    wakes: Vec<f64>,
}

impl Actor for Chatter {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        // Stagger starts off the RNG so the first events already contend.
        let d: f64 = ctx.rng().gen::<f64>() * 0.5;
        ctx.schedule_wake(d);
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.wakes.push(ctx.now());
        let fanout = 1 + (ctx.rng().gen::<u64>() % 3) as usize;
        for _ in 0..fanout {
            let dst = (ctx.rng().gen::<u64>() as usize) % self.n;
            let payload = self.counter;
            self.counter += 1;
            // A zero-latency burst to one destination from time to time:
            // ordering among equal times must be FIFO.
            if payload.is_multiple_of(7) {
                ctx.send(dst, payload);
                ctx.send(dst, payload + 1_000_000);
            } else if payload.is_multiple_of(5) {
                ctx.send_after(dst, 0.25, payload);
            } else if payload.is_multiple_of(11) {
                ctx.send_reliable(dst, payload);
            } else {
                ctx.send(dst, payload);
            }
        }
        let d: f64 = 0.1 + ctx.rng().gen::<f64>();
        ctx.schedule_wake(d);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: usize, msg: u64) {
        self.deliveries.push((ctx.now(), from, msg));
        // Occasionally reply immediately — message handlers also enqueue.
        if msg.is_multiple_of(13) {
            ctx.send(from, msg + 2_000_000);
        }
    }
}

fn mixed_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .with_latency(0.05)
        .with_default_success(0.8)
        .with_jitter(Jitter::Uniform { max: 0.02 })
        .with_partition(10.0, 18.0, &[0, 1, 2])
        .with_crash(5, 25.0, 32.0)
        .with_straggler(3, 1.5, 2.5)
        .with_link_success(4, 6, 0.3)
}

type Trace = (SimStats, f64, Vec<Vec<(f64, usize, u64)>>, Vec<Vec<f64>>);

fn run(seed: u64) -> Trace {
    let n = 12;
    let actors: Vec<Chatter> = (0..n)
        .map(|_| Chatter { n, counter: 0, deliveries: Vec::new(), wakes: Vec::new() })
        .collect();
    let mut sim = Simulation::with_plan(actors, seed, mixed_fault_plan());
    sim.run_until(50.0);
    let deliveries = sim.actors().iter().map(|a| a.deliveries.clone()).collect();
    let wakes = sim.actors().iter().map(|a| a.wakes.clone()).collect();
    (sim.stats(), sim.now(), deliveries, wakes)
}

/// FNV-1a over 64-bit words: a compact, dependency-free trace digest.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digests of the per-actor delivery and wake traces (`u64::MAX` separates
/// actors, so moving an event between actors changes the digest).
fn digests(t: &Trace) -> (u64, u64) {
    let deliveries = fnv(t.2.iter().flat_map(|a| {
        a.iter().flat_map(|&(now, from, p)| [now.to_bits(), from as u64, p]).chain([u64::MAX])
    }));
    let wakes = fnv(t.3.iter().flat_map(|a| a.iter().map(|w| w.to_bits()).chain([u64::MAX])));
    (deliveries, wakes)
}

fn stats(
    sends_attempted: u64,
    sends_dropped: u64,
    partition_dropped: u64,
    crash_dropped: u64,
    deliveries: u64,
    wakes: u64,
) -> SimStats {
    SimStats { sends_attempted, sends_dropped, partition_dropped, crash_dropped, deliveries, wakes }
}

#[test]
fn mixed_fault_workload_replays_the_pinned_trace() {
    // (seed, stats, delivery digest, wake digest), recorded from both the
    // slab scheduler and the `BinaryHeap` queue it replaced, which agreed
    // on every event.
    let golden = [
        (0, stats(2374, 574, 110, 44, 1799, 963), 0xb985_a148_213a_827a, 0x9b55_34c4_4ed1_0467),
        (1, stats(2322, 573, 132, 47, 1744, 951), 0x7df7_f49e_87f9_689b, 0x284d_c28f_6c76_eabb),
        (
            0xDEAD_BEEF,
            stats(2250, 567, 120, 43, 1681, 950),
            0x3a19_7240_cbec_17a7,
            0xe466_e416_46f7_7a92,
        ),
    ];
    for (seed, stats, deliveries, wakes) in golden {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "same seed must replay the same trace (seed {seed})");
        assert_eq!(a.0, stats, "SimStats diverged at seed {seed}");
        assert_eq!(a.1, 50.0, "final time diverged at seed {seed}");
        assert_eq!(digests(&a), (deliveries, wakes), "traces diverged at seed {seed}");
        // The workload must actually have exercised the interesting paths.
        assert!(a.0.deliveries > 100, "workload too small to be a golden test");
        assert!(a.0.sends_dropped > 0, "loss never fired");
        assert!(a.0.partition_dropped > 0, "partition never fired");
        assert!(a.0.crash_dropped > 0, "crash window never fired");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Random push/pop/peek interleavings over a handful of distinct times
    /// (so equal-time ties are the common case): the slab scheduler must
    /// agree with a `BinaryHeap<Reverse<(time, seq)>>` on every pop, every
    /// peek and every length, and drain in the same order at the end.
    #[test]
    fn slab_scheduler_matches_a_binary_heap_reference(
        ops in prop::collection::vec((0u8..3, 0u8..6), 0..200),
    ) {
        let mut slab: SlabScheduler<u64> = SlabScheduler::new();
        // Times are quarter ticks, so ordering the reference by the integer
        // tick is ordering it by time.
        let mut heap: BinaryHeap<Reverse<(u8, u64)>> = BinaryHeap::new();
        let time = |tick: u8| f64::from(tick) * 0.25;
        let mut seq = 0u64;
        for (op, tick) in ops {
            match op {
                0 => {
                    slab.push(time(tick), seq, seq);
                    heap.push(Reverse((tick, seq)));
                    seq += 1;
                }
                1 => {
                    let want = heap.pop().map(|Reverse((t, s))| (time(t), s));
                    prop_assert_eq!(slab.pop(), want);
                }
                _ => {
                    let want = heap.peek().map(|&Reverse((t, s))| (time(t), s));
                    prop_assert_eq!(slab.peek_key(), want);
                    prop_assert_eq!(slab.peek().map(|(t, _, &p)| (t, p)), want);
                }
            }
            prop_assert_eq!(slab.len(), heap.len());
        }
        let rest: Vec<(f64, u64)> = std::iter::from_fn(|| slab.pop()).collect();
        let want: Vec<(f64, u64)> =
            std::iter::from_fn(|| heap.pop()).map(|Reverse((t, s))| (time(t), s)).collect();
        prop_assert_eq!(rest, want);
        prop_assert!(slab.is_empty());
    }
}

#[test]
fn slab_scheduler_recycles_event_slots() {
    // In steady state the arena must stop growing: distinct slots stay
    // bounded by the peak queue depth while pushes keep climbing.
    let (stats, sched) = {
        let n = 12;
        let actors: Vec<Chatter> = (0..n)
            .map(|_| Chatter { n, counter: 0, deliveries: Vec::new(), wakes: Vec::new() })
            .collect();
        let mut sim = Simulation::with_plan(actors, 7, mixed_fault_plan());
        sim.run_until(200.0);
        (sim.stats(), sim.sched_stats())
    };
    assert!(sched.pushes > 1_000);
    assert_eq!(
        sched.arena_slots, sched.peak_queue_len,
        "slots beyond the peak depth were allocated"
    );
    assert!(
        sched.arena_slots as u64 * 4 < sched.pushes,
        "arena ({} slots) grew with pushes ({}) instead of recycling",
        sched.arena_slots,
        sched.pushes
    );
    // Messages still in flight at the t_end cutoff are attempted but neither
    // delivered nor dropped; they sit in the queue alongside pending wakes.
    let in_flight = stats.sends_attempted - stats.deliveries - stats.sends_dropped;
    assert!(in_flight as usize <= sched.queue_len, "in-flight exceeds queued events");
}
