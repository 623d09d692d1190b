//! The batched engine's replay contract: `run_until_pooled` must be
//! bit-identical to the sequential `run_until` at any worker count — same
//! deliveries, same RNG consumption, same counters, same actor state —
//! while actually running `think` slices concurrently. Also covers the
//! failure path: a panicking think inside a multi-actor batch surfaces
//! exactly once and leaves the pool reusable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dpr_linalg::pool::Pool;
use dpr_sim::{Actor, Ctx, FaultPlan, Jitter, Simulation};
use rand::Rng;

/// A toy ranker with a real compute slice: `think` runs a deterministic
/// float iteration over the actor's own accumulator (no RNG, no context),
/// and `on_wake` then publishes the result to a random peer. The
/// `think_armed` flag pins the engine contract that `think` runs exactly
/// once immediately before every `on_wake`.
struct Cruncher {
    id: usize,
    n: usize,
    rounds: u32,
    acc: f64,
    think_armed: bool,
    thinks: u64,
    /// Deterministically schedule a zero-delay follow-up wake on some
    /// rounds — an "interloper" that lands inside a later batch window.
    zero_delay_every: u32,
    /// When set, only some thinks have work (see `has_think_work`); the
    /// rest skip the float iteration, like a converged ranker's.
    lazy: bool,
    log: Vec<(usize, u64)>,
}

impl Cruncher {
    fn fleet(n: usize, rounds: u32, zero_delay_every: u32) -> Vec<Self> {
        (0..n)
            .map(|id| Cruncher {
                id,
                n,
                rounds,
                acc: 0.5,
                think_armed: false,
                thinks: 0,
                zero_delay_every,
                lazy: false,
                log: vec![],
            })
            .collect()
    }

    /// A fleet where about a third of the thinks have work, so some
    /// multi-wake batches hold fewer than two busy thinks.
    fn lazy_fleet(n: usize, rounds: u32) -> Vec<Self> {
        let mut fleet = Self::fleet(n, rounds, 0);
        fleet.iter_mut().for_each(|c| c.lazy = true);
        fleet
    }
}

impl Actor for Cruncher {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let delay = ctx.rng().gen_range(0.0..0.3);
        ctx.schedule_wake(delay);
    }

    fn think(&mut self, now: f64) {
        assert!(!self.think_armed, "think ran twice before one on_wake");
        if self.has_think_work() {
            let mut x = self.acc + now.fract();
            for _ in 0..32 {
                x = (x.mul_add(0.85, 0.15)).sqrt();
            }
            self.acc = x;
        }
        self.think_armed = true;
        self.thinks += 1;
    }

    fn has_think_work(&self) -> bool {
        !self.lazy || (self.id as u64 + self.thinks).is_multiple_of(3)
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
        assert!(self.think_armed, "on_wake fired without a preceding think");
        self.think_armed = false;
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        let dst = ctx.rng().gen_range(0..self.n);
        ctx.send(dst, self.acc.to_bits());
        if self.zero_delay_every > 0 && self.rounds.is_multiple_of(self.zero_delay_every) {
            ctx.schedule_wake(0.0);
        } else {
            let delay = ctx.rng().gen_range(0.0..0.4);
            ctx.schedule_wake(delay);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, from: usize, msg: u64) {
        self.log.push((from, msg));
        self.acc = (self.acc + f64::from_bits(msg)) * 0.5;
    }
}

type Fingerprint = (Vec<(u64, u64, Vec<(usize, u64)>)>, dpr_sim::SimStats, u64);

fn fingerprint(sim: Simulation<Cruncher>) -> Fingerprint {
    let stats = sim.stats();
    let now_bits = sim.now().to_bits();
    let actors =
        sim.into_actors().into_iter().map(|a| (a.acc.to_bits(), a.thinks, a.log)).collect();
    (actors, stats, now_bits)
}

fn lossy_plan() -> FaultPlan {
    FaultPlan::new()
        .with_latency(0.05)
        .with_default_success(0.8)
        .with_jitter(Jitter::Uniform { max: 0.02 })
        .with_straggler(3, 2.0, 1.5)
}

fn run_sequential(zero_delay_every: u32) -> Fingerprint {
    let mut sim =
        Simulation::with_plan(Cruncher::fleet(16, 12, zero_delay_every), 42, lossy_plan());
    sim.run_until(50.0);
    fingerprint(sim)
}

fn run_pooled(workers: usize, zero_delay_every: u32) -> Fingerprint {
    let pool = Pool::with_workers(workers);
    let mut sim =
        Simulation::with_plan(Cruncher::fleet(16, 12, zero_delay_every), 42, lossy_plan());
    sim.run_until_pooled(50.0, &pool);
    fingerprint(sim)
}

#[test]
fn batched_run_is_bit_identical_to_sequential() {
    let reference = run_sequential(0);
    for workers in [1, 2, 4, 8] {
        assert_eq!(run_pooled(workers, 0), reference, "divergence at {workers} workers");
    }
}

#[test]
fn zero_delay_interloper_wakes_replay_in_order() {
    // Committed on_wakes schedule zero-delay self-wakes that sort between
    // remaining batch members; the commit loop must interleave them at
    // exactly their sequential position.
    let reference = run_sequential(3);
    for workers in [1, 2, 4] {
        assert_eq!(run_pooled(workers, 3), reference, "divergence at {workers} workers");
    }
}

#[test]
fn batching_actually_extracts_multi_wake_batches() {
    let pool = Pool::with_workers(2);
    let mut sim = Simulation::with_plan(Cruncher::fleet(16, 12, 0), 42, lossy_plan());
    sim.run_until_pooled(50.0, &pool);
    let sched = sim.sched_stats();
    assert!(sched.batches > 0, "no batches recorded");
    assert!(sched.max_batch >= 2, "no multi-wake batch ever formed (max {})", sched.max_batch);
    assert!(sched.singleton_batches < sched.batches);
    // The sequential path records none — the counters expose the batched
    // engine only.
    let mut seq = Simulation::with_plan(Cruncher::fleet(16, 12, 0), 42, lossy_plan());
    seq.run_until(50.0);
    assert_eq!(seq.sched_stats().batches, 0);
}

#[test]
fn fan_out_gate_is_bit_invisible_and_skips_idle_batches() {
    // Only batches with at least two busy thinks go to the pool; the rest
    // think inline. Either way the run must replay the sequential engine.
    let run = |workers: Option<usize>| {
        let mut sim = Simulation::with_plan(Cruncher::lazy_fleet(16, 12), 42, lossy_plan());
        match workers {
            None => sim.run_until(50.0),
            Some(w) => sim.run_until_pooled(50.0, &Pool::with_workers(w)),
        }
        let sched = sim.sched_stats();
        (fingerprint(sim), sched)
    };
    let (reference, _) = run(None);
    for workers in [1, 2, 4] {
        let (got, sched) = run(Some(workers));
        assert_eq!(got, reference, "divergence at {workers} workers");
        assert!(sched.fanned_out_batches > 0, "no batch had two busy thinks");
        assert!(
            sched.fanned_out_batches < sched.batches - sched.singleton_batches,
            "some multi-wake batch must have run inline ({} of {} fanned out)",
            sched.fanned_out_batches,
            sched.batches
        );
    }
}

#[test]
fn think_runs_exactly_once_per_wake() {
    let pool = Pool::with_workers(4);
    let mut sim = Simulation::with_plan(Cruncher::fleet(8, 10, 2), 7, lossy_plan());
    sim.run_until_pooled(100.0, &pool);
    let stats = sim.stats();
    let thinks: u64 = sim.actors().iter().map(|a| a.thinks).sum();
    assert_eq!(thinks, stats.wakes, "one think per wake, no more, no fewer");
}

/// Panics in `think` for one designated actor; everyone wakes at the same
/// virtual time so the batch is heterogeneous (healthy + poisoned tasks).
struct Poisoned {
    me_is_bad: bool,
}

impl Actor for Poisoned {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.schedule_wake(1.0);
    }
    fn think(&mut self, _now: f64) {
        assert!(!self.me_is_bad, "solve diverged on the poisoned actor");
    }
    fn on_wake(&mut self, _ctx: &mut Ctx<'_, ()>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: usize, _msg: ()) {}
}

#[test]
fn panicking_think_in_a_batch_surfaces_once_and_pool_survives() {
    let pool = Pool::with_workers(2);
    let actors = (0..8).map(|i| Poisoned { me_is_bad: i == 5 }).collect();
    let mut sim = Simulation::with_plan(actors, 0, FaultPlan::new().with_latency(0.5));
    let result = catch_unwind(AssertUnwindSafe(|| sim.run_until_pooled(2.0, &pool)));
    let payload = result.expect_err("the poisoned think must propagate");
    let msg = payload.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        payload.downcast_ref::<&str>().map(|s| (*s).to_string()).expect("string payload")
    });
    assert!(msg.contains("solve diverged"), "lost the original panic message: {msg}");

    // No deadlocked latch, no poisoned reuse: the same pool drives a fresh
    // healthy simulation to completion.
    let healthy = (0..8).map(|_| Poisoned { me_is_bad: false }).collect();
    let mut sim2 = Simulation::with_plan(healthy, 0, FaultPlan::new().with_latency(0.5));
    sim2.run_until_pooled(2.0, &pool);
    assert_eq!(sim2.stats().wakes, 8);
}
