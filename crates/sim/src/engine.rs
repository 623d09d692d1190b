//! The virtual-time event loop.

use dpr_linalg::pool::{Pool, SharedSlice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::faults::{BlockReason, FaultPlan};
use crate::sched::{SchedStats, SlabScheduler};

/// Simulation parameters (the legacy scalar fault model). Internally this
/// converts into a trivial [`FaultPlan`]; use [`Simulation::with_plan`]
/// for per-link loss, jitter, partitions, stragglers and crash windows.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Probability that a [`Ctx::send`] actually reaches its destination —
    /// the paper's `p` (1.0 = reliable network, 0.7 = the lossy setting of
    /// Figs 6–7).
    pub send_success_prob: f64,
    /// Network latency added to every successful send, in virtual time
    /// units. Small relative to think times, as in the paper's model where
    /// waiting dominates.
    pub latency: f64,
    /// Seed for all randomness (think times, drops). Same seed ⇒ identical
    /// run.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { send_success_prob: 1.0, latency: 0.01, seed: 0 }
    }
}

/// Counters the engine maintains across a run. At quiescence,
/// `deliveries + sends_dropped == sends_attempted`; the `*_dropped`
/// sub-counters partition the deterministic share of `sends_dropped`
/// (the remainder was lost to the random loss roll).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to [`Ctx::send`].
    pub sends_attempted: u64,
    /// Messages that were dropped by failure injection.
    pub sends_dropped: u64,
    /// Of the dropped messages, how many were severed by an active
    /// network partition (no loss roll was consumed for these).
    pub partition_dropped: u64,
    /// Of the dropped messages, how many involved a crashed endpoint
    /// (no loss roll was consumed for these).
    pub crash_dropped: u64,
    /// Messages delivered to `on_message`.
    pub deliveries: u64,
    /// Wake events processed.
    pub wakes: u64,
}

/// A simulated process (page ranker). Actors only interact with the world
/// through the [`Ctx`] passed to their callbacks, which keeps them
/// deterministic and testable in isolation.
pub trait Actor {
    /// The message type exchanged between actors.
    type Msg;

    /// Called once at simulation start (schedule the first wake here).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// The pure-compute slice of a wake. The engine calls this exactly
    /// once immediately before every [`Actor::on_wake`], on both the
    /// sequential and the batched path; the batched path may run the
    /// thinks of several same-window wakes concurrently and out of order.
    /// Implementations must therefore touch **only this actor's own
    /// state** — no context, no RNG, no sends — and leave everything
    /// order-sensitive to `on_wake`. Default: no-op (all work in
    /// `on_wake`, which forfeits engine parallelism but stays correct).
    fn think(&mut self, _now: f64) {}

    /// Called when a previously scheduled wake fires.
    fn on_wake(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a message from `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: usize, msg: Self::Msg);
}

/// The actor-facing handle into the engine: clock, RNG, scheduling and
/// messaging.
pub struct Ctx<'a, M> {
    now: f64,
    me: usize,
    kernel: &'a mut Kernel<M>,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// This actor's index.
    #[must_use]
    pub fn me(&self) -> usize {
        self.me
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.kernel.rng
    }

    /// The active fault plan (read-only; the plan is fixed for the run).
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.kernel.plan
    }

    /// Schedules `on_wake` for this actor after `delay` time units. If the
    /// fault plan marks this actor as a straggler, the delay stretches by
    /// its think factor.
    pub fn schedule_wake(&mut self, delay: f64) {
        assert!(delay >= 0.0 && delay.is_finite(), "invalid wake delay {delay}");
        let t = self.now + delay * self.kernel.plan.think_factor(self.me);
        self.kernel.push(t, EventKind::Wake { actor: self.me });
    }

    /// Sends `msg` to actor `dst`. Subject to fault injection: the message
    /// is dropped deterministically when a partition severs the link or an
    /// endpoint is crashed, and randomly with probability
    /// `1 − success_prob` otherwise (the paper's model of Y failing to
    /// reach another group). Returns whether the message survived.
    pub fn send(&mut self, dst: usize, msg: M) -> bool {
        self.kernel.transmit(self.now, self.me, dst, 0.0, false, msg)
    }

    /// Sends reliably regardless of loss, partitions and crashes
    /// (control-plane traffic that the paper does not subject to loss).
    /// Latency effects — straggler scaling and jitter — still apply.
    pub fn send_reliable(&mut self, dst: usize, msg: M) {
        self.kernel.transmit(self.now, self.me, dst, 0.0, true, msg);
    }

    /// Like [`Ctx::send`] but with `extra_delay` added on top of the base
    /// latency — used to model multi-hop journeys (e.g. a DHT lookup that
    /// takes `h` hops before the data message can leave). Still subject to
    /// fault injection. Returns whether the message survived.
    pub fn send_after(&mut self, dst: usize, extra_delay: f64, msg: M) -> bool {
        assert!(extra_delay >= 0.0 && extra_delay.is_finite());
        self.kernel.transmit(self.now, self.me, dst, extra_delay, false, msg)
    }
}

enum EventKind<M> {
    Wake { actor: usize },
    Message { src: usize, dst: usize, msg: M },
}

/// An event pulled out of the queue by batch extraction, waiting to commit
/// in canonical `(time, seq)` order.
enum HeldEvent<M> {
    Wake { t: f64, seq: u64, actor: usize },
    Msg { t: f64, seq: u64, src: usize, dst: usize, msg: M },
}

impl<M> HeldEvent<M> {
    fn key(&self) -> (f64, u64) {
        match self {
            HeldEvent::Wake { t, seq, .. } | HeldEvent::Msg { t, seq, .. } => (*t, *seq),
        }
    }
}

struct Kernel<M> {
    // Dequeue order is by (time, seq): earliest time first, FIFO
    // (sequence) among equal times — identical under either scheduler.
    queue: SlabScheduler<EventKind<M>>,
    rng: SmallRng,
    plan: FaultPlan,
    stats: SimStats,
    seq: u64,
}

impl<M> Kernel<M> {
    fn push(&mut self, time: f64, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    /// The single delivery path behind `send`/`send_reliable`/`send_after`.
    ///
    /// Fault ordering is part of the replay contract: deterministic blocks
    /// (partition, crash) are checked *before* the random loss roll and
    /// consume no RNG; the loss roll only fires when the effective success
    /// probability is below 1; jitter only draws when a distribution is
    /// configured. A trivial plan therefore consumes the RNG exactly as
    /// the pre-plan engine did.
    fn transmit(
        &mut self,
        now: f64,
        src: usize,
        dst: usize,
        extra_delay: f64,
        reliable: bool,
        msg: M,
    ) -> bool {
        self.stats.sends_attempted += 1;
        if !reliable {
            match self.plan.block_reason(src, dst, now) {
                Some(BlockReason::Partition) => {
                    self.stats.partition_dropped += 1;
                    self.stats.sends_dropped += 1;
                    return false;
                }
                Some(BlockReason::Crash) => {
                    self.stats.crash_dropped += 1;
                    self.stats.sends_dropped += 1;
                    return false;
                }
                None => {}
            }
            let p = self.plan.success_prob(src, dst);
            if p < 1.0 && !self.rng.gen_bool(p) {
                self.stats.sends_dropped += 1;
                return false;
            }
        }
        let jitter = self.plan.sample_jitter(&mut self.rng);
        let t = now + self.plan.latency_for(src) + jitter + extra_delay;
        self.push(t, EventKind::Message { src, dst, msg });
        true
    }
}

/// The simulation engine: a set of actors plus a virtual-time event queue.
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    kernel: Kernel<A::Msg>,
    now: f64,
    started: bool,
    /// Reusable batch buffer: `(time, seq, actor)` of the wakes pulled
    /// into the current lookahead window (no per-batch allocation).
    batch: Vec<(f64, u64, usize)>,
    /// Reusable membership mask over actor indices for batch extraction.
    in_batch: Vec<bool>,
    /// Reusable commit buffer: every event (wakes *and* deliveries) pulled
    /// from the queue head this window, in `(time, seq)` order.
    held: Vec<HeldEvent<A::Msg>>,
    /// `dirty[a]`: a held delivery targets actor `a`, so a later wake of
    /// `a` must not be pre-thought (its `think` would miss the delivery).
    dirty: Vec<bool>,
    batches: u64,
    max_batch: usize,
    singleton_batches: u64,
    held_deliveries: u64,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `actors` with the legacy scalar fault
    /// model (equivalent to `with_plan(actors, cfg.seed, cfg.into())`).
    #[must_use]
    pub fn new(actors: Vec<A>, cfg: SimConfig) -> Self {
        Self::with_plan(actors, cfg.seed, FaultPlan::from(cfg))
    }

    /// Creates a simulation over `actors` with a full [`FaultPlan`]. The
    /// same `(seed, plan)` pair replays bit-identically.
    #[must_use]
    pub fn with_plan(actors: Vec<A>, seed: u64, plan: FaultPlan) -> Self {
        Self {
            actors,
            kernel: Kernel {
                queue: SlabScheduler::new(),
                rng: SmallRng::seed_from_u64(seed),
                plan,
                stats: SimStats::default(),
                seq: 0,
            },
            now: 0.0,
            started: false,
            batch: Vec::new(),
            in_batch: Vec::new(),
            held: Vec::new(),
            dirty: Vec::new(),
            batches: 0,
            max_batch: 0,
            singleton_batches: 0,
            held_deliveries: 0,
        }
    }

    /// Adds an actor mid-run (a node joining the network). Its `on_start`
    /// fires immediately at the current virtual time when the simulation
    /// has already started, or at time 0 with everyone else otherwise.
    /// Returns the new actor's index.
    pub fn add_actor(&mut self, actor: A) -> usize {
        let idx = self.actors.len();
        self.actors.push(actor);
        if self.started {
            let mut ctx = Ctx { now: self.now, me: idx, kernel: &mut self.kernel };
            self.actors[idx].on_start(&mut ctx);
        }
        idx
    }

    /// The active fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.kernel.plan
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.kernel.stats
    }

    /// Scheduler allocation counters plus the engine's batch-extraction
    /// counters (arena recycling / parallelism observability; never part
    /// of the replay contract).
    #[must_use]
    pub fn sched_stats(&self) -> SchedStats {
        let mut stats = self.kernel.queue.stats();
        stats.batches = self.batches;
        stats.max_batch = self.max_batch;
        stats.singleton_batches = self.singleton_batches;
        stats.held_deliveries = self.held_deliveries;
        stats
    }

    /// Immutable view of the actors (for measurement between events).
    #[must_use]
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Mutable view of the actors.
    pub fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }

    /// Consumes the simulation and returns the actors (post-run state).
    #[must_use]
    pub fn into_actors(self) -> Vec<A> {
        self.actors
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let mut ctx = Ctx { now: self.now, me: i, kernel: &mut self.kernel };
            self.actors[i].on_start(&mut ctx);
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty
    /// (quiescence).
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((time, kind)) = self.kernel.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        match kind {
            EventKind::Wake { actor } => {
                self.kernel.stats.wakes += 1;
                self.actors[actor].think(self.now);
                let mut ctx = Ctx { now: self.now, me: actor, kernel: &mut self.kernel };
                self.actors[actor].on_wake(&mut ctx);
            }
            EventKind::Message { src, dst, msg } => {
                self.kernel.stats.deliveries += 1;
                let mut ctx = Ctx { now: self.now, me: dst, kernel: &mut self.kernel };
                self.actors[dst].on_message(&mut ctx, src, msg);
            }
        }
        true
    }

    /// Runs until virtual time exceeds `t_end` or the queue drains. Events
    /// at exactly `t_end` are still processed.
    pub fn run_until(&mut self, t_end: f64) {
        self.start_if_needed();
        while let Some((time, _)) = self.kernel.queue.peek_key() {
            if time > t_end {
                break;
            }
            self.step();
        }
        self.now = self.now.max(t_end);
    }

    /// [`Simulation::run_until`] with a deterministic parallel think
    /// stage: the contiguous head of the event queue inside the safe
    /// lookahead window `[t0, t0 + plan.min_send_latency()]` — wakes *and*
    /// message deliveries — is extracted in one scan, the wakes'
    /// [`Actor::think`] slices run concurrently on `pool`, and every held
    /// event then commits in canonical `(time, seq)` order.
    ///
    /// Holding deliveries instead of stopping at them amortizes the
    /// lookahead scan across consecutive windows: a delivery sitting
    /// between two same-window wakes no longer ends the batch (it used to
    /// force a fresh window computation and a singleton batch for the
    /// trailing wake).
    ///
    /// Bit-identical to [`Simulation::run_until`] at any worker count:
    ///
    /// * A held delivery commits at its exact `(time, seq)` position, so
    ///   the sequential order of `on_wake`/`on_message` effects (sends,
    ///   RNG draws, counters, `seq` assignment) is unchanged.
    /// * A wake is only pre-thought when **no held delivery targets its
    ///   actor** (the `dirty` mask): extraction stops at a wake whose
    ///   actor has a pending held delivery, because that delivery commits
    ///   first sequentially and may alter the state `think` reads. Any
    ///   delivery *generated during commit* arrives at
    ///   `≥ t_commit + min_send_latency ≥` every held event's time, and at
    ///   equal time carries a larger `seq` (held events were queued
    ///   earlier), so it sorts after the whole batch.
    /// * `think` touches only the actor's own state and draws no RNG, so
    ///   running the batch's thinks early, concurrently, and in any order
    ///   is unobservable; every order-sensitive effect stays in the
    ///   commit phase.
    /// * A committed event may schedule a near-zero-delay self-wake that
    ///   lands *between* remaining held events; the commit loop replays
    ///   such interlopers inline at exactly their `(time, seq)` position.
    ///   An interloper is always a wake of an already-committed actor
    ///   (only `ctx.me` can self-schedule), never a pre-thought one.
    pub fn run_until_pooled(&mut self, t_end: f64, pool: &Pool)
    where
        A: Send,
    {
        self.start_if_needed();
        let d_min = self.kernel.plan.min_send_latency();
        while let Some((t0, _)) = self.kernel.queue.peek_key() {
            if t0 > t_end {
                break;
            }
            // Extraction: pull the contiguous queue head within the
            // window. Stop at a repeated wake, a wake whose actor has a
            // held delivery pending, or an out-of-window time.
            let window = (t0 + d_min).min(t_end);
            if self.in_batch.len() < self.actors.len() {
                self.in_batch.resize(self.actors.len(), false);
            }
            if self.dirty.len() < self.actors.len() {
                self.dirty.resize(self.actors.len(), false);
            }
            self.batch.clear();
            while let Some((t, seq, kind)) = self.kernel.queue.peek() {
                if t > window {
                    break;
                }
                match kind {
                    EventKind::Wake { actor } => {
                        let actor = *actor;
                        if self.in_batch[actor] || self.dirty[actor] {
                            break;
                        }
                        self.in_batch[actor] = true;
                        self.batch.push((t, seq, actor));
                        self.held.push(HeldEvent::Wake { t, seq, actor });
                        self.kernel.queue.pop();
                    }
                    EventKind::Message { .. } => {
                        let Some((_, EventKind::Message { src, dst, msg })) =
                            self.kernel.queue.pop()
                        else {
                            unreachable!("peeked event vanished");
                        };
                        self.dirty[dst] = true;
                        self.held.push(HeldEvent::Msg { t, seq, src, dst, msg });
                    }
                }
            }
            if !self.batch.is_empty() {
                self.batches += 1;
                self.max_batch = self.max_batch.max(self.batch.len());
            }
            if self.batch.len() == 1 {
                self.singleton_batches += 1;
                let (t, _seq, actor) = self.batch[0];
                self.actors[actor].think(t);
            } else if self.batch.len() > 1 {
                // Think phase: fan the batch out over the pool. Distinct
                // actor indices make the concurrent `&mut` carve-outs
                // disjoint.
                let batch = &self.batch;
                let shared = SharedSlice::new(&mut self.actors);
                pool.for_each_chunk(batch.len(), |i| {
                    let (t, _seq, actor) = batch[i];
                    // SAFETY: batch actors are pairwise distinct.
                    let a = &mut unsafe { shared.slice_mut(actor, 1) }[0];
                    a.think(t);
                });
            }
            // Commit phase: replay held events in (time, seq) order,
            // stepping any interloper event that sorts before the next
            // one at exactly the position the sequential engine would
            // give it.
            let mut held = std::mem::take(&mut self.held);
            for ev in held.drain(..) {
                let (t, seq) = ev.key();
                while let Some((ti, si)) = self.kernel.queue.peek_key() {
                    if ti.total_cmp(&t).then(si.cmp(&seq)).is_lt() {
                        self.step();
                    } else {
                        break;
                    }
                }
                debug_assert!(t >= self.now, "batch commit went back in time");
                self.now = t;
                match ev {
                    HeldEvent::Wake { actor, .. } => {
                        self.kernel.stats.wakes += 1;
                        let mut ctx = Ctx { now: t, me: actor, kernel: &mut self.kernel };
                        self.actors[actor].on_wake(&mut ctx);
                        self.in_batch[actor] = false;
                    }
                    HeldEvent::Msg { src, dst, msg, .. } => {
                        self.kernel.stats.deliveries += 1;
                        self.held_deliveries += 1;
                        let mut ctx = Ctx { now: t, me: dst, kernel: &mut self.kernel };
                        self.actors[dst].on_message(&mut ctx, src, msg);
                        self.dirty[dst] = false;
                    }
                }
            }
            self.held = held;
        }
        self.now = self.now.max(t_end);
    }

    /// Runs in slices of `sample_every` virtual-time units, calling
    /// `observe(time, &actors)` after each slice, until `t_end`. This is
    /// how the figure harnesses sample relative error / average rank over
    /// time.
    pub fn run_sampled(
        &mut self,
        t_end: f64,
        sample_every: f64,
        mut observe: impl FnMut(f64, &[A]),
    ) {
        assert!(sample_every > 0.0);
        let mut t = 0.0;
        while t < t_end {
            t = (t + sample_every).min(t_end);
            self.run_until(t);
            observe(t, &self.actors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Jitter;

    /// Ping-pong pair: actor 0 sends a counter to 1, which returns it
    /// incremented, for `limit` exchanges.
    struct Pinger {
        peer: usize,
        is_initiator: bool,
        limit: u64,
        seen: Vec<u64>,
    }

    impl Actor for Pinger {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.is_initiator {
                ctx.schedule_wake(0.0);
            }
        }
        fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(self.peer, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: usize, msg: u64) {
            self.seen.push(msg);
            if msg < self.limit {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn ping_pair(limit: u64) -> Vec<Pinger> {
        vec![
            Pinger { peer: 1, is_initiator: true, limit, seen: vec![] },
            Pinger { peer: 0, is_initiator: false, limit, seen: vec![] },
        ]
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let mut sim = Simulation::new(ping_pair(10), SimConfig::default());
        while sim.step() {}
        assert_eq!(sim.actors()[1].seen, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(sim.actors()[0].seen, vec![1, 3, 5, 7, 9]);
        assert_eq!(sim.stats().deliveries, 11);
        assert_eq!(sim.stats().sends_dropped, 0);
    }

    #[test]
    fn time_advances_with_latency() {
        let cfg = SimConfig { latency: 0.5, ..SimConfig::default() };
        let mut sim = Simulation::new(ping_pair(4), cfg);
        while sim.step() {}
        // 5 messages × 0.5 latency.
        assert!((sim.now() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn zero_success_probability_drops_everything() {
        let cfg = SimConfig { send_success_prob: 0.0, ..SimConfig::default() };
        let mut sim = Simulation::new(ping_pair(10), cfg);
        while sim.step() {}
        assert_eq!(sim.stats().deliveries, 0);
        assert_eq!(sim.stats().sends_dropped, 1);
        assert!(sim.actors()[1].seen.is_empty());
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let cfg = SimConfig { send_success_prob: 0.5, seed: 3, ..SimConfig::default() };
        let run = |cfg: SimConfig| {
            let mut sim = Simulation::new(ping_pair(50), cfg);
            while sim.step() {}
            (sim.stats(), sim.actors()[0].seen.clone())
        };
        let (stats, seen) = run(cfg);
        assert_eq!((stats, seen.clone()), run(cfg));
        // Some messages were dropped, some delivered, under p = 0.5.
        assert!(stats.sends_dropped > 0);
        assert!(stats.deliveries > 0);
    }

    #[test]
    fn send_reliable_ignores_failure_model() {
        struct Once {
            sent: bool,
            got: bool,
        }
        impl Actor for Once {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if !self.sent {
                    self.sent = true;
                    ctx.send_reliable(1, ());
                }
            }
            fn on_wake(&mut self, _ctx: &mut Ctx<'_, ()>) {}
            fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: usize, _msg: ()) {
                self.got = true;
            }
        }
        let cfg = SimConfig { send_success_prob: 0.0, ..SimConfig::default() };
        let mut sim = Simulation::new(
            vec![Once { sent: false, got: false }, Once { sent: true, got: false }],
            cfg,
        );
        while sim.step() {}
        assert!(sim.actors()[1].got);
    }

    #[test]
    fn send_after_adds_extra_delay() {
        struct Delayed {
            arrival: Option<f64>,
        }
        impl Actor for Delayed {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == 0 {
                    ctx.send_after(1, 2.5, ());
                }
            }
            fn on_wake(&mut self, _: &mut Ctx<'_, ()>) {}
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: usize, _: ()) {
                self.arrival = Some(ctx.now());
            }
        }
        let cfg = SimConfig { latency: 0.5, ..SimConfig::default() };
        let mut sim =
            Simulation::new(vec![Delayed { arrival: None }, Delayed { arrival: None }], cfg);
        while sim.step() {}
        assert_eq!(sim.actors()[1].arrival, Some(3.0)); // 0.5 base + 2.5 extra
    }

    #[test]
    fn run_until_respects_bound() {
        let cfg = SimConfig { latency: 1.0, ..SimConfig::default() };
        let mut sim = Simulation::new(ping_pair(1000), cfg);
        sim.run_until(10.0);
        // 10 messages of latency 1.0 fit in [0, 10].
        assert_eq!(sim.stats().deliveries, 10);
    }

    #[test]
    fn run_sampled_observes_monotone_times() {
        let mut sim = Simulation::new(ping_pair(100), SimConfig::default());
        let mut times = vec![];
        sim.run_sampled(1.0, 0.25, |t, _| times.push(t));
        assert_eq!(times, vec![0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn equal_time_events_processed_fifo() {
        // With zero latency, messages land at identical times; the sequence
        // number must preserve send order.
        struct Burst {
            inbox: Vec<u64>,
        }
        impl Actor for Burst {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                if ctx.me() == 0 {
                    for i in 0..10 {
                        ctx.send(1, i);
                    }
                }
            }
            fn on_wake(&mut self, _: &mut Ctx<'_, u64>) {}
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: usize, m: u64) {
                self.inbox.push(m);
            }
        }
        let cfg = SimConfig { latency: 0.0, ..SimConfig::default() };
        let mut sim = Simulation::new(vec![Burst { inbox: vec![] }, Burst { inbox: vec![] }], cfg);
        while sim.step() {}
        assert_eq!(sim.actors()[1].inbox, (0..10).collect::<Vec<_>>());
    }

    /// Actor that sends one message to its peer every 1.0 time units and
    /// records the arrival times of what it receives.
    struct Ticker {
        peer: usize,
        arrivals: Vec<f64>,
    }
    impl Actor for Ticker {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.schedule_wake(1.0);
        }
        fn on_wake(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.send(self.peer, ());
            ctx.schedule_wake(1.0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: usize, _: ()) {
            self.arrivals.push(ctx.now());
        }
    }

    fn ticker_pair() -> Vec<Ticker> {
        vec![Ticker { peer: 1, arrivals: vec![] }, Ticker { peer: 0, arrivals: vec![] }]
    }

    #[test]
    fn partition_blocks_then_heals() {
        let plan = FaultPlan::new().with_latency(0.0).with_partition(2.5, 6.5, &[0]);
        let mut sim = Simulation::with_plan(ticker_pair(), 0, plan);
        sim.run_until(10.0);
        // Sends fire at t = 1..=10; those in [2.5, 6.5) are severed.
        let arrivals = &sim.actors()[1].arrivals;
        assert_eq!(arrivals, &[1.0, 2.0, 7.0, 8.0, 9.0, 10.0]);
        let stats = sim.stats();
        assert_eq!(stats.partition_dropped, 8); // t = 3..=6 from both sides
        assert_eq!(stats.sends_dropped, stats.partition_dropped);
        assert_eq!(stats.deliveries + stats.sends_dropped, stats.sends_attempted);
    }

    #[test]
    fn crash_window_drops_both_directions() {
        let plan = FaultPlan::new().with_latency(0.0).with_crash(1, 0.0, 5.5);
        let mut sim = Simulation::with_plan(ticker_pair(), 0, plan);
        sim.run_until(8.0);
        // Node 1 is down until 5.5: nothing to or from it gets through.
        assert_eq!(sim.actors()[1].arrivals, vec![6.0, 7.0, 8.0]);
        assert_eq!(sim.actors()[0].arrivals, vec![6.0, 7.0, 8.0]);
        assert_eq!(sim.stats().crash_dropped, 10);
    }

    #[test]
    fn straggler_think_factor_stretches_wakes() {
        let plan = FaultPlan::new().with_latency(0.0).with_straggler(0, 1.0, 2.0);
        let mut sim = Simulation::with_plan(ticker_pair(), 0, plan);
        sim.run_until(8.0);
        // Node 0 ticks every 2.0 instead of 1.0; node 1 is unaffected.
        assert_eq!(sim.actors()[1].arrivals, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(sim.actors()[0].arrivals.len(), 8);
    }

    #[test]
    fn per_link_loss_is_directional() {
        let plan = FaultPlan::new().with_latency(0.0).with_link_success(0, 1, 0.0);
        let mut sim = Simulation::with_plan(ticker_pair(), 0, plan);
        sim.run_until(5.0);
        assert!(sim.actors()[1].arrivals.is_empty());
        assert_eq!(sim.actors()[0].arrivals.len(), 5);
    }

    #[test]
    fn jitter_delays_arrivals_deterministically() {
        let plan = FaultPlan::new().with_latency(0.5).with_jitter(Jitter::Uniform { max: 0.25 });
        let run = || {
            let mut sim = Simulation::with_plan(ticker_pair(), 7, plan.clone());
            sim.run_until(5.0);
            sim.actors()[1].arrivals.clone()
        };
        let arrivals = run();
        assert_eq!(arrivals, run());
        for (i, t) in arrivals.iter().enumerate() {
            let base = (i + 1) as f64 + 0.5;
            assert!(*t >= base && *t < base + 0.25, "arrival {t} outside jitter window");
        }
    }

    #[test]
    fn add_actor_joins_mid_run() {
        let plan = FaultPlan::new().with_latency(0.0);
        let mut sim = Simulation::with_plan(ticker_pair(), 0, plan);
        sim.run_until(3.0);
        let idx = sim.add_actor(Ticker { peer: 0, arrivals: vec![] });
        assert_eq!(idx, 2);
        sim.run_until(6.0);
        // The joiner started its own clock at t = 3 and ticked at 4, 5, 6.
        assert_eq!(sim.actors()[0].arrivals.len(), 6 + 3);
    }

    #[test]
    fn pooled_run_is_bit_identical_with_interleaved_deliveries() {
        // Tickers exchange messages every tick, so deliveries land between
        // same-window wakes: the held-delivery path is exercised heavily.
        let plan = || FaultPlan::new().with_latency(0.25).with_default_success(0.9);
        let reference = {
            let mut sim = Simulation::with_plan(ticker_pair(), 5, plan());
            sim.run_until(50.0);
            (sim.stats(), sim.actors()[0].arrivals.clone(), sim.actors()[1].arrivals.clone())
        };
        for workers in [1, 2, 4] {
            let pool = Pool::with_workers(workers);
            let mut sim = Simulation::with_plan(ticker_pair(), 5, plan());
            sim.run_until_pooled(50.0, &pool);
            assert_eq!(reference.0, sim.stats(), "stats diverged at {workers} workers");
            assert_eq!(reference.1, sim.actors()[0].arrivals);
            assert_eq!(reference.2, sim.actors()[1].arrivals);
            let sched = sim.sched_stats();
            assert!(
                sched.held_deliveries > 0,
                "deliveries between wakes should ride inside batches"
            );
        }
    }

    #[test]
    fn dirty_actor_wake_is_not_pre_thought() {
        // Actor 1's `think` snapshots state that a same-window delivery
        // mutates. The delivery (t = 1.5) sorts before the wake (t = 1.6),
        // so `think` must observe it — the dirty mask forces the wake out
        // of the pre-think batch.
        struct Snap {
            inbox_sum: u64,
            thought: Vec<u64>,
        }
        impl Actor for Snap {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                if ctx.me() == 0 {
                    ctx.schedule_wake(1.0);
                } else {
                    ctx.schedule_wake(1.6);
                }
            }
            fn think(&mut self, _now: f64) {
                self.thought.push(self.inbox_sum);
            }
            fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
                if ctx.me() == 0 {
                    ctx.send(1, 7);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: usize, msg: u64) {
                self.inbox_sum += msg;
            }
        }
        let actors =
            || vec![Snap { inbox_sum: 0, thought: vec![] }, Snap { inbox_sum: 0, thought: vec![] }];
        let plan = FaultPlan::new().with_latency(0.5);
        for workers in [1, 4] {
            let pool = Pool::with_workers(workers);
            let mut sim = Simulation::with_plan(actors(), 0, plan.clone());
            sim.run_until_pooled(3.0, &pool);
            assert_eq!(
                sim.actors()[1].thought,
                vec![7],
                "actor 1's think missed the earlier delivery at {workers} workers"
            );
        }
    }

    #[test]
    fn trivial_plan_is_bit_compatible_with_sim_config() {
        let cfg = SimConfig { send_success_prob: 0.5, latency: 0.3, seed: 3 };
        let via_cfg = {
            let mut sim = Simulation::new(ping_pair(50), cfg);
            while sim.step() {}
            (sim.stats(), sim.actors()[0].seen.clone(), sim.now())
        };
        let via_plan = {
            let plan = FaultPlan::new().with_latency(0.3).with_default_success(0.5);
            let mut sim = Simulation::with_plan(ping_pair(50), 3, plan);
            while sim.step() {}
            (sim.stats(), sim.actors()[0].seen.clone(), sim.now())
        };
        assert_eq!(via_cfg, via_plan);
    }
}
