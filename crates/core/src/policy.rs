//! The paper's five data-storage-type assignment strategies (§6.1):
//! *Hot*, *Cold*, *Greedy*, *Optimal*, and the RL-driven *MiniCost* policy.
//!
//! The trait is **batch-first and columnar**: the simulator hands every
//! policy a [`DecisionContext`] describing a *batch* of files (identified by
//! their global indices into the columnar [`FleetState`]) and asks for one
//! tier per batch entry. A batch may be the whole fleet (single-threaded
//! runs) or one shard of it (the parallel engine in [`crate::engine`]). The
//! sharding determinism contract (DESIGN.md §9) requires every policy's
//! decision for a file to depend only on that file, the day, and the file's
//! own current tier — never on which other files share the batch.

use crate::features::FeatureConfig;
use crate::fleet::{FeatureBlock, FleetState, FleetView};
use crate::optimal::optimal_plan;
use pricing::{CostModel, Money, Tier};
use rl::actor_critic::argmax;
use rl::{NetSpec, TrainResult};
use tracegen::Trace;

/// Everything a policy may observe when deciding tiers for one batch of
/// files on one day.
///
/// The information model follows the paper: *Hot*/*Cold* ignore the fleet;
/// *Greedy* reads the decided day's true frequencies (it is an "offline
/// greedy algorithm for each day"); *Optimal* reads the whole future;
/// the RL policy reads only history strictly before `day`.
pub struct DecisionContext<'a> {
    /// The day being decided (tiers apply for this whole day).
    pub day: usize,
    /// The whole fleet in columnar form (each policy uses only its allowed
    /// slice of history).
    pub fleet: &'a FleetState,
    /// The pricing/cost model.
    pub model: &'a CostModel,
    /// Global indices (into `fleet`) of the files in this batch, in
    /// ascending order.
    pub batch: &'a [usize],
    /// Tier each batch entry occupied at the end of the previous day,
    /// parallel to `batch`.
    pub current: &'a [Tier],
}

impl<'a> DecisionContext<'a> {
    /// Number of files in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The global fleet index of batch entry `slot`. Total: an
    /// out-of-range slot maps to index `usize::MAX`, which every fleet
    /// accessor then reads as zero values.
    #[must_use]
    pub fn global(&self, slot: usize) -> usize {
        self.batch.get(slot).copied().unwrap_or(usize::MAX)
    }

    /// Size of batch entry `slot`.
    #[must_use]
    pub fn size_gb(&self, slot: usize) -> f64 {
        self.fleet.size_gb(self.global(slot))
    }

    /// Full read and write series of batch entry `slot`, from day 0 —
    /// `None` on a serve window, which never holds them (see
    /// [`FleetState::history`]).
    #[must_use]
    pub fn history(&self, slot: usize) -> Option<(&'a [u64], &'a [u64])> {
        self.fleet.history(self.global(slot))
    }

    /// Read/write pair of batch entry `slot` on the decided day.
    #[must_use]
    pub fn day_counts(&self, slot: usize) -> (u64, u64) {
        self.fleet.day_counts(self.global(slot), self.day)
    }

    /// The batch as a borrowed [`FleetView`] (the batched-featurization
    /// input).
    #[must_use]
    pub fn view(&self) -> FleetView<'a> {
        self.fleet.view(self.batch, self.day)
    }
}

/// A data-storage-type assignment strategy.
///
/// Implementors provide [`Policy::decide_one`] (and may override
/// [`Policy::decide_batch_into`] when a batched formulation is cheaper, as
/// the RL policy's single network pass is) plus [`Policy::fork`], which
/// the parallel engine uses to give each shard worker a private instance.
///
/// The batch API is *buffer-reusing*: the engine's day loop calls
/// [`Policy::decide_batch_into`] with one decision buffer hoisted outside
/// the loop, so steady-state decision sweeps allocate nothing (the F5
/// `hot-alloc` gate in `cargo xtask check` enforces this).
/// [`Policy::decide_batch`] is the owned-buffer convenience wrapper.
///
/// # Determinism contract
///
/// `decide_one(ctx, slot)` must be a pure function of
/// `(file, day, current-tier-of-that-file, policy state)`, and
/// `decide_batch_into` must equal slot-wise `decide_one` bit-for-bit —
/// regardless of the buffer's prior contents — so that sharded and
/// single-threaded simulations produce identical ledgers (DESIGN.md §9).
/// The policy-conformance suite in `tests/policy_conformance.rs` enforces
/// both properties for every shipped policy.
pub trait Policy: Send {
    /// Short name for reports ("hot", "greedy", "minicost", ...).
    fn name(&self) -> &'static str;

    /// Tier for the single batch entry `slot` of `ctx`.
    fn decide_one(&mut self, ctx: &DecisionContext<'_>, slot: usize) -> Tier;

    /// Writes one tier per batch entry of `ctx` into `out`, in batch
    /// order, replacing whatever `out` held before.
    ///
    /// The default implementation maps [`Policy::decide_one`] over the
    /// batch; override it only with an implementation that writes the
    /// exact same tiers. Implementations must fully overwrite `out`
    /// (clear-then-fill) so a dirty reused buffer can never leak a stale
    /// decision.
    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.extend((0..ctx.len()).map(|slot| self.decide_one(ctx, slot)));
    }

    /// Tiers for every batch entry of `ctx`, one per file, in batch order.
    ///
    /// Owned-buffer convenience over [`Policy::decide_batch_into`] for
    /// call sites outside the engine's day loop; the sharded engine reuses
    /// one buffer instead.
    fn decide_batch(&mut self, ctx: &DecisionContext<'_>) -> Vec<Tier> {
        let mut out = Vec::new();
        self.decide_batch_into(ctx, &mut out);
        out
    }

    /// Decides every file of a row-major [`Trace`] in one batch.
    /// Columnarizes the trace first, so only suitable for one-shot calls
    /// (tests, examples) — repeated callers should build the
    /// [`FleetState`] once themselves. `current` holds one tier per file.
    fn decide_fleet(
        &mut self,
        day: usize,
        trace: &Trace,
        model: &CostModel,
        current: &[Tier],
    ) -> Vec<Tier> {
        assert_eq!(current.len(), trace.files.len(), "one current tier per file");
        let fleet = FleetState::from_trace(trace);
        let batch: Vec<usize> = (0..fleet.len()).collect();
        self.decide_batch(&DecisionContext { day, fleet: &fleet, model, batch: &batch, current })
    }

    /// An independent copy for a parallel shard worker.
    ///
    /// The fork must make decisions identical to `self`'s; accumulated
    /// per-instance state (caches, plans) may be dropped as long as it is
    /// rebuilt deterministically.
    fn fork(&self) -> Box<dyn Policy>;
}

/// Keeps every file in one fixed tier forever.
#[derive(Clone, Copy, Debug)]
pub struct SingleTierPolicy {
    tier: Tier,
    name: &'static str,
}

impl SingleTierPolicy {
    /// A policy pinned to `tier`.
    #[must_use]
    pub fn new(tier: Tier) -> SingleTierPolicy {
        SingleTierPolicy { tier, name: tier.name() }
    }
}

impl Policy for SingleTierPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide_one(&mut self, _ctx: &DecisionContext<'_>, _slot: usize) -> Tier {
        self.tier
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.resize(ctx.len(), self.tier);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Hot* baseline: everything in hot storage.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotPolicy;

impl Policy for HotPolicy {
    fn name(&self) -> &'static str {
        "hot"
    }

    fn decide_one(&mut self, _ctx: &DecisionContext<'_>, _slot: usize) -> Tier {
        Tier::Hot
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.resize(ctx.len(), Tier::Hot);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Cold* baseline: everything in cool storage.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColdPolicy;

impl Policy for ColdPolicy {
    fn name(&self) -> &'static str {
        "cold"
    }

    fn decide_one(&mut self, _ctx: &DecisionContext<'_>, _slot: usize) -> Tier {
        Tier::Cool
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.resize(ctx.len(), Tier::Cool);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Greedy* baseline: for each day, each file goes to the tier
/// minimizing that single day's cost including the tier-change charge
/// ("simply select the storage type with the minimum money cost only for
/// the next day", §3.2). Myopic by construction — no look-ahead.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyPolicy;

impl Policy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide_one(&mut self, ctx: &DecisionContext<'_>, slot: usize) -> Tier {
        let cur = ctx.current[slot];
        let size_gb = ctx.size_gb(slot);
        let (r, w) = ctx.day_counts(slot);
        let q = |t: Tier| {
            ctx.model.policy().change_cost(cur, t, size_gb)
                + ctx.model.steady_day_cost(size_gb, r, w, t)
        };
        Tier::all().reduce(|best, t| if q(t) < q(best) { t } else { best }).unwrap_or(cur)
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Optimal* baseline: the exact offline optimum, precomputed
/// per file over the full horizon (see [`crate::optimal`]).
#[derive(Clone, Debug)]
pub struct OptimalPolicy {
    plans: Vec<Vec<Tier>>,
    /// Total cost the planner expects (useful for cross-checking the
    /// simulator's ledger).
    pub planned_cost: Money,
}

impl OptimalPolicy {
    /// Solves the full-horizon optimum for every file of `trace`.
    #[must_use]
    pub fn plan(trace: &Trace, model: &CostModel, initial_tier: Tier) -> OptimalPolicy {
        let mut plans = Vec::with_capacity(trace.files.len());
        let mut planned_cost = Money::ZERO;
        for file in &trace.files {
            let (plan, cost) = optimal_plan(file, model, initial_tier);
            planned_cost += cost;
            plans.push(plan);
        }
        OptimalPolicy { plans, planned_cost }
    }
}

impl Policy for OptimalPolicy {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn decide_one(&mut self, ctx: &DecisionContext<'_>, slot: usize) -> Tier {
        self.plans[ctx.global(slot)][ctx.day]
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

/// The trained MiniCost policy: one shared actor network applied per file
/// (O(1) per decision, O(n) per day — §5.1).
pub struct RlPolicy {
    actor: nn::Network,
    spec: NetSpec,
    features: FeatureConfig,
    name: &'static str,
    /// Batched-featurization scratch, hoisted so the daily decision sweep
    /// reuses one `files x state_dim` block instead of reallocating it.
    block: FeatureBlock,
    /// Forward-pass ping-pong buffers, reused for the same reason.
    scratch: nn::ForwardScratch,
}

impl RlPolicy {
    /// Wraps a trained actor. The spec's state width must match the
    /// feature configuration.
    #[must_use]
    pub fn new(result: &TrainResult, features: FeatureConfig) -> RlPolicy {
        RlPolicy::from_params(result.spec, &result.actor_params, features)
    }

    /// Builds directly from a spec and parameter vector.
    #[must_use]
    pub fn from_params(spec: NetSpec, actor_params: &[f64], features: FeatureConfig) -> RlPolicy {
        assert_eq!(
            spec.state_dim(),
            features.state_dim(),
            "network spec and feature config disagree on state width"
        );
        let mut actor = spec.build_actor(0);
        actor.set_params(actor_params);
        RlPolicy {
            actor,
            spec,
            features,
            name: "minicost",
            block: FeatureBlock::new(),
            scratch: nn::ForwardScratch::new(),
        }
    }
}

impl Policy for RlPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide_one(&mut self, ctx: &DecisionContext<'_>, slot: usize) -> Tier {
        let current = ctx.current[slot];
        if ctx.day == 0 {
            // Nothing has been observed yet: every file encodes to the same
            // all-padding state, so acting would apply one blind action to
            // the whole catalog (catastrophic for the traffic head). Hold
            // the current tier until the first observation arrives.
            return current;
        }
        // A batch of one through the same hoisted block and forward buffers
        // as the batched path.
        let batch = [ctx.global(slot)];
        let view = ctx.fleet.view(&batch, ctx.day);
        self.features.encode_block(&view, &[current], &mut self.block);
        let logits = self.actor.forward_into(self.block.matrix(), &mut self.scratch);
        // The actor emits one logit per tier, so argmax is always a valid
        // index; hold the current tier if the network is ever mis-sized.
        Tier::from_index(argmax(logits.row(0))).unwrap_or(current)
    }

    /// Greedy actions for the whole batch in one network pass.
    ///
    /// The batch is featurized straight off the columnar fleet into the
    /// policy's hoisted [`FeatureBlock`] and pushed through the actor's
    /// buffer-reusing [`nn::Network::forward_into`], so the steady-state
    /// sweep allocates nothing — this is what makes the daily decision
    /// sweep of Fig. 12 cheap at scale. Every forward row depends only on
    /// its own input row, so the result is bit-identical to slot-wise
    /// [`Policy::decide_one`] regardless of batch composition.
    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        if ctx.day == 0 || ctx.is_empty() {
            out.extend_from_slice(ctx.current);
            return;
        }
        self.features.encode_block(&ctx.view(), ctx.current, &mut self.block);
        let logits = self.actor.forward_into(self.block.matrix(), &mut self.scratch);
        out.extend(
            ctx.current
                .iter()
                .enumerate()
                .map(|(row, &cur)| Tier::from_index(argmax(logits.row(row))).unwrap_or(cur)),
        );
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(RlPolicy::from_params(self.spec, &self.actor.param_vector(), self.features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(30, 14, 3)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    fn fleet(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn ctx<'a>(
        fleet: &'a FleetState,
        model: &'a CostModel,
        day: usize,
        batch: &'a [usize],
        current: &'a [Tier],
    ) -> DecisionContext<'a> {
        DecisionContext { day, fleet, model, batch, current }
    }

    fn test_spec() -> NetSpec {
        NetSpec {
            window: 4,
            channels: crate::features::FeatureConfig::CHANNELS,
            extras: crate::features::EXTRA_FEATURES,
            filters: 4,
            kernel: 2,
            stride: 1,
            hidden: 8,
            actions: 3,
        }
    }

    #[test]
    fn single_tier_policies_are_constant() {
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current = vec![Tier::Hot; trace.len()];
        let c = ctx(&columns, &model, 0, &batch, &current);
        assert!(HotPolicy.decide_batch(&c).iter().all(|&t| t == Tier::Hot));
        assert!(ColdPolicy.decide_batch(&c).iter().all(|&t| t == Tier::Cool));
        let mut archive = SingleTierPolicy::new(Tier::Archive);
        assert!(archive.decide_batch(&c).iter().all(|&t| t == Tier::Archive));
        assert_eq!(HotPolicy.name(), "hot");
        assert_eq!(ColdPolicy.name(), "cold");
        assert_eq!(archive.name(), "archive");
    }

    #[test]
    fn greedy_picks_the_cheapest_single_day() {
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current = vec![Tier::Hot; trace.len()];
        let c = ctx(&columns, &model, 5, &batch, &current);
        let decision = GreedyPolicy.decide_batch(&c);
        for (i, (&chosen, file)) in decision.iter().zip(&trace.files).enumerate() {
            let (r, w) = file.day(5);
            let cost_of = |t: Tier| {
                model.policy().change_cost(Tier::Hot, t, file.size_gb)
                    + model.steady_day_cost(file.size_gb, r, w, t)
            };
            for other in Tier::all() {
                assert!(
                    cost_of(chosen) <= cost_of(other),
                    "file {i}: {chosen} not cheapest vs {other}"
                );
            }
        }
    }

    #[test]
    fn greedy_accounts_for_change_cost() {
        // A 20 GB file in cool storage with one read today: moving to hot
        // would save on the read but the cool->hot retrieval charge
        // (\$0.01/GB over 20 GB) exceeds the saving, so greedy stays put.
        let (_, model) = setup();
        let file = tracegen::FileSeries {
            id: tracegen::FileId(0),
            size_gb: 20.0,
            reads: vec![1],
            writes: vec![0],
        };
        let trace = Trace { days: 1, files: vec![file] };
        let current = vec![Tier::Cool];
        let decision = GreedyPolicy.decide_fleet(0, &trace, &model, &current);
        assert_eq!(decision[0], Tier::Cool, "change cost must deter the move");

        // Sanity check of the premise: with two reads the saving flips and
        // greedy moves to hot.
        let file2 = tracegen::FileSeries {
            id: tracegen::FileId(0),
            size_gb: 20.0,
            reads: vec![2],
            writes: vec![0],
        };
        let trace2 = Trace { days: 1, files: vec![file2] };
        assert_eq!(GreedyPolicy.decide_fleet(0, &trace2, &model, &current)[0], Tier::Hot);
    }

    #[test]
    fn optimal_policy_replays_its_plans() {
        let (trace, model) = setup();
        let mut opt = OptimalPolicy::plan(&trace, &model, Tier::Hot);
        assert!(opt.planned_cost > Money::ZERO);
        let current = vec![Tier::Hot; trace.len()];
        for day in [0usize, 7, 13] {
            let decision = opt.decide_fleet(day, &trace, &model, &current);
            assert_eq!(decision.len(), trace.len());
            for (plan, &tier) in opt.plans.iter().zip(&decision) {
                assert_eq!(plan[day], tier);
            }
        }
        assert_eq!(opt.name(), "optimal");
    }

    #[test]
    fn optimal_indexes_plans_by_global_index() {
        // A sub-batch must look plans up by global trace index, not by the
        // file's position inside the batch — the sharding correctness
        // linchpin.
        let (trace, model) = setup();
        let mut opt = OptimalPolicy::plan(&trace, &model, Tier::Hot);
        let columns = FleetState::from_trace(&trace);
        let batch = vec![7usize, 12, 25];
        let current = vec![Tier::Hot; batch.len()];
        let c = ctx(&columns, &model, 9, &batch, &current);
        let decision = opt.decide_batch(&c);
        for (slot, &ix) in batch.iter().enumerate() {
            assert_eq!(decision[slot], opt.plans[ix][9]);
        }
    }

    #[test]
    fn rl_policy_produces_valid_tiers() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(1);
        let mut policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let current = vec![Tier::Hot; trace.len()];
        let decision = policy.decide_fleet(6, &trace, &model, &current);
        assert_eq!(decision.len(), trace.len());
        assert_eq!(policy.name(), "minicost");
    }

    #[test]
    fn rl_policy_is_deterministic() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(2);
        let mut p1 = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let mut p2 = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let current = vec![Tier::Cool; trace.len()];
        assert_eq!(
            p1.decide_fleet(9, &trace, &model, &current),
            p2.decide_fleet(9, &trace, &model, &current)
        );
    }

    #[test]
    fn batched_decide_matches_per_file() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(9);
        let mut policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current: Vec<Tier> =
            (0..trace.len()).map(|i| Tier::from_index(i % 3).unwrap()).collect();
        for day in [0usize, 1, 7] {
            let c = ctx(&columns, &model, day, &batch, &current);
            let batched = policy.decide_batch(&c);
            let singly: Vec<Tier> = (0..c.len()).map(|slot| policy.decide_one(&c, slot)).collect();
            assert_eq!(batched, singly, "day {day}");
        }
    }

    #[test]
    fn decide_batch_into_overwrites_dirty_buffers() {
        // The engine reuses one decision buffer across days; a stale entry
        // must never survive a refill, for any override of the method.
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(9);
        let rl = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current = vec![Tier::Hot; trace.len()];
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(HotPolicy),
            Box::new(ColdPolicy),
            Box::new(SingleTierPolicy::new(Tier::Archive)),
            Box::new(GreedyPolicy),
            rl.fork(),
        ];
        for day in [0usize, 3] {
            let c = ctx(&columns, &model, day, &batch, &current);
            for policy in &mut policies {
                let mut dirty = vec![Tier::Archive; trace.len() + 17];
                policy.decide_batch_into(&c, &mut dirty);
                assert_eq!(dirty, policy.decide_batch(&c), "{} day {day}", policy.name());
            }
        }
    }

    #[test]
    fn forked_rl_policy_decides_identically() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(5);
        let mut policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let mut fork = policy.fork();
        let (trace, model) = setup();
        let current = vec![Tier::Hot; trace.len()];
        assert_eq!(
            policy.decide_fleet(6, &trace, &model, &current),
            fork.decide_fleet(6, &trace, &model, &current)
        );
        assert_eq!(fork.name(), "minicost");
    }

    #[test]
    #[should_panic(expected = "disagree on state width")]
    fn rl_policy_rejects_mismatched_features() {
        let spec = NetSpec {
            window: 4,
            channels: crate::features::FeatureConfig::CHANNELS,
            extras: 1, // wrong: EXTRA_FEATURES is larger
            filters: 4,
            kernel: 2,
            stride: 1,
            hidden: 8,
            actions: 3,
        };
        let actor = spec.build_actor(1);
        let _ = RlPolicy::from_params(spec, &actor.param_vector(), FeatureConfig { window: 4 });
    }
}
