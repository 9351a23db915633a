//! Wrappers of the program's public traits that forward every call to the
//! real implementation and record spans around it.
//!
//! [`TracedPolicy`] also logs each batch decision (the tiers before and
//! after), which is what the benchmark's replays of billing, migration
//! and the RL forward pass run over.

use crate::spans::Tracer;
use minicost::{DecisionContext, Policy, Tier};
use rl::{Env, Step};
use std::sync::{Arc, Mutex};

/// One `decide_batch_into` call as the wrapper saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    pub day: usize,
    pub batch: Vec<usize>,
    pub current: Vec<Tier>,
    pub decided: Vec<Tier>,
}

impl Decision {
    /// Slots whose decided tier differs from the current one.
    pub fn changes(&self) -> usize {
        self.current.iter().zip(&self.decided).filter(|(c, d)| c != d).count()
    }
}

/// Shared log of every decision the wrapper (and its forks) forwarded.
pub type DecisionLog = Arc<Mutex<Vec<Decision>>>;

/// A [`Policy`] that forwards to `inner`, timing each batch decision as a
/// `policy.decide` span and logging its inputs and outputs.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    tracer: Tracer,
    log: DecisionLog,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn Policy>, tracer: Tracer) -> TracedPolicy {
        TracedPolicy { inner, tracer, log: DecisionLog::default() }
    }

    /// Takes the decisions logged so far, in call order.
    pub fn take_log(&self) -> Vec<Decision> {
        std::mem::take(&mut *self.log.lock().expect("decision log poisoned"))
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide_one(&mut self, ctx: &DecisionContext<'_>, slot: usize) -> Tier {
        self.inner.decide_one(ctx, slot)
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        let inner = &mut self.inner;
        self.tracer.span("policy.decide", Some(ctx.day), || inner.decide_batch_into(ctx, out));
        let decision = Decision {
            day: ctx.day,
            batch: ctx.batch.to_vec(),
            current: ctx.current.to_vec(),
            decided: out.clone(),
        };
        self.log.lock().expect("decision log poisoned").push(decision);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(TracedPolicy {
            inner: self.inner.fork(),
            tracer: self.tracer.clone(),
            log: Arc::clone(&self.log),
        })
    }
}

/// An [`Env`] that forwards to `inner`, timing every call as an `mdp.env`
/// span and counting steps.
pub struct TracedEnv<E> {
    inner: E,
    tracer: Tracer,
}

impl<E: Env> TracedEnv<E> {
    pub fn new(inner: E, tracer: Tracer) -> TracedEnv<E> {
        TracedEnv { inner, tracer }
    }
}

impl<E: Env> Env for TracedEnv<E> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn n_actions(&self) -> usize {
        self.inner.n_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        let inner = &mut self.inner;
        self.tracer.span("mdp.env", None, || inner.reset())
    }

    fn step(&mut self, action: usize) -> Step {
        let inner = &mut self.inner;
        self.tracer.span("mdp.env.step", None, || inner.step(action))
    }

    fn optimal_action(&self) -> Option<usize> {
        self.tracer.span("mdp.env", None, || self.inner.optimal_action())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicost::mdp::TieringEnvConfig;
    use minicost::{
        serve, simulate, CostModel, GreedyPolicy, MiniCostConfig, PricingPolicy, RlPolicy,
        ServeConfig, SimConfig, TieringEnv, Trace, TraceConfig,
    };
    use rl::A3cTrainer;

    fn tiny() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(40, 12, 5)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    fn rl_policy(seed: u64) -> RlPolicy {
        let cfg = MiniCostConfig::fast();
        let spec = cfg.net_spec();
        RlPolicy::from_params(spec, &spec.build_actor(seed).param_vector(), cfg.features)
    }

    #[test]
    fn wrapped_simulate_ledger_equals_unwrapped() {
        let (trace, model) = tiny();
        for workers in [1, 2] {
            let cfg = SimConfig { workers, ..SimConfig::default() };
            let plain = simulate(&trace, &model, &mut rl_policy(3), &cfg);
            let mut wrapped = TracedPolicy::new(Box::new(rl_policy(3)), Tracer::new());
            let traced = simulate(&trace, &model, &mut wrapped, &cfg);
            assert_eq!(traced.daily, plain.daily, "workers={workers}");
            assert_eq!(traced.per_file, plain.per_file);
            assert_eq!(traced.occupancy, plain.occupancy);
            assert_eq!(traced.tier_changes, plain.tier_changes);
            let log = wrapped.take_log();
            assert_eq!(log.len(), trace.days * workers);
            let changes: usize = log.iter().map(Decision::changes).sum();
            assert_eq!(changes as u64, plain.tier_changes);
        }
    }

    #[test]
    fn wrapped_serve_ledger_equals_unwrapped() {
        let (trace, model) = tiny();
        let cfg = ServeConfig::default();
        let plain = serve(&trace, &model, &mut GreedyPolicy, &cfg).expect("serve");
        let tracer = Tracer::new();
        let mut wrapped = TracedPolicy::new(Box::new(GreedyPolicy), tracer.clone());
        let traced = serve(&trace, &model, &mut wrapped, &cfg).expect("serve");
        assert_eq!(traced.result.daily, plain.result.daily);
        assert_eq!(traced.result.per_file, plain.result.per_file);
        assert_eq!(traced.result.occupancy, plain.result.occupancy);
        let days: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.day).collect();
        assert_eq!(days, (0..trace.days).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn wrapped_env_trains_bit_identical_parameters() {
        let (trace, model) = tiny();
        let mut cfg = MiniCostConfig::fast();
        cfg.a3c.workers = 1;
        cfg.a3c.total_updates = 30;
        let trace = Arc::new(trace);
        let model = Arc::new(model);
        let env_cfg = TieringEnvConfig {
            features: cfg.features,
            reward: cfg.reward,
            episode_len: cfg.episode_len,
            seed: cfg.a3c.seed,
            with_oracle: true,
        };
        let make = |tracer: Option<Tracer>| {
            let trainer = A3cTrainer::new(cfg.net_spec(), cfg.a3c.clone());
            let (trace, model, env_cfg) = (&trace, &model, &env_cfg);
            match tracer {
                None => trainer.train(|_| {
                    TieringEnv::new(Arc::clone(trace), Arc::clone(model), env_cfg.clone())
                }),
                Some(t) => trainer.train(|_| {
                    let env =
                        TieringEnv::new(Arc::clone(trace), Arc::clone(model), env_cfg.clone());
                    TracedEnv::new(env, t.clone())
                }),
            }
        };
        let plain = make(None);
        let tracer = Tracer::new();
        let traced = make(Some(tracer.clone()));
        assert_eq!(traced.actor_params, plain.actor_params);
        assert_eq!(traced.critic_params, plain.critic_params);
        let steps = tracer.spans().iter().filter(|s| s.name == "mdp.env.step").count();
        assert_eq!(steps as u64, plain.updates * cfg.a3c.rollout_len as u64);
    }
}
