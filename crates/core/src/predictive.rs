//! Prediction-based planning — the alternative the paper argues against.
//!
//! §3.2 of the paper: "the data storage type assignment system needs
//! long-term file request frequency prediction and then specifies the type
//! of storage accordingly" — but Fig. 4 shows ARIMA's errors explode on the
//! high-variability files that hold the most savings. This module makes
//! that argument executable: [`PredictivePolicy`] forecasts each file's
//! next decision period with a pluggable [`forecast::Forecaster`] and runs
//! the exact DP on the *predicted* frequencies. Where predictions are good
//! it approaches Optimal; where they are not (the viral bucket) it pays for
//! its confidence — the `ablation_prediction` experiment quantifies both.

use crate::policy::{DecisionContext, Policy};
use pricing::{Money, Tier, TIER_COUNT};

/// A planner that forecasts request frequencies and optimizes tiers against
/// the forecast.
///
/// Every `horizon` days it re-forecasts each file's next `horizon` daily
/// read counts from the observed history (strictly before the decision
/// day), plans the cheapest tier sequence for that window with the same DP
/// as [`crate::optimal`], and replays the plan until the next refit.
///
/// Plans are keyed by **global** file index and built lazily per batch, so
/// a file's plan is the same whether it is decided in the full fleet or in
/// a shard — the sharding determinism contract of DESIGN.md §9.
///
/// Planning needs each file's full series ([`DecisionContext::history`]);
/// on a fleet without it (serve's rolling window) the planner holds every
/// file's current tier.
pub struct PredictivePolicy<F: forecast::Forecaster> {
    forecaster: F,
    horizon: usize,
    /// Lazily-built per-file plans for the current window, keyed by global
    /// file index; cleared at every refit boundary.
    plans: Vec<Option<Vec<Tier>>>,
    planned_at: Option<usize>,
}

impl<F: forecast::Forecaster> PredictivePolicy<F> {
    /// Creates a planner that refits every `horizon` days (the paper's
    /// weekly decision period is 7). Panics if `horizon == 0`.
    #[must_use]
    pub fn new(forecaster: F, horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        PredictivePolicy { forecaster, horizon, plans: Vec::new(), planned_at: None }
    }

    /// Clears all plans and restarts the window when the decision day has
    /// moved past the current one. The cadence depends only on the sequence
    /// of decision days, never on which files are in the batch, so every
    /// shard fork refits on the same days.
    fn refit_if_due(&mut self, day: usize, files: usize) {
        let refit = match self.planned_at {
            None => true,
            Some(at) => day >= at + self.horizon,
        };
        if refit {
            self.plans.clear();
            self.plans.resize(files, None);
            self.planned_at = Some(day);
        }
    }

    /// Plans one file's next window from predicted frequencies, given the
    /// file's raw daily columns.
    fn plan_file(
        &self,
        reads: &[u64],
        writes: &[u64],
        size_gb: f64,
        day: usize,
        current: Tier,
        model: &pricing::CostModel,
    ) -> Vec<Tier> {
        let history: Vec<f64> = reads[..day].iter().map(|&r| r as f64).collect();
        let window = self.horizon.min(reads.len() - day);
        let predicted_reads = self.forecaster.forecast(&history, window);
        // Writes follow the file's observed write/read ratio.
        let observed_reads: u64 = reads[..day].iter().sum();
        let observed_writes: u64 = writes[..day].iter().sum();
        let write_ratio =
            if observed_reads == 0 { 0.0 } else { observed_writes as f64 / observed_reads as f64 };

        // DP over (day-in-window, tier) on predicted frequencies — same
        // recurrence as `optimal::optimal_plan`, inlined here because the
        // inputs are fractional predictions, not integer history.
        let days = predicted_reads.len();
        if days == 0 {
            return vec![current];
        }
        let cost_of = |pred: f64, tier: Tier| -> Money {
            let reads = pred.max(0.0).round() as u64;
            let writes = (pred.max(0.0) * write_ratio).round() as u64;
            model.steady_day_cost(size_gb, reads, writes, tier)
        };
        let mut best = vec![[Money::MAX; TIER_COUNT]; days];
        let mut parent = vec![[0usize; TIER_COUNT]; days];
        for tier in Tier::all() {
            best[0][tier.index()] = model.policy().change_cost(current, tier, size_gb)
                + cost_of(predicted_reads[0], tier);
        }
        for d in 1..days {
            for tier in Tier::all() {
                let steady = cost_of(predicted_reads[d], tier);
                let (prev, cost) = Tier::all()
                    .map(|p| {
                        (
                            p,
                            best[d - 1][p.index()]
                                .saturating_add(model.policy().change_cost(p, tier, size_gb)),
                        )
                    })
                    .fold(None, |best: Option<(Tier, Money)>, cand| match best {
                        Some(b) if b.1 <= cand.1 => Some(b),
                        _ => Some(cand),
                    })
                    .unwrap_or((Tier::Hot, Money::MAX));
                best[d][tier.index()] = cost.saturating_add(steady);
                parent[d][tier.index()] = prev.index();
            }
        }
        let mut last = Tier::Hot;
        for t in Tier::all() {
            if best[days - 1][t.index()] < best[days - 1][last.index()] {
                last = t;
            }
        }
        let mut plan = vec![Tier::Hot; days];
        for d in (0..days).rev() {
            plan[d] = last;
            if d > 0 {
                last = Tier::ALL[parent[d][last.index()]];
            }
        }
        plan
    }
}

impl<F: forecast::Forecaster + Clone + Send + 'static> Policy for PredictivePolicy<F> {
    fn name(&self) -> &'static str {
        "predictive"
    }

    fn decide_one(&mut self, ctx: &DecisionContext<'_>, slot: usize) -> Tier {
        self.refit_if_due(ctx.day, ctx.fleet.len());
        let at = self.planned_at.unwrap_or(ctx.day);
        let global = ctx.global(slot);
        let cur = ctx.current[slot];
        if self.plans.len() <= global {
            self.plans.resize(global + 1, None);
        }
        if self.plans[global].is_none() {
            let plan = match ctx.history(slot) {
                // History is cut at the refit day, so a plan built lazily
                // later in the window is identical to one built at refit.
                Some((reads, writes)) if at > 0 => {
                    self.plan_file(reads, writes, ctx.size_gb(slot), at, cur, ctx.model)
                }
                // Nothing observed yet (same rationale as RlPolicy's day-0
                // rule), or no full series to forecast from and plan to
                // the horizon (a serve window): hold.
                _ => vec![cur; self.horizon],
            };
            self.plans[global] = Some(plan);
        }
        let offset = ctx.day - at;
        self.plans[global].as_ref().and_then(|plan| plan.get(offset)).copied().unwrap_or(cur)
    }

    fn fork(&self) -> Box<dyn Policy> {
        // A fork starts with empty plans: plans depend only on
        // (file, refit day, tier at refit), so each shard rebuilds exactly
        // the same ones for its own files.
        Box::new(PredictivePolicy {
            forecaster: self.forecaster.clone(),
            horizon: self.horizon,
            plans: Vec::new(),
            planned_at: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetState;
    use crate::policy::{HotPolicy, OptimalPolicy};
    use crate::sim::{simulate, SimConfig};
    use forecast::{Naive, SeasonalNaive};
    use pricing::{CostModel, PricingPolicy};
    use tracegen::{Trace, TraceConfig};

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(120, 28, 21)),
            CostModel::new(PricingPolicy::paper_2020()),
        )
    }

    #[test]
    fn predictive_policy_runs_end_to_end() {
        let (trace, model) = setup();
        let cfg = SimConfig::default();
        let mut policy = PredictivePolicy::new(SeasonalNaive::new(7), 7);
        let run = simulate(&trace, &model, &mut policy, &cfg);
        assert_eq!(run.days(), trace.days);
        assert_eq!(run.policy_name, "predictive");

        // Bounded by the oracle on one side and sanity on the other.
        let opt = simulate(
            &trace,
            &model,
            &mut OptimalPolicy::plan(&trace, &model, cfg.initial_tier),
            &cfg,
        )
        .total_cost();
        assert!(run.total_cost() >= opt);
    }

    #[test]
    fn good_predictions_approach_optimal() {
        // On a trace with strong weekly structure, the seasonal-naive
        // planner should clearly beat always-hot.
        let trace = Trace::generate(&TraceConfig {
            files: 150,
            days: 28,
            seed: 5,
            seasonal_share: 0.9,
            ..TraceConfig::default()
        });
        let model = CostModel::new(PricingPolicy::paper_2020());
        let cfg = SimConfig::default();
        let mut policy = PredictivePolicy::new(SeasonalNaive::new(7), 7);
        let predictive = simulate(&trace, &model, &mut policy, &cfg).total_cost();
        let hot = simulate(&trace, &model, &mut HotPolicy, &cfg).total_cost();
        assert!(predictive < hot, "predictive {predictive} should beat always-hot {hot}");
    }

    #[test]
    fn refits_only_at_horizon_boundaries() {
        let (trace, model) = setup();
        let mut policy = PredictivePolicy::new(Naive, 7);
        let current = vec![Tier::Hot; trace.len()];
        // Decisions inside one window come from one plan (same object).
        let d7 = policy.decide_fleet(7, &trace, &model, &current);
        let planned_at = policy.planned_at;
        let _ = policy.decide_fleet(9, &trace, &model, &current);
        assert_eq!(policy.planned_at, planned_at, "no refit inside the window");
        let _ = policy.decide_fleet(14, &trace, &model, &current);
        assert_ne!(policy.planned_at, planned_at, "refit at the boundary");
        assert_eq!(d7.len(), trace.len());
    }

    #[test]
    fn day_zero_holds_current_tiers() {
        let (trace, model) = setup();
        let mut policy = PredictivePolicy::new(Naive, 7);
        let current = vec![Tier::Archive; trace.len()];
        let decision = policy.decide_fleet(0, &trace, &model, &current);
        assert!(decision.iter().all(|&t| t == Tier::Archive));
    }

    #[test]
    fn holds_on_a_serve_window() {
        // A serve window has no full series to forecast from or plan to
        // the horizon with — not even before it rolls past day 0 — so the
        // planner holds every file's current tier.
        let (trace, model) = setup();
        let batch: Vec<usize> = (0..trace.len()).collect();
        let current = vec![Tier::Cool; trace.len()];
        for day in [3usize, 7, 20] {
            let mut window = FleetState::default();
            window.roll(&trace, 7, day);
            for (ix, file) in trace.files.iter().enumerate() {
                let (reads, writes) = file.day(day);
                window.add_day_counts(ix, day, reads, writes);
            }
            let ctx = DecisionContext {
                day,
                fleet: &window,
                model: &model,
                batch: &batch,
                current: &current,
            };
            let mut policy = PredictivePolicy::new(Naive, 7);
            assert_eq!(policy.decide_batch(&ctx), current, "day {day}");
        }
        // The same days on the full trace do plan (and move files).
        let mut policy = PredictivePolicy::new(Naive, 7);
        assert_ne!(policy.decide_fleet(7, &trace, &model, &current), current);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let _ = PredictivePolicy::new(Naive, 0);
    }
}
