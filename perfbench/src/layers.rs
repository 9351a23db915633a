//! Replays that drive each layer's public functions over the inputs a real
//! run saw, timing every call as a span and checking that the replay
//! reproduces the real run's totals.
//!
//! The real runs are the untouched `simulate` / `serve` / `MiniCost::train`
//! calls; the replays re-run their layers one by one from outside:
//! the RL forward pass layer by layer, the engine's shard functions,
//! billing, the event source and online statistics, the migration
//! pipeline, checkpoints, and the A3C trainer with its oracle tables.

use crate::spans::Tracer;
use crate::wrap::{Decision, TracedEnv, TracedPolicy};
use minicost::engine::{merge_shards, partition, run_shard};
use minicost::mdp::{OracleTables, TieringEnvConfig};
use minicost::{
    default_workers, par_map_indices, suffix_values, CostModel, FeatureBlock, FeatureConfig,
    FleetState, MiniCostConfig, Money, Policy, ServeConfig, ServeReport, SimConfig, SimResult,
    Tier, TieringEnv, Trace,
};
use nn::{Conv1d, ConvBranch, Dense, ForwardScratch, Layer, Matrix, Network, Relu};
use pricing::FileDay;
use rl::{A3cTrainer, NetSpec, TrainResult};
use std::path::Path;
use std::sync::Arc;
use store::{logical_bytes, JobId, Journal, MigrationJob, Migrator, StoragePool};
use stream::{BoundedConfig, BoundedStats, EventSource, ExactStats, Snapshot, TraceSource};
use tracegen::DiurnalProfile;

/// The actor's stages as the benchmark reports them. Each ReLU is folded
/// into the stage before it; the head is the final dense layer.
pub const NN_STAGES: [&str; 3] = ["nn.conv", "nn.dense", "nn.head"];

/// Multiply-accumulates per input row of each stage, derived from the
/// spec (bias adds and ReLUs are not counted):
/// conv `filters × channels × kernel × out_len`,
/// dense `(filters × out_len + extras) × hidden`, head `hidden × actions`.
pub fn stage_macs(spec: &NetSpec) -> [u64; 3] {
    let out_len = (spec.window - spec.kernel) / spec.stride + 1;
    let conv = spec.filters * spec.channels * spec.kernel * out_len;
    let dense = (spec.filters * out_len + spec.extras) * spec.hidden;
    let head = spec.hidden * spec.actions;
    [conv as u64, dense as u64, head as u64]
}

/// The actor network rebuilt from the public layer types, so each stage's
/// `forward_into` can be timed on its own.
pub struct ActorChain {
    stages: [Vec<Box<dyn Layer>>; 3],
    a: Matrix,
    b: Matrix,
}

impl ActorChain {
    /// Rebuilds `spec.build_actor` and loads `params` (its `param_vector`).
    pub fn new(spec: &NetSpec, params: &[f64]) -> Result<ActorChain, String> {
        let conv =
            Conv1d::new(spec.channels, spec.window, spec.filters, spec.kernel, spec.stride, 0);
        let conv_out = conv.out_width();
        let mut stages: [Vec<Box<dyn Layer>>; 3] = [
            vec![Box::new(ConvBranch::new(conv, spec.extras)), Box::new(Relu::new())],
            vec![
                Box::new(Dense::new(conv_out + spec.extras, spec.hidden, 0)),
                Box::new(Relu::new()),
            ],
            vec![Box::new(Dense::new(spec.hidden, spec.actions, 0))],
        ];
        let mut offset = 0;
        for layer in stages.iter_mut().flatten() {
            let need = layer.param_count();
            let slice = params.get(offset..offset + need).ok_or("actor parameters too short")?;
            offset += layer.set_params(slice);
        }
        if offset != params.len() {
            return Err(format!("actor has {} parameters, chain takes {offset}", params.len()));
        }
        Ok(ActorChain { stages, a: Matrix::default(), b: Matrix::default() })
    }

    /// Forward pass with one span per stage, ping-ponging two buffers the
    /// way `Network::forward_into` does.
    pub fn forward(&mut self, input: &Matrix, tracer: &Tracer, day: usize) -> &Matrix {
        self.a.copy_from(input);
        for (name, stage) in NN_STAGES.iter().zip(&mut self.stages) {
            let (a, b) = (&mut self.a, &mut self.b);
            tracer.span(name, Some(day), || {
                for layer in stage.iter_mut() {
                    layer.forward_into(a, b);
                    std::mem::swap(a, b);
                }
            });
        }
        &self.a
    }
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Replays an `RlPolicy`'s batched decisions from `log`: featurize with
/// `encode_block`, run the rebuilt chain stage by stage, take the argmax.
/// Checks the chain's logits are bit-identical to `Network::forward_into`
/// and the replayed tiers equal the logged ones. Returns the rows encoded.
pub fn replay_rl_decisions(
    fleet: &FleetState,
    features: FeatureConfig,
    spec: &NetSpec,
    params: &[f64],
    log: &[Decision],
    tracer: &Tracer,
) -> Result<u64, String> {
    let mut chain = ActorChain::new(spec, params)?;
    let mut network: Network = spec.build_actor(0);
    network.set_params(params);
    let mut scratch = ForwardScratch::new();
    let mut block = FeatureBlock::new();
    let mut rows = 0u64;
    for d in log {
        if d.day == 0 || d.batch.is_empty() {
            // RlPolicy keeps every file where it is on day 0.
            if d.decided != d.current {
                return Err(format!("day {}: the policy moved files before any history", d.day));
            }
            continue;
        }
        let view = fleet.view(&d.batch, d.day);
        tracer.span("features.encode", Some(d.day), || {
            features.encode_block(&view, &d.current, &mut block);
        });
        rows += d.batch.len() as u64;
        let logits = chain.forward(block.matrix(), tracer, d.day);
        let reference = network.forward_into(block.matrix(), &mut scratch);
        if !same_bits(logits.as_slice(), reference.as_slice()) {
            return Err(format!("day {}: layer-by-layer logits differ from the network", d.day));
        }
        let decided: Vec<Tier> = tracer.span("policy.argmax", Some(d.day), || {
            d.current
                .iter()
                .enumerate()
                .map(|(row, &cur)| {
                    Tier::from_index(rl::actor_critic::argmax(logits.row(row))).unwrap_or(cur)
                })
                .collect()
        });
        if decided != d.decided {
            return Err(format!("day {}: replayed argmax disagrees with the policy", d.day));
        }
    }
    Ok(rows)
}

/// Checks that `log` holds one whole-fleet decision per day, each starting
/// from the tiers the previous day decided.
fn check_day_chain(log: &[Decision], files: usize, days: usize) -> Result<(), String> {
    if log.len() != days {
        return Err(format!("{} logged decisions for {days} days", log.len()));
    }
    for (day, d) in log.iter().enumerate() {
        if d.day != day || d.batch.len() != files || d.decided.len() != files {
            return Err(format!("decision {day} is not a whole-fleet decision for day {day}"));
        }
        if day > 0 && d.current != log[day - 1].decided {
            return Err(format!("day {day} starts from tiers day {} did not decide", day - 1));
        }
    }
    Ok(())
}

/// Bills one day of `decision` with `CostModel::day_breakdown`.
fn bill_day(
    model: &CostModel,
    sizes: impl Fn(usize) -> f64,
    counts: impl Fn(usize) -> (u64, u64),
    d: &Decision,
) -> Money {
    let mut total = Money::ZERO;
    for (slot, (&from, &to)) in d.current.iter().zip(&d.decided).enumerate() {
        let (reads, writes) = counts(slot);
        let bill = model.day_breakdown(&FileDay {
            size_gb: sizes(slot),
            reads,
            writes,
            tier: to,
            changed_from: (from != to).then_some(from),
        });
        total += bill.total();
    }
    total
}

/// Re-bills a whole-fleet, every-day decision log from the fleet's true
/// day counts, one `pricing.bill` span per day.
pub fn replay_billing(
    fleet: &FleetState,
    model: &CostModel,
    log: &[Decision],
    tracer: &Tracer,
) -> Result<Money, String> {
    check_day_chain(log, fleet.len(), fleet.days())?;
    let mut total = Money::ZERO;
    for d in log {
        total += tracer.span("pricing.bill", Some(d.day), || {
            bill_day(model, |ix| fleet.size_gb(ix), |ix| fleet.day_counts(ix, d.day), d)
        });
    }
    Ok(total)
}

/// Runs a one-worker simulate through the engine's public pieces:
/// `partition`, `run_shard` (with the traced policy inside), `merge_shards`.
pub fn replay_engine(
    trace: &Trace,
    model: &CostModel,
    policy: &mut TracedPolicy,
    cfg: &SimConfig,
    tracer: &Tracer,
) -> SimResult {
    let fleet = FleetState::from_trace(trace);
    let shards = partition(trace, cfg.seed, cfg.workers);
    let runs: Vec<_> = shards
        .iter()
        .map(|shard| {
            tracer.span("engine.run_shard", None, || run_shard(&fleet, model, policy, cfg, shard))
        })
        .collect();
    tracer.span("engine.merge", None, || {
        merge_shards(policy.name(), trace.days, trace.files.len(), &runs)
    })
}

/// What a serve replay counted.
#[derive(Debug, Default)]
pub struct ServeReplay {
    pub events: u64,
    pub tracked_events: u64,
    pub billed: Money,
    pub jobs: u64,
    pub committed_jobs: u64,
    pub committed_bytes: u64,
    pub virtual_ms: u64,
}

/// Online statistics in the mode serve ran.
enum Stats {
    Exact(ExactStats),
    Bounded(Box<BoundedStats>),
}

/// Replays a serve run (configured by `cfg`) day by day, layer by layer,
/// over the decisions it logged: events from `TraceSource::next_batch`,
/// online statistics ingest + `close_day`, migrations through
/// `Migrator::run_batch` on a fresh memory pool (when a store is
/// attached), and billing from the event-derived day counts.
///
/// The bounded statistics use serve's sketch shape (2048 × 4 count-min
/// cells), so the replay does the same work serve does.
pub fn replay_serve(
    trace: &Trace,
    model: &CostModel,
    cfg: &ServeConfig,
    log: &[Decision],
    tracer: &Tracer,
) -> Result<ServeReplay, String> {
    let files = trace.files.len();
    check_day_chain(log, files, trace.days)?;
    let mut source = TraceSource::new(trace, DiurnalProfile::web_default(), cfg.seed, 0);
    let (stats_span, mut stats) = match cfg.max_tracked {
        None => ("stream.stats", Stats::Exact(ExactStats::new(cfg.window, files))),
        Some(k) => (
            "stream.sketch",
            Stats::Bounded(Box::new(BoundedStats::new(BoundedConfig {
                max_tracked: k,
                cms_width: 2048,
                cms_depth: 4,
                window: cfg.window,
                seed: cfg.seed,
            }))),
        ),
    };
    let mut store = match &cfg.store {
        Some(store) => {
            let mut pool = StoragePool::memory();
            for (file, &tier) in trace.files.iter().zip(&log[0].current) {
                let key = u64::from(file.id.0);
                pool.put(key, tier, logical_bytes(file.size_gb)).map_err(|e| e.to_string())?;
            }
            Some((pool, Journal::in_memory(), Migrator::new(store.migrate)))
        }
        None => None,
    };
    let mut out = ServeReplay::default();
    let mut reads = vec![0u64; files];
    let mut writes = vec![0u64; files];
    for (day, d) in log.iter().enumerate() {
        let batch = tracer
            .span("stream.event", Some(day), || source.next_batch())
            .ok_or_else(|| format!("the event source ended before day {day}"))?;
        if batch.day != day || !batch.verifies() {
            return Err(format!("day {day}: the event source delivered a bad batch"));
        }
        out.events += batch.events.len() as u64;
        reads.iter_mut().for_each(|c| *c = 0);
        writes.iter_mut().for_each(|c| *c = 0);
        for e in &batch.events {
            let ix = e.file.index();
            reads[ix] = reads[ix].saturating_add(e.reads);
            writes[ix] = writes[ix].saturating_add(e.writes);
            if let Stats::Bounded(b) = &stats {
                out.tracked_events += u64::from(b.is_tracked(e.file.0));
            }
        }
        tracer.span(stats_span, Some(day), || match &mut stats {
            Stats::Exact(s) => batch.events.iter().for_each(|e| s.ingest(e)),
            Stats::Bounded(s) => batch.events.iter().for_each(|e| s.ingest(e)),
        });

        if let Some((pool, journal, migrator)) = store.as_mut() {
            let jobs: Vec<MigrationJob> = trace
                .files
                .iter()
                .zip(d.current.iter().zip(&d.decided))
                .filter(|(_, (from, to))| from != to)
                .map(|(file, (&from, &to))| MigrationJob {
                    id: JobId { day, file: u64::from(file.id.0), from, to },
                    logical_bytes: logical_bytes(file.size_gb),
                })
                .collect();
            if !jobs.is_empty() {
                let batch_out = tracer
                    .span("store.migrate", Some(day), || migrator.run_batch(pool, journal, &jobs))
                    .map_err(|e| e.to_string())?;
                if !batch_out.pinned.is_empty() || batch_out.crashed {
                    return Err(format!("day {day}: a migration failed in a fault-free replay"));
                }
                out.jobs += jobs.len() as u64;
                out.committed_jobs += batch_out.committed_jobs;
                out.virtual_ms += batch_out.elapsed_ms;
            }
        }

        out.billed += tracer.span("pricing.bill", Some(day), || {
            bill_day(model, |ix| trace.files[ix].size_gb, |ix| (reads[ix], writes[ix]), d)
        });
        tracer.span(stats_span, Some(day), || match &mut stats {
            Stats::Exact(s) => s.close_day(),
            Stats::Bounded(s) => s.close_day(),
        });
    }
    if let Some((_, journal, _)) = &store {
        out.committed_bytes = journal.committed_bytes();
    }
    Ok(out)
}

/// Loads the checkpoint serve wrote last, checks it holds the run's final
/// state, and saves it `saves` times to `scratch` (one
/// `stream.checkpoint.save` span each). Returns the saved size in bytes.
pub fn replay_checkpoint(
    written: &Path,
    scratch: &Path,
    saves: usize,
    report: &ServeReport,
    tracer: &Tracer,
) -> Result<u64, String> {
    let snap = tracer
        .span("stream.checkpoint.load", None, || Snapshot::load(written))
        .map_err(|e| format!("{}: {e}", written.display()))?;
    if snap.next_day != report.days_served_through || snap.per_file != report.result.per_file {
        return Err("the last checkpoint does not hold the run's final ledgers".to_owned());
    }
    let copy = scratch.join("checkpoint-replay.json");
    for _ in 0..saves {
        tracer
            .span("stream.checkpoint.save", None, || snap.save_atomic(&copy))
            .map_err(|e| format!("{}: {e}", copy.display()))?;
    }
    if Snapshot::load(&copy).map_err(|e| e.to_string())? != snap {
        return Err("a saved checkpoint does not load back equal".to_owned());
    }
    std::fs::metadata(&copy).map(|m| m.len()).map_err(|e| e.to_string())
}

/// `MiniCost::train` driven from its public pieces: oracle tables through
/// `par_map_indices` + `suffix_values` (an `mdp.oracle` span), then the
/// A3C trainer over traced `TieringEnv`s (an `rl.train` span whose
/// children are the environment calls).
pub fn replay_train(
    trace: &Trace,
    model: &CostModel,
    cfg: &MiniCostConfig,
    tracer: &Tracer,
) -> TrainResult {
    let trace = Arc::new(trace.clone());
    let model = Arc::new(model.clone());
    let oracle: Arc<OracleTables> = tracer.span("mdp.oracle", None, || {
        Arc::new(par_map_indices(trace.files.len(), cfg.a3c.workers.max(default_workers()), |ix| {
            Some(suffix_values(&trace.files[ix], &model))
        }))
    });
    let env_cfg = TieringEnvConfig {
        features: cfg.features,
        reward: cfg.reward,
        episode_len: cfg.episode_len,
        seed: cfg.a3c.seed,
        with_oracle: true,
    };
    let trainer = A3cTrainer::new(cfg.net_spec(), cfg.a3c.clone());
    tracer.span("rl.train", None, || {
        trainer.train(|worker| {
            let env = TieringEnv::with_oracle_tables(
                Arc::clone(&trace),
                Arc::clone(&model),
                TieringEnvConfig {
                    seed: env_cfg.seed ^ ((worker as u64 + 1) << 32),
                    ..env_cfg.clone()
                },
                Arc::clone(&oracle),
            );
            TracedEnv::new(env, tracer.clone())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicost::{PricingPolicy, RlPolicy, TraceConfig};

    #[test]
    fn macs_follow_the_spec() {
        let spec = MiniCostConfig { width: 32, ..MiniCostConfig::default() }.net_spec();
        // window 7, kernel 4, stride 1 -> 4 conv positions over 2 channels.
        assert_eq!(stage_macs(&spec), [32 * 2 * 4 * 4, (32 * 4 + 6) * 32, 32 * 3]);
        assert_eq!(stage_macs(&spec).iter().sum::<u64>(), 5408);
    }

    #[test]
    fn chain_and_billing_replays_reproduce_a_real_simulate() {
        let trace = Trace::generate(&TraceConfig::small(30, 10, 4));
        let model = CostModel::new(PricingPolicy::azure_blob_2020());
        let cfg = MiniCostConfig::fast();
        let spec = cfg.net_spec();
        let params = spec.build_actor(9).param_vector();
        let tracer = Tracer::new();
        let rl_policy = RlPolicy::from_params(spec, &params, cfg.features);
        let mut policy = TracedPolicy::new(Box::new(rl_policy), tracer.clone());
        let sim_cfg = SimConfig::default();
        let real = minicost::simulate(&trace, &model, &mut policy, &sim_cfg);
        let log = policy.take_log();
        let fleet = FleetState::from_trace(&trace);
        let rows = replay_rl_decisions(&fleet, cfg.features, &spec, &params, &log, &tracer);
        assert_eq!(rows, Ok((trace.len() * (trace.days - 1)) as u64));
        assert_eq!(replay_billing(&fleet, &model, &log, &tracer), Ok(real.total_cost()));
        let merged = replay_engine(&trace, &model, &mut policy, &sim_cfg, &tracer);
        assert_eq!(merged.daily, real.daily);
        let spans = tracer.spans();
        assert_eq!(crate::spans::durations_ms(&spans, "nn.head").len(), trace.days - 1);
    }
}
