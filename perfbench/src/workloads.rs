//! The four workloads, each run untraced (end-to-end metrics) or traced
//! (per-layer metrics).
//!
//! Every workload is a closed loop at a stated input size: the timed call
//! pulls each day's input as soon as the previous day is done, and the
//! benchmark repeats the call until the run's time is used up, reporting
//! the median. Output checks run outside the timed calls.

use crate::host::{cpu_time_s, nproc, peak_rss_bytes};
use crate::layers::{
    replay_billing, replay_checkpoint, replay_engine, replay_rl_decisions, replay_serve,
    replay_train, stage_macs, NN_STAGES,
};
use crate::metrics::{median, percentile, tail_percentile, Metric, PER_LAYER};
use crate::spans::{durations_ms, self_ms, total_ms, Span, Tracer};
use crate::wrap::{Decision, TracedPolicy};
use minicost::{
    serve, simulate, CostModel, DecisionContext, FeatureConfig, FleetState, GreedyPolicy, MiniCost,
    MiniCostConfig, Money, Policy, PricingPolicy, RlPolicy, ServeConfig, ServeReport, SimConfig,
    SimResult, StoreConfig, Tier, Trace, TraceConfig,
};
use rl::NetSpec;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use store::{MigrateConfig, PoolBuild};

/// Horizon of every workload, in days.
const DAYS: usize = 35;
/// simulate-rl and serve-store fleet size.
const LARGE_FLEET: usize = 20_000;
/// serve-bounded fleet size: bounded stats cost O(events × k), so a
/// quarter of the fleet keeps one serve call near the others' length.
const BOUNDED_FLEET: usize = 5_000;
/// train-a3c's trace size; training uses its 80% split (2,000 files).
const TRAIN_TRACE: usize = 2_500;
/// The trained agent's cost is measured on a held-out trace of this many
/// files: drawn from the workload seed, never trained on, and large enough
/// that the cost varies little from seed to seed.
const HELD_OUT_FLEET: usize = 40_000;
/// Separates the held-out trace's seed from every training trace seed.
const HELD_OUT_SEED_DOMAIN: u64 = 0x4845_4c44_4f55_5421;
/// A3C updates per `MiniCost::train` call.
const TRAIN_UPDATES: u64 = 3_000;
/// simulate-rl's actor: the width and fixed seed `minicost bench` builds.
const ACTOR_WIDTH: usize = 32;
const ACTOR_SEED: u64 = 2020;
/// serve-store writes a checkpoint every this many decision epochs.
const CHECKPOINT_EVERY: u64 = 7;
/// Simulate and serve runs cycle their timed calls through this many
/// traces drawn from the workload seed: a run's cost and throughput then
/// rest on four fleets' worth of input and vary less from seed to seed,
/// while one call keeps the stated fleet size.
const SUB_INPUTS: u64 = 4;
/// The timed call runs at least this many times, whatever `--seconds` says.
const MIN_ITERATIONS: u64 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimulateRl,
    ServeStore,
    ServeBounded,
    TrainA3c,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SimulateRl, Workload::ServeStore, Workload::ServeBounded, Workload::TrainA3c];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimulateRl => "simulate-rl",
            Workload::ServeStore => "serve-store",
            Workload::ServeBounded => "serve-bounded",
            Workload::TrainA3c => "train-a3c",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inputs of one benchmark run.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    /// Directory for files the program writes (checkpoints); removed at exit.
    pub scratch: PathBuf,
    pub tracer: Tracer,
}

/// One output check and whether it held.
#[derive(Clone, Debug, Serialize)]
pub struct Check {
    pub check: String,
    pub ok: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Extra figures for the human-readable report and results file.
    pub notes: Vec<Metric>,
    /// Wall seconds of each timed call.
    pub walls_s: Vec<f64>,
    /// CPU seconds of each timed call (empty for traced runs).
    pub cpus_s: Vec<f64>,
}

impl Outcome {
    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push(Check { check: name.to_owned(), ok });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

pub fn run(workload: Workload, ctx: &RunCtx, traced: bool) -> Result<Outcome, String> {
    match (workload, traced) {
        (Workload::SimulateRl, false) => simulate_rl(ctx),
        (Workload::SimulateRl, true) => simulate_rl_traced(ctx),
        (Workload::ServeStore | Workload::ServeBounded, false) => serve_run(ctx, workload),
        (Workload::ServeStore | Workload::ServeBounded, true) => serve_traced(ctx, workload),
        (Workload::TrainA3c, false) => train_a3c(ctx),
        (Workload::TrainA3c, true) => train_a3c_traced(ctx),
    }
}

fn model() -> CostModel {
    CostModel::new(PricingPolicy::paper_2020())
}

fn gen_trace(files: usize, seed: u64) -> Trace {
    Trace::generate(&TraceConfig { files, days: DAYS, seed, ..TraceConfig::default() })
}

fn sim_cfg(seed: u64, workers: usize) -> Result<SimConfig, String> {
    SimConfig::builder().seed(seed).workers(workers).build().map_err(|e| e.to_string())
}

/// Shard count for the workers-1-vs-N check: at least two, at most four.
fn check_workers() -> usize {
    nproc().clamp(2, 4)
}

fn rl_spec() -> NetSpec {
    MiniCostConfig { width: ACTOR_WIDTH, ..MiniCostConfig::default() }.net_spec()
}

/// `MiniCostConfig::fast()` with one A3C worker and [`TRAIN_UPDATES`]
/// updates; its own A3C seed is kept, so the workload seed varies the
/// trace and split only.
fn train_cfg() -> MiniCostConfig {
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = TRAIN_UPDATES;
    cfg
}

/// Trace seed of sub-input `j` of workload seed `seed`.
fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(SUB_INPUTS).wrapping_add(j)
}

/// Wall and CPU seconds of one timed stretch of work.
#[derive(Clone, Copy, Debug)]
struct Elapsed {
    wall_s: f64,
    cpu_s: f64,
}

/// What [`measure`] recorded.
struct Measured<I, T> {
    /// CPU seconds of each input generation (the set-up before a call).
    setup_s: Vec<f64>,
    /// Wall and CPU seconds of each timed call.
    calls_s: Vec<Elapsed>,
    /// Calls made, the warm-up included.
    calls: u64,
    /// The first output of each sub-input (sub-input 0's is the warm-up's),
    /// in sub-input order.
    firsts: Vec<T>,
    /// Every later output equalled the first output of its sub-input.
    repeatable: bool,
    /// Peak RSS right after the timed loop.
    peak_rss: u64,
    /// The last input generated, with its index.
    last: (u64, I),
}

/// The closed loop. Calls `once` on sub-input 0 as an untimed warm-up,
/// then cycles through `subs` sub-inputs until `seconds` have passed,
/// every sub-input ran at least once and the call at least
/// [`MIN_ITERATIONS`] times. Each call's input is generated just before it
/// (each generation timed as set-up; one input resident at a time). `once`
/// times its own call with [`timed`] and returns that with the output.
///
/// Only the first output of each sub-input is kept: every later output is
/// compared with it by `same` as soon as its call returns, outside the
/// timed call, and then dropped. Peak memory thus does not grow with the
/// number of calls.
///
/// The warm-up lets buffers the program keeps between calls (the RL
/// policy's feature block and forward scratch, the allocator's free
/// lists) reach their steady size, as in a long-running process.
fn measure<I, T>(
    seconds: f64,
    subs: u64,
    mut make: impl FnMut(u64) -> I,
    mut once: impl FnMut(&I) -> Result<(Elapsed, T), String>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<Measured<I, T>, String> {
    let mut setup_s = Vec::new();
    let mut call = |j: u64| -> Result<(Elapsed, T, I), String> {
        let (setup, input) = timed(|| make(j));
        setup_s.push(setup.cpu_s);
        let (elapsed, out) = once(&input)?;
        Ok((elapsed, out, input))
    };
    let (_, warm, mut last) = call(0)?;
    let mut firsts = vec![warm];
    let mut repeatable = true;
    let mut calls_s = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    let mut held = 0;
    while i < subs.max(MIN_ITERATIONS) || start.elapsed().as_secs_f64() < seconds {
        let j = i % subs;
        drop(last);
        let (elapsed, out, input) = call(j)?;
        calls_s.push(elapsed);
        match firsts.get(j as usize) {
            Some(first) => repeatable &= same(first, &out),
            None => firsts.push(out),
        }
        (held, last) = (j, input);
        i += 1;
    }
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    Ok(Measured {
        setup_s,
        calls_s,
        calls: i + 1,
        firsts,
        repeatable,
        peak_rss,
        last: (held, last),
    })
}

impl<I, T> Measured<I, T> {
    fn walls_s(&self) -> Vec<f64> {
        self.calls_s.iter().map(|e| e.wall_s).collect()
    }

    fn cpus_s(&self) -> Vec<f64> {
        self.calls_s.iter().map(|e| e.cpu_s).collect()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Elapsed, T) {
    let (start, cpu_start) = (Instant::now(), cpu_time_s());
    let out = std::hint::black_box(f());
    let cpu_s = cpu_time_s() - cpu_start;
    (Elapsed { wall_s: start.elapsed().as_secs_f64(), cpu_s }, out)
}

fn same_ledger(a: &SimResult, b: &SimResult) -> bool {
    a.daily == b.daily
        && a.per_file == b.per_file
        && a.tier_changes == b.tier_changes
        && a.occupancy == b.occupancy
}

/// The end-to-end metrics of an untraced run; `work` is the file-days one
/// timed call processes. Rates are per CPU second of the call (see
/// [`cpu_time_s`]): on a shared host a call's wall time also counts the
/// time its threads waited for a CPU, which other tenants decide.
fn end_to_end<I, T>(m: &Measured<I, T>, work: f64, files: usize, cost: Money) -> Vec<Metric> {
    let rates: Vec<f64> = m.calls_s.iter().map(|e| work / e.cpu_s).collect();
    vec![
        Metric::new("setup_s", "s", median(&m.setup_s)),
        Metric::new("file_days_per_cpu_s", "1/s", median(&rates)),
        Metric::new("rss_bytes_per_file", "B", m.peak_rss as f64 / files as f64),
        Metric::new("total_cost_usd", "USD", cost.as_dollars()),
    ]
}

/// The wall-clock rate, for the report and results file only: it varies
/// with the host's load as well as with the program.
fn wall_rate<I, T>(m: &Measured<I, T>, work: f64) -> Metric {
    let rates: Vec<f64> = m.calls_s.iter().map(|e| work / e.wall_s).collect();
    Metric::new("file_days_per_wall_s", "1/s", median(&rates))
}

/// `decide_batch_into` must equal `decide_one` slot by slot (the batch-first
/// `Policy` contract), on a sample of files with mixed current tiers.
fn batched_matches_one(policy: &mut dyn Policy, trace: &Trace, model: &CostModel) -> bool {
    let fleet = FleetState::from_trace(trace);
    let batch: Vec<usize> = (0..fleet.len()).step_by(37).collect();
    let tiers: Vec<Tier> = Tier::all().collect();
    let current: Vec<Tier> = (0..batch.len()).map(|i| tiers[i % tiers.len()]).collect();
    [0, 1, trace.days / 2, trace.days - 1].into_iter().all(|day| {
        let ctx = DecisionContext { day, fleet: &fleet, model, batch: &batch, current: &current };
        let mut batched = Vec::new();
        policy.decide_batch_into(&ctx, &mut batched);
        let one: Vec<Tier> = (0..batch.len()).map(|slot| policy.decide_one(&ctx, slot)).collect();
        batched == one
    })
}

/// Checks a simulate result against a sharded run and batched decisions
/// against per-file ones.
fn check_simulate(
    out: &mut Outcome,
    reference: &SimResult,
    trace: &Trace,
    model: &CostModel,
    policy: &mut dyn Policy,
    seed: u64,
) -> Result<(), String> {
    let sharded = simulate(trace, model, policy, &sim_cfg(seed, check_workers())?);
    out.check("simulate workers 1 == N", same_ledger(&sharded, reference));
    out.check("batched decide == decide_one", batched_matches_one(policy, trace, model));
    Ok(())
}

fn simulate_rl(ctx: &RunCtx) -> Result<Outcome, String> {
    let model = model();
    let spec = rl_spec();
    let params = spec.build_actor(ACTOR_SEED).param_vector();
    let mut policy = RlPolicy::from_params(spec, &params, FeatureConfig::default());
    let cfg = sim_cfg(ctx.seed, 1)?;
    let m = measure(
        ctx.seconds,
        SUB_INPUTS,
        |j| gen_trace(LARGE_FLEET, sub_seed(ctx.seed, j)),
        |trace| Ok(timed(|| simulate(trace, &model, &mut policy, &cfg))),
        same_ledger,
    )?;
    let file_days = (LARGE_FLEET * DAYS) as u64;
    let cost = m.firsts.iter().map(SimResult::total_cost).sum();
    let mut out = Outcome {
        attempted: m.calls * file_days,
        metrics: end_to_end(&m, file_days as f64, LARGE_FLEET, cost),
        notes: vec![wall_rate(&m, file_days as f64)],
        walls_s: m.walls_s(),
        cpus_s: m.cpus_s(),
        ..Outcome::default()
    };
    out.check("simulate is deterministic across calls", m.repeatable);
    let (j, trace) = &m.last;
    check_simulate(&mut out, &m.firsts[*j as usize], trace, &model, &mut policy, ctx.seed)?;
    Ok(out)
}

fn serve_cfg(workload: Workload, seed: u64, files: usize, dir: &Path) -> ServeConfig {
    match workload {
        Workload::ServeStore => ServeConfig {
            seed,
            checkpoint_every: CHECKPOINT_EVERY,
            checkpoint_path: Some(dir.join("checkpoint.json")),
            store: Some(StoreConfig {
                build: PoolBuild::Memory,
                migrate: MigrateConfig::default(),
            }),
            ..ServeConfig::default()
        },
        _ => ServeConfig { seed, max_tracked: Some(files / 10), ..ServeConfig::default() },
    }
}

fn serve_fleet(workload: Workload) -> usize {
    if workload == Workload::ServeStore {
        LARGE_FLEET
    } else {
        BOUNDED_FLEET
    }
}

/// One serve call in a fresh checkpoint directory (a leftover checkpoint
/// would make serve resume instead of starting over), timed.
fn serve_once(
    trace: &Trace,
    model: &CostModel,
    policy: &mut dyn Policy,
    cfg: &ServeConfig,
) -> Result<(Elapsed, ServeReport), String> {
    if let Some(dir) = cfg.checkpoint_path.as_deref().and_then(Path::parent) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let (elapsed, report) = timed(|| serve(trace, model, policy, cfg));
    Ok((elapsed, report.map_err(|e| e.to_string())?))
}

fn serve_run(ctx: &RunCtx, workload: Workload) -> Result<Outcome, String> {
    let model = model();
    let files = serve_fleet(workload);
    let file_days = (files * DAYS) as u64;
    let dir = ctx.scratch.join("serve");
    // Operations and per-report checks over every call, tallied as each
    // report comes back.
    let (mut attempted, mut failed) = (0, 0);
    let (mut clean, mut billed_is_committed) = (true, true);
    let m = measure(
        ctx.seconds,
        SUB_INPUTS,
        |j| {
            let seed = sub_seed(ctx.seed, j);
            (gen_trace(files, seed), serve_cfg(workload, seed, files, &dir))
        },
        |(trace, cfg)| {
            let (elapsed, report) = serve_once(trace, &model, &mut GreedyPolicy, cfg)?;
            attempted += file_days;
            if let Some(s) = &report.store {
                attempted += s.jobs_committed + s.jobs_pinned;
                failed += s.jobs_pinned + s.jobs_rolled_back;
            }
            clean &= report.incidents.is_empty();
            billed_is_committed &=
                report.store.as_ref().is_some_and(|s| s.committed_bytes == s.billed_change_bytes);
            Ok((elapsed, report))
        },
        |a, b| same_ledger(&a.result, &b.result),
    )?;
    let cost = m.firsts.iter().map(|r| r.result.total_cost()).sum();
    let mut out = Outcome {
        attempted,
        failed,
        metrics: end_to_end(&m, file_days as f64, files, cost),
        notes: vec![wall_rate(&m, file_days as f64)],
        walls_s: m.walls_s(),
        cpus_s: m.cpus_s(),
        ..Outcome::default()
    };
    out.check("serve is deterministic across calls", m.repeatable);
    out.check("serve ran without incidents", clean);
    let (j, (trace, cfg)) = &m.last;
    let first = &m.firsts[*j as usize];
    if workload == Workload::ServeStore {
        let batch = simulate(trace, &model, &mut GreedyPolicy, &sim_cfg(ctx.seed, 1)?);
        out.check("exact serve == simulate", same_ledger(&first.result, &batch));
        let sharded =
            simulate(trace, &model, &mut GreedyPolicy, &sim_cfg(ctx.seed, check_workers())?);
        out.check("simulate workers 1 == N", same_ledger(&sharded, &batch));
        out.check("billed == committed bytes", billed_is_committed);
    } else {
        // Bounded stats degrade decision features only; billing must stay
        // exact. Re-serve through the policy wrapper and re-bill its
        // decisions from the trace's true counts.
        let tracer = Tracer::new();
        let mut wrapped = TracedPolicy::new(Box::new(GreedyPolicy), tracer.clone());
        let (_, rerun) = serve_once(trace, &model, &mut wrapped, cfg)?;
        out.check("wrapped serve == serve", same_ledger(&rerun.result, &first.result));
        let fleet = FleetState::from_trace(trace);
        let billed = replay_billing(&fleet, &model, &wrapped.take_log(), &tracer);
        out.check("bounded serve bills exactly", billed == Ok(first.result.total_cost()));
    }
    Ok(out)
}

/// train-a3c's training input: the 80% split of its trace.
fn train_split(seed: u64) -> Trace {
    let seed = sub_seed(seed, 0);
    gen_trace(TRAIN_TRACE, seed).split(0.8, seed).train
}

/// The trace the trained agent is evaluated on.
fn held_out_trace(seed: u64) -> Trace {
    gen_trace(HELD_OUT_FLEET, seed ^ HELD_OUT_SEED_DOMAIN)
}

fn same_agent(a: &MiniCost, b: &MiniCost) -> bool {
    a.result.actor_params == b.result.actor_params
        && a.result.critic_params == b.result.critic_params
}

fn train_a3c(ctx: &RunCtx) -> Result<Outcome, String> {
    let model = model();
    let cfg = train_cfg();
    let (mut attempted, mut complete) = (0, true);
    let m = measure(
        ctx.seconds,
        1,
        |_| train_split(ctx.seed),
        |train| {
            let (elapsed, agent) = timed(|| MiniCost::train(train, &model, &cfg));
            attempted += agent.result.updates;
            complete &= agent.result.updates == TRAIN_UPDATES;
            Ok((elapsed, agent))
        },
        same_agent,
    )?;
    let agent = &m.firsts[0];
    let updates = agent.result.updates;
    let steps = updates * cfg.a3c.rollout_len as u64;
    let (_, train) = &m.last;
    let held_out = held_out_trace(ctx.seed);
    let mut policy = agent.policy();
    let cost = simulate(&held_out, &model, &mut policy, &sim_cfg(ctx.seed, 1)?);
    let updates_per_cpu_s: Vec<f64> = m.calls_s.iter().map(|e| updates as f64 / e.cpu_s).collect();
    let mut out = Outcome {
        attempted,
        metrics: end_to_end(&m, steps as f64, train.len(), cost.total_cost()),
        notes: vec![
            Metric::new("updates_per_cpu_s", "1/s", median(&updates_per_cpu_s)),
            wall_rate(&m, steps as f64),
        ],
        walls_s: m.walls_s(),
        cpus_s: m.cpus_s(),
        ..Outcome::default()
    };
    out.check("A3C ran every update", complete);
    out.check("single-worker A3C is bit-deterministic", m.repeatable);
    check_simulate(&mut out, &cost, &held_out, &model, &mut policy, ctx.seed)?;
    Ok(out)
}

/// Per-layer figures of a traced run, defaulting to 0 for idle layers.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.insert(name, value).is_some(), "undeclared per-layer metric {name}");
    }

    /// Decide-latency percentiles: the median and the highest tail
    /// percentile with at least ten samples beyond it.
    fn decide(&mut self, samples: &[f64]) -> Result<(), String> {
        let p = tail_percentile(samples.len())
            .ok_or_else(|| format!("{} decide samples are too few for a tail", samples.len()))?;
        let tail = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| *name == format!("policy.decide_ms.p{p}"))
            .ok_or_else(|| format!("{} decide samples give an undeclared p{p}", samples.len()))?;
        self.set("policy.decide_ms.p50", percentile(samples, 50));
        self.set(tail, percentile(samples, p));
        self.set("policy.decide_samples", samples.len() as f64);
        Ok(())
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER.iter().map(|(name, unit)| Metric::new(*name, unit, self.0[name])).collect()
    }
}

/// Traces an RL simulate: one untraced call, one real call through the
/// policy wrapper, an engine replay, and the featurize/forward/argmax and
/// billing replays over the logged decisions. Returns the untraced and
/// traced wall seconds.
#[allow(clippy::too_many_arguments)]
fn trace_rl_simulate(
    trace: &Trace,
    model: &CostModel,
    spec: &NetSpec,
    params: &[f64],
    features: FeatureConfig,
    seed: u64,
    tracer: &Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let cfg = sim_cfg(seed, 1)?;
    let make = || Box::new(RlPolicy::from_params(*spec, params, features));
    let (untraced, plain) = timed(|| simulate(trace, model, make().as_mut(), &cfg));
    let mut wrapped = TracedPolicy::new(make(), tracer.clone());
    let (traced, real) =
        timed(|| tracer.span("simulate", None, || simulate(trace, model, &mut wrapped, &cfg)));
    out.check("traced simulate == untraced", same_ledger(&real, &plain));
    let log = wrapped.take_log();

    let mut replay_policy = TracedPolicy::new(make(), tracer.clone());
    let merged = replay_engine(trace, model, &mut replay_policy, &cfg, tracer);
    out.check("engine replay == simulate", same_ledger(&merged, &plain));

    let fleet = FleetState::from_trace(trace);
    let rows = replay_rl_decisions(&fleet, features, spec, params, &log, tracer);
    out.check("forward replay == policy decisions", rows.is_ok());
    let billed = replay_billing(&fleet, model, &log, tracer);
    out.check("billing replay == simulate total", billed == Ok(plain.total_cost()));
    let changes: usize = log.iter().map(Decision::changes).sum();
    out.check("logged tier changes == simulate", changes as u64 == plain.tier_changes);

    let spans = tracer.spans();
    let rows = rows.unwrap_or(0) as f64;
    layers.set("features.encode_ms", total_ms(&spans, "features.encode"));
    layers.set("features.rows", rows);
    let macs = stage_macs(spec);
    let gmac_names = ["nn.conv.gmac_s", "nn.dense.gmac_s", "nn.head.gmac_s"];
    let ms_names = ["nn.conv.ms", "nn.dense.ms", "nn.head.ms"];
    for i in 0..3 {
        let ms = total_ms(&spans, NN_STAGES[i]);
        layers.set(ms_names[i], ms);
        layers.set(gmac_names[i], macs[i] as f64 * rows / (ms / 1e3) / 1e9);
    }
    layers.set("nn.macs", macs.iter().sum::<u64>() as f64);
    layers.decide(&durations_ms(&spans, "policy.decide"))?;
    layers.set("policy.argmax_ms", total_ms(&spans, "policy.argmax"));
    layers.set("policy.tier_changes", changes as f64);
    layers.set("engine.bill_self_ms", self_ms(&spans, "engine.run_shard"));
    layers.set("engine.merge_ms", total_ms(&spans, "engine.merge"));
    layers.set("pricing.bill_ms", total_ms(&spans, "pricing.bill"));
    Ok((untraced.wall_s, traced.wall_s))
}

fn traced_outcome(mut layers: Layers, mut out: Outcome, untraced_s: f64, traced_s: f64) -> Outcome {
    layers.set("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
    out.metrics = layers.into_metrics();
    out.walls_s = vec![untraced_s, traced_s];
    out
}

fn simulate_rl_traced(ctx: &RunCtx) -> Result<Outcome, String> {
    let model = model();
    let spec = rl_spec();
    let trace = gen_trace(LARGE_FLEET, sub_seed(ctx.seed, 0));
    let params = spec.build_actor(ACTOR_SEED).param_vector();
    let mut layers = Layers::new();
    let mut out =
        Outcome { attempted: 2 * (trace.len() * trace.days) as u64, ..Outcome::default() };
    let (untraced_s, traced_s) = trace_rl_simulate(
        &trace,
        &model,
        &spec,
        &params,
        FeatureConfig::default(),
        ctx.seed,
        &ctx.tracer,
        &mut layers,
        &mut out,
    )?;
    Ok(traced_outcome(layers, out, untraced_s, traced_s))
}

/// Sum of the `name` spans directly under span `parent`.
fn child_ms(spans: &[Span], parent: usize, name: &str) -> f64 {
    spans.iter().filter(|s| s.parent == Some(parent) && s.name == name).map(Span::ms).sum()
}

fn serve_traced(ctx: &RunCtx, workload: Workload) -> Result<Outcome, String> {
    let model = model();
    let files = serve_fleet(workload);
    let seed = sub_seed(ctx.seed, 0);
    let trace = gen_trace(files, seed);
    let tracer = &ctx.tracer;
    let cfg_in = |name: &str| serve_cfg(workload, seed, files, &ctx.scratch.join(name));
    let (untraced, plain) = serve_once(&trace, &model, &mut GreedyPolicy, &cfg_in("untraced"))?;

    // Two real serve calls through the policy wrapper, for enough decide
    // samples; the first one's decisions drive the replays.
    let mut traced_s = Vec::new();
    let mut logs = Vec::new();
    let mut first_cfg = None;
    for pass in 0..2 {
        let cfg = cfg_in(&format!("traced-{pass}"));
        let mut wrapped = TracedPolicy::new(Box::new(GreedyPolicy), tracer.clone());
        let (elapsed, report) =
            tracer.span("serve", None, || serve_once(&trace, &model, &mut wrapped, &cfg))?;
        traced_s.push(elapsed.wall_s);
        logs.push((wrapped.take_log(), report));
        first_cfg.get_or_insert(cfg);
    }
    let mut out = Outcome { attempted: 3 * (files * trace.days) as u64, ..Outcome::default() };
    for (pass, (_, report)) in logs.iter().enumerate() {
        let name = format!("traced serve pass {} == untraced", pass + 1);
        out.check(&name, same_ledger(&report.result, &plain.result));
    }
    let (log, report) = &logs[0];
    let cfg = first_cfg.expect("two traced passes ran");

    let replay = replay_serve(&trace, &model, &cfg, log, tracer)?;
    out.check("billing replay == serve total", replay.billed == report.result.total_cost());
    let mut layers = Layers::new();
    let mut checkpoint_ms = 0.0;
    if let (Some(store), Some(path)) = (&report.store, &cfg.checkpoint_path) {
        out.check(
            "migration replay == committed bytes",
            replay.committed_bytes == store.committed_bytes,
        );
        let saves = report.checkpoints_written as usize;
        let bytes = replay_checkpoint(path, &ctx.scratch, saves, report, tracer);
        out.check("checkpoint replay == serve state", bytes.is_ok());
        let spans = tracer.spans();
        let save_ms = median(&durations_ms(&spans, "stream.checkpoint.save"));
        checkpoint_ms = save_ms * saves as f64;
        layers.set("stream.checkpoint.save_ms", save_ms);
        layers.set("stream.checkpoint.bytes", bytes.unwrap_or(0) as f64);
        layers.set("store.migrate_ms", total_ms(&spans, "store.migrate"));
        layers.set("store.jobs", replay.jobs as f64);
        layers.set("store.commit_ratio", replay.committed_jobs as f64 / replay.jobs.max(1) as f64);
        layers.set("store.logical_bytes", replay.committed_bytes as f64);
        layers.set("store.virtual_ms", replay.virtual_ms as f64);
    }

    let spans = tracer.spans();
    let stats_ms = total_ms(&spans, "stream.stats");
    let sketch_ms = total_ms(&spans, "stream.sketch");
    let event_ms = total_ms(&spans, "stream.event");
    let migrate_ms = total_ms(&spans, "store.migrate");
    let bill_ms = total_ms(&spans, "pricing.bill");
    let first_serve = spans.iter().position(|s| s.name == "serve").expect("serve span");
    let decide_ms = child_ms(&spans, first_serve, "policy.decide");
    layers.decide(&durations_ms(&spans, "policy.decide"))?;
    layers.set("policy.tier_changes", log.iter().map(Decision::changes).sum::<usize>() as f64);
    layers.set("stream.event.ms", event_ms);
    layers.set("stream.events", replay.events as f64);
    layers.set("stream.stats.ms", stats_ms);
    layers.set("stream.sketch.ms", sketch_ms);
    if cfg.max_tracked.is_some() {
        layers.set(
            "stream.sketch.tracked_share",
            replay.tracked_events as f64 / replay.events.max(1) as f64,
        );
    }
    layers.set("pricing.bill_ms", bill_ms);
    let attributed =
        decide_ms + event_ms + stats_ms + sketch_ms + migrate_ms + bill_ms + checkpoint_ms;
    layers.set("serve.unattributed_ms", traced_s[0] * 1e3 - attributed);
    Ok(traced_outcome(layers, out, untraced.wall_s, median(&traced_s)))
}

fn train_a3c_traced(ctx: &RunCtx) -> Result<Outcome, String> {
    let model = model();
    let cfg = train_cfg();
    let train = train_split(ctx.seed);
    let held_out = held_out_trace(ctx.seed);
    let tracer = &ctx.tracer;
    let (untraced, agent) = timed(|| MiniCost::train(&train, &model, &cfg));
    let result = replay_train(&train, &model, &cfg, tracer);
    let mut out = Outcome { attempted: 2 * result.updates, ..Outcome::default() };
    out.check(
        "traced training == MiniCost::train",
        result.actor_params == agent.result.actor_params
            && result.critic_params == agent.result.critic_params,
    );
    let spans = tracer.spans();
    let oracle_ms = total_ms(&spans, "mdp.oracle");
    let train_ms = total_ms(&spans, "rl.train");
    let steps = durations_ms(&spans, "mdp.env.step").len() as u64;
    out.check(
        "env steps == updates × rollout",
        steps == result.updates * cfg.a3c.rollout_len as u64,
    );
    let mut layers = Layers::new();
    layers.set("mdp.oracle_ms", oracle_ms);
    layers.set("mdp.env_ms", total_ms(&spans, "mdp.env") + total_ms(&spans, "mdp.env.step"));
    layers.set("mdp.env_steps", steps as f64);
    layers.set("rl.learner_self_ms", self_ms(&spans, "rl.train"));
    layers.set("rl.updates", result.updates as f64);

    // The trained agent on the held-out trace exercises features, nn,
    // policy, engine and pricing.
    let spec = result.spec;
    let (_, _) = trace_rl_simulate(
        &held_out,
        &model,
        &spec,
        &result.actor_params,
        agent.features,
        ctx.seed,
        tracer,
        &mut layers,
        &mut out,
    )?;
    Ok(traced_outcome(layers, out, untraced.wall_s, (oracle_ms + train_ms) / 1e3))
}
