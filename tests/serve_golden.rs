//! Golden ledgers for bounded-memory serving.
//!
//! In bounded mode (`max_tracked = Some(k)`) decision features come from
//! sketch estimates for untracked files, so serve no longer matches the
//! batch simulator and `serve_equivalence` cannot pin it. This suite pins
//! it against recorded ledgers instead: Greedy and a seeded random-init RL
//! actor, tracking 10% of a small fleet, at cadences 1 and 7. Any change to
//! how serve assembles features or bills must reproduce
//! `tests/golden/bounded_serve.json` exactly.
//!
//! To re-record after an intended behaviour change, run the suite with
//! `MINICOST_BLESS_GOLDEN=1` and review the diff of the JSON file.
//!
//! The suite also kills and restores bounded runs: the heavy-hitter
//! summary is saved in a canonical order and rebuilt on load, so any
//! behaviour that leaked from its in-memory layout would make a restored
//! run diverge from the uninterrupted one.

use minicost::prelude::*;
use pricing::CostBreakdown;
use rl::NetSpec;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

const FILES: usize = 60;
const DAYS: usize = 24;

/// The ledgers one golden case pins.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    case: String,
    daily: Vec<CostBreakdown>,
    per_file: Vec<Money>,
    tier_changes: u64,
    occupancy: Vec<[usize; 3]>,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bounded_serve.json")
}

/// A random-init actor over the serve window (no training: decisions are
/// a deterministic function of the seeded parameters).
fn rl_policy(window: usize) -> RlPolicy {
    let spec = NetSpec {
        window,
        channels: FeatureConfig::CHANNELS,
        extras: minicost::features::EXTRA_FEATURES,
        filters: 4,
        kernel: 3,
        stride: 1,
        hidden: 8,
        actions: 3,
    };
    RlPolicy::from_params(spec, &spec.build_actor(11).param_vector(), FeatureConfig { window })
}

/// The ledgers of a finished run, labelled.
fn golden(case: String, r: SimResult) -> Golden {
    Golden {
        case,
        daily: r.daily,
        per_file: r.per_file,
        tier_changes: r.tier_changes,
        occupancy: r.occupancy,
    }
}

fn run_cases() -> Vec<Golden> {
    let trace = Trace::generate(&TraceConfig::small(FILES, DAYS, 41));
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    let mut cases = Vec::new();
    for decide_every in [1usize, 7] {
        let cfg = ServeConfig {
            decide_every,
            seed: 5,
            max_tracked: Some(FILES / 10),
            ..ServeConfig::default()
        };
        let mut policies: Vec<Box<dyn Policy>> =
            vec![Box::new(GreedyPolicy), Box::new(rl_policy(cfg.window))];
        for policy in &mut policies {
            let report = serve(&trace, &model, policy.as_mut(), &cfg).expect("serve runs clean");
            cases.push(golden(format!("{} every {decide_every}", policy.name()), report.result));
        }
    }
    cases
}

#[test]
fn bounded_serve_matches_recorded_ledgers() {
    let actual = run_cases();
    let path = golden_path();
    if std::env::var_os("MINICOST_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        // One case per line keeps re-recorded diffs readable.
        let lines: Vec<String> = actual
            .iter()
            .map(|case| serde_json::to_string(case).expect("serialize golden ledgers"))
            .collect();
        std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n")))
            .expect("write golden ledgers");
    }
    let text = std::fs::read_to_string(&path).expect("golden ledgers are committed");
    let expected: Vec<Golden> = serde_json::from_str(&text).expect("golden ledgers parse");
    assert_eq!(actual.len(), expected.len(), "case count");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a.case, e.case);
        assert_eq!(a.daily, e.daily, "{}: daily breakdowns differ", a.case);
        assert_eq!(a.per_file, e.per_file, "{}: per-file ledgers differ", a.case);
        assert_eq!(a.tier_changes, e.tier_changes, "{}: tier changes differ", a.case);
        assert_eq!(a.occupancy, e.occupancy, "{}: occupancy differs", a.case);
    }
}

#[test]
fn golden_cases_exercise_decisions() {
    // A golden file where nothing ever moves would pin billing only; make
    // sure both policies change tiers and the RL actor spreads its choices.
    let cases = run_cases();
    for case in &cases {
        assert!(case.tier_changes > 0, "{}: no tier changes", case.case);
    }
    let rl_tiers_used = cases
        .iter()
        .filter(|c| c.case.starts_with("minicost"))
        .flat_map(|c| c.occupancy.iter())
        .flat_map(|counts| counts.iter().enumerate().filter(|(_, &n)| n > 0).map(|(t, _)| t))
        .collect::<std::collections::BTreeSet<_>>();
    assert!(rl_tiers_used.len() > 1, "the RL actor must not park the whole fleet in one tier");
}

/// The bounded statistics in the shutdown snapshot a run left at `path`.
fn final_stats(path: &std::path::Path) -> stream::BoundedStats {
    let snapshot = stream::Snapshot::load(path).expect("the run left a snapshot");
    snapshot.bounded.expect("a bounded run snapshots bounded statistics")
}

#[test]
fn killed_bounded_runs_restore_bit_identically() {
    let trace = Trace::generate(&TraceConfig::small(FILES, DAYS, 41));
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    let dir = std::env::temp_dir().join(format!("minicost-bounded-restore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for decide_every in [1usize, 7] {
        let base = ServeConfig {
            decide_every,
            seed: 5,
            max_tracked: Some(FILES / 10),
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let mut policies: Vec<Box<dyn Policy>> =
            vec![Box::new(GreedyPolicy), Box::new(rl_policy(base.window))];
        for policy in &mut policies {
            let name = format!("{} every {decide_every}", policy.name());
            let whole_path = dir.join(format!("{}-{decide_every}-whole.json", policy.name()));
            let whole_cfg =
                ServeConfig { checkpoint_path: Some(whole_path.clone()), ..base.clone() };
            let whole = serve(&trace, &model, policy.as_mut(), &whole_cfg).expect("whole run");
            let whole = golden(name.clone(), whole.result);
            let whole_stats = final_stats(&whole_path);
            for kill in [1usize, 12, 23] {
                let path = dir.join(format!("{}-{decide_every}-{kill}.json", policy.name()));
                let cfg = ServeConfig { checkpoint_path: Some(path.clone()), ..base.clone() };
                let cut = ServeConfig { max_days: Some(kill), ..cfg.clone() };
                let partial = serve(&trace, &model, policy.as_mut(), &cut).expect("killed run");
                assert_eq!(partial.days_served_through, kill);
                let resumed = serve(&trace, &model, policy.as_mut(), &cfg).expect("restored run");
                assert_eq!(resumed.resumed_from_day, Some(kill), "{name}: restore point");
                assert_eq!(resumed.days_served_through, DAYS);
                let what = format!("{name}, killed after day {kill}");
                assert_eq!(golden(name.clone(), resumed.result), whole, "{what}: ledgers differ");
                // The statistics themselves, heavy-hitter summary included,
                // end in the same state: a restore that changed an eviction
                // without moving a bill shows up here.
                assert!(final_stats(&path) == whole_stats, "{what}: final statistics differ");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
