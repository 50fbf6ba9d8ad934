//! Differential proof that the zero-allocation executor hot path (interned
//! topics, slot-store views, indexed calendar) is behaviourally identical
//! to the map-based reference semantics it replaced.
//!
//! Four angles:
//!
//! * every scenario of the pinned catalog suite (single-drone, fleets,
//!   planner queries, adversarial schedules) re-runs through the campaign
//!   engine at 1 **and** 4 workers, and every record — digest, monitor
//!   verdicts, mode switches, targets — must match the committed golden
//!   byte-for-byte;
//! * the same suite as one 4-worker campaign sharing a planner-query cache
//!   must match the goldens too, and a mixed set of missions and a fleet
//!   run through one shared cache must reproduce the uncached outcomes —
//!   replayed plans never change a run;
//! * mission scenarios re-run twice and must agree on the trace digest and
//!   the exact event count (the firing-schedule fingerprint);
//! * a proptest over randomized `FnNode` systems compares the executor,
//!   firing by firing, against a retained naive reference interpreter that
//!   still uses `TopicMap::restrict` and map merging — the pre-optimisation
//!   data flow.

mod common;

use common::{executor_firings, random_system, NaiveExecutor};
use proptest::prelude::*;
use soter::core::prelude::*;
use soter::plan::cache::PlanCache;
use soter::scenarios::campaign::{Campaign, RunRecord};
use soter::scenarios::catalog;
use soter::scenarios::golden::{golden_path, record_from_text};
use soter::scenarios::runner::{run_scenario, run_scenario_cached};
use soter::scenarios::spec::Scenario;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

/// The committed golden record of one catalog scenario.
fn golden(scenario: &Scenario) -> RunRecord {
    let text = std::fs::read_to_string(golden_path(golden_dir(), scenario))
        .unwrap_or_else(|e| panic!("missing golden for `{}`: {e}", scenario.name));
    record_from_text(&text).expect("golden parses")
}

/// Runs the whole catalog suite through the campaign engine with the given
/// worker count and returns the records keyed by scenario name.
fn campaign_records(workers: usize) -> BTreeMap<String, RunRecord> {
    let suite = catalog::golden_suite();
    let seeds: Vec<u64> = suite.iter().map(|s| s.seed).collect();
    // Every scenario keeps its own seed: fan out one scenario per job by
    // running a campaign per scenario (seeds differ across the suite).
    let mut records = BTreeMap::new();
    for (scenario, seed) in suite.into_iter().zip(seeds) {
        let report = Campaign::new(vec![scenario])
            .with_seeds(vec![seed])
            .with_workers(workers)
            .run();
        for record in &report.records {
            records.insert(record.scenario.clone(), record.clone());
        }
    }
    records
}

/// The catalog suite must reproduce the committed goldens exactly, at one
/// worker and at four: same digests, same monitor verdicts, same stats.
#[test]
fn catalog_suite_is_digest_identical_to_goldens_at_1_and_4_workers() {
    let suite = catalog::golden_suite();
    let sequential = campaign_records(1);
    let parallel = campaign_records(4);
    assert_eq!(sequential.len(), suite.len());
    assert_eq!(sequential, parallel, "worker count must not affect records");
    let mut checked = 0usize;
    for scenario in &suite {
        let actual = &sequential[&scenario.name];
        assert_eq!(
            actual,
            &golden(scenario),
            "scenario `{}` diverged from its golden",
            scenario.name
        );
        checked += 1;
    }
    assert_eq!(checked, 30, "the pinned suite covers all 30 goldens");
}

/// One 4-worker campaign over the whole catalog suite, every run sharing
/// one planner-query cache, must reproduce the committed goldens: cache
/// replay is exact, so warm plans never change a record.
#[test]
fn catalog_suite_with_a_shared_plan_cache_is_golden_identical() {
    let suite = catalog::golden_suite();
    let goldens: Vec<RunRecord> = suite.iter().map(golden).collect();
    assert_eq!(goldens.len(), 30, "the pinned suite covers all 30 goldens");
    let records = Campaign::new(suite)
        .with_workers(4)
        .with_plan_cache(Arc::new(PlanCache::new()))
        .run()
        .records;
    assert_eq!(
        records, goldens,
        "records diverged from the goldens under a shared plan cache"
    );
}

/// Same-shape missions and a fleet run through one shared planner-query
/// cache reproduce their uncached outcomes, digest and trace fingerprint
/// included.
#[test]
fn mixed_scenarios_through_a_shared_plan_cache_match_uncached_outcomes() {
    let scenarios = vec![
        catalog::stress(13, 10.0, false),
        catalog::stress(21, 10.0, false),
        catalog::airspace_crossing(2, 21, 6.0),
        catalog::stress(13, 10.0, true),
    ];
    let cache = Arc::new(PlanCache::new());
    for scenario in &scenarios {
        let plain = run_scenario(scenario);
        let cached = run_scenario_cached(scenario, Some(&cache));
        assert_eq!(plain.digest, cached.digest, "{}", scenario.name);
        assert_eq!(plain.safety_violations, cached.safety_violations);
        assert_eq!(plain.separation_violations, cached.separation_violations);
        assert_eq!(plain.invariant_violations, cached.invariant_violations);
        assert_eq!(plain.mode_switches, cached.mode_switches);
        assert_eq!(plain.completed, cached.completed);
        assert_eq!(
            plain.run.as_ref().map(|r| (r.trace_digest, r.trace_events)),
            cached
                .run
                .as_ref()
                .map(|r| (r.trace_digest, r.trace_events)),
            "trace fingerprint diverged for `{}`",
            scenario.name
        );
    }
}

/// Mission scenarios must agree across repeated runs on the full
/// firing-schedule fingerprint: digest *and* event count.
#[test]
fn mission_reruns_agree_on_trace_digest_and_event_count() {
    for scenario in [
        catalog::fig12a(soter::drone::stack::Protection::Rta, 3, 30.0),
        catalog::stress(13, 20.0, true),
        catalog::airspace_crossing(2, 21, 6.0),
    ] {
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert_eq!(a.digest, b.digest, "{}", scenario.name);
        let (ra, rb) = (a.run.as_ref(), b.run.as_ref());
        assert_eq!(
            ra.map(|r| (r.trace_digest, r.trace_events)),
            rb.map(|r| (r.trace_digest, r.trace_events)),
            "{}",
            scenario.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The optimized executor and the naive restrict-based reference fire
    /// the same nodes at the same instants with the same OE gating, and
    /// leave the global valuation in the same state.
    #[test]
    fn executor_matches_naive_reference(
        seed in 0u64..10_000,
        nodes in 2usize..6,
        horizon_ms in 200u64..1200,
    ) {
        let horizon = Time::from_millis(horizon_ms);
        let (firings, topics) = executor_firings(random_system(seed, nodes), horizon);
        let mut reference = NaiveExecutor::new(random_system(seed, nodes));
        while reference.now < horizon {
            if reference.step_instant().is_none() {
                break;
            }
        }
        prop_assert_eq!(&firings, &reference.firings);
        prop_assert_eq!(&topics, &reference.topics);
    }
}
