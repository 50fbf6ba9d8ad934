//! The `falsify` workload: repeated falsification searches, each from a
//! fresh `Falsifier` (cold plan cache, no result cache, no wire).
//!
//! A search's cost depends strongly on its falsifier seed (when it finds
//! a counterexample, how long shrinking takes), so one repetition runs
//! both searches for a panel of [`PANEL`] falsifier seeds: `--seed`,
//! `--seed + 1`, … reduced modulo [`PANEL`].  Every run thus times the
//! same searches, in an order the seed chooses, and every run includes
//! the pinned falsifier seed 7.

use crate::ledger::Ledger;
use crate::stats::{Report, Samples};
use crate::{golden_dir, print_metric, probes, scratch_dir, splitmix, stacks, timed_setup};
use crate::{Args, WORKERS};
use soter_core::rta::FilterKind;
use soter_core::time::{Duration, Time};
use soter_plan::cache::PlanCache;
use soter_runtime::schedule::JitterSchedule;
use soter_scenarios::falsify::ScheduleFamily;
use soter_scenarios::golden::record_from_text;
use soter_scenarios::{
    catalog, run_scenario, Falsifier, FalsifierConfig, FalsifyReport, JitterSpec, RunRecord,
    Scenario, ScheduleSpace,
};
use std::sync::Arc;
use std::time::Instant;

/// The falsifier seed whose results are pinned under `tests/golden/`.
const PINNED_SEED: u64 = 7;
/// Falsifier seeds per repetition.
const PANEL: u64 = 8;

/// One search of a repetition.
struct Search {
    kind: &'static str,
    scenario: Scenario,
    space: ScheduleSpace,
    config: FalsifierConfig,
}

impl Search {
    fn run(&self) -> FalsifyReport {
        Falsifier::new(
            self.scenario.clone(),
            self.space.clone(),
            self.config.clone(),
        )
        .run()
    }

    fn pinned(&self) -> bool {
        self.config.seed == PINNED_SEED
    }
}

/// The SC-starvation space of `tests/falsify.rs` over `horizon` seconds.
fn starvation_space(horizon: f64) -> ScheduleSpace {
    ScheduleSpace {
        nodes: vec!["mpr_sc".into()],
        families: vec![ScheduleFamily::Targeted],
        min_delay: Duration::from_millis(100),
        max_delay: Duration::from_millis(1500),
        max_width: Duration::from_secs_f64(horizon),
        horizon,
    }
}

/// Pinned expectations read from `tests/golden/`.
struct Goldens {
    /// The SC-starvation counterexample's record.
    starvation: RunRecord,
    /// The ASIF search summary.
    asif: String,
}

struct Inputs {
    searches: Vec<Search>,
    goldens: Goldens,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let golden = golden_dir()?;
    let read = |name: &str| {
        std::fs::read_to_string(golden.join(name)).map_err(|e| format!("golden {name}: {e}"))
    };
    let starvation = record_from_text(&read("stress-sc-starvation-s13.golden")?)
        .map_err(|e| format!("golden stress-sc-starvation-s13: {e}"))?;
    let asif = read("falsify-asif-search.txt")?;
    let mut searches = Vec::new();
    for i in 0..PANEL {
        let config = |budget| FalsifierConfig {
            budget,
            restarts: 8,
            neighbours: 4,
            workers: WORKERS,
            seed: seed.wrapping_add(i) % PANEL,
            ..FalsifierConfig::default()
        };
        searches.push(Search {
            kind: "sc-starvation",
            scenario: catalog::stress(13, 30.0, false).with_name("stress-sc-starvation"),
            space: starvation_space(30.0),
            config: config(48),
        });
        searches.push(Search {
            kind: "asif",
            scenario: catalog::stress(13, 15.0, false)
                .with_filter(FilterKind::Asif)
                .with_name("stress-asif-falsify"),
            space: starvation_space(15.0),
            config: config(16),
        });
    }
    Ok(Inputs {
        searches,
        goldens: Goldens { starvation, asif },
    })
}

/// Checks one repetition's reports: pinned results for the pinned seed,
/// and every counterexample replays through `run_scenario` to its record
/// with at least one violation.
fn check_reports(
    searches: &[Search],
    goldens: &Goldens,
    reports: &[FalsifyReport],
    report: &mut Report,
) {
    for (search, found) in searches.iter().zip(reports) {
        match search.kind {
            "sc-starvation" if search.pinned() => {
                let ce = found.counterexample.as_ref();
                report.check(
                    ce.is_some_and(|ce| {
                        ce.schedule == catalog::sc_starvation_schedule()
                            && ce.record == goldens.starvation
                    }),
                    || format!("SC-starvation search missed the pinned counterexample: {ce:?}"),
                );
            }
            "asif" if search.pinned() => {
                report.check(found.summary() == goldens.asif, || {
                    format!(
                        "ASIF search differs from its pinned report:\n{}",
                        found.summary()
                    )
                });
            }
            _ => {}
        }
        let Some(ce) = &found.counterexample else {
            continue;
        };
        let replay = search
            .scenario
            .clone()
            .with_jitter(JitterSpec::Schedule(ce.schedule.clone()));
        let record = RunRecord::from_outcome(&run_scenario(&replay));
        report.check(
            record == ce.record && record.safety_violations + record.separation_violations >= 1,
            || {
                format!(
                    "{} counterexample (falsifier seed {}) does not replay: {record:?} vs {:?}",
                    search.kind, search.config.seed, ce.record
                )
            },
        );
    }
}

fn print_matrix(inputs: &Inputs) {
    for s in &inputs.searches {
        println!(
            "matrix falsify: {} search on {}@{} (horizon {} s), budget {}, restarts {}, neighbours {}, falsifier seed {}, {WORKERS} workers",
            s.kind, s.scenario.name, s.scenario.seed, s.space.horizon, s.config.budget,
            s.config.restarts, s.config.neighbours, s.config.seed
        );
    }
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (setup, inputs) = timed_setup(|| inputs(args.seed))?;
    print_matrix(&inputs);
    if args.trace {
        return traced(args, &inputs, report);
    }
    let mut by_kind: Vec<(&str, Samples)> = Vec::new();
    let mut search_s = Samples::default();
    let mut per_search_s = Samples::default();
    let mut schedules_per_s = Samples::default();
    let mut first: Vec<FalsifyReport> = Vec::new();
    let start = Instant::now();
    while first.is_empty() || start.elapsed() < args.seconds {
        let rep = Instant::now();
        let mut reports = Vec::new();
        for search in &inputs.searches {
            let t = Instant::now();
            reports.push(search.run());
            let dt = t.elapsed().as_secs_f64();
            search_s.push(dt);
            match by_kind.iter_mut().find(|(k, _)| *k == search.kind) {
                Some((_, samples)) => samples.push(dt),
                None => {
                    let mut samples = Samples::default();
                    samples.push(dt);
                    by_kind.push((search.kind, samples));
                }
            }
        }
        let dt = rep.elapsed().as_secs_f64();
        let evaluations: usize = reports.iter().map(|r| r.evaluations).sum();
        schedules_per_s.push(evaluations as f64 / dt);
        per_search_s.push(dt / reports.len() as f64);
        if first.is_empty() {
            first = reports;
        } else {
            report.check(reports == first, || {
                "a repetition's reports differ from the first repetition's".to_string()
            });
        }
    }
    check_reports(&inputs.searches, &inputs.goldens, &first, report);

    print_metric("falsify.search_s", &search_s, "s");
    for (kind, samples) in &by_kind {
        print_metric(&format!("falsify.search_s[{kind}]"), samples, "s");
    }
    print_metric("falsify.mean_search_s", &per_search_s, "s");
    print_metric("falsify.schedules_per_s", &schedules_per_s, "schedules/s");
    print_metric("setup_s", &setup, "s");
    for (search, found) in inputs.searches.iter().zip(&first) {
        println!(
            "verdict {} (falsifier seed {}): {} evaluations, counterexample {}",
            search.kind,
            search.config.seed,
            found.evaluations,
            if found.counterexample.is_some() {
                "found"
            } else {
                "none"
            }
        );
    }
    println!(
        "operations falsify: {} repetitions of {} searches attempted, {} checks failed",
        per_search_s.len(),
        inputs.searches.len(),
        report.failed
    );
    report.metric("throughput", schedules_per_s.median(), "1/s");
    report.metric("latency_ms", per_search_s.median() * 1e3, "ms");
    report.metric("setup_s", setup.median(), "s");
    Ok(())
}

/// `count` schedules of `space`, derived from `seed`.
fn sample_schedules(space: &ScheduleSpace, seed: u64, count: usize) -> Vec<JitterSchedule> {
    let mut state = seed ^ 0xFA15_1F1E;
    let horizon_us = (space.horizon * 1e6) as u64;
    let (lo, hi) = (space.min_delay.as_micros(), space.max_delay.as_micros());
    let width_us = space.max_width.as_micros().max(1);
    (0..count)
        .map(|_| JitterSchedule::TargetedNode {
            node: space.nodes[0].clone(),
            start: Time::from_micros(splitmix(&mut state) % horizon_us.max(1)),
            width: Duration::from_micros(1 + splitmix(&mut state) % width_us),
            delay: Duration::from_micros(lo + splitmix(&mut state) % (hi - lo + 1)),
        })
        .collect()
}

/// The traced run: the panel's first pair of searches (falsifier seed
/// `--seed` mod [`PANEL`]) runs untraced for reports and checks; then per
/// search a replay of as many candidate schedules as it evaluated (its
/// counterexample and best schedule first) through decorated stacks
/// sharing one cold plan cache, like a fresh falsifier.
fn traced(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let searches = &inputs.searches[..2];
    let reports: Vec<FalsifyReport> = searches.iter().map(Search::run).collect();
    check_reports(searches, &inputs.goldens, &reports, report);
    let mut ledger = Ledger::new();
    let mut candidates: Vec<Scenario> = Vec::new();
    let mut plans = Vec::new();
    let start = Instant::now();
    while ledger.passes == 0 || start.elapsed() < args.seconds {
        for (search, found) in searches.iter().zip(&reports) {
            let mut schedules: Vec<JitterSchedule> = found
                .counterexample
                .iter()
                .map(|ce| ce.schedule.clone())
                .chain(found.best.iter().map(|(s, _)| s.clone()))
                .collect();
            let extra = found.evaluations.saturating_sub(schedules.len());
            schedules.extend(sample_schedules(&search.space, args.seed, extra));
            let (cache, reference_cache) = (Arc::new(PlanCache::new()), Arc::new(PlanCache::new()));
            for schedule in schedules {
                let scenario = search
                    .scenario
                    .clone()
                    .with_jitter(JitterSpec::Schedule(schedule));
                let trace = stacks::trace_cell(
                    &scenario,
                    &ledger.layers,
                    Some(&cache),
                    Some(&reference_cache),
                );
                report.check(trace.digest_equal, || {
                    format!("traced {} candidate changed the trace digest", search.kind)
                });
                ledger.add_cell(&trace);
                if ledger.passes == 0 {
                    candidates.push(scenario);
                }
            }
            if plans.is_empty() {
                plans = cache.export_since(0).1;
            }
        }
        ledger.passes += 1;
    }
    // Records for the probes: the candidates' own records.
    let cells: Vec<(Scenario, RunRecord)> = candidates
        .into_iter()
        .map(|s| {
            let record = RunRecord::from_outcome(&run_scenario(&s));
            (s, record)
        })
        .collect();
    ledger.phi_violations = cells.iter().map(|(_, r)| r.safety_violations as u64).sum();
    ledger.sep_violations = cells
        .iter()
        .map(|(_, r)| r.separation_violations as u64)
        .sum();
    let dir = scratch_dir("falsify")?;
    let requests: Vec<String> = searches
        .iter()
        .map(|s| {
            format!(
                "CAMPAIGN falsify scenarios={} seeds={} shards={WORKERS}",
                s.scenario.name, s.scenario.seed
            )
        })
        .collect();
    let probed = probes::run(&cells, &plans, &requests, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    ledger.probes = probed?;
    ledger.not_reached = vec![
        "the Falsifier's candidate generation, scoring and shrinking, and its internal plan cache: the replay re-runs as many candidates of the same space as the search evaluated",
        "result cache, wire and daemon rows are off this workload's path: measured by direct calls on its records",
    ];
    ledger.emit("falsify", report);
    Ok(())
}
