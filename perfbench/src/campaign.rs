//! The `campaign` workload: an in-process `Campaign::run` over
//! planner-free control-loop cells × generated seeds plus catalog cells
//! at their pinned seeds, without plan or result cache.

use crate::ledger::Ledger;
use crate::stats::{Report, Samples};
use crate::{derived_seeds, golden_dir, print_metric, probes, scratch_dir, stacks, timed_setup};
use crate::{Args, WORKERS};
use soter_core::rta::FilterKind;
use soter_drone::stack::{AdvancedKind, Protection};
use soter_scenarios::golden::{golden_path, record_from_text};
use soter_scenarios::{catalog, run_scenario, Campaign, RunRecord, Scenario};
use std::path::Path;
use std::time::Instant;

/// Generated seeds per generated cell.
const SEEDS: usize = 2;

/// Catalog cells of these families run at their pinned seeds.
const CATALOG_FAMILIES: [&str; 6] = [
    "fig5-",
    "fig12a-",
    "airspace-",
    "ablation-",
    "wind-sweep-",
    "battery-grid-",
];

struct Inputs {
    seed: u64,
    /// The generated cells (bases × filters), re-seeded for every pass.
    cells: Vec<Scenario>,
    /// Catalog cells at their pinned seeds.
    catalog: Vec<Scenario>,
    /// Golden record of each catalog cell.
    goldens: Vec<RunRecord>,
}

impl Inputs {
    /// The jobs of pass `pass`: every generated cell at [`SEEDS`] seeds
    /// derived from the workload seed and the pass, then the catalog
    /// cells.  Fresh seeds per pass spread seed-dependent cost over many
    /// seeds.
    fn jobs(&self, pass: u64) -> Vec<Scenario> {
        let seeds = derived_seeds(self.seed, 1 + pass, SEEDS);
        let mut jobs: Vec<Scenario> = self
            .cells
            .iter()
            .flat_map(|cell| seeds.iter().map(|&s| cell.clone().with_seed(s)))
            .collect();
        jobs.extend(self.catalog.iter().cloned());
        jobs
    }

    fn generated(&self) -> usize {
        self.cells.len() * SEEDS
    }
}

/// The planner-free bases: the RTA corner-cut circuit loop and the
/// 8-drone crossing and corridor airspaces.
fn bases() -> Vec<Scenario> {
    vec![
        catalog::fig5(AdvancedKind::Px4Like, 1, 300.0)
            .with_protection(Protection::Rta)
            .with_name("circuit-loop-rta"),
        catalog::airspace_crossing(8, 1, 60.0),
        catalog::airspace_corridor(8, 1, 60.0),
    ]
}

fn inputs(seed: u64, golden: &Path) -> Result<Inputs, String> {
    let cells = bases()
        .iter()
        .flat_map(|base| FilterKind::ALL.map(|filter| base.filter_variant(filter)))
        .collect();
    let mut catalog_cells = Vec::new();
    let mut goldens = Vec::new();
    for scenario in catalog::golden_suite() {
        if CATALOG_FAMILIES
            .iter()
            .any(|f| scenario.name.starts_with(f))
        {
            let path = golden_path(golden, &scenario);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("golden {}: {e}", path.display()))?;
            goldens.push(
                record_from_text(&text).map_err(|e| format!("golden {}: {e}", path.display()))?,
            );
            catalog_cells.push(scenario);
        }
    }
    Ok(Inputs {
        seed,
        cells,
        catalog: catalog_cells,
        goldens,
    })
}

fn print_matrix(inputs: &Inputs, jobs: &[Scenario]) {
    let names = |jobs: &[Scenario]| -> String {
        let cells: Vec<String> = jobs
            .iter()
            .map(|s| format!("{}@{}", s.name, s.seed))
            .collect();
        cells.join(" ")
    };
    let generated = inputs.generated();
    println!(
        "matrix campaign: {} runs per pass on {WORKERS} workers; generated seeds change every pass",
        jobs.len()
    );
    println!(
        "matrix campaign generated (first pass): {}",
        names(&jobs[..generated])
    );
    println!("matrix campaign catalog: {}", names(&jobs[generated..]));
}

/// Checks one pass: every record present, catalog cells equal to their
/// goldens.
fn check_pass(inputs: &Inputs, jobs: &[Scenario], records: &[RunRecord], report: &mut Report) {
    report.check(records.len() == jobs.len(), || {
        format!("pass returned {} of {} records", records.len(), jobs.len())
    });
    for (record, golden) in records[inputs.generated().min(records.len())..]
        .iter()
        .zip(&inputs.goldens)
    {
        report.check(record == golden, || {
            format!("{} differs from its golden: {record:?}", golden.scenario)
        });
    }
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let golden = golden_dir()?;
    let (setup, inputs) = timed_setup(|| inputs(args.seed, &golden))?;
    let first_jobs = inputs.jobs(0);
    print_matrix(&inputs, &first_jobs);
    if args.trace {
        return traced(args, &inputs, &first_jobs, report);
    }

    let mut pass_s = Samples::default();
    let mut runs_per_s = Samples::default();
    let mut first: Vec<RunRecord> = Vec::new();
    let start = Instant::now();
    while pass_s.len() == 0 || start.elapsed() < args.seconds {
        let jobs = inputs.jobs(pass_s.len() as u64);
        let campaign = Campaign::new(jobs.clone()).with_workers(WORKERS);
        let t = Instant::now();
        let pass = campaign.run();
        let dt = t.elapsed().as_secs_f64();
        pass_s.push(dt);
        runs_per_s.push(pass.records.len() as f64 / dt);
        check_pass(&inputs, &jobs, &pass.records, report);
        if first.is_empty() {
            first = pass.records;
        }
    }

    // Untimed reference: every generated cell of the first pass run
    // sequentially through `run_scenario` must match its campaign record.
    for (scenario, record) in first_jobs[..inputs.generated()].iter().zip(&first) {
        let reference = RunRecord::from_outcome(&run_scenario(scenario));
        report.check(&reference == record, || {
            format!(
                "{}@{} differs from sequential run_scenario",
                scenario.name, scenario.seed
            )
        });
    }

    print_metric("campaign.runs_per_s", &runs_per_s, "runs/s");
    print_metric("campaign.pass_s", &pass_s, "s");
    print_metric("setup_s", &setup, "s");
    println!(
        "operations campaign: {} passes of {} runs attempted, {} checks failed",
        pass_s.len(),
        first_jobs.len(),
        report.failed
    );
    report.metric("throughput", runs_per_s.median(), "1/s");
    report.metric("latency_ms", pass_s.median() * 1e3, "ms");
    report.metric("setup_s", setup.median(), "s");
    Ok(())
}

/// The traced run: the first pass untraced for records and checks, then
/// replays of its cells through decorated stacks for at least `--seconds`.
fn traced(
    args: &Args,
    inputs: &Inputs,
    jobs: &[Scenario],
    report: &mut Report,
) -> Result<(), String> {
    let pass = Campaign::new(jobs.to_vec()).with_workers(WORKERS).run();
    check_pass(inputs, jobs, &pass.records, report);
    let mut ledger = Ledger::new();
    ledger.phi_violations = pass
        .records
        .iter()
        .map(|r| r.safety_violations as u64)
        .sum();
    ledger.sep_violations = pass
        .records
        .iter()
        .map(|r| r.separation_violations as u64)
        .sum();
    let start = Instant::now();
    while ledger.passes == 0 || start.elapsed() < args.seconds {
        for scenario in jobs.iter().filter(|s| stacks::is_stack_cell(s)) {
            let trace = stacks::trace_cell(scenario, &ledger.layers, None, None);
            report.check(trace.digest_equal, || {
                format!(
                    "traced {}@{} changed the trace digest",
                    scenario.name, scenario.seed
                )
            });
            ledger.add_cell(&trace);
        }
        ledger.passes += 1;
    }
    let dir = scratch_dir("campaign")?;
    let cells: Vec<(Scenario, RunRecord)> = jobs
        .iter()
        .cloned()
        .zip(pass.records.iter().cloned())
        .collect();
    let requests = vec![request_line(jobs)];
    let probed = probes::run(&cells, &[], &requests, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    ledger.probes = probed?;
    ledger.not_reached = vec![
        "Campaign worker threads and run_scenario's summary (trajectory metrics, collision episodes, digest) are private to soter-scenarios",
        "inside the per-drone SeparationOracle of airspace cells, the obstacle and peer-separation checks are timed together as one oracle",
        "result cache, wire and daemon rows are off this workload's path: measured by direct calls on its records",
    ];
    ledger.emit("campaign", report);
    Ok(())
}

/// The daemon request line a client would send for `jobs`.
fn request_line(jobs: &[Scenario]) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut seeds: Vec<String> = Vec::new();
    for job in jobs {
        if !names.contains(&job.name.as_str()) {
            names.push(&job.name);
        }
        let seed = job.seed.to_string();
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    format!(
        "CAMPAIGN campaign scenarios={} seeds={} shards={WORKERS}",
        names.join(","),
        seeds.join(",")
    )
}
