//! The `serve` workload: one client with a persistent connection to an
//! in-process `Daemon` (pool 2, on-disk cache segment), closed loop.
//!
//! One cycle, each against fresh cache state: (a) a cold campaign over
//! six registry cells × 8 seeds; (b) sliding windows of 8 seeds, half
//! cached and half new; (c) repeated identical warm requests over every
//! seed of the cycle; (d) a new daemon over the same segment answering
//! that warm request.

use crate::ledger::Ledger;
use crate::stats::{Report, Samples};
use crate::{derived_seeds, print_metric, probes, scratch_dir, stacks, timed_setup};
use crate::{Args, WORKERS};
use soter_plan::cache::PlanCache;
use soter_scenarios::{catalog, Campaign, RunRecord, Scenario};
use soter_serve::daemon::{parse_report_stats, parse_response, read_response};
use soter_serve::{Daemon, ServeConfig};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The registry cells of every request.
const CELLS: [&str; 6] = [
    "stress-ideal",
    "stress-jitter",
    "fig12c-battery",
    "planner-rta",
    "airspace-corridor-8",
    "fig12b-surveillance-asif",
];
/// Seeds per request.
const WINDOW: usize = 8;
/// Sliding-window requests per cycle; each slides by half a window.
const SLIDES: usize = 2;
/// Warm requests per cycle; each asks for every seed of the cycle.
const WARM: usize = 120;
/// Seed of the scenario-seed pool every cycle draws from.
const POOL_SEED: u64 = 0x5E7E;

/// Request phases, in cycle order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Cold,
    Mixed,
    Warm,
    Restart,
}

struct Inputs {
    seed: u64,
    dir: PathBuf,
}

/// One request of a cycle: its phase, seeds and line.
struct Request {
    phase: Phase,
    seeds: Vec<u64>,
    line: String,
}

impl Inputs {
    /// The seeds of a cycle: the fixed pool rotated by the workload seed.
    /// Every cycle executes the whole pool once, whatever the rotation,
    /// so seed-dependent planning cost does not move from run to run;
    /// the seed decides which seeds arrive cold and which in the windows.
    fn seeds(&self) -> Vec<u64> {
        let mut pool = derived_seeds(POOL_SEED, 3, WINDOW + SLIDES * (WINDOW / 2));
        let turn = (self.seed % pool.len() as u64) as usize;
        pool.rotate_left(turn);
        pool
    }

    fn requests(&self) -> Vec<Request> {
        let seeds = self.seeds();
        let half = WINDOW / 2;
        let mut windows = vec![(Phase::Cold, seeds[..WINDOW].to_vec())];
        for k in 1..=SLIDES {
            windows.push((Phase::Mixed, seeds[k * half..k * half + WINDOW].to_vec()));
        }
        windows.extend((0..WARM).map(|_| (Phase::Warm, seeds.clone())));
        windows.push((Phase::Restart, seeds));
        windows
            .into_iter()
            .enumerate()
            .map(|(id, (phase, seeds))| Request {
                line: request(id, &seeds),
                phase,
                seeds,
            })
            .collect()
    }
}

fn request(id: usize, seeds: &[u64]) -> String {
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    format!(
        "CAMPAIGN r{id} scenarios={} seeds={} shards={WORKERS}",
        CELLS.join(","),
        seeds.join(",")
    )
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    for name in CELLS {
        catalog::find(name).ok_or_else(|| format!("`{name}` is not a registry scenario"))?;
    }
    Ok(Inputs {
        seed,
        dir: scratch_dir("serve")?,
    })
}

/// A daemon serving one persistent connection over a socket pair.
struct Connection {
    client: BufReader<UnixStream>,
    server: JoinHandle<()>,
}

impl Connection {
    fn open(daemon: &Daemon) -> Result<Self, String> {
        let (client, server) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
        let reader = server
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        let daemon = daemon.clone();
        let server = std::thread::spawn(move || daemon.serve(BufReader::new(reader), server));
        Ok(Connection {
            client: BufReader::new(client),
            server,
        })
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        let stream = self.client.get_mut();
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("request write: {e}"))?;
        read_response(&mut self.client).map_err(|e| format!("response read: {e}"))
    }

    /// Ends the connection and waits for the daemon's serve loop.
    fn close(self) -> Result<(), String> {
        let _ = self.client.get_ref().shutdown(std::net::Shutdown::Write);
        self.server
            .join()
            .map_err(|_| "daemon serve loop panicked".to_string())
    }
}

fn daemon(segment: &Path) -> Daemon {
    Daemon::new(ServeConfig {
        pool_capacity: WORKERS,
        default_shards: WORKERS,
        result_cache_segment: Some(segment.to_path_buf()),
        ..ServeConfig::default()
    })
}

/// One answered request.
struct Answer {
    cycle: u64,
    phase: Phase,
    seeds: Vec<u64>,
    seconds: f64,
    block: String,
}

/// Daemon-side statistics of one cycle.
#[derive(Default)]
struct CycleStats {
    lookups: u64,
    hits: u64,
    stolen: u64,
    plan_entries: u64,
}

/// Runs cycle `cycle` against a fresh segment.
fn cycle(inputs: &Inputs, cycle: u64, answers: &mut Vec<Answer>) -> Result<CycleStats, String> {
    let requests = inputs.requests();
    let segment = inputs.dir.join("results.segment");
    let _ = std::fs::remove_file(&segment);
    let first = daemon(&segment);
    let mut connection = Connection::open(&first)?;
    let mut stats = CycleStats::default();
    for Request { phase, seeds, line } in &requests {
        let (seconds, block) = if *phase == Phase::Restart {
            connection.close()?;
            let start = Instant::now();
            let restarted = daemon(&segment);
            connection = Connection::open(&restarted)?;
            let block = connection.ask(line)?;
            (start.elapsed().as_secs_f64(), block)
        } else {
            let start = Instant::now();
            let block = connection.ask(line)?;
            (start.elapsed().as_secs_f64(), block)
        };
        if *phase != Phase::Restart {
            if let Some((hits, lookups, stolen)) = parse_report_stats(&block) {
                stats.hits += hits as u64;
                stats.lookups += lookups as u64;
                stats.stolen += stolen as u64;
            }
        }
        answers.push(Answer {
            cycle,
            phase: *phase,
            seeds: seeds.clone(),
            seconds,
            block,
        });
    }
    stats.plan_entries = first.plan_store().len() as u64;
    connection.close()?;
    Ok(stats)
}

/// The in-process reference: one `Campaign` over every cell × seed.
fn reference(inputs: &Inputs) -> HashMap<(String, u64), RunRecord> {
    let scenarios: Vec<Scenario> = CELLS
        .iter()
        .map(|name| catalog::find(name).expect("checked in setup"))
        .collect();
    Campaign::new(scenarios)
        .with_seeds(inputs.seeds())
        .with_workers(WORKERS)
        .run()
        .records
        .into_iter()
        .map(|r| ((r.scenario.clone(), r.seed), r))
        .collect()
}

/// Every answer must parse and hold, in matrix order, the in-process
/// campaign's records.
fn check_answers(
    answers: &[Answer],
    reference: &HashMap<(String, u64), RunRecord>,
    report: &mut Report,
) {
    for answer in answers {
        let keys: Vec<(String, u64)> = CELLS
            .iter()
            .flat_map(|name| answer.seeds.iter().map(|&seed| (name.to_string(), seed)))
            .collect();
        let records = parse_response(&answer.block).map(|(_, records)| records);
        let ok = match &records {
            Ok(records) if records.len() == keys.len() => keys
                .iter()
                .zip(records)
                .all(|(key, record)| reference.get(key) == Some(record)),
            _ => false,
        };
        report.check(ok, || {
            format!(
                "cycle {} {:?} answer differs from the reference records: {}",
                answer.cycle,
                answer.phase,
                answer.block.lines().next().unwrap_or("")
            )
        });
    }
}

fn print_matrix(inputs: &Inputs) {
    for request in inputs.requests() {
        if request.phase != Phase::Warm {
            println!(
                "matrix serve {:?}: {} × seeds {:?}",
                request.phase,
                CELLS.join(","),
                request.seeds
            );
        }
    }
    println!(
        "matrix serve Warm: {WARM} repeats over every seed of the cycle; {WORKERS} shards, pool {WORKERS}"
    );
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (setup, inputs) = timed_setup(|| inputs(args.seed))?;
    print_matrix(&inputs);
    let result = if args.trace {
        traced(args, &inputs, report)
    } else {
        timed(args, &inputs, report, &setup)
    };
    let _ = std::fs::remove_dir_all(&inputs.dir);
    result
}

fn timed(args: &Args, inputs: &Inputs, report: &mut Report, setup: &Samples) -> Result<(), String> {
    let mut answers = Vec::new();
    let mut cycles = 0;
    let start = Instant::now();
    while cycles == 0 || start.elapsed() < args.seconds {
        cycle(inputs, cycles, &mut answers)?;
        cycles += 1;
    }
    check_answers(&answers, &reference(inputs), report);

    let by_phase = |phase: Phase, scale: f64| {
        let mut samples = Samples::default();
        for a in answers.iter().filter(|a| a.phase == phase) {
            samples.push(a.seconds * scale);
        }
        samples
    };
    let (cold, mixed, warm, restart) = (
        by_phase(Phase::Cold, 1.0),
        by_phase(Phase::Mixed, 1.0),
        by_phase(Phase::Warm, 1e3),
        by_phase(Phase::Restart, 1e3),
    );
    // Runs executed by workers per second of cold and mixed requests,
    // per cycle (every cycle executes the whole seed pool once) and over
    // the run.
    let mut runs_per_s = Samples::default();
    let (mut total_runs, mut total_s) = (0usize, 0.0);
    for c in 0..cycles {
        let (mut runs, mut seconds) = (0usize, 0.0);
        for a in answers
            .iter()
            .filter(|a| a.cycle == c && matches!(a.phase, Phase::Cold | Phase::Mixed))
        {
            let (hits, lookups, _) = parse_report_stats(&a.block).unwrap_or_default();
            runs += lookups - hits;
            seconds += a.seconds;
        }
        runs_per_s.push(runs as f64 / seconds);
        total_runs += runs;
        total_s += seconds;
    }
    for a in answers.iter().filter(|a| a.phase != Phase::Warm) {
        println!(
            "request cycle {} {:?}: {:.4} s, {}",
            a.cycle,
            a.phase,
            a.seconds,
            a.block.lines().next().unwrap_or("")
        );
    }
    print_metric("serve.cold_s", &cold, "s");
    print_metric("serve.mixed_s", &mixed, "s");
    print_metric("serve.warm_ms", &warm, "ms");
    print_metric("serve.restart_ms", &restart, "ms");
    print_metric("serve.runs_per_s", &runs_per_s, "runs/s");
    print_metric("setup_s", setup, "s");
    println!(
        "operations serve: {cycles} cycles, {} requests attempted, {} checks failed",
        answers.len(),
        report.failed
    );
    println!(
        "metric serve.runs_per_s (whole run) = {:.4} runs/s over {total_runs} runs",
        total_runs as f64 / total_s
    );
    report.metric("throughput", total_runs as f64 / total_s, "1/s");
    report.metric("latency_ms", warm.median(), "ms");
    report.metric("setup_s", setup.median(), "s");
    Ok(())
}

/// The traced run: one untraced cycle for answers and daemon statistics,
/// then an in-process replay of the matrix's stack cells (two seeds)
/// through decorated stacks sharing one plan cache, as the workers share
/// the daemon's plan store.
fn traced(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let mut answers = Vec::new();
    let stats = cycle(inputs, 0, &mut answers)?;
    let reference = reference(inputs);
    check_answers(&answers, &reference, report);
    let mut ledger = Ledger::new();
    ledger.plan_entries = stats.plan_entries;
    ledger.stolen = stats.stolen;
    ledger.cache_hit_ratio = Some(stats.hits as f64 / stats.lookups.max(1) as f64);
    let replay: Vec<Scenario> = CELLS
        .iter()
        .map(|name| catalog::find(name).expect("checked in setup"))
        .filter(stacks::is_stack_cell)
        .flat_map(|s| {
            inputs.seeds()[..2]
                .iter()
                .map(move |&seed| s.clone().with_seed(seed))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut plans = Vec::new();
    let start = Instant::now();
    while ledger.passes == 0 || start.elapsed() < args.seconds {
        // A cold plan cache per pass, as every cycle starts a fresh daemon.
        let (cache, reference_cache) = (Arc::new(PlanCache::new()), Arc::new(PlanCache::new()));
        for scenario in &replay {
            let trace = stacks::trace_cell(
                scenario,
                &ledger.layers,
                Some(&cache),
                Some(&reference_cache),
            );
            report.check(trace.digest_equal, || {
                format!(
                    "traced {}@{} changed the trace digest",
                    scenario.name, scenario.seed
                )
            });
            ledger.add_cell(&trace);
        }
        plans = cache.export_since(0).1;
        ledger.passes += 1;
    }
    let cells: Vec<(Scenario, RunRecord)> = CELLS
        .iter()
        .flat_map(|name| inputs.seeds().into_iter().map(move |seed| (*name, seed)))
        .filter_map(|(name, seed)| {
            let record = reference.get(&(name.to_string(), seed))?.clone();
            Some((catalog::find(name)?.with_seed(seed), record))
        })
        .collect();
    ledger.phi_violations = cells.iter().map(|(_, r)| r.safety_violations as u64).sum();
    ledger.sep_violations = cells
        .iter()
        .map(|(_, r)| r.separation_violations as u64)
        .sum();
    let requests: Vec<String> = inputs.requests().into_iter().map(|r| r.line).collect();
    ledger.probes = probes::run(&cells, &plans, &requests, &inputs.dir)?;
    ledger.not_reached = vec![
        "soter-worker processes (simulation, planning, REC/PLAN framing): their stack cells are replayed in-process; planner-rta builds no stack",
        "coordinator supervision threads and work stealing inside the daemon",
    ];
    ledger.emit("serve", report);
    Ok(())
}
