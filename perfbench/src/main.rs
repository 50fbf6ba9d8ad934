//! One benchmark for the SOTER workspace.
//!
//! ```text
//! perfbench --workload campaign|falsify|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! * `campaign` — an in-process `Campaign::run` over planner-free
//!   control-loop cells (RTA circuit loop, 8-drone crossing and corridor
//!   airspaces, each under every `FilterKind`) × generated seeds, plus the
//!   circuit/airspace/ablation/wind/battery-grid catalog cells checked
//!   against `tests/golden/`.
//! * `falsify` — per repetition, fresh `Falsifier` searches (cold plan
//!   cache): the SC-starvation search on `stress(13, 30 s)` and the ASIF
//!   search on `stress(13, 15 s)`.
//! * `serve` — one client on a persistent connection to an in-process
//!   `Daemon` (pool 2, on-disk cache segment): a cold campaign, sliding
//!   windows of half new and half cached seeds, repeated warm requests,
//!   and a restarted daemon answering from the segment.
//!
//! With `--trace 0` the run measures end-to-end metrics; with `--trace 1`
//! it replays the workload's cells through decorated stacks and reports
//! the per-layer ledger.  Human-readable lines come first; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Any failed output check makes the exit code non-zero.

mod campaign;
mod falsify;
mod layers;
mod ledger;
mod probes;
mod serve;
mod stacks;
mod stats;

use stats::{Report, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads, shards and worker processes of every workload.
pub const WORKERS: usize = 2;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(Duration::from_secs(number()?.max(1))),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: the generator behind every input derived from the seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` distinct scenario seeds in `1..=9999` derived from `seed` and a
/// per-purpose `stream` tag.
pub fn derived_seeds(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut state = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut seeds = Vec::with_capacity(n);
    while seeds.len() < n {
        let s = 1 + splitmix(&mut state) % 9999;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// Runs `setup` nine times and returns the timings with the last result,
/// which the timed section then uses.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Samples, T), String> {
    let mut samples = Samples::default();
    let mut last = None;
    for _ in 0..9 {
        let start = Instant::now();
        let value = setup()?;
        samples.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((samples, last.expect("setup ran nine times")))
}

/// Prints one end-to-end metric by its issue name with unit and samples.
pub fn print_metric(name: &str, samples: &Samples, unit: &str) {
    println!("metric {name} = {}", samples.describe(unit));
}

/// The benchmark's scratch directory inside the checkout, made fresh.
pub fn scratch_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_build")
        .join("perfbench-tmp")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The golden-trace directory the output checks read.
pub fn golden_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("tests/golden");
    if dir.is_dir() {
        Ok(dir)
    } else {
        Err("tests/golden not found: run from the repository root".into())
    }
}

fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only a checkout with its own `.git` is asked for its commit, so git
    // never walks up out of the checkout.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    println!("provenance nproc = {nproc}");
    println!("provenance cpu = {}", cpu_model());
    println!("provenance rustc = {}", command_line("rustc", &["-V"]));
    println!("provenance commit = {commit}");
    println!("provenance workload = {}", args.workload);
    println!("provenance seed = {}", args.seed);
    println!("provenance seconds = {}", args.seconds.as_secs());
    println!("provenance trace = {}", u8::from(args.trace));
    println!("provenance workers = {WORKERS}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload campaign|falsify|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    provenance(&args);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "campaign" => campaign::run(&args, &mut report),
        "falsify" => falsify::run(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
