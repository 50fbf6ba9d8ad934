//! Property tests over two trust boundaries of the campaign service.
//!
//! * **Daemon requests** — `parse_request` round-trips every valid
//!   `CAMPAIGN` line (any field order, any whitespace) and returns a
//!   verdict, never a panic, on byte soup and on soup built from the
//!   request grammar's own tokens.
//! * **The result-cache segment** — a valid segment cut at every byte
//!   offset (what a crash mid-append leaves) loads exactly its complete
//!   entries, each under its own fingerprint, truncates the torn tail on
//!   disk, and never panics or serves a record under another key.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soter::scenarios::cache::SegmentStats;
use soter::scenarios::{catalog, scenario_fingerprint, ResultCache, RunRecord};
use soter::serve::daemon::{parse_request, MAX_REQUEST_CELLS};
use soter::serve::shard::CampaignRequest;

/// A random token over `alphabet`, 1 to `max` bytes long.
fn token(rng: &mut SmallRng, alphabet: &[u8], max: usize) -> String {
    (0..rng.random_range(1..=max))
        .map(|_| char::from(alphabet[rng.random_range(0..alphabet.len())]))
        .collect()
}

/// Whitespace as `split_whitespace` sees it: at least one separator.
fn gap(rng: &mut SmallRng) -> &'static str {
    [" ", "  ", "\t", " \t "][rng.random_range(0..4usize)]
}

/// A valid request and one of its renderings: fields in a random order,
/// random separators, an optional trailing newline.
fn valid_request(seed: u64, default_shards: usize) -> (String, String, CampaignRequest) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let id = token(&mut rng, b"abcXYZ019_-.:=", 12);
    let scenarios: Vec<String> = (0..rng.random_range(1..=6usize))
        .map(|_| token(&mut rng, b"abcxyz0189-.", 16))
        .collect();
    let seeds: Vec<u64> = (0..rng.random_range(0..=24usize))
        .map(|_| match rng.random_range(0..3u32) {
            0 => rng.random_range(0..16u64),
            1 => u64::MAX - rng.random_range(0..16u64),
            _ => rng.random(),
        })
        .collect();
    let explicit_shards = rng.random_bool(0.5);
    let shards = if explicit_shards {
        rng.random_range(0..=64)
    } else {
        default_shards
    };
    let join = |items: Vec<String>| items.join(",");
    let mut fields = vec![format!("scenarios={}", join(scenarios.clone()))];
    if !seeds.is_empty() || rng.random_bool(0.3) {
        fields.push(format!(
            "seeds={}",
            join(seeds.iter().map(u64::to_string).collect())
        ));
    }
    if explicit_shards {
        fields.push(format!("shards={shards}"));
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.random_range(0..=i));
    }
    let mut line = format!(
        "{}CAMPAIGN {id}",
        ["", " ", "\t"][rng.random_range(0..3usize)]
    );
    for field in fields {
        line.push_str(gap(&mut rng));
        line.push_str(&field);
    }
    line.push_str(["", "\n", "\r\n", " "][rng.random_range(0..4usize)]);
    let request = CampaignRequest {
        scenarios,
        seeds,
        shards,
    };
    (line, id, request)
}

/// Soup over the request grammar's own tokens, so the parser's deeper
/// branches see malformed input too.
fn token_soup(rng: &mut SmallRng) -> String {
    const TOKENS: [&str; 16] = [
        "CAMPAIGN ",
        "CAMPAIGN",
        " ",
        "\t",
        "scenarios=",
        "seeds=",
        "shards=",
        "=",
        ",",
        "serve-smoke",
        "7",
        "18446744073709551616",
        "-1",
        "\u{e9}",
        "\n",
        "frobnicate=",
    ];
    (0..rng.random_range(0..24usize))
        .map(|_| TOKENS[rng.random_range(0..TOKENS.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_requests_round_trip(seed in 0u64..1_000_000, default_shards in 0usize..8) {
        let (line, id, request) = valid_request(seed, default_shards);
        let parsed = parse_request(&line, default_shards);
        prop_assert!(parsed.is_ok(), "{line:?}: {parsed:?}");
        prop_assert_eq!(parsed.unwrap(), (id, request));
    }

    #[test]
    fn request_parser_never_panics_on_soup(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..rng.random_range(0..160usize)).map(|_| rng.random::<u32>() as u8).collect();
        for line in [String::from_utf8_lossy(&bytes).into_owned(), token_soup(&mut rng)] {
            match parse_request(&line, 2) {
                Ok((_, request)) => {
                    prop_assert!(!request.scenarios.is_empty());
                    prop_assert!(
                        request.scenarios.len() * request.seeds.len().max(1) <= MAX_REQUEST_CELLS
                    );
                }
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }
    }
}

fn record(name: &str, seed: u64) -> RunRecord {
    RunRecord {
        scenario: name.to_string(),
        seed,
        digest: 0x5eed_0000 ^ seed,
        safety_violations: seed as usize % 2,
        separation_violations: 0,
        invariant_violations: 0,
        mode_switches: 3,
        targets_reached: 4,
        completed: seed.is_multiple_of(3),
        interventions: 1,
        time_in_sc_ms: 1_250,
    }
}

#[test]
fn a_segment_cut_at_every_offset_loads_its_complete_entries() {
    let dir = std::env::temp_dir().join(format!("soter-segment-cuts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let whole_path = dir.join("whole.seg");
    let entries: Vec<_> = ["serve-smoke", "planner-rta", "fig12a-rta"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let scenario = catalog::find(name).expect("registry scenario");
            let scenario = scenario.with_seed(i as u64);
            (scenario_fingerprint(&scenario), record(name, i as u64))
        })
        .collect();
    {
        let cache = ResultCache::with_segment(16, &whole_path).expect("create segment");
        for (fp, record) in &entries {
            cache.insert(*fp, record);
        }
    }
    let whole = std::fs::read(&whole_path).expect("read segment");
    // Byte offsets just past each entry's `END\n`.
    let ends: Vec<usize> = whole
        .windows(4)
        .enumerate()
        .filter(|(_, w)| *w == b"END\n")
        .map(|(i, _)| i + 4)
        .collect();
    assert_eq!(ends.len(), entries.len());
    assert_eq!(*ends.last().unwrap(), whole.len());

    let path = dir.join("cut.seg");
    for cut in 0..=whole.len() {
        std::fs::write(&path, &whole[..cut]).expect("write cut segment");
        let cache = ResultCache::with_segment(16, &path).expect("a cut segment loads");
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let boundary = if complete == 0 { 0 } else { ends[complete - 1] };
        assert_eq!(
            cache.segment_stats(),
            SegmentStats {
                loaded: complete,
                skipped: 0,
                truncated: cut != boundary,
            },
            "cut at byte {cut}"
        );
        for (i, (fp, record)) in entries.iter().enumerate() {
            let expected = (i < complete).then(|| record.clone());
            assert_eq!(cache.lookup(*fp), expected, "cut at byte {cut}, entry {i}");
        }
        let on_disk = std::fs::metadata(&path).expect("cut segment").len();
        assert_eq!(on_disk, boundary as u64, "torn tail truncated at cut {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
