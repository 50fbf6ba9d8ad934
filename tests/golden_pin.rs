//! Pins the bytes of `tests/golden/` to the engine version.
//!
//! A re-bless means run semantics changed, and that makes every result
//! cache entry written before it stale.  So a re-bless must come with an
//! `ENGINE_VERSION` bump (see `soter_scenarios::cache`).  This test hashes
//! the golden directory (sorted file names plus bytes) and compares the
//! hash with the one recorded for the current `ENGINE_VERSION`.  A
//! re-bless without a bump fails here.  After bumping, append the
//! `(version, hash)` row the failure message prints.

use soter::scenarios::cache::ENGINE_VERSION;
use std::path::Path;

/// `(ENGINE_VERSION, hash of tests/golden/)`, one row per version, oldest
/// first.
const GOLDEN_PINS: &[(u64, u64)] = &[(2, 0x8135_8f16_7249_0e72)];

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

/// FNV-1a over every file in the directory, by ascending name, each as
/// its length-prefixed name then its length-prefixed bytes.
fn hash_golden_dir(dir: &Path) -> u64 {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/golden exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in &files {
        let name = path.file_name().expect("a file name").to_string_lossy();
        fold(name.as_bytes());
        fold(&std::fs::read(path).expect("readable golden file"));
    }
    h
}

#[test]
fn goldens_are_pinned_to_the_engine_version() {
    let hash = hash_golden_dir(golden_dir());
    assert!(
        GOLDEN_PINS.windows(2).all(|w| w[0].0 < w[1].0),
        "pin rows must ascend by version"
    );
    let pinned = GOLDEN_PINS
        .iter()
        .find(|(version, _)| *version == ENGINE_VERSION)
        .map(|&(_, pinned)| pinned);
    let recorded = pinned.map_or("nothing".to_string(), |p| format!("{p:#018x}"));
    assert_eq!(
        pinned,
        Some(hash),
        "tests/golden/ hashes to {hash:#018x}, but ENGINE_VERSION {ENGINE_VERSION} records \
         {recorded}.  Re-blessed goldens mean changed run semantics: bump ENGINE_VERSION and \
         record the new version with this hash in GOLDEN_PINS."
    );
}
