//! Golden snapshot bytes.
//!
//! `tests/fixtures/golden/snapshots.hex` holds, one per line as
//! `name hex`, the snapshot envelopes of an event detector mid-warmup, the
//! same detector in steady state and a small forecasting stream table,
//! then the checkpoint files of one service run inline and on two shards.
//! The fixture was written once and is never regenerated by an ordinary
//! test run: every build must produce exactly these bytes from the same
//! input, restore them, and re-snapshot them byte-identically. Round-trip
//! tests alone cannot catch an internal engine layout leaking into the
//! bytes, because writer and reader change together.
//!
//! Re-bless only for an intentional format change (which also bumps the
//! snapshot version):
//!
//! ```text
//! DPD_BLESS=1 cargo test --test snapshot_golden
//! ```

use dpd::core::metric::EventMetric;
use dpd::core::pipeline::DpdBuilder;
use dpd::core::query::QuerySpec;
use dpd::core::shard::StreamId;
use dpd::core::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, TAG_DETECTOR};
use dpd::core::streaming::StreamingDpd;
use dpd::runtime::service::MultiStreamDpd;
use dpd::trace::pile::EpochMarker;
use std::path::{Path, PathBuf};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden/snapshots.hex")
}

fn bless() -> bool {
    std::env::var("DPD_BLESS").is_ok_and(|v| v == "1")
}

/// Window 16 over delays 1..=12: a non-square configuration, so the
/// delay-to-slot mapping of the engine is exercised away from `M = N`.
fn detector_builder() -> DpdBuilder {
    DpdBuilder::new().window(16).m_max(12)
}

fn table_builder() -> DpdBuilder {
    DpdBuilder::new().window(8).forecast(2)
}

/// Forecasting, idle eviction (sweeps every 240 samples) and two
/// standing queries.
fn service_builder(shards: usize) -> DpdBuilder {
    DpdBuilder::new()
        .window(8)
        .forecast(2)
        .evict_after(60)
        .standing_query(QuerySpec::PeriodInRange { lo: 2, hi: 4 })
        .standing_query(QuerySpec::LockLostWithin { window: 40 })
        .shards(shards)
}

/// Fresh checkpoint path for `tag` in this process's temp directory.
fn checkpoint_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpd-golden-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("service.snap")
}

/// Checkpoint `svc` to `path` under `marker` and read the file back.
fn checkpoint_bytes(svc: &mut MultiStreamDpd, path: &Path, marker: EpochMarker) -> Vec<u8> {
    svc.checkpoint(path, marker).unwrap();
    std::fs::read(path).unwrap()
}

/// A fixed schedule: four streams in waves of 10 samples, stream 4 stops
/// after wave 1 and is evicted by the sweep at 240 samples, stream 1 is
/// closed after wave 4; checkpoint after wave 12.
fn service_checkpoint(shards: usize) -> Vec<u8> {
    let mut svc = MultiStreamDpd::from_builder(&service_builder(shards)).unwrap();
    for wave in 0..12usize {
        // (stream, period, last wave with samples)
        let owned: Vec<(StreamId, Vec<i64>)> =
            [(1u64, 3usize, 4), (2, 4, 11), (3, 7, 11), (4, 2, 1)]
                .into_iter()
                .filter(|&(_, _, last)| wave <= last)
                .map(|(id, period, _)| {
                    let samples = (wave * 10..wave * 10 + 10)
                        .map(|i| 0x100 * id as i64 + (i % period) as i64)
                        .collect();
                    (StreamId(id), samples)
                })
                .collect();
        let records: Vec<(StreamId, &[i64])> =
            owned.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        svc.ingest(&records);
        if wave == 4 {
            svc.close(StreamId(1));
        }
    }
    svc.flush();
    let stats = svc.snapshot().total();
    assert_eq!((stats.evicted, stats.closed), (1, 1));
    let marker = EpochMarker {
        wave: 12,
        samples: svc.samples_ingested(),
        ordinal: 1,
    };
    checkpoint_bytes(&mut svc, &checkpoint_path(&format!("gen-{shards}")), marker)
}

/// Resume a golden service checkpoint and checkpoint it again under the
/// epoch marker it carried.
fn recheckpoint(shards: usize, bytes: &[u8]) -> Vec<u8> {
    let path = checkpoint_path(&format!("resume-{shards}"));
    std::fs::write(&path, bytes).unwrap();
    let (mut svc, marker) = MultiStreamDpd::resume(&service_builder(shards), &path).unwrap();
    checkpoint_bytes(&mut svc, &path, marker)
}

/// Address-like period-5 stream with one inserted sample at 37.
fn addresses(len: usize) -> Vec<i64> {
    let mut out: Vec<i64> = (0..len)
        .map(|i| 0x4000 + [3, 1, 4, 1, 5][i % 5] * 16)
        .collect();
    out.insert(37.min(out.len()), 0x9990);
    out.truncate(len);
    out
}

/// The fixture entries, built from scratch by this build.
fn generate() -> Vec<(&'static str, Vec<u8>)> {
    let data = addresses(120);
    let mut dpd = detector_builder().build_detector().unwrap();
    // Warmup is N + M = 28 samples: at 20, delays 1..=4 are complete and
    // 5..=12 are still filling.
    for &s in &data[..20] {
        dpd.push(s);
    }
    let warmup = dpd.snapshot();
    for &s in &data[20..] {
        dpd.push(s);
    }
    let steady = dpd.snapshot();

    let mut table = table_builder().build_table().unwrap();
    let mut out = Vec::new();
    let mut seq = 0u64;
    for wave in 0..6usize {
        for (id, period) in [(1u64, 3usize), (2, 4), (3, 5)] {
            let samples: Vec<i64> = (wave * 10..wave * 10 + 10)
                .map(|i| 0x100 * id as i64 + (i % period) as i64)
                .collect();
            table.ingest(seq, StreamId(id), &samples, &mut out);
            seq += samples.len() as u64;
        }
    }
    vec![
        ("detector_warmup", warmup),
        ("detector_steady", steady),
        ("table_forecast", table.snapshot()),
        ("service_shards0", service_checkpoint(0)),
        ("service_shards2", service_checkpoint(2)),
    ]
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn load() -> Vec<(String, Vec<u8>)> {
    read_fixture(&fixture_path())
}

fn read_fixture(path: &Path) -> Vec<(String, Vec<u8>)> {
    let text = std::fs::read_to_string(path).expect("golden snapshot fixture");
    text.lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex` line");
            (name.to_string(), from_hex(hex))
        })
        .collect()
}

#[test]
fn this_build_writes_the_golden_bytes() {
    let fresh = generate();
    if bless() {
        let text: String = fresh
            .iter()
            .map(|(name, bytes)| format!("{name} {}\n", to_hex(bytes)))
            .collect();
        std::fs::write(fixture_path(), text).unwrap();
        return;
    }
    let golden = load();
    assert_eq!(golden.len(), fresh.len());
    for ((name, bytes), (fresh_name, fresh_bytes)) in golden.iter().zip(&fresh) {
        assert_eq!(name, fresh_name);
        assert!(bytes == fresh_bytes, "{name}: snapshot bytes changed");
    }
}

#[test]
fn golden_snapshots_restore_and_resnapshot_byte_identically() {
    if bless() {
        return;
    }
    for (name, bytes) in load() {
        let again = match name.as_str() {
            "table_forecast" => table_builder().restore_table(&bytes).unwrap().snapshot(),
            "service_shards0" => recheckpoint(0, &bytes),
            "service_shards2" => recheckpoint(2, &bytes),
            _ => detector_builder()
                .restore_detector(&bytes)
                .unwrap()
                .snapshot(),
        };
        assert!(again == bytes, "{name}: re-snapshot differs");
    }
}

/// Byte offset of the varint pair count of delay `m` inside a detector
/// envelope, found by walking the documented body layout: the streaming
/// config, then the engine's pushed counter, history, history push
/// counter and the ascending sums.
fn pair_count_offset(bytes: &[u8], m: usize) -> usize {
    let mut r = SnapshotReader::envelope(bytes, TAG_DETECTOR).unwrap();
    r.u64().unwrap(); // window
    let m_max = r.u64().unwrap() as usize;
    assert!((1..=m_max).contains(&m));
    r.f64().unwrap(); // relative threshold
    r.f64().unwrap(); // absolute threshold
    r.bool().unwrap(); // strict
    for _ in 0..4 {
        r.u64().unwrap(); // min_delay, confirm, lose, resync_interval
    }
    r.u64().unwrap(); // pushed
    let history = r.u64().unwrap();
    for _ in 0..history {
        r.i64().unwrap();
    }
    r.u64().unwrap(); // history push counter
    assert_eq!(r.u64().unwrap() as usize, m_max);
    for _ in 0..m_max {
        r.f64().unwrap();
    }
    for _ in 1..m {
        r.u64().unwrap();
    }
    bytes.len() - r.remaining()
}

#[test]
fn altered_pair_count_is_malformed() {
    if bless() {
        return;
    }
    for (name, bytes) in load() {
        if !name.starts_with("detector_") {
            continue;
        }
        for m in 1..=12 {
            let at = pair_count_offset(&bytes, m);
            for altered in [bytes[at].wrapping_add(1), bytes[at].wrapping_sub(1)] {
                // Window 16: every count is a one-byte varint, and so is
                // its neighbour.
                assert!(bytes[at] < 0x7f && altered < 0x80);
                let mut copy = bytes.clone();
                copy[at] = altered;
                assert!(
                    matches!(
                        StreamingDpd::<i64, EventMetric>::restore(&copy),
                        Err(SnapshotError::Malformed { .. })
                    ),
                    "{name}: pair count of delay {m} altered to {altered} was accepted"
                );
            }
        }
    }
}

/// Byte offset of the `f64` sum of delay `m` inside a detector envelope,
/// walking the same documented layout as [`pair_count_offset`].
fn sum_offset(bytes: &[u8], m: usize) -> usize {
    let mut r = SnapshotReader::envelope(bytes, TAG_DETECTOR).unwrap();
    r.u64().unwrap(); // window
    let m_max = r.u64().unwrap() as usize;
    assert!((1..=m_max).contains(&m));
    r.f64().unwrap(); // relative threshold
    r.f64().unwrap(); // absolute threshold
    r.bool().unwrap(); // strict
    for _ in 0..4 {
        r.u64().unwrap(); // min_delay, confirm, lose, resync_interval
    }
    r.u64().unwrap(); // pushed
    let history = r.u64().unwrap();
    for _ in 0..history {
        r.i64().unwrap();
    }
    r.u64().unwrap(); // history push counter
    assert_eq!(r.u64().unwrap() as usize, m_max);
    for _ in 1..m {
        r.f64().unwrap();
    }
    bytes.len() - r.remaining()
}

/// An event-metric sum counts mismatching pairs, so a sum that is
/// fractional, negative or NaN describes no detector and must not restore.
#[test]
fn altered_sum_is_malformed() {
    if bless() {
        return;
    }
    for (name, bytes) in load() {
        if !name.starts_with("detector_") {
            continue;
        }
        for m in [1, 5, 12] {
            let at = sum_offset(&bytes, m);
            for altered in [0.5, -1.0, f64::NAN] {
                let mut copy = bytes.clone();
                copy[at..at + 8].copy_from_slice(&altered.to_le_bytes());
                assert!(
                    matches!(
                        StreamingDpd::<i64, EventMetric>::restore(&copy),
                        Err(SnapshotError::Malformed { .. })
                    ),
                    "{name}: sum of delay {m} altered to {altered} was accepted"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wide detectors: `tests/fixtures/golden/snapshots_wide.hex`.
//
// The same contract at window 1024, the width Table 3 sizes for hydro2d,
// where the engine keeps its history as 16-bit symbol codes rather than
// raw values. The fixture was blessed before that layout existed, so its
// bytes prove the layout never leaks into the format. Re-bless (only for
// an intentional format change) with
// `DPD_BLESS=1 cargo test --test snapshot_golden wide_`.

fn wide_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden/snapshots_wide.hex")
}

fn wide_builder() -> DpdBuilder {
    DpdBuilder::new().window(1024)
}

/// Position of the single inserted sample that throws the locked detector
/// back into searching.
const WIDE_INSERT_AT: usize = 2600;

/// Period-97 address loop, `i64::MIN` at 100 (gone from retention by the
/// second snapshot) and an inserted `i64::MAX` at [`WIDE_INSERT_AT`].
fn wide_addresses(len: usize) -> Vec<i64> {
    let mut out: Vec<i64> = (0..len)
        .map(|i| 0x40_0000 + (i % 97) as i64 * 0x40)
        .collect();
    out[100] = i64::MIN;
    out.insert(WIDE_INSERT_AT, i64::MAX);
    out.truncate(len);
    out
}

/// Snapshots mid-warmup (1500 of the 2048 warmup samples) and while
/// searching 200 samples after the insertion.
fn generate_wide() -> Vec<(&'static str, Vec<u8>)> {
    let data = wide_addresses(WIDE_INSERT_AT + 200);
    let mut dpd = wide_builder().build_detector().unwrap();
    for &s in &data[..1500] {
        dpd.push(s);
    }
    let warmup = dpd.snapshot();
    for &s in &data[1500..] {
        dpd.push(s);
    }
    assert_eq!(dpd.stats().detected_periods(), vec![97]);
    assert_eq!(
        dpd.locked_period(),
        None,
        "the insertion must break the lock"
    );
    vec![
        ("wide_detector_warmup", warmup),
        ("wide_detector_searching", dpd.snapshot()),
    ]
}

#[test]
fn wide_detectors_write_the_golden_bytes() {
    let fresh = generate_wide();
    if bless() {
        let text: String = fresh
            .iter()
            .map(|(name, bytes)| format!("{name} {}\n", to_hex(bytes)))
            .collect();
        std::fs::write(wide_fixture_path(), text).unwrap();
        return;
    }
    let golden = read_fixture(&wide_fixture_path());
    assert_eq!(golden.len(), fresh.len());
    for ((name, bytes), (fresh_name, fresh_bytes)) in golden.iter().zip(&fresh) {
        assert_eq!(name, fresh_name);
        assert!(bytes == fresh_bytes, "{name}: snapshot bytes changed");
    }
}

#[test]
fn wide_golden_snapshots_restore_and_continue_like_the_original() {
    if bless() {
        return;
    }
    let data = wide_addresses(WIDE_INSERT_AT + 1400);
    for ((name, bytes), pushed) in read_fixture(&wide_fixture_path())
        .into_iter()
        .zip([1500, WIDE_INSERT_AT + 200])
    {
        let mut restored = wide_builder().restore_detector(&bytes).unwrap();
        assert!(restored.snapshot() == bytes, "{name}: re-snapshot differs");
        // Continue both the restored detector and a never-serialized one
        // through the lock, the insertion and the re-lock.
        let mut original = wide_builder().build_detector().unwrap();
        for &s in &data[..pushed] {
            original.push(s);
        }
        for &s in &data[pushed..] {
            assert_eq!(restored.push(s), original.push(s), "{name}");
        }
        assert_eq!(restored.locked_period(), Some(97), "{name}");
        assert!(restored.snapshot() == original.snapshot(), "{name}");
    }
}
