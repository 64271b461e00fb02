//! End-to-end store lifecycle: many appends across rotations, snapshots
//! and compaction, simulated crashes with torn tails, and verification.

use hb_store::{inspect, verify, Store, StoreOptions, SyncPolicy};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hb-store-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(segment_bytes: u64) -> StoreOptions {
    StoreOptions {
        segment_bytes,
        sync: SyncPolicy::Os,
    }
}

fn payload(seq: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seq as usize + i) as u8).collect()
}

#[test]
fn lifecycle_with_random_sizes_snapshots_and_reopens() {
    let dir = tmpdir("lifecycle");
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut snap_at = 0u64;

    for round in 0..4 {
        let mut store = Store::open(&dir, opts(512)).unwrap();
        assert_eq!(store.next_seq(), expected.len() as u64, "round {round}");
        assert_eq!(store.recovery_report().truncated_bytes, 0);
        for _ in 0..50 {
            let len = rng.gen_range(0..120usize);
            let body = payload(store.next_seq(), len);
            let seq = store.append(&body).unwrap();
            expected.push((seq, body));
        }
        if round == 1 {
            // Snapshot + compact mid-history: replay must still cover
            // everything from the snapshot point on.
            store.write_snapshot(b"opaque monitor state").unwrap();
            snap_at = store.next_seq();
            store.compact().unwrap();
        }
        let from = snap_at;
        let got: Vec<_> = store.replay(from).map(Result::unwrap).collect();
        assert_eq!(got, expected[from as usize..], "round {round}");
    }

    let report = inspect(&dir).unwrap();
    assert_eq!(report.next_seq, expected.len() as u64);
    assert_eq!(report.bad_bytes, 0);
    assert!(!report.corrupt);
    assert_eq!(report.snapshots.len(), 1);
    assert!(report.snapshots[0].valid);
}

#[test]
fn torn_tail_then_verify_repair_then_reopen() {
    let dir = tmpdir("torn-verify");
    {
        let mut store = Store::open(&dir, opts(1 << 20)).unwrap();
        for i in 0..10u64 {
            store.append(&payload(i, 40)).unwrap();
        }
    }
    // Tear the final record mid-payload, as a crash during write would.
    let (_, seg) = hb_store::segment::list_segments(&dir)
        .unwrap()
        .pop()
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 17)
        .unwrap();

    let dry = verify(&dir, false).unwrap();
    assert_eq!(dry.records, 9);
    assert!(dry.bad_bytes > 0 && !dry.corrupt);

    let fixed = verify(&dir, true).unwrap();
    assert!(fixed.repaired_bytes > 0);

    // Clean reopen: nothing left to truncate, seq 9 is reassigned.
    let mut store = Store::open(&dir, opts(1 << 20)).unwrap();
    assert_eq!(store.recovery_report().truncated_bytes, 0);
    assert_eq!(store.append(b"replacement").unwrap(), 9);
}

#[test]
fn bit_rot_mid_log_drops_everything_after_it() {
    let dir = tmpdir("bit-rot");
    {
        let mut store = Store::open(&dir, opts(256)).unwrap();
        for i in 0..30u64 {
            store.append(&payload(i, 32)).unwrap();
        }
        assert!(store.stats().segments >= 3);
    }
    // Corrupt one byte early in the SECOND segment.
    let segs = hb_store::segment::list_segments(&dir).unwrap();
    let (second_first_seq, second) = segs[1].clone();
    let mut bytes = std::fs::read(&second).unwrap();
    bytes[hb_store::segment::SEGMENT_HEADER_BYTES as usize + 8 + 1] ^= 0x10;
    std::fs::write(&second, &bytes).unwrap();

    let store = Store::open(&dir, opts(256)).unwrap();
    let report = store.recovery_report();
    assert!(report.corrupt);
    assert!(report.dropped_segments > 0);
    // Every record before the rot survives; nothing after it does.
    assert_eq!(store.next_seq(), second_first_seq);
    let got: Vec<_> = store.replay(0).map(Result::unwrap).collect();
    assert_eq!(got.len() as u64, second_first_seq);
    for (i, (seq, body)) in got.iter().enumerate() {
        assert_eq!(*seq, i as u64);
        assert_eq!(*body, payload(*seq, 32));
    }
}

#[test]
fn verify_reports_zero_corruption_on_cleanly_flushed_log() {
    let dir = tmpdir("clean-verify");
    {
        let mut store = Store::open(
            &dir,
            StoreOptions {
                segment_bytes: 1024,
                sync: SyncPolicy::Always,
            },
        )
        .unwrap();
        for i in 0..25u64 {
            store.append(&payload(i, 64)).unwrap();
        }
    }
    let report = verify(&dir, false).unwrap();
    assert_eq!(report.records, 25);
    assert_eq!(report.bad_bytes, 0);
    assert!(!report.corrupt);
    assert!(report.segments.iter().all(|s| s.tail == "clean"));
}

/// `MANIFEST.json` and the `store inspect --json` report are pinned
/// byte for byte, and the manifest's records read back what they wrote
/// and refuse malformed input by name.
#[test]
fn manifest_and_report_json_are_pinned() {
    use hb_store::manifest::{Manifest, ManifestSegment, SnapshotRef, MANIFEST_FILE};
    use serde::{Deserialize, Serialize};

    let dir = tmpdir("pinned-json");
    {
        let mut store = Store::open(&dir, opts(256)).unwrap();
        for i in 0..10u64 {
            store.append(&payload(i, 40)).unwrap();
        }
        store.write_snapshot(b"state").unwrap();
        store.compact().unwrap();
        store.append(&payload(10, 40)).unwrap();
    }
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    assert_eq!(
        manifest,
        r#"{"version":1,"segments":[{"file":"wal-0000000000000005.seg","first_seq":5},{"file":"wal-000000000000000a.seg","first_seq":10}],"snapshot":{"file":"snap-000000000000000a.snap","next_seq":10}}"#
    );
    let report = serde_json::to_string(&inspect(&dir).unwrap().to_value()).unwrap();
    assert_eq!(
        report,
        r#"{"segments":[{"file":"wal-0000000000000005.seg","first_seq":5,"records":5,"valid_bytes":256,"file_bytes":256,"tail":"clean","bad_bytes":0},{"file":"wal-000000000000000a.seg","first_seq":10,"records":1,"valid_bytes":64,"file_bytes":64,"tail":"clean","bad_bytes":0}],"snapshots":[{"file":"snap-000000000000000a.snap","next_seq":10,"valid":true,"payload_bytes":5}],"manifest_ok":true,"records":6,"next_seq":11,"bad_bytes":0,"corrupt":false,"repaired_bytes":0}"#
    );

    let full = Manifest {
        segments: vec![
            ManifestSegment {
                file: "a.seg".into(),
                first_seq: 0,
            },
            ManifestSegment {
                file: "b.seg".into(),
                first_seq: 9,
            },
        ],
        snapshot: Some(SnapshotRef {
            file: "c.snap".into(),
            next_seq: 9,
        }),
    };
    for m in [full, Manifest::default()] {
        let text = serde_json::to_string(&m.to_value()).unwrap();
        let back = Manifest::from_value(&serde_json::parse_value(&text).unwrap()).unwrap();
        assert_eq!(back, m, "{text}");
    }
    for (text, canonical) in [
        (r#"{"version":1}"#, r#"{"version":1,"segments":[]}"#),
        (
            r#"{"version":1,"segments":null,"snapshot":null}"#,
            r#"{"version":1,"segments":[]}"#,
        ),
    ] {
        let m = Manifest::from_value(&serde_json::parse_value(text).unwrap()).unwrap();
        assert_eq!(serde_json::to_string(&m.to_value()).unwrap(), canonical);
    }
    for (text, message) in [
        (r#"[]"#, "expected object, found array"),
        (r#"{"segments":[]}"#, "missing field 'version'"),
        (
            r#"{"version":2,"segments":[]}"#,
            "unsupported manifest version 2",
        ),
        (
            r#"{"version":1,"segments":[{"file":"a.seg"}]}"#,
            "field 'segments': missing field 'first_seq'",
        ),
        (
            r#"{"version":1,"segments":[7]}"#,
            "field 'segments': expected object, found integer",
        ),
        (
            r#"{"version":1,"snapshot":{"file":"c.snap","next_seq":"9"}}"#,
            "field 'snapshot': field 'next_seq': expected integer, found string",
        ),
        (
            r#"{"version":1,"snapshot":"c.snap"}"#,
            "field 'snapshot': expected object, found string",
        ),
    ] {
        let err = Manifest::from_value(&serde_json::parse_value(text).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), message, "{text}");
    }
}
