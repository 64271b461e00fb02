//! Offline inspection and verification of a store directory.
//!
//! [`inspect`] is strictly read-only (no lock taken — safe against a
//! live monitor, at the cost of possibly seeing a torn in-flight tail).
//! [`verify`] walks every record and checks every CRC; with `repair` it
//! takes the lock and truncates a damaged tail exactly the way opening
//! the store would.

use crate::lock::DirLock;
use crate::manifest::Manifest;
use crate::segment::{list_segments, scan_segment, truncate_tail, TailState};
use crate::snapshot::{list_snapshots, read_snapshot};
use crate::StoreError;
use serde::json_object;
use std::path::Path;

/// One segment, as seen on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// File name relative to the store directory.
    pub file: String,
    /// Sequence number of the first record.
    pub first_seq: u64,
    /// Complete, CRC-verified records.
    pub records: u64,
    /// Bytes of verified content (header included).
    pub valid_bytes: u64,
    /// File size on disk.
    pub file_bytes: u64,
    /// `clean`, `torn`, or `corrupt`.
    pub tail: String,
    /// Bytes past the last verifiable record.
    pub bad_bytes: u64,
}

/// One snapshot, as seen on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReport {
    /// File name relative to the store directory.
    pub file: String,
    /// Replay resumes at this sequence number.
    pub next_seq: u64,
    /// Whether the snapshot body passes its CRC.
    pub valid: bool,
    /// Payload size in bytes (0 when unreadable).
    pub payload_bytes: u64,
}

/// Everything [`inspect`] or [`verify`] learned about a store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Segments, ordered by `first_seq`.
    pub segments: Vec<SegmentReport>,
    /// Snapshots, ordered by `next_seq`.
    pub snapshots: Vec<SnapshotReport>,
    /// Whether a manifest exists and parses.
    pub manifest_ok: bool,
    /// Total verified records across segments.
    pub records: u64,
    /// The sequence number an opened store would assign next.
    pub next_seq: u64,
    /// Total bytes past the last verifiable record (torn or corrupt).
    pub bad_bytes: u64,
    /// Whether any segment ends in a CRC failure (vs a benign tear).
    pub corrupt: bool,
    /// Bytes truncated by [`verify`] in repair mode (0 otherwise).
    pub repaired_bytes: u64,
}

json_object!(serialize_only SegmentReport {
    file, first_seq, records, valid_bytes, file_bytes, tail, bad_bytes
});

json_object!(serialize_only SnapshotReport { file, next_seq, valid, payload_bytes });

json_object!(serialize_only StoreReport {
    segments, snapshots, manifest_ok, records, next_seq, bad_bytes, corrupt, repaired_bytes
});

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn build_report(dir: &Path) -> Result<StoreReport, StoreError> {
    let mut report = StoreReport {
        manifest_ok: Manifest::load(dir).is_ok_and(|m| m.is_some()),
        ..StoreReport::default()
    };
    for (first_seq, path) in
        list_segments(dir).map_err(|e| StoreError::io(format!("list {}", dir.display()), e))?
    {
        let scan = scan_segment(&path)?;
        let file_bytes = std::fs::metadata(&path)
            .map_err(|e| StoreError::io(format!("stat {}", path.display()), e))?
            .len();
        let (tail, bad) = match scan.tail {
            TailState::Clean => ("clean", 0),
            TailState::Torn(b) => ("torn", b),
            TailState::Corrupt(b) => ("corrupt", b),
        };
        report.corrupt |= matches!(scan.tail, TailState::Corrupt(_));
        report.bad_bytes += bad;
        report.records += scan.records;
        report.next_seq = scan.first_seq + scan.records;
        report.segments.push(SegmentReport {
            file: file_name(&path),
            first_seq,
            records: scan.records,
            valid_bytes: scan.valid_bytes,
            file_bytes,
            tail: tail.into(),
            bad_bytes: bad,
        });
    }
    for (next_seq, path) in list_snapshots(dir)
        .map_err(|e| StoreError::io(format!("list snapshots in {}", dir.display()), e))?
    {
        let (valid, payload_bytes) = match read_snapshot(&path) {
            Ok((_, payload)) => (true, payload.len() as u64),
            Err(_) => (false, 0),
        };
        report.snapshots.push(SnapshotReport {
            file: file_name(&path),
            next_seq,
            valid,
            payload_bytes,
        });
    }
    if report.segments.is_empty() {
        report.next_seq = report
            .snapshots
            .iter()
            .filter(|s| s.valid)
            .map(|s| s.next_seq)
            .max()
            .unwrap_or(0);
    }
    Ok(report)
}

/// Reads a store directory without locking or modifying it.
pub fn inspect(dir: &Path) -> Result<StoreReport, StoreError> {
    if !dir.is_dir() {
        return Err(StoreError::io(
            format!("inspect {}", dir.display()),
            std::io::Error::new(std::io::ErrorKind::NotFound, "no such store directory"),
        ));
    }
    build_report(dir)
}

/// Checks every record's CRC; with `repair`, locks the store and
/// truncates a torn or corrupt tail (the same cut opening would make).
pub fn verify(dir: &Path, repair: bool) -> Result<StoreReport, StoreError> {
    let mut report = inspect(dir)?;
    if !repair {
        return Ok(report);
    }
    let _lock = DirLock::acquire(dir)?;
    for seg in &mut report.segments {
        if seg.bad_bytes == 0 {
            continue;
        }
        let path = dir.join(&seg.file);
        let scan = scan_segment(&path)?;
        report.repaired_bytes += truncate_tail(&path, &scan)?;
        seg.file_bytes = seg.valid_bytes;
        seg.tail = "clean".into();
        seg.bad_bytes = 0;
    }
    report.bad_bytes = 0;
    report.corrupt = false;
    Ok(report)
}

/// Human-oriented plain-text rendering of a [`StoreReport`].
pub fn render_report(report: &StoreReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "records {}  next_seq {}  segments {}  snapshots {}  manifest {}",
        report.records,
        report.next_seq,
        report.segments.len(),
        report.snapshots.len(),
        if report.manifest_ok { "ok" } else { "missing" },
    );
    for seg in &report.segments {
        let _ = writeln!(
            out,
            "  segment {}  first_seq {}  records {}  bytes {}/{}  tail {}",
            seg.file, seg.first_seq, seg.records, seg.valid_bytes, seg.file_bytes, seg.tail,
        );
    }
    for snap in &report.snapshots {
        let _ = writeln!(
            out,
            "  snapshot {}  next_seq {}  payload {}B  {}",
            snap.file,
            snap.next_seq,
            snap.payload_bytes,
            if snap.valid { "valid" } else { "CORRUPT" },
        );
    }
    if report.bad_bytes > 0 {
        let _ = writeln!(
            out,
            "  tail damage: {} bytes ({})",
            report.bad_bytes,
            if report.corrupt { "corrupt" } else { "torn" },
        );
    }
    if report.repaired_bytes > 0 {
        let _ = writeln!(out, "  repaired: truncated {} bytes", report.repaired_bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Store, StoreOptions, SyncPolicy};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hb-store-inspect-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_store(dir: &Path, records: u8) {
        let mut s = Store::open(
            dir,
            StoreOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Os,
            },
        )
        .unwrap();
        for i in 0..records {
            s.append(&[i; 10]).unwrap();
        }
    }

    #[test]
    fn inspect_clean_store() {
        let dir = tmpdir("clean");
        small_store(&dir, 5);
        let report = inspect(&dir).unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(report.next_seq, 5);
        assert_eq!(report.bad_bytes, 0);
        assert!(!report.corrupt);
        assert!(report.manifest_ok);
        let text = render_report(&report);
        assert!(text.contains("records 5"), "{text}");
    }

    #[test]
    fn verify_repairs_a_torn_tail() {
        let dir = tmpdir("repair");
        small_store(&dir, 3);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 4)
            .unwrap();

        let before = verify(&dir, false).unwrap();
        assert_eq!(before.records, 2);
        assert!(before.bad_bytes > 0);
        assert_eq!(before.repaired_bytes, 0, "dry run must not repair");

        let after = verify(&dir, true).unwrap();
        assert!(after.repaired_bytes > 0);
        assert_eq!(after.bad_bytes, 0);

        let again = verify(&dir, false).unwrap();
        assert_eq!(again.records, 2);
        assert_eq!(again.bad_bytes, 0, "repair is idempotent");
    }

    #[test]
    fn inspect_missing_dir_is_an_io_error() {
        let dir = tmpdir("missing"); // never created
        assert!(matches!(inspect(&dir), Err(StoreError::Io { .. })));
    }
}
