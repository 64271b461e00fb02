//! The store manifest.
//!
//! `MANIFEST.json` names the live segment files (with their first
//! sequence numbers) and the snapshot, if any, that makes earlier
//! segments reclaimable. It is advisory — every fact in it is also
//! recoverable from the segment and snapshot files themselves, which
//! are self-describing — but it makes opening a large store cheap and
//! records the *intended* membership, so a crash between "create new
//! segment" and "update manifest" is detected and reconciled instead of
//! silently trusted.
//!
//! Updates are atomic: write `MANIFEST.json.tmp`, fsync, rename over
//! the old file, fsync the directory.

use crate::StoreError;
use serde::{help, json_object, DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// The manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// One live segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSegment {
    /// File name relative to the store directory.
    pub file: String,
    /// Sequence number of the segment's first record.
    pub first_seq: u64,
}

/// The snapshot covering every record below `next_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRef {
    /// File name relative to the store directory.
    pub file: String,
    /// Replay resumes at this sequence number.
    pub next_seq: u64,
}

/// The persisted store layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Live segments, ordered by `first_seq`.
    pub segments: Vec<ManifestSegment>,
    /// The latest durable snapshot, if one exists.
    pub snapshot: Option<SnapshotRef>,
}

json_object!(ManifestSegment { file, first_seq });

json_object!(SnapshotRef { file, next_seq });

// Hand-written: the constant `version` has no field to declare.
impl Serialize for Manifest {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".into(), 1u32.to_value()),
            ("segments".into(), self.segments.to_value()),
        ];
        if let Some(s) = &self.snapshot {
            fields.push(("snapshot".into(), s.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Manifest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let version: u32 = help::field(v, "version")?;
        if version != 1 {
            return Err(DeError::msg(format!(
                "unsupported manifest version {version}"
            )));
        }
        Ok(Manifest {
            segments: help::field_or_default(v, "segments")?,
            snapshot: help::field_opt(v, "snapshot")?,
        })
    }
}

impl Manifest {
    /// Loads the manifest, or `None` when the store has never saved one.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(format!("read {}", path.display()), e)),
        };
        let value = serde_json::parse_value(&text)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
        Manifest::from_value(&value)
            .map(Some)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
    }

    /// Atomically replaces the on-disk manifest.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let path = dir.join(MANIFEST_FILE);
        let text = serde_json::to_string(&self.to_value())
            .map_err(|e| StoreError::Corrupt(format!("serialize manifest: {e}")))?;
        let write = || -> std::io::Result<()> {
            std::fs::write(&tmp, text.as_bytes())?;
            std::fs::File::open(&tmp)?.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            // Make the rename itself durable.
            std::fs::File::open(dir)?.sync_all()?;
            Ok(())
        };
        write().map_err(|e| StoreError::io(format!("save {}", path.display()), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("hb-store-manifest-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let m = Manifest {
            segments: vec![
                ManifestSegment {
                    file: "wal-0000000000000000.seg".into(),
                    first_seq: 0,
                },
                ManifestSegment {
                    file: "wal-0000000000000080.seg".into(),
                    first_seq: 128,
                },
            ],
            snapshot: Some(SnapshotRef {
                file: "snap-0000000000000080.snap".into(),
                next_seq: 128,
            }),
        };
        m.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m.clone()));
        // Overwrite is atomic and replaces fully.
        let empty = Manifest::default();
        empty.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(empty));
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
    }

    #[test]
    fn garbage_manifest_is_a_corruption_error() {
        let dir = tmpdir("garbage");
        std::fs::write(dir.join(MANIFEST_FILE), b"not json").unwrap();
        assert!(matches!(Manifest::load(&dir), Err(StoreError::Corrupt(_))));
    }
}
