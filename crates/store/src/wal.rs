//! The write-ahead log: segmented, append-only, crash-recoverable.
//!
//! [`Store`] owns a locked data directory containing numbered segment
//! files, optional snapshot files, and a manifest. Opening a store *is*
//! recovery: every segment is scanned front to back, the first torn or
//! corrupt record truncates the log there (later segments, which can
//! only hold records past the truncation point, are dropped), and the
//! append position resumes exactly after the last verifiable record.
//!
//! Durability is a dial, not a constant: [`SyncPolicy`] picks between
//! fsync-per-append (`always` — no acknowledged record is ever lost,
//! even to power failure), periodic fsync (`interval` — bounded loss
//! window, near-`os` throughput), and none (`os` — records are written
//! to the kernel immediately, so they survive a process crash, but a
//! power failure may lose the tail).
//!
//! Under `interval:N` the fsyncs are a background thread's: an append
//! writes its record to the kernel, marks the log dirty and returns,
//! and the store's syncer thread fsyncs the active segment at most once
//! per `N` ms while the log is dirty — also after the last append
//! before a quiet spell, so the loss window is `N` ms however the
//! traffic stops. The appending thread never waits for the device.
//!
//! A failed fsync poisons the store. Linux may drop the dirty pages of
//! a failed fsync, so a later fsync that "succeeds" proves nothing
//! about them; every append, sync and snapshot after the failure is
//! refused with the `fsync wal` error instead, before anything is
//! written.

use crate::lock::DirLock;
use crate::manifest::{Manifest, ManifestSegment, SnapshotRef};
use crate::record::{write_record, RECORD_HEADER_BYTES};
use crate::segment::{
    create_segment, list_segments, open_for_append, scan_segment, segment_file_name, truncate_tail,
    SegmentReader, TailState,
};
use crate::snapshot::{list_snapshots, read_snapshot, write_snapshot_file};
use crate::StoreError;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: an acknowledged record survives even
    /// power failure. Slowest — every append pays a device flush.
    Always,
    /// fsync when this much time has passed since the last one: bounded
    /// loss window (the interval), near-`Os` throughput.
    Interval(Duration),
    /// Never fsync explicitly; records still reach the kernel on every
    /// append, so they survive a *process* crash (SIGKILL), but an OS
    /// crash or power failure may lose the unsynced tail.
    Os,
}

impl SyncPolicy {
    /// Parses `always`, `os`, or `interval:<ms>`.
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "os" => Ok(SyncPolicy::Os),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| SyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad sync interval '{ms}' (want milliseconds)")),
                None => Err(format!(
                    "unknown sync policy '{other}' (want always, os, or interval:<ms>)"
                )),
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            SyncPolicy::Os => write!(f, "os"),
        }
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rotate to a new segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// The fsync policy.
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 8 << 20,
            sync: SyncPolicy::Interval(Duration::from_millis(5)),
        }
    }
}

/// What opening the store found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Verified records present in the log at open.
    pub records: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Bytes truncated off a torn or corrupt tail.
    pub truncated_bytes: u64,
    /// Whole segments dropped because they lay past a corrupt record.
    pub dropped_segments: u64,
    /// Whether the tail damage was a CRC failure (vs a benign torn write).
    pub corrupt: bool,
    /// Wall-clock time the open-time scan took.
    pub scan_micros: u64,
}

/// Point-in-time store counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Sequence number the next append will get.
    pub next_seq: u64,
    /// Live segment files.
    pub segments: u64,
    /// Bytes across live segments (headers included).
    pub live_bytes: u64,
    /// Records appended by *this* handle (not the recovered prefix).
    pub appended_records: u64,
    /// Payload + framing bytes appended by this handle.
    pub appended_bytes: u64,
    /// Explicit fsyncs performed.
    pub fsyncs: u64,
    /// Slowest fsync observed, in microseconds.
    pub fsync_max_micros: u64,
    /// Replay position of the latest snapshot, if any.
    pub snapshot_next_seq: Option<u64>,
    /// Unix time the latest snapshot was written, if any.
    pub snapshot_unix_secs: Option<u64>,
}

/// One live segment's bookkeeping.
#[derive(Debug, Clone)]
struct SegmentState {
    first_seq: u64,
    records: u64,
    bytes: u64,
}

impl SegmentState {
    fn end_seq(&self) -> u64 {
        self.first_seq + self.records
    }
}

/// Who fsyncs what, shared by a [`Store`] and its syncer thread.
#[derive(Debug)]
struct Syncer {
    state: Mutex<SyncState>,
    /// Signalled when the log turns dirty, and at shutdown.
    wake: Condvar,
    /// Fails the next fsync, as a device error would.
    #[cfg(test)]
    fail_next: std::sync::atomic::AtomicBool,
    /// Held by a test, stops the syncer between taking the dirty flag
    /// and starting its fsync.
    #[cfg(test)]
    pause: Mutex<()>,
}

#[derive(Debug)]
struct SyncState {
    /// A `dup` of the active segment's descriptor, for the syncer.
    file: Arc<File>,
    /// Records reached the kernel after the last fsync began.
    dirty: bool,
    /// The syncer's fsync is running.
    in_flight: bool,
    /// When the last fsync finished.
    last_sync: Instant,
    /// The failure of the fsync that poisoned the store.
    poisoned: Option<(io::ErrorKind, String)>,
    /// The store is closing: the syncer exits.
    stop: bool,
    fsyncs: u64,
    fsync_max_micros: u64,
}

impl Syncer {
    fn new(active: &File) -> Result<Syncer, StoreError> {
        Ok(Syncer {
            state: Mutex::new(SyncState {
                file: Arc::new(dup(active)?),
                dirty: false,
                in_flight: false,
                last_sync: Instant::now(),
                poisoned: None,
                stop: false,
                fsyncs: 0,
                fsync_max_micros: 0,
            }),
            wake: Condvar::new(),
            #[cfg(test)]
            fail_next: std::sync::atomic::AtomicBool::new(false),
            #[cfg(test)]
            pause: Mutex::new(()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SyncState> {
        // The state stays consistent across a panic: every update is a
        // single assignment.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Forces `file` onto the disk; a failure poisons the store.
    fn fsync(&self, file: &File) -> Result<(), StoreError> {
        let started = Instant::now();
        let result = self.sync_data(file);
        let micros = started.elapsed().as_micros() as u64;
        let mut s = self.lock();
        s.last_sync = Instant::now();
        match result {
            Ok(()) => {
                s.fsyncs += 1;
                s.fsync_max_micros = s.fsync_max_micros.max(micros);
                Ok(())
            }
            Err(e) => {
                s.poisoned = Some((e.kind(), e.to_string()));
                Err(StoreError::io("fsync wal".into(), e))
            }
        }
    }

    #[cfg(not(test))]
    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    #[cfg(test)]
    fn sync_data(&self, file: &File) -> io::Result<()> {
        use std::sync::atomic::Ordering::SeqCst;
        if self.fail_next.swap(false, SeqCst) {
            return Err(io::Error::other("injected fsync failure"));
        }
        file.sync_data()
    }

    /// The background half of `interval:N`: fsync while the log is
    /// dirty, at most once per `period`, until the store closes.
    fn run(&self, period: Duration) {
        let mut s = self.lock();
        loop {
            if s.stop {
                return;
            }
            if !s.dirty || s.poisoned.is_some() {
                s = self.wake.wait(s).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let due = s.last_sync + period;
            let now = Instant::now();
            if now < due {
                s = self
                    .wake
                    .wait_timeout(s, due - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                continue;
            }
            // Whatever is appended from here on waits for the next round.
            s.dirty = false;
            s.in_flight = true;
            let file = Arc::clone(&s.file);
            drop(s);
            #[cfg(test)]
            drop(self.pause.lock());
            // A failure poisons the store; the next append reports it.
            let _ = self.fsync(&file);
            s = self.lock();
            s.in_flight = false;
        }
    }
}

impl SyncState {
    /// Refuses to go on after a failed fsync.
    fn check_poison(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            None => Ok(()),
            Some((kind, message)) => Err(StoreError::io(
                "fsync wal".into(),
                io::Error::new(
                    *kind,
                    format!("an earlier fsync failed ({message}); the log takes no more records"),
                ),
            )),
        }
    }
}

fn dup(file: &File) -> Result<File, StoreError> {
    file.try_clone()
        .map_err(|e| StoreError::io("dup active segment".into(), e))
}

/// A locked, recovered, appendable write-ahead log.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    _lock: DirLock,
    opts: StoreOptions,
    segments: Vec<SegmentState>,
    active: File,
    scratch: Vec<u8>,
    next_seq: u64,
    snapshot: Option<SnapshotRef>,
    snapshot_unix_secs: Option<u64>,
    syncer: Arc<Syncer>,
    /// The `interval:N` syncer thread.
    syncer_thread: Option<JoinHandle<()>>,
    appended_records: u64,
    appended_bytes: u64,
    recovery: RecoveryReport,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`: locks it, scans
    /// and repairs the log, and positions the append cursor.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::io(format!("create data dir {}", dir.display()), e))?;
        let lock = DirLock::acquire(dir)?;
        let started = Instant::now();
        let mut report = RecoveryReport::default();

        // The files on disk are the ground truth; the manifest can lag
        // one rotation behind after a crash.
        let disk =
            list_segments(dir).map_err(|e| StoreError::io(format!("list {}", dir.display()), e))?;
        let mut segments: Vec<SegmentState> = Vec::new();
        let mut paths: Vec<PathBuf> = Vec::new();
        let mut broken_at: Option<usize> = None;
        for (i, (first_seq, path)) in disk.iter().enumerate() {
            // Chain continuity: a gap means records are missing for good.
            if let Some(prev) = segments.last() {
                if prev.end_seq() != *first_seq {
                    report.corrupt = true;
                    broken_at = Some(i);
                    break;
                }
            }
            let scan = scan_segment(path)?;
            debug_assert_eq!(scan.first_seq, *first_seq);
            report.segments += 1;
            report.records += scan.records;
            match scan.tail {
                TailState::Clean => {}
                tail => {
                    report.truncated_bytes += truncate_tail(path, &scan)?;
                    report.corrupt |= matches!(tail, TailState::Corrupt(_));
                    segments.push(SegmentState {
                        first_seq: scan.first_seq,
                        records: scan.records,
                        bytes: scan.valid_bytes,
                    });
                    paths.push(path.clone());
                    broken_at = Some(i + 1);
                    break;
                }
            }
            segments.push(SegmentState {
                first_seq: scan.first_seq,
                records: scan.records,
                bytes: scan.valid_bytes,
            });
            paths.push(path.clone());
        }
        // Everything past the damage point is unreachable: drop it.
        if let Some(from) = broken_at {
            for (_, path) in &disk[from..] {
                if let Ok(meta) = std::fs::metadata(path) {
                    report.truncated_bytes += meta.len();
                }
                std::fs::remove_file(path)
                    .map_err(|e| StoreError::io(format!("drop {}", path.display()), e))?;
                report.dropped_segments += 1;
            }
        }

        // Resolve the newest *valid* snapshot (corrupt ones are ignored;
        // replay then simply starts earlier).
        let mut snapshot = None;
        let snaps = list_snapshots(dir)
            .map_err(|e| StoreError::io(format!("list snapshots in {}", dir.display()), e))?;
        for (seq, path) in snaps.iter().rev() {
            if read_snapshot(path).is_ok() {
                snapshot = Some(SnapshotRef {
                    file: path
                        .file_name()
                        .expect("snapshot has a name")
                        .to_string_lossy()
                        .into_owned(),
                    next_seq: *seq,
                });
                break;
            }
        }

        // An empty log starts at the snapshot's replay position (or 0).
        if segments.is_empty() {
            let first = snapshot.as_ref().map_or(0, |s| s.next_seq);
            let (path, f) = create_segment(dir, first)?;
            f.sync_all()
                .map_err(|e| StoreError::io(format!("sync {}", path.display()), e))?;
            segments.push(SegmentState {
                first_seq: first,
                records: 0,
                bytes: crate::segment::SEGMENT_HEADER_BYTES,
            });
            paths.push(path);
        }

        let last = segments.last().expect("at least one segment");
        let next_seq = last.end_seq();
        let active = open_for_append(paths.last().expect("path per segment"), last.bytes)?;
        report.scan_micros = started.elapsed().as_micros() as u64;

        let syncer = Arc::new(Syncer::new(&active)?);
        let syncer_thread = match opts.sync {
            SyncPolicy::Interval(period) => {
                let syncer = Arc::clone(&syncer);
                Some(
                    std::thread::Builder::new()
                        .name("hb-store-syncer".into())
                        .spawn(move || syncer.run(period))
                        .map_err(|e| StoreError::io("spawn the wal syncer".into(), e))?,
                )
            }
            SyncPolicy::Always | SyncPolicy::Os => None,
        };
        let mut store = Store {
            dir: dir.to_path_buf(),
            _lock: lock,
            opts,
            segments,
            active,
            scratch: Vec::with_capacity(4096),
            next_seq,
            snapshot,
            snapshot_unix_secs: None,
            syncer,
            syncer_thread,
            appended_records: 0,
            appended_bytes: 0,
            recovery: report,
        };
        store.snapshot_unix_secs = store.snapshot_mtime();
        store.save_manifest()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// What opening found and repaired.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn save_manifest(&self) -> Result<(), StoreError> {
        Manifest {
            segments: self
                .segments
                .iter()
                .map(|s| ManifestSegment {
                    file: segment_file_name(s.first_seq),
                    first_seq: s.first_seq,
                })
                .collect(),
            snapshot: self.snapshot.clone(),
        }
        .save(&self.dir)
    }

    /// Appends one record; returns its sequence number. The record has
    /// reached the kernel when this returns; whether it has reached the
    /// *disk* is the [`SyncPolicy`]'s business. A poisoned store (see
    /// the module doc) refuses before writing anything.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        self.syncer.lock().check_poison()?;
        if self.segments.last().expect("active segment").bytes >= self.opts.segment_bytes {
            self.rotate()?;
        }
        self.scratch.clear();
        write_record(&mut self.scratch, payload)
            .map_err(|e| StoreError::io("frame record".into(), e))?;
        self.active
            .write_all(&self.scratch)
            .map_err(|e| StoreError::io("append record".into(), e))?;
        let written = RECORD_HEADER_BYTES + payload.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        let active = self.segments.last_mut().expect("active segment");
        active.records += 1;
        active.bytes += written;
        self.appended_records += 1;
        self.appended_bytes += written;
        {
            let mut s = self.syncer.lock();
            if !s.dirty {
                s.dirty = true;
                self.syncer.wake.notify_one();
            }
        }
        if self.opts.sync == SyncPolicy::Always {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Forces everything appended so far onto the disk, on this thread.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let needed = {
            let mut s = self.syncer.lock();
            s.check_poison()?;
            // A background fsync already running may have started
            // before the last append's write: it proves nothing here.
            std::mem::take(&mut s.dirty) || s.in_flight
        };
        if needed {
            self.syncer.fsync(&self.active)?;
        }
        Ok(())
    }

    /// Seals the active segment and starts a new one at `next_seq`.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let (path, f) = create_segment(&self.dir, self.next_seq)?;
        f.sync_all()
            .map_err(|e| StoreError::io(format!("sync {}", path.display()), e))?;
        // `create_segment` leaves the handle positioned after the header.
        self.syncer.lock().file = Arc::new(dup(&f)?);
        self.active = f;
        self.segments.push(SegmentState {
            first_seq: self.next_seq,
            records: 0,
            bytes: crate::segment::SEGMENT_HEADER_BYTES,
        });
        self.save_manifest()
    }

    /// Writes a snapshot covering every record below the current
    /// `next_seq`, making earlier segments reclaimable by
    /// [`Store::compact`]. Older snapshot files are removed.
    pub fn write_snapshot(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        // The snapshot may only claim coverage of records that are
        // themselves durable.
        self.sync()?;
        let name = write_snapshot_file(&self.dir, self.next_seq, payload)?;
        let old: Vec<_> = list_snapshots(&self.dir)
            .map_err(|e| StoreError::io("list snapshots".into(), e))?
            .into_iter()
            .filter(|(_, p)| p.file_name().is_some_and(|n| n.to_string_lossy() != name))
            .collect();
        self.snapshot = Some(SnapshotRef {
            file: name,
            next_seq: self.next_seq,
        });
        self.snapshot_unix_secs = self.snapshot_mtime();
        self.save_manifest()?;
        // Only after the manifest points at the new snapshot is it safe
        // to drop the old ones.
        for (_, path) in old {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Loads the newest valid snapshot: `(replay_from_seq, payload)`.
    pub fn load_snapshot(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        match &self.snapshot {
            Some(s) => read_snapshot(&self.dir.join(&s.file)).map(Some),
            None => Ok(None),
        }
    }

    /// Drops every segment fully covered by the snapshot; returns how
    /// many files were removed. The active segment is never dropped.
    pub fn compact(&mut self) -> Result<u64, StoreError> {
        let Some(cover) = self.snapshot.as_ref().map(|s| s.next_seq) else {
            return Ok(0);
        };
        let mut removed = 0;
        while self.segments.len() > 1 && self.segments[0].end_seq() <= cover {
            let dead = self.segments.remove(0);
            let path = self.dir.join(segment_file_name(dead.first_seq));
            std::fs::remove_file(&path)
                .map_err(|e| StoreError::io(format!("remove {}", path.display()), e))?;
            removed += 1;
        }
        if removed > 0 {
            self.save_manifest()?;
        }
        Ok(removed)
    }

    /// Iterates records with sequence numbers `>= from_seq`, in order.
    pub fn replay(&self, from_seq: u64) -> Replay {
        let paths = self
            .segments
            .iter()
            .filter(|s| s.end_seq() > from_seq)
            .map(|s| self.dir.join(segment_file_name(s.first_seq)))
            .collect();
        Replay {
            paths,
            current: None,
            from_seq,
        }
    }

    /// When the latest snapshot file was written, if there is one.
    fn snapshot_mtime(&self) -> Option<u64> {
        self.snapshot.as_ref().and_then(|s| {
            std::fs::metadata(self.dir.join(&s.file))
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                .map(|d| d.as_secs())
        })
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalStats {
        let (fsyncs, fsync_max_micros) = {
            let s = self.syncer.lock();
            (s.fsyncs, s.fsync_max_micros)
        };
        WalStats {
            next_seq: self.next_seq,
            segments: self.segments.len() as u64,
            live_bytes: self.segments.iter().map(|s| s.bytes).sum(),
            appended_records: self.appended_records,
            appended_bytes: self.appended_bytes,
            fsyncs,
            fsync_max_micros,
            snapshot_next_seq: self.snapshot.as_ref().map(|s| s.next_seq),
            snapshot_unix_secs: self.snapshot_unix_secs,
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(thread) = self.syncer_thread.take() {
            self.syncer.lock().stop = true;
            self.syncer.wake.notify_one();
            let _ = thread.join();
        }
        // Best effort: don't leave acknowledged records in the page
        // cache on a graceful exit.
        let _ = self.sync();
    }
}

/// An ordered iterator over WAL records from a start sequence.
pub struct Replay {
    paths: std::collections::VecDeque<PathBuf>,
    current: Option<SegmentReader>,
    from_seq: u64,
}

impl Iterator for Replay {
    type Item = Result<(u64, Vec<u8>), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.current.is_none() {
                let path = self.paths.pop_front()?;
                match SegmentReader::open(&path) {
                    Ok(r) => self.current = Some(r),
                    Err(e) => return Some(Err(e)),
                }
            }
            let reader = self.current.as_mut().expect("just set");
            match reader.next() {
                Ok(Some((seq, payload))) => {
                    if seq >= self.from_seq {
                        return Some(Ok((seq, payload)));
                    }
                }
                Ok(None) => self.current = None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hb-store-wal-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(segment_bytes: u64) -> StoreOptions {
        StoreOptions {
            segment_bytes,
            sync: SyncPolicy::Os,
        }
    }

    #[test]
    fn append_reopen_replay() {
        let dir = tmpdir("append-reopen");
        {
            let mut s = Store::open(&dir, opts(1 << 20)).unwrap();
            assert_eq!(s.append(b"r0").unwrap(), 0);
            assert_eq!(s.append(b"r1").unwrap(), 1);
            assert_eq!(s.append(b"r2").unwrap(), 2);
        }
        let s = Store::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(s.next_seq(), 3);
        assert_eq!(s.recovery_report().records, 3);
        assert_eq!(s.recovery_report().truncated_bytes, 0);
        let got: Vec<_> = s.replay(1).map(Result::unwrap).collect();
        assert_eq!(got, vec![(1, b"r1".to_vec()), (2, b"r2".to_vec())]);
    }

    #[test]
    fn rotation_creates_segments_and_replay_spans_them() {
        let dir = tmpdir("rotation");
        let mut s = Store::open(&dir, opts(64)).unwrap();
        for i in 0..20u8 {
            s.append(&[i; 16]).unwrap();
        }
        let stats = s.stats();
        assert!(stats.segments > 1, "tiny limit must rotate: {stats:?}");
        let got: Vec<_> = s.replay(0).map(Result::unwrap).collect();
        assert_eq!(got.len(), 20);
        assert_eq!(got[7], (7, vec![7u8; 16]));
        drop(s);
        // Reopen sees the same thing.
        let s = Store::open(&dir, opts(64)).unwrap();
        assert_eq!(s.next_seq(), 20);
        assert_eq!(s.recovery_report().records, 20);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let mut s = Store::open(&dir, opts(1 << 20)).unwrap();
            s.append(b"keep0").unwrap();
            s.append(b"keep1").unwrap();
            s.append(b"lost by the tear").unwrap();
        }
        // Tear 7 bytes off the last record.
        let (seq, path) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(seq, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 7)
            .unwrap();

        let mut s = Store::open(&dir, opts(1 << 20)).unwrap();
        let report = s.recovery_report().clone();
        assert_eq!(report.records, 2);
        assert!(report.truncated_bytes > 0);
        assert!(!report.corrupt, "a torn write is not corruption");
        // The seq of the torn record is reused by the next append.
        assert_eq!(s.append(b"reappended").unwrap(), 2);
        let got: Vec<_> = s.replay(0).map(Result::unwrap).collect();
        assert_eq!(
            got,
            vec![
                (0, b"keep0".to_vec()),
                (1, b"keep1".to_vec()),
                (2, b"reappended".to_vec()),
            ]
        );
    }

    #[test]
    fn corrupt_record_truncates_and_drops_later_segments() {
        let dir = tmpdir("corrupt-mid");
        {
            let mut s = Store::open(&dir, opts(64)).unwrap();
            for i in 0..20u8 {
                s.append(&[i; 16]).unwrap();
            }
            assert!(s.stats().segments > 2);
        }
        // Flip a bit in the first record of the FIRST segment.
        let (_, path) = list_segments(&dir).unwrap().remove(0);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = crate::segment::SEGMENT_HEADER_BYTES as usize + 8 + 3;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let s = Store::open(&dir, opts(64)).unwrap();
        let report = s.recovery_report();
        assert!(report.corrupt);
        assert_eq!(report.records, 0, "nothing before the corrupt record");
        assert!(report.dropped_segments > 0, "{report:?}");
        assert_eq!(s.replay(0).count(), 0);
        assert_eq!(s.next_seq(), 0);
    }

    #[test]
    fn snapshot_compaction_drops_covered_segments() {
        let dir = tmpdir("compact");
        let mut s = Store::open(&dir, opts(64)).unwrap();
        for i in 0..12u8 {
            s.append(&[i; 16]).unwrap();
        }
        let before = s.stats().segments;
        assert!(before > 2);
        s.write_snapshot(b"state at 12").unwrap();
        let removed = s.compact().unwrap();
        assert!(removed > 0);
        assert_eq!(s.stats().segments, before - removed);
        // Replay from the snapshot position yields nothing (covered).
        assert_eq!(s.replay(12).count(), 0);
        let (snap_seq, payload) = s.load_snapshot().unwrap().unwrap();
        assert_eq!(snap_seq, 12);
        assert_eq!(payload, b"state at 12");
        drop(s);
        // Reopen after compaction: next_seq continues from 12.
        let mut s = Store::open(&dir, opts(64)).unwrap();
        assert_eq!(s.next_seq(), 12);
        assert_eq!(s.append(b"after").unwrap(), 12);
        let got: Vec<_> = s.replay(12).map(Result::unwrap).collect();
        assert_eq!(got, vec![(12, b"after".to_vec())]);
    }

    #[test]
    fn fully_compacted_store_reopens_at_snapshot_seq() {
        let dir = tmpdir("compact-empty");
        {
            let mut s = Store::open(&dir, opts(1 << 20)).unwrap();
            for _ in 0..5 {
                s.append(b"x").unwrap();
            }
            s.write_snapshot(b"final").unwrap();
            s.compact().unwrap();
        }
        // Remove the (uncovered, but empty-after-snapshot) active
        // segment scenario is exercised by reopening directly:
        let s = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.next_seq(), 5);
        assert_eq!(s.load_snapshot().unwrap().unwrap().0, 5);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_replay() {
        let dir = tmpdir("bad-snap");
        {
            let mut s = Store::open(&dir, opts(1 << 20)).unwrap();
            for i in 0..4u8 {
                s.append(&[i]).unwrap();
            }
            s.write_snapshot(b"will be damaged").unwrap();
        }
        let (_, snap_path) = list_snapshots(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&snap_path, &bytes).unwrap();

        let s = Store::open(&dir, opts(1 << 20)).unwrap();
        assert!(
            s.load_snapshot().unwrap().is_none(),
            "corrupt snapshot ignored"
        );
        assert_eq!(s.replay(0).count(), 4, "full log still replayable");
    }

    #[test]
    fn second_opener_is_refused_while_locked() {
        let dir = tmpdir("locked");
        let s = Store::open(&dir, StoreOptions::default()).unwrap();
        match Store::open(&dir, StoreOptions::default()) {
            Err(StoreError::Locked { .. }) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(s);
        Store::open(&dir, StoreOptions::default()).unwrap();
    }

    #[test]
    fn sync_policies_count_fsyncs() {
        let dir = tmpdir("sync-count");
        let mut s = Store::open(
            &dir,
            StoreOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Always,
            },
        )
        .unwrap();
        s.append(b"a").unwrap();
        s.append(b"b").unwrap();
        let stats = s.stats();
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(stats.appended_records, 2);
    }

    fn interval(ms: u64) -> StoreOptions {
        StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::Interval(Duration::from_millis(ms)),
        }
    }

    #[test]
    fn an_idle_tail_is_fsynced_within_the_interval() {
        let dir = tmpdir("idle-tail");
        let mut s = Store::open(&dir, interval(5)).unwrap();
        s.append(b"the last record before a quiet spell").unwrap();
        // No further append, no snapshot, no shutdown: the syncer alone.
        // The count moves once `sync_data` returns, which a loaded host
        // may take a while to do.
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.stats().fsyncs == 0 {
            assert!(Instant::now() < deadline, "the idle tail was never synced");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Synced once: a clean log is not synced again, period after period.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(s.stats().fsyncs, 1);
    }

    #[test]
    fn interval_appends_fsync_at_most_once_per_period() {
        let dir = tmpdir("interval-rate");
        let mut s = Store::open(&dir, interval(60_000)).unwrap();
        for _ in 0..50 {
            s.append(b"r").unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        // The period has not passed since open: the records wait.
        assert_eq!(s.stats().fsyncs, 0);
        // An explicit sync does not.
        s.sync().unwrap();
        assert_eq!(s.stats().fsyncs, 1);
    }

    #[test]
    fn an_explicit_sync_does_not_lean_on_a_background_fsync_in_flight() {
        let dir = tmpdir("sync-in-flight");
        let mut s = Store::open(&dir, interval(0)).unwrap();
        let syncer = Arc::clone(&s.syncer);
        let gate = syncer.pause.lock().unwrap();
        s.append(b"r").unwrap();
        // The syncer has taken the dirty flag but not yet synced.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !syncer.lock().in_flight {
            assert!(Instant::now() < deadline, "the syncer never ran");
            std::thread::yield_now();
        }
        // Its fsync may have begun before the append's write landed (it
        // did not here, but `sync` cannot know): `sync` syncs itself.
        s.sync().unwrap();
        assert_eq!(s.stats().fsyncs, 1);
        drop(gate);
    }

    /// Waits until the syncer has met the injected failure.
    fn await_poison(s: &Store) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.syncer.lock().poisoned.is_none() {
            assert!(Instant::now() < deadline, "the syncer never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_failed_background_fsync_refuses_every_later_append() {
        use std::sync::atomic::Ordering::SeqCst;
        let dir = tmpdir("poisoned");
        {
            let mut s = Store::open(&dir, interval(1)).unwrap();
            s.syncer.fail_next.store(true, SeqCst);
            assert_eq!(s.append(b"written before the failure").unwrap(), 0);
            await_poison(&s);
            for _ in 0..3 {
                match s.append(b"refused") {
                    Err(StoreError::Io { context, .. }) => assert_eq!(context, "fsync wal"),
                    other => panic!("expected the fsync error, got {other:?}"),
                }
            }
            // Nothing was written for the refused appends.
            assert_eq!(s.next_seq(), 1);
            assert_eq!(s.stats().appended_records, 1);
            // A later fsync would "succeed"; the store still refuses.
            assert!(s.sync().is_err());
            assert!(s.write_snapshot(b"state").is_err());
            assert!(s.append(b"refused").is_err());
        }
        let s = Store::open(&dir, opts(1 << 20)).unwrap();
        let got: Vec<_> = s.replay(0).map(Result::unwrap).collect();
        assert_eq!(got, vec![(0, b"written before the failure".to_vec())]);
    }

    #[test]
    fn a_failed_inline_fsync_poisons_too() {
        use std::sync::atomic::Ordering::SeqCst;
        let dir = tmpdir("poisoned-inline");
        let mut s = Store::open(
            &dir,
            StoreOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::Always,
            },
        )
        .unwrap();
        s.syncer.fail_next.store(true, SeqCst);
        assert!(s.append(b"its fsync fails").is_err());
        let before = s.next_seq();
        assert!(s.append(b"refused").is_err());
        assert_eq!(s.next_seq(), before);
    }

    #[test]
    fn parse_sync_policy() {
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(SyncPolicy::parse("os").unwrap(), SyncPolicy::Os);
        assert_eq!(
            SyncPolicy::parse("interval:250").unwrap(),
            SyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(SyncPolicy::parse("sometimes").is_err());
        assert!(SyncPolicy::parse("interval:soon").is_err());
    }
}
