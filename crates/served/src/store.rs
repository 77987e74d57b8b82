//! The daemon's persistent, content-addressed artifact store.
//!
//! Layout under the store root:
//!
//! ```text
//! store/
//!   LOCK                      exclusive daemon lock (`pid=<pid>`)
//!   jobs/<job-id>.json        job journal: spec + lifecycle state
//!   cells/<cell-key>/
//!     result.json             final CellResult (the cache entry)
//!     ck.rtsnap               in-progress checkpoint (deleted on success)
//!     ck.digests              per-epoch replay-digest log
//! ```
//!
//! Job ids and cell keys are FNV-1a digests of the canonical job spec
//! (see [`JobSpec::identity`]), so an identical resubmit maps to the
//! same paths and is served from cache without re-simulating. All
//! writes go through atomic write-then-rename, so a daemon killed
//! mid-write can never leave a torn journal or cache entry — at worst
//! the old content survives.
//!
//! Every filesystem operation goes through a [`ServedFs`] shim
//! (production: a passthrough over `std::fs`; tests: the chaos layer),
//! which is what lets the crash-point harness in `tests/chaos.rs`
//! enumerate each mutating operation below and prove recovery after a
//! simulated death at that exact point.
//!
//! Corruption is handled asymmetrically by design: a corrupt *job
//! journal* is a typed [`StoreError::Corrupt`] that fails daemon
//! startup (exit code 8 — the operator must intervene, because silently
//! dropping journaled work would break the resume contract), while a
//! corrupt *cell result* is treated as a cache miss and recomputed
//! (the simulator is deterministic, so recomputation self-heals).
//!
//! A store belongs to at most one daemon at a time: [`ArtifactStore::lock`]
//! takes an exclusive `LOCK` file (stolen only from a provably dead
//! holder), so two daemons cannot interleave journal writes. A held
//! lock is the typed [`StoreError::Locked`], riding the same exit-8
//! startup path as corruption.

use crate::chaos::{Chaos, ServedFs};
use crate::json::Json;
use crate::protocol::{hex_id, parse_hex_id, CellResult, JobSpec, JobState, ProtocolError};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure; `what` names the operation.
    Io {
        what: &'static str,
        path: PathBuf,
        source: io::Error,
    },
    /// A journal file exists but does not decode. Carried to startup as
    /// a hard error (exit code 8).
    Corrupt { path: PathBuf, detail: String },
    /// The store root exists but is not a directory.
    NotADirectory { path: PathBuf },
    /// Another live daemon holds the store's `LOCK` file. Also a hard
    /// startup error (exit code 8): two daemons interleaving writes to
    /// one store would corrupt it far more creatively than a crash.
    Locked { path: PathBuf, holder: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { what, path, source } => {
                write!(f, "cannot {what} {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "store corruption in {}: {detail}", path.display())
            }
            StoreError::NotADirectory { path } => {
                write!(f, "store path {} is not a directory", path.display())
            }
            StoreError::Locked { path, holder } => {
                write!(
                    f,
                    "store is locked by another daemon ({holder}); remove {} only if that daemon is gone",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One journal entry: a job's spec and where it got to.
#[derive(Debug, Clone)]
pub struct JournaledJob {
    /// Content-address of the spec.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Last journaled lifecycle state.
    pub state: JobState,
    /// Error description for failed / timed-out jobs.
    pub error: Option<String>,
}

/// Exclusive ownership of a store, held for a daemon's lifetime.
///
/// Dropping removes the `LOCK` file — through `std::fs` directly, not
/// the shim, because a *really* crashed process never runs `Drop` (the
/// stale-pid steal below covers that case), while a *simulated* crash
/// in the harness must still be able to release its own lock for the
/// in-process restart.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Handle to a store root. Cheap to clone; all methods are stateless
/// over the filesystem (reached through the configured [`ServedFs`]).
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    fs: Arc<dyn ServedFs>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`, with the
    /// production filesystem.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotADirectory`] if `root` exists but is a file;
    /// [`StoreError::Io`] if the directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, StoreError> {
        ArtifactStore::open_with_fs(root, Chaos::off().fs())
    }

    /// Opens a store whose filesystem operations go through `fs` — the
    /// chaos layer's entry point.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::open`].
    pub fn open_with_fs(
        root: impl Into<PathBuf>,
        fs: Arc<dyn ServedFs>,
    ) -> Result<ArtifactStore, StoreError> {
        let root = root.into();
        // Existence probing is read-only and not a fault-injection
        // point; `create_dir_all` below is.
        if root.exists() && !root.is_dir() {
            return Err(StoreError::NotADirectory { path: root });
        }
        let store = ArtifactStore { root, fs };
        for sub in ["jobs", "cells"] {
            let dir = store.root.join(sub);
            store
                .fs
                .create_dir_all(&dir)
                .map_err(|source| StoreError::Io {
                    what: "create directory",
                    path: dir.clone(),
                    source,
                })?;
        }
        Ok(store)
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn lock_path(&self) -> PathBuf {
        self.root.join("LOCK")
    }

    /// Takes the store's exclusive daemon lock.
    ///
    /// The lock is a `LOCK` file created with `O_EXCL` holding
    /// `pid=<pid>`. If it already exists, the holder's pid is probed
    /// (`kill(pid, 0)`): a provably dead holder's lock is stale and
    /// stolen; a live or unidentifiable holder is the typed
    /// [`StoreError::Locked`]. Unidentifiable errs on the safe side —
    /// refusing a start is recoverable, interleaved writes are not.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another daemon holds the store;
    /// [`StoreError::Io`] on filesystem failures.
    pub fn lock(&self) -> Result<StoreLock, StoreError> {
        let path = self.lock_path();
        let contents = format!("pid={}\n", std::process::id());
        for attempt in 0..2 {
            match self.fs.create_exclusive(&path, contents.as_bytes()) {
                Ok(()) => return Ok(StoreLock { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = self.lock_holder(&path)?;
                    match holder {
                        Holder::Dead(_) if attempt == 0 => {
                            // Stale lock from a crashed daemon: steal it
                            // and retry the exclusive create once (a
                            // concurrent starter may win the race; the
                            // second AlreadyExists is then authoritative).
                            self.fs
                                .remove_file(&path)
                                .map_err(|source| StoreError::Io {
                                    what: "remove stale lock",
                                    path: path.clone(),
                                    source,
                                })?;
                        }
                        holder => {
                            return Err(StoreError::Locked {
                                path,
                                holder: holder.describe(),
                            })
                        }
                    }
                }
                Err(source) => {
                    return Err(StoreError::Io {
                        what: "create lock",
                        path,
                        source,
                    })
                }
            }
        }
        unreachable!("lock loop returns on every arm of the second attempt")
    }

    /// Classifies who holds an existing lock file.
    fn lock_holder(&self, path: &Path) -> Result<Holder, StoreError> {
        let bytes = match self.fs.read(path) {
            Ok(b) => b,
            // Lost a race with the holder's own release: treat as dead
            // so the caller's retry can claim it.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Holder::Dead(0)),
            Err(source) => {
                return Err(StoreError::Io {
                    what: "read lock",
                    path: path.to_path_buf(),
                    source,
                })
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        let Some(pid) = text
            .trim()
            .strip_prefix("pid=")
            .and_then(|p| p.parse::<u32>().ok())
        else {
            return Ok(Holder::Unknown);
        };
        if pid_alive(pid) {
            Ok(Holder::Alive(pid))
        } else {
            Ok(Holder::Dead(pid))
        }
    }

    fn job_path(&self, id: u64) -> PathBuf {
        self.root.join("jobs").join(format!("{}.json", hex_id(id)))
    }

    fn cell_dir(&self, key: u64) -> PathBuf {
        self.root.join("cells").join(hex_id(key))
    }

    /// Path of a cell's in-progress checkpoint.
    pub fn checkpoint_path(&self, key: u64) -> PathBuf {
        self.cell_dir(key).join("ck.rtsnap")
    }

    /// Path of a cell's replay-digest log.
    pub fn digest_log_path(&self, key: u64) -> PathBuf {
        self.cell_dir(key).join("ck.digests")
    }

    /// Path of a cell's cached result.
    pub fn cell_result_path(&self, key: u64) -> PathBuf {
        self.cell_dir(key).join("result.json")
    }

    /// Journals a job's spec and state, atomically replacing any
    /// previous entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the atomic write fails.
    pub fn journal_job(
        &self,
        id: u64,
        spec: &JobSpec,
        state: JobState,
        error: Option<&str>,
    ) -> Result<(), StoreError> {
        let mut fields: BTreeMap<String, Json> = BTreeMap::new();
        fields.insert("v".into(), Json::num(1));
        fields.insert("spec".into(), spec.to_json());
        fields.insert("state".into(), Json::str(state.as_str()));
        if let Some(e) = error {
            fields.insert("error".into(), Json::str(e));
        }
        let mut line = Json::Obj(fields).encode();
        line.push('\n');
        let path = self.job_path(id);
        self.write_atomic(&path, line.as_bytes())
    }

    /// Loads every journaled job. Called once at daemon startup to
    /// rebuild the job table and re-enqueue interrupted work.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on the first journal entry that fails to
    /// decode or whose filename disagrees with its spec digest;
    /// [`StoreError::Io`] on filesystem failures.
    pub fn load_jobs(&self) -> Result<Vec<JournaledJob>, StoreError> {
        let dir = self.root.join("jobs");
        let entries = self.fs.read_dir(&dir).map_err(|source| StoreError::Io {
            what: "list",
            path: dir.clone(),
            source,
        })?;
        let mut jobs = Vec::new();
        for path in entries {
            // Skips orphaned `.tmp` siblings from interrupted atomic
            // writes as well as anything else that is not a journal.
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            jobs.push(self.load_job(&path)?);
        }
        // Deterministic order regardless of directory iteration order.
        jobs.sort_by_key(|j| j.id);
        Ok(jobs)
    }

    fn load_job(&self, path: &Path) -> Result<JournaledJob, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let id = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(parse_hex_id)
            .ok_or_else(|| corrupt("filename is not a hex job id".to_string()))?;
        let bytes = self.fs.read(path).map_err(|source| StoreError::Io {
            what: "read",
            path: path.to_path_buf(),
            source,
        })?;
        let text =
            String::from_utf8(bytes).map_err(|_| corrupt("journal is not UTF-8".to_string()))?;
        let v = Json::parse(text.trim_end()).map_err(|e| corrupt(e.to_string()))?;
        let spec_json = v
            .get("spec")
            .ok_or_else(|| corrupt("missing `spec`".to_string()))?;
        let spec =
            JobSpec::from_json(spec_json).map_err(|e: ProtocolError| corrupt(e.to_string()))?;
        if spec.identity() != id {
            return Err(corrupt(format!(
                "spec digest {} does not match filename",
                hex_id(spec.identity())
            )));
        }
        let state = v
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::parse)
            .ok_or_else(|| corrupt("missing or unknown `state`".to_string()))?;
        Ok(JournaledJob {
            id,
            spec,
            state,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Reads a cell's cached result.
    ///
    /// Returns `Ok(None)` both when the cache entry is absent and when
    /// it is unreadable or corrupt — either way the cell must be
    /// recomputed, and the deterministic simulator makes recomputation
    /// equivalent to repair.
    pub fn read_cell_result(&self, key: u64) -> Option<CellResult> {
        let path = self.cell_result_path(key);
        let bytes = self.fs.read(&path).ok()?;
        let text = String::from_utf8(bytes).ok()?;
        let v = Json::parse(text.trim_end()).ok()?;
        let cell = CellResult::from_json(&v).ok()?;
        // A cache entry filed under the wrong key is corruption, not a
        // hit.
        if cell.cell != key {
            return None;
        }
        Some(cell)
    }

    /// Atomically caches a cell's result and removes its now-redundant
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the write fails.
    pub fn write_cell_result(&self, cell: &CellResult) -> Result<(), StoreError> {
        let dir = self.cell_dir(cell.cell);
        self.fs
            .create_dir_all(&dir)
            .map_err(|source| StoreError::Io {
                what: "create directory",
                path: dir.clone(),
                source,
            })?;
        let mut line = cell.to_json().encode();
        line.push('\n');
        self.write_atomic(&self.cell_result_path(cell.cell), line.as_bytes())?;
        // The checkpoint only exists to resume an interrupted run; once
        // the result is cached it is dead weight.
        let _ = self.fs.remove_file(&self.checkpoint_path(cell.cell));
        Ok(())
    }

    /// Path of a cached preparation artifact (an `RTBVH01` container:
    /// built BVH + rays + default treelet assignment), keyed by the
    /// preparation content digest — *not* the cell key, because many
    /// cells (one per config) share one preparation.
    pub fn bvh_artifact_path(&self, key: u64) -> PathBuf {
        self.root.join("bvh").join(format!("{}.rtbvh", hex_id(key)))
    }

    /// Reads a cached preparation artifact's raw bytes, or `None` when
    /// absent or unreadable. Decoding (and corruption judgment) is the
    /// caller's: `treelet_rt::decode_prepared_bench` validates the
    /// container, and any failure should be reported back via
    /// [`ArtifactStore::remove_bvh_artifact`] so the entry self-heals.
    pub fn read_bvh_artifact(&self, key: u64) -> Option<Vec<u8>> {
        self.fs.read(&self.bvh_artifact_path(key)).ok()
    }

    /// Atomically caches a preparation artifact's bytes, creating the
    /// `bvh/` directory on first use. Goes through the same fs shim and
    /// write-then-rename discipline as every other store write, so the
    /// chaos crash-point harness enumerates these write points too.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if directory creation or the atomic write
    /// fails.
    pub fn write_bvh_artifact(&self, key: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let dir = self.root.join("bvh");
        self.fs
            .create_dir_all(&dir)
            .map_err(|source| StoreError::Io {
                what: "create directory",
                path: dir,
                source,
            })?;
        self.write_atomic(&self.bvh_artifact_path(key), bytes)
    }

    /// Deletes a preparation artifact that failed to decode (corrupt
    /// entry = self-healing miss). Best-effort: the rebuild that
    /// follows re-caches over it either way.
    pub fn remove_bvh_artifact(&self, key: u64) {
        let _ = self.fs.remove_file(&self.bvh_artifact_path(key));
    }

    /// Ensures a cell's directory exists (the checkpoint writer needs
    /// the parent present).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if creation fails.
    pub fn ensure_cell_dir(&self, key: u64) -> Result<(), StoreError> {
        let dir = self.cell_dir(key);
        self.fs
            .create_dir_all(&dir)
            .map_err(|source| StoreError::Io {
                what: "create directory",
                path: dir,
                source,
            })
    }

    /// Atomic write-then-rename composed from the shim's primitives, so
    /// a simulated crash can land between the write and the commit —
    /// exactly where a real one would. The temp sibling swaps the
    /// `.json` extension for `.tmp`, which [`ArtifactStore::load_jobs`]
    /// skips.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = path.with_extension("tmp");
        let io_err = |what: &'static str, p: &Path, source: io::Error| StoreError::Io {
            what,
            path: p.to_path_buf(),
            source,
        };
        self.fs
            .write_file(&tmp, bytes)
            .map_err(|e| io_err("write", &tmp, e))?;
        self.fs
            .rename(&tmp, path)
            .map_err(|e| io_err("commit write of", path, e))
    }
}

/// Who holds a lock file.
enum Holder {
    Alive(u32),
    Dead(u32),
    Unknown,
}

impl Holder {
    fn describe(&self) -> String {
        match self {
            Holder::Alive(pid) => format!("pid {pid}, alive"),
            Holder::Dead(pid) => format!("pid {pid}, dead but steal raced"),
            Holder::Unknown => "unrecognized lock contents".to_string(),
        }
    }
}

/// Whether `pid` names a live process: `kill(pid, 0)` succeeds, or
/// fails with anything but ESRCH (EPERM in particular means *alive but
/// not ours*).
fn pid_alive(pid: u32) -> bool {
    const ESRCH: i32 = 3;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else {
        // Not a representable pid; claim alive so the lock is refused,
        // not stolen.
        return true;
    };
    if unsafe { kill(pid, 0) } == 0 {
        return true;
    }
    io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("rt-served-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open store")
    }

    fn spec() -> JobSpec {
        JobSpec {
            scenes: vec!["WKND".to_string()],
            ..JobSpec::default()
        }
    }

    #[test]
    fn journal_round_trips_and_updates_in_place() {
        let store = temp_store("journal");
        let spec = spec();
        let id = spec.identity();
        store
            .journal_job(id, &spec, JobState::Queued, None)
            .unwrap();
        store
            .journal_job(id, &spec, JobState::Failed, Some("worker panicked"))
            .unwrap();

        let jobs = store.load_jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, id);
        assert_eq!(jobs[0].spec, spec);
        assert_eq!(jobs[0].state, JobState::Failed);
        assert_eq!(jobs[0].error.as_deref(), Some("worker panicked"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_journal_is_a_typed_hard_error() {
        let store = temp_store("corrupt");
        let path = store.root().join("jobs").join("0x0000000000000001.json");
        fs::write(&path, b"{ this is not json").unwrap();
        match store.load_jobs() {
            Err(StoreError::Corrupt { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn journal_with_wrong_digest_is_corrupt() {
        let store = temp_store("wrong-digest");
        let spec = spec();
        // File the journal under an id that is not the spec's digest.
        store
            .journal_job(0xbad, &spec, JobState::Queued, None)
            .unwrap();
        assert!(matches!(store.load_jobs(), Err(StoreError::Corrupt { .. })));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_cell_result_reads_as_a_miss() {
        let store = temp_store("cell");
        let cell = CellResult {
            cell: 7,
            scene: "CAR".to_string(),
            config: "prefetch".to_string(),
            cycles: 10,
            rays: 20,
            state_digest: 30,
        };
        store.write_cell_result(&cell).unwrap();
        assert_eq!(store.read_cell_result(7), Some(cell));
        assert_eq!(store.read_cell_result(8), None);

        fs::write(store.cell_result_path(7), b"torn!").unwrap();
        assert_eq!(store.read_cell_result(7), None, "corrupt entry = miss");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn store_root_must_be_a_directory() {
        let path = std::env::temp_dir().join(format!("rt-served-not-a-dir-{}", std::process::id()));
        fs::write(&path, b"file").unwrap();
        assert!(matches!(
            ArtifactStore::open(&path),
            Err(StoreError::NotADirectory { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn lock_excludes_a_second_holder_and_releases_on_drop() {
        let store = temp_store("lock");
        let lock = store.lock().expect("first lock");
        match store.lock() {
            Err(StoreError::Locked { holder, .. }) => {
                // Held by this very process, which is definitely alive.
                assert!(holder.contains("alive"), "{holder}");
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(lock);
        let relock = store.lock().expect("relock after release");
        drop(relock);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_lock_from_a_dead_pid_is_stolen() {
        let store = temp_store("stale-lock");
        // A child process that has already been waited on is guaranteed
        // dead and its pid unambiguous.
        let child = std::process::Command::new("sh")
            .arg("-c")
            .arg("echo $$")
            .output()
            .expect("spawn child");
        let dead_pid: u32 = String::from_utf8_lossy(&child.stdout)
            .trim()
            .parse()
            .unwrap();
        fs::write(store.root().join("LOCK"), format!("pid={dead_pid}\n")).unwrap();
        let lock = store.lock().expect("steal stale lock");
        drop(lock);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn unrecognized_lock_contents_refuse_the_start() {
        let store = temp_store("garbage-lock");
        fs::write(store.root().join("LOCK"), b"who knows\n").unwrap();
        match store.lock() {
            Err(StoreError::Locked { holder, .. }) => {
                assert!(holder.contains("unrecognized"), "{holder}");
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.root());
    }
}
