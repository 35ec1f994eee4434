//! The on-disk result cache behind scenario sweeps: a directory of
//! `point-<hash>.json` files plus a `manifest.json` index.
//!
//! A [`ResultStore`] maps a [`PointKey`] (the canonical content hash of
//! `(config, class, commits, seed, trace fingerprint)`) to the
//! [`SimResult`]s of the corresponding suite run. [`crate::driver::run_points`]
//! consults the run context's store before simulating and writes fresh
//! results back, so interrupted sweeps resume computing only the missing points and
//! a repeated identical sweep performs zero simulations.
//!
//! The layout keeps two properties the sweep workflow depends on:
//!
//! * **loud failure** — the manifest is the source of truth. A manifest
//!   that does not parse, a listed point file that is missing or corrupt,
//!   or a point file whose recomputed key disagrees with its file name all
//!   *fail the run*; nothing is ever silently recomputed and overwritten,
//!   because a half-trusted cache poisons every report merged from it.
//! * **interruption safety** — a point file is written (via a temp file and
//!   rename) *before* the manifest records it, so killing a sweep between
//!   the two leaves an *orphaned* point file: durable on disk, unlisted in
//!   the manifest. Opening the store scans for orphans and **adopts** each
//!   one after verifying it (the file decodes and its content hashes back
//!   to the key in its name) — the interrupted computation is kept, never
//!   silently recomputed and overwritten. An orphan that fails verification
//!   fails the open, naming the file.
//! * **single writer** — opening a store takes an advisory `store.lock`
//!   file (holding the owner's pid) for the lifetime of the
//!   [`ResultStore`], so two processes writing one directory fail loudly
//!   instead of racing the manifest's temp+rename updates. A lock whose
//!   owning process is gone (a killed sweep or server) is reclaimed
//!   automatically; a live owner is an error naming its pid.
//!
//! `docs/SCENARIOS.md` documents the directory layout and the key
//! definition at the byte level.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use elsq_cpu::result::SimResult;
use elsq_stats::canon::canonical_hash_of;

use crate::fault;
use crate::scenario::PointKey;

/// Version tag of the store layout; bumped on incompatible changes so an
/// old cache fails loudly instead of mis-decoding. Version 2 added the
/// whole-file `checksum` field to the manifest and every point file, so
/// *any* on-disk corruption (not just key mismatches) is caught loudly.
pub const STORE_VERSION: u32 = 2;

/// File name of the manifest index inside a cache directory.
pub const MANIFEST_NAME: &str = "manifest.json";

/// File name of the advisory writer lock inside a cache directory.
pub const LOCK_NAME: &str = "store.lock";

/// The advisory writer lock: created with `create_new` (so creation is the
/// atomic acquisition), holding the owner's pid, removed on drop.
///
/// The lock is advisory in the classic sense — nothing stops a process
/// from ignoring it — but every writer in this workspace (the CLI's
/// `--cache` paths and the `elsq-lab serve` daemon) goes through
/// [`ResultStore::open`], which takes it. Staleness is resolved by pid
/// liveness: a lock whose owner is gone (checked via `/proc/<pid>` on
/// Linux) is reclaimed; on platforms without `/proc` an existing lock is
/// conservatively treated as live and must be deleted by hand.
#[derive(Debug)]
struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    fn acquire(dir: &Path) -> Result<Self, String> {
        let path = dir.join(LOCK_NAME);
        // Bounded retry: reclaiming a stale lock races other would-be
        // writers doing the same, and the loser of the re-acquisition
        // must re-inspect (and then fail loudly on the live winner).
        for _ in 0..8 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    use std::io::Write;
                    let mut file = file;
                    // Best-effort: the pid is diagnostic; acquisition was
                    // the atomic create_new above.
                    let _ = writeln!(file, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid != std::process::id() && !process_alive(pid) => {
                            // Stale: the owner is gone. Reclaim and retry
                            // the atomic acquisition.
                            std::fs::remove_file(&path).map_err(|e| {
                                format!(
                                    "cannot reclaim stale store lock {} (owner {pid} is \
                                     gone): {e}",
                                    path.display()
                                )
                            })?;
                        }
                        _ => {
                            return Err(format!(
                                "store {} is locked by {} ({}); a second writer on one \
                                 store directory would race the manifest updates — wait \
                                 for it to finish, point at a different directory, or \
                                 delete {} if the owner is truly gone",
                                dir.display(),
                                match holder {
                                    Some(pid) => format!("process {pid}"),
                                    None => "another process".to_owned(),
                                },
                                if holder.is_some() {
                                    "still running"
                                } else {
                                    "unreadable lock"
                                },
                                path.display()
                            ));
                        }
                    }
                }
                Err(e) => {
                    return Err(format!("cannot create store lock {}: {e}", path.display()));
                }
            }
        }
        Err(format!(
            "store lock {} keeps reappearing; another writer is racing this one",
            path.display()
        ))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether `pid` names a live process. Linux answers via `/proc`; other
/// platforms conservatively say yes, so a stale lock there needs a manual
/// delete (the error message names the file).
fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestEntry {
    /// Hex spelling of the point's canonical hash.
    key: String,
    /// Label of the plan point that first produced the entry (informational).
    label: String,
    /// Number of per-workload results the point file holds.
    workloads: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    points: Vec<ManifestEntry>,
    /// Canonical hash of the manifest with this field zeroed; verified on
    /// open so a flipped bit anywhere in the file is loud.
    checksum: u64,
}

impl Manifest {
    fn sealed(version: u32, points: Vec<ManifestEntry>) -> Self {
        let mut manifest = Manifest {
            version,
            points,
            checksum: 0,
        };
        manifest.checksum = canonical_hash_of(&manifest);
        manifest
    }

    fn verify_checksum(&self) -> Result<(), String> {
        let mut unsealed = self.clone();
        unsealed.checksum = 0;
        let actual = canonical_hash_of(&unsealed);
        if actual == self.checksum {
            Ok(())
        } else {
            Err(format!(
                "stored checksum {:016x} but content hashes to {actual:016x}",
                self.checksum
            ))
        }
    }
}

/// One cached point on disk: the full key (for auditability and a
/// consistency check on load), the label, and the suite results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PointFile {
    key: String,
    label: String,
    point: PointKey,
    results: Vec<SimResult>,
    /// Canonical hash of the point file with this field zeroed; verified on
    /// every load so corrupted *results* (which the key cannot see) are as
    /// loud as a corrupted key.
    checksum: u64,
}

impl PointFile {
    fn sealed(key: String, label: String, point: PointKey, results: Vec<SimResult>) -> Self {
        let mut file = PointFile {
            key,
            label,
            point,
            results,
            checksum: 0,
        };
        file.checksum = canonical_hash_of(&file);
        file
    }

    fn verify_checksum(&self) -> Result<(), String> {
        let mut unsealed = self.clone();
        unsealed.checksum = 0;
        let actual = canonical_hash_of(&unsealed);
        if actual == self.checksum {
            Ok(())
        } else {
            Err(format!(
                "stored checksum {:016x} but content hashes to {actual:016x}",
                self.checksum
            ))
        }
    }
}

/// A directory-backed cache of suite results, keyed by [`PointKey`] hashes.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    entries: Mutex<std::collections::BTreeMap<String, ManifestEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    tmp_counter: AtomicU64,
    /// Held for the store's lifetime; dropping it releases `store.lock`.
    _lock: StoreLock,
}

impl ResultStore {
    /// Opens (or initializes) the store in `dir`.
    ///
    /// * A missing directory or missing manifest initializes an empty
    ///   store — unless the directory already holds `point-*.json` files,
    ///   which without a manifest means a corrupt store and is an error.
    /// * A manifest that fails to parse is an error (never silently
    ///   recreated).
    /// * A point file the manifest does not list (the leftover of a run
    ///   killed between the point write and its manifest update) is
    ///   verified and adopted into the manifest; one that fails
    ///   verification is an error naming the file.
    /// * A manifest (or adopted orphan) holding cached points is only
    ///   reused when `resume` is set, so a sweep cannot accidentally mix
    ///   into a stale cache.
    /// * The directory's advisory `store.lock` is taken for the store's
    ///   lifetime; a directory locked by a *live* process is an error (two
    ///   writers would race the manifest updates), while a lock left by a
    ///   dead one is reclaimed.
    pub fn open(dir: &Path, resume: bool) -> Result<Self, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache directory {}: {e}", dir.display()))?;
        let lock = StoreLock::acquire(dir)?;
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut entries: std::collections::BTreeMap<String, ManifestEntry>;
        match std::fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let manifest: Manifest = serde_json::from_str(&text).map_err(|e| {
                    format!(
                        "cache manifest {} is corrupt ({e}); refusing to reuse or \
                         overwrite it — delete the cache directory to start fresh",
                        manifest_path.display()
                    )
                })?;
                if manifest.version != STORE_VERSION {
                    return Err(format!(
                        "cache manifest {} has layout version {} but this binary \
                         writes version {STORE_VERSION}; delete the cache directory \
                         to start fresh",
                        manifest_path.display(),
                        manifest.version
                    ));
                }
                manifest.verify_checksum().map_err(|e| {
                    format!(
                        "cache manifest {} fails its checksum ({e}); the cache is \
                         corrupt — delete the cache directory to start fresh",
                        manifest_path.display()
                    )
                })?;
                entries = manifest
                    .points
                    .into_iter()
                    .map(|p| (p.key.clone(), p))
                    .collect();
                let adopted = Self::adopt_orphans(dir, &mut entries)?;
                if !entries.is_empty() && !resume {
                    return Err(format!(
                        "cache {} already holds {} cached point(s); pass --resume to \
                         reuse it or point --cache at a fresh directory",
                        dir.display(),
                        entries.len()
                    ));
                }
                // Every listed point must be durably on disk: catching a
                // deleted point file here turns a mid-run abort into a
                // clean open-time error. (Tampered contents are still
                // caught at lookup time, when the file is decoded.)
                for entry in entries.values() {
                    let path = dir.join(format!("point-{}.json", entry.key));
                    if !path.exists() {
                        return Err(format!(
                            "cache point {} is listed in the manifest but missing \
                             from disk; the cache is corrupt — delete the \
                             directory to start fresh",
                            path.display()
                        ));
                    }
                }
                // Make any adoptions durable only after every check passed.
                if adopted > 0 {
                    let manifest =
                        Manifest::sealed(STORE_VERSION, entries.values().cloned().collect());
                    write_json_atomic_site(
                        &manifest_path,
                        &manifest,
                        0,
                        Some(MANIFEST_WRITE_SITE),
                    )?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let stray = Self::stray_point_files(dir)?;
                if let Some(stray) = stray {
                    return Err(format!(
                        "cache {} holds point files ({} ...) but no manifest; the \
                         store is corrupt — delete the directory to start fresh",
                        dir.display(),
                        stray
                    ));
                }
                let manifest = Manifest::sealed(STORE_VERSION, Vec::new());
                write_json_atomic_site(&manifest_path, &manifest, 0, Some(MANIFEST_WRITE_SITE))?;
                entries = std::collections::BTreeMap::new();
            }
            Err(e) => {
                return Err(format!("cannot read {}: {e}", manifest_path.display()));
            }
        };
        Ok(Self {
            dir: dir.to_owned(),
            entries: Mutex::new(entries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            _lock: lock,
        })
    }

    /// Scans `dir` for `point-*.json` files the manifest does not list —
    /// the durable-but-unlisted leftovers of a run killed between a point
    /// write and its manifest update — and adopts each one after verifying
    /// that it decodes and that its content hashes back to the key in its
    /// file name. Returns the number adopted; a file that fails
    /// verification is an error (adopting it would poison every report
    /// merged from the cache, recomputing over it would silently discard
    /// data).
    fn adopt_orphans(
        dir: &Path,
        entries: &mut std::collections::BTreeMap<String, ManifestEntry>,
    ) -> Result<usize, String> {
        let listing = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read cache directory {}: {e}", dir.display()))?;
        let mut adopted = 0;
        for file in listing.flatten() {
            let name = file.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name
                .strip_prefix("point-")
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            if entries.contains_key(hex) {
                continue;
            }
            let path = file.path();
            let verified = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot be read ({e})"))
                .and_then(|text| {
                    serde_json::from_str::<PointFile>(&text)
                        .map_err(|e| format!("does not decode ({e})"))
                })
                .and_then(|point| {
                    point
                        .verify_checksum()
                        .map_err(|e| format!("fails its checksum ({e})"))
                        .map(|()| point)
                })
                .and_then(|point| {
                    if point.key == hex && point.point.hex() == hex {
                        Ok(point)
                    } else {
                        Err(format!(
                            "content hashes to {} but the file name claims {hex}",
                            point.point.hex()
                        ))
                    }
                });
            let point = verified.map_err(|e| {
                format!(
                    "cache point {} is not listed in the manifest and fails \
                     verification: {e}; the cache is corrupt — delete the file \
                     (or the whole directory) to recover",
                    path.display()
                )
            })?;
            entries.insert(
                hex.to_owned(),
                ManifestEntry {
                    key: hex.to_owned(),
                    label: point.label,
                    workloads: point.results.len() as u64,
                },
            );
            adopted += 1;
        }
        Ok(adopted)
    }

    fn stray_point_files(dir: &Path) -> Result<Option<String>, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read cache directory {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("point-") && name.ends_with(".json") {
                return Ok(Some(name.into_owned()));
            }
        }
        Ok(None)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store lock poisoned").len()
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits served since the store was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded since the store was opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Whether the store already holds `key`, without loading the point
    /// file or touching the hit/miss counters — the server uses this to
    /// pre-classify a job's points as cached/fresh for progress events
    /// without skewing the per-job counter deltas.
    pub fn contains(&self, key: &PointKey) -> bool {
        self.entries
            .lock()
            .expect("store lock poisoned")
            .contains_key(&key.hex())
    }

    fn point_path(&self, hex: &str) -> PathBuf {
        self.dir.join(format!("point-{hex}.json"))
    }

    /// Looks a point up. `Ok(None)` is a clean miss; a manifest-listed
    /// point that cannot be loaded back is an error (the cache is corrupt,
    /// and recomputing would silently mask it).
    pub fn lookup(&self, key: &PointKey) -> Result<Option<Vec<SimResult>>, String> {
        let hex = key.hex();
        let listed = self
            .entries
            .lock()
            .expect("store lock poisoned")
            .contains_key(&hex);
        if !listed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let path = self.point_path(&hex);
        let mut bytes = std::fs::read(&path).map_err(|e| {
            format!(
                "cache point {} is listed in the manifest but cannot be read ({e}); \
                 the cache is corrupt — delete the directory to start fresh",
                path.display()
            )
        })?;
        if let Some(injected) = fault::fire(POINT_READ_SITE) {
            match injected.action {
                fault::FaultAction::ShortRead => {
                    bytes.truncate(fault::torn_len(bytes.len(), injected.seed));
                }
                fault::FaultAction::BitFlip => fault::flip_bit(&mut bytes, injected.seed),
                other => {
                    return Err(format!(
                        "fault action {other:?} is not a read fault (site {POINT_READ_SITE})"
                    ))
                }
            }
        }
        let text = String::from_utf8(bytes).map_err(|e| {
            format!(
                "cache point {} is corrupt (not valid UTF-8: {e}); the cache is \
                 corrupt — delete the directory to start fresh",
                path.display()
            )
        })?;
        let point: PointFile = serde_json::from_str(&text)
            .map_err(|e| format!("cache point {} is corrupt: {e}", path.display()))?;
        point.verify_checksum().map_err(|e| {
            format!(
                "cache point {} fails its checksum ({e}); the cache is corrupt — \
                 delete the directory to start fresh",
                path.display()
            )
        })?;
        if point.key != hex || point.point.hex() != hex {
            return Err(format!(
                "cache point {} does not match its key (file claims {}, content \
                 hashes to {}); the cache is corrupt",
                path.display(),
                point.key,
                point.point.hex()
            ));
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(point.results))
    }

    /// Inserts a freshly computed point: point file first (temp + rename),
    /// then the manifest entry. Re-inserting an already-listed key is a
    /// no-op, so concurrent computations of the same point are safe.
    pub fn insert(&self, key: &PointKey, label: &str, results: &[SimResult]) -> Result<(), String> {
        let hex = key.hex();
        {
            let entries = self.entries.lock().expect("store lock poisoned");
            if entries.contains_key(&hex) {
                return Ok(());
            }
        }
        let point = PointFile::sealed(hex.clone(), label.to_owned(), key.clone(), results.to_vec());
        let unique = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        write_json_atomic_site(
            &self.point_path(&hex),
            &point,
            unique,
            Some(POINT_WRITE_SITE),
        )?;
        // Serialize manifest rewrites; re-check under the lock so exactly
        // one writer appends each key.
        let mut entries = self.entries.lock().expect("store lock poisoned");
        if entries.contains_key(&hex) {
            return Ok(());
        }
        entries.insert(
            hex.clone(),
            ManifestEntry {
                key: hex,
                label: label.to_owned(),
                workloads: results.len() as u64,
            },
        );
        let manifest = Manifest::sealed(STORE_VERSION, entries.values().cloned().collect());
        write_json_atomic_site(
            &self.dir.join(MANIFEST_NAME),
            &manifest,
            unique,
            Some(MANIFEST_WRITE_SITE),
        )
    }
}

/// Fault site name for point-file writes (see [`crate::fault`]).
const POINT_WRITE_SITE: &str = "store.point.write";
/// Fault site name for manifest rewrites.
const MANIFEST_WRITE_SITE: &str = "store.manifest.write";
/// Fault site name for point-file reads.
const POINT_READ_SITE: &str = "store.point.read";

/// Writes `value` as pretty JSON to `path` via a temp file and rename, so a
/// reader never observes a half-written file. `unique` disambiguates temp
/// names when several writers in one process target sibling paths (pass any
/// counter; the pid is already part of the temp name). Shared with the
/// `elsq-serve` job journal, which needs the same crash-safe update rule.
///
/// Durability: the temp file is fsync'd before the rename and the
/// containing directory is fsync'd after it, so a crash immediately after
/// this returns cannot lose either the contents or the rename itself.
pub fn write_json_atomic<T: Serialize>(path: &Path, value: &T, unique: u64) -> Result<(), String> {
    write_json_atomic_site(path, value, unique, None)
}

/// [`write_json_atomic`] with a named fault-injection site: when a fault
/// plan arms a write fault at `site`, this is where it strikes (see
/// [`crate::fault`] for the action semantics). `site: None` writes are not
/// instrumented.
pub fn write_json_atomic_site<T: Serialize>(
    path: &Path,
    value: &T,
    unique: u64,
    site: Option<&str>,
) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize: {e}"))?;
    let mut bytes = json.into_bytes();
    if let Some(site) = site {
        if let Some(injected) = fault::fire(site) {
            match injected.action {
                // A crash before this write: nothing lands on disk and the
                // caller proceeds as if it had (the orphan-adoption window).
                fault::FaultAction::Lost => return Ok(()),
                fault::FaultAction::Enospc => {
                    return Err(format!(
                        "cannot write {}: injected ENOSPC (no space left on device)",
                        path.display()
                    ));
                }
                // A crash mid-write: a strict prefix lands directly in the
                // final file (no rename happened) and the write errors.
                fault::FaultAction::Torn => {
                    let keep = fault::torn_len(bytes.len(), injected.seed);
                    std::fs::write(path, &bytes[..keep])
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    return Err(format!(
                        "cannot write {}: injected torn write left {keep} of {} bytes",
                        path.display(),
                        bytes.len()
                    ));
                }
                fault::FaultAction::BitFlip => fault::flip_bit(&mut bytes, injected.seed),
                other => {
                    return Err(format!(
                        "fault action {other:?} is not a write fault (site {site})"
                    ));
                }
            }
        }
    }
    let tmp = path.with_extension(format!("tmp.{}.{unique}", std::process::id()));
    durable_write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot move {} into place: {e}", tmp.display()))?;
    sync_parent_dir(path)
}

/// Creates `path`, writes `bytes`, and fsyncs the file so the contents are
/// durable before any rename publishes them.
fn durable_write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut file =
        std::fs::File::create(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    file.write_all(bytes)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    file.sync_all()
        .map_err(|e| format!("cannot fsync {}: {e}", path.display()))
}

/// Fsyncs the directory containing `path`, making a just-performed rename
/// durable (on unix; a no-op elsewhere, where directories cannot be opened
/// for syncing).
fn sync_parent_dir(path: &Path) -> Result<(), String> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let handle = std::fs::File::open(dir)
            .map_err(|e| format!("cannot open directory {} to fsync: {e}", dir.display()))?;
        handle
            .sync_all()
            .map_err(|e| format!("cannot fsync directory {}: {e}", dir.display()))?;
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_cpu::config::CpuConfig;
    use elsq_stats::report::ExperimentParams;
    use elsq_workload::suite::WorkloadClass;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "elsq-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn key(seed: u64) -> PointKey {
        PointKey {
            config: CpuConfig::ooo64(),
            class: WorkloadClass::Fp,
            commits: 100,
            seed,
            trace: None,
            sample: None,
        }
    }

    fn result() -> SimResult {
        let mut r = SimResult::new("w");
        r.sim.cycles = 10;
        r.sim.committed = 20;
        r
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let dir = tmp_dir("rt");
        let store = ResultStore::open(&dir, false).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.lookup(&key(1)).unwrap(), None);
        store.insert(&key(1), "p1", &[result()]).unwrap();
        assert_eq!(store.len(), 1);
        let back = store.lookup(&key(1)).unwrap().unwrap();
        assert_eq!(back, vec![result()]);
        assert_eq!((store.hits(), store.misses()), (1, 1));
        // Idempotent re-insert.
        store.insert(&key(1), "p1", &[result()]).unwrap();
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_requires_resume_and_preserves_points() {
        let dir = tmp_dir("resume");
        let store = ResultStore::open(&dir, false).unwrap();
        store.insert(&key(2), "p", &[result()]).unwrap();
        drop(store);
        let err = ResultStore::open(&dir, false).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.lookup(&key(2)).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_fails_loudly_even_with_resume() {
        let dir = tmp_dir("badmanifest");
        drop(ResultStore::open(&dir, false).unwrap());
        std::fs::write(dir.join(MANIFEST_NAME), "{not json").unwrap();
        for resume in [false, true] {
            let err = ResultStore::open(&dir, resume).unwrap_err();
            assert!(err.contains("corrupt"), "{err}");
            assert!(err.contains("refusing"), "{err}");
        }
        // The manifest was not recreated behind the error.
        assert_eq!(
            std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap(),
            "{not json"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_store_version_is_rejected() {
        let dir = tmp_dir("version");
        drop(ResultStore::open(&dir, false).unwrap());
        std::fs::write(
            dir.join(MANIFEST_NAME),
            "{\"version\": 99, \"points\": [], \"checksum\": 0}",
        )
        .unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listed_point_with_missing_or_tampered_file_is_an_error() {
        let dir = tmp_dir("missingpoint");
        let store = ResultStore::open(&dir, false).unwrap();
        store.insert(&key(3), "p", &[result()]).unwrap();
        let path = store.point_path(&key(3).hex());
        std::fs::remove_file(&path).unwrap();
        let err = store.lookup(&key(3)).unwrap_err();
        assert!(err.contains("cannot be read"), "{err}");
        // A point file whose content does not hash to its key is rejected.
        let other = PointFile::sealed(key(3).hex(), "p".into(), key(4), vec![result()]);
        std::fs::write(&path, serde_json::to_string(&other).unwrap()).unwrap();
        let err = store.lookup(&key(3)).unwrap_err();
        assert!(err.contains("does not match its key"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The key only covers the point's identity; a flipped bit in the
    /// *results* must be caught by the whole-file checksum.
    #[test]
    fn tampered_point_results_fail_the_checksum() {
        let dir = tmp_dir("tamperresults");
        let store = ResultStore::open(&dir, false).unwrap();
        store.insert(&key(6), "p", &[result()]).unwrap();
        let path = store.point_path(&key(6).hex());
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"cycles\": 10", "\"cycles\": 11", 1);
        assert_ne!(text, tampered, "the tamper must hit a results byte");
        std::fs::write(&path, tampered).unwrap();
        let err = store.lookup(&key(6)).unwrap_err();
        assert!(err.contains("fails its checksum"), "{err}");
        assert!(err.contains("point-"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_manifest_fails_the_checksum_on_open() {
        let dir = tmp_dir("tampermanifest");
        let store = ResultStore::open(&dir, false).unwrap();
        store.insert(&key(7), "orig-label", &[result()]).unwrap();
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        let tampered = text.replacen("orig-label", "evil-label", 1);
        assert_ne!(text, tampered);
        std::fs::write(&manifest_path, tampered).unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("fails its checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_with_a_deleted_point_file_fails_at_open_time() {
        let dir = tmp_dir("deleted");
        let store = ResultStore::open(&dir, false).unwrap();
        store.insert(&key(5), "p", &[result()]).unwrap();
        let path = store.point_path(&key(5).hex());
        drop(store);
        std::fs::remove_file(&path).unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Simulates a run killed between a point write and its manifest
    /// update by delisting one inserted point from the manifest: the next
    /// open verifies the orphan, adopts it, and makes the adoption durable
    /// — the interrupted computation is never silently redone.
    #[test]
    fn valid_orphan_is_adopted_on_resume_not_recomputed() {
        let dir = tmp_dir("adopt");
        let store = ResultStore::open(&dir, false).unwrap();
        store.insert(&key(1), "kept", &[result()]).unwrap();
        store.insert(&key(2), "orphaned", &[result()]).unwrap();
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut manifest: Manifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        manifest.points.retain(|p| p.key != key(2).hex());
        let manifest = Manifest::sealed(manifest.version, manifest.points);
        std::fs::write(&manifest_path, serde_json::to_string(&manifest).unwrap()).unwrap();
        // An orphan still counts as cached data: reuse demands --resume.
        let err = ResultStore::open(&dir, false).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.len(), 2, "orphan adopted");
        assert_eq!(store.lookup(&key(2)).unwrap(), Some(vec![result()]));
        assert_eq!((store.hits(), store.misses()), (1, 0));
        drop(store);
        // The adoption was written back: the manifest lists both points.
        let manifest: Manifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(manifest.points.len(), 2);
        assert!(manifest
            .points
            .iter()
            .any(|p| p.key == key(2).hex() && p.label == "orphaned"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_orphan_fails_the_open_naming_the_file() {
        let dir = tmp_dir("badorphan");
        drop(ResultStore::open(&dir, false).unwrap());
        std::fs::write(dir.join("point-deadbeef.json"), "{not json").unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("point-deadbeef.json"), "{err}");
        assert!(err.contains("fails verification"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_whose_content_mismatches_its_name_fails_the_open() {
        let dir = tmp_dir("aliasorphan");
        drop(ResultStore::open(&dir, false).unwrap());
        // A well-formed point file planted under the wrong key's name.
        let point = PointFile::sealed(key(9).hex(), "p".into(), key(9), vec![result()]);
        let wrong_name = format!("point-{}.json", key(8).hex());
        std::fs::write(
            dir.join(&wrong_name),
            serde_json::to_string(&point).unwrap(),
        )
        .unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains(&wrong_name), "{err}");
        assert!(err.contains("claims"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_point_files_without_manifest_are_corrupt() {
        let dir = tmp_dir("orphan");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("point-00ff.json"), "{}").unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("no manifest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_writer_on_a_live_locked_store_fails_loudly() {
        let dir = tmp_dir("lock");
        let store = ResultStore::open(&dir, false).unwrap();
        // This process holds the lock (and is alive), so a second open —
        // even with --resume — must refuse, naming the holder.
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("locked by"), "{err}");
        assert!(err.contains(&std::process::id().to_string()), "{err}");
        drop(store);
        // Dropping the store released the lock; reopening succeeds.
        assert!(!dir.join(LOCK_NAME).exists());
        drop(ResultStore::open(&dir, true).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = tmp_dir("stalelock");
        drop(ResultStore::open(&dir, false).unwrap());
        // Plant a lock owned by a pid that cannot be alive.
        std::fs::write(dir.join(LOCK_NAME), format!("{}\n", u32::MAX)).unwrap();
        let store = ResultStore::open(&dir, true).unwrap();
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_lock_is_treated_as_live() {
        let dir = tmp_dir("garbagelock");
        drop(ResultStore::open(&dir, false).unwrap());
        std::fs::write(dir.join(LOCK_NAME), "not a pid\n").unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(err.contains("unreadable lock"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contains_does_not_touch_counters() {
        let dir = tmp_dir("contains");
        let store = ResultStore::open(&dir, false).unwrap();
        assert!(!store.contains(&key(1)));
        store.insert(&key(1), "p1", &[result()]).unwrap();
        assert!(store.contains(&key(1)));
        assert_eq!((store.hits(), store.misses()), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn params_feed_the_key() {
        let params = ExperimentParams {
            commits: 100,
            seed: 9,
            sample: None,
        };
        let k = PointKey::current(CpuConfig::ooo64(), WorkloadClass::Fp, &params);
        assert_eq!((k.commits, k.seed), (100, 9));
    }
}
