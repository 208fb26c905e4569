//! Device backends: in-memory (accounted) and filesystem.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use lsm_types::{Error, Result};
use parking_lot::{Mutex, RwLock};

use crate::stats::IoStats;

/// Identifies one file (sorted run, WAL segment, value-log segment) on a
/// backend. Ids are allocated by the backend and never reused.
pub type FileId = u64;

/// The device abstraction the rest of the system writes through.
///
/// Sorted runs are immutable, so the write path is blob-oriented
/// ([`Backend::write_blob`]); logs grow by [`Backend::append`]. All reads are
/// positional. Implementations charge every operation to their [`IoStats`].
pub trait Backend: Send + Sync {
    /// Persists `data` as a new immutable file and returns its id.
    fn write_blob(&self, data: &[u8]) -> Result<FileId>;

    /// Creates a new empty appendable file (WAL / value-log segment).
    fn create_appendable(&self) -> Result<FileId>;

    /// Appends `data` to an appendable file; returns the offset at which the
    /// data begins.
    fn append(&self, id: FileId, data: &[u8]) -> Result<u64>;

    /// Makes all bytes appended to `id` so far durable. Blob writes
    /// ([`Backend::write_blob`]) and metadata writes ([`Backend::put_meta`])
    /// are durable once they return; appends are only guaranteed to survive
    /// a power cut after `sync` returns `Ok` (see `FaultBackend`'s
    /// power-cut model, which is what gives this contract teeth in tests).
    fn sync(&self, id: FileId) -> Result<()>;

    /// Truncates an appendable file to `len` bytes (recovery discards torn
    /// tails with this). Growing a file is an error.
    fn truncate(&self, id: FileId, len: u64) -> Result<()>;

    /// Reads `len` bytes starting at `offset`.
    fn read(&self, id: FileId, offset: u64, len: usize) -> Result<Bytes>;

    /// The current length of the file in bytes.
    fn len(&self, id: FileId) -> Result<u64>;

    /// Deletes a file. Deleting a missing file is an error.
    fn delete(&self, id: FileId) -> Result<()>;

    /// Ids of all live data files, in no particular order (the basis for
    /// orphan cleanup and dangling-reference checks during recovery).
    fn list_files(&self) -> Vec<FileId>;

    /// Atomically persists a small named metadata blob (e.g. the manifest),
    /// replacing any previous value. Names must be simple file names —
    /// no path separators — and must not collide with data files.
    fn put_meta(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Reads back a named metadata blob; `Ok(None)` when absent.
    fn get_meta(&self, name: &str) -> Result<Option<Bytes>>;

    /// The I/O counters this backend charges.
    fn stats(&self) -> &IoStats;

    /// Total bytes currently stored across all live files (the basis for
    /// space-amplification measurements).
    fn total_bytes(&self) -> u64;

    /// Number of live files.
    fn file_count(&self) -> usize;
}

/// An in-memory device with exact page-level I/O accounting.
///
/// This is the default substrate for experiments: deterministic, fast, and
/// it measures exactly the logical I/O that LSM cost models predict.
pub struct MemBackend {
    files: RwLock<HashMap<FileId, Vec<u8>>>,
    meta: RwLock<HashMap<String, Vec<u8>>>,
    next_id: AtomicU64,
    stats: IoStats,
}

/// Rejects metadata names that could escape the backend directory or shadow
/// a data file (`<id>.lsm`).
fn validate_meta_name(name: &str) -> Result<()> {
    let simple = !name.is_empty()
        && !name.ends_with(".lsm")
        && !name.ends_with(".tmp")
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.starts_with('.');
    if simple {
        Ok(())
    } else {
        Err(Error::InvalidArgument(format!(
            "invalid metadata name {name:?}: must be a plain file name and \
             not use the .lsm/.tmp extensions"
        )))
    }
}

impl MemBackend {
    /// Creates an empty in-memory backend with fresh counters.
    pub fn new() -> Self {
        MemBackend {
            files: RwLock::new(HashMap::new()),
            meta: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats: IoStats::new(),
        }
    }

    /// Creates a backend charging to an existing counter set (lets several
    /// components share one measurement plane).
    pub fn with_stats(stats: IoStats) -> Self {
        MemBackend {
            files: RwLock::new(HashMap::new()),
            meta: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stats,
        }
    }

    fn alloc_id(&self) -> FileId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for MemBackend {
    fn write_blob(&self, data: &[u8]) -> Result<FileId> {
        let id = self.alloc_id();
        self.stats.charge_write(data.len());
        self.stats.charge_file_created();
        self.files.write().insert(id, data.to_vec());
        Ok(id)
    }

    fn create_appendable(&self) -> Result<FileId> {
        let id = self.alloc_id();
        self.stats.charge_file_created();
        self.files.write().insert(id, Vec::new());
        Ok(id)
    }

    fn append(&self, id: FileId, data: &[u8]) -> Result<u64> {
        let mut files = self.files.write();
        let file = files
            .get_mut(&id)
            .ok_or_else(|| Error::NotFound(format!("file {id}")))?;
        let offset = file.len() as u64;
        self.stats.charge_write(data.len());
        file.extend_from_slice(data);
        Ok(offset)
    }

    fn sync(&self, id: FileId) -> Result<()> {
        let files = self.files.read();
        if !files.contains_key(&id) {
            return Err(Error::NotFound(format!("file {id}")));
        }
        Ok(())
    }

    fn truncate(&self, id: FileId, len: u64) -> Result<()> {
        let mut files = self.files.write();
        let file = files
            .get_mut(&id)
            .ok_or_else(|| Error::NotFound(format!("file {id}")))?;
        if len > file.len() as u64 {
            return Err(Error::InvalidArgument(format!(
                "truncate cannot grow file {id}: {len} > {}",
                file.len()
            )));
        }
        file.truncate(len as usize);
        Ok(())
    }

    fn read(&self, id: FileId, offset: u64, len: usize) -> Result<Bytes> {
        let files = self.files.read();
        let file = files
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("file {id}")))?;
        let start = offset as usize;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= file.len())
            .ok_or_else(|| {
                Error::Corruption(format!(
                    "read past end of file {id}: offset {offset} len {len} file_len {}",
                    file.len()
                ))
            })?;
        self.stats.charge_read(offset, len);
        Ok(Bytes::copy_from_slice(&file[start..end]))
    }

    fn len(&self, id: FileId) -> Result<u64> {
        let files = self.files.read();
        files
            .get(&id)
            .map(|f| f.len() as u64)
            .ok_or_else(|| Error::NotFound(format!("file {id}")))
    }

    fn delete(&self, id: FileId) -> Result<()> {
        let removed = self.files.write().remove(&id);
        if removed.is_none() {
            return Err(Error::NotFound(format!("file {id}")));
        }
        self.stats.charge_file_deleted();
        Ok(())
    }

    fn list_files(&self) -> Vec<FileId> {
        self.files.read().keys().copied().collect()
    }

    fn put_meta(&self, name: &str, data: &[u8]) -> Result<()> {
        validate_meta_name(name)?;
        self.stats.charge_write(data.len());
        self.meta.write().insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn get_meta(&self, name: &str) -> Result<Option<Bytes>> {
        validate_meta_name(name)?;
        let meta = self.meta.read();
        let Some(data) = meta.get(name) else {
            return Ok(None);
        };
        self.stats.charge_read(0, data.len());
        Ok(Some(Bytes::copy_from_slice(data)))
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|f| f.len() as u64).sum()
    }

    fn file_count(&self) -> usize {
        self.files.read().len()
    }
}

/// The canonical on-disk layout of one shard of a sharded database:
/// `<root>/shard-000`, `<root>/shard-001`, … Each shard directory holds a
/// complete, self-contained [`FsBackend`] (its own WAL segments, tables,
/// and manifest blob), so a single shard can also be opened standalone as
/// a plain database for inspection.
pub fn shard_dir(root: impl Into<PathBuf>, index: usize) -> PathBuf {
    root.into().join(format!("shard-{index:03}"))
}

/// The same interface over real files in a directory.
///
/// Each `FileId` maps to `<dir>/<id>.lsm`. Open handles are cached in two
/// maps, each behind one mutex held across the I/O it serves: `handles`
/// for reads (positional via seek, so readers serialize — adequate because
/// experiments default to [`MemBackend`]) and `append_handles` for
/// appends, syncs and truncations. The split keeps the write path off the
/// read path's lock: a WAL append never queues behind a compaction's block
/// read, nor the read behind the append.
pub struct FsBackend {
    dir: PathBuf,
    handles: Mutex<HashMap<FileId, File>>,
    append_handles: Mutex<HashMap<FileId, File>>,
    next_id: AtomicU64,
    stats: IoStats,
}

impl FsBackend {
    /// Opens (creating if needed) a backend rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Resume id allocation above any existing file, so re-opening a
        // directory never clobbers previous runs.
        let mut max_id = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if let Some(stem) = name.to_string_lossy().strip_suffix(".lsm") {
                if let Ok(id) = stem.parse::<u64>() {
                    max_id = max_id.max(id);
                }
            }
        }
        Ok(FsBackend {
            dir,
            handles: Mutex::new(HashMap::new()),
            append_handles: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(max_id + 1),
            stats: IoStats::new(),
        })
    }

    fn path(&self, id: FileId) -> PathBuf {
        self.dir.join(format!("{id}.lsm"))
    }

    fn open_handle(&self, id: FileId) -> Result<File> {
        OpenOptions::new()
            .read(true)
            .append(true)
            .open(self.path(id))
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::NotFound => Error::NotFound(format!("file {id}")),
                _ => Error::Io(e),
            })
    }

    /// Runs `f` on file `id`'s cached handle in `map` (opened on first
    /// use), holding `map`'s lock throughout.
    fn with_handle<T>(
        &self,
        map: &Mutex<HashMap<FileId, File>>,
        id: FileId,
        f: impl FnOnce(&mut File) -> Result<T>,
    ) -> Result<T> {
        let mut handles = map.lock();
        let file = match handles.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => v.insert(self.open_handle(id)?),
        };
        f(file)
    }
}

impl Backend for FsBackend {
    fn write_blob(&self, data: &[u8]) -> Result<FileId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut file = File::create(self.path(id))?;
        file.write_all(data)?;
        file.sync_data()?;
        self.stats.charge_write(data.len());
        self.stats.charge_file_created();
        Ok(id)
    }

    fn create_appendable(&self) -> Result<FileId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Create, then reopen read+append so the cached handle serves both
        // later appends and reads.
        File::create(self.path(id))?;
        let file = self.open_handle(id)?;
        self.stats.charge_file_created();
        self.append_handles.lock().insert(id, file);
        Ok(id)
    }

    fn append(&self, id: FileId, data: &[u8]) -> Result<u64> {
        self.stats.charge_write(data.len());
        self.with_handle(&self.append_handles, id, |file| {
            let offset = file.seek(SeekFrom::End(0))?;
            file.write_all(data)?;
            Ok(offset)
        })
    }

    fn sync(&self, id: FileId) -> Result<()> {
        self.with_handle(&self.append_handles, id, |file| {
            file.sync_data()?;
            Ok(())
        })
    }

    fn truncate(&self, id: FileId, len: u64) -> Result<()> {
        self.with_handle(&self.append_handles, id, |file| {
            let current = file.metadata()?.len();
            if len > current {
                return Err(Error::InvalidArgument(format!(
                    "truncate cannot grow file {id}: {len} > {current}"
                )));
            }
            file.set_len(len)?;
            Ok(())
        })
    }

    fn read(&self, id: FileId, offset: u64, len: usize) -> Result<Bytes> {
        self.stats.charge_read(offset, len);
        self.with_handle(&self.handles, id, |file| {
            file.seek(SeekFrom::Start(offset))?;
            let mut buf = vec![0u8; len];
            file.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    Error::Corruption(format!("read past end of file {id}"))
                } else {
                    Error::Io(e)
                }
            })?;
            Ok(Bytes::from(buf))
        })
    }

    fn len(&self, id: FileId) -> Result<u64> {
        self.with_handle(&self.handles, id, |file| Ok(file.metadata()?.len()))
    }

    fn delete(&self, id: FileId) -> Result<()> {
        self.handles.lock().remove(&id);
        self.append_handles.lock().remove(&id);
        std::fs::remove_file(self.path(id)).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Error::NotFound(format!("file {id}")),
            _ => Error::Io(e),
        })?;
        self.stats.charge_file_deleted();
        Ok(())
    }

    fn list_files(&self) -> Vec<FileId> {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_string_lossy()
                    .strip_suffix(".lsm")
                    .and_then(|stem| stem.parse::<u64>().ok())
            })
            .collect()
    }

    fn put_meta(&self, name: &str, data: &[u8]) -> Result<()> {
        validate_meta_name(name)?;
        // Write-then-rename so a crash mid-write never clobbers the
        // previous value: the replacement is atomic at the directory level.
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut file = File::create(&tmp)?;
        file.write_all(data)?;
        file.sync_data()?;
        std::fs::rename(&tmp, self.dir.join(name))?;
        self.stats.charge_write(data.len());
        Ok(())
    }

    fn get_meta(&self, name: &str) -> Result<Option<Bytes>> {
        validate_meta_name(name)?;
        match std::fs::read(self.dir.join(name)) {
            Ok(data) => {
                self.stats.charge_read(0, data.len());
                Ok(Some(Bytes::from(data)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Error::Io(e)),
        }
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn total_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    fn file_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "lsm"))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend_contract(b: &dyn Backend) {
        // blob write + read back
        let id = b.write_blob(b"hello world").unwrap();
        assert_eq!(b.len(id).unwrap(), 11);
        assert_eq!(&b.read(id, 0, 5).unwrap()[..], b"hello");
        assert_eq!(&b.read(id, 6, 5).unwrap()[..], b"world");
        assert!(b.read(id, 8, 10).is_err(), "read past end must fail");

        // appendable
        let log = b.create_appendable().unwrap();
        assert_eq!(b.append(log, b"aaaa").unwrap(), 0);
        assert_eq!(b.append(log, b"bb").unwrap(), 4);
        assert_eq!(b.len(log).unwrap(), 6);
        assert_eq!(&b.read(log, 4, 2).unwrap()[..], b"bb");

        // sync + truncate
        b.sync(log).unwrap();
        b.truncate(log, 4).unwrap();
        assert_eq!(b.len(log).unwrap(), 4);
        assert!(b.truncate(log, 10).is_err(), "truncate must not grow");
        assert_eq!(b.append(log, b"cc").unwrap(), 4);
        b.truncate(log, 6).unwrap();
        assert!(b.sync(999_999).is_err(), "sync of a missing file fails");

        // enumeration
        let mut listed = b.list_files();
        listed.sort_unstable();
        assert_eq!(listed, vec![id, log]);

        // delete
        b.delete(id).unwrap();
        assert!(b.read(id, 0, 1).is_err());
        assert!(b.delete(id).is_err(), "double delete must fail");

        // named metadata
        assert!(b.get_meta("MANIFEST").unwrap().is_none());
        b.put_meta("MANIFEST", b"v1").unwrap();
        assert_eq!(&b.get_meta("MANIFEST").unwrap().unwrap()[..], b"v1");
        b.put_meta("MANIFEST", b"v2-longer").unwrap();
        assert_eq!(&b.get_meta("MANIFEST").unwrap().unwrap()[..], b"v2-longer");
        assert!(b.put_meta("../escape", b"x").is_err());
        assert!(b.put_meta("1.lsm", b"x").is_err());
    }

    #[test]
    fn mem_backend_contract() {
        let b = MemBackend::new();
        backend_contract(&b);
        assert_eq!(b.file_count(), 1); // only the log remains
        assert_eq!(b.total_bytes(), 6);
    }

    #[test]
    fn fs_backend_contract() {
        let dir = std::env::temp_dir().join(format!("lsmlab-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FsBackend::open(&dir).unwrap();
        backend_contract(&b);
        assert_eq!(b.file_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_backend_resumes_ids() {
        let dir = std::env::temp_dir().join(format!("lsmlab-fsr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first_id;
        {
            let b = FsBackend::open(&dir).unwrap();
            first_id = b.write_blob(b"one").unwrap();
        }
        {
            let b = FsBackend::open(&dir).unwrap();
            let second_id = b.write_blob(b"two").unwrap();
            assert!(second_id > first_id, "ids must not be reused across opens");
            assert_eq!(&b.read(first_id, 0, 3).unwrap()[..], b"one");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_backend_charges_stats() {
        let b = MemBackend::new();
        let id = b.write_blob(&[0u8; 8192]).unwrap();
        b.read(id, 0, 4096).unwrap();
        b.read(id, 4000, 200).unwrap(); // spans 2 pages
        let s = b.stats().snapshot();
        assert_eq!(s.write_pages, 2);
        assert_eq!(s.read_pages, 1 + 2);
        assert_eq!(s.files_created, 1);
    }

    #[test]
    fn stats_sharing() {
        let stats = IoStats::new();
        let a = MemBackend::with_stats(stats.clone());
        let b = MemBackend::with_stats(stats.clone());
        a.write_blob(&[0; 100]).unwrap();
        b.write_blob(&[0; 100]).unwrap();
        assert_eq!(stats.snapshot().files_created, 2);
    }
}
