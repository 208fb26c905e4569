//! The value log: segmented, append-only value storage.
//!
//! Records are individually checksummed (`u32 crc32c(body) | body`, body =
//! len-prefixed key then value) so a torn tail — a power cut mid-append —
//! truncates cleanly on reopen instead of surfacing garbage. In durable
//! mode ([`ValueLog::open_durable`]) the segment roster (sealed list +
//! active head) persists in the backend's `VLOG` metadata blob and every
//! append syncs before returning, so a pointer acknowledged by the tree
//! never references bytes that a crash can take away.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsm_obs::{HistKind, ObsHandle};
use lsm_storage::{Backend, FileId};
use lsm_sync::{ranks, OrderedMutex};
use lsm_types::encoding::{put_len_prefixed, put_u64, put_varint, Decoder};
use lsm_types::{checksum, Error, Result, Value};

/// Name of the backend metadata blob holding the segment roster.
const VLOG_META: &str = "VLOG";

/// Magic prefix of the roster blob.
const VLOG_MAGIC: u64 = 0x4c53_4d56_4c4f_4701;

/// Bytes of the per-record checksum header.
const RECORD_CRC: usize = 4;

/// Locates one value inside the log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValuePointer {
    /// Log segment file.
    pub segment: FileId,
    /// Byte offset of the record within the segment.
    pub offset: u64,
    /// Encoded record length in bytes (checksum included).
    pub len: u32,
}

impl ValuePointer {
    /// Appends the wire form (`varint segment | varint offset | varint len`).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        lsm_types::encoding::put_varint(buf, self.segment);
        lsm_types::encoding::put_varint(buf, self.offset);
        lsm_types::encoding::put_varint(buf, self.len as u64);
    }

    /// Parses the wire form.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(data);
        Ok(ValuePointer {
            segment: dec.varint()?,
            offset: dec.varint()?,
            len: dec.varint()? as u32,
        })
    }
}

/// Value-log statistics.
#[derive(Clone, Copy, Default, Debug)]
pub struct VlogStats {
    /// Records appended (including GC relocations).
    pub records_appended: u64,
    /// Bytes appended (including GC relocations).
    pub bytes_appended: u64,
    /// Segments deleted by garbage collection.
    pub segments_reclaimed: u64,
}

/// What [`ValueLog::open_durable`] found on reopen.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VlogRecovery {
    /// Sealed segments restored from the roster.
    pub sealed_recovered: usize,
    /// Roster segments whose file was already gone (collected before the
    /// crash finished updating the roster).
    pub segments_missing: usize,
    /// Bytes of torn tail truncated from the active segment.
    pub tail_bytes_truncated: u64,
}

struct VlogState {
    /// Sealed segments, oldest first.
    sealed: VecDeque<FileId>,
    /// Segments handed out for garbage collection but not yet deleted.
    /// Still part of the durable roster: tree pointers may reference them
    /// until every live record is relocated and the file removed.
    collecting: Vec<FileId>,
    active: FileId,
    active_bytes: u64,
}

/// A segmented append-only value store.
pub struct ValueLog {
    backend: Arc<dyn Backend>,
    state: OrderedMutex<VlogState>,
    segment_target_bytes: u64,
    /// Sync every append before returning its pointer (durable mode).
    sync_appends: bool,
    /// Rewrite the `VLOG` roster blob on every structural change.
    persist_meta: bool,
    recovery: OrderedMutex<Option<VlogRecovery>>,
    records_appended: AtomicU64,
    bytes_appended: AtomicU64,
    segments_reclaimed: AtomicU64,
    /// Latency recording (atomics only; disabled by default — attach a
    /// shared handle with [`ValueLog::with_obs`]).
    obs: ObsHandle,
}

/// Frames one record: `crc32c(body) | len-prefixed key | len-prefixed value`.
fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(key.len() + value.len() + 10);
    put_len_prefixed(&mut body, key);
    put_len_prefixed(&mut body, value);
    let mut record = Vec::with_capacity(RECORD_CRC + body.len());
    record.extend_from_slice(&checksum::crc32c(&body).to_le_bytes());
    record.extend_from_slice(&body);
    record
}

/// A decoded value-log record: key, value, and the pointer that locates it.
type ParsedRecord = (Vec<u8>, Vec<u8>, ValuePointer);

/// Parses every intact record of a segment prefix. Returns the records and
/// the byte length of the valid prefix; parsing stops (without error) at
/// the first torn or corrupt record.
fn parse_records(data: &[u8], segment: FileId) -> (Vec<ParsedRecord>, u64) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset + RECORD_CRC < data.len() {
        let crc = u32::from_le_bytes(
            data[offset..offset + RECORD_CRC]
                .try_into()
                .unwrap_or([0; 4]),
        );
        let body = &data[offset + RECORD_CRC..];
        let mut dec = Decoder::new(body);
        let Ok(key) = dec.len_prefixed() else { break };
        let key = key.to_vec();
        let Ok(value) = dec.len_prefixed() else { break };
        let value = value.to_vec();
        let body_len = body.len() - dec.remaining();
        if !checksum::verify(&body[..body_len], crc) {
            break;
        }
        let len = RECORD_CRC + body_len;
        records.push((
            key,
            value,
            ValuePointer {
                segment,
                offset: offset as u64,
                len: len as u32,
            },
        ));
        offset += len;
    }
    (records, offset as u64)
}

impl ValueLog {
    /// Creates an empty, non-durable log (no roster persistence, no sync
    /// per append) with segments of roughly `segment_target_bytes` — the
    /// experiment-substrate mode.
    pub fn new(backend: Arc<dyn Backend>, segment_target_bytes: u64) -> Result<Self> {
        let active = backend.create_appendable()?;
        Ok(Self::assemble(
            backend,
            segment_target_bytes,
            VlogState {
                sealed: VecDeque::new(),
                collecting: Vec::new(),
                active,
                active_bytes: 0,
            },
            false,
            false,
            None,
        ))
    }

    /// Opens (creating or recovering) a durable log: the segment roster is
    /// persisted in the backend's `VLOG` metadata blob, every append syncs
    /// before its pointer is returned, and reopen scans the active
    /// segment's tail — truncating any torn final record — and tolerates
    /// roster segments whose file is already gone.
    pub fn open_durable(backend: Arc<dyn Backend>, segment_target_bytes: u64) -> Result<Self> {
        let Some(meta) = backend.get_meta(VLOG_META)? else {
            let active = backend.create_appendable()?;
            let log = Self::assemble(
                backend,
                segment_target_bytes,
                VlogState {
                    sealed: VecDeque::new(),
                    collecting: Vec::new(),
                    active,
                    active_bytes: 0,
                },
                true,
                true,
                None,
            );
            log.persist()?;
            return Ok(log);
        };
        let (roster_sealed, roster_active) = Self::decode_meta(&meta)?;
        let mut recovery = VlogRecovery::default();
        let mut sealed = VecDeque::new();
        for id in roster_sealed {
            match backend.len(id) {
                Ok(_) => {
                    sealed.push_back(id);
                    recovery.sealed_recovered += 1;
                }
                Err(Error::NotFound(_)) => recovery.segments_missing += 1,
                Err(e) => return Err(e),
            }
        }
        // Scan the active segment's tail; a power cut may have torn the
        // final record or discarded the whole file.
        let (active, active_bytes) = match backend.len(roster_active) {
            Ok(len) => {
                let data = backend.read(roster_active, 0, len as usize)?;
                let (_, valid) = parse_records(&data, roster_active);
                if valid < len {
                    backend.truncate(roster_active, valid)?;
                    recovery.tail_bytes_truncated = len - valid;
                }
                (roster_active, valid)
            }
            Err(Error::NotFound(_)) => {
                recovery.segments_missing += 1;
                (backend.create_appendable()?, 0)
            }
            Err(e) => return Err(e),
        };
        let log = Self::assemble(
            backend,
            segment_target_bytes,
            VlogState {
                sealed,
                collecting: Vec::new(),
                active,
                active_bytes,
            },
            true,
            true,
            Some(recovery),
        );
        log.persist()?;
        Ok(log)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        backend: Arc<dyn Backend>,
        segment_target_bytes: u64,
        state: VlogState,
        sync_appends: bool,
        persist_meta: bool,
        recovery: Option<VlogRecovery>,
    ) -> Self {
        ValueLog {
            backend,
            state: OrderedMutex::new(ranks::VLOG_STATE, state),
            segment_target_bytes: segment_target_bytes.max(1),
            sync_appends,
            persist_meta,
            recovery: OrderedMutex::new(ranks::VLOG_RECOVERY, recovery),
            records_appended: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
            segments_reclaimed: AtomicU64::new(0),
            obs: ObsHandle::disabled(),
        }
    }

    /// Records append latency into `obs` (the engine's handle, so vlog
    /// timings land next to the tree's in one surface).
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// What reopen found, when this log came from [`ValueLog::open_durable`]
    /// over an existing roster.
    pub fn recovery(&self) -> Option<VlogRecovery> {
        *self.recovery.lock()
    }

    /// Every segment the log owns (sealed, collecting, active) — the set a
    /// [`Db::clean_orphans`](lsm_core::Db::clean_orphans) caller must
    /// protect.
    pub fn segments(&self) -> Vec<FileId> {
        let state = self.state.lock();
        let mut out: Vec<FileId> = state.sealed.iter().copied().collect();
        out.extend(state.collecting.iter().copied());
        out.push(state.active);
        out
    }

    fn encode_meta(state: &VlogState) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        put_u64(&mut buf, VLOG_MAGIC);
        // Collecting segments stay in the durable roster until deleted:
        // the tree may still point into them mid-GC.
        put_varint(
            &mut buf,
            (state.sealed.len() + state.collecting.len()) as u64,
        );
        for &id in state.collecting.iter().chain(state.sealed.iter()) {
            put_varint(&mut buf, id);
        }
        put_varint(&mut buf, state.active);
        checksum::seal(&mut buf, 0);
        buf
    }

    fn decode_meta(data: &[u8]) -> Result<(Vec<FileId>, FileId)> {
        let mut dec = Decoder::new(checksum::open(data)?);
        if dec.u64()? != VLOG_MAGIC {
            return Err(Error::Corruption("bad vlog roster magic".into()));
        }
        let n = dec.varint()? as usize;
        let mut sealed = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            sealed.push(dec.varint()?);
        }
        let active = dec.varint()?;
        Ok((sealed, active))
    }

    /// Rewrites the roster blob (no-op outside durable mode).
    fn persist(&self) -> Result<()> {
        if self.persist_meta {
            let bytes = {
                let state = self.state.lock();
                Self::encode_meta(&state)
            };
            self.backend.put_meta(VLOG_META, &bytes)?;
        }
        Ok(())
    }

    /// Appends a `(key, value)` record; returns its pointer. The key is
    /// stored alongside the value so garbage collection can probe liveness.
    /// In durable mode the record is synced before the pointer is returned.
    pub fn append(&self, key: &[u8], value: &[u8]) -> Result<ValuePointer> {
        // Declared before the state guard so it drops after: the sample
        // covers the lock wait plus the append (and sync, in durable mode).
        let _t = self.obs.timer(HistKind::VlogAppend);
        let record = encode_record(key, value);

        let mut state = self.state.lock();
        if state.active_bytes >= self.segment_target_bytes {
            // Rolling the active segment must be atomic with the roster
            // update; the lock is held across the file create by design.
            // lsm-lint: allow(io-under-lock)
            let fresh = self.backend.create_appendable()?;
            let old = std::mem::replace(&mut state.active, fresh);
            state.sealed.push_back(old);
            state.active_bytes = 0;
            if self.persist_meta {
                let bytes = Self::encode_meta(&state);
                // Roster rewrite must see the rolled state before any
                // concurrent append observes the fresh segment.
                // lsm-lint: allow(io-under-lock)
                self.backend.put_meta(VLOG_META, &bytes)?;
            }
        }
        let segment = state.active;
        // Appends are serialized under the state lock so offsets within a
        // segment are assigned in order; this is the vlog's write path.
        // lsm-lint: allow(io-under-lock)
        let offset = self.backend.append(segment, &record)?;
        if self.sync_appends {
            // Durable mode: the pointer must not escape before the sync.
            // lsm-lint: allow(io-under-lock)
            self.backend.sync(segment)?;
        }
        state.active_bytes += record.len() as u64;
        drop(state);

        self.records_appended.fetch_add(1, Ordering::Relaxed);
        self.bytes_appended
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(ValuePointer {
            segment,
            offset,
            len: record.len() as u32,
        })
    }

    /// Reads and checksum-verifies the value a pointer refers to.
    pub fn read(&self, ptr: &ValuePointer) -> Result<Value> {
        let raw = self
            .backend
            .read(ptr.segment, ptr.offset, ptr.len as usize)?;
        if raw.len() < RECORD_CRC {
            return Err(Error::Corruption("vlog record shorter than header".into()));
        }
        let crc = u32::from_le_bytes(
            raw[..RECORD_CRC]
                .try_into()
                .map_err(|_| Error::Corruption("vlog record header truncated".into()))?,
        );
        let body = &raw[RECORD_CRC..];
        if !checksum::verify(body, crc) {
            return Err(Error::Corruption(format!(
                "vlog record checksum mismatch (segment {}, offset {})",
                ptr.segment, ptr.offset
            )));
        }
        let mut dec = Decoder::new(body);
        let _key = dec.len_prefixed()?;
        let value = dec.len_prefixed()?;
        Ok(Value::copy_from_slice(value))
    }

    /// Takes the oldest **sealed** segment out of rotation and parses its
    /// records for garbage collection. Returns `None` when no sealed
    /// segment exists — the active head is never collected, so repeated GC
    /// terminates once only live, freshly-relocated data remains.
    ///
    /// The segment stays in the durable roster (it moves to a `collecting`
    /// list) until [`delete_segment`](ValueLog::delete_segment) — a crash
    /// mid-GC must not orphan a file that live pointers still reference.
    #[allow(clippy::type_complexity)]
    pub fn seal_oldest_segment(
        &self,
    ) -> Result<Option<(FileId, Vec<(Vec<u8>, Vec<u8>, ValuePointer)>)>> {
        let segment = {
            let mut state = self.state.lock();
            match state.sealed.pop_front() {
                Some(s) => {
                    state.collecting.push(s);
                    s
                }
                None => return Ok(None),
            }
        };
        let len = self.backend.len(segment)?;
        let data = self.backend.read(segment, 0, len as usize)?;
        let (records, _) = parse_records(&data, segment);
        Ok(Some((segment, records)))
    }

    /// Deletes a fully-collected segment and drops it from the roster.
    pub fn delete_segment(&self, segment: FileId) -> Result<()> {
        match self.backend.delete(segment) {
            Ok(()) | Err(Error::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
        {
            let mut state = self.state.lock();
            state.collecting.retain(|&s| s != segment);
            state.sealed.retain(|&s| s != segment);
        }
        self.persist()?;
        self.segments_reclaimed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of live segments (sealed + collecting + active).
    pub fn segment_count(&self) -> usize {
        let state = self.state.lock();
        state.sealed.len() + state.collecting.len() + 1
    }

    /// Log statistics.
    pub fn stats(&self) -> VlogStats {
        VlogStats {
            records_appended: self.records_appended.load(Ordering::Relaxed),
            bytes_appended: self.bytes_appended.load(Ordering::Relaxed),
            segments_reclaimed: self.segments_reclaimed.load(Ordering::Relaxed),
        }
    }

    /// Total bytes across live segments (space-amplification input).
    pub fn live_bytes(&self) -> u64 {
        // Snapshot the roster under the lock, then size the segments with
        // the lock released — backend calls may block and must not stall
        // concurrent appends.
        let (active_bytes, segments) = {
            let state = self.state.lock();
            let ids: Vec<FileId> = state
                .sealed
                .iter()
                .chain(state.collecting.iter())
                .copied()
                .collect();
            (state.active_bytes, ids)
        };
        let mut total = active_bytes;
        for s in segments {
            total += self.backend.len(s).unwrap_or(0);
        }
        total
    }
}

impl std::fmt::Debug for ValueLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueLog")
            .field("segments", &self.segment_count())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::MemBackend;

    fn new_log(target: u64) -> ValueLog {
        ValueLog::new(Arc::new(MemBackend::new()), target).unwrap()
    }

    #[test]
    fn append_read_roundtrip() {
        let log = new_log(1 << 20);
        let p1 = log.append(b"k1", b"value-one").unwrap();
        let p2 = log.append(b"k2", b"value-two").unwrap();
        assert_eq!(&log.read(&p1).unwrap()[..], b"value-one");
        assert_eq!(&log.read(&p2).unwrap()[..], b"value-two");
        assert_eq!(log.stats().records_appended, 2);
    }

    #[test]
    fn segments_roll_at_target() {
        let log = new_log(100);
        for i in 0..20u32 {
            log.append(format!("key{i}").as_bytes(), &[b'v'; 40])
                .unwrap();
        }
        assert!(log.segment_count() > 1);
    }

    #[test]
    fn pointer_wire_roundtrip() {
        let p = ValuePointer {
            segment: 7,
            offset: 123456,
            len: 789,
        };
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        assert_eq!(ValuePointer::decode(&buf).unwrap(), p);
        assert!(ValuePointer::decode(&[0x80]).is_err());
    }

    #[test]
    fn corrupt_record_fails_read() {
        let backend = Arc::new(MemBackend::new());
        let log = ValueLog::new(backend.clone(), 1 << 20).unwrap();
        let p = log.append(b"key", b"value").unwrap();
        // Flip a byte of the value in place via truncate+append.
        let raw = backend.read(p.segment, 0, p.len as usize).unwrap();
        let mut broken = raw.to_vec();
        let last = broken.len() - 1;
        broken[last] ^= 0xff;
        backend.truncate(p.segment, 0).unwrap();
        backend.append(p.segment, &broken).unwrap();
        assert!(log.read(&p).unwrap_err().is_corruption());
    }

    #[test]
    fn seal_parses_all_records() {
        let log = new_log(200);
        let mut pointers = Vec::new();
        for i in 0..10u32 {
            pointers.push(
                log.append(format!("key{i}").as_bytes(), &[b'v'; 50])
                    .unwrap(),
            );
        }
        let (seg, records) = log.seal_oldest_segment().unwrap().unwrap();
        assert!(!records.is_empty());
        for (key, value, ptr) in &records {
            assert!(key.starts_with(b"key"));
            assert_eq!(value.len(), 50);
            assert_eq!(ptr.segment, seg);
            // the parsed pointer matches an original append
            assert!(pointers.contains(ptr));
        }
        log.delete_segment(seg).unwrap();
        assert_eq!(log.stats().segments_reclaimed, 1);
    }

    #[test]
    fn empty_log_has_nothing_to_seal() {
        let log = new_log(100);
        assert!(log.seal_oldest_segment().unwrap().is_none());
    }

    #[test]
    fn durable_log_recovers_roster_and_data() {
        let backend = Arc::new(MemBackend::new());
        let mut pointers = Vec::new();
        {
            let log = ValueLog::open_durable(backend.clone(), 120).unwrap();
            assert!(log.recovery().is_none(), "fresh log has no recovery");
            for i in 0..10u32 {
                pointers.push((
                    i,
                    log.append(format!("k{i}").as_bytes(), &[b'v'; 40]).unwrap(),
                ));
            }
            assert!(log.segment_count() > 1);
        }
        let log = ValueLog::open_durable(backend, 120).unwrap();
        let rec = log.recovery().unwrap();
        assert_eq!(rec.segments_missing, 0);
        assert_eq!(rec.tail_bytes_truncated, 0);
        for (i, p) in &pointers {
            assert_eq!(&log.read(p).unwrap()[..], &[b'v'; 40], "k{i}");
        }
    }

    #[test]
    fn reopen_truncates_torn_active_tail() {
        let backend = Arc::new(MemBackend::new());
        let (keep, seg) = {
            let log = ValueLog::open_durable(backend.clone(), 1 << 20).unwrap();
            let keep = log.append(b"durable", b"value-kept").unwrap();
            (keep, keep.segment)
        };
        // A torn append: half a record at the tail.
        let torn = encode_record(b"torn-key", &[b'x'; 64]);
        backend.append(seg, &torn[..torn.len() / 2]).unwrap();

        let log = ValueLog::open_durable(backend.clone(), 1 << 20).unwrap();
        let rec = log.recovery().unwrap();
        assert_eq!(rec.tail_bytes_truncated, (torn.len() / 2) as u64);
        assert_eq!(&log.read(&keep).unwrap()[..], b"value-kept");
        // The tail is gone physically: appending next lands at the cut.
        let next = log.append(b"after", b"recovery").unwrap();
        assert_eq!(next.offset, keep.offset + keep.len as u64);
    }

    #[test]
    fn collecting_segments_stay_in_roster_until_deleted() {
        let backend = Arc::new(MemBackend::new());
        let log = ValueLog::open_durable(backend.clone(), 100).unwrap();
        for i in 0..10u32 {
            log.append(format!("k{i}").as_bytes(), &[b'v'; 40]).unwrap();
        }
        let (seg, _) = log.seal_oldest_segment().unwrap().unwrap();
        assert!(
            log.segments().contains(&seg),
            "mid-GC segment must stay protected"
        );
        let (roster, _) =
            ValueLog::decode_meta(&backend.get_meta(VLOG_META).unwrap().unwrap()).unwrap();
        assert!(roster.contains(&seg), "mid-GC segment must stay in roster");
        log.delete_segment(seg).unwrap();
        assert!(!log.segments().contains(&seg));
    }

    #[test]
    fn missing_roster_segments_are_tolerated() {
        let backend = Arc::new(MemBackend::new());
        {
            let log = ValueLog::open_durable(backend.clone(), 100).unwrap();
            for i in 0..10u32 {
                log.append(format!("k{i}").as_bytes(), &[b'v'; 40]).unwrap();
            }
        }
        // Simulate a crash between delete and roster rewrite.
        let (roster, _) =
            ValueLog::decode_meta(&backend.get_meta(VLOG_META).unwrap().unwrap()).unwrap();
        backend.delete(roster[0]).unwrap();
        let log = ValueLog::open_durable(backend, 100).unwrap();
        assert_eq!(log.recovery().unwrap().segments_missing, 1);
    }
}
