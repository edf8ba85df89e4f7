//! `wootz-store`: a content-addressed cache of pre-trained tuning blocks
//! and of the trained full models (teachers) they are trained against.
//!
//! The paper's central observation is that tuning blocks compose *within*
//! a run; this crate makes them compose *across* runs and tenants. Every
//! cached block is keyed by the triple that fully determines its bytes:
//!
//! * the **structure hash** — FNV-1a over [`block key`] strings like
//!   `m2r30+m3r50` (which modules, at which rates), so store identity and
//!   checkpoint identity provably agree,
//! * the **dataset id** — the solver's dataset name, and
//! * the **solver hash** — FNV-1a over the pre-training hyper-parameters
//!   *and the teacher checkpoint's content hash*. Blocks are trained
//!   against the frozen full model's activation maps, so a cached block is
//!   only valid for a bit-identical teacher; folding the teacher's content
//!   hash into the key makes a stale hit structurally impossible.
//!
//! The teacher itself is an entry too ([`BlockStore::get_teacher`]): the
//! same triple, with the model's structure hash and a hash of what
//! full-model training reads (`wootz-core`'s `teacher_store_key`). Training
//! is deterministic, so an evicted teacher retrains to the same bytes and
//! the blocks keyed by its content hash stay valid. Teacher traffic is
//! counted apart (`store.teacher_*`): [`StoreStats::hits`], `misses`,
//! `inserts` and `bytes_served` count blocks only.
//!
//! On disk every entry is one `wootz-wire` record
//! (`record_type::STORE_BLOCK` or `STORE_TEACHER`, see `PROTOCOL.md` §8)
//! written atomically (unique temp file + `rename(2)`), decoded under
//! [`wootz_wire::Limits::ARTIFACT`] bounds so a hostile or truncated
//! entry cannot OOM the reader, and double-checked by the checkpoint's
//! own FNV content hash behind the envelope CRC. A damaged entry is **quarantined** — moved into
//! `quarantine/` beside the store with a structured JSON report by the
//! same [`wootz_wire::quarantine`] the run journal uses — and served as a
//! miss, never as bad weights. A temp file left by an inserter that was
//! killed before its rename is removed at the next open.
//!
//! Capacity is an LRU byte budget over blocks and teachers alike: inserts
//! that push the store over budget evict least-recently-used entries
//! (recency is an in-process clock, seeded from file mtimes at open).
//! Counters `store.hits`, `store.misses`, `store.evictions`,
//! `store.inserts` and the `store.bytes` gauge feed the `wootz-obs`
//! registry (see `OBSERVABILITY.md`); `SERVING.md` documents the
//! operational story.
//!
//! [`block key`]: https://example.com/ignored
//!
//! ```text
//! store-dir/
//!   blk-<structure>-<keyhash>.blk   one wire record per cached block
//!   tch-<structure>-<keyhash>.blk   one wire record per cached teacher
//!   quarantine/                     damaged entries + *.report.json
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::UNIX_EPOCH;

use wootz_fault::{fnv1a64, pid_alive};
use wootz_nn::Checkpoint;
use wootz_wire::{
    quarantine, read_single_record, record_type, write_frame, RecordDamage, WireReader, WireResult,
    WireSerialize, MAGIC,
};

/// Version tag of the entry payload layout; bumped on incompatible
/// changes so old daemons refuse new entries loudly instead of
/// misdecoding them.
const STORE_FORMAT_VERSION: u32 = 1;

/// File extension of store entries.
const ENTRY_EXT: &str = "blk";

/// Errors of the block store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure underneath the store.
    Io(std::io::Error),
    /// The store directory holds files that were not written by the
    /// binary block store (e.g. a legacy JSON cache): refused outright
    /// rather than guessed at.
    LegacyFormat {
        /// The offending file.
        path: PathBuf,
        /// What made it unacceptable.
        detail: String,
    },
    /// An entry could not be encoded.
    Encode(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "block store I/O error: {e}"),
            StoreError::LegacyFormat { path, detail } => write!(
                f,
                "`{}` is not a block-store entry ({detail}); this directory was not \
                 written by the binary block store — point --store at a fresh directory",
                path.display()
            ),
            StoreError::Encode(detail) => write!(f, "cannot encode store entry: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Store result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// The content-derived identity of one cached block or teacher. See the
/// crate docs for what each component pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    /// FNV-1a over the block's key string (`m2r30+m3r50`), or over the
    /// model's structure for a teacher.
    pub structure: u64,
    /// Dataset id (the solver's `dataset:` field).
    pub dataset: String,
    /// FNV-1a over the pre-training config and the teacher checkpoint's
    /// content hash, or over what full-model training reads for a teacher.
    pub solver: u64,
}

impl StoreKey {
    /// Canonical byte serialization the composite hash is taken over.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.dataset.len() + 10);
        buf.extend_from_slice(&self.structure.to_le_bytes());
        buf.push(0xff);
        buf.extend_from_slice(self.dataset.as_bytes());
        buf.push(0xff);
        buf.extend_from_slice(&self.solver.to_le_bytes());
        buf
    }

    /// The block entry's file name: the structure hash stays readable for
    /// operators, the composite hash disambiguates dataset/solver.
    pub fn file_name(&self) -> String {
        self.entry_name(Kind::Block)
    }

    /// The teacher entry's file name: [`StoreKey::file_name`] with the
    /// `tch-` prefix, so a teacher and a block never share a file.
    pub fn teacher_file_name(&self) -> String {
        self.entry_name(Kind::Teacher)
    }

    fn entry_name(&self, kind: Kind) -> String {
        format!(
            "{}-{:016x}-{:016x}.{ENTRY_EXT}",
            kind.prefix(),
            self.structure,
            fnv1a64(&self.canonical_bytes())
        )
    }
}

/// What an entry holds. Both kinds share the directory, the LRU budget
/// and quarantine; each has its own record type, file prefix and
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Block,
    Teacher,
}

impl Kind {
    fn prefix(self) -> &'static str {
        match self {
            Kind::Block => "blk",
            Kind::Teacher => "tch",
        }
    }

    fn record_type(self) -> u16 {
        match self {
            Kind::Block => record_type::STORE_BLOCK,
            Kind::Teacher => record_type::STORE_TEACHER,
        }
    }
}

/// One cached pre-trained block: everything the pipeline needs to skip
/// the block's Teacher–Student pre-training entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEntry {
    /// The block's human-readable key (`m2r30+m3r50`).
    pub block_key: String,
    /// First-step reconstruction loss of the original training run.
    pub first_loss: f32,
    /// Last-step reconstruction loss of the original training run.
    pub last_loss: f32,
    /// SGD steps the original training run spent (what a cache hit
    /// saves; warm runs charge 0).
    pub trained_steps: u64,
    /// The trained block parameters under the block's `student/` scope.
    pub checkpoint: Checkpoint,
}

/// One cached trained full model: exactly what a run journals for it
/// (`JournalEntry::FullModel`), so a hit replaces training bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct TeacherEntry {
    /// Test accuracy of the trained model.
    pub accuracy: f64,
    /// The trained parameters under the `net/` scope.
    pub checkpoint: Checkpoint,
}

/// A snapshot of the store's counters (process-local; the same numbers
/// flow into the `wootz-obs` registry as `store.*`). `hits`, `misses`,
/// `inserts` and `bytes_served` count blocks only; teacher traffic has
/// its own `teacher_*` fields. `evictions`, `bytes` and `entries` cover
/// both kinds, which share one budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Block lookups served from cache.
    pub hits: u64,
    /// Block lookups that found nothing (including quarantined entries).
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Block entries written.
    pub inserts: u64,
    /// Cumulative bytes read off disk to serve block hits (what the
    /// cache delivered, not what it holds).
    pub bytes_served: u64,
    /// Bytes currently on disk across live entries.
    pub bytes: u64,
    /// Live entries.
    pub entries: u64,
    /// Teacher lookups served from cache.
    pub teacher_hits: u64,
    /// Teacher lookups that found nothing (including quarantined entries).
    pub teacher_misses: u64,
    /// Teacher entries written.
    pub teacher_inserts: u64,
}

/// In-memory recency bookkeeping for one on-disk entry.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    bytes: u64,
    last_used: u64,
}

/// The mutable interior: entry index + LRU clock + byte total.
#[derive(Debug, Default)]
struct Index {
    entries: BTreeMap<String, IndexEntry>,
    bytes: u64,
    clock: u64,
}

impl Index {
    fn touch(&mut self, name: &str) {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(name) {
            e.last_used = self.clock;
        }
    }

    fn insert(&mut self, name: String, bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.entries.insert(
            name,
            IndexEntry {
                bytes,
                last_used: self.clock,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
    }

    fn remove(&mut self, name: &str) -> Option<IndexEntry> {
        let e = self.entries.remove(name)?;
        self.bytes -= e.bytes;
        Some(e)
    }

    fn least_recently_used(&self) -> Option<String> {
        self.entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(name, _)| name.clone())
    }
}

/// A content-addressed, LRU-bounded cache of pre-trained tuning blocks
/// and teachers. All operations are internally synchronized — share one
/// instance across daemon threads behind an `Arc`.
#[derive(Debug)]
pub struct BlockStore {
    dir: PathBuf,
    /// Byte budget; `None` = unbounded.
    budget: Option<u64>,
    inner: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    served: AtomicU64,
    teacher_hits: AtomicU64,
    teacher_misses: AtomicU64,
    teacher_inserts: AtomicU64,
}

/// Locks the index, recovering from poison: the index's invariants hold
/// after every statement, so a panicked peer cannot leave it torn.
fn lock_index<'a>(lock: &'a Mutex<Index>) -> MutexGuard<'a, Index> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl BlockStore {
    /// Opens (creating if necessary) a block store at `dir` with an
    /// optional LRU byte budget.
    ///
    /// Existing entries are indexed; their recency order is seeded from
    /// file mtimes so a restarted daemon evicts oldest-first. Temp files
    /// of inserters that died before their rename are removed; those of
    /// live inserters are left alone.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, and
    /// [`StoreError::LegacyFormat`] when the directory contains files
    /// that are not binary store records (a legacy or foreign cache) —
    /// refusing the directory beats silently mixing formats.
    pub fn open(dir: impl AsRef<Path>, budget: Option<u64>) -> Result<BlockStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut found: Vec<(std::time::SystemTime, String, u64)> = Vec::new();
        for dirent in fs::read_dir(&dir)? {
            let dirent = dirent?;
            if !dirent.file_type()?.is_file() {
                continue;
            }
            let name = dirent.file_name().to_string_lossy().into_owned();
            if let Some((_, suffix)) = name.rsplit_once(".tmp") {
                // `<entry>.tmp.<pid>`: an insert between write and rename.
                let pid = suffix.strip_prefix('.').and_then(|p| p.parse().ok());
                if pid.is_some_and(|pid| !pid_alive(pid)) {
                    let _ = fs::remove_file(dirent.path());
                }
                continue;
            }
            if name.starts_with('.') {
                continue;
            }
            // Format detection: every store file starts with the wire
            // magic. Anything else (a JSON cache, a stray file) makes the
            // whole directory unacceptable — a structured refusal, not a
            // guess.
            let mut head = [0u8; MAGIC.len()];
            let n = File::open(dirent.path())?.read(&mut head)?;
            if n < MAGIC.len() || head != MAGIC {
                return Err(StoreError::LegacyFormat {
                    path: dirent.path(),
                    detail: "file does not start with the wire record magic".to_string(),
                });
            }
            if !name.ends_with(&format!(".{ENTRY_EXT}")) {
                return Err(StoreError::LegacyFormat {
                    path: dirent.path(),
                    detail: format!("unexpected file name (store entries end in `.{ENTRY_EXT}`)"),
                });
            }
            let meta = dirent.metadata()?;
            found.push((meta.modified().unwrap_or(UNIX_EPOCH), name, meta.len()));
        }
        // Oldest first, so the LRU clock ranks pre-existing entries by age.
        found.sort();
        let mut index = Index::default();
        for (_, name, bytes) in found {
            index.insert(name, bytes);
        }
        let store = BlockStore {
            dir,
            budget,
            inner: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            served: AtomicU64::new(0),
            teacher_hits: AtomicU64::new(0),
            teacher_misses: AtomicU64::new(0),
            teacher_inserts: AtomicU64::new(0),
        };
        {
            let mut inner = lock_index(&store.inner);
            store.evict_over_budget(&mut inner);
            wootz_obs::gauge("store.bytes").set(inner.bytes as f64);
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        lock_index(&self.inner).entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held across live entries.
    pub fn bytes(&self) -> u64 {
        lock_index(&self.inner).bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = lock_index(&self.inner);
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            bytes_served: self.served.load(Ordering::Relaxed),
            bytes: inner.bytes,
            entries: inner.entries.len() as u64,
            teacher_hits: self.teacher_hits.load(Ordering::Relaxed),
            teacher_misses: self.teacher_misses.load(Ordering::Relaxed),
            teacher_inserts: self.teacher_inserts.load(Ordering::Relaxed),
        }
    }

    /// Looks up a block. Returns `None` (and records a miss) when the
    /// key is absent — or when the entry on disk turned out damaged, in
    /// which case the file is quarantined first so it is never served
    /// and never silently deleted.
    pub fn get(&self, key: &StoreKey) -> Option<BlockEntry> {
        self.get_entry(Kind::Block, key, decode_block)
    }

    /// Looks up a teacher, exactly as [`BlockStore::get`] looks up a
    /// block, but counted as `store.teacher_*`.
    pub fn get_teacher(&self, key: &StoreKey) -> Option<TeacherEntry> {
        self.get_entry(Kind::Teacher, key, decode_teacher)
    }

    /// Inserts a block under `key`. Returns `true` when this call wrote
    /// the entry, `false` when the key was already present (a concurrent
    /// inserter won the race — one writer wins, bytes are counted once).
    /// The write is atomic (unique temp + rename), and eviction runs
    /// afterwards: with a 0-byte budget the fresh entry itself is
    /// immediately evicted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the entry cannot be written.
    pub fn insert(&self, key: &StoreKey, entry: &BlockEntry) -> Result<bool> {
        let body = |out: &mut Vec<u8>| {
            entry.block_key.wire_write(out)?;
            entry.first_loss.wire_write(out)?;
            entry.last_loss.wire_write(out)?;
            entry.trained_steps.wire_write(out)
        };
        self.insert_entry(Kind::Block, key, &entry.block_key, body, &entry.checkpoint)
    }

    /// Inserts a trained full model under `key`, with the semantics of
    /// [`BlockStore::insert`]; its bytes count toward the same budget.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the entry cannot be written.
    pub fn insert_teacher(
        &self,
        key: &StoreKey,
        accuracy: f64,
        checkpoint: &Checkpoint,
    ) -> Result<bool> {
        let body = |out: &mut Vec<u8>| accuracy.wire_write(out);
        self.insert_entry(Kind::Teacher, key, "teacher", body, checkpoint)
    }

    fn get_entry<T>(
        &self,
        kind: Kind,
        key: &StoreKey,
        decode: fn(&[u8], &StoreKey) -> std::result::Result<T, RecordDamage>,
    ) -> Option<T> {
        let name = key.entry_name(kind);
        let mut inner = lock_index(&self.inner);
        if !inner.entries.contains_key(&name) {
            self.record_miss(kind);
            return None;
        }
        let path = self.dir.join(&name);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Raced an eviction or an external delete: a plain miss.
                inner.remove(&name);
                wootz_obs::gauge("store.bytes").set(inner.bytes as f64);
                self.record_miss(kind);
                return None;
            }
        };
        match decode(&bytes, key) {
            Ok(entry) => {
                inner.touch(&name);
                self.record_hit(kind, bytes.len() as u64);
                Some(entry)
            }
            Err(damage) => {
                self.quarantine(&path, &damage);
                inner.remove(&name);
                wootz_obs::gauge("store.bytes").set(inner.bytes as f64);
                self.record_miss(kind);
                None
            }
        }
    }

    /// Writes one entry: the payload head (format version and key), the
    /// kind's own fields (`body`), then the checkpoint behind its content
    /// hash. `label` names the entry in the `store.inserted` event.
    fn insert_entry(
        &self,
        kind: Kind,
        key: &StoreKey,
        label: &str,
        body: impl FnOnce(&mut Vec<u8>) -> WireResult<()>,
        checkpoint: &Checkpoint,
    ) -> Result<bool> {
        let name = key.entry_name(kind);
        let mut inner = lock_index(&self.inner);
        if inner.entries.contains_key(&name) {
            return Ok(false);
        }
        let mut payload = Vec::new();
        let out = &mut payload;
        STORE_FORMAT_VERSION
            .wire_write(out)
            .and_then(|()| key.structure.wire_write(out))
            .and_then(|()| key.dataset.wire_write(out))
            .and_then(|()| key.solver.wire_write(out))
            .and_then(|()| body(out))
            .and_then(|()| checkpoint.content_hash().wire_write(out))
            .map_err(|e| StoreError::Encode(e.to_string()))?;
        checkpoint.wire_encode(&mut payload);
        let mut record = Vec::with_capacity(wootz_wire::HEADER_LEN + payload.len());
        write_frame(&mut record, kind.record_type(), &payload)
            .map_err(|e| StoreError::Encode(e.to_string()))?;
        let tmp = self.dir.join(format!("{name}.tmp.{}", std::process::id()));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&record)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(&name))?;
        inner.insert(name, record.len() as u64);
        self.record_insert(kind);
        wootz_obs::event("store.inserted")
            .field("key", label.to_string())
            .field("bytes", record.len())
            .emit();
        self.evict_over_budget(&mut inner);
        wootz_obs::gauge("store.bytes").set(inner.bytes as f64);
        Ok(true)
    }

    fn record_hit(&self, kind: Kind, bytes: u64) {
        match kind {
            Kind::Block => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.served.fetch_add(bytes, Ordering::Relaxed);
                wootz_obs::counter("store.hits").incr();
                wootz_obs::counter("store.served_bytes").add(bytes);
            }
            Kind::Teacher => {
                self.teacher_hits.fetch_add(1, Ordering::Relaxed);
                wootz_obs::counter("store.teacher_hits").incr();
            }
        }
    }

    fn record_miss(&self, kind: Kind) {
        match kind {
            Kind::Block => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                wootz_obs::counter("store.misses").incr();
            }
            Kind::Teacher => {
                self.teacher_misses.fetch_add(1, Ordering::Relaxed);
                wootz_obs::counter("store.teacher_misses").incr();
            }
        }
    }

    fn record_insert(&self, kind: Kind) {
        match kind {
            Kind::Block => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                wootz_obs::counter("store.inserts").incr();
            }
            Kind::Teacher => {
                self.teacher_inserts.fetch_add(1, Ordering::Relaxed);
                wootz_obs::counter("store.teacher_inserts").incr();
            }
        }
    }

    /// Evicts least-recently-used entries until the byte budget holds.
    fn evict_over_budget(&self, inner: &mut Index) {
        let Some(budget) = self.budget else { return };
        while inner.bytes > budget {
            let Some(victim) = inner.least_recently_used() else {
                break;
            };
            let removed = inner.remove(&victim).map(|e| e.bytes).unwrap_or(0);
            let _ = fs::remove_file(self.dir.join(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            wootz_obs::counter("store.evictions").incr();
            wootz_obs::event("store.evicted")
                .field("entry", victim)
                .field("bytes", removed as usize)
                .emit();
        }
    }

    /// Moves a damaged entry into `quarantine/` ([`wootz_wire::quarantine`])
    /// and books it. Nothing is deleted: an operator can inspect exactly
    /// which bytes were given up on and why.
    fn quarantine(&self, path: &Path, damage: &RecordDamage) {
        let Ok(q) = quarantine(path, damage, 0, 0) else {
            return;
        };
        wootz_obs::counter("store.quarantined").incr();
        wootz_obs::event("store.quarantined")
            .field("path", path.display().to_string())
            .field("quarantined_as", q.artifact.display().to_string())
            .field("offset", damage.offset as usize)
            .field("error", damage.error.clone())
            .emit();
    }
}

/// Decodes one entry file of `kind` — the payload head, the kind's own
/// fields (`body`), the checkpoint behind its content hash — and verifies
/// it against the key that addressed it. Every failure mode is a
/// [`RecordDamage`] so the caller can quarantine with evidence.
fn decode_entry<T>(
    bytes: &[u8],
    kind: Kind,
    key: &StoreKey,
    body: impl FnOnce(&mut WireReader<&[u8]>) -> WireResult<T>,
) -> std::result::Result<(T, Checkpoint), RecordDamage> {
    let (stored_key, fields, stored_hash, checkpoint) =
        read_single_record(bytes, kind.record_type(), |r| {
            let version = r.u32("store entry version")?;
            if version != STORE_FORMAT_VERSION {
                return Err(wootz_wire::WireError::InvalidValue {
                    context: "store entry version",
                    detail: format!("unsupported version {version}"),
                });
            }
            let stored_key = StoreKey {
                structure: r.u64("store entry structure")?,
                dataset: r.string("store entry dataset")?,
                solver: r.u64("store entry solver")?,
            };
            let fields = body(r)?;
            let stored_hash = r.u64("store entry content hash")?;
            Ok((stored_key, fields, stored_hash, Checkpoint::wire_decode(r)?))
        })?;
    if stored_key != *key {
        return Err(RecordDamage::at(
            0,
            "entry key does not match the key that addressed it",
        ));
    }
    let computed = checkpoint.content_hash();
    if computed != stored_hash {
        return Err(RecordDamage::at(
            0,
            format!(
                "checkpoint content hash mismatch (stored {stored_hash:#018x}, computed {computed:#018x})"
            ),
        ));
    }
    Ok((fields, checkpoint))
}

fn decode_block(bytes: &[u8], key: &StoreKey) -> std::result::Result<BlockEntry, RecordDamage> {
    let ((block_key, first_loss, last_loss, trained_steps), checkpoint) =
        decode_entry(bytes, Kind::Block, key, |r| {
            Ok((
                r.string("store entry block key")?,
                r.f32("store entry first loss")?,
                r.f32("store entry last loss")?,
                r.u64("store entry steps")?,
            ))
        })?;
    Ok(BlockEntry {
        block_key,
        first_loss,
        last_loss,
        trained_steps,
        checkpoint,
    })
}

fn decode_teacher(bytes: &[u8], key: &StoreKey) -> std::result::Result<TeacherEntry, RecordDamage> {
    let (accuracy, checkpoint) =
        decode_entry(bytes, Kind::Teacher, key, |r| r.f64("store entry accuracy"))?;
    Ok(TeacherEntry {
        accuracy,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wootz_tensor::Tensor;
    use wootz_wire::QUARANTINE_DIR;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wootz_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(structure: u64) -> StoreKey {
        StoreKey {
            structure,
            dataset: "flowers102".into(),
            solver: 0xdead_beef,
        }
    }

    fn entry(name: &str, values: &[f32]) -> BlockEntry {
        let mut ckpt = Checkpoint::new();
        ckpt.insert(
            format!("student/{name}/w"),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        );
        BlockEntry {
            block_key: name.to_string(),
            first_loss: 1.5,
            last_loss: 0.25,
            trained_steps: 40,
            checkpoint: ckpt,
        }
    }

    #[test]
    fn round_trips_and_counts_hits_and_misses() {
        let dir = tmp_store("roundtrip");
        let store = BlockStore::open(&dir, None).unwrap();
        let k = key(1);
        assert!(store.get(&k).is_none(), "cold store misses");
        let e = entry("m1r50", &[1.0, -2.5, 0.125]);
        assert!(store.insert(&k, &e).unwrap());
        let back = store.get(&k).unwrap();
        assert_eq!(back, e, "wire round trip is bit-exact");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert_eq!(
            stats.bytes_served, stats.bytes,
            "one hit served exactly the entry's on-disk bytes"
        );

        // A reopened store serves the same entry (persistence).
        drop(store);
        let reopened = BlockStore::open(&dir, None).unwrap();
        assert_eq!(reopened.get(&k).unwrap(), e);
        fs::remove_dir_all(&dir).ok();
    }

    fn teacher(values: &[f32]) -> (f64, Checkpoint) {
        let mut ckpt = Checkpoint::new();
        ckpt.insert(
            "net/conv1/weight".to_string(),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        );
        // An accuracy no decimal rendering would round-trip by accident.
        (f64::from_bits(0x3fe5_5555_5555_5557), ckpt)
    }

    #[test]
    fn teacher_round_trips_exact_accuracy_bits_and_counts_apart_from_blocks() {
        let dir = tmp_store("teacher");
        let store = BlockStore::open(&dir, None).unwrap();
        let k = key(20);
        let (accuracy, ckpt) = teacher(&[0.5, -1.25, 3.0]);
        assert!(store.get_teacher(&k).is_none(), "cold store misses");
        assert!(store.insert_teacher(&k, accuracy, &ckpt).unwrap());
        assert!(
            !store.insert_teacher(&k, accuracy, &ckpt).unwrap(),
            "one wins"
        );
        let back = store.get_teacher(&k).unwrap();
        assert_eq!(back.accuracy.to_bits(), accuracy.to_bits());
        assert_eq!(back.checkpoint, ckpt);
        let stats = store.stats();
        assert_eq!(
            (
                stats.teacher_hits,
                stats.teacher_misses,
                stats.teacher_inserts
            ),
            (1, 1, 1)
        );
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.bytes_served),
            (0, 0, 0, 0),
            "teacher traffic stays out of the block statistics"
        );
        assert_eq!(stats.entries, 1);
        assert!(dir.join(k.teacher_file_name()).exists());
        assert!(store.get(&k).is_none(), "a teacher is no block");

        drop(store);
        let reopened = BlockStore::open(&dir, None).unwrap();
        let back = reopened.get_teacher(&k).unwrap();
        assert_eq!(back.accuracy.to_bits(), accuracy.to_bits());
        assert_eq!(back.checkpoint, ckpt);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_teacher_is_quarantined_missed_and_reinserted_to_the_same_bytes() {
        let dir = tmp_store("teacher_corrupt");
        let store = BlockStore::open(&dir, None).unwrap();
        let k = key(21);
        let (accuracy, ckpt) = teacher(&[2.0; 8]);
        store.insert_teacher(&k, accuracy, &ckpt).unwrap();
        let path = dir.join(k.teacher_file_name());
        let good = fs::read(&path).unwrap();
        let mut bytes = good.clone();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(store.get_teacher(&k).is_none(), "damaged teacher is a miss");
        assert_eq!(store.stats().teacher_misses, 1);
        assert_eq!(store.stats().misses, 0, "no block missed");
        assert!(!path.exists(), "damaged file moved aside");
        let qdir = dir.join(QUARANTINE_DIR);
        assert!(
            qdir.join(k.teacher_file_name()).exists(),
            "entry quarantined"
        );
        // Training is deterministic: the retrained teacher is the same
        // entry, byte for byte.
        assert!(store.insert_teacher(&k, accuracy, &ckpt).unwrap());
        assert_eq!(fs::read(&path).unwrap(), good);
        assert!(store.get_teacher(&k).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_teacher_addressed_as_a_block_and_the_reverse_are_refused() {
        let dir = tmp_store("teacher_kinds");
        let store = BlockStore::open(&dir, None).unwrap();
        let (t, b) = (key(22), key(23));
        let (accuracy, ckpt) = teacher(&[1.0; 4]);
        store.insert_teacher(&t, accuracy, &ckpt).unwrap();
        store.insert(&b, &entry("m2r50", &[1.0; 4])).unwrap();
        // Each file under the other kind's name of its own key.
        fs::rename(dir.join(t.teacher_file_name()), dir.join(t.file_name())).unwrap();
        fs::rename(dir.join(b.file_name()), dir.join(b.teacher_file_name())).unwrap();
        drop(store);

        let store = BlockStore::open(&dir, None).unwrap();
        assert!(store.get(&t).is_none(), "a teacher record is no block");
        assert!(
            store.get_teacher(&b).is_none(),
            "a block record is no teacher"
        );
        let qdir = dir.join(QUARANTINE_DIR);
        for name in [t.file_name(), b.teacher_file_name()] {
            let report = fs::read_to_string(qdir.join(format!("{name}.report.json"))).unwrap();
            assert!(report.contains("record type"), "{report}");
        }
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn teacher_bytes_count_toward_the_lru_budget() {
        let dir = tmp_store("teacher_budget");
        let probe = BlockStore::open(&dir, None).unwrap();
        let (accuracy, ckpt) = teacher(&[0.0; 64]);
        probe.insert_teacher(&key(30), accuracy, &ckpt).unwrap();
        let teacher_bytes = probe.bytes();
        drop(probe);
        let _ = fs::remove_dir_all(&dir);

        // Room for the teacher, not for the teacher and a block.
        let store = BlockStore::open(&dir, Some(teacher_bytes + 8)).unwrap();
        store.insert_teacher(&key(30), accuracy, &ckpt).unwrap();
        assert_eq!(store.bytes(), teacher_bytes);
        store.insert(&key(31), &entry("m1r30", &[1.0; 8])).unwrap();
        assert_eq!(store.stats().evictions, 1, "the older teacher went");
        assert!(store.get_teacher(&key(30)).is_none());
        assert!(store.get(&key(31)).is_some());
        assert!(store.bytes() <= teacher_bytes + 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_insert_of_same_key_one_wins_bytes_counted_once() {
        let dir = tmp_store("race");
        let store = Arc::new(BlockStore::open(&dir, None).unwrap());
        let k = key(2);
        let e = entry("m2r30", &[0.5; 16]);
        let wins: Vec<bool> = {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let k = k.clone();
                    let e = e.clone();
                    std::thread::spawn(move || store.insert(&k, &e).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one inserter wins"
        );
        assert_eq!(store.len(), 1);
        let on_disk = fs::metadata(dir.join(k.file_name())).unwrap().len();
        assert_eq!(store.bytes(), on_disk, "bytes counted exactly once");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_byte_budget_evicts_everything_including_fresh_inserts() {
        let dir = tmp_store("zero_budget");
        let store = BlockStore::open(&dir, Some(0)).unwrap();
        assert!(store.insert(&key(3), &entry("m3r50", &[1.0; 8])).unwrap());
        assert!(store.is_empty(), "0-byte budget keeps nothing");
        assert_eq!(store.bytes(), 0);
        assert!(store.stats().evictions >= 1);
        assert!(store.get(&key(3)).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_evicts_least_recently_used() {
        let dir = tmp_store("tiny_budget");
        // Budget sized for one entry: measure one first.
        let probe = BlockStore::open(&dir, None).unwrap();
        probe.insert(&key(10), &entry("m0r30", &[0.0; 8])).unwrap();
        let one = probe.bytes();
        drop(probe);
        let _ = fs::remove_dir_all(&dir);

        let store = BlockStore::open(&dir, Some(one + one / 2)).unwrap();
        store.insert(&key(11), &entry("m1r30", &[1.0; 8])).unwrap();
        store.insert(&key(12), &entry("m2r30", &[2.0; 8])).unwrap();
        assert_eq!(store.len(), 1, "tiny budget holds a single entry");
        assert!(store.get(&key(11)).is_none(), "older entry evicted");
        assert!(store.get(&key(12)).is_some(), "newest entry survives");
        assert!(store.stats().evictions >= 1);

        // Recency, not insertion order: touch 12, insert 13, 12 survives.
        store.get(&key(12)).unwrap();
        store.insert(&key(13), &entry("m3r30", &[3.0; 8])).unwrap();
        assert!(store.get(&key(13)).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_served_as_miss() {
        let dir = tmp_store("corrupt");
        let store = BlockStore::open(&dir, None).unwrap();
        let k = key(4);
        store.insert(&k, &entry("m4r70", &[4.0; 8])).unwrap();
        // Flip a payload byte behind the store's back.
        let path = dir.join(k.file_name());
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let misses_before = store.stats().misses;
        assert!(store.get(&k).is_none(), "damaged entry is a miss");
        assert_eq!(store.stats().misses, misses_before + 1);
        assert!(!path.exists(), "damaged file moved aside");
        let qdir = dir.join(QUARANTINE_DIR);
        assert!(qdir.join(k.file_name()).exists(), "entry quarantined");
        let report =
            fs::read_to_string(qdir.join(format!("{}.report.json", k.file_name()))).unwrap();
        assert!(report.contains("damage_offset"), "{report}");
        // The slot is free again: a fresh insert repopulates it.
        assert!(store.insert(&k, &entry("m4r70", &[4.0; 8])).unwrap());
        assert!(store.get(&k).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_files_of_dead_inserters_are_removed_at_open() {
        let dir = tmp_store("leaked_tmp");
        let store = BlockStore::open(&dir, None).unwrap();
        store.insert(&key(6), &entry("m6r30", &[6.0; 4])).unwrap();
        drop(store);
        let name = key(7).file_name();
        // A pid beyond PID_MAX_LIMIT cannot be alive: its inserter died
        // between write and rename.
        let dead = dir.join(format!("{name}.tmp.4294967294"));
        let live = dir.join(format!("{name}.tmp.{}", std::process::id()));
        fs::write(&dead, b"half an entry").unwrap();
        fs::write(&live, b"an insert in flight").unwrap();
        let store = BlockStore::open(&dir, None).unwrap();
        assert!(!dead.exists(), "dead inserter's temp file removed");
        assert!(live.exists(), "live inserter's temp file kept");
        assert_eq!(store.len(), 1, "temp files are never entries");
        assert_eq!(
            store.bytes(),
            fs::metadata(dir.join(key(6).file_name())).unwrap().len()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_format_directory_is_rejected_with_structured_error() {
        let dir = tmp_store("legacy");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("cache.blk"), b"{\"blocks\": {}}").unwrap();
        let err = BlockStore::open(&dir, None).unwrap_err();
        match &err {
            StoreError::LegacyFormat { path, .. } => {
                assert!(path.ends_with("cache.blk"), "{err}");
            }
            other => panic!("expected LegacyFormat, got {other:?}"),
        }
        assert!(err.to_string().contains("not a block-store entry"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_key_and_wrong_dataset_are_misses() {
        let dir = tmp_store("keyspace");
        let store = BlockStore::open(&dir, None).unwrap();
        let k = key(5);
        store.insert(&k, &entry("m5r30", &[5.0; 4])).unwrap();
        let other_dataset = StoreKey {
            dataset: "birds200".into(),
            ..k.clone()
        };
        let other_solver = StoreKey {
            solver: k.solver ^ 1,
            ..k.clone()
        };
        assert!(store.get(&other_dataset).is_none());
        assert!(store.get(&other_solver).is_none());
        assert!(store.get(&k).is_some(), "original key still hits");
        fs::remove_dir_all(&dir).ok();
    }
}
