//! Named-tensor checkpoints — the persistence format that carries
//! pre-trained tuning blocks from the pre-training phase to network
//! assembly, mirroring TensorFlow checkpoints (name → tensor maps).
//!
//! On disk a checkpoint is one `wootz-wire` record
//! (`record_type::CHECKPOINT`, see `PROTOCOL.md` §8): the envelope's
//! CRC covers every byte and the payload carries an additional FNV-1a
//! content hash, so corruption is caught at two independent layers.
//! [`Checkpoint::load`] auto-detects the format from the first bytes —
//! files written by older builds (a JSON `CheckpointFile` container or
//! the even older bare `{"entries": {...}}` map) still load; every new
//! save writes the binary record.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};
use wootz_fault::chaos::{self, kill_site};
use wootz_tensor::Tensor;
use wootz_wire::{
    record_type, scan_records, write_bytes, write_frame, write_len, Limits, RecordTail, WireReader,
    WireResult, WireSerialize, MAGIC,
};

use crate::var::VarStore;
use crate::{NnError, Result};

/// Magic string identifying the legacy versioned JSON container.
const CKPT_MAGIC: &str = "wootz-ckpt";
/// Version of the legacy JSON container this build still reads.
const CKPT_VERSION: u32 = 1;

/// The legacy on-disk envelope: a versioned, checksummed JSON container
/// around the entry map, read-only since the binary record format
/// replaced it. Older files that are a bare `{"entries": {...}}` map
/// also still load (no checksum protection).
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointFile {
    magic: String,
    version: u32,
    /// FNV-1a over entry names, shapes, and value bits — independent of
    /// JSON float formatting.
    checksum: u64,
    entries: BTreeMap<String, Tensor>,
}

/// A serializable map from variable names to tensor values.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    entries: BTreeMap<String, Tensor>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Captures every variable in `vars` whose name starts with `prefix`
    /// (use `""` to capture everything).
    pub fn capture(vars: &VarStore, prefix: &str) -> Self {
        let mut entries = BTreeMap::new();
        for (name, param) in vars.iter() {
            if name.starts_with(prefix) {
                entries.insert(name.to_string(), param.value.clone());
            }
        }
        Checkpoint { entries }
    }

    /// Inserts (or replaces) one entry.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.entries.insert(name.into(), value);
    }

    /// Looks up an entry by exact name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Number of stored tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint stores nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another checkpoint into this one; colliding names are
    /// overwritten by `other` (later blocks win, which is what assembly
    /// wants: block weights overwrite inherited weights).
    pub fn merge(&mut self, other: &Checkpoint) {
        for (k, v) in &other.entries {
            self.entries.insert(k.clone(), v.clone());
        }
    }

    /// Restores every entry into `vars`, optionally translating names with
    /// `rename` (e.g. mapping a pre-training scope `student/block_3/...`
    /// onto a fine-tuning scope `net/module_3/...`). Entries whose
    /// translated name is absent from `vars` are skipped and counted in the
    /// returned `(restored, skipped)` pair; a shape mismatch is an error.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Var`] when a translated name exists in `vars` but
    /// the shapes disagree.
    pub fn restore(
        &self,
        vars: &mut VarStore,
        rename: impl Fn(&str) -> String,
    ) -> Result<(usize, usize)> {
        let mut restored = 0;
        let mut skipped = 0;
        for (name, value) in &self.entries {
            let target = rename(name);
            if vars.contains(&target) {
                vars.assign(&target, value.clone())?;
                restored += 1;
            } else {
                skipped += 1;
            }
        }
        Ok((restored, skipped))
    }

    /// A checksum over the checkpoint *content*: entry names, shapes and
    /// the raw bit patterns of every value. Bit-identical checkpoints hash
    /// identically regardless of how floats are formatted on disk.
    pub fn content_hash(&self) -> u64 {
        // FNV-1a, 64-bit.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, tensor) in &self.entries {
            eat(name.as_bytes());
            eat(&[0xff]); // separator
            for &d in tensor.shape() {
                eat(&(d as u64).to_le_bytes());
            }
            eat(&[0xfe]);
            for &v in tensor.data() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The wire encoding of the entry map: `u32` entry count, then per
    /// entry `name` (length-prefixed UTF-8), `shape` (`u32` rank + `u64`
    /// dims) and `data` (`u32` element count + `f32` bit patterns). This
    /// is the payload the binary checkpoint file and the run journal's
    /// inline checkpoints share; floats are bit patterns, so an encoded
    /// checkpoint round-trips bit-exactly.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        // Writing to a Vec cannot fail; lengths under u32::MAX are
        // guaranteed by Limits at decode time and by memory at encode time.
        write_len(out, "checkpoint entries", self.entries.len()).expect("vec write");
        for (name, tensor) in &self.entries {
            write_bytes(out, "checkpoint entry name", name.as_bytes()).expect("vec write");
            write_len(out, "tensor shape", tensor.shape().len()).expect("vec write");
            for &d in tensor.shape() {
                (d as u64).wire_write(out).expect("vec write");
            }
            write_len(out, "tensor data", tensor.data().len()).expect("vec write");
            for &v in tensor.data() {
                v.wire_write(out).expect("vec write");
            }
        }
    }

    /// Decodes the encoding produced by [`Checkpoint::wire_encode`] from
    /// a bounded reader. Every declared length is validated against the
    /// reader's budget before allocation, so a truncated or hostile
    /// checkpoint cannot OOM the process.
    ///
    /// # Errors
    ///
    /// Returns a structured [`wootz_wire::WireError`] on malformed,
    /// truncated or oversized input.
    pub fn wire_decode<R: Read>(r: &mut WireReader<R>) -> WireResult<Checkpoint> {
        // Minimum entry: empty name (4) + rank 0 (4) + zero elements (4).
        let count = r.seq_len("checkpoint entries", 12)?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let name = r.string("checkpoint entry name")?;
            let rank = r.seq_len("tensor shape", 8)?;
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(r.u64("tensor dim")? as usize);
            }
            let len = r.seq_len("tensor data", 4)?;
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(r.f32("tensor value")?);
            }
            let tensor = Tensor::from_vec(data, &shape).map_err(|e| {
                wootz_wire::WireError::InvalidValue {
                    context: "checkpoint tensor",
                    detail: e.to_string(),
                }
            })?;
            entries.insert(name, tensor);
        }
        Ok(Checkpoint { entries })
    }

    /// Serializes the checkpoint as one binary wire record (see
    /// `PROTOCOL.md` §8): payload = content hash (`u64`) + entry map,
    /// under the CRC-checksummed record envelope.
    ///
    /// The write is atomic: the bytes go to `<path>.tmp`, are fsynced, and
    /// the temp file is renamed over `path`. A crash mid-save leaves either
    /// the old file or the new file, never a torn one — the `ckpt.write`
    /// and `ckpt.rename` kill points sit on exactly those two boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] / [`NnError::Serde`] on failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let mut payload = Vec::new();
        self.content_hash()
            .wire_write(&mut payload)
            .expect("vec write");
        self.wire_encode(&mut payload);
        let mut record = Vec::with_capacity(wootz_wire::HEADER_LEN + payload.len());
        write_frame(&mut record, record_type::CHECKPOINT, &payload)
            .map_err(|e| NnError::Serde(format!("cannot encode checkpoint record: {e}")))?;
        {
            let mut file = File::create(&tmp)?;
            if chaos::kill_point(kill_site::CKPT_WRITE) {
                chaos::torn_write_and_die(kill_site::CKPT_WRITE, &mut file, &record);
            }
            let mut writer = BufWriter::new(file);
            writer.write_all(&record)?;
            writer.flush()?;
            writer.get_ref().sync_all()?;
        }
        if chaos::kill_point(kill_site::CKPT_RENAME) {
            chaos::die(kill_site::CKPT_RENAME);
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a checkpoint, auto-detecting the format: files starting with
    /// the wire magic `b"WOTZ"` decode as the binary record written by
    /// [`Checkpoint::save`]; anything else takes the legacy JSON paths
    /// (the versioned `CheckpointFile` container, then the bare
    /// `{"entries": {...}}` form).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on read failure and [`NnError::Serde`] with
    /// a message that distinguishes truncation (a torn write), an
    /// unsupported container version, and a checksum mismatch.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        if bytes.starts_with(&MAGIC) {
            return Checkpoint::load_record(path, &bytes);
        }
        let text = String::from_utf8(bytes).map_err(|_| {
            NnError::Serde(format!(
                "`{}`: neither a wire record nor UTF-8 JSON — the checkpoint is corrupt",
                path.display()
            ))
        })?;
        if let Ok(container) = serde_json::from_str::<CheckpointFile>(&text) {
            if container.magic != CKPT_MAGIC {
                return Err(NnError::Serde(format!(
                    "`{}`: bad magic `{}` (expected `{CKPT_MAGIC}`)",
                    path.display(),
                    container.magic
                )));
            }
            if container.version != CKPT_VERSION {
                return Err(NnError::Serde(format!(
                    "`{}`: unsupported checkpoint version {} (this build reads version {CKPT_VERSION})",
                    path.display(),
                    container.version
                )));
            }
            let ckpt = Checkpoint {
                entries: container.entries,
            };
            let computed = ckpt.content_hash();
            if computed != container.checksum {
                return Err(NnError::Serde(format!(
                    "`{}`: checksum mismatch (stored {:#018x}, computed {computed:#018x}) — the checkpoint is corrupt",
                    path.display(),
                    container.checksum
                )));
            }
            return Ok(ckpt);
        }
        // Legacy bare form.
        match serde_json::from_str::<Checkpoint>(&text) {
            Ok(ckpt) => Ok(ckpt),
            Err(e) => {
                if !text.trim_end().ends_with('}') {
                    Err(NnError::Serde(format!(
                        "`{}`: file appears truncated (does not end with `}}`) — likely a torn write: {e}",
                        path.display()
                    )))
                } else {
                    Err(NnError::Serde(format!("`{}`: {e}", path.display())))
                }
            }
        }
    }

    /// Decodes the binary record form: exactly one `CHECKPOINT` record,
    /// clean tail, matching content hash.
    fn load_record(path: &Path, bytes: &[u8]) -> Result<Self> {
        let scan = scan_records(bytes, &Limits::ARTIFACT);
        match &scan.tail {
            RecordTail::Clean => {}
            RecordTail::Torn { offset } => {
                return Err(NnError::Serde(format!(
                    "`{}`: record truncated at byte {offset} — likely a torn write",
                    path.display()
                )))
            }
            RecordTail::Corrupt { offset, error, .. } => {
                return Err(NnError::Serde(format!(
                    "`{}`: corrupt record at byte {offset}: {error}",
                    path.display()
                )))
            }
        }
        let [record] = scan.records.as_slice() else {
            return Err(NnError::Serde(format!(
                "`{}`: expected exactly one checkpoint record, found {}",
                path.display(),
                scan.records.len()
            )));
        };
        if record.frame.msg_type != record_type::CHECKPOINT {
            return Err(NnError::Serde(format!(
                "`{}`: record type {:#06x} is not a checkpoint",
                path.display(),
                record.frame.msg_type
            )));
        }
        let payload = &record.frame.payload;
        let mut r = WireReader::new(&payload[..], payload.len() as u64, Limits::ARTIFACT);
        let decode = (|| -> WireResult<(u64, Checkpoint)> {
            let stored = r.u64("checkpoint content hash")?;
            let ckpt = Checkpoint::wire_decode(&mut r)?;
            r.expect_consumed()?;
            Ok((stored, ckpt))
        })();
        let (stored, ckpt) =
            decode.map_err(|e| NnError::Serde(format!("`{}`: {e}", path.display())))?;
        let computed = ckpt.content_hash();
        if computed != stored {
            return Err(NnError::Serde(format!(
                "`{}`: checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — the checkpoint is corrupt",
                path.display()
            )));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(names: &[(&str, &[usize])]) -> VarStore {
        let mut vs = VarStore::new();
        for (name, shape) in names {
            vs.register(name, Tensor::ones(shape), true, true).unwrap();
        }
        vs
    }

    #[test]
    fn capture_filters_by_prefix() {
        let vs = store_with(&[("a/w", &[2]), ("a/b", &[1]), ("z/w", &[3])]);
        let ckpt = Checkpoint::capture(&vs, "a/");
        assert_eq!(ckpt.len(), 2);
        assert!(ckpt.get("a/w").is_some());
        assert!(ckpt.get("z/w").is_none());
    }

    #[test]
    fn restore_with_rename_and_skips() {
        let src = store_with(&[("student/c1/w", &[2])]);
        let mut ckpt = Checkpoint::capture(&src, "");
        ckpt.insert("student/unused/w", Tensor::zeros(&[5]));
        let mut dst = store_with(&[("net/c1/w", &[2])]);
        dst.assign("net/c1/w", Tensor::zeros(&[2])).unwrap();
        let (restored, skipped) = ckpt
            .restore(&mut dst, |n| n.replace("student/", "net/"))
            .unwrap();
        assert_eq!((restored, skipped), (1, 1));
        assert_eq!(dst.value("net/c1/w").unwrap().sum(), 2.0);
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::zeros(&[3]));
        let mut dst = store_with(&[("w", &[2])]);
        assert!(ckpt.restore(&mut dst, |n| n.to_string()).is_err());
    }

    #[test]
    fn merge_overwrites_collisions() {
        let mut a = Checkpoint::new();
        a.insert("w", Tensor::zeros(&[1]));
        let mut b = Checkpoint::new();
        b.insert("w", Tensor::ones(&[1]));
        b.insert("v", Tensor::ones(&[1]));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("w").unwrap().sum(), 1.0);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("wootz_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut ckpt = Checkpoint::new();
        ckpt.insert("a/w", Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap());
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_binary() {
        let dir = std::env::temp_dir().join("wootz_ckpt_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::from_vec(vec![0.25, -1.0], &[2]).unwrap());
        ckpt.save(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(&MAGIC), "binary record format");
        let scan = scan_records(&bytes, &Limits::ARTIFACT);
        assert!(scan.tail.is_clean());
        assert_eq!(scan.records.len(), 1, "one checkpoint record");
        assert_eq!(scan.records[0].frame.msg_type, record_type::CHECKPOINT);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_distinguishes_truncation_checksum_and_version() {
        let dir = std::env::temp_dir().join("wootz_ckpt_detail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        ckpt.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation: chop off the tail, as a killed process would.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");

        // Flipped payload bit: the record envelope's CRC catches it.
        let mut flipped = good.clone();
        let n = flipped.len();
        flipped[n - 2] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("corrupt record"), "{err}");

        // Content-hash mismatch behind an intact envelope: rewrite the
        // stored hash and re-checksum the record, as a subtly buggy
        // writer would.
        let mut rehashed = good.clone();
        for b in &mut rehashed[wootz_wire::HEADER_LEN..wootz_wire::HEADER_LEN + 8] {
            *b ^= 0xff;
        }
        let crc = wootz_wire::crc32(&rehashed[wootz_wire::HEADER_LEN..]);
        rehashed[12..16].copy_from_slice(&crc.to_be_bytes());
        std::fs::write(&path, &rehashed).unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");

        // Envelope version from the future.
        let mut versioned = good.clone();
        versioned[4..6].copy_from_slice(&99u16.to_be_bytes());
        std::fs::write(&path, &versioned).unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");

        // Untouched file still loads.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_json_container_still_loads() {
        let dir = std::env::temp_dir().join("wootz_ckpt_legacy_container");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("container.json");
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
        // What Checkpoint::save wrote before the binary record format.
        let container = CheckpointFile {
            magic: CKPT_MAGIC.to_string(),
            version: CKPT_VERSION,
            checksum: ckpt.content_hash(),
            entries: ckpt.entries.clone(),
        };
        std::fs::write(&path, serde_json::to_string(&container).unwrap()).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        // Its checksum is still enforced.
        let bad = CheckpointFile {
            checksum: 0xdead_beef,
            entries: ckpt.entries.clone(),
            magic: CKPT_MAGIC.to_string(),
            version: CKPT_VERSION,
        };
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_encoding_round_trips_bit_exactly() {
        let mut ckpt = Checkpoint::new();
        ckpt.insert(
            "a/w",
            Tensor::from_vec(vec![1.5, -0.0, f32::MIN_POSITIVE], &[3]).unwrap(),
        );
        ckpt.insert(
            "b/scalarish",
            Tensor::from_vec(vec![42.0], &[1, 1]).unwrap(),
        );
        ckpt.insert("empty", Tensor::from_vec(vec![], &[0]).unwrap());
        let mut buf = Vec::new();
        ckpt.wire_encode(&mut buf);
        let mut r = WireReader::new(&buf[..], buf.len() as u64, Limits::ARTIFACT);
        let back = Checkpoint::wire_decode(&mut r).unwrap();
        r.expect_consumed().unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.content_hash(), ckpt.content_hash());
    }

    #[test]
    fn wire_decode_rejects_shape_data_mismatch() {
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let mut buf = Vec::new();
        ckpt.wire_encode(&mut buf);
        // Corrupt the declared rank-1 dim from 2 to 3: name(4+1) + rank(4)
        // then the u64 dim — its low byte is the last of the 8.
        let dim_lo = 4 + 1 + 4 + 7;
        buf[dim_lo] = 3;
        let mut r = WireReader::new(&buf[..], buf.len() as u64, Limits::ARTIFACT);
        let err = Checkpoint::wire_decode(&mut r).unwrap_err();
        assert!(err.to_string().contains("checkpoint tensor"), "{err}");
    }

    #[test]
    fn legacy_bare_checkpoints_still_load() {
        let dir = std::env::temp_dir().join("wootz_ckpt_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, r#"{"entries":{"w":{"shape":[2],"data":[1.0,2.0]}}}"#).unwrap();
        let ckpt = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert_eq!(ckpt.get("w").unwrap().data(), &[1.0, 2.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn content_hash_tracks_values_names_and_shapes() {
        let mut a = Checkpoint::new();
        a.insert("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let base = a.content_hash();
        assert_eq!(base, a.clone().content_hash(), "deterministic");
        let mut b = Checkpoint::new();
        b.insert("w", Tensor::from_vec(vec![1.0, 2.5], &[2]).unwrap());
        assert_ne!(base, b.content_hash(), "value change");
        let mut c = Checkpoint::new();
        c.insert("v", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        assert_ne!(base, c.content_hash(), "name change");
        let mut d = Checkpoint::new();
        d.insert("w", Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap());
        assert_ne!(base, d.content_hash(), "shape change");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Checkpoint::load("/nonexistent/wootz.ckpt").unwrap_err();
        assert!(matches!(err, NnError::Io(_)));
    }

    #[test]
    fn load_corrupted_file_is_serde_error() {
        let dir = std::env::temp_dir().join("wootz_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json ").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, NnError::Serde(_)), "{err}");
        // A checkpoint with tensor-level corruption (wrong element count)
        // also fails cleanly at deserialization.
        std::fs::write(&path, r#"{"entries":{"w":{"shape":[2,2],"data":[1.0]}}}"#).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
