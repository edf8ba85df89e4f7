//! Named-tensor checkpoints — the values that carry pre-trained tuning
//! blocks from the pre-training phase to network assembly, mirroring
//! TensorFlow checkpoints (name → tensor maps).
//!
//! A checkpoint has no file of its own and exactly one byte encoding,
//! [`Checkpoint::wire_encode`] (`PROTOCOL.md` §8): the run journal's
//! full-model and block records, the block store's entries and the
//! `Welcome`, `Blocks` and `TaskDone` frames all carry it, under the
//! envelope's CRC. Floats travel as bit patterns, so every path
//! round-trips every value bit-exactly, NaN payloads included. The block
//! store also keeps the FNV-1a [`Checkpoint::content_hash`].

use std::collections::BTreeMap;
use std::io::{Read, Write};

use wootz_tensor::Tensor;
use wootz_wire::{write_bytes, write_len, WireDeserialize, WireReader, WireResult, WireSerialize};

use crate::var::VarStore;
use crate::Result;

/// A map from variable names to tensor values.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Returns [`crate::NnError::Var`] when a translated name exists in `vars` but
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
    /// is the one form every persisted or transmitted checkpoint takes;
    /// floats are bit patterns, so an encoded checkpoint round-trips
    /// bit-exactly. [`WireSerialize::wire_size`] gives its exact length.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        // Writing to a Vec cannot fail; lengths under u32::MAX are
        // guaranteed by Limits at decode time and by memory at encode time.
        self.wire_write(out).expect("vec write");
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
        Checkpoint::wire_read(r)
    }
}

impl WireSerialize for Checkpoint {
    fn wire_size(&self) -> usize {
        4 + self
            .entries
            .iter()
            .map(|(name, tensor)| {
                4 + name.len() + 4 + 8 * tensor.shape().len() + 4 + 4 * tensor.len()
            })
            .sum::<usize>()
    }

    fn wire_write<W: Write + ?Sized>(&self, w: &mut W) -> WireResult<()> {
        write_len(w, "checkpoint entries", self.entries.len())?;
        for (name, tensor) in &self.entries {
            write_bytes(w, "checkpoint entry name", name.as_bytes())?;
            write_len(w, "tensor shape", tensor.shape().len())?;
            for &d in tensor.shape() {
                (d as u64).wire_write(w)?;
            }
            write_len(w, "tensor data", tensor.data().len())?;
            for &v in tensor.data() {
                v.wire_write(w)?;
            }
        }
        Ok(())
    }
}

impl WireDeserialize for Checkpoint {
    fn wire_read<R: Read>(r: &mut WireReader<R>) -> WireResult<Checkpoint> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_wire::Limits;

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
        assert_eq!(
            buf.len(),
            ckpt.wire_size(),
            "declared size matches encoding"
        );
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
}
