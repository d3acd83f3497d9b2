//! Snapshot container format: the byte-level half of `mq-persist`.
//!
//! A snapshot is one real file (the only real file the engine touches —
//! everything else lives on the simulated disk) holding a sequence of
//! named, length-prefixed, FNV-1a-checksummed sections:
//!
//! ```text
//! magic "MQSNAP01" (8 bytes)
//! section count    (u32 LE)
//! per section:
//!   name length    (u16 LE) + name bytes (UTF-8)
//!   payload length (u64 LE) + payload bytes
//!   checksum       (u64 LE, FNV-1a over name + payload)
//! ```
//!
//! Writers never touch the destination in place: the bytes go to
//! `<path>.tmp` and an atomic rename publishes them, so a crash at any
//! point leaves the previous snapshot loadable. Each section write and
//! the final rename are save points: [`mq_common::fault::on_segment_boundary`]
//! is consulted before each, so a seeded [`mq_common::fault::FaultKind::Crash`]
//! schedule can kill the save at every boundary and a counting run
//! (`ops_at(FaultSite::SegmentBoundary)`) can enumerate them.
//!
//! Section payload encoding is left to the caller; [`SectionWriter`]
//! and [`SectionReader`] provide the primitive codecs (integers, floats,
//! strings, [`Value`]s, [`Row`]s) both sides share.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use mq_common::fault::on_segment_boundary;
use mq_common::{fnv1a, DepStamp, MqError, Result, Row, Value};

/// Magic + format version. Bump the trailing digits on any layout
/// change; a reader seeing an unknown magic refuses the file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MQSNAP01";

fn corrupt(msg: impl Into<String>) -> MqError {
    MqError::Storage(format!("snapshot corrupt: {}", msg.into()))
}

/// Append-only payload builder for one section.
#[derive(Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Fresh empty payload.
    pub fn new() -> SectionWriter {
        SectionWriter::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte (tags, booleans).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` (counts), little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (versions, fingerprints), little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` (statistics), little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a [`Value`] in its page binary encoding.
    pub fn value(&mut self, v: &Value) {
        v.encode(&mut self.buf);
    }

    /// Append an optional [`Value`] (presence byte + encoding).
    pub fn opt_value(&mut self, v: &Option<Value>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.value(v);
            }
            None => self.u8(0),
        }
    }

    /// Append a [`Row`] in its page binary encoding.
    pub fn row(&mut self, r: &Row) {
        r.encode(&mut self.buf);
    }

    /// Append a [`DepStamp`] in its own encoding.
    pub fn stamp(&mut self, s: &DepStamp) {
        s.encode(&mut self.buf);
    }
}

/// Cursor over one section's payload; every read is bounds-checked and
/// reports a typed corruption error instead of panicking.
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SectionReader<'a> {
        SectionReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated section"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// Read one [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        let (v, used) = Value::decode(&self.buf[self.pos..])
            .map_err(|e| corrupt(format!("bad value encoding: {e}")))?;
        self.pos += used;
        Ok(v)
    }

    /// Read an optional [`Value`].
    pub fn opt_value(&mut self) -> Result<Option<Value>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.value()?)),
            t => Err(corrupt(format!("bad option tag {t}"))),
        }
    }

    /// Read one [`Row`].
    pub fn row(&mut self) -> Result<Row> {
        let (r, used) = Row::decode(&self.buf[self.pos..])
            .map_err(|e| corrupt(format!("bad row encoding: {e}")))?;
        self.pos += used;
        Ok(r)
    }

    /// Read one [`DepStamp`].
    pub fn stamp(&mut self) -> Result<DepStamp> {
        let (s, used) = DepStamp::decode(&self.buf[self.pos..])
            .map_err(|e| corrupt(format!("bad dependency stamp: {e}")))?;
        self.pos += used;
        Ok(s)
    }
}

/// Serialize the sections into the container byte layout.
fn assemble(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, payload) in sections {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let mut digest = fnv1a(name.as_bytes());
        digest ^= fnv1a(payload).rotate_left(17);
        out.extend_from_slice(&digest.to_le_bytes());
    }
    out
}

/// Write a snapshot atomically: the bytes go to `<path>.tmp`, then one
/// rename publishes them. Every section and the rename itself are save
/// points — a [`FaultKind::Crash`](mq_common::fault::FaultKind) fired
/// at any of them (via a scoped [`FaultInjector`](mq_common::fault::FaultInjector))
/// aborts before the rename, so the previous snapshot at `path` stays
/// loadable. The abandoned temp file is the crash's only debris.
pub fn write_snapshot(path: &Path, sections: &[(String, Vec<u8>)]) -> Result<()> {
    let tmp = tmp_path(path);
    let io_err = |op: &str, e: std::io::Error| {
        MqError::Storage(format!("snapshot {op} {}: {e}", tmp.display()))
    };
    let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
    let mut header = Vec::new();
    header.extend_from_slice(SNAPSHOT_MAGIC);
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    file.write_all(&header).map_err(|e| io_err("write", e))?;
    // One assembled image, replayed section by section so each save
    // point sits between two sections (data-before-manifest discipline:
    // nothing at `path` changes until the whole image is on disk).
    let image = assemble(sections);
    let mut off = header.len();
    for (name, payload) in sections {
        // Save point: a scheduled crash kills the save here, before
        // this section's bytes reach even the temp file.
        on_segment_boundary()?;
        let len = 2 + name.len() + 8 + payload.len() + 8;
        file.write_all(&image[off..off + len])
            .map_err(|e| io_err("write", e))?;
        off += len;
    }
    file.sync_all().ok();
    drop(file);
    // Save point: the last kill site before the rename publishes the
    // new snapshot. Crashing here must leave the old file untouched.
    on_segment_boundary()?;
    fs::rename(&tmp, path)
        .map_err(|e| MqError::Storage(format!("snapshot rename to {}: {e}", path.display())))?;
    Ok(())
}

/// The temp-file path a [`write_snapshot`] stages into.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Read and validate a snapshot: magic, section framing and per-section
/// checksums. Any mismatch is a typed [`MqError::Storage`] error — a
/// corrupted snapshot is refused whole, never half-loaded.
pub fn read_snapshot(path: &Path) -> Result<Vec<(String, Vec<u8>)>> {
    let bytes = fs::read(path)
        .map_err(|e| MqError::Storage(format!("snapshot read {}: {e}", path.display())))?;
    parse_snapshot(&bytes)
}

/// [`read_snapshot`] over an in-memory image (exposed for tests and
/// the chaos harness).
pub fn parse_snapshot(bytes: &[u8]) -> Result<Vec<(String, Vec<u8>)>> {
    if bytes.len() < 12 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic (not a snapshot, or unknown version)"));
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut pos = 12usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| corrupt("truncated section table"))?;
        let s = &bytes[pos..end];
        pos = end;
        Ok(s)
    };
    let mut sections = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(name_len)?.to_vec())
            .map_err(|_| corrupt("invalid utf-8 in section name"))?;
        let payload_len = u64::from_le_bytes(take(8)?.try_into().unwrap()) as usize;
        let payload = take(payload_len)?.to_vec();
        let stored = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let mut digest = fnv1a(name.as_bytes());
        digest ^= fnv1a(&payload).rotate_left(17);
        if digest != stored {
            return Err(corrupt(format!("checksum mismatch in section '{name}'")));
        }
        sections.push((name, payload));
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after last section"));
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::fault::{FaultInjector, FaultKind, FaultSite, FaultSpec};

    fn tmp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mq_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    fn sample_sections() -> Vec<(String, Vec<u8>)> {
        let mut w = SectionWriter::new();
        w.u64(42);
        w.str("hello");
        w.value(&Value::str("x"));
        w.row(&Row::new(vec![Value::Int(1), Value::Null]));
        vec![
            ("meta".to_string(), w.into_bytes()),
            ("data:t".to_string(), vec![1, 2, 3]),
        ]
    }

    #[test]
    fn roundtrip() {
        let path = tmp_file("roundtrip");
        write_snapshot(&path, &sample_sections()).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "meta");
        let mut r = SectionReader::new(&back[0].1);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.value().unwrap(), Value::str("x"));
        assert_eq!(r.row().unwrap().len(), 2);
        assert!(r.is_exhausted());
        assert_eq!(back[1].1, vec![1, 2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_refused_with_typed_error() {
        let path = tmp_file("corrupt");
        write_snapshot(&path, &sample_sections()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = parse_snapshot(&bytes).unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert!(err.to_string().contains("snapshot corrupt"), "{err}");
        // Truncation too.
        let err = parse_snapshot(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), "storage");
        // And a non-snapshot file.
        assert!(parse_snapshot(b"not a snapshot").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_mid_save_leaves_previous_snapshot_loadable() {
        let path = tmp_file("crash_save");
        write_snapshot(&path, &sample_sections()).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Counting run: how many save points does a save pass?
        let counter = FaultInjector::new(vec![], None);
        {
            let _scope = counter.enter_scope();
            write_snapshot(&path, &sample_sections()).unwrap();
        }
        let points = counter.ops_at(FaultSite::SegmentBoundary);
        assert!(points >= 3, "sections + rename, got {points}");

        for at in 1..=points {
            let inj = FaultInjector::new(
                vec![FaultSpec {
                    site: FaultSite::SegmentBoundary,
                    kind: FaultKind::Crash,
                    at,
                }],
                None,
            );
            let _scope = inj.enter_scope();
            let err = write_snapshot(&path, &sample_sections()).unwrap_err();
            assert!(matches!(err, MqError::Crash(_)), "kill point {at}: {err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                good,
                "kill point {at} damaged the published snapshot"
            );
            read_snapshot(&path).unwrap();
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(tmp_path(&path)).ok();
    }
}
