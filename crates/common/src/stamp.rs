//! Data-version dependency stamps for cross-query artifacts.
//!
//! Three caches outlive the query that filled them: sub-plan cache
//! entries, feedback observations and plan templates. Each is valid
//! only while every base table it read is still at the data version it
//! read. A [`DepStamp`] records those (table, version) pairs; the
//! catalog builds stamps and judges them (`Catalog::stamp`,
//! `Catalog::is_current` in mq-catalog), so the staleness rule lives in
//! one place.

use crate::error::{MqError, Result};

/// The base tables an artifact was derived from, each with the data
/// version observed when it was derived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepStamp {
    deps: Vec<(String, u64)>,
}

impl DepStamp {
    /// The recorded (table, version) pairs, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.deps.iter().map(|(t, v)| (t.as_str(), *v))
    }

    /// Whether the stamp depends on `table` at any version.
    pub fn mentions(&self, table: &str) -> bool {
        self.deps.iter().any(|(t, _)| t == table)
    }

    /// Whether the stamp recorded `table` at a version older than
    /// `version` (the table was written since).
    pub fn older_than(&self, table: &str, version: u64) -> bool {
        self.deps.iter().any(|(t, v)| t == table && *v < version)
    }

    /// Append the snapshot encoding: a `u32` count, then per table a
    /// `u32`-length-prefixed UTF-8 name and a `u64` version, all
    /// little-endian.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.deps.len() as u32).to_le_bytes());
        for (t, v) in &self.deps {
            out.extend_from_slice(&(t.len() as u32).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decode one stamp from the front of `buf`; returns it with the
    /// number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(DepStamp, usize)> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8]> {
            let s = pos
                .checked_add(n)
                .and_then(|end| buf.get(pos..end))
                .ok_or_else(|| MqError::Storage("truncated dependency stamp".into()))?;
            pos += n;
            Ok(s)
        };
        let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("took 4 bytes")) as usize;
        let n = le_u32(take(4)?);
        let mut deps = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let len = le_u32(take(4)?);
            let name = std::str::from_utf8(take(len)?)
                .map_err(|_| MqError::Storage("invalid utf-8 in dependency stamp".into()))?
                .to_string();
            let v = u64::from_le_bytes(take(8)?.try_into().expect("took 8 bytes"));
            deps.push((name, v));
        }
        Ok((DepStamp { deps }, pos))
    }
}

impl FromIterator<(String, u64)> for DepStamp {
    fn from_iter<I: IntoIterator<Item = (String, u64)>>(iter: I) -> Self {
        DepStamp {
            deps: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(deps: &[(&str, u64)]) -> DepStamp {
        deps.iter().map(|(t, v)| (t.to_string(), *v)).collect()
    }

    #[test]
    fn mentions_and_older_than() {
        let s = stamp(&[("orders", 3), ("lineitem", 7)]);
        assert!(s.mentions("orders") && !s.mentions("part"));
        assert!(s.older_than("orders", 4));
        assert!(!s.older_than("orders", 3));
        assert!(!s.older_than("part", 100));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [("orders", 3), ("lineitem", 7)]
        );
    }

    #[test]
    fn encoding_round_trips_and_matches_the_snapshot_layout() {
        let s = stamp(&[("t", 5)]);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut want = 1u32.to_le_bytes().to_vec();
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(b"t");
        want.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(buf, want);
        buf.push(0xAA); // trailing bytes belong to the caller
        let (back, used) = DepStamp::decode(&buf).unwrap();
        assert_eq!((back, used), (s, want.len()));
        assert!(DepStamp::decode(&want[..want.len() - 1]).is_err());
    }
}
