//! The benchmark's own model of every file it writes: last writer wins,
//! unwritten bytes read as zero. Reads and flushed Lustre images are
//! checked against this model, never against the program's own index.

use std::collections::BTreeMap;
use univistor_sim::{Bytes, Payload};

/// Non-overlapping extents of one file, keyed by start offset. Each
/// extent is a zero-copy window of the benchmark's input buffers.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    extents: BTreeMap<u64, Bytes>,
    size: u64,
}

impl FileModel {
    /// Logical size: the end of the furthest write.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Apply a write of `data` at `offset`, trimming whatever it covers.
    pub fn write(&mut self, offset: u64, data: Bytes) {
        let end = offset + data.len() as u64;
        if end == offset {
            return;
        }
        let covered: Vec<u64> = self
            .extents
            .range(..end)
            .rev()
            .take_while(|(start, b)| **start + b.len() as u64 > offset)
            .map(|(start, _)| *start)
            .collect();
        for start in covered {
            let old = self.extents.remove(&start).expect("key just listed");
            let old_end = start + old.len() as u64;
            if start < offset {
                self.extents
                    .insert(start, old.slice(..(offset - start) as usize));
            }
            if old_end > end {
                self.extents
                    .insert(end, old.slice((end - start) as usize..));
            }
        }
        self.extents.insert(offset, data);
        self.size = self.size.max(end);
    }

    /// True when `got` equals the model's bytes at `[offset, offset + got.len())`.
    pub fn matches(&self, offset: u64, got: &[u8]) -> bool {
        let end = offset + got.len() as u64;
        let mut pos = offset;
        let overlapping: Vec<(&u64, &Bytes)> = self
            .extents
            .range(..end)
            .rev()
            .take_while(|(start, b)| **start + b.len() as u64 > offset)
            .collect();
        for (&start, data) in overlapping.into_iter().rev() {
            let lo = start.max(offset);
            let hi = (start + data.len() as u64).min(end);
            let hole = &got[(pos - offset) as usize..(lo - offset) as usize];
            if hole.iter().any(|&b| b != 0) {
                return false;
            }
            let want = &data[(lo - start) as usize..(hi - start) as usize];
            if &got[(lo - offset) as usize..(hi - offset) as usize] != want {
                return false;
            }
            pos = hi;
        }
        got[(pos - offset) as usize..].iter().all(|&b| b == 0)
    }

    /// [`matches`](Self::matches) for a payload, part by part: the
    /// zero-copy parts a read or a Lustre image is made of are compared
    /// in place, without assembling the whole payload.
    pub fn matches_payload(&self, offset: u64, got: &Payload) -> bool {
        match got {
            Payload::Bytes(b) => self.matches(offset, b),
            Payload::Chain(parts) => {
                let mut pos = offset;
                parts.iter().all(|part| {
                    let ok = self.matches_payload(pos, part);
                    pos += part.len();
                    ok
                })
            }
            other => {
                let mut v = Vec::with_capacity(other.len() as usize);
                other.materialize_into(&mut v);
                self.matches(offset, &v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(fill: u8, len: usize) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    /// Byte-per-byte reference: a plain vector with last writer wins.
    fn reference(writes: &[(u64, u8, usize)]) -> Vec<u8> {
        let mut v = Vec::new();
        for &(off, fill, len) in writes {
            let end = off as usize + len;
            if v.len() < end {
                v.resize(end, 0);
            }
            v[off as usize..end].fill(fill);
        }
        v
    }

    #[test]
    fn overwrites_trim_split_and_replace() {
        let writes = [
            (0, 1, 100), // base
            (20, 2, 10), // splits the base in three
            (15, 3, 10), // trims both neighbors
            (90, 4, 30), // extends the file
            (0, 5, 100), // replaces everything below 100
            (200, 6, 8), // leaves a hole
            (95, 7, 1),  // one byte inside the last overwrite
            (199, 8, 2), // straddles the hole's end
        ];
        let mut m = FileModel::default();
        for (i, &(off, fill, len)) in writes.iter().enumerate() {
            m.write(off, bytes(fill, len));
            let want = reference(&writes[..=i]);
            assert_eq!(m.size(), want.len() as u64);
            assert!(m.matches(0, &want), "after write {i}");
            for (lo, hi) in [(0, want.len()), (10, 30), (96, 130), (150, 160)] {
                let hi = hi.min(want.len());
                if lo < hi {
                    assert!(m.matches(lo as u64, &want[lo..hi]), "window {lo}..{hi}");
                }
            }
        }
        let whole = Payload::from_bytes(reference(&writes));
        assert!(m.matches_payload(0, &whole));
        let (a, b) = whole.split_at(97);
        let chained = Payload::chain([a, Payload::zeros(0), b]);
        assert!(m.matches_payload(0, &chained));
        let mut wrong = reference(&writes);
        wrong[95] ^= 1;
        assert!(!m.matches(0, &wrong));
        // A hole must read as zeros.
        let mut hole = reference(&writes);
        hole[150] = 9;
        assert!(!m.matches(0, &hole));
    }

    #[test]
    fn extents_stay_disjoint_under_many_overwrites() {
        let mut m = FileModel::default();
        let mut writes = Vec::new();
        let mut x = 17u64;
        for i in 0..400u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let off = (x >> 33) % 4000;
            let len = 1 + ((x >> 20) % 300) as usize;
            let fill = (i % 251) as u8 + 1;
            writes.push((off, fill, len));
            m.write(off, bytes(fill, len));
        }
        assert!(m.matches(0, &reference(&writes)));
        let mut last_end = 0;
        for (start, b) in &m.extents {
            assert!(*start >= last_end, "overlapping extents");
            last_end = start + b.len() as u64;
        }
    }
}
