//! Wire encoding of group-state checkpoints (the replication protocol).
//!
//! A crash-survivable run periodically ships each group's dynamic solver
//! state — the local rank vector `r`, the afferent contributions `X` is
//! rebuilt from, and the iteration epoch — to the group's overlay replicas
//! (`Overlay::replicas`). Only *dynamic* state travels: the group's pages
//! and link structure are deterministic functions of the graph and the
//! partition, so any node can rebuild a [`GroupContext`] locally and a
//! snapshot stays compact.
//!
//! [`encode_snapshot_into`] / [`decode_snapshot`] define the binary frame
//! (all integers little-endian via [`bytes`]' big-endian-free `put_*_le`):
//!
//! ```text
//! u32 group | u64 epoch | u32 n_r | f64 × n_r
//!           | u32 n_src | { u32 src | u32 n | (u32 idx, f64 score) × n } × n_src
//! ```
//!
//! Scores are carried as raw `f64` bits, so a decoded snapshot restores the
//! *exact* rank fixed point the owner held — the warm-takeover contract.
//! For simulation pricing, [`paper_snapshot_bytes`] charges a snapshot like
//! §4.5 charges rank updates: one record per carried entry (`r` entries
//! plus afferent entries) at the update size, plus one message header per
//! frame — so checkpoints compete for uplink bandwidth on the same terms
//! as the Y-exchange traffic they ride alongside.
//!
//! [`GroupContext`]: ../../dpr_core/group/struct.GroupContext.html

use bytes::{Buf, BufMut, BytesMut};

/// The dynamic state of one hosted group, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFrame {
    /// Id of the checkpointed group.
    pub group: u32,
    /// The owner's outer-iteration count when the snapshot was taken.
    pub epoch: u64,
    /// The group's local rank vector `r` (exact bits).
    pub r: Vec<f64>,
    /// Per-source afferent contributions, ascending source order: what the
    /// owner's `AfferentState::snapshot_received` produced.
    pub afferent: Vec<(u32, Vec<(u32, f64)>)>,
}

impl SnapshotFrame {
    /// Number of scored entries the frame carries (`r` plus afferent) —
    /// the record count [`paper_snapshot_bytes`] prices.
    #[must_use]
    pub fn n_entries(&self) -> u64 {
        self.r.len() as u64 + self.afferent.iter().map(|(_, v)| v.len() as u64).sum::<u64>()
    }
}

/// Appends one snapshot frame to `buf` without allocating.
pub fn encode_snapshot_into(buf: &mut BytesMut, s: &SnapshotFrame) {
    buf.put_u32(s.group);
    buf.put_u64(s.epoch);
    buf.put_u32(s.r.len() as u32);
    for &v in &s.r {
        buf.put_f64(v);
    }
    buf.put_u32(s.afferent.len() as u32);
    for (src, entries) in &s.afferent {
        buf.put_u32(*src);
        buf.put_u32(entries.len() as u32);
        for &(idx, score) in entries {
            buf.put_u32(idx);
            buf.put_f64(score);
        }
    }
}

/// Decodes one frame from the front of `*buf`, advancing past the consumed
/// bytes; `None` on truncated input.
fn decode_snapshot_from(buf: &mut &[u8]) -> Option<SnapshotFrame> {
    if buf.remaining() < 4 + 8 + 4 {
        return None;
    }
    let group = buf.get_u32();
    let epoch = buf.get_u64();
    let n_r = buf.get_u32() as usize;
    if buf.remaining() < n_r * 8 + 4 {
        return None;
    }
    let r: Vec<f64> = (0..n_r).map(|_| buf.get_f64()).collect();
    let n_src = buf.get_u32() as usize;
    // Every source takes at least its 8-byte `(src, n)` header: a count
    // the remaining input cannot hold is truncated input, and checking it
    // first keeps a hostile count from sizing the allocation.
    if buf.remaining() < n_src * 8 {
        return None;
    }
    let mut afferent = Vec::with_capacity(n_src);
    for _ in 0..n_src {
        if buf.remaining() < 8 {
            return None;
        }
        let src = buf.get_u32();
        let n = buf.get_u32() as usize;
        if buf.remaining() < n * 12 {
            return None;
        }
        let entries: Vec<(u32, f64)> = (0..n).map(|_| (buf.get_u32(), buf.get_f64())).collect();
        afferent.push((src, entries));
    }
    Some(afferent).map(|afferent| SnapshotFrame { group, epoch, r, afferent })
}

/// Decodes a frame produced by [`encode_snapshot_into`]; `None` on
/// truncated input.
#[must_use]
pub fn decode_snapshot(mut buf: &[u8]) -> Option<SnapshotFrame> {
    decode_snapshot_from(&mut buf)
}

/// Decodes a batch of back-to-back frames (one checkpoint message to one
/// replica carries every group the owner hosts); `None` if any frame is
/// truncated.
#[must_use]
pub fn decode_snapshot_batch(mut buf: &[u8]) -> Option<Vec<SnapshotFrame>> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(decode_snapshot_from(&mut buf)?);
    }
    Some(out)
}

/// §4.5-style price of a snapshot carrying `n_entries` scored records
/// (header charged separately, once per message): checkpoints pay the same
/// per-record constant as rank updates so replication overhead is
/// comparable against the Y-exchange traffic in the same byte counters.
#[must_use]
pub fn paper_snapshot_bytes(n_entries: u64, update_bytes: u64) -> u64 {
    n_entries * update_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> SnapshotFrame {
        SnapshotFrame {
            group: 7,
            epoch: 42,
            r: vec![0.125, 1.0 / 3.0, f64::MIN_POSITIVE],
            afferent: vec![(2, vec![(0, 0.5), (2, 1e-12)]), (9, vec![(1, -0.0)])],
        }
    }

    #[test]
    fn roundtrip_preserves_exact_bits() {
        let f = frame();
        let mut buf = BytesMut::new();
        encode_snapshot_into(&mut buf, &f);
        let back = decode_snapshot(&buf).unwrap();
        assert_eq!(back.group, f.group);
        assert_eq!(back.epoch, f.epoch);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.r), bits(&f.r));
        assert_eq!(back.afferent.len(), 2);
        assert_eq!(back.afferent[1].1[0].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, f);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = BytesMut::new();
        encode_snapshot_into(&mut buf, &frame());
        for cut in [0, 3, 11, 15, 16, buf.len() - 1] {
            assert!(decode_snapshot(&buf[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn hostile_source_count_is_rejected() {
        // A frame with no rank entries whose source count claims
        // `u32::MAX` sources and carries none.
        let mut buf = BytesMut::new();
        buf.put_u32(7);
        buf.put_u64(1);
        buf.put_u32(0);
        buf.put_u32(u32::MAX);
        assert!(decode_snapshot(&buf).is_none());
        assert!(decode_snapshot_batch(&buf).is_none());
    }

    #[test]
    fn batch_decodes_back_to_back_frames() {
        let a = frame();
        let b = SnapshotFrame { group: 8, epoch: 1, r: vec![0.25], afferent: Vec::new() };
        let mut buf = BytesMut::new();
        encode_snapshot_into(&mut buf, &a);
        encode_snapshot_into(&mut buf, &b);
        let batch = decode_snapshot_batch(&buf).unwrap();
        assert_eq!(batch, vec![a, b]);
        assert!(decode_snapshot_batch(&buf[..buf.len() - 1]).is_none());
        assert_eq!(decode_snapshot_batch(&[]).unwrap().len(), 0);
    }

    #[test]
    fn paper_pricing_counts_every_carried_entry() {
        let f = frame();
        assert_eq!(f.n_entries(), 3 + 3);
        assert_eq!(paper_snapshot_bytes(f.n_entries(), 100), 600);
    }
}
