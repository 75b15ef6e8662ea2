//! The wire protocol between workers and the PS: `f32` tensors (and slices
//! of them) serialised little-endian into [`bytes::Bytes`], each payload
//! framed by a [`FrameHeader`] (length + CRC32) the receiver verifies
//! before a single byte can reach an accumulator or a parameter buffer.

use crate::protocol::Slice;
use bytes::{BufMut, Bytes, BytesMut};

/// CRC-32C (Castagnoli, reflected polynomial `0x82F63B78`) — the checksum
/// every data frame carries. The polynomial is Castagnoli rather than
/// IEEE because x86's `crc32` instruction hardwires it: on SSE4.2 hosts
/// the hot path folds 8 bytes per cycle across four interleaved streams
/// (the instruction is 3-cycle latency / 1-cycle throughput, so a single
/// dependent chain runs at a third of the port limit), with lane states
/// merged through a compile-time "advance by LANE zero bytes" operator
/// table. Elsewhere it falls back to slicing-by-8 over compile-time
/// tables — bit-identical output, so goldens never depend on the host.
/// Keeping verify-on-receive at the port limit is what lets checksumming
/// stay on unconditionally (the steady-state throughput bound in
/// EXPERIMENTS.md is measured with it on).
pub mod crc32 {
    const POLY: u32 = 0x82F6_3B78;

    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut k = 0;
            while k < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                k += 1;
            }
            t[0][i] = crc;
            i += 1;
        }
        let mut j = 1;
        while j < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[j - 1][i];
                t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            j += 1;
        }
        t
    };

    /// Bytes per lane in the interleaved hardware kernel. The register
    /// update is affine in the state — `S(i, d) = L^|d|(i) ^ S(0, d)` —
    /// so lanes 2..n run from state 0 and merge with [`shift_lane`],
    /// the precomputed linear operator `L^LANE` (advance by `LANE` zero
    /// bytes).
    const LANE: usize = 2048;

    /// `L^LANE` as four 256-entry tables: apply with one lookup per
    /// state byte. Built by squaring the one-zero-byte operator matrix
    /// `log2(LANE)` times (zlib's `crc32_combine` construction, fixed
    /// length, evaluated at compile time).
    const SHIFT: [[u32; 256]; 4] = {
        // One zero byte: r -> (r >> 8) ^ T0[r & 0xFF], as a GF(2) matrix
        // (column i = image of the i-th unit vector).
        let mut m = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            let r = 1u32 << i;
            m[i] = (r >> 8) ^ TABLES[0][(r & 0xFF) as usize];
            i += 1;
        }
        // Square log2(LANE) times: m := m ∘ m.
        let mut sq = 0;
        let mut lane = LANE;
        while lane > 1 {
            sq += 1;
            lane >>= 1;
        }
        let mut s = 0;
        while s < sq {
            let mut next = [0u32; 32];
            let mut i = 0;
            while i < 32 {
                // next[i] = m applied to m[i].
                let mut v = m[i];
                let mut acc = 0u32;
                let mut bit = 0;
                while v != 0 {
                    if v & 1 != 0 {
                        acc ^= m[bit];
                    }
                    v >>= 1;
                    bit += 1;
                }
                next[i] = acc;
                i += 1;
            }
            m = next;
            s += 1;
        }
        // Expand the matrix into per-byte lookup tables.
        let mut t = [[0u32; 256]; 4];
        let mut j = 0;
        while j < 4 {
            let mut b = 0;
            while b < 256 {
                let mut v = (b as u32) << (8 * j);
                let mut acc = 0u32;
                let mut bit = 0;
                while v != 0 {
                    if v & 1 != 0 {
                        acc ^= m[bit];
                    }
                    v >>= 1;
                    bit += 1;
                }
                t[j][b] = acc;
                b += 1;
            }
            j += 1;
        }
        t
    };

    /// Advance a register state across `LANE` zero bytes.
    #[inline]
    fn shift_lane(crc: u32) -> u32 {
        SHIFT[0][(crc & 0xFF) as usize]
            ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
            ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
            ^ SHIFT[3][(crc >> 24) as usize]
    }

    fn update_sw(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            crc ^= u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(crc & 0xFF) as usize]
                ^ TABLES[6][((crc >> 8) & 0xFF) as usize]
                ^ TABLES[5][((crc >> 16) & 0xFF) as usize]
                ^ TABLES[4][(crc >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[cfg(target_arch = "x86_64")]
    mod hw {
        use super::{shift_lane, LANE};
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        #[inline]
        pub fn available() -> bool {
            // Caches in an atomic after the first probe.
            std::arch::is_x86_feature_detected!("sse4.2")
        }

        #[inline]
        unsafe fn word(bytes: &[u8], i: usize) -> u64 {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap())
        }

        /// Single dependent chain — small buffers and tails.
        #[target_feature(enable = "sse4.2")]
        pub unsafe fn update1(crc: u32, bytes: &[u8]) -> u32 {
            let mut c = crc as u64;
            let words = bytes.len() / 8;
            for i in 0..words {
                c = _mm_crc32_u64(c, word(bytes, i));
            }
            let mut crc = c as u32;
            for &b in &bytes[words * 8..] {
                crc = _mm_crc32_u8(crc, b);
            }
            crc
        }

        /// Four interleaved chains over rounds of `4 × LANE` bytes —
        /// saturates the crc32 port — then the tail single-chain.
        #[target_feature(enable = "sse4.2")]
        pub unsafe fn update4(mut crc: u32, mut bytes: &[u8]) -> u32 {
            while bytes.len() >= 4 * LANE {
                let (l0, rest) = bytes.split_at(LANE);
                let (l1, rest) = rest.split_at(LANE);
                let (l2, l3full) = rest.split_at(LANE);
                let (mut a, mut b, mut c, mut d) = (crc as u64, 0u64, 0u64, 0u64);
                for i in 0..LANE / 8 {
                    a = _mm_crc32_u64(a, word(l0, i));
                    b = _mm_crc32_u64(b, word(l1, i));
                    c = _mm_crc32_u64(c, word(l2, i));
                    d = _mm_crc32_u64(d, word(l3full, i));
                }
                let ab = shift_lane(a as u32) ^ b as u32;
                let abc = shift_lane(ab) ^ c as u32;
                crc = shift_lane(abc) ^ d as u32;
                bytes = &bytes[4 * LANE..];
            }
            update1(crc, bytes)
        }
    }

    /// Fresh streaming state (feed it to [`update`], close with [`finish`]).
    pub fn begin() -> u32 {
        !0
    }

    /// Fold `bytes` into a streaming state from [`begin`].
    pub fn update(crc: u32, bytes: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if hw::available() {
            return unsafe {
                if bytes.len() >= 4 * LANE {
                    hw::update4(crc, bytes)
                } else {
                    hw::update1(crc, bytes)
                }
            };
        }
        update_sw(crc, bytes)
    }

    /// Close a streaming state into the final checksum.
    pub fn finish(crc: u32) -> u32 {
        !crc
    }

    /// One-shot checksum of `bytes`.
    pub fn checksum(bytes: &[u8]) -> u32 {
        finish(update(begin(), bytes))
    }

    /// The table-based fallback as a one-shot — test hook pinning the
    /// hardware and software paths to identical output.
    #[cfg(test)]
    pub fn checksum_sw(bytes: &[u8]) -> u32 {
        finish(update_sw(begin(), bytes))
    }
}

/// Block size of the fused CRC+decode passes: `4 × LANE` bytes, so every
/// full block feeds the 4-way interleaved SSE4.2 kernel exactly one round
/// (and the software fallback one slicing-by-8 sweep) while the block —
/// L1-resident from the checksum read — is decoded and folded before the
/// next one is touched. One memory traversal instead of two.
const FUSE_BLOCK: usize = 8192;

/// Fold a little-endian `f32` payload into `acc` elementwise
/// (`acc[i] += payload[i]`) while streaming the same bytes through a
/// CRC32C state, returning the advanced state.
///
/// Block-interleaved, not element-interleaved: each [`FUSE_BLOCK`] chunk
/// is checksummed with the full-width kernel and then folded while still
/// cache-hot, so the arithmetic is bit-identical to [`accumulate_f32_le`]
/// and the CRC bit-identical to a straight [`crc32::update`] over the
/// whole payload. The barrier fold of sliced payloads: without a corruption
/// plan it is the push payload's **only** traversal.
///
/// Panics when the byte length is not `4 * acc.len()`.
pub fn fused_crc_accumulate(mut crc: u32, bytes: &[u8], acc: &mut [f32]) -> u32 {
    assert_eq!(bytes.len(), acc.len() * 4, "payload/accumulator mismatch");
    for (bc, ac) in bytes.chunks(FUSE_BLOCK).zip(acc.chunks_mut(FUSE_BLOCK / 4)) {
        crc = crc32::update(crc, bc);
        for (a, c) in ac.iter_mut().zip(bc.chunks_exact(4)) {
            *a += f32::from_le_bytes(c.try_into().unwrap());
        }
    }
    crc
}

/// The overwriting sibling of [`fused_crc_accumulate`]: decode the payload
/// into `dst` (`dst[i] = payload[i]`) while streaming it through the CRC
/// state. Workers verify-and-apply pull replies with it in one pass.
///
/// Panics when the byte length is not `4 * dst.len()`.
pub fn fused_crc_apply(mut crc: u32, bytes: &[u8], dst: &mut [f32]) -> u32 {
    assert_eq!(bytes.len(), dst.len() * 4, "payload/destination mismatch");
    for (bc, dc) in bytes.chunks(FUSE_BLOCK).zip(dst.chunks_mut(FUSE_BLOCK / 4)) {
        crc = crc32::update(crc, bc);
        for (d, c) in dc.iter_mut().zip(bc.chunks_exact(4)) {
            *d = f32::from_le_bytes(c.try_into().unwrap());
        }
    }
    crc
}

/// Verify a frame and fold its payload into `acc` only on success: a
/// corrupt frame is rejected before a single accumulator byte is written.
///
/// This contract is why a corruption-armed run cannot *rely* on the fused
/// fold: the whole-frame checksum is not known until the last payload byte
/// has been read, by which point a fused loop has already written most of
/// the accumulator. Such runs therefore verify at receive — the same two
/// traversals as this reference composition, which the benchmark times —
/// and every run's barrier fold is [`fused_crc_accumulate`], where a
/// mismatch is a panic: genuine memory corruption, not an injected fault.
pub fn verify_accumulate(bytes: &[u8], frame: &FrameHeader, acc: &mut [f32]) -> bool {
    if !frame.verify(bytes) {
        return false;
    }
    accumulate_f32_le(bytes, acc);
    true
}

/// Length + checksum framing for one data payload. The header describes the
/// payload *as sent*: a receiver whose bytes fail [`FrameHeader::verify`]
/// saw in-flight corruption (bit flip or truncation) and must discard the
/// frame unread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes at send time.
    pub len: u32,
    /// CRC32 of the payload at send time.
    pub crc: u32,
}

impl FrameHeader {
    /// Frame a payload for sending.
    pub fn for_payload(payload: &[u8]) -> Self {
        FrameHeader {
            len: payload.len() as u32,
            crc: crc32::checksum(payload),
        }
    }

    /// Does `payload` still match the frame it was sent under?
    pub fn verify(&self, payload: &[u8]) -> bool {
        payload.len() as u32 == self.len && crc32::checksum(payload) == self.crc
    }
}

/// Checksum of an ack batch: a CRC32 over the canonical little-endian fold
/// of every ack's fields, allocation-free. A batch whose checksum fails at
/// the worker is dropped whole — its slices stay in the sender's ack
/// ledger until the barrier's `ParamReady` (or a timeout resend) clears
/// them.
pub fn acks_checksum(acks: &[Slice]) -> u32 {
    let mut crc = crc32::begin();
    for a in acks {
        let mut buf = [0u8; 40];
        buf[0..8].copy_from_slice(&a.iter.to_le_bytes());
        buf[8..16].copy_from_slice(&(a.tensor as u64).to_le_bytes());
        buf[16..24].copy_from_slice(&a.offset.to_le_bytes());
        buf[24..32].copy_from_slice(&a.len.to_le_bytes());
        buf[32..40].copy_from_slice(&a.epoch.to_le_bytes());
        crc = crc32::update(crc, &buf);
    }
    crc32::finish(crc)
}

/// Serialise an `f32` slice (little-endian, like the real BytePS payloads).
pub fn encode_f32(values: &[f32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(values.len() * 4);
    encode_f32_into(values, &mut buf);
    buf.freeze()
}

/// Append `values` little-endian to an existing buffer — the allocation-free
/// encode the pooled arenas use (the caller owns and recycles `buf`).
///
/// Conversion goes through a fixed stack block so the byte stores
/// vectorise and the buffer takes one bulk append per block — ~8x the
/// throughput of a per-element `put_f32_le` loop (whose per-element
/// capacity check defeats vectorisation), at ~34 ms per 25 MB model that
/// loop was the single largest term in the threaded runtime's iteration
/// time.
pub fn encode_f32_into(values: &[f32], buf: &mut BytesMut) {
    const BLOCK: usize = 1024;
    buf.reserve(values.len() * 4);
    let mut tmp = [0u8; BLOCK * 4];
    for chunk in values.chunks(BLOCK) {
        for (t, v) in tmp.chunks_exact_mut(4).zip(chunk) {
            t.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(&tmp[..chunk.len() * 4]);
    }
}

/// [`encode_f32_into`] that also returns the finished CRC32C of the bytes
/// it appended, checksummed from the stack block while it is L1-hot —
/// senders that frame the whole tensor get the header checksum for free
/// instead of re-reading the encoded buffer. The block is `FUSE_BLOCK`
/// bytes so each full block is one interleaved hardware round.
pub fn encode_f32_into_crc(values: &[f32], buf: &mut BytesMut) -> u32 {
    const BLOCK: usize = FUSE_BLOCK / 4;
    buf.reserve(values.len() * 4);
    let mut crc = crc32::begin();
    let mut tmp = [0u8; BLOCK * 4];
    for chunk in values.chunks(BLOCK) {
        for (t, v) in tmp.chunks_exact_mut(4).zip(chunk) {
            t.copy_from_slice(&v.to_le_bytes());
        }
        let n = chunk.len() * 4;
        crc = crc32::update(crc, &tmp[..n]);
        buf.put_slice(&tmp[..n]);
    }
    crc32::finish(crc)
}

/// Decode a little-endian `f32` payload directly into `acc`, adding
/// elementwise: `acc[i] += payload[i]`. The aggregation inner loop — wire
/// bytes go straight into the accumulator with no intermediate `Vec<f32>`.
/// Panics when the byte length is not `4 * acc.len()`.
pub fn accumulate_f32_le(bytes: &[u8], acc: &mut [f32]) {
    assert_eq!(bytes.len(), acc.len() * 4, "payload/accumulator mismatch");
    for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
        // The `try_into` form compiles to one 4-byte load (the indexed
        // [c[0], c[1], ..] form does not vectorise): 3x faster here.
        *a += f32::from_le_bytes(c.try_into().unwrap());
    }
}

/// Deserialise bytes produced by [`encode_f32`]. Panics on a length that
/// is not a multiple of 4.
pub fn decode_f32(bytes: &Bytes) -> Vec<f32> {
    assert!(bytes.len() % 4 == 0, "payload not f32-aligned");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Worker → PS messages.
#[derive(Debug, Clone)]
pub enum ToPs {
    /// One slice of a gradient from `worker`.
    Push {
        /// Sending worker index.
        worker: usize,
        /// Which elements of which iteration's gradient, as the sender
        /// tracks the send — what acks and nacks name, whatever bytes
        /// arrive — and the PS incarnation it is addressed to. A push
        /// carrying a stale epoch raced a crash-restart and is discarded —
        /// the sender re-pushes after [`ToWorker::ShardRestarted`].
        slice: Slice,
        /// The payload.
        data: Bytes,
        /// Length + CRC32 framing computed by the sender over the
        /// *intended* payload. The shard verifies it before aggregating;
        /// a mismatch means in-flight corruption and earns the sender a
        /// [`ToWorker::PushNack`] instead of an ack.
        frame: FrameHeader,
    },
    /// Request `len_elems` of parameter tensor `grad` from `offset_elems`.
    PullReq {
        /// Requesting worker index.
        worker: usize,
        /// Gradient/parameter id.
        grad: usize,
        /// First element requested.
        offset_elems: usize,
        /// Number of elements requested.
        len_elems: usize,
        /// `Some(k)`: serve only once the tensor reflects every update
        /// through iteration `k` (the shard defers the reply until then).
        /// Joiner bootstrap pulls use this to receive exactly the
        /// end-of-iteration-`k` model; ordinary pulls pass `None` — they
        /// are causally behind the [`ToWorker::ParamReady`] that made the
        /// tensor current.
        min_done: Option<u64>,
    },
    /// Worker `worker` has permanently left the cluster (its eviction
    /// epoch is open). Shards may not close a BSP barrier for an
    /// iteration the worker is excluded from until its leave notice
    /// arrives — that is what keeps the barrier's trace event causally
    /// after the eviction's membership change.
    Leave {
        /// The departing worker.
        worker: usize,
    },
}

/// PS → worker messages.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// The BSP barrier for `grad` was reached; updated parameters may be
    /// pulled.
    ParamReady {
        /// Gradient/parameter id.
        grad: usize,
        /// PS incarnation whose barrier completed. Workers stamp this onto
        /// their `ParamReady` trace events so the invariant checker can
        /// catch stale (pre-crash) deliveries.
        epoch: u64,
    },
    /// A batch of accepted push slices, each named as the sender tracks it
    /// (extents in elements). A shard queues one entry per accepted slice and flushes the batch when its inbox drains (or when
    /// the batch hits the flush cap), so the ack return path costs one
    /// message per (worker, flush) instead of one per slice. Acks are not
    /// barrier-gated — a sender's ack timeout measures the wire, never
    /// other workers' progress. A slice whose ack never arrives was lost
    /// (or addressed to a dead incarnation) and must be retransmitted.
    PushAcks {
        /// The acknowledged slices, in acceptance order.
        acks: Vec<Slice>,
        /// [`acks_checksum`] over the batch. A worker that computes a
        /// different value drops the whole batch: the acknowledged slices
        /// were delivered, so the barrier's `ParamReady` (or, at worst,
        /// the timeout resend sweep) supersedes the lost control frame.
        crc: u32,
    },
    /// A push slice arrived corrupted (frame verify failed) or carried a
    /// non-finite gradient value (NaN/Inf guard): the shard quarantined it
    /// without touching the accumulator. The sender must retransmit the
    /// named slice from its clean arena copy.
    PushNack {
        /// Identity of the rejected slice, same shape as an ack.
        nack: Slice,
    },
    /// Reply to a [`ToPs::PullReq`].
    PullData {
        /// Gradient/parameter id.
        grad: usize,
        /// First element of the slice.
        offset_elems: usize,
        /// The payload.
        data: Bytes,
        /// Length + CRC32 framing over the intended payload. A worker
        /// whose verify fails discards the frame and re-requests the
        /// slice — corrupted bytes never reach the parameter buffer.
        frame: FrameHeader,
    },
    /// A PS shard crash-restarted: its aggregation state for in-flight
    /// barriers was lost (parameters and optimiser state persist). On
    /// receipt a worker must re-push every gradient *owned by that shard*
    /// it has started pushing but not yet seen a [`ToWorker::ParamReady`]
    /// for, stamping the new epoch. Other shards are untouched.
    ShardRestarted {
        /// The shard that restarted.
        shard: usize,
        /// The shard's new incarnation number.
        epoch: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_bits() {
        let values = vec![
            0.0f32,
            -1.5,
            f32::MAX,
            f32::MIN_POSITIVE,
            std::f32::consts::PI,
        ];
        let encoded = encode_f32(&values);
        assert_eq!(encoded.len(), 20);
        let decoded = decode_f32(&encoded);
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_slice_roundtrip() {
        let encoded = encode_f32(&[]);
        assert!(decode_f32(&encoded).is_empty());
    }

    #[test]
    #[should_panic(expected = "not f32-aligned")]
    fn misaligned_payload_rejected() {
        decode_f32(&Bytes::from_static(&[1, 2, 3]));
    }

    #[test]
    fn encode_into_appends_without_reallocating() {
        let mut buf = bytes::BytesMut::with_capacity(12);
        encode_f32_into(&[1.0, 2.0], &mut buf);
        encode_f32_into(&[3.0], &mut buf);
        assert_eq!(decode_f32(&buf.freeze()), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn accumulate_adds_in_place_bit_exactly() {
        let wire = encode_f32(&[1.5, -2.0, 0.25]);
        let mut acc = [10.0f32, 20.0, 30.0];
        accumulate_f32_le(&wire, &mut acc);
        // Same result, bit for bit, as decode-then-add.
        let mut oracle = [10.0f32, 20.0, 30.0];
        for (o, v) in oracle.iter_mut().zip(decode_f32(&wire)) {
            *o += v;
        }
        for (a, o) in acc.iter().zip(&oracle) {
            assert_eq!(a.to_bits(), o.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "payload/accumulator mismatch")]
    fn accumulate_rejects_length_mismatch() {
        accumulate_f32_le(&encode_f32(&[1.0]), &mut [0.0, 0.0]);
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical CRC-32C (Castagnoli) check value.
        assert_eq!(crc32::checksum(b"123456789"), 0xE306_9283);
        assert_eq!(crc32::checksum(b""), 0);
    }

    #[test]
    fn crc32_hardware_and_software_paths_agree() {
        // Buffer lengths straddling every kernel boundary: sub-word tails,
        // the single-chain range, one interleaved round, several rounds
        // plus a ragged tail. Goldens must not depend on the host CPU.
        let data: Vec<u8> = (0..64 * 1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 2048, 8192, 8193, 40000, 65536] {
            assert_eq!(
                crc32::checksum(&data[..len]),
                crc32::checksum_sw(&data[..len]),
                "dispatched and table paths disagree at len {len}"
            );
        }
    }

    #[test]
    fn crc32_streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut crc = crc32::begin();
            crc = crc32::update(crc, &data[..split]);
            crc = crc32::update(crc, &data[split..]);
            assert_eq!(crc32::finish(crc), crc32::checksum(&data));
        }
    }

    #[test]
    fn frame_verify_catches_flips_and_truncation() {
        let payload = encode_f32(&[1.0, -2.5, 3.75]);
        let frame = FrameHeader::for_payload(&payload);
        assert!(frame.verify(&payload));

        let mut flipped = payload.to_vec();
        flipped[5] ^= 0x10;
        assert!(!frame.verify(&flipped));

        assert!(!frame.verify(&payload[..payload.len() - 4]));
    }

    #[test]
    fn fused_accumulate_matches_separate_passes() {
        let values: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let wire = encode_f32(&values);
        let mut fused_acc = vec![0.5f32; values.len()];
        let mut ref_acc = fused_acc.clone();
        let fused_crc = crc32::finish(fused_crc_accumulate(crc32::begin(), &wire, &mut fused_acc));
        accumulate_f32_le(&wire, &mut ref_acc);
        assert_eq!(fused_crc, crc32::checksum(&wire));
        for (f, r) in fused_acc.iter().zip(&ref_acc) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn fused_apply_matches_decode() {
        let values: Vec<f32> = (0..3000).map(|i| (i as f32) * -0.25).collect();
        let wire = encode_f32(&values);
        let mut dst = vec![99.0f32; values.len()];
        let crc = crc32::finish(fused_crc_apply(crc32::begin(), &wire, &mut dst));
        assert_eq!(crc, crc32::checksum(&wire));
        for (d, v) in dst.iter().zip(&values) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn encode_with_crc_matches_plain_encode() {
        let values: Vec<f32> = (0..5000).map(|i| (i as f32).cos() * 3.0).collect();
        let mut plain = bytes::BytesMut::new();
        encode_f32_into(&values, &mut plain);
        let mut with_crc = bytes::BytesMut::new();
        let crc = encode_f32_into_crc(&values, &mut with_crc);
        assert_eq!(plain, with_crc);
        assert_eq!(crc, crc32::checksum(&plain));
    }

    #[test]
    fn verify_accumulate_rejects_before_writing() {
        let wire = encode_f32(&[1.0, 2.0, 3.0]);
        let frame = FrameHeader::for_payload(&wire);
        let mut damaged = wire.to_vec();
        damaged[2] ^= 0x40;
        let mut acc = [7.0f32; 3];
        assert!(!verify_accumulate(&damaged, &frame, &mut acc));
        assert_eq!(acc, [7.0; 3], "corrupt frame touched the accumulator");
        assert!(verify_accumulate(&wire, &frame, &mut acc));
        assert_eq!(acc, [8.0, 9.0, 10.0]);
    }

    mod fused_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Fused CRC+accumulate ≡ (separate verify pass, separate
            /// accumulate pass) at random lengths, including sub-block
            /// tails and multi-block payloads straddling `FUSE_BLOCK`.
            #[test]
            fn fused_equals_separate(
                values in prop::collection::vec(-1e6f32..1e6f32, 0..5000),
                init in -100.0f32..100.0,
                offset_blocks in 0usize..3,
            ) {
                // Pad to straddle block boundaries at varying phases.
                let mut padded = vec![0.125f32; offset_blocks * (FUSE_BLOCK / 4) / 3];
                padded.extend_from_slice(&values);
                let wire = encode_f32(&padded);
                let mut fused = vec![init; padded.len()];
                let mut reference = fused.clone();
                let crc = crc32::finish(
                    fused_crc_accumulate(crc32::begin(), &wire, &mut fused),
                );
                accumulate_f32_le(&wire, &mut reference);
                prop_assert_eq!(crc, crc32::checksum(&wire));
                for (f, r) in fused.iter().zip(&reference) {
                    prop_assert_eq!(f.to_bits(), r.to_bits());
                }
            }

            /// The fused pass's CRC agrees with the table-based software
            /// path — goldens stay host-independent even when the fold
            /// dispatches to the SSE4.2 kernel.
            #[test]
            fn fused_crc_agrees_with_software_path(
                // Raw bit patterns: every f32, NaNs and infinities
                // included — the CRC sees bytes, not numbers.
                values in prop::collection::vec(
                    (0u32..=u32::MAX).prop_map(f32::from_bits),
                    0..4000,
                ),
            ) {
                let wire = encode_f32(&values);
                let mut acc = vec![0.0f32; values.len()];
                let crc = crc32::finish(
                    fused_crc_accumulate(crc32::begin(), &wire, &mut acc),
                );
                prop_assert_eq!(crc, crc32::checksum_sw(&wire));
                let mut dst = vec![0.0f32; values.len()];
                let crc2 = crc32::finish(
                    fused_crc_apply(crc32::begin(), &wire, &mut dst),
                );
                prop_assert_eq!(crc2, crc32::checksum_sw(&wire));
            }

            /// A corrupt frame must be rejected before any accumulator
            /// byte is written — the guarded composition keeps the
            /// accumulator bit-identical to its pre-call state for every
            /// flip position.
            #[test]
            fn corrupt_frames_never_touch_the_accumulator(
                values in prop::collection::vec(-1e3f32..1e3f32, 1..500),
                flip_byte in 0usize..2000,
                flip_bit in 0u8..8,
            ) {
                let wire = encode_f32(&values);
                let frame = FrameHeader::for_payload(&wire);
                let mut damaged = wire.to_vec();
                let pos = flip_byte % damaged.len();
                damaged[pos] ^= 1 << flip_bit;
                let before: Vec<f32> = (0..values.len())
                    .map(|i| i as f32 * 0.5 - 7.0)
                    .collect();
                let mut acc = before.clone();
                prop_assert!(!verify_accumulate(&damaged, &frame, &mut acc));
                for (a, b) in acc.iter().zip(&before) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }

            /// Truncated payloads are rejected by length before the CRC
            /// is even consulted; the accumulator slice stays untouched.
            #[test]
            fn truncated_frames_rejected(
                values in prop::collection::vec(-1e3f32..1e3f32, 2..300),
                cut in 1usize..100,
            ) {
                let wire = encode_f32(&values);
                let frame = FrameHeader::for_payload(&wire);
                let cut = cut.min(wire.len() - 1);
                let truncated = &wire[..wire.len() - cut];
                let mut acc = vec![0.0f32; values.len()];
                prop_assert!(!verify_accumulate(truncated, &frame, &mut acc));
                prop_assert!(acc.iter().all(|&a| a == 0.0));
            }
        }
    }

    #[test]
    fn ack_batch_checksum_is_order_and_field_sensitive() {
        let a = Slice {
            iter: 3,
            tensor: 7,
            offset: 0,
            len: 128,
            epoch: 1,
        };
        let b = Slice { tensor: 8, ..a };
        assert_eq!(acks_checksum(&[a, b]), acks_checksum(&[a, b]));
        assert_ne!(acks_checksum(&[a, b]), acks_checksum(&[b, a]));
        assert_ne!(acks_checksum(&[a]), acks_checksum(&[b]));
        assert_ne!(acks_checksum(&[]), acks_checksum(&[a]));
    }
}
