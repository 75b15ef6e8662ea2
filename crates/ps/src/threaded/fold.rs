//! The barrier-time aggregation fold.
//!
//! Push payloads are staged as wire bytes and both jobs — integrity check
//! and accumulate — happen in one pass at the barrier
//! ([`super::wire::fused_crc_accumulate`] for arbitrary slices, the
//! block-major fold here for the common whole-tensor case). Under a
//! corruption plan a receive-time verify has already turned damaged frames
//! away; the fold is the same.
//!
//! The block-major fold changes the *traversal order*, never the
//! *arithmetic order*: the accumulator advances one [`BLOCK_ELEMS`] block
//! at a time and, within a block, workers fold in fixed index order. Per
//! element the adds still happen in exactly the worker order a
//! worker-major fold uses, so results stay bit-identical (signed zeros, NaN payloads
//! and all) while the accumulator block stays L1-resident across all
//! worker streams instead of being re-walked once per worker.

use super::wire::crc32;
use bytes::Bytes;

/// Elements per fold block: `FUSE_BLOCK / 4` bytes' worth, so each full
/// block feeds the 4-way interleaved CRC kernel one round while resident.
const BLOCK_ELEMS: usize = 2048;

/// One worker's staged whole-tensor payload at a barrier.
pub(super) struct WorkerPayload<'a> {
    /// The wire bytes, covering the entire tensor from element 0.
    pub bytes: &'a Bytes,
    /// The frame checksum the sender declared; the fold recomputes it
    /// from the staged bytes and panics on mismatch (nothing between
    /// admission and this fold may damage a payload — a mismatch is
    /// genuine memory corruption, not an injected one).
    pub crc: u32,
    /// Sending worker, for the panic message.
    pub worker: usize,
}

/// Fold every whole-tensor payload into `acc` (which the caller zeroed),
/// verifying each payload's CRC in the same traversal: advance `acc` one
/// block at a time, folding every worker's matching payload window in
/// fixed worker order and streaming each worker's bytes into its CRC
/// state.
pub(super) fn fold_whole_deferred(payloads: &[WorkerPayload<'_>], acc: &mut [f32]) {
    let n = acc.len();
    for p in payloads {
        assert_eq!(p.bytes.len(), n * 4, "payload/accumulator mismatch");
    }
    let mut states = vec![crc32::begin(); payloads.len()];
    let mut bo = 0;
    while bo < n {
        let be = (bo + BLOCK_ELEMS).min(n);
        let ac = &mut acc[bo..be];
        for (st, p) in states.iter_mut().zip(payloads) {
            let bc = &p.bytes[bo * 4..be * 4];
            *st = crc32::update(*st, bc);
            for (a, c) in ac.iter_mut().zip(bc.chunks_exact(4)) {
                *a += f32::from_le_bytes(c.try_into().unwrap());
            }
        }
        bo = be;
    }
    for (p, s) in payloads.iter().zip(states) {
        check(p, crc32::finish(s));
    }
}

fn check(p: &WorkerPayload<'_>, got: u32) {
    assert_eq!(
        got, p.crc,
        "barrier fold: payload from worker {} fails the frame CRC it was \
         admitted under — genuine memory corruption",
        p.worker
    );
}

#[cfg(test)]
mod tests {
    use super::super::wire::{accumulate_f32_le, encode_f32, FrameHeader};
    use super::*;

    fn payloads_for(tensors: &[Vec<f32>]) -> (Vec<Bytes>, Vec<u32>) {
        let wires: Vec<Bytes> = tensors.iter().map(|t| encode_f32(t)).collect();
        let crcs = wires
            .iter()
            .map(|w| FrameHeader::for_payload(w).crc)
            .collect();
        (wires, crcs)
    }

    /// The eager reference: per-worker sequential accumulate over the
    /// whole range, in worker order.
    fn eager_fold(wires: &[Bytes], n: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; n];
        for w in wires {
            accumulate_f32_le(w, &mut acc);
        }
        acc
    }

    #[test]
    fn block_major_fold_is_bit_identical_to_eager() {
        // Lengths straddling the block size, values exercising signed
        // zeros and cancellation (addition-order-sensitive cases).
        for n in [1usize, 7, 2048, 2049, 6000, 10_000] {
            let tensors: Vec<Vec<f32>> = (0..5)
                .map(|w| {
                    (0..n)
                        .map(|i| {
                            let v = ((i * 31 + w * 17) as f32).sin() * 1e3;
                            if (i + w) % 13 == 0 {
                                -v
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            let (wires, crcs) = payloads_for(&tensors);
            let payloads: Vec<WorkerPayload<'_>> = wires
                .iter()
                .zip(&crcs)
                .enumerate()
                .map(|(w, (b, &crc))| WorkerPayload {
                    bytes: b,
                    crc,
                    worker: w,
                })
                .collect();
            let mut acc = vec![0.0f32; n];
            fold_whole_deferred(&payloads, &mut acc);
            let reference = eager_fold(&wires, n);
            for (a, r) in acc.iter().zip(&reference) {
                assert_eq!(a.to_bits(), r.to_bits(), "fold diverged at n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fails the frame CRC")]
    fn damaged_payload_panics_at_the_fold() {
        let tensors = vec![vec![1.0f32; 4096]];
        let (wires, crcs) = payloads_for(&tensors);
        let mut damaged = wires[0].to_vec();
        damaged[100] ^= 0x01;
        let damaged = Bytes::from(damaged);
        let payloads = vec![WorkerPayload {
            bytes: &damaged,
            crc: crcs[0],
            worker: 0,
        }];
        let mut acc = vec![0.0f32; 4096];
        fold_whole_deferred(&payloads, &mut acc);
    }
}
