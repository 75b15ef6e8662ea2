//! The barrier pass: everything a closing BSP barrier does to one tensor,
//! in one traversal.
//!
//! A barrier folds every worker's staged push payload into the mean
//! gradient, steps the optimiser and re-encodes the pull frame. Run as
//! separate passes — zero-fill, fold, scale, optimiser, encode — a tensor
//! of B bytes with W whole payloads costs about (W + 12)·B bytes of memory
//! traffic, and at the model sizes the runtime moves every pass is a DRAM
//! walk. [`barrier_pass`] instead advances one [`BLOCK_ELEMS`] block at a
//! time and finishes the block before it touches the next: the
//! mean-gradient block never leaves L1, the parameters and optimiser state
//! are read and written once, and the pull frame is written once — (W +
//! 5)·B for SGD with momentum.
//!
//! The traversal order changes; the arithmetic order per element does not.
//! Within a block the workers fold in fixed index order, so each element
//! sums in exactly the worker order a tensor-at-a-time fold uses, then
//! scales, then steps: bit-identical, signed zeros and NaN payloads
//! included, for whole and sliced payloads, with momentum or without. Each
//! payload's CRC streams through the same traversal; under a corruption
//! plan the receive-time check has already turned damaged frames away, so
//! a mismatch here is genuine memory corruption in every mode.

use super::checkpoint::DurableCopy;
use super::runtime::ShardPhases;
use super::wire::{crc32, fused_crc_accumulate, FrameWriter};
use bytes::{Bytes, BytesMut};
use prophet_minidnn::Sgd;
use std::time::Instant;

/// Elements per block: `FUSE_BLOCK / 4` bytes' worth, so each full block of
/// a whole payload feeds the 4-way interleaved CRC kernel one round, and
/// the pull frame's writer flushes one round per block.
pub(super) const BLOCK_ELEMS: usize = 2048;

/// One staged push slice of a tensor: `(offset_elems, payload, frame
/// crc)`. The payload aliases the sender's arena — nothing is copied until
/// the barrier folds it — and the CRC rides along so the fold checks
/// integrity in the traversal that accumulates.
pub(super) type StagedSlice = (usize, Bytes, u32);

/// What one barrier pass reads and writes.
pub(super) struct Barrier<'a> {
    /// Every worker's staged slices of the tensor, indexed by worker (none
    /// for a worker outside the iteration), in any order; a worker's
    /// slices are disjoint. The pass drains them.
    pub staged: &'a mut [Vec<StagedSlice>],
    /// The mean's scale: one over the iteration's member count.
    pub inv: f32,
    pub params: &'a mut [f32],
    /// The part's optimiser, stepped as tensor 0.
    pub opt: &'a mut Sgd,
    /// The armed durable ledger entry: receives the mean gradient.
    pub mean: Option<&'a mut DurableCopy>,
    /// A due checkpoint's snapshot: receives the stepped parameters.
    pub snapshot: Option<&'a mut DurableCopy>,
    /// The pull frame: receives the stepped parameters, encoded.
    pub pull: &'a mut BytesMut,
}

/// One staged slice being folded.
struct Stream<'a> {
    worker: usize,
    off: usize,
    bytes: &'a [u8],
    /// The CRC the slice was admitted under, and the running one.
    want: u32,
    crc: u32,
}

impl Stream<'_> {
    fn end(&self) -> usize {
        self.off + self.bytes.len() / 4
    }
}

/// Close barrier `b`: fold, scale, step and encode the tensor a block at a
/// time, booking each stage's time and bytes walked to `phases`. Returns
/// the pull frame's CRC.
///
/// Panics when a staged payload fails the frame CRC it was admitted under.
pub(super) fn barrier_pass(mut b: Barrier<'_>, phases: &mut ShardPhases) -> u32 {
    let n = b.params.len();
    // In worker order. A worker's slices are disjoint, so their order
    // among themselves changes no sum.
    let mut streams: Vec<Stream<'_>> = Vec::new();
    for (worker, slices) in b.staged.iter().enumerate() {
        for (off, bytes, want) in slices {
            let s = Stream {
                worker,
                off: *off,
                bytes,
                want: *want,
                crc: crc32::begin(),
            };
            assert!(
                s.end() <= n,
                "slice from worker {worker} overruns its tensor"
            );
            phases.fold_bytes += bytes.len() as u64;
            streams.push(s);
        }
    }

    let mut acc = [0.0f32; BLOCK_ELEMS];
    let mut frame = FrameWriter::new();
    let mut t = Instant::now();
    let mut bo = 0;
    while bo < n {
        let be = (bo + BLOCK_ELEMS).min(n);
        let acc = &mut acc[..be - bo];
        acc.fill(0.0);
        for s in &mut streams {
            let (lo, hi) = (bo.max(s.off), be.min(s.end()));
            if lo < hi {
                let chunk = &s.bytes[(lo - s.off) * 4..(hi - s.off) * 4];
                s.crc = fused_crc_accumulate(s.crc, chunk, &mut acc[lo - bo..hi - bo]);
            }
        }
        for a in acc.iter_mut() {
            *a *= b.inv;
        }
        let t_opt = Instant::now();
        phases.accumulate_ns += t_opt.duration_since(t).as_nanos() as u64;
        let params = &mut b.params[bo..be];
        b.opt.step_slice(0, bo, params, acc);
        if let Some(mean) = b.mean.as_deref_mut() {
            mean.extend(acc);
        }
        let t_encode = Instant::now();
        phases.optimizer_ns += t_encode.duration_since(t_opt).as_nanos() as u64;
        frame.push(params, b.pull);
        if let Some(snapshot) = b.snapshot.as_deref_mut() {
            snapshot.extend(params);
        }
        t = Instant::now();
        phases.encode_ns += t.duration_since(t_encode).as_nanos() as u64;
        bo = be;
    }
    let crc = frame.finish(b.pull);
    for s in &streams {
        assert_eq!(
            crc32::finish(s.crc),
            s.want,
            "barrier fold: payload from worker {} fails the frame CRC it was \
             admitted under — genuine memory corruption",
            s.worker
        );
    }
    drop(streams);
    b.staged.iter_mut().for_each(Vec::clear);
    let bytes = n as u64 * 4;
    // SGD with momentum reads and writes the parameters and the velocity.
    phases.optimizer_bytes += 4 * bytes;
    phases.encode_bytes += bytes;
    crc
}

#[cfg(test)]
mod tests {
    use super::super::runtime::PS_MOMENTUM;
    use super::super::wire::{accumulate_f32_le, encode_f32, encode_f32_into_crc, FrameHeader};
    use super::*;
    use prophet_sim::Xoshiro256StarStar;
    use proptest::prelude::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The multi-pass sequence the barrier pass replaced: zero the
    /// accumulator, fold each worker's slices in worker order, scale,
    /// step the whole tensor, copy the mean (and the parameters) for the
    /// durable store, encode the pull frame.
    #[allow(clippy::type_complexity)]
    fn multi_pass(
        staged: &[Vec<StagedSlice>],
        inv: f32,
        params: &mut [f32],
        opt: &mut Sgd,
    ) -> (BytesMut, u32, (Vec<f32>, u32), (Vec<f32>, u32)) {
        let mut acc = vec![0.0f32; params.len()];
        for slices in staged {
            for (off, bytes, _) in slices {
                accumulate_f32_le(bytes, &mut acc[*off..*off + bytes.len() / 4]);
            }
        }
        for a in acc.iter_mut() {
            *a *= inv;
        }
        opt.step(0, params, &acc);
        let copy = |values: &[f32]| {
            let mut c = DurableCopy::with_capacity(values.len());
            c.extend(values);
            c.finish()
        };
        let (mean, snapshot) = (copy(&acc), copy(params));
        let mut pull = BytesMut::new();
        let crc = encode_f32_into_crc(params, &mut pull);
        (pull, crc, mean, snapshot)
    }

    /// `n` values with signed zeros and cancellation among them.
    fn values(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.next_u64() % 8 {
                0 => -0.0,
                1 => 0.0,
                k => ((rng.next_u64() % 2001) as f32 - 1000.0) * 0.37 * k as f32,
            })
            .collect()
    }

    /// Cut `0..n` into `1..=5` slices at random points (sub-block and
    /// block-straddling edges alike), in a random arrival order.
    fn slices(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<(usize, usize)> {
        let mut cuts: Vec<usize> = (0..rng.next_u64() % 5)
            .map(|_| rng.next_u64() as usize % n)
            .collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        cuts.dedup();
        let mut out: Vec<(usize, usize)> = cuts.windows(2).map(|c| (c[0], c[1])).collect();
        for i in (1..out.len()).rev() {
            out.swap(i, rng.next_u64() as usize % (i + 1));
        }
        out
    }

    proptest! {
        /// The barrier pass ≡ the multi-pass sequence, over three
        /// consecutive barriers (so the velocity carries): parameters,
        /// optimiser state, pull wire bytes and CRC, and the armed ledger
        /// entry and snapshot, bit for bit.
        #[test]
        fn barrier_pass_equals_the_multi_pass_sequence(
            n in 1usize..7000,
            workers in 1usize..6,
            sliced in 0u8..2,
            plain in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Xoshiro256StarStar::new(seed);
            let momentum = if plain == 1 { 0.0 } else { PS_MOMENTUM };
            let init = values(&mut rng, n);
            let (mut p_pass, mut p_ref) = (init.clone(), init);
            let mut o_pass = Sgd::new(0.05, momentum, &[n]);
            let mut o_ref = Sgd::new(0.05, momentum, &[n]);
            let inv = 1.0 / workers as f32;
            for _ in 0..3 {
                let mut staged: Vec<Vec<StagedSlice>> = (0..workers)
                    .map(|_| {
                        let grad = values(&mut rng, n);
                        let cuts = if sliced == 1 { slices(&mut rng, n) } else { vec![(0, n)] };
                        cuts.into_iter()
                            .map(|(lo, hi)| {
                                let wire = encode_f32(&grad[lo..hi]);
                                let crc = FrameHeader::for_payload(&wire).crc;
                                (lo, wire, crc)
                            })
                            .collect()
                    })
                    .collect();
                let (want_pull, want_crc, want_mean, want_snap) =
                    multi_pass(&staged, inv, &mut p_ref, &mut o_ref);
                let mut mean = DurableCopy::with_capacity(n);
                let mut snapshot = DurableCopy::with_capacity(n);
                let mut pull = BytesMut::new();
                let mut phases = ShardPhases::default();
                let crc = barrier_pass(
                    Barrier {
                        staged: &mut staged,
                        inv,
                        params: &mut p_pass,
                        opt: &mut o_pass,
                        mean: Some(&mut mean),
                        snapshot: Some(&mut snapshot),
                        pull: &mut pull,
                    },
                    &mut phases,
                );
                prop_assert!(staged.iter().all(Vec::is_empty), "staged slices not drained");
                prop_assert_eq!(bits(&p_pass), bits(&p_ref));
                prop_assert_eq!(bits(o_pass.velocity(0)), bits(o_ref.velocity(0)));
                prop_assert_eq!(&pull[..], &want_pull[..]);
                prop_assert_eq!(crc, want_crc);
                let (mean, mean_crc) = mean.finish();
                prop_assert_eq!((bits(&mean), mean_crc), (bits(&want_mean.0), want_mean.1));
                let (snap, snap_crc) = snapshot.finish();
                prop_assert_eq!((bits(&snap), snap_crc), (bits(&want_snap.0), want_snap.1));
                prop_assert_eq!(phases.fold_bytes, (workers * n * 4) as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fails the frame CRC")]
    fn damaged_payload_panics_at_the_fold() {
        let wire = encode_f32(&[1.0f32; 4096]);
        let crc = FrameHeader::for_payload(&wire).crc;
        let mut damaged = wire.to_vec();
        damaged[100] ^= 0x01;
        let mut staged = vec![vec![(0, Bytes::from(damaged), crc)]];
        let mut params = vec![0.0f32; 4096];
        barrier_pass(
            Barrier {
                staged: &mut staged,
                inv: 1.0,
                params: &mut params,
                opt: &mut Sgd::new(0.1, 0.0, &[4096]),
                mean: None,
                snapshot: None,
                pull: &mut BytesMut::new(),
            },
            &mut ShardPhases::default(),
        );
    }
}
