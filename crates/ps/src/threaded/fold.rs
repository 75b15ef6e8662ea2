//! The barrier pass: everything a closing BSP barrier does to one tensor,
//! in one traversal.
//!
//! A barrier folds every worker's staged push payload into the mean
//! gradient and steps the parameters, which live in the part's pull frame.
//! Run as separate passes — zero-fill, fold, scale, optimiser, encode — a
//! tensor of B bytes with W whole payloads costs about (W + 12)·B bytes of
//! memory traffic, each pass a DRAM walk. [`barrier_pass`] instead finishes
//! one [`BLOCK_ELEMS`] block before it touches the next: the mean block
//! never leaves L1, the frame and optimiser state are read and written
//! once, and the frame CRC reads each block just stepped — (W + 4)·B for
//! SGD with momentum. While a window of the frame is held (a late reply, a
//! retransmit) it writes a fresh frame, same bytes and CRC: (W + 5)·B.
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
    /// The pull frame: the parameters the pass steps.
    pub frame: Bytes,
    /// The part's optimiser, stepped as tensor 0.
    pub opt: &'a mut Sgd,
    /// The armed durable ledger entry: receives the mean gradient.
    pub mean: Option<&'a mut DurableCopy>,
    /// A due checkpoint's snapshot: receives the stepped parameters.
    pub snapshot: Option<&'a mut DurableCopy>,
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

/// Close barrier `b`: fold, scale and step the tensor a block at a time,
/// booking each stage's time and bytes walked to `phases`. Returns the
/// stepped frame, its CRC, and whether it was stepped in place.
///
/// Panics when a staged payload fails the frame CRC it was admitted under.
pub(super) fn barrier_pass(mut b: Barrier<'_>, phases: &mut ShardPhases) -> (Bytes, u32, bool) {
    let n = b.frame.len() / 4;
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

    // In place only on the frame's one handle, holding `f32`s as stored.
    let le = cfg!(target_endian = "little");
    let (mut own, old) = match b.frame.try_into_mut() {
        Ok(m) if le && m.as_ptr().align_offset(4) == 0 => (Some(m), Bytes::new()),
        Ok(m) => (None, m.freeze()),
        Err(held) => (None, held),
    };
    let in_place = own.is_some();
    let mut fresh = BytesMut::with_capacity(if in_place { 0 } else { n * 4 });
    let mut writer = FrameWriter::new();
    let mut crc = crc32::begin();
    let mut scratch = [0.0f32; BLOCK_ELEMS];
    let mut acc = [0.0f32; BLOCK_ELEMS];
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
        let bytes = bo * 4..be * 4;
        let params = match &mut own {
            // SAFETY: every bit pattern is a valid `f32`, and the block is
            // aligned for one, so `align_to_mut` leaves no head or tail.
            Some(own) => unsafe { own[bytes.clone()].align_to_mut().1 },
            None => {
                let params = &mut scratch[..be - bo];
                for (p, c) in params.iter_mut().zip(old[bytes.clone()].chunks_exact(4)) {
                    *p = f32::from_le_bytes(c.try_into().unwrap());
                }
                params
            }
        };
        b.opt.step_slice(0, bo, params, acc);
        if let Some(mean) = b.mean.as_deref_mut() {
            mean.extend(acc);
        }
        let t_encode = Instant::now();
        phases.optimizer_ns += t_encode.duration_since(t_opt).as_nanos() as u64;
        if let Some(snapshot) = b.snapshot.as_deref_mut() {
            snapshot.extend(params);
        }
        if !in_place {
            writer.push(params, &mut fresh);
        } else if let Some(own) = &own {
            crc = crc32::update(crc, &own[bytes]);
        }
        t = Instant::now();
        phases.encode_ns += t.duration_since(t_encode).as_nanos() as u64;
        bo = be;
    }
    let crc = if in_place {
        crc32::finish(crc)
    } else {
        writer.finish(&mut fresh)
    };
    let frame = own.unwrap_or(fresh).freeze();
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
    // SGD with momentum reads and writes the parameters and the velocity.
    phases.optimizer_bytes += 16 * n as u64;
    phases.encode_bytes += if in_place { 0 } else { 4 * n as u64 };
    (frame, crc, in_place)
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

    /// The `f32`s of a frame's little-endian bytes.
    fn decode(frame: &[u8]) -> Vec<f32> {
        let vals = frame
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()));
        vals.collect()
    }

    proptest! {
        /// The barrier pass ≡ the multi-pass sequence, over three
        /// consecutive barriers (so the velocity carries): parameters,
        /// optimiser state, pull wire bytes and CRC, and the armed ledger
        /// entry and snapshot, bit for bit — stepped in place when the pass
        /// holds the frame's only handle, into a fresh buffer when a window
        /// of it is held across the barrier (`held`, one bit per barrier),
        /// which then still reads the old parameters.
        #[test]
        fn barrier_pass_equals_the_multi_pass_sequence(
            n in 1usize..7000,
            workers in 1usize..6,
            sliced in 0u8..2,
            plain in 0u8..2,
            held in 0u8..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Xoshiro256StarStar::new(seed);
            let momentum = if plain == 1 { 0.0 } else { PS_MOMENTUM };
            let mut p_ref = values(&mut rng, n);
            let mut frame = encode_f32(&p_ref);
            let mut o_pass = Sgd::new(0.05, momentum, &[n]);
            let mut o_ref = Sgd::new(0.05, momentum, &[n]);
            let inv = 1.0 / workers as f32;
            for barrier in 0..3 {
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
                let old = frame.to_vec();
                let window = (held >> barrier & 1 == 1).then(|| frame.slice(4 * (n / 2)..));
                let unique = window.is_none()
                    && frame.as_ptr().align_offset(4) == 0
                    && cfg!(target_endian = "little");
                let ptr = frame.as_ptr();
                let (want_pull, want_crc, want_mean, want_snap) =
                    multi_pass(&staged, inv, &mut p_ref, &mut o_ref);
                let mut mean = DurableCopy::with_capacity(n);
                let mut snapshot = DurableCopy::with_capacity(n);
                let mut phases = ShardPhases::default();
                let (stepped, crc, in_place) = barrier_pass(
                    Barrier {
                        staged: &mut staged,
                        inv,
                        frame,
                        opt: &mut o_pass,
                        mean: Some(&mut mean),
                        snapshot: Some(&mut snapshot),
                    },
                    &mut phases,
                );
                frame = stepped;
                prop_assert_eq!(in_place, unique);
                prop_assert_eq!(frame.as_ptr() == ptr, in_place, "in place iff the same allocation");
                if let Some(window) = window {
                    prop_assert_eq!(&window[..], &old[4 * (n / 2)..], "a held window changed");
                }
                prop_assert!(staged.iter().all(Vec::is_empty), "staged slices not drained");
                prop_assert_eq!(bits(&decode(&frame)), bits(&p_ref));
                prop_assert_eq!(bits(o_pass.velocity(0)), bits(o_ref.velocity(0)));
                prop_assert_eq!(&frame[..], &want_pull[..]);
                prop_assert_eq!(crc, want_crc);
                let (mean, mean_crc) = mean.finish();
                prop_assert_eq!((bits(&mean), mean_crc), (bits(&want_mean.0), want_mean.1));
                let (snap, snap_crc) = snapshot.finish();
                prop_assert_eq!((bits(&snap), snap_crc), (bits(&want_snap.0), want_snap.1));
                prop_assert_eq!(phases.fold_bytes, (workers * n * 4) as u64);
                prop_assert_eq!(phases.encode_bytes, if in_place { 0 } else { n as u64 * 4 });
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
        barrier_pass(
            Barrier {
                staged: &mut staged,
                inv: 1.0,
                frame: encode_f32(&[0.0f32; 4096]),
                opt: &mut Sgd::new(0.1, 0.0, &[4096]),
                mean: None,
                snapshot: None,
            },
            &mut ShardPhases::default(),
        );
    }
}
