//! A worker's parameters between the pull that lands them and the backward
//! step that last reads them: the intact pull replies themselves, kept as
//! zero-copy windows into the frames the shards encoded, and read in place
//! by the forward and the backward. Nothing decodes them into a private
//! copy. Iteration 0 reads the same way, from the drawn parameters
//! encoded once, a frame per part, which every initial member shares as if
//! the pull of iteration −1 had landed, and the part's shard then steps.
//!
//! * **Views.** A row that lies inside one window, with 4-byte-aligned
//!   bytes on a little-endian target, is handed out as an `&[f32]` view of
//!   the window. Any other row — one straddling a part cut, one crossing
//!   the edge of a sliced pull's window, one in a misaligned buffer — is
//!   assembled in one scratch row, reused for every such row.
//! * **Integrity.** A window's frame CRC streams as the forward first walks
//!   it, row by row, and is asserted once its last byte is in: a mismatch
//!   there is genuine memory corruption, since every reply was admitted
//!   intact. The backward reads bytes already verified.
//! * **Lifetime.** A tensor's windows are let go at the end of the backward
//!   step that last reads them, before its gradient is pushed — so every
//!   member has let go of a frame before the barrier that reclaims it.

use super::wire::{crc32, encode_f32_into_crc, FrameHeader};
use bytes::{Bytes, BytesMut};
use prophet_core::ShardMap;
use prophet_minidnn::RowSource;
use std::ops::Range;

/// One intact pull reply kept as parameters: elements `lo..` of its tensor.
#[derive(Clone)]
struct Window {
    lo: usize,
    data: Bytes,
    frame: FrameHeader,
    /// The frame CRC's state over `data[..checked]`.
    crc: u32,
    checked: usize,
}

impl Window {
    /// One past the last element it holds.
    fn hi(&self) -> usize {
        self.lo + self.data.len() / 4
    }

    /// Stream the CRC over the window-relative elements `from..to` on
    /// their first read, and assert the frame once the last byte is in.
    fn check(&mut self, from: usize, to: usize) {
        let (from, to) = (from * 4, to * 4);
        if to <= self.checked {
            return;
        }
        assert_eq!(from, self.checked, "pulled rows first read out of order");
        self.crc = crc32::update(self.crc, &self.data[from..to]);
        self.checked = to;
        if to == self.data.len() {
            assert!(
                self.frame.len as usize == to && crc32::finish(self.crc) == self.frame.crc,
                "pull window fails the frame CRC it was admitted under — genuine memory corruption"
            );
        }
    }
}

/// The landed pull windows of every tensor, served as a [`RowSource`]. A
/// clone shares the frames and checks their CRCs afresh.
#[derive(Clone)]
pub(super) struct Pulled {
    /// Per tensor, its windows in element order.
    windows: Vec<Vec<Window>>,
    /// Per tensor, the window its last row started in: rows come in order.
    cursor: Vec<usize>,
    /// The one row every assembled row is built in.
    scratch: Vec<f32>,
    /// Bytes assembled into the scratch row.
    pub(super) assembled_bytes: u64,
    /// Bytes of rows served, views and assembled alike.
    pub(super) read_bytes: u64,
}

impl Pulled {
    /// No windows yet, for a model of `tensors` tensors.
    pub(super) fn new(tensors: usize) -> Self {
        Pulled {
            windows: (0..tensors).map(|_| Vec::new()).collect(),
            cursor: vec![0; tensors],
            scratch: Vec::new(),
            assembled_bytes: 0,
            read_bytes: 0,
        }
    }

    /// The windows of `frames`, one per part of `map`, shared.
    pub(super) fn initial(map: &ShardMap, frames: &[(Bytes, FrameHeader)]) -> Self {
        let mut pulled = Pulled::new(map.tensors());
        for (part, (data, frame)) in map.parts().iter().zip(frames) {
            pulled.land(part.tensor, part.lo as usize, data.clone(), *frame);
        }
        pulled
    }

    /// Keep an intact reply — `data`, elements of tensor `grad` from
    /// `offset_elems`, sent under `frame` — as parameters.
    pub(super) fn land(
        &mut self,
        grad: usize,
        offset_elems: usize,
        data: Bytes,
        frame: FrameHeader,
    ) {
        let windows = &mut self.windows[grad];
        let at = windows.partition_point(|w| w.lo < offset_elems);
        let window = Window {
            lo: offset_elems,
            data,
            frame,
            crc: crc32::begin(),
            checked: 0,
        };
        windows.insert(at, window);
    }

    /// Let go of the windows of `tensors`.
    pub(super) fn release(&mut self, tensors: Range<usize>) {
        for t in tensors {
            self.windows[t].clear();
            self.cursor[t] = 0;
        }
    }
}

/// `values` encoded into a pull frame of their own.
pub(super) fn frame(values: &[f32]) -> (Bytes, FrameHeader) {
    let mut data = BytesMut::new();
    let crc = encode_f32_into_crc(values, &mut data);
    let len = data.len() as u32;
    (data.freeze(), FrameHeader { len, crc })
}

impl RowSource for Pulled {
    fn row(&mut self, tensor: usize, k: usize, width: usize) -> &[f32] {
        let (lo, hi) = (k * width, (k + 1) * width);
        let windows = &mut self.windows[tensor];
        let mut i = self.cursor[tensor];
        if windows.get(i).is_none_or(|w| w.lo > lo) {
            i = 0; // a new pass over the tensor
        }
        while windows.get(i).is_some_and(|w| w.hi() <= lo) {
            i += 1;
        }
        self.cursor[tensor] = i;
        self.read_bytes += width as u64 * 4;
        let missing = || -> ! { panic!("no pulled window holds row {k} of tensor {tensor}") };
        let w = windows
            .get_mut(i)
            .filter(|w| w.lo <= lo)
            .unwrap_or_else(|| missing());
        if hi <= w.hi() {
            let bytes = (lo - w.lo) * 4..(hi - w.lo) * 4;
            w.check(lo - w.lo, hi - w.lo);
            let aligned = w.data[bytes.start..].as_ptr().align_offset(4) == 0;
            if aligned && cfg!(target_endian = "little") {
                // SAFETY: every bit pattern is a valid `f32`, and the
                // bytes are aligned for one, so `align_to` leaves no
                // unaligned head or tail.
                let (head, row, _) = unsafe { self.windows[tensor][i].data[bytes].align_to() };
                debug_assert!(head.is_empty() && row.len() == width);
                return row;
            }
        }
        self.scratch.clear();
        let mut at = lo;
        while at < hi {
            let w = windows
                .get_mut(i)
                .filter(|w| w.lo <= at)
                .unwrap_or_else(|| missing());
            let end = w.hi().min(hi);
            w.check(at - w.lo, end - w.lo);
            let bytes = &w.data[(at - w.lo) * 4..(end - w.lo) * 4];
            let vals = bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()));
            self.scratch.extend(vals);
            at = end;
            i += 1;
        }
        self.assembled_bytes += width as u64 * 4;
        &self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::super::wire::encode_f32;
    use super::*;
    use prophet_minidnn::{Mlp, Tensor};

    impl Pulled {
        /// The windows of `tensor`, in element order: where each starts,
        /// and its bytes.
        pub(in crate::threaded) fn frames(
            &self,
            tensor: usize,
        ) -> impl Iterator<Item = (usize, &Bytes)> {
            self.windows[tensor].iter().map(|w| (w.lo, &w.data))
        }
    }

    /// Elements `range` of `values`, framed as a shard frames a pull reply.
    fn reply(values: &[f32], range: Range<usize>) -> (Bytes, FrameHeader) {
        let data = encode_f32(&values[range]);
        let frame = FrameHeader::for_payload(&data);
        (data, frame)
    }

    /// `data` copied to an odd address: every row in it is misaligned.
    fn misaligned(data: &Bytes) -> Bytes {
        let mut v = vec![0u8];
        v.extend_from_slice(data);
        Bytes::from(v).slice(1..)
    }

    /// A 4 × 3 tensor cut into windows at `cuts` (element offsets), rows
    /// read in order twice: every row carries the tensor's values, and the
    /// rows the cuts split are the ones assembled.
    #[test]
    fn rows_are_views_unless_a_cut_or_the_alignment_splits_them() {
        let values: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 2.0).collect();
        for (cuts, odd, assembled) in [
            (vec![0, 12], false, 0),
            (vec![0, 6, 12], false, 0),
            (vec![0, 4, 12], false, 1),
            (vec![0, 1, 2, 3, 12], false, 1),
            (vec![0, 5, 7, 12], false, 2),
            (vec![0, 12], true, 4),
        ] {
            let mut pulled = Pulled::new(1);
            // Land them out of order: the windows sort themselves.
            for w in cuts.windows(2).rev() {
                let (mut data, frame) = reply(&values, w[0]..w[1]);
                if odd {
                    data = misaligned(&data);
                }
                pulled.land(0, w[0], data, frame);
            }
            for pass in 0..2 {
                for k in 0..4 {
                    let row = pulled.row(0, k, 3).to_vec();
                    assert_eq!(row, values[k * 3..k * 3 + 3], "cuts {cuts:?}, row {k}");
                }
                let want = (pass + 1) * assembled * 12;
                assert_eq!(pulled.assembled_bytes, want as u64, "cuts {cuts:?}");
            }
            assert_eq!(pulled.read_bytes, 2 * 48);
            pulled.release(0..1);
            assert!(pulled.windows[0].is_empty(), "released windows kept");
        }
    }

    /// The analogue of the fold's damaged-payload check: a window whose
    /// bytes no longer match the frame it was admitted under fails the
    /// forward that first reads it.
    #[test]
    #[should_panic(expected = "fails the frame CRC")]
    fn a_damaged_window_panics_in_the_forward() {
        let model = Mlp::new(&[4, 3, 2], 5);
        let tensors: Vec<Vec<f32>> = model.param_slices().iter().map(|t| t.to_vec()).collect();
        let mut pulled = Pulled::new(tensors.len());
        for (g, t) in tensors.iter().enumerate() {
            let (data, frame) = reply(t, 0..t.len());
            let data = if g == 2 {
                let mut bytes = data.to_vec();
                bytes[5] ^= 0x01;
                Bytes::from(bytes)
            } else {
                data
            };
            pulled.land(g, 0, data, frame);
        }
        let x = Tensor::from_vec(1, 4, vec![0.5, -1.0, 0.25, 2.0]);
        Mlp::shape(&[4, 3, 2]).forward(&x, Some(&mut pulled));
    }

    /// The windows serve exactly the model's own answer.
    #[test]
    fn a_forward_on_windows_equals_the_forward_on_own_tensors() {
        let mut model = Mlp::new(&[5, 7, 3], 9);
        let x = Tensor::from_vec(2, 5, (0..10).map(|i| (i as f32).sin()).collect());
        let own = model.forward(&x, None);
        let mut pulled = Pulled::new(4);
        let tensors: Vec<Vec<f32>> = model.param_slices().iter().map(|t| t.to_vec()).collect();
        for (g, t) in tensors.iter().enumerate() {
            // Windows of 4 elements: rows of 7 cross their edges.
            for lo in (0..t.len()).step_by(4) {
                let (data, frame) = reply(t, lo..(lo + 4).min(t.len()));
                pulled.land(g, lo, data, frame);
            }
        }
        let from = model.forward(&x, Some(&mut pulled));
        let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&from), bits(&own));
        assert!(pulled.assembled_bytes > 0);
    }
}
