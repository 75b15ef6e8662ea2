//! What stands between a sender and its receiver: the emulated [`Link`]
//! every worker's transfers are charged to, and the [`CorruptInjector`]
//! that damages frames in flight per the plan's `PayloadCorrupt` windows.
//! Both read time only from the `now` their callers hand them.

use super::pool::ArenaPool;
use super::wire::FrameHeader;
use crate::protocol::Windows;
use bytes::Bytes;
use prophet_sim::{FaultKind, FaultPlan, Xoshiro256StarStar};
use std::sync::Arc;

/// How far a message may run ahead of its link: a send is due once no
/// more than this much of the link's charged time is left to drain.
pub(super) const BURST_NS: u64 = 200_000;

/// One worker's emulated link, a token bucket paid ahead instead of slept
/// on. A send *charges* its bytes and is handed over when it is *due*: the
/// instant a sender blocking on the bucket would have been let go. Pushes
/// and pulls share the one budget, as they share a NIC. The plan's link
/// windows freeze it (`LinkDown`) or scale its drain rate (`LinkDegrade`).
pub(super) struct Link {
    bps: Option<f64>,
    /// When everything charged so far has drained (ns since run start). A
    /// charge drains from `max(free_at, then)`: idle time is never banked.
    free_at: u64,
    /// When the latest charge fell due. The next one is priced as of then
    /// at the earliest — when a blocking sender would have made it.
    due: u64,
    windows: Arc<Windows>,
    /// The nodes whose link windows hit this sender: its own, plus every
    /// PS shard's, whose links all of the worker's transfers traverse.
    nodes: Vec<usize>,
}

impl Link {
    /// The link of worker `w` in a `shards`-shard topology.
    pub(super) fn new(bps: Option<f64>, windows: Arc<Windows>, w: usize, shards: usize) -> Self {
        Link {
            bps,
            free_at: 0,
            due: 0,
            windows,
            nodes: (0..shards).chain([shards + w]).collect(),
        }
    }

    /// Charge `bytes` sent at `now` and return when the message is due
    /// (both ns since run start).
    pub(super) fn charge(&mut self, bytes: u64, now: u64) -> u64 {
        // An unlimited link with no fault windows has nothing to meter;
        // this is every send on the fault-free unthrottled hot path.
        if self.bps.is_none() && self.windows.is_empty() {
            return now;
        }
        let mut at = now.max(self.due);
        // Freeze through any active outage window, even on an unlimited
        // link (an outage is absolute).
        while let Some(end) = self
            .windows
            .active_until(FaultKind::LinkDown, &self.nodes, at)
        {
            at = end;
        }
        if let Some(bps) = self.bps {
            // Degrade windows scale the drain rate; the factor at charge
            // time prices the whole message (windows are not integrated
            // across).
            let factor = self
                .windows
                .worst_at(FaultKind::LinkDegrade, &self.nodes, at)
                .unwrap_or(1.0);
            let cost = (bytes as f64 / (bps * factor) * 1e9) as u64;
            self.free_at = self.free_at.max(at) + cost;
            at = at.max(self.free_at.saturating_sub(BURST_NS));
        }
        self.due = at;
        at
    }

    /// When everything charged so far is due and drained: a sender blocked
    /// before then is waiting on its link, not on its peers.
    pub(super) fn busy_until(&self) -> u64 {
        self.due.max(self.free_at)
    }
}

/// Styles of in-flight damage the corruption injector inflicts.
#[derive(Clone, Copy)]
pub(super) enum Tamper {
    /// Flip one bit of one payload byte — caught by the CRC verify.
    BitFlip,
    /// Drop the last four bytes — caught by the length check.
    Truncate,
    /// Overwrite one `f32` with NaN and re-frame over the tampered bytes:
    /// models corruption *before* checksumming (bad DMA, bad host RAM),
    /// which only the shard's NaN/Inf gradient guard can catch.
    NanPoison,
}

/// Per-node corruption injector. Draws against the plan's `PayloadCorrupt`
/// windows whether an outgoing data frame is damaged in flight and applies
/// the damage to a pooled *copy*, leaving the clean source bytes untouched
/// — a NACKed slice retransmits bit-exactly from the original buffer window.
///
/// Like the loss doom draws, corruption draws come from a dedicated
/// substream of the plan seed (tagged by topology node), so adding a
/// corruption window never perturbs any other random stream.
pub(super) struct CorruptInjector {
    windows: Arc<Windows>,
    pub(super) rng: Xoshiro256StarStar,
}

impl CorruptInjector {
    pub(super) fn new(plan: &FaultPlan, windows: Arc<Windows>, node: u64) -> Self {
        CorruptInjector {
            windows,
            rng: Xoshiro256StarStar::new(plan.seed ^ 0xB17F_11B5).substream(node),
        }
    }

    /// Bernoulli corruption draw for a data frame sent at `now`, and the
    /// style of damage if drawn (pull replies and ack batches; a push draws
    /// its whole fate through [`Windows::send_fate`]).
    pub(super) fn draw(&mut self, now: u64, nan_ok: bool) -> Option<Tamper> {
        let hit = self
            .windows
            .hit(FaultKind::PayloadCorrupt, now, || self.rng.next_f64());
        hit.then(|| self.style(nan_ok))
    }

    /// Draw the style of damage for a frame the corruption window hit.
    /// `nan_ok` admits [`Tamper::NanPoison`]: NaN poisoning models a
    /// gradient-value hazard, so only push payloads draw it — pulls and
    /// acks damage the frame, never the semantics.
    pub(super) fn style(&mut self, nan_ok: bool) -> Tamper {
        let styles: &[Tamper] = if nan_ok {
            &[Tamper::BitFlip, Tamper::Truncate, Tamper::NanPoison]
        } else {
            &[Tamper::BitFlip, Tamper::Truncate]
        };
        styles[(self.rng.next_u64() % styles.len() as u64) as usize]
    }

    /// Damage a pooled copy of `clean` per `style`, returning the wire
    /// bytes to send and the frame header the receiver will verify them
    /// against. For flips and truncation the header describes the clean
    /// payload (in-flight damage: the receiver's verify fails); for NaN
    /// poison it is recomputed over the tampered bytes (pre-checksum
    /// damage: the CRC passes and only the NaN guard can object).
    pub(super) fn tamper(
        &mut self,
        style: Tamper,
        clean: &Bytes,
        pool: &mut ArenaPool,
    ) -> (Bytes, FrameHeader) {
        let frame = FrameHeader::for_payload(clean);
        let mut copy = pool.checkout_from(clean);
        if copy.is_empty() {
            return (copy.freeze(), frame);
        }
        match style {
            Tamper::BitFlip => {
                let i = (self.rng.next_u64() % copy.len() as u64) as usize;
                let bit = self.rng.next_u64() % 8;
                copy[i] ^= 1u8 << bit;
                (copy.freeze(), frame)
            }
            Tamper::Truncate => {
                let keep = copy.len().saturating_sub(4);
                copy.truncate(keep);
                (copy.freeze(), frame)
            }
            Tamper::NanPoison => {
                let slot = (self.rng.next_u64() % (copy.len() / 4) as u64) as usize * 4;
                copy[slot..slot + 4].copy_from_slice(&f32::NAN.to_le_bytes());
                let frame = FrameHeader::for_payload(&copy);
                (copy.freeze(), frame)
            }
        }
    }
}
