//! The durable checkpoint/ledger store behind permanent shard failure.
//!
//! The threaded PS treats parameters and optimiser state (each part's SGD
//! velocity) as shard-thread RAM; surviving a *permanent* shard death
//! therefore needs state that outlives the thread. [`DurableStore`] models
//! the paper repro's durable tier: per-part **epoch-stamped snapshot
//! generations** plus a **byte ledger** of every mean gradient applied
//! since the oldest retained snapshot (a part is the extent of a tensor
//! one shard owns, the unit a dead shard's state re-homes in). Restoring a
//! part is `clone(newest intact snapshot) + replay(ledger)` — the replay
//! performs the exact same `f32` SGD steps the dead shard performed live,
//! in the same order, so the adopted state is **bit-identical** to the
//! state the shard would have held had it never died. That identity is
//! what makes the deterministic recovery contract (chaos oracle 4) hold on
//! the threaded runtime, and it is pinned by the property test below.
//!
//! Everything durable is **verified**: each snapshot generation stores a
//! CRC32 of its parameters and each ledger entry stores a CRC32 of its
//! gradient, both recomputed before the bytes are trusted. A
//! `CheckpointCorrupt` fault silently flips a bit in the newest snapshot;
//! [`DurableStore::restore`] detects the damage (recomputed CRC disagrees)
//! and *falls back* to the next-older generation, paying a longer ledger
//! replay instead of serving poison. Retention GC and the fallback walk are
//! [`GenChain`]'s — the one rule the simulator's byte-cost model runs too,
//! at the same [`CHECKPOINT_RETENTION`] — with this store's CRC scrub as
//! the intactness test.
//!
//! The store is dormant (zero allocation, zero locking on the hot path)
//! unless the fault plan actually kills a shard — mirroring the simulator,
//! whose checkpoint machinery only arms under `FaultPlan::has_shard_fail`.
//!
//! [`CHECKPOINT_RETENTION`]: crate::protocol::CHECKPOINT_RETENTION

use super::runtime::PS_MOMENTUM;
use super::wire::crc32;
use crate::protocol::{GenChain, Generation};
use prophet_minidnn::Sgd;
use std::sync::Mutex;

/// Stream `values`' canonical little-endian encoding through a CRC32
/// state. Goes through a fixed stack block so the byte conversion
/// vectorises.
fn crc_f32(mut crc: u32, values: &[f32]) -> u32 {
    const BLOCK: usize = 2048;
    let mut buf = [0u8; BLOCK * 4];
    for chunk in values.chunks(BLOCK) {
        for (b, v) in buf.chunks_exact_mut(4).zip(chunk) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        crc = crc32::update(crc, &buf[..chunk.len() * 4]);
    }
    crc
}

/// CRC32 over a parameter vector's canonical little-endian encoding —
/// the integrity stamp snapshots and ledger entries carry.
pub(crate) fn params_crc(values: &[f32]) -> u32 {
    crc32::finish(crc_f32(crc32::begin(), values))
}

/// A durable copy of a part-sized vector, built a block at a time and
/// checksummed as it grows: the barrier pass fills one with the mean
/// gradient (the ledger entry) and, when a checkpoint is due, one with the
/// stepped parameters, each block while it is cache-hot.
pub(crate) struct DurableCopy {
    values: Vec<f32>,
    crc: u32,
}

impl DurableCopy {
    /// An empty copy with room for `elems` values.
    pub(crate) fn with_capacity(elems: usize) -> Self {
        DurableCopy {
            values: Vec::with_capacity(elems),
            crc: crc32::begin(),
        }
    }

    /// Append the next block.
    pub(crate) fn extend(&mut self, block: &[f32]) {
        self.values.extend_from_slice(block);
        self.crc = crc_f32(self.crc, block);
    }

    /// The values and the CRC32 of their little-endian encoding.
    pub(crate) fn finish(self) -> (Vec<f32>, u32) {
        (self.values, crc32::finish(self.crc))
    }
}

/// One snapshot generation of a part: the durable bytes, the iteration
/// they cover through, the checksum they were written under, and the
/// ledger segment of updates applied since.
struct Snapshot {
    params: Vec<f32>,
    opt: Sgd,
    /// Iteration the snapshot covers through (`None` = the initial,
    /// pre-iteration-0 model).
    upto: Option<u64>,
    /// CRC32 of `params` at write time; a recomputed mismatch at restore
    /// or GC time means the generation is corrupted and must be skipped.
    crc: u32,
    /// `(iter, mean gradient, crc)` entries applied after this snapshot
    /// and before the next one, in application order.
    ledger: Vec<(u64, Vec<f32>, u32)>,
}

impl Generation for Snapshot {
    fn intact(&self) -> bool {
        params_crc(&self.params) == self.crc
    }

    fn restore_bytes(&self) -> u64 {
        let elems = self.params.len() + self.ledger.iter().map(|e| e.1.len()).sum::<usize>();
        elems as u64 * 4
    }

    fn absorb_ledger(&mut self, mut newer: Self) {
        self.ledger.append(&mut newer.ledger);
    }
}

/// What [`DurableStore::restore`] hands back, plus its cost accounting.
pub(crate) struct Restored {
    /// The rebuilt parameter vector, bit-identical to the live one.
    pub params: Vec<f32>,
    /// The rebuilt optimiser state.
    pub opt: Sgd,
    /// Last iteration the rebuilt state reflects (`None` = initial model).
    pub upto: Option<u64>,
    /// Bytes read back: every snapshot examined (intact or not) plus every
    /// ledger entry replayed — the recovery cost.
    pub bytes: u64,
    /// Corrupted generations skipped before the intact one was found; 0 on
    /// the happy path, ≥ 1 when the newest snapshot failed its verify.
    pub depth: u64,
}

/// The durable tier shards checkpoint into and adopters restore from.
///
/// Sharded by part (one mutex per part), so two shards checkpointing
/// concurrently never contend. Which generations are retained and which
/// one a restore starts from is [`GenChain`]'s rule; this store holds the
/// bytes. Every method is a no-op when the store is not armed;
/// [`DurableStore::restore`] panics instead — restoring from a store that
/// recorded nothing is a bug worth dying loudly over.
pub(crate) struct DurableStore {
    /// One chain per part; empty when the store is dormant.
    slots: Vec<Mutex<GenChain<Snapshot>>>,
}

impl DurableStore {
    /// A store seeded with the initial model (the implicit iteration-0
    /// checkpoint every run starts from). `init` is the full model, one
    /// slice per part in part-id order; dormant stores record nothing.
    /// `retention` bounds how many generations GC keeps per part: a run
    /// passes [`crate::protocol::CHECKPOINT_RETENTION`]; the tests below
    /// sweep it.
    pub(crate) fn new(armed: bool, init: &[&[f32]], lr: f32, retention: usize) -> Self {
        let init = if armed { init } else { &[] };
        let slots = init
            .iter()
            .map(|p| {
                let initial = Snapshot {
                    params: p.to_vec(),
                    opt: Sgd::new(lr, PS_MOMENTUM, &[p.len()]),
                    upto: None,
                    crc: params_crc(p),
                    ledger: Vec::new(),
                };
                Mutex::new(GenChain::new(initial, retention))
            })
            .collect();
        DurableStore { slots }
    }

    /// Whether the checkpoint machinery is live.
    pub(crate) fn armed(&self) -> bool {
        !self.slots.is_empty()
    }

    fn slot(&self, p: usize) -> std::sync::MutexGuard<'_, GenChain<Snapshot>> {
        self.slots[p]
            .lock()
            .expect("a checkpointing thread panicked")
    }

    /// Record the mean gradient a barrier applied to part `p` at `iter`.
    /// Must be called for every applied update while armed — the ledger is
    /// the replay log that carries a restore past its snapshot.
    pub(crate) fn note_update(&self, p: usize, iter: u64, mean: DurableCopy) {
        if !self.armed() {
            return;
        }
        let mut slot = self.slot(p);
        let ledger = &mut slot.newest_mut().ledger;
        debug_assert!(
            ledger.last().is_none_or(|&(i, _, _)| i < iter),
            "ledger for part {p} out of order"
        );
        let (mean, crc) = mean.finish();
        ledger.push((iter, mean, crc));
    }

    /// Snapshot part `p` as of (the end of) `iter` as a new generation;
    /// [`GenChain::push`] then trims the part back to its retention.
    /// When `poison` is set, one bit of the *stored* copy is flipped after
    /// its checksum was computed — the silent-corruption model of
    /// `CheckpointCorrupt`. The live part is untouched; only the durable
    /// generation is damaged, and only a verified restore can tell.
    pub(crate) fn checkpoint(
        &self,
        p: usize,
        iter: u64,
        params: DurableCopy,
        opt: &Sgd,
        poison: bool,
    ) {
        if !self.armed() {
            return;
        }
        let (mut stored, crc) = params.finish();
        if poison && !stored.is_empty() {
            stored[0] = f32::from_bits(stored[0].to_bits() ^ 1);
        }
        self.slot(p).push(Snapshot {
            params: stored,
            opt: opt.clone(),
            upto: Some(iter),
            crc,
            ledger: Vec::new(),
        });
    }

    /// Rebuild part `p`'s state: clone the generation
    /// [`GenChain::fallback`] chose and replay every ledger entry past it,
    /// verifying each entry's checksum as it is applied.
    pub(crate) fn restore(&self, p: usize) -> Restored {
        assert!(self.armed(), "restore from a dormant store");
        let slot = self.slot(p);
        let fb = slot.fallback().expect("no intact checkpoint generation");
        let walked = &slot.gens()[fb.intact..];
        let mut params = walked[0].params.clone();
        let mut opt = walked[0].opt.clone();
        let mut upto = walked[0].upto;
        for (iter, mean, crc) in walked.iter().flat_map(|gen| &gen.ledger) {
            assert_eq!(
                params_crc(mean),
                *crc,
                "corrupt ledger entry for part {p} at iteration {iter}"
            );
            opt.step(0, &mut params, mean);
            upto = Some(*iter);
        }
        Restored {
            params,
            opt,
            upto,
            bytes: fb.bytes,
            depth: fb.depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A durable copy of `values` in one block.
    fn copy(values: &[f32]) -> DurableCopy {
        let mut c = DurableCopy::with_capacity(values.len());
        c.extend(values);
        c
    }

    /// Drive a live tensor and the store through the same update sequence
    /// with a checkpoint somewhere in the middle, then compare the restored
    /// state against the live one — params bit-exact, and still bit-exact
    /// after one *further* step (which catches optimiser-state divergence
    /// that identical params alone would hide).
    fn roundtrip(elems: usize, grads: &[Vec<f32>], ckpt_after: usize) {
        let init = vec![0.25f32; elems];
        let store = DurableStore::new(true, &[&init], 0.1, 2);
        let mut live_p = init.clone();
        let mut live_o = Sgd::new(0.1, PS_MOMENTUM, &[elems]);
        for (i, g) in grads.iter().enumerate() {
            live_o.step(0, &mut live_p, g);
            store.note_update(0, i as u64, copy(g));
            if i + 1 == ckpt_after {
                store.checkpoint(0, i as u64, copy(&live_p), &live_o, false);
            }
        }
        let r = store.restore(0);
        let (mut rp, mut ro) = (r.params, r.opt);
        assert!(r.bytes > 0);
        assert_eq!(r.depth, 0);
        if grads.is_empty() {
            assert_eq!(r.upto, None);
        } else {
            assert_eq!(r.upto, Some(grads.len() as u64 - 1));
        }
        assert_eq!(
            rp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            live_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "restored params diverged"
        );
        let probe = vec![0.5f32; elems];
        ro.step(0, &mut rp, &probe);
        live_o.step(0, &mut live_p, &probe);
        assert_eq!(
            rp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            live_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "restored optimiser state diverged"
        );
    }

    proptest! {
        #[test]
        fn snapshot_plus_ledger_replay_is_bit_identical(
            elems in 1usize..6,
            steps in 0usize..8,
            ckpt_after in 0usize..9,
            seed in 0u64..1_000_000,
        ) {
            // Integer-derived gradients: deterministic, covers sign and
            // magnitude spread without NaN/inf corners.
            let grads: Vec<Vec<f32>> = (0..steps)
                .map(|i| {
                    (0..elems)
                        .map(|j| {
                            let h = seed
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add((i * 31 + j) as u64);
                            ((h >> 33) as i32 % 257) as f32 / 16.0
                        })
                        .collect()
                })
                .collect();
            roundtrip(elems, &grads, ckpt_after);
        }
    }

    #[test]
    fn dormant_store_records_nothing_and_costs_nothing() {
        let store = DurableStore::new(false, &[&[1.0f32; 4]], 0.1, 2);
        assert!(!store.armed());
        assert!(store.slots.is_empty());
        store.note_update(0, 0, copy(&[1.0; 4])); // no-op, must not panic
        store.checkpoint(0, 0, copy(&[1.0; 4]), &Sgd::new(0.1, 0.0, &[4]), false);
    }

    #[test]
    #[should_panic(expected = "restore from a dormant store")]
    fn dormant_restore_panics() {
        let store = DurableStore::new(false, &[&[1.0f32; 4]], 0.1, 2);
        let _ = store.restore(0);
    }

    #[test]
    fn checkpoint_truncates_the_ledger() {
        let store = DurableStore::new(true, &[&[0.0f32; 2]], 0.05, 2);
        let mut p = vec![0.0f32; 2];
        let mut o = Sgd::new(0.05, PS_MOMENTUM, &[2]);
        for i in 0..4u64 {
            let g = vec![1.0f32 + i as f32; 2];
            o.step(0, &mut p, &g);
            store.note_update(0, i, copy(&g));
        }
        store.checkpoint(0, 3, copy(&p), &o, false);
        // Post-checkpoint restore replays nothing: bytes = newest snapshot.
        let r = store.restore(0);
        assert_eq!(r.upto, Some(3));
        assert_eq!(r.bytes, 8);
        assert_eq!(r.depth, 0);
        assert_eq!(r.params, p);
    }

    /// A poisoned newest snapshot must be detected and skipped: the
    /// restore pays for reading it, reports the fallback depth, and still
    /// reproduces the live state bit-exactly from the older generation
    /// plus a longer ledger replay.
    #[test]
    fn restore_falls_back_past_a_corrupted_snapshot() {
        let elems = 3;
        let store = DurableStore::new(true, &[&vec![0.5f32; elems][..]], 0.1, 3);
        let mut p = vec![0.5f32; elems];
        let mut o = Sgd::new(0.1, PS_MOMENTUM, &[elems]);
        for i in 0..6u64 {
            let g = vec![0.25f32 * (i as f32 + 1.0); elems];
            o.step(0, &mut p, &g);
            store.note_update(0, i, copy(&g));
            if i == 1 {
                store.checkpoint(0, i, copy(&p), &o, false);
            }
            if i == 4 {
                store.checkpoint(0, i, copy(&p), &o, true); // poisoned
            }
        }
        let r = store.restore(0);
        assert_eq!(r.depth, 1, "must have skipped the poisoned newest gen");
        assert_eq!(r.upto, Some(5));
        // Cost: poisoned snapshot read + intact snapshot read + replay of
        // iterations 2..=5 (4 entries).
        assert_eq!(r.bytes, (elems * 4 * 2 + elems * 4 * 4) as u64);
        assert_eq!(
            r.params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fallback restore diverged from live state"
        );
    }

    /// With retention 1 and every new snapshot poisoned, GC must collect
    /// the poisoned newcomers — never the lone intact generation — and a
    /// later clean checkpoint finally displaces it.
    #[test]
    fn gc_never_collects_the_only_intact_generation() {
        let store = DurableStore::new(true, &[&[1.0f32; 2]], 0.1, 1);
        let mut p = vec![1.0f32; 2];
        let mut o = Sgd::new(0.1, PS_MOMENTUM, &[2]);
        for i in 0..4u64 {
            let g = vec![0.5f32; 2];
            o.step(0, &mut p, &g);
            store.note_update(0, i, copy(&g));
            store.checkpoint(0, i, copy(&p), &o, true); // always poisoned
        }
        {
            let slot = store.slot(0);
            let gens = slot.gens();
            assert_eq!(gens.len(), 1, "retention 1 must hold");
            assert!(gens[0].intact(), "GC collected the intact gen");
            assert_eq!(gens[0].upto, None, "the initial gen must survive");
            assert_eq!(gens[0].ledger.len(), 4, "full replay tail must survive");
        }
        // Recovery is still bit-exact from the initial gen + full replay.
        let r = store.restore(0);
        assert_eq!(r.depth, 0, "poisoned gens were GC'd, not walked");
        assert_eq!(
            r.params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        // A clean checkpoint finally displaces the initial generation.
        store.checkpoint(0, 3, copy(&p), &o, false);
        let slot = store.slot(0);
        assert_eq!(slot.gens().len(), 1);
        assert_eq!(slot.gens()[0].upto, Some(3));
        assert!(
            slot.gens()[0].ledger.is_empty(),
            "ledger truncated to the new gen"
        );
    }
}
