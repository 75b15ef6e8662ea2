//! The durable checkpoint/ledger store behind permanent shard failure.
//!
//! The threaded PS treats parameters and optimiser state as shard-thread
//! RAM; surviving a *permanent* shard death therefore needs state that
//! outlives the thread. [`DurableStore`] models the paper repro's durable
//! tier: per-tensor **epoch-stamped snapshot generations** plus a **byte
//! ledger** of every mean gradient applied since the oldest retained
//! snapshot. Restoring a tensor is `clone(newest intact snapshot) +
//! replay(ledger)` — the replay performs the exact same `f32` optimiser
//! steps the dead shard performed live, in the same order, so the adopted
//! state is **bit-identical** to the state the shard would have held had it
//! never died. That identity is what makes the deterministic recovery
//! contract (chaos oracle 4) hold on the threaded runtime, and it is pinned
//! by the property test below.
//!
//! Everything durable is **verified**: each snapshot generation stores a
//! CRC32 of its parameters and each ledger entry stores a CRC32 of its
//! gradient, both recomputed before the bytes are trusted. A
//! `CheckpointCorrupt` fault silently flips a bit in the newest snapshot;
//! [`DurableStore::restore`] detects the damage (recomputed CRC disagrees)
//! and *falls back* to the next-older generation, paying a longer ledger
//! replay instead of serving poison. Retention GC and the fallback walk are
//! [`GenChain`]'s — the one rule the simulator's byte-cost model runs too —
//! with this store's CRC scrub as the intactness test.
//!
//! The store is dormant (zero allocation, zero locking on the hot path)
//! unless the fault plan actually kills a shard — mirroring the simulator,
//! whose checkpoint machinery only arms under `FaultPlan::has_shard_fail`.

use super::runtime::PsOptimizer;
use super::wire::crc32;
use crate::protocol::{GenChain, Generation};
use prophet_minidnn::{Adam, Sgd};
use std::sync::Mutex;

/// Per-tensor optimiser state. One instance per tensor (always stepped as
/// id 0) is bit-identical to the old per-shard instance with local ids —
/// `Sgd` velocity and `Adam` moments/timesteps are all tracked per id — and
/// it is what lets a tensor's optimiser state travel to an adopting shard.
#[derive(Clone)]
pub(crate) enum OptState {
    /// SGD with classical momentum.
    Sgd(Sgd),
    /// Adam with canonical defaults.
    Adam(Adam),
}

impl OptState {
    /// Zero-state optimiser for one tensor of `elems` parameters.
    pub(crate) fn fresh(cfg: PsOptimizer, lr: f32, elems: usize) -> Self {
        match cfg {
            PsOptimizer::Sgd { momentum } => OptState::Sgd(Sgd::new(lr, momentum, &[elems])),
            PsOptimizer::Adam => OptState::Adam(Adam::new(lr, &[elems])),
        }
    }

    /// Apply one mean gradient to `params` in place.
    pub(crate) fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        match self {
            OptState::Sgd(o) => o.step(0, params, grad),
            OptState::Adam(o) => o.step(0, params, grad),
        }
    }
}

/// CRC32 over a parameter vector's canonical little-endian encoding —
/// the integrity stamp snapshots and ledger entries carry. Goes through a
/// fixed stack block so the byte conversion vectorises.
pub(crate) fn params_crc(values: &[f32]) -> u32 {
    const BLOCK: usize = 512;
    let mut crc = crc32::begin();
    let mut buf = [0u8; BLOCK * 4];
    for chunk in values.chunks(BLOCK) {
        for (b, v) in buf.chunks_exact_mut(4).zip(chunk) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        crc = crc32::update(crc, &buf[..chunk.len() * 4]);
    }
    crc32::finish(crc)
}

/// One snapshot generation of a tensor: the durable bytes, the iteration
/// they cover through, the checksum they were written under, and the
/// ledger segment of updates applied since.
struct Snapshot {
    params: Vec<f32>,
    opt: OptState,
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
    pub opt: OptState,
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
/// Sharded by tensor (one mutex per tensor), so two shards checkpointing
/// concurrently never contend. Which generations are retained and which
/// one a restore starts from is [`GenChain`]'s rule; this store holds the
/// bytes. Every method is a no-op when the store is not armed;
/// [`DurableStore::restore`] panics instead — restoring from a store that
/// recorded nothing is a bug worth dying loudly over.
pub(crate) struct DurableStore {
    /// One chain per tensor; empty when the store is dormant.
    slots: Vec<Mutex<GenChain<Snapshot>>>,
}

impl DurableStore {
    /// A store seeded with the initial model (the implicit iteration-0
    /// checkpoint every run starts from). `init` is the full model in
    /// global tensor order; dormant stores record nothing. `retention`
    /// bounds how many generations GC keeps per tensor.
    pub(crate) fn new(
        armed: bool,
        init: &[Vec<f32>],
        opt_cfg: PsOptimizer,
        lr: f32,
        retention: usize,
    ) -> Self {
        let init = if armed { init } else { &[] };
        let slots = init
            .iter()
            .map(|p| {
                let initial = Snapshot {
                    params: p.clone(),
                    opt: OptState::fresh(opt_cfg, lr, p.len()),
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

    fn slot(&self, g: usize) -> std::sync::MutexGuard<'_, GenChain<Snapshot>> {
        self.slots[g]
            .lock()
            .expect("a checkpointing thread panicked")
    }

    /// Record the mean gradient a barrier applied to tensor `g` at `iter`.
    /// Must be called for every applied update while armed — the ledger is
    /// the replay log that carries a restore past its snapshot.
    pub(crate) fn note_update(&self, g: usize, iter: u64, mean: &[f32]) {
        if !self.armed() {
            return;
        }
        let mut slot = self.slot(g);
        let ledger = &mut slot.newest_mut().ledger;
        debug_assert!(
            ledger.last().is_none_or(|&(i, _, _)| i < iter),
            "ledger for tensor {g} out of order"
        );
        ledger.push((iter, mean.to_vec(), params_crc(mean)));
    }

    /// Snapshot tensor `g` as of (the end of) `iter` as a new generation;
    /// [`GenChain::push`] then trims the tensor back to its retention.
    /// When `poison` is set, one bit of the *stored* copy is flipped after
    /// its checksum was computed — the silent-corruption model of
    /// `CheckpointCorrupt`. The live tensor is untouched; only the durable
    /// generation is damaged, and only a verified restore can tell.
    pub(crate) fn checkpoint(
        &self,
        g: usize,
        iter: u64,
        params: &[f32],
        opt: &OptState,
        poison: bool,
    ) {
        if !self.armed() {
            return;
        }
        let crc = params_crc(params);
        let mut stored = params.to_vec();
        if poison && !stored.is_empty() {
            stored[0] = f32::from_bits(stored[0].to_bits() ^ 1);
        }
        self.slot(g).push(Snapshot {
            params: stored,
            opt: opt.clone(),
            upto: Some(iter),
            crc,
            ledger: Vec::new(),
        });
    }

    /// Rebuild tensor `g`'s state: clone the generation
    /// [`GenChain::fallback`] chose and replay every ledger entry past it,
    /// verifying each entry's checksum as it is applied.
    pub(crate) fn restore(&self, g: usize) -> Restored {
        assert!(self.armed(), "restore from a dormant store");
        let slot = self.slot(g);
        let fb = slot.fallback().expect("no intact checkpoint generation");
        let walked = &slot.gens()[fb.intact..];
        let mut params = walked[0].params.clone();
        let mut opt = walked[0].opt.clone();
        let mut upto = walked[0].upto;
        for (iter, mean, crc) in walked.iter().flat_map(|gen| &gen.ledger) {
            assert_eq!(
                params_crc(mean),
                *crc,
                "corrupt ledger entry for tensor {g} at iteration {iter}"
            );
            opt.step(&mut params, mean);
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

    /// Drive a live tensor and the store through the same update sequence
    /// with a checkpoint somewhere in the middle, then compare the restored
    /// state against the live one — params bit-exact, and still bit-exact
    /// after one *further* step (which catches optimiser-state divergence
    /// that identical params alone would hide).
    fn roundtrip(opt_cfg: PsOptimizer, elems: usize, grads: &[Vec<f32>], ckpt_after: usize) {
        let init = vec![vec![0.25f32; elems]];
        let store = DurableStore::new(true, &init, opt_cfg, 0.1, 2);
        let mut live_p = init[0].clone();
        let mut live_o = OptState::fresh(opt_cfg, 0.1, elems);
        for (i, g) in grads.iter().enumerate() {
            live_o.step(&mut live_p, g);
            store.note_update(0, i as u64, g);
            if i + 1 == ckpt_after {
                store.checkpoint(0, i as u64, &live_p, &live_o, false);
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
        ro.step(&mut rp, &probe);
        live_o.step(&mut live_p, &probe);
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
            for opt in [PsOptimizer::Sgd { momentum: 0.9 }, PsOptimizer::Adam] {
                roundtrip(opt, elems, &grads, ckpt_after);
            }
        }
    }

    #[test]
    fn dormant_store_records_nothing_and_costs_nothing() {
        let store = DurableStore::new(
            false,
            &[vec![1.0f32; 4]],
            PsOptimizer::Sgd { momentum: 0.0 },
            0.1,
            2,
        );
        assert!(!store.armed());
        assert!(store.slots.is_empty());
        store.note_update(0, 0, &[1.0; 4]); // no-op, must not panic
        store.checkpoint(
            0,
            0,
            &[1.0; 4],
            &OptState::fresh(PsOptimizer::Adam, 0.1, 4),
            false,
        );
    }

    #[test]
    #[should_panic(expected = "restore from a dormant store")]
    fn dormant_restore_panics() {
        let store = DurableStore::new(
            false,
            &[vec![1.0f32; 4]],
            PsOptimizer::Sgd { momentum: 0.0 },
            0.1,
            2,
        );
        let _ = store.restore(0);
    }

    #[test]
    fn checkpoint_truncates_the_ledger() {
        let store = DurableStore::new(true, &[vec![0.0f32; 2]], PsOptimizer::Adam, 0.05, 2);
        let mut p = vec![0.0f32; 2];
        let mut o = OptState::fresh(PsOptimizer::Adam, 0.05, 2);
        for i in 0..4u64 {
            let g = vec![1.0f32 + i as f32; 2];
            o.step(&mut p, &g);
            store.note_update(0, i, &g);
        }
        store.checkpoint(0, 3, &p, &o, false);
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
        let store = DurableStore::new(true, &[vec![0.5f32; elems]], PsOptimizer::Adam, 0.1, 3);
        let mut p = vec![0.5f32; elems];
        let mut o = OptState::fresh(PsOptimizer::Adam, 0.1, elems);
        for i in 0..6u64 {
            let g = vec![0.25f32 * (i as f32 + 1.0); elems];
            o.step(&mut p, &g);
            store.note_update(0, i, &g);
            if i == 1 {
                store.checkpoint(0, i, &p, &o, false);
            }
            if i == 4 {
                store.checkpoint(0, i, &p, &o, true); // poisoned
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
        let store = DurableStore::new(true, &[vec![1.0f32; 2]], PsOptimizer::Adam, 0.1, 1);
        let mut p = vec![1.0f32; 2];
        let mut o = OptState::fresh(PsOptimizer::Adam, 0.1, 2);
        for i in 0..4u64 {
            let g = vec![0.5f32; 2];
            o.step(&mut p, &g);
            store.note_update(0, i, &g);
            store.checkpoint(0, i, &p, &o, true); // always poisoned
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
        store.checkpoint(0, 3, &p, &o, false);
        let slot = store.slot(0);
        assert_eq!(slot.gens().len(), 1);
        assert_eq!(slot.gens()[0].upto, Some(3));
        assert!(
            slot.gens()[0].ledger.is_empty(),
            "ledger truncated to the new gen"
        );
    }
}
