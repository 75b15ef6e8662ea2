//! Tensor extents → PS-shard placement: the balanced partition the sharded
//! threaded runtime serves gradients from, re-balanceable live when
//! membership changes.
//!
//! A shard owns **parts**: contiguous extents `[lo, hi)` of one gradient
//! tensor, in elements. [`ShardMap::balanced`] lays the tensors end to end
//! in gradient-id order — forward (priority) order — and cuts that flat
//! element range into `shards` contiguous ranges of near-equal length. A
//! tensor that straddles a cut becomes one part per side; every other
//! tensor is a single part. Cuts fall at **any element** (the granule is
//! one element), so a fresh map's loads differ by at most one element, and
//! each shard owns one priority band, so a scheduler's per-tensor order
//! maps onto shards without interleaving. The parts never change after the
//! cut; only their owners do.
//!
//! Permanent membership churn breaks contiguity on purpose:
//! [`ShardMap::rebalance_evict`] re-homes a dead shard's parts onto the
//! least-loaded survivors (largest first), and
//! [`ShardMap::rebalance_admit`] folds a new or revived shard in with a
//! full greedy re-balance. Re-homes move whole parts. Both keep the cover
//! invariant (every element of every tensor owned by exactly one *alive*
//! shard) and the balance bound [`ShardMap::load_bound`]:
//! `max_load ≤ ⌈total / alive⌉ + max_part`. Each greedy placement lands on
//! a minimum-load shard, whose load is at most the alive average, and the
//! bound only grows as shards die, so it holds inductively across arbitrary
//! evict/admit sequences. A part is never longer than a fresh shard's
//! share, so `max_part ≤ ⌈total / shards⌉`. The property tests pin all of
//! it for arbitrary size vectors and churn sequences.

use std::ops::Range;

/// One contiguous extent `[lo, hi)` of gradient tensor `tensor`, in
/// elements: the unit a shard owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Part {
    /// The tensor's gradient id.
    pub tensor: usize,
    /// First element of the extent.
    pub lo: u64,
    /// One past its last element.
    pub hi: u64,
}

impl Part {
    /// Elements in the extent (never zero).
    pub fn elems(&self) -> u64 {
        self.hi - self.lo
    }
}

/// A balanced assignment of tensor extents to PS shards. Built once per run
/// from the model's tensor sizes; lookups are a table index; re-balanced in
/// place when a shard permanently fails or a new one is admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Every part, in gradient-id then element order; a part's id is its
    /// index.
    parts: Vec<Part>,
    /// `first[g]..first[g + 1]` are tensor `g`'s part ids.
    first: Vec<usize>,
    /// `owner[p]` = shard holding part `p`. Always an alive shard.
    owner: Vec<usize>,
    /// `members[s]` = sorted part ids shard `s` owns (empty when dead).
    members: Vec<Vec<usize>>,
    /// Elements owned per shard.
    loads: Vec<u64>,
    /// `dead[s]` — shard `s` has been evicted and owns nothing.
    dead: Vec<bool>,
}

impl ShardMap {
    /// Cut the tensors of `sizes` elements, laid end to end in order, into
    /// `shards` contiguous ranges of near-equal length: shard `s` owns the
    /// flat elements `[⌊s·total/shards⌋, ⌊(s+1)·total/shards⌋)`. A tensor of
    /// zero elements owns nothing and has no part.
    ///
    /// Panics when `sizes` is empty, `shards` is zero, or the model has
    /// fewer elements than shards (every shard owns at least one element).
    pub fn balanced(sizes: &[u64], shards: usize) -> Self {
        assert!(!sizes.is_empty(), "cannot shard an empty model");
        assert!(shards >= 1, "need at least one shard");
        let total: u64 = sizes.iter().sum();
        assert!(
            total >= shards as u64,
            "cannot cut a model of {total} elements into {shards} shards"
        );
        let cut = |s: usize| (u128::from(total) * s as u128 / shards as u128) as u64;
        let mut map = ShardMap {
            parts: Vec::new(),
            first: Vec::with_capacity(sizes.len() + 1),
            owner: Vec::new(),
            members: vec![Vec::new(); shards],
            loads: vec![0; shards],
            dead: vec![false; shards],
        };
        let (mut start, mut s) = (0u64, 0usize);
        for (g, &size) in sizes.iter().enumerate() {
            map.first.push(map.parts.len());
            let end = start + size;
            let mut lo = start;
            while lo < end {
                while cut(s + 1) <= lo {
                    s += 1;
                }
                let hi = end.min(cut(s + 1));
                let part = Part {
                    tensor: g,
                    lo: lo - start,
                    hi: hi - start,
                };
                map.owner.push(s);
                map.place(map.parts.len(), part.elems(), s);
                map.parts.push(part);
                lo = hi;
            }
            start = end;
        }
        map.first.push(map.parts.len());
        map
    }

    /// Number of shard slots, dead ones included.
    pub fn shards(&self) -> usize {
        self.loads.len()
    }

    /// Number of tensors partitioned.
    pub fn tensors(&self) -> usize {
        self.first.len() - 1
    }

    /// Every part, indexed by part id: gradient-id order, then element
    /// order, so a tensor's parts tile it from element 0 up.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// Tensor `g`'s part ids (empty for a tensor of zero elements).
    pub fn parts_of(&self, g: usize) -> Range<usize> {
        self.first[g]..self.first[g + 1]
    }

    /// The part of tensor `g` holding element `elem`.
    pub fn part_at(&self, g: usize, elem: u64) -> usize {
        let mut parts = self.parts_of(g);
        parts
            .find(|&p| elem < self.parts[p].hi)
            .unwrap_or_else(|| panic!("element {elem} lies past the end of tensor {g}"))
    }

    /// Cut `[lo, lo + len)` of tensor `g` at the part boundaries: one
    /// `(part, lo, len)` piece per part it touches, in element order, with
    /// offsets still relative to the tensor.
    pub fn split(
        &self,
        g: usize,
        lo: u64,
        len: u64,
    ) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let hi = lo + len;
        self.parts_of(g).filter_map(move |p| {
            let part = self.parts[p];
            let (a, b) = (lo.max(part.lo), hi.min(part.hi));
            (a < b).then(|| (p, a, b - a))
        })
    }

    /// The shard owning part `p` (always alive).
    pub fn shard_of(&self, p: usize) -> usize {
        self.owner[p]
    }

    /// The sorted part ids shard `s` owns (empty when dead).
    pub fn members(&self, s: usize) -> &[usize] {
        &self.members[s]
    }

    /// Elements owned by shard `s`.
    pub fn load(&self, s: usize) -> u64 {
        self.loads[s]
    }

    /// True once shard `s` has been evicted by [`Self::rebalance_evict`].
    pub fn is_dead(&self, s: usize) -> bool {
        self.dead[s]
    }

    /// The alive shard ids, ascending.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.shards()).filter(|&s| !self.dead[s]).collect()
    }

    /// The full part → shard table, one entry per part — the shape the
    /// membership timetable and the invariant checker consume.
    pub fn owner_table(&self) -> &[usize] {
        &self.owner
    }

    /// The balance guarantee over the alive shards: no alive shard owns
    /// more than `⌈total / alive⌉ + max_part` elements (see the module doc).
    pub fn load_bound(&self) -> u64 {
        let total: u64 = self.parts.iter().map(Part::elems).sum();
        let max_part = self.parts.iter().map(Part::elems).max().unwrap_or(0);
        total.div_ceil(self.alive().len() as u64) + max_part
    }

    /// Permanently evict shard `dead`, re-homing each of its parts onto
    /// the currently least-loaded surviving shard, largest part first
    /// (ties broken toward the lower part id / lower shard id, so the
    /// result is a pure function of the map). Returns the re-homed part
    /// ids with their new owners, in placement order — the recovery path
    /// restores exactly these.
    ///
    /// Panics when `dead` is already dead or is the last alive shard.
    pub fn rebalance_evict(&mut self, dead: usize) -> Vec<(usize, usize)> {
        assert!(!self.dead[dead], "shard {dead} evicted twice");
        self.dead[dead] = true;
        assert!(
            self.dead.iter().any(|d| !d),
            "no surviving shard to re-home to"
        );
        let mut orphans = std::mem::take(&mut self.members[dead]);
        self.loads[dead] = 0;
        orphans.sort_by_key(|&p| (std::cmp::Reverse(self.parts[p].elems()), p));
        let mut moved = Vec::with_capacity(orphans.len());
        for p in orphans {
            let to = self.least_loaded_alive();
            self.owner[p] = to;
            self.place(p, self.parts[p].elems(), to);
            moved.push((p, to));
        }
        moved
    }

    /// Admit shard `s` — either revive a dead slot (`s < shards()`) or
    /// append a brand-new slot (`s == shards()`) — and re-balance the whole
    /// partition greedily: every part re-assigned largest-first to the
    /// least-loaded alive shard. Returns the parts that changed owner as
    /// `(part, old_owner, new_owner)` in placement order.
    pub fn rebalance_admit(&mut self, s: usize) -> Vec<(usize, usize, usize)> {
        if s == self.shards() {
            self.members.push(Vec::new());
            self.loads.push(0);
            self.dead.push(false);
        } else {
            assert!(self.dead[s], "admitting shard {s} which is already alive");
            self.dead[s] = false;
        }
        self.members.iter_mut().for_each(Vec::clear);
        self.loads.iter_mut().for_each(|l| *l = 0);
        // Greedy LPT over all parts: largest first, ties toward lower id.
        let mut order: Vec<usize> = (0..self.parts.len()).collect();
        order.sort_by_key(|&p| (std::cmp::Reverse(self.parts[p].elems()), p));
        let mut moved = Vec::new();
        for p in order {
            let to = self.least_loaded_alive();
            let old = std::mem::replace(&mut self.owner[p], to);
            self.place(p, self.parts[p].elems(), to);
            if old != to {
                moved.push((p, old, to));
            }
        }
        moved
    }

    fn least_loaded_alive(&self) -> usize {
        (0..self.shards())
            .filter(|&s| !self.dead[s])
            .min_by_key(|&s| (self.loads[s], s))
            .expect("no alive shard")
    }

    /// Book part `p` of `elems` elements onto shard `to`, keeping its
    /// member list sorted.
    fn place(&mut self, p: usize, elems: u64, to: usize) {
        self.loads[to] += elems;
        let m = &mut self.members[to];
        match m.binary_search(&p) {
            Ok(_) => panic!("part {p} placed twice on shard {to}"),
            Err(at) => m.insert(at, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cover + balance over the *alive* shards: the parts of every tensor
    /// tile it exactly, each part is owned by exactly one alive shard, the
    /// owner table, member lists and load accounts agree, and no alive
    /// shard's load exceeds [`ShardMap::load_bound`].
    fn check_invariants(map: &ShardMap, sizes: &[u64]) {
        assert_eq!(map.tensors(), sizes.len());
        for (g, &size) in sizes.iter().enumerate() {
            let mut at = 0;
            for p in map.parts_of(g) {
                let part = map.parts()[p];
                assert_eq!(
                    (part.tensor, part.lo),
                    (g, at),
                    "gap or overlap in tensor {g}"
                );
                assert!(part.hi > part.lo, "empty part {p}");
                at = part.hi;
            }
            assert_eq!(at, size, "tensor {g} not covered to its end");
        }
        let alive = map.alive();
        assert!(!alive.is_empty());
        let mut owned = vec![false; map.parts().len()];
        for s in 0..map.shards() {
            let mut load = 0u64;
            for (i, &p) in map.members(s).iter().enumerate() {
                assert!(
                    i == 0 || map.members(s)[i - 1] < p,
                    "members of {s} unsorted"
                );
                assert!(!owned[p], "part {p} owned twice");
                owned[p] = true;
                assert_eq!(map.shard_of(p), s, "owner table disagrees on part {p}");
                load += map.parts()[p].elems();
            }
            assert_eq!(map.load(s), load, "load account of {s} drifted");
            assert!(!map.is_dead(s) || load == 0, "dead shard {s} owns parts");
        }
        assert!(owned.iter().all(|&o| o), "parts dropped: {owned:?}");
        let bound = map.load_bound();
        for &s in &alive {
            assert!(
                map.load(s) <= bound,
                "shard {s} load {} exceeds the bound {bound} ({} alive, sizes {sizes:?})",
                map.load(s),
                alive.len()
            );
        }
    }

    /// A fresh map additionally owns one contiguous run of parts per shard,
    /// in shard order, and its loads differ by at most one element.
    fn check_fresh(sizes: &[u64], shards: usize) -> ShardMap {
        let map = ShardMap::balanced(sizes, shards);
        assert_eq!(map.shards(), shards, "shard count not honoured");
        let mut next = 0;
        for s in 0..shards {
            let m = map.members(s);
            assert!(!m.is_empty(), "shard {s} owns no part");
            assert_eq!(
                m,
                (next..next + m.len()).collect::<Vec<_>>(),
                "shard {s} not contiguous"
            );
            next += m.len();
        }
        assert_eq!(next, map.parts().len());
        let loads = (0..shards).map(|s| map.load(s));
        let (lo, hi) = (loads.clone().min().unwrap(), loads.max().unwrap());
        assert!(hi - lo <= 1, "fresh loads differ by {} elements", hi - lo);
        check_invariants(&map, sizes);
        map
    }

    #[test]
    fn uniform_sizes_split_evenly() {
        let map = check_fresh(&[4; 12], 4);
        for s in 0..4 {
            assert_eq!(map.load(s), 12);
            assert_eq!(map.members(s).len(), 3);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = check_fresh(&[7, 3, 9], 1);
        assert_eq!(map.members(0), &[0, 1, 2]);
        assert_eq!(map.load(0), 19);
    }

    /// The cut granule is one element: a cut lands wherever the flat
    /// range divides, mid-tensor included.
    #[test]
    fn cuts_fall_at_any_element() {
        let map = check_fresh(&[10], 3);
        let extents: Vec<_> = map.parts().iter().map(|p| (p.lo, p.hi)).collect();
        assert_eq!(extents, [(0, 3), (3, 6), (6, 10)]);
        assert_eq!(map.owner_table(), &[0, 1, 2]);
    }

    #[test]
    fn more_shards_than_tensors_split_them() {
        let map = check_fresh(&[5, 5], 8);
        // Cuts at 1, 2, 3 | 5 | 6, 7, 8: the one at 5 falls between them.
        assert_eq!(map.parts_of(0).len(), 4);
        assert_eq!(map.parts_of(1).len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot cut a model of 3 elements into 4 shards")]
    fn more_shards_than_elements_rejected() {
        ShardMap::balanced(&[1, 2], 4);
    }

    #[test]
    fn one_giant_tensor_does_not_starve_the_tail() {
        // VGG-like: one fc tensor dwarfs everything. Its cuts spread it
        // over the shards, and the small tail joins the last one.
        let sizes = [1000, 4, 4, 4, 4, 4, 4];
        let map = check_fresh(&sizes, 4);
        assert_eq!(map.parts_of(0).len(), 4, "the giant spans every shard");
        assert_eq!(map.members(3).len(), 7, "its last part and the tail");
    }

    /// `threaded_mem`'s shape, 512-2048-2048-512-10, whose 2048×2048 weight
    /// once pinned shard 0 at 20.98 MB against 4.23 MB: the cut now falls
    /// inside that weight, and the two shards own half the model each.
    #[test]
    fn threaded_mem_splits_its_big_weight() {
        let sizes = [
            512 * 2048,
            2048,
            2048 * 2048,
            2048,
            2048 * 512,
            512,
            512 * 10,
            10,
        ];
        let total: u64 = sizes.iter().sum();
        let map = check_fresh(&sizes, 2);
        assert_eq!(map.load(0), total / 2);
        assert_eq!(map.load(1), total - total / 2);
        assert_eq!(
            map.parts_of(2).len(),
            2,
            "the 2048 x 2048 weight straddles the cut"
        );
    }

    #[test]
    fn zero_sized_tensors_own_no_part() {
        let map = check_fresh(&[0, 5, 0, 3], 2);
        assert!(map.parts_of(0).is_empty() && map.parts_of(2).is_empty());
        assert_eq!(map.parts().len(), 3, "the cut at 4 splits tensor 1");
    }

    #[test]
    #[should_panic(expected = "empty model")]
    fn empty_model_rejected() {
        ShardMap::balanced(&[], 2);
    }

    #[test]
    fn split_cuts_an_extent_at_the_part_boundaries() {
        let map = ShardMap::balanced(&[6, 6], 3);
        // Parts: tensor 0 [0,4) [4,6); tensor 1 [0,2) [2,6).
        assert_eq!(
            map.split(0, 2, 4).collect::<Vec<_>>(),
            [(0, 2, 2), (1, 4, 2)]
        );
        assert_eq!(
            map.split(1, 0, 6).collect::<Vec<_>>(),
            [(2, 0, 2), (3, 2, 4)]
        );
        assert_eq!(map.split(1, 3, 2).collect::<Vec<_>>(), [(3, 3, 2)]);
        assert_eq!(
            (map.part_at(0, 3), map.part_at(0, 4), map.part_at(1, 5)),
            (0, 1, 3)
        );
    }

    #[test]
    fn evict_rehomes_every_orphan_to_survivors() {
        let sizes = [10, 10, 10, 10, 10, 10];
        let mut map = ShardMap::balanced(&sizes, 3);
        let orphans: Vec<usize> = map.members(1).to_vec();
        let moved = map.rebalance_evict(1);
        assert!(map.is_dead(1));
        assert_eq!(moved.len(), orphans.len());
        for &(p, to) in &moved {
            assert!(orphans.contains(&p));
            assert_ne!(to, 1);
            assert_eq!(map.shard_of(p), to);
        }
        check_invariants(&map, &sizes);
    }

    #[test]
    fn evict_is_deterministic() {
        let sizes = [100, 7, 7, 7, 50, 3, 3, 90, 1];
        let mut a = ShardMap::balanced(&sizes, 4);
        let mut b = ShardMap::balanced(&sizes, 4);
        assert_eq!(a.rebalance_evict(2), b.rebalance_evict(2));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "no surviving shard")]
    fn evicting_the_last_shard_is_rejected() {
        let mut map = ShardMap::balanced(&[5, 5], 1);
        map.rebalance_evict(0);
    }

    #[test]
    #[should_panic(expected = "evicted twice")]
    fn double_evict_is_rejected() {
        let mut map = ShardMap::balanced(&[5, 5, 5], 3);
        map.rebalance_evict(0);
        map.rebalance_evict(0);
    }

    #[test]
    fn admit_revives_a_dead_slot_and_rebalances() {
        let sizes = [10, 10, 10, 10, 10, 10];
        let mut map = ShardMap::balanced(&sizes, 3);
        map.rebalance_evict(0);
        check_invariants(&map, &sizes);
        let moved = map.rebalance_admit(0);
        assert!(!map.is_dead(0));
        assert!(!moved.is_empty(), "revived shard got nothing");
        assert!(!map.members(0).is_empty());
        check_invariants(&map, &sizes);
    }

    #[test]
    fn admit_appends_a_new_slot() {
        let sizes = [9, 9, 9, 9];
        let mut map = ShardMap::balanced(&sizes, 2);
        let n = map.shards();
        map.rebalance_admit(n);
        assert_eq!(map.shards(), n + 1);
        check_invariants(&map, &sizes);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// For arbitrary size vectors and shard counts: every element of
            /// every tensor has exactly one owner, each shard owns one
            /// contiguous run of parts, and the loads differ by at most one
            /// element. `split` tiles any extent with in-part pieces.
            #[test]
            fn arbitrary_partitions_cover_and_balance(
                sizes in prop::collection::vec(0u64..100_000, 1..64),
                shards in 1usize..12,
                extent in (0u64..1_000_000, 0u64..1_000_000),
            ) {
                if sizes.iter().sum::<u64>() < shards as u64 { return Ok(()); }
                let map = check_fresh(&sizes, shards);
                let g = extent.0 as usize % sizes.len();
                let lo = extent.0 % (sizes[g] + 1);
                let len = extent.1 % (sizes[g] - lo + 1);
                let mut at = lo;
                for (p, off, n) in map.split(g, lo, len) {
                    let part = map.parts()[p];
                    prop_assert_eq!((part.tensor, off), (g, at));
                    prop_assert!(part.lo <= off && off + n <= part.hi && n > 0);
                    at += n;
                }
                prop_assert_eq!(at, lo + len);
            }

            /// Skewed, VGG-like spectra (a few giants among many small
            /// tensors): the giants are cut, never left to pin one shard.
            #[test]
            fn skewed_partitions_cover_and_balance(
                small in prop::collection::vec(1u64..50, 1..32),
                giants in prop::collection::vec(10_000u64..1_000_000, 1..4),
                giant_at in 0usize..32,
                shards in 1usize..8,
            ) {
                let mut sizes = small;
                for (i, g) in giants.into_iter().enumerate() {
                    let at = (giant_at + i * 7) % (sizes.len() + 1);
                    sizes.insert(at, g);
                }
                check_fresh(&sizes, shards);
            }

            /// Repeated evict+join cycles — a shard dies and (the same or a
            /// brand-new) shard joins right after, over and over — preserve
            /// cover and the balance bound at *both* half-steps of every
            /// cycle, and the whole trajectory is a pure function of the
            /// picks: replaying it on a second map lands on an identical
            /// partition. This is the membership pattern the elastic
            /// runtime's corruption recovery leans on (fail, restore from a
            /// verified checkpoint, rejoin).
            #[test]
            fn evict_join_cycles_cover_and_balance(
                sizes in prop::collection::vec(1u64..100_000, 4..48),
                shards in 2usize..8,
                // One entry per cycle: the high bits pick which alive shard
                // dies; the low bit picks whether the joiner revives that
                // slot or appends a fresh one.
                cycles in prop::collection::vec(0u16..1024, 1..16),
            ) {
                if sizes.iter().sum::<u64>() < shards as u64 { return Ok(()); }
                let mut map = ShardMap::balanced(&sizes, shards);
                let mut replay = map.clone();
                for step in cycles {
                    let (pick, fresh_slot) = (step >> 1, step & 1 == 1);
                    let alive = map.alive();
                    if alive.len() < 2 { continue; }
                    let victim = alive[pick as usize % alive.len()];
                    let moved = map.rebalance_evict(victim);
                    check_invariants(&map, &sizes);
                    let joiner = if fresh_slot { map.shards() } else { victim };
                    let rehomed = map.rebalance_admit(joiner);
                    check_invariants(&map, &sizes);
                    prop_assert!(
                        !map.members(joiner).is_empty(),
                        "joiner {joiner} got no parts after the cycle"
                    );
                    prop_assert_eq!(moved, replay.rebalance_evict(victim));
                    prop_assert_eq!(rehomed, replay.rebalance_admit(joiner));
                    prop_assert_eq!(&map, &replay, "cycle diverged between replays");
                }
            }

            /// Arbitrary evict/admit churn sequences preserve cover and the
            /// balance bound over the alive set at every step.
            #[test]
            fn churn_sequences_cover_and_balance(
                sizes in prop::collection::vec(0u64..100_000, 4..48),
                shards in 2usize..8,
                // Each step: even = evict, odd = admit; `step / 2` picks the
                // target among the eligible shards.
                churn in prop::collection::vec(0u16..512, 1..12),
            ) {
                if sizes.iter().sum::<u64>() < shards as u64 { return Ok(()); }
                let mut map = ShardMap::balanced(&sizes, shards);
                for step in churn {
                    let pick = (step / 2) as usize;
                    if step % 2 == 0 {
                        let alive = map.alive();
                        if alive.len() < 2 { continue; }
                        map.rebalance_evict(alive[pick % alive.len()]);
                    } else {
                        let dead: Vec<usize> = (0..map.shards())
                            .filter(|&s| map.is_dead(s))
                            .collect();
                        if dead.is_empty() { continue; }
                        map.rebalance_admit(dead[pick % dead.len()]);
                    }
                    check_invariants(&map, &sizes);
                }
            }
        }
    }
}
