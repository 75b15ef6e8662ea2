//! Max-min fair rate allocation with per-flow caps.
//!
//! Given flows that each consume one uplink (at their source) and one
//! downlink (at their destination), progressive filling raises every
//! unfrozen flow's rate uniformly until some constraint saturates, freezes
//! the flows bound by it, and repeats. Per-flow caps (our TCP slow-start
//! state) are just another freezing condition. This is the textbook
//! algorithm; it terminates in at most `#flows + #constraints` rounds.
//!
//! The allocation is the fixed point the real transport stack's AIMD
//! dynamics approximate on shared bottlenecks, which is why flow-level
//! simulators use it as the steady-state rate model.
//!
//! Three things depart from the textbook formulation, all for the sake of
//! the thousand-worker scaling studies, and none moves an output bit
//! (DESIGN.md §11 carries the arguments):
//!
//! * **Component decomposition.** Progressive filling never couples
//!   disjoint connected components — a constraint only freezes flows that
//!   share it — so each component is filled on its own, which lets the
//!   network engine re-solve *only* the components a flow arrival or
//!   departure touches.
//! * **Persistent fill state.** What a fill needs to know about the flow
//!   graph — which flows cross which link, how many of them can still take
//!   rate, every link's capacity — lives in a `FillState` that is
//!   maintained in O(1) per flow arrival, departure and cap change instead
//!   of being re-derived per fill. [`crate::Network`] keeps one for its
//!   lifetime; [`allocate_with`] builds one from its input and runs the
//!   same kernel, so there is exactly one progressive-filling loop.
//! * **Link-centric rounds with a scalar level.** Every unfrozen flow has
//!   received the same increments, so its rate is one scalar; saturation is
//!   a property of a link, so freezing walks the member lists of newly
//!   saturated links instead of re-testing every unfrozen flow every round.

use crate::topology::{NodeId, Topology};

/// One flow's demand as seen by the allocator.
#[derive(Debug, Clone, Copy)]
pub struct FlowDemand {
    /// Source node (consumes uplink).
    pub src: NodeId,
    /// Destination node (consumes downlink).
    pub dst: NodeId,
    /// Rate cap in bytes/sec (`f64::INFINITY` when unconstrained).
    pub cap_bps: f64,
}

/// Saturation epsilon, *relative* to each link's own capacity: capacities
/// are bytes/sec (~1e9 for a 10 GbE NIC), where one f64 ulp is ~1e-7 — an
/// absolute threshold is either meaninglessly tight at that scale or
/// sloppily loose for small test capacities.
const REL_EPS: f64 = 1e-9;

/// A search tag no node is ever marked with.
const NO_TAG: u64 = u64::MAX;

/// One direction of one node's NIC: the unit progressive filling saturates.
#[derive(Debug, Clone, Default)]
struct Link {
    /// Capacity, bytes/sec.
    cap: f64,
    /// A residual at or below this reads as saturated.
    sat_below: f64,
    /// Keys of the flows crossing this link, in no particular order.
    flows: Vec<u32>,
    /// How many of `flows` have a positive cap, i.e. take part in a fill.
    open: u32,
    /// Uplinks only: how many of `flows` have a positive *finite* cap.
    capped: u32,
}

/// A link's share of the fill in progress, apart from [`Link`] so that the
/// rounds and the freezes — which touch every loaded link, at random — work
/// on a few dense kilobytes.
#[derive(Debug, Clone, Copy, Default)]
struct Load {
    /// Capacity not yet handed out.
    left: f64,
    /// Unfrozen flows crossing the link.
    count: u32,
}

/// What the fill state knows about one flow.
#[derive(Debug, Clone, Copy)]
struct Member {
    src: u32,
    dst: u32,
    cap: f64,
    /// The fill (by ordinal) that last froze this flow.
    frozen_in: u64,
}

fn up(node: u32) -> usize {
    2 * node as usize
}

fn down(node: u32) -> usize {
    2 * node as usize + 1
}

/// The flow graph as progressive filling sees it, kept current across
/// fills: per link its capacity and the flows crossing it, per flow its
/// endpoints and cap. Flows are named by caller-chosen dense `u32` keys
/// (the engine's slab slots, [`allocate_with`]'s input indices).
#[derive(Debug, Clone, Default)]
pub(crate) struct FillState {
    /// Uplink of node `g` at `2g`, its downlink at `2g + 1`.
    links: Vec<Link>,
    loads: Vec<Load>,
    members: Vec<Member>,
    /// Each member's position in its uplink's and its downlink's `flows`.
    places: Vec<[u32; 2]>,
    /// Fills run so far; a member with `frozen_in == fills` is frozen in
    /// the fill in progress.
    fills: u64,
    // Buffers of the fill in progress (capacity only between fills).
    active: Vec<u32>,
    saturated: Vec<u32>,
    capped: Vec<u32>,
    // Graph-search state.
    seen: Vec<u64>,
    tags: u64,
    far_side: Vec<u32>,
}

impl FillState {
    /// Make room for nodes `0..n`.
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        if self.seen.len() < n {
            self.links.resize_with(2 * n, Link::default);
            self.loads.resize(2 * n, Load::default());
            self.seen.resize(n, 0);
        }
    }

    /// Set both NIC capacities of `node`.
    pub(crate) fn set_node_caps(&mut self, node: u32, uplink: f64, downlink: f64) {
        for (l, cap) in [(up(node), uplink), (down(node), downlink)] {
            let link = &mut self.links[l];
            link.cap = cap;
            link.sat_below = cap * REL_EPS + f64::MIN_POSITIVE;
        }
    }

    /// Add flow `key` from `src` to `dst` with rate cap `cap`.
    pub(crate) fn attach(&mut self, key: u32, src: u32, dst: u32, cap: f64) {
        let member = Member {
            src,
            dst,
            cap,
            frozen_in: 0,
        };
        let place = [up(src), down(dst)].map(|l| self.links[l].flows.len() as u32);
        self.links[up(src)].flows.push(key);
        self.links[down(dst)].flows.push(key);
        if self.members.len() <= key as usize {
            self.members.resize(key as usize + 1, member);
            self.places.resize(key as usize + 1, place);
        }
        self.members[key as usize] = member;
        self.places[key as usize] = place;
        self.tally(key, true);
    }

    /// Remove flow `key`.
    pub(crate) fn detach(&mut self, key: u32) {
        self.tally(key, false);
        let m = self.members[key as usize];
        let place = self.places[key as usize];
        for (end, l) in [up(m.src), down(m.dst)].into_iter().enumerate() {
            let flows = &mut self.links[l].flows;
            let pos = place[end] as usize;
            flows.swap_remove(pos);
            if let Some(&moved) = flows.get(pos) {
                self.places[moved as usize][end] = pos as u32;
            }
        }
    }

    /// Change flow `key`'s rate cap.
    pub(crate) fn set_cap(&mut self, key: u32, cap: f64) {
        self.tally(key, false);
        self.members[key as usize].cap = cap;
        self.tally(key, true);
    }

    /// Count flow `key` into (or out of) its links' `open`/`capped`.
    fn tally(&mut self, key: u32, add: bool) {
        let m = self.members[key as usize];
        if m.cap > 0.0 {
            let capped = m.cap.is_finite() as u32;
            let (u, d) = (up(m.src), down(m.dst));
            if add {
                self.links[u].open += 1;
                self.links[u].capped += capped;
                self.links[d].open += 1;
            } else {
                self.links[u].open -= 1;
                self.links[u].capped -= capped;
                self.links[d].open -= 1;
            }
        }
    }

    /// Flow endpoints at `node` (a self-loop counts twice).
    pub(crate) fn degree(&self, node: u32) -> usize {
        self.links[up(node)].flows.len() + self.links[down(node)].flows.len()
    }

    /// Keys of the flows whose source is `node`.
    pub(crate) fn flows_from(&self, node: u32) -> &[u32] {
        &self.links[up(node)].flows
    }

    /// Keys of the flows whose destination is `node`.
    pub(crate) fn flows_into(&self, node: u32) -> &[u32] {
        &self.links[down(node)].flows
    }

    /// Assert that the maintained state is what building it from scratch
    /// out of `flows` — `(key, src, dst, cap)` of every live flow — and
    /// `topo` would give.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self, topo: &Topology, flows: impl Iterator<Item = (u32, u32, u32, f64)>) {
        let mut open = vec![0u32; self.links.len()];
        let mut capped = vec![0u32; self.links.len()];
        let mut listed = vec![0usize; self.links.len()];
        for (key, src, dst, cap) in flows {
            let m = self.members[key as usize];
            assert_eq!((m.src, m.dst), (src, dst), "flow {key} endpoints");
            assert_eq!(m.cap.to_bits(), cap.to_bits(), "flow {key} cap");
            let [up_pos, down_pos] = self.places[key as usize];
            assert_eq!(self.links[up(src)].flows[up_pos as usize], key);
            assert_eq!(self.links[down(dst)].flows[down_pos as usize], key);
            listed[up(src)] += 1;
            listed[down(dst)] += 1;
            if cap > 0.0 {
                open[up(src)] += 1;
                open[down(dst)] += 1;
                capped[up(src)] += cap.is_finite() as u32;
            }
        }
        for (l, link) in self.links.iter().enumerate() {
            // Every live flow sits at its recorded position, so equal
            // lengths mean the lists hold the live flows and nothing else.
            assert_eq!(link.flows.len(), listed[l], "link {l} lists a dead flow");
            assert_eq!((link.open, link.capped), (open[l], capped[l]), "link {l}");
            let spec = topo.spec(NodeId(l / 2));
            let cap = [spec.uplink_bps, spec.downlink_bps][l % 2];
            assert_eq!(link.cap.to_bits(), cap.to_bits(), "link {l} capacity");
        }
    }

    // ------------------------------------------------------------------
    // Connectivity.
    // ------------------------------------------------------------------

    /// A fresh mark for [`FillState::component_of`] / [`FillState::seen`].
    pub(crate) fn new_tag(&mut self) -> u64 {
        self.tags += 1;
        self.tags
    }

    /// Whether a search under `tag` has reached `node`.
    pub(crate) fn seen(&self, node: u32, tag: u64) -> bool {
        self.seen[node as usize] == tag
    }

    /// Mark `from`'s unmarked neighbours `mine` and append them to `found`;
    /// true as soon as a neighbour carries `theirs`.
    fn expand(&mut self, from: u32, mine: u64, theirs: u64, found: &mut Vec<u32>) -> bool {
        let Self {
            links,
            members,
            seen,
            ..
        } = self;
        let out = links[up(from)]
            .flows
            .iter()
            .map(|&k| members[k as usize].dst);
        let inc = links[down(from)]
            .flows
            .iter()
            .map(|&k| members[k as usize].src);
        for next in out.chain(inc) {
            let mark = &mut seen[next as usize];
            if *mark == theirs {
                return true;
            }
            if *mark != mine {
                *mark = mine;
                found.push(next);
            }
        }
        false
    }

    /// Collect into `nodes` every node connected to `start` (zero-cap flows
    /// connect too: they will carry bytes once their handshake completes),
    /// marking each with `tag`.
    pub(crate) fn component_of(&mut self, start: u32, tag: u64, nodes: &mut Vec<u32>) {
        nodes.clear();
        self.seen[start as usize] = tag;
        nodes.push(start);
        let mut i = 0;
        while i < nodes.len() {
            self.expand(nodes[i], tag, NO_TAG, nodes);
            i += 1;
        }
    }

    /// Whether `a` and `b` are disconnected. If so, `side` holds every node
    /// of one of the two parts. The search grows from both ends in turn and
    /// stops when the two meet or one side runs out of frontier, so it costs
    /// a few hops in a dense graph and the *smaller* part when the flow that
    /// just left was a bridge.
    pub(crate) fn severed(&mut self, a: u32, b: u32, side: &mut Vec<u32>) -> bool {
        let (ta, tb) = (self.new_tag(), self.new_tag());
        let mut far = std::mem::take(&mut self.far_side);
        side.clear();
        far.clear();
        self.seen[a as usize] = ta;
        self.seen[b as usize] = tb;
        side.push(a);
        far.push(b);
        let (mut i, mut j) = (0, 0);
        let severed = loop {
            if i == side.len() {
                break true;
            }
            if self.expand(side[i], ta, tb, side) {
                break false;
            }
            i += 1;
            if j == far.len() {
                std::mem::swap(side, &mut far);
                break true;
            }
            if self.expand(far[j], tb, ta, &mut far) {
                break false;
            }
            j += 1;
        };
        self.far_side = far;
        severed
    }

    // ------------------------------------------------------------------
    // The kernel.
    // ------------------------------------------------------------------

    /// Progressive filling over the connected component made of `nodes`
    /// (all of them, each once, any order). `sink(key, rate)` is called
    /// exactly once for every member with a positive cap; zero-cap members
    /// get rate 0 and no call. Returns the number of rounds and of calls.
    ///
    /// Passing a disconnected node set still yields a valid max-min
    /// allocation, but one whose floating-point rounding couples the parts.
    ///
    /// Why this computes, bit for bit, what the scan-everything loop does
    /// (kept as a test oracle below):
    ///
    /// * Every unfrozen flow starts at 0.0 and receives the same `+= delta`
    ///   every round, so they all hold the same value: `level`. A flow's
    ///   rate is `level` as of the round that froze it, or its cap.
    /// * The round's increment is a minimum over links of `left / count`
    ///   and over unfrozen capped flows of `cap - level`. Minima are exact
    ///   and order-free, and float subtraction is monotone in its first
    ///   argument, so the second part is `(min cap) - level`.
    /// * A link's residual loses `delta` once per unfrozen flow crossing
    ///   it; which flow "does" each subtraction is immaterial, so the link
    ///   applies `x = (x - delta).max(0.0)` `count` times by itself. It must
    ///   stay a repeated subtraction — a multiply rounds differently.
    /// * A flow freezes when it is at its cap or one of its links is
    ///   saturated, judged on the residuals *after* the round's
    ///   subtractions. Saturation is a property of the link, so it is
    ///   tested once per link, and the flows to freeze are exactly the
    ///   still-unfrozen members of the links that just saturated.
    ///
    /// Nothing above depends on the order of `nodes` or of any member list.
    pub(crate) fn fill(&mut self, nodes: &[u32], mut sink: impl FnMut(u32, f64)) -> (u64, u64) {
        self.fills += 1;
        let fill = self.fills;
        let Self {
            links,
            loads,
            members,
            active,
            saturated,
            capped,
            ..
        } = self;

        // Every link starts full, carrying its open flows; the capped ones
        // are looked up only where an uplink says it has any.
        active.clear();
        capped.clear();
        let mut open = 0u32;
        let mut min_cap = f64::INFINITY;
        for &g in nodes {
            for l in [up(g), down(g)] {
                let link = &links[l];
                if link.open > 0 {
                    loads[l] = Load {
                        left: link.cap,
                        count: link.open,
                    };
                    active.push(l as u32);
                }
            }
            let uplink = &links[up(g)];
            open += uplink.open;
            if uplink.capped > 0 {
                for &k in &uplink.flows {
                    let cap = members[k as usize].cap;
                    if cap > 0.0 && cap.is_finite() {
                        capped.push(k);
                        min_cap = min_cap.min(cap);
                    }
                }
            }
        }

        let rated = open as u64;
        let mut level = 0.0f64;
        let mut rounds = 0u64;
        while open > 0 {
            rounds += 1;
            // The uniform increment every unfrozen flow can still take: the
            // tightest of (a) equal split of remaining capacity on any
            // loaded link, (b) any unfrozen flow's headroom to its cap.
            let mut delta = f64::INFINITY;
            active.retain(|&l| {
                let load = loads[l as usize];
                if load.count == 0 {
                    return false;
                }
                delta = delta.min(load.left / load.count as f64);
                true
            });
            // Accumulated rounding can leave a residual (or cap headroom) a
            // few ulps below zero; clamp instead of handing a negative
            // increment to every flow.
            let delta = delta.min(min_cap - level).max(0.0);
            debug_assert!(delta.is_finite(), "bad increment {delta}");
            level += delta;

            // Residuals are clamped at zero: a link can end up an ulp
            // negative after repeated subtraction, and a negative residual
            // must read as "saturated", never as headroom.
            saturated.clear();
            for &l in active.iter() {
                let load = &mut loads[l as usize];
                let mut x = load.left;
                for _ in 0..load.count {
                    x = (x - delta).max(0.0);
                }
                load.left = x;
                if x <= links[l as usize].sat_below {
                    saturated.push(l);
                }
            }

            let before = open;
            let mut freeze = |m: &mut Member, key: u32| {
                m.frozen_in = fill;
                loads[up(m.src)].count -= 1;
                loads[down(m.dst)].count -= 1;
                open -= 1;
                // Pin exactly to the cap so rounding never reports a rate
                // above what the transport window allows.
                let at_cap = m.cap.is_finite() && level >= m.cap * (1.0 - REL_EPS);
                sink(key, if at_cap { m.cap } else { level });
            };
            for &l in saturated.iter() {
                for &key in &links[l as usize].flows {
                    let m = &mut members[key as usize];
                    if m.cap > 0.0 && m.frozen_in != fill {
                        freeze(m, key);
                    }
                }
            }
            min_cap = f64::INFINITY;
            capped.retain(|&key| {
                let m = &mut members[key as usize];
                if m.frozen_in == fill {
                    return false;
                }
                if level >= m.cap * (1.0 - REL_EPS) {
                    freeze(m, key);
                    return false;
                }
                min_cap = min_cap.min(m.cap);
                true
            });
            // With delta > 0 something always freezes; with delta == 0 a
            // link is already saturated and its flows freeze. Guard against
            // float pathology anyway.
            if open == before {
                for &g in nodes {
                    for &key in &links[up(g)].flows {
                        let m = &members[key as usize];
                        if m.cap > 0.0 && m.frozen_in != fill {
                            sink(key, level);
                        }
                    }
                }
                break;
            }
        }
        (rounds, rated)
    }
}

/// Reusable working state for [`allocate_with`].
///
/// Holding one of these across calls eliminates every per-call allocation
/// once the buffers have grown to the working-set size. A `Scratch` carries
/// no results between calls — only capacity — so reuse can never change an
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Empty between calls.
    fill: FillState,
    nodes: Vec<u32>,
}

/// Compute max-min fair rates (bytes/sec) for `flows` over `topo`.
///
/// Returns one rate per flow, in input order. Flows with a zero cap get
/// zero. Panics in debug builds if any node id is out of range.
pub fn allocate(topo: &Topology, flows: &[FlowDemand]) -> Vec<f64> {
    allocate_with(topo, flows, &mut Scratch::default())
}

/// [`allocate`] with caller-provided scratch buffers (no allocation once
/// the buffers are warm).
pub fn allocate_with(topo: &Topology, flows: &[FlowDemand], s: &mut Scratch) -> Vec<f64> {
    let mut rates = vec![0.0f64; flows.len()];
    let n = topo.len();
    let fill = &mut s.fill;
    fill.ensure_nodes(n);
    for (k, f) in flows.iter().enumerate() {
        debug_assert!(f.src.0 < n && f.dst.0 < n, "flow references missing node");
        for node in [f.src, f.dst] {
            // First flow at this node in this call: its capacities may be
            // stale from an earlier one.
            if fill.degree(node.0 as u32) == 0 {
                let spec = topo.spec(node);
                fill.set_node_caps(node.0 as u32, spec.uplink_bps, spec.downlink_bps);
            }
        }
        fill.attach(k as u32, f.src.0 as u32, f.dst.0 as u32, f.cap_bps);
    }
    // One fill per connected component, found from each flow not yet
    // reached.
    let tag = fill.new_tag();
    for f in flows {
        let src = f.src.0 as u32;
        if !fill.seen(src, tag) {
            fill.component_of(src, tag, &mut s.nodes);
            fill.fill(&s.nodes, |k, rate| rates[k as usize] = rate);
        }
    }
    for k in 0..flows.len() {
        fill.detach(k as u32);
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;
    use proptest::prelude::*;

    fn topo(n: usize, bps: f64) -> Topology {
        Topology::uniform(n, NodeSpec::symmetric(bps))
    }

    fn flow(src: usize, dst: usize) -> FlowDemand {
        FlowDemand {
            src: NodeId(src),
            dst: NodeId(dst),
            cap_bps: f64::INFINITY,
        }
    }

    fn capped(src: usize, dst: usize, cap: f64) -> FlowDemand {
        FlowDemand {
            src: NodeId(src),
            dst: NodeId(dst),
            cap_bps: cap,
        }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let t = topo(2, 100.0);
        let r = allocate(&t, &[flow(0, 1)]);
        assert!((r[0] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_downlink() {
        // Both flows converge on node 2's downlink.
        let t = topo(3, 100.0);
        let r = allocate(&t, &[flow(0, 2), flow(1, 2)]);
        assert!((r[0] - 50.0).abs() < 1e-6);
        assert!((r[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn cap_frees_bandwidth_for_others() {
        let t = topo(3, 100.0);
        let r = allocate(&t, &[capped(0, 2, 20.0), flow(1, 2)]);
        assert!((r[0] - 20.0).abs() < 1e-6);
        assert!((r[1] - 80.0).abs() < 1e-6);
    }

    #[test]
    fn uplink_bottleneck() {
        // Node 0 fans out to two destinations: its uplink is the bottleneck.
        let t = topo(3, 100.0);
        let r = allocate(&t, &[flow(0, 1), flow(0, 2)]);
        assert!((r[0] - 50.0).abs() < 1e-6);
        assert!((r[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_node_is_the_bottleneck() {
        // §5.3: one slow worker. Flows from w1 (fast) and w2 (slow) to PS.
        let mut t = Topology::new();
        let _ps = t.add_node(NodeSpec::from_gbps(10.0));
        let _w1 = t.add_node(NodeSpec::from_gbps(10.0));
        let _w2 = t.add_node(NodeSpec::from_mbps(500.0));
        let r = allocate(&t, &[flow(1, 0), flow(2, 0)]);
        // w2 frozen at 62.5 MB/s, w1 takes the rest of the PS downlink.
        assert!((r[1] - 62.5e6).abs() < 1.0, "slow worker got {}", r[1]);
        assert!(
            (r[0] - (1.25e9 - 62.5e6)).abs() < 1.0,
            "fast worker got {}",
            r[0]
        );
    }

    #[test]
    fn zero_cap_flow_gets_nothing() {
        let t = topo(2, 100.0);
        let r = allocate(&t, &[capped(0, 1, 0.0), flow(0, 1)]);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn empty_flow_set() {
        let t = topo(2, 100.0);
        assert!(allocate(&t, &[]).is_empty());
    }

    #[test]
    fn many_flows_fair_split() {
        let t = topo(5, 120.0);
        // 4 workers push to node 0.
        let flows: Vec<_> = (1..5).map(|w| flow(w, 0)).collect();
        let r = allocate(&t, &flows);
        for &rate in &r {
            assert!((rate - 30.0).abs() < 1e-6, "rate {rate}");
        }
    }

    #[test]
    fn high_capacity_split_is_exact() {
        // 8 Tb/s in bytes/sec: one ulp here is ~1e-4, far above any
        // absolute epsilon. Three-way splits of such capacities are not
        // exactly representable, so this exercises the relative-epsilon
        // saturation path.
        let cap = 1e12;
        let t = topo(4, cap);
        let flows: Vec<_> = (1..4).map(|w| flow(w, 0)).collect();
        let r = allocate(&t, &flows);
        let share = cap / 3.0;
        let total: f64 = r.iter().sum();
        for &rate in &r {
            assert!((rate - share).abs() <= share * 1e-9, "rate {rate}");
        }
        assert!(total <= cap * (1.0 + 1e-9), "oversubscribed: {total}");
    }

    #[test]
    fn awkward_caps_never_exceed_capacity() {
        // Caps engineered to leave ulp-scale residuals after each round.
        let cap = 6.626115377326036e9;
        let t = topo(5, cap);
        let flows = [
            capped(1, 0, cap / 7.0),
            capped(2, 0, cap / 3.0),
            flow(3, 0),
            flow(4, 0),
        ];
        let r = allocate(&t, &flows);
        let total: f64 = r.iter().sum();
        assert!(total <= cap * (1.0 + 1e-9), "oversubscribed: {total}");
        assert!(r[0] <= cap / 7.0, "capped flow exceeds its cap: {}", r[0]);
        assert!(r[1] <= cap / 3.0, "capped flow exceeds its cap: {}", r[1]);
        // Work conservation: the sink downlink is the only bottleneck.
        assert!(total >= cap * (1.0 - 1e-9), "idle capacity: {total}");
    }

    #[test]
    fn self_loop_consumes_both_directions() {
        // Loopback-style flow uses the node's own up and down links.
        let t = topo(1, 100.0);
        let r = allocate(&t, &[flow(0, 0)]);
        assert!((r[0] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_components_allocate_independently() {
        // Two islands: {0,1,2} and {3,4,5}. The joint allocation must be
        // bitwise what each island gets when allocated alone.
        let t = topo(6, 1000.0);
        let island_a = [flow(1, 0), capped(2, 0, 100.0)];
        let island_b = [flow(4, 3), flow(5, 3), capped(4, 5, 700.0)];
        let joint: Vec<FlowDemand> = island_a.iter().chain(&island_b).copied().collect();
        let joint_rates = allocate(&t, &joint);
        let a = allocate(&t, &island_a);
        let b = allocate(&t, &island_b);
        let expect: Vec<f64> = a.into_iter().chain(b).collect();
        for (i, (&got, &want)) in joint_rates.iter().zip(&expect).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "flow {i}: {got} vs {want}");
        }
    }

    #[test]
    fn interleaved_components_keep_input_order() {
        // Flows alternate between islands; rates must still come back in
        // input order.
        let t = topo(4, 100.0);
        let r = allocate(&t, &[flow(0, 1), flow(2, 3), flow(0, 1), flow(2, 3)]);
        for &rate in &r {
            assert!((rate - 50.0).abs() < 1e-6, "rate {rate}");
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // The same Scratch across different inputs must give the same
        // answers as fresh scratch each time.
        let mut s = Scratch::default();
        let t1 = topo(3, 100.0);
        let t2 = topo(6, 1000.0);
        let f1 = [flow(0, 2), flow(1, 2)];
        let f2 = [flow(1, 0), capped(2, 0, 100.0), flow(4, 3), flow(5, 3)];
        for _ in 0..3 {
            let r1 = allocate_with(&t1, &f1, &mut s);
            let r2 = allocate_with(&t2, &f2, &mut s);
            let fresh1 = allocate(&t1, &f1);
            let fresh2 = allocate(&t2, &f2);
            assert_eq!(bits(&r1), bits(&fresh1));
            assert_eq!(bits(&r2), bits(&fresh2));
        }
    }

    #[test]
    fn severed_finds_the_cut_and_the_detour() {
        // 0 → 1 → 2 → 3 in a line, then a detour 0 → 3.
        let mut fs = FillState::default();
        fs.ensure_nodes(5);
        for (k, (s, d)) in [(0, 1), (1, 2), (2, 3)].into_iter().enumerate() {
            fs.attach(k as u32, s, d, 1.0);
        }
        let mut side = Vec::new();
        // Flow 1 (1 → 2) leaves: {0, 1} and {2, 3} fall apart.
        fs.detach(1);
        assert!(fs.severed(1, 2, &mut side));
        side.sort_unstable();
        assert!(side == [0, 1] || side == [2, 3], "{side:?}");
        // With the detour in place the same departure cuts nothing.
        fs.attach(1, 0, 3, 1.0);
        assert!(!fs.severed(1, 2, &mut side));
    }

    // ------------------------------------------------------------------
    // The reference: the scan-everything loop the kernel replaced, kept
    // only to be compared against.
    // ------------------------------------------------------------------

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    /// Textbook progressive filling over one connected component: every
    /// round scans every flow and every node.
    fn reference_fill(topo: &Topology, flows: &[FlowDemand]) -> Vec<f64> {
        let n = topo.len();
        let spec = |g: usize| topo.spec(NodeId(g));
        let up_cap: Vec<f64> = (0..n).map(|g| spec(g).uplink_bps).collect();
        let down_cap: Vec<f64> = (0..n).map(|g| spec(g).downlink_bps).collect();
        let mut up_left = up_cap.clone();
        let mut down_left = down_cap.clone();
        let mut rates = vec![0.0f64; flows.len()];
        let mut frozen: Vec<bool> = flows.iter().map(|f| f.cap_bps <= 0.0).collect();
        while frozen.iter().any(|&f| !f) {
            let mut up_count = vec![0u32; n];
            let mut down_count = vec![0u32; n];
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    up_count[f.src.0] += 1;
                    down_count[f.dst.0] += 1;
                }
            }
            let mut delta = f64::INFINITY;
            for g in 0..n {
                if up_count[g] > 0 {
                    delta = delta.min(up_left[g] / up_count[g] as f64);
                }
                if down_count[g] > 0 {
                    delta = delta.min(down_left[g] / down_count[g] as f64);
                }
            }
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] && f.cap_bps.is_finite() {
                    delta = delta.min(f.cap_bps - rates[i]);
                }
            }
            let delta = delta.max(0.0);
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    rates[i] += delta;
                    up_left[f.src.0] = (up_left[f.src.0] - delta).max(0.0);
                    down_left[f.dst.0] = (down_left[f.dst.0] - delta).max(0.0);
                }
            }
            let sat = |left: f64, cap: f64| left <= cap * REL_EPS + f64::MIN_POSITIVE;
            let mut progress = false;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let (u, d) = (f.src.0, f.dst.0);
                let at_cap = f.cap_bps.is_finite() && rates[i] >= f.cap_bps * (1.0 - REL_EPS);
                if at_cap {
                    rates[i] = f.cap_bps;
                }
                if at_cap || sat(up_left[u], up_cap[u]) || sat(down_left[d], down_cap[d]) {
                    frozen[i] = true;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        rates
    }

    /// [`reference_fill`] per connected component, found by label
    /// propagation over the flows (zero-cap flows connect too).
    fn reference_allocate(topo: &Topology, flows: &[FlowDemand]) -> Vec<f64> {
        let mut label: Vec<usize> = (0..topo.len()).collect();
        loop {
            let mut changed = false;
            for f in flows {
                let low = label[f.src.0].min(label[f.dst.0]);
                changed |= label[f.src.0] != low || label[f.dst.0] != low;
                label[f.src.0] = low;
                label[f.dst.0] = low;
            }
            if !changed {
                break;
            }
        }
        let mut rates = vec![0.0f64; flows.len()];
        for comp in 0..topo.len() {
            let idx: Vec<usize> = (0..flows.len())
                .filter(|&i| label[flows[i].src.0] == comp)
                .collect();
            let part: Vec<FlowDemand> = idx.iter().map(|&i| flows[i]).collect();
            for (&i, rate) in idx.iter().zip(reference_fill(topo, &part)) {
                rates[i] = rate;
            }
        }
        rates
    }

    const NODES: usize = 8;

    /// Up to `NODES` nodes with independent up/down capacities.
    fn arb_topo() -> impl Strategy<Value = Topology> {
        prop::collection::vec((1e5f64..1e10, 1e5f64..1e10), 2..NODES + 1).prop_map(|specs| {
            let mut t = Topology::new();
            for (uplink_bps, downlink_bps) in specs {
                t.add_node(NodeSpec {
                    uplink_bps,
                    downlink_bps,
                });
            }
            t
        })
    }

    /// Flows over `NODES` node indices (reduced modulo the topology at use;
    /// self-loops allowed) with a mix of Setup (zero), Ramp (finite) and
    /// Steady (infinite) caps.
    fn arb_flows() -> impl Strategy<Value = Vec<FlowDemand>> {
        prop::collection::vec((0..NODES, 0..NODES, 0usize..4, 1e3f64..1e10), 1..40).prop_map(|v| {
            v.into_iter()
                .map(|(src, dst, phase, cap)| FlowDemand {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    cap_bps: match phase {
                        0 => 0.0,
                        1 => cap,
                        _ => f64::INFINITY,
                    },
                })
                .collect()
        })
    }

    fn onto(topo: &Topology, flows: &[FlowDemand]) -> Vec<FlowDemand> {
        flows
            .iter()
            .map(|f| FlowDemand {
                src: NodeId(f.src.0 % topo.len()),
                dst: NodeId(f.dst.0 % topo.len()),
                ..*f
            })
            .collect()
    }

    /// The permutation that sorts `keys`.
    fn argsort(keys: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The kernel and the scan-everything reference agree on every bit.
        #[test]
        fn kernel_matches_reference(topo in arb_topo(), flows in arb_flows()) {
            let flows = onto(&topo, &flows);
            let got = allocate(&topo, &flows);
            let want = reference_allocate(&topo, &flows);
            prop_assert_eq!(bits(&got), bits(&want), "{:?} vs {:?}", got, want);
        }

        /// Neither the order flows are attached in (which is the order of
        /// every link's member list) nor the numbering of the nodes (which
        /// is the order links are visited in) reaches an output bit.
        #[test]
        fn kernel_ignores_member_and_node_order(
            topo in arb_topo(),
            flows in arb_flows(),
            flow_keys in prop::collection::vec(0u64..u64::MAX, 40..41),
            node_keys in prop::collection::vec(0u64..u64::MAX, NODES..NODES + 1),
        ) {
            let flows = onto(&topo, &flows);
            let want = allocate(&topo, &flows);
            // Node `g` becomes node `rename[g]`; flow `order[i]` goes i-th.
            let mut rename = vec![0; topo.len()];
            for (new, &old) in argsort(&node_keys[..topo.len()]).iter().enumerate() {
                rename[old] = new;
            }
            let mut shuffled_topo = topo.clone();
            for (node, spec) in topo.iter() {
                shuffled_topo.set_spec(NodeId(rename[node.0]), spec);
            }
            let order = argsort(&flow_keys[..flows.len()]);
            let shuffled: Vec<FlowDemand> = order
                .iter()
                .map(|&i| FlowDemand {
                    src: NodeId(rename[flows[i].src.0]),
                    dst: NodeId(rename[flows[i].dst.0]),
                    ..flows[i]
                })
                .collect();
            let got = allocate(&shuffled_topo, &shuffled);
            for (pos, &i) in order.iter().enumerate() {
                prop_assert_eq!(got[pos].to_bits(), want[i].to_bits(), "flow {}", i);
            }
        }
    }
}
