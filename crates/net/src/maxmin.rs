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
//! * **Resumable fills.** The fill state keeps each component's last
//!   trajectory — per round its increment, level and argmin, per link its
//!   load at every round start and the round it saturated in, per flow the
//!   round that froze it — and records which links and flows change
//!   between fills. A re-fill replays only the touched links through the
//!   stored rounds and runs the kernel from the first round they can
//!   alter; the rounds before it, and the rates they froze, are reused as
//!   they are. [`allocate_with`] and the engine's full-resolve mode always
//!   start at round 1.

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

/// The `round` of a flow no round of the trajectory has frozen yet.
const UNFROZEN: u32 = u32::MAX;

/// No link.
const NO_LINK: u32 = u32::MAX;

/// Components smaller than this many nodes keep no trajectory and always
/// fill from round 1: their fills are a few rounds over a few links, and
/// keeping the trajectory costs more than it saves (DESIGN.md §11 has the
/// measurement).
const MEMO_MIN_NODES: usize = 16;

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

impl Link {
    /// Whether a residual of `left` leaves the link saturated.
    fn saturated(&self, left: f64) -> bool {
        left <= self.sat_below
    }
}

/// A link's part in its component's last trajectory (see [`Memo`]), apart
/// from [`Link`] so that components that keep no trajectory never load it.
#[derive(Debug, Clone, Default)]
struct LinkTrace {
    /// The generation of the memo the rest describes the link in.
    memo: u64,
    /// Its load at the start of each round it was loaded in, from round 1.
    hist: Vec<Load>,
    /// The round it saturated in; 0 if none did.
    sat: u32,
    /// Its place in `Memo::ends[hist.len() - 1]` (in its index among the
    /// touched links while a re-fill checks the stored rounds).
    at: u32,
    /// 1 + the memo that recorded a change to it since that memo's fill; 0
    /// if none did.
    touched: u32,
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
    /// The fill (by ordinal) whose rounds last froze this flow.
    frozen_in: u64,
}

/// A flow's part in its component's last trajectory, apart from [`Member`]
/// for the same reason as [`LinkTrace`].
#[derive(Debug, Clone, Copy)]
struct MemberTrace {
    /// The round of the trajectory that froze it.
    round: u32,
    /// 1 + the memo that recorded it as attached or re-capped since that
    /// memo's fill; 0 if none did.
    fresh_in: u32,
    /// What the sink returned when the trajectory rated it.
    due: u64,
}

impl MemberTrace {
    const NEW: MemberTrace = MemberTrace {
        round: UNFROZEN,
        fresh_in: 0,
        due: u64::MAX,
    };
}

/// One round of a component's last fill, as a re-fill checks it.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// Smallest `left / count` over the loaded links, and a link with it.
    link_min: f64,
    arg: u32,
    /// `link_min.min(min_cap - level)`, before the clamp at zero.
    bound: f64,
    /// The increment.
    delta: f64,
    /// The level after the round.
    level: f64,
    /// Flows still taking rate at the round's start.
    open: u32,
    /// Smallest due among the flows the round froze.
    due: u64,
}

/// A flow version that left a trajectory: detached, or re-capped.
#[derive(Debug, Clone, Copy)]
struct Gone {
    links: [u32; 2],
    cap: f64,
    round: u32,
    due: u64,
}

/// A component's last trajectory and what changed since. The per-round
/// link states live with the links ([`LinkTrace::hist`]).
#[derive(Debug, Clone, Default)]
struct Memo {
    /// Nonzero while the trajectory may be resumed.
    generation: u64,
    rounds: Vec<Round>,
    /// `ends[e - 1]`: the links last loaded in round `e`.
    ends: Vec<Vec<u32>>,
    /// Changes since the fill.
    touched: Vec<u32>,
    fresh: Vec<u32>,
    gone: Vec<Gone>,
}

/// A touched link's state in the new trajectory while a re-fill checks
/// the stored rounds.
#[derive(Debug, Clone, Copy)]
struct Replay {
    link: u32,
    /// Residual and count at the start of the round being checked.
    left: f64,
    count: u32,
    /// Entered flows and departed versions on it still open then.
    entered: u32,
    departed: u32,
    /// Rounds its stored history covers, and the round it saturated in.
    old_end: u32,
    old_sat: u32,
    /// The same in the new trajectory, so far.
    end: u32,
    sat: u32,
    /// The round applied to it.
    after: f64,
    saturates: bool,
}

/// What one [`FillState::fill`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Filled {
    /// Rounds run.
    pub rounds: u64,
    /// Rounds taken unchanged from the component's previous fill.
    pub reused: u64,
    /// Rates set (whether or not they changed).
    pub rated: u64,
    /// The smallest due over every member with a positive cap.
    pub earliest: u64,
}

fn up(node: u32) -> usize {
    2 * node as usize
}

fn down(node: u32) -> usize {
    2 * node as usize + 1
}

/// A residual of `left` after `count` flows each took `delta`. It must stay
/// a repeated subtraction — a multiply rounds differently — and is clamped
/// at zero: a link can end up an ulp negative after repeated subtraction,
/// and a negative residual must read as "saturated", never as headroom.
///
/// The clamp is applied only when it can fire. `left` and `delta` are not
/// negative, and rounding is monotone, so the unclamped residuals never
/// rise: if the last is not negative, neither was any before it, and the
/// clamped chain is the same chain. That halves the latency of the
/// subtractions on the common path.
fn drain(left: f64, count: u32, delta: f64) -> f64 {
    let mut x = left;
    for _ in 0..count {
        x -= delta;
    }
    if x >= 0.0 {
        return x;
    }
    let mut x = left;
    for _ in 0..count {
        x = (x - delta).max(0.0);
    }
    x
}

/// Whether a flow with rate cap `cap` is held by it at `level`.
fn at_cap(cap: f64, level: f64) -> bool {
    cap.is_finite() && level >= cap * (1.0 - REL_EPS)
}

/// The rate of a flow with rate cap `cap` frozen at `level`: pinned exactly
/// to the cap when the cap holds it, so rounding never reports a rate above
/// what the transport window allows.
fn pinned(cap: f64, level: f64) -> f64 {
    if at_cap(cap, level) {
        cap
    } else {
        level
    }
}

/// Put link `l` in the bucket of the last round it was loaded in.
fn file(ends: &mut Vec<Vec<u32>>, link: &mut LinkTrace, l: u32) {
    let e = link.hist.len();
    if e > 0 {
        if ends.len() < e {
            ends.resize_with(e, Vec::new);
        }
        link.at = ends[e - 1].len() as u32;
        ends[e - 1].push(l);
    }
}

/// The flow graph as progressive filling sees it, kept current across
/// fills: per link its capacity and the flows crossing it, per flow its
/// endpoints and cap. Flows are named by caller-chosen dense `u32` keys
/// (the engine's slab slots, [`allocate_with`]'s input indices).
///
/// It also keeps, per caller-named component (a *memo*), the trajectory of
/// that component's last fill and the changes recorded against it since,
/// so that the next fill can resume where the changes start to matter.
#[derive(Debug, Clone, Default)]
pub(crate) struct FillState {
    /// Uplink of node `g` at `2g`, its downlink at `2g + 1`.
    links: Vec<Link>,
    loads: Vec<Load>,
    members: Vec<Member>,
    /// Each member's position in its uplink's and its downlink's `flows`.
    places: Vec<[u32; 2]>,
    /// The trajectory's share of each link and member, grown only once a
    /// component keeps one.
    link_traces: Vec<LinkTrace>,
    member_traces: Vec<MemberTrace>,
    /// Fills run so far; a member with `frozen_in == fills` is frozen in
    /// the fill in progress.
    fills: u64,
    /// Rounds those fills took from a previous trajectory.
    reused: u64,
    memos: Vec<Memo>,
    generations: u64,
    // Buffers of the fill in progress (capacity only between fills).
    active: Vec<u32>,
    saturated: Vec<u32>,
    capped: Vec<u32>,
    replay: Vec<Replay>,
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

    /// Set both NIC capacities of `node`, recording the change against
    /// `memo`, the component the node belongs to.
    pub(crate) fn set_node_caps(
        &mut self,
        memo: Option<u32>,
        node: u32,
        uplink: f64,
        downlink: f64,
    ) {
        for (l, cap) in [(up(node), uplink), (down(node), downlink)] {
            let link = &mut self.links[l];
            link.cap = cap;
            link.sat_below = cap * REL_EPS + f64::MIN_POSITIVE;
        }
        if let Some(c) = self.recording(memo) {
            self.touch(c, up(node));
            self.touch(c, down(node));
        }
    }

    /// Add flow `key` from `src` to `dst` with rate cap `cap` to component
    /// `memo`.
    pub(crate) fn attach(&mut self, memo: Option<u32>, key: u32, src: u32, dst: u32, cap: f64) {
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
        self.enter(memo, key);
    }

    /// Remove flow `key` from component `memo`.
    pub(crate) fn detach(&mut self, memo: Option<u32>, key: u32) {
        self.leave(memo, key);
        if let Some(t) = self.member_traces.get_mut(key as usize) {
            *t = MemberTrace::NEW;
        }
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

    /// Change flow `key`'s rate cap (it belongs to component `memo`).
    pub(crate) fn set_cap(&mut self, memo: Option<u32>, key: u32, cap: f64) {
        self.leave(memo, key);
        self.tally(key, false);
        self.members[key as usize].cap = cap;
        self.tally(key, true);
        self.enter(memo, key);
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

    // ------------------------------------------------------------------
    // What changed since a component's last fill.
    // ------------------------------------------------------------------

    /// `memo`'s index if it holds a trajectory to record changes against.
    fn recording(&self, memo: Option<u32>) -> Option<usize> {
        let c = memo? as usize;
        (self.memos.get(c)?.generation != 0).then_some(c)
    }

    /// Drop component `memo`'s trajectory: its next fill starts at round 1.
    /// Merges and splits call this, and so does a dying component.
    pub(crate) fn forget(&mut self, memo: u32) {
        let Some(m) = self.memos.get_mut(memo as usize) else {
            return;
        };
        let tag = memo + 1;
        m.generation = 0;
        m.gone.clear();
        for l in m.touched.drain(..) {
            let link = &mut self.link_traces[l as usize];
            if link.touched == tag {
                link.touched = 0;
            }
        }
        for k in m.fresh.drain(..) {
            let member = &mut self.member_traces[k as usize];
            if member.fresh_in == tag {
                member.fresh_in = 0;
            }
        }
    }

    /// Grow the trace tables to cover every link and member.
    fn grow_traces(&mut self) {
        if self.link_traces.len() < self.links.len() {
            self.link_traces
                .resize_with(self.links.len(), LinkTrace::default);
        }
        if self.member_traces.len() < self.members.len() {
            self.member_traces
                .resize(self.members.len(), MemberTrace::NEW);
        }
    }

    /// Record a change to link `l` against memo `c`.
    fn touch(&mut self, c: usize, l: usize) {
        self.grow_traces();
        let tag = c as u32 + 1;
        let was = self.link_traces[l].touched;
        if was != tag {
            if was != 0 {
                // Still listed by a component it has since left: that
                // component can no longer tell what changed.
                self.forget(was - 1);
            }
            self.link_traces[l].touched = tag;
            self.memos[c].touched.push(l as u32);
        }
    }

    /// Record flow `key`'s current version as new to memo `memo`.
    fn enter(&mut self, memo: Option<u32>, key: u32) {
        let Some(c) = self.recording(memo) else {
            return;
        };
        let m = self.members[key as usize];
        if m.cap <= 0.0 {
            return; // takes no part; a later cap change enters it
        }
        self.grow_traces();
        let tag = c as u32 + 1;
        let fresh_in = self.member_traces[key as usize].fresh_in;
        if fresh_in != tag {
            if fresh_in != 0 {
                self.forget(fresh_in - 1);
            }
            self.member_traces[key as usize].fresh_in = tag;
            self.memos[c].fresh.push(key);
        }
        self.touch(c, up(m.src));
        self.touch(c, down(m.dst));
    }

    /// Record that flow `key`'s current version leaves memo `memo`'s
    /// trajectory.
    fn leave(&mut self, memo: Option<u32>, key: u32) {
        let Some(c) = self.recording(memo) else {
            return;
        };
        let m = self.members[key as usize];
        if m.cap <= 0.0 {
            return;
        }
        self.grow_traces();
        let t = self.member_traces[key as usize];
        if t.fresh_in != c as u32 + 1 {
            self.memos[c].gone.push(Gone {
                links: [up(m.src) as u32, down(m.dst) as u32],
                cap: m.cap,
                round: t.round,
                due: t.due,
            });
        }
        self.touch(c, up(m.src));
        self.touch(c, down(m.dst));
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
    /// (all of them, each once, any order), kept as memo `memo`. The fill
    /// rates every member with a positive cap — with `resume`, only those
    /// the rounds it runs freeze and the ones changed since the memo's last
    /// fill; without, every one — by calling `sink(key, rate)`, which
    /// returns the member's *due*, a number the fill keeps the minimum of
    /// (the engine's predicted completion). Zero-cap members get rate 0 and
    /// no call.
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
    ///   applies it `count` times by itself ([`drain`]).
    /// * A flow freezes when it is at its cap or one of its links is
    ///   saturated, judged on the residuals *after* the round's
    ///   subtractions. Saturation is a property of the link, so it is
    ///   tested once per link, and the flows to freeze are exactly the
    ///   still-unfrozen members of the links that just saturated.
    ///
    /// Nothing above depends on the order of `nodes` or of any member list.
    /// [`FillState::resume`] argues why starting at a later round changes
    /// nothing either.
    pub(crate) fn fill(
        &mut self,
        memo: u32,
        resume: bool,
        nodes: &[u32],
        mut sink: impl FnMut(u32, f64) -> u64,
    ) -> Filled {
        self.fills += 1;
        let fill = self.fills;
        let c = memo as usize;
        let mut out = Filled {
            rounds: 0,
            reused: 0,
            rated: 0,
            earliest: u64::MAX,
        };
        let record = nodes.len() >= MEMO_MIN_NODES;
        if record {
            if self.memos.len() <= c {
                self.memos.resize_with(c + 1, Memo::default);
            }
            self.grow_traces();
        }
        let held = self.memos.get(c).is_some_and(|m| m.generation != 0);
        let resumed = if resume && record && held {
            self.resume_changes(c, &mut sink, &mut out)
        } else {
            if held {
                self.forget(memo);
            }
            None
        };
        let (start, mut open, mut level, mut min_cap) =
            resumed.unwrap_or_else(|| self.start_fresh(c, nodes, record));

        let Self {
            links,
            loads,
            members,
            link_traces,
            member_traces,
            memos,
            active,
            saturated,
            capped,
            ..
        } = self;
        // Only a fill that records its trajectory touches the memo.
        let mut memo = memos.get_mut(c).filter(|_| record);
        // Every flow open at the start is rated once: frozen by a round, or
        // by the guard below.
        out.rated += u64::from(open);
        let mut round = start - 1;
        while open > 0 {
            round += 1;
            out.rounds += 1;
            // The uniform increment every unfrozen flow can still take: the
            // tightest of (a) equal split of remaining capacity on any
            // loaded link, (b) any unfrozen flow's headroom to its cap.
            let mut link_min = f64::INFINITY;
            let mut arg = NO_LINK;
            if let Some(memo) = memo.as_deref_mut() {
                active.retain(|&l| {
                    let load = loads[l as usize];
                    let trace = &mut link_traces[l as usize];
                    if load.count == 0 {
                        file(&mut memo.ends, trace, l);
                        return false;
                    }
                    trace.hist.push(load);
                    let ratio = load.left / load.count as f64;
                    if ratio < link_min {
                        link_min = ratio;
                        arg = l;
                    }
                    true
                });
            } else {
                active.retain(|&l| {
                    let load = loads[l as usize];
                    if load.count == 0 {
                        return false;
                    }
                    link_min = link_min.min(load.left / load.count as f64);
                    true
                });
            }
            // Accumulated rounding can leave a residual (or cap headroom) a
            // few ulps below zero; clamp instead of handing a negative
            // increment to every flow.
            let bound = link_min.min(min_cap - level);
            let delta = bound.max(0.0);
            debug_assert!(delta.is_finite(), "bad increment {delta}");
            level += delta;

            saturated.clear();
            for &l in active.iter() {
                let load = &mut loads[l as usize];
                load.left = drain(load.left, load.count, delta);
                if links[l as usize].saturated(load.left) {
                    if memo.is_some() {
                        link_traces[l as usize].sat = round;
                    }
                    saturated.push(l);
                }
            }

            let before = open;
            let mut due = u64::MAX;
            let recording = memo.is_some();
            let mut freeze = |m: &mut Member, key: u32, traces: &mut [MemberTrace]| {
                m.frozen_in = fill;
                loads[up(m.src)].count -= 1;
                loads[down(m.dst)].count -= 1;
                open -= 1;
                let d = sink(key, pinned(m.cap, level));
                if recording {
                    let trace = &mut traces[key as usize];
                    trace.round = round;
                    trace.due = d;
                }
                due = due.min(d);
            };
            // Frozen in this fill's rounds, or in the rounds it reused (a
            // fill from round 1 reuses none).
            let frozen = |m: &Member, key: u32, traces: &[MemberTrace]| {
                m.frozen_in == fill || (start > 1 && traces[key as usize].round < start)
            };
            for &l in saturated.iter() {
                for &key in &links[l as usize].flows {
                    let m = &mut members[key as usize];
                    if m.cap > 0.0 && !frozen(m, key, member_traces) {
                        freeze(m, key, member_traces);
                    }
                }
            }
            min_cap = f64::INFINITY;
            capped.retain(|&key| {
                let m = &mut members[key as usize];
                if frozen(m, key, member_traces) {
                    return false;
                }
                if at_cap(m.cap, level) {
                    freeze(m, key, member_traces);
                    return false;
                }
                min_cap = min_cap.min(m.cap);
                true
            });
            out.earliest = out.earliest.min(due);
            if let Some(memo) = memo.as_deref_mut() {
                memo.rounds.push(Round {
                    link_min,
                    arg,
                    bound,
                    delta,
                    level,
                    open: before,
                    due,
                });
            }
            // With delta > 0 something always freezes; with delta == 0 a
            // link is already saturated and its flows freeze. Guard against
            // float pathology anyway, and keep no trajectory of it.
            if open == before {
                for &g in nodes {
                    for &key in &links[up(g)].flows {
                        let m = &members[key as usize];
                        if m.cap > 0.0 && !frozen(m, key, member_traces) {
                            out.earliest = out.earliest.min(sink(key, level));
                        }
                    }
                }
                if let Some(memo) = memo.as_deref_mut() {
                    memo.generation = 0;
                }
                break;
            }
        }
        if let Some(memo) = memo {
            // The links still loaded when the last round ended.
            for &l in active.iter() {
                file(&mut memo.ends, &mut link_traces[l as usize], l);
            }
            for r in &memo.rounds[..start as usize - 1] {
                out.earliest = out.earliest.min(r.due);
            }
        }
        out
    }

    /// Take the changes recorded against memo `c` since its last fill — the
    /// links touched, the flows entered (still live, with a positive cap)
    /// and the versions departed — and resume from them (see
    /// [`FillState::resume`]).
    fn resume_changes(
        &mut self,
        c: usize,
        sink: &mut impl FnMut(u32, f64) -> u64,
        out: &mut Filled,
    ) -> Option<(u32, u32, f64, f64)> {
        let tag = c as u32 + 1;
        let pending = &mut self.memos[c];
        let mut touched = std::mem::take(&mut pending.touched);
        let mut fresh = std::mem::take(&mut pending.fresh);
        let mut gone = std::mem::take(&mut pending.gone);
        let (members, traces) = (&self.members, &mut self.member_traces);
        fresh.retain(|&k| {
            let t = &mut traces[k as usize];
            if t.fresh_in != tag {
                return false; // detached, or entered again later
            }
            *t = MemberTrace::NEW;
            members[k as usize].cap > 0.0
        });
        let resumed = self.resume(c, &touched, &fresh, &gone, sink, out);
        for &l in &touched {
            let link = &mut self.link_traces[l as usize];
            if link.touched == tag {
                link.touched = 0;
            }
        }
        touched.clear();
        fresh.clear();
        gone.clear();
        let pending = &mut self.memos[c];
        pending.touched = touched;
        pending.fresh = fresh;
        pending.gone = gone;
        resumed
    }

    /// Set up round 1 of a fill of memo `c` over `nodes`: every link starts
    /// full, carrying its open flows; the capped ones are looked up only
    /// where an uplink says it has any. With `record`, the fill is kept as
    /// the memo's new trajectory; without, the memo keeps none. Returns the
    /// start round, the open flows, the level and the smallest cap.
    #[inline]
    fn start_fresh(&mut self, c: usize, nodes: &[u32], record: bool) -> (u32, u32, f64, f64) {
        let Self {
            links,
            loads,
            members,
            link_traces,
            memos,
            active,
            capped,
            generations,
            ..
        } = self;
        if record {
            *generations += 1;
            let memo = &mut memos[c];
            memo.generation = *generations;
            memo.rounds.clear();
            memo.ends.iter_mut().for_each(Vec::clear);
        }
        active.clear();
        capped.clear();
        let mut open = 0u32;
        let mut min_cap = f64::INFINITY;
        for &g in nodes {
            for l in [up(g), down(g)] {
                if record {
                    let trace = &mut link_traces[l];
                    trace.memo = *generations;
                    trace.hist.clear();
                    trace.sat = 0;
                }
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
        (1, open, 0.0, min_cap)
    }

    /// Find the first round of memo `c`'s trajectory that the changes —
    /// links `touched`, flows `fresh` entered, versions `gone` — can alter,
    /// rate the fresh flows the rounds before it freeze, and set up that
    /// round. `None` when it is round 1.
    ///
    /// Why rounds `1..R` of the new fill are the stored ones, bit for bit.
    /// Suppose rounds before `r` are. Then every untouched link enters
    /// round `r` in its stored state — its members are unchanged flows, and
    /// each froze in the same round as before — and so do the level and
    /// every unchanged flow. The touched links' new states are replayed
    /// here, round by round, with the kernel's own float operations
    /// ([`drain`], [`Link::saturated`], [`at_cap`], [`pinned`]). Round `r`
    /// is then the stored one when:
    ///
    /// * its link minimum is: the stored argmin is untouched (so the
    ///   untouched links still reach the stored minimum) and no touched
    ///   link's new ratio is below it;
    /// * its cap term leaves the bound as it was: no departed version
    ///   strictly bound it, and no entered cap reaches below it;
    /// * every touched link saturates in it exactly if it did before, so
    ///   every unchanged flow freezes in the same round;
    /// * it still freezes something, and flows are still open at its start.
    ///
    /// The flows frozen before `R` keep their rates and get no call. The
    /// smallest due of a round is kept with it; a departed flow that held
    /// one makes that round's minimum unknown, so `R` is at most its round.
    fn resume(
        &mut self,
        c: usize,
        touched: &[u32],
        fresh: &[u32],
        gone: &[Gone],
        sink: &mut impl FnMut(u32, f64) -> u64,
        out: &mut Filled,
    ) -> Option<(u32, u32, f64, f64)> {
        let tag = c as u32 + 1;
        let Self {
            links,
            loads,
            members,
            link_traces,
            member_traces,
            memos,
            active,
            capped,
            replay,
            reused,
            ..
        } = self;
        let memo = &mut memos[c];
        let generation = memo.generation;
        let rounds = &mut memo.rounds;
        let n = rounds.len() as u32;
        let mut limit = n + 1;
        for g in gone {
            debug_assert!((1..=n).contains(&g.round), "departed flow without a round");
            let stored = rounds.get((g.round as usize).wrapping_sub(1))?;
            if stored.due == g.due {
                limit = limit.min(g.round);
            }
        }
        // Take the touched links out of the buckets; their part of the
        // trajectory is re-derived below.
        replay.clear();
        for (i, &l) in touched.iter().enumerate() {
            let trace = &link_traces[l as usize];
            debug_assert_eq!(trace.touched, tag);
            let (old_end, old_sat) = if trace.memo == generation {
                (trace.hist.len() as u32, trace.sat)
            } else {
                (0, 0)
            };
            if old_end > 0 {
                let b = &mut memo.ends[old_end as usize - 1];
                let at = trace.at as usize;
                b.swap_remove(at);
                if let Some(&moved) = b.get(at) {
                    link_traces[moved as usize].at = at as u32;
                }
            }
            link_traces[l as usize].at = i as u32;
            replay.push(Replay {
                link: l,
                left: links[l as usize].cap,
                count: 0,
                entered: 0,
                departed: 0,
                old_end,
                old_sat,
                end: 0,
                sat: 0,
                after: 0.0,
                saturates: false,
            });
        }
        // Flows entered and departed versions still open, in all and per
        // touched link; each round takes off the ones it froze.
        for &k in fresh {
            let m = &members[k as usize];
            for l in [up(m.src), down(m.dst)] {
                replay[link_traces[l].at as usize].entered += 1;
            }
        }
        for g in gone {
            for l in g.links {
                replay[link_traces[l as usize].at as usize].departed += 1;
            }
        }
        let (mut fresh_open, mut gone_open) = (fresh.len() as u32, gone.len() as u32);

        let mut r = 1u32;
        let open = loop {
            let ri = r as usize - 1;
            // Flows open at round r's start, and each touched link's count.
            let stored_open = rounds.get(ri).map_or(0, |s| s.open);
            let open = stored_open + fresh_open - gone_open;
            for t in replay.iter_mut() {
                let stored = if r <= t.old_end {
                    link_traces[t.link as usize].hist[ri].count
                } else {
                    0
                };
                t.count = stored + t.entered - t.departed;
            }
            if open == 0 || r >= limit {
                break open;
            }
            let s = rounds[ri];
            let level = if r == 1 { 0.0 } else { rounds[ri - 1].level };
            // (No argmin: every ratio was infinite; reuse nothing.)
            if s.arg == NO_LINK
                || link_traces[s.arg as usize].touched == tag
                || replay
                    .iter()
                    .any(|t| t.count > 0 && t.left / (t.count as f64) < s.link_min)
            {
                break open;
            }
            let cap_bound = s.bound < s.link_min;
            if gone
                .iter()
                .any(|g| g.round >= r && g.cap.is_finite() && cap_bound && g.cap - level == s.bound)
                || fresh.iter().any(|&k| {
                    let cap = members[k as usize].cap;
                    member_traces[k as usize].round >= r && cap.is_finite() && cap - level < s.bound
                })
            {
                break open;
            }
            for t in replay.iter_mut() {
                t.after = drain(t.left, t.count, s.delta);
                t.saturates = t.count > 0 && links[t.link as usize].saturated(t.after);
            }
            if replay.iter().any(|t| t.saturates != (t.old_sat == r)) {
                break open;
            }
            let saturates = |l: usize| replay[link_traces[l].at as usize].saturates;
            let mut froze = 0;
            for &k in fresh {
                let m = &members[k as usize];
                let trace = &mut member_traces[k as usize];
                if trace.round == UNFROZEN
                    && (at_cap(m.cap, s.level) || saturates(up(m.src)) || saturates(down(m.dst)))
                {
                    trace.round = r;
                    froze += 1;
                }
            }
            let stored_froze = s.open - rounds.get(ri + 1).map_or(0, |next| next.open);
            let left = gone.iter().filter(|g| g.round == r).count() as u32;
            if stored_froze + froze == left {
                // Nothing would freeze: let the kernel's guard see it.
                for &k in fresh {
                    let trace = &mut member_traces[k as usize];
                    if trace.round == r {
                        trace.round = UNFROZEN;
                    }
                }
                break open;
            }
            for t in replay.iter_mut() {
                if t.count > 0 {
                    let hist = &mut link_traces[t.link as usize].hist;
                    let load = Load {
                        left: t.left,
                        count: t.count,
                    };
                    if hist.len() > ri {
                        hist[ri] = load;
                    } else {
                        hist.push(load);
                    }
                    t.end = r;
                }
                if t.saturates {
                    t.sat = r;
                }
                t.left = t.after;
            }
            for &k in fresh {
                if member_traces[k as usize].round == r {
                    let m = &members[k as usize];
                    for l in [up(m.src), down(m.dst)] {
                        replay[link_traces[l].at as usize].entered -= 1;
                    }
                }
            }
            for g in gone.iter().filter(|g| g.round == r) {
                for l in g.links {
                    replay[link_traces[l as usize].at as usize].departed -= 1;
                }
            }
            fresh_open -= froze;
            gone_open -= left;
            rounds[ri].open = open;
            r += 1;
        };
        if r == 1 {
            return None;
        }
        let start = r;
        out.reused = u64::from(start - 1);
        *reused += out.reused;
        memo.rounds.truncate(start as usize - 1);
        // Fresh flows the reused rounds froze are rated now.
        for &k in fresh {
            let trace = &mut member_traces[k as usize];
            if trace.round < start {
                let s = &mut memo.rounds[trace.round as usize - 1];
                let cap = members[k as usize].cap;
                trace.due = sink(k, pinned(cap, s.level));
                s.due = s.due.min(trace.due);
                out.rated += 1;
            }
        }
        // The touched links keep what the reused rounds gave them; those
        // still loaded join the untouched links loaded at `start`.
        active.clear();
        for t in replay.iter() {
            let trace = &mut link_traces[t.link as usize];
            trace.memo = generation;
            trace.sat = t.sat;
            trace.hist.truncate(t.end as usize);
            if t.count > 0 {
                debug_assert!(open > 0 && t.end == start - 1);
                loads[t.link as usize] = Load {
                    left: t.left,
                    count: t.count,
                };
                active.push(t.link);
            } else {
                file(&mut memo.ends, trace, t.link);
            }
        }
        for e in start as usize..=memo.ends.len() {
            for &l in &memo.ends[e - 1] {
                let trace = &mut link_traces[l as usize];
                loads[l as usize] = trace.hist[start as usize - 1];
                trace.hist.truncate(start as usize - 1);
                trace.sat = 0;
                active.push(l);
            }
            memo.ends[e - 1].clear();
        }
        // The capped flows still open.
        capped.clear();
        let mut min_cap = f64::INFINITY;
        for &l in active.iter() {
            let link = &links[l as usize];
            if l % 2 == 0 && link.capped > 0 {
                for &k in &link.flows {
                    let cap = members[k as usize].cap;
                    if cap > 0.0 && cap.is_finite() && member_traces[k as usize].round >= start {
                        capped.push(k);
                        min_cap = min_cap.min(cap);
                    }
                }
            }
        }
        let level = memo.rounds[start as usize - 2].level;
        Some((start, open, level, min_cap))
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
                fill.set_node_caps(None, node.0 as u32, spec.uplink_bps, spec.downlink_bps);
            }
        }
        fill.attach(None, k as u32, f.src.0 as u32, f.dst.0 as u32, f.cap_bps);
    }
    // One fill per connected component, found from each flow not yet
    // reached; every fill starts at round 1.
    let tag = fill.new_tag();
    for f in flows {
        let src = f.src.0 as u32;
        if !fill.seen(src, tag) {
            fill.component_of(src, tag, &mut s.nodes);
            fill.fill(0, false, &s.nodes, |k, rate| {
                rates[k as usize] = rate;
                0
            });
        }
    }
    for k in 0..flows.len() {
        fill.detach(None, k as u32);
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
            fs.attach(None, k as u32, s, d, 1.0);
        }
        let mut side = Vec::new();
        // Flow 1 (1 → 2) leaves: {0, 1} and {2, 3} fall apart.
        fs.detach(None, 1);
        assert!(fs.severed(1, 2, &mut side));
        side.sort_unstable();
        assert!(side == [0, 1] || side == [2, 3], "{side:?}");
        // With the detour in place the same departure cuts nothing.
        fs.attach(None, 1, 0, 3, 1.0);
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

    // ------------------------------------------------------------------
    // Resumed fills against round-1 fills and the reference.
    // ------------------------------------------------------------------

    /// One change to the single component of [`check_script`].
    #[derive(Debug, Clone)]
    enum Change {
        Attach {
            src: usize,
            dst: usize,
            cap: f64,
        },
        Detach {
            victim: usize,
        },
        SetCap {
            victim: usize,
            cap: f64,
        },
        SetNodeCaps {
            node: usize,
            uplink: f64,
            downlink: f64,
        },
    }

    /// A capacity or cap: half the time one of a few round values, so that
    /// shares tie and links saturate together.
    fn arb_bps() -> impl Strategy<Value = f64> {
        (0usize..6, 1e5f64..1e10).prop_map(|(pick, bps)| match pick {
            0 => 1.25e9,
            1 => 1e9,
            2 => 3e8,
            _ => bps,
        })
    }

    fn arb_cap() -> impl Strategy<Value = f64> {
        (0usize..4, arb_bps()).prop_map(|(phase, cap)| match phase {
            0 => 0.0,
            1 => cap,
            _ => f64::INFINITY,
        })
    }

    /// Up to `NODES` nodes whose capacities often tie.
    fn arb_tied_topo() -> impl Strategy<Value = Topology> {
        prop::collection::vec((arb_bps(), arb_bps()), 2..NODES + 1).prop_map(|specs| {
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

    /// 4/10 attaches, 2/10 detaches, 3/10 cap changes, 1/10 capacity
    /// changes; node and victim indices are reduced at use.
    fn arb_changes() -> impl Strategy<Value = Vec<Change>> {
        prop::collection::vec(
            (
                0usize..10,
                (0..NODES, 0..NODES, arb_cap()),
                0usize..64,
                (arb_bps(), arb_bps()),
            ),
            1..60,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(
                    |(sel, (src, dst, cap), victim, (uplink, downlink))| match sel {
                        0..=3 => Change::Attach { src, dst, cap },
                        4..=5 => Change::Detach { victim },
                        6..=8 => Change::SetCap { victim, cap },
                        _ => Change::SetNodeCaps {
                            node: src,
                            uplink,
                            downlink,
                        },
                    },
                )
                .collect()
        })
    }

    /// A due that depends on the flow and every bit of its rate.
    fn due(key: u32, rate: f64) -> u64 {
        (rate.to_bits() ^ u64::from(key).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 1
    }

    /// Drive `changes` on one component (memo 0, every node of `topo`, and
    /// idle nodes up to [`MEMO_MIN_NODES`]),
    /// filling after each with resumption on. After every fill, each live
    /// flow's rate — set by the fill that last rated it — must equal, bit
    /// for bit, what a round-1 fill of a copy of the state and the
    /// scan-everything reference give, and the fill's earliest due must be
    /// the smallest due of the live flows. Returns the rounds reused.
    fn check_script(topo: &Topology, changes: &[Change]) -> u64 {
        let n = topo.len();
        // Idle nodes pad the component to a size that keeps a trajectory.
        let nodes: Vec<u32> = (0..n.max(MEMO_MIN_NODES) as u32).collect();
        let mut specs: Vec<(f64, f64)> = topo
            .iter()
            .map(|(_, s)| (s.uplink_bps, s.downlink_bps))
            .collect();
        let mut fs = FillState::default();
        fs.ensure_nodes(nodes.len());
        for (g, &(u, d)) in specs.iter().enumerate() {
            fs.set_node_caps(None, g as u32, u, d);
        }
        // Live flows by key, with their demands; freed keys are reused.
        let mut live: Vec<u32> = Vec::new();
        let mut demand: Vec<FlowDemand> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        let mut dues: Vec<u64> = Vec::new();
        let memo = Some(0);
        let mut reused = 0;
        for (step, change) in changes.iter().enumerate() {
            match *change {
                Change::Attach { src, dst, cap } => {
                    let key = free.pop().unwrap_or(demand.len() as u32);
                    let d = FlowDemand {
                        src: NodeId(src % n),
                        dst: NodeId(dst % n),
                        cap_bps: cap,
                    };
                    if key as usize == demand.len() {
                        demand.push(d);
                        rates.push(0.0);
                        dues.push(u64::MAX);
                    }
                    demand[key as usize] = d;
                    rates[key as usize] = 0.0;
                    dues[key as usize] = u64::MAX;
                    fs.attach(memo, key, d.src.0 as u32, d.dst.0 as u32, cap);
                    live.push(key);
                }
                Change::Detach { victim } if !live.is_empty() => {
                    let key = live.swap_remove(victim % live.len());
                    fs.detach(memo, key);
                    free.push(key);
                }
                Change::SetCap { victim, cap } if !live.is_empty() => {
                    let key = live[victim % live.len()];
                    demand[key as usize].cap_bps = cap;
                    fs.set_cap(memo, key, cap);
                }
                Change::SetNodeCaps {
                    node,
                    uplink,
                    downlink,
                } => {
                    specs[node % n] = (uplink, downlink);
                    fs.set_node_caps(memo, (node % n) as u32, uplink, downlink);
                }
                _ => {}
            }
            let mut round_one = fs.clone();
            let mut full = rates.clone();
            let filled = fs.fill(0, true, &nodes, |k, rate| {
                if rate.to_bits() != rates[k as usize].to_bits() {
                    rates[k as usize] = rate;
                    dues[k as usize] = due(k, rate);
                }
                dues[k as usize]
            });
            reused += filled.reused;
            let full_filled = round_one.fill(0, false, &nodes, |k, rate| {
                full[k as usize] = rate;
                due(k, rate)
            });
            assert_eq!(full_filled.reused, 0);
            let mut t = Topology::new();
            for &(uplink_bps, downlink_bps) in &specs {
                t.add_node(NodeSpec {
                    uplink_bps,
                    downlink_bps,
                });
            }
            let flows: Vec<FlowDemand> = live.iter().map(|&k| demand[k as usize]).collect();
            let want = reference_fill(&t, &flows);
            let mut earliest = u64::MAX;
            for (&k, &want) in live.iter().zip(&want) {
                let k = k as usize;
                if demand[k].cap_bps > 0.0 {
                    earliest = earliest.min(dues[k]);
                    assert_eq!(
                        rates[k].to_bits(),
                        want.to_bits(),
                        "step {step}: flow {k} resumed"
                    );
                    assert_eq!(
                        full[k].to_bits(),
                        want.to_bits(),
                        "step {step}: flow {k} round 1"
                    );
                } else {
                    assert_eq!(want, 0.0);
                }
            }
            assert_eq!(filled.earliest, earliest, "step {step}: earliest due");
            assert_eq!(
                full_filled.earliest, earliest,
                "step {step}: round-1 earliest"
            );
        }
        reused
    }

    /// Random change scripts on one component: every fill that resumes
    /// agrees with a fill from round 1 and with the reference, and across
    /// the scripts fills do resume — with resumption disabled this fails.
    #[test]
    fn resumed_fill_matches_round_one_and_reference() {
        const CASES: u32 = 256;
        let (topos, scripts) = (arb_tied_topo(), arb_changes());
        let mut reused = 0;
        for case in 0..CASES {
            let mut rng = TestRng::for_case("maxmin::resumed_fill", case);
            let topo = topos.generate(&mut rng);
            let changes = scripts.generate(&mut rng);
            reused += check_script(&topo, &changes);
        }
        assert!(reused > 0, "no fill resumed in {CASES} scripts");
    }

    /// A capacity rise on a round's argmin link smaller than its saturation
    /// threshold: the link still saturates in that round and no touched
    /// ratio falls below the stored minimum, yet the minimum moves. Only
    /// the touched-argmin check sees it; the random scripts' capacity grid
    /// never makes so small a step.
    #[test]
    fn a_rise_on_the_argmin_link_below_its_threshold_is_not_reused() {
        let unlimited = f64::INFINITY;
        let changes = [
            Change::Attach {
                src: 0,
                dst: 1,
                cap: unlimited,
            },
            Change::Attach {
                src: 2,
                dst: 1,
                cap: unlimited,
            },
            Change::Attach {
                src: 3,
                dst: 4,
                cap: unlimited,
            },
            Change::SetNodeCaps {
                node: 1,
                uplink: 1000.0,
                downlink: 1000.0 + 1e-7,
            },
        ];
        check_script(&topo(5, 1000.0), &changes);
    }

    /// `allocate_with` fills from round 1 every time, whatever its scratch
    /// held before.
    #[test]
    fn allocate_with_never_reuses_a_round() {
        let mut s = Scratch::default();
        let (topos, flows) = (arb_topo(), arb_flows());
        for case in 0..64 {
            let mut rng = TestRng::for_case("maxmin::allocate_with_rounds", case);
            let topo = topos.generate(&mut rng);
            let flows = onto(&topo, &flows.generate(&mut rng));
            let got = allocate_with(&topo, &flows, &mut s);
            assert_eq!(bits(&got), bits(&reference_allocate(&topo, &flows)));
        }
        assert!(s.fill.fills > 0);
        assert_eq!(s.fill.reused, 0);
    }

    /// The rows every fill reads keep their size whether or not components
    /// keep trajectories: those live in the trace tables.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn hot_rows_carry_no_trajectory() {
        assert_eq!(std::mem::size_of::<Link>(), 48);
        assert_eq!(std::mem::size_of::<Member>(), 24);
        assert_eq!(std::mem::size_of::<Load>(), 16);
    }
}
