//! The event-driven fluid flow engine.
//!
//! [`Network`] tracks the set of in-flight transfers and evolves them in
//! piecewise-constant-rate segments: rates only change when a flow starts,
//! finishes, finishes its setup handshake, doubles its slow-start window, or
//! a node's capacity is reconfigured. Between those instants every flow
//! moves bytes linearly, so the engine only needs to be woken at the next
//! such instant — which it reports via [`Network::next_event_time`].
//!
//! The driving simulation loop is owned by the caller (the cluster model in
//! `prophet-ps`); the contract is:
//!
//! ```text
//! loop {
//!     t = min(caller's own events, net.next_event_time());
//!     net.advance_into(t, &mut ends);    // always safe, also for t < next
//!     ... handle ends, maybe net.start_flow(...) / kill_flow(...) at t ...
//! }
//! ```
//!
//! `next_event_time` may return the engine's current instant: a zero-byte
//! flow whose handshake has just ended is due there, and the next
//! `advance_into` harvests it. So a caller that reads a rate
//! (`next_event_time`, `flow_rate`) at the instant it has drained must
//! drain again before it counts that instant's completions as final.
//! Starts and kills at the drained instant never harvest: such a flow
//! stays in flight for the next drain, and a kill that names it before
//! then kills it (see [`Network::kill_flow`]).
//!
//! A caller that traces flows needs no side channel: a flow's start is
//! the call it made, and its end or kill comes back as a [`FlowEnd`] or
//! [`KilledFlow`] carrying the bytes the integrator moved.
//!
//! # When the engine fills
//!
//! Arrivals, departures, kills, phase transitions and capacity changes
//! only mark their component dirty. A dirty component is re-filled at two
//! points only: when time is about to pass (an [`Network::advance_into`]
//! segment that moves the clock fills first), and when a rate consumer
//! asks ([`Network::next_event_time`], [`Network::flow_rate`]). So a
//! completion, the transitions due with it and the launches the caller
//! makes in reply at that instant cost one fill between them.
//!
//! Deferring is exact because no time passes before the fill. Every byte
//! position is integrated to the current instant under the rates that held
//! until it, and the fill sets the rates for the time after it. A flow the
//! old predictions make due at the instant has moved its bytes under the
//! old rates, so harvesting it before the fill is right. A flow that only
//! the new rates would complete at the instant must finish in zero time,
//! which a flow with bytes left cannot. Only a flow with none left does: a
//! zero-byte flow whose handshake has just ended, or one whose last
//! sub-byte remainder the integration rounded away. The fill indexes it at
//! the current instant, so `next_event_time` returns that instant and the
//! next `advance_into` harvests it. The argument is not that same-instant
//! changes only move completions later. Max-min rates are not monotone in
//! the flow set: with `A` and `B` sharing one link and `B` and `C`
//! another, `A`'s departure raises `B`, which then takes a larger share of
//! the second link and can lower `C`.
//!
//! # Scaling architecture
//!
//! The engine is built so that its cost follows what *changed*, not how
//! much is in flight:
//!
//! * **Component-incremental re-allocation.** Flows are grouped into
//!   connected components (flows sharing no node never couple). A flow
//!   arrival merges the components its endpoints belong to; a departure
//!   splits its component on the spot if (and only if) it was a bridge —
//!   decided by a two-ended search from the departed flow's endpoints that
//!   costs a few hops when they are still connected and the smaller part
//!   when they are not. Either marks the component *dirty*, and the next
//!   re-allocation re-fills only dirty components. Untouched components
//!   keep their rates — which is sound because a component's allocation is
//!   a pure function of its own flows and node capacities. The
//!   full-resolve oracle ([`Network::set_full_resolve`]) marks *every*
//!   component dirty on every re-allocation and flows through the
//!   identical code path, so the incremental engine is bit-identical by
//!   construction; the golden suite exists to catch dirty-tracking
//!   omissions.
//! * **Persistent fill state.** The flow graph as progressive filling needs
//!   it (per-link member lists, open-flow counts, capacities) is maintained
//!   per arrival, departure, phase transition and capacity change rather
//!   than rebuilt per fill, and the fill itself works link by link (see
//!   [`crate::maxmin`]). A re-fill resumes from the first round of the
//!   component's previous fill that the changes since can alter (the full
//!   resolve always starts at round 1).
//! * **Component-level completion index.** The fill keeps, per round of a
//!   component's trajectory, the earliest predicted completion among the
//!   members that round froze, so a resumed fill knows the component's
//!   earliest without visiting the members of the rounds it reused; the
//!   index holds one entry per *fill*, not one per rate change. Harvest
//!   scans only components whose entry is due. Phase transitions keep a
//!   per-flow lazy-invalidation heap — rate changes do not churn it.
//! * **Slab storage + lazy integration.** Flows live in a slab (stable
//!   slot indices, O(1) removal via a free list), and each flow's byte
//!   position is integrated lazily — only when its rate changes, it
//!   completes, or it is killed — from a per-flow `last_sync` watermark.
//!   Completion instants are *predicted* once per rate change from the
//!   fractional residual ([`Duration::for_bytes_f64`]), so a sub-byte
//!   remainder never delays or duplicates a completion.

use crate::maxmin::FillState;
use crate::tcp::TcpModel;
use crate::topology::{NodeId, NodeSpec, Topology};
use prophet_sim::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a transfer, unique for the lifetime of a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Bytes closer than this to zero count as "done" (absorbs f64 rounding).
const EPS_BYTES: f64 = 0.5;

/// Sentinel for "no component".
const NO_COMP: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Connection + PS synchronisation; no payload moves.
    Setup { until: SimTime },
    /// Slow start: rate capped at a window that doubles every RTT.
    Ramp { cap_bps: f64, next_double: SimTime },
    /// Window has outgrown every link; only fair sharing limits the rate.
    Steady,
}

impl Phase {
    /// The rate cap this phase puts on its flow.
    fn cap_bps(self) -> f64 {
        match self {
            Phase::Setup { .. } => 0.0,
            Phase::Ramp { cap_bps, .. } => cap_bps,
            Phase::Steady => f64::INFINITY,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    total: f64,
    phase: Phase,
    tag: u64,
}

/// What a rate change reads and writes of a flow — its rate, its byte
/// position and when it is due — kept out of [`FlowState`] in a dense array
/// of its own so a fill that re-rates a thousand flows, and a harvest that
/// scans them, read a few cache-resident kilobytes.
#[derive(Debug, Clone, Copy)]
struct Pace {
    rate: f64,
    /// Predicted completion under `rate` (`SimTime::MAX` while the flow
    /// isn't moving payload). Recomputed only when the rate actually
    /// changes, which keeps the full/incremental engines in lockstep.
    pred_end: SimTime,
    remaining: f64,
    /// Byte-integration watermark: `remaining` is exact as of this instant.
    last_sync: SimTime,
    src: u32,
    dst: u32,
}

impl Pace {
    /// A flow of `bytes` from `src` to `dst`, not yet moving, at `now`.
    fn idle(src: NodeId, dst: NodeId, bytes: u64, now: SimTime) -> Pace {
        Pace {
            rate: 0.0,
            pred_end: SimTime::MAX,
            remaining: (bytes as f64).max(0.0),
            last_sync: now,
            src: src.0 as u32,
            dst: dst.0 as u32,
        }
    }

    /// Bring the byte position up to `clock` at the current rate, crediting
    /// the moved bytes to the endpoints' counters.
    fn integrate(&mut self, clock: SimTime, tx_base: &mut [f64], rx_base: &mut [f64]) {
        let dt = clock.saturating_since(self.last_sync).as_secs_f64();
        self.last_sync = clock;
        if dt > 0.0 && self.rate > 0.0 {
            let moved = (self.rate * dt).min(self.remaining);
            self.remaining -= moved;
            tx_base[self.src as usize] += moved;
            rx_base[self.dst as usize] += moved;
        }
    }
}

/// One connected component of the flow graph: a set of nodes. Its flows
/// are the ones the fill state lists at those nodes.
#[derive(Debug, Clone)]
struct Comp {
    /// Member nodes, in no particular order (`node_pos` indexes into this).
    nodes: Vec<u32>,
    live: bool,
    /// Queued for re-fill at the next [`Network::reallocate`].
    dirty: bool,
    /// Names the completion-index entry the last fill pushed (the earliest
    /// `pred_end` among the members, if any is moving); entries carrying
    /// any other stamp are stale.
    stamp: u64,
    /// The clock of the last fill (`SimTime::MAX` before the first).
    filled_at: SimTime,
}

fn transition_time(f: &FlowState) -> Option<SimTime> {
    match f.phase {
        Phase::Setup { until } => Some(until),
        Phase::Ramp { next_double, .. } => Some(next_double),
        Phase::Steady => None,
    }
}

/// A transfer removed by a kill, with the partial byte count it had moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KilledFlow {
    /// The caller-supplied tag of the killed flow.
    pub tag: u64,
    /// Its source node.
    pub src: NodeId,
    /// Its destination node.
    pub dst: NodeId,
    /// Bytes the integrator had moved before the kill.
    pub delivered: f64,
}

/// A completed transfer, as returned by [`Network::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEnd {
    /// The finished flow.
    pub id: FlowId,
    /// Its source node.
    pub src: NodeId,
    /// Its destination node.
    pub dst: NodeId,
    /// The caller-supplied tag from [`Network::start_flow`].
    pub tag: u64,
    /// When the last byte arrived.
    pub finished: SimTime,
    /// Bytes the fluid integrator actually moved: the request up to the
    /// completion epsilon.
    pub delivered: f64,
}

/// How much work the engine did, as plain counts. Exact per input, so
/// tests and benches can assert on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Component fills run.
    pub refills: u64,
    /// Rates those fills set: one per member the rounds they ran froze,
    /// plus one per member that joined or changed its cap since its
    /// component's previous fill and froze in a reused round. Any other
    /// member frozen in a reused round keeps its rate and is not counted;
    /// a fill from round 1 counts every member past its handshake.
    pub flows_refilled: u64,
    /// Progressive-filling rounds the fills ran (not the ones they reused).
    pub fill_rounds: u64,
    /// Rounds a fill took unchanged from its component's previous fill
    /// instead of running them.
    pub rounds_reused: u64,
    /// Rates that came out bitwise different, each costing a byte
    /// integration and a completion re-prediction.
    pub rate_changes: u64,
    /// Entries pushed on the completion index.
    pub index_pushes: u64,
    /// Entries popped from it that a later fill had superseded.
    pub index_stale_pops: u64,
    /// Departures that needed a connectivity search (both endpoints kept
    /// other flows).
    pub split_checks: u64,
    /// Flows that delivered their last byte.
    pub completions: u64,
    /// Fills of a component at the instant of its previous fill. Under
    /// the module docs' fill rule only a flow that ends in zero time (a
    /// zero-byte message whose handshake has just ended) brings one about;
    /// the full-resolve oracle also counts one per component per extra
    /// call.
    pub same_instant_refills: u64,
}

/// The fluid network engine. See the module docs for the driving contract.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    tcp: TcpModel,
    slots: Vec<Option<FlowState>>,
    /// Rate and predicted completion of the flow in each slot.
    pace: Vec<Pace>,
    free_slots: Vec<u32>,
    n_active: usize,
    next_id: u64,
    clock: SimTime,
    /// Cached `max(uplink, downlink)` over all nodes: the Ramp → Steady
    /// threshold. Recomputed when a node spec changes.
    max_cap: f64,
    /// The flow graph as progressive filling sees it, keyed by slot.
    fill: FillState,
    // Component bookkeeping.
    comps: Vec<Comp>,
    free_comps: Vec<u32>,
    /// Component owning each node (`NO_COMP` when the node has no flows).
    node_comp: Vec<u32>,
    /// Each owned node's position in its component's `nodes`.
    node_pos: Vec<u32>,
    /// Components queued for re-fill.
    dirty: Vec<u32>,
    full_resolve: bool,
    // Event index.
    /// `(earliest member completion, stamp, component)`, one per fill.
    completions: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Lazy-invalidation entries `(instant, flow id, slot)`.
    transitions: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    stamps: u64,
    // Byte accounting: integrated-up-to-`last_sync` base per node; the
    // in-flight accrual since then is reconstructed on read.
    tx_base: Vec<f64>,
    rx_base: Vec<f64>,
    stats: NetStats,
    // Reusable buffers (never carry results between calls).
    /// `(pred_end, flow id, slot)` of the flows being harvested.
    due: Vec<(SimTime, u64, u32)>,
    side: Vec<u32>,
}

impl Network {
    /// A network over `topo` with transport behaviour `tcp`.
    pub fn new(topo: Topology, tcp: TcpModel) -> Self {
        let n = topo.len();
        let mut fill = FillState::default();
        fill.ensure_nodes(n);
        let mut max_cap = 0.0f64;
        for (node, spec) in topo.iter() {
            fill.set_node_caps(None, node.0 as u32, spec.uplink_bps, spec.downlink_bps);
            max_cap = max_cap.max(spec.uplink_bps.max(spec.downlink_bps));
        }
        Network {
            topo,
            tcp,
            slots: Vec::new(),
            pace: Vec::new(),
            free_slots: Vec::new(),
            n_active: 0,
            next_id: 0,
            clock: SimTime::ZERO,
            max_cap,
            fill,
            comps: Vec::new(),
            free_comps: Vec::new(),
            node_comp: vec![NO_COMP; n],
            node_pos: vec![0; n],
            dirty: Vec::new(),
            full_resolve: false,
            completions: BinaryHeap::new(),
            transitions: BinaryHeap::new(),
            stamps: 0,
            tx_base: vec![0.0; n],
            rx_base: vec![0.0; n],
            stats: NetStats::default(),
            due: Vec::new(),
            side: Vec::new(),
        }
    }

    /// Switch between incremental (default) and full-resolve re-allocation.
    ///
    /// Full-resolve marks every live component dirty on every
    /// re-allocation, so each rate is recomputed from scratch each time —
    /// the oracle the incremental engine is golden-tested against.
    /// Both modes share the identical fill path, so their `FlowEnd`
    /// timestamps and rates are bit-identical unless incremental dirty
    /// tracking misses an invalidation.
    pub fn set_full_resolve(&mut self, on: bool) {
        self.full_resolve = on;
    }

    /// True when every re-allocation re-solves every component.
    pub fn full_resolve(&self) -> bool {
        self.full_resolve
    }

    /// The transport model in use.
    pub fn tcp(&self) -> TcpModel {
        self.tcp
    }

    /// The topology (capacities may change via [`Network::set_node_spec`]).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of in-flight transfers.
    pub fn active_flows(&self) -> usize {
        self.n_active
    }

    /// Work counters since construction.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Cumulative bytes sent by `node` up to the engine clock (payload
    /// only; handshakes are latency, not volume).
    pub fn tx_bytes(&self, node: NodeId) -> f64 {
        let mut total = self.tx_base[node.0];
        for (f, pace) in self.slots.iter().zip(&self.pace) {
            if f.as_ref().is_some_and(|f| f.src == node && pace.rate > 0.0) {
                total += pace.rate * self.clock.saturating_since(pace.last_sync).as_secs_f64();
            }
        }
        total
    }

    /// Cumulative bytes received by `node` up to the engine clock.
    pub fn rx_bytes(&self, node: NodeId) -> f64 {
        let mut total = self.rx_base[node.0];
        for (f, pace) in self.slots.iter().zip(&self.pace) {
            if f.as_ref().is_some_and(|f| f.dst == node && pace.rate > 0.0) {
                total += pace.rate * self.clock.saturating_since(pace.last_sync).as_secs_f64();
            }
        }
        total
    }

    /// Begin a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// `tag` is returned in the eventual [`FlowEnd`] so the caller can map
    /// completions back to its own bookkeeping without a side table.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        self.start_flow_with_warmth(now, src, dst, bytes, tag, false)
    }

    /// [`Network::start_flow`] with explicit connection warmth: a *warm*
    /// message continues an established, recently-active connection — no
    /// setup handshake and no slow-start ramp (the congestion window is
    /// already open). Back-to-back messages on a persistent BytePS
    /// connection are warm; the first message after an idle period, or any
    /// message on a blocking transport that waits for per-message acks,
    /// is cold.
    ///
    /// `now` is at or after the last drain ([`Network::advance_into`]), and
    /// every completion before `now` has been drained. A start at the
    /// drained instant harvests nothing, so a flow a rate read released at
    /// `now` is left for the next drain.
    pub fn start_flow_with_warmth(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
        warm: bool,
    ) -> FlowId {
        debug_assert!(now >= self.clock, "flow started in the past");
        self.catch_up(now, "start_flow");
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let phase = if warm {
            Phase::Steady
        } else {
            self.initial_phase(now)
        };
        let slot = self.alloc_slot();
        let flow = FlowState {
            id,
            src,
            dst,
            total: bytes as f64,
            phase,
            tag,
        };
        if let Some(t) = transition_time(&flow) {
            self.transitions.push(Reverse((t, id.0, slot)));
        }
        self.slots[slot as usize] = Some(flow);
        self.pace[slot as usize] = Pace::idle(src, dst, bytes, now);
        self.n_active += 1;
        // The component is only marked dirty; the module docs' fill rule
        // says when it is re-filled.
        self.attach_flow(slot);
        id
    }

    fn initial_phase(&self, now: SimTime) -> Phase {
        if self.tcp.setup_s > 0.0 {
            Phase::Setup {
                until: now + Duration::from_secs_f64(self.tcp.setup_s),
            }
        } else if self.tcp.rtt_s > 0.0 && self.tcp.init_cwnd_bytes.is_finite() {
            Phase::Ramp {
                cap_bps: self.tcp.init_cwnd_bytes / self.tcp.rtt_s,
                next_double: now + Duration::from_secs_f64(self.tcp.rtt_s),
            }
        } else {
            Phase::Steady
        }
    }

    /// Change a node's NIC capacities at `now` (dynamic / heterogeneous
    /// bandwidth experiments). The node's component is re-filled by the
    /// module docs' fill rule, before any time passes.
    ///
    /// Any completions that fall at exactly `now` are returned — callers
    /// must handle them just like [`Network::advance_to`] results.
    pub fn set_node_spec(&mut self, now: SimTime, node: NodeId, spec: NodeSpec) -> Vec<FlowEnd> {
        let done = self.advance_to(now);
        self.topo.set_spec(node, spec);
        let c = self.node_comp[node.0];
        let memo = (c != NO_COMP).then_some(c);
        self.fill
            .set_node_caps(memo, node.0 as u32, spec.uplink_bps, spec.downlink_bps);
        self.max_cap = self
            .topo
            .iter()
            .map(|(_, s)| s.uplink_bps.max(s.downlink_bps))
            .fold(0.0f64, f64::max);
        // Only the component touching this node sees different capacities;
        // every other component's allocation is unchanged by construction.
        if c != NO_COMP {
            self.mark_dirty(c);
        }
        done
    }

    /// Kill the in-flight flow carrying `tag` at `now` (a downed link or a
    /// lost message). The bytes it had moved stay in the tx/rx counters —
    /// they *were* on the wire — but the receiver never assembles the
    /// message, so the caller must not credit them to any gradient.
    /// Returns `None` if no in-flight flow carries `tag` (it may have
    /// completed at exactly `now`; drain completions first).
    ///
    /// Draining at `now` does not release a zero-byte flow whose handshake
    /// ends at `now`: only a fill does (a rate read, or the next drain that
    /// moves the clock). Until then the flow is in flight, and a kill at
    /// `now` kills it with `delivered` 0. Like
    /// [`Network::start_flow_with_warmth`], a kill at the drained instant
    /// harvests nothing.
    pub fn kill_flow(&mut self, now: SimTime, tag: u64) -> Option<KilledFlow> {
        self.catch_up(now, "kill_flow");
        // Earliest-started match.
        let (_, slot) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, f)| {
                f.as_ref()
                    .and_then(|f| (f.tag == tag).then_some((f.id.0, s as u32)))
            })
            .min()?;
        Some(self.remove_killed(slot))
    }

    /// Kill every in-flight flow with `node` as source or destination (a
    /// node whose links dropped or whose PS shard crashed), returning the
    /// killed flows in flow-start order. See [`Network::kill_flow`] for the
    /// byte-accounting contract.
    pub fn kill_flows_touching(&mut self, now: SimTime, node: NodeId) -> Vec<KilledFlow> {
        self.catch_up(now, "kill_flows_touching");
        let n = node.0 as u32;
        let mut victims: Vec<(u64, u32)> = self
            .fill
            .flows_from(n)
            .iter()
            .chain(self.fill.flows_into(n))
            .map(|&s| (self.flow(s).id.0, s))
            .collect();
        victims.sort_unstable();
        victims.dedup(); // a self-loop is listed at both links
        victims
            .into_iter()
            .map(|(_, s)| self.remove_killed(s))
            .collect()
    }

    /// Move the clock to `now` before a start or a kill. A caller that has
    /// not drained at `now` has nothing due up to it, so moving the clock
    /// harvests nothing. At the clock's own instant nothing moves: a flow
    /// that a rate read there released (a zero-byte flow whose handshake
    /// ends there) stays in flight for the caller's next drain instead of
    /// being harvested here, where its [`FlowEnd`] would be lost.
    fn catch_up(&mut self, now: SimTime, call: &str) {
        if now > self.clock {
            let done = self.advance_to(now);
            debug_assert!(done.is_empty(), "{call} raced past unharvested completions");
        }
    }

    fn remove_killed(&mut self, slot: u32) -> KilledFlow {
        let pace = &mut self.pace[slot as usize];
        pace.integrate(self.clock, &mut self.tx_base, &mut self.rx_base);
        let pace = *pace;
        let f = self.flow(slot);
        let killed = KilledFlow {
            tag: f.tag,
            src: f.src,
            dst: f.dst,
            delivered: f.total - pace.remaining,
        };
        self.detach_flow(slot);
        self.free_slot(slot);
        killed
    }

    /// The next instant at which rates change or a flow completes; `None`
    /// when nothing is in flight. (`&mut self`: peeking resolves deferred
    /// re-fills and prunes stale entries from the lazy event index.)
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.reallocate();
        let a = self.peek_transition();
        let b = self.peek_completion();
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// Evolve the network to `now`, returning every flow whose last byte
    /// arrived at or before `now` (in flow-start order — deterministic).
    ///
    /// Safe for arbitrary jumps: the engine internally breaks `[clock, now]`
    /// into constant-rate segments at phase transitions *and* completions,
    /// so completion timestamps are exact even if the caller overshoots.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<FlowEnd> {
        let mut completed = Vec::new();
        self.advance_into(now, &mut completed);
        completed
    }

    /// [`Network::advance_to`], appending the completions to `completed`
    /// instead of returning a fresh list, so a caller that drains every
    /// instant can keep one buffer.
    ///
    /// Each segment that moves the clock first fills every dirty component
    /// (the module docs' fill rule). The segment that ends at `now` leaves
    /// the components its transitions and completions touched dirty, so
    /// the flows the caller starts or kills at `now` join the same fill.
    pub fn advance_into(&mut self, now: SimTime, completed: &mut Vec<FlowEnd>) {
        debug_assert!(now >= self.clock, "network advanced backwards");
        loop {
            // The one rule: fill only when time is about to pass, so the
            // predictions that segment `[clock, now]` are current. The
            // transitions and completions a segment ends on leave their
            // components dirty, and the fill waits for the next segment or
            // for the caller's launches at the same instant.
            if now > self.clock {
                self.reallocate();
            }
            let mut seg_end = now;
            if let Some(t) = self.peek_transition() {
                seg_end = seg_end.min(t);
            }
            if let Some(t) = self.peek_completion() {
                seg_end = seg_end.min(t);
            }
            debug_assert!(seg_end >= self.clock, "event index went backwards");
            debug_assert!(
                seg_end == self.clock || self.dirty.is_empty(),
                "time passed over a dirty component"
            );
            self.clock = seg_end;
            while let Some(slot) = self.pop_transition_due(seg_end) {
                self.apply_transition(slot, seg_end);
            }
            self.harvest_due(seg_end, completed);
            // Without a fill nothing new falls due at `now`: a transition
            // schedules its successor an RTT on, and the index holds no
            // entry at or before `now` that the harvest did not pop.
            if seg_end == now {
                break;
            }
        }
    }

    /// Earliest valid transition entry, pruning stale ones.
    fn peek_transition(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, id, slot))) = self.transitions.peek() {
            let valid = match self.slots[slot as usize].as_ref() {
                Some(f) if f.id.0 == id => transition_time(f) == Some(t),
                _ => false,
            };
            if valid {
                return Some(t);
            }
            self.transitions.pop();
        }
        None
    }

    fn pop_transition_due(&mut self, t: SimTime) -> Option<u32> {
        match self.peek_transition() {
            Some(et) if et <= t => {
                let Reverse((_, _, slot)) = self.transitions.pop().unwrap();
                Some(slot)
            }
            _ => None,
        }
    }

    /// Earliest completion among the components whose index entry is
    /// current, pruning superseded entries.
    fn peek_completion(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, stamp, c))) = self.completions.peek() {
            let comp = &self.comps[c as usize];
            if comp.live && comp.stamp == stamp {
                return Some(t);
            }
            self.completions.pop();
            self.stats.index_stale_pops += 1;
        }
        None
    }

    /// Complete every flow predicted to end at or before `t`, in
    /// `(pred_end, flow id)` order — flow-start order within an instant.
    /// Only components whose index entry is due are scanned, and each
    /// departure leaves its component dirty.
    fn harvest_due(&mut self, t: SimTime, out: &mut Vec<FlowEnd>) {
        let mut due = std::mem::take(&mut self.due);
        while let Some(et) = self.peek_completion() {
            if et > t {
                break;
            }
            let Reverse((_, _, c)) = self.completions.pop().unwrap();
            for &g in &self.comps[c as usize].nodes {
                for &s in self.fill.flows_from(g) {
                    let pred_end = self.pace[s as usize].pred_end;
                    if pred_end <= t {
                        due.push((pred_end, self.flow(s).id.0, s));
                    }
                }
            }
        }
        due.sort_unstable();
        for &(_, _, slot) in &due {
            self.harvest(slot, t, out);
        }
        due.clear();
        self.due = due;
    }

    /// Apply one setup-completion or window-doubling transition due at `t`.
    fn apply_transition(&mut self, slot: u32, t: SimTime) {
        let rtt = self.tcp.rtt_s;
        let cwnd = self.tcp.init_cwnd_bytes;
        let max_cap = self.max_cap;
        let rate = self.pace[slot as usize].rate;
        let f = self.slots[slot as usize].as_mut().unwrap();
        // Was the outgoing phase cap actually binding? A Ramp doubling (or
        // Ramp→Steady) only ever *raises* the flow's demand cap. In the
        // fill, a non-binding cap's headroom is never the round minimum, so
        // raising it further cannot perturb a single arithmetic step — the
        // re-fill would reproduce every rate bit for bit. Cap-limited flows
        // are pinned to exactly `cap_bps`, so `rate >= cap` is a precise
        // binding test, and skipping the no-op re-fill is what keeps large
        // fan-in components from being re-solved once per flow per RTT.
        let binding = match f.phase {
            Phase::Setup { .. } => true, // demand goes 0 → positive: real change
            Phase::Ramp { cap_bps, .. } => rate >= cap_bps,
            Phase::Steady => true,
        };
        match f.phase {
            Phase::Setup { until } => {
                debug_assert!(until == t, "setup transition fired at the wrong time");
                f.phase = if rtt > 0.0 && cwnd.is_finite() {
                    Phase::Ramp {
                        cap_bps: cwnd / rtt,
                        next_double: t + Duration::from_secs_f64(rtt),
                    }
                } else {
                    Phase::Steady
                };
            }
            Phase::Ramp { cap_bps, .. } => {
                let cap = cap_bps * 2.0;
                f.phase = if cap >= max_cap {
                    Phase::Steady
                } else {
                    Phase::Ramp {
                        cap_bps: cap,
                        next_double: t + Duration::from_secs_f64(rtt),
                    }
                };
            }
            Phase::Steady => unreachable!("transition entry for a Steady flow survived"),
        }
        if let Some(nt) = transition_time(f) {
            self.transitions.push(Reverse((nt, f.id.0, slot)));
        }
        let comp = self.node_comp[f.src.0];
        self.fill.set_cap(Some(comp), slot, f.phase.cap_bps());
        // Setup→Ramp releases the flow (demand 0 → positive) and a binding
        // Ramp cap that doubles genuinely frees rate: both need a re-fill.
        // A non-binding cap that rises leaves the fill arithmetic — and so
        // every allocated rate — untouched, bit for bit; skip the re-fill.
        if binding {
            self.mark_dirty(comp);
        }
    }

    /// Complete the flow in `slot` at instant `t`.
    fn harvest(&mut self, slot: u32, t: SimTime, out: &mut Vec<FlowEnd>) {
        let pace = &mut self.pace[slot as usize];
        pace.integrate(self.clock, &mut self.tx_base, &mut self.rx_base);
        let pace = *pace;
        debug_assert!(
            pace.remaining <= EPS_BYTES,
            "harvested flow still holds {} bytes",
            pace.remaining
        );
        let f = self.flow(slot);
        debug_assert!(!matches!(f.phase, Phase::Setup { .. }));
        let end = FlowEnd {
            id: f.id,
            src: f.src,
            dst: f.dst,
            tag: f.tag,
            finished: t,
            delivered: f.total - pace.remaining,
        };
        self.detach_flow(slot);
        self.free_slot(slot);
        self.stats.completions += 1;
        out.push(end);
    }

    fn flow(&self, slot: u32) -> &FlowState {
        self.slots[slot as usize]
            .as_ref()
            .expect("fill state lists a dead flow")
    }

    // ------------------------------------------------------------------
    // Component bookkeeping.
    // ------------------------------------------------------------------

    fn alloc_slot(&mut self) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            s
        } else {
            self.slots.push(None);
            self.pace
                .push(Pace::idle(NodeId(0), NodeId(0), 0, SimTime::ZERO));
            (self.slots.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
        self.free_slots.push(slot);
        self.n_active -= 1;
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamps += 1;
        self.stamps
    }

    fn alloc_comp(&mut self) -> u32 {
        let c = self.free_comps.pop().unwrap_or_else(|| {
            self.comps.push(Comp {
                nodes: Vec::new(),
                live: false,
                dirty: false,
                stamp: 0,
                filled_at: SimTime::MAX,
            });
            (self.comps.len() - 1) as u32
        });
        let stamp = self.next_stamp();
        let comp = &mut self.comps[c as usize];
        comp.live = true;
        comp.stamp = stamp;
        comp.filled_at = SimTime::MAX;
        c
    }

    fn free_comp(&mut self, c: u32) {
        self.fill.forget(c);
        let comp = &mut self.comps[c as usize];
        debug_assert!(comp.nodes.is_empty());
        comp.live = false;
        comp.dirty = false;
        self.free_comps.push(c);
    }

    fn mark_dirty(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        if comp.live && !comp.dirty {
            comp.dirty = true;
            self.dirty.push(c);
        }
    }

    fn join_comp(&mut self, node: usize, c: u32) {
        let nodes = &mut self.comps[c as usize].nodes;
        self.node_comp[node] = c;
        self.node_pos[node] = nodes.len() as u32;
        nodes.push(node as u32);
    }

    fn leave_comp(&mut self, node: usize) {
        let nodes = &mut self.comps[self.node_comp[node] as usize].nodes;
        let pos = self.node_pos[node] as usize;
        nodes.swap_remove(pos);
        if let Some(&moved) = nodes.get(pos) {
            self.node_pos[moved as usize] = pos as u32;
        }
        self.node_comp[node] = NO_COMP;
    }

    /// Insert a freshly started flow into the fill state and the component
    /// structure, merging the components of its endpoints if they differ.
    fn attach_flow(&mut self, slot: u32) {
        let f = self.flow(slot);
        let (src, dst, cap) = (f.src.0, f.dst.0, f.phase.cap_bps());
        let ca = self.node_comp[src];
        let cb = self.node_comp[dst];
        let merged = ca != NO_COMP && cb != NO_COMP && ca != cb;
        let comp = match (ca != NO_COMP, cb != NO_COMP) {
            (false, false) => self.alloc_comp(),
            (true, false) => ca,
            (false, true) => cb,
            (true, true) if ca == cb => ca,
            (true, true) => self.merge_comps(ca, cb),
        };
        for node in [src, dst] {
            if self.node_comp[node] == NO_COMP {
                self.join_comp(node, comp);
            }
        }
        self.fill
            .attach(Some(comp), slot, src as u32, dst as u32, cap);
        // A flow still in TCP setup has a zero demand cap: the fill leaves
        // it at rate 0, and a frozen zero contributes nothing — no counts,
        // no cap terms, no increments — so adding it leaves every other
        // rate bit-identical and the re-fill can be skipped. Its own rate
        // field is already the 0.0 the fill would write. The exception is a
        // start that *bridges* two components: the oracle groups by
        // connectivity regardless of caps, so the merged population must be
        // re-filled as one to keep its delta sequence — and therefore its
        // bits — identical to the oracle's.
        if merged || cap > 0.0 {
            self.mark_dirty(comp);
        }
    }

    /// Merge two components, keeping the larger; returns the survivor.
    fn merge_comps(&mut self, a: u32, b: u32) -> u32 {
        let (keep, gone) =
            if self.comps[a as usize].nodes.len() >= self.comps[b as usize].nodes.len() {
                (a, b)
            } else {
                (b, a)
            };
        // The merged population fills as one from round 1.
        self.fill.forget(keep);
        let mut moving = std::mem::take(&mut self.comps[gone as usize].nodes);
        for &g in &moving {
            self.join_comp(g as usize, keep);
        }
        moving.clear();
        self.comps[gone as usize].nodes = moving;
        self.free_comp(gone);
        keep
    }

    /// Remove a flow from the fill state and the component structure,
    /// splitting its component if the flow was a bridge.
    fn detach_flow(&mut self, slot: u32) {
        let f = self.flow(slot);
        let (src, dst) = (f.src.0, f.dst.0);
        let c = self.node_comp[src];
        self.fill.detach(Some(c), slot);
        for node in [src, dst] {
            if self.node_comp[node] != NO_COMP && self.fill.degree(node as u32) == 0 {
                self.leave_comp(node);
            }
        }
        if self.comps[c as usize].nodes.is_empty() {
            self.free_comp(c);
            return;
        }
        // The survivors' rates change.
        self.mark_dirty(c);
        // One departure from a connected component can disconnect it only
        // if both endpoints keep other flows (a leaf edge never splits) and
        // no other path joins them. Deciding now, one departure at a time,
        // is what keeps that rule sound: every component is connected
        // whenever a flow leaves it.
        if src != dst && self.node_comp[src] == c && self.node_comp[dst] == c {
            self.stats.split_checks += 1;
            let mut side = std::mem::take(&mut self.side);
            if self.fill.severed(src as u32, dst as u32, &mut side) {
                // Both parts fill from round 1.
                self.fill.forget(c);
                let part = self.alloc_comp();
                for &g in &side {
                    self.leave_comp(g as usize);
                    self.join_comp(g as usize, part);
                }
                self.mark_dirty(part);
            }
            self.side = side;
        }
    }

    /// Recompute rates for every dirty component (all components in
    /// full-resolve mode).
    fn reallocate(&mut self) {
        if self.full_resolve {
            for c in 0..self.comps.len() {
                if self.comps[c].live {
                    self.mark_dirty(c as u32);
                }
            }
        }
        if self.dirty.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.dirty);
        for &c in &queue {
            if !self.comps[c as usize].live || !self.comps[c as usize].dirty {
                continue;
            }
            self.comps[c as usize].dirty = false;
            self.fill_comp(c);
        }
        queue.clear();
        self.dirty = queue;
        #[cfg(debug_assertions)]
        self.audit();
    }

    /// Run progressive filling over one component and apply the resulting
    /// rates, re-predicting completions only for flows whose rate actually
    /// changed (bitwise), and index the component under the earliest of its
    /// members' predictions.
    fn fill_comp(&mut self, c: u32) {
        let nodes = std::mem::take(&mut self.comps[c as usize].nodes);
        let clock = self.clock;
        let Self {
            fill,
            pace,
            tx_base,
            rx_base,
            stats,
            full_resolve,
            ..
        } = self;
        let filled = fill.fill(c, !*full_resolve, &nodes, |slot, rate| {
            let pace = &mut pace[slot as usize];
            // Only a bitwise rate change costs a byte integration and a
            // completion re-prediction.
            if rate.to_bits() != pace.rate.to_bits() {
                stats.rate_changes += 1;
                // Integrate at the old rate up to now, then switch.
                pace.integrate(clock, tx_base, rx_base);
                pace.rate = rate;
                pace.pred_end = if rate > 0.0 {
                    clock + Duration::for_bytes_f64(pace.remaining, rate)
                } else {
                    SimTime::MAX
                };
            }
            pace.pred_end.0
        });
        stats.refills += 1;
        stats.fill_rounds += filled.rounds;
        stats.rounds_reused += filled.reused;
        stats.flows_refilled += filled.rated;
        let earliest = SimTime(filled.earliest);
        let stamp = self.next_stamp();
        let comp = &mut self.comps[c as usize];
        comp.nodes = nodes;
        comp.stamp = stamp;
        if comp.filled_at == clock {
            self.stats.same_instant_refills += 1;
        }
        comp.filled_at = clock;
        if earliest != SimTime::MAX {
            self.completions.push(Reverse((earliest, stamp, c)));
            self.stats.index_pushes += 1;
        }
    }

    /// Rebuild what the incremental bookkeeping maintains — the fill
    /// state's view of every flow, the partition into components, each
    /// clean component's earliest prediction — from the slots, and assert
    /// the two agree. Debug builds run it after every re-allocation, so
    /// every test exercises attach/merge/split/kill/transition/
    /// `set_node_spec` maintenance.
    #[cfg(debug_assertions)]
    fn audit(&mut self) {
        let live: Vec<(u32, &FlowState)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, f)| f.as_ref().map(|f| (s as u32, f)))
            .collect();
        assert_eq!(live.len(), self.n_active);
        let view = live
            .iter()
            .map(|&(s, f)| (s, f.src.0 as u32, f.dst.0 as u32, f.phase.cap_bps()));
        self.fill.audit(&self.topo, view);

        let mut earliest = vec![SimTime::MAX; self.comps.len()];
        for &(s, f) in &live {
            let at = &mut earliest[self.node_comp[f.src.0] as usize];
            *at = (*at).min(self.pace[s as usize].pred_end);
        }
        let tag = self.fill.new_tag();
        let mut reach = Vec::new();
        let mut owned = 0;
        for (c, comp) in self.comps.iter().enumerate() {
            if !comp.live {
                continue;
            }
            assert!(!comp.nodes.is_empty(), "live component {c} is empty");
            for (pos, &g) in comp.nodes.iter().enumerate() {
                assert_eq!(self.node_comp[g as usize], c as u32);
                assert_eq!(self.node_pos[g as usize], pos as u32);
                assert!(self.fill.degree(g) > 0, "idle node {g} in component {c}");
            }
            self.fill.component_of(comp.nodes[0], tag, &mut reach);
            let mut have = comp.nodes.clone();
            have.sort_unstable();
            reach.sort_unstable();
            assert_eq!(have, reach, "component {c} is not one connected part");
            owned += have.len();
            if !comp.dirty {
                let indexed = self
                    .completions
                    .iter()
                    .find(|e| e.0 .1 == comp.stamp)
                    .map_or(SimTime::MAX, |e| e.0 .0);
                assert_eq!(indexed, earliest[c], "component {c} mis-indexed");
            }
        }
        let busy = (0..self.node_comp.len())
            .filter(|&g| self.fill.degree(g as u32) > 0)
            .count();
        assert_eq!(owned, busy, "a node with flows belongs to no component");
    }

    /// Instantaneous rate of a flow (testing/diagnostics). `&mut self`:
    /// observing a rate resolves any deferred re-fills first.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.reallocate();
        let slot = self
            .slots
            .iter()
            .position(|f| f.as_ref().is_some_and(|f| f.id == id))?;
        Some(self.pace[slot].rate)
    }

    /// Run the network by itself until all flows complete, returning every
    /// completion. Only meaningful when the caller has no events of its own
    /// (tests, closed-form validation).
    pub fn run_to_completion(&mut self) -> Vec<FlowEnd> {
        let mut all = Vec::new();
        while let Some(t) = self.next_event_time() {
            all.extend(self.advance_to(t));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::{self, FlowDemand};

    fn ideal_net(n: usize, bps: f64) -> Network {
        Network::new(
            Topology::uniform(n, NodeSpec::symmetric(bps)),
            TcpModel::IDEAL,
        )
    }

    #[test]
    fn single_flow_finishes_at_bytes_over_rate() {
        let mut net = ideal_net(2, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 5000, 7);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert!((done[0].finished.as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Two 1000-byte flows into the same sink at 1000 B/s total:
        // both run at 500 B/s and finish together at t=2.
        let mut net = ideal_net(3, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 1000, 0);
        net.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 1000, 1);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2);
        for d in &done {
            assert!((d.finished.as_secs_f64() - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn late_flow_reallocates_early_flow() {
        // Flow A alone for 1 s (moves 1000 B), then shares for the rest.
        // A: 2000 B total -> 1000 left at t=1, at 500 B/s -> done t=3.
        // B: 500 B at 500 B/s from t=1 -> done t=2, then A speeds back up!
        // Recompute: at t=2 A has 500 left, alone at 1000 B/s -> done t=2.5.
        let mut net = ideal_net(3, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 2000, 0);
        let mut done = Vec::new();
        // Drive manually so we can inject B at t=1.
        let t1 = SimTime::from_secs_f64(1.0);
        done.extend(net.advance_to(t1));
        net.start_flow(t1, NodeId(1), NodeId(2), 500, 1);
        done.extend(net.run_to_completion());
        assert_eq!(done.len(), 2);
        let a = done.iter().find(|d| d.tag == 0).unwrap();
        let b = done.iter().find(|d| d.tag == 1).unwrap();
        assert!((b.finished.as_secs_f64() - 2.0).abs() < 1e-6, "{b:?}");
        assert!((a.finished.as_secs_f64() - 2.5).abs() < 1e-6, "{a:?}");
    }

    #[test]
    fn setup_latency_delays_first_byte() {
        let tcp = TcpModel {
            rtt_s: 0.0,
            setup_s: 0.5,
            init_cwnd_bytes: f64::INFINITY,
        };
        let mut net = Network::new(Topology::uniform(2, NodeSpec::symmetric(1000.0)), tcp);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1000, 0);
        let done = net.run_to_completion();
        assert!((done[0].finished.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn fluid_engine_matches_closed_form_ramp() {
        // The fluid engine with slow-start caps must agree with
        // TcpModel::transfer_time_s for an unshared flow.
        let tcp = TcpModel {
            rtt_s: 1e-3,
            setup_s: 2e-3,
            init_cwnd_bytes: 1000.0,
        };
        let bps = 8e6;
        for bytes in [500u64, 1_500, 15_000, 1_000_000] {
            let mut net = Network::new(Topology::uniform(2, NodeSpec::symmetric(bps)), tcp);
            net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), bytes, 0);
            let done = net.run_to_completion();
            let expect = tcp.transfer_time_s(bytes as f64, bps);
            let got = done[0].finished.as_secs_f64();
            assert!(
                (got - expect).abs() < 1e-5,
                "{bytes} B: fluid {got} vs closed form {expect}"
            );
        }
    }

    #[test]
    fn byte_counters_accumulate() {
        let mut net = ideal_net(2, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 4000, 0);
        net.run_to_completion();
        assert!((net.tx_bytes(NodeId(0)) - 4000.0).abs() < 1.0);
        assert!((net.rx_bytes(NodeId(1)) - 4000.0).abs() < 1.0);
        assert_eq!(net.tx_bytes(NodeId(1)), 0.0);
    }

    #[test]
    fn byte_counters_include_in_flight_accrual() {
        // Reading mid-flow must include the bytes accrued since the flow's
        // last lazy integration, not just the integrated base.
        let mut net = ideal_net(2, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 4000, 0);
        net.advance_to(SimTime::from_secs_f64(1.5));
        assert!((net.tx_bytes(NodeId(0)) - 1500.0).abs() < 1.0);
        assert!((net.rx_bytes(NodeId(1)) - 1500.0).abs() < 1.0);
    }

    #[test]
    fn capacity_change_mid_flow() {
        let mut net = ideal_net(2, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 2000, 0);
        // After 1 s (1000 B left), throttle to 100 B/s -> 10 more seconds.
        let t1 = SimTime::from_secs_f64(1.0);
        let done = net.set_node_spec(t1, NodeId(0), NodeSpec::symmetric(100.0));
        assert!(done.is_empty());
        let done = net.run_to_completion();
        assert!((done[0].finished.as_secs_f64() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flow_completes_after_setup() {
        let tcp = TcpModel {
            rtt_s: 0.0,
            setup_s: 0.25,
            init_cwnd_bytes: f64::INFINITY,
        };
        let mut net = Network::new(Topology::uniform(2, NodeSpec::symmetric(1000.0)), tcp);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 0, 9);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].finished.as_secs_f64() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn many_concurrent_flows_all_complete() {
        let mut net = Network::new(
            Topology::uniform(9, NodeSpec::from_gbps(10.0)),
            TcpModel::EC2,
        );
        for w in 1..9usize {
            net.start_flow(SimTime::ZERO, NodeId(w), NodeId(0), 25_000_000, w as u64);
        }
        let done = net.run_to_completion();
        assert_eq!(done.len(), 8);
        // 8 x 25 MB through a 1.25 GB/s downlink: >= 160 ms + overheads.
        let last = done.iter().map(|d| d.finished).max().unwrap();
        assert!(last.as_secs_f64() > 0.16);
        assert!(last.as_secs_f64() < 0.5, "took {last}");
    }

    #[test]
    fn killed_flow_keeps_partial_bytes_in_counters() {
        let mut net = ideal_net(2, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 2000, 5);
        let t1 = SimTime::from_secs_f64(1.0);
        let killed = net.kill_flow(t1, 5).expect("flow should be in flight");
        assert_eq!(killed.tag, 5);
        assert!((killed.delivered - 1000.0).abs() < 1.0, "{killed:?}");
        assert_eq!(net.active_flows(), 0);
        // The wire carried those bytes even though the message died.
        assert!((net.tx_bytes(NodeId(0)) - 1000.0).abs() < 1.0);
        assert!(net.kill_flow(t1, 5).is_none(), "double kill");
    }

    #[test]
    fn kill_flows_touching_takes_both_directions() {
        let mut net = ideal_net(3, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(1), NodeId(0), 5000, 1);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 5000, 2);
        net.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 5000, 3);
        let killed = net.kill_flows_touching(SimTime::from_secs_f64(0.5), NodeId(0));
        let tags: Vec<u64> = killed.iter().map(|k| k.tag).collect();
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn kill_frees_capacity_for_survivors() {
        // Two flows share a 1000 B/s sink; killing one at t=1 lets the
        // survivor finish at full rate.
        let mut net = ideal_net(3, 1000.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 2000, 0);
        net.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), 2000, 1);
        let t1 = SimTime::from_secs_f64(1.0);
        net.kill_flow(t1, 1).unwrap();
        // Survivor: 1500 B left at 1000 B/s -> done at t=2.5.
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].finished.as_secs_f64() - 2.5).abs() < 1e-6,
            "{done:?}"
        );
    }

    #[test]
    fn flow_rate_visible_while_active() {
        let mut net = ideal_net(2, 1000.0);
        let id = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 10_000, 0);
        assert!((net.flow_rate(id).unwrap() - 1000.0).abs() < 1e-9);
        net.run_to_completion();
        assert_eq!(net.flow_rate(id), None);
    }

    // ------------------------------------------------------------------
    // Regressions added with the incremental/indexed engine.
    // ------------------------------------------------------------------

    #[test]
    fn setup_to_ramp_transition_reallocates_rates() {
        // While in Setup the flow's cap is zero; the instant Setup ends the
        // Ramp cap (cwnd/rtt) must be applied — a stale zero rate would
        // stall the flow forever.
        let tcp = TcpModel {
            rtt_s: 0.1,
            setup_s: 0.05,
            init_cwnd_bytes: 100.0,
        };
        let mut net = Network::new(Topology::uniform(2, NodeSpec::symmetric(1e6)), tcp);
        let id = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
        net.advance_to(SimTime::from_secs_f64(0.01));
        assert_eq!(net.flow_rate(id), Some(0.0), "no payload during setup");
        net.advance_to(SimTime::from_secs_f64(0.06));
        let r = net.flow_rate(id).unwrap();
        assert!(
            (r - 1000.0).abs() < 1e-9,
            "rate after Setup→Ramp should be cwnd/rtt = 1000, got {r}"
        );
    }

    #[test]
    fn ramp_doubling_and_steady_transition_reallocate_rates() {
        // The window cap doubles every RTT and the rate must follow at each
        // doubling instant, then hit line rate once the cap clears the
        // bottleneck (Ramp → Steady).
        let tcp = TcpModel {
            rtt_s: 0.1,
            setup_s: 0.0,
            init_cwnd_bytes: 100.0,
        };
        let bps = 3000.0;
        let mut net = Network::new(Topology::uniform(2, NodeSpec::symmetric(bps)), tcp);
        let id = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
        // Ramp caps: 1000, 2000 (t=0.1), 4000 >= 3000 -> Steady (t=0.2).
        assert!((net.flow_rate(id).unwrap() - 1000.0).abs() < 1e-9);
        net.advance_to(SimTime::from_secs_f64(0.15));
        assert!(
            (net.flow_rate(id).unwrap() - 2000.0).abs() < 1e-9,
            "rate stale after window doubling: {:?}",
            net.flow_rate(id)
        );
        net.advance_to(SimTime::from_secs_f64(0.25));
        assert!(
            (net.flow_rate(id).unwrap() - bps).abs() < 1e-9,
            "rate stale after Ramp→Steady: {:?}",
            net.flow_rate(id)
        );
    }

    #[test]
    fn fractional_residual_completes_on_time_without_duplicates() {
        // A mid-flight rate change leaves a fractional residual; the old
        // engine predicted completion from remaining.ceil(), which at a
        // tiny rate lands seconds late. The prediction must use the
        // fractional residue and fire exactly once.
        let mut net = ideal_net(2, 10.0);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 5, 3);
        let t1 = SimTime::from_secs_f64(0.33);
        // delivered 3.3 B -> remaining 1.7 B; throttle to 0.5 B/s.
        let done = net.set_node_spec(t1, NodeId(0), NodeSpec::symmetric(0.5));
        assert!(done.is_empty());
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1, "exactly one completion");
        assert!((done[0].delivered - 5.0).abs() <= 1.0, "{done:?}");
        let finished = done[0].finished.as_secs_f64();
        let expect = 0.33 + 1.7 / 0.5; // 3.73 s
        assert!(
            (finished - expect).abs() < 1e-6,
            "finished {finished}, want {expect}"
        );
        // ceil(1.7) = 2 B would have predicted 0.33 + 4.0 = 4.33 s.
        assert!(finished < 4.0, "late completion from ceil()ed residual");
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn incremental_matches_full_resolve_bitwise() {
        // The same churn on an incremental and a full-resolve engine must
        // produce identical completions (nanosecond timestamps) and rates.
        let run = |full: bool| -> (Vec<(u64, u64)>, Vec<Option<f64>>) {
            let mut net = Network::new(
                Topology::uniform(7, NodeSpec::symmetric(1e9)),
                TcpModel::EC2,
            );
            net.set_full_resolve(full);
            let mut ids = Vec::new();
            for w in 1..7usize {
                ids.push(net.start_flow(
                    SimTime::ZERO,
                    NodeId(w),
                    NodeId(0),
                    1_000_000 * w as u64,
                    w as u64,
                ));
            }
            let mut ends = Vec::new();
            let t1 = SimTime::from_secs_f64(0.001);
            ends.extend(net.advance_to(t1));
            net.kill_flow(t1, 3);
            ids.push(net.start_flow(t1, NodeId(2), NodeId(5), 500_000, 9));
            let t2 = SimTime::from_secs_f64(0.002);
            ends.extend(net.advance_to(t2));
            net.kill_flows_touching(t2, NodeId(4));
            ends.extend(net.run_to_completion());
            let rates = ids.iter().map(|&id| net.flow_rate(id)).collect();
            (ends.iter().map(|e| (e.tag, e.finished.0)).collect(), rates)
        };
        let (ends_inc, rates_inc) = run(false);
        let (ends_full, rates_full) = run(true);
        assert_eq!(ends_inc, ends_full, "FlowEnd timestamps diverged");
        assert_eq!(
            rates_inc
                .iter()
                .map(|r| r.map(f64::to_bits))
                .collect::<Vec<_>>(),
            rates_full
                .iter()
                .map(|r| r.map(f64::to_bits))
                .collect::<Vec<_>>(),
            "rates diverged"
        );
    }

    #[test]
    fn full_resolve_never_reuses_a_round() {
        // A 20-worker fan-in whose members finish one by one, with a second
        // fan-in joining half-way: the incremental engine resumes its
        // fills, the full-resolve oracle runs every one from round 1, and
        // both land on the same completions.
        let run = |full: bool| {
            let mut net = ideal_net(26, 1000.0);
            net.set_full_resolve(full);
            for w in 1..21usize {
                let bytes = 1000 * w as u64;
                net.start_flow(SimTime::ZERO, NodeId(w), NodeId(0), bytes, w as u64);
            }
            let t1 = SimTime::from_secs_f64(30.0);
            let mut ends = net.advance_to(t1);
            for w in 21..26usize {
                net.start_flow(t1, NodeId(w), NodeId(1), 500 * w as u64, w as u64);
                net.start_flow(t1, NodeId(w), NodeId(0), 300 * w as u64, 100 + w as u64);
            }
            ends.extend(net.run_to_completion());
            let ends: Vec<(u64, u64)> = ends.iter().map(|e| (e.tag, e.finished.0)).collect();
            (ends, net.stats())
        };
        let (ends_inc, inc) = run(false);
        let (ends_full, full) = run(true);
        assert_eq!(ends_inc, ends_full);
        assert_eq!(full.rounds_reused, 0, "{full:?}");
        assert!(inc.rounds_reused > 0, "{inc:?}");
        assert!(
            inc.flows_refilled < full.flows_refilled,
            "{inc:?} vs {full:?}"
        );
    }

    #[test]
    fn same_instant_completions_come_back_in_flow_start_order() {
        // Tags 0 and 2 share node 4's downlink (one component), tag 1 is a
        // component of its own, and all three finish at t = 1 s; tags 3 and
        // 4, two more components, finish together at t = 2 s. The
        // placeholder flow is started first and killed last so that the
        // shared component lists its nodes — and so scans its members — in
        // the reverse of flow-start order.
        let mut net = ideal_net(10, 1024.0);
        let t0 = SimTime::ZERO;
        net.start_flow(t0, NodeId(2), NodeId(4), 1 << 20, 99);
        net.start_flow(t0, NodeId(3), NodeId(4), 512, 0);
        net.start_flow(t0, NodeId(0), NodeId(1), 1024, 1);
        net.start_flow(t0, NodeId(2), NodeId(4), 512, 2);
        net.start_flow(t0, NodeId(5), NodeId(6), 2048, 3);
        net.start_flow(t0, NodeId(8), NodeId(9), 2048, 4);
        net.kill_flow(t0, 99).expect("placeholder in flight");
        let secs = |s: u64| SimTime::ZERO + Duration::from_secs(s);
        let want: Vec<(u64, SimTime)> = vec![
            (0, secs(1)),
            (1, secs(1)),
            (2, secs(1)),
            (3, secs(2)),
            (4, secs(2)),
        ];
        let ends = |done: Vec<FlowEnd>| -> Vec<(u64, SimTime)> {
            done.iter().map(|d| (d.tag, d.finished)).collect()
        };
        // Woken at each event...
        assert_eq!(ends(net.clone().run_to_completion()), want);
        // ...or overshooting both completion instants in one call.
        assert_eq!(ends(net.advance_to(secs(5))), want);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn completion_index_is_pushed_per_fill_not_per_rate_change() {
        // Eight flows fan into one sink and finish one after another; every
        // departure re-rates all the survivors.
        let mut net = ideal_net(9, 1000.0);
        for w in 1..9usize {
            net.start_flow(
                SimTime::ZERO,
                NodeId(w),
                NodeId(0),
                1000 * w as u64,
                w as u64,
            );
        }
        assert_eq!(net.run_to_completion().len(), 8);
        let s = net.stats();
        assert_eq!(s.completions, 8);
        assert_eq!(s.refills, 8, "one fill per instant");
        assert_eq!(s.rate_changes, 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1);
        assert_eq!(s.index_pushes, s.refills);
        assert!(s.index_stale_pops <= s.refills);
        // A star never splits: every departure leaves its worker idle.
        assert_eq!(s.split_checks, 0);
    }

    #[test]
    fn bridge_departure_splits_and_detour_does_not() {
        // 0 → 1 and 2 → 3 are joined only by the bridge 0 → 3.
        let mut net = ideal_net(4, 1000.0);
        let a = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 30, 0);
        let b = net.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 1 << 30, 1);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(3), 1 << 30, 2);
        assert_eq!(net.flow_rate(a), Some(500.0));
        assert_eq!(net.flow_rate(b), Some(500.0));
        net.kill_flow(SimTime::ZERO, 2).unwrap();
        assert_eq!(net.stats().split_checks, 1);
        assert_eq!(net.flow_rate(a), Some(1000.0));
        assert_eq!(net.flow_rate(b), Some(1000.0));
        // Two components now: starting a flow in one leaves the other's
        // rate alone, and the debug-build audit has checked the partition
        // after every step.
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 30, 3);
        assert_eq!(net.flow_rate(a), Some(500.0));
        assert_eq!(net.flow_rate(b), Some(1000.0));
    }

    /// Node 0's downlink (1000 B/s) carries A (2 → 0) and B (1 → 0); node
    /// 1's uplink (3000 B/s) carries B and C (1 → 3).
    fn shared_links() -> (Network, [FlowDemand; 3]) {
        let mut topo = Topology::new();
        for bps in [1000.0, 3000.0, 1e4, 1e4] {
            topo.add_node(NodeSpec::symmetric(bps));
        }
        let demand = |src, dst| FlowDemand {
            src: NodeId(src),
            dst: NodeId(dst),
            cap_bps: f64::INFINITY,
        };
        let flows = [demand(2, 0), demand(1, 0), demand(1, 3)];
        (Network::new(topo, TcpModel::IDEAL), flows)
    }

    #[test]
    fn a_completion_and_a_start_at_one_instant_cost_one_fill() {
        let (mut net, [a, b, c]) = shared_links();
        let t0 = SimTime::ZERO;
        net.start_flow(t0, a.src, a.dst, 1000, 0);
        let id_b = net.start_flow(t0, b.src, b.dst, 1 << 30, 1);
        let id_c = net.start_flow(t0, c.src, c.dst, 1 << 30, 2);
        assert_eq!(net.flow_rate(id_c), Some(2500.0));
        // A alone finishes, at 500 B/s.
        let t = net.next_event_time().unwrap();
        let before = net.stats();
        let done = net.advance_to(t);
        assert_eq!(done.iter().map(|d| d.tag).collect::<Vec<_>>(), vec![0]);
        // Left alone, the departure would raise B to 1000 and lower C to
        // 2000: max-min rates are not monotone in the flow set.
        let survivors = maxmin::allocate(net.topology(), &[b, c]);
        assert_eq!(survivors, vec![1000.0, 2000.0]);
        // D takes A's place at the same instant: one fill for both.
        let id_d = net.start_flow(t, a.src, a.dst, 1 << 30, 3);
        assert_eq!(net.next_event_time().map(|n| n > t), Some(true));
        let after = net.stats();
        assert_eq!(after.refills, before.refills + 1, "{after:?}");
        assert_eq!(after.same_instant_refills, 0);
        let want = maxmin::allocate(net.topology(), &[b, c, a]);
        let got: Vec<f64> = [id_b, id_c, id_d]
            .iter()
            .map(|&id| net.flow_rate(id).unwrap())
            .collect();
        assert_eq!(
            got.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            net.stats().refills,
            after.refills,
            "reading rates fills nothing"
        );
    }

    #[test]
    fn a_zero_byte_flow_released_at_the_callers_instant_is_harvested_there() {
        let tcp = TcpModel {
            rtt_s: 0.0,
            setup_s: 0.25,
            init_cwnd_bytes: f64::INFINITY,
        };
        let mut net = Network::new(Topology::uniform(2, NodeSpec::symmetric(1000.0)), tcp);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 0, 9);
        let t = SimTime::ZERO + Duration::from_secs_f64(0.25);
        // Overshooting the handshake's end harvests the flow there...
        let done = net.clone().advance_to(t + Duration::from_secs(1));
        assert_eq!(
            done.iter().map(|d| (d.tag, d.finished)).collect::<Vec<_>>(),
            vec![(9, t)]
        );
        // ...and a caller woken at that very instant is sent back to it.
        assert!(net.advance_to(t).is_empty(), "no fill has released it yet");
        assert_eq!(net.next_event_time(), Some(t));
        let done = net.advance_to(t);
        assert_eq!(
            done.iter().map(|d| (d.tag, d.finished)).collect::<Vec<_>>(),
            vec![(9, t)]
        );
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.stats().same_instant_refills, 0);
    }

    #[test]
    fn starts_and_kills_at_the_release_instant_leave_the_zero_byte_flow_to_the_next_drain() {
        let tcp = TcpModel {
            rtt_s: 0.0,
            setup_s: 0.25,
            init_cwnd_bytes: f64::INFINITY,
        };
        let mut net = Network::new(Topology::uniform(4, NodeSpec::symmetric(1000.0)), tcp);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 0, 9);
        net.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 1 << 30, 5);
        let t = SimTime::ZERO + Duration::from_secs_f64(0.25);
        assert!(net.advance_to(t).is_empty());
        let mut drained = net.clone();
        // A rate read releases the zero-byte flow at `t`; a start and a
        // kill at `t` leave it in flight instead of harvesting it.
        assert_eq!(net.next_event_time(), Some(t));
        net.start_flow(t, NodeId(2), NodeId(3), 1 << 30, 6);
        let killed = net.kill_flow(t, 5).expect("flow 5 in flight");
        assert_eq!(killed.tag, 5);
        let touching = net.kill_flows_touching(t, NodeId(3));
        assert_eq!(touching.iter().map(|k| k.tag).collect::<Vec<_>>(), vec![6]);
        assert_eq!(
            net.advance_to(t)
                .iter()
                .map(|d| (d.tag, d.finished))
                .collect::<Vec<_>>(),
            vec![(9, t)]
        );
        // Without a rate read no fill has released it: a kill at `t` after
        // the drain kills it, having delivered its 0 bytes.
        let killed = drained.kill_flow(t, 9).expect("flow 9 in flight");
        assert_eq!((killed.tag, killed.delivered), (9, 0.0));
        assert_eq!(drained.active_flows(), 1);
    }

    #[test]
    fn disjoint_flows_do_not_disturb_each_other() {
        // A start/kill in one island must not change the rate (or the
        // prediction) of a flow in another island.
        let mut net = ideal_net(4, 1000.0);
        let a = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 100_000, 0);
        let ra = net.flow_rate(a).unwrap();
        let t1 = SimTime::from_secs_f64(1.0);
        net.advance_to(t1);
        let b = net.start_flow(t1, NodeId(2), NodeId(3), 50_000, 1);
        assert_eq!(net.flow_rate(a).unwrap().to_bits(), ra.to_bits());
        net.kill_flow(SimTime::from_secs_f64(2.0), 1);
        assert!(net.flow_rate(b).is_none());
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].finished.as_secs_f64() - 100.0).abs() < 1e-6);
    }
}
