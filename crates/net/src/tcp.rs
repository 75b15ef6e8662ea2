//! The message-size cost model — the executable form of the paper's Eq. (10).
//!
//! The paper writes the effective bandwidth of a transfer of size `s` on a
//! pipe of capacity `B` as `B(i) = f(s(i), B)` and observes only its shape:
//! `f → 0` as `s → 0` and `f → B` as `s → ∞`. We make `f` concrete with the
//! two mechanisms the paper names in §2.2 ("TCP connection overhead, TCP slow
//! start, and the synchronization between nodes"):
//!
//! * a fixed per-message **setup latency** `L` (connection + PS rendezvous +
//!   scheduler synchronisation), during which no payload moves;
//! * a **slow-start ramp**: the flow's rate cap starts at `w0 / rtt` and
//!   doubles every `rtt` until it reaches the pipe capacity.
//!
//! Total time for an unshared transfer is then
//! `T(s, B) = L + ramp_time(s, B)` and `f(s, B) = s / T(s, B)`.
//!
//! The same parameters drive the live [`crate::Network`] (where the ramp is
//! applied as a growing per-flow cap under fair sharing); this module's
//! closed-form is used by the Prophet planner and by P3/ByteScheduler
//! overhead analyses, and is unit-tested to agree with the fluid engine.

/// Parameters of the per-message cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpModel {
    /// Round-trip time between any two nodes, seconds. EC2 same-AZ ≈ 100 µs.
    pub rtt_s: f64,
    /// Fixed per-message setup latency, seconds: connection establishment +
    /// the PS-side synchronisation the paper calls the "blocking call".
    pub setup_s: f64,
    /// Initial congestion window, bytes (10 MSS ≈ 14.6 kB per RFC 6928).
    pub init_cwnd_bytes: f64,
}

impl TcpModel {
    /// Defaults calibrated for an EC2-like 10 GbE fabric.
    pub const EC2: TcpModel = TcpModel {
        rtt_s: 150e-6,
        setup_s: 1.2e-3,
        init_cwnd_bytes: 14_600.0,
    };

    /// A frictionless network: no setup cost, no ramp. Useful in tests to
    /// isolate scheduling effects from transport effects.
    pub const IDEAL: TcpModel = TcpModel {
        rtt_s: 0.0,
        setup_s: 0.0,
        init_cwnd_bytes: f64::INFINITY,
    };

    /// Time for the payload of `bytes` to drain at capacity `bps`, including
    /// the slow-start ramp but *excluding* the fixed setup latency.
    ///
    /// The ramp is the discrete doubling process: during round `j`
    /// (each `rtt` long) the flow moves `w0 · 2^j` bytes, until the round
    /// rate `w0 · 2^j / rtt` reaches `bps`; from then on it moves at `bps`.
    pub fn ramp_time_s(&self, bytes: f64, bps: f64) -> f64 {
        debug_assert!(bytes >= 0.0 && bps > 0.0);
        if bytes == 0.0 {
            return 0.0;
        }
        if self.rtt_s <= 0.0 || !self.init_cwnd_bytes.is_finite() {
            return bytes / bps;
        }
        let bdp = bps * self.rtt_s; // bytes per round at full rate
        let mut sent = 0.0;
        let mut round_bytes = self.init_cwnd_bytes;
        let mut t = 0.0;
        // Walk doubling rounds until either the payload is exhausted or the
        // round rate reaches capacity. At most ~60 iterations even for
        // pathological parameters (doubling from 1 byte to f64 max).
        while round_bytes < bdp {
            if sent + round_bytes >= bytes {
                // Finishes inside this round, at the round's rate.
                let frac = (bytes - sent) / round_bytes;
                return t + frac * self.rtt_s;
            }
            sent += round_bytes;
            t += self.rtt_s;
            round_bytes *= 2.0;
        }
        // Remaining payload at full capacity.
        t + (bytes - sent) / bps
    }

    /// Total unshared transfer time: setup + ramp.
    pub fn transfer_time_s(&self, bytes: f64, bps: f64) -> f64 {
        self.setup_s + self.ramp_time_s(bytes, bps)
    }

    /// The paper's `f(s, B)`: achieved throughput of an unshared transfer.
    ///
    /// Monotone in `s`, approaches 0 as `s → 0` (setup dominates) and `B`
    /// as `s → ∞` (overheads amortised) — the exact shape asserted below
    /// Eq. (10).
    pub fn effective_bandwidth(&self, bytes: f64, bps: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        bytes / self.transfer_time_s(bytes, bps)
    }

    /// Overhead fraction of a transfer: `1 - f(s,B)/B`. P3's Fig. 3(a)
    /// problem in one number.
    pub fn overhead_fraction(&self, bytes: f64, bps: f64) -> f64 {
        1.0 - self.effective_bandwidth(bytes, bps) / bps
    }

    /// The number of slow-start rounds before a flow reaches `bps`.
    pub fn rounds_to_saturation(&self, bps: f64) -> u32 {
        if self.rtt_s <= 0.0 || !self.init_cwnd_bytes.is_finite() {
            return 0;
        }
        let bdp = bps * self.rtt_s;
        let mut round_bytes = self.init_cwnd_bytes;
        let mut rounds = 0;
        while round_bytes < bdp {
            round_bytes *= 2.0;
            rounds += 1;
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B10G: f64 = 1.25e9; // 10 Gbps in bytes/sec

    #[test]
    fn ideal_model_is_linear() {
        let m = TcpModel::IDEAL;
        assert_eq!(m.transfer_time_s(1.25e9, B10G), 1.0);
        assert_eq!(m.effective_bandwidth(1e6, B10G), B10G);
    }

    #[test]
    fn effective_bandwidth_vanishes_for_tiny_messages() {
        let m = TcpModel::EC2;
        let f = m.effective_bandwidth(100.0, B10G);
        assert!(f < 0.001 * B10G, "tiny message got {f} B/s");
    }

    #[test]
    fn effective_bandwidth_saturates_for_huge_messages() {
        let m = TcpModel::EC2;
        let f = m.effective_bandwidth(1e9, B10G);
        assert!(f > 0.99 * B10G, "1 GB message got only {f} B/s");
    }

    #[test]
    fn effective_bandwidth_monotone_in_size() {
        let m = TcpModel::EC2;
        let mut prev = 0.0;
        for exp in 0..10 {
            let s = 1e3 * 10f64.powi(exp);
            let f = m.effective_bandwidth(s, B10G);
            assert!(f >= prev, "f({s}) = {f} < {prev}");
            prev = f;
        }
    }

    #[test]
    fn four_mb_partition_overhead_is_substantial_at_10g() {
        // P3's default 4 MB partition: at 10 Gbps the payload drains in
        // 3.2 ms but setup + ramp add >1 ms — the Fig. 3(a) effect.
        let m = TcpModel::EC2;
        let ovh = m.overhead_fraction(4e6, B10G);
        assert!(ovh > 0.2, "4 MB overhead only {ovh}");
        // A 64 MB block amortises it.
        let ovh_big = m.overhead_fraction(64e6, B10G);
        assert!(ovh_big < 0.05, "64 MB overhead {ovh_big}");
    }

    #[test]
    fn ramp_time_matches_manual_computation() {
        // rtt 1 ms, w0 = 1000 B, capacity 8000 B/ms = 8e6 B/s.
        let m = TcpModel {
            rtt_s: 1e-3,
            setup_s: 0.0,
            init_cwnd_bytes: 1000.0,
        };
        let bps = 8e6;
        // Rounds: 1000, 2000, 4000 (all < bdp 8000), then capacity.
        // Payload 15000: 1000+2000+4000 = 7000 after 3 ms; 8000 left at
        // 8e6 B/s = 1 ms. Total 4 ms.
        let t = m.ramp_time_s(15_000.0, bps);
        assert!((t - 4e-3).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn ramp_time_partial_round() {
        let m = TcpModel {
            rtt_s: 1e-3,
            setup_s: 0.0,
            init_cwnd_bytes: 1000.0,
        };
        // 1500 bytes: 1000 in round 0 (1 ms), 500/2000 of round 1 (0.25 ms).
        let t = m.ramp_time_s(1_500.0, 8e6);
        assert!((t - 1.25e-3).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn rounds_to_saturation_counts_doublings() {
        let m = TcpModel {
            rtt_s: 1e-3,
            setup_s: 0.0,
            init_cwnd_bytes: 1000.0,
        };
        // bdp = 8000; 1000 -> 2000 -> 4000 -> 8000: 3 doublings.
        assert_eq!(m.rounds_to_saturation(8e6), 3);
        assert_eq!(TcpModel::IDEAL.rounds_to_saturation(8e6), 0);
    }

    #[test]
    fn transfer_time_includes_setup() {
        let m = TcpModel::EC2;
        let t = m.transfer_time_s(0.0, B10G);
        assert_eq!(t, m.setup_s);
    }

    #[test]
    fn lower_capacity_lower_effective_bandwidth() {
        let m = TcpModel::EC2;
        let f_lo = m.effective_bandwidth(4e6, 1.25e8); // 1 Gbps
        let f_hi = m.effective_bandwidth(4e6, 1.25e9); // 10 Gbps
        assert!(f_lo < f_hi);
        // And the *fraction* of capacity achieved is higher at low capacity
        // (the same message amortises better on a slower pipe).
        assert!(f_lo / 1.25e8 > f_hi / 1.25e9);
    }
}
