//! The gradient *generation* model — where the stepwise pattern comes from.
//!
//! §2.2 of the paper identifies the root cause of the staircase in Fig. 4:
//! "the gradient data requires aggregation before transmission" — MXNet's
//! KVStore (GroupKVPairsPush), Horovod's RendezvousServer, TensorFlow's
//! communication buffer all batch per-tensor gradients before handing them
//! to the transport, and copyD2H buffering adds to the effect. The result
//! is that gradients become *visible to the communication layer* in bursts,
//! even though the GPU finishes them one by one.
//!
//! [`GenerationModel`] reproduces this: backward propagation walks tensors
//! from the highest id down to 0, accumulating per-tensor compute time; the
//! aggregation buffer flushes when enough compute time or enough gradient
//! payload has accumulated, releasing every buffered gradient at the flush
//! instant (plus a device-to-host copy delay proportional to the flushed
//! bytes). The staircase, its block sizes, and the block time intervals
//! `A(i)` the Prophet planner feeds on are all *outputs* of this process.

use crate::layer::GradientId;
use prophet_sim::Duration;

/// One gradient becoming available to the communication layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientEvent {
    /// Which gradient.
    pub id: GradientId,
    /// When it becomes transferable, as an offset from backward-pass start.
    pub ready_at: Duration,
    /// Wire size in bytes.
    pub bytes: u64,
}

/// Parameters of the KVStore-style aggregation process.
#[derive(Debug, Clone, Copy)]
pub struct GenerationModel {
    /// Flush the aggregation buffer after this much accumulated backward
    /// compute time.
    pub flush_compute: Duration,
    /// ... or once this many gradient bytes are buffered, whichever first.
    pub flush_bytes: u64,
    /// Device-to-host copy bandwidth applied to each flushed batch.
    pub d2h_bps: f64,
}

impl GenerationModel {
    /// Defaults matching the granularity observed in Fig. 4 (≈ 10-14
    /// gradients per block for ResNet50-class models).
    pub fn mxnet_like() -> Self {
        GenerationModel {
            flush_compute: Duration::from_millis(40),
            flush_bytes: 32 << 20,
            d2h_bps: 6.0e9, // PCIe 3.0 x16 achievable
        }
    }

    /// TensorFlow-style coarse bucketing: the paper observes VGG19 under
    /// TensorFlow releasing its 38 gradients in just four blocks (Fig. 4),
    /// i.e. a much larger aggregation buffer than MXNet's — big compute
    /// windows and a byte budget that lets whole convolution stages batch
    /// while the huge FC tensors still flush alone.
    pub fn tensorflow_like() -> Self {
        GenerationModel {
            flush_compute: Duration::from_millis(400),
            flush_bytes: 64 << 20,
            d2h_bps: 6.0e9,
        }
    }

    /// Compute the generation schedule for one backward pass.
    ///
    /// * `bwd_times[i]` — backward compute time of tensor `i` (see
    ///   [`crate::GpuSpec::tensor_times`]);
    /// * `bytes[i]` — wire size of gradient `i`.
    ///
    /// Returns events sorted by `ready_at` (ties: descending id, matching
    /// the order the GPU produced them). The last tensor to be *computed*
    /// is gradient 0 — its release marks the end of backward propagation.
    pub fn schedule(&self, bwd_times: &[Duration], bytes: &[u64]) -> Vec<GradientEvent> {
        assert_eq!(bwd_times.len(), bytes.len());
        let n = bwd_times.len();
        let mut events = Vec::with_capacity(n);
        let mut clock = Duration::ZERO;
        let mut buf: Vec<GradientId> = Vec::new();
        let mut buf_bytes = 0u64;
        let mut buf_compute = Duration::ZERO;

        let flush = |clock: Duration,
                     buf: &mut Vec<GradientId>,
                     buf_bytes: &mut u64,
                     events: &mut Vec<GradientEvent>| {
            if buf.is_empty() {
                return;
            }
            let copy = if self.d2h_bps.is_finite() {
                Duration::from_secs_f64(*buf_bytes as f64 / self.d2h_bps)
            } else {
                Duration::ZERO
            };
            let ready = clock + copy;
            for &id in buf.iter() {
                events.push(GradientEvent {
                    id,
                    ready_at: ready,
                    bytes: bytes[id],
                });
            }
            buf.clear();
            *buf_bytes = 0;
        };

        // Backward: highest id first.
        for id in (0..n).rev() {
            clock += bwd_times[id];
            buf_compute += bwd_times[id];
            buf.push(id);
            buf_bytes += bytes[id];
            let due = buf_compute >= self.flush_compute || buf_bytes >= self.flush_bytes;
            if due {
                flush(clock, &mut buf, &mut buf_bytes, &mut events);
                buf_compute = Duration::ZERO;
            }
        }
        flush(clock, &mut buf, &mut buf_bytes, &mut events);
        events
    }

    /// Group a generation schedule into its observed *blocks*: maximal runs
    /// of gradients sharing a release instant. Returned blocks are in
    /// release order; ids within a block are ascending.
    ///
    /// This is the ground truth the stepwise-pattern profiler in
    /// `prophet-core` tries to recover from noisy observations.
    pub fn blocks(events: &[GradientEvent]) -> Vec<Vec<GradientId>> {
        let mut sorted: Vec<&GradientEvent> = events.iter().collect();
        sorted.sort_by_key(|e| (e.ready_at, e.id));
        let mut out: Vec<Vec<GradientId>> = Vec::new();
        let mut last: Option<Duration> = None;
        for e in sorted {
            if last == Some(e.ready_at) {
                out.last_mut().unwrap().push(e.id);
            } else {
                out.push(vec![e.id]);
                last = Some(e.ready_at);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn immediate_model_releases_one_by_one() {
        // No aggregation: every gradient is released the instant its
        // backward compute finishes.
        let g = GenerationModel {
            flush_compute: Duration::ZERO,
            flush_bytes: 0,
            d2h_bps: f64::INFINITY,
        };
        let times = vec![ms(1); 5];
        let bytes = vec![100u64; 5];
        let ev = g.schedule(&times, &bytes);
        assert_eq!(ev.len(), 5);
        // Backward order: id 4 first at 1ms, id 0 last at 5ms.
        let e4 = ev.iter().find(|e| e.id == 4).unwrap();
        let e0 = ev.iter().find(|e| e.id == 0).unwrap();
        assert_eq!(e4.ready_at, ms(1));
        assert_eq!(e0.ready_at, ms(5));
    }

    #[test]
    fn aggregation_creates_bursts() {
        let g = GenerationModel {
            flush_compute: ms(10),
            flush_bytes: u64::MAX,
            d2h_bps: f64::INFINITY,
        };
        // 20 tensors, 3 ms backward each: flush every ceil(10/3)=4 tensors.
        let times = vec![ms(3); 20];
        let bytes = vec![1000u64; 20];
        let ev = g.schedule(&times, &bytes);
        let blocks = GenerationModel::blocks(&ev);
        assert!(
            blocks.len() >= 4 && blocks.len() <= 6,
            "{} blocks",
            blocks.len()
        );
        // Every gradient appears exactly once.
        let mut all: Vec<_> = blocks.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn byte_threshold_flushes_large_tensors_early() {
        let g = GenerationModel {
            flush_compute: Duration::from_secs(100),
            flush_bytes: 1_000_000,
            d2h_bps: f64::INFINITY,
        };
        // Tensor 4 is huge (VGG fc-like); it must flush on its own.
        let times = vec![ms(1); 5];
        let bytes = vec![100, 100, 100, 100, 2_000_000];
        let ev = g.schedule(&times, &bytes);
        let blocks = GenerationModel::blocks(&ev);
        assert_eq!(blocks[0], vec![4]);
        // The rest flush together at backward end.
        assert_eq!(blocks[1], vec![0, 1, 2, 3]);
    }

    #[test]
    fn d2h_copy_delays_release() {
        let g = GenerationModel {
            flush_compute: Duration::ZERO, // flush after every tensor
            flush_bytes: 0,
            d2h_bps: 1e6, // 1 MB/s
        };
        let times = [ms(1)];
        let bytes = [1000u64]; // 1 ms copy
        let ev = g.schedule(&times, &bytes);
        assert_eq!(ev[0].ready_at, ms(2));
    }

    #[test]
    fn gradient_zero_is_last_computed() {
        let g = GenerationModel::mxnet_like();
        let times = vec![ms(2); 50];
        let bytes = vec![500_000u64; 50];
        let ev = g.schedule(&times, &bytes);
        let ready0 = ev.iter().find(|e| e.id == 0).unwrap().ready_at;
        for e in &ev {
            assert!(
                e.ready_at <= ready0,
                "gradient {} ready after gradient 0",
                e.id
            );
        }
    }

    #[test]
    fn stepwise_pattern_emerges_for_resnet50_class_input() {
        // Roughly ResNet50 bs64 shaped: 161 tensors, ~3.5 ms average
        // backward, sizes ~600 kB.
        let g = GenerationModel::mxnet_like();
        let times = vec![Duration::from_micros(3500); 161];
        let bytes = vec![600_000u64; 161];
        let ev = g.schedule(&times, &bytes);
        let blocks = GenerationModel::blocks(&ev);
        assert!(
            (8..=20).contains(&blocks.len()),
            "expected a Fig.4-like staircase, got {} blocks",
            blocks.len()
        );
        // Blocks are contiguous descending ranges: block k holds higher ids
        // than block k+1 (later blocks are closer to the input).
        for w in blocks.windows(2) {
            let min_prev = *w[0].iter().min().unwrap();
            let max_next = *w[1].iter().max().unwrap();
            assert!(max_next < min_prev, "blocks overlap or inverted");
        }
    }

    #[test]
    fn schedule_conserves_gradients_and_bytes() {
        let g = GenerationModel::mxnet_like();
        let times: Vec<Duration> = (0..37)
            .map(|i| Duration::from_micros(100 + i * 37))
            .collect();
        let bytes: Vec<u64> = (0..37).map(|i| 1000 + i as u64 * 997).collect();
        let ev = g.schedule(&times, &bytes);
        assert_eq!(ev.len(), 37);
        let mut seen = [false; 37];
        for e in &ev {
            assert!(!seen[e.id], "duplicate gradient {}", e.id);
            seen[e.id] = true;
            assert_eq!(e.bytes, bytes[e.id]);
        }
        assert!(seen.iter().all(|&s| s));
    }
}
