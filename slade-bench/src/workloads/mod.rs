//! The four workloads. Each has a `setup` the run times and repeats, a
//! `measure` with the bench recorder off (the source of every end-to-end
//! metric), and a `traced` replay that fills its layers' metrics.

pub mod gateway_hot;
pub mod offline;
pub mod serve;

use crate::stats::{cpu_seconds, median, quantile, HostLoop};
use std::time::Instant;

/// A workload `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Slade::decompile_batch` on `-O0` sources up to the paper's cap.
    OfflineLong,
    /// `Slade::decompile_batch` on short `-O3` sources, long targets.
    OfflineShort,
    /// Eight callers in a closed loop at the `slade_serve` boundary.
    ServeClosed,
    /// Closed-loop cache hits through the HTTP gateway.
    GatewayHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OfflineLong,
        Workload::OfflineShort,
        Workload::ServeClosed,
        Workload::GatewayHot,
    ];

    /// Name, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineLong => "offline_long",
            Workload::OfflineShort => "offline_short",
            Workload::ServeClosed => "serve_closed",
            Workload::GatewayHot => "gateway_hot",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One slice of a measured stretch: a fixed piece of work (a chunk of
/// sixteen, a round of arrivals) with the host loop run before and after.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Requests completed in the slice.
    pub requests: u64,
    /// Wall time of the slice, seconds.
    pub wall_s: f64,
    /// Mean caller-visible latency of the calls of the slice, milliseconds.
    pub lat_mean_ms: f64,
    /// Host loop time the slice is judged against, milliseconds
    /// ([`HostLoop::around`]).
    pub host_ms: f64,
}

/// What one measured stretch of a workload observed, as measured.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were shed or expired, or answered wrongly.
    pub failed: u64,
    /// Caller-visible latency of each completed call, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The slices; every end-to-end time is a median over them.
    pub slices: Vec<Slice>,
    /// Wall time of the slices together, seconds.
    pub wall_s: f64,
    /// Process CPU time spent in the slices, seconds.
    pub cpu_s: f64,
    /// Digest of the first pass's outputs, in input order.
    pub digest: u64,
}

impl Segment {
    /// Times one slice: runs `work`, which returns the requests it
    /// completed and their latencies, then the host loop.
    pub fn slice(&mut self, host: &mut HostLoop, work: impl FnOnce() -> (u64, Vec<f64>)) {
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let (requests, latencies_ms) = work();
        let wall_s = t.elapsed().as_secs_f64();
        self.wall_s += wall_s;
        self.cpu_s += cpu_seconds() - cpu0;
        self.slices.push(Slice {
            requests,
            wall_s,
            lat_mean_ms: latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64,
            host_ms: host.around(),
        });
        self.latencies_ms.extend(latencies_ms);
    }

    /// Requests that completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    fn median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<f64>>())
    }

    /// Requests completed per thousand host loops of wall time, median
    /// over the slices.
    pub fn req_per_kloop(&self) -> f64 {
        self.req_per_kloop_quantile(0.5)
    }

    /// Quantile `q` of the slices' requests per thousand host loops.
    pub fn req_per_kloop_quantile(&self, q: f64) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.requests as f64 * s.host_ms / s.wall_s.max(1e-9))
            .collect();
        quantile(&rates, q)
    }

    /// A slice's mean latency in host loops, median over the slices: the
    /// tail inside a slice counts, a slice the host disturbed does not.
    pub fn lat_mean_loops(&self) -> f64 {
        self.median_of(|s| s.lat_mean_ms / s.host_ms)
    }

    /// Median host loop time over the slices, milliseconds.
    pub fn host_loop_ms(&self) -> f64 {
        self.median_of(|s| s.host_ms)
    }

    /// Requests per second as measured, median over the slices.
    pub fn req_per_s(&self) -> f64 {
        self.median_of(|s| s.requests as f64 / s.wall_s.max(1e-9))
    }

    /// Mean latency in milliseconds as measured.
    pub fn lat_mean_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }

    /// Latency quantile in milliseconds as measured.
    pub fn lat_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q)
    }

    /// Process CPU milliseconds per completed request as measured.
    pub fn cpu_ms_per_req(&self) -> f64 {
        1e3 * self.cpu_s / self.completed().max(1) as f64
    }
}

/// The program's own process-wide `slade_obs` totals at one instant; the
/// difference of two belongs to whatever ran between them.
#[derive(Debug, Clone)]
pub struct ObsTotals {
    /// Summed microseconds per stage histogram, in `StageHist::ALL` order.
    pub stage_us: Vec<u64>,
    /// Samples per stage histogram.
    pub stage_count: Vec<u64>,
    /// Kernel counters, in `KernelCtr::ALL` order.
    pub counters: Vec<u64>,
}

impl ObsTotals {
    /// Reads the registry now.
    pub fn now() -> Self {
        let o = slade_obs::obs();
        ObsTotals {
            stage_us: slade_obs::StageHist::ALL.iter().map(|&s| o.stage(s).sum()).collect(),
            stage_count: slade_obs::StageHist::ALL
                .iter()
                .map(|&s| o.stage(s).count())
                .collect(),
            counters: slade_obs::KernelCtr::ALL.iter().map(|&c| o.counter(c)).collect(),
        }
    }

    /// What was added since `earlier`.
    pub fn since(&self, earlier: &ObsTotals) -> ObsTotals {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        ObsTotals {
            stage_us: sub(&self.stage_us, &earlier.stage_us),
            stage_count: sub(&self.stage_count, &earlier.stage_count),
            counters: sub(&self.counters, &earlier.counters),
        }
    }

    /// All zero: the start of a sum of differences.
    pub fn zero() -> Self {
        ObsTotals {
            stage_us: vec![0; slade_obs::StageHist::ALL.len()],
            stage_count: vec![0; slade_obs::StageHist::ALL.len()],
            counters: vec![0; slade_obs::KernelCtr::ALL.len()],
        }
    }

    /// Adds `other` to this sum.
    pub fn add(&mut self, other: &ObsTotals) {
        let add = |a: &mut [u64], b: &[u64]| a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        add(&mut self.stage_us, &other.stage_us);
        add(&mut self.stage_count, &other.stage_count);
        add(&mut self.counters, &other.counters);
    }

    /// Microseconds recorded for one stage.
    pub fn stage(&self, s: slade_obs::StageHist) -> u64 {
        self.stage_us[s as usize]
    }

    /// Samples recorded for one stage.
    pub fn samples(&self, s: slade_obs::StageHist) -> u64 {
        self.stage_count[s as usize]
    }

    /// One kernel counter.
    pub fn counter(&self, c: slade_obs::KernelCtr) -> u64 {
        self.counters[c as usize]
    }
}
