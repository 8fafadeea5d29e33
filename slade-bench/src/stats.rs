//! Order statistics, process accounting read from `/proc`, and the
//! seeded generator every workload draws its inputs from.

use std::time::Instant;

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Distance between the third and first quartile as a share of the
/// median — the spread the bounds in `BENCHMARK.json` are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// Process CPU time (user + system, every thread, dead ones included) in
/// seconds, from `/proc/self/stat`. Linux reports it in clock ticks of
/// 1/100 s on every supported architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The CPUs of a `Cpus_allowed_list` such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPUs this process may run on, from `/proc/self/status` (empty when
/// it cannot be read).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or(Vec::new(), parse_cpu_list)
}

/// Median time of one call of `f` in nanoseconds: `f` runs in batches
/// sized so one batch lasts about `batch_ms`, and the median over
/// `samples` batches is reported.
pub fn time_ns(samples: usize, batch_ms: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let reps = ((batch_ms / 1e3 / once) as usize).clamp(1, 1_000_000);
    let per_call: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / reps as f64
        })
        .collect();
    median(&per_call)
}

/// Milliseconds a fixed piece of arithmetic of the bench's own takes now
/// (a 96×96 matrix-vector product, 400 times, L1-resident; 5.2 ms on the
/// 2-core sandbox when nothing else contends for the host, 6.5 to 10 ms
/// when a neighbour does). No change to the program can move it, so it
/// tells a slow host from a slow program: every end-to-end time is
/// reported in units of it, see [`HostLoop`].
pub fn host_loop_ms() -> f64 {
    const N: usize = 96;
    let a: Vec<f32> = (0..N * N).map(|i| ((i % 13) as f32 - 6.0) / 7.0).collect();
    let mut x: Vec<f32> = (0..N).map(|i| (i % 5) as f32 / 5.0).collect();
    let t = Instant::now();
    for _ in 0..400 {
        let y: Vec<f32> = a
            .chunks_exact(N)
            .map(|row| row.iter().zip(&x).map(|(r, v)| r * v).sum::<f32>() * 0.01)
            .collect();
        x = std::hint::black_box(y);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// The host loop run between the pieces of a run, so that each piece is
/// timed against the speed the host had just before and just after it.
///
/// The sandbox shares its cores' host with other tenants and changes speed
/// by a quarter to a half within seconds and for minutes on end; CPU time
/// inflates with wall time, so it is the cores that slow, not the
/// scheduler that steals. A time in seconds then says more about the
/// neighbours than about the program. A time in host loops — the piece's
/// wall time over the mean of the two loop times around it — does not move
/// with them (2 % quartile spread against 8 to 50 %).
#[derive(Debug)]
pub struct HostLoop {
    last_ms: f64,
    floor_ms: f64,
}

impl HostLoop {
    /// Takes the first sample.
    pub fn start() -> Self {
        let ms = host_loop_ms();
        HostLoop { last_ms: ms, floor_ms: ms }
    }

    /// Takes the sample after a piece and returns the host loop time the
    /// piece is judged against: the mean of the samples around it.
    pub fn around(&mut self) -> f64 {
        let before = self.last_ms;
        self.last_ms = host_loop_ms();
        self.floor_ms = self.floor_ms.min(self.last_ms);
        (before + self.last_ms) / 2.0
    }

    /// The fastest sample so far: the host undisturbed, as far as this run
    /// saw it.
    pub fn floor_ms(&self) -> f64 {
        self.floor_ms
    }
}

/// splitmix64: the benchmark's only source of randomness, so that one
/// `--seed` fixes corpus, schedule and duplicate picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-purpose `stream`, so adding a draw
    /// in one place does not shift the values drawn elsewhere.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over every candidate of every output, in order — the
/// `output_digest` each workload prints: same code and seed, same digest.
pub fn digest_outputs<'a>(outputs: impl IntoIterator<Item = &'a Vec<String>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for candidates in outputs {
        for c in candidates {
            eat(c.as_bytes());
            eat(&[0xff]);
        }
        eat(&[0xfe]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert!((iqr_share(&v) - 1.5 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn rng_repeats_per_seed_and_stream() {
        let a: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(9, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(9, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(9, 2), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(7) < 7 && (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(!allowed_cpus().is_empty());
        assert_eq!(parse_cpu_list(" 0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), [0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), [5]);
    }
}
