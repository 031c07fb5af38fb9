//! Order statistics over timing samples, and the host-speed probe.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile of `xs` by nearest rank, and how many
/// samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    (v[rank - 1], v.len() - rank)
}

/// The highest percentile with at least ten samples beyond it, by
/// nearest rank: its value and the percentile. With ten samples or
/// fewer it is the largest.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len().saturating_sub(10).max(1);
    (v[rank - 1], 100.0 * rank as f64 / v.len() as f64)
}

/// Each request's timings, from `(request index, time)` pairs for a
/// pool of `requests`; `None` if some request has none.
pub fn per_request(
    timings: impl IntoIterator<Item = (usize, f64)>,
    requests: usize,
) -> Option<Vec<Vec<f64>>> {
    let mut by = vec![Vec::new(); requests];
    for (i, t) in timings {
        by[i].push(t);
    }
    by.iter().all(|t| !t.is_empty()).then_some(by)
}

/// The host-speed probe: a fixed piece of work of the same kind as the
/// program's own, which renders 800 numbers as text and parses them
/// back, and fills and searches an ordered map of 1500 keys.
///
/// The benchmark's host is a few vCPUs of a shared machine. Neighbours
/// on the same physical cores slowed this program by up to 1.8x for
/// minutes at a time, in its CPU time as much as in wall time, and the
/// probe slows with them. The benchmark therefore runs the probe just
/// before every timed request, board and set-up, and reports each time
/// scaled to the probe's reference speed: measured time times
/// [`PROBE_REFERENCE_MS`] over the probe's time. The probe is the
/// benchmark's own code on its own data, so no change to the program
/// can move it; the unscaled figures are printed on the details line.
///
/// A pointer chase held in the L2 cache and an integer multiply loop
/// tracked the program less well: on four runs where a probe of this
/// make-up left 7-10 % between the fastest and the slowest, they left
/// 17-23 % and 8-14 %.
pub struct HostProbe {
    numbers: Vec<f64>,
    keys: Vec<u64>,
}

/// About the probe's time on the 2-vCPU Xeon host the bounds were set
/// on. It fixes the unit only: every workload and every run scales by
/// the same constant.
pub const PROBE_REFERENCE_MS: f64 = 0.6;

impl HostProbe {
    pub fn new() -> Self {
        let mut rng = crate::boards::Rng::new(5);
        let numbers = (0..800)
            .map(|i| rng.range(-1.0, 1.0) * 10f64.powi(i % 13 - 6))
            .collect();
        let keys = (0..1500).map(|_| rng.next_u64() % 4096).collect();
        Self { numbers, keys }
    }

    fn work(&self) {
        let mut text = String::with_capacity(24 * self.numbers.len());
        for x in &self.numbers {
            let _ = write!(text, "{x},");
        }
        let sum: f64 = text
            .split_terminator(',')
            .map(|t| t.parse::<f64>().expect("a rendered number parses"))
            .sum();
        let mut map = BTreeMap::new();
        for (i, &k) in self.keys.iter().enumerate() {
            map.insert(k, i);
        }
        let found: usize = self.keys.iter().filter_map(|k| map.get(&(k ^ 1))).sum();
        std::hint::black_box((sum, found));
    }

    /// The factor that scales a time measured now to the reference
    /// speed.
    pub fn scale(&self) -> f64 {
        let start = std::time::Instant::now();
        self.work();
        PROBE_REFERENCE_MS / (start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Binds the process, and the threads it starts later, to the CPU it
/// runs on. The serving workloads hand each request from the client to
/// an HTTP worker to the batcher and back; on one CPU those hand-offs
/// need no cross-CPU wake-ups, whose cost varies on a virtual machine,
/// and the probe reads the core that does the work. A refusal by the
/// system leaves the process unpinned.
pub fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // SAFETY: both are glibc functions with these C signatures. The mask
    // is a live 128-byte buffer whose size is passed with it, and pid 0
    // names the calling thread.
    unsafe {
        let Ok(cpu) = usize::try_from(sched_getcpu()) else {
            return;
        };
        let mut mask = [0u8; 128];
        if cpu < mask.len() * 8 {
            mask[cpu / 8] |= 1 << (cpu % 8);
            sched_setaffinity(0, mask.len(), mask.as_ptr());
        }
    }
}

/// The process high-water resident set (`VmHWM`, which the kernel
/// counts in KiB), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        * 1024.0
        / 1e6
}
