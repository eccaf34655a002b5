//! Order statistics, hashes and on-CPU time — the few numeric helpers
//! every workload shares.

/// Sorts `v` and returns its median (mean of the two middle values for
/// an even count). `0.0` for an empty slice, which no caller passes.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Mean of the last tenth of `v` over the mean of its first tenth — the
/// "does this cost grow over a run" ratio. `1.0` with under 20 samples.
pub fn growth_x(v: &[f64]) -> f64 {
    let d = v.len() / 10;
    if d < 2 {
        return 1.0;
    }
    let first = mean(&v[..d]);
    if first > 0.0 {
        mean(&v[v.len() - d..]) / first
    } else {
        1.0
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv64_with(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis: the start value for [`fnv64_with`].
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// First field of a `schedstat` file: nanoseconds the task has spent on
/// a CPU.
fn schedstat_run_ns(path: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds of the calling thread, from
/// `/proc/thread-self/schedstat`; `None` where the kernel does not
/// expose it (callers then fall back to wall-clock time).
pub fn thread_cpu_ns() -> Option<u64> {
    schedstat_run_ns("/proc/thread-self/schedstat")
}

/// Summed on-CPU nanoseconds of this process's live threads whose name
/// starts with `prefix` (follower threads are named by the product).
pub fn named_threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let dir = t.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            comm.starts_with(prefix)
                .then(|| schedstat_run_ns(dir.join("schedstat").to_str()?))?
        })
        .sum()
}
