//! Order statistics and process facts shared by every workload.

/// The `q`-quantile (`0.0..=1.0`) of `xs` by nearest rank; 0 when empty.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// The median of `xs`; 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`; 0 when empty.
#[must_use]
pub fn fastest(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}

/// The geometric mean of positive `xs`; 0 when empty.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    (xs.iter().map(|x| x.ln()).sum::<f64>() / n).exp()
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor has stolen from this machine so far, in clock
/// ticks (the `steal` column of `/proc/stat`), or `None` where unavailable.
#[must_use]
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Which CPU-time clock to read.
#[derive(Debug, Clone, Copy)]
pub enum Cpu {
    /// The calling thread's.
    Thread,
    /// The whole process's, every thread summed.
    Process,
}

/// CPU time `clock` has run so far. The kernel charges a task only while
/// it holds a CPU, so time the hypervisor steals or other tasks take is
/// left out, which wall time on a shared host cannot do. Zero where the
/// clock is unavailable.
#[cfg(target_os = "linux")]
#[must_use]
pub fn cpu_time(clock: Cpu) -> std::time::Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(id: i32, ts: *mut Timespec) -> i32;
    }
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID
    let id = match clock {
        Cpu::Process => 2,
        Cpu::Thread => 3,
    };
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(id, &mut ts) } != 0 {
        return std::time::Duration::ZERO;
    }
    std::time::Duration::new(
        u64::try_from(ts.sec).unwrap_or(0),
        u32::try_from(ts.nsec).unwrap_or(0),
    )
}

/// CPU time `clock` has run so far; zero off Linux.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn cpu_time(_clock: Cpu) -> std::time::Duration {
    std::time::Duration::ZERO
}

/// `ticks` of stolen time over `elapsed`, as a percentage of all CPUs.
/// Linux reports `/proc/stat` in units of `USER_HZ`, which is 100.
#[must_use]
pub fn steal_pct(ticks: u64, elapsed: std::time::Duration) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ticks as f64 / (elapsed.as_secs_f64() * 100.0 * cpus as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&xs), 51.0);
        assert_eq!(quantile(&xs, 0.99), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
