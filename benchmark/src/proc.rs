//! What the kernel says about this process: peak resident memory (from
//! `/proc/self/status`) and CPU time consumed (`clock_gettime`); and one
//! thing it tells the C library: how many malloc arenas to use. 64-bit
//! Linux only, like the contract this benchmark runs under.

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // The C library `std` already links; declared here because the
    // offline build has no `libc` crate.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds of the whole process so far, every thread
/// that ever ran included, at the kernel's nanosecond accounting (the
/// `utime`/`stime` ticks in `/proc/self/stat` are 10 ms wide).
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` — two 64-bit
    // fields on every 64-bit Linux target, which `repr(C)` reproduces —
    // and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// `M_ARENA_MAX` in glibc's `<malloc.h>`.
#[cfg(target_env = "gnu")]
const M_ARENA_MAX: i32 = -8;

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keeps glibc's malloc to its main arena. By default every new thread
/// gets an arena of its own (up to 8 × cores, recycled as threads end),
/// so in a process that starts hundreds of short-lived threads the peak
/// resident memory depends on which arena the largest buffers happen to
/// land in. Call before the first thread is spawned: arenas that already
/// exist stay in use. Returns whether the C library took the setting
/// (always `false` on a C library without arenas).
pub fn one_malloc_arena() -> bool {
    #[cfg(target_env = "gnu")]
    {
        // SAFETY: `mallopt` takes two plain integers and is safe to call
        // at any time; `M_ARENA_MAX` is the value glibc defines.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(target_env = "gnu"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_s() - before >= 0.03);
    }

    #[cfg(target_env = "gnu")]
    #[test]
    fn glibc_takes_the_arena_limit() {
        assert!(one_malloc_arena());
    }
}
