//! The host stamp every results file carries, and peak memory.

use serde::Serialize;
use std::path::Path;
use std::process::Command;

/// Where and how a result was measured.
#[derive(Clone, Debug, Serialize)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_sha: String,
    pub profile: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: nproc(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC"),
            git_sha: git_sha().unwrap_or_else(|| "unknown".to_owned()),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// The commit checked out in the working directory, when it is a git
/// checkout (a source export has no `.git` and reports none).
fn git_sha() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// CPU time this process has used so far, all its threads together (those
/// that have exited included), in seconds.
///
/// Linux counts a thread's CPU time only while it runs: time spent waiting
/// in the run queue, or while the hypervisor runs another guest on the
/// host CPU (steal time, on kernels built with paravirtual time
/// accounting), is left out. On a shared host a call's CPU time thus
/// depends less on other tenants than its wall time does.
pub fn cpu_time_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_time_counts_work_and_not_sleep() {
        let start = cpu_time_s();
        std::thread::sleep(Duration::from_millis(200));
        let slept = cpu_time_s() - start;
        assert!(slept < 0.1, "sleeping used {slept} CPU seconds");

        let (start, wall) = (cpu_time_s(), Instant::now());
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(200) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = cpu_time_s() - start;
        assert!(worked > 0.05 && worked <= wall.elapsed().as_secs_f64() + 0.01, "{worked}");
    }
}
