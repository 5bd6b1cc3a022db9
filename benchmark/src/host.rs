//! What the benchmark needs from the host and `std` does not offer: CPU
//! pinning, thread and process CPU clocks, and a few `/proc` readings.
//!
//! The three libc calls are declared here directly so the package adds no
//! dependency; the layouts are those of 64-bit Linux.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hope-e22 pins CPUs and reads /proc: it supports 64-bit Linux only");

use std::ffi::{c_int, c_long};
use std::fs;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage`: two `timeval`s followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

/// Words of a 1024-bit `cpu_set_t`.
const CPU_SET_WORDS: usize = 16;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn clock_gettime(clk_id: c_int, tp: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Pin the calling thread — and every thread it spawns afterwards, which
/// inherit the mask — to `cpu`.
///
/// # Errors
///
/// Returns the reason when the kernel refuses; callers treat that as fatal,
/// because an unpinned run measures thread placement, not the program.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("cpu {cpu} is beyond the 1024-bit affinity mask"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the byte length passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `(user, system)` CPU seconds consumed so far by the whole process.
pub fn process_cpu_s() -> (f64, f64) {
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        ru_utime: zero(),
        ru_stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `rusage` of the layout declared above.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (secs(&ru.ru_utime), secs(&ru.ru_stime))
}

fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Parse a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
///
/// # Errors
///
/// Returns a description when `/proc/self/status` cannot be read or parsed.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let list = status_field("Cpus_allowed_list")
        .ok_or("no Cpus_allowed_list in /proc/self/status".to_string())?;
    parse_cpu_list(&list).ok_or(format!("cannot parse Cpus_allowed_list {list:?}"))
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Where a result was measured: recorded with every full report so two
/// result files are only compared knowingly across hosts or commits.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostInfo {
    /// Read the host description.
    pub fn read() -> HostInfo {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(
            parse_cpu_list("0-2,8,10-11\n"),
            Some(vec![0, 1, 2, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn clocks_advance_and_rss_is_positive() {
        let t0 = thread_cpu_s();
        let (u0, s0) = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > t0);
        let (u1, s1) = process_cpu_s();
        assert!(u1 + s1 >= u0 + s0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pinning_to_an_allowed_cpu_succeeds_and_to_an_absurd_one_fails() {
        let cpus = allowed_cpus().expect("Cpus_allowed_list");
        std::thread::spawn(move || {
            pin_to_cpu(*cpus.last().expect("nonempty")).expect("pin to an allowed cpu");
            assert!(pin_to_cpu(1023).is_err() || cpus.contains(&1023));
            assert!(pin_to_cpu(4096).is_err());
        })
        .join()
        .expect("pin thread");
    }
}
