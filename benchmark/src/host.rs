//! What the host looked like while a run was measured: a noise
//! sentinel, the CPU count, the kernel, the filesystem under the data
//! directory, and `/proc` readings of a process's CPU time, context
//! switches and peak resident set.

use std::hint::black_box;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Entries of the sentinel's table: 16 MiB of `u32`, past the private
/// caches, so a step is a load from the shared cache or from memory.
const CALIB_TABLE_ENTRIES: usize = 1 << 22;

/// Steps of the sentinel's walk: about 200 ms on the host the benchmark
/// was sized on.
const CALIB_STEPS: u64 = 1_600_000;

/// Two readings of the sentinel further apart than this share flag the
/// run as disturbed (it is reported, never dropped).
pub const CALIB_DRIFT_LIMIT: f64 = 0.10;

/// Times a fixed single-thread kernel, in milliseconds: a walk through
/// a 16 MiB table in which each load's address depends on the previous
/// load's value and lands on a pseudo-random line. The work never
/// changes, so a change in its time is the host's doing — a neighbour
/// on the memory bus, a slower clock, a stolen CPU — not the program's.
/// (A register-only loop is not enough: on the host this was sized on it
/// read 215 ms throughout stretches in which every memory-bound workload
/// ran 40 % slower.)
pub fn calibrate() -> f64 {
    // Written, not zeroed, so that every page is real memory; freed on
    // return, so that it does not sit in the harness's peak RSS.
    let table: Vec<u32> = (0..CALIB_TABLE_ENTRIES as u32).map(|i| i & 7).collect();
    let started = Instant::now();
    let mut at = black_box(0u32);
    for _ in 0..black_box(CALIB_STEPS) {
        at = at
            .wrapping_mul(1_664_525)
            .wrapping_add(1_013_904_223)
            .wrapping_add(table[at as usize])
            % CALIB_TABLE_ENTRIES as u32;
    }
    black_box(at);
    started.elapsed().as_secs_f64() * 1e3
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process could use when it started, and the one it
/// was then confined to.
#[derive(Debug, Clone, Copy)]
pub struct Pinning {
    /// CPUs available before pinning (`host_cpus` in the output).
    pub host_cpus: usize,
    /// The CPU everything now runs on; `None` if pinning failed.
    pub cpu: Option<usize>,
}

static PINNING: OnceLock<Pinning> = OnceLock::new();

/// Confines the calling thread — and every thread and process started
/// from it afterwards, so the harness and every server — to the first
/// CPU it is allowed on, and returns that CPU.
///
/// On a small virtual machine a wake-up across CPUs costs a VM exit and
/// whether two virtual CPUs really run in parallel is the host's choice
/// from minute to minute: unpinned on the 2-CPU host this was sized on,
/// the same binary streams at 580 K or at 235 K events/s for minutes at
/// a time, and the median verdict latency moves between 100 and 330 µs.
/// On one CPU both are steady. The benchmark therefore measures work
/// per event on one CPU — syscalls, copies and thread hand-offs
/// included — and says nothing about parallel speed-up.
///
/// Call from the main thread before any other thread starts; later
/// calls return the first one's answer. Pins nothing where affinity
/// cannot be read or set.
pub fn pin_to_one_cpu() -> Pinning {
    *PINNING.get_or_init(|| Pinning {
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        cpu: pin(),
    })
}

fn pin() -> Option<usize> {
    {
        let mut set: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `set` is a live 128-byte buffer and `size` is its
        // size; the kernel writes at most that many bytes into it.
        // Pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, set.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..1024).find(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)?;
        let mut only: CpuSet = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a live, initialised 128-byte buffer and
        // `size` is its size; the kernel only reads it.
        (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
    }
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `unknown`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> <source> …"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = head.split(' ').nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split(' ').next() else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Fixed at
/// 100 on every Linux configuration in use; without libc there is no
/// `sysconf` to ask.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// A process's accumulated user + system CPU time in nanoseconds, all
/// threads (live and exited) included; `None` once it is gone.
pub fn cpu_ns(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after ")".
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC * 1e9)
}

/// Context switches (voluntary + involuntary) summed over a process's
/// live threads.
pub fn ctx_switches(pid: &str) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between listing and reading
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    Some(total)
}

/// A process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_of_this_process() {
        assert!(cpu_ns("self").is_some());
        assert!(ctx_switches("self").is_some());
        assert!(peak_rss_mib("self").is_some_and(|m| m > 0.0));
        assert!(!kernel().is_empty());
    }

    #[test]
    fn filesystem_of_root_is_known() {
        assert_ne!(filesystem_of(Path::new("/")), "unknown");
    }
}
