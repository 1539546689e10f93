//! Host facts the report carries: the program's CPU time, its resident
//! memory, and the ceilings measured on the same host (loopback round
//! trip, sequential memory read).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Prefix of the server's thread names (`mirabel-net-reactor`,
/// `mirabel-net-worker-<i>`), as `/proc` shows them: names are cut to
/// 15 bytes there.
pub const SERVER_THREAD: &str = "mirabel-net-";

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of every thread of the process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the whole process has used, in nanoseconds: every thread,
/// including the short-lived ones the program spawns per call (the
/// planner's partition workers, the live warehouse's publish helpers)
/// that have already exited.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of one thread, in nanoseconds, from `schedstat`.
fn schedstat_ns(path: &std::path::Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The program's CPU time at one instant, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCpu {
    /// Every thread of the process, exited ones included, less the load
    /// generator's.
    pub total_ns: u64,
    /// The server's reactor thread.
    pub reactor_ns: u64,
}

impl ProgramCpu {
    /// CPU used between `earlier` and `self`.
    pub fn since(self, earlier: ProgramCpu) -> ProgramCpu {
        ProgramCpu {
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            reactor_ns: self.reactor_ns.saturating_sub(earlier.reactor_ns),
        }
    }
}

/// The load generator's share of the process's CPU time, which the
/// program's leaves out: its own threads (analysts, the sampling thread)
/// join with [`LoadCpu::enter`] for their whole life, and a program
/// thread's stretch of load-generator work (the live writer's snapshot
/// check) is added with [`LoadCpu::exclude`].
#[derive(Debug, Default)]
pub struct LoadCpu {
    state: Mutex<LoadState>,
}

#[derive(Debug, Default)]
struct LoadState {
    /// `schedstat` of each joined thread still running.
    running: Vec<PathBuf>,
    /// CPU of joined threads that have left, plus excluded stretches.
    settled_ns: u64,
}

/// A thread's membership of the load generator; leaving settles its CPU.
#[must_use = "the thread counts as load generator only while this lives"]
pub struct LoadThread<'a> {
    owner: &'a LoadCpu,
    schedstat: PathBuf,
}

impl LoadCpu {
    fn state(&self) -> std::sync::MutexGuard<'_, LoadState> {
        self.state.lock().expect("load CPU lock")
    }

    /// Counts the calling thread, from its start, as load generator
    /// until the returned guard drops.
    pub fn enter(&self) -> LoadThread<'_> {
        // `/proc/thread-self` links to `<pid>/task/<tid>`.
        let task = std::fs::read_link("/proc/thread-self").unwrap_or_default();
        let schedstat = PathBuf::from("/proc").join(task).join("schedstat");
        self.state().running.push(schedstat.clone());
        LoadThread { owner: self, schedstat }
    }

    /// Counts `ns` of a program thread's CPU as load generator.
    pub fn exclude(&self, ns: u64) {
        self.state().settled_ns += ns;
    }

    /// The program's CPU time so far.
    pub fn program(&self) -> ProgramCpu {
        let state = self.state();
        let load =
            state.settled_ns + state.running.iter().filter_map(|p| schedstat_ns(p)).sum::<u64>();
        ProgramCpu { total_ns: process_cpu_ns().saturating_sub(load), reactor_ns: reactor_cpu_ns() }
    }
}

impl Drop for LoadThread<'_> {
    fn drop(&mut self) {
        let mut state = self.owner.state();
        state.running.retain(|p| *p != self.schedstat);
        state.settled_ns += thread_cpu_ns();
    }
}

/// CPU time of the server's reactor thread, in nanoseconds.
fn reactor_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    let reactor = format!("{SERVER_THREAD}rea");
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(&reactor))
        })
        .filter_map(|t| schedstat_ns(&t.path().join("schedstat")))
        .sum()
}

/// Host-wide CPU time from `/proc/stat`: (stolen by the hypervisor,
/// demanded: busy plus stolen, idle excluded), in clock ticks.
pub fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let demanded = fields.iter().take(8).sum::<u64>()
        - fields.get(3).copied().unwrap_or(0)
        - fields.get(4).copied().unwrap_or(0);
    (fields.get(7).copied().unwrap_or(0), demanded)
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set size to the current one and returns
/// it, in MiB: the baseline the program's peak is reported above.
pub fn reset_peak_rss_mb() -> f64 {
    // Writing 5 to `clear_refs` resets `VmHWM` to `VmRSS` (Linux 4.0+).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak RSS ({e}); it includes input generation");
    }
    status_mb("VmRSS:")
}

/// Peak resident set size of this process so far, in MiB: the larger
/// of the kernel's high-water mark and the current resident set.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A vector with room for `capacity` elements whose memory is already
/// resident, so filling it up to there leaves the resident set alone.
pub fn resident_vec<T: Copy>(capacity: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity);
    v.resize(capacity, fill);
    std::hint::black_box(&mut v[..]);
    v.clear();
    v
}

/// Median round trip of a bare line echo over loopback, in
/// microseconds: the floor under any wire request.
pub fn loopback_rtt_us(round_trips: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line)? > 0 {
                writer.write_all(line.as_bytes())?;
                line.clear();
            }
            Ok(())
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut samples = Vec::with_capacity(round_trips);
        for _ in 0..round_trips {
            let t0 = Instant::now();
            writer.write_all(b"pointer-move 1 1\n")?;
            line.clear();
            reader.read_line(&mut line)?;
            samples.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
        }
        drop(writer);
        drop(reader);
        echo.join().expect("echo thread does not panic")?;
        Ok(median(&mut samples))
    })
}

/// Sequential read bandwidth over a buffer of `bytes`, in GB/s (best of
/// a few passes): the floor under any scan.
pub fn mem_read_gbs(bytes: usize) -> f64 {
    let words = vec![1u64; bytes / 8];
    let mut best = f64::MAX;
    let mut sink = 0u64;
    for _ in 0..5 {
        let t0 = Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(&words).iter().fold(0u64, |a, &w| a ^ w));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    words.len() as f64 * 8.0 / best / 1e9
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * p).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burns `ms` milliseconds of the calling thread's CPU.
    fn spin(ms: u64) {
        let t0 = thread_cpu_ns();
        while thread_cpu_ns().saturating_sub(t0) < ms * 1_000_000 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn program_cpu_keeps_exited_threads_and_settles_the_load_generators() {
        let load = LoadCpu::default();
        let before = load.program();
        // A short-lived program thread, like a planner worker: it has
        // exited before the read and must still count.
        std::thread::scope(|s| {
            s.spawn(|| spin(30));
        });
        let used = load.program().since(before).total_ns;
        assert!(used >= 25_000_000, "an exited thread's CPU dropped out: {used} ns");
        // A load-generator thread that leaves settles its whole CPU time.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _member = load.enter();
                spin(30);
            });
        });
        let state = load.state();
        assert!(state.running.is_empty());
        assert!(state.settled_ns >= 30_000_000, "settled {} ns", state.settled_ns);
    }

    #[test]
    fn resident_vectors_fill_without_growing() {
        let mut v = resident_vec(1_000, (0u64, 0u64));
        let capacity = v.capacity();
        assert!(v.is_empty() && capacity >= 1_000);
        v.extend((0..1_000).map(|i| (i, i)));
        assert_eq!(v.capacity(), capacity);
    }
}
