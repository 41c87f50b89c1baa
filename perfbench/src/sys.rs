//! Process-level measurement from outside the program: CPU time and peak resident set size
//! of the harness and of every process it starts, plus the lifecycle of the `sweep --serve`
//! daemons the network workload talks to. Linux only (procfs, glibc).

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

/// User + system CPU seconds, as `getrusage` reports them.
fn rusage_cpu_s(who: i32) -> f64 {
    let mut raw = Rusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit Linux layout, and
    // `getrusage` writes only within it.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    seconds(&raw.utime) + seconds(&raw.stime)
}

/// CPU seconds of this process, all threads.
pub fn cpu_s() -> f64 {
    rusage_cpu_s(RUSAGE_SELF)
}

fn status_path(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_string(),
    }
}

/// `VmHWM` (peak RSS, KiB) of this process (`None`) or of `pid`; 0 when unreadable.
pub fn peak_rss_kb(pid: Option<u32>) -> u64 {
    std::fs::read_to_string(format!("{}/status", status_path(pid)))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0)
}

/// Returns the free heap memory of every malloc arena to the kernel (glibc), so the
/// resident set a repetition starts from does not depend on how earlier work fragmented
/// the heap.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim` only releases memory the allocator already owns and holds no
    // pointer of ours.
    unsafe { malloc_trim(0) };
}

/// Resets the peak-RSS high-water mark of this process or of `pid` to its current RSS, so
/// each repetition reports its own peak. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    std::fs::write(format!("{}/clear_refs", status_path(pid)), "5").is_ok()
}

/// User + system CPU seconds of a running process, from `/proc/<pid>/stat` (clock ticks).
pub fn process_cpu_s(pid: u32) -> f64 {
    // SAFETY: `sysconf` only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (field(11) + field(12)) as f64 / ticks
}

/// One `sweep --serve 127.0.0.1:0 --threads 1` daemon, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon and waits for its `listening on <addr>` line. `faults` becomes the
    /// daemon's `LOCAL_FAULTS` script.
    pub fn start(sweep: &Path, faults: Option<&str>) -> Result<Daemon, String> {
        let mut command = Command::new(sweep);
        command
            .args(["--serve", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match faults {
            Some(script) => command.env("LOCAL_FAULTS", script),
            None => command.env_remove("LOCAL_FAULTS"),
        };
        let mut child =
            command.spawn().map_err(|e| format!("cannot start {}: {e}", sweep.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            line.strip_prefix("listening on ").map(|addr| addr.trim().to_string())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon exited before announcing its address".into());
        };
        // Keep draining stdout so a chatty daemon can never block on a full pipe.
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Daemon { child, addr, drain: Some(drain) })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
