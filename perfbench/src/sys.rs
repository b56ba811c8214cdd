//! Process plumbing: memory high-water marks and child-process signals.

use std::process::Child;
use std::time::{Duration, Instant};

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    /// C library `kill(2)`.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Ask `child` to drain and exit (SIGTERM); kill it if it has not
/// exited within `grace`. Waits until it has ended either way.
pub fn stop(child: &mut Child, grace: Duration) -> Result<(), String> {
    if child.try_wait().map_err(|e| e.to_string())?.is_some() {
        return Ok(());
    }
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    // SAFETY: `kill` takes plain integers and has no memory-safety
    // preconditions; `pid` is our own child, which has not been reaped
    // yet (checked above), so the id cannot have been reused.
    unsafe {
        kill(pid, SIGTERM);
    }
    let started = Instant::now();
    while started.elapsed() < grace {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return if status.success() {
                Ok(())
            } else {
                Err(format!("server exited with {status} after SIGTERM"))
            };
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().map_err(|e| e.to_string())?;
    child.wait().map_err(|e| e.to_string())?;
    Err(format!("server did not drain within {grace:?}; killed"))
}
