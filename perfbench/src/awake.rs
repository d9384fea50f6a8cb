//! Keeps the host's CPUs from idling while a run measures.
//!
//! On a virtual machine an idle vCPU halts and leaves the guest; waking it
//! for the next request (a timer, or a thread woken on it) goes through
//! the hypervisor, and how long that takes depends on what the host's other
//! tenants are doing. A request crosses several threads, so those wake-ups
//! were a large and drifting share of the light-load latency figures.
//!
//! [`KeepAwake`] starts a child process of this binary (`--keep-awake
//! <parent pid>`) that runs one busy thread per CPU under `SCHED_IDLE`: the
//! kernel runs such a thread only when nothing else on that CPU is
//! runnable, and preempts it as soon as a benchmark thread wakes, so the
//! CPU never halts while the benchmark itself keeps every cycle it asks
//! for. The child is a separate process so its CPU time stays out of the
//! benchmark's own `cpu_ms_per_req`.

use std::process::{Child, Command, Stdio};

/// `SCHED_IDLE` scheduling policy (`linux/sched.h`).
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false when the kernel refuses.
fn make_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` for the call; pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Pins the calling thread to `cpu`; false when the kernel refuses.
fn pin_to(cpu: usize) -> bool {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is `size_of_val(&mask)` bytes long and outlives the
    // call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The child's body: one `SCHED_IDLE` busy thread per CPU until `parent`
/// is no longer this process's parent (it exited or was killed).
pub fn run_child(parent: u32) {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let threads: Vec<_> = (0..cpus)
        .map(|cpu| {
            std::thread::spawn(move || {
                pin_to(cpu);
                // Spinning at normal priority would take CPU time from the
                // benchmark: without `SCHED_IDLE`, do nothing.
                if !make_idle_class() {
                    return;
                }
                let mut n = 0u64;
                loop {
                    // No `spin_loop` hint: a PAUSE loop makes the
                    // hypervisor deschedule the vCPU, which is the halt
                    // this thread is here to prevent. The parent check
                    // comes about once a millisecond.
                    n = std::hint::black_box(n.wrapping_add(1));
                    if n.is_multiple_of(1 << 20) && std::os::unix::process::parent_id() != parent {
                        return;
                    }
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }
}

/// The running child; dropping it kills the child and waits for it.
pub struct KeepAwake {
    child: Child,
}

impl KeepAwake {
    /// Starts the child.
    ///
    /// # Errors
    ///
    /// A message when the child cannot be started.
    pub fn start() -> Result<KeepAwake, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
        let child = Command::new(exe)
            .args(["--keep-awake", &std::process::id().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("keep-awake child: {e}"))?;
        Ok(KeepAwake { child })
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
