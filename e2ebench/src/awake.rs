//! Keeps every core busy at the lowest scheduling class while the serving
//! stage runs, so that no core halts between requests.
//!
//! At the serving stage's reference rate the cores are idle most of the
//! time. On a virtual machine a halted vCPU that a request wakes waits for
//! the hypervisor to schedule it again, which on a shared host takes from
//! tens of microseconds to milliseconds, and that wait, not the program,
//! then sets the ack latency. One `SCHED_IDLE` spinner per core keeps the
//! vCPUs running; any runnable thread of the program preempts a spinner at
//! once, so the program's own threads lose no CPU time to them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One spinner per available core.
    pub fn start() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    lowest_priority();
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`, which needs no privilege.
#[cfg(target_os = "linux")]
fn lowest_priority() {
    const SCHED_IDLE: i32 = 5;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    let priority = 0i32;
    // SAFETY: `param` points to a valid `struct sched_param`, whose only
    // field is the `int` priority; pid 0 is the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
    if rc != 0 {
        eprintln!(
            "e2ebench: SCHED_IDLE refused ({}); spinning at normal priority",
            std::io::Error::last_os_error()
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn lowest_priority() {}
