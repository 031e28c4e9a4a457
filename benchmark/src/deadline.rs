//! The hard internal deadline: a watchdog thread that, once the budget
//! is spent, names the workload and the phase it was in and exits the
//! process non-zero instead of letting a stuck socket or a runaway
//! simulation hang the caller.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

static PHASE: Mutex<&'static str> = Mutex::new("start");

/// Exit code of a run killed by its own deadline.
pub const EXIT_DEADLINE: i32 = 3;

/// Records the phase the workload is entering.
pub fn phase(name: &'static str) {
    *PHASE.lock().unwrap_or_else(|p| p.into_inner()) = name;
}

pub fn current_phase() -> &'static str {
    *PHASE.lock().unwrap_or_else(|p| p.into_inner())
}

/// The message the watchdog prints.
pub fn expiry_message(workload: &str, budget: Duration) -> String {
    format!(
        "bcwan-perf: workload {workload} exceeded its {:.0} s deadline in phase {}",
        budget.as_secs_f64(),
        current_phase()
    )
}

/// Disarms the watchdog when dropped.
pub struct Watchdog(Option<mpsc::Sender<()>>);

/// Arms a watchdog that calls `on_expiry` with the expiry message if the
/// guard is still alive after `budget`.
pub fn arm_with(
    workload: &str,
    budget: Duration,
    on_expiry: impl FnOnce(String) + Send + 'static,
) -> Watchdog {
    let (tx, rx) = mpsc::channel::<()>();
    let workload = workload.to_string();
    // Detached on purpose: it either fires and ends the process, or sees
    // the channel close when the guard drops and returns.
    std::thread::spawn(move || {
        if rx.recv_timeout(budget) == Err(RecvTimeoutError::Timeout) {
            on_expiry(expiry_message(&workload, budget));
        }
    });
    Watchdog(Some(tx))
}

/// Arms the real thing: print to stderr and exit [`EXIT_DEADLINE`].
pub fn arm(workload: &str, budget: Duration) -> Watchdog {
    arm_with(workload, budget, |msg| {
        eprintln!("{msg}");
        std::process::exit(EXIT_DEADLINE);
    })
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_names_workload_and_phase_and_disarm_is_silent() {
        let (tx, rx) = mpsc::channel();
        phase("cold connect");
        let guard = arm_with("chain_ibd", Duration::from_millis(20), move |msg| {
            tx.send(msg).unwrap();
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("watchdog fired");
        assert!(
            msg.contains("chain_ibd") && msg.contains("cold connect"),
            "{msg}"
        );
        drop(guard);

        let (tx, rx) = mpsc::channel::<String>();
        let guard = arm_with("x", Duration::from_millis(200), move |msg| {
            let _ = tx.send(msg);
        });
        drop(guard);
        assert!(rx.recv_timeout(Duration::from_millis(400)).is_err());
    }
}
