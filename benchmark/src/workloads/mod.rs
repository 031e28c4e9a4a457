//! The five workloads. Each stresses a different part of the stack, so
//! that an optimisation has one workload that exercises its mechanism
//! and four on which the prediction is no change.

pub mod chain_ibd;
pub mod live_tcp;
pub mod radio_1m;
pub mod world;

use crate::harness::{Ctx, Outcome};

pub type Workload = (&'static str, fn(&Ctx) -> Outcome);

pub const ALL: [Workload; 5] = [
    ("fig5_paper", world::fig5_paper),
    ("fleet_gossip", world::fleet_gossip),
    ("chain_ibd", chain_ibd::run),
    ("live_tcp", live_tcp::run),
    ("radio_1m", radio_1m::run),
];

/// Process-wide settings a workload needs made before the process has a
/// second thread (the deadline watchdog is one).
///
/// One repetition of `live_tcp` starts and ends some three hundred threads
/// (twenty five-host fleets and the pair). With glibc's arena per thread
/// the process's 10 MiB peak moved by 2 to 3 MiB from run to run, depending
/// on which arena the block stream's buffers landed in; with one arena it
/// repeats within 2 %, and since those threads mostly sleep the wall time
/// is the same (measured: within the run-to-run spread). The other four
/// keep the default: one arena costs `chain_ibd`'s parallel validation a
/// tenth of its speed.
pub fn before_threads(workload: &str) {
    if workload == "live_tcp" {
        crate::proc::one_malloc_arena();
    }
}
