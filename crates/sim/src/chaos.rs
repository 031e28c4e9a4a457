//! Deterministic chaos scheduling: seeded fault plans for simulations.
//!
//! A [`ChaosPlan`] is a list of fault windows and one-shot faults drawn
//! from the experiment's [`SimRng`], so a chaotic run is exactly as
//! reproducible as a clean one — rerunning the same seed replays the
//! same crashes, partitions, bursts, and forks at the same simulated
//! instants. The [`ChaosEngine`] answers point-in-time queries ("is host
//! 3 down now?", "what extra LoRa loss applies?") and hands out one-shot
//! faults (connection kills, chain forks) exactly once.
//!
//! The engine is deliberately layer-agnostic: it knows about hosts,
//! links, radio loss, and block propagation as *categories*, and the
//! layer that owns each mechanism (the world simulation, the overlay,
//! the miner) interprets the fault. That layer also counts what the fault
//! did, in the engine's [`ChaosStats`] table, which the run's metrics fold
//! exports as the `chaos.*` rows.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Extra LoRa frame loss applied to every radio frame in the window
    /// (collision storm / interference burst).
    LoraBurst {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Loss probability while the burst is active (overrides the
        /// configured base loss when larger).
        loss: f64,
    },
    /// A host crashes at `from` and restarts at `until`: messages to or
    /// from it are dropped and its radio does not answer. Durable state
    /// (chain, provisioning) survives; volatile state (mempool, relay
    /// filters) is lost at restart.
    HostCrash {
        /// The crashed host. Generated plans draw from `1..=actor_hosts`
        /// and only target the master (host 0) when the profile's
        /// `master_crashes` knob explicitly schedules a failover drill.
        host: u32,
        /// Crash instant.
        from: SimTime,
        /// Restart instant.
        until: SimTime,
    },
    /// Kills the next `kills` overlay messages involving `host` (either
    /// as sender or receiver) after `from` — the event-level analogue of
    /// tearing down a TCP connection mid-frame on either side.
    ConnKill {
        /// The host whose connections die.
        host: u32,
        /// First instant at which kills apply.
        from: SimTime,
        /// How many messages to kill.
        kills: u32,
    },
    /// Delays every block broadcast leaving the miner inside the window
    /// (withheld / slow block propagation).
    BlockDelay {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Extra propagation delay per block.
        delay: SimDuration,
    },
    /// Splits hosts `0..=boundary` from hosts `> boundary` for the
    /// window: messages across the cut are dropped.
    Partition {
        /// Highest host id in the first group.
        boundary: u32,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// The gateway on `host` withholds escrow claims during the window —
    /// the misbehaving-gateway case whose backstop is the escrow's
    /// `OP_CHECKLOCKTIMEVERIFY` refund branch.
    ClaimWithhold {
        /// The withholding gateway host.
        host: u32,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive; `SimTime::MAX`-like values model a
        /// gateway that vanished for good).
        until: SimTime,
    },
    /// One-shot: at the first mining opportunity after `at`, the miner
    /// abandons the top `depth` blocks and mines a longer empty branch,
    /// reorganizing every node and orphaning the transactions in the
    /// abandoned blocks.
    Fork {
        /// Earliest instant the fork fires.
        at: SimTime,
        /// How many tip blocks to orphan.
        depth: u32,
    },
    /// N-way network partition: each listed group can only talk to
    /// itself for the window; a link is cut iff its endpoints sit in
    /// *different* listed groups. Hosts in no group keep all their
    /// links — the generalization of the single [`ChaosFault::Partition`]
    /// boundary cut.
    PartitionGroups {
        /// The disjoint host groups. Two groups reproduce a boundary
        /// cut; three or more model the multi-way splits a federated
        /// WAN across several carriers can suffer.
        groups: Vec<Vec<u32>>,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Byzantine gateway: inside the window the gateway on `host` signs
    /// *two* conflicting claims against each escrow it settles (forked
    /// session state, different fee → different txid, both revealing the
    /// true `eSk` — the Listing 1 script makes lying about the key
    /// impossible) and broadcasts them to disjoint peer sets.
    Equivocate {
        /// The equivocating gateway host.
        host: u32,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Byzantine miner: while active as block producer inside the
    /// window, `miner` silently excludes claim and refund transactions
    /// from its block templates (escrows still confirm — the censor
    /// wants the timeout, not an empty chain).
    CensorClaims {
        /// The censoring miner host.
        miner: u32,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
}

/// A deterministic schedule of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<ChaosFault>,
}

/// Knobs for [`ChaosPlan::generate`]: how many of each fault to draw.
/// The default draws none; each preset sets only the faults it uses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosProfile {
    /// Number of LoRa loss bursts.
    pub lora_bursts: u32,
    /// Loss probability inside a burst.
    pub lora_burst_loss: f64,
    /// Length of each burst.
    pub lora_burst_len: SimDuration,
    /// Number of host crash-and-restart windows.
    pub host_crashes: u32,
    /// Length of each crash window.
    pub crash_len: SimDuration,
    /// Number of connection-kill one-shots (each kills 1–3 messages).
    pub conn_kills: u32,
    /// Number of block-propagation delay windows.
    pub block_delays: u32,
    /// Extra delay per block inside a window.
    pub block_delay: SimDuration,
    /// Length of each delay window.
    pub block_delay_len: SimDuration,
    /// Number of network partitions.
    pub partitions: u32,
    /// Length of each partition.
    pub partition_len: SimDuration,
    /// Number of claim-withhold windows (misbehaving gateways).
    pub claim_withholds: u32,
    /// Length of each withhold window.
    pub withhold_len: SimDuration,
    /// Number of one-shot chain forks.
    pub forks: u32,
    /// Number of crash windows aimed at the master (host 0) itself.
    /// Zero in every profile that models the paper's AWS anchor staying
    /// up; non-zero profiles exercise miner failover, where a standby
    /// host must take over block production.
    pub master_crashes: u32,
    /// Length of each master crash window.
    pub master_crash_len: SimDuration,
    /// Number of N-way group-partition windows. Consecutive windows
    /// overlap (each starts halfway into the previous one), so plans
    /// exercise partitions that split while another is still healing.
    pub group_partitions: u32,
    /// How many groups each group partition splits the fleet into.
    pub partition_groups: u32,
    /// Length of each group-partition window.
    pub group_partition_len: SimDuration,
    /// Number of equivocation windows (Byzantine double-claiming
    /// gateways).
    pub equivocations: u32,
    /// Length of each equivocation window.
    pub equivocate_len: SimDuration,
    /// Number of claim-censorship windows aimed at the master miner.
    pub censorships: u32,
    /// Length of each censorship window.
    pub censor_len: SimDuration,
}

impl ChaosProfile {
    /// A mixed soak profile: every fault category represented.
    pub fn soak() -> Self {
        ChaosProfile {
            lora_bursts: 2,
            lora_burst_loss: 0.5,
            lora_burst_len: SimDuration::from_secs(20),
            host_crashes: 2,
            crash_len: SimDuration::from_secs(25),
            conn_kills: 3,
            block_delays: 1,
            block_delay: SimDuration::from_secs(6),
            block_delay_len: SimDuration::from_secs(30),
            partitions: 1,
            partition_len: SimDuration::from_secs(15),
            claim_withholds: 1,
            withhold_len: SimDuration::from_secs(100_000),
            forks: 2,
            ..ChaosProfile::default()
        }
    }

    /// A miner-failover drill: the master (host 0) crashes mid-run, so
    /// a standby host must take over mining until the master restarts
    /// and catches back up. Light background faults keep the drill
    /// honest without drowning the failover signal.
    pub fn master_failover() -> Self {
        ChaosProfile {
            lora_bursts: 1,
            lora_burst_loss: 0.4,
            lora_burst_len: SimDuration::from_secs(15),
            host_crashes: 1,
            crash_len: SimDuration::from_secs(20),
            conn_kills: 1,
            master_crashes: 1,
            master_crash_len: SimDuration::from_secs(60),
            ..ChaosProfile::default()
        }
    }

    /// A Byzantine soak: active adversaries instead of passive faults —
    /// equivocating and withholding gateways, a censoring master miner,
    /// and overlapping three-way partitions. No crash windows: the
    /// adversaries are *up* and misbehaving, which is the harder case
    /// for the fairness argument.
    pub fn byzantine() -> Self {
        ChaosProfile {
            lora_bursts: 1,
            lora_burst_loss: 0.4,
            lora_burst_len: SimDuration::from_secs(15),
            conn_kills: 2,
            claim_withholds: 1,
            withhold_len: SimDuration::from_secs(100_000),
            forks: 1,
            group_partitions: 2,
            partition_groups: 3,
            group_partition_len: SimDuration::from_secs(12),
            equivocations: 1,
            equivocate_len: SimDuration::from_secs(100_000),
            censorships: 1,
            censor_len: SimDuration::from_secs(90),
            ..ChaosProfile::default()
        }
    }
}

impl ChaosPlan {
    /// The empty plan: no faults, zero overhead.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Draws a plan from `rng`. Fault windows start inside the first 60%
    /// of `horizon` so recovery has room to finish before the run ends;
    /// hosts are drawn from `1..=actor_hosts` — the master, host 0, is
    /// the experiment's AWS anchor and crashes only when the profile's
    /// `master_crashes` knob schedules a failover drill.
    pub fn generate(
        rng: &mut SimRng,
        profile: &ChaosProfile,
        horizon: SimDuration,
        actor_hosts: u32,
    ) -> Self {
        assert!(actor_hosts > 0, "need at least one actor host");
        let mut faults = Vec::new();
        let start = |rng: &mut SimRng| {
            SimTime::ZERO
                + SimDuration::from_secs_f64(rng.uniform_range(0.05, 0.60) * horizon.as_secs_f64())
        };
        let actor = |rng: &mut SimRng| rng.index(actor_hosts as usize) as u32 + 1;
        let window = |rng: &mut SimRng, len: SimDuration| {
            let from = start(rng);
            (from, from + len)
        };
        for _ in 0..profile.lora_bursts {
            let (from, until) = window(rng, profile.lora_burst_len);
            let loss = profile.lora_burst_loss;
            faults.push(ChaosFault::LoraBurst { from, until, loss });
        }
        for _ in 0..profile.host_crashes {
            let (from, until) = window(rng, profile.crash_len);
            let host = actor(rng);
            faults.push(ChaosFault::HostCrash { host, from, until });
        }
        for _ in 0..profile.master_crashes {
            let (from, until) = window(rng, profile.master_crash_len);
            let host = 0;
            faults.push(ChaosFault::HostCrash { host, from, until });
        }
        for _ in 0..profile.conn_kills {
            faults.push(ChaosFault::ConnKill {
                host: actor(rng),
                from: start(rng),
                kills: rng.index(3) as u32 + 1,
            });
        }
        for _ in 0..profile.block_delays {
            let (from, until) = window(rng, profile.block_delay_len);
            let delay = profile.block_delay;
            faults.push(ChaosFault::BlockDelay { from, until, delay });
        }
        for _ in 0..profile.partitions {
            let (from, until) = window(rng, profile.partition_len);
            let boundary = rng.index(actor_hosts as usize) as u32;
            faults.push(ChaosFault::Partition {
                boundary,
                from,
                until,
            });
        }
        for _ in 0..profile.claim_withholds {
            let (from, until) = window(rng, profile.withhold_len);
            let host = actor(rng);
            faults.push(ChaosFault::ClaimWithhold { host, from, until });
        }
        for _ in 0..profile.forks {
            faults.push(ChaosFault::Fork {
                at: start(rng),
                depth: rng.index(2) as u32 + 1,
            });
        }
        // Group partitions split the *whole* fleet — master included —
        // into `partition_groups` round-robin groups from a rotated
        // start, so which hosts share a side varies per window.
        // Consecutive windows start halfway into the previous one:
        // overlapping multi-way splits, not a single clean cut.
        if profile.group_partitions > 0 {
            let n_groups = profile.partition_groups.max(2) as usize;
            let mut from = start(rng);
            for _ in 0..profile.group_partitions {
                let offset = rng.index(n_groups);
                let mut groups = vec![Vec::new(); n_groups];
                for host in 0..=actor_hosts {
                    groups[(host as usize + offset) % n_groups].push(host);
                }
                faults.push(ChaosFault::PartitionGroups {
                    groups,
                    from,
                    until: from + profile.group_partition_len,
                });
                from += SimDuration::from_secs_f64(profile.group_partition_len.as_secs_f64() / 2.0);
            }
        }
        for _ in 0..profile.equivocations {
            let (from, until) = window(rng, profile.equivocate_len);
            let host = actor(rng);
            faults.push(ChaosFault::Equivocate { host, from, until });
        }
        for _ in 0..profile.censorships {
            let (from, until) = window(rng, profile.censor_len);
            let miner = 0;
            faults.push(ChaosFault::CensorClaims { miner, from, until });
        }
        ChaosPlan { faults }
    }

    /// The hosts the plan marks adversarial — gateways scheduled to
    /// equivocate, withhold claims, or censor settlements. Crashes and
    /// network faults are *failures*, not misbehavior, and don't count.
    pub fn adversarial_hosts(&self) -> Vec<u32> {
        let mut hosts: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                ChaosFault::Equivocate { host, .. }
                | ChaosFault::ClaimWithhold { host, .. }
                | ChaosFault::CensorClaims { miner: host, .. } => Some(*host),
                _ => None,
            })
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }
}

crate::counters! {
    /// What the plan's faults did, counted by the layer that acted on
    /// each one (`chaos.*` rows).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChaosStats {
        /// Faults the plan schedules.
        pub faults_scheduled: u64 => "chaos.faults_scheduled_total",
        /// Radio frames lost to a LoRa burst.
        pub lora_drops: u64 => "chaos.lora_burst_drops_total",
        /// Messages dropped because an endpoint was crashed.
        pub crash_drops: u64 => "chaos.crash_drops_total",
        /// Messages killed by a connection-kill fault.
        pub conn_kills: u64 => "chaos.conn_kills_total",
        /// Messages dropped across a partition cut.
        pub partition_drops: u64 => "chaos.partition_drops_total",
        /// Block broadcasts that left late.
        pub blocks_delayed: u64 => "chaos.blocks_delayed_total",
        /// Escrow claims a misbehaving gateway withheld.
        pub claims_withheld: u64 => "chaos.claims_withheld_total",
        /// One-shot chain forks fired.
        pub forks: u64 => "chaos.forks_total",
        /// Conflicting claim pairs an equivocating gateway injected.
        pub equivocations: u64 => "chaos.equivocations_injected_total",
        /// Settlement transactions a censoring miner excluded from a block
        /// template it produced.
        pub claims_censored: u64 => "chaos.claims_censored_total",
    }
}

/// Executes a [`ChaosPlan`]: point-in-time queries plus one-shot
/// consumption, all deterministic. Every query is a scan of the plan's
/// faults, so on an empty plan ([`ChaosEngine::is_idle`]) it answers
/// false, zero or `None` at once, with no side effect: a clean run's
/// callers ask without guarding.
#[derive(Debug)]
pub struct ChaosEngine {
    plan: ChaosPlan,
    /// What each one-shot fault has left to fire, parallel to plan
    /// order: a `ConnKill`'s remaining kills, 1 for an unfired `Fork`.
    armed: Vec<u32>,
    /// What the faults did so far; the engine fills in only
    /// `faults_scheduled`.
    pub stats: ChaosStats,
}

impl ChaosEngine {
    /// Builds an engine over `plan`.
    pub fn new(plan: ChaosPlan) -> Self {
        let stats = ChaosStats {
            faults_scheduled: plan.faults.len() as u64,
            ..ChaosStats::default()
        };
        let armed = plan.faults.iter().map(|f| match f {
            ChaosFault::ConnKill { kills, .. } => *kills,
            ChaosFault::Fork { .. } => 1,
            _ => 0,
        });
        ChaosEngine {
            armed: armed.collect(),
            plan,
            stats,
        }
    }

    /// Whether the plan schedules nothing (fast-path guard).
    pub fn is_idle(&self) -> bool {
        self.plan.is_empty()
    }

    /// The windowed faults whose window holds `now` (one-shots never
    /// are: they fire through [`ChaosEngine::take_conn_kill`] and
    /// [`ChaosEngine::take_fork`]).
    fn active(&self, now: SimTime) -> impl Iterator<Item = &ChaosFault> {
        self.plan.faults.iter().filter(move |f| match f {
            ChaosFault::LoraBurst { from, until, .. }
            | ChaosFault::HostCrash { from, until, .. }
            | ChaosFault::BlockDelay { from, until, .. }
            | ChaosFault::Partition { from, until, .. }
            | ChaosFault::ClaimWithhold { from, until, .. }
            | ChaosFault::PartitionGroups { from, until, .. }
            | ChaosFault::Equivocate { from, until, .. }
            | ChaosFault::CensorClaims { from, until, .. } => *from <= now && now < *until,
            ChaosFault::ConnKill { .. } | ChaosFault::Fork { .. } => false,
        })
    }

    /// Extra LoRa loss probability active at `now` (0.0 when no burst).
    pub fn lora_loss_boost(&self, now: SimTime) -> f64 {
        let losses = self.active(now).filter_map(|f| match f {
            ChaosFault::LoraBurst { loss, .. } => Some(*loss),
            _ => None,
        });
        losses.fold(0.0, f64::max)
    }

    /// Whether `host` is crashed at `now`.
    pub fn host_down(&self, host: u32, now: SimTime) -> bool {
        self.active(now)
            .any(|f| matches!(f, ChaosFault::HostCrash { host: h, .. } if *h == host))
    }

    /// Whether the link `a`↔`b` crosses an active partition cut —
    /// either side of a boundary [`ChaosFault::Partition`], or
    /// different groups of a [`ChaosFault::PartitionGroups`] window
    /// (hosts listed in no group keep all their links).
    pub fn partitioned(&self, a: u32, b: u32, now: SimTime) -> bool {
        self.active(now).any(|f| match f {
            ChaosFault::Partition { boundary, .. } => (a <= *boundary) != (b <= *boundary),
            ChaosFault::PartitionGroups { groups, .. } => {
                let side = |h: u32| groups.iter().position(|g| g.contains(&h));
                matches!((side(a), side(b)), (Some(ga), Some(gb)) if ga != gb)
            }
            _ => false,
        })
    }

    /// Whether the gateway on `host` equivocates (double-claims) at
    /// `now`.
    pub fn equivocate_claim(&self, host: u32, now: SimTime) -> bool {
        self.active(now)
            .any(|f| matches!(f, ChaosFault::Equivocate { host: h, .. } if *h == host))
    }

    /// Whether `miner` censors settlement transactions from its block
    /// templates at `now`.
    pub fn censoring_miner(&self, miner: u32, now: SimTime) -> bool {
        self.active(now)
            .any(|f| matches!(f, ChaosFault::CensorClaims { miner: m, .. } if *m == miner))
    }

    /// Whether the gateway on `host` is withholding claims at `now`.
    pub fn withhold_claim(&self, host: u32, now: SimTime) -> bool {
        self.active(now)
            .any(|f| matches!(f, ChaosFault::ClaimWithhold { host: h, .. } if *h == host))
    }

    /// Extra block propagation delay at `now` (zero outside windows).
    pub fn block_delay(&self, now: SimTime) -> SimDuration {
        let delays = self.active(now).filter_map(|f| match f {
            ChaosFault::BlockDelay { delay, .. } => Some(*delay),
            _ => None,
        });
        delays.max().unwrap_or(SimDuration::ZERO)
    }

    /// Consumes one connection kill involving `a` or `b`, if armed.
    pub fn take_conn_kill(&mut self, a: u32, b: u32, now: SimTime) -> bool {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if let ChaosFault::ConnKill { host, from, .. } = fault {
                if (*host == a || *host == b) && *from <= now && self.armed[i] > 0 {
                    self.armed[i] -= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Consumes the next unfired fork due at `now`, returning its depth.
    pub fn take_fork(&mut self, now: SimTime) -> Option<u32> {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if let ChaosFault::Fork { at, depth } = fault {
                if *at <= now && self.armed[i] > 0 {
                    self.armed[i] = 0;
                    return Some(*depth);
                }
            }
        }
        None
    }

    /// The restart instants of every crash window, for scheduling
    /// restart events: `(host, restart_at)` pairs.
    pub fn restarts(&self) -> Vec<(u32, SimTime)> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match f {
                ChaosFault::HostCrash { host, until, .. } => Some((*host, *until)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn engine(faults: Vec<ChaosFault>) -> ChaosEngine {
        ChaosEngine::new(ChaosPlan { faults })
    }

    #[test]
    fn idle_engine_answers_nothing_and_keeps_nothing_armed() {
        let mut e = engine(Vec::new());
        assert!(e.is_idle());
        for now in [t(0), t(10), t(1_000_000)] {
            assert!(!e.host_down(1, now));
            assert!(!e.partitioned(1, 2, now));
            assert!(!e.equivocate_claim(1, now));
            assert!(!e.censoring_miner(0, now));
            assert!(!e.withhold_claim(1, now));
            assert_eq!(e.block_delay(now), SimDuration::ZERO);
            assert_eq!(e.lora_loss_boost(now), 0.0);
            assert!(!e.take_conn_kill(1, 2, now));
            assert_eq!(e.take_fork(now), None);
        }
        assert!(e.restarts().is_empty());
    }

    #[test]
    fn windows_are_half_open() {
        let e = engine(vec![ChaosFault::HostCrash {
            host: 2,
            from: t(10),
            until: t(20),
        }]);
        assert!(!e.host_down(2, t(9)));
        assert!(e.host_down(2, t(10)));
        assert!(e.host_down(2, t(19)));
        assert!(!e.host_down(2, t(20)));
        assert!(!e.host_down(1, t(15)));
    }

    #[test]
    fn lora_boost_takes_strongest_burst() {
        let e = engine(vec![
            ChaosFault::LoraBurst {
                from: t(0),
                until: t(50),
                loss: 0.3,
            },
            ChaosFault::LoraBurst {
                from: t(10),
                until: t(20),
                loss: 0.9,
            },
        ]);
        assert_eq!(e.lora_loss_boost(t(5)), 0.3);
        assert_eq!(e.lora_loss_boost(t(15)), 0.9);
        assert_eq!(e.lora_loss_boost(t(60)), 0.0);
    }

    #[test]
    fn partition_splits_groups() {
        let e = engine(vec![ChaosFault::Partition {
            boundary: 1,
            from: t(0),
            until: t(10),
        }]);
        assert!(e.partitioned(0, 2, t(5)));
        assert!(e.partitioned(3, 1, t(5)));
        assert!(!e.partitioned(0, 1, t(5)), "same side of the cut");
        assert!(!e.partitioned(2, 3, t(5)), "same side of the cut");
        assert!(!e.partitioned(0, 2, t(10)), "window over");
    }

    #[test]
    fn conn_kills_consume_exactly_n() {
        let mut e = engine(vec![ChaosFault::ConnKill {
            host: 1,
            from: t(5),
            kills: 2,
        }]);
        assert!(!e.take_conn_kill(1, 2, t(0)), "not armed yet");
        assert!(e.take_conn_kill(1, 2, t(5)));
        assert!(e.take_conn_kill(3, 1, t(6)), "receive side counts too");
        assert!(!e.take_conn_kill(1, 2, t(7)), "budget spent");
        assert!(!e.take_conn_kill(0, 2, t(6)), "other hosts unaffected");
    }

    #[test]
    fn forks_fire_once() {
        let mut e = engine(vec![ChaosFault::Fork { at: t(5), depth: 2 }]);
        assert_eq!(e.take_fork(t(4)), None);
        assert_eq!(e.take_fork(t(5)), Some(2));
        assert_eq!(e.take_fork(t(6)), None);
    }

    #[test]
    fn generate_is_deterministic_and_spares_the_master() {
        let horizon = SimDuration::from_secs(600);
        let mut rng_a = SimRng::seed_from_u64(7);
        let mut rng_b = SimRng::seed_from_u64(7);
        let a = ChaosPlan::generate(&mut rng_a, &ChaosProfile::soak(), horizon, 3);
        let b = ChaosPlan::generate(&mut rng_b, &ChaosProfile::soak(), horizon, 3);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty());
        for fault in &a.faults {
            if let ChaosFault::HostCrash { host, .. } = fault {
                assert!((1..=3).contains(host), "master never crashes");
            }
        }
    }

    #[test]
    fn master_failover_profile_schedules_a_host_zero_crash() {
        let horizon = SimDuration::from_secs(600);
        let mut rng = SimRng::seed_from_u64(11);
        let plan = ChaosPlan::generate(&mut rng, &ChaosProfile::master_failover(), horizon, 3);
        let master_windows: Vec<_> = plan
            .faults
            .iter()
            .filter(|f| matches!(f, ChaosFault::HostCrash { host: 0, .. }))
            .collect();
        assert_eq!(master_windows.len(), 1, "exactly one master crash window");
        for fault in &plan.faults {
            if let ChaosFault::HostCrash { host, from, until } = fault {
                assert!(*host <= 3, "crash hosts stay inside the fleet");
                assert!(until > from, "crash windows are non-empty");
            }
        }
    }

    #[test]
    fn group_partition_cuts_only_cross_group_links() {
        let e = engine(vec![ChaosFault::PartitionGroups {
            groups: vec![vec![0, 3], vec![1, 4], vec![2]],
            from: t(0),
            until: t(10),
        }]);
        assert!(e.partitioned(0, 1, t(5)), "different groups");
        assert!(e.partitioned(3, 2, t(5)), "different groups");
        assert!(!e.partitioned(0, 3, t(5)), "same group");
        assert!(!e.partitioned(1, 4, t(5)), "same group");
        assert!(!e.partitioned(0, 5, t(5)), "host 5 in no group keeps links");
        assert!(!e.partitioned(0, 1, t(10)), "window over");
    }

    #[test]
    fn byzantine_profile_generates_overlapping_three_way_partitions() {
        let horizon = SimDuration::from_secs(600);
        let mut rng = SimRng::seed_from_u64(5);
        let plan = ChaosPlan::generate(&mut rng, &ChaosProfile::byzantine(), horizon, 4);
        let windows: Vec<(SimTime, SimTime)> = plan
            .faults
            .iter()
            .filter_map(|f| match f {
                ChaosFault::PartitionGroups {
                    groups,
                    from,
                    until,
                } => {
                    assert_eq!(groups.len(), 3, "three-way split");
                    let total: usize = groups.iter().map(Vec::len).sum();
                    assert_eq!(total, 5, "every host (master included) in a group");
                    assert!(groups.iter().all(|g| !g.is_empty()));
                    Some((*from, *until))
                }
                _ => None,
            })
            .collect();
        assert_eq!(windows.len(), 2);
        assert!(
            windows[1].0 < windows[0].1,
            "second window starts inside the first"
        );
        assert!(
            plan.faults
                .iter()
                .any(|f| matches!(f, ChaosFault::Equivocate { .. })),
            "byzantine profile schedules an equivocation"
        );
        assert!(
            plan.faults
                .iter()
                .any(|f| matches!(f, ChaosFault::CensorClaims { miner: 0, .. })),
            "byzantine profile aims censorship at the master miner"
        );
    }

    #[test]
    fn equivocate_and_censor_windows_are_half_open() {
        let e = engine(vec![
            ChaosFault::Equivocate {
                host: 2,
                from: t(10),
                until: t(20),
            },
            ChaosFault::CensorClaims {
                miner: 0,
                from: t(5),
                until: t(15),
            },
        ]);
        assert!(!e.equivocate_claim(2, t(9)));
        assert!(e.equivocate_claim(2, t(10)));
        assert!(!e.equivocate_claim(2, t(20)));
        assert!(!e.equivocate_claim(1, t(15)), "other hosts honest");
        assert!(!e.censoring_miner(0, t(4)));
        assert!(e.censoring_miner(0, t(5)));
        assert!(!e.censoring_miner(0, t(15)));
        assert!(!e.censoring_miner(1, t(10)), "other miners honest");
    }

    #[test]
    fn adversarial_hosts_lists_byzantine_actors_only() {
        let plan = ChaosPlan {
            faults: vec![
                ChaosFault::Equivocate {
                    host: 3,
                    from: t(0),
                    until: t(10),
                },
                ChaosFault::ClaimWithhold {
                    host: 1,
                    from: t(0),
                    until: t(10),
                },
                ChaosFault::CensorClaims {
                    miner: 0,
                    from: t(0),
                    until: t(10),
                },
                ChaosFault::HostCrash {
                    host: 2,
                    from: t(0),
                    until: t(10),
                },
                ChaosFault::Equivocate {
                    host: 3,
                    from: t(20),
                    until: t(30),
                },
            ],
        };
        assert_eq!(plan.adversarial_hosts(), vec![0, 1, 3]);
    }

    #[test]
    fn restarts_report_crash_ends() {
        let e = engine(vec![
            ChaosFault::HostCrash {
                host: 1,
                from: t(5),
                until: t(9),
            },
            ChaosFault::Partition {
                boundary: 0,
                from: t(0),
                until: t(1),
            },
        ]);
        assert_eq!(e.restarts(), vec![(1, t(9))]);
        // The engine counts only what it was given; the layers applying
        // the faults count the rest.
        let scheduled = ChaosStats {
            faults_scheduled: 2,
            ..ChaosStats::default()
        };
        assert_eq!(e.stats, scheduled);
    }
}
