//! The §7.2 software fault-injection campaign.
//!
//! "One experiment run inside the Bochs PC emulator targeted the DP8390
//! Ethernet driver and repeatedly injected 1 randomly selected fault into
//! the running driver until it crashed. In total, we injected over 12,500
//! faults, which led to 347 detectable crashes: 226 exits due to an
//! internal panic (65%), 109 kill signals due to CPU and MMU exceptions
//! (31%), and 12 restarts due to missing heartbeat messages (4%). The
//! subsequent recovery was successful in 100% of the induced failures."
//!
//! This module drives exactly that experiment against our DP8390 driver,
//! with background datagram traffic keeping the driver's hot paths
//! executing. A second configuration enables the NIC model's *wedge*
//! behavior to reproduce the real-hardware tail where "the network card
//! was confused by the faulty driver and could not be reinitialized by the
//! restarted driver" and only a BIOS-level reset helps.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::dp8390::{Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::Rtl8139Config;
use phoenix_hw::WireConfig;
use phoenix_servers::policy::reason;
use phoenix_simcore::time::SimDuration;

use super::{await_fresh, defect_counts, spawn_udp_traffic};
use crate::apps::UdpStatus;
use crate::os::{hwmap, names, NicKind, Os};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Total faults to inject.
    pub injections: u64,
    /// Probability that a reserved-register write wedges the NIC
    /// (0 for the emulator campaign, small for the "real hardware" one).
    pub wedge_prob: f64,
    /// Heartbeat period for the driver under test.
    pub heartbeat_period: SimDuration,
    /// Consecutive misses before heartbeat recovery.
    pub heartbeat_misses: u32,
}

/// Virtual time between injections.
const INJECTION_INTERVAL: SimDuration = SimDuration::from_millis(20);

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2007,
            injections: 12_500,
            wedge_prob: 0.0,
            heartbeat_period: SimDuration::from_millis(500),
            heartbeat_misses: 2,
        }
    }
}

/// One detected crash.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Defect class (§5.1 numbering; see `phoenix_servers::policy::reason`).
    pub defect: u8,
    /// Faults injected since the previous crash.
    pub injections_since_last: u64,
    /// Whether automatic recovery succeeded.
    pub recovered: bool,
    /// Whether an out-of-band BIOS reset was required (wedged card).
    pub needed_hard_reset: bool,
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Total faults injected.
    pub injections: u64,
    /// Every detected crash in order.
    pub crashes: Vec<CrashRecord>,
    /// Silent failures: the driver stayed alive and answered heartbeats
    /// but stopped moving data, so the *user* noticed the freeze and
    /// instructed RS to restart it (§5.1 input 3). The paper's design
    /// explicitly cannot detect these automatically (§3: no protection
    /// against Byzantine behavior without end-to-end checks).
    pub silent_restarts: u64,
}

impl CampaignResult {
    /// Number of crashes with the given defect class.
    pub fn count(&self, defect: u8) -> usize {
        self.crashes.iter().filter(|c| c.defect == defect).count()
    }

    /// Crashes recovered automatically.
    pub fn recovered(&self) -> usize {
        self.crashes
            .iter()
            .filter(|c| c.recovered && !c.needed_hard_reset)
            .count()
    }

    /// Crashes needing the BIOS-reset escape hatch.
    pub fn hard_resets(&self) -> usize {
        self.crashes.iter().filter(|c| c.needed_hard_reset).count()
    }

    /// Percentage helper.
    pub fn pct(&self, n: usize) -> f64 {
        if self.crashes.is_empty() {
            0.0
        } else {
            n as f64 * 100.0 / self.crashes.len() as f64
        }
    }

    /// Renders the §7.2-style summary.
    pub fn render(&self) -> String {
        let panics = self.count(reason::EXIT);
        let exceptions = self.count(reason::EXCEPTION);
        let heartbeats = self.count(reason::HEARTBEAT);
        format!(
            "injected {} faults -> {} detectable crashes: \
             {} exits/panics ({:.0}%), {} CPU/MMU exceptions ({:.0}%), \
             {} missing heartbeats ({:.0}%); recovery ok {} ({:.1}%), \
             hard resets {}, silent freezes (user restart) {}",
            self.injections,
            self.crashes.len(),
            panics,
            self.pct(panics),
            exceptions,
            self.pct(exceptions),
            heartbeats,
            self.pct(heartbeats),
            self.recovered() + self.hard_resets(),
            self.pct(self.recovered() + self.hard_resets()),
            self.hard_resets(),
            self.silent_restarts,
        )
    }
}

/// Classifies a crash from the defect-counter delta. Restart-failure
/// panics can pollute the `exit` class, so the rarer, unambiguous classes
/// win.
fn classify(before: [u64; 6], after: [u64; 6]) -> u8 {
    let delta: Vec<u64> = before.iter().zip(after).map(|(b, a)| a - *b).collect();
    if delta[3] > 0 {
        reason::HEARTBEAT
    } else if delta[1] > 0 {
        reason::EXCEPTION
    } else if delta[4] > 0 {
        reason::COMPLAINT
    } else if delta[2] > 0 {
        reason::KILLED
    } else {
        reason::EXIT
    }
}

fn nic_wedged(os: &mut Os) -> bool {
    os.device_mut::<Dp8390>(hwmap::NIC)
        .is_some_and(|d| d.is_wedged())
}

/// Runs the fault-injection campaign. Returns the result plus the UDP
/// traffic status (for liveness sanity checks).
pub fn run_campaign(cfg: &CampaignConfig) -> (CampaignResult, Rc<RefCell<UdpStatus>>) {
    let driver = names::ETH_DP8390;
    let poll = SimDuration::from_millis(100);
    let mut os = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Dp8390)
        .network_tuning(
            Rtl8139Config::default(),
            Dp8390Config {
                wedge_prob: cfg.wedge_prob,
            },
            WireConfig::default(),
        )
        .heartbeat(cfg.heartbeat_period, cfg.heartbeat_misses)
        // The paper's direct-restart policy: the campaign crashes the
        // driver every ~2.3 s by design, which RS's default budget (10
        // restarts per 30 s) would read as a restart storm and give up
        // on every 13th crash.
        .restart_budget(u32::MAX, SimDuration::from_secs(30))
        .boot();
    let status = spawn_udp_traffic(&mut os);
    os.run_for(SimDuration::from_millis(50));

    let mut result = CampaignResult::default();
    let mut since_last = 0u64;
    let mut last_echoed = status.borrow().echoed;
    let mut last_progress = os.now();
    let mut down_ticks = 0u32;
    while result.injections < cfg.injections {
        let Some(ep_before) = os.endpoint(driver) else {
            // Driver restarting; give it time.
            os.run_for(poll);
            down_ticks += 1;
            if down_ticks >= 50 {
                // The driver is not coming back on its own: a wedged card
                // turns every restart into an init panic until the storm
                // ladder gives up. Model the §5.1-input-3 user: apply the
                // out-of-band BIOS reset and ask RS to try again.
                if nic_wedged(&mut os) {
                    os.hard_reset_device(hwmap::NIC);
                }
                os.service_restart(driver);
                down_ticks = 0;
            }
            continue;
        };
        down_ticks = 0;
        // Silent-failure watchdog: a mutated driver can desync its rx ring
        // and go quiet while still answering heartbeats — undetectable by
        // the system (§3), but the *user* notices the frozen traffic and
        // restarts the driver by hand (§5.1 input 3). Not counted as a
        // detectable crash.
        let echoed = status.borrow().echoed;
        if echoed != last_echoed {
            last_echoed = echoed;
            last_progress = os.now();
        } else if os.now().since(last_progress) > SimDuration::from_secs(2) {
            result.silent_restarts += 1;
            os.service_restart(driver);
            await_fresh(&mut os, driver, ep_before, poll, 100);
            last_progress = os.now();
            continue;
        }
        let counts_before = defect_counts(&os);
        if os.inject_fault(driver).is_none() {
            os.run_for(poll);
            continue;
        }
        result.injections += 1;
        since_last += 1;
        os.run_for(INJECTION_INTERVAL);
        // Crash detection: the incarnation changed or the driver is gone.
        // A *stuck* driver is still "alive" here; it is detected when the
        // heartbeat misses accumulate, within a later interval.
        if os.endpoint(driver) == Some(ep_before) {
            continue;
        }
        // Wait for recovery (§7.2 reports 100% on the emulator).
        let mut recovered = await_fresh(&mut os, driver, ep_before, poll, 100);
        // The card may be wedged: restarted drivers keep panicking at
        // init. Apply the out-of-band BIOS reset and try once more.
        let needed_hard_reset = !recovered && nic_wedged(&mut os);
        if needed_hard_reset {
            os.hard_reset_device(hwmap::NIC);
            os.service_restart(driver);
            recovered = await_fresh(&mut os, driver, ep_before, poll, 100);
        }
        result.crashes.push(CrashRecord {
            defect: classify(counts_before, defect_counts(&os)),
            injections_since_last: since_last,
            recovered,
            needed_hard_reset,
        });
        since_last = 0;
        // Let traffic re-establish before the next injection.
        os.run_for(SimDuration::from_millis(50));
    }
    (result, status)
}
