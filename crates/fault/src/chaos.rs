//! Deterministic chaos plans for the kernel's IPC fabric.
//!
//! Where [`crate::mutate`] injects faults *inside* driver hot paths (the
//! paper's §7.2 SWIFI methodology), a [`ChaosPlan`] attacks the seams
//! *between* components: it drops, delays, duplicates and bit-corrupts
//! messages per endpoint name and per call class, stalls endpoints so the
//! heartbeat watchdog sees misses, and kills fresh incarnations mid-recovery
//! (the ReHype scenario — the recovery machinery itself must survive
//! failures). Plans implement the kernel's
//! [`ChaosInterposer`](phoenix_kernel::chaos::ChaosInterposer) hook and draw
//! all randomness from the kernel-forked [`SimRng`], so a chaos campaign is
//! a pure function of the run seed.
//!
//! # Example
//!
//! ```
//! use phoenix_fault::chaos::{ChaosPlan, ChaosRule, NameFilter};
//! use phoenix_simcore::time::SimDuration;
//!
//! // 5% drop + occasional 300µs delays on everything sent to drivers,
//! // and kill the first "eth.rtl8139" respawn 1ms into its recovery.
//! let plan = ChaosPlan::new()
//!     .rule(
//!         ChaosRule::new()
//!             .to(NameFilter::prefix("eth."))
//!             .drop(0.05)
//!             .delay(0.10, SimDuration::from_micros(300)),
//!     )
//!     .kill_during_recovery(NameFilter::exact("eth.rtl8139"), 0, 1, SimDuration::from_millis(1));
//! ```

use phoenix_kernel::chaos::{ChaosInterposer, ChaosVerdict, IpcClass, IpcEnvelope};
use phoenix_kernel::types::Endpoint;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

/// Matches component names (the stable process names, e.g. `"eth.rtl8139"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameFilter {
    /// Matches every name.
    Any,
    /// Matches exactly this name.
    Exact(String),
    /// Matches names starting with this prefix (`"eth."` matches all NICs).
    Prefix(String),
}

impl NameFilter {
    /// Exact-match filter.
    pub fn exact(name: &str) -> Self {
        NameFilter::Exact(name.to_string())
    }

    /// Prefix-match filter.
    pub fn prefix(prefix: &str) -> Self {
        NameFilter::Prefix(prefix.to_string())
    }

    /// Whether `name` matches.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            NameFilter::Any => true,
            NameFilter::Exact(n) => n == name,
            NameFilter::Prefix(p) => name.starts_with(p.as_str()),
        }
    }
}

/// One chaos rule: a (from, to, class) selector plus per-fault
/// probabilities. The first matching rule of a plan judges a delivery.
#[derive(Debug, Clone)]
pub struct ChaosRule {
    /// Sender name filter.
    pub from: NameFilter,
    /// Destination name filter.
    pub to: NameFilter,
    /// Call classes this rule applies to (`None` = all four).
    pub classes: Option<Vec<IpcClass>>,
    /// Probability of dropping the delivery.
    pub drop_p: f64,
    /// Probability of delaying the delivery.
    pub delay_p: f64,
    /// Maximum extra delay (uniform in `[1µs, max]`).
    pub max_delay: SimDuration,
    /// Probability of duplicating the delivery.
    pub dup_p: f64,
    /// Probability of flipping one payload bit.
    pub corrupt_p: f64,
}

impl ChaosRule {
    /// A rule matching everything with all probabilities zero.
    pub fn new() -> Self {
        ChaosRule {
            from: NameFilter::Any,
            to: NameFilter::Any,
            classes: None,
            drop_p: 0.0,
            delay_p: 0.0,
            max_delay: SimDuration::from_micros(200),
            dup_p: 0.0,
            corrupt_p: 0.0,
        }
    }

    /// Restricts to deliveries from matching senders.
    pub fn from(mut self, f: NameFilter) -> Self {
        self.from = f;
        self
    }

    /// Restricts to deliveries to matching destinations.
    pub fn to(mut self, f: NameFilter) -> Self {
        self.to = f;
        self
    }

    /// Restricts to the given call classes.
    pub fn classes(mut self, classes: &[IpcClass]) -> Self {
        self.classes = Some(classes.to_vec());
        self
    }

    /// Sets the drop probability.
    pub fn drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Sets the delay probability and maximum extra delay.
    pub fn delay(mut self, p: f64, max: SimDuration) -> Self {
        self.delay_p = p;
        self.max_delay = max;
        self
    }

    /// Sets the duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Sets the bit-corruption probability.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    fn applies(&self, env: &IpcEnvelope<'_>) -> bool {
        self.from.matches(env.from_name)
            && self.to.matches(env.to_name)
            && self
                .classes
                .as_ref()
                .is_none_or(|cs| cs.contains(&env.class))
    }

    /// Scales all probabilities by `factor` (clamped to `[0, 1]` at draw
    /// time), used by intensity sweeps.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.drop_p *= factor;
        self.delay_p *= factor;
        self.dup_p *= factor;
        self.corrupt_p *= factor;
        self
    }
}

impl Default for ChaosRule {
    fn default() -> Self {
        ChaosRule::new()
    }
}

/// A time window during which deliveries to matching endpoints are parked
/// (released at the window's end). Heartbeat pings pile up undelivered, so
/// the reincarnation server sees consecutive misses — defect class 4 without
/// touching the driver's code.
#[derive(Debug, Clone)]
pub struct StallWindow {
    /// Destination names to stall.
    pub target: NameFilter,
    /// Window start (absolute simulation time).
    pub start: SimTime,
    /// Window end; held deliveries are released here.
    pub until: SimTime,
}

/// Kills a fresh incarnation of a matching program shortly after it spawns.
/// With `skip` > 0 the first spawns pass unharmed, so the kill lands on the
/// Nth restart — i.e. *inside* an ongoing recovery.
#[derive(Debug, Clone)]
pub struct RecoveryKill {
    /// Program/process names to target.
    pub program: NameFilter,
    /// Matching spawns to let pass before striking.
    pub skip: u32,
    /// Maximum number of kills (0 disarms the trigger).
    pub count: u32,
    /// How long after the spawn the kill lands.
    pub delay: SimDuration,
}

/// A complete chaos policy: ordered rules, stall windows, recovery kills.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    rules: Vec<ChaosRule>,
    stalls: Vec<StallWindow>,
    kills: Vec<RecoveryKill>,
}

impl ChaosPlan {
    /// An empty plan (delivers everything).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Appends a rule. Rules are consulted in insertion order; the first
    /// match judges a delivery.
    pub fn rule(mut self, rule: ChaosRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a stall window.
    pub fn stall(mut self, target: NameFilter, start: SimTime, until: SimTime) -> Self {
        self.stalls.push(StallWindow {
            target,
            start,
            until,
        });
        self
    }

    /// Adds a crash-during-recovery trigger.
    pub fn kill_during_recovery(
        mut self,
        program: NameFilter,
        skip: u32,
        count: u32,
        delay: SimDuration,
    ) -> Self {
        self.kills.push(RecoveryKill {
            program,
            skip,
            count,
            delay,
        });
        self
    }

    /// A preset aimed at driver traffic: `intensity` 1.0 means 10% drop,
    /// 10% delay (≤ 500µs), 5% duplication and 2% corruption on messages
    /// to and from drivers (`eth.*`, `blk.*`, `chr.*`); scale down for
    /// gentler runs. System servers are left untouched so the campaign
    /// isolates driver-path resilience, as §6.1 does.
    pub fn driver_traffic(intensity: f64) -> Self {
        let targets = ["eth.", "blk.", "chr."];
        let mut plan = ChaosPlan::new();
        for t in targets {
            plan = plan
                .rule(
                    ChaosRule::new()
                        .to(NameFilter::prefix(t))
                        .drop(0.10)
                        .delay(0.10, SimDuration::from_micros(500))
                        .duplicate(0.05)
                        .corrupt(0.02)
                        .scaled(intensity),
                )
                .rule(
                    ChaosRule::new()
                        .from(NameFilter::prefix(t))
                        .drop(0.10)
                        .delay(0.10, SimDuration::from_micros(500))
                        .duplicate(0.05)
                        .corrupt(0.02)
                        .scaled(intensity),
                );
        }
        plan
    }
}

impl ChaosInterposer for ChaosPlan {
    fn on_ipc(&mut self, now: SimTime, env: &IpcEnvelope<'_>, rng: &mut SimRng) -> ChaosVerdict {
        // Stall windows outrank probabilistic rules: a stalled endpoint
        // receives nothing until the window closes.
        for s in &self.stalls {
            if s.target.matches(env.to_name) && now >= s.start && now < s.until {
                return ChaosVerdict::HoldUntil(s.until);
            }
        }
        let Some(rule) = self.rules.iter().find(|r| r.applies(env)) else {
            return ChaosVerdict::Deliver;
        };
        // Fixed draw order keeps the stream stable across runs.
        if rng.chance(rule.drop_p) {
            return ChaosVerdict::Drop;
        }
        if rng.chance(rule.dup_p) {
            let extra =
                SimDuration::from_micros(rng.range_u64(1..rule.max_delay.as_micros().max(2)));
            return ChaosVerdict::Duplicate { extra_delay: extra };
        }
        if rng.chance(rule.corrupt_p) {
            return ChaosVerdict::Corrupt;
        }
        if rng.chance(rule.delay_p) {
            let extra =
                SimDuration::from_micros(rng.range_u64(1..rule.max_delay.as_micros().max(2)));
            return ChaosVerdict::Delay(extra);
        }
        ChaosVerdict::Deliver
    }

    fn on_spawn(
        &mut self,
        _now: SimTime,
        name: &str,
        _ep: Endpoint,
        _rng: &mut SimRng,
    ) -> Option<SimDuration> {
        for k in &mut self.kills {
            if !k.program.matches(name) {
                continue;
            }
            if k.skip > 0 {
                k.skip -= 1;
                continue;
            }
            if k.count > 0 {
                k.count -= 1;
                return Some(k.delay);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'a>(from: &'a str, to: &'a str, class: IpcClass) -> IpcEnvelope<'a> {
        IpcEnvelope {
            from: Endpoint::new(1, 1),
            to: Endpoint::new(2, 1),
            from_name: from,
            to_name: to,
            class,
        }
    }

    #[test]
    fn name_filters() {
        assert!(NameFilter::Any.matches("anything"));
        assert!(NameFilter::exact("rs").matches("rs"));
        assert!(!NameFilter::exact("rs").matches("rs2"));
        assert!(NameFilter::prefix("eth.").matches("eth.rtl8139"));
        assert!(!NameFilter::prefix("eth.").matches("disk.ahci"));
    }

    #[test]
    fn empty_plan_delivers_everything() {
        let mut plan = ChaosPlan::new();
        let mut rng = SimRng::new(1);
        for class in IpcClass::ALL {
            let v = plan.on_ipc(SimTime::ZERO, &env("a", "b", class), &mut rng);
            assert_eq!(v, ChaosVerdict::Deliver);
        }
    }

    #[test]
    fn verdict_stream_is_deterministic() {
        let mk = || {
            ChaosPlan::new().rule(
                ChaosRule::new()
                    .to(NameFilter::prefix("eth."))
                    .drop(0.3)
                    .delay(0.3, SimDuration::from_micros(100))
                    .duplicate(0.2)
                    .corrupt(0.2),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut ra = SimRng::new(42);
        let mut rb = SimRng::new(42);
        for i in 0..500 {
            let t = SimTime::from_micros(i);
            let va = a.on_ipc(t, &env("inet", "eth.rtl8139", IpcClass::Request), &mut ra);
            let vb = b.on_ipc(t, &env("inet", "eth.rtl8139", IpcClass::Request), &mut rb);
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn rules_respect_class_and_name_selectors() {
        let mut plan = ChaosPlan::new().rule(
            ChaosRule::new()
                .to(NameFilter::exact("eth.rtl8139"))
                .classes(&[IpcClass::Notify])
                .drop(1.0),
        );
        let mut rng = SimRng::new(7);
        // Matching class + name: always dropped.
        let v = plan.on_ipc(
            SimTime::ZERO,
            &env("rs", "eth.rtl8139", IpcClass::Notify),
            &mut rng,
        );
        assert_eq!(v, ChaosVerdict::Drop);
        // Wrong class: untouched.
        let v = plan.on_ipc(
            SimTime::ZERO,
            &env("rs", "eth.rtl8139", IpcClass::Send),
            &mut rng,
        );
        assert_eq!(v, ChaosVerdict::Deliver);
        // Wrong destination: untouched.
        let v = plan.on_ipc(
            SimTime::ZERO,
            &env("rs", "disk.ahci", IpcClass::Notify),
            &mut rng,
        );
        assert_eq!(v, ChaosVerdict::Deliver);
    }

    #[test]
    fn stall_window_holds_until_end() {
        let start = SimTime::from_micros(100);
        let until = SimTime::from_micros(500);
        let mut plan = ChaosPlan::new().stall(NameFilter::exact("eth.rtl8139"), start, until);
        let mut rng = SimRng::new(9);
        let e = env("rs", "eth.rtl8139", IpcClass::Notify);
        assert_eq!(
            plan.on_ipc(SimTime::from_micros(50), &e, &mut rng),
            ChaosVerdict::Deliver
        );
        assert_eq!(
            plan.on_ipc(SimTime::from_micros(100), &e, &mut rng),
            ChaosVerdict::HoldUntil(until)
        );
        assert_eq!(
            plan.on_ipc(SimTime::from_micros(499), &e, &mut rng),
            ChaosVerdict::HoldUntil(until)
        );
        assert_eq!(
            plan.on_ipc(SimTime::from_micros(500), &e, &mut rng),
            ChaosVerdict::Deliver
        );
    }

    #[test]
    fn recovery_kill_skips_then_strikes_then_disarms() {
        let mut plan = ChaosPlan::new().kill_during_recovery(
            NameFilter::exact("eth.rtl8139"),
            1,
            2,
            SimDuration::from_millis(1),
        );
        let mut rng = SimRng::new(3);
        let ep = Endpoint::new(4, 1);
        // First spawn passes (skip).
        assert!(plan
            .on_spawn(SimTime::ZERO, "eth.rtl8139", ep, &mut rng)
            .is_none());
        // Non-matching programs never trigger.
        assert!(plan
            .on_spawn(SimTime::ZERO, "disk.ahci", ep, &mut rng)
            .is_none());
        // Next two matching spawns are killed.
        assert_eq!(
            plan.on_spawn(SimTime::ZERO, "eth.rtl8139", ep, &mut rng),
            Some(SimDuration::from_millis(1))
        );
        assert_eq!(
            plan.on_spawn(SimTime::ZERO, "eth.rtl8139", ep, &mut rng),
            Some(SimDuration::from_millis(1))
        );
        // Disarmed afterwards.
        assert!(plan
            .on_spawn(SimTime::ZERO, "eth.rtl8139", ep, &mut rng)
            .is_none());
    }

    #[test]
    fn driver_traffic_preset_spares_servers() {
        let mut plan = ChaosPlan::driver_traffic(1.0);
        let mut rng = SimRng::new(11);
        for _ in 0..200 {
            let v = plan.on_ipc(SimTime::ZERO, &env("pm", "rs", IpcClass::Send), &mut rng);
            assert_eq!(
                v,
                ChaosVerdict::Deliver,
                "server-to-server traffic must pass"
            );
        }
        // Driver-bound traffic does get judged (some verdict other than
        // Deliver shows up over 200 draws at 27% total fault probability).
        let mut touched = false;
        for _ in 0..200 {
            let v = plan.on_ipc(
                SimTime::ZERO,
                &env("inet", "eth.rtl8139", IpcClass::Send),
                &mut rng,
            );
            if v != ChaosVerdict::Deliver {
                touched = true;
            }
        }
        assert!(touched);
    }
}
