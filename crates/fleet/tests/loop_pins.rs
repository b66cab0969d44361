//! Pins what the fleet event loop computes, independently of how the
//! loop is driven: {2, 3, 4, 8 nodes} × {no faults, a 12-fault
//! `campaign_mix`, a hand-written plan, two faults 1 ms apart on ring
//! neighbours} × two seeds, each fleet run three ways that must agree —
//! one `run_for(horizon)`, 10 ms slices (the benchmark's call pattern),
//! and slices of 1 ms / 7 ms / 1.5 ms. The last slice is off the
//! quantum grid: `run_for(1.5 ms)` advances 2 ms (whole quanta, rounded
//! up), so one cycle is exactly 10 ms and the third drive ends on the
//! horizon like the other two.
//!
//! The digests are literals captured at the commit that added this
//! file; a change to the loop keeps them, or it changed a simulated
//! result. (The fleet seed reaches a run only through link loss trials
//! and the `campaign_mix` draw, so the `empty` and `neighbours` rows read
//! the same at both seeds.)

use phoenix_fault::{LinkDirection, NodeChaosPlan, NodeFaultKind};
use phoenix_fleet::{Fleet, FleetConfig};
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

const SEEDS: [u64; 2] = [2007, 0xF1EE7];

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// `(plan name, plan, horizon)` for an `n`-node fleet at `seed`.
fn plans(n: u8, seed: u64) -> Vec<(&'static str, NodeChaosPlan, SimDuration)> {
    let last = n - 1;
    let mut rng = SimRng::new(seed).fork("loop-pins-plan");
    let mix = NodeChaosPlan::campaign_mix(n, 12, at_us(2_500_000), ms(2_000), &mut rng);
    // Node `last` exports at 200 + 100·last ms and every 2 s after, to
    // node 0: the loss window is open across its second transfer. The
    // cut 0 → 1 starves node 0's own transfers into RTO backoff. The RS
    // kill is scheduled off the quantum grid.
    let hand = NodeChaosPlan::new()
        .schedule(
            at_us(1_500_000),
            NodeFaultKind::Partition {
                a: 0,
                b: 1,
                direction: LinkDirection::AToB,
                duration: SimDuration::from_secs(3),
            },
        )
        .schedule(
            at_us(2_190_000),
            NodeFaultKind::Loss {
                a: last,
                b: 0,
                direction: LinkDirection::Both,
                prob: 0.5,
                duration: ms(1_500),
            },
        )
        .schedule(at_us(6_000_500), NodeFaultKind::KillRs { node: 1 })
        .schedule(at_us(10_000_000), NodeFaultKind::NodeCrash { node: last });
    let neighbours = NodeChaosPlan::new()
        .schedule(at_us(3_000_000), NodeFaultKind::KillRs { node: 0 })
        .schedule(at_us(3_001_000), NodeFaultKind::NodeCrash { node: 1 });
    vec![
        ("empty", NodeChaosPlan::new(), ms(6_000)),
        ("mix12", mix, ms(30_000)),
        ("hand", hand, ms(16_000)),
        ("neighbours", neighbours, ms(11_000)),
    ]
}

/// Everything the loop is held to: fleet time, per-node digests, the
/// rendered fleet counters, the fleet digest.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: SimTime,
    node_digests: Vec<String>,
    counters: String,
    digest: String,
}

fn drive(
    n: u8,
    seed: u64,
    plan: &NodeChaosPlan,
    horizon: SimDuration,
    slices: &[SimDuration],
) -> Outcome {
    let cfg = FleetConfig {
        nodes: n,
        seed,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, plan.clone());
    let end = fleet.now() + horizon;
    if slices.is_empty() {
        fleet.run_for(horizon);
    }
    while fleet.now() < end {
        for &slice in slices {
            fleet.run_for(slice);
        }
    }
    fleet.finalize();
    Outcome {
        now: fleet.now(),
        node_digests: fleet.node_digests(),
        counters: fleet.metrics.render_counters(),
        digest: fleet.digest(),
    }
}

/// Runs every plan for `n` nodes at both seeds three ways and holds the
/// agreed digest to `pinned` (in `SEEDS` × `plans` order).
fn check(n: u8, pinned: [&str; 8]) {
    let mut got = Vec::new();
    for seed in SEEDS {
        for (name, plan, horizon) in plans(n, seed) {
            let whole = drive(n, seed, &plan, horizon, &[]);
            assert_eq!(whole.now, SimTime::ZERO + horizon);
            let tens = drive(n, seed, &plan, horizon, &[ms(10)]);
            assert_eq!(whole, tens, "n={n} seed={seed} {name}: 10 ms slices");
            let odd = drive(
                n,
                seed,
                &plan,
                horizon,
                &[ms(1), ms(7), SimDuration::from_micros(1_500)],
            );
            assert_eq!(
                whole, odd,
                "n={n} seed={seed} {name}: 1 / 7 / 1.5 ms slices"
            );
            got.push(whole.digest);
        }
    }
    assert_eq!(got, pinned, "n={n}");
}

#[test]
fn off_grid_slice_advances_whole_quanta() {
    let mut fleet = Fleet::new(FleetConfig::default(), NodeChaosPlan::new());
    fleet.run_for(SimDuration::from_micros(1_500));
    assert_eq!(fleet.now(), at_us(2_000));
    fleet.run_for(SimDuration::from_micros(1));
    assert_eq!(fleet.now(), at_us(3_000));
    fleet.run_for(SimDuration::ZERO);
    assert_eq!(fleet.now(), at_us(3_000));
}

#[test]
fn two_nodes() {
    check(
        2,
        [
            "878789f5256e73859069be9380ad6997",
            "d831728147eb3925867dfa858239f14b",
            "3caca8797877fecfb36accc2462db205",
            "4a5345356b0a0d4bfbae18da31693efa",
            "878789f5256e73859069be9380ad6997",
            "7639b1f9109dccc991c86601d554dd45",
            "3077fa24b585ea7b59fcfd8294671e85",
            "4a5345356b0a0d4bfbae18da31693efa",
        ],
    );
}

#[test]
fn three_nodes() {
    check(
        3,
        [
            "41b46bb3f0b8dd906ebe0838bcdc3301",
            "a6c0bc2e684a07bfc96b5a57fbdf4e17",
            "c3eb4d647fe125ce268426d3e1125ffe",
            "6d662342f8ffe687618124516e948c27",
            "41b46bb3f0b8dd906ebe0838bcdc3301",
            "01be0d64c27818ab8343fe569c3f5833",
            "689b1025f14017e9c840b721025bda42",
            "6d662342f8ffe687618124516e948c27",
        ],
    );
}

#[test]
fn four_nodes() {
    check(
        4,
        [
            "c7797ead13e71297cf3bdbf612ca3c83",
            "027dc472bc4d55880c8a0303b82615bd",
            "4e4571c01c89f799f6b7f2f199e2a4e3",
            "93063d5ead6d33c0f95bd4b6fa8d9fe6",
            "c7797ead13e71297cf3bdbf612ca3c83",
            "8913acfed2f7a108c0b9011a7c19b737",
            "bdf769fac4cfc8ee55c7ab0f1f2c8f68",
            "93063d5ead6d33c0f95bd4b6fa8d9fe6",
        ],
    );
}

#[test]
fn eight_nodes() {
    check(
        8,
        [
            "1a3449bf9e4c969c35305368bc535dc9",
            "b5d3700feecff71a8f02167ae3ab1f9b",
            "765ca45faaf50be8ed832a6dacb46a38",
            "06b3e0e9707b15d049a8978a412304c0",
            "1a3449bf9e4c969c35305368bc535dc9",
            "fe5f7544515823987aa22a3b8d984b01",
            "31667fe7a3a893756602ce371f6d8a07",
            "06b3e0e9707b15d049a8978a412304c0",
        ],
    );
}
