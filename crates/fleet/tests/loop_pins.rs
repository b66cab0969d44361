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
            "e14fec4c1b3b82e8eea2db8ff56cb22f",
            "1beb5e70629e0037487ab91e25d565cf",
            "2b066b37409762c39a5a6757daed65ea",
            "00ed72a7f9e2334547fb3be9e4b15250",
            "e14fec4c1b3b82e8eea2db8ff56cb22f",
            "1316b7b13c605e484c0adc374fcd9f28",
            "50431e7317d097086bfa9c815c5151fd",
            "00ed72a7f9e2334547fb3be9e4b15250",
        ],
    );
}

#[test]
fn three_nodes() {
    check(
        3,
        [
            "aa1c8692baded3b91eabc2b49a3ee55b",
            "8277ab31c76e54fcf65a9d964e3d8b4d",
            "86fc06f3e9192f11a48f426461b301fb",
            "09c7deb374221193f57a353a34c71c56",
            "aa1c8692baded3b91eabc2b49a3ee55b",
            "b4a2965da5012279e54a6c0dd21805ea",
            "a2d7f610db35415214408c1b3f884cf5",
            "09c7deb374221193f57a353a34c71c56",
        ],
    );
}

#[test]
fn four_nodes() {
    check(
        4,
        [
            "59c11f106029be6e8b06facd3f1b0eab",
            "fff9fe5db858b4efa82486cbac4737ef",
            "2287d81c8ec4f3feb8214e28fe0f9a9a",
            "9a749e6d0c25b91301777524398b64c1",
            "59c11f106029be6e8b06facd3f1b0eab",
            "fac1436e790a491be6fe6e117a43cdbe",
            "042b72e45ac6cfb853d8e1bb6989c466",
            "9a749e6d0c25b91301777524398b64c1",
        ],
    );
}

#[test]
fn eight_nodes() {
    check(
        8,
        [
            "ef5482104b2e1540d783b0c35e7331ce",
            "db404497694480ca2e81d7ec4bc19a56",
            "ca988d8239d1636e26eb006d975992ff",
            "a8e601e43e67655a91cc412df779e99f",
            "ef5482104b2e1540d783b0c35e7331ce",
            "cf24fbb9a1f5840340bec01c03e06919",
            "1012cf540d180eb5af482d23e0625282",
            "a8e601e43e67655a91cc412df779e99f",
        ],
    );
}
