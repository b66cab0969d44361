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
            "2ced6b830eb374673f7428de9c0cd062",
            "c3a4ecc2a9fa4dff201653ac87496b60",
            "e37467063815ff4cb49db24ce00c2f94",
            "6c8d21b6c0aa950c1321faa8c9a7340d",
            "2ced6b830eb374673f7428de9c0cd062",
            "32011439b35fcfc1014338337b94d851",
            "f406b907fb82bee7e0cf1be474a31050",
            "6c8d21b6c0aa950c1321faa8c9a7340d",
        ],
    );
}

#[test]
fn three_nodes() {
    check(
        3,
        [
            "7dd042cccb364244a831f7fe2daa73fc",
            "fb621f449c460cd73bb5310b53535a04",
            "7c1e13b5fd82c74279286a4607e76dba",
            "beb143820e04a495e1b24f522d563caf",
            "7dd042cccb364244a831f7fe2daa73fc",
            "efd0d50a1e1346b1328ad1398746646c",
            "287f7e4b0ea8ef5e7bf0c56fc91e4114",
            "beb143820e04a495e1b24f522d563caf",
        ],
    );
}

#[test]
fn four_nodes() {
    check(
        4,
        [
            "3fefe95a68a8191e562c20f45b34afaf",
            "87cfed85fa285502df518e763fce43d6",
            "c98dd46bb1f61d9fa03e9ff076df29c3",
            "33d62a13b856ea28ad014d696ad55765",
            "3fefe95a68a8191e562c20f45b34afaf",
            "2fcd42d2ed283d9101cc07f555ddef0a",
            "2243e972ddfce2dfd171c17d2f443f7d",
            "33d62a13b856ea28ad014d696ad55765",
        ],
    );
}

#[test]
fn eight_nodes() {
    check(
        8,
        [
            "a6162b4dc40480412946c79d29befb29",
            "27e3ed09a749aa626cd36bad37e4614a",
            "b08965cfbc73203395002291968a3d25",
            "51f6fdec8f75393d8fa3e39afe4c9cda",
            "a6162b4dc40480412946c79d29befb29",
            "9ba9a35b41f6e43a07fc22b57070df2e",
            "d2bf57a31df6cd1f56c4f9df8d4a4193",
            "51f6fdec8f75393d8fa3e39afe4c9cda",
        ],
    );
}
