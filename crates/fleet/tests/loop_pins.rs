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
            "1a7c02c6bd3e78eed254b55a61363d87",
            "8284d8041029b232946842765b62d7e2",
            "b74341b1bc054d5e1f9c6d457f86aa9a",
            "aecf8dfc3d3e2d1cfe0783b8422d7ad3",
            "1a7c02c6bd3e78eed254b55a61363d87",
            "800c61a88bdcbb6fc39b89ef7584a569",
            "b8328a222ca74a1ebde88b6adf0e92b8",
            "aecf8dfc3d3e2d1cfe0783b8422d7ad3",
        ],
    );
}

#[test]
fn three_nodes() {
    check(
        3,
        [
            "5d17ad58286aaa89d7ea23e756750a43",
            "530320e31879fa25519574f491782561",
            "8995727438d7e327cac275dc42962b40",
            "1445e2f9b97213b55c379e68ee29c188",
            "5d17ad58286aaa89d7ea23e756750a43",
            "5ad49657cffdb1690fdda92e1f018f18",
            "75dda013d605930b8343f932dad2bdc2",
            "1445e2f9b97213b55c379e68ee29c188",
        ],
    );
}

#[test]
fn four_nodes() {
    check(
        4,
        [
            "dde5f800e4f32b31c0483c0301a99f48",
            "c09edeba043506d0d0fc89303c273974",
            "0011b288460f2100bb6a9fffdf8404ba",
            "4398a9972acdf9e32e8b904c42adbc47",
            "dde5f800e4f32b31c0483c0301a99f48",
            "b479eca9873469d5409711ffcf78514a",
            "d5119407b6d5110d88258e22bdb4e03b",
            "4398a9972acdf9e32e8b904c42adbc47",
        ],
    );
}

#[test]
fn eight_nodes() {
    check(
        8,
        [
            "20a384c6092bb637ed9199db7a765a2b",
            "79c769ab7b25f24235860389d9989ebe",
            "6ec3c1a850888ee28833ba421529c13b",
            "5e7a43e66cab1732bd60e38e2a6c2028",
            "20a384c6092bb637ed9199db7a765a2b",
            "23c42f259604b437343cdbfe133843cb",
            "ed844bd481c5ef312ccf05c5d571c505",
            "5e7a43e66cab1732bd60e38e2a6c2028",
        ],
    );
}
