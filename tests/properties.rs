//! Randomized tests over the core data structures and invariants.
//!
//! Each test draws its cases from a fixed-seed [`SimRng`], so runs are
//! deterministic and failures reproduce without shrinking machinery.

use phoenix_fault::isa::{decode, encode, Instr};
use phoenix_fault::mutate::{apply_fault, ALL_FAULT_TYPES};
use phoenix_fault::vm::Vm;
use phoenix_hw::disk::{DiskModel, SECTOR, STORED_SECTORS};
use phoenix_servers::fsfmt::{Extent, Inode, Superblock};
use phoenix_servers::netproto::{stream_chunk, Segment};
use phoenix_servers::policy::{PolicyInput, PolicyScript};
use phoenix_simcore::digest::{Md5, Sha1};
use phoenix_simcore::event::EventQueue;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::SimTime;

const CASES: usize = 256;

fn rng_for(test: &str) -> SimRng {
    SimRng::new(0x7072_6f70).fork(test)
}

fn random_instr(rng: &mut SimRng) -> Instr {
    let r = |rng: &mut SimRng| rng.range_u64(0..8) as u8;
    let imm = |rng: &mut SimRng| rng.next_u32() as u16;
    match rng.range_u64(0..21) {
        0 => Instr::Nop,
        1 => Instr::MovImm(r(rng), imm(rng)),
        2 => Instr::Mov(r(rng), r(rng)),
        3 => Instr::Add(r(rng), r(rng)),
        4 => Instr::AddImm(r(rng), imm(rng)),
        5 => Instr::Sub(r(rng), r(rng)),
        6 => Instr::Mul(r(rng), r(rng)),
        7 => Instr::Div(r(rng), r(rng)),
        8 => Instr::Xor(r(rng), r(rng)),
        9 => Instr::Shl(r(rng), imm(rng)),
        10 => Instr::Load(r(rng), r(rng), imm(rng)),
        11 => Instr::Store(r(rng), r(rng), imm(rng)),
        12 => Instr::LoadB(r(rng), r(rng), imm(rng)),
        13 => Instr::StoreB(r(rng), r(rng), imm(rng)),
        14 => Instr::Jmp(imm(rng)),
        15 => Instr::Jz(r(rng), imm(rng)),
        16 => Instr::Jnz(r(rng), imm(rng)),
        17 => Instr::Jlt(r(rng), r(rng), imm(rng)),
        18 => Instr::Jge(r(rng), r(rng), imm(rng)),
        19 => Instr::Assert(r(rng)),
        _ => Instr::Halt,
    }
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

fn random_words(rng: &mut SimRng, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.next_u32()).collect()
}

/// Every valid instruction round-trips through its binary encoding.
#[test]
fn isa_encode_decode_roundtrip() {
    let mut rng = rng_for("isa-roundtrip");
    for _ in 0..CASES * 4 {
        let i = random_instr(&mut rng);
        assert_eq!(decode(encode(i)), i);
    }
}

/// Decoding is total: any 32-bit word decodes (possibly to Invalid)
/// and re-encoding an Invalid preserves the word.
#[test]
fn isa_decode_total() {
    let mut rng = rng_for("isa-total");
    for _ in 0..CASES * 16 {
        let w = rng.next_u32();
        let d = decode(w);
        if let Instr::Invalid(x) = d {
            assert_eq!(x, w);
            assert_eq!(encode(d), w);
        }
    }
}

/// The VM never panics and always terminates within the step budget,
/// whatever garbage it executes — the foundation of the fault
/// injection methodology (a mutated driver can crash *as a process*,
/// never crash the analysis).
#[test]
fn vm_is_total_on_arbitrary_code() {
    let mut rng = rng_for("vm-total");
    for _ in 0..CASES {
        let len = rng.range_usize(1..64);
        let code = random_words(&mut rng, len);
        let mut vm = Vm::new(256);
        for reg in vm.regs.iter_mut() {
            *reg = rng.next_u32();
        }
        let gas = rng.range_u64(1..20_000);
        let _ = vm.run(&code, gas);
    }
}

/// Every mutation operator changes at most one instruction word and
/// never changes the program length.
#[test]
fn mutations_touch_exactly_one_word() {
    let mut rng = rng_for("mutate-one-word");
    for _ in 0..CASES {
        let len = rng.range_usize(1..128);
        let code = random_words(&mut rng, len);
        let which = rng.range_usize(0..ALL_FAULT_TYPES.len());
        let mut fault_rng = SimRng::new(rng.next_u64());
        let mut mutated = code.clone();
        let m = apply_fault(&mut mutated, ALL_FAULT_TYPES[which], &mut fault_rng);
        assert_eq!(mutated.len(), code.len());
        let diffs = mutated.iter().zip(&code).filter(|(a, b)| a != b).count();
        match m {
            Some(rec) => {
                assert!(diffs <= 1);
                assert_eq!(mutated[rec.index], rec.after);
            }
            None => assert_eq!(diffs, 0),
        }
    }
}

/// Streaming digests equal one-shot digests for any chunking.
#[test]
fn digests_chunking_invariant() {
    let mut rng = rng_for("digest-chunking");
    for _ in 0..CASES / 2 {
        let len = rng.range_usize(0..2048);
        let data = random_bytes(&mut rng, len);
        let mut cuts: Vec<usize> = (0..rng.range_usize(0..8))
            .map(|_| rng.range_usize(0..data.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut md5 = Md5::new();
        let mut sha = Sha1::new();
        let mut prev = 0;
        for c in cuts {
            md5.update(&data[prev..c]);
            sha.update(&data[prev..c]);
            prev = c;
        }
        md5.update(&data[prev..]);
        sha.update(&data[prev..]);
        assert_eq!(md5.finish(), Md5::digest(&data));
        assert_eq!(sha.finish(), Sha1::digest(&data));
    }
}

/// The event queue delivers in non-decreasing time order regardless of
/// insertion order.
#[test]
fn event_queue_time_ordered() {
    let mut rng = rng_for("event-queue-order");
    for _ in 0..CASES {
        let times: Vec<u64> = (0..rng.range_usize(1..100))
            .map(|_| rng.range_u64(0..1_000_000))
            .collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            n += 1;
        }
        assert_eq!(n, times.len());
    }
}

/// Disk overlay semantics: what you write is what you read; what you
/// never wrote is the deterministic base pattern — whether the disk
/// stores that pattern or synthesises it.
#[test]
fn disk_model_read_your_writes() {
    let mut rng = rng_for("disk-ryw");
    for case in 0..CASES {
        let seed = rng.next_u64();
        let sectors = [64, STORED_SECTORS + 64][case % 2];
        let mut disk = DiskModel::new(sectors, seed);
        let mut expected = std::collections::HashMap::new();
        for _ in 0..rng.range_usize(0..32) {
            let lba = rng.range_u64(0..64);
            let fill = rng.next_u32() as u8;
            let sector = vec![fill; SECTOR];
            assert!(disk.write(lba, &sector));
            expected.insert(lba, sector);
        }
        let probe = rng.range_u64(0..64);
        let got = disk.read(probe).unwrap();
        match expected.get(&probe) {
            Some(sector) => assert_eq!(&got, sector),
            None => assert_eq!(got, phoenix_hw::disk::synth_sector(seed, probe)),
        }
    }
}

/// Inodes round-trip through the on-disk format.
#[test]
fn inode_roundtrip() {
    let mut rng = rng_for("inode-roundtrip");
    let name_chars: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_.-".chars().collect();
    for _ in 0..CASES {
        let mut name = String::new();
        name.push(*rng.pick(&name_chars[..26]));
        for _ in 0..rng.range_usize(0..31) {
            name.push(*rng.pick(&name_chars));
        }
        let extents = (0..rng.range_usize(0..6))
            .map(|_| Extent {
                start: rng.next_u64(),
                sectors: rng.next_u32(),
            })
            .collect();
        let ino = Inode {
            name,
            size: rng.next_u64(),
            extents,
        };
        assert_eq!(Inode::decode(&ino.encode()), Some(ino));
    }
}

/// Superblocks round-trip.
#[test]
fn superblock_roundtrip() {
    let mut rng = rng_for("superblock-roundtrip");
    for _ in 0..CASES {
        let sb = Superblock {
            inode_count: rng.next_u32(),
            inode_table_lba: rng.next_u64(),
            inode_table_sectors: rng.next_u32(),
        };
        assert_eq!(Superblock::decode(&sb.encode()), Some(sb));
    }
}

/// Transport segments round-trip, and the parser rejects any truncation.
#[test]
fn segment_roundtrip_and_truncation() {
    let mut rng = rng_for("segment-roundtrip");
    for _ in 0..CASES {
        let s = Segment {
            flags: rng.next_u32() as u8,
            conn: rng.next_u32() as u16,
            seq: rng.next_u32(),
            ack: rng.next_u32(),
            payload: {
                let len = rng.range_usize(0..1460);
                random_bytes(&mut rng, len)
            },
        };
        let wire = s.encode();
        let cut = rng.range_usize(1..14);
        assert_eq!(Segment::parse(&wire[..wire.len() - cut]), None);
        assert_eq!(Segment::from_frame(wire), Ok(s));
    }
}

/// Download content is a pure function of (seed, offset): any split
/// reassembles identically.
#[test]
fn stream_chunk_split_invariant() {
    let mut rng = rng_for("stream-chunk-split");
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let offset = rng.range_u64(0..10_000);
        let len = rng.range_usize(1..512);
        let whole = stream_chunk(seed, offset, len);
        let split = rng.range_usize(0..len + 1);
        let mut parts = stream_chunk(seed, offset, split);
        parts.extend(stream_chunk(seed, offset + split as u64, len - split));
        assert_eq!(parts, whole);
    }
}

/// The policy parser never panics on arbitrary input: pure noise, and
/// noise assembled from policy-like tokens (to reach deeper parse paths).
#[test]
fn policy_parser_total() {
    let mut rng = rng_for("policy-parser-total");
    for _ in 0..CASES {
        let len = rng.range_usize(0..200);
        let noise: String = (0..len)
            .map(|_| char::from(rng.range_u64(0x20..0x7f) as u8))
            .collect();
        let _ = PolicyScript::parse(&noise);
    }
    let tokens = [
        "component",
        "reason",
        "repetition",
        "restart",
        "backoff(",
        ")",
        "(",
        "==",
        "<",
        ">",
        "if",
        "else",
        "{",
        "}",
        "\"x\"",
        "250ms",
        "1s",
        "zz",
        ";",
        " ",
        "\n",
        "alert",
        "log",
    ];
    for _ in 0..CASES {
        let len = rng.range_usize(0..40);
        let soup: String = (0..len).map(|_| *rng.pick(&tokens)).collect();
        let _ = PolicyScript::parse(&soup);
    }
}

/// A well-formed conditional policy always terminates and produces a
/// decision whose backoff grows monotonically with the failure count.
#[test]
fn policy_backoff_monotone() {
    let mut rng = rng_for("policy-backoff-monotone");
    for _ in 0..CASES {
        let mut reps: Vec<u32> = (0..rng.range_usize(2..10))
            .map(|_| rng.range_u64(1..40) as u32)
            .collect();
        reps.sort_unstable();
        let p = PolicyScript::generic();
        let mut last = None;
        for rep in reps {
            let d = p.run(&PolicyInput {
                component: "x".into(),
                reason: phoenix_servers::policy::reason::EXIT,
                repetition: rep,
                params: vec![],
                backoff_base: None,
                backoff_cap: None,
            });
            assert!(d.restart);
            if let Some(prev) = last {
                assert!(d.delay >= prev);
            }
            last = Some(d.delay);
        }
    }
}
