//! The fault VM's fused byte-sum loop against the step loop it replaced.
//!
//! `reference` below is `Vm::run` as it was before the fusion: every
//! instruction one step. It is the specification: `Vm::run` must leave
//! the same `Outcome`, registers and memory on every (program, input)
//! pair tried here.
//!
//! * **Programs.** Each of the four driver routines, padded by
//!   `with_cold_section` as the drivers pad them, with every word mutated
//!   in turn by each of its 32 bit flips, each of the 8 source and 8
//!   destination register rewrites, the NOP elision and, on a branch, the
//!   inverted condition; then `RANDOM_PROGRAMS` seeded programs of one to
//!   four `apply_fault` calls on a routine.
//! * **Inputs.** Checksum lengths 0, 1, 16, 64 and 1,514 (the write
//!   routine also 7,141 and 7,142, either side of its step budget); gas
//!   at exactly the end of the loop and one step less; a last load one
//!   byte past memory; registers the routine does not set holding values
//!   that wrap `u32` when used as a base.
//! * **Every register assignment** of a bare loop, over inputs whose
//!   base wraps, whose loads run past memory and whose displacement is
//!   large.
//!
//! The matcher is held to its own spec, a `decode`-based recount, on
//! every word of every enumerated program, and on every register
//! assignment of the bare loop.
//!
//! A driver runs its routine on the one VM its `GuardedRoutine` keeps,
//! reset before every run; every single-word mutant is also run there,
//! after a run that left the VM dirty at a larger or a smaller memory
//! size, and must leave what a run on a fresh `Vm::new` leaves.
//!
//! `cargo test --release` (as `ci.sh` runs it) takes every program and
//! prints the run count; an unoptimised build takes every `STRIDE`-th so
//! that tier-1 stays within seconds.

use std::time::Instant;

use phoenix_drivers::libdriver::{GuardedRoutine, GAS_LIMIT};
use phoenix_drivers::routines::{self, reg};
use phoenix_fault::isa::{decode, encode, Instr, Reg, NUM_REGS};
use phoenix_fault::mutate::{apply_fault, ALL_FAULT_TYPES};
use phoenix_fault::vm::{byte_sum_loop, ByteSumLoop, Outcome, Trap, Vm};
use phoenix_simcore::rng::SimRng;

/// Every `STRIDE`-th program runs in an unoptimised build.
const STRIDE: usize = if cfg!(debug_assertions) { 97 } else { 1 };
/// Seeded random programs of one to four faults.
const RANDOM_PROGRAMS: usize = 10_000;
/// The drivers' cold-section factor.
const COLD_COPIES: usize = 30;

/// `Vm::run` before the fusion, with `at(pc, steps)` called before each
/// instruction.
fn reference(
    vm: &mut Vm,
    program: &[u32],
    max_steps: u64,
    mut at: impl FnMut(usize, u64),
) -> Outcome {
    let mut pc = 0usize;
    let mut steps = 0u64;
    loop {
        if steps >= max_steps {
            return Outcome::OutOfGas;
        }
        let Some(&word) = program.get(pc) else {
            return Outcome::Trapped {
                trap: Trap::BadJump,
                pc,
            };
        };
        at(pc, steps);
        steps += 1;
        let fault = |trap| Outcome::Trapped { trap, pc };
        let mut next = pc + 1;
        let r = &mut vm.regs;
        match decode(word) {
            Instr::Nop => {}
            Instr::MovImm(d, imm) => r[d as usize] = u32::from(imm),
            Instr::Mov(d, s) => r[d as usize] = r[s as usize],
            Instr::Add(d, s) => r[d as usize] = r[d as usize].wrapping_add(r[s as usize]),
            Instr::AddImm(d, imm) => r[d as usize] = r[d as usize].wrapping_add(u32::from(imm)),
            Instr::Sub(d, s) => r[d as usize] = r[d as usize].wrapping_sub(r[s as usize]),
            Instr::Mul(d, s) => r[d as usize] = r[d as usize].wrapping_mul(r[s as usize]),
            Instr::Div(d, s) => {
                if r[s as usize] == 0 {
                    return fault(Trap::DivideByZero);
                }
                r[d as usize] /= r[s as usize];
            }
            Instr::And(d, s) => r[d as usize] &= r[s as usize],
            Instr::Or(d, s) => r[d as usize] |= r[s as usize],
            Instr::Xor(d, s) => r[d as usize] ^= r[s as usize],
            Instr::Shl(d, imm) => r[d as usize] = r[d as usize].wrapping_shl(u32::from(imm)),
            Instr::Shr(d, imm) => r[d as usize] = r[d as usize].wrapping_shr(u32::from(imm)),
            Instr::Load(d, s, imm) => {
                let addr = r[s as usize].wrapping_add(u32::from(imm));
                if !addr.is_multiple_of(4) {
                    return fault(Trap::Alignment);
                }
                let a = addr as usize;
                let Some(b) = vm.mem.get(a..a + 4) else {
                    return fault(Trap::MemoryFault);
                };
                r[d as usize] = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
            Instr::Store(d, s, imm) => {
                let addr = r[d as usize].wrapping_add(u32::from(imm));
                if !addr.is_multiple_of(4) {
                    return fault(Trap::Alignment);
                }
                let a = addr as usize;
                let v = r[s as usize];
                let Some(slot) = vm.mem.get_mut(a..a + 4) else {
                    return fault(Trap::MemoryFault);
                };
                slot.copy_from_slice(&v.to_le_bytes());
            }
            Instr::LoadB(d, s, imm) => {
                let addr = r[s as usize].wrapping_add(u32::from(imm)) as usize;
                match vm.mem.get(addr) {
                    Some(&b) => r[d as usize] = u32::from(b),
                    None => return fault(Trap::MemoryFault),
                }
            }
            Instr::StoreB(d, s, imm) => {
                let addr = r[d as usize].wrapping_add(u32::from(imm)) as usize;
                let v = r[s as usize] as u8;
                match vm.mem.get_mut(addr) {
                    Some(b) => *b = v,
                    None => return fault(Trap::MemoryFault),
                }
            }
            Instr::Jmp(t) => next = usize::from(t),
            Instr::Jz(s, t) => {
                if r[s as usize] == 0 {
                    next = usize::from(t);
                }
            }
            Instr::Jnz(s, t) => {
                if r[s as usize] != 0 {
                    next = usize::from(t);
                }
            }
            Instr::Jlt(d, s, t) => {
                if r[d as usize] < r[s as usize] {
                    next = usize::from(t);
                }
            }
            Instr::Jge(d, s, t) => {
                if r[d as usize] >= r[s as usize] {
                    next = usize::from(t);
                }
            }
            Instr::Assert(s) => {
                if r[s as usize] == 0 {
                    return fault(Trap::Assert);
                }
            }
            Instr::Halt => return Outcome::Halted { steps },
            Instr::Invalid(_) => return fault(Trap::IllegalInstruction),
        }
        pc = next;
    }
}

/// The matcher's spec: the seven words decoded, then the register guards.
fn spec_match(program: &[u32], pc: usize) -> Option<ByteSumLoop> {
    use Instr::{Add, AddImm, Jge, Jmp, LoadB, Mov};
    let words = program.get(pc..pc + 7)?;
    let decoded: [Instr; 7] = std::array::from_fn(|k| decode(words[k]));
    let found = match decoded {
        [Jge(i, n, exit), Mov(x, b), Add(x2, i2), LoadB(y, x3, imm), Add(acc, y2), AddImm(i3, 1), Jmp(back)]
            if x2 == x && x3 == x && i2 == i && i3 == i && y2 == y && usize::from(back) == pc =>
        {
            ByteSumLoop {
                i,
                n,
                b,
                x,
                y,
                acc,
                imm,
                exit: usize::from(exit),
            }
        }
        _ => return None,
    };
    let ByteSumLoop {
        i, n, b, x, y, acc, ..
    } = found;
    let roles = [i, n, b, x, acc];
    let distinct = roles
        .iter()
        .enumerate()
        .all(|(k, r)| !roles[k + 1..].contains(r));
    let y_free = ![i, n, b, acc].contains(&y);
    (distinct && y_free).then_some(found)
}

/// One input: registers, memory and gas.
#[derive(Clone)]
struct Input {
    regs: [u32; NUM_REGS],
    mem: Vec<u8>,
    gas: u64,
}

impl Input {
    fn run_both(&self, program: &[u32]) -> Result<(), String> {
        let fresh = || {
            let mut vm = Vm::new(0);
            vm.regs = self.regs;
            vm.mem = self.mem.clone();
            vm
        };
        let (mut want, mut got) = (fresh(), fresh());
        let expected = reference(&mut want, program, self.gas, |_, _| {});
        let outcome = got.run(program, self.gas);
        if (outcome, got.regs) != (expected, want.regs) || got.mem != want.mem {
            return Err(format!(
                "{outcome:?} {:?} / stepping {expected:?} {:?}, memory equal: {}",
                got.regs,
                want.regs,
                got.mem == want.mem
            ));
        }
        Ok(())
    }
}

/// A driver routine and how its driver sets it up for a payload of `len`.
struct Routine {
    name: &'static str,
    hot: Vec<u32>,
    lengths: &'static [usize],
    setup: fn(usize, &mut SimRng) -> Input,
}

fn payload(len: usize, rng: &mut SimRng) -> Vec<u8> {
    let mut bytes = vec![0; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn input(regs: &[(Reg, usize)], mem: Vec<u8>) -> Input {
    let mut r = [0; NUM_REGS];
    for &(k, v) in regs {
        r[k as usize] = v as u32;
    }
    Input {
        regs: r,
        mem,
        gas: GAS_LIMIT,
    }
}

fn routines() -> [Routine; 4] {
    [
        Routine {
            name: "char_write",
            hot: routines::char_write(),
            lengths: &[0, 1, 16, 64, 1514, 7141, 7142],
            setup: |len, rng| {
                let mut mem = payload(len, rng);
                mem.resize(len.max(16) + 16, 0);
                input(&[(reg::A0, len)], mem)
            },
        },
        Routine {
            name: "net_tx",
            hot: routines::net_tx(),
            lengths: &[0, 1, 16, 64, 1514],
            setup: |len, rng| {
                let mut mem = payload(len, rng);
                mem.resize(1518 + 16, 0);
                input(&[(reg::A0, len.max(1)), (reg::A1, len)], mem)
            },
        },
        Routine {
            name: "net_rx",
            hot: routines::net_rx(),
            lengths: &[0, 1, 16, 64, 1514],
            setup: |len, rng| {
                let mut mem = vec![1, 7, 0, 0];
                mem.extend(payload(len, rng));
                mem.resize(4 + 1518 + 16, 0);
                input(&[(reg::A0, len.max(1)), (reg::A1, len)], mem)
            },
        },
        Routine {
            name: "disk_request",
            hot: routines::disk_request(),
            // The descriptor is always 16 bytes: `len` is the sector count.
            lengths: &[0, 1, 16, 64, 256],
            setup: |len, rng| {
                let mut mem = payload(16, rng);
                mem.resize(64, 0);
                input(&[(reg::A0, 100), (reg::A1, len), (reg::A2, 4096)], mem)
            },
        },
    ]
}

/// The steps a pristine run takes to reach its loop head, and the
/// registers it has there.
fn at_head(program: &[u32], head: usize, input: &Input) -> (u64, [u32; NUM_REGS]) {
    let run = |gas| {
        let mut vm = Vm::new(0);
        vm.regs = input.regs;
        vm.mem = input.mem.clone();
        let mut first = None;
        reference(&mut vm, program, gas, |pc, steps| {
            if pc == head && first.is_none() {
                first = Some(steps);
            }
        });
        (
            first.expect("the pristine routine reaches its loop"),
            vm.regs,
        )
    };
    let (s0, _) = run(input.gas);
    // A run of `s0 + 1` steps ends on the head's `Jge`, which writes no
    // register.
    (s0, run(s0 + 1).1)
}

/// The inputs every program of `r` runs on.
fn inputs(r: &Routine, program: &[u32]) -> Vec<Input> {
    let mut rng = SimRng::new(2007).fork(r.name);
    let mut all: Vec<Input> = r
        .lengths
        .iter()
        .map(|&len| (r.setup)(len, &mut rng))
        .collect();
    let base = (r.setup)(64, &mut rng);
    let head = (0..program.len())
        .find(|&pc| byte_sum_loop(program, pc).is_some())
        .expect("one loop head");
    let l = byte_sum_loop(program, head).unwrap();
    let (s0, regs) = at_head(program, head, &base);
    let (i, n) = (regs[l.i as usize], regs[l.n as usize]);
    let k = u64::from(n - i);
    for gas in [s0 + 7 * k + 1, s0 + 7 * k] {
        all.push(Input {
            gas,
            ..base.clone()
        });
    }
    // The last load one byte past memory: the loop reads `[start, start + k)`.
    let start = (regs[l.b as usize] + i) as usize + usize::from(l.imm);
    let mut short = base.clone();
    short.mem.truncate(start + k as usize - 1);
    all.push(short);
    // Registers the routine does not set hold values that wrap as a base.
    let mut junk = base;
    for (r, v) in junk.regs.iter_mut().enumerate() {
        if *v == 0 {
            *v = u32::MAX - r as u32;
        }
    }
    all.push(junk);
    all
}

/// Every mutant of word `w` the enumeration tries, `w` itself excluded:
/// bit flips, source and destination rewrites, NOP elision and the
/// inverted condition.
fn word_mutants(w: u32) -> Vec<u32> {
    let mut out: Vec<u32> = (0..32).map(|bit| w ^ 1 << bit).collect();
    out.extend((0..8).map(|s| (w & !(0x7 << 20)) | s << 20));
    out.extend((0..8).map(|d| (w & !(0x7 << 23)) | d << 23));
    out.push(encode(Instr::Nop));
    let inverted = match decode(w) {
        Instr::Jz(s, t) => Some(Instr::Jnz(s, t)),
        Instr::Jnz(s, t) => Some(Instr::Jz(s, t)),
        Instr::Jlt(d, s, t) => Some(Instr::Jge(d, s, t)),
        Instr::Jge(d, s, t) => Some(Instr::Jlt(d, s, t)),
        _ => None,
    };
    out.extend(inverted.map(encode));
    out.sort_unstable();
    out.dedup();
    out.retain(|&m| m != w);
    out
}

/// Runs `program` on every input; panics on the first difference.
fn check(name: &str, program: &[u32], inputs: &[Input], what: impl Fn() -> String) -> usize {
    for (k, input) in inputs.iter().enumerate() {
        if let Err(diff) = input.run_both(program) {
            panic!("{name}, {}, input {k}: {diff}", what());
        }
    }
    inputs.len()
}

#[test]
fn every_single_word_mutant_of_every_routine_runs_as_it_steps() {
    let t0 = Instant::now();
    let (mut runs, mut programs, mut seen) = (0, 0, 0usize);
    for r in routines() {
        let pristine = routines::with_cold_section(r.hot.clone(), COLD_COPIES);
        let inputs = inputs(&r, &pristine);
        runs += check(r.name, &pristine, &inputs, || "pristine".into());
        programs += 1;
        let mut program = pristine.clone();
        for (idx, &w) in pristine.iter().enumerate() {
            for m in word_mutants(w) {
                seen += 1;
                if seen % STRIDE != 0 {
                    continue;
                }
                program[idx] = m;
                for pc in idx.saturating_sub(6)..=idx {
                    assert_eq!(byte_sum_loop(&program, pc), spec_match(&program, pc));
                }
                runs += check(r.name, &program, &inputs, || {
                    format!("word {idx} = {m:#010x}")
                });
                programs += 1;
            }
            program[idx] = w;
        }
    }
    println!(
        "differential {runs} runs, {programs} single-word programs, 0 mismatches, wall {:.2} s",
        t0.elapsed().as_secs_f64()
    );
}

/// What a driver's setup writes for `input`: its nonzero registers and
/// bytes only, so every zero the run reads must come from the reset.
fn driver_setup(input: &Input) -> impl Fn(&mut Vm) + '_ {
    |vm| {
        for (r, &v) in vm.regs.iter_mut().zip(&input.regs) {
            if v != 0 {
                *r = v;
            }
        }
        for (m, &b) in vm.mem.iter_mut().zip(&input.mem) {
            if b != 0 {
                *m = b;
            }
        }
    }
}

#[test]
fn a_reused_vm_runs_every_single_word_mutant_as_a_fresh_one() {
    let t0 = Instant::now();
    let (mut runs, mut seen) = (0, 0usize);
    for r in routines() {
        let pristine = routines::with_cold_section(r.hot.clone(), COLD_COPIES);
        let inputs = inputs(&r, &pristine);
        let mut routine = GuardedRoutine::new(&pristine);
        let live = routine.live();
        for (idx, &w) in pristine.iter().enumerate() {
            for m in word_mutants(w) {
                seen += 1;
                if seen % STRIDE != 0 {
                    continue;
                }
                live.borrow_mut()[idx] = m;
                let program = live.borrow().clone();
                for (k, input) in inputs.iter().enumerate() {
                    let size = input.mem.len();
                    // The run before leaves junk everywhere, its memory
                    // larger than this run's for even `k`, smaller for odd.
                    let dirty = if k % 2 == 0 { size + 37 } else { size / 2 };
                    let _ = routine.outcome(dirty, |vm| {
                        vm.regs = [0xA5A5_A5A5; NUM_REGS];
                        vm.mem.fill(0xA5);
                    });
                    let (outcome, reused) = routine.outcome(size, driver_setup(input));
                    let mut fresh = Vm::new(size);
                    driver_setup(input)(&mut fresh);
                    let expected = fresh.run(&program, GAS_LIMIT);
                    assert!(
                        (outcome, reused.regs) == (expected, fresh.regs) && reused.mem == fresh.mem,
                        "{}, word {idx} = {m:#010x}, input {k}: reused {outcome:?} {:?} / \
                         fresh {expected:?} {:?}, memory equal: {}",
                        r.name,
                        reused.regs,
                        fresh.regs,
                        reused.mem == fresh.mem
                    );
                    runs += 1;
                }
            }
            live.borrow_mut()[idx] = w;
        }
    }
    println!(
        "differential {runs} runs on a reused VM against a fresh one, 0 mismatches, wall {:.2} s",
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn seeded_multi_fault_programs_run_as_they_step() {
    let t0 = Instant::now();
    let routines = routines();
    let padded: Vec<Vec<u32>> = routines
        .iter()
        .map(|r| routines::with_cold_section(r.hot.clone(), COLD_COPIES))
        .collect();
    let inputs: Vec<Vec<Input>> = routines
        .iter()
        .zip(&padded)
        .map(|(r, p)| inputs(r, p))
        .collect();
    let mut rng = SimRng::new(1907);
    let mut runs = 0;
    for n in 0..RANDOM_PROGRAMS {
        let which = n % routines.len();
        let mut program = padded[which].clone();
        let faults: Vec<_> = (0..rng.range_usize(1..5))
            .filter_map(|_| apply_fault(&mut program, *rng.pick(&ALL_FAULT_TYPES), &mut rng))
            .collect();
        if n % STRIDE != 0 {
            continue;
        }
        let name = routines[which].name;
        runs += check(name, &program, &inputs[which], || format!("{faults:?}"));
    }
    println!(
        "differential {runs} runs, {} multi-fault programs, 0 mismatches, wall {:.2} s",
        RANDOM_PROGRAMS.div_ceil(STRIDE),
        t0.elapsed().as_secs_f64()
    );
}

/// The bare loop over registers `[i, n, b, x, y, acc]`, displacement
/// `imm`, its head at 0 and its exit a `Halt` at 7.
fn bare_loop([i, n, b, x, y, acc]: [Reg; 6], imm: u16) -> Vec<u32> {
    [
        Instr::Jge(i, n, 7),
        Instr::Mov(x, b),
        Instr::Add(x, i),
        Instr::LoadB(y, x, imm),
        Instr::Add(acc, y),
        Instr::AddImm(i, 1),
        Instr::Jmp(0),
        Instr::Halt,
    ]
    .map(encode)
    .to_vec()
}

#[test]
fn every_register_assignment_of_the_bare_loop_runs_as_it_steps() {
    let t0 = Instant::now();
    let mut rng = SimRng::new(36);
    let mem = payload(48, &mut rng);
    // (first index, end, base, displacement, memory size): in range; a
    // base that wraps back to 0; one that wraps out of range; a last load
    // one byte past memory; a displacement past memory.
    let cases: [(u32, u32, u32, u16, usize); 5] = [
        (2, 40, 3, 1, 48),
        (1, 30, u32::MAX, 0, 48),
        (0, 8, u32::MAX - 3, 0, 48),
        (5, 41, 7, 0, 47),
        (0, 4, 0, 0xFFFF, 48),
    ];
    let (mut runs, mut accepted, mut seen) = (0, 0, 0usize);
    for code in 0..8u32.pow(6) {
        let roles: [Reg; 6] = std::array::from_fn(|k| ((code >> (3 * k)) & 7) as Reg);
        accepted += usize::from(byte_sum_loop(&bare_loop(roles, 0), 0).is_some());
        for &(first, end, base, imm, size) in &cases {
            let program = bare_loop(roles, imm);
            assert_eq!(
                byte_sum_loop(&program, 0),
                spec_match(&program, 0),
                "{roles:?}"
            );
            seen += 1;
            if seen % STRIDE != 0 {
                continue;
            }
            let [i, n, b, x, y, acc] = roles;
            let mut regs = [0xA5A5_0000; NUM_REGS];
            for (r, v) in [
                (x, 9),
                (y, 11),
                (acc, 1000),
                (b, base),
                (n, end),
                (i, first),
            ] {
                regs[r as usize] = v;
            }
            let cost = 7 * u64::from(end - first);
            for gas in [100, cost, cost + 1, 1_000] {
                let input = Input {
                    regs,
                    mem: mem[..size].to_vec(),
                    gas,
                };
                if let Err(diff) = input.run_both(&program) {
                    panic!("{roles:?} base {base:#x} imm {imm} gas {gas}: {diff}");
                }
                runs += 1;
            }
        }
    }
    // i, n, b, x, acc distinct (8·7·6·5·4), y any of the other 4 or x.
    assert_eq!(accepted, 8 * 7 * 6 * 5 * 4 * 4);
    println!(
        "differential {runs} runs, every bare-loop register assignment, 0 mismatches, wall {:.2} s",
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn each_pristine_routine_has_exactly_one_fused_loop_head() {
    for r in routines() {
        for program in [
            r.hot.clone(),
            routines::with_cold_section(r.hot.clone(), COLD_COPIES),
        ] {
            let heads: Vec<usize> = (0..program.len())
                .filter(|&pc| byte_sum_loop(&program, pc).is_some())
                .collect();
            assert_eq!(heads.len(), 1, "{}: {heads:?}", r.name);
            assert!(heads[0] < r.hot.len(), "{}: the head is hot code", r.name);
        }
    }
}

#[test]
fn the_matcher_refuses_each_alias_that_changes_what_an_iteration_reads() {
    use reg::{A0, A1, RES, T0, T1, T2};
    // char_write's loop: i = T0, n = A0, b = A1, x = T1, y = T2, acc = RES.
    let roles = [T0, A0, A1, T1, T2, RES];
    assert!(byte_sum_loop(&bare_loop(roles, 0), 0).is_some());
    // y == x is the disk routine's shape: the load overwrites the address.
    assert!(byte_sum_loop(&bare_loop([T0, A0, A1, T1, T1, RES], 0), 0).is_some());
    let aliases: [(&str, [Reg; 6]); 10] = [
        ("acc == i", [T0, A0, A1, T1, T2, T0]),
        ("acc == n", [T0, A0, A1, T1, T2, A0]),
        ("acc == b", [T0, A0, A1, T1, T2, A1]),
        ("x == b", [T0, A0, A1, A1, T2, RES]),
        ("x == i", [T0, A0, A1, T0, T2, RES]),
        ("x == acc", [T0, A0, A1, RES, T2, RES]),
        ("y == n", [T0, A0, A1, T1, A0, RES]),
        ("y == i", [T0, A0, A1, T1, T0, RES]),
        ("y == b", [T0, A0, A1, T1, A1, RES]),
        ("y == acc", [T0, A0, A1, T1, RES, RES]),
    ];
    for (what, roles) in aliases {
        assert_eq!(byte_sum_loop(&bare_loop(roles, 0), 0), None, "{what}");
    }
    // The back edge must return to the head, and the step must be one.
    let mut program = bare_loop(roles, 0);
    program[6] = encode(Instr::Jmp(1));
    assert_eq!(byte_sum_loop(&program, 0), None, "back edge elsewhere");
    let mut program = bare_loop(roles, 0);
    program[5] = encode(Instr::AddImm(T0, 2));
    assert_eq!(byte_sum_loop(&program, 0), None, "stride 2");
    // Bits `decode` ignores do not matter to the matcher either.
    let mut program = bare_loop(roles, 0);
    program[1] |= 0x1234;
    program[6] |= 0x7 << 20;
    assert_eq!(byte_sum_loop(&program, 0), spec_match(&program, 0));
    assert!(byte_sum_loop(&program, 0).is_some());
}
