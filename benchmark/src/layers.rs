//! The per-layer microbenchmarks: every layer measured from outside, by
//! timing calls into its public functions.  Each figure is the median
//! of several repetitions after one discarded repetition; where a
//! comparator exists both sides run in the same repetition (same-run
//! A/B), never against a recorded constant.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

use collectives::{analytic, Group};
use dense::{gen, kernel, BlockGrid, Matrix};
use gemmd::frontend::Frontend;
use gemmd::{right_size, Config, PartitionManager, Scheduler, SizingMode};
use mmsim::{CostModel, EngineKind, FaultPlan, Machine, Payload, Ports, Proc, Topology};
use model::{Algorithm, MachineParams};
use parmm::Advisor;

use crate::span::Tracer;
use crate::stats;
use crate::workloads::serve::{Client, Server};
use crate::workloads::{gemmd_trace, sim, PassWorkload, RunParams};

/// How much time the suite may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// `--smoke`: one repetition, nothing discarded; checks that every
    /// figure can be produced, not what it is.
    Smoke,
    /// Inside a driver run: about 15 ms and three repetitions a metric,
    /// one repetition of the heavy ones.
    Quick,
    /// The ledger's own pass: up to 0.3 s and at least five repetitions.
    Full,
}

impl Effort {
    fn reps(self) -> usize {
        match self {
            Effort::Smoke => 1,
            Effort::Quick => 3,
            Effort::Full => 5,
        }
    }

    fn target(self) -> Duration {
        match self {
            Effort::Smoke => Duration::ZERO,
            Effort::Quick => Duration::from_millis(15),
            Effort::Full => Duration::from_millis(250),
        }
    }
}

/// Median of repeated measurements: one discarded repetition, then at
/// least `effort.reps()` and as many more as fit the time target.
fn sample(effort: Effort, mut f: impl FnMut() -> f64) -> f64 {
    if effort != Effort::Smoke {
        f();
    }
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < effort.reps() || (start.elapsed() < effort.target() && values.len() < 200)
    {
        values.push(f());
    }
    stats::median(&values)
}

/// As [`sample`] for repetitions that cost tens of milliseconds or
/// more: below [`Effort::Full`] a single repetition, nothing discarded.
fn sample_heavy(effort: Effort, mut f: impl FnMut() -> f64) -> f64 {
    let reps = match effort {
        Effort::Smoke | Effort::Quick => 1,
        Effort::Full => {
            f();
            5
        }
    };
    let values: Vec<f64> = (0..reps).map(|_| f()).collect();
    stats::median(&values)
}

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The suite's results: metric name → value (`None` = not measurable,
/// see the catalog's reason).
pub type Results = BTreeMap<String, Option<f64>>;

fn put(out: &mut Results, name: impl Into<String>, value: f64) {
    out.insert(name.into(), Some(value));
}

fn event(topology: Topology, cost: CostModel) -> Machine {
    Machine::new(topology, cost).with_engine(EngineKind::Event)
}

// ---------------------------------------------------------------- dense

fn dense_layer(effort: Effort, out: &mut Results) {
    for (bs, calls, name) in [(32usize, 400usize, "b32"), (128, 6, "b128")] {
        let (a, b) = gen::random_pair(bs, 7);
        let mut c = Matrix::zeros(bs, bs);
        let gflops = sample(effort, || {
            let s = secs(|| {
                for _ in 0..calls {
                    kernel::matmul_accumulate(&mut c, std::hint::black_box(&a), &b);
                }
            });
            std::hint::black_box(&c);
            2.0 * (bs * bs * bs * calls) as f64 / s / 1e9
        });
        put(out, format!("dense.kernel.gflops_{name}"), gflops);
    }
    let (a, b) = gen::random_pair(128, 7);
    let ratio = sample(effort, || {
        let fast = secs(|| {
            std::hint::black_box(kernel::matmul(std::hint::black_box(&a), &b));
        });
        let naive = secs(|| {
            std::hint::black_box(kernel::matmul_naive(std::hint::black_box(&a), &b));
        });
        naive / fast
    });
    put(out, "dense.kernel.vs_naive_ratio_b128", ratio);

    let m = gen::random(512, 512, 3);
    let per_word = sample(effort, || {
        secs(|| {
            let grid = BlockGrid::split(std::hint::black_box(&m), 8, 8);
            std::hint::black_box(grid.assemble());
        }) * 1e9
            / (512.0 * 512.0)
    });
    put(out, "dense.block.split_assemble_ns_per_word", per_word);

    let mut seed = 0u64;
    let per_word = sample(effort, || {
        seed += 1;
        secs(|| {
            std::hint::black_box(gen::random_pair(256, seed));
        }) * 1e9
            / (2.0 * 256.0 * 256.0)
    });
    put(out, "dense.gen.random_ns_per_word", per_word);
}

// ---------------------------------------------------------------- mmsim

fn empty_run_us(machine: &Machine) -> f64 {
    secs(|| {
        std::hint::black_box(machine.run(|proc| proc.rank()));
    }) * 1e6
}

/// `rounds` of everyone-sends-right, everyone-receives-left.
fn ring_ns_per_msg(machine: &Machine, rounds: u32) -> f64 {
    let p = machine.p();
    let s = secs(|| {
        machine.run(|proc| {
            let right = (proc.rank() + 1) % p;
            let left = (proc.rank() + p - 1) % p;
            for r in 0..rounds {
                proc.send(right, u64::from(r), vec![1.0]);
                proc.recv(left, u64::from(r));
            }
        });
    });
    s * 1e9 / (f64::from(rounds) * p as f64)
}

/// One-word ping-pong between two ranks: on the event engine every
/// message is two fiber switches.
fn pingpong_ns(machine: &Machine, trips: u32, reliable: bool) -> f64 {
    let s = secs(|| {
        machine.run(|proc| {
            let peer = 1 - proc.rank();
            for _ in 0..trips {
                if proc.rank() == 0 {
                    send(proc, peer, reliable);
                    recv(proc, peer, reliable);
                } else {
                    recv(proc, peer, reliable);
                    send(proc, peer, reliable);
                }
            }
        });
    });
    s * 1e9 / (2.0 * f64::from(trips))
}

fn send(proc: &mut Proc, dst: usize, reliable: bool) {
    if reliable {
        proc.send_reliable(dst, 7, vec![1.0]);
    } else {
        proc.send(dst, 7, vec![1.0]);
    }
}

fn recv(proc: &mut Proc, src: usize, reliable: bool) {
    if reliable {
        proc.recv_reliable(src, 7);
    } else {
        proc.recv(src, 7);
    }
}

fn mmsim_layer(effort: Effort, out: &mut Results) {
    let cm5 = CostModel::cm5();
    for p in [64usize, 512] {
        let m = Machine::new(Topology::fully_connected(p), cm5);
        put(
            out,
            format!("mmsim.run.empty_us_threaded_p{p}"),
            sample(effort, || empty_run_us(&m)),
        );
    }
    for p in [64usize, 512, 4096] {
        let m = event(Topology::fully_connected(p), cm5);
        put(
            out,
            format!("mmsim.run.empty_us_event_p{p}"),
            sample(effort, || empty_run_us(&m)),
        );
    }

    let cube = Machine::new(Topology::hypercube(6), CostModel::ncube2());
    let ranks: Vec<usize> = (16..32).collect();
    put(
        out,
        "mmsim.machine.partition_us_p64",
        sample(effort, || {
            secs(|| {
                for _ in 0..100 {
                    std::hint::black_box(cube.partition(std::hint::black_box(&ranks)));
                }
            }) * 1e6
                / 100.0
        }),
    );

    // One figure point with and without the engine's own timeline.
    let (a, b) = gen::random_pair(48, 5);
    let plain = event(Topology::fully_connected(64), cm5);
    let traced = plain.clone().with_trace();
    put(
        out,
        "mmsim.trace.on_off_ratio",
        sample(effort, || {
            let off = secs(|| {
                std::hint::black_box(algos::cannon(&plain, &a, &b).expect("admissible"));
            });
            let on = secs(|| {
                std::hint::black_box(algos::cannon(&traced, &a, &b).expect("admissible"));
            });
            on / off
        }),
    );

    let two = |engine| Machine::new(Topology::fully_connected(2), cm5).with_engine(engine);
    for (name, engine, trips) in [
        ("threaded", EngineKind::Threaded, 400u32),
        ("event", EngineKind::Event, 4000),
    ] {
        let m = two(engine);
        put(
            out,
            format!("mmsim.proc.pingpong_ns_{name}"),
            sample(effort, || pingpong_ns(&m, trips, false)),
        );
        put(
            out,
            format!("mmsim.proc.reliable_pingpong_ns_{name}"),
            sample(effort, || pingpong_ns(&m, trips, true)),
        );
    }
    // A third of the attempts dropped: host cost per transmission
    // attempt (first tries and retries alike) on the reliable path.
    let lossy = two(EngineKind::Event)
        .with_fault_plan(FaultPlan::new(11).with_drop_rate(0.3).with_max_attempts(64));
    put(
        out,
        "mmsim.proc.reliable_retry_ns",
        sample(effort, || {
            let mut attempts = 0u64;
            let s = secs(|| {
                let report = lossy.run(|proc| {
                    let peer = 1 - proc.rank();
                    for _ in 0..1000 {
                        if proc.rank() == 0 {
                            send(proc, peer, true);
                            recv(proc, peer, true);
                        } else {
                            recv(proc, peer, true);
                            send(proc, peer, true);
                        }
                    }
                });
                attempts = report.total_messages() + report.total_retransmissions();
            });
            s * 1e9 / attempts.max(1) as f64
        }),
    );

    for p in [64usize, 512] {
        let m = Machine::new(Topology::fully_connected(p), cm5);
        put(
            out,
            format!("mmsim.proc.ring_ns_per_msg_threaded_p{p}"),
            sample_heavy(effort, || ring_ns_per_msg(&m, 32)),
        );
    }
    for p in [64usize, 512, 1024, 4096] {
        let m = event(Topology::fully_connected(p), cm5);
        let name = format!("mmsim.proc.ring_ns_per_msg_event_p{p}");
        if p <= 512 {
            put(out, name, sample(effort, || ring_ns_per_msg(&m, 32)));
        } else {
            put(out, name, sample_heavy(effort, || ring_ns_per_msg(&m, 32)));
        }
    }

    // All-port batch: one `send_multi` to the six cube neighbours.
    let allport = event(Topology::hypercube(6), cm5.with_ports(Ports::All));
    put(
        out,
        "mmsim.proc.send_multi_ns_per_msg",
        sample(effort, || {
            let rounds = 16u32;
            secs(|| {
                allport.run(|proc| {
                    let me = proc.rank();
                    for r in 0..rounds {
                        let batch: Vec<(usize, u64, Vec<f64>)> = (0..6)
                            .map(|d| (me ^ (1 << d), u64::from(r), vec![1.0]))
                            .collect();
                        proc.send_multi(batch);
                        for d in 0..6 {
                            proc.recv(me ^ (1 << d), u64::from(r));
                        }
                    }
                });
            }) * 1e9
                / (64.0 * 6.0 * f64::from(rounds))
        }),
    );

    // A 64k-word block bounced between two ranks: the buffer moves,
    // `into_vec` on the unique handle is free, so this is ~0 unless a
    // copy sneaks in.
    let pair = two(EngineKind::Event);
    put(
        out,
        "mmsim.payload.send_ns_per_word_64k",
        sample(effort, || {
            let trips = 32u32;
            secs(|| {
                pair.run(|proc| {
                    let peer = 1 - proc.rank();
                    let mut block = (proc.rank() == 0).then(|| vec![0.5f64; 65_536]);
                    for _ in 0..trips {
                        if let Some(words) = block.take() {
                            proc.send(peer, 9, words);
                        }
                        block = Some(proc.recv_payload(peer, 9).into_vec());
                        if proc.rank() == 1 {
                            proc.send(peer, 9, block.take().expect("just received"));
                        }
                    }
                });
            }) * 1e9
                / (2.0 * f64::from(trips) * 65_536.0)
        }),
    );
    let fan = event(Topology::fully_connected(64), cm5);
    put(
        out,
        "mmsim.payload.fanout_ns_per_dst",
        sample(effort, || {
            let rounds = 16u32;
            secs(|| {
                fan.run(|proc| {
                    let buffer = Payload::from(vec![0.25f64; 4096]);
                    for r in 0..rounds {
                        if proc.rank() == 0 {
                            for dst in 1..proc.p() {
                                proc.send(dst, u64::from(r), buffer.clone());
                            }
                        } else {
                            std::hint::black_box(proc.recv_payload(0, u64::from(r)));
                        }
                    }
                });
            }) * 1e9
                / (63.0 * f64::from(rounds))
        }),
    );

    for (name, topo) in [
        ("hypercube", Topology::hypercube(12)),
        ("torus", Topology::torus(64, 64)),
        ("fat_tree", Topology::fat_tree(4, 6)),
    ] {
        let p = topo.p();
        put(
            out,
            format!("mmsim.topology.distance_ns_{name}"),
            sample(effort, || {
                let mut acc = 0usize;
                let s = secs(|| {
                    let mut x = 12345usize;
                    for _ in 0..20_000 {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        acc += topo.distance((x >> 20) % p, (x >> 40) % p);
                    }
                });
                std::hint::black_box(acc);
                s * 1e9 / 20_000.0
            }),
        );
    }
}

/// What the fresh child of [`scale4k_probe`] reports.
#[derive(Debug, Clone, Copy)]
pub struct Scale4kProbe {
    /// First `Machine::run` of an empty closure at p = 4096 in a fresh
    /// process: 4096 fiber stacks allocated and touched.
    pub first_us: f64,
    /// Median RSS growth between successive Cannon runs, MB.
    pub rss_growth_mb: f64,
    /// Median Cannon p = 4096 n = 64 run, ms.
    pub op_ms_p50: f64,
    /// Slowest such run, ms.
    pub op_ms_max: f64,
    /// Messages of one run.
    pub msgs: u64,
}

/// Body of the `--probe scale4k` child: measure first-run cost and RSS
/// growth in a process that has done nothing else, and print one line.
pub fn scale4k_child(runs: usize) {
    let me = std::process::id();
    let machine = event(Topology::square_torus_for(4096), CostModel::cm5());
    let first_us = empty_run_us(&machine);
    let (a, b) = gen::random_pair(64, 1);
    let mut rss = Vec::new();
    let mut ms = Vec::new();
    let mut msgs = 0;
    for _ in 0..runs {
        let t = Instant::now();
        let outcome = algos::cannon(&machine, &a, &b).expect("admissible");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        msgs = outcome.total_messages();
        rss.push(crate::procfs::rss_mb(me).unwrap_or(0.0));
    }
    // The first run also pays for touching fresh stacks; growth is read
    // between later runs.
    let growth: Vec<f64> = rss.windows(2).skip(1).map(|w| w[1] - w[0]).collect();
    let timed = &ms[1..];
    println!(
        "{first_us} {} {} {} {msgs}",
        stats::median(&growth),
        stats::median(timed),
        timed.iter().copied().fold(0.0, f64::max),
    );
}

/// Run [`scale4k_child`] in a fresh process of this executable.
///
/// # Errors
/// If the child cannot be run or prints something unexpected.
pub fn scale4k_probe(effort: Effort) -> Result<Scale4kProbe, String> {
    let runs = match effort {
        Effort::Smoke => "3",
        Effort::Quick => "4",
        Effort::Full => "9",
    };
    let output = crate::own_command()?
        .args(["--probe-scale4k", runs])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<f64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields[..] {
        [first_us, rss_growth_mb, op_ms_p50, op_ms_max, msgs] if output.status.success() => {
            Ok(Scale4kProbe {
                first_us,
                rss_growth_mb,
                op_ms_p50,
                op_ms_max,
                msgs: msgs as u64,
            })
        }
        _ => Err(format!(
            "scale4k probe printed {text:?} ({})",
            output.status
        )),
    }
}

// ---------------------------------------------------------- collectives

/// Words each member contributes at g = 64.
const WORDS: usize = 64;

type Op = fn(&mut Proc, &Group, u32);

/// A member's contribution: 64 words in the 64-member group, and one
/// word per 1024 members beyond that (an allgather of 64 words over
/// 1024 members would move half a gigabyte and time `memcpy`).
fn contribution(proc: &Proc) -> Vec<f64> {
    vec![
        proc.rank() as f64;
        if proc.p() > 64 {
            proc.p() / 1024
        } else {
            WORDS
        }
    ]
}

fn collective_ops() -> Vec<(&'static str, Op)> {
    vec![
        ("broadcast", |proc, g, ph| {
            let data = (g.my_idx() == 0).then(|| contribution(proc));
            std::hint::black_box(collectives::broadcast(proc, g, ph, 0, data));
        }),
        ("allgather_hypercube", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::allgather_hypercube(proc, g, ph, mine));
        }),
        ("allgather_ring", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::allgather_ring(proc, g, ph, mine));
        }),
        ("reduce_sum", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::reduce_sum(proc, g, ph, 0, mine));
        }),
        ("reduce_scatter_sum", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::reduce_scatter_sum(proc, g, ph, mine));
        }),
        ("all_reduce_sum", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::all_reduce_sum(proc, g, ph, mine));
        }),
        ("all_to_all_personalized", |proc, g, ph| {
            // One word to each member: g contributions of g words.
            let blocks: Vec<Vec<f64>> = (0..g.size()).map(|j| vec![j as f64]).collect();
            std::hint::black_box(collectives::all_to_all_personalized(proc, g, ph, blocks));
        }),
        ("barrier", |proc, g, ph| collectives::barrier(proc, g, ph)),
        ("scatter", |proc, g, ph| {
            let blocks = (g.my_idx() == 0).then(|| vec![contribution(proc); g.size()]);
            std::hint::black_box(collectives::scatter(proc, g, ph, 0, blocks));
        }),
        ("gather", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::gather(proc, g, ph, 0, mine));
        }),
        ("broadcast_reliable", |proc, g, ph| {
            let data = (g.my_idx() == 0).then(|| contribution(proc));
            std::hint::black_box(collectives::broadcast_reliable(proc, g, ph, 0, data));
        }),
        ("reduce_sum_reliable", |proc, g, ph| {
            let mine = contribution(proc);
            std::hint::black_box(collectives::reduce_sum_reliable(proc, g, ph, 0, mine));
        }),
        ("barrier_reliable", |proc, g, ph| {
            collectives::barrier_reliable(proc, g, ph)
        }),
    ]
}

/// Host ns per simulated message of `calls` back-to-back calls of `op`.
fn collective_ns_per_msg(machine: &Machine, op: Op, calls: u32) -> f64 {
    let mut msgs = 0u64;
    let s = secs(|| {
        let report = machine.run(|proc| {
            let world = Group::world(proc);
            for call in 0..calls {
                // `all_reduce_sum` takes two phases.
                op(proc, &world, 2 * call);
            }
        });
        msgs = report.total_messages();
    });
    s * 1e9 / msgs.max(1) as f64
}

fn collectives_layer(effort: Effort, out: &mut Results) {
    let cost = CostModel::ncube2();
    let small = event(Topology::fully_connected(64), cost);
    let large = event(Topology::fully_connected(1024), cost);
    for (name, op) in collective_ops() {
        put(
            out,
            format!("collectives.{name}.ns_per_msg_g64"),
            sample(effort, || collective_ns_per_msg(&small, op, 4)),
        );
        if ["broadcast", "allgather_hypercube", "reduce_sum"].contains(&name) {
            put(
                out,
                format!("collectives.{name}.ns_per_msg_g1024"),
                sample_heavy(effort, || collective_ns_per_msg(&large, op, 1)),
            );
        }
        if name == "all_to_all_personalized" {
            // A million one-word messages: one repetition is already
            // ~0.5 s of pure event-queue work.
            let reps = if effort == Effort::Full { 3 } else { 1 };
            let v: Vec<f64> = (0..reps)
                .map(|_| collective_ns_per_msg(&large, op, 1))
                .collect();
            put(
                out,
                format!("collectives.{name}.ns_per_msg_g1024"),
                stats::median(&v),
            );
        }
    }

    // Virtual time of one call against the closed forms.
    let (g, m, c) = (64usize, WORDS, cost);
    let expect: &[(&str, f64)] = &[
        ("broadcast", analytic::broadcast_time(g, m, c.t_s, c.t_w)),
        (
            "allgather_hypercube",
            analytic::allgather_hypercube_time(g, m, c.t_s, c.t_w),
        ),
        (
            "allgather_ring",
            analytic::allgather_ring_time(g, m, c.t_s, c.t_w),
        ),
        (
            "reduce_sum",
            analytic::reduce_time(g, m, c.t_s, c.t_w, c.t_add),
        ),
        (
            "reduce_scatter_sum",
            analytic::reduce_scatter_time(g, m, c.t_s, c.t_w, c.t_add),
        ),
        (
            "all_reduce_sum",
            analytic::all_reduce_time(g, m, c.t_s, c.t_w, c.t_add),
        ),
        (
            "all_to_all_personalized",
            analytic::all_to_all_personalized_time(g, 1, c.t_s, c.t_w),
        ),
        ("barrier", analytic::barrier_time(g, c.t_s)),
        ("scatter", analytic::scatter_time(g, m, c.t_s, c.t_w)),
        ("gather", analytic::gather_time(g, m, c.t_s, c.t_w)),
    ];
    let ops = collective_ops();
    let worst = expect
        .iter()
        .map(|&(name, formula)| {
            let op = ops
                .iter()
                .find(|(n, _)| *n == name)
                .expect("listed above")
                .1;
            let t = small
                .run(|proc| op(proc, &Group::world(proc), 0))
                .t_parallel;
            (t - formula).abs() / formula
        })
        .fold(0.0, f64::max);
    put(out, "collectives.virt_vs_analytic_max_rel", worst);
}

// ---------------------------------------------------------------- algos

type Entry = fn(&Machine, &Matrix, &Matrix) -> Result<algos::SimOutcome, algos::AlgoError>;

fn pipelined_packets(n: usize, p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    let words = (n / q) * (n / q);
    ((words as f64).sqrt().round() as usize).clamp(1, words)
}

/// Host ns per simulated message of one entry-point call.
fn algo_ns_per_msg(machine: &Machine, entry: Entry, a: &Matrix, b: &Matrix) -> f64 {
    let mut msgs = 0u64;
    let s = secs(|| {
        msgs = entry(machine, a, b)
            .expect("layer point is admissible")
            .total_messages();
    });
    s * 1e9 / msgs.max(1) as f64
}

fn algos_layer(effort: Effort, scale4k: Option<&Scale4kProbe>, out: &mut Results) {
    let cost = CostModel::ncube2();
    let fox_pipelined_64: Entry =
        |m, a, b| algos::fox_pipelined(m, a, b, pipelined_packets(32, 64));
    // (name, entry, n at p = 64, big (p, n))
    type Row = (&'static str, Entry, usize, Option<(usize, usize)>);
    let table: [Row; 7] = [
        ("simple", algos::simple, 32, Some((1024, 64))),
        ("cannon", algos::cannon, 32, Some((1024, 64))),
        ("fox_tree", algos::fox_tree, 32, Some((1024, 64))),
        ("fox_pipelined", fox_pipelined_64, 32, None),
        ("berntsen", algos::berntsen, 32, Some((512, 64))),
        ("dns_block", algos::dns_block, 4, Some((1024, 16))),
        ("gk", algos::gk, 32, Some((512, 64))),
    ];
    for (name, entry, n64, big) in table {
        let (a, b) = gen::random_pair(n64, 21);
        let m = event(Topology::hypercube(6), cost);
        put(
            out,
            format!("algos.{name}.ns_per_msg_p64"),
            sample(effort, || algo_ns_per_msg(&m, entry, &a, &b)),
        );
        if let Some((p, n)) = big {
            let (a, b) = gen::random_pair(n, 22);
            let m = event(Topology::hypercube_for(p), cost);
            put(
                out,
                format!("algos.{name}.ns_per_msg_big"),
                sample_heavy(effort, || algo_ns_per_msg(&m, entry, &a, &b)),
            );
        }
    }

    // Resilient ÷ plain on a fault-free machine, both in one repetition.
    let fox_pipelined_res: Entry =
        |m, a, b| algos::fox_pipelined_resilient(m, a, b, pipelined_packets(32, 64));
    let pairs: [(&str, Entry, Entry, usize); 5] = [
        ("cannon", algos::cannon, algos::cannon_resilient, 32),
        ("fox_tree", algos::fox_tree, algos::fox_tree_resilient, 32),
        ("fox_pipelined", fox_pipelined_64, fox_pipelined_res, 32),
        ("gk", algos::gk, algos::gk_resilient, 32),
        ("dns", algos::dns_block, algos::dns_resilient, 4),
    ];
    for (name, plain, resilient, n) in pairs {
        let (a, b) = gen::random_pair(n, 23);
        let m = event(Topology::hypercube(6), cost);
        put(
            out,
            format!("algos.{name}_resilient.overhead_ratio_p64"),
            sample(effort, || {
                let base = secs(|| {
                    std::hint::black_box(plain(&m, &a, &b).expect("admissible"));
                });
                let res = secs(|| {
                    std::hint::black_box(resilient(&m, &a, &b).expect("admissible"));
                });
                res / base
            }),
        );
    }

    let (a, b) = gen::random_pair(256, 24);
    let c = kernel::matmul(&a, &b);
    put(
        out,
        "algos.verify.ns_per_word",
        sample(effort, || {
            secs(|| {
                std::hint::black_box(algos::verify_product(std::hint::black_box(&c), &c, 1e-9));
            }) * 1e9
                / (256.0 * 256.0)
        }),
    );

    // One pass of each sim workload: host time per simulated message
    // (and per flop on kernel_heavy).  The ledger replaces these with
    // the figures of the full untraced runs.
    let params = RunParams {
        seed: 1,
        seconds: 1.0,
        smoke: false,
        serve_bin: "unused".into(),
    };
    let mut off = Tracer::new(false);
    let one_pass = |name: &str, mut w: sim::SimWorkload, out: &mut Results| {
        let mut msgs = 0u64;
        let mut wall = 0.0;
        for idx in 0..w.ops() {
            let t = Instant::now();
            let outcome = w.run(idx);
            wall += t.elapsed().as_secs_f64();
            msgs += outcome.map_or(0, |o| o.total_messages());
        }
        put(
            out,
            format!("algos.{name}.host_ns_per_msg"),
            wall * 1e9 / msgs.max(1) as f64,
        );
        wall
    };
    one_pass("fig_sweep", sim::fig_sweep(&params, None, &mut off), out);
    one_pass(
        "fig_sweep_event",
        sim::fig_sweep(&params, Some(EngineKind::Event), &mut off),
        out,
    );
    one_pass(
        "resilient_faults",
        sim::resilient_faults(&params, &mut off),
        out,
    );
    let wall = one_pass("kernel_heavy", sim::kernel_heavy(&params, &mut off), out);
    put(
        out,
        "algos.kernel_heavy.host_ns_per_flop",
        wall * 1e9 / sim::kernel_heavy_flops_per_pass(),
    );
    if let Some(probe) = scale4k {
        put(
            out,
            "algos.scale_4k.host_ns_per_msg",
            probe.op_ms_p50 * 1e6 / probe.msgs.max(1) as f64,
        );
    }
}

// -------------------------------------------------------- model / parmm

fn model_layer(effort: Effort, out: &mut Results) {
    let m = MachineParams::ncube2();
    put(
        out,
        "model.time.eval_ns",
        sample(effort, || {
            let mut acc = 0.0;
            let s = secs(|| {
                for i in 0..500 {
                    let n = 64.0 + f64::from(i);
                    for alg in Algorithm::ALL {
                        acc += model::time::parallel_time(alg, std::hint::black_box(n), 64.0, m);
                    }
                }
            });
            std::hint::black_box(acc);
            s * 1e9 / (500.0 * Algorithm::ALL.len() as f64)
        }),
    );
    // A range nobody has asked for yet, against the same range again.
    let mut bump = 0.0;
    put(
        out,
        "model.regions.grid_us_cold",
        sample(effort, || {
            bump += 1e-7;
            secs(|| {
                std::hint::black_box(model::regions::RegionMap::compute_range(
                    m,
                    (2.0, 16.0 + bump),
                    (0.0, 28.0),
                    96,
                    40,
                ));
            }) * 1e6
        }),
    );
    put(
        out,
        "model.regions.grid_us_memo",
        sample(effort, || {
            secs(|| {
                std::hint::black_box(model::regions::RegionMap::compute_range(
                    m,
                    (2.0, 16.0),
                    (0.0, 28.0),
                    96,
                    40,
                ));
            }) * 1e6
        }),
    );
    let advisor = Advisor::new(m);
    put(
        out,
        "parmm.advisor.recommend_ns",
        sample(effort, || {
            secs(|| {
                for n in (8..=512).step_by(8) {
                    for p in [1usize, 8, 64, 512] {
                        std::hint::black_box(advisor.recommend(std::hint::black_box(n), p));
                    }
                }
            }) * 1e9
                / (64.0 * 4.0)
        }),
    );
    let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
    let (a, b) = gen::random_pair(16, 31);
    let rec = advisor
        .recommend_executable(16, 16)
        .expect("n = 16 runs on 16 ranks");
    put(
        out,
        "parmm.advisor.execute_us_n16_p16",
        sample(effort, || {
            secs(|| {
                std::hint::black_box(
                    parmm::advisor::run_recommendation(&rec, &machine, &a, &b).expect("runs"),
                );
            }) * 1e6
        }),
    );
}

// ---------------------------------------------------------------- gemmd

fn gemmd_core_layer(effort: Effort, out: &mut Results) {
    let mut seed = 100u64;
    put(
        out,
        "gemmd.traffic.generate_ns_per_job",
        sample(effort, || {
            seed += 1;
            secs(|| {
                std::hint::black_box(gemmd_trace::trace(1500, seed));
            }) * 1e9
                / 1500.0
        }),
    );
    let mut pm = PartitionManager::new(64).expect("power of two");
    put(
        out,
        "gemmd.partition.alloc_release_ns",
        sample(effort, || {
            secs(|| {
                for _ in 0..500 {
                    let a = pm.alloc(4).expect("space");
                    let b = pm.alloc(16).expect("space");
                    pm.release(a);
                    pm.release(b);
                }
            }) * 1e9
                / 1000.0
        }),
    );
    let machine = gemmd_trace::machine();
    let scheduler = Scheduler::new(&machine, Config::default());
    put(
        out,
        "gemmd.sizing.right_size_ns",
        sample(effort, || {
            secs(|| {
                for _ in 0..50 {
                    for &n in gemmd_trace::SIZES {
                        std::hint::black_box(right_size(
                            scheduler.advisor(),
                            std::hint::black_box(n),
                            64,
                            SizingMode::default_iso(),
                        ));
                    }
                }
            }) * 1e9
                / (50.0 * gemmd_trace::SIZES.len() as f64)
        }),
    );

    let params = RunParams {
        seed: 1,
        seconds: 1.0,
        smoke: false,
        serve_bin: "unused".into(),
    };
    let jobs = gemmd_trace::trace(1500, params.seed);
    let variants = gemmd_trace::variants();
    let mut fifo_report = None;
    let mut fifo_s = 0.0;
    for v in &variants {
        let per_job = sample_heavy(effort, || {
            let mut report = None;
            let s = secs(|| report = Some(v.run(&machine, &jobs)));
            if v.name == "fifo" {
                fifo_s = s;
                fifo_report = report.and_then(Result::ok);
            }
            s * 1e6 / jobs.len() as f64
        });
        put(
            out,
            format!("gemmd.scheduler.us_per_job_{}", v.name),
            per_job,
        );
    }
    let report = fifo_report.expect("fifo variant ran");

    // How much of a run is the simulator underneath: each distinct
    // (n, p, algorithm) placement timed standalone, times its count.
    let mut placed: BTreeMap<(usize, usize, &'static str), (usize, Algorithm, u64)> =
        BTreeMap::new();
    for r in &report.records {
        let slot = placed.entry((r.spec.n, r.p, r.algorithm.id())).or_insert((
            0,
            r.algorithm,
            r.spec.seed,
        ));
        slot.0 += 1;
    }
    let standalone: f64 = placed
        .iter()
        .map(|(&(n, p, _), &(count, alg, seed))| {
            let (a, b) = gen::random_pair(n, seed);
            let solo = Machine::new(Topology::hypercube_for(p), CostModel::ncube2());
            let one = sample(Effort::Quick, || {
                secs(|| {
                    std::hint::black_box(
                        parmm::advisor::run_algorithm(alg, &solo, &a, &b).expect("was placed"),
                    );
                })
            });
            one * count as f64
        })
        .sum();
    put(out, "gemmd.scheduler.sim_share", standalone / fifo_s);

    // Per-job cost at 6000 jobs over that at 1500 (1 = linear), at an
    // eighth of the workload's arrival rate so that the machine keeps
    // up: at the workload's own rate the backlog grows with the trace,
    // a 6000-job run takes ~9 s, and the ratio (17) measures the length
    // of the queue rather than the scheduler's own scaling.
    let light = |n: usize| gemmd_trace::trace_at(n, params.seed, 8.0 * gemmd_trace::GAP);
    let (short, long) = (light(1500), light(6000));
    let fifo = &variants[0];
    let per_job = |jobs: &[gemmd::JobSpec]| {
        secs(|| {
            std::hint::black_box(fifo.run(&machine, jobs).expect("fifo runs"));
        }) / jobs.len() as f64
    };
    put(
        out,
        "gemmd.scheduler.scaling_ratio_6k_1500",
        sample_heavy(effort, || per_job(&long) / per_job(&short)),
    );

    put(
        out,
        "gemmd.slo.analyze_us",
        sample(effort, || {
            secs(|| {
                std::hint::black_box(gemmd::analyze(
                    &report,
                    &gemmd::JobClasses::default_split(),
                    &[],
                ));
            }) * 1e6
        }),
    );
    put(
        out,
        "gemmd.report.to_csv_us",
        sample(effort, || {
            secs(|| {
                std::hint::black_box(report.to_csv());
            }) * 1e6
        }),
    );
}

fn submit_line(i: usize) -> String {
    let n = [8, 8, 8, 16, 8, 16, 32, 8][i % 8];
    format!(
        "{{\"verb\":\"submit\",\"n\":{n},\"arrival\":{:.1}}}",
        400.0 * i as f64
    )
}

fn loaded_frontend(jobs: usize) -> Frontend {
    let mut fe = crate::workloads::serve::oracle();
    for i in 0..jobs {
        fe.handle(&submit_line(i), 0.0);
    }
    fe
}

fn frontend_layer(effort: Effort, serve_bin: &Path, out: &mut Results) -> Result<(), String> {
    put(
        out,
        "gemmd.frontend.submit_ns",
        sample(effort, || {
            let mut fe = crate::workloads::serve::oracle();
            secs(|| {
                for i in 0..400 {
                    std::hint::black_box(fe.handle(&submit_line(i), 0.0));
                }
            }) * 1e9
                / 400.0
        }),
    );
    let mut status_us = [0.0; 2];
    for (slot, jobs) in status_us.iter_mut().zip([100usize, 400]) {
        let mut fe = loaded_frontend(jobs);
        let line = format!("{{\"verb\":\"status\",\"id\":{}}}", jobs / 2);
        *slot = sample_heavy(effort, || {
            secs(|| {
                std::hint::black_box(fe.handle(&line, 0.0));
            }) * 1e6
        });
        put(out, format!("gemmd.frontend.status_us_at_{jobs}"), *slot);
    }
    // 4 = whole-trace replay on every query, 1 = answered from state.
    put(
        out,
        "gemmd.frontend.status_growth_ratio",
        status_us[1] / status_us[0],
    );
    let mut fe = loaded_frontend(400);
    put(
        out,
        "gemmd.frontend.stats_us_at_400",
        sample_heavy(effort, || {
            secs(|| {
                std::hint::black_box(fe.handle("{\"verb\":\"stats\"}", 0.0));
            }) * 1e6
        }),
    );
    let mut fe = crate::workloads::serve::oracle();
    put(
        out,
        "gemmd.frontend.parse_error_ns",
        sample(effort, || {
            secs(|| {
                for _ in 0..200 {
                    std::hint::black_box(fe.handle("{\"verb\":\"dance\"}", 0.0));
                    std::hint::black_box(fe.handle("submit n=16 please", 0.0));
                }
            }) * 1e9
                / 400.0
        }),
    );

    // Loopback round trips, by verb, against a real server.
    let io = |e: std::io::Error| format!("gemmd-serve ({}): {e}", serve_bin.display());
    let server = Server::spawn(serve_bin).map_err(io)?;
    let connects = effort.reps();
    let connect_us: Vec<f64> = (0..connects)
        .map(|_| {
            let t = Instant::now();
            let c = Client::connect(server.addr);
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(c);
            us
        })
        .collect();
    put(out, "gemmd.serve.connect_us", stats::median(&connect_us));

    let mut client = Client::connect(server.addr).map_err(io)?;
    let mut off = Tracer::new(false);
    let mut twin = crate::workloads::serve::oracle();
    let (mut loop_s, mut inproc_s) = (0.0, 0.0);
    let mut rtt = |line: &str, client: &mut Client| -> Result<f64, String> {
        let t = Instant::now();
        client.request(line, &mut off, 0).map_err(io)?;
        let s = t.elapsed().as_secs_f64();
        loop_s += s;
        inproc_s += secs(|| {
            std::hint::black_box(twin.handle(line, 0.0));
        });
        Ok(s * 1e6)
    };
    let reps = effort.reps();
    let mut all = Vec::new();
    for verb in ["nop", "submit", "status", "stats"] {
        let mut samples = Vec::new();
        for i in 0..reps {
            let line = match verb {
                "nop" => "{\"verb\":\"nop\"}".to_string(),
                "submit" => submit_line(i),
                "status" => format!("{{\"verb\":\"status\",\"id\":{i}}}"),
                _ => "{\"verb\":\"stats\"}".to_string(),
            };
            samples.push(rtt(&line, &mut client)?);
        }
        all.extend_from_slice(&samples);
        put(
            out,
            format!("gemmd.serve.rtt_us_{verb}_p50"),
            stats::median(&samples),
        );
    }
    stats::sort(&mut all);
    out.insert(
        "gemmd.serve.rtt_us_p99".into(),
        stats::tail_percentile(&all, 0.99),
    );
    // Share of the round trip that is not the front-end's own work.
    put(out, "gemmd.serve.socket_share", 1.0 - inproc_s / loop_s);
    let _ = client.request("{\"verb\":\"shutdown\"}", &mut off, 0);
    Ok(())
}

/// Run the whole suite.  The second value lists what could not be
/// measured (the `gemmd-serve` binary or the probe child missing);
/// every other layer is in the result regardless.
pub fn run_all(effort: Effort, serve_bin: &Path) -> (Results, Vec<String>) {
    let mut out = Results::new();
    let mut problems = Vec::new();
    dense_layer(effort, &mut out);
    mmsim_layer(effort, &mut out);
    let probe = match scale4k_probe(effort) {
        Ok(p) => {
            put(&mut out, "mmsim.run.first_us_event_p4096", p.first_us);
            put(
                &mut out,
                "mmsim.run.rss_growth_mb_per_run_p4096",
                p.rss_growth_mb,
            );
            put(&mut out, "mmsim.scale4k.op_ms_p50", p.op_ms_p50);
            put(&mut out, "mmsim.scale4k.op_ms_max", p.op_ms_max);
            Some(p)
        }
        Err(e) => {
            problems.push(e);
            None
        }
    };
    collectives_layer(effort, &mut out);
    algos_layer(effort, probe.as_ref(), &mut out);
    model_layer(effort, &mut out);
    gemmd_core_layer(effort, &mut out);
    if let Err(e) = frontend_layer(effort, serve_bin, &mut out) {
        problems.push(e);
    }
    (out, problems)
}
