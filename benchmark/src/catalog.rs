//! Names, units, directions and bounds of everything the ledger
//! reports, and which end-to-end figure each layer metric should move.
//! `BENCHMARK.json` and `benchmark/baseline.json` are rendered from
//! these tables; the self-tests keep the three in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
    /// Must repeat bit-for-bit: any change is a behaviour change.
    Exact,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
        }
    }
}

/// A workload and why it is here.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Passes measured per second of `--seconds` (calibrated on the
    /// 2-core reference box so a 10 s run times 5–9 s of ops).
    /// `serve_poll` runs for `--seconds` instead.
    pub passes_per_10s: usize,
    /// Warm-up passes inside set-up (discarded).
    pub warmup_passes: usize,
}

/// The seven workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "fig_sweep",
        why: "Figure 4/5 point set on the default engine: per-run engine cost and per-message cost at tiny blocks, what paper-reproduction users wait on",
        passes_per_10s: 30,
        warmup_passes: 1,
    },
    WorkloadDef {
        name: "fig_sweep_event",
        why: "Same points on the event engine: a gain for one engine that costs the other shows, and the small-p case for keeping two engines gets its number",
        passes_per_10s: 150,
        warmup_passes: 1,
    },
    WorkloadDef {
        name: "scale_4k",
        why: "Cannon at p = 4096 on the event engine: fiber stacks beyond the pool cap, event heap and mailboxes; kernel and per-run set-up are negligible",
        passes_per_10s: 14,
        warmup_passes: 2,
    },
    WorkloadDef {
        name: "kernel_heavy",
        why: "Large blocks at p <= 16 on one host thread: dense kernel, block split/assemble and payload moves dominate; an engine change must show no change here",
        passes_per_10s: 60,
        warmup_passes: 1,
    },
    WorkloadDef {
        name: "resilient_faults",
        why: "All six resilient entry points under drop/corrupt plans, spares and detection: the reliable transport, collectives, checkpoints and failover paths",
        passes_per_10s: 100,
        warmup_passes: 1,
    },
    WorkloadDef {
        name: "gemmd_trace",
        why: "In-process Scheduler::run over a 1500-job trace in five policy/feature variants: scheduler, partition, sizing, advisor and many tiny runs, no socket",
        passes_per_10s: 20,
        // Set-up already runs every variant once, verifying products.
        warmup_passes: 0,
    },
    WorkloadDef {
        name: "serve_poll",
        why: "gemmd-serve over loopback, closed loop, 1 client on 1 connection, fixed duration: what a service client sees (socket, parser, replay-on-query)",
        passes_per_10s: 0,
        warmup_passes: 0,
    },
];

/// Look a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether the PR driver's result line carries it.  That line needs
    /// every metric on every workload, never zero and never null, so
    /// metrics that are exact, can be zero or apply to some workloads
    /// only are reported by the ledger and gated through `failed`.
    pub contract: bool,
    /// What it means.
    pub meaning: &'static str,
    /// Workloads it is reported on (`&[]` = all).
    pub only_on: &'static [&'static str],
}

const SIM: &[&str] = &[
    "fig_sweep",
    "fig_sweep_event",
    "scale_4k",
    "kernel_heavy",
    "resilient_faults",
    "gemmd_trace",
];

/// The thirteen end-to-end metrics.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        contract: true,
        meaning: "input generation, machine/trace construction, server spawn + connect, reference products, discarded warm-up ops; median of 5 to 15 cold processes",
        only_on: &[],
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        contract: true,
        meaning: "ops per pass / sum over the pass's ops of each op's minimum wall time over the passes: throughput undisturbed by the host (serve_poll: replies / fixed duration)",
        only_on: &[],
    },
    EndToEndDef {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        contract: true,
        meaning: "median, over the ops of a pass, of each op's minimum wall time over the passes (serve_poll: plain median of all round trips); nearest rank",
        only_on: &[],
    },
    EndToEndDef {
        name: "op_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        contract: false,
        meaning: "p90 of all raw per-op wall times, host disturbance included; null unless at least ten samples lie beyond it (100 timed ops)",
        only_on: &[
            "fig_sweep",
            "fig_sweep_event",
            "kernel_heavy",
            "resilient_faults",
            "gemmd_trace",
            "serve_poll",
        ],
    },
    EndToEndDef {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        // Demoted from the result line: the threaded engine spins before
        // it parks, so its CPU per op halves when the host is busy
        // (fig_sweep: 4.0 vs 8.2 ms between sets) and no bound holds.
        contract: false,
        meaning: "CPU-to-wall ratio of the measured process over the timed part (user + sys from /proc/<pid>/stat; serve_poll: the server child) times 1000 / ops_per_s",
        only_on: &[],
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        contract: true,
        meaning: "VmHWM of the measured process (serve_poll: the server child) at the end of the timed part",
        only_on: &[],
    },
    EndToEndDef {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        contract: false,
        meaning: "failed / attempted ops: Err, wrong product, digest mismatch, mismatching reply, timeout; the result line carries it as `failed` and `attempted`",
        only_on: &[],
    },
    EndToEndDef {
        name: "virt_time_total",
        unit: "flop",
        better: Better::Exact,
        bound: 0.0,
        contract: false,
        meaning: "sum of t_parallel (sim) or makespan (gemmd_trace) over timed ops",
        only_on: SIM,
    },
    EndToEndDef {
        name: "virt_msgs_total",
        unit: "count",
        better: Better::Exact,
        bound: 0.0,
        contract: false,
        meaning: "sum of total_messages() over timed ops (gemmd_trace: jobs completed)",
        only_on: SIM,
    },
    EndToEndDef {
        name: "model_rel_err_max",
        unit: "ratio",
        better: Better::Exact,
        bound: 0.0,
        contract: false,
        meaning: "max over ops of |T_p(sim) - T_p(closed form)| / closed form, where algos has a closed form",
        only_on: &["fig_sweep", "fig_sweep_event", "scale_4k", "kernel_heavy"],
    },
    EndToEndDef {
        name: "virt_p99_sojourn",
        unit: "flop",
        better: Better::Exact,
        bound: 0.0,
        contract: false,
        meaning: "p99 sojourn over all job records of one pass",
        only_on: &["gemmd_trace"],
    },
    EndToEndDef {
        name: "virt_deadline_miss_ratio",
        unit: "ratio",
        better: Better::Exact,
        bound: 0.0,
        contract: false,
        meaning: "1 - met / deadlined jobs of the trace over one pass; shed and rejected jobs count as misses",
        only_on: &["gemmd_trace"],
    },
    EndToEndDef {
        name: "jobs_accepted",
        unit: "count",
        better: Better::Higher,
        bound: 0.25,
        contract: false,
        meaning: "submits acknowledged inside the fixed duration (closed loop, so it rises with speed)",
        only_on: &["serve_poll"],
    },
];

/// Look an end-to-end metric up by name.
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `metric` is reported on `workload`.
#[must_use]
pub fn applies(metric: &EndToEndDef, workload: &str) -> bool {
    metric.only_on.is_empty() || metric.only_on.contains(&workload)
}

/// A per-layer metric and the end-to-end figure it should move.
#[derive(Debug, Clone)]
pub struct LayerDef {
    /// Name: `<crate>.<part>.<figure>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this should move.
    pub moves: Vec<(&'static str, &'static str)>,
    /// Why the result line cannot carry it, if it cannot.
    pub ledger_only: Option<&'static str>,
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    moves: &[(&'static str, &'static str)],
) -> LayerDef {
    LayerDef {
        name: name.into(),
        unit,
        better,
        moves: moves.to_vec(),
        ledger_only: None,
    }
}

/// Per-run engine cost: small ops on the threaded engine.
const RUN_THREADED: &[(&str, &str)] = &[
    ("op_ms_p50", "fig_sweep"),
    ("op_ms_p50", "resilient_faults"),
    ("cpu_ms_per_op", "fig_sweep"),
];
/// Per-run engine cost: small ops on the event engine.
const RUN_EVENT: &[(&str, &str)] = &[
    ("op_ms_p50", "fig_sweep_event"),
    ("ops_per_s", "gemmd_trace"),
];
/// Stack and pool memory at massive p.
const STACKS_4K: &[(&str, &str)] = &[("peak_rss_mb", "scale_4k"), ("cpu_ms_per_op", "scale_4k")];
/// Per-message cost on the threaded engine (futex/park: CPU before wall).
const MSG_THREADED: &[(&str, &str)] = &[
    ("cpu_ms_per_op", "fig_sweep"),
    ("ops_per_s", "fig_sweep"),
    ("ops_per_s", "resilient_faults"),
];
/// Per-message cost on the event engine.
const MSG_EVENT: &[(&str, &str)] = &[("ops_per_s", "scale_4k"), ("ops_per_s", "fig_sweep_event")];
/// The reliable transport.
const RELIABLE: &[(&str, &str)] = &[("ops_per_s", "resilient_faults")];
/// Dense kernel and copies.
const KERNEL: &[(&str, &str)] = &[("ops_per_s", "kernel_heavy"), ("ops_per_s", "gemmd_trace")];
/// Block copies and payload moves.
const COPIES: &[(&str, &str)] = &[("ops_per_s", "kernel_heavy")];
/// The scheduler stack with no socket.
const SCHED: &[(&str, &str)] = &[("ops_per_s", "gemmd_trace")];
/// Socket and parser: the round-trip floor.
const SOCKET: &[(&str, &str)] = &[("op_ms_p50", "serve_poll"), ("ops_per_s", "serve_poll")];
/// Replay-on-query: bends the tail as the trace grows.
const REPLAY: &[(&str, &str)] = &[
    ("op_ms_p90", "serve_poll"),
    ("jobs_accepted", "serve_poll"),
    ("cpu_ms_per_op", "serve_poll"),
];

/// Every per-layer metric, in report order.
#[must_use]
pub fn layers() -> Vec<LayerDef> {
    use Better::{Exact, Higher, Lower};
    let mut v = vec![
        layer("dense.kernel.gflops_b32", "gflop/s", Higher, KERNEL),
        layer("dense.kernel.gflops_b128", "gflop/s", Higher, KERNEL),
        layer("dense.kernel.vs_naive_ratio_b128", "ratio", Higher, KERNEL),
        layer(
            "dense.block.split_assemble_ns_per_word",
            "ns",
            Lower,
            COPIES,
        ),
        layer(
            "dense.gen.random_ns_per_word",
            "ns",
            Lower,
            &[("setup_s", "kernel_heavy")],
        ),
        layer("mmsim.run.empty_us_threaded_p64", "us", Lower, RUN_THREADED),
        layer(
            "mmsim.run.empty_us_threaded_p512",
            "us",
            Lower,
            RUN_THREADED,
        ),
        layer("mmsim.run.empty_us_event_p64", "us", Lower, RUN_EVENT),
        layer("mmsim.run.empty_us_event_p512", "us", Lower, RUN_EVENT),
        layer(
            "mmsim.run.empty_us_event_p4096",
            "us",
            Lower,
            &[("ops_per_s", "scale_4k")],
        ),
        layer(
            "mmsim.run.first_us_event_p4096",
            "us",
            Lower,
            &[("setup_s", "scale_4k")],
        ),
        layer(
            "mmsim.run.rss_growth_mb_per_run_p4096",
            "MB",
            Lower,
            STACKS_4K,
        ),
        layer("mmsim.machine.partition_us_p64", "us", Lower, SCHED),
        layer(
            "mmsim.trace.on_off_ratio",
            "ratio",
            Lower,
            &[("op_ms_p50", "fig_sweep"), ("op_ms_p50", "fig_sweep_event")],
        ),
        layer(
            "mmsim.scale4k.op_ms_p50",
            "ms",
            Lower,
            &[("op_ms_p50", "scale_4k")],
        ),
        layer(
            "mmsim.scale4k.op_ms_max",
            "ms",
            Lower,
            &[("ops_per_s", "scale_4k")],
        ),
        layer("mmsim.proc.pingpong_ns_threaded", "ns", Lower, MSG_THREADED),
        layer("mmsim.proc.pingpong_ns_event", "ns", Lower, MSG_EVENT),
        layer(
            "mmsim.proc.ring_ns_per_msg_threaded_p64",
            "ns",
            Lower,
            MSG_THREADED,
        ),
        layer(
            "mmsim.proc.ring_ns_per_msg_threaded_p512",
            "ns",
            Lower,
            MSG_THREADED,
        ),
    ];
    for p in ["p64", "p512", "p1024", "p4096"] {
        v.push(layer(
            format!("mmsim.proc.ring_ns_per_msg_event_{p}"),
            "ns",
            Lower,
            MSG_EVENT,
        ));
    }
    v.extend([
        layer("mmsim.proc.send_multi_ns_per_msg", "ns", Lower, MSG_EVENT),
        layer(
            "mmsim.proc.reliable_pingpong_ns_threaded",
            "ns",
            Lower,
            RELIABLE,
        ),
        layer(
            "mmsim.proc.reliable_pingpong_ns_event",
            "ns",
            Lower,
            RELIABLE,
        ),
        layer("mmsim.proc.reliable_retry_ns", "ns", Lower, RELIABLE),
        layer("mmsim.payload.send_ns_per_word_64k", "ns", Lower, COPIES),
        layer("mmsim.payload.fanout_ns_per_dst", "ns", Lower, COPIES),
    ]);
    for t in ["hypercube", "torus", "fat_tree"] {
        v.push(layer(
            format!("mmsim.topology.distance_ns_{t}"),
            "ns",
            Lower,
            &[("ops_per_s", "scale_4k"), ("ops_per_s", "gemmd_trace")],
        ));
    }
    for op in [
        "broadcast",
        "allgather_hypercube",
        "allgather_ring",
        "reduce_sum",
        "reduce_scatter_sum",
        "all_reduce_sum",
        "all_to_all_personalized",
        "barrier",
        "scatter",
        "gather",
    ] {
        v.push(layer(
            format!("collectives.{op}.ns_per_msg_g64"),
            "ns",
            Lower,
            &[
                ("ops_per_s", "fig_sweep_event"),
                ("ops_per_s", "kernel_heavy"),
            ],
        ));
    }
    for op in [
        "broadcast",
        "allgather_hypercube",
        "reduce_sum",
        "all_to_all_personalized",
    ] {
        v.push(layer(
            format!("collectives.{op}.ns_per_msg_g1024"),
            "ns",
            Lower,
            &[("ops_per_s", "fig_sweep_event")],
        ));
    }
    for op in [
        "broadcast_reliable",
        "reduce_sum_reliable",
        "barrier_reliable",
    ] {
        v.push(layer(
            format!("collectives.{op}.ns_per_msg_g64"),
            "ns",
            Lower,
            RELIABLE,
        ));
    }
    v.push(layer(
        "collectives.virt_vs_analytic_max_rel",
        "ratio",
        Exact,
        &[
            ("model_rel_err_max", "fig_sweep"),
            ("virt_time_total", "fig_sweep"),
        ],
    ));
    for a in [
        "simple",
        "cannon",
        "fox_tree",
        "fox_pipelined",
        "berntsen",
        "dns_block",
        "gk",
    ] {
        v.push(layer(
            format!("algos.{a}.ns_per_msg_p64"),
            "ns",
            Lower,
            &[
                ("ops_per_s", "fig_sweep_event"),
                ("ops_per_s", "gemmd_trace"),
            ],
        ));
    }
    for a in [
        "simple",
        "cannon",
        "fox_tree",
        "berntsen",
        "dns_block",
        "gk",
    ] {
        v.push(layer(
            format!("algos.{a}.ns_per_msg_big"),
            "ns",
            Lower,
            &[("ops_per_s", "scale_4k"), ("ops_per_s", "fig_sweep_event")],
        ));
    }
    for a in ["cannon", "fox_tree", "fox_pipelined", "gk", "dns"] {
        v.push(layer(
            format!("algos.{a}_resilient.overhead_ratio_p64"),
            "ratio",
            Lower,
            RELIABLE,
        ));
    }
    v.push(layer(
        "algos.verify.ns_per_word",
        "ns",
        Lower,
        &[("setup_s", "kernel_heavy")],
    ));
    v.extend([
        layer(
            "algos.fig_sweep.host_ns_per_msg",
            "ns",
            Lower,
            &[("ops_per_s", "fig_sweep")],
        ),
        layer(
            "algos.fig_sweep_event.host_ns_per_msg",
            "ns",
            Lower,
            &[("ops_per_s", "fig_sweep_event")],
        ),
        layer(
            "algos.scale_4k.host_ns_per_msg",
            "ns",
            Lower,
            &[("ops_per_s", "scale_4k")],
        ),
        layer(
            "algos.kernel_heavy.host_ns_per_msg",
            "ns",
            Lower,
            &[("ops_per_s", "kernel_heavy")],
        ),
        layer(
            "algos.resilient_faults.host_ns_per_msg",
            "ns",
            Lower,
            &[("ops_per_s", "resilient_faults")],
        ),
        layer(
            "algos.kernel_heavy.host_ns_per_flop",
            "ns",
            Lower,
            &[("ops_per_s", "kernel_heavy")],
        ),
        layer("model.time.eval_ns", "ns", Lower, SCHED),
        layer(
            "model.regions.grid_us_cold",
            "us",
            Lower,
            &[("setup_s", "gemmd_trace")],
        ),
        layer(
            "model.regions.grid_us_memo",
            "us",
            Lower,
            &[("setup_s", "gemmd_trace")],
        ),
        layer("parmm.advisor.recommend_ns", "ns", Lower, SCHED),
        layer("parmm.advisor.execute_us_n16_p16", "us", Lower, SCHED),
        layer(
            "gemmd.traffic.generate_ns_per_job",
            "ns",
            Lower,
            &[("setup_s", "gemmd_trace")],
        ),
        layer("gemmd.partition.alloc_release_ns", "ns", Lower, SCHED),
        layer("gemmd.sizing.right_size_ns", "ns", Lower, SCHED),
    ]);
    for variant in ["fifo", "spt", "edf", "edf_batch", "edf_all"] {
        v.push(layer(
            format!("gemmd.scheduler.us_per_job_{variant}"),
            "us",
            Lower,
            &[("ops_per_s", "gemmd_trace"), ("op_ms_p50", "gemmd_trace")],
        ));
    }
    v.extend([
        layer("gemmd.scheduler.sim_share", "ratio", Lower, SCHED),
        layer(
            "gemmd.scheduler.scaling_ratio_6k_1500",
            "ratio",
            Lower,
            &[("ops_per_s", "gemmd_trace"), ("op_ms_p90", "serve_poll")],
        ),
        layer("gemmd.slo.analyze_us", "us", Lower, SCHED),
        layer("gemmd.report.to_csv_us", "us", Lower, SCHED),
        layer("gemmd.frontend.submit_ns", "ns", Lower, SOCKET),
        layer("gemmd.frontend.status_us_at_100", "us", Lower, REPLAY),
        layer("gemmd.frontend.status_us_at_400", "us", Lower, REPLAY),
        layer("gemmd.frontend.status_growth_ratio", "ratio", Lower, REPLAY),
        layer("gemmd.frontend.stats_us_at_400", "us", Lower, REPLAY),
        layer("gemmd.frontend.parse_error_ns", "ns", Lower, SOCKET),
        layer(
            "gemmd.serve.connect_us",
            "us",
            Lower,
            &[("setup_s", "serve_poll")],
        ),
        layer("gemmd.serve.rtt_us_nop_p50", "us", Lower, SOCKET),
        layer("gemmd.serve.rtt_us_submit_p50", "us", Lower, SOCKET),
        layer("gemmd.serve.rtt_us_status_p50", "us", Lower, SOCKET),
        layer("gemmd.serve.rtt_us_stats_p50", "us", Lower, SOCKET),
    ]);
    v.push(LayerDef {
        ledger_only: Some(
            "needs 1000 round trips for ten samples beyond p99; at ~44 ms each that is 44 s, so it is null until the socket path is fixed",
        ),
        ..layer("gemmd.serve.rtt_us_p99", "us", Lower, &[("op_ms_p90", "serve_poll")])
    });
    v.push(layer("gemmd.serve.socket_share", "ratio", Lower, SOCKET));
    v
}

/// Seconds one driver run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, rendered from the tables above: exactly the keys
/// the PR driver's contract names, the end-to-end metrics its result
/// line carries, and every per-layer metric that is always a number.
#[must_use]
pub fn benchmark_json() -> String {
    use crate::json::quote;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.contract)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = layers()
        .iter()
        .filter(|l| l.ledger_only.is_none())
        .map(|l| {
            // The contract knows two directions; an exact figure gets
            // worse when it grows (they are all distances from a model).
            let better = if l.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&l.name),
                quote(l.unit),
                quote(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn counts_names_and_units_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert_eq!(WORKLOADS.len(), 7);
        assert_eq!(END_TO_END.len(), 13);
        let carried = END_TO_END.iter().filter(|m| m.contract).count();
        assert!((1..=16).contains(&carried));
        let layers = layers();
        assert_eq!(layers.len(), 106);
        assert!(layers.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound <= 0.25);
            assert!(seen.insert(m.name.to_string()));
            for w in m.only_on {
                assert!(
                    workload(w).is_some(),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
            if m.contract {
                assert!(m.only_on.is_empty(), "{} must apply everywhere", m.name);
                assert_ne!(m.better, Better::Exact);
            }
        }
        for l in &layers {
            assert!(name_ok(&l.name) && unit_ok(l.unit), "{}", l.name);
            assert!(seen.insert(l.name.clone()), "{} used twice", l.name);
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_meets_the_contract_and_matches_the_committed_file() {
        use crate::json::Value;
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |k: &str| doc.get(k).and_then(Value::as_array).unwrap();
        assert!((2..=8).contains(&list("workloads").len()));
        assert!((1..=16).contains(&list("end_to_end").len()));
        assert!((1..=128).contains(&list("per_layer").len()));
        assert!((1.0..=60.0).contains(&doc.get("run_seconds").and_then(Value::as_f64).unwrap()));
        let mut setup = false;
        for m in list("end_to_end") {
            let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["better", "bound", "name", "unit"]);
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound));
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
            setup |= m.get("name").and_then(Value::as_str) == Some("setup_s")
                && m.get("unit").and_then(Value::as_str) == Some("s")
                && better == "lower";
        }
        assert!(
            setup,
            "setup_s must be an end-to-end metric in s, lower is better"
        );
        for m in list("per_layer") {
            let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["better", "name", "unit"]);
        }
        for w in list("workloads") {
            let keys: Vec<&str> = w.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["name", "why"]);
        }
        // The committed file is this text (absent only in a checkout
        // that holds the benchmark directory alone).
        if let Ok(committed) = std::fs::read_to_string("../BENCHMARK.json") {
            assert_eq!(
                committed, text,
                "regenerate with `bench --emit-benchmark-json > BENCHMARK.json`"
            );
        }
    }

    #[test]
    fn every_layer_metric_predicts_an_existing_metric_on_an_existing_workload() {
        for l in layers() {
            assert!(!l.moves.is_empty(), "{} has no `moves`", l.name);
            for (metric, wl) in &l.moves {
                let m = end_to_end(metric)
                    .unwrap_or_else(|| panic!("{} moves unknown metric {metric}", l.name));
                assert!(
                    workload(wl).is_some(),
                    "{} moves unknown workload {wl}",
                    l.name
                );
                assert!(
                    applies(m, wl),
                    "{}: {metric} is not reported on {wl}",
                    l.name
                );
            }
        }
    }
}
