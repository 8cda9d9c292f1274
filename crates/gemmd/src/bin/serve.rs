//! `gemmd-serve` — the GEMM service on a TCP socket.
//!
//! Speaks the JSON-line protocol of [`gemmd::frontend`]: one flat JSON
//! object per line (`submit` / `status` / `stats` / `shutdown`), one
//! reply line each.  The scheduler underneath runs in deterministic
//! virtual time; this binary's only contact with the wall clock is the
//! arrival stamp of a `submit` that carries no explicit `arrival` —
//! elapsed seconds since startup, scaled by `--rate` virtual units per
//! second.  Everything downstream of the stamp replays identically.
//!
//! ```text
//! gemmd-serve [--addr 127.0.0.1:7878] [--dim 4] [--policy edf] [--rate 1e6]
//!             [--batch] [--overhead 500] [--preempt] [--elastic] [--shed]
//! ```
//!
//! `--preempt`, `--elastic` and `--shed` switch on the scheduler's
//! graceful-degradation machinery (preemptive gang rescheduling,
//! elastic repartitioning, policy-aware load shedding — see
//! `docs/gemmd.md`).  The front-end also understands `drain`: stop
//! admitting, answer queries, bounce later submits with a structured
//! backpressure reply.
//!
//! Try it with a line-mode TCP client (`nc localhost 7878`):
//!
//! ```text
//! {"verb":"submit","n":16}
//! {"verb":"stats"}
//! {"verb":"drain"}
//! {"verb":"shutdown"}
//! ```

use std::io::Write;
use std::net::TcpListener;
use std::time::Instant;

use gemmd::frontend::{serve, Frontend};
use gemmd::{Batching, Config};
use mmsim::{CostModel, Machine, Topology};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut dim = 4u32;
    let mut policy = "edf".to_string();
    let mut rate = 1.0e6f64;
    let mut overhead = 0.0f64;
    let mut batch = false;
    let mut preempt = false;
    let mut elastic = false;
    let mut shed = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = take("--addr"),
            "--dim" => dim = take("--dim").parse().expect("--dim: integer"),
            "--policy" => policy = take("--policy"),
            "--rate" => rate = take("--rate").parse().expect("--rate: number"),
            "--overhead" => overhead = take("--overhead").parse().expect("--overhead: number"),
            "--batch" => batch = true,
            "--preempt" => preempt = true,
            "--elastic" => elastic = true,
            "--shed" => shed = true,
            "--help" | "-h" => {
                println!(
                    "gemmd-serve [--addr HOST:PORT] [--dim D] [--policy fifo|spt|priority|edf] \
                     [--rate VIRT_PER_SEC] [--overhead T] [--batch] [--preempt] [--elastic] \
                     [--shed]"
                );
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let machine = Machine::new(Topology::hypercube(dim), CostModel::ncube2());
    let config = Config {
        placement_overhead: overhead,
        batching: batch.then(Batching::default),
        preemption: preempt,
        elastic,
        shed,
        ..Config::default()
    };
    let mut frontend = Frontend::new(machine, config, &policy)
        .unwrap_or_else(|| panic!("unknown policy {policy}; try fifo, spt, priority or edf"));

    let listener = TcpListener::bind(&addr).expect("bind");
    let local = listener.local_addr().expect("local addr");
    println!(
        "gemmd-serve listening on {local} (2^{dim} ranks, policy {policy}, {rate} virtual units/s)"
    );

    let epoch = Instant::now();
    serve(&listener, &mut frontend, || {
        epoch.elapsed().as_secs_f64() * rate
    })
    .expect("accept on the listening socket");
    // Not `println!`: a supervisor that read the banner and closed the
    // pipe must not turn a clean shutdown into a panic.
    let _ = writeln!(std::io::stdout(), "gemmd-serve: shutdown requested, bye");
}
