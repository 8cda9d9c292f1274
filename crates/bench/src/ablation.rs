//! The design-choice ablations DESIGN.md calls out, in virtual time:
//! Fox's packet count, cut-through vs store-and-forward routing under
//! Cannon, and GK on a hypercube vs a fully connected network.

use bench::{bits, Args, Fail, Report, ResultTable};
use dense::gen;
use mmsim::{CostModel, Machine, Routing, Topology};

/// Simulated T_p of each ablation at n = 32, p = 16 (GK: n = p = 64),
/// t_s = 150, t_w = 3.
pub fn ablation(_: &Args) -> Result<Report, Fail> {
    let mut t = ResultTable::new(
        "ablation: simulated T_p (n = 32, p = 16; gk n = 64, p = 64; t_s = 150, t_w = 3)",
        &["knob", "setting", "t_parallel", "t_parallel_bits"],
    );
    let mut row = |knob: &str, setting: String, t_p: f64| {
        t.push_row(vec![knob.into(), setting, format!("{t_p:.0}"), bits(t_p)]);
    };
    let (a, b) = gen::random_pair(32, 9);
    let torus = Machine::new(Topology::square_torus_for(16), CostModel::ncube2());
    for packets in [1usize, 2, 4, 8, 16] {
        let out = algos::fox_pipelined(&torus, &a, &b, packets).expect("admissible");
        row("fox_packets", packets.to_string(), out.t_parallel);
    }
    for routing in [Routing::CutThrough, Routing::StoreAndForward] {
        let cost = CostModel::ncube2().with_routing(routing);
        let machine = Machine::new(Topology::hypercube_for(16), cost);
        let out = algos::cannon(&machine, &a, &b).expect("admissible");
        row("cannon_routing", format!("{routing:?}"), out.t_parallel);
    }
    let (a64, b64) = gen::random_pair(64, 10);
    for topo in [Topology::hypercube_for(64), Topology::fully_connected(64)] {
        let kind = topo.kind().to_string();
        let machine = Machine::new(topo, CostModel::ncube2());
        let out = algos::gk(&machine, &a64, &b64).expect("admissible");
        row("gk_topology", kind, out.t_parallel);
    }
    let mut r = Report::default();
    r.print(t.render());
    r.pinned("ablation", &t);
    Ok(r)
}
