//! The communication/computation cost model of the simulated machine.
//!
//! All times are normalised to the machine's floating-point
//! multiply–add time, exactly as in §2 of the paper: "we assume that each
//! basic arithmetic operation (one floating point multiplication and one
//! floating point addition) takes unit time.  Therefore, `t_s` and `t_w`
//! are relative data communication costs normalised with respect to the
//! unit computation time."

/// Switching technique used to charge multi-hop messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Cut-through (wormhole) routing: `t_s + t_w·m + t_h·hops`.
    ///
    /// This is the paper's assumption (§4.2 explicitly assumes a
    /// "hypercube with cut-through routing"); with the default
    /// `t_h = 0` the distance between endpoints does not matter, which
    /// is why Cannon's algorithm performs identically on mesh and
    /// hypercube (§4.4, first sentence).
    #[default]
    CutThrough,
    /// Store-and-forward routing: `(t_s + t_w·m) · hops`.
    ///
    /// Included as an ablation of the cost model; none of the paper's
    /// results use it.
    StoreAndForward,
}

/// Port model of the simulated machine (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ports {
    /// Only one of the `log p` channels of a processor may be active at a
    /// time; consecutive sends serialise.  This is the base model used
    /// in §4–§6 of the paper.
    #[default]
    Single,
    /// "Special hardware permitting simultaneous communication on all the
    /// ports" (§7, e.g. nCUBE2): a batch issued through
    /// [`crate::Proc::send_multi`] costs the **max** of its message costs.
    All,
}

/// Normalised machine cost parameters.
///
/// `t_s` is the message startup time and `t_w` the per-word transfer
/// time, both in units of one multiply–add ("flop pair").  `t_h` is the
/// per-hop latency of cut-through routing (the paper takes it as
/// negligible; default 0).  `t_add` is the cost of one scalar addition
/// performed *outside* a multiply–add pair (tree-reduction work); the
/// paper's normalisation is `t_mult + t_add = 1`, so the default is 0.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Message startup time (units of one multiply–add).
    pub t_s: f64,
    /// Per-word transfer time (units of one multiply–add).
    pub t_w: f64,
    /// Per-hop latency for cut-through routing.
    pub t_h: f64,
    /// Cost of a standalone floating-point addition (`t_mult + t_add = 1`).
    pub t_add: f64,
    /// Switching technique.
    pub routing: Routing,
    /// Port model.
    pub ports: Ports,
}

impl CostModel {
    /// A cut-through, single-port machine with the given `t_s` and `t_w`.
    ///
    /// # Panics
    /// Panics if either parameter is negative or non-finite.
    #[must_use]
    pub fn new(t_s: f64, t_w: f64) -> Self {
        assert!(
            t_s >= 0.0 && t_s.is_finite(),
            "t_s must be finite and non-negative, got {t_s}"
        );
        assert!(
            t_w >= 0.0 && t_w.is_finite(),
            "t_w must be finite and non-negative, got {t_w}"
        );
        Self {
            t_s,
            t_w,
            t_h: 0.0,
            t_add: 0.5,
            routing: Routing::CutThrough,
            ports: Ports::Single,
        }
    }

    /// The nCUBE2-class machine of the paper's Figure 1: `t_w = 3`,
    /// `t_s = 150` ("very close to that of a currently available parallel
    /// computer like the nCUBE2", §6).
    #[must_use]
    pub fn ncube2() -> Self {
        Self::new(150.0, 3.0)
    }

    /// The near-future MIMD machine of Figure 2: `t_w = 3`, `t_s = 10`.
    #[must_use]
    pub fn future_mimd() -> Self {
        Self::new(10.0, 3.0)
    }

    /// The CM-2-class SIMD machine of Figure 3: `t_w = 3`, `t_s = 0.5`.
    #[must_use]
    pub fn simd_cm2() -> Self {
        Self::new(0.5, 3.0)
    }

    /// The CM-5 constants measured in §9 of the paper, normalised by the
    /// measured 1.53 µs multiply–add: `t_s = 380/1.53 ≈ 248.37`,
    /// `t_w = 1.8/1.53 ≈ 1.176`.
    #[must_use]
    pub fn cm5() -> Self {
        Self::new(380.0 / 1.53, 1.8 / 1.53)
    }

    /// Free communication — useful for isolating computation time in
    /// tests and ablations.
    #[must_use]
    pub fn zero_comm() -> Self {
        Self::new(0.0, 0.0)
    }

    /// `t_s = t_w = 1`; handy for readable unit tests.
    #[must_use]
    pub fn unit() -> Self {
        Self::new(1.0, 1.0)
    }

    /// Builder-style: set the per-hop latency.
    #[must_use]
    pub fn with_hop_latency(mut self, t_h: f64) -> Self {
        assert!(
            t_h >= 0.0 && t_h.is_finite(),
            "t_h must be finite and non-negative"
        );
        self.t_h = t_h;
        self
    }

    /// Builder-style: set the standalone-addition cost.
    #[must_use]
    pub fn with_add_cost(mut self, t_add: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&t_add),
            "t_add must lie in [0, 1] (t_mult + t_add = 1), got {t_add}"
        );
        self.t_add = t_add;
        self
    }

    /// Builder-style: set the switching technique.
    #[must_use]
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style: set the port model.
    #[must_use]
    pub fn with_ports(mut self, ports: Ports) -> Self {
        self.ports = ports;
        self
    }

    /// End-to-end latency of an `m`-word message travelling `hops` hops.
    ///
    /// `hops` comes from the topology; for cut-through with the default
    /// `t_h = 0` it is irrelevant, matching the paper's model.
    #[must_use]
    pub fn message_latency(&self, words: usize, hops: usize) -> f64 {
        let m = words as f64;
        match self.routing {
            Routing::CutThrough => self.t_s + self.t_w * m + self.t_h * hops as f64,
            Routing::StoreAndForward => (self.t_s + self.t_w * m) * (hops.max(1)) as f64,
        }
    }

    /// Time the *sender* is occupied injecting an `m`-word message.
    ///
    /// Independent of distance: once the head flit leaves, the channel is
    /// pipelined (cut-through), or the next router takes over
    /// (store-and-forward charges the full path latency to the message,
    /// not the sender).
    #[must_use]
    pub fn sender_occupancy(&self, words: usize) -> f64 {
        self.t_s + self.t_w * words as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_figures() {
        assert_eq!(CostModel::ncube2().t_s, 150.0);
        assert_eq!(CostModel::ncube2().t_w, 3.0);
        assert_eq!(CostModel::future_mimd().t_s, 10.0);
        assert_eq!(CostModel::future_mimd().t_w, 3.0);
        assert_eq!(CostModel::simd_cm2().t_s, 0.5);
        assert_eq!(CostModel::simd_cm2().t_w, 3.0);
    }

    #[test]
    fn cm5_constants_normalised_by_flop_time() {
        let m = CostModel::cm5();
        assert!((m.t_s - 248.366).abs() < 1e-2);
        assert!((m.t_w - 1.17647).abs() < 1e-4);
    }

    #[test]
    fn cut_through_latency_ignores_hops_when_th_zero() {
        let m = CostModel::new(10.0, 2.0);
        assert_eq!(m.message_latency(5, 1), 20.0);
        assert_eq!(m.message_latency(5, 9), 20.0);
    }

    #[test]
    fn cut_through_latency_charges_th_per_hop() {
        let m = CostModel::new(10.0, 2.0).with_hop_latency(1.5);
        assert_eq!(m.message_latency(4, 3), 10.0 + 8.0 + 4.5);
    }

    #[test]
    fn store_and_forward_multiplies_by_hops() {
        let m = CostModel::new(10.0, 2.0).with_routing(Routing::StoreAndForward);
        assert_eq!(m.message_latency(5, 3), 60.0);
        // Zero hops is clamped to one (self/neighbour sends still pay once).
        assert_eq!(m.message_latency(5, 0), 20.0);
    }

    #[test]
    fn sender_occupancy_is_distance_independent() {
        let m = CostModel::new(7.0, 3.0).with_hop_latency(100.0);
        assert_eq!(m.sender_occupancy(2), 13.0);
    }

    #[test]
    fn zero_message_still_pays_startup() {
        let m = CostModel::new(42.0, 3.0);
        assert_eq!(m.message_latency(0, 1), 42.0);
    }

    #[test]
    #[should_panic(expected = "t_s must be finite")]
    fn negative_ts_rejected() {
        let _ = CostModel::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "t_w must be finite")]
    fn nan_tw_rejected() {
        let _ = CostModel::new(1.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "t_add must lie in [0, 1]")]
    fn t_add_out_of_range_rejected() {
        let _ = CostModel::unit().with_add_cost(1.5);
    }

    #[test]
    fn builders_compose() {
        let m = CostModel::unit()
            .with_hop_latency(0.25)
            .with_add_cost(0.4)
            .with_routing(Routing::StoreAndForward)
            .with_ports(Ports::All);
        assert_eq!(m.t_h, 0.25);
        assert_eq!(m.t_add, 0.4);
        assert_eq!(m.routing, Routing::StoreAndForward);
        assert_eq!(m.ports, Ports::All);
    }
}
