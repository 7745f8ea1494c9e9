//! Pre-routing static timing analysis over a [`TimingGraph`].

use crate::timing_graph::ArcKind;
use crate::{PinId, TimingGraph};

/// Wire resistance factor (kΩ per unit) for the pre-routing wireload model:
/// a net arc contributes `WIRE_RESISTANCE × (wire_cap + sink pin cap)`.
pub const WIRE_RESISTANCE: f64 = 0.8;

/// A pre-routing STA engine: computes per-pin arrival times, slacks and the
/// critical path under the linear delay model.
///
/// Modeling note: a driver's load sums the net wire capacitance and the
/// *sink* pin capacitances; the driver's own output-pin parasitic is kept as
/// a feature (the GNN sees it) but does not enter the delay model, so
/// perturbing output-pin capacitance probes GNN sensitivity only.
/// `cell delay = intrinsic + drive_resistance × load`, where the load of a
/// driver is the net wire capacitance plus all sink pin capacitances.
///
/// The engine is *pure*: it borrows a timing graph and a capacitance vector,
/// so perturbation studies re-run it with modified capacitances without
/// rebuilding the graph.
///
/// # Example
///
/// ```
/// use cirstag_circuit::{generate_circuit, CellLibrary, GeneratorConfig, StaEngine, TimingGraph};
///
/// # fn main() -> Result<(), cirstag_circuit::CircuitError> {
/// let lib = CellLibrary::standard();
/// let netlist = generate_circuit(&lib, &GeneratorConfig { num_gates: 30, ..Default::default() }, 1)?;
/// let tg = TimingGraph::new(&netlist, &lib)?;
/// let sta = StaEngine::new(&tg);
/// let wns = sta.critical_arrival();
/// assert!(wns > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StaEngine {
    arrivals: Vec<f64>,
    critical: f64,
    /// Load capacitance seen by each driver pin (0 for sink pins).
    loads: Vec<f64>,
    /// Pin capacitances the analysis ran with.
    pin_caps: Vec<f64>,
    /// Per-cell drive-resistance multipliers (1.0 = nominal).
    drive_scale: Vec<f64>,
}

impl StaEngine {
    /// Runs STA with the graph's base pin capacitances.
    pub fn new(timing: &TimingGraph) -> Self {
        Self::with_caps(timing, &timing.pin_caps())
    }

    /// Runs STA with an explicit pin-capacitance vector (perturbation
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics if `pin_caps.len() != timing.num_pins()`.
    pub fn with_caps(timing: &TimingGraph, pin_caps: &[f64]) -> Self {
        Self::with_adjustments(timing, pin_caps, None)
    }

    /// Runs STA with explicit pin capacitances *and* per-cell drive-strength
    /// scaling: cell `c`'s drive resistance is multiplied by
    /// `drive_scale[c]` (values < 1 model upsizing). `None` leaves all
    /// drives nominal — the hook used by gate-sizing studies.
    ///
    /// # Panics
    ///
    /// Panics when vector lengths mismatch the graph, or a scale is not
    /// positive and finite.
    pub fn with_adjustments(
        timing: &TimingGraph,
        pin_caps: &[f64],
        drive_scale: Option<&[f64]>,
    ) -> Self {
        assert_eq!(
            pin_caps.len(),
            timing.num_pins(),
            "capacitance vector length mismatch"
        );
        if let Some(ds) = drive_scale {
            assert_eq!(
                ds.len(),
                timing.cell_timing().len(),
                "drive scale length mismatch"
            );
            assert!(
                ds.iter().all(|s| s.is_finite() && *s > 0.0),
                "drive scales must be positive and finite"
            );
        }
        // Load of each driver pin: wire cap + Σ sink pin caps.
        let n = timing.num_pins();
        let mut load = vec![0.0f64; n];
        for p in 0..n {
            let info = timing.pin(p);
            match info.role {
                crate::PinRole::PrimaryInput | crate::PinRole::CellOutput { .. } => {
                    let net = info.net;
                    let mut l = timing.wire_cap(net);
                    for &s in timing.net_sink_pins(net) {
                        l += pin_caps[s];
                    }
                    load[p] = l;
                }
                _ => {}
            }
        }
        let drive: Vec<f64> = match drive_scale {
            Some(ds) => ds.to_vec(),
            None => vec![1.0; timing.cell_timing().len()],
        };
        let mut arrivals = vec![0.0f64; n];
        for &p in timing.topological_order() {
            let mut best: f64 = 0.0;
            for &ai in timing.fanin_arcs(p) {
                let (from, _, _) = timing.arcs()[ai];
                let delay = arc_delay(timing, ai, &load, pin_caps, &drive);
                best = best.max(arrivals[from] + delay);
            }
            arrivals[p] = best;
        }
        let critical = timing
            .po_pins()
            .iter()
            .map(|&p| arrivals[p])
            .fold(0.0f64, f64::max);
        StaEngine {
            arrivals,
            critical,
            loads: load,
            pin_caps: pin_caps.to_vec(),
            drive_scale: drive,
        }
    }

    /// Arrival time at every pin (ns).
    pub fn arrival_times(&self) -> &[f64] {
        &self.arrivals
    }

    /// Arrival time at pin `p`.
    pub fn arrival(&self, p: PinId) -> f64 {
        self.arrivals[p]
    }

    /// The latest primary-output arrival (critical-path delay).
    pub fn critical_arrival(&self) -> f64 {
        self.critical
    }

    /// Slack at each pin against the critical arrival used as the required
    /// time at every primary output (zero-slack convention for the worst
    /// path).
    pub fn slacks(&self, timing: &TimingGraph) -> Vec<f64> {
        let n = timing.num_pins();
        let mut required = vec![f64::INFINITY; n];
        for &p in timing.po_pins() {
            required[p] = self.critical;
        }
        for &p in timing.topological_order().iter().rev() {
            for &ai in timing.fanin_arcs(p) {
                let (from, _, _) = timing.arcs()[ai];
                let delay = arc_delay(timing, ai, &self.loads, &self.pin_caps, &self.drive_scale);
                let cand = required[p] - delay;
                if cand < required[from] {
                    required[from] = cand;
                }
            }
        }
        (0..n)
            .map(|p| {
                if required[p].is_finite() {
                    required[p] - self.arrivals[p]
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }
}

/// Delay of arc `ai` given the per-driver loads, pin capacitances and
/// per-cell drive scaling.
fn arc_delay(
    timing: &TimingGraph,
    ai: usize,
    loads: &[f64],
    pin_caps: &[f64],
    drive_scale: &[f64],
) -> f64 {
    let (_, to, kind) = timing.arcs()[ai];
    match kind {
        ArcKind::Cell { cell } => {
            let (intrinsic, drive_r) = timing.cell_timing()[cell];
            let out_pin = timing.cell_output_pin(cell);
            intrinsic + drive_r * drive_scale[cell] * loads[out_pin]
        }
        ArcKind::Net { net } => WIRE_RESISTANCE * (timing.wire_cap(net) + pin_caps[to]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, CellLibrary, Netlist, TimingGraph};

    fn chain(lengths: usize) -> (CellLibrary, TimingGraph) {
        let lib = CellLibrary::standard();
        let inv = lib.by_kind(CellKind::Inv).unwrap();
        let mut n = Netlist::new("chain");
        let mut prev = n.add_net("n0", 0.001);
        n.primary_inputs = vec![prev];
        for i in 0..lengths {
            let next = n.add_net(format!("n{}", i + 1), 0.001);
            n.add_cell(format!("g{i}"), inv, vec![prev], next).unwrap();
            prev = next;
        }
        n.primary_outputs = vec![prev];
        let tg = TimingGraph::new(&n, &lib).unwrap();
        (lib, tg)
    }

    #[test]
    fn arrival_monotone_along_arcs() {
        let (_, tg) = chain(5);
        let sta = StaEngine::new(&tg);
        for &(from, to, _) in tg.arcs() {
            assert!(sta.arrival(to) >= sta.arrival(from));
        }
    }

    #[test]
    fn longer_chain_has_larger_critical_delay() {
        let (_, tg3) = chain(3);
        let (_, tg6) = chain(6);
        let d3 = StaEngine::new(&tg3).critical_arrival();
        let d6 = StaEngine::new(&tg6).critical_arrival();
        assert!(d6 > d3 * 1.5, "{d6} vs {d3}");
    }

    #[test]
    fn hand_computed_single_inverter() {
        // PI -> inv -> PO, all caps known.
        let lib = CellLibrary::standard();
        let inv_id = lib.by_kind(CellKind::Inv).unwrap();
        let inv = lib.cell(inv_id).clone();
        let mut n = Netlist::new("one");
        let a = n.add_net("a", 0.001);
        let y = n.add_net("y", 0.002);
        n.primary_inputs = vec![a];
        n.primary_outputs = vec![y];
        n.add_cell("g0", inv_id, vec![a], y).unwrap();
        let tg = TimingGraph::new(&n, &lib).unwrap();
        let sta = StaEngine::new(&tg);
        // Pins: 0 = PI(a), 1 = g0 input, 2 = g0 output, 3 = PO(y).
        // Net arc a: delay = WIRE_R * (0.001 + cin).
        let cin = inv.input_caps[0];
        let t1 = WIRE_RESISTANCE * (0.001 + cin);
        assert!((sta.arrival(1) - t1).abs() < 1e-12);
        // Cell arc: load(output) = wire(y) + PO cap.
        let load = 0.002 + crate::timing_graph::PO_LOAD_CAP;
        let t2 = t1 + inv.intrinsic_delay + inv.drive_resistance * load;
        assert!((sta.arrival(2) - t2).abs() < 1e-12);
        // Net arc y: delay = WIRE_R * (0.002 + PO cap).
        let t3 = t2 + WIRE_RESISTANCE * (0.002 + crate::timing_graph::PO_LOAD_CAP);
        assert!((sta.arrival(3) - t3).abs() < 1e-12);
        assert!((sta.critical_arrival() - t3).abs() < 1e-12);
    }

    #[test]
    fn increasing_any_pin_cap_never_decreases_arrivals() {
        let (_, tg) = chain(4);
        let base = StaEngine::new(&tg);
        let caps = tg.pin_caps();
        for p in 0..tg.num_pins() {
            let mut perturbed = caps.clone();
            perturbed[p] += 0.01;
            let sta = StaEngine::with_caps(&tg, &perturbed);
            for q in 0..tg.num_pins() {
                assert!(
                    sta.arrival(q) >= base.arrival(q) - 1e-12,
                    "pin {p} perturbation decreased arrival at {q}"
                );
            }
        }
    }

    #[test]
    fn slack_zero_on_critical_path() {
        let (_, tg) = chain(4);
        let sta = StaEngine::new(&tg);
        let slacks = sta.slacks(&tg);
        // On a pure chain every pin is on the critical path.
        for (p, &s) in slacks.iter().enumerate() {
            assert!(s.abs() < 1e-9, "pin {p} slack {s}");
        }
    }

    #[test]
    fn drive_scaling_speeds_up_and_slows_down() {
        let (_, tg) = chain(4);
        let base = StaEngine::new(&tg).critical_arrival();
        let faster =
            StaEngine::with_adjustments(&tg, &tg.pin_caps(), Some(&[0.5; 4])).critical_arrival();
        let slower =
            StaEngine::with_adjustments(&tg, &tg.pin_caps(), Some(&[2.0; 4])).critical_arrival();
        assert!(faster < base, "{faster} vs {base}");
        assert!(slower > base, "{slower} vs {base}");
    }

    #[test]
    fn slack_positive_off_critical_path() {
        // Two parallel paths of different depth converging on a MAJ3 gate.
        let lib = CellLibrary::standard();
        let inv = lib.by_kind(CellKind::Inv).unwrap();
        let maj = lib.by_kind(CellKind::Maj3).unwrap();
        let mut n = Netlist::new("two_paths");
        let a = n.add_net("a", 0.001);
        let b = n.add_net("b", 0.001);
        let c = n.add_net("c", 0.001);
        // Long path: a through 3 inverters.
        let a1 = n.add_net("a1", 0.001);
        let a2 = n.add_net("a2", 0.001);
        let a3 = n.add_net("a3", 0.001);
        n.add_cell("i0", inv, vec![a], a1).unwrap();
        n.add_cell("i1", inv, vec![a1], a2).unwrap();
        n.add_cell("i2", inv, vec![a2], a3).unwrap();
        let y = n.add_net("y", 0.001);
        n.add_cell("m", maj, vec![a3, b, c], y).unwrap();
        n.primary_inputs = vec![a, b, c];
        n.primary_outputs = vec![y];
        let tg = TimingGraph::new(&n, &lib).unwrap();
        let sta = StaEngine::new(&tg);
        let slacks = sta.slacks(&tg);
        // The b and c PIs are off the critical path: positive slack.
        assert!(slacks[tg.pi_pins()[1]] > 1e-6);
        assert!(slacks[tg.pi_pins()[2]] > 1e-6);
        // The a PI is critical: ~zero slack.
        assert!(slacks[tg.pi_pins()[0]].abs() < 1e-9);
    }
}
