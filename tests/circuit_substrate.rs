//! Property-based integration tests of the circuit substrate: generator,
//! parser, timing graph and STA interacting across module boundaries.

use cirstag_suite::circuit::{
    generate_circuit, parse_netlist, perturb_pin_caps, write_netlist, CapPerturbation, CellLibrary,
    GeneratorConfig, StaEngine, TimingGraph,
};
use proptest::prelude::*;

fn arb_generator_config() -> impl Strategy<Value = (GeneratorConfig, u64)> {
    (20usize..150, 0.0f64..0.95, 8usize..64, 1u64..500).prop_map(
        |(num_gates, locality, window, seed)| {
            (
                GeneratorConfig {
                    num_gates,
                    locality,
                    locality_window: window,
                    ..Default::default()
                },
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_circuits_roundtrip_through_the_text_format(
        (cfg, seed) in arb_generator_config()
    ) {
        let library = CellLibrary::standard();
        let original = generate_circuit(&library, &cfg, seed).expect("generate");
        let text = write_netlist(&original, &library);
        let parsed = parse_netlist(&text, &library).expect("parse");
        prop_assert_eq!(parsed.num_cells(), original.num_cells());
        prop_assert_eq!(parsed.num_nets(), original.num_nets());
        prop_assert_eq!(&parsed.primary_inputs, &original.primary_inputs);
        prop_assert_eq!(&parsed.primary_outputs, &original.primary_outputs);
        for (a, b) in parsed.cells.iter().zip(&original.cells) {
            prop_assert_eq!(a.cell, b.cell);
            prop_assert_eq!(&a.inputs, &b.inputs);
            prop_assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn sta_arrivals_are_finite_monotone_and_causal((cfg, seed) in arb_generator_config()) {
        let library = CellLibrary::standard();
        let netlist = generate_circuit(&library, &cfg, seed).expect("generate");
        let timing = TimingGraph::new(&netlist, &library).expect("timing");
        let sta = StaEngine::new(&timing);
        for &(from, to, _) in timing.arcs() {
            prop_assert!(sta.arrival(to) >= sta.arrival(from), "arc {} -> {}", from, to);
        }
        prop_assert!(sta.arrival_times().iter().all(|a| a.is_finite() && *a >= 0.0));
        prop_assert!(sta.critical_arrival() > 0.0);
        // Slack of at least one PO is ~zero (the critical endpoint).
        let slacks = sta.slacks(&timing);
        let min_po_slack = timing
            .po_pins()
            .iter()
            .map(|&p| slacks[p])
            .fold(f64::INFINITY, f64::min);
        prop_assert!(min_po_slack.abs() < 1e-9, "worst PO slack {}", min_po_slack);
        // No slack is meaningfully negative under the zero-slack convention.
        prop_assert!(slacks.iter().all(|s| *s > -1e-9));
    }

    #[test]
    fn cap_increase_never_speeds_up_the_circuit((cfg, seed) in arb_generator_config()) {
        let library = CellLibrary::standard();
        let netlist = generate_circuit(&library, &cfg, seed).expect("generate");
        let timing = TimingGraph::new(&netlist, &library).expect("timing");
        let base = StaEngine::new(&timing);
        // Perturb an arbitrary eligible subset.
        let pins: Vec<usize> = (0..timing.num_pins()).filter(|p| p % 3 == 0).collect();
        let pert = CapPerturbation::new(pins, 4.0).expect("perturbation");
        let caps = perturb_pin_caps(&timing, &pert).expect("caps");
        let perturbed = StaEngine::with_caps(&timing, &caps);
        for p in 0..timing.num_pins() {
            prop_assert!(
                perturbed.arrival(p) >= base.arrival(p) - 1e-12,
                "pin {} sped up",
                p
            );
        }
    }

    #[test]
    fn pin_graph_is_connected_iff_undirected_reachability(
        (cfg, seed) in arb_generator_config()
    ) {
        let library = CellLibrary::standard();
        let netlist = generate_circuit(&library, &cfg, seed).expect("generate");
        let timing = TimingGraph::new(&netlist, &library).expect("timing");
        let g = timing.to_undirected_graph().expect("pin graph");
        prop_assert_eq!(g.num_nodes(), timing.num_pins());
        prop_assert_eq!(g.num_edges(), timing.num_arcs());
        // Every pin belongs to some net with a driver, so no isolated nodes.
        for p in 0..g.num_nodes() {
            prop_assert!(g.neighbor_count(p) > 0, "pin {} isolated", p);
        }
    }
}
