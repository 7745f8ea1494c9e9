//! Boolean logic simulation of combinational netlists.
//!
//! Evaluates a validated netlist on explicit input assignments — the
//! functional ground truth used to verify that generated sub-circuits
//! (adders, comparators, …) actually compute their advertised functions.

use crate::{CellLibrary, CircuitError, Netlist};

/// Evaluates `netlist` with the given primary-input assignment and returns
/// the value of every net.
///
/// # Errors
///
/// - [`CircuitError::InvalidArgument`] when `inputs.len()` differs from the
///   number of primary inputs.
/// - Propagates [`Netlist::topological_order`] / library-lookup failures.
pub fn simulate(
    netlist: &Netlist,
    library: &CellLibrary,
    inputs: &[bool],
) -> Result<Vec<bool>, CircuitError> {
    if inputs.len() != netlist.primary_inputs.len() {
        return Err(CircuitError::InvalidArgument {
            reason: format!(
                "{} input values supplied for {} primary inputs",
                inputs.len(),
                netlist.primary_inputs.len()
            ),
        });
    }
    let order = netlist.topological_order()?;
    let mut values = vec![false; netlist.num_nets()];
    for (&net, &v) in netlist.primary_inputs.iter().zip(inputs) {
        values[net] = v;
    }
    let mut in_buf = Vec::with_capacity(3);
    for &ci in &order {
        let cell = &netlist.cells[ci];
        let kind = library.get(cell.cell)?.kind;
        in_buf.clear();
        in_buf.extend(cell.inputs.iter().map(|&n| values[n]));
        values[cell.output] = kind.evaluate(&in_buf);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, CellLibrary};

    /// Builds a full adder: sum = a ⊕ b ⊕ cin, cout = MAJ(a, b, cin).
    fn full_adder() -> (CellLibrary, Netlist) {
        let lib = CellLibrary::standard();
        let xor = lib.by_kind(CellKind::Xor2).unwrap();
        let maj = lib.by_kind(CellKind::Maj3).unwrap();
        let mut n = Netlist::new("fa");
        let a = n.add_net("a", 0.001);
        let b = n.add_net("b", 0.001);
        let cin = n.add_net("cin", 0.001);
        let p = n.add_net("p", 0.001);
        let sum = n.add_net("sum", 0.001);
        let cout = n.add_net("cout", 0.001);
        n.primary_inputs = vec![a, b, cin];
        n.primary_outputs = vec![sum, cout];
        n.add_cell("x0", xor, vec![a, b], p).unwrap();
        n.add_cell("x1", xor, vec![p, cin], sum).unwrap();
        n.add_cell("m0", maj, vec![a, b, cin], cout).unwrap();
        (lib, n)
    }

    #[test]
    fn full_adder_truth_table() {
        let (lib, n) = full_adder();
        for pattern in 0..8u32 {
            let a = pattern & 1 == 1;
            let b = (pattern >> 1) & 1 == 1;
            let cin = (pattern >> 2) & 1 == 1;
            let values = simulate(&n, &lib, &[a, b, cin]).unwrap();
            let (sum, cout) = (n.primary_outputs[0], n.primary_outputs[1]);
            let expect = a as u32 + b as u32 + cin as u32;
            assert_eq!(values[sum], expect & 1 == 1, "sum for pattern {pattern}");
            assert_eq!(values[cout], expect >= 2, "cout for pattern {pattern}");
        }
    }

    #[test]
    fn wrong_input_count_rejected() {
        let (lib, n) = full_adder();
        assert!(simulate(&n, &lib, &[true, false]).is_err());
    }

    #[test]
    fn feedthrough_outputs_follow_inputs() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("wire");
        let a = n.add_net("a", 0.001);
        n.primary_inputs = vec![a];
        n.primary_outputs = vec![a];
        let outputs = |inputs: &[bool]| -> Vec<bool> {
            let values = simulate(&n, &lib, inputs).unwrap();
            n.primary_outputs.iter().map(|&o| values[o]).collect()
        };
        assert_eq!(outputs(&[true]), vec![true]);
        assert_eq!(outputs(&[false]), vec![false]);
    }
}
