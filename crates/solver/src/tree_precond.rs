//! Spanning-tree (support-graph) preconditioning for Laplacian systems.

use crate::workspace::SolverWorkspace;
use crate::{Preconditioner, SolverError};
use cirstag_graph::{low_stretch_tree, Graph};

/// A support-graph preconditioner `M = L_T⁺` where `T` is a low-stretch
/// spanning tree of the graph (Vaidya-style).
///
/// Applying the preconditioner is an *exact* `O(n)` solve of the tree
/// Laplacian by leaf elimination: an up-sweep accumulates the right-hand
/// side toward the root, a down-sweep recovers potentials, and the result is
/// centered onto the range of the Laplacian. The PCG iteration count is then
/// governed by the tree's total stretch rather than by the (possibly huge)
/// edge-weight dynamic range — the practical stand-in for the nearly-linear
/// Laplacian solvers the paper cites.
///
/// # Example
///
/// ```
/// use cirstag_graph::Graph;
/// use cirstag_solver::{conjugate_gradient, CgOptions, CsrOperator, TreePreconditioner};
///
/// # fn main() -> Result<(), cirstag_solver::SolverError> {
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])?;
/// let pre = TreePreconditioner::new(&g, 1)?;
/// let lap = g.laplacian();
/// let op = CsrOperator::new(&lap);
/// let b = [1.0, -1.0, 1.0, -1.0];
/// let result = conjugate_gradient(&op, &b, &pre, CgOptions::default())?;
/// assert!(result.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TreePreconditioner {
    /// Every node with its tree parent and the weight of the edge to it, in
    /// BFS order from the roots (parents precede children; a root is its
    /// own parent, with weight 0). The sweeps stream this array in order.
    order: Vec<TreeStep>,
    /// Component index per node (forests solve per component).
    component: Vec<usize>,
    /// Node count per component, as the divisor of the per-component mean.
    component_len: Vec<f64>,
}

/// One node of the BFS order with its tree parent.
#[derive(Debug, Clone, Copy)]
struct TreeStep {
    node: usize,
    parent: usize,
    weight: f64,
}

impl TreePreconditioner {
    /// Builds the preconditioner from a low-stretch spanning tree of `g`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Graph`] when `g` is disconnected.
    pub fn new(g: &Graph, seed: u64) -> Result<Self, SolverError> {
        let tree = low_stretch_tree(g, seed)?;
        Ok(Self::from_tree_graph(tree.as_graph()))
    }

    /// Builds the preconditioner from an explicit tree/forest graph.
    pub fn from_tree_graph(tree: &Graph) -> Self {
        let n = tree.num_nodes();
        let mut order = Vec::with_capacity(n);
        let mut component = vec![0usize; n];
        let mut component_len = Vec::new();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            queue.push_back(TreeStep {
                node: s,
                parent: s,
                weight: 0.0,
            });
            let first = order.len();
            while let Some(step) = queue.pop_front() {
                let u = step.node;
                order.push(step);
                component[u] = component_len.len();
                for (v, w) in tree.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(TreeStep {
                            node: v,
                            parent: u,
                            weight: w,
                        });
                    }
                }
            }
            component_len.push((order.len() - first) as f64);
        }
        TreePreconditioner {
            order,
            component,
            component_len,
        }
    }

    /// Length of the scratch [`TreePreconditioner::tree_solve`] needs: one
    /// sum per component on a forest, nothing on a tree.
    fn forest_scratch_len(&self) -> usize {
        match self.component_len.len() {
            1 => 0,
            nc => nc,
        }
    }

    /// Projects each component of `x` to mean zero (the forest Laplacian's
    /// nullspace is spanned by per-component indicators). `sums` holds
    /// [`TreePreconditioner::forest_scratch_len`] entries.
    fn center_per_component(&self, x: &mut [f64], sums: &mut [f64]) {
        if self.component_len.len() <= 1 {
            let mut sum = 0.0;
            for &v in x.iter() {
                sum += v;
            }
            let mean = sum / x.len() as f64;
            for v in x.iter_mut() {
                *v -= mean;
            }
            return;
        }
        sums.fill(0.0);
        for (&c, &v) in self.component.iter().zip(x.iter()) {
            sums[c] += v;
        }
        for (v, &c) in x.iter_mut().zip(&self.component) {
            *v -= sums[c] / self.component_len[c];
        }
    }

    /// Dimension of the preconditioner.
    pub fn dim(&self) -> usize {
        self.component.len()
    }

    /// Exact solve `L_T z = r` (both projected to mean zero), in place in
    /// `z` with `sums` ([`TreePreconditioner::forest_scratch_len`] entries)
    /// as the only scratch.
    ///
    /// Kirchhoff on a tree: the current through the edge `(v, parent)` equals
    /// the total injection inside `v`'s subtree, so
    /// `z_v = z_parent + subtree_sum(v) / w(v, parent)`. The up-sweep visits
    /// children before parents, so `z[v]` holds `v`'s final subtree sum when
    /// the sweep reaches `v` and is never added to again; the down-sweep
    /// visits parents first and overwrites it with the potential. One buffer
    /// thus carries the right-hand side, the subtree sums and the solution.
    fn tree_solve(&self, r: &[f64], z: &mut [f64], sums: &mut [f64]) {
        z.copy_from_slice(r);
        self.center_per_component(z, sums);
        // Up-sweep: subtree sums of the centered rhs.
        for step in self.order.iter().rev() {
            let TreeStep { node, parent, .. } = *step;
            if parent != node {
                z[parent] += z[node];
            }
        }
        // Down-sweep: potentials relative to each root, then re-center.
        for step in &self.order {
            let TreeStep {
                node,
                parent,
                weight,
            } = *step;
            z[node] = if parent == node {
                0.0
            } else {
                z[parent] + z[node] / weight
            };
        }
        self.center_per_component(z, sums);
    }

    /// Panel form of [`TreePreconditioner::center_per_component`]: projects
    /// every column of the row-major `k`-wide panel to per-component mean
    /// zero. Column-wise bit-identical to the vector form (same summation
    /// and subtraction order per column).
    fn center_per_component_panel(&self, x: &mut [f64], k: usize, ws: &mut SolverWorkspace) {
        let n = self.dim();
        if n == 0 {
            return;
        }
        if self.component_len.len() <= 1 {
            let mut sums = ws.take(k);
            for row in x.chunks_exact(k) {
                for (s, &v) in sums.iter_mut().zip(row) {
                    *s += v;
                }
            }
            for s in sums.iter_mut() {
                *s /= n as f64;
            }
            for row in x.chunks_exact_mut(k) {
                for (v, &m) in row.iter_mut().zip(sums.iter()) {
                    *v -= m;
                }
            }
            ws.put(sums);
            return;
        }
        let mut sums = ws.take(self.component_len.len() * k);
        for (v, &c) in self.component.iter().enumerate() {
            for (s, &val) in sums[c * k..c * k + k].iter_mut().zip(&x[v * k..v * k + k]) {
                *s += val;
            }
        }
        for (v, &c) in self.component.iter().enumerate() {
            let len = self.component_len[c];
            for (xv, &s) in x[v * k..v * k + k].iter_mut().zip(&sums[c * k..c * k + k]) {
                *xv -= s / len;
            }
        }
        ws.put(sums);
    }

    /// Panel form of [`TreePreconditioner::tree_solve`]: one up-sweep and
    /// one down-sweep advance all `k` columns together, in place in `z`, with
    /// the centering scratch drawn from the workspace so steady-state
    /// applications never allocate. Column `j` performs the exact operation
    /// sequence of `tree_solve` on column `j` alone.
    fn tree_solve_panel(&self, r: &[f64], z: &mut [f64], k: usize, ws: &mut SolverWorkspace) {
        z.copy_from_slice(r);
        self.center_per_component_panel(z, k, ws);
        for step in self.order.iter().rev() {
            let TreeStep { node, parent, .. } = *step;
            if parent != node {
                for j in 0..k {
                    let zv = z[node * k + j];
                    z[parent * k + j] += zv;
                }
            }
        }
        for step in &self.order {
            let TreeStep {
                node,
                parent,
                weight,
            } = *step;
            if parent == node {
                z[node * k..node * k + k].fill(0.0);
            } else {
                for j in 0..k {
                    z[node * k + j] = z[parent * k + j] + z[node * k + j] / weight;
                }
            }
        }
        self.center_per_component_panel(z, k, ws);
    }
}

impl Preconditioner for TreePreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolverError> {
        if r.len() != self.dim() || z.len() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: r.len().max(z.len()),
            });
        }
        // Empty, so no allocation, on a connected tree.
        let mut sums = vec![0.0; self.forest_scratch_len()];
        self.tree_solve(r, z, &mut sums);
        Ok(())
    }

    /// A single column (every call of the scalar CG loop) takes the scalar
    /// sweep with its scratch from `ws`; wider panels take the fused panel
    /// sweep.
    fn apply_panel(
        &self,
        r: &[f64],
        z: &mut [f64],
        ncols: usize,
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        if r.len() != self.dim() * ncols || z.len() != self.dim() * ncols {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim() * ncols,
                actual: r.len().max(z.len()),
            });
        }
        match ncols {
            0 => {}
            1 => {
                let mut sums = ws.take(self.forest_scratch_len());
                self.tree_solve(r, z, &mut sums);
                ws.put(sums);
            }
            k => self.tree_solve_panel(r, z, k, ws),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conjugate_gradient, CgOptions, CsrOperator, JacobiPreconditioner};

    #[test]
    fn tree_solve_is_exact_on_a_tree() {
        // For a tree graph, PCG with the tree preconditioner converges in
        // one iteration (M = A exactly, up to the nullspace).
        let tree =
            Graph::from_edges(5, &[(0, 1, 2.0), (1, 2, 0.5), (1, 3, 4.0), (3, 4, 1.0)]).unwrap();
        let pre = TreePreconditioner::from_tree_graph(&tree);
        let lap = tree.laplacian();
        let mut b = vec![1.0, -2.0, 0.5, 0.25, 0.25];
        cirstag_linalg::vecops::center(&mut b);
        let mut z = vec![0.0; 5];
        pre.apply(&b, &mut z).unwrap();
        let lz = lap.mul_vec(&z);
        for (a, c) in lz.iter().zip(&b) {
            assert!(
                (a - c).abs() < 1e-10,
                "tree solve residual {}",
                (a - c).abs()
            );
        }
    }

    #[test]
    fn beats_jacobi_on_wide_weight_range() {
        // Ring + random chords with weights spanning 6 orders of magnitude —
        // the regime where Jacobi-PCG stalls.
        let n = 200;
        let mut edges = Vec::new();
        for i in 0..n {
            let w = if i % 3 == 0 { 1e3 } else { 1.0 };
            edges.push((i, (i + 1) % n, w));
        }
        for i in (0..n).step_by(7) {
            edges.push((i, (i * 13 + 29) % n, 1e-3));
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let lap = g.laplacian();
        let op = CsrOperator::new(&lap);
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
        cirstag_linalg::vecops::center(&mut b);
        let opts = CgOptions {
            tol: 1e-8,
            max_iter: 5000,
        };
        let jac = JacobiPreconditioner::from_matrix(&lap);
        let r_jac = conjugate_gradient(&op, &b, &jac, opts).unwrap();
        let tree = TreePreconditioner::new(&g, 3).unwrap();
        let r_tree = conjugate_gradient(&op, &b, &tree, opts).unwrap();
        assert!(r_tree.converged);
        assert!(
            r_tree.iterations <= r_jac.iterations,
            "tree {} vs jacobi {}",
            r_tree.iterations,
            r_jac.iterations
        );
    }

    #[test]
    fn solution_satisfies_system_on_grid() {
        let side = 10;
        let mut edges = Vec::new();
        for i in 0..side {
            for j in 0..side {
                let id = i * side + j;
                if j + 1 < side {
                    edges.push((id, id + 1, 1.0 + (id % 5) as f64));
                }
                if i + 1 < side {
                    edges.push((id, id + side, 1.0));
                }
            }
        }
        let g = Graph::from_edges(side * side, &edges).unwrap();
        let lap = g.laplacian();
        let op = CsrOperator::new(&lap);
        let mut b: Vec<f64> = (0..side * side).map(|i| (i % 7) as f64 - 3.0).collect();
        cirstag_linalg::vecops::center(&mut b);
        let tree = TreePreconditioner::new(&g, 1).unwrap();
        let res = conjugate_gradient(
            &op,
            &b,
            &tree,
            CgOptions {
                tol: 1e-10,
                max_iter: 500,
            },
        )
        .unwrap();
        assert!(res.converged, "residual {}", res.residual_norm);
        let lx = lap.mul_vec(&res.x);
        for (a, c) in lx.iter().zip(&b) {
            assert!((a - c).abs() < 1e-7);
        }
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(TreePreconditioner::new(&g, 0).is_err());
    }

    #[test]
    fn forest_solve_is_exact_per_component() {
        // Two disjoint paths: the tree solve must satisfy L z = r̄ with the
        // rhs centered within each component.
        let forest = Graph::from_edges(5, &[(0, 1, 2.0), (1, 2, 1.0), (3, 4, 4.0)]).unwrap();
        let pre = TreePreconditioner::from_tree_graph(&forest);
        let lap = forest.laplacian();
        // rhs centered per component: comp {0,1,2} and comp {3,4}.
        let b = [1.0, 0.5, -1.5, 2.0, -2.0];
        let mut z = vec![0.0; 5];
        pre.apply(&b, &mut z).unwrap();
        let lz = lap.mul_vec(&z);
        for (i, (a, c)) in lz.iter().zip(&b).enumerate() {
            assert!((a - c).abs() < 1e-10, "entry {i}: {a} vs {c}");
        }
    }

    #[test]
    fn panel_apply_is_bit_identical_to_columnwise_apply() {
        use crate::workspace::SolverWorkspace;
        // Connected graph (single component) and a forest (multi-component)
        // both must satisfy the panel contract exactly.
        let connected = Graph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 0.5),
                (2, 3, 4.0),
                (3, 4, 1.0),
                (4, 5, 3.0),
                (5, 0, 0.25),
            ],
        )
        .unwrap();
        let forest = Graph::from_edges(5, &[(0, 1, 2.0), (1, 2, 1.0), (3, 4, 4.0)]).unwrap();
        // k = 1 is the scalar CG loop's single-column route, k = 2 the
        // narrowest fused panel, k = 32 a full resistance-probe panel.
        for (g, n) in [
            (TreePreconditioner::new(&connected, 7).unwrap(), 6),
            (TreePreconditioner::from_tree_graph(&forest), 5),
        ] {
            for k in [1usize, 2, 32] {
                let mut panel = vec![0.0; n * k];
                for (idx, v) in panel.iter_mut().enumerate() {
                    *v = ((idx * 37 + 11) % 19) as f64 - 9.0;
                }
                let mut ws = SolverWorkspace::new();
                let mut z_panel = vec![0.0; n * k];
                g.apply_panel(&panel, &mut z_panel, k, &mut ws).unwrap();
                for j in 0..k {
                    let col: Vec<f64> = (0..n).map(|i| panel[i * k + j]).collect();
                    let mut z_col = vec![0.0; n];
                    g.apply(&col, &mut z_col).unwrap();
                    for i in 0..n {
                        assert!(
                            z_panel[i * k + j].to_bits() == z_col[i].to_bits(),
                            "k = {k}, column {j}, row {i}: {} vs {}",
                            z_panel[i * k + j],
                            z_col[i]
                        );
                    }
                }
                // A warmed workspace must not allocate again.
                let misses = ws.misses();
                g.apply_panel(&panel, &mut z_panel, k, &mut ws).unwrap();
                assert_eq!(ws.misses(), misses, "k = {k}");
            }
        }
    }

    #[test]
    fn application_is_linear() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 0.5)]).unwrap();
        let pre = TreePreconditioner::new(&g, 2).unwrap();
        let a = [1.0, -1.0, 2.0, -2.0];
        let b = [0.5, 0.5, -0.5, -0.5];
        let mut za = vec![0.0; 4];
        let mut zb = vec![0.0; 4];
        let mut zab = vec![0.0; 4];
        pre.apply(&a, &mut za).unwrap();
        pre.apply(&b, &mut zb).unwrap();
        let ab: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        pre.apply(&ab, &mut zab).unwrap();
        for i in 0..4 {
            assert!((zab[i] - za[i] - zb[i]).abs() < 1e-12);
        }
    }
}
