//! Property-based tests for the iterative solvers and eigensolvers.

use cirstag_graph::Graph;
use cirstag_linalg::{jacobi_eigen, vecops, CsrMatrix, DenseMatrix};
use cirstag_solver::{
    conjugate_gradient, generalized_lanczos, lanczos_largest, CgOptions, CsrOperator,
    JacobiPreconditioner, LaplacianSolver, ResistanceEstimator, TreePreconditioner,
};
use proptest::prelude::*;

/// Random SPD matrix via AᵀA + n·I on a small dense A.
fn arb_spd(n: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
        let a = DenseMatrix::from_vec(n, n, data).expect("sized");
        let ata = a.transpose().matmul(&a).expect("square");
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let v = ata.get(i, j) + if i == j { n as f64 } else { 0.0 };
                trips.push((i, j, v));
            }
        }
        CsrMatrix::from_triplets(n, n, &trips).expect("valid")
    })
}

fn arb_connected(max_n: usize) -> impl Strategy<Value = Graph> {
    (
        4usize..max_n,
        proptest::collection::vec((0usize..997, 0usize..991, 0.1f64..8.0), 0..25),
    )
        .prop_map(|(n, extra)| {
            let mut edges: Vec<(usize, usize, f64)> = (0..n)
                .map(|i| (i, (i + 1) % n, 0.5 + (i % 3) as f64))
                .collect();
            for (a, b, w) in extra {
                let u = a % n;
                let v = b % n;
                if u != v {
                    edges.push((u, v, w));
                }
            }
            Graph::from_edges(n, &edges).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cg_solves_random_spd_systems(m in arb_spd(8), b in proptest::collection::vec(-5.0f64..5.0, 8)) {
        let op = CsrOperator::new(&m);
        let pre = JacobiPreconditioner::from_matrix(&m);
        let res = conjugate_gradient(&op, &b, &pre, CgOptions::default()).unwrap();
        prop_assert!(res.converged, "residual {}", res.residual_norm);
        let ax = m.mul_vec(&res.x);
        let bn = vecops::norm2(&b).max(1e-12);
        for (a, c) in ax.iter().zip(&b) {
            prop_assert!((a - c).abs() <= 1e-6 * bn);
        }
    }

    #[test]
    fn laplacian_solver_inverts_on_the_range(g in arb_connected(20), raw in proptest::collection::vec(-3.0f64..3.0, 20)) {
        let n = g.num_nodes();
        let mut b = raw[..n].to_vec();
        vecops::center(&mut b);
        let solver = LaplacianSolver::new(&g).unwrap();
        let x = solver.solve(&b).unwrap();
        let lx = solver.laplacian().mul_vec(&x);
        let bn = vecops::norm2(&b).max(1e-9);
        for (a, c) in lx.iter().zip(&b) {
            prop_assert!((a - c).abs() <= 1e-5 * bn);
        }
        prop_assert!(vecops::mean(&x).abs() < 1e-10);
    }

    #[test]
    fn tree_preconditioned_solver_agrees_with_jacobi(g in arb_connected(18), raw in proptest::collection::vec(-3.0f64..3.0, 18)) {
        let n = g.num_nodes();
        let mut b = raw[..n].to_vec();
        vecops::center(&mut b);
        // Jacobi-preconditioned CG on the centered system, centered after.
        let lap = g.laplacian();
        let jacobi = JacobiPreconditioner::from_matrix(&lap);
        let cg = conjugate_gradient(&CsrOperator::new(&lap), &b, &jacobi, CgOptions::default())
            .unwrap();
        prop_assert!(cg.converged);
        let mut jac = cg.x;
        vecops::center(&mut jac);
        let tree = LaplacianSolver::with_tree_preconditioner(&g, CgOptions::default())
            .unwrap()
            .solve(&b)
            .unwrap();
        let scale = vecops::norm2(&jac).max(1e-9);
        for (a, c) in jac.iter().zip(&tree) {
            prop_assert!((a - c).abs() <= 1e-5 * scale, "{} vs {}", a, c);
        }
    }

    #[test]
    fn tree_preconditioner_is_spd_on_complement(g in arb_connected(14), raw in proptest::collection::vec(-2.0f64..2.0, 14)) {
        // rᵀ M⁻¹ r > 0 for centered nonzero r — required for PCG validity.
        let n = g.num_nodes();
        let mut r = raw[..n].to_vec();
        vecops::center(&mut r);
        if vecops::norm2(&r) > 1e-9 {
            let pre = TreePreconditioner::new(&g, 7).unwrap();
            let mut z = vec![0.0; n];
            cirstag_solver::Preconditioner::apply(&pre, &r, &mut z).unwrap();
            prop_assert!(vecops::dot(&r, &z) > 0.0);
        }
    }

    #[test]
    fn lanczos_top_value_matches_dense(m in arb_spd(9)) {
        let op = CsrOperator::new(&m);
        let lz = lanczos_largest(&op, 1, 60, 1e-10, 3).unwrap();
        let (dense_vals, _) = jacobi_eigen(&m.to_dense()).unwrap();
        let top = dense_vals.last().copied().unwrap();
        prop_assert!((lz.eigenvalues[0] - top).abs() <= 1e-6 * top.abs().max(1.0));
    }

    #[test]
    fn effective_resistance_is_a_metric_sample(g in arb_connected(14)) {
        // Triangle inequality of the resistance distance on a node triple.
        let est = ResistanceEstimator::exact(&g).unwrap();
        let r01 = est.query(0, 1).unwrap();
        let r12 = est.query(1, 2).unwrap();
        let r02 = est.query(0, 2).unwrap();
        prop_assert!(r02 <= r01 + r12 + 1e-9);
        prop_assert!(r01 <= r02 + r12 + 1e-9);
    }

    #[test]
    fn generalized_eigenvalues_of_scaled_pencil(g in arb_connected(12), c in 0.25f64..4.0) {
        // L_X = c·L_Y ⇒ every generalized eigenvalue equals c.
        let scaled = g.map_weights(|_, e| e.weight * c);
        let solver = LaplacianSolver::new(&g).unwrap();
        let r = generalized_lanczos(&scaled.laplacian(), &solver, 2, 40, 1).unwrap();
        for v in &r.eigenvalues {
            prop_assert!((v - c).abs() < 1e-4 * c, "{} vs {}", v, c);
        }
    }
}
