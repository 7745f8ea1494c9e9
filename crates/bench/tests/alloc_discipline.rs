//! Allocation discipline: once their workspaces are warm, the steady-state
//! solver iterations must perform zero heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each probe
//! warms a solver's scratch pool, snapshots the allocation counter, re-runs
//! the same solve into preallocated outputs, and asserts the counter did not
//! move. The counter is per thread, so allocations on the test harness's
//! other threads never reach it, and the pool is pinned to one thread so
//! every kernel iteration runs on the measuring thread. The whole check lives
//! in one `#[test]` because the worker-thread setting is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cirstag_embed::{HnswIndex, HnswParams};
use cirstag_graph::Graph;
use cirstag_linalg::{par, DenseMatrix};
use cirstag_solver::{
    conjugate_gradient_block_into, conjugate_gradient_into, CgOptions, CgStats, CsrOperator,
    IdentityPreconditioner, Preconditioner, SolverWorkspace, TreePreconditioner,
};

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and drop-free, so
    /// reading it from inside the allocator never allocates or registers a
    /// destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread's locals are being torn down,
    // long after any measurement on that thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn grid(side: usize) -> Graph {
    let n = side * side;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            if c + 1 < side {
                edges.push((i, i + 1, 1.0));
            }
            if r + 1 < side {
                edges.push((i, i + side, 1.0 + (r % 2) as f64));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("grid builds")
}

/// Warms `ws` with one scalar CG solve, then asserts that re-running it
/// performs no heap allocation.
fn assert_warm_scalar_cg_is_allocation_free<M: Preconditioner>(
    label: &str,
    op: &CsrOperator<'_>,
    b: &[f64],
    pre: &M,
    options: CgOptions,
    ws: &mut SolverWorkspace,
) {
    let mut x = vec![0.0; b.len()];
    let warm = conjugate_gradient_into(op, b, pre, options, &mut x, ws).expect("warm cg");
    assert!(warm.converged, "{label}: warm-up solve must converge");
    let misses = ws.misses();
    let before = allocations();
    let stats = conjugate_gradient_into(op, b, pre, options, &mut x, ws).expect("hot cg");
    let after = allocations();
    assert!(stats.converged);
    assert_eq!(ws.misses(), misses, "{label}: warm workspace must not miss");
    assert_eq!(
        after - before,
        0,
        "{label}: warm conjugate_gradient_into allocated {} times",
        after - before
    );
}

/// Warms `ws` with one block CG solve, then asserts that re-running it
/// performs no heap allocation.
fn assert_warm_block_cg_is_allocation_free<M: Preconditioner>(
    label: &str,
    op: &CsrOperator<'_>,
    panel_b: &DenseMatrix,
    pre: &M,
    options: CgOptions,
    ws: &mut SolverWorkspace,
) {
    let k = panel_b.ncols();
    let mut panel_x = DenseMatrix::zeros(panel_b.nrows(), k);
    let mut stats: Vec<CgStats> = Vec::with_capacity(k);
    conjugate_gradient_block_into(op, panel_b, pre, options, &mut panel_x, &mut stats, ws)
        .expect("warm block cg");
    assert!(stats.iter().all(|s| s.converged), "{label}: warm-up solve");
    let misses = ws.misses();
    stats.clear();
    let before = allocations();
    conjugate_gradient_block_into(op, panel_b, pre, options, &mut panel_x, &mut stats, ws)
        .expect("hot block cg");
    let after = allocations();
    assert!(stats.iter().all(|s| s.converged));
    assert_eq!(ws.misses(), misses, "{label}: warm workspace must not miss");
    assert_eq!(
        after - before,
        0,
        "{label}: warm conjugate_gradient_block_into allocated {} times",
        after - before
    );
}

#[test]
fn warm_solver_iterations_are_allocation_free() {
    // Serial execution: thread-pool dispatch owns its own queue allocations,
    // which are pool plumbing rather than kernel work. With one thread the
    // pool runs every region inline, so the per-thread counter sees all of
    // the kernels' allocations.
    par::set_num_threads(1);
    assert_eq!(par::current_num_threads(), 1);

    let g = grid(12);
    let n = g.num_nodes();
    let lap = g.laplacian();
    let op = CsrOperator::new(&lap);
    let pre = IdentityPreconditioner;
    let options = CgOptions {
        tol: 1e-8,
        max_iter: 400,
    };
    let mut ws = SolverWorkspace::new();

    // ---- scalar and block CG, plain and tree-preconditioned ----------------
    // The scalar CG loop applies its preconditioner as a one-column panel on
    // every iteration, so the tree preconditioner's single-column route must
    // not touch the heap either.
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    let k = 8;
    let mut panel_b = DenseMatrix::zeros(n, k);
    for j in 0..k {
        panel_b.set(j, j, 1.0);
        panel_b.set(n - 1 - j, j, -1.0);
    }
    let tree = TreePreconditioner::new(&g, 3).expect("tree preconditioner");
    assert_warm_scalar_cg_is_allocation_free("identity", &op, &b, &pre, options, &mut ws);
    assert_warm_block_cg_is_allocation_free("identity", &op, &panel_b, &pre, options, &mut ws);
    assert_warm_scalar_cg_is_allocation_free("tree", &op, &b, &tree, options, &mut ws);
    assert_warm_block_cg_is_allocation_free("tree", &op, &panel_b, &tree, options, &mut ws);

    // ---- HNSW search: HnswIndex::knn_into ---------------------------------
    // One warm pass over every query grows the scratch arena (visited marks,
    // both heaps) and the output vectors to their high-water marks; replaying
    // the same queries must then be allocation-free.
    let points = {
        let mut data = Vec::with_capacity(400 * 4);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..400 * 4 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        }
        DenseMatrix::from_vec(400, 4, data).expect("points")
    };
    let params = HnswParams {
        m: 8,
        ef_construction: 48,
        ef_search: 32,
    };
    let index = HnswIndex::build(&points, &params, 7).expect("hnsw build");
    let mut scratch = index.scratch();
    let mut outs: Vec<Vec<(usize, f64)>> = (0..400).map(|_| Vec::with_capacity(16)).collect();
    for (q, out) in outs.iter_mut().enumerate() {
        index.knn_into(&points, q, 8, params.ef_search, &mut scratch, out);
    }
    let before = allocations();
    for (q, out) in outs.iter_mut().enumerate() {
        index.knn_into(&points, q, 8, params.ef_search, &mut scratch, out);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm HnswIndex::knn_into allocated {} times",
        after - before
    );
}
