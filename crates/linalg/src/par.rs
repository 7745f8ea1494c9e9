//! Workspace-wide parallel execution helpers.
//!
//! This module is the single seam between the CirSTAG crates and the
//! underlying thread pool: it is the only file in the workspace that names
//! `rayon` (the vendored pool under `vendor/rayon`), and `cirstag-lint`'s
//! `feature-hygiene` rule holds it to that. The helpers fan work out across a
//! persistent pool; with one thread configured (`--threads 1`,
//! `CirStagConfig::num_threads: 1`) the pool runs every region inline on the
//! calling thread.
//!
//! # Determinism contract
//!
//! Every helper assigns work item `i` a fixed output slot `i` and performs no
//! cross-item reductions, so results are **bit-identical** for any thread
//! count, one included. Callers must uphold the same rule: a closure passed
//! here must depend only on its index (and shared read-only state), never on
//! execution order.

/// Sets the worker-thread count for all subsequent parallel sections.
///
/// `0` means "use all available cores". Values above the core count are
/// honoured (oversubscription), which keeps multi-thread determinism tests
/// meaningful on small machines.
pub fn set_num_threads(n: usize) {
    rayon::set_num_threads(n);
}

/// Number of threads parallel sections will use.
pub fn current_num_threads() -> usize {
    rayon::current_num_threads()
}

/// Computes `f(i)` for every `i in 0..n`, returning results in index order.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    rayon::par_map_indexed(n, f)
}

/// Fallible variant of [`map_indexed`]: returns all results in index order,
/// or the error of the lowest-indexed failing item (deterministic regardless
/// of which thread hit an error first).
///
/// # Errors
///
/// Propagates the first error by item index.
pub fn try_map_indexed<T, E, F>(n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    rayon::par_map_indexed(n, f).into_iter().collect()
}

/// Calls `f(chunk_index, chunk)` on consecutive `chunk_len`-sized pieces of
/// `data` (last chunk may be shorter). Chunks are disjoint, so `f` needs no
/// synchronisation.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be non-zero"); // cirstag-lint: allow(error-hygiene) -- documented panic contract; every call site passes a nonzero constant chunk length
    rayon::par_chunks_mut(data, chunk_len, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order() {
        let v = map_indexed(100, |i| i * i);
        assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let r: Result<Vec<usize>, usize> =
            try_map_indexed(50, |i| if i % 7 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), 3);
    }

    #[test]
    fn chunks_cover_all_elements() {
        let mut data = vec![0u32; 37];
        chunks_mut(&mut data, 5, |ci, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 5 + j) as u32;
            }
        });
        assert_eq!(data, (0..37).collect::<Vec<u32>>());
    }
}
