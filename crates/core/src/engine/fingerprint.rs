//! Content fingerprints for the per-stage artifact cache.
//!
//! Every stage key is a 128-bit [`Fingerprint`] produced by hashing, in
//! order: an engine schema tag, the stage name, the run-wide knobs that
//! change *behavior* (failure policy, audit build flavor),
//! the fingerprints of the stage's input artifacts (Merkle-style chaining),
//! and finally the raw data plus config fields the stage itself declares it
//! reads. Fields a stage does not read — most importantly `num_threads`
//! (results are bit-identical at every thread count) and Phase-3-only knobs
//! in Phase-1/2 keys — are deliberately excluded, which is what makes
//! incremental re-runs hit the cache.
//!
//! The hash is two independent FNV-1a lanes over the same byte stream; it
//! is a content address for caching, not a cryptographic commitment.

use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;

/// 64-bit FNV-1a prime shared by both lanes.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Standard FNV-1a offset basis (low lane).
const FNV_OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325;
/// High-lane offset basis; the lane also whitens each byte so the two
/// lanes never collapse onto the same trajectory.
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
/// Per-byte whitening constant for the high lane.
const HI_LANE_XOR: u64 = 0x5c;

/// A 128-bit content fingerprint: the cache key of one stage invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint {
    /// Low hash lane.
    pub lo: u64,
    /// High hash lane.
    pub hi: u64,
}

impl Fingerprint {
    /// 32-hex-digit rendering, used for on-disk cache file names.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Streaming hasher producing a [`Fingerprint`].
///
/// All multi-byte writes are little-endian and floats hash by their exact
/// bit pattern, so a fingerprint is reproducible across runs, thread
/// counts, and platforms with IEEE-754 `f64`.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lo: u64,
    hi: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprinter {
            lo: FNV_OFFSET_LO,
            hi: FNV_OFFSET_HI,
        }
    }

    /// Absorbs one byte into both lanes.
    pub fn write_byte(&mut self, b: u8) {
        let x = u64::from(b);
        self.lo = (self.lo ^ x).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ (x ^ HI_LANE_XOR)).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_byte(b);
        }
    }

    /// Absorbs a `usize`, widened to `u64` (saturating on exotic targets).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(u64::try_from(v).unwrap_or(u64::MAX));
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_byte(u8::from(v));
    }

    /// Absorbs an `f64` by exact bit pattern (NaN payloads included).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for &b in s.as_bytes() {
            self.write_byte(b);
        }
    }

    /// Chains another fingerprint (Merkle-style input linking).
    pub fn write_fingerprint(&mut self, fp: Fingerprint) {
        self.write_u64(fp.lo);
        self.write_u64(fp.hi);
    }

    /// Absorbs a graph's full content: node count plus every edge's
    /// endpoints and exact weight bits, in stored edge order.
    pub fn write_graph(&mut self, g: &Graph) {
        self.write_usize(g.num_nodes());
        self.write_usize(g.num_edges());
        for e in g.edges() {
            self.write_usize(e.u);
            self.write_usize(e.v);
            self.write_f64(e.weight);
        }
    }

    /// Absorbs a dense matrix's shape and exact element bits.
    pub fn write_matrix(&mut self, m: &DenseMatrix) {
        self.write_usize(m.nrows());
        self.write_usize(m.ncols());
        for &x in m.as_slice() {
            self.write_f64(x);
        }
    }

    /// Absorbs an optional matrix (presence flag plus content).
    pub fn write_opt_matrix(&mut self, m: Option<&DenseMatrix>) {
        match m {
            None => self.write_bool(false),
            Some(m) => {
                self.write_bool(true);
                self.write_matrix(m);
            }
        }
    }

    /// Finalizes the two lanes into a [`Fingerprint`].
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fingerprinter::new();
        a.write_str("stage");
        a.write_u64(7);
        let mut b = Fingerprinter::new();
        b.write_str("stage");
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprinter::new();
        c.write_u64(7);
        c.write_str("stage");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn float_bits_distinguish_zero_signs() {
        let mut a = Fingerprinter::new();
        a.write_f64(0.0);
        let mut b = Fingerprinter::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn graph_content_changes_fingerprint() {
        let g1 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let g2 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]).unwrap();
        let mut a = Fingerprinter::new();
        a.write_graph(&g1);
        let mut b = Fingerprinter::new();
        b.write_graph(&g2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_32_digits() {
        let fp = Fingerprinter::new().finish();
        assert_eq!(fp.hex().len(), 32);
    }
}
