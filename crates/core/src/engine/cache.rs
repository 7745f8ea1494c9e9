//! Fingerprint-keyed artifact cache: in-memory LRU plus an optional
//! on-disk layer.
//!
//! A cache entry stores a stage's output artifact *and* the diagnostics
//! segment (fallback events + warnings) the stage emitted while computing
//! it. On a hit the executor replays that segment verbatim before reusing
//! the artifact, so a warm run's report is bit-identical to the cold run
//! that populated the cache — including `degraded` status and event order.
//!
//! The disk layer is best-effort by design: entries that fail to
//! serialize (e.g. non-finite floats, which the JSON writer rejects) or
//! write are treated as misses and never fail the run. Writes are
//! crash-safe: the entry is rendered to a temporary file in the same
//! directory and atomically renamed into place, so a crash mid-write can
//! never leave a half-written entry under a live key. Every entry carries a
//! content checksum; an entry that fails to parse or verify on read is
//! *quarantined* — renamed aside with a `.quarantined` suffix and surfaced
//! as a [`FallbackEvent`] in the run's diagnostics — rather than silently
//! skipped, so corruption is observable and never re-read.
//!
//! One [`ArtifactCache`] is shared by `&` across any number of runs and
//! threads (the CLI's cached runs, the `cirstag serve` workers): the LRU,
//! disk and quarantine store sits behind one lock, held only across single
//! lookup/store operations, and misses are single-flight — two runs racing
//! on the same stage fingerprint yield exactly one compute and one replay.

use crate::engine::fingerprint::{Fingerprint, Fingerprinter};
use crate::{ApproxKnnRecord, FallbackEvent};
use cirstag_graph::Graph;
use cirstag_linalg::{fail, DenseMatrix};
use cirstag_solver::GeneralizedEigen;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Schema tag written into every on-disk entry; bumped whenever the
/// payload layout changes so stale files read as misses, not garbage.
/// v3 added the `segment` field (the partition label of a
/// partition-scoped stage artifact).
const DISK_SCHEMA: &str = "cirstag-artifact/v3";

/// Error-message prefix for a schema mismatch. A stale-but-well-formed
/// entry written by another version reads as a plain miss (the disk dir may
/// be shared across versions), unlike genuine corruption, which quarantines.
const SCHEMA_MISMATCH: &str = "unsupported cache entry schema";

/// Suffix appended to a corrupt entry's file name when it is quarantined.
const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Diagnostics stage name for disk-layer events.
const DISK_STAGE: &str = "cache/disk";

/// Process-wide counter making temporary file names unique across threads
/// (two caches in one process may write the same key's entry).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Default in-memory capacity (entries). Five cacheable stages per run
/// leaves room for a ~10-config sweep before eviction starts.
const DEFAULT_CAPACITY: usize = 64;

/// The DMD scoring output of Phase 3 (the data half of a
/// [`crate::StabilityReport`]).
#[derive(Debug, Clone)]
pub struct ScoreSet {
    /// The `s` largest generalized eigenvalues, post-guardrail.
    pub eigenvalues: Vec<f64>,
    /// Per-edge DMD scores `(p, q, score)` over the input manifold.
    pub edge_scores: Vec<(usize, usize, f64)>,
    /// Per-node mean of incident edge scores.
    pub node_scores: Vec<f64>,
}

/// A cacheable stage artifact.
#[derive(Debug, Clone)]
pub enum CachedPayload {
    /// Phase-1 embedding hand-off; `None` means the raw circuit graph
    /// becomes the input manifold (skip ablation or exhausted ladder).
    Embedding(Option<DenseMatrix>),
    /// A Phase-2 manifold graph.
    Manifold(Graph),
    /// Phase-3 generalized eigenpairs.
    Eigen(GeneralizedEigen),
    /// Phase-3 DMD scores.
    Scores(ScoreSet),
}

impl CachedPayload {
    /// Stable tag for the on-disk `kind` field.
    fn kind(&self) -> &'static str {
        match self {
            CachedPayload::Embedding(_) => "embedding",
            CachedPayload::Manifold(_) => "manifold",
            CachedPayload::Eigen(_) => "eigen",
            CachedPayload::Scores(_) => "scores",
        }
    }
}

/// One cache entry: the artifact plus the diagnostics segment emitted
/// while computing it, replayed verbatim on a hit.
#[derive(Debug, Clone)]
pub struct CachedArtifact {
    /// The stage's output artifact.
    pub payload: CachedPayload,
    /// Fallback events the stage recorded when it was computed.
    pub events: Vec<FallbackEvent>,
    /// Warnings the stage recorded when it was computed.
    pub warnings: Vec<String>,
    /// Approximate-kNN records the stage emitted when it was computed.
    pub knn: Vec<ApproxKnnRecord>,
    /// Partition label (`"partition/<id>"`) for segmented, partition-scoped
    /// artifacts; `None` for whole-design stages. Metadata only — the
    /// fingerprint key already separates segments, since each partition's
    /// subgraph hashes differently — but recorded so operators can map a
    /// disk entry back to its region.
    pub segment: Option<String>,
}

/// An in-memory entry plus its LRU clock reading.
#[derive(Debug, Clone)]
struct Slot {
    value: CachedArtifact,
    last_used: u64,
}

/// The LRU, disk and quarantine body of an [`ArtifactCache`], reached only
/// through the cache's lock.
#[derive(Debug)]
struct Store {
    entries: BTreeMap<Fingerprint, Slot>,
    capacity: usize,
    tick: u64,
    disk_dir: Option<PathBuf>,
}

impl Store {
    fn with_capacity(capacity: usize) -> Self {
        Store {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            disk_dir: None,
        }
    }

    /// Looks up `key`, consulting memory first and then disk. A disk hit
    /// is promoted into the in-memory layer; a corrupt disk entry is
    /// quarantined and its event appended to `events`.
    fn lookup(
        &mut self,
        key: Fingerprint,
        events: &mut Vec<FallbackEvent>,
    ) -> Option<CachedArtifact> {
        self.tick = self.tick.wrapping_add(1);
        if let Some(slot) = self.entries.get_mut(&key) {
            slot.last_used = self.tick;
            return Some(slot.value.clone());
        }
        let value = self.disk_lookup(key, events)?;
        self.insert_memory(key, value.clone());
        Some(value)
    }

    /// Stores `value` under `key` in memory and (best-effort) on disk.
    fn store(&mut self, key: Fingerprint, value: CachedArtifact) {
        self.disk_store(key, &value);
        self.tick = self.tick.wrapping_add(1);
        self.insert_memory(key, value);
    }

    fn insert_memory(&mut self, key: Fingerprint, value: CachedArtifact) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Linear scan is fine at cache scale (tens of entries).
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k);
            if let Some(k) = oldest {
                self.entries.remove(&k);
            }
        }
        self.entries.insert(
            key,
            Slot {
                value,
                last_used: self.tick,
            },
        );
    }

    fn entry_path(&self, key: Fingerprint) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("art-{}.json", key.hex())))
    }

    /// Reads `key`'s disk entry. A missing file is a plain miss; a file
    /// that fails to parse or checksum-verify is quarantined (renamed with
    /// [`QUARANTINE_SUFFIX`]) and its event appended to `events`.
    fn disk_lookup(
        &self,
        key: Fingerprint,
        events: &mut Vec<FallbackEvent>,
    ) -> Option<CachedArtifact> {
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        match serde_json::from_str(&text) {
            Ok(entry) => Some(entry),
            Err(e) => {
                let reason = e.to_string();
                if reason.contains(SCHEMA_MISMATCH) {
                    // Stale version, not corruption: leave the file for the
                    // version that wrote it and treat it as a miss.
                    return None;
                }
                events.push(quarantine(&path, &reason));
                None
            }
        }
    }

    fn disk_store(&self, key: Fingerprint, value: &CachedArtifact) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        // Best-effort: non-finite floats are unserializable by design
        // (the JSON writer rejects them) and I/O failures must never
        // fail an analysis — either way the entry simply stays
        // memory-only.
        let Ok(mut json) = serde_json::to_string(value) else {
            return;
        };
        // Failpoint: simulate a torn write (power loss mid-`write`). The
        // checksum must catch the truncated entry on the next read.
        if fail::check("cache/disk-corrupt").is_some() {
            json.truncate(json.len() / 2);
        }
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        // Crash-safe publish: render into a uniquely named temp file in the
        // same directory, then atomically rename over the final path. A
        // crash between the two steps leaves only a stray `.tmp-*` file,
        // never a half-written entry under a live key.
        let tmp = dir.join(format!(
            "art-{}.json.tmp-{}-{}",
            key.hex(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        if std::fs::write(&tmp, json).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if std::fs::rename(&tmp, path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Renames a corrupt entry aside and returns the event recording it.
/// Renaming (rather than deleting) preserves the evidence for post-mortems
/// and keeps the corrupt bytes from being re-read as this key on the next
/// lookup.
fn quarantine(path: &Path, reason: &str) -> FallbackEvent {
    let mut aside = path.as_os_str().to_owned();
    aside.push(QUARANTINE_SUFFIX);
    let renamed = std::fs::rename(path, &aside).is_ok();
    FallbackEvent {
        stage: DISK_STAGE.to_string(),
        rung: "quarantine".to_string(),
        cause: format!(
            "corrupt cache entry {}{}: {reason}",
            path.display(),
            if renamed {
                " quarantined"
            } else {
                " (rename aside failed)"
            },
        ),
        residual: None,
        elapsed_ms: 0,
    }
}

/// State behind the [`ArtifactCache`] lock: the store plus the set of keys
/// some run is currently computing.
#[derive(Debug)]
struct State {
    store: Store,
    in_flight: BTreeSet<Fingerprint>,
}

/// Fingerprint-keyed artifact cache shared across pipeline runs.
///
/// Construct one, then pass it by `&` to [`crate::CirStag::analyze_cached`]
/// or [`crate::analyze_partitioned`]; runs whose stage fingerprints match
/// replay the stored artifacts instead of recomputing them. One cache may
/// serve many threads at once. The lock is held only across individual
/// lookup/store operations, never while a stage computes, so runs on
/// *different* keys proceed in parallel. Runs racing on the *same* key are
/// deduplicated single-flight: the first miss becomes the leader and
/// computes; later arrivals block until the leader publishes (or fails)
/// and then replay the stored artifact, with bit-identical diagnostics.
///
/// Failpoint-armed runs (the `failpoints` feature) should use the
/// uncached [`crate::CirStag::analyze`]: a cache hit replays the stored
/// outcome and will not consume a one-shot failpoint arming.
#[derive(Debug)]
pub struct ArtifactCache {
    state: Mutex<State>,
    published: Condvar,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An in-memory cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An in-memory cache holding at most `capacity` entries (minimum 1);
    /// the least-recently-used entry is evicted at capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ArtifactCache {
            state: Mutex::new(State {
                store: Store::with_capacity(capacity),
                in_flight: BTreeSet::new(),
            }),
            published: Condvar::new(),
        }
    }

    /// Adds a best-effort on-disk layer under `dir` (created on first
    /// write). Disk entries survive the process and back-fill the
    /// in-memory layer on lookup.
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.store.disk_dir = Some(dir.into());
        self
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A run that panicked mid-operation cannot leave the map half
        // mutated (every mutation is a single insert/remove), so the
        // poisoned state is safe to adopt.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`; on a miss, either becomes the leader for it (the
    /// caller must compute and then [`InFlightGuard::fulfill`] or drop the
    /// guard) or waits for the current leader and replays its result.
    pub(crate) fn lookup_or_lead(&self, key: Fingerprint) -> Lookup<'_> {
        let mut events = Vec::new();
        let mut st = self.lock();
        loop {
            if let Some(hit) = st.store.lookup(key, &mut events) {
                return Lookup::Hit(hit, events);
            }
            if st.in_flight.insert(key) {
                let guard = InFlightGuard {
                    owner: self,
                    key,
                    fulfilled: false,
                };
                return Lookup::Lead(guard, events);
            }
            st = self
                .published
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Outcome of [`ArtifactCache::lookup_or_lead`], carrying any disk-layer
/// events (quarantines) the lookup surfaced.
pub(crate) enum Lookup<'a> {
    /// The entry was present (or became present while waiting): replay it.
    Hit(CachedArtifact, Vec<FallbackEvent>),
    /// The caller is the leader for this key and must compute it.
    Lead(InFlightGuard<'a>, Vec<FallbackEvent>),
}

/// Leadership over one in-flight key. Dropping the guard without
/// [`InFlightGuard::fulfill`] (stage error, cancellation, or a panic
/// unwinding through the engine) releases the key so a waiting run can
/// take over as the new leader instead of deadlocking.
pub(crate) struct InFlightGuard<'a> {
    owner: &'a ArtifactCache,
    key: Fingerprint,
    fulfilled: bool,
}

impl InFlightGuard<'_> {
    /// Publishes the computed entry and wakes every run waiting on it.
    pub(crate) fn fulfill(mut self, value: CachedArtifact) {
        let mut st = self.owner.lock();
        st.store.store(self.key, value);
        st.in_flight.remove(&self.key);
        self.fulfilled = true;
        drop(st);
        self.owner.published.notify_all();
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            let mut st = self.owner.lock();
            st.in_flight.remove(&self.key);
            drop(st);
            self.owner.published.notify_all();
        }
    }
}

// ---- on-disk serialization ------------------------------------------------

/// Folds a JSON value tree into `fp` with type tags, so e.g. the string
/// `"1"` and the integer `1` cannot collide.
fn fingerprint_value(v: &Value, fp: &mut Fingerprinter) {
    match v {
        Value::Null => fp.write_byte(0),
        Value::Bool(b) => {
            fp.write_byte(1);
            fp.write_bool(*b);
        }
        Value::Int(i) => {
            fp.write_byte(2);
            fp.write_u64(u64::from_le_bytes(i.to_le_bytes()));
        }
        Value::UInt(u) => {
            fp.write_byte(3);
            fp.write_u64(*u);
        }
        Value::Float(x) => {
            fp.write_byte(4);
            fp.write_f64(*x);
        }
        Value::Str(s) => {
            fp.write_byte(5);
            fp.write_str(s);
        }
        Value::Array(items) => {
            fp.write_byte(6);
            fp.write_usize(items.len());
            for item in items {
                fingerprint_value(item, fp);
            }
        }
        Value::Object(fields) => {
            fp.write_byte(7);
            fp.write_usize(fields.len());
            for (k, item) in fields {
                fp.write_str(k);
                fingerprint_value(item, fp);
            }
        }
    }
}

/// Content checksum of a disk entry: a [`Fingerprint`] over every field
/// except `schema` and the checksum itself, rendered as the same 32-digit
/// hex the cache uses for file names.
fn content_checksum(fields: &[(&str, &Value)]) -> String {
    let mut fp = Fingerprinter::new();
    fp.write_str("cirstag-artifact-checksum/v1");
    for (name, value) in fields {
        fp.write_str(name);
        fingerprint_value(value, &mut fp);
    }
    fp.finish().hex()
}

fn matrix_to_value(m: &DenseMatrix) -> Value {
    Value::Object(vec![
        ("nrows".to_string(), m.nrows().to_value()),
        ("ncols".to_string(), m.ncols().to_value()),
        ("data".to_string(), m.as_slice().to_vec().to_value()),
    ])
}

fn matrix_from_value(v: &Value) -> Result<DenseMatrix, DeError> {
    let nrows: usize = v.field("nrows")?;
    let ncols: usize = v.field("ncols")?;
    let data: Vec<f64> = v.field("data")?;
    DenseMatrix::from_vec(nrows, ncols, data)
        .map_err(|e| DeError::new(format!("cached matrix is malformed: {e}")))
}

fn graph_to_value(g: &Graph) -> Value {
    let edges: Vec<(usize, usize, f64)> = g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
    Value::Object(vec![
        ("num_nodes".to_string(), g.num_nodes().to_value()),
        ("edges".to_string(), edges.to_value()),
    ])
}

fn graph_from_value(v: &Value) -> Result<Graph, DeError> {
    let num_nodes: usize = v.field("num_nodes")?;
    let edges: Vec<(usize, usize, f64)> = v.field("edges")?;
    Graph::from_edges(num_nodes, &edges)
        .map_err(|e| DeError::new(format!("cached graph is malformed: {e}")))
}

impl Serialize for CachedArtifact {
    fn to_value(&self) -> Value {
        let payload = match &self.payload {
            CachedPayload::Embedding(None) => Value::Null,
            CachedPayload::Embedding(Some(m)) => matrix_to_value(m),
            CachedPayload::Manifold(g) => graph_to_value(g),
            CachedPayload::Eigen(geig) => Value::Object(vec![
                ("eigenvalues".to_string(), geig.eigenvalues.to_value()),
                (
                    "eigenvectors".to_string(),
                    matrix_to_value(&geig.eigenvectors),
                ),
                ("iterations".to_string(), geig.iterations.to_value()),
            ]),
            CachedPayload::Scores(s) => Value::Object(vec![
                ("eigenvalues".to_string(), s.eigenvalues.to_value()),
                ("edge_scores".to_string(), s.edge_scores.to_value()),
                ("node_scores".to_string(), s.node_scores.to_value()),
            ]),
        };
        let kind = self.payload.kind().to_value();
        let events = self.events.to_value();
        let warnings = self.warnings.to_value();
        let knn = self.knn.to_value();
        let segment = self.segment.to_value();
        let checksum = content_checksum(&[
            ("kind", &kind),
            ("payload", &payload),
            ("events", &events),
            ("warnings", &warnings),
            ("knn", &knn),
            ("segment", &segment),
        ]);
        Value::Object(vec![
            ("schema".to_string(), DISK_SCHEMA.to_value()),
            ("checksum".to_string(), checksum.to_value()),
            ("kind".to_string(), kind),
            ("payload".to_string(), payload),
            ("events".to_string(), events),
            ("warnings".to_string(), warnings),
            ("knn".to_string(), knn),
            ("segment".to_string(), segment),
        ])
    }
}

impl Deserialize for CachedArtifact {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let schema: String = v.field("schema")?;
        if schema != DISK_SCHEMA {
            return Err(DeError::new(format!("{SCHEMA_MISMATCH} `{schema}`")));
        }
        let kind: String = v.field("kind")?;
        let payload_value = v
            .get("payload")
            .ok_or_else(|| DeError::new("cache entry missing `payload`"))?;
        // Verify the content checksum before trusting any field: a torn
        // write that truncated the JSON fails the parse above, but a flipped
        // byte inside a number would otherwise deserialize cleanly.
        let stored_checksum: String = v.field("checksum")?;
        let mut checked = Vec::with_capacity(6);
        for name in ["kind", "payload", "events", "warnings", "knn", "segment"] {
            let field = v
                .get(name)
                .ok_or_else(|| DeError::new(format!("cache entry missing `{name}`")))?;
            checked.push((name, field));
        }
        let expected = content_checksum(&checked);
        if stored_checksum != expected {
            return Err(DeError::new(format!(
                "cache entry checksum mismatch: stored {stored_checksum}, content hashes to {expected}"
            )));
        }
        let payload = match kind.as_str() {
            "embedding" => match payload_value {
                Value::Null => CachedPayload::Embedding(None),
                other => CachedPayload::Embedding(Some(matrix_from_value(other)?)),
            },
            "manifold" => CachedPayload::Manifold(graph_from_value(payload_value)?),
            "eigen" => CachedPayload::Eigen(GeneralizedEigen {
                eigenvalues: payload_value.field("eigenvalues")?,
                eigenvectors: matrix_from_value(
                    payload_value
                        .get("eigenvectors")
                        .ok_or_else(|| DeError::new("cache entry missing `eigenvectors`"))?,
                )?,
                iterations: payload_value.field("iterations")?,
            }),
            "scores" => CachedPayload::Scores(ScoreSet {
                eigenvalues: payload_value.field("eigenvalues")?,
                edge_scores: payload_value.field("edge_scores")?,
                node_scores: payload_value.field("node_scores")?,
            }),
            other => return Err(DeError::new(format!("unknown cache entry kind `{other}`"))),
        };
        Ok(CachedArtifact {
            payload,
            events: v.field("events")?,
            warnings: v.field("warnings")?,
            knn: v.field("knn")?,
            segment: v.field("segment")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> Fingerprint {
        Fingerprint {
            lo: n,
            hi: n ^ 0xABCD,
        }
    }

    /// A store with the default capacity and a disk layer under `dir`.
    fn store_at(dir: &Path) -> Store {
        let mut store = Store::with_capacity(DEFAULT_CAPACITY);
        store.disk_dir = Some(dir.to_path_buf());
        store
    }

    fn manifold_entry(weight: f64) -> CachedArtifact {
        CachedArtifact {
            payload: CachedPayload::Manifold(
                Graph::from_edges(4, &[(0, 1, weight), (1, 2, 1.0), (2, 3, 1.0)]).unwrap(),
            ),
            events: vec![FallbackEvent {
                stage: "phase2/pgm-input".to_string(),
                rung: "random-prune".to_string(),
                cause: "test".to_string(),
                residual: Some(0.5),
                elapsed_ms: 3,
            }],
            warnings: vec!["w".to_string()],
            knn: vec![ApproxKnnRecord {
                stage: "phase2/manifold-input".to_string(),
                method: "hnsw".to_string(),
                requested_k: 10,
                min_candidates: 37,
                mean_candidates: 52.5,
            }],
            segment: Some("partition/3".to_string()),
        }
    }

    #[test]
    fn memory_roundtrip_and_lru_eviction() {
        let mut cache = Store::with_capacity(2);
        let mut events = Vec::new();
        cache.store(key(1), manifold_entry(1.0));
        cache.store(key(2), manifold_entry(2.0));
        assert!(cache.lookup(key(1), &mut events).is_some()); // refresh 1
        cache.store(key(3), manifold_entry(3.0)); // evicts 2
        assert!(cache.lookup(key(2), &mut events).is_none());
        assert!(cache.lookup(key(1), &mut events).is_some());
        assert!(cache.lookup(key(3), &mut events).is_some());
        assert_eq!(cache.entries.len(), 2);
        assert!(events.is_empty());
    }

    #[test]
    fn disk_layer_roundtrips_bit_exact() {
        let dir = std::env::temp_dir().join(format!("cirstag-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Weight with a non-trivial mantissa to exercise exact float I/O.
        let w = 0.1 + 0.2;
        {
            let mut writer = store_at(&dir);
            writer.store(key(7), manifold_entry(w));
        }
        let mut reader = store_at(&dir);
        let hit = reader.lookup(key(7), &mut Vec::new()).expect("disk hit");
        match &hit.payload {
            CachedPayload::Manifold(g) => {
                let e0 = g.edges().first().unwrap();
                assert_eq!(e0.weight.to_bits(), w.to_bits());
            }
            other => panic!("wrong payload kind: {other:?}"),
        }
        assert_eq!(hit.events.len(), 1);
        assert_eq!(hit.warnings, vec!["w".to_string()]);
        assert_eq!(hit.knn.len(), 1);
        assert_eq!(hit.knn[0].method, "hnsw");
        assert_eq!(hit.knn[0].mean_candidates.to_bits(), 52.5f64.to_bits());
        assert_eq!(hit.segment.as_deref(), Some("partition/3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_entry_is_a_plain_miss_not_quarantine() {
        let dir =
            std::env::temp_dir().join(format!("cirstag-cache-stale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(15);
        let path = dir.join(format!("art-{}.json", k.hex()));
        // A structurally valid entry from an older schema version.
        std::fs::write(
            &path,
            r#"{"schema": "cirstag-artifact/v2", "checksum": "0", "kind": "scores",
               "payload": {"eigenvalues": [], "edge_scores": [], "node_scores": []},
               "events": [], "warnings": [], "knn": []}"#,
        )
        .unwrap();
        let mut cache = store_at(&dir);
        let mut events = Vec::new();
        assert!(
            cache.lookup(k, &mut events).is_none(),
            "stale schema must miss"
        );
        assert!(
            events.is_empty(),
            "stale schema must not raise a quarantine event"
        );
        assert!(path.exists(), "stale entry must stay for its own version");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_payloads_stay_memory_only() {
        let dir =
            std::env::temp_dir().join(format!("cirstag-cache-nan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = store_at(&dir);
        let entry = CachedArtifact {
            payload: CachedPayload::Scores(ScoreSet {
                eigenvalues: vec![f64::NAN],
                edge_scores: vec![],
                node_scores: vec![],
            }),
            events: vec![],
            warnings: vec![],
            knn: vec![],
            segment: None,
        };
        cache.store(key(9), entry);
        // Memory hit works; no disk file was produced.
        assert!(cache.lookup(key(9), &mut Vec::new()).is_some());
        let mut fresh = store_at(&dir);
        assert!(fresh.lookup(key(9), &mut Vec::new()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_reads_as_miss_and_quarantines() {
        let dir =
            std::env::temp_dir().join(format!("cirstag-cache-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(11);
        let path = dir.join(format!("art-{}.json", k.hex()));
        std::fs::write(&path, "{not json").unwrap();
        let mut cache = store_at(&dir);
        let mut events = Vec::new();
        assert!(cache.lookup(k, &mut events).is_none());
        // The corrupt file was renamed aside and the event recorded.
        assert!(!path.exists(), "corrupt entry still at its live path");
        let aside = dir.join(format!("art-{}.json{QUARANTINE_SUFFIX}", k.hex()));
        assert!(aside.exists(), "quarantined copy missing");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, DISK_STAGE);
        assert_eq!(events[0].rung, "quarantine");
        // A second lookup is a plain miss: the quarantined bytes are not
        // re-read and no new event fires.
        let mut again = Vec::new();
        assert!(cache.lookup(k, &mut again).is_none());
        assert!(again.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_checksum_and_quarantines() {
        let dir =
            std::env::temp_dir().join(format!("cirstag-cache-bitflip-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut writer = store_at(&dir);
            writer.store(key(21), manifold_entry(2.5));
        }
        let path = {
            let k = key(21);
            dir.join(format!("art-{}.json", k.hex()))
        };
        // Flip one digit inside a number: still valid JSON, wrong content.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("2.5", "2.75", 1);
        assert_ne!(text, corrupted, "fixture must actually change");
        std::fs::write(&path, corrupted).unwrap();

        let mut cache = store_at(&dir);
        let mut events = Vec::new();
        assert!(
            cache.lookup(key(21), &mut events).is_none(),
            "checksum must reject"
        );
        assert_eq!(events.len(), 1);
        assert!(events[0].cause.contains("checksum"), "{}", events[0].cause);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_leaves_no_temp_files() {
        let dir =
            std::env::temp_dir().join(format!("cirstag-cache-tmp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = store_at(&dir);
        for i in 0..4 {
            cache.store(key(30 + i), manifold_entry(1.0 + i as f64));
        }
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_cache_single_flight_dedups_leaders() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};

        let shared = Arc::new(ArtifactCache::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let replays = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let k = key(77);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let computes = Arc::clone(&computes);
                let replays = Arc::clone(&replays);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match shared.lookup_or_lead(k) {
                        Lookup::Hit(hit, _) => {
                            replays.fetch_add(1, Ordering::SeqCst);
                            match hit.payload {
                                CachedPayload::Manifold(g) => assert_eq!(g.num_nodes(), 4),
                                other => panic!("wrong payload {other:?}"),
                            }
                        }
                        Lookup::Lead(guard, _) => {
                            // Simulate the stage compute while holding
                            // leadership (lock is NOT held here).
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            computes.fetch_add(1, Ordering::SeqCst);
                            guard.fulfill(manifold_entry(1.5));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(replays.load(Ordering::SeqCst), 3, "everyone else replays");
    }

    #[test]
    fn dropped_leader_hands_off_instead_of_deadlocking() {
        let shared = ArtifactCache::new();
        let k = key(88);
        match shared.lookup_or_lead(k) {
            Lookup::Lead(guard, _) => drop(guard), // leader fails
            Lookup::Hit(..) => panic!("fresh cache cannot hit"),
        }
        // The key must be takeable again, not stuck in-flight.
        match shared.lookup_or_lead(k) {
            Lookup::Lead(guard, _) => guard.fulfill(manifold_entry(3.0)),
            Lookup::Hit(..) => panic!("nothing was published yet"),
        }
        match shared.lookup_or_lead(k) {
            Lookup::Hit(..) => {}
            Lookup::Lead(..) => panic!("published entry must hit"),
        };
    }
}
