//! The simulated cluster: one real index per partition, broadcast + merge.
//!
//! Each node holds a genuine [`InvertedIndex`] over its partition and a
//! persistent buffer pool (the paper keeps the whole compressed index in
//! RAM for the distributed runs — "thanks to MonetDB/X100's data
//! compression, the whole index (10GB) could be kept in RAM, so that I/O is
//! eliminated as a performance factor"). Query execution on a node is the
//! actual single-node engine; only the *network* between nodes is modeled
//! (see [`crate::schedule`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use std::time::Instant;

use x100_corpus::{CollectionStream, CollectionTail, SyntheticCollection};
use x100_ir::{
    ExecError, HitsResponse, IndexConfig, InvertedIndex, QueryEngine, ScratchPool, SearchStrategy,
    SegmentError, SpillConfig, SpillError, SpillStats, SpillingIndexBuilder, StreamingIndexBuilder,
};
use x100_storage::{BufferManager, BufferMode, DiskModel, IoStats};

use crate::partition::{partition_collection, partition_of, Partition};

/// A typed per-node failure the coordinator can report (and a failover
/// layer can consume) instead of aborting the whole scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The node's fan-out worker died (panicked) before reporting a
    /// result; the partition contributed nothing to the merge.
    NodeFailed {
        /// Which partition's worker died.
        partition: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeFailed { partition } => {
                write!(f, "node for partition {partition} failed mid-query")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// One node: partition index + local→global mapping + persistent buffers
/// + a pool of reusable query scratch arenas.
pub struct Node {
    index: InvertedIndex,
    global_ids: Vec<u32>,
    buffers: Arc<BufferManager>,
    scratch: ScratchPool,
    /// Test-only fault hook: when set, the next local search panics, so
    /// suites can exercise panic containment in the scatter and network
    /// paths without a genuinely corrupt index.
    panic_on_search: AtomicBool,
}

impl Node {
    fn new(index: InvertedIndex, global_ids: Vec<u32>, buffers: Arc<BufferManager>) -> Self {
        Node {
            index,
            global_ids,
            buffers,
            scratch: ScratchPool::new(),
            panic_on_search: AtomicBool::new(false),
        }
    }

    /// Arms the test-only fault hook: every subsequent local search on
    /// this node panics until disarmed. Exists so fault-injection suites
    /// can pin that a panicking node is *contained* — reported as
    /// [`ClusterError::NodeFailed`] in-process, served by a replica over
    /// the network — rather than aborting the coordinator.
    #[doc(hidden)]
    pub fn inject_search_panic_for_tests(&self, armed: bool) {
        self.panic_on_search.store(armed, Ordering::SeqCst);
    }

    fn check_injected_fault(&self) {
        if self.panic_on_search.load(Ordering::SeqCst) {
            panic!("injected node fault (test hook)");
        }
    }
    /// A fresh engine over this node's index and persistent buffer pool.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::with_buffer_manager(&self.index, self.buffers.clone())
    }

    /// The node-local allocation-free search: runs the fused scratch-arena
    /// path over this node's index, filling `out` (cleared first) with up
    /// to `n` **node-local** `(docid, score)` hits, best first. The arena
    /// comes from the node's [`ScratchPool`], so steady-state calls are
    /// heap-allocation-free and concurrent callers never serialize.
    /// Callers translate docids with [`Self::global_id`] as they consume
    /// the hits.
    pub fn search_hits_into(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
        out: &mut Vec<(u32, f32)>,
    ) -> Result<HitsResponse, ExecError> {
        self.check_injected_fault();
        let mut scratch = self.scratch.acquire();
        let result = self
            .engine()
            .search_hits_into(terms, strategy, n, &mut scratch, out);
        self.scratch.release(scratch);
        result
    }

    /// The node's index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The node's persistent buffer pool.
    pub fn buffers(&self) -> &Arc<BufferManager> {
        &self.buffers
    }

    /// Maps a node-local docid to the global docid.
    pub fn global_id(&self, local: u32) -> u32 {
        self.global_ids[local as usize]
    }
}

/// A merged, globally ranked hit.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedResult {
    /// Global document id.
    pub docid: u32,
    /// Score as computed by the owning node.
    pub score: f32,
    /// Document name.
    pub name: String,
    /// Which node produced it.
    pub node: usize,
}

/// Per-node accounting for one scatter-gather search.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTiming {
    /// Node index.
    pub node: usize,
    /// Wall-clock time of the node's local search, as observed by its
    /// fan-out thread (includes thread scheduling, so under oversubscription
    /// it exceeds `cpu_time`).
    pub wall: Duration,
    /// The node engine's own CPU-side execution time.
    pub cpu_time: Duration,
    /// Simulated I/O the node charged during this query (zero in the usual
    /// hot, RAM-resident configuration).
    pub io: IoStats,
    /// Execution passes of the node's local search (two-pass strategies
    /// reach 2 when the conjunctive first pass came up short); 1 for
    /// strategies without a fallback, and for failed searches.
    pub passes: u8,
}

/// The coordinator's view of one scattered query: the merged global top-N
/// plus per-node latency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterResponse {
    /// Globally ranked hits, best first — bit-identical to
    /// [`SimulatedCluster::search`] on the same query.
    pub results: Vec<MergedResult>,
    /// One timing record per node, in node order. The slowest entry gates
    /// the query (§3.4's load-imbalance effect, now observable directly).
    pub node_timings: Vec<NodeTiming>,
    /// Time the coordinator spent merging the per-node top-N lists.
    pub merge_time: Duration,
    /// Nodes whose fan-out worker died mid-query (empty on the happy
    /// path). A failed node contributed no hits: `results` covers the
    /// surviving partitions only, and the caller decides whether partial
    /// coverage is acceptable — the networked coordinator consumes this
    /// shape by retrying the partition on a replica instead.
    pub failures: Vec<ClusterError>,
}

/// A document-partitioned cluster of query nodes. Nodes are `Arc`-shared
/// so serving layers (the in-process worker pool, the networked
/// [`crate::net::NodeServer`]s) can hold handles to the same partition
/// state the cluster owns.
pub struct SimulatedCluster {
    nodes: Vec<Arc<Node>>,
}

impl SimulatedCluster {
    /// Partitions `collection` into `num_partitions` nodes and indexes each.
    pub fn build(
        collection: &SyntheticCollection,
        num_partitions: usize,
        index_config: &IndexConfig,
    ) -> Self {
        let partitions = partition_collection(collection, num_partitions);
        let nodes = partitions
            .into_iter()
            .map(
                |Partition {
                     collection,
                     global_ids,
                 }| {
                    let index = InvertedIndex::build(&collection, index_config);
                    let buffers = Arc::new(BufferManager::with_mode(
                        DiskModel::instant(), // index held in RAM (§3.4)
                        BufferMode::Hot,
                        0,
                    ));
                    Arc::new(Node::new(index, global_ids, buffers))
                },
            )
            .collect();
        SimulatedCluster { nodes }
    }

    /// Builds the cluster by *streaming* the collection: documents are
    /// routed round-robin by global docid to per-partition
    /// [`StreamingIndexBuilder`]s as each chunk arrives, and dropped
    /// immediately after — the `medium`/`large` scale path, where
    /// materializing per-partition [`SyntheticCollection`]s (each carrying
    /// a full vocabulary and query-log copy) would dominate memory.
    ///
    /// Returns the cluster together with the workload tail (judged queries
    /// + efficiency log), which only exists once the stream is drained.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn build_streaming(
        mut stream: CollectionStream,
        num_partitions: usize,
        index_config: &IndexConfig,
        chunk_size: usize,
    ) -> (Self, CollectionTail) {
        assert!(num_partitions > 0, "at least one partition required");
        let vocab = stream.vocab();
        let mut builders: Vec<StreamingIndexBuilder> = (0..num_partitions)
            .map(|_| StreamingIndexBuilder::new(vocab.len(), index_config))
            .collect();
        let mut global_ids: Vec<Vec<u32>> = vec![Vec::new(); num_partitions];
        while let Some(chunk) = stream.next_chunk(chunk_size) {
            for doc in &chunk {
                let p = partition_of(doc.id, num_partitions);
                builders[p].push_doc(&doc.name, &doc.terms, doc.len);
                global_ids[p].push(doc.id);
            }
        }
        let tail = stream.finish();
        let parts = builders.into_iter().zip(global_ids).collect();
        (Self::from_partition_builders(parts, &vocab), tail)
    }

    /// [`Self::build_streaming`] under a total posting-memory budget: each
    /// partition gets an equal share of `budget_bytes` and spills sorted
    /// runs to disk when its share fills ([`SpillingIndexBuilder`]), so the
    /// whole cluster build's posting accumulators stay within the budget.
    /// Returns per-partition [`SpillStats`] alongside the cluster and tail;
    /// each entry carries both the accumulator peak and the finish-phase
    /// peak (`finish_peak_bytes`) of its partition's streaming columnar
    /// merge. Partitions finish **sequentially**, so the process-wide
    /// finish-phase footprint at any instant is one partition's
    /// `finish_peak_bytes` plus the resident accumulators of the partitions
    /// still waiting — the accounting `scale_pipeline --mem-budget` asserts.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn build_streaming_spill(
        mut stream: CollectionStream,
        num_partitions: usize,
        index_config: &IndexConfig,
        chunk_size: usize,
        budget_bytes: usize,
    ) -> Result<(Self, CollectionTail, Vec<SpillStats>), SpillError> {
        assert!(num_partitions > 0, "at least one partition required");
        let vocab = stream.vocab();
        let per_partition = (budget_bytes / num_partitions).max(1);
        let mut builders: Vec<SpillingIndexBuilder> = (0..num_partitions)
            .map(|_| {
                SpillingIndexBuilder::new(
                    vocab.len(),
                    index_config,
                    SpillConfig::with_budget(per_partition),
                )
            })
            .collect();
        let mut global_ids: Vec<Vec<u32>> = vec![Vec::new(); num_partitions];
        let mut chunk = Vec::new();
        while stream.next_chunk_into(chunk_size, &mut chunk) > 0 {
            for doc in &chunk {
                let p = partition_of(doc.id, num_partitions);
                builders[p].push_doc(&doc.name, &doc.terms, doc.len)?;
                global_ids[p].push(doc.id);
            }
        }
        let tail = stream.finish();
        let mut stats = Vec::with_capacity(num_partitions);
        let mut parts = Vec::with_capacity(num_partitions);
        for (builder, ids) in builders.into_iter().zip(global_ids) {
            let (index, s) = builder.finish(&vocab)?;
            stats.push(s);
            parts.push((index, ids));
        }
        Ok((Self::from_partition_indexes(parts), tail, stats))
    }

    /// Assembles a cluster from already-finished per-partition indexes and
    /// their local→global docid mappings.
    ///
    /// # Panics
    /// Panics if `parts` is empty or a mapping's length disagrees with its
    /// index's document count.
    pub fn from_partition_indexes(parts: Vec<(InvertedIndex, Vec<u32>)>) -> Self {
        assert!(!parts.is_empty(), "at least one partition required");
        let nodes = parts
            .into_iter()
            .map(|(index, global_ids)| {
                assert_eq!(
                    index.stats().num_docs as usize,
                    global_ids.len(),
                    "global-id mapping does not cover the partition"
                );
                let buffers = Arc::new(BufferManager::with_mode(
                    DiskModel::instant(),
                    BufferMode::Hot,
                    0,
                ));
                Arc::new(Node::new(index, global_ids, buffers))
            })
            .collect();
        SimulatedCluster { nodes }
    }

    /// Assembles a cluster from per-partition streaming builders and their
    /// local→global docid mappings (entry `i` of a partition's mapping is
    /// the global docid of the `i`-th document pushed to its builder).
    /// Useful when the caller drives one [`CollectionStream`] into several
    /// consumers at once and routes documents itself.
    ///
    /// # Panics
    /// Panics if `parts` is empty or a mapping's length disagrees with its
    /// builder's document count.
    pub fn from_partition_builders(
        parts: Vec<(StreamingIndexBuilder, Vec<u32>)>,
        vocab: &[String],
    ) -> Self {
        assert!(!parts.is_empty(), "at least one partition required");
        Self::from_partition_indexes(
            parts
                .into_iter()
                .map(|(builder, global_ids)| (builder.finish(vocab), global_ids))
                .collect(),
        )
    }

    /// Writes one partition segment per node next to `base`: node `i` goes
    /// to `<base>.p<i>`, each carrying its local→global docid map. Returns
    /// the paths in node order — feed them back to [`Self::open_segments`]
    /// (typically in a fresh process) to reassemble this exact cluster.
    pub fn persist_segments(&self, base: impl AsRef<Path>) -> Result<Vec<PathBuf>, SegmentError> {
        let base = base.as_ref();
        let mut paths = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let mut path = base.as_os_str().to_owned();
            path.push(format!(".p{i}"));
            let path = PathBuf::from(path);
            node.index
                .write_partition_segment(&node.global_ids, &path)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Reassembles a cluster from partition segments written by
    /// [`Self::persist_segments`], one node per path. Every segment is
    /// fully verified at open; posting blocks stay on disk and are `pread`
    /// through each node's buffer pool on first touch, so a freshly opened
    /// cluster serves cold and warms as queries run. Search results are
    /// bit-identical to the cluster that wrote the segments.
    pub fn open_segments(paths: &[PathBuf]) -> Result<Self, SegmentError> {
        assert!(!paths.is_empty(), "at least one partition required");
        let mut parts = Vec::with_capacity(paths.len());
        for path in paths {
            parts.push(InvertedIndex::open_partition_segment(path)?);
        }
        Ok(Self::from_partition_indexes(parts))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes, as shareable handles — a networked serving layer clones
    /// one per [`crate::net::NodeServer`] replica.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// Broadcast a query, merge per-node top-`n` into the global top-`n`.
    ///
    /// Ties on score order by global docid, matching the single-node
    /// engine's earlier-row preference. Nodes are searched sequentially on
    /// the calling thread; [`Self::search_scatter`] is the concurrent
    /// fan-out with identical results.
    pub fn search(&self, terms: &[u32], strategy: SearchStrategy, n: usize) -> Vec<MergedResult> {
        let per_node = self
            .nodes
            .iter()
            .enumerate()
            .map(|(ni, node)| Self::node_search(node, ni, terms, strategy, n).0)
            .collect();
        Self::merge_top_n(per_node, n)
    }

    /// One node's local top-`n`, mapped to global docids, plus its timing.
    fn node_search(
        node: &Node,
        ni: usize,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> (Vec<MergedResult>, NodeTiming) {
        let started = Instant::now();
        node.check_injected_fault();
        let engine = node.engine();
        let mut scratch = node.scratch.acquire();
        let searched = engine.search_with_scratch(terms, strategy, n, &mut scratch);
        node.scratch.release(scratch);
        let (results, cpu_time, io, passes) = match searched {
            Ok(resp) => {
                let hits = resp
                    .results
                    .into_iter()
                    .map(|r| MergedResult {
                        docid: node.global_id(r.docid),
                        score: r.score,
                        name: r.name,
                        node: ni,
                    })
                    .collect();
                (hits, resp.cpu_time, resp.io, resp.passes)
            }
            Err(_) => (Vec::new(), Duration::ZERO, IoStats::default(), 1),
        };
        let timing = NodeTiming {
            node: ni,
            wall: started.elapsed(),
            cpu_time,
            io,
            passes,
        };
        (results, timing)
    }

    /// Coordinator merge: concatenates per-node top-`n` lists (given in
    /// node order) and keeps the global top-`n`. Deterministic: descending
    /// score with global-docid tie-break.
    fn merge_top_n(per_node: Vec<Vec<MergedResult>>, n: usize) -> Vec<MergedResult> {
        let mut merged: Vec<MergedResult> = per_node.into_iter().flatten().collect();
        merged.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.docid.cmp(&b.docid)));
        merged.truncate(n);
        merged
    }

    /// Scatter-gather search: the query fans out to every partition on its
    /// own thread, each node runs the *real* single-node engine over its
    /// persistent buffer pool, and the coordinator merges the per-node
    /// top-`n` lists into the global top-`n` — the paper's §3.4 serving
    /// architecture ("broadcast to all indexing nodes ... merged into a
    /// global top-N"), executed rather than modeled.
    ///
    /// Results are bit-identical to the sequential [`Self::search`]: the
    /// gather step collects per-node lists in node order before the same
    /// deterministic merge, so thread completion order cannot leak into
    /// the ranking.
    ///
    /// A node thread that *panics* does not abort the query: the join
    /// error is caught and reported as a [`ClusterError::NodeFailed`]
    /// entry in [`ScatterResponse::failures`] (with a zeroed timing slot),
    /// and the merge covers the surviving partitions. Callers that cannot
    /// accept partial coverage check `failures`; the networked coordinator
    /// instead retries the partition on a replica.
    pub fn search_scatter(
        &self,
        terms: &[u32],
        strategy: SearchStrategy,
        n: usize,
    ) -> ScatterResponse {
        let mut per_node: Vec<(Vec<MergedResult>, NodeTiming)> =
            Vec::with_capacity(self.nodes.len());
        let mut failures = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nodes
                .iter()
                .enumerate()
                .map(|(ni, node)| {
                    let node = Arc::clone(node);
                    s.spawn(move || Self::node_search(&node, ni, terms, strategy, n))
                })
                .collect();
            // `handles` is in node order; joining in order re-establishes a
            // deterministic gather regardless of completion order.
            for (ni, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(found) => per_node.push(found),
                    Err(_) => {
                        // The worker's panic payload is already printed by
                        // the default hook; what the coordinator needs is
                        // the typed fact that this partition reported
                        // nothing.
                        failures.push(ClusterError::NodeFailed { partition: ni });
                        per_node.push((
                            Vec::new(),
                            NodeTiming {
                                node: ni,
                                wall: Duration::ZERO,
                                cpu_time: Duration::ZERO,
                                io: IoStats::default(),
                                passes: 1,
                            },
                        ));
                    }
                }
            }
        });
        let mut results = Vec::with_capacity(self.nodes.len());
        let mut node_timings = Vec::with_capacity(self.nodes.len());
        for (hits, timing) in per_node {
            results.push(hits);
            node_timings.push(timing);
        }
        let merge_started = Instant::now();
        let results = Self::merge_top_n(results, n);
        ScatterResponse {
            results,
            node_timings,
            merge_time: merge_started.elapsed(),
            failures,
        }
    }

    /// Measures, for each query, the *actual* per-node execution time of
    /// the local top-`n` search (hot data). These matrices feed the
    /// discrete-event scheduler. Nodes are measured in parallel threads to
    /// keep harness wall-clock down; each measurement itself is
    /// single-threaded, like one query on one server core.
    pub fn measure_compute(
        &self,
        queries: &[Vec<u32>],
        strategy: SearchStrategy,
        n: usize,
    ) -> Result<Vec<Vec<Duration>>, ClusterError> {
        let num_nodes = self.nodes.len();
        let mut per_node: Vec<Vec<Duration>> = Vec::with_capacity(num_nodes);
        let mut failed = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nodes
                .iter()
                .map(|node| {
                    let node = Arc::clone(node);
                    s.spawn(move || {
                        let engine = node.engine();
                        // Warm the node once so measurements reflect the
                        // paper's hot-data condition.
                        if let Some(q) = queries.first() {
                            let _ = engine.search(q, strategy, n);
                        }
                        queries
                            .iter()
                            .map(|q| {
                                node.check_injected_fault();
                                engine
                                    .search(q, strategy, n)
                                    .map(|r| r.cpu_time)
                                    .unwrap_or(Duration::ZERO)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (ni, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(row) => per_node.push(row),
                    Err(_) => {
                        // Keep joining the rest so no thread is leaked past
                        // the scope, then report the first dead node.
                        failed.get_or_insert(ClusterError::NodeFailed { partition: ni });
                    }
                }
            }
        });
        if let Some(err) = failed {
            return Err(err);
        }
        // Transpose to per-query rows: compute[q][node].
        let num_q = queries.len();
        Ok((0..num_q)
            .map(|q| (0..num_nodes).map(|p| per_node[p][q]).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use x100_corpus::CollectionConfig;

    /// A temp path unique to this call: pid plus a process-wide counter.
    fn temp_path(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "x100-{name}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn setup(n: usize) -> (SyntheticCollection, SimulatedCluster) {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let cluster = SimulatedCluster::build(&c, n, &IndexConfig::compressed());
        (c, cluster)
    }

    #[test]
    fn merged_results_are_globally_ranked() {
        let (c, cluster) = setup(4);
        let q = &c.eval_queries[0];
        let merged = cluster.search(&q.terms, SearchStrategy::Bm25, 20);
        assert!(merged.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(merged.len() <= 20);
        // Names match global ids.
        for r in &merged {
            assert_eq!(r.name, format!("doc-{:08}", r.docid));
        }
    }

    #[test]
    fn distributed_approximates_single_node() {
        // Per-node statistics are 1/n-scaled, so rankings agree up to
        // boundary effects. On the 300-doc tiny fixture a 2-way split keeps
        // the per-node statistics close enough to require strong overlap;
        // wider splits over so few documents make df/avgdl genuinely noisy
        // (150 docs per node), which is a property of tiny partitions, not
        // of the merge logic (checked exactly by the 1-node test below).
        let (c, cluster) = setup(2);
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let engine = QueryEngine::new(&idx);
        let mut total_overlap = 0usize;
        let mut total = 0usize;
        for q in &c.eval_queries {
            let single: HashSet<u32> = engine
                .search(&q.terms, SearchStrategy::Bm25, 20)
                .unwrap()
                .results
                .iter()
                .map(|r| r.docid)
                .collect();
            let dist: HashSet<u32> = cluster
                .search(&q.terms, SearchStrategy::Bm25, 20)
                .iter()
                .map(|r| r.docid)
                .collect();
            total_overlap += single.intersection(&dist).count();
            total += single.len().min(20);
        }
        assert!(
            total_overlap * 100 >= total * 80,
            "overlap {total_overlap}/{total}"
        );
    }

    #[test]
    fn one_node_cluster_equals_single_engine_exactly() {
        let (c, cluster) = setup(1);
        let idx = InvertedIndex::build(&c, &IndexConfig::compressed());
        let engine = QueryEngine::new(&idx);
        for q in c.eval_queries.iter().take(3) {
            let single: Vec<(u32, String)> = engine
                .search(&q.terms, SearchStrategy::Bm25, 10)
                .unwrap()
                .results
                .into_iter()
                .map(|r| (r.docid, r.name))
                .collect();
            let dist: Vec<(u32, String)> = cluster
                .search(&q.terms, SearchStrategy::Bm25, 10)
                .into_iter()
                .map(|r| (r.docid, r.name))
                .collect();
            assert_eq!(single, dist);
        }
    }

    #[test]
    fn compute_matrix_has_query_by_node_shape() {
        let (c, cluster) = setup(3);
        let queries: Vec<Vec<u32>> = c.efficiency_log.iter().take(5).cloned().collect();
        let m = cluster
            .measure_compute(&queries, SearchStrategy::Bm25, 20)
            .unwrap();
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|row| row.len() == 3));
    }

    #[test]
    fn empty_query_returns_empty() {
        let (_, cluster) = setup(2);
        assert!(cluster.search(&[], SearchStrategy::Bm25, 10).is_empty());
    }

    #[test]
    fn streaming_build_equals_batch_build() {
        let cfg = CollectionConfig::tiny();
        let (c, batch) = setup(3);
        let stream = CollectionStream::new(&cfg);
        let (streamed, tail) =
            SimulatedCluster::build_streaming(stream, 3, &IndexConfig::compressed(), 64);
        assert_eq!(streamed.num_nodes(), batch.num_nodes());
        for (a, b) in streamed.nodes().iter().zip(batch.nodes()) {
            assert_eq!(a.global_ids, b.global_ids);
            assert_eq!(
                a.index().td().column("docid").unwrap().read_all(),
                b.index().td().column("docid").unwrap().read_all()
            );
            assert_eq!(
                a.index().td().column("tf").unwrap().read_all(),
                b.index().td().column("tf").unwrap().read_all()
            );
        }
        assert_eq!(tail.efficiency_log, c.efficiency_log);
        // Merged search results agree exactly.
        for q in c.eval_queries.iter().take(3) {
            assert_eq!(
                streamed.search(&q.terms, SearchStrategy::Bm25, 10),
                batch.search(&q.terms, SearchStrategy::Bm25, 10)
            );
        }
    }

    #[test]
    fn spill_streaming_build_equals_streaming_build() {
        let cfg = CollectionConfig::tiny();
        let (plain, _) = SimulatedCluster::build_streaming(
            CollectionStream::new(&cfg),
            3,
            &IndexConfig::compressed(),
            64,
        );
        let (spilled, tail, stats) = SimulatedCluster::build_streaming_spill(
            CollectionStream::new(&cfg),
            3,
            &IndexConfig::compressed(),
            64,
            12 * 1024, // 4 KiB per partition: forces several runs each
        )
        .unwrap();
        assert!(stats.iter().all(|s| s.runs > 0), "{stats:?}");
        assert!(stats.iter().all(|s| s.peak_accum_bytes <= 4 * 1024));
        // Finish-phase accounting is populated for every partition merge.
        assert!(stats.iter().all(|s| s.finish_peak_bytes > 0), "{stats:?}");
        for (a, b) in spilled.nodes().iter().zip(plain.nodes()) {
            assert_eq!(a.global_ids, b.global_ids);
            assert_eq!(
                a.index().td().column("docid").unwrap().read_all(),
                b.index().td().column("docid").unwrap().read_all()
            );
            assert_eq!(
                a.index().td().column("tf").unwrap().read_all(),
                b.index().td().column("tf").unwrap().read_all()
            );
        }
        for q in tail.eval_queries.iter().take(3) {
            assert_eq!(
                spilled.search(&q.terms, SearchStrategy::Bm25, 10),
                plain.search(&q.terms, SearchStrategy::Bm25, 10)
            );
        }
    }

    #[test]
    fn scatter_gather_is_bit_identical_to_sequential() {
        let (c, cluster) = setup(4);
        for q in &c.eval_queries {
            let sequential = cluster.search(&q.terms, SearchStrategy::Bm25, 20);
            let scattered = cluster.search_scatter(&q.terms, SearchStrategy::Bm25, 20);
            assert_eq!(scattered.results, sequential);
        }
    }

    #[test]
    fn scatter_records_one_timing_per_node() {
        let (c, cluster) = setup(3);
        let resp = cluster.search_scatter(&c.eval_queries[0].terms, SearchStrategy::Bm25, 10);
        assert_eq!(resp.node_timings.len(), 3);
        for (i, t) in resp.node_timings.iter().enumerate() {
            assert_eq!(t.node, i);
            // The fan-out thread's wall window strictly contains the
            // engine's own execution window.
            assert!(
                t.wall >= t.cpu_time,
                "node {i}: wall {:?} < cpu {:?}",
                t.wall,
                t.cpu_time
            );
        }
    }

    #[test]
    fn scatter_on_empty_query_returns_empty() {
        let (_, cluster) = setup(2);
        let resp = cluster.search_scatter(&[], SearchStrategy::Bm25, 10);
        assert!(resp.results.is_empty());
        assert_eq!(resp.node_timings.len(), 2);
    }

    #[test]
    fn reopened_segment_cluster_is_bit_identical() {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let cluster = SimulatedCluster::build(&c, 3, &IndexConfig::materialized_q8());
        let base = temp_path("cluster-segments");
        let paths = cluster.persist_segments(&base).unwrap();
        assert_eq!(paths.len(), 3);
        let reopened = SimulatedCluster::open_segments(&paths).unwrap();
        assert_eq!(reopened.num_nodes(), cluster.num_nodes());
        for q in c.eval_queries.iter().take(5) {
            assert_eq!(
                reopened.search(&q.terms, SearchStrategy::Bm25Materialized, 20),
                cluster.search(&q.terms, SearchStrategy::Bm25Materialized, 20)
            );
        }
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn streaming_zero_partitions_rejected() {
        let stream = CollectionStream::new(&CollectionConfig::tiny());
        let _ = SimulatedCluster::build_streaming(stream, 0, &IndexConfig::compressed(), 64);
    }

    #[test]
    fn streaming_placement_agrees_with_partition_of() {
        // The third copy of the placement rule lived here before it was
        // factored into `partition_of`; pin that the streaming builders
        // and the batch partitioner route every document identically.
        let cfg = CollectionConfig::tiny();
        for n in [2usize, 3, 5] {
            let (streamed, _) = SimulatedCluster::build_streaming(
                CollectionStream::new(&cfg),
                n,
                &IndexConfig::compressed(),
                64,
            );
            for (pi, node) in streamed.nodes().iter().enumerate() {
                for &g in &node.global_ids {
                    assert_eq!(partition_of(g, n), pi, "doc {g} with {n} partitions");
                }
            }
        }
    }

    #[test]
    fn panicking_node_is_contained_and_reported() {
        // A node-thread panic must not abort the scatter (the old
        // `join().expect(...)` did): the query completes over the
        // surviving partitions and the dead node surfaces as a typed
        // `ClusterError::NodeFailed` the failover layer can consume.
        let (c, cluster) = setup(3);
        let q = &c.eval_queries[0].terms;
        let healthy = cluster.search_scatter(q, SearchStrategy::Bm25, 20);
        assert!(healthy.failures.is_empty());

        cluster.nodes()[1].inject_search_panic_for_tests(true);
        let resp = cluster.search_scatter(q, SearchStrategy::Bm25, 20);
        assert_eq!(
            resp.failures,
            vec![ClusterError::NodeFailed { partition: 1 }],
            "exactly the injected node reports failure"
        );
        assert_eq!(
            resp.node_timings.len(),
            3,
            "timing slots stay in node order"
        );
        // The merge covers the surviving partitions: every healthy hit
        // from a surviving node is still present, bit-identical and in
        // rank order (hits freed by node 1's absence may interleave below
        // the old truncation boundary).
        assert!(resp.results.iter().all(|r| r.node != 1));
        let expected: Vec<_> = healthy.results.iter().filter(|r| r.node != 1).collect();
        assert!(resp.results.len() >= expected.len());
        let mut remaining = resp.results.iter();
        for want in &expected {
            assert!(
                remaining
                    .any(|got| (got.docid, got.score.to_bits())
                        == (want.docid, want.score.to_bits())),
                "surviving hit {want:?} missing from degraded merge"
            );
        }

        // measure_compute reports the same typed failure instead of
        // panicking (the `:500` twin of the scatter-path bug).
        let queries: Vec<Vec<u32>> = c.efficiency_log.iter().take(2).cloned().collect();
        assert_eq!(
            cluster.measure_compute(&queries, SearchStrategy::Bm25, 10),
            Err(ClusterError::NodeFailed { partition: 1 })
        );

        cluster.nodes()[1].inject_search_panic_for_tests(false);
        let recovered = cluster.search_scatter(q, SearchStrategy::Bm25, 20);
        assert!(recovered.failures.is_empty());
        assert_eq!(recovered.results, healthy.results);
    }
}
