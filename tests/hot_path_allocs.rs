//! The allocation pin: steady-state query execution on the fused hot path
//! performs **zero heap allocations** per query.
//!
//! This binary installs [`x100_bench::alloc::CountingAlloc`] as its global
//! allocator (per-thread counters over `System`) and wraps warm queries in
//! `assert_no_allocs`. A warmup pass first grows every reusable buffer to
//! its steady-state size — the scratch arena's cursors, batch arrays and
//! heap, the caller's hits vector, the buffer pool's resident set — after
//! which each query must run without touching the allocator at all, for
//! every strategy of the Table 2 ladder, on the single-node executor, on
//! a segment-backed (disk-resident, warm) index, and inside per-node
//! scatter-gather worker threads.
//!
//! The counters are per-thread, so the parallel test harness cannot leak
//! another test's allocations into an assertion here.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_bench::alloc::{assert_no_allocs, count_allocs, CountingAlloc};
use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_distributed::SimulatedCluster;
use x100_ir::{IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every strategy of the Table 2 ladder plus the block-max pruned modes.
const ALL_STRATEGIES: [SearchStrategy; 8] = [
    SearchStrategy::BoolAnd,
    SearchStrategy::BoolOr,
    SearchStrategy::Bm25,
    SearchStrategy::Bm25TwoPass,
    SearchStrategy::Bm25Materialized,
    SearchStrategy::Bm25MaterializedTwoPass,
    SearchStrategy::Bm25Pruned,
    SearchStrategy::Bm25MaterializedPruned,
];

const TOP_N: usize = 10;

fn fixture() -> (Vec<Vec<u32>>, Arc<InvertedIndex>) {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    // A materialized-Q8 compressed index runs all eight strategies.
    let index = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_q8()));
    let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
    queries.extend(c.efficiency_log.iter().take(10).cloned());
    (queries, index)
}

/// A temp path unique to this call: pid plus a process-wide counter, so
/// tests running as threads of one process never share a file.
fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "x100-{name}-{}-{}.seg",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Guards the whole suite against a silent no-op: if the counting
/// allocator were not actually installed, every `assert_no_allocs` below
/// would pass vacuously.
#[test]
fn counting_allocator_is_live() {
    let (_, allocs, deallocs) = count_allocs(|| drop(std::hint::black_box(vec![1u8, 2, 3])));
    assert!(
        allocs >= 1 && deallocs >= 1,
        "counting allocator not installed: saw {allocs} allocs / {deallocs} deallocs"
    );
}

fn assert_steady_state_clean(
    label: &str,
    exec: &QueryExecutor,
    queries: &[Vec<u32>],
    strategies: &[SearchStrategy],
) {
    let mut out = Vec::new();
    // Warmup: grows the arena and hits buffer, faults every posting block
    // into the pool, and (under `--features simd`) runs CPU feature
    // detection once.
    for &strategy in strategies {
        for q in queries {
            exec.search_hits_into(q, strategy, TOP_N, &mut out)
                .expect("warmup query failed");
        }
    }
    for &strategy in strategies {
        for (qi, q) in queries.iter().enumerate() {
            let context = format!("{label}: {strategy:?} query {qi}");
            assert_no_allocs(&context, || {
                exec.search_hits_into(q, strategy, TOP_N, &mut out)
                    .expect("warm query failed")
            });
        }
    }
    // The conjunctive skipping path shares the arena's cursors and heap.
    for q in queries {
        exec.search_conjunctive_skipping_hits_into(q, TOP_N, &mut out)
            .expect("warmup skipping query failed");
    }
    for (qi, q) in queries.iter().enumerate() {
        let context = format!("{label}: conjunctive-skipping query {qi}");
        assert_no_allocs(&context, || {
            exec.search_conjunctive_skipping_hits_into(q, TOP_N, &mut out)
                .expect("warm skipping query failed")
        });
    }
}

#[test]
fn executor_steady_state_performs_zero_allocations() {
    let (queries, index) = fixture();
    let exec = QueryExecutor::new(index);
    assert_steady_state_clean("in-memory executor", &exec, &queries, &ALL_STRATEGIES);
}

#[test]
fn segment_backed_executor_is_allocation_free_once_warm() {
    let (queries, index) = fixture();
    let path = temp_path("hot-path-allocs");
    index.write_segment(&path).expect("write segment");
    let reopened = Arc::new(InvertedIndex::open_segment(&path).expect("open segment"));
    // Disk-backed blocks are `pread` and decoded on first touch (which
    // allocates); once resident, a block load is a slot hit handing out a
    // shared ref — the warmup inside drives all of that, after which the
    // assertions see the same zero-allocation path as the in-memory index.
    let exec = QueryExecutor::new(reopened);
    assert_steady_state_clean("segment-backed executor", &exec, &queries, &ALL_STRATEGIES);
    std::fs::remove_file(&path).expect("remove segment");
}

#[test]
fn scatter_gather_node_workers_are_allocation_free() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let cluster = SimulatedCluster::build(&c, 3, &IndexConfig::materialized_q8());
    let queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
    // One thread per node, as in `search_scatter`: each worker thread
    // warms its node (pooling one scratch arena), then asserts its own
    // per-thread counters stay untouched across warm queries. Spawning
    // and the per-node result handling may allocate — only the node-local
    // search itself is pinned.
    std::thread::scope(|s| {
        for (ni, node) in cluster.nodes().iter().enumerate() {
            let queries = &queries;
            s.spawn(move || {
                let mut out = Vec::new();
                for &strategy in &ALL_STRATEGIES {
                    for q in queries {
                        node.search_hits_into(q, strategy, TOP_N, &mut out)
                            .expect("warmup node query failed");
                    }
                }
                for &strategy in &ALL_STRATEGIES {
                    for (qi, q) in queries.iter().enumerate() {
                        let context = format!("node {ni}: {strategy:?} query {qi}");
                        assert_no_allocs(&context, || {
                            node.search_hits_into(q, strategy, TOP_N, &mut out)
                                .expect("warm node query failed")
                        });
                    }
                }
            });
        }
    });
}
