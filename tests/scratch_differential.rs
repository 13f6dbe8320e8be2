//! Differential suite: the fused scratch-arena query path versus the
//! relational engine, bit for bit.
//!
//! The relational path (`QueryEngine::search`) allocates a fresh operator
//! tree per query and is kept as the oracle; the fused path
//! (`QueryExecutor::search` / `search_hits_into`) reuses a scratch arena
//! across queries. This suite holds the two against each other — docids,
//! score **bits** (`f32::to_bits`, not approximate equality), pass counts
//! and error outcomes — across every strategy of the Table 2 ladder, over
//! compressed, materialized-f32 and materialized-q8 indexes, in-memory
//! and segment-backed, with randomized queries that include unknown terms
//! and duplicates.
//!
//! Between queries the executor's arena is deliberately **poisoned**
//! (overwritten with seed-derived garbage, including NaNs and stale
//! cursor positions): equality afterwards proves the hot path depends
//! only on state each query re-initializes, never on leftovers — the
//! exact property that makes arena reuse safe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_ir::{
    IndexConfig, InvertedIndex, QueryEngine, QueryExecutor, QueryScratch, SearchResult,
    SearchStrategy,
};

/// Every strategy of the Table 2 ladder plus the block-max pruned modes.
/// For the pruned strategies the relational oracle runs the *exhaustive*
/// disjunctive plan, so these comparisons are precisely the "pruning must
/// not change one output bit" guarantee.
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

struct Fixture {
    queries: Vec<Vec<u32>>,
    /// One index per materialization mode; all eight strategies run on the
    /// materialized ones, the materialized ones error on the plain
    /// compressed one (and must error identically on both paths).
    indexes: Vec<Arc<InvertedIndex>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let c = SyntheticCollection::generate(&CollectionConfig::tiny());
        let mut queries: Vec<Vec<u32>> = c.eval_queries.iter().map(|q| q.terms.clone()).collect();
        queries.extend(c.efficiency_log.iter().take(10).cloned());
        let indexes = [
            IndexConfig::compressed(),
            IndexConfig::materialized_f32(),
            IndexConfig::materialized_q8(),
        ]
        .iter()
        .map(|cfg| Arc::new(InvertedIndex::build(&c, cfg)))
        .collect();
        Fixture { queries, indexes }
    })
}

/// Exact-comparison form of a result list: docid plus the score's bits.
fn bits(results: &[SearchResult]) -> Vec<(u32, u32)> {
    results
        .iter()
        .map(|r| (r.docid, r.score.to_bits()))
        .collect()
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

/// Asserts the fused path (through `exec`, arena poisoned first) agrees
/// with the relational oracle on one query, including error outcomes.
fn check_one(
    exec: &QueryExecutor,
    oracle: &QueryEngine<'_>,
    terms: &[u32],
    strategy: SearchStrategy,
    n: usize,
    poison_seed: u64,
) {
    exec.poison_scratch(poison_seed);
    let fused = exec.search(terms, strategy, n);
    let relational = oracle.search(terms, strategy, n);
    match (fused, relational) {
        (Ok(f), Ok(r)) => {
            assert_eq!(
                bits(&f.results),
                bits(&r.results),
                "fused vs relational diverged: {strategy:?} n={n} terms={terms:?}"
            );
            // Names ride along identically (same docids, same D table).
            assert_eq!(f.results, r.results);
            assert_eq!(f.passes, r.passes, "{strategy:?} n={n} terms={terms:?}");
        }
        (Err(_), Err(_)) => {} // both reject (e.g. materialized strategy, plain index)
        (f, r) => panic!(
            "outcome mismatch for {strategy:?} n={n} terms={terms:?}: \
             fused {:?} vs relational {:?}",
            f.map(|x| x.results.len()),
            r.map(|x| x.results.len()),
        ),
    }
}

#[test]
fn every_strategy_matches_relational_oracle_with_poisoned_arena() {
    let fx = fixture();
    for index in &fx.indexes {
        let exec = QueryExecutor::new(index.clone());
        let oracle = QueryEngine::new(index);
        let mut seed = 0x5EED_0001u64;
        for &strategy in &ALL_STRATEGIES {
            for n in [0usize, 1, 3, 10, 100] {
                for q in &fx.queries {
                    seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                    check_one(&exec, &oracle, q, strategy, n, seed);
                }
            }
        }
    }
}

#[test]
fn segment_backed_fused_path_matches_relational_oracle() {
    let fx = fixture();
    let path = temp_path("scratch-diff");
    // The q8 index runs all eight strategies; reopened from its segment the
    // posting blocks (and the block-max metadata the pruned modes skip by)
    // are disk-resident and flow through the buffer pool.
    fx.indexes[2].write_segment(&path).expect("write segment");
    let reopened = Arc::new(InvertedIndex::open_segment(&path).expect("open segment"));
    let exec = QueryExecutor::new(reopened.clone());
    let oracle = QueryEngine::new(&reopened);
    for &strategy in &ALL_STRATEGIES {
        for (qi, q) in fx.queries.iter().enumerate() {
            check_one(&exec, &oracle, q, strategy, 10, 0xD15C_0000 ^ qi as u64);
        }
    }
    std::fs::remove_file(&path).expect("remove segment");
}

#[test]
fn one_scratch_arena_survives_interleaved_strategies_and_poisoning() {
    // A single engine-level arena serving wildly different queries in
    // sequence — strategies, result sizes and term counts interleaved,
    // poison in between — must match per-query fresh execution.
    let fx = fixture();
    let index = &fx.indexes[2];
    let engine = QueryEngine::new(index);
    let mut scratch = QueryScratch::new();
    let mut seed = 7u64;
    for round in 0..3u64 {
        for (qi, q) in fx.queries.iter().enumerate() {
            let strategy = ALL_STRATEGIES[(qi + round as usize) % ALL_STRATEGIES.len()];
            let n = [0usize, 2, 10, 50][qi % 4];
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(round);
            scratch.poison(seed);
            let reused = engine
                .search_with_scratch(q, strategy, n, &mut scratch)
                .unwrap();
            let fresh = engine.search(q, strategy, n).unwrap();
            assert_eq!(bits(&reused.results), bits(&fresh.results));
            assert_eq!(reused.passes, fresh.passes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized queries (unknown terms, duplicates, empty), random n,
    /// random strategy, random poison seed, over every index flavor.
    #[test]
    fn random_queries_agree_bit_for_bit(
        raw_terms in prop::collection::vec(any::<u32>(), 0..6),
        strategy_idx in 0usize..ALL_STRATEGIES.len(),
        n in 0usize..25,
        poison_seed in any::<u64>(),
    ) {
        let fx = fixture();
        let strategy = ALL_STRATEGIES[strategy_idx];
        for index in &fx.indexes {
            // Fold raw ids into a band slightly wider than the vocabulary
            // so most terms exist but unknown ids stay represented.
            let span = index.num_terms() as u32 + 7;
            let terms: Vec<u32> = raw_terms.iter().map(|&t| t % span).collect();
            let exec = QueryExecutor::new(index.clone());
            let oracle = QueryEngine::new(index);
            check_one(&exec, &oracle, &terms, strategy, n, poison_seed);
        }
    }
}
