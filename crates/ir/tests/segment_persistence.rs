//! Segment persistence under fire: restart differentials across every
//! search strategy, plus exhaustive corruption injection — every byte
//! flipped, every truncation length, and oversized declared sizes with
//! re-sealed checksums (so the structural validators, not the checksums,
//! are what must catch them). A corrupt segment must always fail open
//! with a typed [`SegmentError`]: never a panic, never an unbounded
//! allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_corpus::{CollectionConfig, SyntheticCollection};
use x100_ir::{
    IndexConfig, InvertedIndex, QueryExecutor, SearchStrategy, SegmentError, StreamingIndexBuilder,
};
use x100_storage::{BufferManager, BufferMode, DiskModel};

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

/// A temp path unique to this call: the tests of this binary run as
/// threads of one process, so the pid alone would hand every caller of one
/// `name` the same file.
fn temp_path(name: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "x100-segment-persist-{name}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A deliberately small index (few dozen docs, tiny vocabulary) whose
/// segment stays in the low kilobytes — small enough that byte-exhaustive
/// and truncation-exhaustive injection runs in moments.
fn small_index(config: &IndexConfig) -> InvertedIndex {
    let vocab: Vec<String> = (0..24).map(|t| format!("term{t}")).collect();
    let mut b = StreamingIndexBuilder::new(vocab.len(), config);
    for d in 0..40u32 {
        // Deterministic, skewed postings: low term ids appear often.
        let terms: Vec<(u32, u32)> = (0..24u32)
            .filter(|t| (d + t) % (t + 2) == 0)
            .map(|t| (t, 1 + (d + t) % 5))
            .collect();
        let len = terms.iter().map(|&(_, tf)| tf).sum::<u32>().max(1);
        b.push_doc(&format!("doc-{d:04}"), &terms, len);
    }
    b.finish(&vocab)
}

// ---------------------------------------------------------------------------
// Restart differential
// ---------------------------------------------------------------------------

/// Write → reopen cold in a pool small enough to evict continuously →
/// every strategy must return results bit-identical to the in-memory
/// index, even though each of its blocks is dropped and re-`pread`
/// multiple times along the way.
#[test]
fn reopened_segment_serves_all_strategies_bit_identically() {
    let c = SyntheticCollection::generate(&CollectionConfig::tiny());
    let mem_index = Arc::new(InvertedIndex::build(&c, &IndexConfig::materialized_q8()));
    let path = temp_path("differential");
    mem_index.write_segment(&path).unwrap();
    let seg_index = Arc::new(InvertedIndex::open_segment(&path).unwrap());

    let mem_exec = QueryExecutor::new(mem_index.clone());
    // A pool holding roughly one block forces eviction on practically
    // every touch: blocks are dropped and re-read from the file all run.
    let tiny_pool = Arc::new(BufferManager::with_mode(
        DiskModel::instant(),
        BufferMode::Cold,
        4 << 10,
    ));
    let seg_exec = QueryExecutor::with_buffer_manager(seg_index.clone(), tiny_pool);

    for strategy in ALL_STRATEGIES {
        for q in c.eval_queries.iter().take(10) {
            let mem = mem_exec.search(&q.terms, strategy, 20).expect("mem search");
            let seg = seg_exec.search(&q.terms, strategy, 20).expect("seg search");
            assert_eq!(
                seg.results, mem.results,
                "strategy {strategy:?} diverged after reopen"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Corruption injection helpers
// ---------------------------------------------------------------------------

/// FNV-1a 64 — the segment format's checksum, reimplemented here so the
/// tests can *re-seal* deliberately corrupted files and prove the
/// structural validators (not just the checksums) reject them.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Offset of the table of contents (from the header) and entry count.
fn toc_layout(file: &[u8]) -> (usize, usize) {
    let toc_offset = u64_at(file, 16) as usize;
    let count = u32::from_le_bytes(file[8..12].try_into().unwrap()) as usize;
    (toc_offset, count)
}

/// Re-seals the header checksum over bytes `[0..32)`.
fn reseal_header(file: &mut [u8]) {
    let sum = fnv(&file[0..32]);
    put_u64(file, 32, sum);
}

/// Re-seals the TOC trailer checksum over all entries.
fn reseal_toc(file: &mut [u8]) {
    let (toc_offset, count) = toc_layout(file);
    let sum = fnv(&file[toc_offset..toc_offset + count * 32]);
    put_u64(file, toc_offset + count * 32, sum);
}

/// Finds the TOC slot of a section by kind tag; returns the slot offset.
fn toc_slot(file: &[u8], kind: u32) -> usize {
    let (toc_offset, count) = toc_layout(file);
    (0..count)
        .map(|i| toc_offset + i * 32)
        .find(|&at| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) == kind)
        .unwrap_or_else(|| panic!("no section with kind {kind}"))
}

/// Recomputes a section's checksum from its (possibly patched) payload and
/// re-seals the TOC around it.
fn reseal_section(file: &mut [u8], kind: u32) {
    let slot = toc_slot(file, kind);
    let offset = u64_at(file, slot + 8) as usize;
    let len = u64_at(file, slot + 16) as usize;
    let sum = fnv(&file[offset..offset + len]);
    put_u64(file, slot + 24, sum);
    reseal_toc(file);
}

/// Opens patched bytes as a segment, expecting a typed error.
fn open_expecting_error(bytes: &[u8], what: &str) {
    let path = temp_path("inject");
    std::fs::write(&path, bytes).unwrap();
    let result = InvertedIndex::open_segment(&path);
    std::fs::remove_file(&path).unwrap();
    match result {
        Err(
            SegmentError::Corrupt(_)
            | SegmentError::Truncated
            | SegmentError::BadMagic(_)
            | SegmentError::BadVersion(_)
            | SegmentError::TooLarge(_)
            | SegmentError::Io(_),
        ) => {}
        Ok(_) => panic!("{what}: corrupt segment opened successfully"),
    }
}

fn pristine_segment(config: &IndexConfig) -> Vec<u8> {
    let index = small_index(config);
    let path = temp_path("pristine");
    index.write_segment(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

// ---------------------------------------------------------------------------
// Exhaustive injection suites
// ---------------------------------------------------------------------------

/// Every single byte of the file, XOR 0xFF: any substitution must fail
/// open — the checksums cover every payload byte, the padding bytes are
/// verified zero, and the checksum fields themselves then mismatch.
#[test]
fn every_flipped_byte_is_rejected() {
    let pristine = pristine_segment(&IndexConfig::materialized_q8());
    assert!(
        pristine.len() < 64 << 10,
        "fixture segment unexpectedly large: {} bytes",
        pristine.len()
    );
    let mut bytes = pristine.clone();
    for i in 0..pristine.len() {
        bytes[i] ^= 0xFF;
        open_expecting_error(&bytes, &format!("byte {i} flipped"));
        bytes[i] = pristine[i];
    }
}

/// Every truncation length from the empty file up to one byte short: the
/// open must fail (typically `Truncated`), never panic or read past EOF.
#[test]
fn every_truncation_length_is_rejected() {
    let pristine = pristine_segment(&IndexConfig::compressed());
    for len in 0..pristine.len() {
        open_expecting_error(&pristine[..len], &format!("truncated to {len} bytes"));
    }
}

/// Oversized and inconsistent *declared* sizes, each with every checksum
/// re-sealed so the structural validators are what must reject them —
/// and each crafted so a validator that trusted the declared size would
/// attempt an absurd allocation or out-of-bounds read.
#[test]
fn resealed_oversized_declarations_are_rejected() {
    const META: u32 = 1;
    const TERMS: u32 = 2;
    const COL_DOCID: u32 = 7;
    let pristine = pristine_segment(&IndexConfig::materialized_q8());

    // Declared file length far beyond the real file.
    let mut b = pristine.clone();
    put_u64(&mut b, 24, u64::MAX / 2);
    reseal_header(&mut b);
    open_expecting_error(&b, "oversized declared file length");

    // A TOC entry claiming a section of nearly 2^63 bytes.
    let mut b = pristine.clone();
    let slot = toc_slot(&b, TERMS);
    put_u64(&mut b, slot + 16, u64::MAX / 2);
    reseal_toc(&mut b);
    open_expecting_error(&b, "oversized declared section length");

    // META claiming ~2^61 documents: every doc-indexed section is now
    // "too short"; a reader that pre-allocated would die here.
    let mut b = pristine.clone();
    let meta_slot = toc_slot(&b, META);
    let meta_off = u64_at(&b, meta_slot + 8) as usize;
    put_u64(&mut b, meta_off + 40, u64::MAX / 8);
    reseal_section(&mut b, META);
    open_expecting_error(&b, "oversized declared document count");

    // META claiming ~2^61 terms.
    let mut b = pristine.clone();
    put_u64(&mut b, meta_off + 32, u64::MAX / 8);
    reseal_section(&mut b, META);
    open_expecting_error(&b, "oversized declared term count");

    // The Terms column header claiming ~2^60 values: the page count no
    // longer matches the fence directory.
    let mut b = pristine.clone();
    let terms_slot = toc_slot(&b, TERMS);
    let terms_off = u64_at(&b, terms_slot + 8) as usize;
    put_u64(&mut b, terms_off + 16, u64::MAX / 16);
    reseal_section(&mut b, TERMS);
    open_expecting_error(&b, "oversized terms page count");

    // Posting column claiming ~2^60 blocks (header field block_count).
    let mut b = pristine.clone();
    let col_slot = toc_slot(&b, COL_DOCID);
    let col_off = u64_at(&b, col_slot + 8) as usize;
    put_u64(&mut b, col_off + 24, u64::MAX / 16);
    reseal_section(&mut b, COL_DOCID);
    open_expecting_error(&b, "oversized declared block count");

    // Posting column claiming ~2^60 values with the real block directory.
    let mut b = pristine.clone();
    put_u64(&mut b, col_off + 16, u64::MAX / 16);
    reseal_section(&mut b, COL_DOCID);
    open_expecting_error(&b, "oversized declared value count");

    // A block-directory entry pushed past the section payload: the
    // prefix-sum directory must stay monotone and end exactly at the
    // payload's end.
    let mut b = pristine.clone();
    put_u64(&mut b, col_off + 32 + 8, u64::MAX / 4);
    reseal_section(&mut b, COL_DOCID);
    open_expecting_error(&b, "oversized block-directory entry");

    // Sanity: the pristine bytes still open after all that cloning.
    let path = temp_path("still-good");
    std::fs::write(&path, &pristine).unwrap();
    InvertedIndex::open_segment(&path).expect("pristine segment must open");
    std::fs::remove_file(&path).unwrap();
}

/// Structural damage to the new resident directories — the vocabulary
/// fence keys and the document-name page table — with every checksum
/// re-sealed, so the directory validators themselves must reject it.
#[test]
fn resealed_fence_and_directory_damage_is_rejected() {
    const TERMS_FENCES: u32 = 11;
    const NAMES_DIR: u32 = 12;
    let pristine = pristine_segment(&IndexConfig::materialized_q8());

    let fences_slot = toc_slot(&pristine, TERMS_FENCES);
    let fences_off = u64_at(&pristine, fences_slot + 8) as usize;
    // Fence page count inflated: disagrees with the terms column.
    let mut b = pristine.clone();
    b[fences_off + 8..fences_off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, TERMS_FENCES);
    open_expecting_error(&b, "oversized fence page count");

    // First page's record count zeroed: fence counts no longer sum to the
    // declared term count (and empty pages are illegal).
    let mut b = pristine.clone();
    b[fences_off + 12..fences_off + 16].copy_from_slice(&0u32.to_le_bytes());
    reseal_section(&mut b, TERMS_FENCES);
    open_expecting_error(&b, "zeroed fence record count");

    // First fence key's length pushed past the section payload.
    let mut b = pristine.clone();
    b[fences_off + 16..fences_off + 20].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, TERMS_FENCES);
    open_expecting_error(&b, "oversized fence key length");

    let dir_slot = toc_slot(&pristine, NAMES_DIR);
    let dir_off = u64_at(&pristine, dir_slot + 8) as usize;
    // Name-page count inflated: disagrees with the names column.
    let mut b = pristine.clone();
    b[dir_off + 8..dir_off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, NAMES_DIR);
    open_expecting_error(&b, "oversized names page count");

    // First start moved off zero: the directory must start at docid 0.
    let mut b = pristine.clone();
    b[dir_off + 12..dir_off + 16].copy_from_slice(&7u32.to_le_bytes());
    reseal_section(&mut b, NAMES_DIR);
    open_expecting_error(&b, "names directory not starting at zero");

    // Final start (== num_docs) inflated: disagrees with META.
    let mut b = pristine.clone();
    let dir_len = u64_at(&pristine, dir_slot + 16) as usize;
    b[dir_off + dir_len - 4..dir_off + dir_len].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut b, NAMES_DIR);
    open_expecting_error(&b, "names directory document count");
}

/// Oversized declarations inside the `BlockMax` section, each re-sealed:
/// the column validators (and the length-vs-posting-count reconciliation)
/// must reject them with typed errors, exactly like the posting columns.
#[test]
fn resealed_blockmax_damage_is_rejected() {
    const BLOCKMAX: u32 = 13;
    let pristine = pristine_segment(&IndexConfig::materialized_q8());
    let slot = toc_slot(&pristine, BLOCKMAX);
    let off = u64_at(&pristine, slot + 8) as usize;

    // Declared value count inflated to ~2^60: no longer one entry per
    // 128-posting stride.
    let mut b = pristine.clone();
    put_u64(&mut b, off + 16, u64::MAX / 16);
    reseal_section(&mut b, BLOCKMAX);
    open_expecting_error(&b, "oversized block-max value count");

    // Value count nudged by one stride entry — still internally
    // plausible, but it must disagree with
    // `num_postings.div_ceil(128) * 4`.
    let mut b = pristine.clone();
    let declared = u64_at(&b, off + 16);
    put_u64(&mut b, off + 16, declared + 4);
    reseal_section(&mut b, BLOCKMAX);
    open_expecting_error(&b, "off-by-one-stride block-max value count");

    // Declared block count inflated: the page directory no longer matches.
    let mut b = pristine.clone();
    put_u64(&mut b, off + 24, u64::MAX / 16);
    reseal_section(&mut b, BLOCKMAX);
    open_expecting_error(&b, "oversized block-max block count");

    // A block-directory entry pushed past the section payload.
    let mut b = pristine.clone();
    put_u64(&mut b, off + 32 + 8, u64::MAX / 4);
    reseal_section(&mut b, BLOCKMAX);
    open_expecting_error(&b, "oversized block-max directory entry");

    // TOC length of the section itself inflated.
    let mut b = pristine.clone();
    put_u64(&mut b, slot + 16, u64::MAX / 2);
    reseal_toc(&mut b);
    open_expecting_error(&b, "oversized block-max section length");
}

/// Rewrites `pristine` with one section removed: its payload zeroed into
/// inter-section padding, its TOC entry spliced out, and every checksum
/// re-sealed — a byte-exact model of a segment written before that
/// section kind existed.
fn strip_section(pristine: &[u8], kind: u32) -> Vec<u8> {
    let mut b = pristine.to_vec();
    let slot = toc_slot(&b, kind);
    let off = u64_at(&b, slot + 8) as usize;
    let len = u64_at(&b, slot + 16) as usize;
    b[off..off + len].fill(0);
    let (toc_offset, count) = toc_layout(&b);
    let toc_end = toc_offset + count * 32;
    b.copy_within(slot + 32..toc_end, slot);
    // One entry fewer: the trailer checksum moves up 32 bytes and the
    // file shrinks with it.
    b.truncate(toc_end - 32 + 8);
    let new_len = b.len() as u64;
    b[8..12].copy_from_slice(&((count - 1) as u32).to_le_bytes());
    put_u64(&mut b, 24, new_len);
    reseal_header(&mut b);
    reseal_toc(&mut b);
    b
}

/// A segment with no `BlockMax` section — the pre-pruning format — must
/// still open, and the pruned strategies must silently fall back to the
/// exhaustive path, bit-identical to the in-memory index.
#[test]
fn segment_without_blockmax_serves_pruned_queries_exhaustively() {
    const BLOCKMAX: u32 = 13;
    let index = small_index(&IndexConfig::materialized_q8());
    let path = temp_path("noblockmax");
    index.write_segment(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let stripped = strip_section(&pristine, BLOCKMAX);
    std::fs::write(&path, &stripped).unwrap();
    let reopened = InvertedIndex::open_segment(&path)
        .expect("a segment without BlockMax predates pruning and must open");
    std::fs::remove_file(&path).unwrap();
    assert!(
        reopened.block_max().is_none(),
        "stripped segment must come back without block-max metadata"
    );

    let seg_exec = QueryExecutor::new(Arc::new(reopened));
    let mem_exec = QueryExecutor::new(Arc::new(index));
    let queries: [&[u32]; 5] = [&[0, 1, 2], &[3, 5, 8, 13], &[2], &[0, 23], &[7, 9, 11, 20]];
    for strategy in [
        SearchStrategy::Bm25Pruned,
        SearchStrategy::Bm25MaterializedPruned,
    ] {
        for q in queries {
            let mem = mem_exec.search(q, strategy, 10).expect("mem search");
            let seg = seg_exec.search(q, strategy, 10).expect("seg search");
            assert_eq!(
                seg.results, mem.results,
                "pruned fallback diverged for {strategy:?} on {q:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Understated-bound soundness
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A deliberately understated block-max entry — lower max tf, higher
    /// min doc length, lower score bound, or lower max docid — is
    /// *invisible to checksums* (the file stays internally consistent)
    /// but would let the pruned path skip a stride holding a true top-k
    /// hit. The debug-mode soundness validator must catch every such
    /// tamper, on any stride and any slot; the pristine metadata must
    /// pass it.
    #[test]
    fn understated_block_max_is_caught(pick in any::<u64>(), slot in 0usize..4) {
        let index = small_index(&IndexConfig::materialized_q8());
        prop_assert!(index.validate_block_max().is_ok(), "pristine metadata must validate");
        let bm = index.block_max().expect("built index carries block-max");
        let mut vals = bm.read_all();
        let stride = (pick as usize) % (vals.len() / 4);
        let at = stride * 4 + slot;
        // The stored entries are the *exact* per-stride extrema, so any
        // one-step move in the unsound direction understates the bound.
        // Slot 1 is a minimum (tamper up); slots 0, 2 and 3 are maxima
        // (tamper down; a zero maximum cannot be understated, so fall
        // back to the always-tamperable min-length slot).
        let at = if slot != 1 && vals[at] == 0 { stride * 4 + 1 } else { at };
        if at % 4 == 1 {
            vals[at] += 1;
        } else {
            vals[at] -= 1;
        }
        let tampered = x100_storage::Column::from_values(
            "blockmax",
            x100_compress::Codec::Raw,
            &vals,
        );
        prop_assert!(
            index.validate_block_max_column(&tampered).is_err(),
            "understated entry at stride {stride} slot {} escaped the validator",
            at % 4
        );
    }
}

// ---------------------------------------------------------------------------
// Crash-safe persist
// ---------------------------------------------------------------------------

/// Helper process body for the kill test below: rewrites one segment in a
/// tight loop until killed. Runs only when spawned with the env var set.
#[test]
#[ignore = "helper: spawned by interrupted_writer_never_leaves_a_partial_target"]
fn kill_child_writer_loop() {
    let Ok(dir) = std::env::var("X100_SEG_KILL_DIR") else {
        return;
    };
    let index = small_index(&IndexConfig::compressed());
    let target = std::path::Path::new(&dir).join("victim.x1sg");
    loop {
        index.write_segment(&target).unwrap();
    }
}

/// Kill a process mid-persist: because the writer streams into a temp file
/// and renames atomically after fsync, the target path must afterwards be
/// either absent or a complete segment that opens cleanly — never a
/// plausible-looking partial file.
#[test]
fn interrupted_writer_never_leaves_a_partial_target() {
    use std::process::{Command, Stdio};
    let dir = temp_path("kill-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(&exe)
        .args(["kill_child_writer_loop", "--ignored", "--exact"])
        .env("X100_SEG_KILL_DIR", &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn writer child");
    // Wait until the child is actually persisting (any file appears in the
    // scratch dir), then kill it at an arbitrary point of its write loop.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let busy = std::fs::read_dir(&dir).unwrap().next().is_some();
        if busy {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "writer child never started persisting"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("kill writer child");
    child.wait().expect("reap writer child");
    let target = dir.join("victim.x1sg");
    if target.exists() {
        InvertedIndex::open_segment(&target)
            .expect("a target path left by an interrupted persist must be a complete segment");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
