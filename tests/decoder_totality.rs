//! Decoder totality over hostile bytes: `xgs_tile::decode_tile` (the
//! sharded backend's tile payloads) and `xgs_runtime::parse_json` (every
//! request line the server reads) return `Ok` or `Err` — never panic — on
//! byte soup and on every truncation and single-byte splice of valid
//! encodings, and no allocation either makes exceeds what the input's
//! length can back. The shard transport's buffered `FrameReader` returns
//! the same frames however the bytes are split across reads, and names
//! every way a stream can end.
//!
//! The allocation bound is measured, not assumed: this test binary's
//! global allocator records the largest single request each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exageostat_rs::prelude::*;
use exageostat_rs::runtime::{FrameError, FrameReader, MetricsReport, Outbox, MAX_FRAME_BYTES};
use exageostat_rs::tile::{decode_tile, encode_tile, Tile};
use proptest::prelude::*;

/// The system allocator, plus a per-thread high-water mark of single
/// allocation sizes (growth goes through `alloc` under the default
/// `realloc`, so it is seen too).
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method hands its arguments to `System` unchanged; the
// bookkeeping only touches a const-initialized thread-local `Cell`, which
// never allocates and has no destructor.
// xgs-lint: allow(no-unjustified-unsafe): forwards to System unchanged xgs-lint: allow(no-unsafe-outside-audited-modules): test-only allocator measuring the decoders' largest allocation
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: the caller's layout goes to `System.alloc` as received.
    // xgs-lint: allow(no-unjustified-unsafe): forwards to System unchanged xgs-lint: allow(no-unsafe-outside-audited-modules): test-only allocator
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
    // xgs-lint: allow(no-unjustified-unsafe): forwards to System unchanged xgs-lint: allow(no-unsafe-outside-audited-modules): test-only allocator
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Run `f`, returning its result and the largest single allocation it
/// made on this thread.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Decode `bytes` as a tile. Every element costs at least 2 payload bytes
/// (F16) and 8 decoded ones, so no allocation may exceed 4 bytes per
/// input byte.
fn tile_case(bytes: &[u8]) -> Result<(), String> {
    let (decoded, peak) = peak_during(|| decode_tile(bytes).map(|t| t.rows()));
    prop_assert!(
        peak <= 4 * bytes.len(),
        "{peak}-byte allocation from a {}-byte payload ({decoded:?})",
        bytes.len()
    );
    Ok(())
}

/// Parse `bytes` (lossily made UTF-8) as JSON. An array element costs at
/// least two input bytes and a string one, so the largest vector holds
/// about one value per input byte; beyond that only a B-tree node
/// (under 1 KiB) is allocated whole.
fn json_case(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    let bound = std::mem::size_of::<JsonValue>() * (text.len() + 4) + 1024;
    let (parsed, peak) = peak_during(|| parse_json(&text).is_ok());
    prop_assert!(
        peak <= bound,
        "{peak}-byte allocation from a {}-byte document (parsed: {parsed})",
        text.len()
    );
    Ok(())
}

/// Bytes a single-byte splice writes: the format's structural values and
/// boundaries, plus one drawn at random per case.
const SPLICE: &[u8] = b"\x00\x01\x02\x7f\x80\xff{}[]\",:\\-+.09eEtfnu ";

/// Every truncation of `valid`, and every position overwritten with (and
/// preceded by an inserted) each splice byte.
fn mutations(valid: &[u8], extra: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    let truncations = (0..valid.len()).map(|n| valid[..n].to_vec());
    let splices = (0..valid.len()).flat_map(move |i| {
        SPLICE.iter().copied().chain([extra]).flat_map(move |b| {
            let mut overwritten = valid.to_vec();
            overwritten[i] = b;
            let mut inserted = valid.to_vec();
            inserted.insert(i, b);
            [overwritten, inserted]
        })
    });
    truncations.chain(splices)
}

fn valid_tiles() -> Vec<Vec<u8>> {
    let m = |rows, cols| Matrix::from_fn(rows, cols, |i, j| 0.3 - (i * 7 + j) as f64 / 16.0);
    let mut out = Vec::new();
    for p in [Precision::F64, Precision::F32, Precision::F16] {
        let low_rank = LowRank {
            u: m(4, 2),
            v: m(3, 2),
        };
        for tile in [Tile::dense(m(3, 2), p), Tile::low_rank(low_rank, p)] {
            let mut buf = Vec::new();
            encode_tile(&tile, &mut buf);
            out.push(buf);
        }
    }
    out
}

fn valid_documents() -> Vec<Vec<u8>> {
    [
        r#"{"op":"predict","id":3,"model":"default","points":[[0.25,0.5],[1e-3,-2.5E+2]],"uncertainty":true,"deadline_ms":250}"#.to_string(),
        r#"{"ok":true,"id":7,"mean":[0.1,-0.2],"uncertainty":[0.01,0.02]}"#.to_string(),
        r#"{"s":"a\"b\\c\/\b\f\n\r\tAé😀 é😀","n":null,"t":true,"f":false,"e":[],"o":{},"d":[[[{}]]]}"#.to_string(),
        MetricsReport::default().to_json(),
    ]
    .map(String::into_bytes)
    .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn decode_tile_is_total_on_truncations_and_splices(extra in 0u32..256) {
        for valid in valid_tiles() {
            prop_assert!(decode_tile(&valid).is_ok());
            for bytes in mutations(&valid, extra as u8) {
                tile_case(&bytes)?;
            }
        }
    }

    #[test]
    fn parse_json_is_total_on_truncations_and_splices(extra in 0u32..256) {
        for valid in valid_documents() {
            prop_assert!(parse_json(&String::from_utf8_lossy(&valid)).is_ok());
            for bytes in mutations(&valid, extra as u8) {
                json_case(&bytes)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn decoders_are_total_on_byte_soup(
        soup in proptest::collection::vec(0u32..256, 96),
        len in 0usize..97,
        alphabet in 0usize..2,
    ) {
        // Raw bytes for the binary decoder; for the JSON reader, in half
        // the cases, the draw mapped onto its structural alphabet, which
        // reaches deeper than uniform bytes do.
        let bytes: Vec<u8> = soup[..len].iter().map(|&b| b as u8).collect();
        tile_case(&bytes)?;
        let bytes = if alphabet == 1 {
            bytes.iter().map(|&b| SPLICE[b as usize % SPLICE.len()]).collect()
        } else {
            bytes
        };
        json_case(&bytes)?;
    }
}

/// A peer whose bytes arrive in the given chunks, one chunk (or what the
/// reader's buffer takes of it) per `read`, then EOF. Counts the reads.
struct Chunks {
    chunks: std::collections::VecDeque<Vec<u8>>,
    reads: std::rc::Rc<Cell<usize>>,
}

impl Chunks {
    fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Chunks {
        Chunks {
            chunks: chunks.into_iter().filter(|c| !c.is_empty()).collect(),
            reads: Default::default(),
        }
    }
}

impl std::io::Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.set(self.reads.get() + 1);
        let Some(front) = self.chunks.front_mut() else {
            return Ok(0);
        };
        let n = front.len().min(buf.len());
        buf[..n].copy_from_slice(&front[..n]);
        front.drain(..n);
        if front.is_empty() {
            self.chunks.pop_front();
        }
        Ok(n)
    }
}

fn frames(list: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Outbox::default();
    let mut bytes = Vec::new();
    for (kind, payload) in list {
        out.push(*kind, payload);
    }
    out.flush_to(&mut bytes).unwrap();
    bytes
}

/// Read frames until the stream ends; the end must be a clean close.
fn read_all(reader: &mut FrameReader<Chunks>) -> Vec<(u8, Vec<u8>)> {
    let mut got = Vec::new();
    loop {
        match reader.read_frame() {
            Ok(frame) => got.push(frame),
            Err(FrameError::Closed) => return got,
            Err(e) => panic!("stream of whole frames ended with {e}"),
        }
    }
}

#[test]
fn frame_reader_is_split_invariant_and_names_every_end() {
    // Small frames, split at every byte and fed one byte per read.
    let small = vec![(4u8, b"done".to_vec()), (8, Vec::new()), (2, vec![7u8; 13])];
    let bytes = frames(&small);
    for cut in 0..=bytes.len() {
        let chunks = [bytes[..cut].to_vec(), bytes[cut..].to_vec()];
        assert_eq!(read_all(&mut FrameReader::new(Chunks::new(chunks))), small);
    }
    let bytewise = bytes.iter().map(|&b| vec![b]);
    assert_eq!(
        read_all(&mut FrameReader::new(Chunks::new(bytewise))),
        small
    );

    // Several frames in one read: one syscall serves them all.
    let peer = Chunks::new([bytes.clone()]);
    let reads = std::rc::Rc::clone(&peer.reads);
    let mut reader = FrameReader::new(peer);
    for want in &small {
        assert_eq!(&reader.read_frame().unwrap(), want);
    }
    assert_eq!((reads.get(), reader.buffered()), (1, 0));
    assert!(matches!(reader.read_frame(), Err(FrameError::Closed)));

    // A payload larger than the buffer, cut around the header, the buffer
    // size and the end.
    let big = vec![
        (2u8, (0..70_000u32).map(|i| i as u8).collect::<Vec<_>>()),
        (4, vec![1]),
    ];
    let bytes = frames(&big);
    for cut in [1, 4, 5, 6, 65_535, 65_536, 65_537, 70_004, 70_005, 70_006] {
        let chunks = [bytes[..cut].to_vec(), bytes[cut..].to_vec()];
        assert_eq!(
            read_all(&mut FrameReader::new(Chunks::new(chunks))),
            big,
            "cut {cut}"
        );
    }

    // Truncation mid-header and mid-payload says how far the frame got.
    let mut header = 100u32.to_le_bytes().to_vec();
    header.push(2);
    for (stream, want) in [
        (header[..2].to_vec(), (5, 2)),
        ([header.clone(), b"abc".to_vec()].concat(), (100, 3)),
    ] {
        match FrameReader::new(Chunks::new([stream])).read_frame() {
            Err(FrameError::Truncated { expected, got }) => assert_eq!((expected, got), want),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
    // A body promised past the buffer and cut short is truncated too.
    let mut long = 100_000u32.to_le_bytes().to_vec();
    long.push(2);
    long.extend_from_slice(&[0; 10]);
    match FrameReader::new(Chunks::new([long])).read_frame() {
        Err(FrameError::Truncated { expected, got }) => assert_eq!((expected, got), (100_000, 10)),
        other => panic!("expected Truncated, got {other:?}"),
    }

    // An oversized announcement is refused before anything is allocated
    // for it.
    let mut huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    huge.push(2);
    let mut reader = FrameReader::new(Chunks::new([huge]));
    let (result, peak) = peak_during(|| reader.read_frame());
    assert!(matches!(result, Err(FrameError::TooLarge { len }) if len == MAX_FRAME_BYTES + 1));
    assert!(peak < 1024, "{peak}-byte allocation for a refused frame");
}
