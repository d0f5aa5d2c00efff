//! Wire vocabulary of the coordinator/worker protocol: frame kinds, one
//! encoder and one total decoder per fixed-layout payload, and the
//! per-kind frame census. The frame table lives in the [module
//! docs](super).
//!
//! Every decoder is a pure function of the payload bytes: it returns a
//! value or a [`FrameError`], never panics, and ignores bytes past the
//! fields it knows (the forward-compatibility rule).

use crate::dag::{lr_precision, TileMetaSource};
use crate::task::{Kernel, Task};
use xgs_kernels::Precision;
use xgs_runtime::shard::{FrameError, WireReader, WireWriter, FRAME_HEADER_BYTES};
use xgs_runtime::{count_conversion, WireStats};
use xgs_tile::wire::{dense_payload_len, low_rank_payload_len, wire_elements};
use xgs_tile::{Tile, TileLayout};

/// Frame kinds of the coordinator/worker protocol. Kinds 5 and 6 are
/// reserved: protocol version 2 used them for a `SHUTDOWN`/`BYE`
/// teardown that the `HEARTBEAT` census replaced.
pub const K_HELLO: u8 = 1;
pub const K_TILE: u8 = 2;
pub const K_TASK: u8 = 3;
pub const K_DONE: u8 = 4;
pub const K_JOIN: u8 = 7;
pub const K_HEARTBEAT: u8 = 8;
pub const K_ASSIGN: u8 = 9;

/// Version byte leading `HELLO`, `JOIN` and `ASSIGN` payloads. Bumped
/// whenever a frame layout changes incompatibly; both sides reject a
/// mismatched peer with a protocol error naming the two versions instead
/// of mis-decoding a garbled frame.
pub const PROTO_VERSION: u8 = 3;

/// Bytes a TILE frame carries before the `xgs_tile::wire` body: the two
/// `u32` tile coordinates.
pub const TILE_COORD_BYTES: usize = 8;

/// Fixed payload sizes of the non-TILE frames a factorization moves,
/// byte-for-byte what the encoders below produce. Planned and projected
/// byte censuses use these so they speak the same units as the measured
/// one.
pub(super) const HELLO_PAYLOAD_BYTES: usize = 29;
pub(super) const TASK_PAYLOAD_BYTES: usize = 30;
pub(super) const DONE_PAYLOAD_BYTES: usize = 26;
pub(super) const HEARTBEAT_PING_BYTES: usize = 8;
pub(super) const HEARTBEAT_ECHO_BYTES: usize = 16;

/// Metrics keys of the frame kinds, indexed `K_* - 1`.
const FRAME_KIND_NAMES: [&str; 9] = [
    "hello",
    "tile",
    "task",
    "done",
    "reserved",
    "reserved",
    "join",
    "heartbeat",
    "assign",
];

/// Per-frame-kind `{frames, bytes}` tally. Bytes count whole frames —
/// header plus payload — in both directions, as seen from the coordinator.
#[derive(Clone, Copy, Default)]
pub(super) struct WireCensus {
    counts: [(u64, u64); 9],
}

impl WireCensus {
    pub(super) fn record(&mut self, kind: u8, payload_len: usize) {
        self.record_many(kind, 1, payload_len);
    }

    pub(super) fn record_many(&mut self, kind: u8, frames: u64, payload_len: usize) {
        debug_assert!((K_HELLO..=K_ASSIGN).contains(&kind));
        let c = &mut self.counts[(kind - 1) as usize];
        c.0 += frames;
        c.1 += frames * (FRAME_HEADER_BYTES + payload_len) as u64;
    }

    pub(super) fn merge(&mut self, other: &WireCensus) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    pub(super) fn to_stats(self) -> Vec<WireStats> {
        let mut out = Vec::new();
        for (idx, &(frames, bytes)) in self.counts.iter().enumerate() {
            if frames > 0 {
                out.push(WireStats {
                    kind: FRAME_KIND_NAMES[idx],
                    frames,
                    bytes,
                });
            }
        }
        out
    }
}

/// Wire bytes of the TILE frame that ships tile `(i, j)` in the format
/// `meta` declares for it: frame header, coordinates, then the
/// [`xgs_tile::wire`] body at the tile's storage precision (low-rank
/// tiles ship `U`/`V` at the TLR compute precision, rank capped at the
/// tile's short dimension). Exact for static formats; for TLR tiles it is
/// the pre-factorization estimate, since ranks drift as the trailing
/// update recompresses.
pub fn tile_wire_frame_bytes(
    meta: &dyn TileMetaSource,
    rows: usize,
    cols: usize,
    i: usize,
    j: usize,
) -> u64 {
    let body = if meta.is_dense(i, j) {
        dense_payload_len(rows, cols, meta.precision(i, j))
    } else {
        let rank = meta.rank(i, j).min(rows.min(cols));
        low_rank_payload_len(rows, cols, rank, lr_precision(meta.precision(i, j)))
    };
    (FRAME_HEADER_BYTES + TILE_COORD_BYTES + body) as u64
}

/// Tally the element-format conversions one wire crossing performs:
/// encoding demotes the f64-emulated buffer to the tile's storage width,
/// decoding promotes it back. Both directions are exact (tile values are
/// pre-rounded through their format), but they are real conversions and
/// the runtime's global counters are the ledger the paper's
/// "convert on the fly" accounting reads. Counters are per-process: a
/// coordinator's report covers its own encodes/decodes, not a remote
/// worker's.
pub(super) fn count_wire_conversion(tile: &Tile, encode: bool) {
    let elems = wire_elements(tile) as u64;
    if encode {
        count_conversion(Precision::F64, tile.precision, elems);
    } else {
        count_conversion(tile.precision, Precision::F64, elems);
    }
}

/// `Err` with the mixed-version diagnostic unless `peer`'s version byte
/// is ours.
pub(super) fn check_version(peer: &str, me: &str, version: u8) -> Result<(), String> {
    if version == PROTO_VERSION {
        return Ok(());
    }
    Err(format!(
        "{peer} speaks protocol version {version}, this {me} requires {PROTO_VERSION}; \
         upgrade the older binary"
    ))
}

/// Decode a task kind byte once, so every later dispatch is an
/// exhaustive match on [`Kernel`] (the `frame-kind-exhaustive` lint rule).
fn kernel_from_wire(kind: u8) -> Result<Kernel, FrameError> {
    Kernel::from_wire(kind).ok_or(FrameError::Malformed("unknown task kind"))
}

/// What a worker needs from `HELLO`. The grid fields (`worker_id, p, q,
/// nt, n`) must be present but are informational: a worker has no view
/// of the DAG.
pub(super) struct Hello {
    pub version: u8,
    pub nb: u32,
}

pub(super) fn encode_hello(worker: usize, layout: &TileLayout, p: usize, q: usize) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(PROTO_VERSION);
    w.put_u32(worker as u32);
    w.put_u32(p as u32);
    w.put_u32(q as u32);
    w.put_u32(layout.nt() as u32);
    w.put_u32(layout.tile_size() as u32);
    w.put_u64(layout.n() as u64);
    w.buf
}

pub(super) fn decode_hello(payload: &[u8]) -> Result<Hello, FrameError> {
    let mut r = WireReader::new(payload);
    let version = r.get_u8()?;
    let (_worker, _p, _q, _nt) = (r.get_u32()?, r.get_u32()?, r.get_u32()?, r.get_u32()?);
    let nb = r.get_u32()?;
    let _n = r.get_u64()?;
    Ok(Hello { version, nb })
}

/// Coordinates and [`xgs_tile::wire`] body of a TILE payload.
pub(super) fn decode_tile_header(payload: &[u8]) -> Result<((u32, u32), &[u8]), FrameError> {
    let mut r = WireReader::new(payload);
    let at = (r.get_u32()?, r.get_u32()?);
    let body = payload
        .get(TILE_COORD_BYTES..)
        .ok_or(FrameError::Malformed("short TILE frame"))?;
    Ok((at, body))
}

/// A TILE payload: coordinates, then `body` appends the tile encoding.
pub(super) fn encode_tile_frame(i: u32, j: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(i);
    w.put_u32(j);
    body(&mut w.buf);
    w.buf
}

pub(super) struct TaskFrame {
    pub id: u64,
    pub at: Task,
    pub tol: f64,
    pub publish: bool,
}

pub(super) fn encode_task(t: &TaskFrame) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(t.at.kind as u8);
    w.put_u64(t.id);
    w.put_u32(t.at.k);
    w.put_u32(t.at.i);
    w.put_u32(t.at.j);
    w.put_f64(t.tol);
    w.put_u8(t.publish as u8);
    w.buf
}

pub(super) fn decode_task(payload: &[u8]) -> Result<TaskFrame, FrameError> {
    let mut r = WireReader::new(payload);
    let kind = kernel_from_wire(r.get_u8()?)?;
    let id = r.get_u64()?;
    let (k, i, j) = (r.get_u32()?, r.get_u32()?, r.get_u32()?);
    Ok(TaskFrame {
        id,
        at: Task { kind, k, i, j },
        tol: r.get_f64()?,
        publish: r.get_u8()? != 0,
    })
}

pub(super) struct DoneFrame {
    pub task_id: u64,
    pub kind: Kernel,
    /// `false`: `POTRF` hit a non-positive pivot at tile-local `pivot`.
    pub ok: bool,
    pub pivot: u64,
    pub elapsed: f64,
}

pub(super) fn encode_done(d: &DoneFrame) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(d.task_id);
    w.put_u8(d.kind as u8);
    w.put_u8(d.ok as u8);
    w.put_u64(d.pivot);
    w.put_f64(d.elapsed);
    w.buf
}

pub(super) fn decode_done(payload: &[u8]) -> Result<DoneFrame, FrameError> {
    let mut r = WireReader::new(payload);
    Ok(DoneFrame {
        task_id: r.get_u64()?,
        kind: kernel_from_wire(r.get_u8()?)?,
        ok: r.get_u8()? != 0,
        pivot: r.get_u64()?,
        elapsed: r.get_f64()?,
    })
}

/// What a worker advertised in its `JOIN` frame.
#[derive(Clone, Copy, Debug)]
pub struct JoinInfo {
    pub version: u8,
    /// `xgs_runtime::logical_cores()` on the worker's host.
    pub cores: u32,
    /// Bit 0 = f64, bit 1 = f32, bit 2 = f16.
    pub precisions: u8,
}

pub(super) fn encode_join(info: &JoinInfo) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(info.version);
    w.put_u32(info.cores);
    w.put_u8(info.precisions);
    w.buf
}

pub(super) fn decode_join(payload: &[u8]) -> Result<JoinInfo, FrameError> {
    let mut r = WireReader::new(payload);
    Ok(JoinInfo {
        version: r.get_u8()?,
        cores: r.get_u32()?,
        precisions: r.get_u8()?,
    })
}

/// `ASSIGN` as the worker reads it; the trailing active/standby role byte
/// must be present but a worker behaves the same in either role.
pub(super) struct Assign {
    pub version: u8,
    pub member: u32,
}

pub(super) fn encode_assign(member: u32, standby: bool) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(PROTO_VERSION);
    w.put_u32(member);
    w.put_u8(standby as u8);
    w.buf
}

pub(super) fn decode_assign(payload: &[u8]) -> Result<Assign, FrameError> {
    let mut r = WireReader::new(payload);
    let (version, member, _role) = (r.get_u8()?, r.get_u32()?, r.get_u8()?);
    Ok(Assign { version, member })
}

/// `HEARTBEAT`: the ping carries a nonce; the echo repeats it and appends
/// the tasks executed since the last `HELLO`.
pub(super) fn encode_heartbeat(nonce: u64, executed: Option<u64>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(nonce);
    if let Some(tasks) = executed {
        w.put_u64(tasks);
    }
    w.buf
}

/// Decode a `HEARTBEAT` as `(nonce, tasks_executed)`; a ping is the
/// 8-byte prefix of an echo and carries no count.
pub(super) fn decode_heartbeat(payload: &[u8]) -> Result<(u64, Option<u64>), FrameError> {
    let mut r = WireReader::new(payload);
    Ok((r.get_u64()?, r.get_u64().ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encoders_round_trip_at_the_declared_sizes() {
        let layout = TileLayout::new(200, 64);
        let hello = encode_hello(3, &layout, 2, 2);
        assert_eq!(hello.len(), HELLO_PAYLOAD_BYTES);
        let h = decode_hello(&hello).unwrap();
        assert_eq!((h.version, h.nb), (PROTO_VERSION, 64));

        let at = Task {
            kind: Kernel::Gemm,
            k: 1,
            i: 3,
            j: 2,
        };
        let task = encode_task(&TaskFrame {
            id: 17,
            at,
            tol: 1e-8,
            publish: true,
        });
        assert_eq!(task.len(), TASK_PAYLOAD_BYTES);
        let t = decode_task(&task).unwrap();
        assert_eq!((t.id, t.at, t.tol, t.publish), (17, at, 1e-8, true));
        // The kind byte is the `Kernel` discriminant: 0-3, nothing else.
        for (byte, kind) in Kernel::ALL.into_iter().enumerate() {
            let mut frame = encode_task(&TaskFrame {
                id: 17,
                at: Task { kind, ..at },
                tol: 1e-8,
                publish: true,
            });
            assert_eq!(frame[0], byte as u8);
            assert_eq!(decode_task(&frame).unwrap().at.kind, kind);
            frame[0] = 4;
            assert!(matches!(
                decode_task(&frame),
                Err(FrameError::Malformed("unknown task kind"))
            ));
        }

        let done = encode_done(&DoneFrame {
            task_id: 17,
            kind: Kernel::Potrf,
            ok: false,
            pivot: 5,
            elapsed: 0.25,
        });
        assert_eq!(done.len(), DONE_PAYLOAD_BYTES);
        let d = decode_done(&done).unwrap();
        assert_eq!((d.task_id, d.kind, d.ok), (17, Kernel::Potrf, false));
        assert_eq!((d.pivot, d.elapsed), (5, 0.25));

        let a = decode_assign(&encode_assign(9, true)).unwrap();
        assert_eq!((a.version, a.member), (PROTO_VERSION, 9));

        let ping = encode_heartbeat(7, None);
        assert_eq!(ping.len(), HEARTBEAT_PING_BYTES);
        assert_eq!(decode_heartbeat(&ping).unwrap(), (7, None));
        let echo = encode_heartbeat(7, Some(42));
        assert_eq!(echo.len(), HEARTBEAT_ECHO_BYTES);
        assert_eq!(decode_heartbeat(&echo).unwrap(), (7, Some(42)));
        assert!(decode_heartbeat(&echo[..4]).is_err(), "short nonce");

        let tile = encode_tile_frame(4, 2, |buf| buf.extend_from_slice(b"body"));
        assert_eq!(decode_tile_header(&tile).unwrap(), ((4, 2), &b"body"[..]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Totality over hostile bytes: every decoder returns `Err` or a
        // value for any payload of any length, and a payload that
        // decodes keeps decoding when future fields are appended.
        #[test]
        fn decoders_are_total_and_ignore_trailing_bytes(
            bytes in proptest::collection::vec(0u32..256, 40),
            len in 0usize..41,
        ) {
            let payload: Vec<u8> = bytes[..len].iter().map(|&b| b as u8).collect();
            let mut grown = payload.clone();
            grown.extend_from_slice(&[0xA5; 11]);
            macro_rules! total {
                ($($decode:ident),*) => {$(
                    if $decode(&payload).is_ok() {
                        prop_assert!($decode(&grown).is_ok(), "{} rejects growth", stringify!($decode));
                    }
                )*};
            }
            total!(decode_hello, decode_tile_header, decode_task, decode_done,
                   decode_join, decode_assign, decode_heartbeat);
        }
    }
}
