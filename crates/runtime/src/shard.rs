//! Length-prefixed binary framing for the multi-process sharded backend.
//!
//! The paper's distributed runs move tiles between node-owners over the
//! network; our sharded tile Cholesky does the same over loopback TCP. This
//! module owns the transport-level concerns, independent of what the frames
//! carry: a bounded length-prefixed frame format (the binary sibling of the
//! server crate's bounded line reader — a peer can never make us buffer
//! unboundedly, and a half-written frame is detected, not waited on
//! forever), little-endian field encode/decode helpers, and the ownership
//! census used to prove no DAG task is orphaned or double-owned.
//!
//! Wire format of one frame:
//!
//! ```text
//! [u32 LE payload length][u8 frame kind][payload bytes]
//! ```
//!
//! The payload length excludes the 5-byte header and is capped at
//! [`MAX_FRAME_BYTES`]; a peer announcing more is a protocol error and the
//! connection is dropped. Frame kinds are defined by the layer above
//! (`xgs-cholesky::shard`); this module treats them as opaque.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard cap on a frame payload. Tiles are `nb x nb` FP64 buffers; 64 MiB
/// covers tiles up to ~2896², far beyond any tile size the tile planner
/// emits, while bounding what a misbehaving peer can make us allocate.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Bytes of the fixed frame header preceding every payload. Byte censuses
/// (planned or measured) count full frames, i.e. header plus payload.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Poll interval for interruptible reads: how long a blocked read waits
/// before re-checking the stop flag (mirrors the server's `READ_POLL`).
pub const READ_POLL: Duration = Duration::from_millis(50);

/// Transport-level failure reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary (peer closed in an orderly way).
    Closed,
    /// EOF in the middle of a frame: the peer died mid-write.
    Truncated { expected: usize, got: usize },
    /// Peer announced a payload larger than [`MAX_FRAME_BYTES`].
    TooLarge { len: usize },
    /// No bytes arrived within the caller's stall timeout while a frame
    /// was expected or partially read.
    Stalled,
    /// The caller raised the stop flag while a read was in progress.
    Stopped,
    /// Structurally invalid payload (bad tag, short buffer, ...).
    Malformed(&'static str),
    /// Underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: got {got} of {expected} bytes")
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::Stalled => f.write_str("peer stalled mid-frame"),
            FrameError::Stopped => f.write_str("read interrupted by stop flag"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write one frame (header + payload) and flush.
///
/// Race model: a successful send is a release on the per-kind frame
/// channel — everything the sender did before the frame happens-before
/// whatever a receiver of the same kind does after reading one. The
/// channel is coarse (keyed by kind, not by stream), so it can only *add*
/// happens-before edges, never invent a race; and it is process-local, so
/// frames crossing to a real peer process simply leave the model.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = kind;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    crate::race::release(crate::race::SPACE_FRAME, 0, kind as u64);
    Ok(())
}

/// Fill `buf` from the stream, polling every [`READ_POLL`] so the read can
/// be interrupted. `eof_ok_at_start`: a clean EOF before the first byte is
/// reported as [`FrameError::Closed`] instead of `Truncated`.
///
/// * `stall` — give up if no byte arrives for this long (`None` = wait
///   forever; the peer legitimately idles between messages).
/// * `stop` — abandon the read when this flag rises (the frame position is
///   lost; callers drop the connection afterwards).
///
/// The stream's read timeout is set to [`READ_POLL`] for the duration of
/// the call (and is how the polling works); callers should not rely on
/// their own read-timeout setting surviving.
fn read_exact_polled(
    stream: &mut TcpStream,
    buf: &mut [u8],
    eof_ok_at_start: bool,
    stall: Option<Duration>,
    stop: Option<&AtomicBool>,
) -> Result<(), FrameError> {
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut filled = 0usize;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok_at_start {
                    return Err(FrameError::Closed);
                }
                return Err(FrameError::Truncated {
                    expected: buf.len(),
                    got: filled,
                });
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if let Some(flag) = stop {
                    if flag.load(Ordering::Acquire) {
                        return Err(FrameError::Stopped);
                    }
                }
                if let Some(limit) = stall {
                    if last_progress.elapsed() >= limit {
                        return Err(FrameError::Stalled);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame, returning `(kind, payload)`.
///
/// A clean close at a frame boundary is [`FrameError::Closed`]; a close or
/// stall mid-frame is an error carrying how far the frame got — exactly the
/// bounded-reader discipline of the JSON server, transplanted to binary.
pub fn read_frame(
    stream: &mut TcpStream,
    stall: Option<Duration>,
    stop: Option<&AtomicBool>,
) -> Result<(u8, Vec<u8>), FrameError> {
    let mut header = [0u8; 5];
    read_exact_polled(stream, &mut header, true, stall, stop)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { len });
    }
    let mut payload = vec![0u8; len];
    read_exact_polled(stream, &mut payload, false, stall, stop)?;
    // Acquire half of the per-kind frame channel (see `write_frame`).
    crate::race::acquire(crate::race::SPACE_FRAME, 0, header[4] as u64);
    Ok((header[4], payload))
}

/// Little-endian payload builder.
#[derive(Default)]
pub struct WireWriter {
    pub buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Exact bit pattern — the transport must never perturb tile values,
    /// the equivalence suite asserts factors bitwise.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Little-endian payload cursor; every getter fails cleanly on truncation
/// instead of panicking (payloads come off the wire).
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::Malformed("payload shorter than declared"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn get_f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Per-worker task counts for a DAG whose tasks are owned by
/// `owners` (one entry per task). Panics if an owner is out of range —
/// an out-of-range owner *is* an orphaned task.
pub fn task_census(owners: impl IntoIterator<Item = usize>, workers: usize) -> Vec<u64> {
    let mut census = vec![0u64; workers];
    for o in owners {
        census[o] += 1;
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn frame_round_trips_over_loopback() {
        let (mut tx, mut rx) = pair();
        write_frame(&mut tx, 7, b"hello tiles").unwrap();
        write_frame(&mut tx, 0, b"").unwrap();
        let (kind, payload) = read_frame(&mut rx, Some(Duration::from_secs(2)), None).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello tiles");
        let (kind, payload) = read_frame(&mut rx, Some(Duration::from_secs(2)), None).unwrap();
        assert_eq!(kind, 0);
        assert!(payload.is_empty());
    }

    #[test]
    fn clean_close_is_closed_mid_frame_is_truncated() {
        let (tx, mut rx) = pair();
        drop(tx);
        assert!(matches!(
            read_frame(&mut rx, Some(Duration::from_secs(2)), None),
            Err(FrameError::Closed)
        ));

        let (mut tx, mut rx) = pair();
        // Header promising 100 bytes, then only 3 before the close.
        let mut partial = Vec::new();
        partial.extend_from_slice(&100u32.to_le_bytes());
        partial.push(2);
        partial.extend_from_slice(b"abc");
        tx.write_all(&partial).unwrap();
        drop(tx);
        match read_frame(&mut rx, Some(Duration::from_secs(2)), None) {
            Err(FrameError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (100, 3));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let (mut tx, mut rx) = pair();
        let mut header = Vec::new();
        header.extend_from_slice(&(u32::MAX).to_le_bytes());
        header.push(1);
        tx.write_all(&header).unwrap();
        match read_frame(&mut rx, Some(Duration::from_secs(2)), None) {
            Err(FrameError::TooLarge { len }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn stalled_peer_times_out_instead_of_hanging() {
        let (mut tx, mut rx) = pair();
        // Half a header, then silence.
        tx.write_all(&[1, 0]).unwrap();
        let t0 = Instant::now();
        match read_frame(&mut rx, Some(Duration::from_millis(200)), None) {
            Err(FrameError::Stalled) => {}
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(tx);
    }

    #[test]
    fn stop_flag_interrupts_a_blocked_read() {
        let (tx, mut rx) = pair();
        let flag = std::sync::Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            f2.store(true, Ordering::Release);
        });
        match read_frame(&mut rx, None, Some(&flag)) {
            Err(FrameError::Stopped) => {}
            other => panic!("expected Stopped, got {other:?}"),
        }
        killer.join().unwrap();
        drop(tx);
    }

    #[test]
    fn wire_fields_round_trip_bitwise() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        for v in [1.5, -2.25, 3.125] {
            w.put_f64(v);
        }
        let mut r = WireReader::new(&w.buf);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        for v in [1.5, -2.25, 3.125] {
            assert_eq!(r.get_f64().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u8(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn truncated_payload_errors_cleanly() {
        let mut w = WireWriter::new();
        w.put_u32(5);
        let mut r = WireReader::new(&w.buf);
        assert!(r.get_u64().is_err());
        let mut r = WireReader::new(&w.buf);
        assert!(r.get_f64().is_err());
    }

    #[test]
    fn census_counts_every_task_once() {
        let owners = [0usize, 1, 1, 3, 0, 0];
        let census = task_census(owners, 4);
        assert_eq!(census, vec![3, 2, 0, 1]);
        assert_eq!(census.iter().sum::<u64>(), 6);
    }
}
