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
//!
//! Frames move in batches. A sender queues them in an [`Outbox`] and
//! writes the whole queue with one `write_all`; a receiver reads through a
//! [`FrameReader`], which takes as many frames as one `read` returns and
//! hands them out one at a time. A read blocks for at most the stall
//! budget its caller sets as the socket's read timeout
//! ([`set_stall_timeout`]); there is no polling and no stop flag, so a
//! reader that must end does so when its peer's last frame arrives or its
//! socket is shut down.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on a frame payload. Tiles are `nb x nb` FP64 buffers; 64 MiB
/// covers tiles up to ~2896², far beyond any tile size the tile planner
/// emits, while bounding what a misbehaving peer can make us allocate.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Bytes of the fixed frame header preceding every payload. Byte censuses
/// (planned or measured) count full frames, i.e. header plus payload.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Queued bytes at which a sender writes its [`Outbox`] out without
/// waiting for its next flush point, and the size of a [`FrameReader`]'s
/// buffer.
pub const BATCH_BYTES: usize = 1 << 16;

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

/// Frames queued for one peer, written out together by [`Outbox::flush_to`].
///
/// Race model: queueing a frame is a release on the per-kind frame
/// channel — everything the sender did before it happens-before whatever
/// a receiver of the same kind does after reading one. The channel is
/// coarse (keyed by kind, not by stream), so it can only *add*
/// happens-before edges, never invent a race; and it is process-local, so
/// frames crossing to a real peer process simply leave the model.
#[derive(Debug, Default)]
pub struct Outbox {
    buf: Vec<u8>,
}

impl Outbox {
    /// Queue one frame (header + payload).
    pub fn push(&mut self, kind: u8, payload: &[u8]) {
        debug_assert!(payload.len() <= MAX_FRAME_BYTES);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.push(kind);
        self.buf.extend_from_slice(payload);
        crate::race::release(crate::race::SPACE_FRAME, 0, kind as u64);
    }

    /// Bytes queued.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write every queued frame with one `write_all`. The outbox is empty
    /// afterwards whether or not the write succeeded: frames to a peer
    /// whose socket failed are not retried.
    pub fn flush_to(&mut self, w: &mut impl Write) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let result = w.write_all(&self.buf).and_then(|()| w.flush());
        self.buf.clear();
        result
    }

    /// Drop every queued frame unsent.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Write one frame now (header and payload in one write).
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut out = Outbox::default();
    out.push(kind, payload);
    out.flush_to(w)
}

/// Make every later read on `stream` (and its clones: the timeout belongs
/// to the socket) fail with [`FrameError::Stalled`] once no byte has
/// arrived for `stall`; `None` waits forever (the peer legitimately idles
/// between messages).
pub fn set_stall_timeout(stream: &TcpStream, stall: Option<Duration>) -> std::io::Result<()> {
    // A zero timeout means "none" to the socket layer: clamp it to the
    // shortest real one instead.
    stream.set_read_timeout(stall.map(|d| d.max(Duration::from_millis(1))))
}

/// Buffered frame reader: each `read` takes whatever the socket has, up to
/// [`BATCH_BYTES`], so a burst of small frames costs one syscall, and
/// [`FrameReader::read_frame`] hands the frames out one at a time. A
/// payload larger than the buffer is read straight into its own
/// allocation. The announced length is checked against
/// [`MAX_FRAME_BYTES`] before anything is allocated for it.
///
/// Bytes the reader has taken from the socket but not yet returned are
/// lost when it is dropped: one reader serves a connection for as long as
/// the peer may send, or is dropped only after the peer's last frame
/// ([`FrameReader::buffered`] reads 0 then).
pub struct FrameReader<R> {
    inner: R,
    /// Bytes `start..end` are read but not yet returned.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_capacity(inner, BATCH_BYTES)
    }

    /// A reader whose buffer holds `capacity` bytes (at least a header).
    /// With exactly [`FRAME_HEADER_BYTES`] it never reads past the frame
    /// it returns.
    fn with_capacity(inner: R, capacity: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0; capacity.max(FRAME_HEADER_BYTES)],
            start: 0,
            end: 0,
        }
    }

    /// Bytes taken from the peer but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Whether a whole frame is buffered, so the next
    /// [`read_frame`](FrameReader::read_frame) returns without reading.
    pub fn frame_ready(&self) -> bool {
        self.header()
            .is_some_and(|(len, _)| self.buffered() >= FRAME_HEADER_BYTES + len)
    }

    /// Payload length and kind of the buffered header, if a whole one is
    /// buffered.
    fn header(&self) -> Option<(usize, u8)> {
        let h = self
            .buf
            .get(self.start..self.end)?
            .get(..FRAME_HEADER_BYTES)?;
        Some((u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize, h[4]))
    }

    /// One `read` into `dst`: `Ok(0)` is EOF.
    fn read_some(inner: &mut R, dst: &mut [u8]) -> Result<usize, FrameError> {
        loop {
            match inner.read(dst) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(stalled_or_io(e)),
            }
        }
    }

    /// Read until at least `want` bytes are buffered; `want` fits the
    /// buffer. EOF is [`FrameError::Closed`] when nothing is buffered
    /// and `frame_bytes` (what the frame in progress needs past the
    /// header, if its header is in) is `None`; otherwise the frame is
    /// truncated.
    fn fill(&mut self, want: usize, frame_bytes: Option<usize>) -> Result<(), FrameError> {
        debug_assert!(want <= self.buf.len());
        if self.buf.len() - self.start < want {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        while self.buffered() < want {
            match Self::read_some(&mut self.inner, &mut self.buf[self.end..])? {
                0 => {
                    let got = self.buffered();
                    return Err(match frame_bytes {
                        None if got == 0 => FrameError::Closed,
                        None => FrameError::Truncated {
                            expected: FRAME_HEADER_BYTES,
                            got,
                        },
                        Some(expected) => FrameError::Truncated {
                            expected,
                            got: got - FRAME_HEADER_BYTES,
                        },
                    });
                }
                n => self.end += n,
            }
        }
        Ok(())
    }

    /// Read one frame, returning `(kind, payload)`.
    ///
    /// A clean close at a frame boundary is [`FrameError::Closed`]; a close
    /// or stall mid-frame is an error carrying how far the frame got —
    /// exactly the bounded-reader discipline of the JSON server,
    /// transplanted to binary.
    pub fn read_frame(&mut self) -> Result<(u8, Vec<u8>), FrameError> {
        self.fill(FRAME_HEADER_BYTES, None)?;
        let (len, kind) = self
            .header()
            .ok_or(FrameError::Malformed("frame header not buffered"))?;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge { len });
        }
        let payload = if FRAME_HEADER_BYTES + len <= self.buf.len() {
            self.fill(FRAME_HEADER_BYTES + len, Some(len))?;
            let at = self.start + FRAME_HEADER_BYTES;
            self.start = at + len;
            self.buf[at..at + len].to_vec()
        } else {
            // Larger than the buffer: take what is buffered, then read
            // the rest straight into the payload (never past it).
            let mut payload = Vec::with_capacity(len);
            payload.extend_from_slice(&self.buf[self.start + FRAME_HEADER_BYTES..self.end]);
            self.start = self.end;
            let mut rest = (&mut self.inner).take((len - payload.len()) as u64);
            // xgs-lint: allow(bounded-read-only): take() caps it at the announced length, itself capped by MAX_FRAME_BYTES above
            rest.read_to_end(&mut payload).map_err(stalled_or_io)?;
            if payload.len() < len {
                let got = payload.len();
                return Err(FrameError::Truncated { expected: len, got });
            }
            payload
        };
        // Acquire half of the per-kind frame channel (see [`Outbox`]).
        crate::race::acquire(crate::race::SPACE_FRAME, 0, kind as u64);
        Ok((kind, payload))
    }
}

/// A read timeout is the peer stalling; anything else is a socket error.
fn stalled_or_io(e: std::io::Error) -> FrameError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        FrameError::Stalled
    } else {
        FrameError::Io(e)
    }
}

/// Read exactly one frame from `stream`, never past it, with `stall` as
/// the socket's read timeout ([`set_stall_timeout`]). For one-off
/// exchanges (handshake, liveness probe) on a connection no
/// [`FrameReader`] serves at the time.
pub fn read_frame(
    stream: &mut TcpStream,
    stall: Option<Duration>,
) -> Result<(u8, Vec<u8>), FrameError> {
    set_stall_timeout(stream, stall)?;
    FrameReader::with_capacity(stream, FRAME_HEADER_BYTES).read_frame()
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
    use std::time::Instant;

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
        let (kind, payload) = read_frame(&mut rx, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello tiles");
        let (kind, payload) = read_frame(&mut rx, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(kind, 0);
        assert!(payload.is_empty());
    }

    #[test]
    fn clean_close_is_closed_mid_frame_is_truncated() {
        let (tx, mut rx) = pair();
        drop(tx);
        assert!(matches!(
            read_frame(&mut rx, Some(Duration::from_secs(2))),
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
        match read_frame(&mut rx, Some(Duration::from_secs(2))) {
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
        match read_frame(&mut rx, Some(Duration::from_secs(2))) {
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
        match read_frame(&mut rx, Some(Duration::from_millis(200))) {
            Err(FrameError::Stalled) => {}
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
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
