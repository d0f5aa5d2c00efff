//! Worker side of the protocol: the registration handshake (both ends,
//! so the two cannot drift) and the loop that serves one coordinator
//! connection.

use super::proto::{
    check_version, count_wire_conversion, decode_assign, decode_heartbeat, decode_hello,
    decode_join, decode_task, decode_tile_header, encode_assign, encode_done, encode_heartbeat,
    encode_join, encode_tile_frame, DoneFrame, JoinInfo, K_ASSIGN, K_DONE, K_HEARTBEAT, K_HELLO,
    K_JOIN, K_TASK, K_TILE, PROTO_VERSION,
};
use super::ShardError;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::process::Command;
use std::time::{Duration, Instant};
use xgs_runtime::shard::{read_frame, write_frame, FrameError};
use xgs_tile::wire::{decode_tile, encode_tile};
use xgs_tile::Tile;

fn proto_err(what: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// How a chaos-injected worker dies (fault-matrix tests and the CI chaos
/// smoke). The spec targets one fleet member by its `ASSIGN`ed id, so a
/// whole fleet can inherit the same environment variable and still lose
/// exactly one deterministic worker — respawned replacements get fresh
/// member ids and never re-trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Fleet member id (`ASSIGN` payload) the spec targets.
    pub member: u32,
    /// When to die.
    pub trigger: ChaosTrigger,
    /// Die by `SIGKILL` (out-of-process workers) or by silently dropping
    /// the connection (in-process worker threads, which must not take the
    /// test process down with them).
    pub disconnect: bool,
}

/// When a [`ChaosSpec`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosTrigger {
    /// On receipt of the `n`-th `TASK` frame (0-based), before executing
    /// it: `TaskStart(0)` dies while the coordinator is still seeding its
    /// first panel, a mid-range value dies mid-panel.
    TaskStart(u64),
    /// On the first `HEARTBEAT`, i.e. the end-of-run census ping when the
    /// monitor is quiet: every task is done, the coordinator is gathering
    /// — the departed-worker path, no replay needed.
    Drain,
}

impl ChaosSpec {
    /// Parse the `XGS_CHAOS_ABORT` format: `member=M,tasks=N` (die on
    /// receipt of the N-th TASK) or `member=M,on=drain`.
    pub fn parse(spec: &str) -> Option<ChaosSpec> {
        let mut member = None;
        let mut trigger = None;
        for part in spec.split(',') {
            let (key, val) = part.trim().split_once('=')?;
            match (key.trim(), val.trim()) {
                ("member", v) => member = v.parse::<u32>().ok(),
                ("tasks", v) => trigger = Some(ChaosTrigger::TaskStart(v.parse().ok()?)),
                ("on", "drain") => trigger = Some(ChaosTrigger::Drain),
                _other => return None,
            }
        }
        Some(ChaosSpec {
            member: member?,
            trigger: trigger?,
            disconnect: false,
        })
    }

    /// Die now. Returns only for `disconnect` specs, whose caller then
    /// drops the connection.
    fn fire(&self) {
        if self.disconnect {
            return;
        }
        // A real SIGKILL — the abrupt death the fault matrix specifies —
        // delivered by the only route std offers; abort() is the fallback
        // and is just as unannounced at the protocol level.
        let pid = std::process::id().to_string();
        let _ = Command::new("kill").args(["-KILL", &pid]).status();
        std::process::abort();
    }
}

/// Knobs of [`worker_loop_with`]; [`Default`] is what `worker --connect`
/// uses unless flags override it.
#[derive(Clone, Copy, Debug)]
pub struct WorkerOptions {
    /// How long to wait for the supervisor's `ASSIGN` after sending
    /// `JOIN`. A coordinator that never acknowledges must not wedge the
    /// worker forever on a fresh socket: expiry is an error the CLI turns
    /// into a nonzero exit with a diagnostic.
    pub handshake_timeout: Duration,
    /// Per-frame stall budget of the main loop. Warm fleets heartbeat
    /// idle members well inside this, so expiry means the supervisor is
    /// gone or wedged. `None` blocks forever (in-process test workers).
    pub idle_timeout: Option<Duration>,
    /// Fault injection, `None` in production.
    pub chaos: Option<ChaosSpec>,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            handshake_timeout: Duration::from_secs(30),
            idle_timeout: Some(Duration::from_secs(300)),
            chaos: None,
        }
    }
}

/// Serve one coordinator connection: register (`JOIN` → `ASSIGN`), then
/// receive owned tiles, execute assigned tasks, publish written tiles when
/// asked, and echo `HEARTBEAT` probes (liveness between runs, the
/// executed-task census at the end of one) until the coordinator closes
/// the connection. Returns the number of tasks executed since the last
/// `HELLO`.
///
/// The worker is deliberately dumb: it has no view of the DAG and trusts
/// the coordinator's stream order for operand availability — which the
/// coordinator guarantees by forwarding operands before dependent tasks on
/// the same FIFO stream.
pub fn worker_loop_with(mut stream: TcpStream, opts: WorkerOptions) -> io::Result<u64> {
    let _ = stream.set_nodelay(true);

    // Registration: advertise capabilities, wait (bounded) for the grid
    // assignment. A supervisor that never answers is an error, not a hang.
    let join = JoinInfo {
        version: PROTO_VERSION,
        cores: xgs_runtime::logical_cores() as u32,
        // Every build of this binary supports all three emulated widths.
        precisions: 0b111,
    };
    write_frame(&mut stream, K_JOIN, &encode_join(&join))?;
    let member_id = match read_frame(&mut stream, Some(opts.handshake_timeout), None) {
        Ok((K_ASSIGN, payload)) => {
            let assign = decode_assign(&payload).map_err(proto_err)?;
            check_version("supervisor", "worker", assign.version).map_err(proto_err)?;
            assign.member
        }
        Ok((other, _)) => {
            return Err(proto_err(format!(
                "expected ASSIGN to acknowledge JOIN, got frame kind {other}"
            )))
        }
        Err(FrameError::Stalled) => {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "no JOIN acknowledgement within {:?}; supervisor unreachable or wedged",
                    opts.handshake_timeout
                ),
            ))
        }
        Err(e) => return Err(io::Error::other(e.to_string())),
    };
    let chaos = opts.chaos.filter(|c| c.member == member_id);

    let mut store: HashMap<(u32, u32), Tile> = HashMap::new();
    let mut nb: usize = 0;
    let mut executed: u64 = 0;
    // Lifetime task counter: chaos triggers count across `HELLO` resets so
    // a spec fires at most once per process even in multi-run fleets.
    let mut lifetime_executed: u64 = 0;
    loop {
        let (kind, payload) = match read_frame(&mut stream, opts.idle_timeout, None) {
            Ok(f) => f,
            // Coordinator vanished: exit quietly, nothing to clean up.
            Err(FrameError::Closed) => return Ok(executed),
            Err(FrameError::Stalled) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "no frame within {:?}; supervisor heartbeats have stopped",
                        opts.idle_timeout.unwrap_or_default()
                    ),
                ))
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        match kind {
            K_HELLO => {
                let hello = decode_hello(&payload).map_err(proto_err)?;
                check_version("coordinator", "worker", hello.version).map_err(proto_err)?;
                nb = hello.nb as usize;
                store.clear();
                executed = 0;
            }
            K_TILE => {
                let (at, body) = decode_tile_header(&payload).map_err(proto_err)?;
                let tile = decode_tile(body).map_err(proto_err)?;
                count_wire_conversion(&tile, false);
                store.insert(at, tile);
            }
            K_TASK => {
                if nb == 0 {
                    return Err(proto_err("TASK before HELLO"));
                }
                let now = ChaosTrigger::TaskStart(lifetime_executed);
                if let Some(c) = chaos.filter(|c| c.trigger == now) {
                    c.fire();
                    return Ok(executed);
                }
                let task = decode_task(&payload).map_err(proto_err)?;
                let (at, written) = (task.at, task.at.written());
                let mut target = store
                    .remove(&written)
                    .ok_or_else(|| proto_err("task targets a tile this worker does not hold"))?;
                let operands = at
                    .reads()
                    .map(|key| {
                        store
                            .get(&key)
                            .ok_or_else(|| proto_err("task operand missing from worker store"))
                    })
                    .collect::<io::Result<Vec<&Tile>>>()?;

                let t0 = Instant::now();
                let mut done = DoneFrame {
                    task_id: task.id,
                    kind: at.kind,
                    ok: true,
                    pivot: 0,
                    elapsed: 0.0,
                };
                if let Err(e) = at.run(&mut target, &operands, task.tol) {
                    done.ok = false;
                    done.pivot = e.pivot as u64;
                }
                done.elapsed = t0.elapsed().as_secs_f64();

                if task.publish && done.ok {
                    let frame = encode_tile_frame(written.0, written.1, |buf| {
                        encode_tile(&target, buf);
                    });
                    count_wire_conversion(&target, true);
                    write_frame(&mut stream, K_TILE, &frame)?;
                }
                store.insert(written, target);
                executed += 1;
                write_frame(&mut stream, K_DONE, &encode_done(&done))?;
                lifetime_executed += 1;
            }
            K_HEARTBEAT => {
                if let Some(c) = chaos.filter(|c| c.trigger == ChaosTrigger::Drain) {
                    c.fire();
                    return Ok(executed);
                }
                let (nonce, _) = decode_heartbeat(&payload).map_err(proto_err)?;
                let echo = encode_heartbeat(nonce, Some(executed));
                write_frame(&mut stream, K_HEARTBEAT, &echo)?;
            }
            K_JOIN | K_ASSIGN => {
                return Err(proto_err(
                    "registration frame after the handshake already completed",
                ))
            }
            other => return Err(proto_err(format!("unexpected frame kind {other}"))),
        }
    }
}

/// Supervisor side of the registration handshake: read the worker's
/// `JOIN` (bounded by `deadline`), verify the protocol version, and
/// answer with an `ASSIGN` carrying `member_id` and the standby/active
/// role. Every acceptor admits connections through here, so the
/// handshake cannot drift between entry points.
pub fn admit_worker(
    stream: &mut TcpStream,
    member_id: u32,
    standby: bool,
    deadline: Duration,
) -> Result<JoinInfo, ShardError> {
    let info = match read_frame(stream, Some(deadline), None) {
        Ok((K_JOIN, payload)) => {
            let info = decode_join(&payload)
                .map_err(|e| ShardError::Protocol(format!("bad JOIN frame: {e}")))?;
            check_version("worker", "supervisor", info.version).map_err(ShardError::Protocol)?;
            info
        }
        Ok((other, _)) => {
            return Err(ShardError::Protocol(format!(
                "expected JOIN as a dialing worker's first frame, got kind {other}"
            )))
        }
        Err(FrameError::Stalled) => {
            return Err(ShardError::Spawn(format!(
                "worker sent no JOIN within {deadline:?}"
            )))
        }
        Err(e) => return Err(ShardError::Spawn(format!("JOIN read failed: {e}"))),
    };
    write_frame(stream, K_ASSIGN, &encode_assign(member_id, standby))
        .map_err(|e| ShardError::Spawn(format!("ASSIGN write failed: {e}")))?;
    Ok(info)
}
