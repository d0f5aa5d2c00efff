//! Dynamic happens-before race checker: vector clocks over the runtime's
//! *declared* synchronization edges.
//!
//! The static side of this PR (the `xgs-analysis` lock graph) proves lock
//! *acquisition order* sound; this module checks the complementary dynamic
//! property — that the synchronization edges the runtime claims to
//! establish actually cover every conflicting access it performs. Each
//! participating thread carries a vector clock; each declared edge
//! (dependency release in [`crate::exec`], batch inject/complete in the
//! `rayon` pool, frame send/receive in [`crate::shard`], completion-hub
//! push/drain in the server) joins clocks in the usual release/acquire
//! way; each declared access is checked against the clock of the last
//! conflicting access. A conflicting pair with no happens-before chain is
//! recorded as a [`Race`] and printed to stderr.
//!
//! The checker validates the **model**, not raw memory: it sees only the
//! edges the runtime declares, so a pair ordered by some undeclared
//! mechanism (an incidental mutex, say) can still be flagged. That is
//! deliberate — the declared-edge graph is the contract the executor's
//! observational-equivalence argument rests on, and an access pair relying
//! on incidental ordering is a bug in that contract even when the bytes
//! happen to be safe. The converse holds too: the checker never invents an
//! edge, so a *missing* declared edge (see the mutation knob below) is
//! caught deterministically once the racing pair lands on two threads.
//!
//! On/off: enabled by default under `debug_assertions` (every `cargo
//! test` execution is checked); opt-in for release builds with `XGS_RACE=1`
//! in the environment; [`set_enabled`] overrides both (used by
//! `exageostat paper validator-overhead` to measure the checker's cost).
//!
//! [`set_mutation_drop_completion_edge`] deliberately drops the pool's
//! chunk-completion edge so the integration test can prove the checker
//! actually fires — a checker only ever observed silent is indistinguishable
//! from one that checks nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Address spaces keying edges and cells, so independent subsystems can
/// never alias. Exec additionally scopes by run id, the pool by batch id.
pub const SPACE_EXEC: u8 = 1;
const SPACE_POOL_BATCH: u8 = 2;
const SPACE_POOL_CHUNK: u8 = 3;
const SPACE_POOL_DONE: u8 = 4;
/// Frame transport ([`crate::shard`]): one coarse channel per frame kind.
pub const SPACE_FRAME: u8 = 5;
/// Server completion hub: one edge per hub instance.
pub const SPACE_HUB: u8 = 6;

/// One detected happens-before violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Race {
    pub space: u8,
    pub scope: u64,
    pub addr: u64,
    /// `"write-write"`, `"read-write"`, or `"write-read"` (prior → new).
    pub kind: &'static str,
}

/// Sparse vector clock: thread slot → event count. Sparse because slots
/// are never recycled (scoped executor pools mint fresh threads per run).
type VClock = HashMap<u32, u64>;

fn join(into: &mut VClock, from: &VClock) {
    for (&slot, &tick) in from {
        let e = into.entry(slot).or_insert(0);
        if *e < tick {
            *e = tick;
        }
    }
}

/// Last conflicting accesses of one tracked cell. Epochs are `(slot,
/// tick)` pairs; `prior happens-before now` iff the current thread's clock
/// at `slot` has reached `tick`.
#[derive(Default)]
struct Cell {
    writer: Option<(u32, u64)>,
    readers: Vec<(u32, u64)>,
}

#[derive(Default)]
struct State {
    edges: HashMap<(u8, u64, u64), VClock>,
    cells: HashMap<(u8, u64, u64), Cell>,
    reports: Vec<Race>,
}

static STATE: OnceLock<Mutex<State>> = OnceLock::new();

/// Monotone count of races detected since process start (including ones
/// already drained by [`take_races`]).
static RACES: AtomicU64 = AtomicU64::new(0);

/// 0 = follow env/build default, 1 = forced off, 2 = forced on.
static FORCE: AtomicU8 = AtomicU8::new(0);

static MUTATION_DROP_COMPLETION: AtomicBool = AtomicBool::new(false);

static SCOPE_IDS: AtomicU64 = AtomicU64::new(1);
static SLOT_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct ThreadCtx {
    slot: u32,
    clock: VClock,
}

fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
    LOCAL.with(|cell| {
        let mut ctx = cell.borrow_mut();
        let ctx = ctx.get_or_insert_with(|| {
            let slot = SLOT_IDS.fetch_add(1, Ordering::Relaxed) as u32;
            // A thread's clock starts at 1 for its own component so every
            // recorded epoch is nonzero (an absent clock entry reads 0 and
            // therefore never dominates).
            let mut clock = VClock::new();
            clock.insert(slot, 1);
            ThreadCtx { slot, clock }
        });
        f(ctx)
    })
}

/// Whether the checker is active: [`set_enabled`] override first, then
/// `XGS_RACE` (any value other than empty/`0` enables, `0` disables), then
/// on-in-debug/off-in-release. Installs the pool hook on first true.
pub fn enabled() -> bool {
    let on = match FORCE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static ENV: OnceLock<bool> = OnceLock::new();
            *ENV.get_or_init(|| match std::env::var("XGS_RACE") {
                Ok(v) => !v.is_empty() && v != "0",
                Err(_) => cfg!(debug_assertions),
            })
        }
    };
    if on {
        install();
    }
    on
}

/// Force the checker on or off for this process (`None` restores the
/// env/build default). Used by benches to measure overhead in release.
pub fn set_enabled(force: Option<bool>) {
    FORCE.store(
        match force {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
        Ordering::Relaxed,
    );
    if force == Some(true) {
        install();
    }
}

/// Wire the checker into the pool's event stream (idempotent; first
/// enabling does it automatically). A batch injected before installation
/// is simply unobserved — absent information never reports.
pub fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let _ = rayon::set_pool_hook(pool_hook);
    });
}

/// **Test-only sabotage**: while on, the pool's chunk-completion release
/// edge is dropped from the model, so the caller's post-join read of the
/// chunk results has no happens-before chain from pool-run chunks. The
/// seeded-race integration test flips this to prove the checker fires.
pub fn set_mutation_drop_completion_edge(on: bool) {
    MUTATION_DROP_COMPLETION.store(on, Ordering::Relaxed);
}

/// Fresh scope id for namespacing one executor run's edges and cells.
pub fn new_scope() -> u64 {
    SCOPE_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Races detected since process start (monotone, survives [`take_races`]).
pub fn race_count() -> u64 {
    RACES.load(Ordering::Relaxed)
}

/// Drain the pending race reports (at most 64 are retained per drain).
pub fn take_races() -> Vec<Race> {
    std::mem::take(&mut lock_state().reports)
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    STATE
        .get_or_init(|| Mutex::new(State::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Release half of an edge: publish everything this thread has done so
/// far to whoever acquires `(space, scope, addr)` later.
pub fn release(space: u8, scope: u64, addr: u64) {
    if !enabled() {
        return;
    }
    with_ctx(|ctx| {
        let mut st = lock_state();
        join(
            st.edges.entry((space, scope, addr)).or_default(),
            &ctx.clock,
        );
        *ctx.clock.entry(ctx.slot).or_insert(1) += 1;
    });
}

/// Acquire half of an edge: inherit everything published through
/// `(space, scope, addr)` so far.
pub fn acquire(space: u8, scope: u64, addr: u64) {
    if !enabled() {
        return;
    }
    with_ctx(|ctx| {
        let st = lock_state();
        if let Some(obj) = st.edges.get(&(space, scope, addr)) {
            join(&mut ctx.clock, obj);
        }
    });
}

/// Declare a read of the cell `(space, scope, addr)`: the last writer (if
/// observed) must happen-before this thread.
pub fn read(space: u8, scope: u64, addr: u64) {
    if !enabled() {
        return;
    }
    access(space, scope, addr, false);
}

/// Declare a write of the cell: the last writer *and* every reader since
/// must happen-before this thread.
pub fn write(space: u8, scope: u64, addr: u64) {
    if !enabled() {
        return;
    }
    access(space, scope, addr, true);
}

fn access(space: u8, scope: u64, addr: u64, is_write: bool) {
    with_ctx(|ctx| {
        let mut st = lock_state();
        let cell = st.cells.entry((space, scope, addr)).or_default();
        let hb = |clock: &VClock, (slot, tick): (u32, u64)| {
            clock.get(&slot).copied().unwrap_or(0) >= tick
        };
        let mut racy: Option<&'static str> = None;
        if let Some(w) = cell.writer {
            if !hb(&ctx.clock, w) {
                racy = Some(if is_write {
                    "write-write"
                } else {
                    "write-read"
                });
            }
        }
        if is_write {
            if racy.is_none() {
                for &r in &cell.readers {
                    if !hb(&ctx.clock, r) {
                        racy = Some("read-write");
                        break;
                    }
                }
            }
            let epoch = (ctx.slot, ctx.clock[&ctx.slot]);
            cell.writer = Some(epoch);
            cell.readers.clear();
        } else {
            let epoch = (ctx.slot, ctx.clock[&ctx.slot]);
            cell.readers.retain(|&(s, _)| s != ctx.slot);
            cell.readers.push(epoch);
        }
        if let Some(kind) = racy {
            let race = Race {
                space,
                scope,
                addr,
                kind,
            };
            let total = RACES.fetch_add(1, Ordering::Relaxed);
            if st.reports.len() < 64 {
                st.reports.push(race);
            }
            if total < 8 {
                eprintln!(
                    "xgs-race: {kind} race on space {space} scope {scope} addr {addr} \
                     (no declared happens-before edge between the accesses)"
                );
            }
        }
    });
}

/// Forget every edge and cell of `(space, scope)` — called when the scope
/// (an executor run, a pool batch) has fully joined, so state stays
/// bounded by the *live* scopes, not by process history.
pub fn retire(space: u8, scope: u64) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    st.edges.retain(|k, _| !(k.0 == space && k.1 == scope));
    st.cells.retain(|k, _| !(k.0 == space && k.1 == scope));
}

/// Mirror of the pool's synchronization edges (see `rayon::PoolEvent` for
/// where each event sits relative to the real atomics). Chunk cells live
/// in the batch's scope and are retired at join.
fn pool_hook(ev: &rayon::PoolEvent) {
    if !enabled() {
        return;
    }
    match *ev {
        rayon::PoolEvent::InjectSend { batch } => release(SPACE_POOL_BATCH, batch, 0),
        rayon::PoolEvent::TicketSteal { batch } => acquire(SPACE_POOL_BATCH, batch, 0),
        rayon::PoolEvent::ChunkStart { batch, chunk } => {
            acquire(SPACE_POOL_BATCH, batch, 0);
            write(SPACE_POOL_CHUNK, batch, chunk);
        }
        rayon::PoolEvent::ChunkDone { batch, .. } => {
            if !MUTATION_DROP_COMPLETION.load(Ordering::Relaxed) {
                release(SPACE_POOL_DONE, batch, 0);
            }
        }
        rayon::PoolEvent::BatchJoin { batch, chunks } => {
            acquire(SPACE_POOL_DONE, batch, 0);
            for c in 0..chunks {
                read(SPACE_POOL_CHUNK, batch, c);
            }
            retire(SPACE_POOL_BATCH, batch);
            retire(SPACE_POOL_CHUNK, batch);
            retire(SPACE_POOL_DONE, batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the global force flag.
    static TEST_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn edge_orders_cross_thread_accesses() {
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(Some(true));
        let scope = new_scope();
        let before = race_count();
        write(SPACE_EXEC, scope, 7);
        release(SPACE_EXEC, scope, 7);
        std::thread::scope(|s| {
            s.spawn(|| {
                acquire(SPACE_EXEC, scope, 7);
                read(SPACE_EXEC, scope, 7);
                write(SPACE_EXEC, scope, 7);
            })
            .join()
            .unwrap();
        });
        assert_eq!(race_count(), before, "ordered accesses must stay silent");
        retire(SPACE_EXEC, scope);
        set_enabled(None);
    }

    #[test]
    fn missing_edge_is_reported_once_per_access() {
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(Some(true));
        let scope = new_scope();
        let before = race_count();
        write(SPACE_EXEC, scope, 1);
        // No release/acquire pair: the second thread races.
        std::thread::scope(|s| {
            s.spawn(|| write(SPACE_EXEC, scope, 1)).join().unwrap();
        });
        assert_eq!(race_count(), before + 1);
        let races = take_races();
        assert!(races
            .iter()
            .any(|r| r.space == SPACE_EXEC && r.scope == scope && r.kind == "write-write"));
        retire(SPACE_EXEC, scope);
        set_enabled(None);
    }

    #[test]
    fn retire_forgets_the_scope() {
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(Some(true));
        let scope = new_scope();
        let before = race_count();
        write(SPACE_EXEC, scope, 3);
        retire(SPACE_EXEC, scope);
        // Same address, fresh history: a racing write has nothing to
        // conflict with.
        std::thread::scope(|s| {
            s.spawn(|| write(SPACE_EXEC, scope, 3)).join().unwrap();
        });
        assert_eq!(race_count(), before);
        retire(SPACE_EXEC, scope);
        set_enabled(None);
    }

    #[test]
    fn disabled_checker_records_nothing() {
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(Some(false));
        let scope = new_scope();
        let before = race_count();
        write(SPACE_EXEC, scope, 9);
        std::thread::scope(|s| {
            s.spawn(|| write(SPACE_EXEC, scope, 9)).join().unwrap();
        });
        assert_eq!(race_count(), before);
        set_enabled(None);
    }
}
