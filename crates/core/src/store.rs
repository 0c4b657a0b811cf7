//! The distributed instruction store (Fig. 9): the cluster runtime's
//! plan-distribution layer.
//!
//! The paper decouples the planner pool from the executors through a Redis
//! instance on one machine's host memory: planner workers **serialize**
//! each compiled execution plan and push it keyed by iteration; executors
//! prefetch plans ahead of execution, deserialize, and delete them on
//! consumption. This module keeps every property that matters while
//! replacing the transport with a sharded in-process map:
//!
//! * **keyed blobs** — plans travel as serialized [`StoredPlan`] wire
//!   blobs (opaque byte strings), never as shared pointers, so the store
//!   models a real process boundary: everything an executor needs must
//!   survive encode/decode (pinned bit-exactly by
//!   `tests/serialization.rs` and the differential harness in
//!   `crates/cluster/tests/cluster_equivalence.rs`). The store is
//!   **codec-agnostic**: a blob is `Vec<u8>` in and [`Arc<[u8]>`] out,
//!   and the choice of wire encoding — self-describing JSON or the
//!   length-prefixed binary codec — lives entirely in
//!   [`crate::codec::PlanCodec`], which [`StoredPlan::encode`] /
//!   [`StoredPlan::decode`] take explicitly. Pusher and taker must agree
//!   on the codec out of band (the cluster runtime carries it in its
//!   `ClusterConfig`), exactly as two processes sharing a Redis instance
//!   would;
//! * **capacity backpressure** — [`InstructionStore::push_blocking`]
//!   blocks while the store is at capacity, the put-side analogue of the
//!   runtime's bounded plan-ahead window. In the cluster runtime the
//!   window's slots *are* store occupancy: a planner worker holds a
//!   claimed ticket from push until the executor's take, so live blobs
//!   never exceed `plan_ahead` and the push side never stalls — the
//!   queue's window accounting carries over;
//! * **fetch-with-timeout** — [`InstructionStore::take_blocking`] is the
//!   executor's in-order wait: it returns the blob as soon as the planner
//!   lands it, or a [`StoreError::Timeout`] if the plan never arrives
//!   (late plan / lost planner), instead of blocking forever;
//! * **tombstones** — consumption replaces the blob with a tombstone, so
//!   a duplicate push of an already-consumed iteration is a detectable
//!   error ([`StoreError::Consumed`]), not a silent resurrection;
//! * **re-issue pushes** — under churn recovery an iteration may be
//!   planned twice (the original straggler and the re-issued attempt
//!   race to push the *byte-identical* blob). Planner workers push
//!   through [`InstructionStore::push_discarding`]: whichever attempt
//!   lands second hits the live key or the tombstone and is counted as
//!   an explicit discard — never a silent overwrite, never an error that
//!   kills a healthy run. The reconciliation invariant
//!   `takes + discarded == pushes` therefore still closes to zero
//!   orphaned blobs, duplicates included;
//! * **poison** — [`InstructionStore::poison`] fails every current and
//!   future blocking operation with [`StoreError::Poisoned`]; the
//!   cluster runtime poisons the store from a planner worker's unwind
//!   path (the plan-ahead queue's `TicketGuard`) so a crashed planner
//!   fails the executor instead of deadlocking it;
//! * **counters** — per-shard occupancy/bytes/hit/miss plus store-wide
//!   push/take/discard totals ([`StoreStats`]), surfaced through
//!   `ClusterReport::store` by the cluster runtime.
//!
//! # Where the store lives
//!
//! The shards *here* are lock shards — a concurrency detail invisible
//! outside this module. Where the store lives **on the cluster** is a
//! separate axis, modeled entirely in the cluster layer
//! (`dynapipe_cluster::shard`): a single store host (the paper's Redis
//! deployment) or one store shard per executor host, with iteration
//! `i`'s blob routed to shard `i % num_shards`. Either way every blob
//! still flows through this one in-process store — placement changes
//! *which fabric hops are priced and counted* (a byte is a wire byte
//! only when it crosses hosts; the shard owner's local copy is free),
//! never which bytes executors run.
//!
//! # Occupancy semantics
//!
//! [`InstructionStore::len`] reads a single atomic counter, not a sum of
//! per-shard map sizes, so it can never return a torn multi-shard
//! snapshot (the previous implementation took the shard read-locks one by
//! one, so a concurrent push+take pair could be double- or zero-counted).
//! The counter counts *slots*: a capacity reservation is taken before the
//! shard insert and released on take, so `len()` may briefly include a
//! push that is still copying its blob in — the same over-approximation a
//! capacity-limited Redis would report mid-write. All counters reconcile
//! exactly once the store is quiescent (pinned by the concurrency stress
//! test).

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::planner::{IterationPlan, PlanError};
use dynapipe_sim::DeviceProgram;
use std::sync::Arc;

const NUM_SHARDS: usize = 16;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A blob for this iteration is already stored; use
    /// [`InstructionStore::replace`] for an intentional overwrite.
    DuplicateKey(usize),
    /// This iteration's blob was already taken (tombstoned): the plan
    /// would be executed twice, or a late planner re-pushed stale work.
    Consumed(usize),
    /// A blocking take gave up waiting for the blob to arrive.
    Timeout {
        /// The iteration waited for.
        iteration: usize,
        /// How long the caller was willing to wait.
        waited: Duration,
    },
    /// A blocking push gave up waiting for a free capacity slot.
    CapacityTimeout {
        /// The configured capacity.
        capacity: usize,
        /// How long the caller was willing to wait.
        waited: Duration,
    },
    /// The store was poisoned (a planner crashed); all operations fail.
    Poisoned(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DuplicateKey(it) => {
                write!(f, "iteration {it} already stored (push is not replace)")
            }
            StoreError::Consumed(it) => {
                write!(f, "iteration {it} already consumed (tombstoned)")
            }
            StoreError::Timeout { iteration, waited } => {
                write!(f, "plan for iteration {iteration} not stored within {waited:?}")
            }
            StoreError::CapacityTimeout { capacity, waited } => {
                write!(f, "no free slot (capacity {capacity}) within {waited:?}")
            }
            StoreError::Poisoned(reason) => write!(f, "store poisoned: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`InstructionStore::push_discarding`] did with the blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The blob landed; a take will consume it.
    Stored,
    /// Another attempt's byte-identical blob was already there (live or
    /// consumed): this push was counted and discarded at the door.
    DiscardedDuplicate,
}

/// Store configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {
    /// Maximum live blobs; `None` is unbounded. Pushing past the capacity
    /// blocks ([`InstructionStore::push_blocking`]) until a take frees a
    /// slot — explicit put-side backpressure.
    pub capacity: Option<usize>,
}

/// What a shard slot holds.
enum Slot {
    /// A serialized plan blob (opaque bytes), shared so `fetch` never
    /// copies.
    Blob(Arc<[u8]>),
    /// The blob was consumed; the key must never be filled again.
    Tombstone,
}

/// One shard: a keyed slice of the store plus its local counters.
struct Shard {
    map: RwLock<BTreeMap<usize, Slot>>,
    occupancy: AtomicUsize,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: RwLock::new(BTreeMap::new()),
            occupancy: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Counters of one shard, as captured by [`InstructionStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Live blobs in this shard.
    pub occupancy: usize,
    /// Bytes of live blobs in this shard.
    pub bytes: u64,
    /// Lookups (fetch/take) that found a live blob.
    pub hits: u64,
    /// Lookups that found nothing (polls while a plan is in flight).
    pub misses: u64,
}

/// A snapshot of the store's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Live blobs (slots) right now.
    pub occupancy: usize,
    /// Bytes of live blobs right now.
    pub bytes: u64,
    /// High-water mark of live slots.
    pub peak_occupancy: usize,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Successful pushes (including replaces).
    pub pushes: u64,
    /// Successful takes.
    pub takes: u64,
    /// Blobs dropped unconsumed by [`InstructionStore::clear_remaining`]
    /// (speculative plans discarded after a failure).
    pub discarded: u64,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardCounters>,
}

impl StoreStats {
    /// Total hits across shards.
    pub fn hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.hits).sum()
    }

    /// Total misses across shards.
    pub fn misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.misses).sum()
    }
}

/// Capacity-gate state, kept under the gate mutex. `reserved` is the
/// source of truth for the capacity check; `queue` holds the tickets of
/// blocked pushers in FIFO order. Fairness is load-bearing, not polish:
/// with a racy gate, a pusher that keeps arriving can steal every freed
/// slot from an earlier blocked pusher forever, and a consumer waiting
/// on that pusher's key then wedges the whole pipeline (the concurrency
/// stress test reproduces exactly this without FIFO ordering).
struct GateState {
    reserved: usize,
    queue: std::collections::VecDeque<u64>,
    next_id: u64,
}

/// Sharded, thread-safe plan store holding serialized blobs.
pub struct InstructionStore {
    shards: Vec<Shard>,
    capacity: Option<usize>,
    /// Mirror of `GateState::reserved` (reservations + live blobs),
    /// readable without the gate lock; the source of truth for `len()`.
    occupancy: AtomicUsize,
    bytes: AtomicU64,
    peak_occupancy: AtomicUsize,
    peak_bytes: AtomicU64,
    pushes: AtomicU64,
    takes: AtomicU64,
    discarded: AtomicU64,
    poisoned: RwLock<Option<String>>,
    /// Wait/notify for blocked pushers (FIFO capacity queue) and takers
    /// (missing key). Notifiers lock briefly before `notify_all`, and
    /// waiters re-check their condition under the lock, so wakeups are
    /// never lost.
    gate: Mutex<GateState>,
    gate_cv: Condvar,
}

impl Default for InstructionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl InstructionStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// An empty store capped at `capacity` live blobs.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(StoreConfig {
            capacity: Some(capacity),
        })
    }

    /// An empty store with the given configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        InstructionStore {
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            capacity: config.capacity,
            occupancy: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            peak_occupancy: AtomicUsize::new(0),
            peak_bytes: AtomicU64::new(0),
            pushes: AtomicU64::new(0),
            takes: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            poisoned: RwLock::new(None),
            gate: Mutex::new(GateState {
                reserved: 0,
                queue: std::collections::VecDeque::new(),
                next_id: 0,
            }),
            gate_cv: Condvar::new(),
        }
    }

    fn shard(&self, iteration: usize) -> &Shard {
        &self.shards[iteration % NUM_SHARDS]
    }

    fn check_poison(&self) -> Result<(), StoreError> {
        match &*self.poisoned.read() {
            Some(reason) => Err(StoreError::Poisoned(reason.clone())),
            None => Ok(()),
        }
    }

    /// Lock the FIFO gate. A poisoned std mutex means a holder panicked
    /// mid-gate; rather than pressing on with `into_inner`, the failure
    /// is routed through the store's own poison class so every pending
    /// and future operation reports [`StoreError::Poisoned`] instead of
    /// panicking deeper in the pipeline.
    fn lock_gate(&self) -> Result<std::sync::MutexGuard<'_, GateState>, StoreError> {
        match self.gate.lock() {
            Ok(g) => Ok(g),
            Err(_) => Err(self.poison_gate()),
        }
    }

    /// Record gate poisoning in the store's failure class and wake all
    /// waiters so nobody keeps blocking on a dead gate.
    fn poison_gate(&self) -> StoreError {
        const MSG: &str = "capacity gate mutex poisoned by a panicked holder";
        {
            let mut p = self.poisoned.write();
            if p.is_none() {
                *p = Some(MSG.to_string());
            }
        }
        self.gate_cv.notify_all();
        StoreError::Poisoned(MSG.to_string())
    }

    fn notify(&self) {
        // Empty critical section: a waiter holding the gate cannot race
        // past its condition re-check before this notify lands. A
        // poisoned gate already marked the store poisoned and woke all
        // waiters, so there is nothing left to notify.
        if let Ok(guard) = self.lock_gate() {
            drop(guard);
            self.gate_cv.notify_all();
        }
    }

    fn bump_peak(&self, occ: usize) {
        self.peak_occupancy.fetch_max(occ, Ordering::SeqCst);
    }

    /// Reserve one capacity slot, waiting until `deadline` if the store
    /// is full. Blocked pushers are served strictly FIFO (see
    /// [`GateState`]); callers release the reservation via
    /// `release_slot` on error, or the eventual take does.
    fn reserve_slot(&self, deadline: Option<Instant>) -> Result<(), StoreError> {
        let Some(cap) = self.capacity else {
            self.check_poison()?;
            self.bump_peak(self.occupancy.fetch_add(1, Ordering::SeqCst) + 1);
            return Ok(());
        };
        let mut g = self.lock_gate()?;
        self.check_poison()?;
        if g.queue.is_empty() && g.reserved < cap {
            g.reserved += 1;
            self.bump_peak(self.occupancy.fetch_add(1, Ordering::SeqCst) + 1);
            return Ok(());
        }
        let Some(dl) = deadline else {
            // Non-blocking push at capacity (or behind waiters): report
            // immediately.
            return Err(StoreError::CapacityTimeout {
                capacity: cap,
                waited: Duration::ZERO,
            });
        };
        let ticket = g.next_id;
        g.next_id += 1;
        g.queue.push_back(ticket);
        loop {
            if let Err(e) = self.check_poison() {
                g.queue.retain(|&t| t != ticket);
                return Err(e);
            }
            if g.queue.front() == Some(&ticket) && g.reserved < cap {
                g.queue.pop_front();
                g.reserved += 1;
                self.bump_peak(self.occupancy.fetch_add(1, Ordering::SeqCst) + 1);
                drop(g);
                // The next queued pusher may also be servable.
                self.gate_cv.notify_all();
                return Ok(());
            }
            // lint:allow(wall-clock): FIFO-gate deadline re-check; timeout surfaces as CapacityTimeout, not as different bytes
            let now = Instant::now();
            if now >= dl {
                g.queue.retain(|&t| t != ticket);
                drop(g);
                // Our abandoned head slot may unblock the next ticket.
                self.gate_cv.notify_all();
                return Err(StoreError::CapacityTimeout {
                    capacity: cap,
                    waited: Duration::ZERO,
                });
            }
            g = match self.gate_cv.wait_timeout(g, dl - now) {
                Ok((guard, _)) => guard,
                // The gate died while we waited: our queued ticket is
                // unreachable, but so is everyone else's — the store is
                // poisoned wholesale.
                Err(_) => return Err(self.poison_gate()),
            };
        }
    }

    fn release_slot(&self) {
        if self.capacity.is_some() {
            if let Ok(mut g) = self.lock_gate() {
                g.reserved -= 1;
            }
        }
        self.occupancy.fetch_sub(1, Ordering::SeqCst);
        self.notify();
    }

    /// Insert `blob` at `iteration` after a slot has been reserved.
    ///
    /// Byte/occupancy counters are updated while the shard write lock is
    /// still held: publishing the blob first would let a concurrent take
    /// decrement counters the push has not incremented yet, wrapping the
    /// unsigned atomics. (Gate operations stay outside the shard lock —
    /// the taker wait path acquires gate → shard-read, so shard → gate
    /// here would be a lock-order cycle.)
    fn insert_reserved(&self, iteration: usize, blob: &[u8]) -> Result<(), StoreError> {
        let shard = self.shard(iteration);
        let nbytes = blob.len() as u64;
        {
            let mut map = shard.map.write();
            match map.get(&iteration) {
                Some(Slot::Blob(_)) => {
                    drop(map);
                    self.release_slot();
                    return Err(StoreError::DuplicateKey(iteration));
                }
                Some(Slot::Tombstone) => {
                    drop(map);
                    self.release_slot();
                    return Err(StoreError::Consumed(iteration));
                }
                None => {
                    map.insert(iteration, Slot::Blob(Arc::from(blob)));
                }
            }
            shard.occupancy.fetch_add(1, Ordering::SeqCst);
            shard.bytes.fetch_add(nbytes, Ordering::SeqCst);
            let total = self.bytes.fetch_add(nbytes, Ordering::SeqCst) + nbytes;
            self.peak_bytes.fetch_max(total, Ordering::SeqCst);
            self.pushes.fetch_add(1, Ordering::SeqCst);
        }
        self.notify(); // wake takers waiting on this key
        Ok(())
    }

    /// Push a serialized plan blob (planner side). Fails fast with
    /// [`StoreError::CapacityTimeout`] if the store is at capacity,
    /// [`StoreError::DuplicateKey`] if the key is live, and
    /// [`StoreError::Consumed`] if the key was already taken.
    pub fn push(&self, iteration: usize, blob: Vec<u8>) -> Result<(), StoreError> {
        self.reserve_slot(None)?;
        self.insert_reserved(iteration, &blob)
    }

    /// Push with put-side backpressure: block up to `timeout` for a free
    /// capacity slot, then insert like [`InstructionStore::push`].
    pub fn push_blocking(
        &self,
        iteration: usize,
        blob: Vec<u8>,
        timeout: Duration,
    ) -> Result<(), StoreError> {
        // lint:allow(wall-clock): put-side backpressure deadline; bounds the wait, never the contents
        let deadline = Instant::now() + timeout;
        match self.reserve_slot(Some(deadline)) {
            Ok(()) => self.insert_reserved(iteration, &blob),
            Err(StoreError::CapacityTimeout { capacity, .. }) => {
                Err(StoreError::CapacityTimeout {
                    capacity,
                    waited: timeout,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Push like [`InstructionStore::push_blocking`], but treat a
    /// duplicate key — live blob *or* tombstone — as an expected,
    /// counted discard instead of an error. This is the push path for
    /// re-issued work: planning is deterministic, so the racing original
    /// and re-issue carry byte-identical blobs and whichever lands
    /// second contributes nothing. The losing push still counts toward
    /// [`StoreStats::pushes`] *and* [`StoreStats::discarded`], so
    /// `takes + discarded == pushes` reconciles to zero orphans.
    pub fn push_discarding(
        &self,
        iteration: usize,
        blob: Vec<u8>,
        timeout: Duration,
    ) -> Result<PushOutcome, StoreError> {
        match self.push_blocking(iteration, blob, timeout) {
            Ok(()) => Ok(PushOutcome::Stored),
            Err(StoreError::DuplicateKey(_)) | Err(StoreError::Consumed(_)) => {
                self.pushes.fetch_add(1, Ordering::SeqCst);
                self.discarded.fetch_add(1, Ordering::SeqCst);
                Ok(PushOutcome::DiscardedDuplicate)
            }
            Err(e) => Err(e),
        }
    }

    /// Replace the blob at `iteration` (explicit overwrite; the plain
    /// `push` treats an existing key as an error). Returns the replaced
    /// blob if the key was live. Replacing a consumed key is still an
    /// error — a taken plan must stay taken.
    pub fn replace(
        &self,
        iteration: usize,
        blob: Vec<u8>,
    ) -> Result<Option<Arc<[u8]>>, StoreError> {
        let shard = self.shard(iteration);
        let nbytes = blob.len() as u64;
        loop {
            self.check_poison()?;
            {
                let mut map = shard.map.write();
                match map.get(&iteration) {
                    Some(Slot::Tombstone) => return Err(StoreError::Consumed(iteration)),
                    Some(Slot::Blob(_)) => {
                        let old = match map.insert(iteration, Slot::Blob(Arc::from(&blob[..]))) {
                            Some(Slot::Blob(b)) => b,
                            _ => unreachable!("checked live above"),
                        };
                        // Counters adjusted under the shard lock, like
                        // `insert_reserved` (a concurrent take of the new
                        // blob must never see its bytes unaccounted).
                        let old_bytes = old.len() as u64;
                        shard.bytes.fetch_add(nbytes, Ordering::SeqCst);
                        shard.bytes.fetch_sub(old_bytes, Ordering::SeqCst);
                        self.bytes.fetch_add(nbytes, Ordering::SeqCst);
                        self.bytes.fetch_sub(old_bytes, Ordering::SeqCst);
                        self.pushes.fetch_add(1, Ordering::SeqCst);
                        drop(map);
                        self.notify();
                        return Ok(Some(old));
                    }
                    None => {} // fall through to the reserve + insert path
                }
            }
            // Absent: a fresh slot is needed, and the gate must not be
            // taken under the shard lock (lock order is gate → shard on
            // the wait paths). If a concurrent push lands the key between
            // the check and the insert, insert_reserved reports
            // DuplicateKey (releasing the reservation) — retry as a swap
            // instead of surfacing the one error replace exists to avoid.
            self.reserve_slot(None)?;
            match self.insert_reserved(iteration, &blob) {
                Ok(()) => return Ok(None),
                Err(StoreError::DuplicateKey(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetch a blob without consuming it (executor prefetch). A consumed
    /// key reads as absent.
    pub fn fetch(&self, iteration: usize) -> Option<Arc<[u8]>> {
        let shard = self.shard(iteration);
        let map = shard.map.read();
        match map.get(&iteration) {
            Some(Slot::Blob(b)) => {
                let b = b.clone();
                shard.hits.fetch_add(1, Ordering::SeqCst);
                Some(b)
            }
            _ => {
                shard.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    fn take_inner(&self, iteration: usize, count_miss: bool) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.check_poison()?;
        let shard = self.shard(iteration);
        let taken = {
            let mut map = shard.map.write();
            match map.get(&iteration) {
                Some(Slot::Blob(_)) => {
                    let blob = match map.insert(iteration, Slot::Tombstone) {
                        Some(Slot::Blob(b)) => b,
                        _ => unreachable!("checked live above"),
                    };
                    // Counters adjusted under the shard lock, mirroring
                    // `insert_reserved`; only the gate (release_slot)
                    // waits until the lock is dropped — gate → shard is
                    // the established order on the wait paths.
                    let nbytes = blob.len() as u64;
                    shard.occupancy.fetch_sub(1, Ordering::SeqCst);
                    shard.bytes.fetch_sub(nbytes, Ordering::SeqCst);
                    shard.hits.fetch_add(1, Ordering::SeqCst);
                    self.bytes.fetch_sub(nbytes, Ordering::SeqCst);
                    self.takes.fetch_add(1, Ordering::SeqCst);
                    Some(blob)
                }
                Some(Slot::Tombstone) => return Err(StoreError::Consumed(iteration)),
                None => None,
            }
        };
        match taken {
            Some(blob) => {
                self.release_slot(); // frees the capacity slot + notifies
                Ok(Some(blob))
            }
            None => {
                if count_miss {
                    shard.misses.fetch_add(1, Ordering::SeqCst);
                }
                Ok(None)
            }
        }
    }

    /// Take (fetch and delete) a blob, leaving a tombstone — executor
    /// consumption. `Ok(None)` means the plan has not arrived yet;
    /// [`StoreError::Consumed`] means it was already taken.
    pub fn take(&self, iteration: usize) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.take_inner(iteration, true)
    }

    /// Take with a bounded wait: block up to `timeout` for the blob to
    /// arrive — the executor's in-order fetch. Fails with
    /// [`StoreError::Timeout`] if the planner never delivers, and
    /// [`StoreError::Poisoned`] immediately if the store is poisoned
    /// while waiting.
    pub fn take_blocking(
        &self,
        iteration: usize,
        timeout: Duration,
    ) -> Result<Arc<[u8]>, StoreError> {
        // lint:allow(wall-clock): take-side bounded wait deadline; timeout is a counted failure, not behavior
        let deadline = Instant::now() + timeout;
        let mut first = true;
        loop {
            if let Some(blob) = self.take_inner(iteration, first)? {
                return Ok(blob);
            }
            first = false;
            let guard = self.lock_gate()?;
            // Re-check under the gate so a push between our poll and the
            // wait cannot be missed.
            let present = matches!(
                self.shard(iteration).map.read().get(&iteration),
                Some(Slot::Blob(_))
            );
            if present {
                continue;
            }
            self.check_poison()?;
            // lint:allow(wall-clock): deadline re-check in the take wait loop; wall-clock only
            let now = Instant::now();
            if now >= deadline {
                return Err(StoreError::Timeout {
                    iteration,
                    waited: timeout,
                });
            }
            match self.gate_cv.wait_timeout(guard, deadline - now) {
                Ok((g, _)) => drop(g),
                Err(_) => return Err(self.poison_gate()),
            }
        }
    }

    /// Poison the store: every current and future blocking operation
    /// fails with [`StoreError::Poisoned`]. Called from a planner
    /// worker's unwind path so a crashed planner fails the executor
    /// instead of deadlocking its in-order wait.
    pub fn poison(&self, reason: &str) {
        *self.poisoned.write() = Some(reason.to_string());
        self.notify();
    }

    /// Drop every remaining live blob (teardown after a failure: the
    /// speculative plans of never-executed iterations must not linger).
    /// Returns how many blobs were discarded; they are counted in
    /// [`StoreStats::discarded`].
    pub fn clear_remaining(&self) -> usize {
        let mut dropped = 0usize;
        for shard in &self.shards {
            let mut map = shard.map.write();
            let live: Vec<usize> = map
                .iter()
                .filter_map(|(k, v)| matches!(v, Slot::Blob(_)).then_some(*k))
                .collect();
            for k in live {
                if let Some(Slot::Blob(b)) = map.remove(&k) {
                    let nbytes = b.len() as u64;
                    shard.occupancy.fetch_sub(1, Ordering::SeqCst);
                    shard.bytes.fetch_sub(nbytes, Ordering::SeqCst);
                    self.bytes.fetch_sub(nbytes, Ordering::SeqCst);
                    dropped += 1;
                }
            }
        }
        if dropped > 0 {
            if self.capacity.is_some() {
                if let Ok(mut g) = self.lock_gate() {
                    g.reserved -= dropped;
                }
            }
            self.occupancy.fetch_sub(dropped, Ordering::SeqCst);
            self.discarded.fetch_add(dropped as u64, Ordering::SeqCst);
            self.notify();
        }
        dropped
    }

    /// Live blobs (slots) currently stored — a single atomic read, never
    /// a torn per-shard sum; see the module docs for the slot semantics.
    pub fn len(&self) -> usize {
        self.occupancy.load(Ordering::SeqCst)
    }

    /// Whether the store holds no live blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            occupancy: self.occupancy.load(Ordering::SeqCst),
            bytes: self.bytes.load(Ordering::SeqCst),
            peak_occupancy: self.peak_occupancy.load(Ordering::SeqCst),
            peak_bytes: self.peak_bytes.load(Ordering::SeqCst),
            pushes: self.pushes.load(Ordering::SeqCst),
            takes: self.takes.load(Ordering::SeqCst),
            discarded: self.discarded.load(Ordering::SeqCst),
            per_shard: self
                .shards
                .iter()
                .map(|s| ShardCounters {
                    occupancy: s.occupancy.load(Ordering::SeqCst),
                    bytes: s.bytes.load(Ordering::SeqCst),
                    hits: s.hits.load(Ordering::SeqCst),
                    misses: s.misses.load(Ordering::SeqCst),
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// A lowered iteration on the wire: the plan plus every replica's
/// compiled device programs, owned (no `Arc`s — this is what crosses the
/// process boundary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredLowered {
    /// The iteration plan the programs were lowered from.
    pub plan: IterationPlan,
    /// `programs[replica][device]` simulator programs.
    pub programs: Vec<Vec<DeviceProgram>>,
}

/// What a planner worker stores for an iteration: either the lowered
/// plan, or the planning failure itself — failures travel through the
/// store too, so the executor reports them at exactly the iteration the
/// serial driver would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoredOutcome {
    /// Planning succeeded; here is the lowered iteration.
    Plan(StoredLowered),
    /// Planning failed.
    Failed(PlanError),
}

/// The wire blob a planner worker pushes, keyed by iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredPlan {
    /// Training iteration index (also the store key; kept in the blob so
    /// a blob is self-describing).
    pub iteration: usize,
    /// The planning outcome.
    pub outcome: StoredOutcome,
}

impl StoredPlan {
    /// Serialize to wire bytes with the given codec. Encoding is
    /// deterministic and float-exact for every codec (JSON via
    /// shortest-roundtrip formatting, binary via raw bit patterns), so
    /// `decode(codec, encode(codec)).encode(codec) == encode(codec)` bit
    /// for bit — the property the differential harness leans on.
    pub fn encode(&self, codec: crate::codec::PlanCodec) -> Vec<u8> {
        match codec {
            crate::codec::PlanCodec::Flat => crate::codec::encode_flat(self),
            tree => tree.encode_value(&serde::Serialize::to_value(self)),
        }
    }

    /// Deserialize from wire bytes produced with the *same* codec (the
    /// codec travels out of band; a mismatched blob fails loudly).
    ///
    /// For [`crate::codec::PlanCodec::Flat`] this is the *generic* decode
    /// — it rebuilds an owned plan for callers that need one. The
    /// runtime's flat hot path skips it and executes the blob in place
    /// via [`crate::codec::FlatPlanRef`].
    pub fn decode(
        codec: crate::codec::PlanCodec,
        blob: &[u8],
    ) -> Result<StoredPlan, serde::Error> {
        match codec {
            crate::codec::PlanCodec::Flat => {
                Ok(crate::codec::FlatPlanRef::new(std::sync::Arc::from(blob))?.to_stored()?)
            }
            tree => serde::Deserialize::from_value(&tree.decode_value(blob)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn blob(i: usize) -> Vec<u8> {
        format!("{{\"plan\":{i}}}").into_bytes()
    }

    #[test]
    fn push_fetch_take_roundtrip() {
        let store = InstructionStore::new();
        assert!(store.is_empty());
        store.push(3, blob(3)).expect("push 3 into empty store");
        store.push(4, blob(4)).expect("push 4 into empty store");
        assert_eq!(store.len(), 2);
        assert!(store.fetch(3).is_some());
        assert_eq!(store.len(), 2, "fetch does not consume");
        assert_eq!(&*store.take(3).expect("take 3 after push").expect("blob 3 present"), blob(3).as_slice());
        assert_eq!(store.len(), 1);
        assert!(store.fetch(99).is_none());
        let st = store.stats();
        assert_eq!(st.pushes, 2);
        assert_eq!(st.takes, 1);
        assert_eq!(st.bytes, blob(4).len() as u64);
    }

    #[test]
    fn push_to_live_key_is_an_error_and_replace_is_explicit() {
        // Pinned: `push` must never silently overwrite (the old store
        // did — a duplicate planner ticket would clobber a plan).
        let store = InstructionStore::new();
        store.push(7, blob(7)).expect("push 7 into empty store");
        assert_eq!(store.push(7, b"other".to_vec()), Err(StoreError::DuplicateKey(7)));
        assert_eq!(&*store.fetch(7).expect("blob 7 live"), blob(7).as_slice(), "push must not clobber");
        let old = store.replace(7, b"other".to_vec()).expect("replace live key");
        assert_eq!(&*old.expect("replace returns the old blob"), blob(7).as_slice());
        assert_eq!(&*store.fetch(7).expect("blob 7 live"), b"other");
        assert_eq!(store.len(), 1);
        // Replace of an absent key inserts.
        assert!(store.replace(8, blob(8)).expect("replace absent key inserts").is_none());
        assert_eq!(store.len(), 2);
        // Byte accounting followed the replace.
        assert_eq!(
            store.stats().bytes,
            ("other".len() + blob(8).len()) as u64
        );
    }

    #[test]
    fn consumed_key_is_tombstoned() {
        // Pinned: taking leaves a tombstone; the key can never be
        // resurrected by a late (stale) push or replaced.
        let store = InstructionStore::new();
        store.push(5, blob(5)).expect("push 5 into empty store");
        assert!(store.take(5).expect("take 5 after push").is_some());
        assert_eq!(store.take(5), Err(StoreError::Consumed(5)));
        assert_eq!(store.push(5, blob(5)), Err(StoreError::Consumed(5)));
        assert_eq!(store.replace(5, blob(5)), Err(StoreError::Consumed(5)));
        assert!(store.fetch(5).is_none(), "tombstone reads as absent");
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn capacity_backpressure_blocks_push_until_take() {
        let store = Arc::new(InstructionStore::with_capacity(1));
        store.push(0, blob(0)).expect("push 0 fills capacity 1");
        // Non-blocking push reports capacity exhaustion immediately.
        assert!(matches!(
            store.push(1, blob(1)),
            Err(StoreError::CapacityTimeout { capacity: 1, .. })
        ));
        let st = store.clone();
        let pusher = std::thread::spawn(move || {
            st.push_blocking(1, blob(1), Duration::from_secs(30))
        });
        // The blocked pusher proceeds as soon as the slot frees.
        std::thread::sleep(Duration::from_millis(20));
        assert!(store.take(0).expect("take 0 frees the slot").is_some());
        pusher
            .join()
            .expect("pusher thread")
            .expect("blocked push proceeds after take");
        assert_eq!(&*store.fetch(1).expect("blob 1 live after blocked push"), blob(1).as_slice());
        assert_eq!(store.stats().peak_occupancy, 1);
    }

    #[test]
    fn take_blocking_times_out_on_missing_plan() {
        let store = InstructionStore::new();
        let err = store
            .take_blocking(42, Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, StoreError::Timeout { iteration: 42, .. }));
    }

    #[test]
    fn take_blocking_sees_concurrent_push() {
        let store = Arc::new(InstructionStore::new());
        let st = store.clone();
        let taker = std::thread::spawn(move || {
            st.take_blocking(9, Duration::from_secs(30))
                .expect("take sees the concurrent push")
        });
        std::thread::sleep(Duration::from_millis(10));
        store.push(9, blob(9)).expect("push 9 wakes the taker");
        assert_eq!(&*taker.join().expect("taker thread"), blob(9).as_slice());
        assert!(store.is_empty());
    }

    #[test]
    fn poison_fails_blocked_takers_and_future_ops() {
        let store = Arc::new(InstructionStore::new());
        let st = store.clone();
        let taker = std::thread::spawn(move || st.take_blocking(1, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        store.poison("planner worker died");
        match taker.join().expect("taker thread") {
            Err(StoreError::Poisoned(r)) => assert!(r.contains("died")),
            other => panic!("expected poison, got {other:?}"),
        }
        assert!(matches!(store.push(2, blob(2)), Err(StoreError::Poisoned(_))));
        assert!(matches!(store.take(1), Err(StoreError::Poisoned(_))));
    }

    #[test]
    fn clear_remaining_discards_live_blobs_only() {
        let store = InstructionStore::new();
        for i in 0..6 {
            store.push(i, blob(i)).expect("seed pushes");
        }
        assert!(store.take(2).expect("take 2 before the clear").is_some());
        assert_eq!(store.clear_remaining(), 5);
        assert!(store.is_empty());
        let st = store.stats();
        assert_eq!(st.discarded, 5);
        assert_eq!(st.bytes, 0);
        assert_eq!(st.occupancy, 0);
        assert!(st.per_shard.iter().all(|s| s.occupancy == 0 && s.bytes == 0));
        // Tombstones survive the clear: key 2 stays consumed.
        assert_eq!(store.push(2, blob(2)), Err(StoreError::Consumed(2)));
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let store = Arc::new(InstructionStore::new());
        std::thread::scope(|s| {
            for w in 0..4usize {
                let st = store.clone();
                s.spawn(move || {
                    for i in (w..100).step_by(4) {
                        st.push(i, blob(i)).expect("concurrent pushes hit distinct keys");
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let st = store.clone();
                s.spawn(move || {
                    for i in (w..100).step_by(4) {
                        assert!(st.take(i).expect("concurrent takes hit live keys").is_some());
                    }
                });
            }
        });
        assert!(store.is_empty());
        let st = store.stats();
        assert_eq!((st.pushes, st.takes), (100, 100));
        assert_eq!(st.hits(), 100);
    }
}
