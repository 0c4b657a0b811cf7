//! Offline stand-in for `rayon`: the data-parallel iterator subset the
//! planning hot path uses (`par_iter` on slices, `into_par_iter` on
//! ranges and vectors, `map`/`filter_map`/`collect`/`for_each`), executed
//! on one process-wide pool of persistent worker threads.
//!
//! Semantics match rayon where it matters for the planner:
//! * results are returned in input order regardless of thread count;
//! * closures run exactly once per element;
//! * nested parallel calls run in parallel, under the same budget as the
//!   call that contains them;
//! * a panicking closure re-raises in the caller with its payload, after
//!   every element already started has finished.
//!
//! How a call runs. The pool has one worker fewer than the thread count,
//! spawned on first use and parked on a condition variable between calls;
//! the calling thread is the remaining one. A call of `n > 1` elements is
//! posted as a *job*; the caller and any idle worker claim indices
//! through an atomic counter (so a slow element never strands the rest
//! behind a static chunk), and each result lands in its own slot, which
//! is read back in index order. Once the caller finds nothing left to
//! claim it parks until the claimed elements finish. While parked it may
//! run elements of jobs nested *inside* its own (they are part of what
//! it waits for), but never an element of an outer or unrelated job: a
//! thread waiting inside an element never starts a second element of an
//! enclosing call, so in-flight work stays bounded by the thread count.
//!
//! `ThreadPool::install(n)` gives everything submitted inside it — nested
//! jobs included — a budget of `n` concurrently working threads, the
//! installing thread counted. Workers take a slot before joining a job
//! under a budget and give it back when they leave.
//!
//! The thread count defaults to `std::thread::available_parallelism`,
//! tunable via the `RAYON_NUM_THREADS` environment variable like real
//! rayon; both are read once, when the pool starts.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// The thread count a request resolves to: an explicit `requested > 0`
/// wins, then a positive `RAYON_NUM_THREADS` value, then `available`.
fn resolve_threads(requested: usize, env: Option<&str>, available: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(available.max(1))
}

/// The process-wide thread count: the pool's workers plus the caller.
fn default_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env = std::env::var("RAYON_NUM_THREADS").ok();
        resolve_threads(0, env.as_deref(), available)
    })
}

/// Number of threads parallel operations will use: the tightest
/// enclosing `ThreadPool::install` bound, else the pool's size.
pub fn current_num_threads() -> usize {
    CONTEXT
        .with(|c| c.borrow().budget.as_ref().map(|b| b.cap()))
        .unwrap_or_else(default_num_threads)
}

/// Concurrency bound of one `ThreadPool::install` scope. `used` counts
/// the threads working under it (the installing thread included) and
/// changes only under the pool lock.
struct Budget {
    cap: usize,
    used: AtomicUsize,
    parent: Option<Arc<Budget>>,
}

impl Budget {
    fn chain(&self) -> impl Iterator<Item = &Budget> {
        std::iter::successors(Some(self), |b| b.parent.as_deref())
    }

    fn cap(&self) -> usize {
        self.chain().map(|b| b.cap).min().unwrap_or(1)
    }

    /// Take a slot here and in every enclosing scope, or none at all.
    /// Callers hold the pool lock.
    fn try_acquire(&self) -> bool {
        if self
            .chain()
            .any(|b| b.used.load(Ordering::Relaxed) >= b.cap)
        {
            return false;
        }
        self.chain().for_each(|b| {
            b.used.fetch_add(1, Ordering::Relaxed);
        });
        true
    }

    /// Give back a slot taken by `try_acquire`. Callers hold the pool lock.
    fn release(&self) {
        self.chain().for_each(|b| {
            b.used.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

/// One parallel call: `len` indices, claimed through `next`.
///
/// Orderings: the job's fields reach other threads through the pool lock
/// (it is pushed onto `State::jobs` under it), so `next` publishes
/// nothing and is `Relaxed`, as is the `panicked` hint (the payload is
/// behind its own mutex). `done` publishes the results: each increment
/// is a `Release` after the element's slot is written, paired with the
/// `Acquire` load in `finished` before the owner reads the slots.
struct Job {
    pool: &'static Pool,
    run: &'static (dyn Fn(usize) + Sync),
    len: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    budget: Option<Arc<Budget>>,
    /// The job whose element was running when this one was posted.
    parent: Option<Arc<Job>>,
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Erase the lifetime of a job's element closure so workers can reach it
/// through the shared job list.
///
/// Callers must uphold: the erased closure is called only by a thread
/// that has claimed an index `< len` of the job it was posted with, and
/// the thread that posted the job does not return from (or unwind out
/// of) `Pool::run` before `done == len`.
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> &'static (dyn Fn(usize) + Sync) {
    // SAFETY: only the lifetime changes; layout and vtable are identical.
    // `Pool::run` is the sole caller. It posts the job, then waits in
    // `Pool::join` until every one of the `len` claimable indices has
    // been run and counted in `done` — element panics are caught in
    // `Job::work_through`, so that wait is reached on every path — and
    // only then lets `f`'s frame go. Indices are claimed by `fetch_add`
    // on `next`, so at most `len` calls exist and each is counted before
    // `done` reaches `len`; a thread whose claim is `>= len` never calls
    // the closure. Job handles outliving the call therefore hold the
    // reference without ever calling it again.
    unsafe {
        std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), &'static (dyn Fn(usize) + Sync)>(f)
    }
}

impl Job {
    fn claimable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.len
    }

    fn descends_from(&self, ancestor: &Arc<Job>) -> bool {
        std::iter::successors(self.parent.as_ref(), |j| j.parent.as_ref())
            .any(|j| Arc::ptr_eq(j, ancestor))
    }

    fn same_budget(&self, other: &Job) -> bool {
        match (&self.budget, &other.budget) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Claim and run indices until none is left. A panic is recorded
    /// (the first payload is kept) and the remaining indices are claimed
    /// without running, so the job still completes.
    fn work_through(self: &Arc<Job>) {
        let _context = ContextGuard::enter(Context {
            pool: Some(self.pool),
            job: Some(Arc::clone(self)),
            budget: self.budget.clone(),
        });
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            if !self.panicked.load(Ordering::Relaxed) {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                    self.panicked.store(true, Ordering::Relaxed);
                    lock(&self.payload).get_or_insert(payload);
                }
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                // Taking the lock orders this wake-up after a joiner's
                // check-then-wait, so it cannot be lost.
                let _state = lock(&self.pool.state);
                self.pool.joined.notify_all();
            }
        }
    }
}

/// What the current thread is working under; nested calls inherit it.
#[derive(Default, Clone)]
struct Context {
    /// The pool parallel calls go to (`None`: the process-wide one).
    pool: Option<&'static Pool>,
    job: Option<Arc<Job>>,
    budget: Option<Arc<Budget>>,
}

thread_local! {
    static CONTEXT: RefCell<Context> = RefCell::new(Context::default());
}

/// Installs a context and restores the previous one on drop (unwinding
/// included).
struct ContextGuard(Option<Context>);

impl ContextGuard {
    fn enter(context: Context) -> Self {
        ContextGuard(Some(CONTEXT.with(|c| c.replace(context))))
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            CONTEXT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Lock, recovering the guard after a panic elsewhere: no user code runs
/// while any of the shim's mutexes is held, and each update under one is
/// a single assignment, so the data is valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct State {
    /// Posted jobs whose owner is still claiming, oldest first.
    jobs: Vec<Arc<Job>>,
    /// Workers parked on `Pool::work`.
    idle: usize,
    /// Job owners parked on `Pool::joined`.
    joiners: usize,
}

struct Pool {
    workers: usize,
    state: Mutex<State>,
    /// Workers wait here for a job they may join.
    work: Condvar,
    /// Job owners wait here for their claimed indices to finish.
    joined: Condvar,
}

/// The process-wide pool, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::start(default_num_threads() - 1))
}

impl Pool {
    /// Start a pool of `workers` parked threads. Pools live for the rest
    /// of the process, so the workers are never joined; a panic in an
    /// element they run is caught in `Job::work_through` and re-raised
    /// in the caller, so none goes unseen.
    fn start(workers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            workers,
            state: Mutex::new(State {
                jobs: Vec::new(),
                idle: 0,
                joiners: 0,
            }),
            work: Condvar::new(),
            joined: Condvar::new(),
        }));
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{w}"))
                .spawn(move || pool.worker_loop())
                .expect("spawn rayon shim worker");
        }
        pool
    }

    /// A worker's life: join the oldest job with an unclaimed index whose
    /// budget has a free slot, work through it, repeat; park when there
    /// is none.
    fn worker_loop(&self) {
        let mut state = lock(&self.state);
        loop {
            let pick = state
                .jobs
                .iter()
                .find(|j| j.claimable() && j.budget.as_ref().is_none_or(|b| b.try_acquire()))
                .cloned();
            let Some(job) = pick else {
                state.idle += 1;
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.idle -= 1;
                continue;
            };
            drop(state);
            job.work_through();
            state = lock(&self.state);
            if let Some(budget) = &job.budget {
                budget.release();
                // The freed slot may admit a parked worker elsewhere.
                if state.idle > 0 && state.jobs.iter().any(|j| j.claimable()) {
                    self.work.notify_one();
                }
            }
        }
    }

    /// Run `item(0..len)` on the pool and the calling thread; returns
    /// once every index has run, re-raising the first element panic.
    fn run(&'static self, len: usize, item: &(dyn Fn(usize) + Sync)) {
        let Context {
            job: parent,
            budget,
            ..
        } = CONTEXT.with(|c| c.borrow().clone());
        let job = Arc::new(Job {
            pool: self,
            run: erase(item),
            len,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            budget,
            parent,
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        });
        {
            let mut state = lock(&self.state);
            state.jobs.push(Arc::clone(&job));
            for _ in 0..state.idle.min(len - 1) {
                self.work.notify_one();
            }
            if state.joiners > 0 {
                // Parked owners may help with a job nested in theirs.
                self.joined.notify_all();
            }
        }
        job.work_through();
        self.join(&job);
        let payload = lock(&job.payload).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Wait until `job` has finished, running indices of jobs nested in
    /// it (under the same budget, so no slot is added) while waiting.
    fn join(&self, job: &Arc<Job>) {
        let mut state = lock(&self.state);
        state.jobs.retain(|j| !Arc::ptr_eq(j, job));
        while !job.finished() {
            let nested = state
                .jobs
                .iter()
                .find(|j| j.claimable() && j.same_budget(job) && j.descends_from(job))
                .cloned();
            if let Some(nested) = nested {
                drop(state);
                nested.work_through();
                state = lock(&self.state);
                continue;
            }
            state.joiners += 1;
            state = self
                .joined
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.joiners -= 1;
        }
    }
}

/// Evaluate `f(0..n)` in parallel, preserving index order in the output.
fn run_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let (on, capped) = CONTEXT.with(|c| {
        let c = c.borrow();
        (c.pool, c.budget.as_ref().is_some_and(|b| b.cap() <= 1))
    });
    let pool = on.unwrap_or_else(pool);
    if n <= 1 || capped || pool.workers == 0 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let item = |i: usize| {
        let value = f(i);
        *lock(&slots[i]) = Some(value);
    };
    pool.run(n, &item);
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index ran")
        })
        .collect()
}

/// A bounded worker pool: `install` caps the concurrency of everything
/// the closure submits, nested calls included, at `num_threads`.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `f` with at most this pool's thread count working on the
    /// parallel calls it makes (the calling thread counted).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let outer = CONTEXT.with(|c| c.borrow().clone());
        let budget = Arc::new(Budget {
            cap: self.num_threads.max(1),
            used: AtomicUsize::new(1),
            parent: outer.budget.clone(),
        });
        let _context = ContextGuard::enter(Context {
            budget: Some(budget),
            ..outer
        });
        f()
    }
}

/// Builder matching `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Pool construction error (the shim never fails; kept for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// New builder with default (auto) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count (0 = auto: `RAYON_NUM_THREADS`, else the
    /// available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = match self.num_threads {
            0 => default_num_threads(),
            n => n,
        };
        Ok(ThreadPool { num_threads })
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Element type.
    type Item;
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` on `&collection`.
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a reference).
    type Item;
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing conversion.
    fn par_iter(&'a self) -> Self::Iter;
}

/// The executable side of the shim's parallel iterators.
///
/// Unlike real rayon this is an *eager, indexed* model: every adapter knows
/// its length and how to produce element `i`; consumers run `run_indexed`.
pub trait ParallelIterator: Sized + Sync
where
    Self::Item: Send,
{
    /// Element type.
    type Item;

    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether the iterator is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce element `i` (called at most once per index).
    fn get(&self, i: usize) -> Self::Item;

    /// Map each element through `f` in parallel.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Run `f` on every element in parallel.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        run_indexed(self.len(), |i| f(self.get(i)));
    }

    /// Collect all elements in input order.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(run_indexed(self.len(), |i| self.get(i)))
    }

    /// Collect, dropping `None` results of `f`, preserving input order.
    fn filter_map<U: Send, F: Fn(Self::Item) -> Option<U> + Sync>(
        self,
        f: F,
    ) -> FilterMap<Self, F> {
        FilterMap { inner: self, f }
    }
}

/// Parallel iterator over a slice.
pub struct SliceIter<'a, T> {
    data: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, i: usize) -> &'a T {
        &self.data[i]
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct RangeIter {
    start: usize,
    end: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn get(&self, i: usize) -> usize {
        self.start + i
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = RangeIter;
    fn into_par_iter(self) -> RangeIter {
        RangeIter {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Owning parallel iterator over a `Vec` (elements are cloned out by
/// index; real rayon moves them, but clone-on-get keeps the indexed model
/// simple and every use site hands in cheap items).
pub struct VecIter<T> {
    data: Vec<T>,
}

impl<T: Clone + Send + Sync> ParallelIterator for VecIter<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, i: usize) -> T {
        self.data[i].clone()
    }
}

impl<T: Clone + Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { data: self }
    }
}

/// Map adapter.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, U, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    I::Item: Send,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    type Item = U;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, i: usize) -> U {
        (self.f)(self.inner.get(i))
    }
}

/// FilterMap adapter. Because the shim's model is indexed, this adapter is
/// terminal-only: call `collect` on it (element count is unknown until
/// execution).
pub struct FilterMap<I, F> {
    inner: I,
    f: F,
}

impl<I, U, F> FilterMap<I, F>
where
    I: ParallelIterator,
    I::Item: Send,
    U: Send,
    F: Fn(I::Item) -> Option<U> + Sync,
{
    /// Collect the `Some` results in input order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let opts = run_indexed(self.inner.len(), |i| (self.f)(self.inner.get(i)));
        C::from(opts.into_iter().flatten().collect::<Vec<U>>())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Run `f` with its parallel calls on `pool` instead of the
    /// process-wide pool, whose size follows `RAYON_NUM_THREADS`.
    fn with_pool<R>(pool: &'static Pool, f: impl FnOnce() -> R) -> R {
        let _context = ContextGuard::enter(Context {
            pool: Some(pool),
            ..Context::default()
        });
        f()
    }

    /// Wait (bounded) until `flag` is set; returns whether it was.
    fn wait_for(flag: &AtomicBool, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_filter_map() {
        let out: Vec<usize> = (0..100usize)
            .into_par_iter()
            .filter_map(|x| (x % 3 == 0).then_some(x))
            .collect();
        assert_eq!(out, (0..100).step_by(3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_install_caps_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 2);
            let out: Vec<usize> = (0..64usize).into_par_iter().map(|x| x + 1).collect();
            assert_eq!(out.len(), 64);
        });
    }

    #[test]
    fn thread_count_resolution_has_one_source() {
        assert_eq!(resolve_threads(3, Some("8"), 2), 3, "explicit count wins");
        assert_eq!(
            resolve_threads(0, Some("8"), 2),
            8,
            "then RAYON_NUM_THREADS"
        );
        assert_eq!(resolve_threads(0, Some(" 5 "), 2), 5);
        assert_eq!(resolve_threads(0, Some("0"), 2), 2, "0 means auto");
        assert_eq!(
            resolve_threads(0, Some("many"), 2),
            2,
            "unparsable means auto"
        );
        assert_eq!(resolve_threads(0, None, 4), 4);
        assert_eq!(resolve_threads(0, None, 0), 1);
        // The auto-sized builder, the free function and the process pool
        // agree.
        let auto = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert_eq!(auto.current_num_threads(), current_num_threads());
        assert_eq!(pool().workers + 1, current_num_threads());
    }

    /// Run `n` items in parallel where item 0 finishes only once item 1
    /// has started; true if it did, within a bounded wait.
    fn item_one_overlaps_item_zero(n: usize) -> bool {
        let started = AtomicBool::new(false);
        let out: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|i| match i {
                0 => wait_for(&started, Duration::from_secs(10)),
                1 => {
                    started.store(true, Ordering::SeqCst);
                    true
                }
                _ => true,
            })
            .collect();
        out.iter().all(|&ok| ok)
    }

    #[test]
    fn indices_are_claimed_dynamically() {
        // Three items on two threads: the second thread must claim index
        // 1 while index 0 runs. Static halves ({0, 1} and {2}) would put
        // both on one thread and time out.
        assert!(with_pool(Pool::start(1), || item_one_overlaps_item_zero(3)));
    }

    #[test]
    fn nested_call_uses_the_idle_thread() {
        // Outer calls of one item (run on the caller) and of two items
        // (the second returns at once): either way one of the two
        // threads is idle while the nested call runs, and must join it.
        for outer in [1usize, 2] {
            let out: Vec<bool> = with_pool(Pool::start(1), || {
                (0..outer)
                    .into_par_iter()
                    .map(|i| i != 0 || item_one_overlaps_item_zero(2))
                    .collect()
            });
            assert!(
                out.iter().all(|&ok| ok),
                "outer call of {outer}: nested items ran one after another"
            );
        }
    }

    #[test]
    fn waiting_caller_runs_nested_work_of_its_own_call() {
        // Two items: the caller's waits until the worker holds the other,
        // whose nested call needs a second thread. The only other thread
        // is the caller, parked on its own call: it must run the nested
        // item.
        let caller = std::thread::current().id();
        let on_worker = AtomicBool::new(false);
        let out: Vec<bool> = with_pool(Pool::start(1), || {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    if std::thread::current().id() == caller {
                        wait_for(&on_worker, Duration::from_secs(10))
                    } else {
                        on_worker.store(true, Ordering::SeqCst);
                        item_one_overlaps_item_zero(2)
                    }
                })
                .collect()
        });
        assert!(
            on_worker.load(Ordering::SeqCst),
            "the worker never claimed an item"
        );
        assert!(
            out.iter().all(|&ok| ok),
            "the parked caller left its nested work unclaimed"
        );
    }

    #[test]
    fn panic_reraises_after_claimed_items_and_pool_survives() {
        let pool = Pool::start(1);
        let slow_finished = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_pool(pool, || {
                (0..4usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 0 {
                            std::thread::sleep(Duration::from_millis(50));
                            slow_finished.store(true, Ordering::SeqCst);
                        }
                        if i == 1 {
                            panic!("element {i} failed");
                        }
                        i
                    })
                    .collect::<Vec<usize>>()
            })
        }));
        let payload = caught.expect_err("the element panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("element 1 failed")
        );
        assert!(
            slow_finished.load(Ordering::SeqCst),
            "the caller resumed the panic before a claimed element finished"
        );
        let again: Vec<usize> = with_pool(pool, || {
            (0..16usize).into_par_iter().map(|i| i * i).collect()
        });
        assert_eq!(again, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_results_keep_index_order() {
        let expected: Vec<Vec<(usize, usize)>> =
            (0..8).map(|i| (0..16).map(|j| (i, j)).collect()).collect();
        let nested = || -> Vec<Vec<(usize, usize)>> {
            (0..8usize)
                .into_par_iter()
                .map(|i| (0..16usize).into_par_iter().map(|j| (i, j)).collect())
                .collect()
        };
        assert_eq!(with_pool(Pool::start(1), nested), expected);
        assert_eq!(nested(), expected);
    }

    #[test]
    fn nested_parallelism_stays_within_pool_bound() {
        // Inner par_iter calls run inside pool workers; total concurrency
        // must stay at the pool width, not workers x inner threads.
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let results: Vec<usize> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let inner: Vec<usize> = (0..16usize)
                        .into_par_iter()
                        .map(|j| {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            live.fetch_sub(1, Ordering::SeqCst);
                            i + j
                        })
                        .collect();
                    inner.len()
                })
                .collect()
        });
        assert_eq!(results, vec![16usize; 8]);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "nested work exceeded the pool bound: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn for_each_runs_every_element() {
        let count = AtomicUsize::new(0);
        let v: Vec<usize> = (0..257).collect();
        v.par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }
}
