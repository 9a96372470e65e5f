//! Real parallel execution with per-task timing.
//!
//! This is where the join work actually happens. Items are processed on
//! `threads` OS threads under either dynamic (work-queue) or static
//! (pre-chunked) scheduling — mirroring the Spark-vs-OpenMP-static
//! contrast the paper analyses — and each item's wall-clock cost is
//! recorded so the [`crate::sim`] replay can scale the run to any
//! cluster size.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How items are handed to worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Shared counter; each worker grabs the next unprocessed item.
    Dynamic,
    /// Contiguous chunks assigned up front (OpenMP `schedule(static)`).
    Static,
    /// Static assignment by a per-item locality hint (Impala's
    /// scan-range assignment, stood in for by the grid/STR partition of
    /// the data): item `i` is pre-assigned to worker `hint[i] % threads`.
    /// Items without a hint — or runs without any hints at all, such as
    /// [`run_tasks`] and plain [`run_morsels`] — fall back to static
    /// chunking. Hints are supplied via [`run_morsels_hinted`].
    StaticLocality,
}

/// Worker pre-assigned to item `i` of `n` under static chunking — the
/// exact inverse of the `[w*n/threads, (w+1)*n/threads)` chunk bounds
/// the static arms iterate, so hint fallback and plain static mode
/// agree on every item.
#[inline]
fn chunk_worker(i: usize, n: usize, threads: usize) -> usize {
    ((i + 1) * threads).div_ceil(n.max(1)).saturating_sub(1)
}

/// Worker pre-assigned to item `i` under [`ScheduleMode::StaticLocality`]:
/// the hinted worker when a hint exists, the static chunk otherwise.
#[inline]
fn hinted_worker(i: usize, n: usize, threads: usize, hints: &[usize]) -> usize {
    match hints.get(i) {
        Some(&h) => h % threads,
        None => chunk_worker(i, n, threads),
    }
}

/// Measured timing of one item.
#[derive(Debug, Clone, Copy)]
pub struct TaskTiming {
    /// Item index in the input order.
    pub index: usize,
    /// Worker thread that ran the item.
    pub worker: usize,
    /// Wall-clock seconds the item took.
    pub secs: f64,
}

/// The obs dispatch label for a schedule mode. Items are charged to the
/// *requested* mode even where the implementation degenerates (locality
/// without hints, the single-thread inline path), so counters are
/// identical across thread counts.
fn dispatch_mode(mode: ScheduleMode) -> obs::DispatchMode {
    match mode {
        ScheduleMode::Dynamic => obs::DispatchMode::Dynamic,
        ScheduleMode::Static => obs::DispatchMode::Static,
        ScheduleMode::StaticLocality => obs::DispatchMode::StaticLocality,
    }
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Runs `f` over `items` on `threads` threads, returning the results in
/// input order together with per-item timings.
///
/// The closure runs on multiple threads, hence `Sync`; results are
/// collected per worker and stitched back in order. Worker-side obs
/// counters are folded into the calling thread's cells; use
/// [`run_tasks_observed`] to receive them explicitly instead.
pub fn run_tasks<T, R, F>(
    items: Vec<T>,
    threads: usize,
    mode: ScheduleMode,
    f: F,
) -> (Vec<R>, Vec<TaskTiming>)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, timings, exec) = run_tasks_observed(items, threads, mode, f);
    obs::add_thread(&exec.worker_counters);
    (results, timings)
}

/// [`run_tasks`] returning an [`obs::ExecStats`]: the scoped workers'
/// counters (zero on the inline single-thread path, where counts land in
/// the calling thread's cells) plus per-worker busy/wait accounting.
pub fn run_tasks_observed<T, R, F>(
    items: Vec<T>,
    threads: usize,
    mode: ScheduleMode,
    f: F,
) -> (Vec<R>, Vec<TaskTiming>, obs::ExecStats)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1);
    let n = items.len();
    let dmode = dispatch_mode(mode);
    if n == 0 {
        return (Vec::new(), Vec::new(), obs::ExecStats::default());
    }
    // Single-threaded fast path keeps the measurement overhead obvious.
    if threads == 1 {
        let mut results = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        let mut busy_ns: u64 = 0;
        for (index, item) in items.iter().enumerate() {
            let t0 = Instant::now();
            results.push(f(item));
            let elapsed = t0.elapsed();
            busy_ns = busy_ns.saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
            obs::morsel(dmode);
            timings.push(TaskTiming {
                index,
                worker: 0,
                secs: elapsed.as_secs_f64(),
            });
        }
        let exec = obs::ExecStats {
            worker_counters: obs::Counters::default(),
            workers: vec![obs::WorkerStats {
                worker: 0,
                items: n as u64,
                busy_ns,
                wait_ns: 0,
            }],
        };
        return (results, timings, exec);
    }

    let counter = AtomicUsize::new(0);
    let items_ref = &items;
    let f_ref = &f;
    let mut per_worker: Vec<Vec<(usize, R, f64)>> = Vec::with_capacity(threads);
    let mut exec = obs::ExecStats::default();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let counter = &counter;
            handles.push(scope.spawn(move || {
                let wall0 = Instant::now();
                let mut busy_ns: u64 = 0;
                let mut local: Vec<(usize, R, f64)> = Vec::with_capacity(n / threads + 1);
                match mode {
                    ScheduleMode::Dynamic => loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        let r = f_ref(&items_ref[i]);
                        let elapsed = t0.elapsed();
                        busy_ns =
                            busy_ns.saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
                        obs::morsel(dmode);
                        local.push((i, r, elapsed.as_secs_f64()));
                    },
                    // run_tasks carries no per-item hints, so locality
                    // degenerates to its static-chunking fallback.
                    ScheduleMode::Static | ScheduleMode::StaticLocality => {
                        let start = (w * n) / threads;
                        let end = ((w + 1) * n) / threads;
                        for (off, item) in items_ref[start..end].iter().enumerate() {
                            let t0 = Instant::now();
                            let r = f_ref(item);
                            let elapsed = t0.elapsed();
                            busy_ns = busy_ns
                                .saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
                            obs::morsel(dmode);
                            local.push((start + off, r, elapsed.as_secs_f64()));
                        }
                    }
                }
                let wall_ns = elapsed_ns(wall0);
                let stats = obs::WorkerStats {
                    worker: w,
                    items: local.len() as u64,
                    busy_ns,
                    wait_ns: wall_ns.saturating_sub(busy_ns),
                };
                // Fresh scoped threads start with zeroed cells, so the
                // drain is exactly what this worker accumulated.
                (local, stats, obs::take_thread())
            }));
        }
        for h in handles {
            match h.join() {
                Ok((local, stats, counters)) => {
                    per_worker.push(local);
                    exec.workers.push(stats);
                    exec.worker_counters = exec.worker_counters.plus(&counters);
                }
                // A worker panicking is a bug in the caller's closure;
                // surface it on the driver thread with the same message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Stitch results back into input order. Workers process disjoint
    // index sets covering 0..n, so sorting the tagged results restores
    // the original order without an Option-per-slot intermediate.
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (w, local) in per_worker.into_iter().enumerate() {
        for (index, r, secs) in local {
            indexed.push((index, r));
            timings.push(TaskTiming {
                index,
                worker: w,
                secs,
            });
        }
    }
    timings.sort_by_key(|t| t.index);
    indexed.sort_by_key(|&(index, _)| index);
    let results = indexed.into_iter().map(|(_, r)| r).collect();
    (results, timings, exec)
}

/// Runs `f` over fixed-size morsels (slices of some larger input) on
/// `threads` threads, concatenating the per-morsel output segments back
/// in input order.
///
/// Unlike [`run_tasks`], the closure appends an arbitrary number of
/// results per morsel into that morsel's own output segment; the
/// driver stitches the segments in morsel order into one presized
/// result, so the concatenated output is byte-identical to running the
/// morsels serially. Timings are per morsel, indexed by morsel
/// position.
pub fn run_morsels<T, R, F>(
    morsels: &[&[T]],
    threads: usize,
    mode: ScheduleMode,
    f: F,
) -> (Vec<R>, Vec<TaskTiming>)
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut Vec<R>) + Sync,
{
    run_morsels_hinted(morsels, &[], threads, mode, f)
}

/// [`run_morsels`] returning an [`obs::ExecStats`] (see
/// [`run_tasks_observed`] for the collection contract).
pub fn run_morsels_observed<T, R, F>(
    morsels: &[&[T]],
    threads: usize,
    mode: ScheduleMode,
    f: F,
) -> (Vec<R>, Vec<TaskTiming>, obs::ExecStats)
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut Vec<R>) + Sync,
{
    run_morsels_hinted_observed(morsels, &[], threads, mode, f)
}

/// [`run_morsels`] with per-morsel locality hints.
///
/// `hints[i]` is morsel `i`'s preferred-worker key (a partition or
/// block id — any `usize`; it is taken modulo `threads`). Hints only
/// decide *who* runs a morsel under [`ScheduleMode::StaticLocality`];
/// output order and content are identical to every other mode. A
/// `hints` slice shorter than `morsels` (including empty) falls back to
/// static chunking for the uncovered tail.
pub fn run_morsels_hinted<T, R, F>(
    morsels: &[&[T]],
    hints: &[usize],
    threads: usize,
    mode: ScheduleMode,
    f: F,
) -> (Vec<R>, Vec<TaskTiming>)
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut Vec<R>) + Sync,
{
    let (out, timings, exec) = run_morsels_hinted_observed(morsels, hints, threads, mode, f);
    obs::add_thread(&exec.worker_counters);
    (out, timings)
}

/// [`run_morsels_hinted`] returning an [`obs::ExecStats`] (see
/// [`run_tasks_observed`] for the collection contract).
pub fn run_morsels_hinted_observed<T, R, F>(
    morsels: &[&[T]],
    hints: &[usize],
    threads: usize,
    mode: ScheduleMode,
    f: F,
) -> (Vec<R>, Vec<TaskTiming>, obs::ExecStats)
where
    T: Sync,
    R: Send,
    F: Fn(&[T], &mut Vec<R>) + Sync,
{
    let threads = threads.max(1);
    let n = morsels.len();
    let dmode = dispatch_mode(mode);
    if n == 0 {
        return (Vec::new(), Vec::new(), obs::ExecStats::default());
    }
    if threads == 1 {
        let mut out = Vec::new();
        let mut timings = Vec::with_capacity(n);
        let mut busy_ns: u64 = 0;
        for (index, m) in morsels.iter().enumerate() {
            let t0 = Instant::now();
            f(m, &mut out);
            let elapsed = t0.elapsed();
            busy_ns = busy_ns.saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
            obs::morsel(dmode);
            timings.push(TaskTiming {
                index,
                worker: 0,
                secs: elapsed.as_secs_f64(),
            });
        }
        let exec = obs::ExecStats {
            worker_counters: obs::Counters::default(),
            workers: vec![obs::WorkerStats {
                worker: 0,
                items: n as u64,
                busy_ns,
                wait_ns: 0,
            }],
        };
        return (out, timings, exec);
    }

    let counter = AtomicUsize::new(0);
    let f_ref = &f;
    // Each worker returns, per morsel it ran, `(morsel index, output
    // segment, secs)`. Every morsel appends into a segment of its own
    // (presized to the worker's previous segment), so no morsel pays
    // for re-growing output that earlier morsels wrote.
    type Segs<R> = Vec<(usize, Vec<R>, f64)>;
    let mut per_worker: Vec<Segs<R>> = Vec::with_capacity(threads);
    let mut exec = obs::ExecStats::default();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let counter = &counter;
            handles.push(scope.spawn(move || {
                let wall0 = Instant::now();
                let mut busy_ns: u64 = 0;
                let mut segs: Segs<R> = Vec::with_capacity(n / threads + 1);
                let mut last_len = 0usize;
                let mut run = |i: usize, m: &[T]| {
                    let t0 = Instant::now();
                    let mut seg = Vec::with_capacity(last_len);
                    f_ref(m, &mut seg);
                    let elapsed = t0.elapsed();
                    busy_ns =
                        busy_ns.saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
                    obs::morsel(dmode);
                    last_len = seg.len();
                    segs.push((i, seg, elapsed.as_secs_f64()));
                };
                match mode {
                    ScheduleMode::Dynamic => loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        run(i, morsels[i]);
                    },
                    ScheduleMode::Static => {
                        let start = (w * n) / threads;
                        let end = ((w + 1) * n) / threads;
                        for i in start..end {
                            run(i, morsels[i]);
                        }
                    }
                    ScheduleMode::StaticLocality => {
                        for i in 0..n {
                            if hinted_worker(i, n, threads, hints) == w {
                                run(i, morsels[i]);
                            }
                        }
                    }
                }
                drop(run);
                let wall_ns = elapsed_ns(wall0);
                let stats = obs::WorkerStats {
                    worker: w,
                    items: segs.len() as u64,
                    busy_ns,
                    wait_ns: wall_ns.saturating_sub(busy_ns),
                };
                (segs, stats, obs::take_thread())
            }));
        }
        for h in handles {
            match h.join() {
                Ok((segs, stats, counters)) => {
                    per_worker.push(segs);
                    exec.workers.push(stats);
                    exec.worker_counters = exec.worker_counters.plus(&counters);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Stitch: order the segments by morsel index and move each into
    // one result presized to the total — no element is cloned and the
    // result never re-grows.
    let mut order: Vec<(usize, Vec<R>)> = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (w, segs) in per_worker.into_iter().enumerate() {
        for (index, seg, secs) in segs {
            order.push((index, seg));
            timings.push(TaskTiming {
                index,
                worker: w,
                secs,
            });
        }
    }
    order.sort_unstable_by_key(|&(index, _)| index);
    timings.sort_by_key(|t| t.index);
    let total: usize = order.iter().map(|(_, seg)| seg.len()).sum();
    let mut out = Vec::with_capacity(total);
    for (_, mut seg) in order {
        out.append(&mut seg);
    }
    (out, timings, exec)
}

// ---------------------------------------------------------------------
// fault-tolerant execution: catch_unwind capture + bounded re-dispatch
// ---------------------------------------------------------------------

/// How many times a panicking item is re-dispatched before it is
/// reported as failed, and how long to back off between attempts.
///
/// `max_attempts` counts *total* attempts, so `RetryPolicy::none()`
/// (one attempt, no retry) reproduces fail-fast semantics and
/// `attempts(3)` allows two re-dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per item, including the first. Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Sleep between attempts (a stand-in for task re-launch latency).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// One attempt, no backoff: a panic fails the item immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// `n` total attempts with no backoff.
    pub fn attempts(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: n.max(1),
            backoff: Duration::ZERO,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// One item that still had a panic in flight after every permitted
/// attempt. The panic payload is flattened to its message so failures
/// stay `Send + Clone` and printable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Item index in the input order.
    pub index: usize,
    /// Attempts consumed (equals the policy's `max_attempts`).
    pub attempts: u32,
    /// The panic message of the final attempt.
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str().into()
    } else {
        "task panicked".into()
    }
}

/// Outcome of [`run_tasks_faulted`]: results in input order with
/// `None` holes where an item exhausted its attempts.
#[derive(Debug)]
pub struct FaultedTasks<R> {
    /// Per-item results in input order; `None` marks a failed item.
    pub results: Vec<Option<R>>,
    /// Items that exhausted every attempt, in index order.
    pub failures: Vec<TaskFailure>,
    /// Timings of successful items (covering all attempts, including
    /// failed ones that were retried).
    pub timings: Vec<TaskTiming>,
    /// Worker counters and busy/wait accounting.
    pub exec: obs::ExecStats,
}

impl<R> FaultedTasks<R> {
    /// True when every item completed.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwraps into plain results when nothing failed.
    pub fn into_results(self) -> Result<Vec<R>, Vec<TaskFailure>> {
        if self.failures.is_empty() {
            Ok(self.results.into_iter().flatten().collect())
        } else {
            Err(self.failures)
        }
    }
}

/// Outcome of [`run_morsels_faulted`]: the stitched output of every
/// *successful* morsel (failed morsels contribute nothing — their
/// partial output is rolled back, never leaked).
#[derive(Debug)]
pub struct FaultedMorsels<R> {
    /// Concatenated output of successful morsels, in input order.
    pub out: Vec<R>,
    /// Morsels that exhausted every attempt, in index order.
    pub failures: Vec<TaskFailure>,
    /// Timings of successful morsels.
    pub timings: Vec<TaskTiming>,
    /// Worker counters and busy/wait accounting.
    pub exec: obs::ExecStats,
}

impl<R> FaultedMorsels<R> {
    /// True when every morsel completed.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one item to completion or exhaustion under `policy`, capturing
/// panics with `catch_unwind`. Returns the result and the attempts
/// consumed. The closure receives the zero-based attempt number so a
/// deterministic injector can fail early attempts and pass later ones.
fn attempt_loop<R>(
    policy: RetryPolicy,
    mut body: impl FnMut(u32) -> R,
) -> (Result<R, String>, u32) {
    let max = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| body(attempt))) {
            Ok(r) => return (Ok(r), attempt + 1),
            Err(payload) => {
                attempt += 1;
                if attempt >= max {
                    return (Err(panic_message(payload.as_ref())), attempt);
                }
                obs::task_retry();
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff);
                }
            }
        }
    }
}

/// [`run_tasks`] with panic capture and bounded re-dispatch.
///
/// Each item runs under `catch_unwind`; a panicking attempt is retried
/// in place (bounded by `policy`) and an item that exhausts its
/// attempts becomes a `None` hole plus a [`TaskFailure`] — the driver
/// never unwinds. On an all-success run the results are bit-identical
/// to [`run_tasks`] at any thread count. The closure additionally
/// receives `(index, attempt)` so fault injectors can key decisions.
pub fn run_tasks_faulted<T, R, F>(
    items: &[T],
    threads: usize,
    mode: ScheduleMode,
    policy: RetryPolicy,
    f: F,
) -> FaultedTasks<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, u32, &T) -> R + Sync,
{
    let threads = threads.max(1);
    let n = items.len();
    let dmode = dispatch_mode(mode);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut failures: Vec<TaskFailure> = Vec::new();
    let mut timings: Vec<TaskTiming> = Vec::with_capacity(n);
    let mut exec = obs::ExecStats::default();
    if n == 0 {
        return FaultedTasks {
            results,
            failures,
            timings,
            exec,
        };
    }

    // Per-item work shared by the inline and threaded paths.
    type Ran<R> = (usize, Result<R, (u32, String)>, f64);
    let run_one = |i: usize| -> Ran<R> {
        let t0 = Instant::now();
        let (outcome, attempts) = attempt_loop(policy, |attempt| f(i, attempt, &items[i]));
        obs::morsel(dmode);
        let secs = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(r) => (i, Ok(r), secs),
            Err(message) => (i, Err((attempts, message)), secs),
        }
    };

    let mut place = |ran: Ran<R>, worker: usize| {
        let (index, outcome, secs) = ran;
        match outcome {
            Ok(r) => {
                results[index] = Some(r);
                timings.push(TaskTiming {
                    index,
                    worker,
                    secs,
                });
            }
            Err((attempts, message)) => failures.push(TaskFailure {
                index,
                attempts,
                message,
            }),
        }
    };

    if threads == 1 {
        let mut busy_ns: u64 = 0;
        for i in 0..n {
            let t0 = Instant::now();
            let ran = run_one(i);
            busy_ns = busy_ns.saturating_add(elapsed_ns(t0));
            place(ran, 0);
        }
        exec.workers.push(obs::WorkerStats {
            worker: 0,
            items: n as u64,
            busy_ns,
            wait_ns: 0,
        });
    } else {
        let counter = AtomicUsize::new(0);
        let run_ref = &run_one;
        let mut per_worker: Vec<Vec<Ran<R>>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let counter = &counter;
                handles.push(scope.spawn(move || {
                    let wall0 = Instant::now();
                    let mut busy_ns: u64 = 0;
                    let mut local: Vec<Ran<R>> = Vec::with_capacity(n / threads + 1);
                    match mode {
                        ScheduleMode::Dynamic => loop {
                            let i = counter.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t0 = Instant::now();
                            local.push(run_ref(i));
                            busy_ns = busy_ns.saturating_add(elapsed_ns(t0));
                        },
                        ScheduleMode::Static | ScheduleMode::StaticLocality => {
                            let start = (w * n) / threads;
                            let end = ((w + 1) * n) / threads;
                            for i in start..end {
                                let t0 = Instant::now();
                                local.push(run_ref(i));
                                busy_ns = busy_ns.saturating_add(elapsed_ns(t0));
                            }
                        }
                    }
                    let wall_ns = elapsed_ns(wall0);
                    let stats = obs::WorkerStats {
                        worker: w,
                        items: local.len() as u64,
                        busy_ns,
                        wait_ns: wall_ns.saturating_sub(busy_ns),
                    };
                    (local, stats, obs::take_thread())
                }));
            }
            for h in handles {
                match h.join() {
                    Ok((local, stats, counters)) => {
                        per_worker.push(local);
                        exec.workers.push(stats);
                        exec.worker_counters = exec.worker_counters.plus(&counters);
                    }
                    // Workers cannot unwind out of attempt_loop; a join
                    // error means the runtime itself failed.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        for (w, local) in per_worker.into_iter().enumerate() {
            for ran in local {
                place(ran, w);
            }
        }
    }
    drop(place);
    timings.sort_by_key(|t| t.index);
    failures.sort_by_key(|fl| fl.index);
    FaultedTasks {
        results,
        failures,
        timings,
        exec,
    }
}

/// [`run_morsels_hinted`] with panic capture and bounded re-dispatch.
///
/// A panicking attempt has its partial output rolled back (the buffer
/// is truncated to the pre-morsel length) before the morsel is retried
/// or reported failed, so failed attempts never leak rows and an
/// all-success run is bit-identical to the plain path at any thread
/// count. The closure receives `(index, attempt, morsel, out)`.
pub fn run_morsels_faulted<T, R, F>(
    morsels: &[&[T]],
    hints: &[usize],
    threads: usize,
    mode: ScheduleMode,
    policy: RetryPolicy,
    f: F,
) -> FaultedMorsels<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, u32, &[T], &mut Vec<R>) + Sync,
{
    let threads = threads.max(1);
    let n = morsels.len();
    let dmode = dispatch_mode(mode);
    if n == 0 {
        return FaultedMorsels {
            out: Vec::new(),
            failures: Vec::new(),
            timings: Vec::new(),
            exec: obs::ExecStats::default(),
        };
    }

    let f_ref = &f;
    // Per worker: output buffer, successful `(index, len, secs)`
    // segments, and failures.
    type Segs = Vec<(usize, usize, f64)>;
    type WorkerOut<R> = (Vec<R>, Segs, Vec<TaskFailure>);
    let worker_loop = |w: usize, pick: &dyn Fn(usize) -> bool, next: Option<&AtomicUsize>| {
        let mut buf: Vec<R> = Vec::new();
        let mut segs: Segs = Vec::with_capacity(n / threads + 1);
        let mut failures: Vec<TaskFailure> = Vec::new();
        let mut busy_ns: u64 = 0;
        let wall0 = Instant::now();
        let mut run = |i: usize| {
            let before = buf.len();
            let t0 = Instant::now();
            let (outcome, attempts) = attempt_loop(policy, |attempt| {
                // Roll back the previous attempt's partial output
                // before re-running, preserving the stitch contract.
                buf.truncate(before);
                f_ref(i, attempt, morsels[i], &mut buf);
            });
            let elapsed = t0.elapsed();
            busy_ns = busy_ns.saturating_add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
            obs::morsel(dmode);
            match outcome {
                Ok(()) => segs.push((i, buf.len() - before, elapsed.as_secs_f64())),
                Err(message) => {
                    buf.truncate(before);
                    failures.push(TaskFailure {
                        index: i,
                        attempts,
                        message,
                    });
                }
            }
        };
        match next {
            Some(counter) => loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                run(i);
            },
            None => {
                for i in 0..n {
                    if pick(i) {
                        run(i);
                    }
                }
            }
        }
        drop(run);
        let wall_ns = elapsed_ns(wall0);
        let stats = obs::WorkerStats {
            worker: w,
            items: segs.len() as u64 + failures.len() as u64,
            busy_ns,
            wait_ns: wall_ns.saturating_sub(busy_ns),
        };
        ((buf, segs, failures), stats)
    };

    let mut per_worker: Vec<WorkerOut<R>> = Vec::with_capacity(threads);
    let mut exec = obs::ExecStats::default();
    if threads == 1 {
        let (wout, stats) = worker_loop(0, &|_| true, None);
        per_worker.push(wout);
        exec.workers.push(stats);
    } else {
        let counter = AtomicUsize::new(0);
        let worker_ref = &worker_loop;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let counter = &counter;
                handles.push(scope.spawn(move || {
                    let (wout, stats) = match mode {
                        ScheduleMode::Dynamic => worker_ref(w, &|_| true, Some(counter)),
                        ScheduleMode::Static => worker_ref(
                            w,
                            &move |i| {
                                let start = (w * n) / threads;
                                let end = ((w + 1) * n) / threads;
                                i >= start && i < end
                            },
                            None,
                        ),
                        ScheduleMode::StaticLocality => {
                            worker_ref(w, &move |i| hinted_worker(i, n, threads, hints) == w, None)
                        }
                    };
                    (wout, stats, obs::take_thread())
                }));
            }
            for h in handles {
                match h.join() {
                    Ok((wout, stats, counters)) => {
                        per_worker.push(wout);
                        exec.workers.push(stats);
                        exec.worker_counters = exec.worker_counters.plus(&counters);
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
    }

    // Stitch successful segments exactly like the plain path; failed
    // morsels recorded nothing, so they simply leave a gap.
    let mut order: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    let mut failures: Vec<TaskFailure> = Vec::new();
    for (w, (_, segs, fails)) in per_worker.iter().enumerate() {
        for &(index, len, secs) in segs {
            order.push((index, w, len));
            timings.push(TaskTiming {
                index,
                worker: w,
                secs,
            });
        }
        failures.extend(fails.iter().cloned());
    }
    order.sort_unstable_by_key(|&(index, _, _)| index);
    timings.sort_by_key(|t| t.index);
    failures.sort_by_key(|fl| fl.index);
    let total: usize = order.iter().map(|&(_, _, len)| len).sum();
    let mut iters: Vec<std::vec::IntoIter<R>> = per_worker
        .into_iter()
        .map(|(buf, _, _)| buf.into_iter())
        .collect();
    let mut out = Vec::with_capacity(total);
    for (_, w, len) in order {
        out.extend(iters[w].by_ref().take(len));
    }
    FaultedMorsels {
        out,
        failures,
        timings,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            let (results, timings) = run_tasks(items.clone(), 4, mode, |&x| x * 2);
            assert_eq!(results, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(timings.len(), 1000);
            assert!(timings.iter().all(|t| t.secs >= 0.0));
            // Timings are in index order after stitching.
            assert!(timings.windows(2).all(|w| w[0].index < w[1].index));
        }
    }

    #[test]
    fn static_mode_assigns_contiguous_chunks() {
        let items: Vec<usize> = (0..100).collect();
        let (_, timings) = run_tasks(items, 4, ScheduleMode::Static, |&x| x);
        // Worker of item i must be i*4/100.
        for t in &timings {
            assert_eq!(t.worker, (t.index * 4) / 100);
        }
    }

    #[test]
    fn dynamic_mode_uses_multiple_workers() {
        let items: Vec<u64> = (0..400).collect();
        let (_, timings) = run_tasks(items, 4, ScheduleMode::Dynamic, |&x| {
            // Enough work per item that no single worker grabs everything.
            (0..2000).fold(x, |a, b| a.wrapping_add(b))
        });
        let workers: std::collections::HashSet<usize> = timings.iter().map(|t| t.worker).collect();
        assert!(workers.len() > 1, "expected >1 worker, got {workers:?}");
    }

    #[test]
    fn empty_and_single_item() {
        let (r, t) = run_tasks(Vec::<u8>::new(), 4, ScheduleMode::Dynamic, |&x| x);
        assert!(r.is_empty() && t.is_empty());
        let (r, t) = run_tasks(vec![7u8], 8, ScheduleMode::Static, |&x| x + 1);
        assert_eq!(r, vec![8]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn one_thread_runs_inline() {
        let (r, t) = run_tasks(vec![1, 2, 3], 1, ScheduleMode::Dynamic, |&x| x * 10);
        assert_eq!(r, vec![10, 20, 30]);
        assert!(t.iter().all(|x| x.worker == 0));
    }

    fn chunked(items: &[u64], size: usize) -> Vec<&[u64]> {
        items.chunks(size).collect()
    }

    #[test]
    fn morsels_concatenate_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().flat_map(|&x| [x * 2, x * 2 + 1]).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            for threads in [1, 3, 8] {
                for size in [1, 7, 128] {
                    let morsels = chunked(&items, size);
                    let (out, timings) = run_morsels(&morsels, threads, mode, |m, buf| {
                        for &x in m {
                            buf.push(x * 2);
                            buf.push(x * 2 + 1);
                        }
                    });
                    assert_eq!(out, serial, "mode={mode:?} threads={threads} size={size}");
                    assert_eq!(timings.len(), morsels.len());
                    assert!(timings.windows(2).all(|w| w[0].index < w[1].index));
                }
            }
        }
    }

    #[test]
    fn morsels_with_uneven_output_counts() {
        // Each morsel emits a different number of results (including 0).
        let items: Vec<u64> = (0..101).collect();
        let morsels = chunked(&items, 13);
        let (out, _) = run_morsels(&morsels, 4, ScheduleMode::Dynamic, |m, buf| {
            for &x in m {
                for _ in 0..(x % 3) {
                    buf.push(x);
                }
            }
        });
        let serial: Vec<u64> = items
            .iter()
            .flat_map(|&x| std::iter::repeat(x).take((x % 3) as usize))
            .collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn morsels_empty_input() {
        let (out, t) = run_morsels::<u8, u8, _>(&[], 4, ScheduleMode::Static, |_, _| {});
        assert!(out.is_empty() && t.is_empty());
    }

    #[test]
    fn locality_hints_pin_morsels_to_workers() {
        let items: Vec<u64> = (0..120).collect();
        let morsels = chunked(&items, 1);
        // Hint pattern: morsel i prefers worker (i % 3) of 4.
        let hints: Vec<usize> = (0..morsels.len()).map(|i| i % 3).collect();
        let (out, timings) = run_morsels_hinted(
            &morsels,
            &hints,
            4,
            ScheduleMode::StaticLocality,
            |m, buf| buf.extend_from_slice(m),
        );
        assert_eq!(out, items, "locality must not change output order");
        for t in &timings {
            assert_eq!(t.worker, hints[t.index] % 4, "morsel {} misplaced", t.index);
        }
    }

    #[test]
    fn locality_without_hints_falls_back_to_static_chunks() {
        let items: Vec<u64> = (0..103).collect();
        let morsels = chunked(&items, 1);
        let n = morsels.len();
        let (out, timings) = run_morsels(&morsels, 4, ScheduleMode::StaticLocality, |m, buf| {
            buf.extend_from_slice(m)
        });
        assert_eq!(out, items);
        // Fallback worker must match the static chunk that owns index i.
        for t in &timings {
            let w = t.worker;
            assert!(
                t.index >= (w * n) / 4 && t.index < ((w + 1) * n) / 4,
                "index {} outside worker {w}'s static chunk",
                t.index
            );
        }
    }

    #[test]
    fn partial_hints_cover_prefix_rest_chunked() {
        let items: Vec<u64> = (0..60).collect();
        let morsels = chunked(&items, 2);
        let hints = vec![1usize; 10]; // only the first 10 morsels hinted
        let (out, timings) = run_morsels_hinted(
            &morsels,
            &hints,
            3,
            ScheduleMode::StaticLocality,
            |m, buf| buf.extend_from_slice(m),
        );
        assert_eq!(out, items);
        for t in timings.iter().filter(|t| t.index < 10) {
            assert_eq!(t.worker, 1);
        }
    }

    #[test]
    fn locality_output_identical_across_modes() {
        let items: Vec<u64> = (0..500).collect();
        let morsels = chunked(&items, 7);
        let hints: Vec<usize> = (0..morsels.len()).map(|i| (i * 13) % 5).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for threads in [1, 2, 5, 8] {
            let (out, _) = run_morsels_hinted(
                &morsels,
                &hints,
                threads,
                ScheduleMode::StaticLocality,
                |m, buf| buf.extend(m.iter().map(|&x| x * 3)),
            );
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    /// Runs `f` with panic output suppressed — expected injected panics
    /// would otherwise spam the test log through the default hook.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn faulted_tasks_without_faults_match_plain() {
        let items: Vec<u64> = (0..300).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for mode in [
            ScheduleMode::Dynamic,
            ScheduleMode::Static,
            ScheduleMode::StaticLocality,
        ] {
            for threads in [1, 2, 7] {
                let run =
                    run_tasks_faulted(&items, threads, mode, RetryPolicy::none(), |_, _, &x| x * 3);
                assert!(run.all_ok());
                assert_eq!(run.into_results().ok(), Some(expected.clone()));
            }
        }
    }

    #[test]
    fn faulted_tasks_retry_recovers_and_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        for threads in [1, 4] {
            let run = quiet_panics(|| {
                run_tasks_faulted(
                    &items,
                    threads,
                    ScheduleMode::Dynamic,
                    RetryPolicy::attempts(2),
                    |i, attempt, &x| {
                        // Every third item dies on its first attempt.
                        assert!(attempt < 2);
                        if i % 3 == 0 && attempt == 0 {
                            std::panic::panic_any(format!("injected at {i}"));
                        }
                        x + 1
                    },
                )
            });
            assert!(run.all_ok(), "threads={threads}");
            assert_eq!(run.into_results().ok(), Some(expected.clone()));
        }
    }

    #[test]
    fn faulted_tasks_exhausted_attempts_reported() {
        let items: Vec<u64> = (0..50).collect();
        let run = quiet_panics(|| {
            run_tasks_faulted(
                &items,
                4,
                ScheduleMode::Static,
                RetryPolicy::attempts(3),
                |i, _, &x| {
                    if i == 17 {
                        std::panic::panic_any("always dies".to_string());
                    }
                    x
                },
            )
        });
        assert!(!run.all_ok());
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].index, 17);
        assert_eq!(run.failures[0].attempts, 3);
        assert_eq!(run.failures[0].message, "always dies");
        assert!(run.results[17].is_none());
        assert!(run
            .results
            .iter()
            .enumerate()
            .all(|(i, r)| { i == 17 || r == &Some(i as u64) }));
    }

    #[test]
    fn faulted_morsels_roll_back_partial_output() {
        let items: Vec<u64> = (0..400).collect();
        let morsels = chunked(&items, 16);
        let serial: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        for threads in [1, 2, 7] {
            let run = quiet_panics(|| {
                run_morsels_faulted(
                    &morsels,
                    &[],
                    threads,
                    ScheduleMode::Dynamic,
                    RetryPolicy::attempts(2),
                    |i, attempt, m, buf| {
                        for &x in m {
                            buf.push(x * 2);
                        }
                        // Panic *after* appending output: recovery must
                        // discard the partial segment before retrying.
                        if i % 4 == 1 && attempt == 0 {
                            std::panic::panic_any(format!("mid-morsel {i}"));
                        }
                    },
                )
            });
            assert!(run.all_ok(), "threads={threads}");
            assert_eq!(run.out, serial, "threads={threads}");
        }
    }

    #[test]
    fn faulted_morsels_failed_morsel_leaks_nothing() {
        let items: Vec<u64> = (0..100).collect();
        let morsels = chunked(&items, 10);
        let run = quiet_panics(|| {
            run_morsels_faulted(
                &morsels,
                &[],
                3,
                ScheduleMode::Static,
                RetryPolicy::none(),
                |i, _, m, buf| {
                    buf.extend_from_slice(m);
                    if i == 5 {
                        std::panic::panic_any("fragment lost".to_string());
                    }
                },
            )
        });
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].index, 5);
        // Output is every morsel except the failed one, still in order.
        let expected: Vec<u64> = items
            .iter()
            .copied()
            .filter(|&x| !(50..60).contains(&x))
            .collect();
        assert_eq!(run.out, expected);
    }

    #[test]
    fn morsels_static_assigns_contiguous_chunks() {
        let items: Vec<u64> = (0..100).collect();
        let morsels = chunked(&items, 1);
        let (_, timings) = run_morsels(&morsels, 4, ScheduleMode::Static, |m, buf| {
            buf.extend_from_slice(m);
        });
        for t in &timings {
            assert_eq!(t.worker, (t.index * 4) / 100);
        }
    }
}
