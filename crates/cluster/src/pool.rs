//! Real parallel execution with per-unit timing.
//!
//! This is where the join work actually happens. Units of work are
//! processed on `threads` OS threads under either dynamic (work-queue)
//! or static (pre-chunked) scheduling — mirroring the Spark-vs-OpenMP-
//! static contrast the paper analyses — and each unit's wall-clock cost
//! is recorded so the [`crate::sim`] replay can scale the run to any
//! cluster size.
//!
//! There is one entry point, [`dispatch`]. A unit is an index in
//! `0..n`; the closure appends any number of results for it (a task
//! appends one, a probe morsel its pairs), and the driver stitches the
//! per-unit output back in index order. Every panic is caught and the
//! unit retried under the [`RetryPolicy`]; what happens to a unit that
//! exhausts its attempts is the caller's decision.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How units are handed to worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Shared counter; each worker grabs the next unprocessed unit.
    Dynamic,
    /// Contiguous chunks assigned up front (OpenMP `schedule(static)`).
    Static,
    /// Static assignment by a per-unit locality hint (Impala's
    /// scan-range assignment, stood in for by the grid/STR partition of
    /// the data): unit `i` is pre-assigned to worker `hints[i] % threads`.
    /// Units without a hint — including every unit of a run with empty
    /// [`PoolOptions::hints`] — fall back to static chunking.
    StaticLocality,
}

/// Worker pre-assigned to unit `i` of `n` under static chunking — the
/// exact inverse of the `[w*n/threads, (w+1)*n/threads)` chunk bounds,
/// so hint fallback and plain static mode agree on every unit.
#[inline]
fn chunk_worker(i: usize, n: usize, threads: usize) -> usize {
    ((i + 1) * threads).div_ceil(n.max(1)).saturating_sub(1)
}

/// Worker pre-assigned to unit `i` under [`ScheduleMode::StaticLocality`]:
/// the hinted worker when a hint exists, the static chunk otherwise.
#[inline]
fn hinted_worker(i: usize, n: usize, threads: usize, hints: &[usize]) -> usize {
    match hints.get(i) {
        Some(&h) => h % threads,
        None => chunk_worker(i, n, threads),
    }
}

/// Measured timing of one unit.
#[derive(Debug, Clone, Copy)]
pub struct TaskTiming {
    /// Unit index in the input order.
    pub index: usize,
    /// Worker thread that ran the unit.
    pub worker: usize,
    /// Wall-clock seconds the unit took, every attempt included.
    pub secs: f64,
}

/// The obs dispatch label for a schedule mode. Units are charged to the
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

/// How many times a panicking unit is re-dispatched before it is
/// reported as failed, and how long to back off between attempts.
///
/// `max_attempts` counts *total* attempts, so `RetryPolicy::none()`
/// (one attempt, no retry) reproduces fail-fast semantics and
/// `attempts(3)` allows two re-dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per unit, including the first. Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Sleep between attempts (a stand-in for task re-launch latency).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// One attempt, no backoff: a panic fails the unit immediately.
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

/// One unit that still had a panic in flight after every permitted
/// attempt. The panic payload is flattened to its message so failures
/// stay `Send + Clone` and printable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Unit index in the input order.
    pub index: usize,
    /// Attempts consumed (equals the policy's `max_attempts`).
    pub attempts: u32,
    /// The panic message of the final attempt.
    pub message: String,
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str().into()
    } else {
        "task panicked".into()
    }
}

/// Everything a caller of [`dispatch`] can set.
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions<'a> {
    /// Worker threads; 1 runs every unit inline on the calling thread.
    pub threads: usize,
    /// How units are handed to workers.
    pub mode: ScheduleMode,
    /// Per-unit preferred-worker keys (a partition or block id — any
    /// `usize`, taken modulo `threads`), read only under
    /// [`ScheduleMode::StaticLocality`]. Hints decide *who* runs a
    /// unit, never what it appends; a slice shorter than `n` (including
    /// empty) falls back to static chunking for the uncovered tail.
    pub hints: &'a [usize],
    /// Attempts per unit before it is reported as a [`TaskFailure`].
    pub retry: RetryPolicy,
}

impl PoolOptions<'static> {
    /// `threads` workers under `mode`, no hints, one attempt per unit.
    pub fn new(threads: usize, mode: ScheduleMode) -> PoolOptions<'static> {
        PoolOptions {
            threads,
            mode,
            hints: &[],
            retry: RetryPolicy::none(),
        }
    }
}

/// Outcome of [`dispatch`].
#[derive(Debug)]
pub struct PoolRun<R> {
    /// Concatenated output of the successful units, in index order. A
    /// failed unit contributes nothing: its partial output is rolled
    /// back, never leaked.
    pub out: Vec<R>,
    /// Timings of the successful units, in index order.
    pub timings: Vec<TaskTiming>,
    /// Units that exhausted every attempt, in index order.
    pub failures: Vec<TaskFailure>,
    /// Scoped-worker obs counters (zero on the inline single-thread
    /// path, where counts land in the calling thread's cells) plus
    /// per-worker busy/wait accounting. The pool never folds the
    /// counters into the calling thread; callers that want them there
    /// say so with [`PoolRun::fold_counters`].
    pub exec: obs::ExecStats,
}

impl<R> PoolRun<R> {
    /// Adds the scoped workers' obs counters to the calling thread's
    /// cells, so a snapshot around the call sees the whole run.
    pub fn fold_counters(self) -> PoolRun<R> {
        obs::add_thread(&self.exec.worker_counters);
        self
    }

    /// For callers with no recovery: re-raises the first failure's
    /// panic message on the calling thread, or returns the run.
    pub fn reraise(self) -> PoolRun<R> {
        match self.failures.first() {
            Some(failure) => raise(Box::new(failure.message.clone())),
            None => self,
        }
    }
}

/// Resumes a panic on the calling thread — the pool's one unwind site.
fn raise(payload: Box<dyn Any + Send>) -> ! {
    std::panic::resume_unwind(payload)
}

/// What one worker hands back to the stitch.
struct WorkerOut<R> {
    /// `(timing, output segment)` per successful unit.
    done: Vec<(TaskTiming, Vec<R>)>,
    failures: Vec<TaskFailure>,
    stats: obs::WorkerStats,
}

/// Every static-mode worker's units, worked out once by a counting
/// sort over the unit → worker map: worker `w` runs
/// `units[starts[w]..starts[w + 1]]`, in index order.
struct StaticPlan {
    units: Vec<usize>,
    starts: Vec<usize>,
}

impl StaticPlan {
    fn new(n: usize, threads: usize, mode: ScheduleMode, hints: &[usize]) -> StaticPlan {
        let worker_of = |i| match mode {
            ScheduleMode::StaticLocality => hinted_worker(i, n, threads, hints),
            _ => chunk_worker(i, n, threads),
        };
        let mut starts = vec![0usize; threads + 1];
        for i in 0..n {
            starts[worker_of(i) + 1] += 1;
        }
        for w in 0..threads {
            starts[w + 1] += starts[w];
        }
        let mut next = starts.clone();
        let mut units = vec![0usize; n];
        for i in 0..n {
            let w = worker_of(i);
            units[next[w]] = i;
            next[w] += 1;
        }
        StaticPlan { units, starts }
    }

    fn units(&self, w: usize) -> &[usize] {
        &self.units[self.starts[w]..self.starts[w + 1]]
    }
}

/// Runs units `0..n` on `opts.threads` threads and stitches their
/// output back in index order.
///
/// `f(index, attempt, out)` appends unit `index`'s results to `out`,
/// a segment of the unit's own (presized to the worker's previous
/// segment, so no unit re-grows output an earlier unit wrote). A
/// panicking attempt is caught, its segment cleared, and the unit
/// re-run under `opts.retry` with the next `attempt` number — so a
/// deterministic injector can fail early attempts and pass later ones.
/// The concatenated output of the successful units is byte-identical
/// to running them serially, at any thread count and in every mode.
pub fn dispatch<R, F>(n: usize, opts: PoolOptions<'_>, f: F) -> PoolRun<R>
where
    R: Send,
    F: Fn(usize, u32, &mut Vec<R>) + Sync,
{
    let threads = opts.threads.max(1);
    let dmode = dispatch_mode(opts.mode);
    let max_attempts = opts.retry.max_attempts.max(1);
    if n == 0 {
        return PoolRun {
            out: Vec::new(),
            timings: Vec::new(),
            failures: Vec::new(),
            exec: obs::ExecStats::default(),
        };
    }
    let plan = match opts.mode {
        ScheduleMode::Dynamic => None,
        mode => Some(StaticPlan::new(n, threads, mode, opts.hints)),
    };
    let counter = AtomicUsize::new(0);

    let worker = |w: usize| -> WorkerOut<R> {
        let wall0 = Instant::now();
        let mut busy_ns: u64 = 0;
        let mut done = Vec::with_capacity(n / threads + 1);
        let mut failures = Vec::new();
        let mut last_len = 0usize;
        let mut run = |i: usize| {
            let t0 = Instant::now();
            // Allocated before the unit runs, even for a worker's first
            // unit: a segment allocated after the unit's own buffers
            // would sit above them in the worker's heap and, freed only
            // at the stitch, keep the allocator from trimming it.
            let mut seg = Vec::with_capacity(last_len.max(1));
            let mut attempt = 0u32;
            let failed = loop {
                match catch_unwind(AssertUnwindSafe(|| f(i, attempt, &mut seg))) {
                    Ok(()) => break None,
                    Err(payload) => {
                        seg.clear();
                        attempt += 1;
                        if attempt >= max_attempts {
                            break Some(panic_message(payload.as_ref()));
                        }
                        obs::task_retry();
                        if !opts.retry.backoff.is_zero() {
                            std::thread::sleep(opts.retry.backoff);
                        }
                    }
                }
            };
            let ns = elapsed_ns(t0);
            busy_ns = busy_ns.saturating_add(ns);
            obs::morsel(dmode);
            match failed {
                None => {
                    last_len = seg.len();
                    let timing = TaskTiming {
                        index: i,
                        worker: w,
                        secs: ns as f64 / 1e9,
                    };
                    done.push((timing, seg));
                }
                Some(message) => failures.push(TaskFailure {
                    index: i,
                    attempts: attempt,
                    message,
                }),
            }
        };
        match &plan {
            None => loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                run(i);
            },
            Some(plan) => plan.units(w).iter().for_each(|&i| run(i)),
        }
        let items = (done.len() + failures.len()) as u64;
        WorkerOut {
            done,
            failures,
            stats: obs::WorkerStats {
                worker: w,
                items,
                busy_ns,
                wait_ns: elapsed_ns(wall0).saturating_sub(busy_ns),
            },
        }
    };

    let mut exec = obs::ExecStats::default();
    let mut workers = Vec::with_capacity(threads);
    if threads == 1 {
        workers.push(worker(0));
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                // Fresh scoped threads start with zeroed cells, so the
                // drain is exactly what this worker accumulated.
                .map(|w| scope.spawn(move || (worker(w), obs::take_thread())))
                .collect();
            for h in handles {
                match h.join() {
                    Ok((wout, counters)) => {
                        exec.worker_counters = exec.worker_counters.plus(&counters);
                        workers.push(wout);
                    }
                    // Units never unwind out of the catch above; a join
                    // error means the worker loop itself failed.
                    Err(payload) => raise(payload),
                }
            }
        });
    }

    // Stitch: order the segments by unit index and move each into one
    // result presized to the total — no element is cloned and the
    // result never re-grows.
    let mut done = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for wout in workers {
        exec.workers.push(wout.stats);
        done.extend(wout.done);
        failures.extend(wout.failures);
    }
    done.sort_unstable_by_key(|(t, _)| t.index);
    failures.sort_unstable_by_key(|fl| fl.index);
    let mut out = Vec::with_capacity(done.iter().map(|(_, seg)| seg.len()).sum());
    let mut timings = Vec::with_capacity(done.len());
    for (timing, mut seg) in done {
        timings.push(timing);
        out.append(&mut seg);
    }
    PoolRun {
        out,
        timings,
        failures,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [ScheduleMode; 3] = [
        ScheduleMode::Dynamic,
        ScheduleMode::Static,
        ScheduleMode::StaticLocality,
    ];

    /// Runs one result per item: the task shape.
    fn tasks<T: Sync, R: Send>(
        items: &[T],
        opts: PoolOptions<'_>,
        f: impl Fn(&T) -> R + Sync,
    ) -> PoolRun<R> {
        dispatch(items.len(), opts, |i, _, out| out.push(f(&items[i])))
    }

    /// Runs `f` over chunks of `items`: the morsel shape.
    fn morsels<R: Send>(
        items: &[u64],
        size: usize,
        opts: PoolOptions<'_>,
        f: impl Fn(&[u64], &mut Vec<R>) + Sync,
    ) -> PoolRun<R> {
        let chunks: Vec<&[u64]> = items.chunks(size).collect();
        dispatch(chunks.len(), opts, |i, _, out| f(chunks[i], out))
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
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            let run = tasks(&items, PoolOptions::new(4, mode), |&x| x * 2);
            assert_eq!(run.out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(run.timings.len(), 1000);
            assert!(run.timings.iter().all(|t| t.secs >= 0.0));
            // Timings are in index order after stitching.
            assert!(run.timings.windows(2).all(|w| w[0].index < w[1].index));
        }
    }

    #[test]
    fn static_mode_assigns_contiguous_chunks() {
        let items: Vec<usize> = (0..100).collect();
        let run = tasks(&items, PoolOptions::new(4, ScheduleMode::Static), |&x| x);
        // Worker of item i must be i*4/100.
        for t in &run.timings {
            assert_eq!(t.worker, (t.index * 4) / 100);
        }
    }

    #[test]
    fn dynamic_mode_uses_multiple_workers() {
        let items: Vec<u64> = (0..400).collect();
        let run = tasks(&items, PoolOptions::new(4, ScheduleMode::Dynamic), |&x| {
            // Enough work per item that no single worker grabs everything.
            (0..2000).fold(x, |a, b| a.wrapping_add(b))
        });
        let workers: std::collections::HashSet<usize> =
            run.timings.iter().map(|t| t.worker).collect();
        assert!(workers.len() > 1, "expected >1 worker, got {workers:?}");
    }

    #[test]
    fn empty_and_single_item() {
        let run = tasks(
            &[] as &[u8],
            PoolOptions::new(4, ScheduleMode::Dynamic),
            |&x| x,
        );
        assert!(run.out.is_empty() && run.timings.is_empty());
        let run = tasks(&[7u8], PoolOptions::new(8, ScheduleMode::Static), |&x| {
            x + 1
        });
        assert_eq!(run.out, vec![8]);
        assert_eq!(run.timings.len(), 1);
    }

    #[test]
    fn one_thread_runs_inline() {
        let before = obs::thread_snapshot();
        let run = tasks(
            &[1, 2, 3],
            PoolOptions::new(1, ScheduleMode::Dynamic),
            |&x| x * 10,
        );
        assert_eq!(run.out, vec![10, 20, 30]);
        assert!(run.timings.iter().all(|x| x.worker == 0));
        // Inline units count on the calling thread, never on a worker.
        assert_eq!(run.exec.worker_counters, obs::Counters::default());
        assert_eq!(obs::thread_snapshot().minus(&before).morsels_executed, 3);
    }

    #[test]
    fn morsels_concatenate_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().flat_map(|&x| [x * 2, x * 2 + 1]).collect();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            for threads in [1, 3, 8] {
                for size in [1, 7, 128] {
                    let run = morsels(&items, size, PoolOptions::new(threads, mode), |m, buf| {
                        for &x in m {
                            buf.push(x * 2);
                            buf.push(x * 2 + 1);
                        }
                    });
                    assert_eq!(
                        run.out, serial,
                        "mode={mode:?} threads={threads} size={size}"
                    );
                    assert_eq!(run.timings.len(), items.len().div_ceil(size));
                    assert!(run.timings.windows(2).all(|w| w[0].index < w[1].index));
                }
            }
        }
    }

    #[test]
    fn morsels_with_uneven_output_counts() {
        // Each morsel emits a different number of results (including 0).
        let items: Vec<u64> = (0..101).collect();
        let opts = PoolOptions::new(4, ScheduleMode::Dynamic);
        let run = morsels(&items, 13, opts, |m, buf| {
            for &x in m {
                for _ in 0..(x % 3) {
                    buf.push(x);
                }
            }
        });
        let serial: Vec<u64> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
            .collect();
        assert_eq!(run.out, serial);
    }

    #[test]
    fn morsels_empty_input() {
        let run = dispatch::<u8, _>(0, PoolOptions::new(4, ScheduleMode::Static), |_, _, _| {});
        assert!(run.out.is_empty() && run.timings.is_empty());
        assert!(run.exec.workers.is_empty());
    }

    #[test]
    fn locality_hints_pin_morsels_to_workers() {
        let items: Vec<u64> = (0..120).collect();
        // Hint pattern: morsel i prefers worker (i % 3) of 4.
        let hints: Vec<usize> = (0..items.len()).map(|i| i % 3).collect();
        let opts = PoolOptions {
            hints: &hints,
            ..PoolOptions::new(4, ScheduleMode::StaticLocality)
        };
        let run = morsels(&items, 1, opts, |m, buf| buf.extend_from_slice(m));
        assert_eq!(run.out, items, "locality must not change output order");
        for t in &run.timings {
            assert_eq!(t.worker, hints[t.index] % 4, "morsel {} misplaced", t.index);
        }
    }

    #[test]
    fn locality_without_hints_falls_back_to_static_chunks() {
        let items: Vec<u64> = (0..103).collect();
        let n = items.len();
        let opts = PoolOptions::new(4, ScheduleMode::StaticLocality);
        let run = morsels(&items, 1, opts, |m, buf| buf.extend_from_slice(m));
        assert_eq!(run.out, items);
        // Fallback worker must match the static chunk that owns index i.
        for t in &run.timings {
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
        let hints = vec![1usize; 10]; // only the first 10 morsels hinted
        let opts = PoolOptions {
            hints: &hints,
            ..PoolOptions::new(3, ScheduleMode::StaticLocality)
        };
        let run = morsels(&items, 2, opts, |m, buf| buf.extend_from_slice(m));
        assert_eq!(run.out, items);
        for t in run.timings.iter().filter(|t| t.index < 10) {
            assert_eq!(t.worker, 1);
        }
    }

    #[test]
    fn locality_output_identical_across_modes() {
        let items: Vec<u64> = (0..500).collect();
        let hints: Vec<usize> = (0..items.len().div_ceil(7)).map(|i| (i * 13) % 5).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for threads in [1, 2, 5, 8] {
            let opts = PoolOptions {
                hints: &hints,
                ..PoolOptions::new(threads, ScheduleMode::StaticLocality)
            };
            let run = morsels(&items, 7, opts, |m, buf| {
                buf.extend(m.iter().map(|&x| x * 3))
            });
            assert_eq!(run.out, serial, "threads={threads}");
        }
    }

    #[test]
    fn retry_none_without_faults_matches_serial() {
        let items: Vec<u64> = (0..300).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for mode in MODES {
            for threads in [1, 2, 7] {
                let run = tasks(&items, PoolOptions::new(threads, mode), |&x| x * 3);
                assert!(run.failures.is_empty());
                assert_eq!(run.out, expected);
            }
        }
    }

    #[test]
    fn retry_recovers_and_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        for threads in [1, 4] {
            let opts = PoolOptions {
                retry: RetryPolicy::attempts(2),
                ..PoolOptions::new(threads, ScheduleMode::Dynamic)
            };
            let run = quiet_panics(|| {
                dispatch(items.len(), opts, |i, attempt, out| {
                    // Every third item dies on its first attempt.
                    assert!(attempt < 2);
                    if i % 3 == 0 && attempt == 0 {
                        std::panic::panic_any(format!("injected at {i}"));
                    }
                    out.push(items[i] + 1);
                })
            });
            assert!(run.failures.is_empty(), "threads={threads}");
            assert_eq!(run.out, expected);
        }
    }

    #[test]
    fn exhausted_attempts_reported() {
        let items: Vec<u64> = (0..50).collect();
        let opts = PoolOptions {
            retry: RetryPolicy::attempts(3),
            ..PoolOptions::new(4, ScheduleMode::Static)
        };
        let run = quiet_panics(|| {
            dispatch(items.len(), opts, |i, _, out| {
                if i == 17 {
                    std::panic::panic_any("always dies".to_string());
                }
                out.push(items[i]);
            })
        });
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].index, 17);
        assert_eq!(run.failures[0].attempts, 3);
        assert_eq!(run.failures[0].message, "always dies");
        let expected: Vec<u64> = items.iter().copied().filter(|&x| x != 17).collect();
        assert_eq!(run.out, expected);
        assert!(run.timings.iter().all(|t| t.index != 17));
    }

    #[test]
    fn retry_rolls_back_partial_output() {
        let items: Vec<u64> = (0..400).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        let chunks: Vec<&[u64]> = items.chunks(16).collect();
        for threads in [1, 2, 7] {
            let opts = PoolOptions {
                retry: RetryPolicy::attempts(2),
                ..PoolOptions::new(threads, ScheduleMode::Dynamic)
            };
            let run = quiet_panics(|| {
                dispatch(chunks.len(), opts, |i, attempt, buf| {
                    for &x in chunks[i] {
                        buf.push(x * 2);
                    }
                    // Panic *after* appending output: recovery must
                    // discard the partial segment before retrying.
                    if i % 4 == 1 && attempt == 0 {
                        std::panic::panic_any(format!("mid-morsel {i}"));
                    }
                })
            });
            assert!(run.failures.is_empty(), "threads={threads}");
            assert_eq!(run.out, serial, "threads={threads}");
        }
    }

    #[test]
    fn failed_morsel_leaks_nothing() {
        let items: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = items.chunks(10).collect();
        let run = quiet_panics(|| {
            dispatch(
                chunks.len(),
                PoolOptions::new(3, ScheduleMode::Static),
                |i, _, buf| {
                    buf.extend_from_slice(chunks[i]);
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
        let opts = PoolOptions::new(4, ScheduleMode::Static);
        let run = morsels(&items, 1, opts, |m, buf| buf.extend_from_slice(m));
        for t in &run.timings {
            assert_eq!(t.worker, (t.index * 4) / 100);
        }
    }

    #[test]
    fn fault_matrix_matches_serial_minus_failed_units() {
        let n = 60usize;
        // Unit i appends i*10 .. i*10 + i%4 (zero to three rows).
        let rows = |i: usize| (0..i % 4).map(move |k| (i * 10 + k) as u64);
        // (index, attempt) pairs that panic after appending: 5 fails
        // once, 13 twice, 40 on every attempt.
        let dies = |i: usize, attempt: u32| match i {
            5 => attempt == 0,
            13 => attempt < 2,
            40 => true,
            _ => false,
        };
        let hints: Vec<usize> = (0..n).map(|i| (i * 7) % 5).collect();
        for mode in MODES {
            for threads in [1, 2, 7] {
                for retry in [RetryPolicy::none(), RetryPolicy::attempts(2)] {
                    let opts = PoolOptions {
                        threads,
                        mode,
                        hints: &hints,
                        retry,
                    };
                    let run = quiet_panics(|| {
                        dispatch(n, opts, |i, attempt, out| {
                            out.extend(rows(i));
                            if dies(i, attempt) {
                                std::panic::panic_any(format!("unit {i} attempt {attempt}"));
                            }
                        })
                    });
                    let at = retry.max_attempts;
                    let failed: Vec<usize> =
                        (0..n).filter(|&i| (0..at).all(|a| dies(i, a))).collect();
                    let ctx = format!("mode={mode:?} threads={threads} retry={at}");
                    let expected: Vec<u64> = (0..n)
                        .filter(|i| !failed.contains(i))
                        .flat_map(rows)
                        .collect();
                    assert_eq!(run.out, expected, "{ctx}");
                    let got: Vec<(usize, u32)> =
                        run.failures.iter().map(|f| (f.index, f.attempts)).collect();
                    let want: Vec<(usize, u32)> = failed.iter().map(|&i| (i, at)).collect();
                    assert_eq!(got, want, "{ctx}");
                    for f in &run.failures {
                        assert_eq!(f.message, format!("unit {} attempt {}", f.index, at - 1));
                    }
                    let timed: Vec<usize> = run.timings.iter().map(|t| t.index).collect();
                    let ok: Vec<usize> = (0..n).filter(|i| !failed.contains(i)).collect();
                    assert_eq!(timed, ok, "{ctx}");
                    let items: u64 = run.exec.workers.iter().map(|w| w.items).sum();
                    assert_eq!(items, n as u64, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn reraise_surfaces_the_first_failure_message() {
        let run = quiet_panics(|| {
            dispatch(
                8,
                PoolOptions::new(3, ScheduleMode::Dynamic),
                |i, _, out| {
                    if i == 6 || i == 2 {
                        std::panic::panic_any(format!("bad unit {i}"));
                    }
                    out.push(i);
                },
            )
        });
        let caught = quiet_panics(|| catch_unwind(AssertUnwindSafe(|| run.reraise())));
        let payload = caught.err().map(|p| panic_message(p.as_ref()));
        assert_eq!(payload.as_deref(), Some("bad unit 2"));
        let ok = dispatch(3, PoolOptions::new(2, ScheduleMode::Static), |i, _, out| {
            out.push(i)
        });
        assert_eq!(ok.reraise().out, vec![0, 1, 2]);
    }
}
