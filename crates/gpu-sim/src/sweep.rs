//! Bounded-parallel, panic-isolated execution of independent simulation
//! cells.
//!
//! The full figure sweep runs 16 benchmark configs across up to six
//! variants, and every cell builds its own [`Gpu`](crate::Gpu) and seeds
//! its own `sim-rand` streams — cells share no mutable state, so they can
//! run on worker threads with bit-identical per-run results to a serial
//! loop. This module provides the primitives everything else (the bench
//! crate's `SweepRunner`, the fault-injection suite, the cross-crate
//! tests) builds on:
//!
//! * [`run_cells`] — fan a list of cells over a bounded pool of scoped
//!   threads and collect each cell's `Result` in input order. A panicking
//!   cell no longer takes the pool down mid-sweep: every sibling still
//!   completes, then the first panic (in input order) is re-raised with
//!   its original payload.
//! * [`run_cells_supervised`] — full supervision: each cell's panic is
//!   converted into a structured [`CrashReport`] (panic payload, the
//!   simulated cycle and the recorder's recent-event ring, captured at
//!   unwind time by [`Gpu`](crate::Gpu)'s drop hook), and crashed cells
//!   are deterministically retried in quarantine — serially, in input
//!   order, after the parallel sweep — up to a caller-chosen attempt
//!   count. Per-cell deadlines ride on
//!   [`RunBudget`](crate::RunBudget) inside the cell closure. A crash is
//!   reported once, as its [`CrashReport`].
//!
//! Panic isolation is confined (`clippy.toml` disallows
//! `std::panic::catch_unwind` workspace-wide): the only callers are the
//! two allowed sites in this module, where a caught panic becomes a
//! [`CrashReport`] or is re-raised whole. Everywhere else, panics stay
//! fatal.
//!
//! Only `std` is used (scoped threads + an atomic work cursor), matching
//! the repo's no-external-dependencies policy.

use gpu_trace::TraceEvent;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count used when the caller does not pin one: the machine's
/// available parallelism, falling back to 1 when it cannot be queried.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

thread_local! {
    /// Machine context stashed by [`Gpu`](crate::Gpu)'s drop hook while a
    /// panic unwinds through it: `(cycle, recent trace events)`. The
    /// *first* stash wins — the innermost `Gpu` dying on the panicking
    /// thread is the one that crashed.
    static CRASH_CONTEXT: RefCell<Option<(u64, Vec<TraceEvent>)>> =
        const { RefCell::new(None) };
}

/// Records the panicking thread's simulator state for the crash report;
/// called from [`Gpu`](crate::Gpu)'s drop hook during unwinding. Keeps
/// the first stash (the `Gpu` nearest the panic).
pub(crate) fn stash_crash_context(cycle: u64, recent_events: Vec<TraceEvent>) {
    CRASH_CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_none() {
            *slot = Some((cycle, recent_events));
        }
    });
}

/// Takes (and clears) the thread's stashed crash context.
fn take_crash_context() -> Option<(u64, Vec<TraceEvent>)> {
    CRASH_CONTEXT.with(|c| c.borrow_mut().take())
}

/// Everything known about one cell's panic: what it said, where the
/// simulation was, and what the machine last did.
#[derive(Debug)]
pub struct CrashReport {
    /// Input-order index of the crashed cell.
    pub cell: usize,
    /// Attempts made in total (first run + retries).
    pub attempts: u32,
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim; anything else a placeholder).
    pub payload: String,
    /// Simulated cycle at the crash, when a [`Gpu`](crate::Gpu) unwound
    /// on the panicking thread.
    pub cycle: Option<u64>,
    /// The most recent trace events before the crash (newest last), from
    /// the crashed run's bounded ring. Empty when tracing was off.
    pub recent_events: Vec<TraceEvent>,
}

impl std::fmt::Display for CrashReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} crashed after {} attempt(s): {}",
            self.cell, self.attempts, self.payload
        )?;
        if let Some(cycle) = self.cycle {
            write!(f, " (at cycle {cycle})")?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "\n  last {} trace events:", self.recent_events.len())?;
            for ev in &self.recent_events {
                writeln!(f, "    cycle {}: {:?}", ev.cycle, ev.kind)?;
            }
        }
        Ok(())
    }
}

/// Outcome of one supervised cell: the closure's `Ok`, its typed `Err`,
/// or a [`CrashReport`] when every attempt panicked.
#[derive(Debug)]
pub enum CellOutcome<T, E> {
    /// The cell completed.
    Ok(T),
    /// The cell returned its typed error.
    Err(E),
    /// Every attempt panicked; the report describes the last crash.
    Crashed(CrashReport),
}

impl<T, E> CellOutcome<T, E> {
    /// True for [`CellOutcome::Crashed`].
    pub fn is_crashed(&self) -> bool {
        matches!(self, CellOutcome::Crashed(_))
    }

    /// The outcome of attempt `attempts` (1-based) at input-order cell
    /// `cell`.
    fn from_run(run: CellRun<T, E>, cell: usize, attempts: u32) -> Self {
        match run {
            CellRun::Done(Ok(t)) => CellOutcome::Ok(t),
            CellRun::Done(Err(e)) => CellOutcome::Err(e),
            CellRun::Panicked {
                payload,
                cycle,
                recent_events,
            } => CellOutcome::Crashed(CrashReport {
                cell,
                attempts,
                payload: payload_text(payload.as_ref()),
                cycle,
                recent_events,
            }),
        }
    }
}

/// One cell's raw run: the closure's result, or the panic it unwound with
/// plus the machine context stashed during the unwind.
enum CellRun<T, E> {
    Done(Result<T, E>),
    Panicked {
        payload: Box<dyn std::any::Any + Send>,
        cycle: Option<u64>,
        recent_events: Vec<TraceEvent>,
    },
}

/// Renders a panic payload as text.
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f(cell)` with panic isolation, pairing a caught panic with the
/// crash context the unwind stashed on this thread.
// The workspace's one production catch: the panic becomes a `CellRun`.
#[allow(clippy::disallowed_methods)]
fn run_one<C, T, E, F>(cell: &C, f: &F) -> CellRun<T, E>
where
    F: Fn(&C) -> Result<T, E> + Sync,
{
    // Clear any stale stash so a crash here reports *this* cell's state.
    let _ = take_crash_context();
    // `AssertUnwindSafe` is sound here: on panic both the cell's `Gpu`
    // (local to `f`) and the result slot (never written) are abandoned
    // whole, and `f` is a `Fn` the siblings re-enter independently.
    match catch_unwind(AssertUnwindSafe(|| f(cell))) {
        Ok(r) => CellRun::Done(r),
        Err(payload) => {
            let (cycle, recent_events) = match take_crash_context() {
                Some((cycle, events)) => (Some(cycle), events),
                None => (None, Vec::new()),
            };
            CellRun::Panicked {
                payload,
                cycle,
                recent_events,
            }
        }
    }
}

/// The shared fan-out core: every cell runs exactly once (serially for
/// `jobs == 1`, over a bounded scoped pool otherwise) with panic
/// isolation, and the raw runs come back in input order.
fn run_cells_core<C, T, E, F>(cells: &[C], jobs: usize, f: &F) -> Vec<CellRun<T, E>>
where
    C: Send + Sync,
    T: Send,
    E: Send,
    F: Fn(&C) -> Result<T, E> + Sync,
{
    let jobs = jobs.max(1).min(cells.len().max(1));
    if jobs == 1 {
        return cells.iter().map(|c| run_one(c, f)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellRun<T, E>>>> =
        (0..cells.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let run = run_one(cell, f);
                // `run_one` never unwinds, so no lock in this pool is
                // ever poisoned; a poisoned slot can only mean the
                // parent thread panicked, and then this worker is
                // being unwound by scope teardown anyway.
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(run);
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot.into_inner() {
            Ok(Some(run)) => run,
            // Unreachable by construction (the scope joined every worker
            // and workers never unwind), but a missing result must not
            // panic the collection path of a panic-isolation primitive.
            _ => CellRun::Panicked {
                payload: Box::new(format!("sweep cell {i} produced no result")),
                cycle: None,
                recent_events: Vec::new(),
            },
        })
        .collect()
}

/// Runs `f` over every cell on up to `jobs` worker threads and returns
/// `(cell, result)` pairs **in input order**, regardless of which worker
/// finished first.
///
/// Workers claim cells from a shared cursor, so they stay busy until the
/// list is exhausted rather than being handed fixed stripes. `jobs == 1`
/// (or a single-cell list) degenerates to a plain serial loop on the
/// calling thread — the scheduling of cells onto threads is the *only*
/// difference between serial and parallel execution, so per-cell results
/// are identical either way.
///
/// One cell's failure never aborts its siblings: the error lands in that
/// cell's slot and every other cell still runs to completion. The same
/// holds for a *panicking* cell — every sibling completes first — but a
/// panic cannot be represented in the return type, so the first one (in
/// input order) is then re-raised with its original payload. Callers who
/// need panics as data use [`run_cells_supervised`].
///
/// # Panics
///
/// Re-raises the first panic `f` raised, after all cells have run.
pub fn run_cells<C, T, E, F>(cells: Vec<C>, jobs: usize, f: F) -> Vec<(C, Result<T, E>)>
where
    C: Send + Sync,
    T: Send,
    E: Send,
    F: Fn(&C) -> Result<T, E> + Sync,
{
    let runs = run_cells_core(&cells, jobs, &f);
    let mut first_panic = None;
    let mut results = Vec::with_capacity(runs.len());
    for run in runs {
        match run {
            CellRun::Done(r) => results.push(Some(r)),
            CellRun::Panicked { payload, .. } => {
                results.push(None);
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    cells
        .into_iter()
        .zip(results)
        .map(|(c, r)| {
            let r = r.unwrap_or_else(|| unreachable!("non-panicked cell has a result"));
            (c, r)
        })
        .collect()
}

/// [`run_cells`] with full supervision: a panicking cell becomes a
/// [`CellOutcome::Crashed`] carrying a structured [`CrashReport`] instead
/// of taking the sweep down, and crashed cells are retried **in
/// quarantine** — serially, on the calling thread, in input order, after
/// the parallel sweep — until one attempt stops panicking or `retries`
/// extra attempts are spent. Retries are deterministic for a
/// deterministic `f`: same cell, same closure, no pool scheduling
/// involved.
///
/// A 1000-cell sweep therefore survives any single cell: the crash is
/// data, the siblings' results are intact, and transiently-crashing cells
/// (e.g. a host-dependent wall-clock budget) get their bounded second
/// chance. Per-cell deadlines belong *inside* `f`, on the cell's
/// [`RunBudget`](crate::RunBudget). A crash is reported once, as the
/// [`CrashReport`] of its last attempt.
pub fn run_cells_supervised<C, T, E, F>(
    cells: Vec<C>,
    jobs: usize,
    retries: u32,
    f: F,
) -> Vec<(C, CellOutcome<T, E>)>
where
    C: Send + Sync,
    T: Send,
    E: Send,
    F: Fn(&C) -> Result<T, E> + Sync,
{
    let runs = run_cells_core(&cells, jobs, &f);
    let mut outcomes: Vec<(C, CellOutcome<T, E>)> = cells
        .into_iter()
        .zip(runs)
        .enumerate()
        .map(|(i, (c, run))| (c, CellOutcome::from_run(run, i, 1)))
        .collect();
    for (i, (cell, outcome)) in outcomes.iter_mut().enumerate() {
        for attempt in 2..=retries.saturating_add(1) {
            if !outcome.is_crashed() {
                break;
            }
            *outcome = CellOutcome::from_run(run_one(cell, &f), i, attempt);
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_input_order() {
        let cells: Vec<u64> = (0..64).collect();
        let out = run_cells(cells, 8, |&c| Ok::<u64, ()>(c * 3));
        for (i, (cell, r)) in out.iter().enumerate() {
            assert_eq!(*cell, i as u64);
            assert_eq!(*r, Ok(i as u64 * 3));
        }
    }

    /// One failing cell must not abort sibling cells: every other cell
    /// still produces its result, and the error sits in its own slot.
    #[test]
    fn failing_cell_does_not_abort_siblings() {
        let cells: Vec<u32> = (0..33).collect();
        let out = run_cells(cells, 4, |&c| {
            if c == 13 {
                Err(format!("cell {c} failed"))
            } else {
                Ok(c + 100)
            }
        });
        assert_eq!(out.len(), 33);
        for (cell, r) in &out {
            if *cell == 13 {
                assert_eq!(r.as_ref().unwrap_err(), "cell 13 failed");
            } else {
                assert_eq!(*r.as_ref().unwrap(), cell + 100);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let work = |&c: &u64| {
            // A little deterministic arithmetic per cell.
            let mut x = c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..100 {
                x ^= x >> 27;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            Ok::<u64, ()>(x)
        };
        let serial = run_cells((0..40).collect(), 1, work);
        let parallel = run_cells((0..40).collect(), 8, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn degenerate_pools_still_work() {
        assert!(run_cells(Vec::<u8>::new(), 8, |_| Ok::<(), ()>(())).is_empty());
        let one = run_cells(vec![7u8], 0, |&c| Ok::<u8, ()>(c));
        assert_eq!(one, vec![(7u8, Ok(7u8))]);
    }

    /// Regression for the Mutex-poisoning panic hazard: a panicking
    /// cell used to poison its result slot and blow up result collection
    /// with a *different* panic ("sweep result slot poisoned"). Now every
    /// sibling completes and the original payload is re-raised.
    #[test]
    fn panicking_cell_lets_siblings_finish_then_reraises() {
        for jobs in [1usize, 4] {
            let completed = AtomicU32::new(0);
            // The test observes the payload `run_cells` re-raises.
            #[allow(clippy::disallowed_methods)]
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_cells((0..16u32).collect(), jobs, |&c| {
                    if c == 5 {
                        panic!("cell 5 exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    Ok::<u32, ()>(c)
                })
            }))
            .unwrap_err();
            assert_eq!(
                payload_text(caught.as_ref()),
                "cell 5 exploded",
                "the original payload survives (jobs={jobs})"
            );
            assert_eq!(
                completed.load(Ordering::Relaxed),
                15,
                "all 15 healthy siblings ran (jobs={jobs})"
            );
        }
    }

    #[test]
    fn supervised_sweep_reports_crashes_as_data() {
        let out = run_cells_supervised((0..8u32).collect(), 4, 0, |&c| {
            if c == 3 {
                panic!("boom in cell {c}");
            }
            if c == 6 {
                return Err("typed failure");
            }
            Ok(c * 2)
        });
        assert_eq!(out.len(), 8);
        for (c, outcome) in &out {
            match (*c, outcome) {
                (3, CellOutcome::Crashed(report)) => {
                    assert_eq!(report.cell, 3);
                    assert_eq!(report.attempts, 1);
                    assert_eq!(report.payload, "boom in cell 3");
                }
                (6, CellOutcome::Err(e)) => assert_eq!(*e, "typed failure"),
                (_, CellOutcome::Ok(v)) => assert_eq!(*v, c * 2),
                (c, o) => panic!("cell {c}: unexpected outcome {o:?}"),
            }
        }
    }

    /// A transiently-crashing cell recovers on its quarantined retry; a
    /// persistently-crashing one reports the total attempt count.
    #[test]
    fn quarantined_retries_are_bounded_and_recover_transients() {
        let attempts = AtomicU32::new(0);
        let out = run_cells_supervised(vec![0u8], 2, 3, |_| {
            let n = attempts.fetch_add(1, Ordering::Relaxed) + 1;
            if n < 3 {
                panic!("transient crash #{n}");
            }
            Ok::<u32, ()>(99)
        });
        assert!(matches!(out[0].1, CellOutcome::Ok(99)));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);

        let out = run_cells_supervised(vec![0u8], 1, 2, |_| {
            panic!("always");
            #[allow(unreachable_code)]
            Ok::<(), ()>(())
        });
        let CellOutcome::Crashed(report) = &out[0].1 else {
            panic!("expected a crash report");
        };
        assert_eq!(report.attempts, 3, "first run + 2 retries");
        assert!(report.to_string().contains("always"));
    }

    /// The drop hook on [`crate::Gpu`] stashes the simulated cycle and
    /// recent trace events for the crash report.
    #[test]
    fn crash_report_carries_simulator_context() {
        use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
        let out = run_cells_supervised(vec![0u8], 1, 0, |_| {
            let mut prog = Program::new();
            let mut b = KernelBuilder::new("crashy", Dim3::x(32), 1);
            let gtid = b.global_tid();
            let base = b.ld_param(0);
            let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
            b.st(Space::Global, addr, 0, Op::Reg(gtid));
            let k = prog.add(b.build().unwrap());
            let mut cfg = crate::GpuConfig::test_small();
            cfg.trace = gpu_trace::TraceConfig::all();
            let mut gpu = crate::Gpu::new(cfg, prog);
            let out = gpu.malloc(4 * 64).unwrap();
            gpu.launch(k, 2, &[out], 0).unwrap();
            gpu.run_to_idle().unwrap();
            panic!("mid-sweep crash with a live Gpu");
            #[allow(unreachable_code)]
            Ok::<(), crate::SimError>(())
        });
        let CellOutcome::Crashed(report) = &out[0].1 else {
            panic!("expected a crash report");
        };
        assert_eq!(report.payload, "mid-sweep crash with a live Gpu");
        assert!(report.cycle.is_some(), "the Gpu drop hook ran");
        assert!(
            !report.recent_events.is_empty(),
            "the recorder's ring came along"
        );
    }
}
