//! The job table: every submitted cell gets a monotonically increasing
//! job id whose lifecycle (`queued → running → done`) connection threads
//! query with `poll` and block on with `wait`. A queued job holds its
//! submission until a worker takes it; a cell the cache answers at
//! admission is created done. A finished job holds its report by `Arc`,
//! shared with the result cache, so no job copies a report or a trace.

use crate::lock;
use crate::wire::{EncodedReport, SubmitSpec};
use gpu_sim::SimError;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What a finished job resolved to.
pub type Outcome = Result<Arc<EncodedReport>, SimError>;

/// A job's current state.
#[derive(Clone, Debug)]
pub enum JobState {
    /// In the admission queue, holding the submission a worker will run.
    Queued(Box<SubmitSpec>),
    /// Claimed by a warm-pool worker.
    Running,
    /// Finished. Cloning a finished report for `poll`/`wait` bumps a
    /// refcount.
    Done(Outcome),
}

impl JobState {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued(_) => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    next: u64,
    states: HashMap<u64, JobState>,
    /// Finished jobs whose report carries a trace the `trace` op has not
    /// taken yet.
    traces: HashMap<u64, Arc<EncodedReport>>,
}

impl Inner {
    fn finish(&mut self, job: u64, outcome: Outcome) {
        if let Ok(report) = &outcome {
            if report.report().trace.is_some() {
                self.traces.insert(job, Arc::clone(report));
            }
        }
        self.states.insert(job, JobState::Done(outcome));
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// Thread-safe job registry shared by connection threads and workers.
#[derive(Debug, Default)]
pub struct JobTable {
    inner: Mutex<Inner>,
    done: Condvar,
}

impl JobTable {
    /// An empty table; ids start at 1.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Registers a new queued job for `spec` and returns its id.
    pub fn create(&self, spec: SubmitSpec) -> u64 {
        let mut inner = lock(&self.inner);
        let id = inner.next_id();
        inner.states.insert(id, JobState::Queued(Box::new(spec)));
        id
    }

    /// Registers a job that is already finished (a cell answered from the
    /// cache at admission) and returns its id.
    pub fn create_done(&self, outcome: Outcome) -> u64 {
        let mut inner = lock(&self.inner);
        let id = inner.next_id();
        inner.finish(id, outcome);
        id
    }

    /// Marks a queued job as claimed by a worker and hands over its
    /// submission; `None` (and no change) unless the job is queued.
    pub fn start(&self, job: u64) -> Option<SubmitSpec> {
        let mut inner = lock(&self.inner);
        let (next, spec) = match inner.states.remove(&job)? {
            JobState::Queued(spec) => (JobState::Running, Some(*spec)),
            other => (other, None),
        };
        inner.states.insert(job, next);
        spec
    }

    /// Records a job's outcome and wakes every `wait`er.
    pub fn complete(&self, job: u64, outcome: Outcome) {
        lock(&self.inner).finish(job, outcome);
        self.done.notify_all();
    }

    /// Non-blocking state query; `None` for ids this daemon never issued.
    pub fn poll(&self, job: u64) -> Option<JobState> {
        lock(&self.inner).states.get(&job).cloned()
    }

    /// Blocks until the job completes or `timeout` expires. `Ok` carries
    /// the outcome; `Err(true)` means timeout, `Err(false)` unknown job.
    pub fn wait(&self, job: u64, timeout: Duration) -> Result<Outcome, bool> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.inner);
        loop {
            match inner.states.get(&job) {
                None => return Err(false),
                Some(JobState::Done(outcome)) => return Ok(outcome.clone()),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(true);
            }
            inner = self
                .done
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The report of a finished job whose recorded trace has not been
    /// taken yet, once: the potentially large event buffer crosses the
    /// wire at most once per job.
    pub fn take_trace(&self, job: u64) -> Result<Option<Arc<EncodedReport>>, JobTraceError> {
        let mut inner = lock(&self.inner);
        match inner.states.get(&job) {
            None => Err(JobTraceError::UnknownJob),
            Some(JobState::Done(_)) => Ok(inner.traces.remove(&job)),
            Some(_) => Err(JobTraceError::NotDone),
        }
    }

    /// Number of jobs ever created (the next id handed out minus one).
    pub fn created(&self) -> u64 {
        lock(&self.inner).next
    }
}

/// Why a trace request could not be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobTraceError {
    /// The id was never issued by this daemon.
    UnknownJob,
    /// The job has not finished yet.
    NotDone,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ConfigPreset;
    use gpu_sim::Stats;
    use gpu_trace::TraceData;
    use workloads::{Benchmark, RunReport, Scale, Variant};

    fn spec() -> SubmitSpec {
        SubmitSpec {
            benchmark: Benchmark::Amr,
            variant: Variant::Flat,
            scale: Scale::Test,
            client: "c".into(),
            weight: 1,
            preset: ConfigPreset::TestSmall,
            max_cycles: None,
            cycle_cap: None,
            trace: false,
        }
    }

    fn report() -> RunReport {
        RunReport {
            benchmark: "amr".into(),
            variant: Variant::Flat,
            stats: Stats::default(),
            trace: None,
        }
    }

    fn done(r: RunReport) -> Outcome {
        Ok(Arc::new(EncodedReport::new(r)))
    }

    #[test]
    fn lifecycle_and_poll() {
        let t = JobTable::new();
        let id = t.create(spec());
        assert_eq!(t.poll(id).unwrap().name(), "queued");
        assert_eq!(t.start(id), Some(spec()), "the worker takes the spec");
        assert_eq!(t.poll(id).unwrap().name(), "running");
        assert_eq!(t.start(id), None, "a job starts once");
        t.complete(id, done(report()));
        assert_eq!(t.poll(id).unwrap().name(), "done");
        assert!(t.poll(id + 1).is_none());
        assert_eq!(t.start(id), None, "a finished job never restarts");
        assert_eq!(t.start(id + 1), None);

        let hit = t.create_done(done(report()));
        assert_eq!(hit, id + 1, "ids stay dense");
        assert_eq!(t.poll(hit).unwrap().name(), "done");
        assert_eq!(t.start(hit), None);
        assert!(t.wait(hit, Duration::ZERO).unwrap().is_ok());
        assert_eq!(t.created(), 2);
    }

    #[test]
    fn wait_times_out_then_succeeds() {
        let t = std::sync::Arc::new(JobTable::new());
        let id = t.create(spec());
        assert!(matches!(t.wait(id, Duration::from_millis(10)), Err(true)));
        assert!(matches!(t.wait(9999, Duration::from_millis(1)), Err(false)));
        let t2 = std::sync::Arc::clone(&t);
        let h = std::thread::spawn(move || t2.wait(id, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        t.complete(id, done(report()));
        assert!(h.join().unwrap().unwrap().is_ok());
    }

    #[test]
    fn trace_is_taken_at_most_once() {
        let t = JobTable::new();
        let id = t.create(spec());
        assert!(matches!(t.take_trace(id), Err(JobTraceError::NotDone)));
        let mut r = report();
        r.trace = Some(TraceData::default());
        t.complete(id, done(r));
        assert!(t.take_trace(id).unwrap().is_some());
        assert!(t.take_trace(id).unwrap().is_none(), "second take is empty");
        assert!(matches!(t.take_trace(77), Err(JobTraceError::UnknownJob)));
        let untraced = t.create_done(done(report()));
        assert!(t.take_trace(untraced).unwrap().is_none());
    }

    /// `poll` and `wait` hand out the one shared report, never a copy of
    /// it or of its event buffer; two jobs served from the same cache
    /// entry share it too, and each may take its trace once.
    #[test]
    fn poll_and_wait_never_copy_the_trace() {
        use gpu_trace::{EventKind, TraceEvent};
        let t = JobTable::new();
        let id = t.create(spec());
        let events: Vec<TraceEvent> = (0..1000u32)
            .map(|i| TraceEvent {
                cycle: u64::from(i),
                kind: EventKind::KdeFree { kde: i, kernel: 1 },
            })
            .collect();
        let mut r = report();
        r.trace = Some(TraceData {
            events: events.clone(),
            ..TraceData::default()
        });
        let cached = Arc::new(EncodedReport::new(r));
        t.complete(id, Ok(Arc::clone(&cached)));
        let hit = t.create_done(Ok(Arc::clone(&cached)));

        let Some(JobState::Done(Ok(polled))) = t.poll(id) else {
            panic!("job {id} is done");
        };
        assert!(Arc::ptr_eq(&polled, &cached), "poll");
        let waited = t.wait(hit, Duration::from_millis(1)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&waited, &cached), "wait");
        for job in [id, hit] {
            let taken = t.take_trace(job).unwrap().expect("the trace was kept");
            assert_eq!(taken.report().trace.as_ref().unwrap().events, events);
            assert!(t.take_trace(job).unwrap().is_none(), "once per job");
        }
    }

    /// A thread that panics while holding the table's lock poisons it;
    /// every other connection must keep creating, polling, waiting on and
    /// completing jobs.
    #[test]
    fn a_poisoned_table_keeps_serving() {
        let t = Arc::new(JobTable::new());
        let queued = t.create(spec());
        let t2 = Arc::clone(&t);
        let crashed = std::thread::spawn(move || {
            let _held = t2.inner.lock();
            panic!("a connection thread dies holding the job table");
        })
        .join();
        assert!(crashed.is_err());
        assert!(t.inner.is_poisoned());

        let id = t.create(spec());
        assert_eq!(t.start(id), Some(spec()));
        assert_eq!(t.poll(id).unwrap().name(), "running");
        t.complete(id, done(report()));
        assert!(t.wait(id, Duration::from_secs(1)).unwrap().is_ok());
        assert!(matches!(
            t.wait(queued, Duration::from_millis(5)),
            Err(true)
        ));
        let hit = t.create_done(done(report()));
        assert_eq!(t.poll(hit).unwrap().name(), "done");
        assert!(t.take_trace(hit).unwrap().is_none());
        assert_eq!(t.created(), 3);
    }
}
