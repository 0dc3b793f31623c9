//! The job table: every submitted cell gets a monotonically increasing
//! job id whose lifecycle (`queued → running → done`) connection threads
//! query with `poll` and block on with `wait`. A queued job holds its
//! submission until a worker takes it.

use crate::wire::SubmitSpec;
use gpu_sim::SimError;
use gpu_trace::TraceData;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use workloads::RunReport;

/// A job's current state.
#[derive(Clone, Debug)]
pub enum JobState {
    /// In the admission queue, holding the submission a worker will run.
    Queued(Box<SubmitSpec>),
    /// Claimed by a warm-pool worker.
    Running,
    /// Finished. The report's trace (if recorded) is kept apart for the
    /// `trace` op, so this report's `trace` is always `None` and cloning
    /// it for `poll`/`wait` never copies an event buffer. Boxed so the
    /// queued/running states don't pay for the report's footprint.
    Done(Box<Result<RunReport, SimError>>),
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
    /// Recorded traces of finished jobs, until `take_trace` claims them.
    traces: HashMap<u64, TraceData>,
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
        let mut inner = self.inner.lock().unwrap();
        inner.next += 1;
        let id = inner.next;
        inner.states.insert(id, JobState::Queued(Box::new(spec)));
        id
    }

    /// Marks a queued job as claimed by a worker and hands over its
    /// submission; `None` (and no change) unless the job is queued.
    pub fn start(&self, job: u64) -> Option<SubmitSpec> {
        let mut inner = self.inner.lock().unwrap();
        let (next, spec) = match inner.states.remove(&job)? {
            JobState::Queued(spec) => (JobState::Running, Some(*spec)),
            other => (other, None),
        };
        inner.states.insert(job, next);
        spec
    }

    /// Records a job's outcome and wakes every `wait`er.
    pub fn complete(&self, job: u64, mut result: Result<RunReport, SimError>) {
        let trace = result.as_mut().ok().and_then(|r| r.trace.take());
        let mut inner = self.inner.lock().unwrap();
        if let Some(trace) = trace {
            inner.traces.insert(job, trace);
        }
        inner.states.insert(job, JobState::Done(Box::new(result)));
        drop(inner);
        self.done.notify_all();
    }

    /// Non-blocking state query; `None` for ids this daemon never issued.
    pub fn poll(&self, job: u64) -> Option<JobState> {
        self.inner.lock().unwrap().states.get(&job).cloned()
    }

    /// Blocks until the job completes or `timeout` expires. `Ok` carries
    /// the outcome; `Err(true)` means timeout, `Err(false)` unknown job.
    pub fn wait(&self, job: u64, timeout: Duration) -> Result<Result<RunReport, SimError>, bool> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            match inner.states.get(&job) {
                None => return Err(false),
                Some(JobState::Done(r)) => return Ok((**r).clone()),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(true);
            }
            let (guard, res) = self.done.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
            if res.timed_out() {
                match inner.states.get(&job) {
                    Some(JobState::Done(r)) => return Ok((**r).clone()),
                    None => return Err(false),
                    Some(_) => return Err(true),
                }
            }
        }
    }

    /// Takes (and clears) the recorded trace of a finished job, so the
    /// potentially large event buffer crosses the wire at most once.
    pub fn take_trace(&self, job: u64) -> Result<Option<TraceData>, JobTraceError> {
        let mut inner = self.inner.lock().unwrap();
        match inner.states.get(&job) {
            None => Err(JobTraceError::UnknownJob),
            Some(JobState::Done(_)) => Ok(inner.traces.remove(&job)),
            Some(_) => Err(JobTraceError::NotDone),
        }
    }

    /// Number of jobs ever created (the next id handed out minus one).
    pub fn created(&self) -> u64 {
        self.inner.lock().unwrap().next
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
    use workloads::{Benchmark, Scale, Variant};

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

    #[test]
    fn lifecycle_and_poll() {
        let t = JobTable::new();
        let id = t.create(spec());
        assert_eq!(t.poll(id).unwrap().name(), "queued");
        assert_eq!(t.start(id), Some(spec()), "the worker takes the spec");
        assert_eq!(t.poll(id).unwrap().name(), "running");
        assert_eq!(t.start(id), None, "a job starts once");
        t.complete(id, Ok(report()));
        assert_eq!(t.poll(id).unwrap().name(), "done");
        assert!(t.poll(id + 1).is_none());
        assert_eq!(t.start(id), None, "a finished job never restarts");
        assert_eq!(t.start(id + 1), None);
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
        t.complete(id, Ok(report()));
        assert!(h.join().unwrap().unwrap().is_ok());
    }

    #[test]
    fn trace_is_taken_at_most_once() {
        let t = JobTable::new();
        let id = t.create(spec());
        assert!(matches!(t.take_trace(id), Err(JobTraceError::NotDone)));
        let mut r = report();
        r.trace = Some(TraceData::default());
        t.complete(id, Ok(r));
        assert!(t.take_trace(id).unwrap().is_some());
        assert!(t.take_trace(id).unwrap().is_none(), "second take is empty");
        assert!(matches!(t.take_trace(77), Err(JobTraceError::UnknownJob)));
    }

    /// `poll` and `wait` clone the finished report under the table lock;
    /// a traced job's event buffer must not come along, and the `trace`
    /// op must still get every event.
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
        t.complete(id, Ok(r));

        let Some(JobState::Done(polled)) = t.poll(id) else {
            panic!("job {id} is done");
        };
        assert!(polled.as_ref().as_ref().unwrap().trace.is_none(), "poll");
        let waited = t.wait(id, Duration::from_millis(1)).unwrap().unwrap();
        assert!(waited.trace.is_none(), "wait");
        let taken = t.take_trace(id).unwrap().expect("the trace was kept");
        assert_eq!(taken.events, events, "every event, once");
        assert!(t.take_trace(id).unwrap().is_none());
    }
}
