//! Typed simulation failures and the structured hang diagnostics attached
//! to them.
//!
//! Every way a run can go wrong — a misbehaving simulated program, an
//! exhausted hardware structure, an injected fault, or a broken simulator
//! invariant — surfaces as a [`SimError`] out of
//! [`Gpu::run_to_idle`](crate::Gpu::run_to_idle) instead of a panic, so
//! harnesses can report the failing benchmark and keep going.

use crate::stats::Stats;
use gpu_isa::KernelId;
use gpu_trace::TraceEvent;
use std::error::Error;
use std::fmt;

/// Which limit of a [`RunBudget`](crate::RunBudget) fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The host wall-clock deadline expired (`deadline_ms`).
    WallClock,
    /// The simulated-cycle cap was reached (`cycle_cap`).
    Cycles,
    /// Live device-heap bytes exceeded the cap (`live_heap_cap`).
    LiveHeap,
}

impl BudgetKind {
    /// Stable numeric code used in `deadline_hit` trace events.
    pub fn code(self) -> u8 {
        match self {
            BudgetKind::WallClock => 0,
            BudgetKind::Cycles => 1,
            BudgetKind::LiveHeap => 2,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::WallClock => "wall_clock",
            BudgetKind::Cycles => "cycles",
            BudgetKind::LiveHeap => "live_heap",
        }
    }
}

/// Simulation failure modes.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The run exceeded `GpuConfig::max_cycles`.
    CycleLimit {
        /// The limit that was hit.
        cycles: u64,
    },
    /// A [`RunBudget`](crate::RunBudget) limit fired before the run went
    /// idle. Carries the partial statistics accumulated up to the stop,
    /// so a supervisor can still account for the work done.
    DeadlineExceeded {
        /// Which budget limit fired.
        budget: BudgetKind,
        /// Cycle the run stopped at.
        cycle: u64,
        /// Statistics accumulated up to the stop.
        stats: Box<Stats>,
    },
    /// The run's [`CancelToken`](crate::CancelToken) was triggered.
    /// Carries the partial statistics accumulated up to the stop.
    Cancelled {
        /// Cycle the run stopped at.
        cycle: u64,
        /// Statistics accumulated up to the stop.
        stats: Box<Stats>,
    },
    /// The device heap is exhausted.
    OutOfMemory {
        /// The allocation size that failed.
        bytes: u32,
    },
    /// A launch named a kernel id not present in the program.
    UnknownKernel(KernelId),
    /// The forward-progress watchdog found warps parked at a barrier that
    /// can never be satisfied (their sibling warps diverged, spin forever
    /// or exited down a path that skips the barrier): a classic barrier
    /// deadlock in the simulated program.
    BarrierDeadlock {
        /// Machine-state snapshot naming the stuck warps.
        report: Box<HangReport>,
    },
    /// The forward-progress watchdog saw no retirement, no kernel
    /// installation, no memory completion and no launch for a whole
    /// watchdog window — a hang that is not (only) a barrier deadlock.
    Hang {
        /// Machine-state snapshot naming the stuck warps.
        report: Box<HangReport>,
    },
    /// A warp accessed shared memory outside its block's allocation — a
    /// bug in the simulated program, reported instead of crashing the
    /// simulator.
    SharedMemFault {
        /// SMX the faulting block is resident on.
        smx: usize,
        /// Its thread-block slot.
        tb_slot: usize,
        /// Faulting byte address (block-local).
        addr: u32,
        /// Size of the block's shared allocation in bytes.
        size: u32,
    },
    /// A kernel failed to assemble (workload construction bug).
    KernelBuild {
        /// Builder error text.
        detail: String,
    },
    /// The per-cycle invariant checker found simulator state that breaks
    /// one of its conservation laws; `law` names the first broken one.
    InvariantViolation {
        /// Cycle the law first failed.
        cycle: u64,
        /// Human-readable statement of the broken law.
        law: String,
    },
    /// A supervised sweep cell panicked on every attempt; the supervisor
    /// (see [`sweep`](crate::sweep)) converted the crash into data so the
    /// rest of the sweep could finish. The full
    /// [`CrashReport`](crate::sweep::CrashReport) (cycle, recent trace
    /// events) is available from
    /// [`run_cells_supervised`](crate::sweep::run_cells_supervised);
    /// this variant carries the portable summary.
    CellCrashed {
        /// Attempts made in total (first run + quarantined retries).
        attempts: u32,
        /// The panic payload rendered as text.
        payload: String,
    },
    /// A benchmark ran to completion but its output diverged from the
    /// host reference.
    ValidationFailed {
        /// Benchmark configuration name (e.g. `bfs_citation`).
        app: String,
        /// What diverged.
        detail: String,
    },
}

impl SimError {
    /// True when this error is a pure function of the cell that produced
    /// it — the same config, program, and inputs would fail the same way
    /// on every host, every time. Deterministic errors are safe for a
    /// result cache to memoize under a key that covers
    /// [`GpuConfig::content_hash`](crate::GpuConfig::content_hash) *and*
    /// [`GpuConfig::budget_hash`](crate::GpuConfig::budget_hash) (the
    /// deterministic cut-short knobs).
    ///
    /// Host-dependent outcomes are excluded: a wall-clock
    /// [`DeadlineExceeded`](SimError::DeadlineExceeded) depends on machine
    /// speed, [`Cancelled`](SimError::Cancelled) on operator action, and
    /// [`CellCrashed`](SimError::CellCrashed) on whatever the panic was —
    /// caching any of them would replay a transient as if it were truth.
    pub fn is_deterministic(&self) -> bool {
        match self {
            SimError::DeadlineExceeded { budget, .. } => *budget != BudgetKind::WallClock,
            SimError::Cancelled { .. } | SimError::CellCrashed { .. } => false,
            _ => true,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit { cycles } => {
                write!(f, "simulation exceeded the {cycles}-cycle limit")
            }
            SimError::DeadlineExceeded { budget, cycle, .. } => {
                write!(
                    f,
                    "run budget ({}) exceeded at cycle {cycle}",
                    budget.name()
                )
            }
            SimError::Cancelled { cycle, .. } => {
                write!(f, "run cancelled at cycle {cycle}")
            }
            SimError::OutOfMemory { bytes } => {
                write!(f, "device heap exhausted allocating {bytes} bytes")
            }
            SimError::UnknownKernel(k) => write!(f, "kernel {k} is not in the loaded program"),
            SimError::BarrierDeadlock { report } => {
                write!(f, "barrier deadlock detected\n{report}")
            }
            SimError::Hang { report } => {
                write!(f, "no forward progress (hang) detected\n{report}")
            }
            SimError::SharedMemFault {
                smx,
                tb_slot,
                addr,
                size,
            } => write!(
                f,
                "shared-memory fault on SMX {smx} TB slot {tb_slot}: \
                 address {addr} outside the {size}-byte allocation"
            ),
            SimError::KernelBuild { detail } => write!(f, "kernel failed to build: {detail}"),
            SimError::InvariantViolation { cycle, law } => {
                write!(f, "invariant violated at cycle {cycle}: {law}")
            }
            SimError::CellCrashed { attempts, payload } => {
                write!(
                    f,
                    "sweep cell crashed after {attempts} attempt(s): {payload}"
                )
            }
            SimError::ValidationFailed { app, detail } => {
                write!(f, "{app}: output diverged from host reference: {detail}")
            }
        }
    }
}

impl Error for SimError {}

/// Why a stuck warp is not making progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StuckWarpState {
    /// Parked at a block-wide barrier.
    AtBarrier {
        /// Warps of the block that have arrived at the barrier.
        arrived: u32,
        /// Warps of the block still live (the barrier releases when
        /// `arrived >= live`).
        live: u32,
    },
    /// Waiting on outstanding memory transactions.
    WaitingMem {
        /// Transactions still in flight for this warp.
        outstanding: u32,
    },
    /// Nominally ready but never selected / perpetually re-stalled.
    Stalled {
        /// Cycle the warp claims it becomes issueable.
        ready_at: u64,
    },
}

/// One stuck warp in a [`HangReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuckWarp {
    /// SMX the warp is resident on.
    pub smx: usize,
    /// Warp slot within the SMX.
    pub warp_slot: usize,
    /// Thread-block slot the warp belongs to.
    pub tb_slot: usize,
    /// Program counter of the warp's current reconvergence-stack top.
    pub pc: u32,
    /// Active lane mask at that PC.
    pub active_mask: u32,
    /// Why it is stuck.
    pub state: StuckWarpState,
}

/// Snapshot of the machine taken when the forward-progress watchdog
/// fires: everything needed to diagnose *what* is stuck and *where*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HangReport {
    /// Cycle the watchdog fired.
    pub cycle: u64,
    /// Last cycle any progress signal (thread-block retirement, kernel
    /// installation, memory completion, launch) was observed.
    pub last_progress_cycle: u64,
    /// Every live warp and why it is not retiring.
    pub stuck_warps: Vec<StuckWarp>,
    /// Depth of each hardware work queue.
    pub hwq_depths: Vec<usize>,
    /// Device-launched kernels pending in the KMU.
    pub kmu_pending_device: usize,
    /// Occupied Kernel Distributor entries.
    pub kd_occupied: usize,
    /// Live on-chip AGT entries.
    pub agt_live_on_chip: usize,
    /// Live spilled (overflow) aggregated-group descriptors.
    pub agt_live_overflow: usize,
    /// Memory transactions issued but not completed.
    pub outstanding_mem: usize,
    /// The most recent trace events before the hang (newest last), taken
    /// from the recorder's bounded ring. Empty when tracing is disabled —
    /// re-run with tracing on to see what the machine last did.
    pub recent_events: Vec<TraceEvent>,
}

impl HangReport {
    /// True when the hang is a barrier deadlock: at least one warp is
    /// parked at a barrier, and no memory transaction is in flight that
    /// could still unblock the machine. The warps *not* at the barrier are
    /// the diagnosis — they are the siblings whose divergence (runaway
    /// loop, early exit path) keeps the barrier from being satisfied. A
    /// hang with outstanding memory is classified as a generic hang
    /// instead (a lost completion, not a barrier bug).
    pub fn barrier_deadlock(&self) -> bool {
        self.outstanding_mem == 0
            && self
                .stuck_warps
                .iter()
                .any(|w| matches!(w.state, StuckWarpState::AtBarrier { .. }))
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  no progress since cycle {} (now {}); {} stuck warp(s), \
             {} KDE entries occupied, {} device kernels pending, \
             AGT {} on-chip / {} overflow, {} memory transactions in flight",
            self.last_progress_cycle,
            self.cycle,
            self.stuck_warps.len(),
            self.kd_occupied,
            self.kmu_pending_device,
            self.agt_live_on_chip,
            self.agt_live_overflow,
            self.outstanding_mem,
        )?;
        for w in &self.stuck_warps {
            write!(
                f,
                "  smx {} warp {} (tb {}) pc={} mask={:#010x}: ",
                w.smx, w.warp_slot, w.tb_slot, w.pc, w.active_mask
            )?;
            match w.state {
                StuckWarpState::AtBarrier { arrived, live } => {
                    writeln!(f, "at barrier ({arrived}/{live} warps arrived)")?
                }
                StuckWarpState::WaitingMem { outstanding } => {
                    writeln!(f, "waiting on {outstanding} memory transaction(s)")?
                }
                StuckWarpState::Stalled { ready_at } => {
                    writeln!(f, "stalled (ready_at cycle {ready_at})")?
                }
            }
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last {} trace events:", self.recent_events.len())?;
            for ev in &self.recent_events {
                writeln!(f, "    cycle {}: {:?}", ev.cycle, ev.kind)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp(state: StuckWarpState) -> StuckWarp {
        StuckWarp {
            smx: 0,
            warp_slot: 1,
            tb_slot: 2,
            pc: 7,
            active_mask: 0xffff_ffff,
            state,
        }
    }

    fn report(warps: Vec<StuckWarp>) -> HangReport {
        HangReport {
            cycle: 1000,
            last_progress_cycle: 400,
            stuck_warps: warps,
            hwq_depths: vec![0; 4],
            kmu_pending_device: 0,
            kd_occupied: 1,
            agt_live_on_chip: 0,
            agt_live_overflow: 0,
            outstanding_mem: 0,
            recent_events: Vec::new(),
        }
    }

    #[test]
    fn barrier_classification() {
        // The canonical divergent-barrier deadlock: one warp parked at the
        // barrier, its sibling spinning forever on the other path.
        let mixed = report(vec![
            warp(StuckWarpState::AtBarrier {
                arrived: 1,
                live: 2,
            }),
            warp(StuckWarpState::Stalled { ready_at: 10 }),
        ]);
        assert!(mixed.barrier_deadlock());
        // No barrier involved: a plain runaway loop.
        let spin = report(vec![warp(StuckWarpState::Stalled { ready_at: 10 })]);
        assert!(!spin.barrier_deadlock());
        // Outstanding memory means a lost completion, not a barrier bug.
        let mut lost = report(vec![warp(StuckWarpState::AtBarrier {
            arrived: 1,
            live: 2,
        })]);
        lost.outstanding_mem = 3;
        assert!(!lost.barrier_deadlock());
        assert!(!report(Vec::new()).barrier_deadlock());
    }

    #[test]
    fn display_names_the_stuck_warp() {
        let e = SimError::BarrierDeadlock {
            report: Box::new(report(vec![warp(StuckWarpState::AtBarrier {
                arrived: 1,
                live: 2,
            })])),
        };
        let text = e.to_string();
        assert!(text.contains("barrier deadlock"));
        assert!(text.contains("smx 0 warp 1 (tb 2) pc=7"));
        assert!(text.contains("1/2 warps arrived"));
    }

    #[test]
    fn determinism_classification() {
        let stats = Box::new(crate::stats::Stats::default());
        assert!(SimError::CycleLimit { cycles: 10 }.is_deterministic());
        assert!(SimError::DeadlineExceeded {
            budget: BudgetKind::Cycles,
            cycle: 5,
            stats: stats.clone()
        }
        .is_deterministic());
        assert!(SimError::DeadlineExceeded {
            budget: BudgetKind::LiveHeap,
            cycle: 5,
            stats: stats.clone()
        }
        .is_deterministic());
        assert!(!SimError::DeadlineExceeded {
            budget: BudgetKind::WallClock,
            cycle: 5,
            stats: stats.clone()
        }
        .is_deterministic());
        assert!(!SimError::Cancelled {
            cycle: 5,
            stats: stats.clone()
        }
        .is_deterministic());
        assert!(!SimError::CellCrashed {
            attempts: 2,
            payload: "boom".into()
        }
        .is_deterministic());
        assert!(SimError::OutOfMemory { bytes: 64 }.is_deterministic());
    }

    #[test]
    fn errors_format_their_context() {
        assert!(SimError::InvariantViolation {
            cycle: 99,
            law: "conservation".into()
        }
        .to_string()
        .contains("cycle 99"));
        assert!(SimError::ValidationFailed {
            app: "bfs_citation".into(),
            detail: "node 7 depth 2 != 3".into()
        }
        .to_string()
        .contains("bfs_citation"));
    }
}
