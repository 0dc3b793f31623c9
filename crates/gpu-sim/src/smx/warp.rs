//! Warp contexts and the PDOM SIMT reconvergence stack.

use gpu_isa::{WarpEnv, WarpRegs};

/// Sentinel reconvergence PC meaning "no reconvergence point" (the base
/// stack entry).
pub const NO_RECONV: u32 = u32::MAX;

/// One entry of the SIMT stack: the PC, active mask and reconvergence PC
/// of one control-flow path (Fung et al.\[13\] in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackEntry {
    /// Next PC of this path.
    pub pc: u32,
    /// Lanes executing this path.
    pub mask: u32,
    /// PC at which this path reconverges with its sibling (immediate
    /// post-dominator of the branch that created it).
    pub rpc: u32,
}

/// Scheduling state of a warp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarpState {
    /// May issue once the cycle in the SMX's warp-ready table
    /// ([`Smx::issuable_at`](crate::smx::Smx::issuable_at)) is reached.
    Ready,
    /// Blocked on `outstanding` memory transactions.
    WaitingMem {
        /// Transactions still in flight.
        outstanding: u32,
    },
    /// Waiting at a thread-block barrier.
    AtBarrier,
    /// All lanes exited.
    Done,
}

/// A resident warp: a lane-major register file plus the SIMT stack and
/// scheduling state.
#[derive(Clone, Debug)]
pub struct Warp {
    /// Thread-block slot (within the SMX) this warp belongs to.
    pub tb_slot: usize,
    /// Hardware warp slot index within the SMX (stable for the warp's
    /// lifetime; used for the AGT hash input).
    pub hw_slot: usize,
    /// Per-lane architectural state, stored lane-major: all 32 lanes of a
    /// register are contiguous, predicates are warp-wide lane masks. The
    /// backing slab is pooled by the SMX across thread-block placements
    /// ([`Smx::place_tb`](crate::smx::Smx::place_tb) /
    /// [`Smx::release_tb`](crate::smx::Smx::release_tb)).
    pub regs: WarpRegs,
    /// Per-warp special-register table, precomputed at placement: thread
    /// indices are delinearized once here instead of once per lane per
    /// issued instruction.
    pub env: WarpEnv,
    /// SIMT reconvergence stack; empty means all lanes exited.
    pub stack: Vec<StackEntry>,
    /// Lanes that exist (the last warp of a block may be partial).
    pub valid_mask: u32,
    /// Scheduling state. *When* a `Ready` warp may issue is not stored
    /// here: the scheduler's per-cycle view lives in the SMX's dense
    /// warp-ready table, so warp selection never touches this ~2 KiB
    /// struct.
    pub state: WarpState,
    /// Global allocation sequence number (GTO "oldest" order).
    pub age: u64,
}

impl Warp {
    /// Creates a warp with all valid lanes active at PC 0. `regs` is a
    /// (possibly pooled) register slab; it is re-bound to `nregs` zeroed
    /// registers here, retaining whatever heap capacity it brought along.
    /// The caller populates [`env`](Self::env) after placement (it holds
    /// the warp's block coordinates, which this constructor is not given).
    pub fn new(
        tb_slot: usize,
        hw_slot: usize,
        nregs: u16,
        valid_mask: u32,
        age: u64,
        mut regs: WarpRegs,
    ) -> Self {
        regs.reset(nregs, valid_mask);
        Warp {
            tb_slot,
            hw_slot,
            regs,
            env: WarpEnv::new(),
            stack: vec![StackEntry {
                pc: 0,
                mask: valid_mask,
                rpc: NO_RECONV,
            }],
            valid_mask,
            state: WarpState::Ready,
            age,
        }
    }

    /// True once every lane has exited.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Pops reconverged paths: while the top-of-stack has reached its
    /// reconvergence PC, control returns to the entry below (which holds
    /// the union mask at that PC). Must be called before fetching.
    pub fn sync_reconvergence(&mut self) {
        while let Some(top) = self.stack.last() {
            if top.rpc != NO_RECONV && top.pc == top.rpc {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    /// Current PC and active mask; `None` when the warp is done. Callers
    /// on the issue path check [`is_done`](Self::is_done) after
    /// [`sync_reconvergence`](Self::sync_reconvergence), so a `None`
    /// there is a scheduler bug — reported as a typed invariant
    /// violation rather than a panic on the hot path.
    pub fn current(&self) -> Option<(u32, u32)> {
        let top = self.stack.last()?;
        Some((top.pc, top.mask))
    }

    /// Advances the top-of-stack PC to the next instruction.
    pub fn advance_pc(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            top.pc += 1;
        }
    }

    /// Applies a (possibly divergent) branch at the current PC.
    ///
    /// `taken_mask` must be a subset of the current active mask; the
    /// remaining active lanes fall through to `pc + 1`. `reconv` is the
    /// branch's immediate post-dominator (from the instruction encoding).
    pub fn branch(&mut self, taken_mask: u32, target: u32, reconv: u32) {
        debug_assert!(!self.stack.is_empty(), "branch on a finished warp");
        let Some(top) = self.stack.last_mut() else {
            return;
        };
        let active = top.mask;
        debug_assert_eq!(taken_mask & !active, 0, "taken lanes must be active");
        let fallthrough = active & !taken_mask;
        if taken_mask == 0 {
            top.pc += 1;
        } else if fallthrough == 0 {
            top.pc = target;
        } else {
            // Divergence: the current entry becomes the reconvergence
            // entry (full mask, resumes at `reconv`); the two paths are
            // pushed above it. Fall-through executes first.
            let fall_pc = top.pc + 1;
            top.pc = reconv;
            self.stack.push(StackEntry {
                pc: target,
                mask: taken_mask,
                rpc: reconv,
            });
            self.stack.push(StackEntry {
                pc: fall_pc,
                mask: fallthrough,
                rpc: reconv,
            });
        }
    }

    /// Retires `mask` lanes (an `exit` instruction): removes them from
    /// every stack entry and drops emptied paths.
    pub fn exit_lanes(&mut self, mask: u32) {
        for e in &mut self.stack {
            e.mask &= !mask;
        }
        self.stack.retain(|e| e.mask != 0);
        if self.stack.is_empty() {
            self.state = WarpState::Done;
        }
    }

    /// Number of currently valid lanes.
    pub fn lane_count(&self) -> u32 {
        self.valid_mask.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(0, 0, 8, u32::MAX, 0, WarpRegs::new())
    }

    #[test]
    fn fresh_warp_starts_at_pc0_full_mask() {
        let w = warp();
        assert_eq!(w.current().unwrap(), (0, u32::MAX));
        assert!(!w.is_done());
    }

    #[test]
    fn uniform_branch_does_not_push() {
        let mut w = warp();
        w.branch(u32::MAX, 10, 20);
        assert_eq!(w.stack.len(), 1);
        assert_eq!(w.current().unwrap(), (10, u32::MAX));
        // Not-taken uniform branch falls through.
        let mut w = warp();
        w.branch(0, 10, 20);
        assert_eq!(w.current().unwrap(), (1, u32::MAX));
    }

    #[test]
    fn divergent_branch_pushes_both_paths() {
        let mut w = warp();
        let taken = 0x0000_ffff;
        w.branch(taken, 10, 20);
        assert_eq!(w.stack.len(), 3);
        // Fall-through path executes first.
        assert_eq!(w.current().unwrap(), (1, !taken));
        // Beneath it: taken path, then the reconvergence entry.
        assert_eq!(
            w.stack[1],
            StackEntry {
                pc: 10,
                mask: taken,
                rpc: 20
            }
        );
        assert_eq!(
            w.stack[0],
            StackEntry {
                pc: 20,
                mask: u32::MAX,
                rpc: NO_RECONV
            }
        );
    }

    #[test]
    fn reconvergence_restores_full_mask() {
        let mut w = warp();
        let taken = 0x0000_00ff;
        w.branch(taken, 10, 20);
        // Fall-through runs to the reconvergence point.
        w.stack.last_mut().unwrap().pc = 20;
        w.sync_reconvergence();
        // Now the taken path runs.
        assert_eq!(w.current().unwrap(), (10, taken));
        w.stack.last_mut().unwrap().pc = 20;
        w.sync_reconvergence();
        assert_eq!(w.current().unwrap(), (20, u32::MAX));
        assert_eq!(w.stack.len(), 1);
    }

    #[test]
    fn nested_divergence_unwinds_inside_out() {
        let mut w = warp();
        w.branch(0x0f, 10, 40); // outer: lanes 0-3 to 10, rest falls to 1
        assert_eq!(w.current().unwrap(), (1, !0x0fu32));
        // Inner divergence on the fall-through path.
        w.branch(0x30, 20, 30); // lanes 4,5 taken
        assert_eq!(w.current().unwrap(), (2, !0x0fu32 & !0x30));
        // Run inner fall-through to its reconv.
        w.stack.last_mut().unwrap().pc = 30;
        w.sync_reconvergence();
        assert_eq!(w.current().unwrap(), (20, 0x30));
        w.stack.last_mut().unwrap().pc = 30;
        w.sync_reconvergence();
        // Inner reconverged: back to outer fall-through mask at 30.
        assert_eq!(w.current().unwrap(), (30, !0x0fu32));
        w.stack.last_mut().unwrap().pc = 40;
        w.sync_reconvergence();
        // Outer taken path still pending.
        assert_eq!(w.current().unwrap(), (10, 0x0f));
        w.stack.last_mut().unwrap().pc = 40;
        w.sync_reconvergence();
        assert_eq!(w.current().unwrap(), (40, u32::MAX));
    }

    #[test]
    fn exit_under_divergence_cleans_all_entries() {
        let mut w = warp();
        w.branch(0x0f, 10, 20);
        // Fall-through lanes exit (e.g. `if (tid < 4) {...} else return;`).
        let (_, mask) = w.current().unwrap();
        w.exit_lanes(mask);
        assert!(!w.is_done());
        // The taken path remains.
        assert_eq!(w.current().unwrap(), (10, 0x0f));
        // Reconvergence entry must have lost the exited lanes too.
        assert_eq!(w.stack[0].mask, 0x0f);
        w.exit_lanes(0x0f);
        assert!(w.is_done());
        assert_eq!(w.state, WarpState::Done);
    }

    #[test]
    fn partial_warp_valid_mask() {
        let w = Warp::new(0, 3, 4, 0x0000_000f, 7, WarpRegs::new());
        assert_eq!(w.lane_count(), 4);
        assert_eq!(w.current().unwrap(), (0, 0x0f));
        assert_eq!(w.age, 7);
        assert_eq!(w.hw_slot, 3);
    }

    #[test]
    fn loop_style_repeated_divergence_terminates() {
        // Simulates a loop where one lane exits per "iteration" via a
        // divergent branch to the loop exit (pc 100).
        let mut w = Warp::new(0, 0, 4, 0x7, 0, WarpRegs::new());
        let mut exited = 0u32;
        for lane in 0..3u32 {
            let exit_mask = 1 << lane;
            w.branch(exit_mask, 100, 100);
            // Taken path is at 100 == rpc: pops on sync; fall-through (if
            // any) continues the loop body.
            w.sync_reconvergence();
            exited |= exit_mask;
            if exited != 0x7 {
                let (pc, mask) = w.current().unwrap();
                assert_eq!(mask, 0x7 & !exited, "continuing lanes after {lane}");
                // Jump back to loop head.
                w.stack.last_mut().unwrap().pc = pc; // stay put (model body)
            }
        }
        // All lanes eventually reach 100 with the full mask.
        let (pc, mask) = w.current().unwrap();
        assert_eq!((pc, mask), (100, 0x7));
    }
}
