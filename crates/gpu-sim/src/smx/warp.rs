//! Warp contexts and the PDOM SIMT reconvergence stack.

use gpu_isa::WarpRegs;

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
/// scheduling state. The special-register table lives beside the warp
/// slab ([`Smx::envs`](crate::smx::Smx::envs)), so the issue path reads
/// a context of ≈ 0.4 KiB. `repr(C)` keeps the fields every issue reads
/// (state, valid mask, stack top, block slot) together in its first
/// cache line.
#[derive(Clone, Debug)]
#[repr(C)]
pub struct Warp {
    /// Scheduling state. *When* a `Ready` warp may issue is not stored
    /// here: the scheduler's per-cycle view lives in the SMX's dense
    /// warp-ready table, so warp selection never touches a warp context.
    pub state: WarpState,
    /// Lanes that exist (the last warp of a block may be partial).
    pub valid_mask: u32,
    /// Top of the SIMT reconvergence stack: the path that issues next.
    /// Meaningless once [`is_done`](Self::is_done).
    top: StackEntry,
    /// Set once every lane has exited (the stack is empty).
    done: bool,
    /// Thread-block slot (within the SMX) this warp belongs to.
    pub tb_slot: usize,
    /// The stack entries under [`top`](Self::top), bottom first. Only a
    /// divergent branch pushes and only exit or reconvergence pops, so a
    /// warp that does not diverge never touches it.
    below: Vec<StackEntry>,
    /// Per-lane architectural state, stored lane-major: all 32 lanes of a
    /// register are contiguous, predicates are warp-wide lane masks. The
    /// backing slab is pooled by the SMX across thread-block placements
    /// ([`Smx::place_tb`](crate::smx::Smx::place_tb) /
    /// [`Smx::release_tb`](crate::smx::Smx::release_tb)).
    pub regs: WarpRegs,
    /// Hardware warp slot index within the SMX (stable for the warp's
    /// lifetime; used for the AGT hash input).
    pub hw_slot: usize,
    /// Global allocation sequence number (GTO "oldest" order).
    pub age: u64,
}

// The issue path reads a warp context per pick; the special-register
// table stays out of it.
const _: () = assert!(std::mem::size_of::<Warp>() <= 512);

impl Warp {
    /// Creates a warp with all valid lanes active at PC 0. `regs` is a
    /// (possibly pooled) register slab; it is re-bound to `nregs` zeroed
    /// registers here, retaining whatever heap capacity it brought along.
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
            state: WarpState::Ready,
            valid_mask,
            top: StackEntry {
                pc: 0,
                mask: valid_mask,
                rpc: NO_RECONV,
            },
            done: false,
            tb_slot,
            below: Vec::new(),
            regs,
            hw_slot,
            age,
        }
    }

    /// True once every lane has exited.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Pops the top entry: the one below takes its place, or the warp is
    /// done when there is none.
    fn pop(&mut self) {
        match self.below.pop() {
            Some(e) => self.top = e,
            None => self.done = true,
        }
    }

    /// Pops reconverged paths: while the top-of-stack has reached its
    /// reconvergence PC, control returns to the entry below (which holds
    /// the union mask at that PC). Must be called before fetching.
    pub fn sync_reconvergence(&mut self) {
        while !self.done && self.top.rpc != NO_RECONV && self.top.pc == self.top.rpc {
            self.pop();
        }
    }

    /// Current PC and active mask; `None` when the warp is done. Callers
    /// on the issue path check [`is_done`](Self::is_done) after
    /// [`sync_reconvergence`](Self::sync_reconvergence), so a `None`
    /// there is a scheduler bug — reported as a typed invariant
    /// violation rather than a panic on the hot path.
    pub fn current(&self) -> Option<(u32, u32)> {
        (!self.done).then_some((self.top.pc, self.top.mask))
    }

    /// Advances the top-of-stack PC to the next instruction.
    pub fn advance_pc(&mut self) {
        if !self.done {
            self.top.pc += 1;
        }
    }

    /// Applies a (possibly divergent) branch at the current PC.
    ///
    /// `taken_mask` must be a subset of the current active mask; the
    /// remaining active lanes fall through to `pc + 1`. `reconv` is the
    /// branch's immediate post-dominator (from the instruction encoding).
    pub fn branch(&mut self, taken_mask: u32, target: u32, reconv: u32) {
        debug_assert!(!self.done, "branch on a finished warp");
        if self.done {
            return;
        }
        let top = &mut self.top;
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
            self.below.push(*top);
            self.below.push(StackEntry {
                pc: target,
                mask: taken_mask,
                rpc: reconv,
            });
            self.top = StackEntry {
                pc: fall_pc,
                mask: fallthrough,
                rpc: reconv,
            };
        }
    }

    /// Retires `mask` lanes (an `exit` instruction): removes them from
    /// every stack entry and drops emptied paths.
    pub fn exit_lanes(&mut self, mask: u32) {
        if !self.done {
            self.top.mask &= !mask;
            for e in &mut self.below {
                e.mask &= !mask;
            }
            self.below.retain(|e| e.mask != 0);
            if self.top.mask == 0 {
                self.pop();
            }
        }
        if self.done {
            self.state = WarpState::Done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(0, 0, 8, u32::MAX, 0, WarpRegs::new())
    }

    /// The stack bottom first, top last, as a plain vector.
    fn stack(w: &Warp) -> Vec<StackEntry> {
        let mut v = w.below.clone();
        if !w.done {
            v.push(w.top);
        }
        v
    }

    /// Moves the issuing path to `pc`, as running its body would.
    fn run_to(w: &mut Warp, pc: u32) {
        w.top.pc = pc;
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
        assert!(w.below.is_empty());
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
        // Fall-through path executes first; beneath it the taken path,
        // then the reconvergence entry.
        assert_eq!(
            stack(&w),
            [
                StackEntry {
                    pc: 20,
                    mask: u32::MAX,
                    rpc: NO_RECONV
                },
                StackEntry {
                    pc: 10,
                    mask: taken,
                    rpc: 20
                },
                StackEntry {
                    pc: 1,
                    mask: !taken,
                    rpc: 20
                },
            ]
        );
        assert_eq!(w.current().unwrap(), (1, !taken));
    }

    #[test]
    fn reconvergence_restores_full_mask() {
        let mut w = warp();
        let taken = 0x0000_00ff;
        w.branch(taken, 10, 20);
        // Fall-through runs to the reconvergence point.
        run_to(&mut w, 20);
        w.sync_reconvergence();
        // Now the taken path runs.
        assert_eq!(w.current().unwrap(), (10, taken));
        run_to(&mut w, 20);
        w.sync_reconvergence();
        assert_eq!(w.current().unwrap(), (20, u32::MAX));
        assert!(w.below.is_empty());
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
        run_to(&mut w, 30);
        w.sync_reconvergence();
        assert_eq!(w.current().unwrap(), (20, 0x30));
        run_to(&mut w, 30);
        w.sync_reconvergence();
        // Inner reconverged: back to outer fall-through mask at 30.
        assert_eq!(w.current().unwrap(), (30, !0x0fu32));
        run_to(&mut w, 40);
        w.sync_reconvergence();
        // Outer taken path still pending.
        assert_eq!(w.current().unwrap(), (10, 0x0f));
        run_to(&mut w, 40);
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
        assert_eq!(stack(&w)[0].mask, 0x0f);
        w.exit_lanes(0x0f);
        assert!(w.is_done());
        assert_eq!(w.state, WarpState::Done);
    }

    #[test]
    fn partial_warp_valid_mask() {
        let w = Warp::new(0, 3, 4, 0x0000_000f, 7, WarpRegs::new());
        assert_eq!(w.valid_mask.count_ones(), 4);
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
                run_to(&mut w, pc); // stay put (model body)
            }
        }
        // All lanes eventually reach 100 with the full mask.
        let (pc, mask) = w.current().unwrap();
        assert_eq!((pc, mask), (100, 0x7));
    }

    // ---- differential check against a plain-vector stack -------------------

    /// The SIMT stack as one heap vector, top last: the representation
    /// the warp used before its top moved inline. Kept as the model.
    #[derive(Clone, Debug)]
    struct ModelStack(Vec<StackEntry>);

    impl ModelStack {
        fn new(valid_mask: u32) -> Self {
            ModelStack(vec![StackEntry {
                pc: 0,
                mask: valid_mask,
                rpc: NO_RECONV,
            }])
        }

        fn is_done(&self) -> bool {
            self.0.is_empty()
        }

        fn sync_reconvergence(&mut self) {
            while let Some(top) = self.0.last() {
                if top.rpc != NO_RECONV && top.pc == top.rpc {
                    self.0.pop();
                } else {
                    break;
                }
            }
        }

        fn current(&self) -> Option<(u32, u32)> {
            let top = self.0.last()?;
            Some((top.pc, top.mask))
        }

        fn advance_pc(&mut self) {
            if let Some(top) = self.0.last_mut() {
                top.pc += 1;
            }
        }

        fn branch(&mut self, taken_mask: u32, target: u32, reconv: u32) {
            let Some(top) = self.0.last_mut() else {
                return;
            };
            let active = top.mask;
            let fallthrough = active & !taken_mask;
            if taken_mask == 0 {
                top.pc += 1;
            } else if fallthrough == 0 {
                top.pc = target;
            } else {
                let fall_pc = top.pc + 1;
                top.pc = reconv;
                self.0.push(StackEntry {
                    pc: target,
                    mask: taken_mask,
                    rpc: reconv,
                });
                self.0.push(StackEntry {
                    pc: fall_pc,
                    mask: fallthrough,
                    rpc: reconv,
                });
            }
        }

        fn exit_lanes(&mut self, mask: u32) {
            for e in &mut self.0 {
                e.mask &= !mask;
            }
            self.0.retain(|e| e.mask != 0);
        }
    }

    /// Random `branch` / `exit_lanes` / `sync_reconvergence` /
    /// `advance_pc` sequences through the model and the warp: nested
    /// divergence (reconvergence points drawn from a few shared PCs, so
    /// paths meet and pop in cascades), exits of part of the active mask
    /// and of lanes waiting on other paths, and partial warps. `current`,
    /// `is_done`, the state and the whole stack must agree after every
    /// step.
    #[test]
    fn stack_matches_the_vector_model() {
        use sim_rand::{Rng, SeedableRng, StdRng};
        let mut deepest = 0;
        let mut exited_under_divergence = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x57ac_0000 + seed);
            let valid = match rng.gen_range(0..3u32) {
                0 => u32::MAX,
                1 => (1u32 << rng.gen_range(1..32u32)) - 1,
                _ => rng.gen::<u32>() | 1,
            };
            let mut w = Warp::new(0, 0, 4, valid, 0, WarpRegs::new());
            let mut m = ModelStack::new(valid);
            for step in 0..400 {
                let ctx = format!("seed {seed} step {step}");
                w.sync_reconvergence();
                m.sync_reconvergence();
                assert_eq!(w.current(), m.current(), "{ctx}: after sync");
                assert_eq!(w.is_done(), m.is_done(), "{ctx}: after sync");
                let Some((pc, active)) = m.current() else {
                    break;
                };
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        // A branch taken by a random subset of the active
                        // lanes, reconverging at one of a few join PCs
                        // (sometimes the target itself, as a loop exit).
                        let taken = match rng.gen_range(0..4u32) {
                            0 => 0,
                            1 => active,
                            _ => rng.gen::<u32>() & active,
                        };
                        let reconv = pc + rng.gen_range(1..6u32);
                        let target = if rng.gen_bool(0.2) {
                            reconv
                        } else {
                            pc + rng.gen_range(1..8u32)
                        };
                        w.branch(taken, target, reconv);
                        m.branch(taken, target, reconv);
                    }
                    4 => {
                        // `exit` by the active lanes, some of them, or
                        // lanes of paths further down the stack too.
                        let mask = match rng.gen_range(0..3u32) {
                            0 => active,
                            1 => rng.gen::<u32>() & active,
                            _ => rng.gen::<u32>(),
                        };
                        if m.0.len() > 1 {
                            exited_under_divergence += 1;
                        }
                        w.exit_lanes(mask);
                        m.exit_lanes(mask);
                    }
                    _ => {
                        w.advance_pc();
                        m.advance_pc();
                    }
                }
                deepest = deepest.max(m.0.len());
                assert_eq!(w.current(), m.current(), "{ctx}");
                assert_eq!(w.is_done(), m.is_done(), "{ctx}");
                assert_eq!(stack(&w), m.0, "{ctx}");
                assert_eq!(w.state == WarpState::Done, m.is_done(), "{ctx}");
            }
        }
        assert!(deepest >= 7, "nesting reached only depth {deepest}");
        assert!(
            exited_under_divergence > 100,
            "{exited_under_divergence} exits"
        );
    }
}
