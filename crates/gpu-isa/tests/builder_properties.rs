//! Randomized tests for the structured kernel builder: arbitrarily nested
//! control flow always produces kernels whose branch encodings satisfy
//! the invariants the SIMT reconvergence stack relies on.
//!
//! Uses seeded `sim_rand` loops (the offline stand-in for proptest): each
//! case is fully determined by the iteration index, so failures reproduce
//! exactly.

use gpu_isa::{CmpOp, CmpTy, Dim3, KernelBuilder, Op, Reg, UOp};
use sim_rand::{Rng, SeedableRng, StdRng};

#[derive(Clone, Debug)]
enum Shape {
    Alu,
    If(Vec<Shape>),
    IfElse(Vec<Shape>, Vec<Shape>),
    For(u32, Vec<Shape>),
}

fn gen_shapes(rng: &mut StdRng, depth: u32, max_len: usize) -> Vec<Shape> {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| gen_shape(rng, depth)).collect()
}

fn gen_shape(rng: &mut StdRng, depth: u32) -> Shape {
    if depth == 0 {
        return Shape::Alu;
    }
    match rng.gen_range(0u32..4) {
        0 => Shape::Alu,
        1 => Shape::If(gen_shapes(rng, depth - 1, 2)),
        2 => Shape::IfElse(gen_shapes(rng, depth - 1, 2), gen_shapes(rng, depth - 1, 2)),
        _ => Shape::For(rng.gen_range(1u32..4), gen_shapes(rng, depth - 1, 2)),
    }
}

fn emit(b: &mut KernelBuilder, shapes: &[Shape], x: Reg) {
    for s in shapes {
        match s {
            Shape::Alu => {
                let t = b.iadd(x, Op::Imm(1));
                b.mov_to(x, Op::Reg(t));
            }
            Shape::If(body) => {
                let p = b.setp(CmpOp::Lt, CmpTy::U32, x, Op::Imm(100));
                let body = body.clone();
                b.if_(p, move |b| emit(b, &body, x));
            }
            Shape::IfElse(t, e) => {
                let p = b.setp(CmpOp::Ge, CmpTy::U32, x, Op::Imm(50));
                let (t, e) = (t.clone(), e.clone());
                b.if_else_(p, move |b| emit(b, &t, x), move |b| emit(b, &e, x));
            }
            Shape::For(n, body) => {
                let body = body.clone();
                b.for_range(Op::Imm(0), Op::Imm(*n), move |b, _| emit(b, &body, x));
            }
        }
    }
}

#[test]
fn structured_control_flow_is_well_formed() {
    let mut rng = StdRng::seed_from_u64(0xB41D);
    for case in 0..256 {
        let shapes = gen_shapes(&mut rng, 3, 4);
        let mut b = KernelBuilder::new("p", Dim3::x(32), 0);
        let x = b.imm(0);
        emit(&mut b, &shapes, x);
        let k = match b.build() {
            Ok(k) => k,
            // Deep nests can exhaust the predicate budget; that is a
            // legal, well-reported outcome, not a violation.
            Err(gpu_isa::BuildError::TooManyPreds { .. }) => continue,
            Err(e) => panic!("case {case}: unexpected build error: {e}"),
        };
        let len = k.uops().len() as u32;
        assert!(
            matches!(k.uops().last().map(|m| m.op), Some(UOp::Exit)),
            "case {case}: kernel must end in Exit"
        );
        for (pc, m) in k.uops().iter().enumerate() {
            if let UOp::Bra {
                pred,
                target,
                reconv,
            } = m.op
            {
                assert!(target < len, "case {case}: target in range");
                assert!(reconv < len, "case {case}: reconv in range");
                if pred.is_some() {
                    // Predicated branches are forward with a reconvergence
                    // point at or after the target (immediate
                    // post-dominator of a structured construct).
                    assert!(
                        target > pc as u32,
                        "case {case}: predicated branch is forward"
                    );
                    assert!(
                        reconv >= target,
                        "case {case}: reconv post-dominates the target"
                    );
                }
            }
        }
    }
}

/// Register/predicate accounting is exact: the kernel declares exactly
/// as many registers as the builder allocated.
#[test]
fn register_accounting() {
    let mut rng = StdRng::seed_from_u64(0xACC7);
    for case in 0..64 {
        let n_regs = rng.gen_range(1u32..200);
        let n_preds = rng.gen_range(0u32..60);
        let mut b = KernelBuilder::new("p", Dim3::x(32), 0);
        for _ in 0..n_regs {
            let _ = b.alloc();
        }
        for _ in 0..n_preds {
            let _ = b.alloc_pred();
        }
        let k = match b.build() {
            Ok(k) => k,
            Err(e) => panic!("case {case}: build failed: {e}"),
        };
        assert_eq!(u32::from(k.regs_per_thread()), n_regs.max(1), "case {case}");
        assert_eq!(u32::from(k.preds_per_thread()), n_preds, "case {case}");
    }
}
