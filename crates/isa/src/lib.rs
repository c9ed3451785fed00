//! A SASS-like GPU instruction set and kernel IR.
//!
//! This crate defines the instruction set executed by the SwapCodes SM
//! simulator and transformed by the duplication compiler passes: fixed-point
//! and floating-point arithmetic (including the mixed-width `IMAD.WIDE` the
//! paper's residue predictor targets), predicates, moves, conversions,
//! special-register reads, loads/stores/atomics, warp shuffles, barriers,
//! branches and traps.
//!
//! Register state mirrors a compute GPU: 32-bit general-purpose registers
//! `R0..=R254` (with `RZ` hard-wired to zero), 64-bit values in
//! even-aligned register pairs, and predicate registers `P0..=P6` (with `PT`
//! hard-wired true). Kernels carry their instructions, resolved branch
//! targets and launch-relevant metadata; [`KernelBuilder`] provides labels
//! and a small assembler-like API.
//!
//! # Example
//!
//! ```
//! use swapcodes_isa::{KernelBuilder, Op, Reg, Src, SpecialReg};
//!
//! let mut k = KernelBuilder::new("saxpy");
//! k.push(Op::S2R { d: Reg(0), sr: SpecialReg::TidX });
//! k.push(Op::IAdd { d: Reg(1), a: Reg(0), b: Src::Imm(1) });
//! k.push(Op::Exit);
//! let kernel = k.finish();
//! assert_eq!(kernel.register_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disasm;
mod instr;
pub mod json;
mod kernel;
pub mod liveness;
mod op;
mod reg;
pub mod validate;

pub use instr::{Instr, Role};
pub use kernel::{Kernel, KernelBuilder, Label};
pub use liveness::{LiveSet, Liveness};
pub use op::{CmpOp, CmpTy, FuncUnit, MemSpace, MemWidth, Op, RegRole, ShflMode, SpecialReg, Src};
pub use reg::{Pred, Reg, PT, RZ};
