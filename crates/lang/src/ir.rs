//! The compiler's CFG-based intermediate representation.
//!
//! A function is a list of basic blocks of register-machine instructions.
//! Shared-memory accesses appear as explicit annotation instructions
//! (`Map`, `StartRead`, ..., Figure 5); each lowered access site gets an
//! [`AccessId`] shared by its `Map`/`Start`/`End` triple, which is how the
//! optimization passes and the Table 4 accounting identify them. Every
//! annotation carries a [`DispatchMode`], rewritten by the direct-dispatch
//! pass.

use ace_protocols::ProtoSpec;

/// Virtual register index (function-local).
pub type VReg = u32;
/// Basic block index (function-local).
pub type BlockId = usize;
/// Function index (program-global).
pub type FuncId = usize;
/// Identity of one lowered shared-access site.
pub type AccessId = u32;

/// Value interpretation for typed IR operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValTy {
    /// 64-bit integer.
    I,
    /// 64-bit float.
    F,
    /// Region handle.
    H,
    /// Space handle.
    S,
}

/// How an annotation reaches its protocol (§4.2, "Avoiding Dispatching
/// Overhead").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Through the region's space (hash lookup + indirect call).
    Dispatch,
    /// Directly to a statically-known protocol.
    Direct(ProtoSpec),
    /// Removed: the statically-known protocol declares the action null.
    Removed,
}

/// Binary operations (operand type in the instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Runtime intrinsics (the Ace library routines of Table 2 plus SPMD
/// helpers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intr {
    /// `Ace_NewSpace(protocol)`; the site index keys the protocol
    /// dataflow.
    NewSpace { spec: ProtoSpec, site: u32 },
    /// `Ace_ChangeProtocol(space, protocol)`.
    ChangeProtocol { spec: ProtoSpec },
    /// `Ace_GMalloc(space, n)`; `elem_words` from the enclosing cast.
    Gmalloc { elem_words: u32 },
    /// `Ace_Barrier(space)`.
    Barrier,
    /// This node's rank.
    Rank,
    /// Node count.
    Nprocs,
    /// Broadcast an int from `root`.
    BcastI,
    /// Broadcast a handle from `root`.
    BcastP,
    /// All-reduce f64 sum / max.
    ReduceAddF,
    /// All-reduce f64 max.
    ReduceMaxF,
    /// All-reduce i64 sum.
    ReduceAddI,
    /// All-reduce i64 max.
    ReduceMaxI,
    /// All-reduce i64 min.
    ReduceMinI,
    /// `sqrt`.
    Sqrt,
    /// `fabs`.
    Fabs,
    /// Charge flops to the virtual clock.
    ChargeFlops,
    /// Debug print.
    PrintI,
    /// Debug print.
    PrintF,
}

/// One IR instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// dst = integer constant.
    ConstI(VReg, i64),
    /// dst = float constant.
    ConstF(VReg, f64),
    /// dst = a `op` b with operands of `ty`.
    BinOp { dst: VReg, op: Bin, ty: ValTy, a: VReg, b: VReg },
    /// dst = -a.
    Neg { dst: VReg, ty: ValTy, a: VReg },
    /// dst = !a (int).
    Not { dst: VReg, a: VReg },
    /// dst = (double) a.
    IntToF { dst: VReg, a: VReg },
    /// dst = (int) a (truncating).
    FToInt { dst: VReg, a: VReg },
    /// dst = a.
    Mov { dst: VReg, a: VReg },
    /// dst = local scalar slot.
    LoadLocal { dst: VReg, slot: u32 },
    /// local scalar slot = a.
    StoreLocal { slot: u32, a: VReg },
    /// dst = local array `slot[idx]`.
    LoadArr { dst: VReg, slot: u32, idx: VReg },
    /// local array `slot[idx]` = a.
    StoreArr { slot: u32, idx: VReg, a: VReg },
    /// `ACE_MAP`: dst = mapped handle.
    Map { aid: AccessId, mode: DispatchMode, dst: VReg, handle: VReg },
    /// `ACE_START_READ`.
    StartRead { aid: AccessId, mode: DispatchMode, handle: VReg },
    /// `ACE_END_READ`.
    EndRead { aid: AccessId, mode: DispatchMode, handle: VReg },
    /// `ACE_START_WRITE`.
    StartWrite { aid: AccessId, mode: DispatchMode, handle: VReg },
    /// `ACE_END_WRITE`.
    EndWrite { aid: AccessId, mode: DispatchMode, handle: VReg },
    /// dst = word at `handle[off]`, interpreted as `ty`.
    GLoad { dst: VReg, handle: VReg, off: VReg, ty: ValTy },
    /// `handle[off] = val`.
    GStore { handle: VReg, off: VReg, val: VReg },
    /// `Ace_Lock(region)`.
    Lock { aid: AccessId, mode: DispatchMode, handle: VReg },
    /// `Ace_UnLock(region)`.
    Unlock { aid: AccessId, mode: DispatchMode, handle: VReg },
    /// Direct call to a program function.
    Call { dst: Option<VReg>, func: FuncId, args: Vec<VReg> },
    /// Runtime intrinsic.
    Intrinsic { dst: Option<VReg>, which: Intr, args: Vec<VReg> },
}

impl Inst {
    /// Whether this instruction is a synchronization point the optimizer
    /// must not move annotations across (§4.2: "code is never moved past
    /// synchronization calls"; calls are conservatively synchronizing).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Inst::Lock { .. }
                | Inst::Unlock { .. }
                | Inst::Call { .. }
                | Inst::Intrinsic {
                    which: Intr::Barrier
                        | Intr::ChangeProtocol { .. }
                        | Intr::BcastI
                        | Intr::BcastP
                        | Intr::ReduceAddF
                        | Intr::ReduceMaxF
                        | Intr::ReduceAddI
                        | Intr::ReduceMaxI
                        | Intr::ReduceMinI,
                    ..
                }
        )
    }
}

/// Block terminator.
#[derive(Debug, Clone)]
pub enum Term {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on an int register.
    Br { cond: VReg, t: BlockId, f: BlockId },
    /// Return.
    Ret(Option<VReg>),
}

/// One basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
}

/// Kinds of local slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// A scalar of the given type.
    Scalar(ValTy),
    /// An array of `len` values of the given type.
    Array(ValTy, usize),
}

/// One compiled function.
#[derive(Debug, Clone)]
pub struct IFunc {
    /// Source name.
    pub name: String,
    /// Number of parameters (stored into slots 0..n on entry).
    pub nparams: usize,
    /// Local slot table (parameters first).
    pub slots: Vec<Slot>,
    /// Number of virtual registers.
    pub nregs: u32,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// All functions.
    pub funcs: Vec<IFunc>,
    /// Index of `main`.
    pub main: FuncId,
    /// Total lowered access sites (for reporting).
    pub naccesses: u32,
}

impl Program {
    /// Count annotation instructions by mode, for the Table 4 harness:
    /// `(dispatched, direct, removed)` static counts.
    pub fn annotation_stats(&self) -> (usize, usize, usize) {
        let mut d = 0;
        let mut di = 0;
        let mut rm = 0;
        for f in &self.funcs {
            for b in &f.blocks {
                for i in &b.insts {
                    let mode = match i {
                        Inst::Map { mode, .. }
                        | Inst::StartRead { mode, .. }
                        | Inst::EndRead { mode, .. }
                        | Inst::StartWrite { mode, .. }
                        | Inst::EndWrite { mode, .. }
                        | Inst::Lock { mode, .. }
                        | Inst::Unlock { mode, .. } => mode,
                        _ => continue,
                    };
                    match mode {
                        DispatchMode::Dispatch => d += 1,
                        DispatchMode::Direct(_) => di += 1,
                        DispatchMode::Removed => rm += 1,
                    }
                }
            }
        }
        (d, di, rm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_classification() {
        assert!(Inst::Intrinsic { dst: None, which: Intr::Barrier, args: vec![] }.is_sync());
        assert!(Inst::Call { dst: None, func: 0, args: vec![] }.is_sync());
        assert!(!Inst::Intrinsic { dst: Some(0), which: Intr::Rank, args: vec![] }.is_sync());
        assert!(!Inst::Map { aid: 0, mode: DispatchMode::Dispatch, dst: 0, handle: 1 }.is_sync());
    }
}
