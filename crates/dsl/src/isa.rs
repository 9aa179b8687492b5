//! The µPnP bytecode instruction set.
//!
//! "Every bytecode instruction in µPnP is 8-bits in length, followed by
//! zero or more operands" (§4.1). The design is stack-based ("a single
//! operand stack", §4.2), "inspired by the Java Virtual Machine \[but\] less
//! extensive and more tailored towards the domain of IoT driver
//! development": 32-bit cells, typed arithmetic (integer and float
//! variants chosen statically by the compiler), structured control flow via
//! relative jumps, and first-class `signal`/`return` instructions for the
//! event model.

/// A bytecode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// No operation.
    Nop = 0x00,
    /// Push a sign-extended 8-bit immediate.
    Push8 = 0x01,
    /// Push a sign-extended 16-bit immediate (little endian).
    Push16 = 0x02,
    /// Push a 32-bit immediate (little endian).
    Push32 = 0x03,
    /// Push a 32-bit IEEE-754 float immediate.
    PushF = 0x04,
    /// Duplicate the top of stack.
    Dup = 0x05,
    /// Discard the top of stack.
    Pop = 0x06,
    /// Swap the top two cells.
    Swap = 0x07,

    /// Load scalar global `g`.
    Ldg = 0x10,
    /// Store to scalar global `g`.
    Stg = 0x11,
    /// Load handler parameter `n`.
    Ldl = 0x12,
    /// Store to handler parameter `n`.
    Stl = 0x13,
    /// Pop index; push `array g[index]`.
    Lda = 0x14,
    /// Pop value, pop index; `array g[index] = value`.
    Sta = 0x15,
    /// Push the length of array global `g`.
    Len = 0x16,

    /// Integer add.
    Add = 0x20,
    /// Integer subtract.
    Sub = 0x21,
    /// Integer multiply.
    Mul = 0x22,
    /// Integer divide (traps to `divideByZero` on 0).
    Div = 0x23,
    /// Integer remainder (traps to `divideByZero` on 0).
    Mod = 0x24,
    /// Integer negate.
    Neg = 0x25,
    /// Float add.
    FAdd = 0x26,
    /// Float subtract.
    FSub = 0x27,
    /// Float multiply.
    FMul = 0x28,
    /// Float divide.
    FDiv = 0x29,
    /// Float negate.
    FNeg = 0x2a,
    /// Convert integer to float.
    I2F = 0x2b,
    /// Convert float to integer (truncating).
    F2I = 0x2c,

    /// Bitwise and.
    BAnd = 0x30,
    /// Bitwise or.
    BOr = 0x31,
    /// Bitwise xor.
    BXor = 0x32,
    /// Bitwise not.
    BNot = 0x33,
    /// Shift left.
    Shl = 0x34,
    /// Arithmetic shift right.
    Shr = 0x35,
    /// Logical not (0 ↔ 1).
    LNot = 0x38,

    /// Integer equality.
    Eq = 0x40,
    /// Integer inequality.
    Ne = 0x41,
    /// Integer less-than (signed).
    Lt = 0x42,
    /// Integer less-or-equal (signed).
    Le = 0x43,
    /// Integer greater-than (signed).
    Gt = 0x44,
    /// Integer greater-or-equal (signed).
    Ge = 0x45,
    /// Float equality.
    FEq = 0x46,
    /// Float inequality.
    FNe = 0x47,
    /// Float less-than.
    FLt = 0x48,
    /// Float less-or-equal.
    FLe = 0x49,
    /// Float greater-than.
    FGt = 0x4a,
    /// Float greater-or-equal.
    FGe = 0x4b,

    /// Unconditional relative jump (signed 16-bit offset).
    Jmp = 0x50,
    /// Jump if top of stack is zero.
    Jz = 0x51,
    /// Jump if top of stack is non-zero.
    Jnz = 0x52,

    /// `signal lib.event(argc args)`: operands `lib, event, argc`.
    Sig = 0x60,
    /// Return the scalar on top of the stack to the pending operation.
    RetV = 0x61,
    /// Return array global `g` to the pending operation.
    RetA = 0x62,
    /// End the handler without a value.
    Ret = 0x63,

    /// Push the old value of scalar global `g`, then increment it
    /// (the `idx++` peephole).
    IncG = 0x70,

    /// Trap: never valid in a well-formed driver.
    Halt = 0xff,
}

impl Op {
    /// Decodes an opcode byte.
    pub const fn from_byte(b: u8) -> Option<Op> {
        use Op::*;
        Some(match b {
            0x00 => Nop,
            0x01 => Push8,
            0x02 => Push16,
            0x03 => Push32,
            0x04 => PushF,
            0x05 => Dup,
            0x06 => Pop,
            0x07 => Swap,
            0x10 => Ldg,
            0x11 => Stg,
            0x12 => Ldl,
            0x13 => Stl,
            0x14 => Lda,
            0x15 => Sta,
            0x16 => Len,
            0x20 => Add,
            0x21 => Sub,
            0x22 => Mul,
            0x23 => Div,
            0x24 => Mod,
            0x25 => Neg,
            0x26 => FAdd,
            0x27 => FSub,
            0x28 => FMul,
            0x29 => FDiv,
            0x2a => FNeg,
            0x2b => I2F,
            0x2c => F2I,
            0x30 => BAnd,
            0x31 => BOr,
            0x32 => BXor,
            0x33 => BNot,
            0x34 => Shl,
            0x35 => Shr,
            0x38 => LNot,
            0x40 => Eq,
            0x41 => Ne,
            0x42 => Lt,
            0x43 => Le,
            0x44 => Gt,
            0x45 => Ge,
            0x46 => FEq,
            0x47 => FNe,
            0x48 => FLt,
            0x49 => FLe,
            0x4a => FGt,
            0x4b => FGe,
            0x50 => Jmp,
            0x51 => Jz,
            0x52 => Jnz,
            0x60 => Sig,
            0x61 => RetV,
            0x62 => RetA,
            0x63 => Ret,
            0x70 => IncG,
            0xff => Halt,
            _ => return None,
        })
    }

    /// The number of operand bytes following the opcode.
    pub const fn operand_len(self) -> usize {
        use Op::*;
        match self {
            Push8 => 1,
            Push16 => 2,
            Push32 | PushF => 4,
            Ldg | Stg | Ldl | Stl | Lda | Sta | Len | RetA | IncG => 1,
            Jmp | Jz | Jnz => 2,
            Sig => 3,
            _ => 0,
        }
    }

    /// How many cells the instruction pops (statically known).
    pub const fn pops(self) -> usize {
        use Op::*;
        match self {
            Pop | Stg | Stl | RetV | Jz | Jnz | Neg | FNeg | BNot | LNot | I2F | F2I => 1,
            Add | Sub | Mul | Div | Mod | FAdd | FSub | FMul | FDiv | BAnd | BOr | BXor | Shl
            | Shr | Eq | Ne | Lt | Le | Gt | Ge | FEq | FNe | FLt | FLe | FGt | FGe => 2,
            Lda => 1,
            Sta => 2,
            Dup => 1,
            Swap => 2,
            _ => 0,
        }
    }

    /// How many cells the instruction pushes (statically known; `Sig` pops
    /// its argc dynamically and is handled separately by the verifier).
    pub const fn pushes(self) -> usize {
        use Op::*;
        match self {
            Push8 | Push16 | Push32 | PushF | Ldg | Ldl | Lda | Len | IncG => 1,
            Add | Sub | Mul | Div | Mod | Neg | FAdd | FSub | FMul | FDiv | FNeg | I2F | F2I
            | BAnd | BOr | BXor | BNot | Shl | Shr | LNot | Eq | Ne | Lt | Le | Gt | Ge | FEq
            | FNe | FLt | FLe | FGt | FGe => 1,
            Dup => 2,
            Swap => 2,
            _ => 0,
        }
    }
}

/// Checks that a code region decodes as a whole number of instructions,
/// without building the text [`disassemble`] would.
///
/// # Errors
///
/// Returns the offset of the first undecodable byte, exactly as
/// [`disassemble`] does.
pub fn validate(code: &[u8]) -> Result<(), usize> {
    let mut i = 0;
    while i < code.len() {
        let op = Op::from_byte(code[i]).ok_or(i)?;
        let next = i + 1 + op.operand_len();
        if next > code.len() {
            return Err(i);
        }
        i = next;
    }
    Ok(())
}

/// Disassembles a code region into printable lines (offset, mnemonic,
/// operands).
///
/// # Errors
///
/// Returns the offset of the first undecodable byte.
pub fn disassemble(code: &[u8]) -> Result<Vec<String>, usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let op = Op::from_byte(code[i]).ok_or(i)?;
        let n = op.operand_len();
        if i + 1 + n > code.len() {
            return Err(i);
        }
        let operands = &code[i + 1..i + 1 + n];
        let text = match (op, n) {
            (Op::Push8, _) => format!("{:04x}  PUSH8  {}", i, operands[0] as i8),
            (Op::Push16, _) => {
                let v = i16::from_le_bytes([operands[0], operands[1]]);
                format!("{i:04x}  PUSH16 {v}")
            }
            (Op::Push32, _) => {
                let v = i32::from_le_bytes([operands[0], operands[1], operands[2], operands[3]]);
                format!("{i:04x}  PUSH32 {v}")
            }
            (Op::PushF, _) => {
                let v = f32::from_le_bytes([operands[0], operands[1], operands[2], operands[3]]);
                format!("{i:04x}  PUSHF  {v}")
            }
            (Op::Jmp | Op::Jz | Op::Jnz, _) => {
                let d = i16::from_le_bytes([operands[0], operands[1]]);
                let target = (i as i64 + 3 + d as i64) as usize;
                format!("{i:04x}  {op:?}    -> {target:04x}")
            }
            (Op::Sig, _) => format!(
                "{:04x}  SIG    lib={} event={} argc={}",
                i, operands[0], operands[1], operands[2]
            ),
            (_, 0) => format!("{i:04x}  {op:?}"),
            (_, 1) => format!("{:04x}  {:?}    {}", i, op, operands[0]),
            _ => format!("{i:04x}  {op:?}    {operands:?}"),
        };
        out.push(text);
        i += 1 + n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_roundtrips_through_from_byte() {
        use Op::*;
        let all = [
            Nop, Push8, Push16, Push32, PushF, Dup, Pop, Swap, Ldg, Stg, Ldl, Stl, Lda, Sta, Len,
            Add, Sub, Mul, Div, Mod, Neg, FAdd, FSub, FMul, FDiv, FNeg, I2F, F2I, BAnd, BOr, BXor,
            BNot, Shl, Shr, LNot, Eq, Ne, Lt, Le, Gt, Ge, FEq, FNe, FLt, FLe, FGt, FGe, Jmp, Jz,
            Jnz, Sig, RetV, RetA, Ret, IncG, Halt,
        ];
        for op in all {
            assert_eq!(Op::from_byte(op as u8), Some(op), "{op:?}");
        }
        assert_eq!(Op::from_byte(0x99), None);
    }

    #[test]
    fn operand_lengths() {
        assert_eq!(Op::Nop.operand_len(), 0);
        assert_eq!(Op::Push8.operand_len(), 1);
        assert_eq!(Op::Push16.operand_len(), 2);
        assert_eq!(Op::Push32.operand_len(), 4);
        assert_eq!(Op::Jz.operand_len(), 2);
        assert_eq!(Op::Sig.operand_len(), 3);
        assert_eq!(Op::IncG.operand_len(), 1);
    }

    #[test]
    fn stack_effects_are_consistent() {
        // Binary arithmetic: 2 in, 1 out.
        for op in [Op::Add, Op::FMul, Op::Eq, Op::Shl] {
            assert_eq!(op.pops(), 2);
            assert_eq!(op.pushes(), 1);
        }
        // Pure pushes.
        for op in [Op::Push8, Op::Ldg, Op::IncG] {
            assert_eq!(op.pops(), 0);
            assert_eq!(op.pushes(), 1);
        }
    }

    #[test]
    fn disassembles_a_simple_sequence() {
        // PUSH8 5; LDG 0; ADD; STG 0; RET
        let code = [0x01, 5, 0x10, 0, 0x20, 0x11, 0, 0x63];
        let lines = disassemble(&code).unwrap();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("PUSH8  5"));
        assert!(lines[2].contains("Add"));
        assert!(lines[4].contains("Ret"));
    }

    #[test]
    fn disassembler_rejects_bad_opcode_and_truncation() {
        assert_eq!(disassemble(&[0x99]), Err(0));
        // PUSH32 with only two operand bytes.
        assert_eq!(disassemble(&[0x03, 1, 2]), Err(0));
        // Valid prefix, bad tail.
        assert_eq!(disassemble(&[0x00, 0x99]), Err(1));
    }

    #[test]
    fn validate_rejects_like_the_disassembler() {
        assert_eq!(validate(&[]), Ok(()));
        assert_eq!(validate(&[0x01, 5, 0x63]), Ok(()));
        assert_eq!(validate(&[0x99]), Err(0));
        assert_eq!(validate(&[0x03, 1, 2]), Err(0));
        assert_eq!(validate(&[0x00, 0x99]), Err(1));
    }

    proptest::proptest! {
        /// `validate` is `disassemble` without the text, on any bytes.
        /// With `mostly_ops`, seven bytes in eight are remapped onto valid
        /// opcodes so long streams decode and fail late, not at byte 0.
        #[test]
        fn validate_matches_disassemble(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
            mostly_ops in proptest::arbitrary::any::<bool>(),
        ) {
            let valid: Vec<u8> = (0..=255).filter(|&b| Op::from_byte(b).is_some()).collect();
            let code: Vec<u8> = bytes
                .iter()
                .map(|&b| {
                    if mostly_ops && b % 8 != 0 && Op::from_byte(b).is_none() {
                        valid[b as usize % valid.len()]
                    } else {
                        b
                    }
                })
                .collect();
            proptest::prop_assert_eq!(validate(&code), disassemble(&code).map(|_| ()));
        }
    }

    #[test]
    fn jump_disassembly_shows_target() {
        // JMP +2 over a NOP: target = 0 + 3 + 2 = 5.
        let code = [0x50, 2, 0, 0x00, 0x00, 0x63];
        let lines = disassemble(&code).unwrap();
        assert!(lines[0].contains("-> 0005"), "{}", lines[0]);
    }
}
