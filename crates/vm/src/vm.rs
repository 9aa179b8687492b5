//! The stack-based bytecode interpreter.
//!
//! One [`DriverInstance`] exists per installed driver. Handlers execute
//! run-to-completion on a single operand stack (§4.2); they cannot block —
//! every I/O request leaves the VM as a [`SignalOut`] and completion comes
//! back as a later event. Faults (bad index, stack overflow, division by
//! zero, runaway loops) abort the handler and surface as [`VmError`]s that
//! the runtime converts into prioritized error events, exactly the error
//! model §4.1 describes.

use std::sync::Arc;

use upnp_dsl::ast::Type;
use upnp_dsl::image::DriverImage;
use upnp_dsl::isa::Op;
use upnp_sim::CpuCost;

use crate::cost::VmCostModel;
use crate::value::Cell;

/// Operand stack depth (cells); shared ABI limit (see
/// [`upnp_dsl::vm_limits`]).
pub const STACK_DEPTH: usize = upnp_dsl::vm_limits::STACK_DEPTH;

/// Per-handler instruction budget; exceeding it is a fault (runaway
/// loop). Shared ABI limit.
pub const GAS_LIMIT: u64 = upnp_dsl::vm_limits::GAS_LIMIT;

/// One opcode byte as the interpreter needs it: the op, how many operand
/// bytes follow it and what executing it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Decoded {
    op: Op,
    operands: u8,
    cycles: u32,
}

/// The interpreter's decode table: entry `b` is byte `b` decoded by
/// [`Op::from_byte`], [`Op::operand_len`] and
/// [`VmCostModel::instruction`], or `None` for an undecodable byte. One
/// lookup per instruction replaces a `match` in each of them.
static DECODE: [Option<Decoded>; 256] = decode_table();

const fn decode_table() -> [Option<Decoded>; 256] {
    let mut table = [None; 256];
    let mut b = 0;
    while b < table.len() {
        if let Some(op) = Op::from_byte(b as u8) {
            table[b] = Some(Decoded {
                op,
                operands: op.operand_len() as u8,
                cycles: VmCostModel.instruction(op).cycles as u32,
            });
        }
        b += 1;
    }
    table
}

/// Interpreter faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Operand stack exceeded [`STACK_DEPTH`].
    StackOverflow,
    /// Pop from an empty stack (malformed bytecode).
    StackUnderflow,
    /// Array index out of bounds.
    OutOfRange,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Undecodable opcode.
    BadOpcode(u8),
    /// Jump target outside the code region.
    BadJump,
    /// Reference to a global/local slot that does not exist.
    BadSlot(u8),
    /// The handler exceeded [`GAS_LIMIT`] instructions.
    GasExhausted,
    /// The requested event has no handler in this driver.
    NoHandler(u8),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::StackOverflow => write!(f, "operand stack overflow"),
            VmError::StackUnderflow => write!(f, "operand stack underflow"),
            VmError::OutOfRange => write!(f, "array index out of range"),
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::BadOpcode(b) => write!(f, "bad opcode {b:#04x}"),
            VmError::BadJump => write!(f, "jump out of code region"),
            VmError::BadSlot(s) => write!(f, "bad variable slot {s}"),
            VmError::GasExhausted => write!(f, "instruction budget exhausted"),
            VmError::NoHandler(e) => write!(f, "no handler for event {e}"),
        }
    }
}

impl std::error::Error for VmError {}

/// A `signal` emitted by a handler, to be routed after it completes.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalOut {
    /// Destination library id (`libs::THIS` for driver-local events).
    pub lib: u8,
    /// Event or operation id.
    pub event: u8,
    /// Arguments, in declaration order.
    pub args: Vec<Cell>,
}

/// A value returned with the `return` keyword.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnValue {
    /// A scalar cell (with the producing element type if known).
    Scalar(Cell),
    /// A whole array global (element type + cells).
    Array(Type, Vec<Cell>),
}

/// Everything a handler execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerOutcome {
    /// Total execution cost in MCU cycles.
    pub cost: CpuCost,
    /// Number of instructions retired.
    pub instructions: u64,
    /// Signals emitted, in order.
    pub signals: Vec<SignalOut>,
    /// Value passed to `return`, if any.
    pub returned: Option<ReturnValue>,
    /// The fault that aborted the handler, if any.
    pub error: Option<VmError>,
}

/// One installed driver's execution state.
#[derive(Debug, Clone)]
pub struct DriverInstance {
    image: Arc<DriverImage>,
    scalars: Vec<Cell>,
    scalar_types: Vec<Type>,
    arrays: Vec<Vec<Cell>>,
    array_types: Vec<Type>,
}

impl DriverInstance {
    /// Instantiates a driver from its image; globals are zeroed. The
    /// image is immutable, so a shared one (say, a Thing's driver cache
    /// entry) is held by reference count, not copied.
    pub fn new(image: impl Into<Arc<DriverImage>>) -> Self {
        let image = image.into();
        let mut scalars = Vec::new();
        let mut scalar_types = Vec::new();
        let mut arrays = Vec::new();
        let mut array_types = Vec::new();
        for g in &image.globals {
            match g.array_len {
                None => {
                    scalars.push(Cell::ZERO);
                    scalar_types.push(g.ty);
                }
                Some(len) => {
                    arrays.push(vec![Cell::ZERO; len as usize]);
                    array_types.push(g.ty);
                }
            }
        }
        DriverInstance {
            image,
            scalars,
            scalar_types,
            arrays,
            array_types,
        }
    }

    /// The driver's image.
    pub fn image(&self) -> &DriverImage {
        &self.image
    }

    /// True if the driver declares a handler for `event_id`.
    pub fn has_handler(&self, event_id: u8) -> bool {
        self.image.handler_for(event_id).is_some()
    }

    /// Reads a scalar global (diagnostics/tests).
    pub fn scalar(&self, slot: u8) -> Option<Cell> {
        self.scalars.get(slot as usize).copied()
    }

    /// Approximate RAM occupied by this instance's mutable state
    /// (globals + arrays + the operand stack), for Table 2 accounting.
    pub fn ram_bytes(&self) -> usize {
        self.scalars.len() * 4
            + self.arrays.iter().map(|a| a.len() * 4).sum::<usize>()
            + STACK_DEPTH * 4
    }

    /// Executes the handler for `event_id` with `args`.
    ///
    /// Never panics on malformed bytecode: all faults are reported in
    /// [`HandlerOutcome::error`].
    pub fn run_handler(&mut self, event_id: u8, args: &[Cell]) -> HandlerOutcome {
        let mut outcome = HandlerOutcome {
            cost: CpuCost::ZERO,
            instructions: 0,
            signals: Vec::new(),
            returned: None,
            error: None,
        };
        let Some(entry) = self.image.handler_for(event_id) else {
            outcome.error = Some(VmError::NoHandler(event_id));
            return outcome;
        };
        let mut pc = entry.offset as usize;
        let mut locals: Vec<Cell> = args.to_vec();
        locals.resize(entry.n_params.max(args.len() as u8) as usize, Cell::ZERO);
        let mut stack = [Cell::ZERO; STACK_DEPTH];
        let mut depth = 0;
        // Borrowed once: the image sits behind an `Arc`, and the loop
        // below writes globals through `self`.
        let code = self.image.code.as_slice();
        let code_len = code.len();

        macro_rules! fault {
            ($e:expr) => {{
                outcome.error = Some($e);
                return outcome;
            }};
        }
        macro_rules! pop {
            () => {{
                if depth == 0 {
                    fault!(VmError::StackUnderflow);
                }
                depth -= 1;
                stack[depth]
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                if depth >= STACK_DEPTH {
                    fault!(VmError::StackOverflow);
                }
                stack[depth] = $v;
                depth += 1;
            }};
        }

        loop {
            if outcome.instructions >= GAS_LIMIT {
                fault!(VmError::GasExhausted);
            }
            if pc >= code_len {
                // Falling off the end terminates like RET (the compiler
                // always emits a terminator, but stay safe).
                break;
            }
            let byte = code[pc];
            let Some(Decoded {
                op,
                operands: n,
                cycles,
            }) = DECODE[byte as usize]
            else {
                fault!(VmError::BadOpcode(byte));
            };
            let n = n as usize;
            if pc + 1 + n > code_len {
                fault!(VmError::BadJump);
            }
            let operands = &code[pc + 1..pc + 1 + n];
            let mut next_pc = pc + 1 + n;
            outcome.instructions += 1;
            outcome.cost += CpuCost::cycles(cycles as u64);

            match op {
                Op::Nop => {}
                Op::Push8 => push!(Cell::from_i32(operands[0] as i8 as i32)),
                Op::Push16 => {
                    push!(Cell::from_i32(
                        i16::from_le_bytes([operands[0], operands[1]]) as i32
                    ))
                }
                Op::Push32 => push!(Cell::from_i32(i32::from_le_bytes(
                    operands.try_into().expect("len 4")
                ))),
                Op::PushF => push!(Cell::from_f32(f32::from_le_bytes(
                    operands.try_into().expect("len 4")
                ))),
                Op::Dup => {
                    let v = pop!();
                    push!(v);
                    push!(v);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Swap => {
                    let b = pop!();
                    let a = pop!();
                    push!(b);
                    push!(a);
                }

                Op::Ldg => {
                    let slot = operands[0];
                    match self.scalars.get(slot as usize) {
                        Some(v) => push!(*v),
                        None => fault!(VmError::BadSlot(slot)),
                    }
                }
                Op::Stg => {
                    let slot = operands[0] as usize;
                    let v = pop!();
                    if slot >= self.scalars.len() {
                        fault!(VmError::BadSlot(slot as u8));
                    }
                    self.scalars[slot] = apply_width(self.scalar_types[slot], v);
                }
                Op::Ldl => {
                    let slot = operands[0] as usize;
                    match locals.get(slot) {
                        Some(v) => push!(*v),
                        None => fault!(VmError::BadSlot(slot as u8)),
                    }
                }
                Op::Stl => {
                    let slot = operands[0] as usize;
                    let v = pop!();
                    if slot >= locals.len() {
                        fault!(VmError::BadSlot(slot as u8));
                    }
                    locals[slot] = v;
                }
                Op::Lda => {
                    let slot = operands[0] as usize;
                    let idx = pop!().as_i32();
                    let Some(arr) = self.arrays.get(slot) else {
                        fault!(VmError::BadSlot(slot as u8));
                    };
                    if idx < 0 || idx as usize >= arr.len() {
                        fault!(VmError::OutOfRange);
                    }
                    push!(arr[idx as usize]);
                }
                Op::Sta => {
                    let slot = operands[0] as usize;
                    let v = pop!();
                    let idx = pop!().as_i32();
                    let Some(ty) = self.array_types.get(slot).copied() else {
                        fault!(VmError::BadSlot(slot as u8));
                    };
                    let arr = &mut self.arrays[slot];
                    if idx < 0 || idx as usize >= arr.len() {
                        fault!(VmError::OutOfRange);
                    }
                    arr[idx as usize] = apply_width(ty, v);
                }
                Op::Len => {
                    let slot = operands[0] as usize;
                    match self.arrays.get(slot) {
                        Some(a) => push!(Cell::from_i32(a.len() as i32)),
                        None => fault!(VmError::BadSlot(slot as u8)),
                    }
                }

                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::BAnd
                | Op::BOr
                | Op::BXor
                | Op::Shl
                | Op::Shr
                | Op::Eq
                | Op::Ne
                | Op::Lt
                | Op::Le
                | Op::Gt
                | Op::Ge => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    let r = match op {
                        Op::Add => a.wrapping_add(b),
                        Op::Sub => a.wrapping_sub(b),
                        Op::Mul => a.wrapping_mul(b),
                        Op::BAnd => a & b,
                        Op::BOr => a | b,
                        Op::BXor => a ^ b,
                        Op::Shl => a.wrapping_shl(b as u32 & 31),
                        Op::Shr => a.wrapping_shr(b as u32 & 31),
                        Op::Eq => (a == b) as i32,
                        Op::Ne => (a != b) as i32,
                        Op::Lt => (a < b) as i32,
                        Op::Le => (a <= b) as i32,
                        Op::Gt => (a > b) as i32,
                        Op::Ge => (a >= b) as i32,
                        _ => unreachable!(),
                    };
                    push!(Cell::from_i32(r));
                }
                Op::Div | Op::Mod => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    if b == 0 {
                        fault!(VmError::DivideByZero);
                    }
                    let r = match op {
                        Op::Div => a.wrapping_div(b),
                        _ => a.wrapping_rem(b),
                    };
                    push!(Cell::from_i32(r));
                }
                Op::Neg => {
                    let a = pop!().as_i32();
                    push!(Cell::from_i32(a.wrapping_neg()));
                }
                Op::BNot => {
                    let a = pop!().as_i32();
                    push!(Cell::from_i32(!a));
                }
                Op::LNot => {
                    let a = pop!().as_i32();
                    push!(Cell::from_i32((a == 0) as i32));
                }

                Op::FAdd
                | Op::FSub
                | Op::FMul
                | Op::FDiv
                | Op::FEq
                | Op::FNe
                | Op::FLt
                | Op::FLe
                | Op::FGt
                | Op::FGe => {
                    let b = pop!().as_f32();
                    let a = pop!().as_f32();
                    let cell = match op {
                        Op::FAdd => Cell::from_f32(a + b),
                        Op::FSub => Cell::from_f32(a - b),
                        Op::FMul => Cell::from_f32(a * b),
                        Op::FDiv => Cell::from_f32(a / b),
                        Op::FEq => Cell::from_i32((a == b) as i32),
                        Op::FNe => Cell::from_i32((a != b) as i32),
                        Op::FLt => Cell::from_i32((a < b) as i32),
                        Op::FLe => Cell::from_i32((a <= b) as i32),
                        Op::FGt => Cell::from_i32((a > b) as i32),
                        Op::FGe => Cell::from_i32((a >= b) as i32),
                        _ => unreachable!(),
                    };
                    push!(cell);
                }
                Op::FNeg => {
                    let a = pop!().as_f32();
                    push!(Cell::from_f32(-a));
                }
                Op::I2F => {
                    let a = pop!().as_i32();
                    push!(Cell::from_f32(a as f32));
                }
                Op::F2I => {
                    let a = pop!().as_f32();
                    push!(Cell::from_i32(a as i32));
                }

                Op::Jmp | Op::Jz | Op::Jnz => {
                    let delta = i16::from_le_bytes([operands[0], operands[1]]) as i64;
                    let take = match op {
                        Op::Jmp => true,
                        Op::Jz => !pop!().truthy(),
                        Op::Jnz => pop!().truthy(),
                        _ => unreachable!(),
                    };
                    if take {
                        let target = next_pc as i64 + delta;
                        if target < 0 || target as usize > code_len {
                            fault!(VmError::BadJump);
                        }
                        next_pc = target as usize;
                    }
                }

                Op::Sig => {
                    let (lib, event, argc) = (operands[0], operands[1], operands[2]);
                    let mut args = vec![Cell::ZERO; argc as usize];
                    for a in args.iter_mut().rev() {
                        *a = pop!();
                    }
                    outcome.signals.push(SignalOut { lib, event, args });
                }
                Op::RetV => {
                    let v = pop!();
                    outcome.returned = Some(ReturnValue::Scalar(v));
                    break;
                }
                Op::RetA => {
                    let slot = operands[0] as usize;
                    let Some(arr) = self.arrays.get(slot) else {
                        fault!(VmError::BadSlot(slot as u8));
                    };
                    outcome.returned =
                        Some(ReturnValue::Array(self.array_types[slot], arr.clone()));
                    break;
                }
                Op::Ret => break,
                Op::IncG => {
                    let slot = operands[0] as usize;
                    if slot >= self.scalars.len() {
                        fault!(VmError::BadSlot(slot as u8));
                    }
                    let old = self.scalars[slot];
                    push!(old);
                    self.scalars[slot] = apply_width(
                        self.scalar_types[slot],
                        Cell::from_i32(old.as_i32().wrapping_add(1)),
                    );
                }
                Op::Halt => fault!(VmError::BadOpcode(0xff)),
            }
            pc = next_pc;
        }
        outcome
    }
}

/// Emulates the declared storage width on store, like a C assignment to a
/// narrow integer type.
fn apply_width(ty: Type, v: Cell) -> Cell {
    let x = v.as_i32();
    let out = match ty {
        Type::U8 | Type::Char => x & 0xff,
        Type::I8 => x as u8 as i8 as i32,
        Type::U16 => x & 0xffff,
        Type::I16 => x as u16 as i16 as i32,
        Type::Bool => (x != 0) as i32,
        Type::U32 | Type::I32 | Type::Float => return v,
    };
    Cell::from_i32(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_dsl::events::{ids, libs};
    use upnp_dsl::{compile_source_with, OptLevel};

    // These tests observe the VM through channels the optimiser is free
    // to change — direct global-slot introspection (dead globals get
    // eliminated) and per-instruction costs — so they compile without
    // optimisation to pin the literal code shape. Optimised-vs-reference
    // equivalence is `tests/differential.rs`'s job.
    fn instance(src: &str) -> DriverInstance {
        DriverInstance::new(compile_source_with(src, 1, OptLevel::None).expect("compile"))
    }

    #[test]
    fn decode_table_agrees_with_the_isa_and_the_cost_model() {
        for b in 0..=255u8 {
            let expected =
                Op::from_byte(b).map(|op| (op, op.operand_len(), VmCostModel.instruction(op)));
            let decoded = DECODE[b as usize]
                .map(|d| (d.op, d.operands as usize, CpuCost::cycles(d.cycles as u64)));
            assert_eq!(decoded, expected, "byte {b:#04x}");
        }
    }

    const PROLOGUE: &str = "event destroy():\n    return;\n";

    #[test]
    fn init_stores_globals() {
        let mut d = instance(&format!(
            "uint8_t a;\nuint16_t b;\nevent init():\n    a = 300;\n    b = 70000;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, None);
        // u8 truncates 300 → 44; u16 truncates 70000 → 4464.
        assert_eq!(d.scalar(0).unwrap().as_i32(), 300 & 0xff);
        assert_eq!(d.scalar(1).unwrap().as_i32(), 70000 & 0xffff);
    }

    #[test]
    fn signed_widths_sign_extend() {
        let mut d = instance(&format!(
            "int8_t a;\nevent init():\n    a = 200;\n{PROLOGUE}"
        ));
        d.run_handler(ids::INIT, &[]);
        assert_eq!(d.scalar(0).unwrap().as_i32(), -56);
    }

    #[test]
    fn float_pipeline_computes_temperature() {
        // The TMP36 conversion at raw=512: V=1.65156, T=115.156 °C.
        let mut d = instance(&format!(
            "float t;\nuint16_t raw;\nevent sampleDone(uint16_t r):\n    raw = r;\n    t = ((raw * 3.3) / 1023.0 - 0.5) * 100.0;\n    return t;\nevent init():\n    return;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::SAMPLE_DONE, &[Cell::from_i32(512)]);
        assert_eq!(out.error, None);
        let Some(ReturnValue::Scalar(v)) = out.returned else {
            panic!("expected scalar return");
        };
        assert!((v.as_f32() - 115.156).abs() < 0.01, "{}", v.as_f32());
    }

    #[test]
    fn signals_are_collected_in_order() {
        let mut d = instance(&format!(
            "import uart;\nevent init():\n    signal uart.read();\n    signal this.done();\nevent done():\n    return;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.signals.len(), 2);
        assert_eq!(out.signals[0].lib, libs::UART);
        assert_eq!(out.signals[1].lib, libs::THIS);
        assert!(out.signals[1].event >= 128);
    }

    #[test]
    fn signal_args_in_declaration_order() {
        let mut d = instance(&format!(
            "import uart;\nevent init():\n    signal uart.init(9600, 0, 1, 8);\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        let args: Vec<i32> = out.signals[0].args.iter().map(|c| c.as_i32()).collect();
        assert_eq!(args, vec![9600, 0, 1, 8]);
    }

    #[test]
    fn listing1_newdata_collects_card() {
        let mut d = instance(upnp_dsl::drivers::ID20LA);
        d.run_handler(ids::INIT, &[]);
        d.run_handler(ids::READ, &[]);
        // Feed the 16-byte frame; control chars must be filtered.
        let frame = b"\x02DEADBEEF01XY\r\n\x03";
        let mut custom_signal = None;
        for &c in frame {
            let out = d.run_handler(ids::NEWDATA, &[Cell::from_i32(c as i32)]);
            assert_eq!(out.error, None);
            for s in out.signals {
                if s.lib == libs::THIS {
                    custom_signal = Some(s.event);
                }
            }
        }
        // After 12 payload chars the driver signals readDone.
        let read_done = custom_signal.expect("readDone signalled");
        let out = d.run_handler(read_done, &[]);
        let Some(ReturnValue::Array(ty, cells)) = out.returned else {
            panic!("expected array return");
        };
        assert_eq!(ty, Type::U8);
        let bytes: Vec<u8> = cells.iter().map(|c| c.as_i32() as u8).collect();
        assert_eq!(&bytes, b"DEADBEEF01XY");
    }

    #[test]
    fn out_of_range_store_faults() {
        let mut d = instance(&format!(
            "uint8_t a[2];\nuint8_t i;\nevent init():\n    i = 5;\n    a[i] = 1;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, Some(VmError::OutOfRange));
    }

    #[test]
    fn division_by_zero_faults() {
        let mut d = instance(&format!(
            "int32_t x, y;\nevent init():\n    x = 10 / y;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, Some(VmError::DivideByZero));
    }

    #[test]
    fn runaway_loop_exhausts_gas() {
        let mut d = instance(&format!(
            "uint8_t x;\nevent init():\n    while 1 == 1:\n        x = 1;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        assert_eq!(out.error, Some(VmError::GasExhausted));
        assert!(out.instructions >= GAS_LIMIT);
    }

    #[test]
    fn missing_handler_reports_no_handler() {
        let mut d = instance(&format!("event init():\n    return;\n{PROLOGUE}"));
        let out = d.run_handler(ids::STREAM, &[]);
        assert_eq!(out.error, Some(VmError::NoHandler(ids::STREAM)));
        assert!(d.has_handler(ids::INIT));
        assert!(!d.has_handler(ids::STREAM));
    }

    #[test]
    fn cost_accumulates_per_instruction() {
        let mut d = instance(&format!(
            "uint8_t x;\nevent init():\n    x = 1;\n{PROLOGUE}"
        ));
        let out = d.run_handler(ids::INIT, &[]);
        // PUSH8 + STG + RET = 3 instructions, each costing > dispatch.
        assert_eq!(out.instructions, 3);
        assert!(out.cost.cycles > 3 * crate::cost::DISPATCH_CYCLES);
    }

    #[test]
    fn bmp180_compensation_matches_reference_model() {
        use upnp_bus::peripherals::Calibration;
        // Feed the datasheet example values through the DSL driver's
        // compensate handler and compare with the datasheet worked example.
        let mut d = instance(upnp_dsl::drivers::BMP180);
        d.run_handler(ids::INIT, &[]);

        // Write calibration EEPROM bytes into cal[] via i2cdata events
        // (state is 1 right after init).
        let cal = Calibration::DATASHEET_EXAMPLE.to_eeprom();
        for (i, &b) in cal.iter().enumerate() {
            let out = d.run_handler(
                ids::I2C_DATA,
                &[Cell::from_i32(b as i32), Cell::from_i32(i as i32)],
            );
            assert_eq!(out.error, None);
        }
        // i2cDone in state 1 → parseCalibration.
        let out = d.run_handler(ids::I2C_DONE, &[]);
        let parse_ev = out.signals[0].event;
        let out = d.run_handler(parse_ev, &[]);
        assert_eq!(out.error, None);

        // Inject UT/UP via the driver's own buffers: run read(), then
        // pretend the I²C completions delivered the datasheet bytes.
        d.run_handler(ids::READ, &[]);
        // state 2 → timerFired → state 3 read UT.
        d.run_handler(ids::TIMER_FIRED, &[]);
        let ut: i64 = 27898;
        for (i, b) in [(ut >> 8) as u8, (ut & 0xff) as u8].iter().enumerate() {
            d.run_handler(
                ids::I2C_DATA,
                &[Cell::from_i32(*b as i32), Cell::from_i32(i as i32)],
            );
        }
        d.run_handler(ids::I2C_DONE, &[]); // state 3 → cmd pressure, timer
        d.run_handler(ids::TIMER_FIRED, &[]); // state 4 → read UP
        let up: i64 = 23843;
        let raw24 = (up as u32) << 8;
        for (i, b) in [
            (raw24 >> 16) as u8,
            (raw24 >> 8) as u8,
            (raw24 & 0xff) as u8,
        ]
        .iter()
        .enumerate()
        {
            d.run_handler(
                ids::I2C_DATA,
                &[Cell::from_i32(*b as i32), Cell::from_i32(i as i32)],
            );
        }
        let out = d.run_handler(ids::I2C_DONE, &[]);
        // i2cDone in state 5 signals this.compensate.
        let comp_ev = out
            .signals
            .iter()
            .find(|s| s.lib == libs::THIS)
            .expect("compensate signalled")
            .event;
        let out = d.run_handler(comp_ev, &[]);
        assert_eq!(out.error, None);
        let Some(ReturnValue::Scalar(p)) = out.returned else {
            panic!("expected pressure return");
        };
        // Datasheet worked example: 69964 Pa.
        assert_eq!(p.as_i32(), 69_964);
    }
}
