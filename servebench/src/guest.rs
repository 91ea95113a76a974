//! The wasm-serve guest and its Rust model.
//!
//! `handle(req)` is the fig8 handler loop; `get(slot)` reads the slot a
//! `handle` stored; `wasi(rec, idx)` appends the 8-byte record `rec` to
//! `log.bin` in the session's preopen and returns the record at index
//! `idx` read back from the same file. The first two come from MiniC; the
//! WASI request is written in Wasm instructions, because MiniC has no
//! imports but libm.

use twine_wasm::instr::{
    BlockType, CvtOp, IBinOp, IRelOp, Instr, IntWidth, LoadKind, MemArg, StoreKind,
};
use twine_wasm::module::{Func, Import, ImportDesc, Module};
use twine_wasm::types::{ExternKind, FuncType, ValType, Value};

pub const HANDLER_SRC: &str = r"
    int slots[256];
    int handle(int req) {
        int acc = 7;
        for (int i = 0; i < req % 64 + 64; i += 1) {
            if (i % 2 == 0) { acc = acc * 3 + i; } else { acc = acc - req; }
        }
        slots[req % 256] = acc;
        return acc;
    }
    int get(int slot) { return slots[slot]; }
";

/// Rust model of `handle(req)` for `req >= 0` (i32 arithmetic wraps, as
/// in Wasm).
pub fn handle_model(req: i32) -> i32 {
    let mut acc: i32 = 7;
    for i in 0..req % 64 + 64 {
        if i % 2 == 0 {
            acc = acc.wrapping_mul(3).wrapping_add(i);
        } else {
            acc = acc.wrapping_sub(req);
        }
    }
    acc
}

/// The file the WASI request appends to, inside the session's preopen.
pub const LOG_FILE: &str = "log.bin";

/// Build the guest: the MiniC handler plus the WASI request.
pub fn serve_guest() -> Vec<u8> {
    let mut m = twine_minicc::compile(HANDLER_SRC).expect("handler guest compiles");
    let [path_open, fd_seek, fd_write, fd_read] = prepend_wasi_imports(&mut m);
    // MiniC sizes memory to its globals plus one spare page; the WASI
    // request keeps its path, iovecs and buffers in that spare page.
    let pages = m.memory.expect("MiniC modules have a memory").min;
    let base = (pages - 1) as i32 * 65_536;
    let (path, fd_out, newoff, rec, rbuf, iov_w, iov_r, nbytes) = (
        base,
        base + 16,
        base + 24,
        base + 32,
        base + 40,
        base + 48,
        base + 56,
        base + 64,
    );
    m.data.push(data(path, LOG_FILE.as_bytes().to_vec()));
    m.data.push(data(iov_w, iovec(rec, 8)));
    m.data.push(data(iov_r, iovec(rbuf, 8)));

    let c32 = |v: i32| Instr::Const(Value::I32(v));
    let c64 = |v: i64| Instr::Const(Value::I64(v));
    // A call returning a nonzero errno traps: the failure reaches the
    // client as a typed error instead of a wrong answer.
    let checked = |f: u32| {
        [
            Instr::Call(f),
            Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![]),
        ]
    };
    let arg = MemArg {
        offset: 0,
        align: 0,
    };
    let fd = 2; // local: params are rec (0) and idx (1)
    let mut body = vec![
        c32(3),
        c32(0),
        c32(path),
        c32(LOG_FILE.len() as i32),
        c32(1),
        c64(-1),
        c64(0),
        c32(0),
        c32(fd_out),
    ];
    body.extend(checked(path_open));
    body.extend([
        c32(fd_out),
        Instr::Load(LoadKind::I32, arg),
        Instr::LocalSet(fd),
    ]);
    body.extend([
        c32(rec),
        Instr::LocalGet(0),
        Instr::Store(StoreKind::I64, arg),
    ]);
    body.extend([Instr::LocalGet(fd), c64(0), c32(2), c32(newoff)]); // seek to the end
    body.extend(checked(fd_seek));
    body.extend([Instr::LocalGet(fd), c32(iov_w), c32(1), c32(nbytes)]);
    body.extend(checked(fd_write));
    body.extend([
        Instr::LocalGet(fd),
        Instr::LocalGet(1),
        Instr::Cvt(CvtOp::I64ExtendI32U),
        c64(8),
        Instr::IBinop(IntWidth::W64, IBinOp::Mul),
        c32(0),
        c32(newoff),
    ]);
    body.extend(checked(fd_seek));
    body.extend([Instr::LocalGet(fd), c32(iov_r), c32(1), c32(nbytes)]);
    body.extend(checked(fd_read));
    body.extend([
        c32(nbytes),
        Instr::Load(LoadKind::I32, arg),
        c32(8),
        Instr::IRelop(IntWidth::W32, IRelOp::Ne),
        Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![]),
        c32(rbuf),
        Instr::Load(LoadKind::I64, arg),
    ]);
    let ty = type_index(
        &mut m,
        FuncType::new(vec![ValType::I64, ValType::I32], vec![ValType::I64]),
    );
    m.funcs.push(Func {
        type_idx: ty,
        locals: vec![ValType::I32],
        body,
    });
    let index = m.num_imported_funcs() + m.funcs.len() as u32 - 1;
    m.exports.push(twine_wasm::module::Export {
        name: "wasi".into(),
        kind: ExternKind::Func,
        index,
    });
    twine_wasm::encode::encode(&m)
}

fn data(offset: i32, bytes: Vec<u8>) -> twine_wasm::module::DataSegment {
    twine_wasm::module::DataSegment {
        offset: twine_wasm::module::ConstExpr(Value::I32(offset)),
        bytes,
    }
}

fn iovec(addr: i32, len: u32) -> Vec<u8> {
    let mut v = addr.to_le_bytes().to_vec();
    v.extend(len.to_le_bytes());
    v
}

fn type_index(m: &mut Module, ty: FuncType) -> u32 {
    if let Some(i) = m.types.iter().position(|t| *t == ty) {
        return i as u32;
    }
    m.types.push(ty);
    m.types.len() as u32 - 1
}

/// Put the four WASI imports the request needs in front of the module's
/// functions, renumbering every function reference; returns their indices.
fn prepend_wasi_imports(m: &mut Module) -> [u32; 4] {
    use ValType::{I32, I64};
    let sigs = [
        (
            "path_open",
            vec![I32, I32, I32, I32, I32, I64, I64, I32, I32],
        ),
        ("fd_seek", vec![I32, I64, I32, I32]),
        ("fd_write", vec![I32, I32, I32, I32]),
        ("fd_read", vec![I32, I32, I32, I32]),
    ];
    let shift = sigs.len() as u32;
    let imports: Vec<Import> = sigs
        .into_iter()
        .map(|(name, params)| Import {
            module: twine_wasi::WASI_MODULE.into(),
            name: name.into(),
            desc: ImportDesc::Func(type_index(m, FuncType::new(params, vec![I32]))),
        })
        .collect();
    m.imports.splice(0..0, imports);
    fn renumber(body: &mut [Instr], shift: u32) {
        for ins in body {
            match ins {
                Instr::Call(f) => *f += shift,
                Instr::Block(_, b) | Instr::Loop(_, b) => renumber(b, shift),
                Instr::If(_, a, b) => {
                    renumber(a, shift);
                    renumber(b, shift);
                }
                _ => {}
            }
        }
    }
    for f in &mut m.funcs {
        renumber(&mut f.body, shift);
    }
    for e in m.exports.iter_mut().filter(|e| e.kind == ExternKind::Func) {
        e.index += shift;
    }
    for el in &mut m.elems {
        el.funcs.iter_mut().for_each(|f| *f += shift);
    }
    if let Some(s) = &mut m.start {
        *s += shift;
    }
    [0, 1, 2, 3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twine_wasi::ctx::MemBackend;
    use twine_wasi::{register_wasi, Rights, WasiCtx};
    use twine_wasm::compile::CompiledModule;
    use twine_wasm::{Instance, Linker};

    fn instance() -> Instance {
        let code = CompiledModule::from_bytes(&serve_guest()).expect("guest compiles");
        let mut linker = Linker::new();
        register_wasi(&mut linker);
        let ctx = WasiCtx::new(Box::new(MemBackend::new()), "/data", Rights::all());
        Instance::instantiate(Arc::new(code), linker, Box::new(ctx)).expect("instantiate")
    }

    #[test]
    fn handle_model_matches_the_guest_including_wraparound() {
        let mut inst = instance();
        // 0..=63 covers every loop length; the large requests wrap
        // `acc - req` and `acc * 3` on the first iterations.
        let reqs = (0..64).chain([255, 256, 1 << 20, 0x7fff_0000, i32::MAX - 1, i32::MAX]);
        for req in reqs {
            let out = inst.invoke("handle", &[Value::I32(req)]).expect("handle");
            assert_eq!(out, vec![Value::I32(handle_model(req))], "req {req}");
            let got = inst.invoke("get", &[Value::I32(req % 256)]).expect("get");
            assert_eq!(
                got,
                vec![Value::I32(handle_model(req))],
                "slot of req {req}"
            );
        }
        assert_ne!(handle_model(i32::MAX), handle_model(i32::MAX - 1));
    }

    #[test]
    fn wasi_request_appends_and_reads_back() {
        let mut inst = instance();
        let recs = [1i64, -2, i64::MAX, 0x0102_0304_0506_0708];
        for (n, &r) in recs.iter().enumerate() {
            let out = inst
                .invoke("wasi", &[Value::I64(r), Value::I32(n as i32)])
                .expect("wasi");
            assert_eq!(out, vec![Value::I64(r)]);
        }
        let out = inst
            .invoke("wasi", &[Value::I64(9), Value::I32(1)])
            .expect("wasi");
        assert_eq!(out, vec![Value::I64(-2)], "older records stay in place");
        // Reading past the end returns fewer than 8 bytes: the guest traps.
        assert!(inst
            .invoke("wasi", &[Value::I64(9), Value::I32(99)])
            .is_err());
    }
}
