//! # exec — the NIR execution engine
//!
//! Executes translated programs. One engine powers every series of the
//! paper's evaluation except *Java*:
//!
//! * the fully optimized WootinJ output (flat code, direct calls),
//! * the hand-written "C" programs (built directly as flat NIR),
//! * the *C++* / *Template* baselines (heap objects, vtable dispatch),
//! * CUDA kernels under `gpu-sim` and MPI ranks under `mpi-sim`.
//!
//! The engine is **resumable**: `run()` executes until completion, fuel
//! exhaustion, or a *yield point* — `__syncthreads`, an MPI operation, a
//! kernel launch, or a GPU memory operation. The surrounding runtime
//! (gpu-sim, mpi-sim, or the wootinj facade) services the yield and
//! resumes the thread. This is what makes barrier-correct GPU execution
//! and deterministic cooperative MPI scheduling possible without host
//! threads.
//!
//! Every retired instruction is charged a weight; the accumulated
//! `Counters::cycles` is the deterministic virtual-time metric behind the
//! scalability figures.
//!
//! `run()` executes a [`Code`]: the program decoded once into a dense op
//! stream with the weights folded in (DESIGN.md §17).

#![forbid(unsafe_code)]

pub mod ckpt;
mod code;
pub mod fault;
pub mod pool;

pub use ckpt::CkptError;
pub use code::Code;
pub use fault::{FaultConfig, FaultPlan, FaultRng, MsgFault, ResilienceStats, TransportFault};
pub use pool::{ExecMode, Executor, ExecutorCfg, SimExecutor, ThreadExecutor};

use code::Op;
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{ElemTy, FuncId, Instr, IntrinOp, Program, Reg};
use std::ops::{Add, Div, Mul, Rem, Sub};

/// A runtime value: primitives plus array/object handles into a
/// [`MemSpace`] / [`ObjHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
    Arr(u32),
    Obj(u32),
    /// Uninitialized register / void result.
    Unit,
}

impl Val {
    pub fn as_i32(self) -> Result<i32, ExecError> {
        match self {
            Val::I32(v) => Ok(v),
            other => Err(expected("i32", other)),
        }
    }

    pub fn as_i64(self) -> Result<i64, ExecError> {
        match self {
            Val::I64(v) => Ok(v),
            other => Err(expected("i64", other)),
        }
    }

    pub fn as_f32(self) -> Result<f32, ExecError> {
        match self {
            Val::F32(v) => Ok(v),
            other => Err(expected("f32", other)),
        }
    }

    pub fn as_f64(self) -> Result<f64, ExecError> {
        match self {
            Val::F64(v) => Ok(v),
            other => Err(expected("f64", other)),
        }
    }

    pub fn as_bool(self) -> Result<bool, ExecError> {
        match self {
            Val::Bool(v) => Ok(v),
            other => Err(expected("bool", other)),
        }
    }

    pub fn as_arr(self) -> Result<u32, ExecError> {
        match self {
            Val::Arr(v) => Ok(v),
            other => Err(expected("array handle", other)),
        }
    }

    pub fn as_obj(self) -> Result<u32, ExecError> {
        match self {
            Val::Obj(v) => Ok(v),
            other => Err(expected("object handle", other)),
        }
    }
}

#[cold]
fn expected(what: &str, found: Val) -> ExecError {
    ExecError::msg(format!("expected {what}, found {found:?}"))
}

/// Typed array storage within a memory space.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrStore {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// Explicitly freed (use-after-free is detected and reported).
    Freed,
}

impl ArrStore {
    pub fn new(elem: ElemTy, len: usize) -> ArrStore {
        match elem {
            ElemTy::I32 => ArrStore::I32(vec![0; len]),
            ElemTy::I64 => ArrStore::I64(vec![0; len]),
            ElemTy::F32 => ArrStore::F32(vec![0.0; len]),
            ElemTy::F64 => ArrStore::F64(vec![0.0; len]),
            ElemTy::Bool => ArrStore::Bool(vec![false; len]),
        }
    }

    pub fn len(&self) -> Result<usize, ExecError> {
        Ok(match self {
            ArrStore::I32(v) => v.len(),
            ArrStore::I64(v) => v.len(),
            ArrStore::F32(v) => v.len(),
            ArrStore::F64(v) => v.len(),
            ArrStore::Bool(v) => v.len(),
            ArrStore::Freed => return Err("use of freed array".into()),
        })
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.len(), Ok(0))
    }

    pub fn get(&self, i: usize) -> Result<Val, ExecError> {
        let mut v = Val::Unit;
        self.read(i, &mut v).map(|()| v)
    }

    /// Element `i` into `dst` with a single match on the storage (the
    /// loop writes straight into a register); errors take the checked
    /// path for their exact text.
    #[inline(always)]
    fn read(&self, i: usize, dst: &mut Val) -> Result<(), ExecError> {
        let hit = match self {
            ArrStore::F32(v) => v.get(i).map(|x| *dst = Val::F32(*x)),
            ArrStore::F64(v) => v.get(i).map(|x| *dst = Val::F64(*x)),
            ArrStore::I32(v) => v.get(i).map(|x| *dst = Val::I32(*x)),
            ArrStore::I64(v) => v.get(i).map(|x| *dst = Val::I64(*x)),
            ArrStore::Bool(v) => v.get(i).map(|x| *dst = Val::Bool(*x)),
            ArrStore::Freed => None,
        };
        hit.map_or_else(|| Err(self.miss(i, None)), Ok)
    }

    pub fn set(&mut self, i: usize, val: Val) -> Result<(), ExecError> {
        self.write(i, &val)
    }

    /// [`ArrStore::set`] from a register, read in place.
    #[inline(always)]
    fn write(&mut self, i: usize, val: &Val) -> Result<(), ExecError> {
        let hit = match (&mut *self, val) {
            (ArrStore::F32(v), Val::F32(x)) => v.get_mut(i).map(|s| *s = *x),
            (ArrStore::F64(v), Val::F64(x)) => v.get_mut(i).map(|s| *s = *x),
            (ArrStore::I32(v), Val::I32(x)) => v.get_mut(i).map(|s| *s = *x),
            (ArrStore::I64(v), Val::I64(x)) => v.get_mut(i).map(|s| *s = *x),
            (ArrStore::Bool(v), Val::Bool(x)) => v.get_mut(i).map(|s| *s = *x),
            _ => None,
        };
        hit.map_or_else(|| Err(self.miss(i, Some(*val))), Ok)
    }

    /// Why element `i` could not be read (or `val` stored): freed, out of
    /// bounds, or a type mismatch, checked in that order.
    #[cold]
    fn miss(&self, i: usize, val: Option<Val>) -> ExecError {
        match (self.len(), val) {
            (Err(e), _) => e,
            (Ok(n), _) if i >= n => {
                ExecError::msg(format!("array index {i} out of bounds (len {n})"))
            }
            (_, x) => ExecError::msg(format!("type mismatch storing {x:?} into {self:?}")),
        }
    }
}

/// A flat memory space (host, one per MPI rank, or a GPU device space).
#[derive(Debug, Default)]
pub struct MemSpace {
    pub arrays: Vec<ArrStore>,
}

impl MemSpace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn alloc(&mut self, store: ArrStore) -> u32 {
        self.arrays.push(store);
        self.arrays.len() as u32 - 1
    }

    pub fn arr(&self, h: u32) -> Result<&ArrStore, ExecError> {
        self.arrays
            .get(h as usize)
            .ok_or_else(|| ExecError::msg(format!("bad array handle {h}")))
    }

    pub fn arr_mut(&mut self, h: u32) -> Result<&mut ArrStore, ExecError> {
        self.arrays
            .get_mut(h as usize)
            .ok_or_else(|| ExecError::msg(format!("bad array handle {h}")))
    }

    pub fn free(&mut self, h: u32) -> Result<(), ExecError> {
        let a = self.arr_mut(h)?;
        if matches!(a, ArrStore::Freed) {
            return Err("double free".into());
        }
        *a = ArrStore::Freed;
        Ok(())
    }
}

/// Heap objects for the unoptimized (C++/Template baseline) configurations.
#[derive(Debug, Default)]
pub struct ObjHeap {
    pub objects: Vec<(u32, Vec<Val>)>,
}

impl ObjHeap {
    pub fn alloc(&mut self, class: u32, fields: usize) -> u32 {
        self.objects.push((class, vec![Val::Unit; fields]));
        self.objects.len() as u32 - 1
    }

    pub fn class_of(&self, h: u32) -> Result<u32, ExecError> {
        self.objects
            .get(h as usize)
            .map(|(c, _)| *c)
            .ok_or_else(|| ExecError::msg(format!("bad object {h}")))
    }

    pub fn get(&self, h: u32, slot: u32) -> Result<Val, ExecError> {
        self.objects
            .get(h as usize)
            .and_then(|(_, f)| f.get(slot as usize).copied())
            .ok_or_else(|| ExecError::msg(format!("bad field {slot} of object {h}")))
    }

    pub fn set(&mut self, h: u32, slot: u32, v: Val) -> Result<(), ExecError> {
        let rec = self
            .objects
            .get_mut(h as usize)
            .ok_or_else(|| ExecError::msg(format!("bad object {h}")))?;
        let f = rec
            .1
            .get_mut(slot as usize)
            .ok_or_else(|| ExecError::msg(format!("bad field {slot}")))?;
        *f = v;
        Ok(())
    }
}

/// Deterministic work accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Retired instructions.
    pub instrs: u64,
    /// Weighted cost ("virtual cycles").
    pub cycles: u64,
}

/// Per-opcode weights (virtual cycles). Heap indirection and dynamic
/// dispatch are deliberately more expensive, mirroring their real costs.
pub fn weight(ins: &Instr) -> u64 {
    match ins {
        Instr::ConstI32(..)
        | Instr::ConstI64(..)
        | Instr::ConstF32(..)
        | Instr::ConstF64(..)
        | Instr::ConstBool(..)
        | Instr::Mov(..) => 1,
        Instr::Bin { .. } | Instr::Neg { .. } | Instr::Not { .. } | Instr::Cast { .. } => 1,
        Instr::Jmp(_) | Instr::Br { .. } => 1,
        Instr::Ret(_) => 2,
        Instr::Call { .. } => 6,
        // FFI transitions cost more than an internal call (the paper's
        // motivation for making MPI an intrinsic, not a JNI wrapper).
        Instr::CallHost { .. } => 12,
        Instr::NewObj { .. } => 30,
        Instr::GetField { .. } | Instr::PutField { .. } => 4,
        Instr::CallVirt { .. } => 14,
        Instr::NewArr { .. } => 30,
        Instr::LdArr { .. } | Instr::StArr { .. } => 2,
        Instr::ArrLen { .. } => 2,
        Instr::FreeArr { .. } => 10,
        Instr::Intrin { op, .. } => match op {
            IntrinOp::PrintI32
            | IntrinOp::PrintI64
            | IntrinOp::PrintF32
            | IntrinOp::PrintF64
            | IntrinOp::PrintBool => 20,
            IntrinOp::ArrayCopyF32 => 10,
            _ => 8,
        },
        Instr::Launch { .. } => 20,
        Instr::SharedAlloc { .. } => 10,
        Instr::Sync => 4,
    }
}

/// The machine state shared by all threads of one execution context (one
/// process / one rank / one device).
#[derive(Debug, Default)]
pub struct Machine {
    pub mem: MemSpace,
    pub objs: ObjHeap,
    pub globals: Vec<Val>,
    pub output: Vec<String>,
    pub counters: Counters,
    /// Optional deterministic fault-injection stream; when set, [`run`]
    /// consults it at slice starts (fuel exhaustion) and yield points
    /// (rank crashes). `None` (the default) injects nothing.
    pub fault: Option<FaultPlan>,
}

impl Machine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Initialize globals from the program's constant pool.
    pub fn with_globals(program: &Program) -> Self {
        let globals = program
            .globals
            .iter()
            .map(|g| match &g.value {
                nir::ConstVal::I32(v) => Val::I32(*v),
                nir::ConstVal::I64(v) => Val::I64(*v),
                nir::ConstVal::F32(v) => Val::F32(*v),
                nir::ConstVal::F64(v) => Val::F64(*v),
                nir::ConstVal::Bool(v) => Val::Bool(*v),
            })
            .collect();
        Machine {
            globals,
            ..Default::default()
        }
    }
}

/// Why `run` stopped.
#[derive(Debug)]
pub enum Yield {
    /// The entry frame returned.
    Done(Option<Val>),
    /// Fuel ran out; call `run` again to continue.
    OutOfFuel,
    /// Kernel thread reached `__syncthreads`.
    Sync,
    /// Kernel thread executed `SharedAlloc` at `pc` of the kernel; the GPU
    /// runtime must provide the (per-block) handle via `resume_with`.
    SharedAlloc { elem: ElemTy, len: usize, pc: u32 },
    /// Blocked on an MPI operation; the MPI runtime services it.
    Mpi { op: IntrinOp, args: Vec<Val> },
    /// Host requested a kernel launch.
    Launch {
        kernel: FuncId,
        grid: [u32; 3],
        block: [u32; 3],
        args: Vec<Val>,
    },
    /// Host requested a GPU memory operation (copy/alloc/free) or a CUDA
    /// thread-register read that gpu-sim must service.
    GpuMem { op: IntrinOp, args: Vec<Val> },
    /// A registered foreign (host) function call; the runtime services it
    /// through its [`HostRegistry`].
    Host { host: u32, args: Vec<Val> },
    /// An injected fault killed this execution context at the given
    /// retired-instruction count. The thread must not be resumed; the
    /// surrounding runtime decides how the world degrades.
    Crashed { step: u64 },
}

/// A registered foreign function: the reproduction's stand-in for a C
/// function linked into the generated program.
pub type HostFn = Box<dyn Fn(&[Val], &mut MemSpace) -> Result<Val, ExecError>>;

/// Foreign functions by registration order (indices must match the
/// program's `host_fns` table; the translator guarantees this when both
/// are built from the same registry keys).
#[derive(Default)]
pub struct HostRegistry {
    entries: Vec<(String, HostFn)>,
}

impl HostRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `f` under `key` (the `@Native("key")` string); returns its id.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        f: impl Fn(&[Val], &mut MemSpace) -> Result<Val, ExecError> + 'static,
    ) -> u32 {
        self.entries.push((key.into(), Box::new(f)));
        self.entries.len() as u32 - 1
    }

    pub fn id_of(&self, key: &str) -> Option<u32> {
        self.entries
            .iter()
            .position(|(k, _)| k == key)
            .map(|i| i as u32)
    }

    pub fn call(&self, id: u32, args: &[Val], mem: &mut MemSpace) -> Result<Val, ExecError> {
        let (_, f) = self
            .entries
            .get(id as usize)
            .ok_or_else(|| ExecError::msg(format!("unregistered host function {id}")))?;
        f(args, mem)
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// Execution error with function/pc context. Errors raised outside the
/// interpreter loop (value coercions, memory accesses, host functions)
/// start context-free; [`run`] attaches the function and pc of the
/// faulting instruction before surfacing them.
#[derive(Debug, Clone)]
pub struct ExecError {
    pub message: String,
    pub func: String,
    pub pc: u32,
}

impl ExecError {
    /// A context-free error (no function/pc yet).
    pub fn msg(message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
            func: String::new(),
            pc: 0,
        }
    }

    /// Attach function/pc context unless the error already carries some.
    pub fn at(mut self, func: &str, pc: u32) -> Self {
        if self.func.is_empty() {
            self.func = func.to_string();
            self.pc = pc;
        }
        self
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.func.is_empty() {
            write!(f, "exec error: {}", self.message)
        } else {
            write!(
                f,
                "exec error in `{}` at pc {}: {}",
                self.func, self.pc, self.message
            )
        }
    }
}

impl std::error::Error for ExecError {}

impl From<String> for ExecError {
    fn from(message: String) -> Self {
        ExecError::msg(message)
    }
}

impl From<&str> for ExecError {
    fn from(message: &str) -> Self {
        ExecError::msg(message)
    }
}

#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    pc: u32,
    regs: Vec<Val>,
    /// Register in the *caller* frame to receive our return value.
    ret_to: Option<Reg>,
}

impl Frame {
    fn new(func: FuncId, regs: Vec<Val>, ret_to: Option<Reg>) -> Frame {
        Frame {
            func,
            pc: 0,
            regs,
            ret_to,
        }
    }
}

/// A resumable execution context (call stack). CUDA threads, MPI ranks,
/// and plain host executions are all `Thread`s.
#[derive(Debug)]
pub struct Thread {
    frames: Vec<Frame>,
    /// Where to deliver a value provided by `resume_with`.
    pending_dst: Option<Reg>,
    done: bool,
    /// Register files of returned frames, reused by later calls.
    spare: Vec<Vec<Val>>,
}

impl Thread {
    /// Create a thread poised to execute `func(args)`.
    pub fn new(code: &Code, func: FuncId, args: &[Val]) -> Result<Thread, ExecError> {
        let f = code.func(func);
        if f.params != args.len() {
            return Err(ExecError {
                message: format!("`{}` expects {} args, got {}", f.name, f.params, args.len()),
                func: f.name.clone(),
                pc: 0,
            });
        }
        let mut regs = vec![Val::Unit; f.nregs];
        regs[..args.len()].copy_from_slice(args);
        Ok(Thread {
            frames: vec![Frame::new(func, regs, None)],
            pending_dst: None,
            done: false,
            spare: Vec::new(),
        })
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Deliver the result of a serviced yield (pass `Val::Unit` for void).
    pub fn resume_with(&mut self, v: Val) {
        if let Some(dst) = self.pending_dst.take() {
            if let Some(top) = self.frames.last_mut() {
                top.regs[dst as usize] = v;
            }
        }
    }

    /// Current call depth (for diagnostics).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Function and pc of the innermost frame. While a yield is being
    /// serviced the pc has already advanced past the yielding
    /// instruction, so the *faulting* instruction is `pc - 1`; runtimes
    /// use this to attach location context to errors raised outside the
    /// interpreter loop (see [`ExecError::at`]).
    pub fn frame_location(&self) -> Option<(FuncId, u32)> {
        self.frames.last().map(|f| (f.func, f.pc))
    }
}

/// Maximum call depth (the coding rules forbid recursion, so this only
/// guards against translator bugs).
const MAX_DEPTH: usize = 256;

/// Run `thread` until completion, a yield point, or `fuel` retired
/// instructions.
///
/// This is the engine's one dispatch loop. The innermost frame is moved
/// out of the call stack for the duration, so its registers and its
/// function's op stream are plain locals; only `Call` and `Ret` swap
/// them. Counters accumulate in locals and are flushed on every exit.
pub fn run(
    thread: &mut Thread,
    code: &Code,
    machine: &mut Machine,
    mut fuel: u64,
) -> Result<Yield, ExecError> {
    if thread.done {
        return Ok(Yield::Done(None));
    }
    // Fault injection: a slice may deterministically get its fuel cut
    // short (the caller sees OutOfFuel earlier than expected).
    if let Some(plan) = machine.fault.as_mut() {
        fuel = plan.slice_fuel(fuel);
    }
    let Some(mut cur) = thread.frames.pop() else {
        return Err("thread has no frame".into());
    };
    let out = dispatch(thread, &mut cur, code, machine, fuel);
    let out = out.map_err(|e| e.at(&code.func(cur.func).name, cur.pc));
    // A returning entry frame is consumed; every other exit (yield,
    // fuel, crash, error) leaves it on the stack, pc at the stop point.
    if !matches!(out, Ok(Yield::Done(_))) {
        thread.frames.push(cur);
    }
    out
}

fn dispatch(
    thread: &mut Thread,
    cur: &mut Frame,
    code: &Code,
    machine: &mut Machine,
    fuel: u64,
) -> Result<Yield, ExecError> {
    let mut ops = &code.func(cur.func).ops[..];
    let mut pc = cur.pc as usize;
    let mut regs = std::mem::take(&mut cur.regs);
    let mut left = fuel;
    let mut cycles = 0u64;
    // Every exit breaks out of the loop with its outcome; the counters,
    // the stop pc (the faulting pc for errors) and the registers are
    // written back once, below.
    let out = 'run: loop {
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break 'run Err(ExecError::from(e)),
                }
            };
        }
        macro_rules! r {
            ($r:expr) => {
                regs[*$r as usize]
            };
        }
        // A register's payload read in place (a whole-value copy would
        // stall on the narrow stores that wrote it); a wrong tag takes the
        // checked accessor, which makes the error.
        macro_rules! get {
            ($r:expr, $v:ident, $as:ident) => {
                match &r!($r) {
                    Val::$v(x) => *x,
                    other => tri!(other.$as()),
                }
            };
        }
        // An array access's handle and index, read in place; anything
        // else takes the checked `index`, which makes the error.
        macro_rules! at {
            ($a:expr, $i:expr) => {
                match (&r!($a), &r!($i)) {
                    (Val::Arr(h), Val::I32(i)) if *i >= 0 => (*h, *i as usize),
                    _ => tri!(index(r!($a), r!($i))),
                }
            };
        }
        // A kind-specialised binary op: the two operand tags are matched
        // once; mismatched tags and failing ops (division by zero) take
        // the checked path, which produces the exact error.
        macro_rules! bin {
            ($in:ident, $out:ident, $kind:ident, $o:expr, $d:expr, $a:expr, $b:expr, $f:expr) => {{
                let v = match (&r!($a), &r!($b)) {
                    (Val::$in(x), Val::$in(y)) => $f(*$o, *x, *y),
                    _ => None,
                };
                match v {
                    Some(v) => r!($d) = Val::$out(v),
                    None => r!($d) = tri!(binop(*$o, PrimKind::$kind, r!($a), r!($b))),
                }
            }};
        }
        // Push the running frame and enter `f` with `args`.
        macro_rules! call {
            ($f:expr, $args:expr, $dst:expr) => {{
                let callee = tri!(enter(code, thread, $f, $args, &regs));
                cur.regs = std::mem::replace(&mut regs, callee);
                cur.pc = pc as u32 + 1;
                let caller = std::mem::replace(cur, Frame::new($f, Vec::new(), $dst));
                thread.frames.push(caller);
                ops = &code.func($f).ops;
                pc = 0;
                continue;
            }};
        }
        if left == 0 {
            break Ok(Yield::OutOfFuel);
        }
        let Some((op, w)) = ops.get(pc) else {
            break Err("fell off the end of function".into());
        };
        left -= 1;
        cycles += w;
        match op {
            Op::Const(d, v) => r!(d) = *v,
            // Copied by tag, like `copy`.
            Op::Mov(d, s) => match r!(s) {
                Val::I32(x) => r!(d) = Val::I32(x),
                Val::F32(x) => r!(d) = Val::F32(x),
                v => r!(d) = v,
            },
            Op::ArithI(o, d, a, b) => bin!(I32, I32, Int, o, d, a, b, int_arith),
            Op::CmpI(o, d, a, b) => bin!(I32, Bool, Int, o, d, a, b, compare),
            Op::ArithF(o, d, a, b) => bin!(F32, F32, Float, o, d, a, b, float_arith),
            Op::CmpF(o, d, a, b) => bin!(F32, Bool, Float, o, d, a, b, compare),
            Op::ArithD(o, d, a, b) => bin!(F64, F64, Double, o, d, a, b, float_arith),
            Op::CmpD(o, d, a, b) => bin!(F64, Bool, Double, o, d, a, b, compare),
            Op::Not(d, s) => r!(d) = Val::Bool(!get!(s, Bool, as_bool)),
            Op::Cast(to, d, s) => r!(d) = tri!(numcast(*to, r!(s))),
            Op::Jmp(t) => {
                pc = *t as usize;
                continue;
            }
            Op::Br(c, t, f) => {
                pc = if get!(c, Bool, as_bool) { *t } else { *f } as usize;
                continue;
            }
            Op::Ret(v) => {
                let Some(caller) = thread.frames.pop() else {
                    thread.done = true;
                    break Ok(Yield::Done(v.map(|v| r!(&v))));
                };
                let done = std::mem::replace(cur, caller);
                let callee = std::mem::replace(&mut regs, std::mem::take(&mut cur.regs));
                match (done.ret_to, v) {
                    (Some(dst), Some(v)) => copy(&mut regs[dst as usize], &callee[*v as usize]),
                    (Some(dst), None) => regs[dst as usize] = Val::Unit,
                    (None, _) => {}
                }
                thread.spare.push(callee);
                ops = &code.func(cur.func).ops;
                pc = cur.pc as usize;
                continue;
            }
            Op::Call(f, args, dst) => call!(*f, args, *dst),
            Op::CallVirt(sel, args, dst) => {
                let f = tri!(resolve(
                    code,
                    &machine.objs,
                    get!(&args[0], Obj, as_obj),
                    *sel
                ));
                call!(f, args, *dst)
            }
            Op::GetField(o, slot, d) => {
                let h = get!(o, Obj, as_obj);
                r!(d) = tri!(machine.objs.get(h, *slot));
            }
            Op::PutField(o, slot, s) => {
                let h = get!(o, Obj, as_obj);
                tri!(machine.objs.set(h, *slot, r!(s)));
            }
            Op::LdArr(a, i, d) => {
                let (h, i) = at!(a, i);
                tri!(machine.mem.arr(h).and_then(|arr| arr.read(i, &mut r!(d))));
            }
            Op::StArr(a, i, s) => {
                let (h, i) = at!(a, i);
                tri!(machine.mem.arr_mut(h).and_then(|arr| arr.write(i, &r!(s))));
            }
            Op::ArrLen(a, d) => {
                let h = get!(a, Arr, as_arr);
                r!(d) = Val::I32(tri!(machine.mem.arr(h).and_then(ArrStore::len)) as i32);
            }
            Op::Other(ins) => {
                let retired = machine.counters.instrs + (fuel - left);
                match tri!(rare(ins, pc, &mut regs, thread, code, machine, retired)) {
                    None => {}
                    Some(y @ Yield::Crashed { .. }) => break Ok(y),
                    Some(y) => {
                        pc += 1;
                        break Ok(y);
                    }
                }
            }
        }
        pc += 1;
    };
    machine.counters.instrs += fuel - left;
    machine.counters.cycles += cycles;
    cur.pc = pc as u32;
    cur.regs = regs;
    out
}

/// The instructions that are rare, costly or yield, kept out of the loop
/// body. `Some(yield)` stops the slice; the loop advances the pc past
/// every yield except a crash.
#[inline(never)]
fn rare(
    ins: &Instr,
    pc: usize,
    regs: &mut [Val],
    thread: &mut Thread,
    code: &Code,
    machine: &mut Machine,
    retired: u64,
) -> Result<Option<Yield>, ExecError> {
    let argv = |args: &[Reg]| -> Vec<Val> { args.iter().map(|a| regs[*a as usize]).collect() };
    // Fault injection: yield points are the places an execution context
    // can crash. The draw happens *before* the yield is surfaced, so the
    // runtime never services an op the crashed rank would not have issued.
    macro_rules! crash_check {
        () => {
            if let Some(plan) = machine.fault.as_mut() {
                if plan.crash_at_yield() {
                    thread.done = true;
                    return Ok(Some(Yield::Crashed { step: retired }));
                }
            }
        };
    }
    let y = match ins {
        Instr::Bin {
            op,
            kind,
            dst,
            lhs,
            rhs,
        } => {
            regs[*dst as usize] = binop(*op, *kind, regs[*lhs as usize], regs[*rhs as usize])?;
            return Ok(None);
        }
        Instr::Neg { kind, dst, src } => {
            regs[*dst as usize] = match (kind, regs[*src as usize]) {
                (PrimKind::Int, Val::I32(x)) => Val::I32(x.wrapping_neg()),
                (PrimKind::Long, Val::I64(x)) => Val::I64(x.wrapping_neg()),
                (PrimKind::Float, Val::F32(x)) => Val::F32(-x),
                (PrimKind::Double, Val::F64(x)) => Val::F64(-x),
                (k, v) => return Err(format!("bad neg {k:?} on {v:?}").into()),
            };
            return Ok(None);
        }
        Instr::NewObj { class, dst } => {
            let fields = code.classes[*class as usize].field_count as usize;
            regs[*dst as usize] = Val::Obj(machine.objs.alloc(*class, fields));
            return Ok(None);
        }
        Instr::NewArr { elem, len, dst } => {
            let n = regs[*len as usize].as_i32()?;
            if n < 0 {
                return Err(format!("negative array size {n}").into());
            }
            // Charge zero-fill cost proportional to the allocation.
            machine.counters.cycles += (n as u64) / 16;
            regs[*dst as usize] = Val::Arr(machine.mem.alloc(ArrStore::new(*elem, n as usize)));
            return Ok(None);
        }
        Instr::FreeArr { arr } => {
            machine.mem.free(regs[*arr as usize].as_arr()?)?;
            return Ok(None);
        }
        Instr::CallHost { host, args, dst } => {
            crash_check!();
            thread.pending_dst = *dst;
            Yield::Host {
                host: *host,
                args: argv(args),
            }
        }
        Instr::Intrin { op, args, dst } => {
            use IntrinOp::*;
            match op {
                // CUDA thread-register reads and device memory ops are
                // serviced by gpu-sim, which substitutes the coordinate of
                // the executing CUDA thread or performs the copy.
                ThreadIdx(_) | BlockIdx(_) | BlockDim(_) | GridDim(_) | CopyToGpu | CopyFromGpu
                | CopyToGpuRange | CopyFromGpuRange | GpuAllocF32 | GpuFree => {
                    crash_check!();
                    thread.pending_dst = *dst;
                    Yield::GpuMem {
                        op: *op,
                        args: argv(args),
                    }
                }
                MpiRank | MpiSize | MpiBarrier | MpiSendF32 | MpiRecvF32 | MpiSendRecvF32
                | MpiBcastF32 | MpiAllreduceSumF64 | MpiAllreduceSumF32 | MpiAllreduceMaxF64 => {
                    crash_check!();
                    thread.pending_dst = *dst;
                    Yield::Mpi {
                        op: *op,
                        args: argv(args),
                    }
                }
                SqrtF64 | SqrtF32 | PowF64 | ExpF64 | AbsF32 | AbsF64 | AbsI32 | MinI32
                | MaxI32 | MinF32 | MaxF32 | ArrayCopyF32 | PrintI32 | PrintI64 | PrintF32
                | PrintF64 | PrintBool => {
                    intrinsic(*op, &argv(args), *dst, regs, machine)?;
                    return Ok(None);
                }
            }
        }
        Instr::Launch {
            kernel,
            grid,
            block,
            args,
        } => {
            crash_check!();
            let dim = |r: &Reg| -> Result<u32, ExecError> {
                let v = regs[*r as usize].as_i32()?;
                if v <= 0 {
                    return Err(format!("non-positive launch dimension {v}").into());
                }
                Ok(v as u32)
            };
            let grid = [dim(&grid[0])?, dim(&grid[1])?, dim(&grid[2])?];
            let block = [dim(&block[0])?, dim(&block[1])?, dim(&block[2])?];
            thread.pending_dst = None;
            Yield::Launch {
                kernel: *kernel,
                grid,
                block,
                args: argv(args),
            }
        }
        Instr::SharedAlloc { elem, len, dst } => {
            crash_check!();
            let n = regs[*len as usize].as_i32()?;
            if n < 0 {
                return Err(format!("negative shared allocation {n}").into());
            }
            thread.pending_dst = Some(*dst);
            Yield::SharedAlloc {
                elem: *elem,
                len: n as usize,
                pc: pc as u32,
            }
        }
        Instr::Sync => {
            crash_check!();
            Yield::Sync
        }
        hot => unreachable!("{hot:?} is dispatched in the loop"),
    };
    Ok(Some(y))
}

/// The intrinsics the engine completes itself: math, printing, copies.
fn intrinsic(
    op: IntrinOp,
    argv: &[Val],
    dst: Option<Reg>,
    regs: &mut [Val],
    machine: &mut Machine,
) -> Result<(), ExecError> {
    let arg = |i: usize| argv.get(i).copied().unwrap_or(Val::Unit);
    let (x, y) = (arg(0), arg(1));
    let v = match op {
        IntrinOp::SqrtF64 => Val::F64(x.as_f64()?.sqrt()),
        IntrinOp::SqrtF32 => Val::F32(x.as_f32()?.sqrt()),
        IntrinOp::PowF64 => Val::F64(x.as_f64()?.powf(y.as_f64()?)),
        IntrinOp::ExpF64 => Val::F64(x.as_f64()?.exp()),
        IntrinOp::AbsF32 => Val::F32(x.as_f32()?.abs()),
        IntrinOp::AbsF64 => Val::F64(x.as_f64()?.abs()),
        IntrinOp::AbsI32 => Val::I32(x.as_i32()?.wrapping_abs()),
        IntrinOp::MinI32 => Val::I32(x.as_i32()?.min(y.as_i32()?)),
        IntrinOp::MaxI32 => Val::I32(x.as_i32()?.max(y.as_i32()?)),
        IntrinOp::MinF32 => Val::F32(x.as_f32()?.min(y.as_f32()?)),
        IntrinOp::MaxF32 => Val::F32(x.as_f32()?.max(y.as_f32()?)),
        IntrinOp::ArrayCopyF32 => {
            let (src, spos) = (x.as_arr()?, y.as_i32()? as usize);
            let (dsth, dpos) = (arg(2).as_arr()?, arg(3).as_i32()? as usize);
            let n = arg(4).as_i32()? as usize;
            machine.counters.cycles += (n as u64) / 8;
            let data: Vec<f32> = match machine.mem.arr(src)? {
                ArrStore::F32(v) => v
                    .get(spos..spos + n)
                    .ok_or("arraycopy src out of range")?
                    .to_vec(),
                _ => return Err("arraycopy on non-f32 array".into()),
            };
            match machine.mem.arr_mut(dsth)? {
                ArrStore::F32(v) => v
                    .get_mut(dpos..dpos + n)
                    .ok_or("arraycopy dst out of range")?
                    .copy_from_slice(&data),
                _ => return Err("arraycopy on non-f32 array".into()),
            }
            return Ok(());
        }
        IntrinOp::PrintI32
        | IntrinOp::PrintI64
        | IntrinOp::PrintF32
        | IntrinOp::PrintF64
        | IntrinOp::PrintBool => {
            machine.output.push(match x {
                Val::I32(v) => v.to_string(),
                Val::I64(v) => v.to_string(),
                Val::F32(v) => format!("{v}"),
                Val::F64(v) => format!("{v}"),
                Val::Bool(v) => v.to_string(),
                other => return Err(format!("bad print arg {other:?}").into()),
            });
            return Ok(());
        }
        serviced => unreachable!("{serviced:?} yields to its runtime"),
    };
    regs[dst.expect("math intrinsics write a register") as usize] = v;
    Ok(())
}

/// The vtable target of `sel` on the receiver's class.
fn resolve(code: &Code, objs: &ObjHeap, recv: u32, sel: u32) -> Result<FuncId, ExecError> {
    let class = objs.class_of(recv)?;
    let meta = &code.classes[class as usize];
    match meta.vtable.iter().find(|(s, _)| *s == sel) {
        Some(&(_, f)) => Ok(f),
        None => Err(ExecError::msg(format!(
            "class `{}` has no vtable entry for `{}`",
            meta.name, code.selectors[sel as usize]
        ))),
    }
}

/// A callee frame's registers, arguments in place. Checks the depth
/// limit and the callee's arity (a mismatch is a typed error naming the
/// callee; the loop attaches the caller's function and pc).
#[inline(always)]
fn enter(
    code: &Code,
    thread: &mut Thread,
    f: FuncId,
    args: &[Reg],
    caller: &[Val],
) -> Result<Vec<Val>, ExecError> {
    // The running frame is out of `thread.frames` while the loop runs.
    if thread.frames.len() + 1 >= MAX_DEPTH {
        return Err("call depth limit exceeded".into());
    }
    let callee = code.func(f);
    if args.len() != callee.params {
        return Err(arity(&callee.name, args.len(), callee.params));
    }
    let mut regs = thread.spare.pop().unwrap_or_default();
    regs.clear();
    regs.resize(callee.nregs, Val::Unit);
    for (slot, a) in regs.iter_mut().zip(args) {
        copy(slot, &caller[*a as usize]);
    }
    Ok(regs)
}

#[cold]
fn arity(callee: &str, passed: usize, takes: usize) -> ExecError {
    ExecError::msg(format!(
        "call to `{callee}` passes {passed} args, it takes {takes}"
    ))
}

/// Copy a register by tag, so the read matches the narrow stores that
/// wrote it (a whole-value copy would stall waiting on them).
#[inline(always)]
fn copy(dst: &mut Val, src: &Val) {
    match src {
        Val::I32(x) => *dst = Val::I32(*x),
        Val::F32(x) => *dst = Val::F32(*x),
        v => *dst = *v,
    }
}

/// Array handle and non-negative index, checked in a fixed order
/// (handle, index type, sign) so each failure keeps its error text.
#[inline(always)]
fn index(arr: Val, idx: Val) -> Result<(u32, usize), ExecError> {
    let h = arr.as_arr()?;
    let i = idx.as_i32()?;
    if i < 0 {
        return Err(ExecError::msg(format!("negative index {i}")));
    }
    Ok((h, i as usize))
}

/// Convenience: run a function to completion in a machine, servicing no
/// yields (errors if the program needs MPI/GPU runtimes). Decodes the
/// program for this one run; holders of a [`Code`] call [`run`].
pub fn run_to_completion(
    program: &Program,
    func: FuncId,
    args: Vec<Val>,
    machine: &mut Machine,
) -> Result<Option<Val>, ExecError> {
    let code = Code::new(program);
    let mut t = Thread::new(&code, func, &args)?;
    loop {
        match run(&mut t, &code, machine, u64::MAX)? {
            Yield::Done(v) => return Ok(v),
            Yield::OutOfFuel => {}
            Yield::Crashed { step } => {
                return Err(ExecError::msg(format!(
                    "injected crash at step {step} (fault plan)"
                )))
            }
            other => {
                return Err(ExecError::msg(format!(
                    "program requires a runtime service ({other:?}); use the wootinj facade"
                )))
            }
        }
    }
}

/// Checked binary op on tagged values: the loop's path when the operand
/// tags do not match the op's kind (the error names the bad operand) or
/// the op fails.
fn binop(op: BinOp, kind: PrimKind, l: Val, r: Val) -> Result<Val, ExecError> {
    let v = match kind {
        PrimKind::Int => numeric(op, l.as_i32()?, r.as_i32()?, int_arith, Val::I32),
        PrimKind::Long => numeric(op, l.as_i64()?, r.as_i64()?, long_arith, Val::I64),
        PrimKind::Float => numeric(op, l.as_f32()?, r.as_f32()?, float_arith, Val::F32),
        PrimKind::Double => numeric(op, l.as_f64()?, r.as_f64()?, float_arith, Val::F64),
        PrimKind::Boolean => {
            let (a, b) = (l.as_bool()?, r.as_bool()?);
            match op {
                BinOp::Eq => Some(a == b),
                BinOp::Ne => Some(a != b),
                BinOp::And => Some(a && b),
                BinOp::Or => Some(a || b),
                _ => None,
            }
            .map(Val::Bool)
        }
    };
    v.ok_or_else(|| {
        ExecError::msg(match (kind, op) {
            (PrimKind::Int | PrimKind::Long, BinOp::Div) => "division by zero",
            (PrimKind::Int | PrimKind::Long, BinOp::Rem) => "remainder by zero",
            (PrimKind::Int, _) => "logical op on int",
            (PrimKind::Long, _) => "logical op on long",
            (PrimKind::Float, _) => "bitwise op on float",
            (PrimKind::Double, _) => "bitwise op on double",
            (PrimKind::Boolean, _) => "arith op on bool",
        })
    })
}

/// An arithmetic op or a comparison on two numeric operands.
fn numeric<T: PartialOrd + Copy>(
    op: BinOp,
    a: T,
    b: T,
    arith: fn(BinOp, T, T) -> Option<T>,
    wrap: fn(T) -> Val,
) -> Option<Val> {
    arith(op, a, b)
        .map(wrap)
        .or_else(|| compare(op, a, b).map(Val::Bool))
}

/// Java `int`/`long` arithmetic: wrapping, masked shifts; `None` for
/// division by zero and for non-arithmetic ops.
macro_rules! int_arith {
    ($name:ident, $t:ty, $mask:expr) => {
        #[inline(always)]
        fn $name(op: BinOp, a: $t, b: $t) -> Option<$t> {
            use BinOp::*;
            Some(match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div if b != 0 => a.wrapping_div(b),
                Rem if b != 0 => a.wrapping_rem(b),
                Shl => a.wrapping_shl(b as u32 & $mask),
                Shr => a.wrapping_shr(b as u32 & $mask),
                BitAnd => a & b,
                BitOr => a | b,
                BitXor => a ^ b,
                _ => return None,
            })
        }
    };
}
int_arith!(int_arith, i32, 31);
int_arith!(long_arith, i64, 63);

/// IEEE `float`/`double` arithmetic (Java's, Rust's).
#[inline(always)]
fn float_arith<T>(op: BinOp, a: T, b: T) -> Option<T>
where
    T: Add<Output = T> + Sub<Output = T> + Mul<Output = T> + Div<Output = T> + Rem<Output = T>,
{
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        _ => return None,
    })
}

/// The six comparisons, on any ordered operand type.
#[inline(always)]
fn compare<T: PartialOrd>(op: BinOp, a: T, b: T) -> Option<bool> {
    Some(match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => return None,
    })
}

/// Java primitive conversions (`as` saturates like the JLS).
fn numcast(to: PrimKind, v: Val) -> Result<Val, ExecError> {
    Ok(match to {
        PrimKind::Int => Val::I32(match v {
            Val::I32(x) => x,
            Val::I64(x) => x as i32,
            Val::F32(x) => x as i32,
            Val::F64(x) => x as i32,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to int"))),
        }),
        PrimKind::Long => Val::I64(match v {
            Val::I32(x) => x as i64,
            Val::I64(x) => x,
            Val::F32(x) => x as i64,
            Val::F64(x) => x as i64,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to long"))),
        }),
        PrimKind::Float => Val::F32(match v {
            Val::I32(x) => x as f32,
            Val::I64(x) => x as f32,
            Val::F32(x) => x,
            Val::F64(x) => x as f32,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to float"))),
        }),
        PrimKind::Double => Val::F64(match v {
            Val::I32(x) => x as f64,
            Val::I64(x) => x as f64,
            Val::F32(x) => x as f64,
            Val::F64(x) => x,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to double"))),
        }),
        PrimKind::Boolean => match v {
            Val::Bool(_) => v,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to boolean"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nir::{FuncBuilder, FuncKind, Ty};

    fn program_sum_to(n: i32) -> (Program, FuncId) {
        // fn f() -> i32 { s = 0; i = 0; while i < n { s += i; i += 1 }; s }
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let s = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let nn = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let c = fb.reg(Ty::Bool);
        fb.emit(Instr::ConstI32(s, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(nn, n));
        fb.emit(Instr::ConstI32(one, 1));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: c,
            lhs: i,
            rhs: nn,
        });
        fb.br(c, body, done);
        fb.bind(body);
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: s,
            lhs: s,
            rhs: i,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: i,
            lhs: i,
            rhs: one,
        });
        fb.jmp(head);
        fb.bind(done);
        fb.emit(Instr::Ret(Some(s)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        p.validate().unwrap();
        (p, id)
    }

    #[test]
    fn loop_executes() {
        let (p, id) = program_sum_to(100);
        let mut m = Machine::new();
        let v = run_to_completion(&p, id, vec![], &mut m).unwrap();
        assert_eq!(v, Some(Val::I32(4950)));
        assert!(m.counters.instrs > 400);
    }

    #[test]
    fn fuel_suspends_and_resumes() {
        let (p, id) = program_sum_to(1000);
        let mut m = Machine::new();
        let code = Code::new(&p);
        let mut t = Thread::new(&code, id, &[]).unwrap();
        let mut rounds = 0;
        let v = loop {
            match run(&mut t, &code, &mut m, 100).unwrap() {
                Yield::Done(v) => break v,
                Yield::OutOfFuel => rounds += 1,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(v, Some(Val::I32(499_500)));
        assert!(rounds > 10, "should have suspended many times: {rounds}");
    }

    #[test]
    fn counters_deterministic() {
        let (p, id) = program_sum_to(50);
        let mut m1 = Machine::new();
        run_to_completion(&p, id, vec![], &mut m1).unwrap();
        let mut m2 = Machine::new();
        run_to_completion(&p, id, vec![], &mut m2).unwrap();
        assert_eq!(m1.counters.instrs, m2.counters.instrs);
        assert_eq!(m1.counters.cycles, m2.counters.cycles);
    }

    #[test]
    fn calls_pass_args_and_return() {
        // g(x) = x * 2; f(a) = g(a) + 1
        let mut p = Program::default();
        let mut gb = FuncBuilder::new("g", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let two = gb.reg(Ty::I32);
        let r = gb.reg(Ty::I32);
        gb.emit(Instr::ConstI32(two, 2));
        gb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: r,
            lhs: 0,
            rhs: two,
        });
        gb.emit(Instr::Ret(Some(r)));
        let g = p.add_func(gb.finish().unwrap());
        let mut fbb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let gr = fbb.reg(Ty::I32);
        let one = fbb.reg(Ty::I32);
        let out = fbb.reg(Ty::I32);
        fbb.emit(Instr::Call {
            func: g,
            args: vec![0],
            dst: Some(gr),
        });
        fbb.emit(Instr::ConstI32(one, 1));
        fbb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: out,
            lhs: gr,
            rhs: one,
        });
        fbb.emit(Instr::Ret(Some(out)));
        let f = p.add_func(fbb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let v = run_to_completion(&p, f, vec![Val::I32(21)], &mut m).unwrap();
        assert_eq!(v, Some(Val::I32(43)));
    }

    #[test]
    fn arrays_alloc_store_load_free() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::F32), FuncKind::Host);
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let idx = fb.reg(Ty::I32);
        let v = fb.reg(Ty::F32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(idx, 3));
        fb.emit(Instr::ConstF32(v, 2.5));
        fb.emit(Instr::StArr { arr, idx, src: v });
        fb.emit(Instr::LdArr { arr, idx, dst: out });
        fb.emit(Instr::FreeArr { arr });
        fb.emit(Instr::Ret(Some(out)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let r = run_to_completion(&p, id, vec![Val::I32(8)], &mut m).unwrap();
        assert_eq!(r, Some(Val::F32(2.5)));
    }

    #[test]
    fn bounds_and_use_after_free_detected() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::F32), FuncKind::Host);
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let idx = fb.reg(Ty::I32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(idx, 100));
        fb.emit(Instr::LdArr { arr, idx, dst: out });
        fb.emit(Instr::Ret(Some(out)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let e = run_to_completion(&p, id, vec![Val::I32(4)], &mut m).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");

        // use-after-free
        let mut fb = FuncBuilder::new("g", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let n = fb.reg(Ty::I32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::FreeArr { arr });
        fb.emit(Instr::ArrLen { arr, dst: n });
        fb.emit(Instr::Ret(Some(n)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let e = run_to_completion(&p, id, vec![Val::I32(4)], &mut m).unwrap_err();
        assert!(e.message.contains("freed"), "{e}");
    }

    #[test]
    fn vtable_dispatch() {
        // Two classes implementing selector "area": square -> x*x, twice -> 2x.
        let mut p = Program::default();
        p.selectors.push("area".into());
        let mut sq = FuncBuilder::new(
            "Square_area",
            vec![Ty::Obj, Ty::I32],
            Some(Ty::I32),
            FuncKind::Host,
        );
        let r = sq.reg(Ty::I32);
        sq.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: r,
            lhs: 1,
            rhs: 1,
        });
        sq.emit(Instr::Ret(Some(r)));
        let sqf = p.add_func(sq.finish().unwrap());
        let mut tw = FuncBuilder::new(
            "Twice_area",
            vec![Ty::Obj, Ty::I32],
            Some(Ty::I32),
            FuncKind::Host,
        );
        let r = tw.reg(Ty::I32);
        let two = tw.reg(Ty::I32);
        tw.emit(Instr::ConstI32(two, 2));
        tw.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: r,
            lhs: 1,
            rhs: two,
        });
        tw.emit(Instr::Ret(Some(r)));
        let twf = p.add_func(tw.finish().unwrap());
        p.classes.push(nir::ClassMeta {
            name: "Square".into(),
            field_count: 0,
            vtable: vec![(0, sqf)],
        });
        p.classes.push(nir::ClassMeta {
            name: "Twice".into(),
            field_count: 0,
            vtable: vec![(0, twf)],
        });

        // f(which, x): obj = new (which ? Twice : Square); obj.area(x)
        let mut fb = FuncBuilder::new("f", vec![Ty::Bool, Ty::I32], Some(Ty::I32), FuncKind::Host);
        let obj = fb.reg(Ty::Obj);
        let out = fb.reg(Ty::I32);
        let t = fb.label();
        let e = fb.label();
        let join = fb.label();
        fb.br(0, t, e);
        fb.bind(t);
        fb.emit(Instr::NewObj { class: 1, dst: obj });
        fb.jmp(join);
        fb.bind(e);
        fb.emit(Instr::NewObj { class: 0, dst: obj });
        fb.jmp(join);
        fb.bind(join);
        fb.emit(Instr::CallVirt {
            selector: 0,
            recv: obj,
            args: vec![1],
            dst: Some(out),
        });
        fb.emit(Instr::Ret(Some(out)));
        let f = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        assert_eq!(
            run_to_completion(&p, f, vec![Val::Bool(false), Val::I32(5)], &mut m).unwrap(),
            Some(Val::I32(25))
        );
        assert_eq!(
            run_to_completion(&p, f, vec![Val::Bool(true), Val::I32(5)], &mut m).unwrap(),
            Some(Val::I32(10))
        );
    }

    #[test]
    fn virtual_dispatch_costs_more_than_direct() {
        // weight table sanity: CallVirt > Call > Bin
        let virt = weight(&Instr::CallVirt {
            selector: 0,
            recv: 0,
            args: vec![],
            dst: None,
        });
        let call = weight(&Instr::Call {
            func: FuncId(0),
            args: vec![],
            dst: None,
        });
        let bin = weight(&Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: 0,
            lhs: 0,
            rhs: 0,
        });
        assert!(virt > call);
        assert!(call > bin);
        let gf = weight(&Instr::GetField {
            obj: 0,
            slot: 0,
            dst: 0,
        });
        let ld = weight(&Instr::LdArr {
            arr: 0,
            idx: 0,
            dst: 0,
        });
        assert!(gf > ld);
    }

    #[test]
    fn mpi_intrinsic_yields() {
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(r),
        });
        fb.emit(Instr::Ret(Some(r)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let code = Code::new(&p);
        let mut t = Thread::new(&code, id, &[]).unwrap();
        match run(&mut t, &code, &mut m, u64::MAX).unwrap() {
            Yield::Mpi {
                op: IntrinOp::MpiRank,
                ..
            } => {}
            other => panic!("expected MPI yield, got {other:?}"),
        }
        // Service the yield: this is rank 3.
        t.resume_with(Val::I32(3));
        match run(&mut t, &code, &mut m, u64::MAX).unwrap() {
            Yield::Done(Some(Val::I32(3))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sync_yields_and_resumes() {
        let mut fb = FuncBuilder::new("k", vec![], Some(Ty::I32), FuncKind::Kernel);
        let a = fb.reg(Ty::I32);
        let b = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(a, 1));
        fb.emit(Instr::Sync);
        fb.emit(Instr::ConstI32(b, 2));
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: a,
            lhs: a,
            rhs: b,
        });
        fb.emit(Instr::Ret(Some(a)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let code = Code::new(&p);
        let mut t = Thread::new(&code, id, &[]).unwrap();
        match run(&mut t, &code, &mut m, u64::MAX).unwrap() {
            Yield::Sync => {}
            other => panic!("expected sync, got {other:?}"),
        }
        match run(&mut t, &code, &mut m, u64::MAX).unwrap() {
            Yield::Done(Some(Val::I32(3))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_yields_with_dimensions() {
        let mut p = Program::default();
        let mut kb = FuncBuilder::new("k", vec![Ty::I32], None, FuncKind::Kernel);
        kb.emit(Instr::Ret(None));
        let k = p.add_func(kb.finish().unwrap());
        let mut fb = FuncBuilder::new("f", vec![], None, FuncKind::Host);
        let g = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let x = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(g, 4));
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::ConstI32(x, 7));
        fb.emit(Instr::Launch {
            kernel: k,
            grid: [g, one, one],
            block: [one, one, one],
            args: vec![x],
        });
        fb.emit(Instr::Ret(None));
        let f = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let code = Code::new(&p);
        let mut t = Thread::new(&code, f, &[]).unwrap();
        match run(&mut t, &code, &mut m, u64::MAX).unwrap() {
            Yield::Launch {
                kernel,
                grid,
                block,
                args,
            } => {
                assert_eq!(kernel, k);
                assert_eq!(grid, [4, 1, 1]);
                assert_eq!(block, [1, 1, 1]);
                assert_eq!(args, vec![Val::I32(7)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_reported_with_location() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let z = fb.reg(Ty::I32);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(z, 0));
        fb.emit(Instr::Bin {
            op: BinOp::Div,
            kind: PrimKind::Int,
            dst: r,
            lhs: 0,
            rhs: z,
        });
        fb.emit(Instr::Ret(Some(r)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let e = run_to_completion(&p, id, vec![Val::I32(5)], &mut m).unwrap_err();
        assert_eq!(e.pc, 1);
        assert_eq!(e.func, "f");
    }
}
