//! Checkpoint serialization for interpreter state.
//!
//! Everything a resumable execution context owns — call stack (pc, locals,
//! return plumbing), heap arrays, object heap, globals, captured output,
//! work counters, and the fault-plan PRNG cursor — round-trips through the
//! sealed `nir::codec` container (`WJAR` magic, version byte, xorshift64\*
//! digest). [`Machine::snapshot`] / [`Machine::restore`] cover a single
//! context; the building-block `write_*` / `read_*` functions are public so
//! the MPI scheduler can compose whole-world checkpoints out of them.
//!
//! Decoding is total: truncation, corruption, and version skew all surface
//! as a typed [`CkptError`], never a panic — callers degrade to a cold
//! restart.

use crate::fault::{FaultConfig, FaultPlan, ResilienceStats};
use crate::{ArrStore, Counters, Frame, Machine, MemSpace, ObjHeap, Thread, Val};
use nir::codec::{seal, unseal, CodecError, Reader, Writer};
use nir::{FuncId, Program};

/// Version byte of the checkpoint payload (inside the sealed container,
/// independent of the container's own version). v3 added the
/// socket-transport fault knobs/counters to the fault-plan record; v2
/// added the checkpoint-write fault counters and the delta-chain payload
/// kinds. Older snapshots degrade to a cold restart by design.
pub const CKPT_VERSION: u8 = 5;

/// Payload kind: a single [`Machine`] snapshot.
pub const TAG_MACHINE: u8 = 0xA1;
/// Payload kind: a whole-world checkpoint (written by `mpi-sim`).
pub const TAG_WORLD: u8 = 0xB7;
/// Payload kind: the base link of a delta checkpoint chain.
pub const TAG_CHAIN_BASE: u8 = 0xC1;
/// Payload kind: a delta link encoded against its parent in the chain.
pub const TAG_CHAIN_DELTA: u8 = 0xC3;

#[path = "ckpt_chain.rs"]
pub mod chain;

/// Why a checkpoint failed to decode. Mirrors `nir::codec::CodecError`
/// so checkpoint consumers never need to name the lower layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The byte stream ended mid-record.
    Truncated { offset: usize },
    /// Not a sealed checkpoint container at all.
    BadMagic,
    /// Container or checkpoint format version mismatch.
    VersionSkew { found: u8, expected: u8 },
    /// Checksum failure or structurally invalid content.
    Corrupt { offset: usize, message: String },
    /// A delta-chain link does not connect to its parent (wrong parent
    /// digest or out-of-order sequence number).
    ChainBroken { seq: u64, message: String },
    /// The checkpoint belongs to a different platform namespace (its
    /// fingerprint salt does not match the restoring world's) — a `dist`
    /// chain must never restore into an `mpi-sim` world, and vice versa.
    ScopeMismatch { expected: u64, found: u64 },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated { offset } => {
                write!(f, "checkpoint truncated at byte {offset}")
            }
            CkptError::BadMagic => write!(f, "not a checkpoint container"),
            CkptError::VersionSkew { found, expected } => {
                write!(f, "checkpoint version {found}, expected {expected}")
            }
            CkptError::Corrupt { offset, message } => {
                write!(f, "corrupt checkpoint at byte {offset}: {message}")
            }
            CkptError::ChainBroken { seq, message } => {
                write!(f, "checkpoint chain broken at link {seq}: {message}")
            }
            CkptError::ScopeMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to platform namespace {found:#018x}, \
                 this world restores only {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<CodecError> for CkptError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { offset } => CkptError::Truncated { offset },
            CodecError::BadMagic => CkptError::BadMagic,
            CodecError::VersionSkew { found, expected } => {
                CkptError::VersionSkew { found, expected }
            }
            CodecError::Corrupt { offset, message } => CkptError::Corrupt { offset, message },
        }
    }
}

/// Start a checkpoint payload of the given kind.
pub fn begin(tag: u8) -> Writer {
    let mut w = Writer::new();
    w.u8(CKPT_VERSION);
    w.u8(tag);
    w
}

/// Seal a finished checkpoint payload into its container bytes.
pub fn finish(w: Writer) -> Vec<u8> {
    seal(&w.into_bytes())
}

/// Unseal container bytes and position a reader past the version/kind
/// header, verifying both.
pub fn open(bytes: &[u8], tag: u8) -> Result<Reader<'_>, CkptError> {
    let payload = unseal(bytes)?;
    let mut r = Reader::new(payload);
    let found = r.u8()?;
    if found != CKPT_VERSION {
        return Err(CkptError::VersionSkew {
            found,
            expected: CKPT_VERSION,
        });
    }
    let kind = r.u8()?;
    if kind != tag {
        return Err(r
            .corrupt(format!("checkpoint kind {kind:#04x}, expected {tag:#04x}"))
            .into());
    }
    Ok(r)
}

pub fn write_val(w: &mut Writer, v: Val) {
    match v {
        Val::I32(x) => {
            w.u8(0);
            w.i32(x);
        }
        Val::I64(x) => {
            w.u8(1);
            w.i64(x);
        }
        Val::F32(x) => {
            w.u8(2);
            w.f32(x);
        }
        Val::F64(x) => {
            w.u8(3);
            w.f64(x);
        }
        Val::Bool(x) => {
            w.u8(4);
            w.bool(x);
        }
        Val::Arr(h) => {
            w.u8(5);
            w.u32(h);
        }
        Val::Obj(h) => {
            w.u8(6);
            w.u32(h);
        }
        Val::Unit => w.u8(7),
    }
}

pub fn read_val(r: &mut Reader) -> Result<Val, CkptError> {
    Ok(match r.u8()? {
        0 => Val::I32(r.i32()?),
        1 => Val::I64(r.i64()?),
        2 => Val::F32(r.f32()?),
        3 => Val::F64(r.f64()?),
        4 => Val::Bool(r.bool()?),
        5 => Val::Arr(r.u32()?),
        6 => Val::Obj(r.u32()?),
        7 => Val::Unit,
        t => return Err(r.corrupt(format!("bad value tag {t}")).into()),
    })
}

fn write_vals(w: &mut Writer, vals: &[Val]) {
    w.len(vals.len());
    for &v in vals {
        write_val(w, v);
    }
}

fn read_vals(r: &mut Reader) -> Result<Vec<Val>, CkptError> {
    let n = r.len()?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(read_val(r)?);
    }
    Ok(vals)
}

pub fn write_arr(w: &mut Writer, a: &ArrStore) {
    match a {
        ArrStore::I32(v) => {
            w.u8(0);
            w.len(v.len());
            for &x in v {
                w.i32(x);
            }
        }
        ArrStore::I64(v) => {
            w.u8(1);
            w.len(v.len());
            for &x in v {
                w.i64(x);
            }
        }
        ArrStore::F32(v) => {
            w.u8(2);
            w.len(v.len());
            for &x in v {
                w.f32(x);
            }
        }
        ArrStore::F64(v) => {
            w.u8(3);
            w.len(v.len());
            for &x in v {
                w.f64(x);
            }
        }
        ArrStore::Bool(v) => {
            w.u8(4);
            w.len(v.len());
            for &x in v {
                w.bool(x);
            }
        }
        ArrStore::Freed => w.u8(5),
    }
}

pub fn read_arr(r: &mut Reader) -> Result<ArrStore, CkptError> {
    Ok(match r.u8()? {
        0 => {
            let n = r.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i32()?);
            }
            ArrStore::I32(v)
        }
        1 => {
            let n = r.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            ArrStore::I64(v)
        }
        2 => {
            let n = r.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f32()?);
            }
            ArrStore::F32(v)
        }
        3 => {
            let n = r.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            ArrStore::F64(v)
        }
        4 => {
            let n = r.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.bool()?);
            }
            ArrStore::Bool(v)
        }
        5 => ArrStore::Freed,
        t => return Err(r.corrupt(format!("bad array tag {t}")).into()),
    })
}

fn write_fault_plan(w: &mut Writer, plan: &FaultPlan) {
    let c = plan.config;
    w.u64(c.seed);
    w.f64(c.crash);
    w.f64(c.fuel_exhaust);
    w.f64(c.host_transient);
    w.f64(c.msg_drop);
    w.f64(c.msg_corrupt);
    w.f64(c.msg_delay);
    w.f64(c.ckpt_write_fail);
    w.f64(c.connect_refuse);
    w.f64(c.frame_truncate);
    w.f64(c.ack_delay);
    w.f64(c.translate_fail);
    w.u64(c.delay_cycles);
    w.u64(c.ack_delay_cycles);
    w.u32(c.max_host_retries);
    w.u64(c.retry_backoff_cycles);
    w.u64(plan.rng_state());
    let s = plan.stats;
    w.u64(s.crashes);
    w.u64(s.fuel_exhaustions);
    w.u64(s.host_transients);
    w.u64(s.host_retries);
    w.u64(s.dropped_messages);
    w.u64(s.corrupted_messages);
    w.u64(s.delayed_messages);
    w.u64(s.ckpt_write_failures);
    w.u64(s.connect_refusals);
    w.u64(s.truncated_frames);
    w.u64(s.delayed_acks);
    w.u64(s.connect_retries);
    w.u64(s.translate_failures);
    w.u64(s.timeouts);
    w.u64(s.degraded_jits);
    w.u64(s.checkpoints_taken);
    w.u64(s.restarts);
    w.u64(s.overlapped_rounds);
}

fn read_fault_plan(r: &mut Reader) -> Result<FaultPlan, CkptError> {
    let config = FaultConfig {
        seed: r.u64()?,
        crash: r.f64()?,
        fuel_exhaust: r.f64()?,
        host_transient: r.f64()?,
        msg_drop: r.f64()?,
        msg_corrupt: r.f64()?,
        msg_delay: r.f64()?,
        ckpt_write_fail: r.f64()?,
        connect_refuse: r.f64()?,
        frame_truncate: r.f64()?,
        ack_delay: r.f64()?,
        translate_fail: r.f64()?,
        delay_cycles: r.u64()?,
        ack_delay_cycles: r.u64()?,
        max_host_retries: r.u32()?,
        retry_backoff_cycles: r.u64()?,
    };
    let rng_state = r.u64()?;
    let stats = ResilienceStats {
        crashes: r.u64()?,
        fuel_exhaustions: r.u64()?,
        host_transients: r.u64()?,
        host_retries: r.u64()?,
        dropped_messages: r.u64()?,
        corrupted_messages: r.u64()?,
        delayed_messages: r.u64()?,
        ckpt_write_failures: r.u64()?,
        connect_refusals: r.u64()?,
        truncated_frames: r.u64()?,
        delayed_acks: r.u64()?,
        connect_retries: r.u64()?,
        translate_failures: r.u64()?,
        timeouts: r.u64()?,
        degraded_jits: r.u64()?,
        checkpoints_taken: r.u64()?,
        restarts: r.u64()?,
        overlapped_rounds: r.u64()?,
    };
    Ok(FaultPlan::restore(config, rng_state, stats))
}

/// Serialize one machine (memory, object heap, globals, output, counters,
/// fault stream) into an open payload.
pub fn write_machine(w: &mut Writer, m: &Machine) {
    w.len(m.mem.arrays.len());
    for a in &m.mem.arrays {
        write_arr(w, a);
    }
    write_machine_rest(w, m);
}

/// One standalone payload per heap array — the unit of delta encoding
/// for checkpoint chains (each array becomes its own chain section, so
/// an untouched mesh costs nothing in a delta link).
pub fn machine_array_sections(m: &Machine) -> Vec<Vec<u8>> {
    m.mem
        .arrays
        .iter()
        .map(|a| {
            let mut w = Writer::new();
            write_arr(&mut w, a);
            w.into_bytes()
        })
        .collect()
}

/// Everything in [`write_machine`] except the heap arrays: object heap,
/// globals, captured output, counters, and the fault-stream cursor.
pub fn write_machine_rest(w: &mut Writer, m: &Machine) {
    w.len(m.objs.objects.len());
    for (class, fields) in &m.objs.objects {
        w.u32(*class);
        write_vals(w, fields);
    }
    write_vals(w, &m.globals);
    w.len(m.output.len());
    for line in &m.output {
        w.str(line);
    }
    w.u64(m.counters.instrs);
    w.u64(m.counters.cycles);
    match &m.fault {
        Some(plan) => {
            w.bool(true);
            write_fault_plan(w, plan);
        }
        None => w.bool(false),
    }
}

pub fn read_machine(r: &mut Reader) -> Result<Machine, CkptError> {
    let n_arrays = r.len()?;
    let mut arrays = Vec::with_capacity(n_arrays);
    for _ in 0..n_arrays {
        arrays.push(read_arr(r)?);
    }
    read_machine_rest(r, arrays)
}

/// Inverse of [`write_machine_rest`], reassembling the machine around
/// separately decoded heap arrays.
pub fn read_machine_rest(r: &mut Reader, arrays: Vec<ArrStore>) -> Result<Machine, CkptError> {
    let n_objs = r.len()?;
    let mut objects = Vec::with_capacity(n_objs);
    for _ in 0..n_objs {
        let class = r.u32()?;
        objects.push((class, read_vals(r)?));
    }
    let globals = read_vals(r)?;
    let n_out = r.len()?;
    let mut output = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        output.push(r.str()?);
    }
    let counters = Counters {
        instrs: r.u64()?,
        cycles: r.u64()?,
    };
    let fault = if r.bool()? {
        Some(read_fault_plan(r)?)
    } else {
        None
    };
    Ok(Machine {
        mem: MemSpace { arrays },
        objs: ObjHeap { objects },
        globals,
        output,
        counters,
        fault,
    })
}

/// Serialize a resumable call stack into an open payload.
pub fn write_thread(w: &mut Writer, t: &Thread) {
    w.len(t.frames.len());
    for f in &t.frames {
        w.u32(f.func.0);
        w.u32(f.pc);
        write_vals(w, &f.regs);
        match f.ret_to {
            Some(reg) => {
                w.bool(true);
                w.u32(reg);
            }
            None => w.bool(false),
        }
    }
    match t.pending_dst {
        Some(reg) => {
            w.bool(true);
            w.u32(reg);
        }
        None => w.bool(false),
    }
    w.bool(t.done);
}

/// Read a call stack back, validating every frame against `program` so a
/// checkpoint from a different program surfaces as [`CkptError::Corrupt`]
/// rather than an interpreter panic.
pub fn read_thread(r: &mut Reader, program: &Program) -> Result<Thread, CkptError> {
    let n_frames = r.len()?;
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        let func = r.u32()?;
        let pc = r.u32()?;
        let regs = read_vals(r)?;
        let ret_to = if r.bool()? { Some(r.u32()?) } else { None };
        let Some(f) = program.funcs.get(func as usize) else {
            return Err(r
                .corrupt(format!("frame references unknown func {func}"))
                .into());
        };
        if regs.len() != f.regs.len() {
            return Err(r
                .corrupt(format!(
                    "frame of `{}` has {} regs, expected {}",
                    f.name,
                    regs.len(),
                    f.regs.len()
                ))
                .into());
        }
        if pc as usize > f.code.len() {
            return Err(r
                .corrupt(format!("frame pc {pc} past end of `{}`", f.name))
                .into());
        }
        frames.push(Frame {
            func: FuncId(func),
            pc,
            regs,
            ret_to,
        });
    }
    let pending_dst = if r.bool()? { Some(r.u32()?) } else { None };
    let done = r.bool()?;
    Ok(Thread {
        frames,
        pending_dst,
        done,
        spare: Vec::new(),
    })
}

impl Machine {
    /// Capture the full machine state into sealed, checksummed bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = begin(TAG_MACHINE);
        write_machine(&mut w, self);
        finish(w)
    }

    /// Rebuild a machine from [`Machine::snapshot`] bytes. Corruption,
    /// truncation, and version skew come back as a typed [`CkptError`].
    pub fn restore(bytes: &[u8]) -> Result<Machine, CkptError> {
        let mut r = open(bytes, TAG_MACHINE)?;
        let m = read_machine(&mut r)?;
        if !r.is_at_end() {
            return Err(r.corrupt("trailing bytes after machine state").into());
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_machine() -> Machine {
        let mut m = Machine::new();
        m.mem.alloc(ArrStore::F32(vec![1.5, -2.25, 3.0]));
        m.mem.alloc(ArrStore::I64(vec![i64::MIN, 0, i64::MAX]));
        let freed = m.mem.alloc(ArrStore::Bool(vec![true, false]));
        m.mem.free(freed).unwrap();
        let obj = m.objs.alloc(7, 2);
        m.objs.set(obj, 0, Val::F64(0.1 + 0.2)).unwrap();
        m.objs.set(obj, 1, Val::Arr(0)).unwrap();
        m.globals = vec![Val::I32(-9), Val::Unit, Val::Obj(obj)];
        m.output = vec!["hello".into(), "42".into()];
        m.counters = Counters {
            instrs: 1234,
            cycles: 56789,
        };
        let mut plan = FaultPlan::for_rank(
            FaultConfig {
                crash: 0.25,
                ..FaultConfig::seeded(99)
            },
            3,
        );
        for _ in 0..17 {
            plan.crash_at_yield();
        }
        m.fault = Some(plan);
        m
    }

    fn assert_machines_eq(a: &Machine, b: &Machine) {
        assert_eq!(a.mem.arrays, b.mem.arrays);
        assert_eq!(a.objs.objects, b.objs.objects);
        assert_eq!(a.globals, b.globals);
        assert_eq!(a.output, b.output);
        assert_eq!(a.counters.instrs, b.counters.instrs);
        assert_eq!(a.counters.cycles, b.counters.cycles);
        assert_eq!(a.fault, b.fault);
    }

    #[test]
    fn machine_round_trips_bit_identical() {
        let m = busy_machine();
        let bytes = m.snapshot();
        let back = Machine::restore(&bytes).expect("restore");
        assert_machines_eq(&m, &back);
        assert_eq!(bytes, back.snapshot(), "snapshot must be deterministic");
    }

    #[test]
    fn restored_fault_stream_continues_from_cursor() {
        let m = busy_machine();
        let mut back = Machine::restore(&m.snapshot()).unwrap();
        let mut orig = m;
        let a = orig.fault.as_mut().unwrap();
        let b = back.fault.as_mut().unwrap();
        for _ in 0..50 {
            assert_eq!(a.crash_at_yield(), b.crash_at_yield());
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed_never_panics() {
        let bytes = busy_machine().snapshot();
        for cut in 0..bytes.len().min(64) {
            assert!(Machine::restore(&bytes[..cut]).is_err());
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Every single-bit flip must fail (digest) — never panic.
            assert!(Machine::restore(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn wrong_kind_and_version_rejected() {
        let m = busy_machine();
        let mut w = begin(TAG_WORLD);
        write_machine(&mut w, &m);
        let as_world = finish(w);
        assert!(matches!(
            Machine::restore(&as_world),
            Err(CkptError::Corrupt { .. })
        ));

        let mut w = Writer::new();
        w.u8(CKPT_VERSION + 1);
        w.u8(TAG_MACHINE);
        write_machine(&mut w, &m);
        let skewed = finish(w);
        assert!(matches!(
            Machine::restore(&skewed),
            Err(CkptError::VersionSkew { found, expected })
                if found == CKPT_VERSION + 1 && expected == CKPT_VERSION
        ));
    }

    #[test]
    fn thread_round_trips_through_payload() {
        use nir::{FuncBuilder, FuncKind, Instr, Ty};
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let a = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(a, 5));
        fb.emit(Instr::Ret(Some(a)));
        let mut p = Program::default();
        let entry = p.add_func(fb.finish().unwrap());

        let t = Thread::new(&crate::Code::new(&p), entry, &[]).unwrap();
        let mut w = begin(TAG_WORLD);
        write_thread(&mut w, &t);
        let bytes = finish(w);
        let mut r = open(&bytes, TAG_WORLD).unwrap();
        let back = read_thread(&mut r, &p).unwrap();
        assert_eq!(back.depth(), t.depth());
        assert_eq!(back.frame_location(), t.frame_location());
        assert_eq!(back.is_done(), t.is_done());
    }
}
