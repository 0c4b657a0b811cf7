//! The plan wire format: how [`crate::store::StoredPlan`] blobs are
//! rendered to bytes before they enter the
//! [`crate::store::InstructionStore`] and how executors run them.
//!
//! There is **one wire format**, the Flat arena: a fixed-width
//! little-endian layout in which the wire format *is* the program.
//! Decoding is validating the header plus offset tables once and
//! wrapping the `Arc<[u8]>` in typed accessor structs ([`FlatPlanRef`],
//! [`FlatProgramRef`], [`FlatInstrRef`]) that read fields by offset. No
//! tree build, no owned copy, and no `unsafe`: every read is an explicit
//! bounds-checked `from_le_bytes`. The simulator executes straight over
//! the blob through `dynapipe_sim::InstructionSource`. The contract is
//! deterministic, float-exact, and re-encode bit-identical
//! (`encode(decode(encode(p))) == encode(p)`).
//!
//! Two other encodings survive in supporting roles only:
//!
//! * **Binary** is the layout of Flat's *plan section*: the small
//!   [`IterationPlan`] / [`PlanError`] metadata subtree, rendered as the
//!   length-prefixed binary encoding of the serde shim's self-describing
//!   [`Value`] model. Strings and arrays are length-prefixed, integers
//!   are LEB128 varints (signed values zigzag-encoded), `f64`s are their
//!   raw little-endian bit patterns, and strings are interned (the first
//!   occurrence inline, later ones a varint back-reference). It is a
//!   private helper of this module, not a wire codec of its own.
//! * **JSON** (`serde_json`, `Value::to_json`) is debug output only, as
//!   in the `plan_inspector` example. No plan crosses the store as JSON.
//!
//! # Flat layout (version 1)
//!
//! All integers are **little-endian** and fixed width; offsets are
//! absolute byte positions in the blob, `u32` (a blob is < 4 GiB by
//! construction — one iteration's programs). No padding, no alignment:
//! records are packed, which is safe because every access is an explicit
//! byte read, never a pointer cast.
//!
//! ```text
//! header (35 bytes):
//!   0      magic      u8   = 0xF7 (outside ASCII and ≠ the plan
//!                               section's Binary magic 0xB1)
//!   1      version    u8   = 1
//!   2      outcome    u8   0 = Failed, 1 = Plan
//!   3..11  total_len  u64  must equal the blob length (truncation check)
//!   11..19 iteration  u64
//!   19..23 plan_off   u32  ┐ the IterationPlan (outcome = 1) or the
//!   23..27 plan_len   u32  ┘ PlanError (outcome = 0) section
//!   27..31 replicas   u32  number of data-parallel replicas
//!   31..35 dir_off    u32  program directory
//!
//! plan section: the plan/error subtree in the Binary layout (the hot
//!   path — instruction records — never routes through it).
//!
//! directory (at dir_off):
//!   replicas × u32           per-replica device counts
//!   Σdevices × (u32, u32)    per-program (ops_off, ops_count),
//!                            replica-major
//!
//! instruction records (34 bytes each, at each program's ops_off):
//!   0      kind        u8   0 = Compute, 1 = CommStart, 2 = CommWait
//!   1      flags       u8   bit0 = is_backward, bit1 = dir == Recv
//!   2..6   micro_batch u32  ┐ the op label
//!   6..10  stage       u32  ┘
//!   10..18 a           u64  ┐ Compute:   a = duration f64 bits,
//!   18..26 b           u64  │            b = allocs_off | count << 32,
//!   26..34 c           u64  ┘            c = frees_off  | count << 32
//!                           CommStart: a = peer, b = bytes, c = tag
//!                           CommWait:  a = tag, b = c = 0
//!
//! side tables (after the last record):
//!   allocs: 16-byte (id u64, bytes u64) pairs
//!   frees:   8-byte id u64s
//! ```
//!
//! A blob's length is therefore exactly `35 + plan section + 4·replicas
//! + 8·Σdevices + 34·records + 16·allocs + 8·frees`. Every `f64` in the
//! plan section is 8 raw bytes, so the length does not depend on float
//! values such as the wall-clock `planning_time_us` (both pinned by the
//! unit tests below).
//!
//! **Versioning:** any incompatible change bumps the version byte and
//! decoders reject other versions — the same rule as the Binary plan
//! section. The `total_len` field plus full offset-table validation in
//! [`FlatPlanRef::new`] means a truncated or bit-flipped blob yields a
//! typed [`CodecError`], never a panic or out-of-bounds read; accessors
//! on a successfully validated blob are in-bounds by construction.
//!
//! The property suite in `tests/serialization.rs` pins the format
//! (decode equal, re-encode bitwise, engines over the wrapped programs
//! bit-identical to engines over the originals), and the
//! `fig09_cluster` / `fig17_planahead` benches fail CI if Flat's bytes
//! per instruction record or its validate-and-wrap time per blob leave
//! their absolute bounds.

use crate::planner::{IterationPlan, PlanError};
use crate::store::{StoredLowered, StoredOutcome, StoredPlan};
use dynapipe_sim::{
    AllocsRef, CommDir, DeviceProgram, FreesRef, InstructionSource, OpLabel, OpView, SimOp,
};
use serde::{Error, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The plan wire codec. Flat is the only wire format; the type remains
/// only because the repository benchmark's adapter names
/// `PlanCodec::Flat` when it builds a `ClusterConfig` and when it calls
/// [`StoredPlan::encode`], and that adapter is not changed together with
/// the program. Deleting the type is left to the next benchmark change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCodec {
    /// Fixed-width LE arena executed in place by typed accessors; see
    /// the module docs.
    #[default]
    Flat,
}

/// Render a [`Value`] tree in the Binary layout: the encoding of Flat's
/// plan section. Deterministic: the bytes are a pure function of the
/// tree.
fn binary_encode(v: &Value) -> Vec<u8> {
    let mut enc = BinaryEncoder::new();
    enc.value(v);
    enc.out
}

/// Rebuild a [`Value`] tree from [`binary_encode`] output. Bytes that are
/// not a Binary blob (a wrong magic, e.g. JSON text) fail loudly, never
/// silently misparse.
fn binary_decode(blob: &[u8]) -> Result<Value, Error> {
    BinaryDecoder::new(blob)?.finish()
}

// ---------------------------------------------------------------------------
// Binary layout
// ---------------------------------------------------------------------------
//
// blob := MAGIC VERSION value
// value := T_NULL | T_FALSE | T_TRUE
//        | T_U64 varint | T_I64 varint(zigzag) | T_F64 u64le(bits)
//        | T_STR varint(len) utf8-bytes       (appends to string table)
//        | T_STR_REF varint(index)            (back-reference)
//        | T_ARRAY varint(count) value*
//        | T_OBJECT varint(count) (string value)*
//
// `string` in an object entry is a T_STR/T_STR_REF node (keys intern
// through the same table as string values).

/// First blob byte; deliberately outside ASCII so a Binary section can
/// never be confused with JSON text (which starts with `{`, `[`, a digit,
/// …).
const MAGIC: u8 = 0xB1;
/// Layout version, bumped on any incompatible change.
const VERSION: u8 = 1;

const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_U64: u8 = 3;
const T_I64: u8 = 4;
const T_F64: u8 = 5;
const T_STR: u8 = 6;
const T_STR_REF: u8 = 7;
const T_ARRAY: u8 = 8;
const T_OBJECT: u8 = 9;

struct BinaryEncoder {
    out: Vec<u8>,
    interned: BTreeMap<String, u64>,
}

impl BinaryEncoder {
    fn new() -> Self {
        let mut out = Vec::with_capacity(256);
        out.push(MAGIC);
        out.push(VERSION);
        BinaryEncoder {
            out,
            interned: BTreeMap::new(),
        }
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }

    fn string(&mut self, s: &str) {
        if let Some(&id) = self.interned.get(s) {
            self.out.push(T_STR_REF);
            self.varint(id);
        } else {
            let id = self.interned.len() as u64;
            self.interned.insert(s.to_string(), id);
            self.out.push(T_STR);
            self.varint(s.len() as u64);
            self.out.extend_from_slice(s.as_bytes());
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.out.push(T_NULL),
            Value::Bool(false) => self.out.push(T_FALSE),
            Value::Bool(true) => self.out.push(T_TRUE),
            Value::U64(u) => {
                self.out.push(T_U64);
                self.varint(*u);
            }
            Value::I64(i) => {
                // Zigzag: small magnitudes of either sign stay short.
                self.out.push(T_I64);
                self.varint(((i << 1) ^ (i >> 63)) as u64);
            }
            Value::F64(f) => {
                self.out.push(T_F64);
                self.out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => self.string(s),
            Value::Array(items) => {
                self.out.push(T_ARRAY);
                self.varint(items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
            Value::Object(entries) => {
                self.out.push(T_OBJECT);
                self.varint(entries.len() as u64);
                for (k, v) in entries {
                    self.string(k);
                    self.value(v);
                }
            }
        }
    }
}

struct BinaryDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    table: Vec<String>,
}

impl<'a> BinaryDecoder<'a> {
    fn new(blob: &'a [u8]) -> Result<Self, Error> {
        match blob {
            [MAGIC, VERSION, ..] => Ok(BinaryDecoder {
                bytes: blob,
                pos: 2,
                table: Vec::new(),
            }),
            [MAGIC, v, ..] => Err(Error::msg(format!(
                "unsupported binary plan version {v} (expected {VERSION})"
            ))),
            _ => Err(Error::msg("not a binary plan blob (bad magic)")),
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn byte(&mut self) -> Result<u8, Error> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of blob"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, Error> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint too long"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err("length prefix past end of blob"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, Error> {
        match self.byte()? {
            T_STR => {
                let len = self.varint()? as usize;
                let s = std::str::from_utf8(self.take(len)?)
                    .map_err(|_| self.err("invalid utf-8 in string"))?
                    .to_string();
                self.table.push(s.clone());
                Ok(s)
            }
            T_STR_REF => {
                let id = self.varint()? as usize;
                self.table
                    .get(id)
                    .cloned()
                    .ok_or_else(|| self.err("string back-reference out of range"))
            }
            _ => Err(self.err("expected string node")),
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.byte()? {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            T_U64 => Ok(Value::U64(self.varint()?)),
            T_I64 => {
                let z = self.varint()?;
                Ok(Value::I64(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            T_F64 => {
                let bits = u64::from_le_bytes(
                    self.take(8)?
                        .try_into()
                        .expect("take(8) returns 8 bytes"),
                );
                Ok(Value::F64(f64::from_bits(bits)))
            }
            T_STR | T_STR_REF => {
                self.pos -= 1; // re-read the tag inside string()
                Ok(Value::Str(self.string()?))
            }
            T_ARRAY => {
                let n = self.varint()? as usize;
                // Guard allocation against a corrupt count: each element
                // needs at least one tag byte.
                if n > self.bytes.len() - self.pos {
                    return Err(self.err("array count past end of blob"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            T_OBJECT => {
                let n = self.varint()? as usize;
                if n > self.bytes.len() - self.pos {
                    return Err(self.err("object count past end of blob"));
                }
                let mut entries = serde::Map::with_capacity(n);
                for _ in 0..n {
                    let k = self.string()?;
                    entries.push((k, self.value()?));
                }
                Ok(Value::Object(entries))
            }
            t => Err(self.err(&format!("unknown tag {t}"))),
        }
    }

    fn finish(mut self) -> Result<Value, Error> {
        let v = self.value()?;
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing bytes after value"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Flat layout (see module docs for the byte-level specification)
// ---------------------------------------------------------------------------

/// First byte of a flat blob; outside ASCII and distinct from the Binary
/// magic, so a plan section can never be mistaken for a whole blob.
const FLAT_MAGIC: u8 = 0xF7;
/// Flat layout version, bumped on any incompatible change.
const FLAT_VERSION: u8 = 1;
/// Fixed header size.
const FLAT_HEADER: usize = 35;
/// Bytes per instruction record.
const FLAT_REC: usize = 34;
/// Bytes per `(id, bytes)` alloc side-table entry.
const FLAT_ALLOC: usize = 16;
/// Bytes per freed-id side-table entry.
const FLAT_FREE: usize = 8;

const KIND_COMPUTE: u8 = 0;
const KIND_COMM_START: u8 = 1;
const KIND_COMM_WAIT: u8 = 2;
const FLAG_BACKWARD: u8 = 1;
const FLAG_RECV: u8 = 2;

/// Typed decode failure of a flat blob. Truncated, bit-flipped or
/// mis-codec'd bytes land in one of these — never a panic, never an
/// out-of-bounds read — which is what keeps the recovery-panic
/// discipline intact on the executor's decode path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The first byte is not the flat magic (wrong codec or garbage).
    BadMagic,
    /// The version byte names a layout this decoder does not speak.
    BadVersion(u8),
    /// The blob ends before a structure it declares (`what` names the
    /// structure, `at` the byte offset where the read began).
    Truncated {
        /// Structure whose bytes are missing.
        what: &'static str,
        /// Offset of the failed read.
        at: usize,
    },
    /// A field holds a structurally impossible value (bad kind tag,
    /// offset table pointing outside the blob, length mismatch).
    Corrupt {
        /// Description of the impossible field.
        what: &'static str,
        /// Offset of the offending field.
        at: usize,
    },
    /// The nested plan section (Binary-coded metadata) failed to decode.
    PlanSection(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a flat plan blob (bad magic)"),
            CodecError::BadVersion(v) => {
                write!(f, "unsupported flat plan version {v} (expected {FLAT_VERSION})")
            }
            CodecError::Truncated { what, at } => {
                write!(f, "flat blob truncated reading {what} at byte {at}")
            }
            CodecError::Corrupt { what, at } => {
                write!(f, "flat blob corrupt: {what} at byte {at}")
            }
            CodecError::PlanSection(e) => write!(f, "flat plan section: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Error {
        Error::msg(e)
    }
}

fn rd_u8(b: &[u8], off: usize) -> Option<u8> {
    b.get(off).copied()
}

fn rd_u32(b: &[u8], off: usize) -> Option<u32> {
    let bytes: [u8; 4] = b.get(off..off.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn rd_u64(b: &[u8], off: usize) -> Option<u64> {
    let bytes: [u8; 8] = b.get(off..off.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn as_u32(v: usize, what: &'static str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("flat {what} exceeds u32 range: {v}"))
}

/// Pack a side-table locator: absolute offset in the low 32 bits,
/// element count in the high 32.
fn pack_loc(off: usize, count: usize) -> u64 {
    as_u32(off, "side-table offset") as u64 | (as_u32(count, "side-table count") as u64) << 32
}

/// Lay a [`StoredPlan`] out as a flat arena. Deterministic: the bytes
/// are a pure function of the plan (side tables are emitted in record
/// order), so re-encoding a decoded blob is bit-identical.
pub fn encode_flat(plan: &StoredPlan) -> Vec<u8> {
    let (tag, plan_bytes, programs): (u8, Vec<u8>, &[Vec<DeviceProgram>]) = match &plan.outcome {
        StoredOutcome::Plan(lowered) => (
            1,
            binary_encode(&serde::Serialize::to_value(&lowered.plan)),
            &lowered.programs,
        ),
        StoredOutcome::Failed(e) => (
            0,
            binary_encode(&serde::Serialize::to_value(e)),
            &[],
        ),
    };
    let plan_off = FLAT_HEADER;
    let dir_off = plan_off + plan_bytes.len();
    let total_devs: usize = programs.iter().map(|r| r.len()).sum();
    let recs_off = dir_off + 4 * programs.len() + 8 * total_devs;
    let total_ops: usize = programs.iter().flatten().map(|p| p.ops.len()).sum();
    let side_off = recs_off + FLAT_REC * total_ops;

    let mut out = Vec::with_capacity(side_off + 64);
    out.push(FLAT_MAGIC);
    out.push(FLAT_VERSION);
    out.push(tag);
    put_u64(&mut out, 0); // total_len, patched at the end
    put_u64(&mut out, plan.iteration as u64);
    put_u32(&mut out, as_u32(plan_off, "plan offset"));
    put_u32(&mut out, as_u32(plan_bytes.len(), "plan length"));
    put_u32(&mut out, as_u32(programs.len(), "replica count"));
    put_u32(&mut out, as_u32(dir_off, "directory offset"));
    debug_assert_eq!(out.len(), FLAT_HEADER);
    out.extend_from_slice(&plan_bytes);

    // Directory: device counts, then (ops_off, ops_count) replica-major.
    for replica in programs {
        put_u32(&mut out, as_u32(replica.len(), "device count"));
    }
    let mut ops_seen = 0usize;
    for replica in programs {
        for prog in replica {
            put_u32(&mut out, as_u32(recs_off + FLAT_REC * ops_seen, "ops offset"));
            put_u32(&mut out, as_u32(prog.ops.len(), "ops count"));
            ops_seen += prog.ops.len();
        }
    }
    debug_assert_eq!(out.len(), recs_off);

    // Records, with side tables accumulated for the arena's tail.
    let mut side: Vec<u8> = Vec::new();
    for op in programs.iter().flatten().flat_map(|p| &p.ops) {
        let (kind, label, a, b, c) = match op {
            SimOp::Compute {
                duration,
                allocs,
                frees,
                label,
            } => {
                let a_loc = pack_loc(side_off + side.len(), allocs.len());
                for spec in allocs {
                    put_u64(&mut side, spec.id);
                    put_u64(&mut side, spec.bytes);
                }
                let f_loc = pack_loc(side_off + side.len(), frees.len());
                for id in frees {
                    put_u64(&mut side, *id);
                }
                (KIND_COMPUTE, label, duration.to_bits(), a_loc, f_loc)
            }
            SimOp::CommStart {
                peer, bytes, tag, label, ..
            } => (KIND_COMM_START, label, *peer as u64, *bytes, *tag),
            SimOp::CommWait { tag, label } => (KIND_COMM_WAIT, label, *tag, 0, 0),
        };
        out.push(kind);
        let mut flags = 0u8;
        if label.is_backward {
            flags |= FLAG_BACKWARD;
        }
        if matches!(
            op,
            SimOp::CommStart {
                dir: CommDir::Recv,
                ..
            }
        ) {
            flags |= FLAG_RECV;
        }
        out.push(flags);
        put_u32(&mut out, label.micro_batch);
        put_u32(&mut out, label.stage);
        put_u64(&mut out, a);
        put_u64(&mut out, b);
        put_u64(&mut out, c);
    }
    debug_assert_eq!(out.len(), side_off);
    out.extend_from_slice(&side);

    let total = out.len() as u64;
    out[3..11].copy_from_slice(&total.to_le_bytes());
    out
}

/// A validated flat blob: the zero-copy decode result.
///
/// [`FlatPlanRef::new`] checks the header and walks every offset table
/// and instruction record once — O(records), allocation-free — so that
/// the accessors below ([`FlatReplicaRef`] → [`FlatProgramRef`] →
/// [`FlatInstrRef`]) can read by offset without ever going out of
/// bounds. The blob stays behind the `Arc` the store handed out; nothing
/// is copied or tree-built.
#[derive(Debug, Clone)]
pub struct FlatPlanRef {
    blob: Arc<[u8]>,
    iteration: u64,
    outcome_tag: u8,
    plan_off: usize,
    plan_len: usize,
    replicas: usize,
    dir_off: usize,
}

impl FlatPlanRef {
    /// Validate `blob` and wrap it. This *is* the flat decode step: on
    /// `Ok`, every accessor read is in-bounds by construction.
    pub fn new(blob: Arc<[u8]>) -> Result<FlatPlanRef, CodecError> {
        let b: &[u8] = &blob;
        match rd_u8(b, 0) {
            None => return Err(CodecError::Truncated { what: "magic", at: 0 }),
            Some(FLAT_MAGIC) => {}
            Some(_) => return Err(CodecError::BadMagic),
        }
        match rd_u8(b, 1) {
            None => return Err(CodecError::Truncated { what: "version", at: 1 }),
            Some(FLAT_VERSION) => {}
            Some(v) => return Err(CodecError::BadVersion(v)),
        }
        if b.len() < FLAT_HEADER {
            return Err(CodecError::Truncated { what: "header", at: b.len() });
        }
        let outcome_tag = rd_u8(b, 2).ok_or(CodecError::Truncated { what: "outcome", at: 2 })?;
        if outcome_tag > 1 {
            return Err(CodecError::Corrupt { what: "outcome tag", at: 2 });
        }
        let total_len = rd_u64(b, 3).ok_or(CodecError::Truncated { what: "total_len", at: 3 })?;
        if total_len != b.len() as u64 {
            return Err(CodecError::Corrupt {
                what: "total_len does not match blob length",
                at: 3,
            });
        }
        let iteration = rd_u64(b, 11).ok_or(CodecError::Truncated { what: "iteration", at: 11 })?;
        let plan_off = rd_u32(b, 19).ok_or(CodecError::Truncated { what: "plan_off", at: 19 })?
            as usize;
        let plan_len = rd_u32(b, 23).ok_or(CodecError::Truncated { what: "plan_len", at: 23 })?
            as usize;
        let replicas = rd_u32(b, 27).ok_or(CodecError::Truncated { what: "replicas", at: 27 })?
            as usize;
        let dir_off = rd_u32(b, 31).ok_or(CodecError::Truncated { what: "dir_off", at: 31 })?
            as usize;
        let len = b.len() as u64;
        if plan_off < FLAT_HEADER || plan_off as u64 + plan_len as u64 > len {
            return Err(CodecError::Corrupt { what: "plan section range", at: 19 });
        }
        if outcome_tag == 0 && replicas != 0 {
            return Err(CodecError::Corrupt { what: "failed outcome with replicas", at: 27 });
        }
        // Walk the directory, validating every program's record range and
        // every record's kind and side-table ranges.
        if dir_off as u64 + 4 * replicas as u64 > len {
            return Err(CodecError::Corrupt { what: "directory range", at: 31 });
        }
        let mut total_devs = 0usize;
        for r in 0..replicas {
            let ndev = rd_u32(b, dir_off + 4 * r)
                .ok_or(CodecError::Truncated { what: "device count", at: dir_off + 4 * r })?;
            total_devs += ndev as usize;
        }
        let entries_off = dir_off + 4 * replicas;
        if entries_off as u64 + 8 * total_devs as u64 > len {
            return Err(CodecError::Corrupt { what: "program directory range", at: dir_off });
        }
        for e in 0..total_devs {
            let at = entries_off + 8 * e;
            let ops_off = rd_u32(b, at)
                .ok_or(CodecError::Truncated { what: "ops offset", at })? as u64;
            let ops = rd_u32(b, at + 4)
                .ok_or(CodecError::Truncated { what: "ops count", at })? as u64;
            if ops_off + FLAT_REC as u64 * ops > len {
                return Err(CodecError::Corrupt { what: "record range", at });
            }
            for i in 0..ops {
                let rec = (ops_off + FLAT_REC as u64 * i) as usize;
                let kind = rd_u8(b, rec)
                    .ok_or(CodecError::Truncated { what: "record kind", at: rec })?;
                match kind {
                    KIND_COMPUTE => {
                        let a_loc = rd_u64(b, rec + 18)
                            .ok_or(CodecError::Truncated { what: "allocs locator", at: rec })?;
                        let f_loc = rd_u64(b, rec + 26)
                            .ok_or(CodecError::Truncated { what: "frees locator", at: rec })?;
                        let (a_off, a_n) = (a_loc & 0xFFFF_FFFF, a_loc >> 32);
                        let (f_off, f_n) = (f_loc & 0xFFFF_FFFF, f_loc >> 32);
                        if a_off + FLAT_ALLOC as u64 * a_n > len {
                            return Err(CodecError::Corrupt { what: "allocs range", at: rec });
                        }
                        if f_off + FLAT_FREE as u64 * f_n > len {
                            return Err(CodecError::Corrupt { what: "frees range", at: rec });
                        }
                    }
                    KIND_COMM_START | KIND_COMM_WAIT => {}
                    _ => return Err(CodecError::Corrupt { what: "record kind", at: rec }),
                }
            }
        }
        Ok(FlatPlanRef {
            blob,
            iteration,
            outcome_tag,
            plan_off,
            plan_len,
            replicas,
            dir_off,
        })
    }

    /// The training iteration this blob carries.
    pub fn iteration(&self) -> usize {
        self.iteration as usize
    }

    /// Whether the outcome is a planning failure.
    pub fn is_failed(&self) -> bool {
        self.outcome_tag == 0
    }

    /// Total blob size in bytes.
    pub fn blob_len(&self) -> usize {
        self.blob.len()
    }

    /// Materialize the [`IterationPlan`] metadata section. This is the
    /// only tree decode on the flat path, and it covers the small
    /// metadata subtree only — the instruction records (the bulk of the
    /// bytes) are executed in place and never materialized.
    pub fn plan(&self) -> Result<IterationPlan, CodecError> {
        if self.outcome_tag != 1 {
            return Err(CodecError::Corrupt { what: "plan() on failed outcome", at: 2 });
        }
        let section = &self.blob[self.plan_off..self.plan_off + self.plan_len];
        let v = binary_decode(section).map_err(|e| CodecError::PlanSection(e.0))?;
        serde::Deserialize::from_value(&v).map_err(|e: Error| CodecError::PlanSection(e.0))
    }

    /// Materialize the [`PlanError`] of a failed outcome.
    pub fn failure(&self) -> Result<PlanError, CodecError> {
        if self.outcome_tag != 0 {
            return Err(CodecError::Corrupt { what: "failure() on plan outcome", at: 2 });
        }
        let section = &self.blob[self.plan_off..self.plan_off + self.plan_len];
        let v = binary_decode(section).map_err(|e| CodecError::PlanSection(e.0))?;
        serde::Deserialize::from_value(&v).map_err(|e: Error| CodecError::PlanSection(e.0))
    }

    /// Number of data-parallel replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// Zero-copy handle on replica `r`'s device programs (shares the
    /// `Arc`), or `None` past the end.
    pub fn replica(&self, r: usize) -> Option<FlatReplicaRef> {
        if r >= self.replicas {
            return None;
        }
        let b: &[u8] = &self.blob;
        // Device entries for replica r start after the counts of
        // replicas 0..r (validated in `new`).
        let mut skip = 0usize;
        for q in 0..r {
            skip += rd_u32(b, self.dir_off + 4 * q)? as usize;
        }
        let ndev = rd_u32(b, self.dir_off + 4 * r)? as usize;
        Some(FlatReplicaRef {
            blob: Arc::clone(&self.blob),
            entries_off: self.dir_off + 4 * self.replicas + 8 * skip,
            ndev,
        })
    }

    /// All replica handles, in order.
    pub fn replicas(&self) -> Vec<FlatReplicaRef> {
        (0..self.replicas).filter_map(|r| self.replica(r)).collect()
    }

    /// Rebuild an owned [`StoredPlan`] — the generic (non-zero-copy)
    /// decode used by `StoredPlan::decode` and the differential tests.
    /// The runtime's hot path never calls this; it executes the blob in
    /// place.
    pub fn to_stored(&self) -> Result<StoredPlan, CodecError> {
        let outcome = if self.is_failed() {
            StoredOutcome::Failed(self.failure()?)
        } else {
            let plan = self.plan()?;
            let mut programs = Vec::with_capacity(self.replicas);
            for r in 0..self.replicas {
                let replica = self.replica(r).ok_or(CodecError::Corrupt {
                    what: "replica index",
                    at: self.dir_off,
                })?;
                let mut devs = Vec::with_capacity(replica.num_devices());
                for d in 0..replica.num_devices() {
                    let mut prog = DeviceProgram::new();
                    for pc in 0..replica.num_ops(d) {
                        let op = replica.op_view(d, pc).ok_or(CodecError::Corrupt {
                            what: "op view",
                            at: self.dir_off,
                        })?;
                        prog.push(own_op(op));
                    }
                    devs.push(prog);
                }
                programs.push(devs);
            }
            StoredOutcome::Plan(StoredLowered { plan, programs })
        };
        Ok(StoredPlan {
            iteration: self.iteration(),
            outcome,
        })
    }
}

/// Materialize one view into an owned [`SimOp`].
fn own_op(op: OpView<'_>) -> SimOp {
    match op {
        OpView::Compute {
            duration,
            allocs,
            frees,
            label,
        } => SimOp::Compute {
            duration,
            allocs: allocs.iter().collect(),
            frees: frees.iter().collect(),
            label,
        },
        OpView::CommStart {
            peer,
            dir,
            bytes,
            tag,
            label,
        } => SimOp::CommStart {
            peer,
            dir,
            bytes,
            tag,
            label,
        },
        OpView::CommWait { tag, label } => SimOp::CommWait { tag, label },
    }
}

/// One replica's device programs, read in place from a validated flat
/// blob. Implements [`InstructionSource`], so `sim::Engine` executes the
/// wire bytes directly — this is the type the runtime hands to
/// `execute_lowered` on the flat path.
#[derive(Debug, Clone)]
pub struct FlatReplicaRef {
    blob: Arc<[u8]>,
    /// Offset of this replica's (ops_off, ops_count) directory entries.
    entries_off: usize,
    /// Device count.
    ndev: usize,
}

impl FlatReplicaRef {
    /// Handle on device `d`'s program, or `None` past the end.
    pub fn device(&self, d: usize) -> Option<FlatProgramRef> {
        if d >= self.ndev {
            return None;
        }
        let at = self.entries_off + 8 * d;
        Some(FlatProgramRef {
            blob: Arc::clone(&self.blob),
            ops_off: rd_u32(&self.blob, at)? as usize,
            ops: rd_u32(&self.blob, at + 4)? as usize,
        })
    }
}

impl InstructionSource for FlatReplicaRef {
    fn num_devices(&self) -> usize {
        self.ndev
    }

    fn num_ops(&self, device: usize) -> usize {
        if device >= self.ndev {
            return 0;
        }
        rd_u32(&self.blob, self.entries_off + 8 * device + 4).map_or(0, |n| n as usize)
    }

    fn op_view(&self, device: usize, pc: usize) -> Option<OpView<'_>> {
        if device >= self.ndev {
            return None;
        }
        let at = self.entries_off + 8 * device;
        let ops_off = rd_u32(&self.blob, at)? as usize;
        let ops = rd_u32(&self.blob, at + 4)? as usize;
        instr_view(&self.blob, ops_off, ops, pc)
    }
}

/// One device's program, read in place from a validated flat blob.
/// Implements [`InstructionSource`] as a single-device source, so an
/// engine can run one wire-format program directly.
#[derive(Debug, Clone)]
pub struct FlatProgramRef {
    blob: Arc<[u8]>,
    ops_off: usize,
    ops: usize,
}

impl FlatProgramRef {
    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Typed accessor for record `pc`, or `None` past the end.
    pub fn instr(&self, pc: usize) -> Option<FlatInstrRef<'_>> {
        if pc >= self.ops {
            return None;
        }
        Some(FlatInstrRef {
            blob: &self.blob,
            off: self.ops_off + FLAT_REC * pc,
        })
    }
}

impl InstructionSource for FlatProgramRef {
    fn num_devices(&self) -> usize {
        1
    }

    fn num_ops(&self, device: usize) -> usize {
        if device == 0 {
            self.ops
        } else {
            0
        }
    }

    fn op_view(&self, device: usize, pc: usize) -> Option<OpView<'_>> {
        if device != 0 {
            return None;
        }
        instr_view(&self.blob, self.ops_off, self.ops, pc)
    }
}

/// One 34-byte instruction record, read field-by-field at its offset.
#[derive(Debug, Clone, Copy)]
pub struct FlatInstrRef<'a> {
    blob: &'a [u8],
    off: usize,
}

impl<'a> FlatInstrRef<'a> {
    /// The record's kind byte (0 = Compute, 1 = CommStart, 2 = CommWait).
    pub fn kind(&self) -> Option<u8> {
        rd_u8(self.blob, self.off)
    }

    /// The op label (micro-batch, stage, direction).
    pub fn label(&self) -> Option<OpLabel> {
        Some(OpLabel {
            micro_batch: rd_u32(self.blob, self.off + 2)?,
            stage: rd_u32(self.blob, self.off + 6)?,
            is_backward: rd_u8(self.blob, self.off + 1)? & FLAG_BACKWARD != 0,
        })
    }

    /// The executable [`OpView`] of this record.
    pub fn view(&self) -> Option<OpView<'a>> {
        record_view(self.blob, self.off)
    }
}

/// Decode record `pc` of a program whose records start at `ops_off`.
fn instr_view(blob: &[u8], ops_off: usize, ops: usize, pc: usize) -> Option<OpView<'_>> {
    if pc >= ops {
        return None;
    }
    record_view(blob, ops_off + FLAT_REC * pc)
}

/// Project the 34-byte record at `off` into an [`OpView`] whose
/// variable-length payloads borrow the blob's side tables. All reads are
/// bounds-checked `Option` chains: on a blob validated by
/// [`FlatPlanRef::new`] they cannot fail, and on anything else they
/// return `None` instead of panicking.
fn record_view(blob: &[u8], off: usize) -> Option<OpView<'_>> {
    let flags = rd_u8(blob, off + 1)?;
    let label = OpLabel {
        micro_batch: rd_u32(blob, off + 2)?,
        stage: rd_u32(blob, off + 6)?,
        is_backward: flags & FLAG_BACKWARD != 0,
    };
    let a = rd_u64(blob, off + 10)?;
    let b = rd_u64(blob, off + 18)?;
    let c = rd_u64(blob, off + 26)?;
    match rd_u8(blob, off)? {
        KIND_COMPUTE => {
            let (a_off, a_n) = ((b & 0xFFFF_FFFF) as usize, (b >> 32) as usize);
            let (f_off, f_n) = ((c & 0xFFFF_FFFF) as usize, (c >> 32) as usize);
            Some(OpView::Compute {
                duration: f64::from_bits(a),
                allocs: AllocsRef::Raw(
                    blob.get(a_off..a_off.checked_add(FLAT_ALLOC.checked_mul(a_n)?)?)?,
                ),
                frees: FreesRef::Raw(
                    blob.get(f_off..f_off.checked_add(FLAT_FREE.checked_mul(f_n)?)?)?,
                ),
                label,
            })
        }
        KIND_COMM_START => Some(OpView::CommStart {
            peer: usize::try_from(a).ok()?,
            dir: if flags & FLAG_RECV != 0 {
                CommDir::Recv
            } else {
                CommDir::Send
            },
            bytes: b,
            tag: c,
            label,
        }),
        KIND_COMM_WAIT => Some(OpView::CommWait { tag: a, label }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        binary_decode(&binary_encode(v)).expect("decodes")
    }

    fn assert_identical(a: &Value, b: &Value) {
        // Variant-exact (PartialEq alone would accept U64 1 == F64 1.0),
        // recursing structurally; floats by bit pattern.
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            (Value::Array(xs), Value::Array(ys)) => {
                assert_eq!(xs.len(), ys.len());
                for (x, y) in xs.iter().zip(ys) {
                    assert_identical(x, y);
                }
            }
            (Value::Object(xs), Value::Object(ys)) => {
                assert_eq!(xs.len(), ys.len());
                for ((ka, va), (kb, vb)) in xs.iter().zip(ys) {
                    assert_eq!(ka, kb);
                    assert_identical(va, vb);
                }
            }
            (Value::U64(x), Value::U64(y)) => assert_eq!(x, y),
            (Value::I64(x), Value::I64(y)) => assert_eq!(x, y),
            (Value::Str(x), Value::Str(y)) => assert_eq!(x, y),
            (Value::Bool(x), Value::Bool(y)) => assert_eq!(x, y),
            (Value::Null, Value::Null) => {}
            (x, y) => panic!("variant mismatch: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn binary_roundtrips_every_variant_exactly() {
        let v = Value::Object(vec![
            ("null".into(), Value::Null),
            ("t".into(), Value::Bool(true)),
            ("f".into(), Value::Bool(false)),
            (
                "u".into(),
                Value::Array(vec![
                    Value::U64(0),
                    Value::U64(127),
                    Value::U64(128),
                    Value::U64(u64::MAX),
                ]),
            ),
            (
                "i".into(),
                Value::Array(vec![
                    Value::I64(0),
                    Value::I64(-1),
                    Value::I64(i64::MIN),
                    Value::I64(i64::MAX),
                ]),
            ),
            (
                "f64".into(),
                Value::Array(vec![
                    Value::F64(0.0),
                    Value::F64(-0.0),
                    Value::F64(f64::INFINITY),
                    Value::F64(f64::NEG_INFINITY),
                    Value::F64(1.0000000000000002),
                ]),
            ),
            ("s".into(), Value::Str("hello \"wire\" \u{1F600}".into())),
            ("empty".into(), Value::Array(vec![])),
        ]);
        assert_identical(&roundtrip(&v), &v);
    }

    #[test]
    fn binary_preserves_nan_bits_where_json_cannot() {
        // JSON tags non-finite floats as strings; the Binary layout keeps
        // the exact bit pattern, including a NaN payload.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        match roundtrip(&Value::F64(weird)) {
            Value::F64(f) => assert_eq!(f.to_bits(), weird.to_bits()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn binary_reencode_is_bit_identical() {
        let v = Value::Array(vec![
            Value::Object(vec![
                ("duration".into(), Value::F64(1.5)),
                ("label".into(), Value::Str("Compute".into())),
            ]),
            Value::Object(vec![
                ("duration".into(), Value::F64(2.5)),
                ("label".into(), Value::Str("Compute".into())),
            ]),
        ]);
        let blob = binary_encode(&v);
        let back = binary_decode(&blob).unwrap();
        assert_eq!(binary_encode(&back), blob);
    }

    #[test]
    fn interning_collapses_repeated_strings() {
        let once = Value::Array(vec![Value::Str("a-reasonably-long-key".into())]);
        let many = Value::Array(
            (0..64)
                .map(|_| Value::Str("a-reasonably-long-key".into()))
                .collect(),
        );
        let b1 = binary_encode(&once).len();
        let b64 = binary_encode(&many).len();
        // 63 back-references cost ~2 bytes each, not 21+.
        assert!(
            b64 < b1 + 63 * 3,
            "interning failed: 64 copies cost {b64} bytes vs {b1} for one"
        );
    }

    #[test]
    fn binary_rejects_json_text() {
        let v = Value::Object(vec![("k".into(), Value::U64(1))]);
        assert!(binary_decode(v.to_json().as_bytes()).is_err());
    }

    #[test]
    fn truncated_and_corrupt_blobs_error_cleanly() {
        let v = Value::Array(vec![Value::Str("abc".into()), Value::U64(7)]);
        let blob = binary_encode(&v);
        for cut in 0..blob.len() {
            assert!(
                binary_decode(&blob[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(binary_decode(&trailing).is_err());
        let mut bad_tag = blob;
        *bad_tag.last_mut().unwrap() = 0xEE;
        assert!(binary_decode(&bad_tag).is_err());
    }

    use crate::store::{StoredLowered, StoredOutcome, StoredPlan};
    use dynapipe_sim::{AllocSpec, CommDir, DeviceProgram, InstructionSource, SimOp};

    fn flat_fixture() -> StoredPlan {
        let lbl = |mb: u32, bwd: bool| OpLabel {
            micro_batch: mb,
            stage: 0,
            is_backward: bwd,
        };
        let mut p0 = DeviceProgram::new();
        p0.push(SimOp::Compute {
            duration: 123.456,
            allocs: vec![AllocSpec { id: 1, bytes: 4096 }],
            frees: vec![],
            label: lbl(0, false),
        });
        p0.push(SimOp::CommStart {
            peer: 1,
            dir: CommDir::Send,
            bytes: 777,
            tag: 9,
            label: lbl(0, false),
        });
        p0.push(SimOp::Compute {
            duration: 50.0,
            allocs: vec![],
            frees: vec![1],
            label: lbl(0, true),
        });
        let mut p1 = DeviceProgram::new();
        p1.push(SimOp::CommStart {
            peer: 0,
            dir: CommDir::Recv,
            bytes: 777,
            tag: 9,
            label: lbl(0, false),
        });
        p1.push(SimOp::CommWait {
            tag: 9,
            label: lbl(0, false),
        });
        StoredPlan {
            iteration: 42,
            outcome: StoredOutcome::Plan(StoredLowered {
                plan: IterationPlan {
                    replicas: Vec::new(),
                    recompute: dynapipe_model::RecomputeMode::None,
                    est_iteration_time: 1.5,
                    dp_sync_time: 0.25,
                    padding: Default::default(),
                    num_micro_batches: 1,
                    actual_tokens: 512,
                    planning_time_us: 10.0,
                },
                programs: vec![vec![p0, p1]],
            }),
        }
    }

    #[test]
    fn flat_roundtrips_through_to_stored() {
        let plan = flat_fixture();
        let blob = encode_flat(&plan);
        let flat = FlatPlanRef::new(Arc::from(blob.as_slice())).expect("validates");
        assert_eq!(flat.iteration(), 42);
        assert!(!flat.is_failed());
        assert_eq!(flat.num_replicas(), 1);
        assert_eq!(flat.to_stored().expect("rebuilds"), plan);
        // Re-encode is bit-identical: the arena is a pure function of
        // the plan.
        assert_eq!(encode_flat(&flat.to_stored().unwrap()), blob);
    }

    #[test]
    fn flat_views_match_owned_ops() {
        let plan = flat_fixture();
        let blob = encode_flat(&plan);
        let flat = FlatPlanRef::new(Arc::from(blob.as_slice())).expect("validates");
        let replica = flat.replica(0).expect("one replica");
        assert_eq!(replica.num_devices(), 2);
        assert_eq!(replica.num_ops(0), 3);
        assert_eq!(replica.num_ops(1), 2);
        match replica.op_view(0, 0) {
            Some(OpView::Compute {
                duration, allocs, ..
            }) => {
                assert_eq!(duration.to_bits(), 123.456f64.to_bits());
                assert_eq!(allocs.get(0), Some(AllocSpec { id: 1, bytes: 4096 }));
            }
            other => panic!("expected Compute, got {other:?}"),
        }
        match replica.op_view(1, 0) {
            Some(OpView::CommStart {
                peer,
                dir,
                bytes,
                tag,
                ..
            }) => {
                assert_eq!((peer, bytes, tag), (0, 777, 9));
                assert_eq!(dir, CommDir::Recv);
            }
            other => panic!("expected CommStart, got {other:?}"),
        }
        assert!(replica.op_view(0, 3).is_none());
        assert_eq!(replica.alloc_size(0, 1), Some(4096));
        // Per-device handles and per-instruction accessors agree.
        let dev0 = replica.device(0).expect("device 0");
        assert_eq!(dev0.len(), 3);
        let instr = dev0.instr(2).expect("third record");
        assert_eq!(instr.kind(), Some(0));
        assert!(instr.label().expect("label").is_backward);
        assert!(matches!(instr.view(), Some(OpView::Compute { .. })));
        assert!(dev0.instr(3).is_none());
    }

    #[test]
    fn flat_failed_outcome_roundtrips_with_no_programs() {
        let plan = StoredPlan {
            iteration: 7,
            outcome: StoredOutcome::Failed(crate::planner::PlanError::Infeasible(
                "no feasible mode".to_string(),
            )),
        };
        let blob = encode_flat(&plan);
        let flat = FlatPlanRef::new(Arc::from(blob.as_slice())).expect("validates");
        assert!(flat.is_failed());
        assert_eq!(flat.num_replicas(), 0);
        assert_eq!(flat.to_stored().expect("rebuilds"), plan);
        assert!(flat.plan().is_err(), "plan() on a failure must not succeed");
    }

    #[test]
    fn flat_truncation_and_corruption_yield_typed_errors() {
        let blob = encode_flat(&flat_fixture());
        for cut in 0..blob.len() {
            let err = FlatPlanRef::new(Arc::from(&blob[..cut])).expect_err("truncated");
            assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::Corrupt { .. }),
                "truncation at {cut} gave {err:?}"
            );
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(matches!(
            FlatPlanRef::new(Arc::from(trailing.as_slice())),
            Err(CodecError::Corrupt { .. })
        ));
        let mut wrong_magic = blob.clone();
        wrong_magic[0] = super::MAGIC; // the Binary magic
        assert_eq!(
            FlatPlanRef::new(Arc::from(wrong_magic.as_slice())).unwrap_err(),
            CodecError::BadMagic
        );
        let mut future = blob.clone();
        future[1] = 9;
        assert_eq!(
            FlatPlanRef::new(Arc::from(future.as_slice())).unwrap_err(),
            CodecError::BadVersion(9)
        );
        // Foreign bytes — the plan's JSON debug rendering, or a bare
        // Binary section — are rejected at the magic byte.
        let value = serde::Serialize::to_value(&flat_fixture());
        let json = value.to_json().into_bytes();
        let binary = binary_encode(&value);
        assert!(FlatPlanRef::new(Arc::from(json.as_slice())).is_err());
        assert!(FlatPlanRef::new(Arc::from(binary.as_slice())).is_err());
    }

    #[test]
    fn flat_length_is_the_layout_identity() {
        // The fixture: 1 replica, 2 devices, 5 records, 1 alloc, 1 free.
        let plan = flat_fixture();
        let StoredOutcome::Plan(lowered) = &plan.outcome else {
            unreachable!("the fixture is a plan")
        };
        let section = binary_encode(&serde::Serialize::to_value(&lowered.plan)).len();
        let replicas = lowered.programs.len();
        let devices: usize = lowered.programs.iter().map(|r| r.len()).sum();
        let ops = || lowered.programs.iter().flatten().flat_map(|p| &p.ops);
        let records = ops().count();
        let (allocs, frees) = ops().fold((0, 0), |(a, f), op| match op {
            SimOp::Compute { allocs, frees, .. } => (a + allocs.len(), f + frees.len()),
            _ => (a, f),
        });
        assert_eq!((replicas, devices, records, allocs, frees), (1, 2, 5, 1, 1));
        assert_eq!(
            encode_flat(&plan).len(),
            35 + section + 4 * replicas + 8 * devices + 34 * records + 16 * allocs + 8 * frees
        );
    }

    #[test]
    fn planning_time_does_not_change_the_blob_length() {
        // `planning_time_us` is wall-clock, so it differs between reruns
        // of the same plan; the plan section stores it as 8 raw bytes, so
        // the blob length (and every byte gate built on it) cannot move.
        let with_time = |us: f64| {
            let mut plan = flat_fixture();
            if let StoredOutcome::Plan(lowered) = &mut plan.outcome {
                lowered.plan.planning_time_us = us;
            }
            encode_flat(&plan)
        };
        let reference = with_time(10.0);
        for us in [0.0, 0.1 + 0.2, 1e-9, 123_456.789_012_3, 1e300] {
            let blob = with_time(us);
            assert_eq!(blob.len(), reference.len(), "planning_time_us = {us}");
            assert_ne!(blob, reference, "the time itself is still carried");
        }
    }
}
