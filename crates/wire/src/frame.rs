//! The `dlb-wire/1` frame grammar: handshake preamble + typed,
//! length-prefixed frames.
//!
//! Everything here is plain little-endian byte shuffling over `std::io`
//! traits; the byte-level layout is documented in `docs/WIRE.md`. The
//! decoders are written against untrusted input: every read is
//! bounds-checked (`WireError::Truncated`), declared lengths are capped
//! ([`MAX_FRAME_LEN`]), and unknown frame types are rejected instead of
//! skipped.

use crate::WireError;
use std::io::{Read, Write};

/// Four-byte protocol magic opening every handshake: `"DLBW"`.
pub const MAGIC: [u8; 4] = *b"DLBW";

/// Protocol version spoken by this build (`dlb-wire/1`).
pub const WIRE_VERSION: u32 = 1;

/// Schema tag mirroring `dlb-scenario/1` / `dlb-trace/1`: the name the
/// docs, reports and version-negotiation errors refer to.
pub const WIRE_SCHEMA: &str = "dlb-wire/1";

/// Hard cap on a single frame's payload length (1 GiB). A `Plan` frame
/// for a million-node graph (edges + per-slot divisors) runs tens of
/// megabytes; anything near this cap is corruption, not data, and is
/// rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Load element type carried by a session, declared once in the
/// [`PlanFrame`]. Values on the wire are always raw 8-byte
/// little-endian words; this tag tells the worker which `DiffusionLoad`
/// instantiation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadType {
    /// `f64` loads, shipped via `f64::to_bits`.
    F64,
    /// `i64` token counts, shipped via two's-complement bit pattern.
    I64,
}

impl LoadType {
    fn to_u8(self) -> u8 {
        match self {
            LoadType::F64 => 0,
            LoadType::I64 => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(LoadType::F64),
            1 => Some(LoadType::I64),
            _ => None,
        }
    }
}

/// How the worker produces its round result (the `mode` byte of
/// [`RoundCmdFrame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// The coordinator evaluated the protocol kernel itself; the
    /// `OwnedValues` seed already holds the *new* loads. The worker
    /// scatters them into its frame and echoes its owned slice back —
    /// every value still round-trips the wire, so serialization stays in
    /// the proof obligation for protocols whose kernels cannot ship.
    Precomputed,
    /// The worker evaluates the diffusion gather kernel itself over the
    /// graph + divisor table from its [`PlanFrame`]: `OwnedValues` seeds
    /// the *old* loads, halo batches fill the ghost ring, and the result
    /// is computed in-process on the worker.
    Diffusion,
}

impl RoundMode {
    fn to_u8(self) -> u8 {
        match self {
            RoundMode::Precomputed => 0,
            RoundMode::Diffusion => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(RoundMode::Precomputed),
            1 => Some(RoundMode::Diffusion),
            _ => None,
        }
    }
}

/// Worker→coordinator handshake preamble (16 bytes, fixed layout —
/// *not* a frame, so magic and version are the first bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Wire version the worker speaks.
    pub version: u32,
    /// Shard id the worker was spawned to serve.
    pub shard: u32,
}

/// Coordinator→worker handshake reply (12 bytes, fixed layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Wire version the coordinator speaks.
    pub version: u32,
}

/// The shard execution plan a worker holds between rounds: its view of
/// the partition plus (for diffusion-kernel sessions) the graph and
/// divisor table it gathers over. Reships only when the partition or
/// graph changes (`seq` bumps), mirroring the message backend's
/// broadcast key.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFrame {
    /// Plan broadcast sequence — workers reject round commands whose
    /// plan seq they have not installed.
    pub seq: u64,
    /// Shard this plan addresses (sanity-checked against the handshake).
    pub shard: u32,
    /// Global node count (the worker's frame length).
    pub n: u32,
    /// Load element type for the whole session.
    pub load_type: LoadType,
    /// Owned nodes in shard order — `OwnedValues` payloads align to this.
    pub owned: Vec<u32>,
    /// Owned nodes with no cross-shard neighbor (gathered before halo
    /// arrival on the worker; kept for parity with `ShardView`).
    pub interior: Vec<u32>,
    /// Owned nodes with at least one cross-shard neighbor.
    pub boundary: Vec<u32>,
    /// Halo fill order per source shard: `(src shard, global node ids)`.
    /// `HaloBatch { src }` payloads align to the matching entry.
    pub recv_groups: Vec<(u32, Vec<u32>)>,
    /// Present iff the session runs [`RoundMode::Diffusion`] rounds.
    pub kernel: Option<KernelPlan>,
}

/// The gather kernel shipped to a diffusion-mode worker: the global
/// graph as an edge list plus the CSR-slot-aligned divisor table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    /// Undirected edge list; the worker rebuilds the CSR graph with
    /// `Graph::from_edges`.
    pub edges: Vec<(u32, u32)>,
    /// Expected `graph_fingerprint` of the rebuilt graph — integrity
    /// check that the reconstruction is slot-for-slot identical to the
    /// coordinator's, which the bit-identity guarantee rides on.
    pub fingerprint: u64,
    /// Per-CSR-slot divisor bit patterns (length = graph degree sum),
    /// indexed by `neighbor_offset(v) + i` exactly like the in-process
    /// kernels. Always one word per slot, even for a uniform divisor; a
    /// worker may collapse an all-equal list back to one value.
    pub divisors: Vec<u64>,
}

/// One round command (coordinator → worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCmdFrame {
    /// Plan seq this round executes under.
    pub seq: u64,
    /// Engine round number (for error attribution and tracing).
    pub round: u64,
    /// How the worker produces its result.
    pub mode: RoundMode,
    /// Exact number of `HaloBatch` frames that follow the owned seed —
    /// the worker never waits for traffic that is not coming, which is
    /// what keeps a dead coordinator an EOF instead of a deadlock.
    pub halo_batches: u32,
}

/// Round completion receipt (worker → coordinator). `ok = false` means
/// the worker caught a kernel panic or an invariant violation and the
/// round must surface a typed `EngineError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneFrame {
    /// Plan seq the round ran under.
    pub seq: u64,
    /// Whether the round body succeeded.
    pub ok: bool,
}

/// One `dlb-wire/1` frame. On the wire: `[type: u8][len: u32 LE][payload]`.
///
/// `Deltas`, `Collect`, `Collected` and `Stats` are defined (and
/// round-trip tested) for the shard-resident upgrade of the process
/// backend but are not yet emitted by the coordinator — see
/// `docs/WIRE.md` for the reservation policy.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Install a shard plan (coordinator → worker).
    Plan(PlanFrame),
    /// Execute one round (coordinator → worker).
    RoundCmd(RoundCmdFrame),
    /// Owned load seed, aligned to the plan's `owned` order
    /// (coordinator → worker).
    OwnedValues {
        /// Plan seq the seed belongs to.
        seq: u64,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Halo values from one source shard, aligned to the matching
    /// `recv_groups` entry (coordinator → worker in the hub topology).
    HaloBatch {
        /// Plan seq the batch belongs to.
        seq: u64,
        /// Source shard whose boundary values these are.
        src: u32,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Sparse owned-value overwrites `(global node, value)` — reserved
    /// for resident sessions' workload routing.
    Deltas {
        /// Plan seq the deltas apply under.
        seq: u64,
        /// `(global node id, raw value word)` pairs.
        entries: Vec<(u32, u64)>,
    },
    /// Request the worker's owned slice without running a round —
    /// reserved for resident sessions' load reads.
    Collect {
        /// Plan seq the collect addresses.
        seq: u64,
    },
    /// Round receipt (worker → coordinator).
    Done(DoneFrame),
    /// Post-round owned values in interior ⧺ boundary order: the plan's
    /// `interior` list, then its `boundary` list (worker → coordinator).
    Results {
        /// Plan seq the results belong to.
        seq: u64,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Reply to `Collect` — reserved alongside it.
    Collected {
        /// Plan seq the collect ran under.
        seq: u64,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Per-shard stats partials (blocked-reduction words) — reserved for
    /// pushing the stats reduction onto workers.
    Stats {
        /// Plan seq the partials belong to.
        seq: u64,
        /// Raw reduction words.
        words: Vec<u64>,
    },
    /// Orderly shutdown (coordinator → worker).
    Exit,
}

const T_PLAN: u8 = 1;
const T_ROUND_CMD: u8 = 2;
const T_OWNED: u8 = 3;
const T_HALO: u8 = 4;
const T_DELTAS: u8 = 5;
const T_COLLECT: u8 = 6;
const T_DONE: u8 = 7;
const T_RESULTS: u8 = 8;
const T_COLLECTED: u8 = 9;
const T_STATS: u8 = 10;
const T_EXIT: u8 = 11;

// ---------------------------------------------------------------------------
// Payload writer: appends little-endian primitives to a Vec<u8>.

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32_list(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }

    fn u64_list(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Payload reader: bounds-checked little-endian reads off a byte slice.

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: u8,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], frame: u8) -> Self {
        Dec { buf, pos: 0, frame }
    }

    fn short(&self) -> WireError {
        WireError::Truncated {
            frame: Some(self.frame),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short())?;
        if end > self.buf.len() {
            return Err(self.short());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-counted list, pre-checking the count against the
    /// remaining payload so a corrupted length cannot drive a huge
    /// allocation before the bounds check fires.
    fn len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(elem_size) > self.buf.len() - self.pos {
            return Err(self.short());
        }
        Ok(count)
    }

    fn u32_list(&mut self) -> Result<Vec<u32>, WireError> {
        let count = self.len(4)?;
        (0..count).map(|_| self.u32()).collect()
    }

    fn u64_list(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.len(8)?;
        (0..count).map(|_| self.u64()).collect()
    }
}

impl Frame {
    /// Frame type tag as it appears on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Plan(_) => T_PLAN,
            Frame::RoundCmd(_) => T_ROUND_CMD,
            Frame::OwnedValues { .. } => T_OWNED,
            Frame::HaloBatch { .. } => T_HALO,
            Frame::Deltas { .. } => T_DELTAS,
            Frame::Collect { .. } => T_COLLECT,
            Frame::Done(_) => T_DONE,
            Frame::Results { .. } => T_RESULTS,
            Frame::Collected { .. } => T_COLLECTED,
            Frame::Stats { .. } => T_STATS,
            Frame::Exit => T_EXIT,
        }
    }

    /// Stable name for tracing and error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Plan(_) => "plan",
            Frame::RoundCmd(_) => "round-cmd",
            Frame::OwnedValues { .. } => "owned-values",
            Frame::HaloBatch { .. } => "halo-batch",
            Frame::Deltas { .. } => "deltas",
            Frame::Collect { .. } => "collect",
            Frame::Done(_) => "done",
            Frame::Results { .. } => "results",
            Frame::Collected { .. } => "collected",
            Frame::Stats { .. } => "stats",
            Frame::Exit => "exit",
        }
    }

    /// Encodes the frame as one contiguous byte vector
    /// (`[type][len LE][payload]`) — written with a single `write_all`
    /// so byte counters see exactly one frame per call.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        // Envelope placeholder: type + length patched after the payload.
        e.u8(self.kind());
        e.u32(0);
        match self {
            Frame::Plan(p) => {
                e.u64(p.seq);
                e.u32(p.shard);
                e.u32(p.n);
                e.u8(p.load_type.to_u8());
                e.u32_list(&p.owned);
                e.u32_list(&p.interior);
                e.u32_list(&p.boundary);
                e.u32(p.recv_groups.len() as u32);
                for (src, nodes) in &p.recv_groups {
                    e.u32(*src);
                    e.u32_list(nodes);
                }
                match &p.kernel {
                    None => e.u8(0),
                    Some(k) => {
                        e.u8(1);
                        e.u32(k.edges.len() as u32);
                        for &(u, v) in &k.edges {
                            e.u32(u);
                            e.u32(v);
                        }
                        e.u64(k.fingerprint);
                        e.u64_list(&k.divisors);
                    }
                }
            }
            Frame::RoundCmd(c) => {
                e.u64(c.seq);
                e.u64(c.round);
                e.u8(c.mode.to_u8());
                e.u32(c.halo_batches);
            }
            Frame::OwnedValues { seq, values } => {
                e.u64(*seq);
                e.u64_list(values);
            }
            Frame::HaloBatch { seq, src, values } => {
                e.u64(*seq);
                e.u32(*src);
                e.u64_list(values);
            }
            Frame::Deltas { seq, entries } => {
                e.u64(*seq);
                e.u32(entries.len() as u32);
                for &(node, word) in entries {
                    e.u32(node);
                    e.u64(word);
                }
            }
            Frame::Collect { seq } => e.u64(*seq),
            Frame::Done(d) => {
                e.u64(d.seq);
                e.u8(d.ok as u8);
            }
            Frame::Results { seq, values } => {
                e.u64(*seq);
                e.u64_list(values);
            }
            Frame::Collected { seq, values } => {
                e.u64(*seq);
                e.u64_list(values);
            }
            Frame::Stats { seq, words } => {
                e.u64(*seq);
                e.u64_list(words);
            }
            Frame::Exit => {}
        }
        let len = (e.buf.len() - 5) as u32;
        e.buf[1..5].copy_from_slice(&len.to_le_bytes());
        e.buf
    }

    /// Decodes one frame payload. Trailing payload bytes beyond the
    /// fields this version knows are ignored — the `dlb-wire/1` additive
    /// forward-compatibility rule.
    fn decode(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut d = Dec::new(payload, kind);
        let frame = match kind {
            T_PLAN => {
                let seq = d.u64()?;
                let shard = d.u32()?;
                let n = d.u32()?;
                let load_type = LoadType::from_u8(d.u8()?).ok_or_else(|| d.short())?;
                let owned = d.u32_list()?;
                let interior = d.u32_list()?;
                let boundary = d.u32_list()?;
                let groups = d.len(8)?;
                let mut recv_groups = Vec::with_capacity(groups);
                for _ in 0..groups {
                    let src = d.u32()?;
                    recv_groups.push((src, d.u32_list()?));
                }
                let kernel = match d.u8()? {
                    0 => None,
                    _ => {
                        let m = d.len(8)?;
                        let mut edges = Vec::with_capacity(m);
                        for _ in 0..m {
                            edges.push((d.u32()?, d.u32()?));
                        }
                        let fingerprint = d.u64()?;
                        let divisors = d.u64_list()?;
                        Some(KernelPlan {
                            edges,
                            fingerprint,
                            divisors,
                        })
                    }
                };
                Frame::Plan(PlanFrame {
                    seq,
                    shard,
                    n,
                    load_type,
                    owned,
                    interior,
                    boundary,
                    recv_groups,
                    kernel,
                })
            }
            T_ROUND_CMD => Frame::RoundCmd(RoundCmdFrame {
                seq: d.u64()?,
                round: d.u64()?,
                mode: RoundMode::from_u8(d.u8()?).ok_or_else(|| d.short())?,
                halo_batches: d.u32()?,
            }),
            T_OWNED => Frame::OwnedValues {
                seq: d.u64()?,
                values: d.u64_list()?,
            },
            T_HALO => Frame::HaloBatch {
                seq: d.u64()?,
                src: d.u32()?,
                values: d.u64_list()?,
            },
            T_DELTAS => {
                let seq = d.u64()?;
                let count = d.len(12)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((d.u32()?, d.u64()?));
                }
                Frame::Deltas { seq, entries }
            }
            T_COLLECT => Frame::Collect { seq: d.u64()? },
            T_DONE => Frame::Done(DoneFrame {
                seq: d.u64()?,
                ok: d.u8()? != 0,
            }),
            T_RESULTS => Frame::Results {
                seq: d.u64()?,
                values: d.u64_list()?,
            },
            T_COLLECTED => Frame::Collected {
                seq: d.u64()?,
                values: d.u64_list()?,
            },
            T_STATS => Frame::Stats {
                seq: d.u64()?,
                words: d.u64_list()?,
            },
            T_EXIT => Frame::Exit,
            other => return Err(WireError::UnknownFrame { kind: other }),
        };
        Ok(frame)
    }
}

/// Reads one frame off a byte stream. A clean EOF *before* the envelope
/// is [`WireError::Closed`] (the peer went away between frames); an EOF
/// inside the envelope or payload is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut head = [0u8; 5];
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Truncated { frame: None }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let kind = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(WireError::Truncated { frame: Some(kind) })
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    Frame::decode(kind, &payload)
}

/// Writes the 16-byte worker handshake: magic, version, shard, reserved.
pub fn write_hello<W: Write>(w: &mut W, shard: u32) -> std::io::Result<()> {
    let mut buf = [0u8; 16];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    buf[8..12].copy_from_slice(&shard.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates the worker handshake.
pub fn read_hello<R: Read>(r: &mut R) -> Result<Hello, WireError> {
    let mut buf = [0u8; 16];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { frame: None }
        } else {
            WireError::Io(e)
        }
    })?;
    if buf[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: buf[0..4].try_into().unwrap(),
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            ours: WIRE_VERSION,
            theirs: version,
        });
    }
    Ok(Hello {
        version,
        shard: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
    })
}

/// Writes the 12-byte coordinator handshake reply: magic, version, ack.
pub fn write_hello_ack<W: Write>(w: &mut W) -> std::io::Result<()> {
    let mut buf = [0u8; 12];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    buf[8..12].copy_from_slice(&1u32.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates the coordinator handshake reply.
pub fn read_hello_ack<R: Read>(r: &mut R) -> Result<HelloAck, WireError> {
    let mut buf = [0u8; 12];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { frame: None }
        } else {
            WireError::Io(e)
        }
    })?;
    if buf[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: buf[0..4].try_into().unwrap(),
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            ours: WIRE_VERSION,
            theirs: version,
        });
    }
    Ok(HelloAck { version })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_layout_is_type_len_payload() {
        let bytes = Frame::Collect { seq: 0x0102 }.encode();
        assert_eq!(bytes[0], T_COLLECT);
        assert_eq!(u32::from_le_bytes(bytes[1..5].try_into().unwrap()), 8);
        assert_eq!(bytes.len(), 5 + 8);
        assert_eq!(&bytes[5..13], &0x0102u64.to_le_bytes());
    }

    #[test]
    fn trailing_payload_bytes_are_ignored() {
        // Additive forward compat: a future minor revision may append
        // fields; a v1 decoder must accept the frame and read its own.
        let mut bytes = Frame::Done(DoneFrame { seq: 9, ok: true }).encode();
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let len = (bytes.len() - 5) as u32;
        bytes[1..5].copy_from_slice(&len.to_le_bytes());
        match read_frame(&mut bytes.as_slice()).unwrap() {
            Frame::Done(d) => assert_eq!(d, DoneFrame { seq: 9, ok: true }),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        let bytes = [200u8, 0, 0, 0, 0];
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::UnknownFrame { kind: 200 }) => {}
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = vec![T_COLLECT];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::Oversized { len }) => assert_eq!(len, u32::MAX),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn corrupt_list_count_is_truncated_not_alloc() {
        // A Results frame whose declared value count exceeds the payload:
        // the decoder must fail the bounds pre-check, not allocate.
        let mut e = Enc::new();
        e.u8(T_RESULTS);
        e.u32(12);
        e.u64(1); // seq
        e.u32(u32::MAX); // declared count, no elements follow
        match read_frame(&mut e.buf.as_slice()) {
            Err(WireError::Truncated { frame: Some(k) }) => assert_eq!(k, T_RESULTS),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn eof_between_and_inside_frames_are_distinct() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(WireError::Closed)));
        let bytes = Frame::Exit.encode();
        let cut = &bytes[..3];
        assert!(matches!(
            read_frame(&mut { cut }),
            Err(WireError::Truncated { frame: None })
        ));
    }

    #[test]
    fn hello_round_trip_and_corruption() {
        let mut buf = Vec::new();
        write_hello(&mut buf, 42).unwrap();
        assert_eq!(buf.len(), 16);
        let hello = read_hello(&mut buf.as_slice()).unwrap();
        assert_eq!(
            hello,
            Hello {
                version: 1,
                shard: 42
            }
        );

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_hello(&mut bad.as_slice()),
            Err(WireError::BadMagic { .. })
        ));

        let mut future = buf.clone();
        future[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_hello(&mut future.as_slice()),
            Err(WireError::VersionMismatch { ours: 1, theirs: 9 })
        ));

        let mut ack = Vec::new();
        write_hello_ack(&mut ack).unwrap();
        assert_eq!(
            read_hello_ack(&mut ack.as_slice()).unwrap(),
            HelloAck { version: 1 }
        );
    }
}
