//! The wire protocol: length-prefixed, versioned, checksummed frames.
//!
//! Every message between a volunteer agent and the task server (and
//! between two shards) travels as one frame, in the one dialect this
//! grid speaks:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HCMD"
//! 4       1     protocol version: 4 ([`PROTOCOL_VERSION`])
//! 5       4     payload length, u32 little-endian
//! 9       8     `checksum64` of the payload, u64 little-endian
//! 17      len   payload: tag byte + fixed-width little-endian fields
//!               ([`binary`])
//! ```
//!
//! The header is fixed-size so a reader can frame the stream without
//! parsing the payload; the checksum catches wire corruption before the
//! payload reaches the decoder (value-level corruption injected by a
//! *faulty agent* is re-checksummed by that agent and is deliberately NOT
//! caught here — it is the validation pipeline's job, see DESIGN.md §6).
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected before any
//! allocation, so a malicious or broken peer cannot balloon server memory.
//!
//! There is one dialect because there is one agent build: the project
//! ships the agent its volunteers run, so every peer understands every
//! message — shard redirects, campaign attachments and all — and nothing
//! is negotiated. A frame with any other version byte is refused as soon
//! as its 17 header bytes have arrived ([`DecodeError::UnsupportedVersion`]);
//! the payload is never looked at. The layout is a format:
//! `tests/wire_golden.rs` pins one recorded frame per message.
//!
//! The version byte has one owner per consumer. [`deframe`] checks magic,
//! length cap and checksum only and hands the byte back. The wire accepts
//! exactly [`PROTOCOL_VERSION`] in one header check shared by
//! [`decode_versioned`] and [`read_message`]. The journal reuses this
//! framing for `wal.bin` and stamps the byte with its own *frame kind*
//! (2 = binary record; 1 was the JSON header of older journal formats;
//! constants local to `journal.rs`): they predate this module's single
//! version, are pinned on disk by `JOURNAL_FORMAT`, and never meet a
//! socket, so they are not protocol versions.
//!
//! The checksum is one word-parallel 64-bit hash ([`checksum64`]: four
//! multiply–xorshift lanes over little-endian 8-byte words, every step a
//! bijection), the same function on the wire, in the journal's
//! `wal.bin`, and in the quorum fingerprint. Damage
//! confined to one aligned 8-byte word of a payload is *always*
//! detected, anything else with probability 1 − 2⁻⁶⁴. A report's payload
//! is hashed four times on its way from an agent's encoder to the
//! journal, which is why the hash runs at memory speed rather than a
//! byte per multiply. A frame sealed by a build from before the switch
//! (FNV-1a 64 in the same 8 bytes) fails with [`DecodeError::Checksum`].
//! FNV-1a survives as [`fnv1a64`] for two small *keyed draws* only — the
//! shard map and the spot-check dice, a dozen bytes each — because their
//! outputs are pinned by every sharded artifact and every journaled
//! spot-check decision, and at that size its speed is irrelevant.
//!
//! [`encode_with`]/[`decode_versioned`] are pure buffer transforms
//! (proptested for round-trip identity, truncation and oversize
//! rejection); [`write_message_with`]/[`read_message`] adapt them to
//! blocking streams. `{:?}` is the debug printer for a [`Message`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use maxdo::DockingOutput;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::io::{self, Read, Write};

/// Frame magic: `b"HCMD"`.
pub const MAGIC: [u8; 4] = *b"HCMD";
/// The version byte of every wire frame, announced to agents in
/// `HelloAck::protocol`. (4 for historical reasons: versions 1–3 were
/// dialects this grid no longer speaks.)
pub const PROTOCOL_VERSION: u8 = 4;
/// Fixed header size: magic + version + length + checksum.
pub const HEADER_BYTES: usize = 4 + 1 + 4 + 8;
/// Hard cap on the payload size; larger frames are rejected unread.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// The wire dialect — a type with a single value, because there is a
/// single dialect. Nothing can choose, parse or negotiate one.
///
/// It survives only as the parameter of [`encode_with`] /
/// [`write_message_with`], the third element of [`decode_versioned`]'s
/// result and `AgentConfig::codec`: `benchmarks/gridbench` names those
/// signatures, and a PR may not edit the benchmark it is measured by. A
/// later `benchmark` PR drops the parameter and this type with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec;

/// Campaign parameters both sides must agree on. The synthetic protein
/// library is derived deterministically from `(proteins, lib_seed,
/// separation_spacing)` — the real grid ships protein data inside the
/// workunit; here the `HelloAck` ships the recipe instead, so an agent
/// can never compute against the wrong catalog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignParams {
    /// Proteins in the set (the paper's 168; tiny for loopback runs).
    pub proteins: u32,
    /// Seed of the synthetic library generator.
    pub lib_seed: u64,
    /// Target workunit duration `h`, reference-CPU seconds.
    pub h_seconds: f64,
    /// Starting-position spacing (Å) — controls `Nsep` and thereby the
    /// real compute cost per workunit.
    pub separation_spacing: f64,
    /// Minimiser iteration cap (small for loopback smoke runs).
    pub max_iterations: u32,
}

impl CampaignParams {
    /// A campaign small enough for loopback smoke tests: a few dozen
    /// workunits of real docking, seconds of total CPU.
    pub fn tiny() -> Self {
        Self {
            proteins: 2,
            lib_seed: 7,
            h_seconds: 40.0,
            separation_spacing: 30.0,
            max_iterations: 10,
        }
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Agent → server, first frame on every connection.
    Hello {
        /// Agent identity (stable across reconnects).
        agent: u64,
        /// Worker threads the agent will dock with.
        threads: u32,
        /// Campaign attachments: names of the hosted campaigns the
        /// agent volunteers for. Empty means the default campaign only;
        /// the single entry `"*"` attaches to every hosted campaign;
        /// unknown names are ignored.
        campaigns: Vec<String>,
    },
    /// Server → agent, reply to `Hello`.
    HelloAck {
        /// Server's protocol version ([`PROTOCOL_VERSION`]).
        protocol: u8,
        /// The campaign recipe the agent must build locally (the
        /// default campaign when several are hosted).
        campaign: CampaignParams,
        /// Replica deadline, wall seconds — reissue after this.
        deadline_seconds: f64,
        /// Multi-campaign roster: `(name, recipe)` of every hosted
        /// campaign the agent is attached to, in campaign-index order.
        /// `Assignment::campaign` indexes into this roster. Empty on
        /// single-campaign servers.
        campaigns: Vec<(String, CampaignParams)>,
    },
    /// Agent → server: "send me work" (BOINC's scheduler request).
    RequestWork,
    /// Server → agent: one replica of one workunit.
    Assignment {
        /// Replica identity (echo it back in `ResultReport`).
        replica: u64,
        /// Workunit index in the launch-ordered catalog.
        workunit: u32,
        /// Receptor protein index.
        receptor: u32,
        /// Ligand protein index.
        ligand: u32,
        /// First starting position (1-based, inclusive).
        isep_start: u32,
        /// Number of starting positions.
        positions: u32,
        /// Deadline for this replica, wall seconds from issue.
        deadline_seconds: f64,
        /// Which hosted campaign this assignment belongs to: an index
        /// into the `HelloAck` roster (0 on a single-campaign server).
        campaign: u16,
    },
    /// Server → agent: nothing issuable right now (BOINC's "no work
    /// sent, try again"); carries the server's rest hint, which the
    /// agent grows over a run of these.
    NoWork {
        /// True once every workunit has validated — the agent should
        /// say `Bye` and exit.
        campaign_complete: bool,
        /// How long the agent must wait before asking again, ms.
        retry_after_ms: u64,
    },
    /// Server → agent on accept when the connection limit is reached
    /// (server-side fault injection); also legal as a `Hello` reply.
    Busy {
        /// Suggested reconnect delay, ms.
        retry_after_ms: u64,
    },
    /// Agent → server: a computed (or corrupted...) result.
    ResultReport {
        /// The replica this result answers.
        replica: u64,
        /// Its workunit index (redundant, cross-checked server-side).
        workunit: u32,
        /// The campaign the replica was issued from: echoed from
        /// `Assignment::campaign`.
        campaign: u16,
        /// The docking rows + work accounting — the §5.2 result file.
        output: DockingOutput,
    },
    /// Server → agent, reply to `ResultReport`.
    ResultAck {
        /// False when the result was rejected (bounds or quorum).
        accepted: bool,
        /// True when this result completed (validated) its workunit.
        completed_workunit: bool,
        /// True once the whole campaign is validated.
        campaign_complete: bool,
    },
    /// Agent → server: clean shutdown of the connection.
    Bye,
    /// Agent → server: "which shards run this campaign?".
    ShardMapRequest,
    /// Server → agent, reply to `ShardMapRequest`: the campaign's
    /// static shard topology. Workunit homes derive deterministically
    /// from the catalog (`shard::shard_of`), so the addresses are all
    /// an agent needs to navigate.
    ShardMap {
        /// Number of shards the catalog is split across.
        shards: u16,
        /// The replying server's shard id.
        self_shard: u16,
        /// Listen address of every shard, indexed by shard id.
        addrs: Vec<String>,
    },
    /// Server → agent, reply to `RequestWork` when this shard is
    /// drained but a peer still has fresh backlog: ask there instead.
    /// An agent follows at most one redirect per work request.
    Redirect {
        /// The shard worth asking.
        shard: u16,
        /// Its listen address.
        addr: String,
    },
    /// Shard → shard steering gossip: the sender's load picture. Sent
    /// periodically to every peer; the receiver answers `LeaseGrant`
    /// (when the sender is hungry and the receiver has backlog) or
    /// `StatusAck`.
    ShardStatus {
        /// Sending shard id.
        shard: u16,
        /// Owned workunits no replica was ever issued for.
        fresh_backlog: u64,
        /// Replicas issued and not yet resolved.
        outstanding: u64,
        /// The sender's owned workunits are all validated.
        complete: bool,
        /// The sender has agents asking and nothing fresh to issue —
        /// the signal that invites a lease. Distinct from
        /// `fresh_backlog == 0`: a drained shard with *no* agent demand
        /// does not ask for work, which is what stops two idle shards
        /// ping-ponging ownership forever.
        hungry: bool,
        /// Ids of leases the sender has already adopted *from the
        /// receiving shard*, so a lessor that crashed after journaling
        /// a grant but before replying can re-send missing grants.
        leases_held: Vec<u64>,
        /// Which campaign (registry slot index) this load picture and
        /// its lease bookkeeping concern. A multi-campaign shard fleet
        /// shares one `--campaign` roster, so indices agree fleet-wide.
        campaign: u16,
    },
    /// Shard → shard: a work-stealing lease. Ownership of `wus` moves
    /// from `from_shard` to the hungry receiver; both sides journal the
    /// transfer, and re-application is idempotent.
    LeaseGrant {
        /// Lease id: `from_shard` in the top 16 bits, grant sequence
        /// below — stable across replay, so duplicates are detectable.
        lease: u64,
        /// The granting (previously owning) shard.
        from_shard: u16,
        /// Leased workunits (a contiguous tail slice of the grantor's
        /// launch-ordered fresh queue).
        wus: Vec<u32>,
        /// The grantor's own completion state, piggybacked.
        complete: bool,
        /// The campaign (registry slot index) whose ownership moves.
        campaign: u16,
    },
    /// Shard → shard, reply to `ShardStatus` when no lease moves.
    StatusAck {
        /// Replying shard id.
        shard: u16,
        /// The replier's owned workunits are all validated.
        complete: bool,
    },
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Not enough bytes yet; `needed` more would allow progress.
    Incomplete {
        /// Additional bytes required (lower bound).
        needed: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    UnsupportedVersion(u8),
    /// Declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// Payload bytes do not match the header checksum.
    Checksum {
        /// Checksum from the header.
        expected: u64,
        /// Checksum of the received payload.
        got: u64,
    },
    /// Checksummed payload is not a valid [`Message`].
    Payload(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete { needed } => {
                write!(f, "incomplete frame: {needed} more bytes")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap")
            }
            DecodeError::Checksum { expected, got } => {
                write!(f, "payload checksum {got:#018x} != header {expected:#018x}")
            }
            DecodeError::Payload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Multiplier of every checksum step: odd, so `x → x × K` is a bijection
/// of the 64-bit words.
const CHECKSUM_K: u64 = 0x9e37_79b9_7f4a_7c15;
/// The four lanes' starting values (distinct, so a word does not hash
/// the same in every lane).
const CHECKSUM_LANES: [u64; 4] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];
/// Bytes dealt to the four lanes in one round.
const STRIPE_BYTES: usize = 32;

/// One checksum step, `mix((state ^ word) × K)` with `mix` an
/// xorshift. Xor, multiplication by an odd constant and `x ^ (x >> 32)`
/// are each invertible, so the step is a bijection of `state` for a
/// fixed `word` and of `word` for a fixed `state` — the whole
/// single-word-error guarantee rests on this.
#[inline(always)]
fn checksum_step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(CHECKSUM_K);
    x ^ (x >> 32)
}

/// One little-endian input word (so every host computes the same sums).
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Deals one whole stripe: word `i` advances lane `i`. Four independent
/// multiply chains, so they overlap in the pipeline.
#[inline(always)]
fn absorb_stripe([a, b, c, d]: [u64; 4], stripe: &[u8]) -> [u64; 4] {
    let stripe: &[u8; STRIPE_BYTES] = stripe.try_into().expect("a whole stripe");
    [
        checksum_step(a, le_word(&stripe[..8])),
        checksum_step(b, le_word(&stripe[8..16])),
        checksum_step(c, le_word(&stripe[16..24])),
        checksum_step(d, le_word(&stripe[24..])),
    ]
}

/// The lanes, unchanged. Loading or storing them side by side invites
/// the compiler to run the stripe loop on SSE2 vectors, whose emulated
/// 64-bit multiply is half as fast as four scalar chains; passing each
/// lane through `black_box` on its own, wherever the loop's input or
/// output meets memory, keeps it scalar. Speed only.
#[inline(always)]
fn scalar_lanes([a, b, c, d]: [u64; 4]) -> [u64; 4] {
    [black_box(a), black_box(b), black_box(c), black_box(d)]
}

/// Ends a checksum. `rest` is the input past the last whole stripe: its
/// whole words continue the deal (word `i` to lane `i`), then the byte
/// length, the four lanes and the zero-padded sub-word tail are folded
/// through the same step and a final bijective avalanche.
#[inline(always)]
fn fold_checksum(lanes: [u64; 4], len: u64, rest: &[u8]) -> u64 {
    debug_assert!(rest.len() < STRIPE_BYTES);
    let mut lanes = scalar_lanes(lanes);
    let mut words = rest.chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = checksum_step(*lane, le_word(word));
    }
    let tail = words.remainder().iter().rev();
    let tail = tail.fold(0, |word, &byte| word << 8 | u64::from(byte));
    let mut h = checksum_step(CHECKSUM_K, len);
    for lane in lanes {
        h = checksum_step(h, lane);
    }
    h = checksum_step(h, tail);
    // murmur3's 64-bit finaliser: every output bit depends on every bit
    // of `h`, and each line is invertible.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The one bulk checksum: what the 8 checksum bytes of every frame
/// header hold (wire and `wal.bin` alike) and what the
/// quorum fingerprint is computed with. Its output is a wire and disk
/// format, pinned by literals in this module's tests.
///
/// The input is read as little-endian 8-byte words dealt round-robin to
/// four independent lanes, each advanced by one multiply–xorshift step
/// per word — under a tenth of a nanosecond per byte where the
/// byte-serial FNV-1a it replaced took 1.2. The end folds the byte
/// length, the four lanes and the zero-padded sub-word tail through the
/// same step and a final bijective avalanche.
///
/// Guarantee (not a probability): two inputs of equal length that differ
/// only inside one aligned 8-byte word, or only in the sub-word tail,
/// never share a checksum — the differing word changes its lane
/// bijectively, every later step of that lane and of the fold is a
/// bijection of the state, and nothing else differs. For the same reason
/// zero bytes appended within the last partial word always change it
/// (the length does). Any other difference collides with probability
/// ≈ 2⁻⁶⁴. The function is unkeyed: it catches damage, not forgery.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(STRIPE_BYTES);
    let mut lanes = CHECKSUM_LANES;
    for stripe in &mut stripes {
        lanes = absorb_stripe(lanes, stripe);
    }
    fold_checksum(lanes, bytes.len() as u64, stripes.remainder())
}

/// [`checksum64`] of an input that arrives in pieces: feeding a buffer in
/// any split gives the checksum of the whole, so a value can be hashed
/// field by field without being assembled (the quorum fingerprint is).
#[derive(Debug)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// The bytes past the last whole stripe.
    rest: [u8; STRIPE_BYTES],
    rest_len: usize,
    len: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// The state of the empty input.
    pub fn new() -> Self {
        Self {
            lanes: CHECKSUM_LANES,
            rest: [0; STRIPE_BYTES],
            rest_len: 0,
            len: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let mut lanes = scalar_lanes(self.lanes);
        if self.rest_len > 0 {
            let take = (STRIPE_BYTES - self.rest_len).min(bytes.len());
            self.rest[self.rest_len..self.rest_len + take].copy_from_slice(&bytes[..take]);
            self.rest_len += take;
            bytes = &bytes[take..];
            if self.rest_len < STRIPE_BYTES {
                return;
            }
            lanes = absorb_stripe(lanes, &self.rest);
        }
        let mut stripes = bytes.chunks_exact(STRIPE_BYTES);
        for stripe in &mut stripes {
            lanes = absorb_stripe(lanes, stripe);
        }
        self.lanes = scalar_lanes(lanes);
        let rest = stripes.remainder();
        self.rest[..rest.len()].copy_from_slice(rest);
        self.rest_len = rest.len();
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        fold_checksum(self.lanes, self.len, &self.rest[..self.rest_len])
    }
}

/// FNV-1a 64-bit. It survives for exactly two *keyed draws* over a
/// dozen bytes, whose outputs are pinned elsewhere and must not move:
/// [`crate::shard::shard_of`] (which shard owns a workunit — every
/// sharded artifact depends on the split) and
/// [`crate::trust::spot_selected`] (the spot-check dice). No buffer is
/// hashed with it: frames and fingerprints use [`checksum64`]; the
/// journal calls it once more, only to recognise the first frame of a
/// file written before the switch.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames an arbitrary payload with the standard header (magic,
/// `version`, length, [`checksum64`]). The wire stamps
/// [`PROTOCOL_VERSION`]; the journal reuses the exact same framing for
/// its on-disk records with its own frame-kind byte (through
/// [`seal_frame`]), so one reader/checksum implementation covers both.
pub fn frame_payload_versioned(version: u8, payload: &[u8]) -> Bytes {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "outgoing frame of {} bytes exceeds the cap",
        payload.len()
    );
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + payload.len());
    buf.put_slice(&frame_header(version, payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// The fixed-size header that frames `payload` (layout in the module docs).
fn frame_header(version: u8, payload: &[u8]) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = version;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[9..].copy_from_slice(&checksum64(payload).to_le_bytes());
    header
}

/// Turns `buf` — [`HEADER_BYTES`] of reserved space followed by an
/// already-encoded payload — into a complete frame by patching the header
/// in place. The journal encodes each record straight into a reused
/// buffer this way, with no intermediate payload copy.
pub fn seal_frame(version: u8, buf: &mut [u8]) {
    let (header, payload) = buf.split_at_mut(HEADER_BYTES);
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "outgoing frame of {} bytes exceeds the cap",
        payload.len()
    );
    header.copy_from_slice(&frame_header(version, payload));
}

/// A frame header whose magic and length cap have been checked.
struct Header {
    version: u8,
    len: usize,
    checksum: u64,
}

impl Header {
    /// Parses the header at the front of `buf`: magic and length cap
    /// only — what the version byte may be is its consumer's business.
    fn parse(buf: &[u8]) -> Result<Self, DecodeError> {
        if buf.len() < HEADER_BYTES {
            return Err(DecodeError::Incomplete {
                needed: HEADER_BYTES - buf.len(),
            });
        }
        let mut r: &[u8] = buf;
        let mut magic = [0u8; 4];
        r.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = r.get_u8();
        let len = r.get_u32_le() as usize;
        if len > MAX_FRAME_BYTES {
            return Err(DecodeError::Oversized { len });
        }
        Ok(Self {
            version,
            len,
            checksum: r.get_u64_le(),
        })
    }

    /// [`Header::parse`] for a wire frame: additionally the version must
    /// be [`PROTOCOL_VERSION`]. The one place the wire looks at that
    /// byte, and it needs nothing past the header to refuse.
    fn parse_wire(buf: &[u8]) -> Result<Self, DecodeError> {
        let header = Self::parse(buf)?;
        if header.version != PROTOCOL_VERSION {
            return Err(DecodeError::UnsupportedVersion(header.version));
        }
        Ok(header)
    }

    /// The checksum-verified payload behind this header (parsed from the
    /// front of the same `buf`) and the bytes the whole frame occupies.
    fn payload<'a>(&self, buf: &'a [u8]) -> Result<(&'a [u8], usize), DecodeError> {
        let end = HEADER_BYTES + self.len;
        if buf.len() < end {
            return Err(DecodeError::Incomplete {
                needed: end - buf.len(),
            });
        }
        let payload = &buf[HEADER_BYTES..end];
        self.verify(payload)?;
        Ok((payload, end))
    }

    /// Checks `payload` against the header's checksum.
    fn verify(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let got = checksum64(payload);
        if got != self.checksum {
            return Err(DecodeError::Checksum {
                expected: self.checksum,
                got,
            });
        }
        Ok(())
    }
}

/// Splits one checksum-verified payload off the front of `buf`. On
/// success returns the header version byte (unjudged — see the module
/// docs), the payload slice and the number of bytes consumed (header +
/// payload).
pub fn deframe(buf: &[u8]) -> Result<(u8, &[u8], usize), DecodeError> {
    let header = Header::parse(buf)?;
    let (payload, consumed) = header.payload(buf)?;
    Ok((header.version, payload, consumed))
}

/// Encodes one message as a complete frame.
pub fn encode_with(msg: &Message, _codec: Codec) -> Bytes {
    frame_payload_versioned(PROTOCOL_VERSION, &binary::encode(msg))
}

/// Decodes one frame from the front of `buf`. On success returns the
/// message, the number of bytes consumed (header + payload), and the
/// one [`Codec`] — pass it to [`encode_with`] for the reply.
pub fn decode_versioned(buf: &[u8]) -> Result<(Message, usize, Codec), DecodeError> {
    let header = Header::parse_wire(buf)?;
    let (payload, consumed) = header.payload(buf)?;
    let msg = binary::decode(payload).map_err(DecodeError::Payload)?;
    Ok((msg, consumed, Codec))
}

/// Writes one framed message to a blocking stream.
pub fn write_message_with(w: &mut impl Write, msg: &Message, codec: Codec) -> io::Result<()> {
    let frame = encode_with(msg, codec);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes, treating EOF at offset 0 as a clean
/// close (`Ok(false)`) and EOF mid-buffer as an error.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream closed mid-frame ({filled}/{} bytes)", buf.len()),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A read timeout mid-frame keeps waiting for the rest; a
            // timeout before the first byte surfaces to the caller so
            // connection handlers can poll their shutdown flag.
            Err(e)
                if filled > 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one framed message from a blocking stream. `Ok(None)` means the
/// peer closed the connection cleanly between frames.
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Message>> {
    let invalid = |e: DecodeError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let mut header = [0u8; HEADER_BYTES];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    // Validate the header before allocating for the payload.
    let header = Header::parse_wire(&header).map_err(invalid)?;
    let mut payload = vec![0u8; header.len];
    if !read_full(r, &mut payload)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed before frame payload",
        ));
    }
    header.verify(&payload).map_err(invalid)?;
    binary::decode(&payload)
        .map(Some)
        .map_err(|e| invalid(DecodeError::Payload(e)))
}

/// The payload codec: one tag byte, then fixed-width little-endian
/// fields. `DockingOutput` rows are 72-byte records (`isep`, `irot`,
/// position, orientation, `elj`, `eelec`) — f64 bit patterns travel
/// verbatim, so a round trip is exact by construction, and the
/// byte-level quorum fingerprint ([`crate::state::fingerprint`]) is a
/// hash of the decoded output's fields in this same row layout.
///
/// The journal encodes its command records with this module's
/// `Writer`/`Reader` too, so the wire and the wal share one set of
/// field primitives and one strictness rule.
///
/// The decoder is strict: unknown tags, non-0/1 booleans, row counts
/// that disagree with the payload length, and trailing bytes are all
/// payload errors. Truncation inside the payload can only come from a
/// buggy or malicious encoder (the frame header already guaranteed the
/// byte count), so it is a payload error too, never `Incomplete`.
pub mod binary {
    use super::Message;
    use maxdo::{DockingOutput, DockingRow, EulerZyz, Vec3};

    const TAG_HELLO: u8 = 0;
    const TAG_HELLO_ACK: u8 = 1;
    const TAG_REQUEST_WORK: u8 = 2;
    const TAG_ASSIGNMENT: u8 = 3;
    const TAG_NO_WORK: u8 = 4;
    const TAG_BUSY: u8 = 5;
    const TAG_RESULT_REPORT: u8 = 6;
    const TAG_RESULT_ACK: u8 = 7;
    const TAG_BYE: u8 = 8;
    const TAG_SHARD_MAP_REQUEST: u8 = 9;
    const TAG_SHARD_MAP: u8 = 10;
    const TAG_REDIRECT: u8 = 11;
    const TAG_SHARD_STATUS: u8 = 12;
    const TAG_LEASE_GRANT: u8 = 13;
    const TAG_STATUS_ACK: u8 = 14;

    /// Bytes of one fixed-width docking row record.
    pub const ROW_BYTES: usize = 4 + 4 + 24 + 24 + 8 + 8;

    /// The 72-byte record of one docking row: the one definition of the
    /// row layout, shared by the wire, the journal and the quorum
    /// fingerprint.
    pub fn row_bytes(row: &DockingRow) -> [u8; ROW_BYTES] {
        let mut out = [0u8; ROW_BYTES];
        out[..4].copy_from_slice(&row.isep.to_le_bytes());
        out[4..8].copy_from_slice(&row.irot.to_le_bytes());
        let floats = [
            row.position.x,
            row.position.y,
            row.position.z,
            row.orientation.alpha,
            row.orientation.beta,
            row.orientation.gamma,
            row.elj,
            row.eelec,
        ];
        for (slot, v) in out[8..].chunks_exact_mut(8).zip(floats) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Appends fixed-width little-endian fields to the buffer it wraps.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub(crate) struct Writer(pub(crate) Vec<u8>);

    impl Writer {
        pub(crate) fn u8(&mut self, v: u8) {
            self.0.push(v);
        }
        pub(crate) fn u32(&mut self, v: u32) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        pub(crate) fn u64(&mut self, v: u64) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        pub(crate) fn f64(&mut self, v: f64) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        pub(crate) fn flag(&mut self, v: bool) {
            self.0.push(u8::from(v));
        }
        pub(crate) fn u16(&mut self, v: u16) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        pub(crate) fn str(&mut self, s: &str) {
            self.u32(s.len() as u32);
            self.0.extend_from_slice(s.as_bytes());
        }
        pub(crate) fn u32s(&mut self, v: &[u32]) {
            self.u32(v.len() as u32);
            for &x in v {
                self.u32(x);
            }
        }
        fn u64s(&mut self, v: &[u64]) {
            self.u32(v.len() as u32);
            for &x in v {
                self.u64(x);
            }
        }
        pub(crate) fn params(&mut self, p: &super::CampaignParams) {
            self.u32(p.proteins);
            self.u64(p.lib_seed);
            self.f64(p.h_seconds);
            self.f64(p.separation_spacing);
            self.u32(p.max_iterations);
        }
        /// A docking output: `evaluations`, row count, then the rows.
        /// Always a payload's last field (see [`Reader::output`]).
        pub(crate) fn output(&mut self, output: &DockingOutput) {
            self.0.reserve(12 + output.rows.len() * ROW_BYTES);
            self.u64(output.evaluations);
            self.u32(output.rows.len() as u32);
            for row in &output.rows {
                self.0.extend_from_slice(&row_bytes(row));
            }
        }
    }

    /// How many elements to reserve up front for a counted vector whose
    /// declared length is `count`, with `remaining` payload bytes left
    /// and a wire floor of `elem_bytes` per element.
    ///
    /// `count * elem_bytes <= remaining` has already been checked, but
    /// that bounds the *wire* bytes, not the allocation: an element's
    /// in-memory size can dwarf its wire floor (a `String` is 24 bytes
    /// of `Vec` header against a 1-byte wire floor), so reserving
    /// `count` elements could allocate ~24x the 8 MiB frame cap before
    /// a single element is read. Cap the reservation so the up-front
    /// allocation never exceeds the bytes actually present; a genuine
    /// vector longer than the cap grows amortised as it is read.
    pub(super) fn bounded_capacity<T>(count: usize, elem_bytes: usize, remaining: usize) -> usize {
        debug_assert!(count.saturating_mul(elem_bytes) <= remaining);
        count.min(remaining / std::mem::size_of::<T>().max(1))
    }

    /// Reads the fields [`Writer`] wrote, strictly (see the module docs).
    pub(crate) struct Reader<'a> {
        buf: &'a [u8],
        off: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Self {
            Self { buf, off: 0 }
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self
                .off
                .checked_add(n)
                .filter(|&e| e <= self.buf.len())
                .ok_or_else(|| format!("binary payload truncated at offset {}", self.off))?;
            let slice = &self.buf[self.off..end];
            self.off = end;
            Ok(slice)
        }
        pub(crate) fn u8(&mut self) -> Result<u8, String> {
            Ok(self.take(1)?[0])
        }
        pub(crate) fn u32(&mut self) -> Result<u32, String> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }
        pub(crate) fn u64(&mut self) -> Result<u64, String> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }
        pub(crate) fn f64(&mut self) -> Result<f64, String> {
            Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }
        pub(crate) fn flag(&mut self) -> Result<bool, String> {
            match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(format!("bad boolean byte {other:#04x}")),
            }
        }
        pub(crate) fn u16(&mut self) -> Result<u16, String> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }
        pub(crate) fn str(&mut self) -> Result<String, String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad string: {e}"))
        }
        /// Reads a counted vector, checking the count against the bytes
        /// actually present before allocating.
        pub(crate) fn counted<T>(
            &mut self,
            elem_bytes: usize,
            read: impl Fn(&mut Self) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let count = self.u32()? as usize;
            let remaining = self.buf.len() - self.off;
            if count.checked_mul(elem_bytes).is_none_or(|b| b > remaining) {
                return Err(format!(
                    "vector count {count} disagrees with {remaining} payload bytes"
                ));
            }
            let mut out = Vec::with_capacity(bounded_capacity::<T>(count, elem_bytes, remaining));
            for _ in 0..count {
                out.push(read(self)?);
            }
            Ok(out)
        }
        pub(crate) fn params(&mut self) -> Result<super::CampaignParams, String> {
            Ok(super::CampaignParams {
                proteins: self.u32()?,
                lib_seed: self.u64()?,
                h_seconds: self.f64()?,
                separation_spacing: self.f64()?,
                max_iterations: self.u32()?,
            })
        }
        fn row(&mut self) -> Result<DockingRow, String> {
            Ok(DockingRow {
                isep: self.u32()?,
                irot: self.u32()?,
                position: Vec3 {
                    x: self.f64()?,
                    y: self.f64()?,
                    z: self.f64()?,
                },
                orientation: EulerZyz {
                    alpha: self.f64()?,
                    beta: self.f64()?,
                    gamma: self.f64()?,
                },
                elj: self.f64()?,
                eelec: self.f64()?,
            })
        }
        /// A docking output as the payload's last field. The row count
        /// must agree with the bytes actually present before anything
        /// is allocated for the rows.
        pub(crate) fn output(&mut self) -> Result<DockingOutput, String> {
            let evaluations = self.u64()?;
            let count = self.u32()? as usize;
            let remaining = self.buf.len() - self.off;
            if count != remaining / ROW_BYTES || !remaining.is_multiple_of(ROW_BYTES) {
                return Err(format!(
                    "row count {count} disagrees with {remaining} payload bytes"
                ));
            }
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(self.row()?);
            }
            Ok(DockingOutput { rows, evaluations })
        }
        pub(crate) fn finish(self) -> Result<(), String> {
            if self.off == self.buf.len() {
                Ok(())
            } else {
                Err(format!(
                    "{} trailing bytes after the message",
                    self.buf.len() - self.off
                ))
            }
        }
    }

    /// Encodes one message as a payload (no frame header).
    pub fn encode(msg: &Message) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(64));
        match msg {
            Message::Hello {
                agent,
                threads,
                campaigns,
            } => {
                w.u8(TAG_HELLO);
                w.u64(*agent);
                w.u32(*threads);
                w.u32(campaigns.len() as u32);
                for name in campaigns {
                    w.str(name);
                }
            }
            Message::HelloAck {
                protocol,
                campaign,
                deadline_seconds,
                campaigns,
            } => {
                w.u8(TAG_HELLO_ACK);
                w.u8(*protocol);
                w.params(campaign);
                w.f64(*deadline_seconds);
                w.u32(campaigns.len() as u32);
                for (name, params) in campaigns {
                    w.str(name);
                    w.params(params);
                }
            }
            Message::RequestWork => w.u8(TAG_REQUEST_WORK),
            Message::Assignment {
                replica,
                workunit,
                receptor,
                ligand,
                isep_start,
                positions,
                deadline_seconds,
                campaign,
            } => {
                w.u8(TAG_ASSIGNMENT);
                w.u64(*replica);
                w.u32(*workunit);
                w.u32(*receptor);
                w.u32(*ligand);
                w.u32(*isep_start);
                w.u32(*positions);
                w.f64(*deadline_seconds);
                w.u16(*campaign);
            }
            Message::NoWork {
                campaign_complete,
                retry_after_ms,
            } => {
                w.u8(TAG_NO_WORK);
                w.flag(*campaign_complete);
                w.u64(*retry_after_ms);
            }
            Message::Busy { retry_after_ms } => {
                w.u8(TAG_BUSY);
                w.u64(*retry_after_ms);
            }
            Message::ResultReport {
                replica,
                workunit,
                campaign,
                output,
            } => {
                w.u8(TAG_RESULT_REPORT);
                w.u64(*replica);
                w.u32(*workunit);
                w.u16(*campaign);
                w.output(output);
            }
            Message::ResultAck {
                accepted,
                completed_workunit,
                campaign_complete,
            } => {
                w.u8(TAG_RESULT_ACK);
                w.flag(*accepted);
                w.flag(*completed_workunit);
                w.flag(*campaign_complete);
            }
            Message::Bye => w.u8(TAG_BYE),
            Message::ShardMapRequest => w.u8(TAG_SHARD_MAP_REQUEST),
            Message::ShardMap {
                shards,
                self_shard,
                addrs,
            } => {
                w.u8(TAG_SHARD_MAP);
                w.u16(*shards);
                w.u16(*self_shard);
                w.u32(addrs.len() as u32);
                for a in addrs {
                    w.str(a);
                }
            }
            Message::Redirect { shard, addr } => {
                w.u8(TAG_REDIRECT);
                w.u16(*shard);
                w.str(addr);
            }
            Message::ShardStatus {
                shard,
                fresh_backlog,
                outstanding,
                complete,
                hungry,
                leases_held,
                campaign,
            } => {
                w.u8(TAG_SHARD_STATUS);
                w.u16(*shard);
                w.u64(*fresh_backlog);
                w.u64(*outstanding);
                w.flag(*complete);
                w.flag(*hungry);
                w.u64s(leases_held);
                w.u16(*campaign);
            }
            Message::LeaseGrant {
                lease,
                from_shard,
                wus,
                complete,
                campaign,
            } => {
                w.u8(TAG_LEASE_GRANT);
                w.u64(*lease);
                w.u16(*from_shard);
                w.u32s(wus);
                w.flag(*complete);
                w.u16(*campaign);
            }
            Message::StatusAck { shard, complete } => {
                w.u8(TAG_STATUS_ACK);
                w.u16(*shard);
                w.flag(*complete);
            }
        }
        w.0
    }

    /// Decodes one payload (no frame header) strictly.
    pub fn decode(payload: &[u8]) -> Result<Message, String> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => Message::Hello {
                agent: r.u64()?,
                threads: r.u32()?,
                campaigns: r.counted(1, |r| r.str())?,
            },
            TAG_HELLO_ACK => Message::HelloAck {
                protocol: r.u8()?,
                campaign: r.params()?,
                deadline_seconds: r.f64()?,
                // Each roster entry is a 4-byte-prefixed name plus a
                // 32-byte fixed params block.
                campaigns: r.counted(36, |r| Ok((r.str()?, r.params()?)))?,
            },
            TAG_REQUEST_WORK => Message::RequestWork,
            TAG_ASSIGNMENT => Message::Assignment {
                replica: r.u64()?,
                workunit: r.u32()?,
                receptor: r.u32()?,
                ligand: r.u32()?,
                isep_start: r.u32()?,
                positions: r.u32()?,
                deadline_seconds: r.f64()?,
                campaign: r.u16()?,
            },
            TAG_NO_WORK => Message::NoWork {
                campaign_complete: r.flag()?,
                retry_after_ms: r.u64()?,
            },
            TAG_BUSY => Message::Busy {
                retry_after_ms: r.u64()?,
            },
            TAG_RESULT_REPORT => {
                let replica = r.u64()?;
                let workunit = r.u32()?;
                let campaign = r.u16()?;
                Message::ResultReport {
                    replica,
                    workunit,
                    campaign,
                    output: r.output()?,
                }
            }
            TAG_RESULT_ACK => Message::ResultAck {
                accepted: r.flag()?,
                completed_workunit: r.flag()?,
                campaign_complete: r.flag()?,
            },
            TAG_BYE => Message::Bye,
            TAG_SHARD_MAP_REQUEST => Message::ShardMapRequest,
            TAG_SHARD_MAP => {
                let shards = r.u16()?;
                let self_shard = r.u16()?;
                // Addresses are variable-width; each str() re-checks the
                // remaining bytes, so a 1-byte element floor suffices.
                let addrs = r.counted(1, |r| r.str())?;
                Message::ShardMap {
                    shards,
                    self_shard,
                    addrs,
                }
            }
            TAG_REDIRECT => Message::Redirect {
                shard: r.u16()?,
                addr: r.str()?,
            },
            TAG_SHARD_STATUS => Message::ShardStatus {
                shard: r.u16()?,
                fresh_backlog: r.u64()?,
                outstanding: r.u64()?,
                complete: r.flag()?,
                hungry: r.flag()?,
                leases_held: r.counted(8, |r| r.u64())?,
                campaign: r.u16()?,
            },
            TAG_LEASE_GRANT => Message::LeaseGrant {
                lease: r.u64()?,
                from_shard: r.u16()?,
                wus: r.counted(4, |r| r.u32())?,
                complete: r.flag()?,
                campaign: r.u16()?,
            },
            TAG_STATUS_ACK => Message::StatusAck {
                shard: r.u16()?,
                complete: r.flag()?,
            },
            other => return Err(format!("unknown message tag {other:#04x}")),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use maxdo::{DockingRow, EulerZyz, Vec3};

    fn encode(msg: &Message) -> Bytes {
        encode_with(msg, Codec)
    }

    fn decode(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
        decode_versioned(buf).map(|(msg, consumed, Codec)| (msg, consumed))
    }

    /// One message of every kind, campaign fields off their defaults.
    pub(crate) fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                agent: 42,
                threads: 4,
                campaigns: vec!["prod".into(), "pilot".into()],
            },
            Message::HelloAck {
                protocol: PROTOCOL_VERSION,
                campaign: CampaignParams::tiny(),
                deadline_seconds: 3.0,
                campaigns: vec![
                    ("prod".into(), CampaignParams::tiny()),
                    ("pilot".into(), CampaignParams::tiny()),
                ],
            },
            Message::RequestWork,
            Message::Assignment {
                replica: 7,
                workunit: 3,
                receptor: 0,
                ligand: 1,
                isep_start: 5,
                positions: 2,
                deadline_seconds: 3.0,
                campaign: 1,
            },
            Message::NoWork {
                campaign_complete: false,
                retry_after_ms: 150,
            },
            Message::Busy {
                retry_after_ms: 500,
            },
            Message::ResultReport {
                replica: 7,
                workunit: 3,
                campaign: 1,
                output: DockingOutput {
                    rows: vec![DockingRow {
                        isep: 5,
                        irot: 1,
                        position: Vec3::new(1.0, -2.0, 3.5),
                        orientation: EulerZyz::default(),
                        elj: -4.25,
                        eelec: 0.5,
                    }],
                    evaluations: 99,
                },
            },
            Message::ResultAck {
                accepted: true,
                completed_workunit: false,
                campaign_complete: false,
            },
            Message::Bye,
            Message::ShardMapRequest,
            Message::ShardMap {
                shards: 2,
                self_shard: 1,
                addrs: vec!["127.0.0.1:7070".into(), "127.0.0.1:7071".into()],
            },
            Message::Redirect {
                shard: 0,
                addr: "127.0.0.1:7070".into(),
            },
            Message::ShardStatus {
                shard: 1,
                fresh_backlog: 0,
                outstanding: 3,
                complete: false,
                hungry: true,
                leases_held: vec![(1u64 << 48) | 2],
                campaign: 1,
            },
            Message::LeaseGrant {
                // Grantor shard 0, sequence 1.
                lease: 1,
                from_shard: 0,
                wus: vec![11, 12, 13],
                complete: false,
                campaign: 1,
            },
            Message::StatusAck {
                shard: 0,
                complete: true,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let frame = encode(&msg);
            assert_eq!(frame[4], PROTOCOL_VERSION);
            let (back, consumed) = decode(&frame).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn binary_decoder_rejects_trailing_and_truncated_payloads() {
        let payload = binary::encode(&Message::Hello {
            agent: 9,
            threads: 2,
            campaigns: Vec::new(),
        });
        // Structurally short and long payloads (with valid checksums)
        // are payload errors, not Incomplete — framing already
        // guaranteed the byte count.
        for cut in 0..payload.len() {
            let frame = frame_payload_versioned(PROTOCOL_VERSION, &payload[..cut]);
            assert!(
                matches!(decode(&frame), Err(DecodeError::Payload(_))),
                "cut at {cut} must be a payload error"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        let frame = frame_payload_versioned(PROTOCOL_VERSION, &long);
        assert!(matches!(decode(&frame), Err(DecodeError::Payload(_))));
    }

    #[test]
    fn binary_boolean_bytes_are_strict() {
        let mut payload = binary::encode(&Message::ResultAck {
            accepted: true,
            completed_workunit: false,
            campaign_complete: false,
        });
        payload[1] = 2;
        let frame = frame_payload_versioned(PROTOCOL_VERSION, &payload);
        assert!(matches!(decode(&frame), Err(DecodeError::Payload(_))));
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let frame = encode(&Message::RequestWork);
        for cut in 0..frame.len() {
            match decode(&frame[..cut]) {
                Err(DecodeError::Incomplete { needed }) => assert!(needed > 0),
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_left_alone() {
        let frame = encode(&Message::Bye);
        let mut buf = frame.to_vec();
        buf.extend_from_slice(b"next frame starts here");
        let (msg, consumed) = decode(&buf).unwrap();
        assert_eq!(msg, Message::Bye);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode(&Message::Bye).to_vec();
        frame[0] = b'X';
        assert!(matches!(decode(&frame), Err(DecodeError::BadMagic(_))));
    }

    /// Every version byte but the one is refused, and from the header
    /// alone: the payload need not have arrived (nor be well-formed).
    #[test]
    fn every_other_version_is_rejected_on_the_header() {
        let mut frame = encode(&Message::Bye).to_vec();
        for version in (0..=u8::MAX).filter(|&v| v != PROTOCOL_VERSION) {
            frame[4] = version;
            for buf in [&frame[..], &frame[..HEADER_BYTES]] {
                assert_eq!(decode(buf), Err(DecodeError::UnsupportedVersion(version)));
            }
            let mut stream: &[u8] = &frame[..HEADER_BYTES];
            let err = read_message(&mut stream).expect_err("refused before the payload");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// `deframe` leaves the version byte to its caller: the journal
    /// frames its records with kinds of its own.
    #[test]
    fn deframe_does_not_judge_the_version_byte() {
        for kind in 0..=u8::MAX {
            let frame = frame_payload_versioned(kind, b"a journal record");
            let expected = (kind, &b"a journal record"[..], frame.len());
            assert_eq!(deframe(&frame), Ok(expected));
        }
    }

    #[test]
    fn shard_vector_counts_are_checked_before_allocation() {
        let payload = binary::encode(&Message::ShardStatus {
            shard: 0,
            fresh_backlog: 1,
            outstanding: 1,
            complete: false,
            hungry: false,
            leases_held: vec![7],
            campaign: 0,
        });
        // Inflate the lease count far past the payload: must be a
        // payload error, not an attempted huge allocation.
        let mut bad = payload.clone();
        let count_off = 1 + 2 + 8 + 8 + 1 + 1;
        bad[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let frame = frame_payload_versioned(PROTOCOL_VERSION, &bad);
        assert!(matches!(decode(&frame), Err(DecodeError::Payload(_))));
    }

    /// A corrupt count that still passes the wire-floor check must not
    /// translate into a huge up-front allocation: the reservation is
    /// capped by the bytes actually present, measured in *in-memory*
    /// element sizes (a `String` costs 24 bytes of header against its
    /// 1-byte wire floor).
    #[test]
    fn counted_vector_reservation_is_capped_by_the_payload_remainder() {
        let remaining = MAX_FRAME_BYTES;
        // Worst case: `ShardMap` address strings — count can legally be
        // as large as the remainder, but each `String` is 24 in-memory
        // bytes, so an uncapped reservation would be ~24x the frame cap.
        let cap = binary::bounded_capacity::<String>(remaining, 1, remaining);
        assert!(
            cap * std::mem::size_of::<String>() <= remaining,
            "up-front reservation {} bytes exceeds the {remaining}-byte remainder",
            cap * std::mem::size_of::<String>()
        );
        // Honest small vectors still reserve exactly their length.
        assert_eq!(binary::bounded_capacity::<u64>(3, 8, 24), 3);
        assert_eq!(binary::bounded_capacity::<u32>(13, 4, 52), 13);
        assert_eq!(binary::bounded_capacity::<String>(0, 1, 0), 0);
    }

    /// End to end: a ShardMap frame whose address count is inflated to
    /// the maximum value the wire-floor check accepts decodes to a clean
    /// payload error (the first element read runs out of bytes) without
    /// ballooning memory first.
    #[test]
    fn inflated_string_count_is_a_payload_error_not_an_allocation() {
        let payload = binary::encode(&Message::ShardMap {
            shards: 2,
            self_shard: 0,
            addrs: vec!["127.0.0.1:7070".into()],
        });
        let mut bad = payload.clone();
        let count_off = 1 + 2 + 2; // tag + shards + self_shard
        let remaining = bad.len() - count_off - 4;
        bad[count_off..count_off + 4].copy_from_slice(&(remaining as u32).to_le_bytes());
        let frame = frame_payload_versioned(PROTOCOL_VERSION, &bad);
        assert!(matches!(decode(&frame), Err(DecodeError::Payload(_))));
    }

    #[test]
    fn oversized_length_rejected_before_payload() {
        let mut frame = encode(&Message::Bye).to_vec();
        let bad = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        frame[5..9].copy_from_slice(&bad);
        // Only the header is present — the declared length alone must
        // trigger the rejection, not an attempt to buffer 8 MiB.
        assert!(matches!(
            decode(&frame[..HEADER_BYTES]),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let mut frame = encode(&Message::Hello {
            agent: 1,
            threads: 1,
            campaigns: Vec::new(),
        })
        .to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert!(matches!(decode(&frame), Err(DecodeError::Checksum { .. })));
    }

    /// A deterministic, non-repeating-looking buffer of `len` bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add((i >> 8) as u8 ^ 7))
            .collect()
    }

    /// The checksum is a wire and disk format: these values may never
    /// change. The lengths straddle every boundary of the definition —
    /// empty, sub-word, one word, one stripe, either side of each — plus
    /// a report-sized buffer. (Words are read little-endian by
    /// construction, so a big-endian host computes the same values.)
    #[test]
    fn checksum64_output_is_pinned() {
        let pinned: [(usize, u64); 9] = [
            (0, 0xe262_cc04_96d4_15e0),
            (1, 0x20cf_5607_a71f_d26a),
            (7, 0xd8fc_7b69_6d13_6621),
            (8, 0x98dd_017f_850d_84a8),
            (9, 0x1b37_5981_0b4e_8000),
            (31, 0x5cf7_7440_4bcc_744b),
            (32, 0xec33_ede5_66eb_a6ec),
            (33, 0x9a9a_51c3_9de6_a3ee),
            (1556, 0xc63f_370e_a12a_1908),
        ];
        let computed: Vec<(usize, u64)> = pinned
            .iter()
            .map(|&(len, _)| (len, checksum64(&pattern(len))))
            .collect();
        assert!(
            computed == pinned,
            "computed:\n{}",
            computed
                .iter()
                .map(|(len, sum)| format!("            ({len}, {sum:#018x}),\n"))
                .collect::<String>()
        );
    }

    /// A 21-row `ResultReport`: the 1 556-byte frame the live grid's
    /// benchmark sends once per replica.
    fn report_frame() -> Vec<u8> {
        let rows = (0..21u32)
            .map(|i| DockingRow {
                isep: 3 + i / 21,
                irot: i % 21 + 1,
                position: Vec3::new(1.5 * f64::from(i), -2.0, 3.5),
                orientation: EulerZyz {
                    alpha: 0.1,
                    beta: 0.2,
                    gamma: 0.3 * f64::from(i),
                },
                elj: -4.25 - f64::from(i),
                eelec: 0.5,
            })
            .collect();
        let frame = encode_with(
            &Message::ResultReport {
                replica: 7,
                workunit: 3,
                campaign: 0,
                output: DockingOutput {
                    rows,
                    evaluations: 420,
                },
            },
            Codec,
        );
        assert_eq!(frame.len(), 1556);
        frame.to_vec()
    }

    /// Exhaustively: no single flipped bit and no single damaged byte in
    /// a report's payload gets past the checksum.
    #[test]
    fn every_single_bit_and_byte_flip_in_a_report_frame_fails_the_checksum() {
        let mut frame = report_frame();
        assert!(deframe(&frame).is_ok());
        for at in HEADER_BYTES..frame.len() {
            let masks = (0..8).map(|bit| 1u8 << bit).chain([0xff]);
            for mask in masks {
                frame[at] ^= mask;
                assert!(
                    matches!(deframe(&frame), Err(DecodeError::Checksum { .. })),
                    "byte {at} ^ {mask:#04x} passed"
                );
                frame[at] ^= mask;
            }
        }
        // ... and damage to the stored checksum itself is noticed too.
        for at in 9..HEADER_BYTES {
            frame[at] ^= 0x01;
            assert!(matches!(deframe(&frame), Err(DecodeError::Checksum { .. })));
            frame[at] ^= 0x01;
        }
    }

    mod checksum_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Fed in any pieces, the streaming hasher gives the one-shot
            /// checksum of the whole.
            #[test]
            fn any_split_streams_to_the_one_shot_checksum(
                len in 0usize..400,
                cuts in collection::vec(0usize..400, 0..6),
            ) {
                let buf = pattern(len);
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
                cuts.sort_unstable();
                let mut sum = Checksum64::new();
                let mut from = 0;
                for cut in cuts.into_iter().chain([len]) {
                    sum.update(&buf[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(sum.finish(), checksum64(&buf));
            }

            /// The bijectivity argument, checked: buffers that differ only
            /// inside one aligned 8-byte word (or only in the sub-word
            /// tail) never collide, whatever the difference.
            #[test]
            fn a_difference_confined_to_one_word_always_changes_the_checksum(
                len in 1usize..300,
                at in 0usize..300,
                delta in 1u64..u64::MAX,
            ) {
                let buf = pattern(len);
                let word = (at % len) / 8 * 8;
                let end = (word + 8).min(len);
                // Keep only the bytes of `delta` that fit the word, and
                // make sure at least one is non-zero.
                let mut delta = delta.to_le_bytes();
                delta[0] |= u8::from(delta[..end - word].iter().all(|&b| b == 0));
                let mut other = buf.clone();
                for (b, d) in other[word..end].iter_mut().zip(delta) {
                    *b ^= d;
                }
                prop_assert!(other != buf);
                prop_assert!(checksum64(&other) != checksum64(&buf));
            }

            /// A buffer and the same buffer followed by zero bytes are
            /// different messages and get different checksums (the length
            /// is hashed; within one partial word that is a guarantee,
            /// across words a 2^-64 event).
            #[test]
            fn trailing_zero_bytes_change_the_checksum(
                len in 0usize..300,
                zeros in 1usize..70,
            ) {
                let buf = pattern(len);
                let mut longer = buf.clone();
                longer.resize(len + zeros, 0);
                prop_assert!(checksum64(&longer) != checksum64(&buf));
            }
        }
    }

    #[test]
    fn valid_checksum_with_garbage_payload_is_a_payload_error() {
        let frame = frame_payload_versioned(PROTOCOL_VERSION, b"{\"NotAMessage\":1}");
        assert!(matches!(decode(&frame), Err(DecodeError::Payload(_))));
    }

    #[test]
    fn stream_round_trip_over_a_cursor() {
        let msgs = sample_messages();
        let mut wire = Vec::new();
        for m in &msgs {
            write_message_with(&mut wire, m, Codec).unwrap();
        }
        let mut r: &[u8] = &wire;
        for m in &msgs {
            let got = read_message(&mut r).unwrap().expect("message");
            assert_eq!(&got, m);
        }
        assert_eq!(read_message(&mut r).unwrap(), None, "clean EOF");
    }
}
