//! The reliable transport spoken between INET and the remote peer.
//!
//! A deliberately small TCP analogue: byte-sequence numbers, cumulative
//! ACKs, a fixed go-back-N window, and an exponentially backed-off
//! retransmission timeout. This is the machinery that makes network driver
//! recovery *transparent* (§6.1): every frame lost while the driver was
//! dead is eventually retransmitted, so `wget` completes with an intact
//! MD5 no matter how often the driver is killed.
//!
//! Every frame carries a CRC-16 (the Ethernet-FCS analogue): a frame
//! corrupted anywhere between the two transports decodes to `None` and is
//! treated exactly like a lost frame — retransmission covers it. Without
//! the checksum a single flipped bit in a cumulative ACK could convince
//! the sender the transfer finished, wedging the stream forever.

/// Maximum payload per segment (Ethernet MTU minus headers).
pub const MSS: usize = 1460;

/// Segment header length (including the trailing CRC-16).
pub const HEADER: usize = 16;

/// Protocol magic (first byte of every frame).
pub const MAGIC: u8 = 0x50;

/// Segment flags.
pub mod flags {
    /// Connection request.
    pub const SYN: u8 = 0x01;
    /// Acknowledgement (ack field valid).
    pub const ACK: u8 = 0x02;
    /// Stream end.
    pub const FIN: u8 = 0x04;
    /// Payload present (seq field valid).
    pub const DATA: u8 = 0x08;
    /// Unreliable datagram (UDP analogue).
    pub const DGRAM: u8 = 0x10;
}

/// A transport segment. The payload `P` is owned (`Vec<u8>`, the
/// default), borrowed from the frame it was parsed from (`&[u8]`, what
/// [`Segment::parse`] returns), or absent (`()`: a header whose payload
/// [`Segment::encode_with`] writes straight into the frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<P = Vec<u8>> {
    /// Flag bits.
    pub flags: u8,
    /// Connection id.
    pub conn: u16,
    /// Byte sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement (next expected byte).
    pub ack: u32,
    /// Payload.
    pub payload: P,
}

/// `CRC16[k][b]`: what byte `b` followed by `k` zero bytes leaves in a
/// zero register (polynomial 0x1021, most significant bit first). Row 0
/// is the bytewise table; rows 1–15 let sixteen input bytes be folded in
/// with sixteen independent lookups instead of sixteen dependent ones.
static CRC16: [[u16; 256]; 16] = crc16_tables();

const fn crc16_tables() -> [[u16; 256]; 16] {
    let mut t = [[0u16; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-16/CCITT-FALSE — detects *all* single-bit errors (and all burst
/// errors up to 16 bits), which is what the chaos layer's bit-flip
/// corruption produces.
pub fn crc16(data: &[u8]) -> u16 {
    let (blocks, tail) = data.as_chunks::<16>();
    let mut crc: u16 = 0xFFFF;
    for block in blocks {
        // The register only meets the first two of the sixteen bytes.
        let mut next = CRC16[15][usize::from((crc >> 8) as u8 ^ block[0])]
            ^ CRC16[14][usize::from(crc as u8 ^ block[1])];
        for (row, &b) in CRC16[..14].iter().rev().zip(&block[2..]) {
            next ^= row[usize::from(b)];
        }
        crc = next;
    }
    for &b in tail {
        crc = (crc << 8) ^ CRC16[0][usize::from((crc >> 8) as u8 ^ b)];
    }
    crc
}

impl Segment {
    /// Builds an unreliable datagram segment (UDP analogue) — the frame
    /// shape the fleet gossip layer and the UDP echo path share. `seq`
    /// is a caller-defined correlation number (gossip sequence, ping id).
    pub fn dgram(conn: u16, seq: u32, payload: Vec<u8>) -> Segment {
        Segment {
            flags: flags::DGRAM,
            conn,
            seq,
            ack: 0,
            payload,
        }
    }

    /// [`Segment::parse`] keeping `frame` as the payload: the header is
    /// removed in place, so a received frame becomes the payload an
    /// application is handed without a copy. A frame that does not parse
    /// comes back as the error, for its holder to hand back.
    pub fn from_frame(mut frame: Vec<u8>) -> Result<Segment, Vec<u8>> {
        let Some(head) = Segment::parse(&frame).map(|seg| seg.header()) else {
            return Err(frame);
        };
        frame.drain(..HEADER);
        Ok(head.with_payload(frame))
    }
}

impl<'a> Segment<&'a [u8]> {
    /// Parses wire format, borrowing the payload from `frame`: the one
    /// header parser and CRC check. `None` for frames that are not ours
    /// or are truncated/corrupt (bad CRC).
    pub fn parse(frame: &'a [u8]) -> Option<Self> {
        if frame.len() < HEADER || frame[0] != MAGIC {
            return None;
        }
        let len = u16::from_le_bytes([frame[12], frame[13]]) as usize;
        if frame.len() != HEADER + len {
            return None;
        }
        let mut crc = crc16(&frame[..14]);
        crc = crc.wrapping_add(crc16(&frame[HEADER..]));
        if crc != u16::from_le_bytes([frame[14], frame[15]]) {
            return None;
        }
        Some(Segment {
            flags: frame[1],
            conn: u16::from_le_bytes([frame[2], frame[3]]),
            seq: u32::from_le_bytes(frame[4..8].try_into().ok()?),
            ack: u32::from_le_bytes(frame[8..12].try_into().ok()?),
            payload: &frame[HEADER..],
        })
    }
}

impl<P: AsRef<[u8]>> Segment<P> {
    /// Serializes to wire format (header + CRC-16 + payload).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(Vec::new())
    }

    /// [`Segment::encode`] into `out`, a buffer lent for the frame.
    pub fn encode_into(&self, out: Vec<u8>) -> Vec<u8> {
        let payload = self.payload.as_ref();
        self.header()
            .encode_with(out, payload.len(), |out| out.extend_from_slice(payload))
    }
}

impl<P> Segment<P> {
    /// The segment without its payload.
    pub fn header(&self) -> Segment<()> {
        Segment {
            flags: self.flags,
            conn: self.conn,
            seq: self.seq,
            ack: self.ack,
            payload: (),
        }
    }
}

impl Segment<()> {
    /// This header with `payload`.
    pub fn with_payload<P>(self, payload: P) -> Segment<P> {
        Segment {
            flags: self.flags,
            conn: self.conn,
            seq: self.seq,
            ack: self.ack,
            payload,
        }
    }

    /// Serializes this header with a `len`-byte payload that `fill`
    /// appends to the frame, so content made on the fly is written once,
    /// in place. The frame is written over `out`, whose capacity it
    /// reuses (a lent buffer); the one encoder of the transport.
    pub fn encode_with(
        &self,
        mut out: Vec<u8>,
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        out.clear();
        out.reserve(HEADER + len);
        out.push(MAGIC);
        out.push(self.flags);
        out.extend_from_slice(&self.conn.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ack.to_le_bytes());
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&[0; 2]); // the CRC, once the payload is in
        fill(&mut out);
        debug_assert_eq!(out.len(), HEADER + len, "payload of the declared length");
        let crc = crc16(&out[..14]).wrapping_add(crc16(&out[HEADER..]));
        out[14..HEADER].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

/// Appends bytes `offset..offset + len` of the download content to `out`,
/// a word at a time: word `i` of the stream is a function of `(seed, i)`
/// alone, so any offset is computable without the bytes before it.
pub fn stream_extend(seed: u64, offset: u64, len: usize, out: &mut Vec<u8>) {
    let end = offset + len as u64;
    let mut pos = offset;
    while pos < end {
        let mut x = seed ^ (pos / 8).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x9E37_79B9_7F4A_7C15;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let word = x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
        let start = (pos % 8) as usize;
        let take = (8 - start).min((end - pos) as usize);
        out.extend_from_slice(&word[start..start + take]);
        pos += take as u64;
    }
}

/// Deterministic download content: byte stream a "remote file server"
/// serves, computable at any offset by both the peer and the experiment
/// harness (for MD5 verification, Fig. 7).
pub fn stream_chunk(seed: u64, offset: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    stream_extend(seed, offset, len, &mut out);
    out
}

/// MD5 of the first `size` bytes of [`stream_chunk`] content — what
/// `md5sum` would report for the downloaded file.
pub fn stream_md5(seed: u64, size: u64) -> String {
    let mut h = phoenix_simcore::digest::Md5::new();
    let mut chunk = Vec::with_capacity(1 << 16);
    let mut off = 0u64;
    while off < size {
        let take = (size - off).min(1 << 16) as usize;
        chunk.clear();
        stream_extend(seed, off, take, &mut chunk);
        h.update(&chunk);
        off += take as u64;
    }
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_roundtrip() {
        let s = Segment {
            flags: flags::DATA | flags::ACK,
            conn: 7,
            seq: 123_456,
            ack: 99,
            payload: vec![1, 2, 3],
        };
        assert_eq!(Segment::from_frame(s.encode()), Ok(s));
    }

    #[test]
    fn dgram_helper_round_trips() {
        let d = Segment::dgram(9, 345, b"gossip".to_vec());
        assert_eq!(d.flags, flags::DGRAM);
        assert_eq!(d.ack, 0);
        assert_eq!(Segment::from_frame(d.encode()), Ok(d));
    }

    #[test]
    fn the_borrowed_and_in_place_forms_agree() {
        let s = Segment {
            flags: flags::DATA | flags::ACK,
            conn: 4,
            seq: 1460,
            ack: 3,
            payload: stream_chunk(9, 1460, 1460),
        };
        let frame = s.encode();
        let streamed = s
            .header()
            .encode_with(Vec::new(), 1460, |out| stream_extend(9, 1460, 1460, out));
        assert_eq!(streamed, frame, "content written in place");
        let reused = s.encode_into(b"an earlier frame's bytes".to_vec());
        assert_eq!(reused, frame, "a given buffer is written over");
        let parsed = Segment::parse(&frame).expect("one of ours");
        assert_eq!(parsed, s.header().with_payload(s.payload.as_slice()));
        let garbled = frame[1..].to_vec();
        assert_eq!(Segment::from_frame(garbled.clone()), Err(garbled));
        assert_eq!(Segment::from_frame(frame), Ok(s));
    }

    #[test]
    fn decode_rejects_foreign_and_truncated_frames() {
        assert_eq!(Segment::parse(b"not ours"), None);
        let mut good = Segment {
            flags: flags::DATA,
            conn: 1,
            seq: 0,
            ack: 0,
            payload: vec![9; 10],
        }
        .encode();
        good.truncate(good.len() - 1);
        assert_eq!(Segment::parse(&good), None);
    }

    #[test]
    fn decode_rejects_every_single_bit_flip() {
        // The chaos layer corrupts messages by flipping exactly one bit;
        // the CRC-16 must catch every such frame, or a corrupted ACK can
        // wedge the transfer (sender believes it finished).
        let frame = Segment {
            flags: flags::DATA | flags::ACK,
            conn: 3,
            seq: 54_020,
            ack: 8_388_608,
            payload: vec![0xAB; 32],
        }
        .encode();
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                Segment::parse(&bad),
                None,
                "flip of bit {bit} must be rejected"
            );
        }
        assert!(
            Segment::parse(&frame).is_some(),
            "pristine frame still decodes"
        );
    }

    /// `crc16` one bit at a time, as the polynomial defines it.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &b in data {
            crc ^= u16::from(b) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    #[test]
    fn sliced_crc16_equals_the_bitwise_loop() {
        assert_eq!(
            crc16(b"123456789"),
            0x29B1,
            "CRC-16/CCITT-FALSE check value"
        );
        let data = stream_chunk(16, 0, 5003);
        let lengths = (0..=200).chain(1459..=1461).chain(4999..=5000);
        for len in lengths {
            for at in 0..4 {
                let d = &data[at..at + len];
                assert_eq!(crc16(d), crc16_bitwise(d), "{len} bytes at offset {at}");
            }
        }
    }

    /// `stream_chunk` one byte at a time.
    fn stream_chunk_bytewise(seed: u64, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let word_index = pos / 8;
            let mut x =
                seed ^ word_index.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x9E37_79B9_7F4A_7C15;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let word = x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
            let start = (pos % 8) as usize;
            for &b in &word[start..] {
                if out.len() == len {
                    break;
                }
                out.push(b);
            }
            pos += (8 - start) as u64;
        }
        out
    }

    #[test]
    fn stream_chunk_by_words_equals_the_bytewise_form() {
        for offset in 0..=8 {
            for len in 0..=40 {
                assert_eq!(
                    stream_chunk(42, offset, len),
                    stream_chunk_bytewise(42, offset, len),
                    "{len} bytes at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn stream_chunk_is_offset_consistent() {
        let seed = 42;
        let whole = stream_chunk(seed, 0, 100);
        for split in [1usize, 7, 8, 9, 50, 99] {
            let mut parts = stream_chunk(seed, 0, split);
            parts.extend(stream_chunk(seed, split as u64, 100 - split));
            assert_eq!(parts, whole, "split at {split}");
        }
    }

    #[test]
    fn stream_md5_matches_oneshot() {
        let seed = 7;
        let size = 100_000u64;
        let direct = {
            let mut h = phoenix_simcore::digest::Md5::new();
            h.update(&stream_chunk(seed, 0, size as usize));
            h.finish_hex()
        };
        assert_eq!(stream_md5(seed, size), direct);
    }

    #[test]
    fn different_seeds_different_content() {
        assert_ne!(stream_chunk(1, 0, 64), stream_chunk(2, 0, 64));
    }
}
