//! Versioned driver state snapshots: the unit stored in the checkpoint
//! store.
//!
//! A snapshot is a small opaque payload (a consumed watermark, a line
//! buffer, a line configuration) framed with the writer's incarnation
//! (endpoint generation), a per-key monotone sequence number, and a
//! CRC-32 over the whole frame. The incarnation tag lets the store
//! reject writes from ghosts of previous incarnations; the CRC lets a
//! restoring driver reject a corrupted record instead of resuming from
//! garbage (it then falls back to the caller-held log's watermark).

use std::fmt;

use phoenix_simcore::wire::{Len, Reader, Writer};

/// Frame magic: "PCKP".
const MAGIC: [u8; 4] = *b"PCKP";
/// Current wire version.
const VERSION: u8 = 1;
/// Bytes before the payload: magic + version + incarnation + seq + len.
const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 4;
/// Trailing CRC-32.
const TRAILER_LEN: usize = 4;

/// `CRC32[k][b]`: what byte `b` followed by `k` zero bytes leaves in a
/// zero register (polynomial 0xEDB88320, reflected). Row 0 is the
/// bytewise table; rows 1–3 let four input bytes be folded in with four
/// independent lookups instead of four dependent ones.
static CRC32: [[u32; 256]; 4] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected), four bytes a step.
pub fn crc32(data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<4>();
    let mut crc = 0xFFFF_FFFFu32;
    for w in words {
        let x = crc
            ^ (u32::from(w[0])
                | u32::from(w[1]) << 8
                | u32::from(w[2]) << 16
                | u32::from(w[3]) << 24);
        crc = CRC32[3][(x & 0xFF) as usize]
            ^ CRC32[2][(x >> 8 & 0xFF) as usize]
            ^ CRC32[1][(x >> 16 & 0xFF) as usize]
            ^ CRC32[0][(x >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC32[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One decoded driver snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Endpoint generation of the writing incarnation.
    pub incarnation: u32,
    /// Monotone per-key checkpoint sequence.
    pub seq: u64,
    /// Driver-defined state bytes.
    pub payload: Vec<u8>,
}

/// Why a snapshot frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Frame shorter than header + trailer.
    Truncated,
    /// Bad magic or unknown version.
    BadHeader,
    /// Declared payload length disagrees with the frame size.
    BadLength,
    /// CRC-32 mismatch.
    BadCrc,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnapshotError::Truncated => "truncated frame",
            SnapshotError::BadHeader => "bad magic/version",
            SnapshotError::BadLength => "length mismatch",
            SnapshotError::BadCrc => "crc mismatch",
        };
        f.write_str(s)
    }
}

impl Snapshot {
    /// Builds a snapshot frame.
    pub fn new(incarnation: u32, seq: u64, payload: Vec<u8>) -> Self {
        Snapshot {
            incarnation,
            seq,
            payload,
        }
    }

    /// Convenience for the common watermark-only snapshot.
    pub fn watermark(incarnation: u32, seq: u64, consumed: u64) -> Self {
        let mut w = Writer::with_capacity(8);
        w.u64(consumed);
        Snapshot::new(incarnation, seq, w.into_bytes())
    }

    /// Reads the payload back as a little-endian `u64` watermark; `None`
    /// if the payload is not exactly 8 bytes.
    pub fn as_watermark(&self) -> Option<u64> {
        let mut r = Reader::new(&self.payload);
        let consumed = r.u64()?;
        r.finish()?;
        Some(consumed)
    }

    /// Encodes the frame: `"PCKP" version:u8 incarnation:u32 seq:u64`,
    /// the payload behind a `u32` length, and the CRC-32 of all of that.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        w.raw(&MAGIC);
        w.u8(VERSION);
        w.u32(self.incarnation);
        w.u64(self.seq);
        w.bytes(Len::U32, &self.payload);
        w.u32(crc32(w.written()));
        w.into_bytes()
    }

    /// Decodes and validates a frame.
    pub fn decode(wire: &[u8]) -> Result<Snapshot, SnapshotError> {
        if wire.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let (body, trailer) = wire.split_at(wire.len() - TRAILER_LEN);
        let mut r = Reader::new(body);
        if r.take(MAGIC.len()) != Some(&MAGIC[..]) || r.u8() != Some(VERSION) {
            return Err(SnapshotError::BadHeader);
        }
        if Reader::new(trailer).u32() != Some(crc32(body)) {
            return Err(SnapshotError::BadCrc);
        }
        let mut fields = || {
            let snap = Snapshot::new(r.u32()?, r.u64()?, r.bytes(Len::U32)?.to_vec());
            r.finish()?;
            Some(snap)
        };
        fields().ok_or(SnapshotError::BadLength)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `crc32` one bit at a time, as the polynomial defines it.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bitwise_loop() {
        let mut data = vec![0u8; 5003];
        phoenix_simcore::rng::SimRng::new(32).fill_bytes(&mut data);
        let lengths = (0..=200).chain(1459..=1461).chain(4999..=5000);
        for len in lengths {
            for at in 0..4 {
                let d = &data[at..at + len];
                assert_eq!(crc32(d), crc32_bitwise(d), "{len} bytes at offset {at}");
            }
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = Snapshot::new(3, 17, vec![1, 2, 3, 4, 5]);
        let wire = s.encode();
        assert_eq!(Snapshot::decode(&wire), Ok(s));
    }

    #[test]
    fn watermark_helpers_round_trip() {
        let s = Snapshot::watermark(1, 2, 0xDEAD_BEEF);
        assert_eq!(s.as_watermark(), Some(0xDEAD_BEEF));
        assert_eq!(Snapshot::new(1, 2, vec![0; 3]).as_watermark(), None);
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let mut wire = Snapshot::watermark(2, 9, 4096).encode();
        wire[HEADER_LEN] ^= 0x01;
        assert_eq!(Snapshot::decode(&wire), Err(SnapshotError::BadCrc));
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let wire = Snapshot::watermark(2, 9, 4096).encode();
        assert_eq!(
            Snapshot::decode(&wire[..HEADER_LEN]),
            Err(SnapshotError::Truncated)
        );
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert_eq!(Snapshot::decode(&bad), Err(SnapshotError::BadHeader));
    }

    /// A frame whose CRC is right but whose length field disagrees with
    /// the bytes present — one short, one trailing — is not adopted.
    #[test]
    fn a_well_sealed_frame_of_the_wrong_length_is_rejected() {
        let reseal = |mut body: Vec<u8>| {
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        let wire = Snapshot::new(2, 9, vec![1, 2, 3]).encode();
        let body = &wire[..wire.len() - TRAILER_LEN];
        assert!(Snapshot::decode(&reseal(body.to_vec())).is_ok());
        let short = reseal(body[..body.len() - 1].to_vec());
        assert_eq!(Snapshot::decode(&short), Err(SnapshotError::BadLength));
        let mut long = body.to_vec();
        long.push(0);
        assert_eq!(
            Snapshot::decode(&reseal(long)),
            Err(SnapshotError::BadLength)
        );
    }
}
