//! Minimal MD5 and SHA-1 implementations.
//!
//! The paper verifies data integrity across driver crashes by comparing MD5
//! checksums of a downloaded file (Fig. 7) and SHA-1 checksums of a disk
//! read (Fig. 8). These streaming implementations let the experiment harness
//! do the same without an external dependency. They are for *integrity
//! checking inside the simulation only* — do not use them for security.

/// The 64-byte block buffer MD5 and SHA-1 share: the input `update` has
/// not compressed yet, and the message length the padding ends on.
#[derive(Debug, Clone)]
struct Blocks {
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Blocks {
    fn new() -> Self {
        Blocks {
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Hands `compress` every whole block of the buffered input followed
    /// by `data`, borrowed from `data` wherever a block lies inside it.
    fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[u8; 64])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&self.buf);
        }
        let (blocks, tail) = data.as_chunks::<64>();
        blocks.iter().for_each(&mut compress);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads the message — `0x80`, zeros up to 56 mod 64, the bit length as
    /// `len_bytes` spells it — and compresses the one or two blocks left.
    fn finish(&mut self, len_bytes: fn(u64) -> [u8; 8], mut compress: impl FnMut(&[u8; 64])) {
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&len_bytes(self.total_len.wrapping_mul(8)));
        compress(&self.buf);
    }
}

/// Streaming MD5 (RFC 1321).
///
/// # Example
///
/// ```
/// use phoenix_simcore::digest::Md5;
///
/// let mut h = Md5::new();
/// h.update(b"abc");
/// assert_eq!(h.finish_hex(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    blocks: Blocks,
}

const MD5_S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const MD5_K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// One MD5 block: four groups of sixteen steps, every message index,
/// shift and constant fixed at compile time. Step `i` is
/// `a = b + rol(a + f(b, c, d) + K[i] + m[g(i)], S[i])` and the four
/// names change role from one step to the next instead of being shuffled.
fn md5_compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (m, c) in m.iter_mut().zip(block.chunks_exact(4)) {
        *m = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    macro_rules! step {
        ($f:expr, $a:ident, $b:ident, $c:ident, $d:ident, $i:expr, $g:expr) => {
            $a = $b.wrapping_add(
                $a.wrapping_add($f($b, $c, $d))
                    .wrapping_add(MD5_K[$i])
                    .wrapping_add(m[$g % 16])
                    .rotate_left(MD5_S[$i]),
            );
        };
    }
    // Four steps from each `$i`, which bring every name back to its own
    // role; `$g` maps a step to its message word.
    macro_rules! group {
        ($f:expr, $g:expr, [$($i:expr),+] $(,)?) => {$(
            step!($f, a, b, c, d, $i, $g($i));
            step!($f, d, a, b, c, $i + 1, $g($i + 1));
            step!($f, c, d, a, b, $i + 2, $g($i + 2));
            step!($f, b, c, d, a, $i + 3, $g($i + 3));
        )+};
    }
    group!(
        |x: u32, y: u32, z: u32| z ^ (x & (y ^ z)),
        |i: usize| i,
        [0, 4, 8, 12],
    );
    group!(
        |x: u32, y: u32, z: u32| y ^ (z & (x ^ y)),
        |i: usize| 5 * i + 1,
        [16, 20, 24, 28],
    );
    group!(
        |x: u32, y: u32, z: u32| x ^ y ^ z,
        |i: usize| 3 * i + 5,
        [32, 36, 40, 44],
    );
    group!(
        |x: u32, y: u32, z: u32| y ^ (x | !z),
        |i: usize| 7 * i,
        [48, 52, 56, 60],
    );
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            blocks: Blocks::new(),
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.blocks.update(data, |b| md5_compress(state, b));
    }

    /// Consumes the hasher and returns the 16-byte digest.
    pub fn finish(mut self) -> [u8; 16] {
        let state = &mut self.state;
        self.blocks
            .finish(u64::to_le_bytes, |b| md5_compress(state, b));
        let mut out = [0u8; 16];
        for (o, s) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Consumes the hasher and returns the digest as lowercase hex.
    pub fn finish_hex(self) -> String {
        to_hex(&self.finish())
    }

    /// Hashes `data` in one call.
    pub fn digest(data: &[u8]) -> [u8; 16] {
        let mut h = Md5::new();
        h.update(data);
        h.finish()
    }
}

/// Formatted text hashes as its UTF-8 bytes, written straight into the
/// hasher: `write!(md5, "{k}={v}\n")` hashes what `format!` would have
/// built, without the `String`.
impl std::fmt::Write for Md5 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Streaming SHA-1 (RFC 3174).
///
/// # Example
///
/// ```
/// use phoenix_simcore::digest::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(h.finish_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    blocks: Blocks,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

/// Word `i` of the SHA-1 message schedule, kept in a 16-word circle:
/// from round 16 on a word is computed over the slot of the word sixteen
/// rounds back, the last round that needs that one.
#[inline(always)]
fn sha1_word(w: &mut [u32; 16], i: usize) -> u32 {
    if i >= 16 {
        w[i % 16] =
            (w[(i + 13) % 16] ^ w[(i + 8) % 16] ^ w[(i + 2) % 16] ^ w[i % 16]).rotate_left(1);
    }
    w[i % 16]
}

/// One SHA-1 block, eighty rounds with every index fixed at compile time.
/// A round is `e += rol5(a) + f(b, c, d) + k + w; b = rol30(b)` and the
/// five names change role from one round to the next instead of being
/// shuffled, so five rounds bring every name back to its own role.
fn sha1_compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (w, c) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    macro_rules! round {
        ($f:expr, $k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $i:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(sha1_word(&mut w, $i));
            $b = $b.rotate_left(30);
        };
    }
    // Twenty rounds under one `f` and `k`, five from each `$i`.
    macro_rules! twenty {
        ($f:expr, $k:expr, [$($i:expr),+] $(,)?) => {$(
            round!($f, $k, a, b, c, d, e, $i);
            round!($f, $k, e, a, b, c, d, $i + 1);
            round!($f, $k, d, e, a, b, c, $i + 2);
            round!($f, $k, c, d, e, a, b, $i + 3);
            round!($f, $k, b, c, d, e, a, $i + 4);
        )+};
    }
    let parity = |x: u32, y: u32, z: u32| x ^ y ^ z;
    twenty!(
        |x: u32, y: u32, z: u32| z ^ (x & (y ^ z)),
        0x5a827999,
        [0, 5, 10, 15],
    );
    twenty!(parity, 0x6ed9eba1, [20, 25, 30, 35]);
    twenty!(
        |x: u32, y: u32, z: u32| (x & y) | (z & (x | y)),
        0x8f1bbcdc,
        [40, 45, 50, 55],
    );
    twenty!(parity, 0xca62c1d6, [60, 65, 70, 75]);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            blocks: Blocks::new(),
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.blocks.update(data, |b| sha1_compress(state, b));
    }

    /// Consumes the hasher and returns the 20-byte digest.
    pub fn finish(mut self) -> [u8; 20] {
        let state = &mut self.state;
        self.blocks
            .finish(u64::to_be_bytes, |b| sha1_compress(state, b));
        let mut out = [0u8; 20];
        for (o, s) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    /// Consumes the hasher and returns the digest as lowercase hex.
    pub fn finish_hex(self) -> String {
        to_hex(&self.finish())
    }

    /// Hashes `data` in one call.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finish()
    }
}

/// Renders bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Formatted text hashes as the bytes `format!` would have built,
    /// however the formatter splits it into pieces.
    #[test]
    fn md5_hashes_formatted_text_as_its_bytes() {
        use std::fmt::Write as _;
        let mut written = Md5::new();
        for (name, value) in [("node0", "down"), ("fleet.snap.replicated", "6064")] {
            writeln!(written, "{name}={value}").expect("an Md5 takes any text");
        }
        let fed = Md5::digest(b"node0=down\nfleet.snap.replicated=6064\n");
        assert_eq!(written.finish(), fed);
    }

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn md5_rfc_vectors() {
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(
                Md5::digest(input.as_bytes()),
                parse_hex16(want),
                "md5({input})"
            );
        }
    }

    // RFC 3174 / FIPS 180 vectors.
    #[test]
    fn sha1_vectors() {
        let cases = [
            ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(
                Sha1::digest(input.as_bytes()).to_vec(),
                parse_hex(want),
                "sha1({input})"
            );
        }
    }

    #[test]
    fn sha1_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finish_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 999, 1000] {
            let mut m = Md5::new();
            m.update(&data[..split]);
            m.update(&data[split..]);
            assert_eq!(m.finish(), Md5::digest(&data), "md5 split {split}");
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), Sha1::digest(&data), "sha1 split {split}");
        }
    }

    /// `md5_compress` as RFC 1321 writes it: one loop, the function and
    /// message index picked by round number, the four words shuffled.
    fn md5_compress_loop(state: &mut [u32; 4], block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(MD5_K[i])
                    .wrapping_add(m[g])
                    .rotate_left(MD5_S[i]),
            );
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }

    /// `sha1_compress` as RFC 3174 writes it: an 80-word schedule and one
    /// loop, the function and constant picked by round number.
    fn sha1_compress_loop(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5a827999),
                1 => (b ^ c ^ d, 0x6ed9eba1),
                2 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    /// The unrolled compressions against the loop forms, chained: each
    /// block starts from the state the previous one left.
    #[test]
    fn unrolled_compress_equals_the_loop_form() {
        let mut rng = crate::rng::SimRng::new(0xD16E57);
        let (mut md5, mut md5_ref) = (Md5::new().state, Md5::new().state);
        let (mut sha1, mut sha1_ref) = (Sha1::new().state, Sha1::new().state);
        for i in 0..1000 {
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            md5_compress(&mut md5, &block);
            md5_compress_loop(&mut md5_ref, &block);
            assert_eq!(md5, md5_ref, "md5 block {i}");
            sha1_compress(&mut sha1, &block);
            sha1_compress_loop(&mut sha1_ref, &block);
            assert_eq!(sha1, sha1_ref, "sha1 block {i}");
        }
    }

    /// Padding at every buffered length: 55 is the last that fits one
    /// block, 56..=63 spill the length into a second.
    #[test]
    fn padding_at_every_tail_length() {
        let data = [0x61u8; 130];
        for len in 0..=data.len() {
            let mut bytewise = Sha1::new();
            let mut md5_bytewise = Md5::new();
            for b in &data[..len] {
                bytewise.update(std::slice::from_ref(b));
                md5_bytewise.update(std::slice::from_ref(b));
            }
            assert_eq!(bytewise.finish(), Sha1::digest(&data[..len]), "sha1 {len}");
            assert_eq!(
                md5_bytewise.finish(),
                Md5::digest(&data[..len]),
                "md5 {len}"
            );
        }
        // 56 and 64 'a's, from an independent implementation.
        assert_eq!(
            to_hex(&Sha1::digest(&data[..56])),
            "c2db330f6083854c99d4b5bfb6e8f29f201be699"
        );
        assert_eq!(
            to_hex(&Md5::digest(&data[..64])),
            "014842d480b571495a4a0363793f7367"
        );
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x0a]), "00ff0a");
    }

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn parse_hex16(s: &str) -> [u8; 16] {
        parse_hex(s).try_into().unwrap()
    }
}
