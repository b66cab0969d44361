//! The cursor pair under every sequential byte layout: externalised
//! server state, checkpoint frames, fleet node snapshots.
//!
//! State that outlives a process is a contract between incarnations, and
//! its reader runs on a recovery path over bytes a dying process may
//! have damaged. So the reader is total: every getter is bounds-checked
//! and returns `None` rather than index, a string must be valid UTF-8,
//! and [`Reader::finish`] rejects a frame with bytes left over. The
//! writer is the mirror image: a length or count that does not fit its
//! prefix is clamped and only that much is written, so what it produces
//! always decodes. All integers are little-endian.
//!
//! Fixed-offset layouts (on-disk superblocks and inodes, segment
//! headers, device registers) index by position and do not use this.

/// Width of a length or count prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Len {
    /// One byte.
    U8,
    /// Two bytes.
    U16,
    /// Four bytes.
    U32,
}

impl Len {
    /// The largest value the prefix can express.
    fn max(self) -> usize {
        match self {
            Len::U8 => usize::from(u8::MAX),
            Len::U16 => usize::from(u16::MAX),
            Len::U32 => usize::try_from(u32::MAX).unwrap_or(usize::MAX),
        }
    }
}

/// A borrowing read cursor; every getter consumes what it returns.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn len(&mut self, prefix: Len) -> Option<usize> {
        match prefix {
            Len::U8 => self.u8().map(usize::from),
            Len::U16 => self.u16().map(usize::from),
            Len::U32 => usize::try_from(self.u32()?).ok(),
        }
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, prefix: Len) -> Option<&'a [u8]> {
        let n = self.len(prefix)?;
        self.take(n)
    }

    /// A length-prefixed string; invalid UTF-8 is rejected, not replaced.
    pub fn str(&mut self, prefix: Len) -> Option<&'a str> {
        std::str::from_utf8(self.bytes(prefix)?).ok()
    }

    /// A count-prefixed sequence of whatever `get` reads, collected into
    /// what the caller keeps it in. Nothing is allocated up front, so a
    /// garbage count costs no memory.
    pub fn seq<T, C: FromIterator<T>>(
        &mut self,
        prefix: Len,
        mut get: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<C> {
        let n = self.len(prefix)?;
        (0..n).map(|_| get(self)).collect()
    }

    /// The end of the frame: fails if any byte is left unread.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

/// An appending write cursor over one `Vec<u8>`.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// An empty frame.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty frame with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            out: Vec::with_capacity(n),
        }
    }

    /// An empty frame in `out`'s allocation, with room for `n` bytes: it
    /// allocates only when `out` has less room than that.
    pub fn reusing(mut out: Vec<u8>, n: usize) -> Self {
        out.clear();
        out.reserve_exact(n);
        Writer { out }
    }

    /// What has been written so far (to checksum it before the trailer).
    pub fn written(&self) -> &[u8] {
        &self.out
    }

    /// The finished frame.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Bytes as they are, no prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes `n` clamped to what the prefix can express and returns the
    /// clamped value: the caller writes exactly that many items.
    fn len(&mut self, prefix: Len, n: usize) -> usize {
        let n = n.min(prefix.max());
        match prefix {
            Len::U8 => self.u8(u8::try_from(n).unwrap_or(u8::MAX)),
            Len::U16 => self.u16(u16::try_from(n).unwrap_or(u16::MAX)),
            Len::U32 => self.u32(u32::try_from(n).unwrap_or(u32::MAX)),
        }
        n
    }

    /// A length-prefixed byte string, cut to what the prefix can express.
    pub fn bytes(&mut self, prefix: Len, bytes: &[u8]) {
        let n = self.len(prefix, bytes.len());
        self.raw(&bytes[..n]);
    }

    /// A length-prefixed string, cut at the last character boundary the
    /// prefix can express.
    pub fn str(&mut self, prefix: Len, s: &str) {
        let mut n = s.len().min(prefix.max());
        while !s.is_char_boundary(n) {
            n -= 1;
        }
        self.bytes(prefix, &s.as_bytes()[..n]);
    }

    /// A count-prefixed sequence: the count, then `put` for each item,
    /// stopping at what the prefix can express.
    pub fn seq<T>(
        &mut self,
        prefix: Len,
        items: impl ExactSizeIterator<Item = T>,
        mut put: impl FnMut(&mut Self, T),
    ) {
        let n = self.len(prefix, items.len());
        for item in items.take(n) {
            put(self, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each fixed-width getter: exact length reads and empties the
    /// cursor, one byte short fails.
    #[test]
    fn integers_at_exact_length_and_one_short() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        fn check<'a, T: PartialEq + std::fmt::Debug>(
            bytes: &'a [u8],
            get: fn(&mut Reader<'a>) -> Option<T>,
            want: T,
        ) {
            let mut r = Reader::new(bytes);
            assert_eq!(get(&mut r), Some(want));
            assert_eq!(r.finish(), Some(()));
            let mut short = Reader::new(&bytes[..bytes.len() - 1]);
            assert_eq!(get(&mut short), None);
        }
        check(&bytes[..1], Reader::u8, 1);
        check(&bytes[..2], Reader::u16, 0x0201);
        check(&bytes[..4], Reader::u32, 0x0403_0201);
        check(&bytes[..8], Reader::u64, 0x0807_0605_0403_0201);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take(8), Some(&bytes[..]));
        assert_eq!(Reader::new(&bytes).take(9), None);
    }

    #[test]
    fn a_failed_getter_consumes_nothing() {
        let mut r = Reader::new(&[7, 0, 9]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u16(), Some(7));
    }

    #[test]
    fn prefixed_fields_at_exact_length_and_one_short() {
        for prefix in [Len::U8, Len::U16, Len::U32] {
            let mut w = Writer::new();
            w.bytes(prefix, b"abc");
            w.str(prefix, "d\u{e9}");
            let wire = w.into_bytes();
            let mut r = Reader::new(&wire);
            assert_eq!(r.bytes(prefix), Some(&b"abc"[..]));
            assert_eq!(r.str(prefix), Some("d\u{e9}"));
            assert_eq!(r.finish(), Some(()));
            let mut short = Reader::new(&wire[..wire.len() - 1]);
            assert_eq!(short.bytes(prefix), Some(&b"abc"[..]));
            assert_eq!(short.str(prefix), None);
        }
    }

    #[test]
    fn finish_rejects_leftover_bytes() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.finish(), None);
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = Writer::new();
        w.bytes(Len::U8, &[b'o', 0xFF, b'k']);
        let wire = w.into_bytes();
        assert_eq!(Reader::new(&wire).str(Len::U8), None);
        assert!(Reader::new(&wire).bytes(Len::U8).is_some());
    }

    #[test]
    fn an_overlong_field_is_cut_where_the_prefix_ends() {
        let mut w = Writer::new();
        w.bytes(Len::U8, &[7u8; 300]);
        // 254 ASCII bytes, then a two-byte character straddling 255.
        let name = "n".repeat(254) + "\u{e9}tail";
        w.str(Len::U8, &name);
        let wire = w.into_bytes();
        let mut r = Reader::new(&wire);
        assert_eq!(r.bytes(Len::U8), Some(&[7u8; 255][..]));
        assert_eq!(r.str(Len::U8), Some(&name[..254]));
        assert_eq!(r.finish(), Some(()));
    }

    #[test]
    fn sequences_round_trip_and_clamp_their_count() {
        let mut w = Writer::new();
        w.seq(Len::U16, [3u32, 4, 5].into_iter(), Writer::u32);
        w.seq(Len::U8, (0..300u16).map(|i| i as u8), Writer::u8);
        let wire = w.into_bytes();
        let mut r = Reader::new(&wire);
        assert_eq!(r.seq(Len::U16, Reader::u32), Some(vec![3, 4, 5]));
        let bytes: Vec<u8> = r.seq(Len::U8, Reader::u8).expect("255 of them");
        assert_eq!(bytes.len(), 255);
        assert_eq!(r.finish(), Some(()));
        // A count the bytes cannot back fails without allocating for it.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 1];
        let got: Option<Vec<u64>> = Reader::new(&huge).seq(Len::U32, Reader::u64);
        assert_eq!(got, None);
    }
}
