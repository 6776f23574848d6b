//! The XDR encoder: big-endian, 4-byte aligned output.

use crate::pad_len;

/// Append-only XDR output buffer.
#[derive(Default, Debug, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates an encoder that appends to `buf`, keeping its capacity —
    /// for encoding into a recycled buffer.
    pub fn from_vec(buf: Vec<u8>) -> Encoder {
        Encoder { buf }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a 32-bit unsigned integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a 32-bit signed integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a 64-bit unsigned integer (XDR "unsigned hyper").
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as a 32-bit 0/1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Appends variable-length opaque data: length word, bytes, zero pad.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Appends fixed-length opaque data (no length word), zero padded.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.buf
            .extend(std::iter::repeat_n(0u8, pad_len(data.len())));
    }

    /// Appends a counted-length opaque of `len` **zero** bytes.
    ///
    /// The simulation models payload costs without materialising real file
    /// contents; this writes an honest wire image for a zero-filled
    /// payload in O(len) time with one extend.
    pub fn put_opaque_zeroes(&mut self, len: usize) {
        self.put_u32(len as u32);
        self.buf
            .extend(std::iter::repeat_n(0u8, len + pad_len(len)));
    }

    /// Appends an ASCII/UTF-8 string as XDR string.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, yielding the wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the wire bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_is_big_endian() {
        let mut e = Encoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(e.bytes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn i32_two_complement() {
        let mut e = Encoder::new();
        e.put_i32(-1);
        assert_eq!(e.bytes(), &[0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn u64_is_big_endian() {
        let mut e = Encoder::new();
        e.put_u64(0x0102_0304_0506_0708);
        assert_eq!(e.bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn opaque_pads_to_four() {
        let mut e = Encoder::new();
        e.put_opaque(&[0xaa, 0xbb, 0xcc]);
        assert_eq!(e.bytes(), &[0, 0, 0, 3, 0xaa, 0xbb, 0xcc, 0]);
    }

    #[test]
    fn opaque_aligned_needs_no_pad() {
        let mut e = Encoder::new();
        e.put_opaque(&[1, 2, 3, 4]);
        assert_eq!(e.len(), 8);
    }

    #[test]
    fn opaque_fixed_has_no_length_word() {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&[9, 9]);
        assert_eq!(e.bytes(), &[9, 9, 0, 0]);
    }

    #[test]
    fn opaque_zeroes_matches_real_opaque() {
        let mut a = Encoder::new();
        a.put_opaque_zeroes(10);
        let mut b = Encoder::new();
        b.put_opaque(&[0u8; 10]);
        assert_eq!(a.bytes(), b.bytes());
    }

    #[test]
    fn string_encoding() {
        let mut e = Encoder::new();
        e.put_string("hello");
        assert_eq!(
            e.bytes(),
            &[0, 0, 0, 5, b'h', b'e', b'l', b'l', b'o', 0, 0, 0]
        );
    }

    #[test]
    fn bool_encoding() {
        let mut e = Encoder::new();
        e.put_bool(true);
        e.put_bool(false);
        assert_eq!(e.bytes(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn from_vec_appends_and_keeps_capacity() {
        let mut buf = Vec::with_capacity(64);
        buf.push(7);
        let mut e = Encoder::from_vec(buf);
        e.reserve(32);
        e.put_u32(1);
        assert_eq!(e.bytes(), &[7, 0, 0, 0, 1]);
        assert!(e.into_bytes().capacity() >= 64);
    }

    #[test]
    fn with_capacity_and_empty() {
        let e = Encoder::with_capacity(64);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
