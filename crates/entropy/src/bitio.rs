//! MSB-first bit stream I/O.
//!
//! Canonical Huffman codes are assigned numerically increasing values per
//! length, which makes MSB-first packing the natural order for fast
//! prefix-code decoding.

use crate::{EntropyError, Result};

/// Append-only bit writer (MSB-first within each byte).
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the final byte (0..8).
    used: u32,
}

impl BitWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `nbits` of `value`, most significant of those first.
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        debug_assert!(nbits == 64 || value < (1u64 << nbits));
        let mut remaining = nbits;
        while remaining > 0 {
            if self.used == 0 {
                self.buf.push(0);
            }
            let space = 8 - self.used;
            let take = remaining.min(space);
            let shift = remaining - take;
            let chunk = ((value >> shift) & ((1u64 << take) - 1)) as u8;
            let last = self.buf.last_mut().expect("pushed above");
            *last |= chunk << (space - take);
            self.used = (self.used + take) % 8;
            remaining -= take;
        }
    }

    /// Write one bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Number of whole bytes produced so far (including the partial one).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Finish, returning the packed bytes (trailing bits are zero).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bit reader matching [`BitWriter`]'s order.
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit index.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from `buf` starting at its first bit.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Total bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Read `nbits` bits MSB-first.
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64> {
        if nbits as usize > self.remaining_bits() {
            return Err(EntropyError::Malformed(format!(
                "bit stream exhausted: wanted {nbits}, have {}",
                self.remaining_bits()
            )));
        }
        let mut out = 0u64;
        for _ in 0..nbits {
            let byte = self.buf[self.pos >> 3];
            let bit = byte >> (7 - (self.pos & 7)) & 1;
            out = (out << 1) | bit as u64;
            self.pos += 1;
        }
        Ok(out)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFF, 8);
        w.write_bits(0, 1);
        w.write_bits(0x1234, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(16).unwrap(), 0x1234);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut r = BitReader::new(&[0xAB]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        let b = w.into_bytes();
        assert_eq!(b, vec![0b1000_0000]);
    }

    proptest! {
        #[test]
        fn roundtrip_random(fields in prop::collection::vec((0u64..u64::MAX, 1u32..64), 0..100)) {
            let mut w = BitWriter::new();
            let mut expect = Vec::new();
            for (v, n) in fields {
                let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(v, n);
                expect.push((v, n));
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for (v, n) in expect {
                prop_assert_eq!(r.read_bits(n).unwrap(), v);
            }
        }
    }
}
