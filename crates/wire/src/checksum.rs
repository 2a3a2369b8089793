//! The Internet checksum (RFC 1071) used by IPv4, TCP and ICMP.
//!
//! The checksum is the 16-bit ones'-complement of the ones'-complement sum
//! of the data, taken in big-endian 16-bit words with an implicit zero pad
//! byte when the length is odd.
//!
//! Byte buffers are summed eight bytes at a time in native byte order
//! with end-around carry (in four interleaved lanes), folded to 16 bits and byte-swapped on
//! little-endian hosts (RFC 1071 §2(B): the ones'-complement sum is
//! independent of byte order up to that swap, and wider words only
//! defer the folding). The result is the same as summing big-endian
//! 16-bit words one by one.

/// Incremental ones'-complement accumulator.
///
/// Sections of a packet (pseudo-header, header, payload) can be folded in
/// one after another; [`Checksum::finish`] produces the final checksum
/// field value.
///
/// ```
/// use tcpa_wire::checksum::Checksum;
/// let mut ck = Checksum::new();
/// ck.add_bytes(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
/// assert_eq!(ck.finish(), !0xddf2u16);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    /// Sum of big-endian 16-bit words, folded lazily by `finish`.
    sum: u64,
}

impl Checksum {
    /// Creates an accumulator with a zero running sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a byte slice into the running sum. Odd-length slices are
    /// padded with a zero byte, per RFC 1071; callers must therefore only
    /// pass odd-length slices as the *final* section.
    pub fn add_bytes(&mut self, data: &[u8]) {
        // Four lanes keep each carry chain a quarter as long, so the CPU
        // can overlap them.
        let mut lanes = [0u64; 4];
        let (blocks, rest) = data.as_chunks::<32>();
        for block in blocks {
            let (words, _) = block.as_chunks::<8>();
            for (lane, word) in lanes.iter_mut().zip(words) {
                *lane = add_carry(*lane, u64::from_ne_bytes(*word));
            }
        }
        let mut acc = lanes.into_iter().fold(0, add_carry);
        let (words, tail) = rest.as_chunks::<8>();
        for word in words {
            acc = add_carry(acc, u64::from_ne_bytes(*word));
        }
        // The tail, zero-padded: a whole number of 16-bit words plus, for
        // an odd length, the RFC's zero pad byte.
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        acc = add_carry(acc, u64::from_ne_bytes(last));
        // Fold 64 → 16 bits with end-around carry; a nonzero sum never
        // folds to zero, just as with 16-bit words.
        let acc = add_carry32(acc as u32, (acc >> 32) as u32);
        let acc = add_carry16(acc as u16, (acc >> 16) as u16);
        // Native-order lanes hold byte-swapped words on little-endian.
        self.sum += u64::from(u16::from_be(acc));
    }

    /// Folds one big-endian 16-bit word into the running sum.
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u64::from(word);
    }

    /// Folds a 32-bit value as two 16-bit words.
    pub fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        self.add_u16(word as u16);
    }

    /// Reduces the running sum and returns the checksum field value
    /// (the complement of the folded sum).
    pub fn finish(mut self) -> u16 {
        while self.sum > 0xffff {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
        !(self.sum as u16)
    }
}

/// Ones'-complement addition of two 64-bit words.
fn add_carry(a: u64, b: u64) -> u64 {
    let (sum, carry) = a.overflowing_add(b);
    sum + u64::from(carry)
}

fn add_carry32(a: u32, b: u32) -> u32 {
    let (sum, carry) = a.overflowing_add(b);
    sum + u32::from(carry)
}

fn add_carry16(a: u16, b: u16) -> u16 {
    let (sum, carry) = a.overflowing_add(b);
    sum + u16::from(carry)
}

/// Computes the checksum of a single contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut ck = Checksum::new();
    ck.add_bytes(data);
    ck.finish()
}

/// Verifies a buffer whose checksum field is *included* in `data`.
///
/// A correct buffer folds to `0xffff` before complementing, i.e. the
/// computed checksum over the whole buffer is zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7 sum to ddf2
        // (after folding), so the checksum field is !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        assert_eq!(checksum(&[0xab, 0x00]), !0xab00);
    }

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_round_trip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        // Insert a checksum so the whole buffer verifies.
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn incremental_equals_contiguous() {
        let data: Vec<u8> = (0u16..200).map(|i| (i * 7) as u8).collect();
        let mut inc = Checksum::new();
        inc.add_bytes(&data[..100]);
        inc.add_bytes(&data[100..]);
        assert_eq!(inc.finish(), checksum(&data));
    }

    #[test]
    fn uniform_buffers_at_every_length_and_alignment() {
        let (zeros, ones) = ([0u8; 80], [0xffu8; 80]);
        for start in 0..8 {
            for len in 0..=64 {
                // Zeros sum to zero. Ones sum to 0xffff, or to 0xff00 when
                // the odd tail byte is padded; never to zero.
                let expect = match len {
                    0 => 0xffff,
                    n if n % 2 == 1 => 0x00ff,
                    _ => 0,
                };
                assert_eq!(checksum(&zeros[start..start + len]), 0xffff);
                assert_eq!(checksum(&ones[start..start + len]), expect, "len {len}");
            }
        }
    }

    #[test]
    fn sums_past_a_32_bit_accumulator() {
        // 100 000 words of 0xffff overflow a u32 running sum.
        assert_eq!(checksum(&vec![0xff; 200_000]), 0);
        assert_eq!(checksum(&vec![0xff; 200_001]), 0x00ff);
    }

    #[test]
    fn carry_folding_handles_saturation() {
        // 40 000 words of 0xffff forces multiple folds.
        let data = vec![0xff; 80_000];
        assert_eq!(checksum(&data), 0);
    }
}
