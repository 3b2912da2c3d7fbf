//! LEB128 variable-length integers for the binary graph format
//! ([`crate::io`]).
//!
//! Encoding is canonical: 7 value bits per byte, least-significant group
//! first, high bit set on every byte except the last, and no redundant
//! trailing zero groups. Canonicality is what makes "write → read →
//! re-write" byte-identical for the binary graph format.

use std::io::{self, Read, Write};

/// Writes the canonical LEB128 encoding of `v` to `w`.
pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    let mut buf = [0u8; 10]; // ceil(64 / 7) bytes max
    let mut n = 0;
    let mut v = v;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            n += 1;
            break;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
    w.write_all(&buf[..n])
}

/// Reads one LEB128 integer from `r`.
///
/// # Errors
/// `UnexpectedEof` when the stream ends mid-integer, `InvalidData` when
/// the encoding overflows 64 bits or is non-canonical (a redundant
/// all-zero continuation group).
pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        let group = u64::from(b & 0x7f);
        if shift >= 64 || (shift == 63 && group > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        v |= group << shift;
        if b & 0x80 == 0 {
            if b == 0 && shift > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "non-canonical varint (redundant zero group)",
                ));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_u64(&mut buf, v).unwrap();
        buf
    }

    #[test]
    fn known_encodings() {
        assert_eq!(encode(0), [0x00]);
        assert_eq!(encode(127), [0x7f]);
        assert_eq!(encode(128), [0x80, 0x01]);
        assert_eq!(encode(300), [0xac, 0x02]);
        assert_eq!(encode(u64::MAX).len(), 10);
    }

    #[test]
    fn rejects_truncated_and_overflowing() {
        let mut cursor = std::io::Cursor::new(vec![0x80u8]);
        assert_eq!(
            read_u64(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // 11 continuation bytes: > 64 bits.
        let mut cursor = std::io::Cursor::new(
            vec![0x80u8; 10]
                .into_iter()
                .chain([0x02])
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            read_u64(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Redundant zero group: 0x80 0x00 decodes to 0 but is non-canonical.
        let mut cursor = std::io::Cursor::new(vec![0x80u8, 0x00]);
        assert_eq!(
            read_u64(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    proptest! {
        #[test]
        fn roundtrip(v in any::<u64>()) {
            let buf = encode(v);
            let mut cursor = std::io::Cursor::new(&buf);
            prop_assert_eq!(read_u64(&mut cursor).unwrap(), v);
            prop_assert_eq!(cursor.position() as usize, buf.len());
        }
    }
}
