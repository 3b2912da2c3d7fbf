//! LEB128 variable-length integers, shared by the binary graph format
//! ([`crate::io`]) and the delta+RLE world store ([`crate::compressed`]).
//!
//! Encoding is canonical: 7 value bits per byte, least-significant group
//! first, high bit set on every byte except the last, and no redundant
//! trailing zero groups. Canonicality is what makes "write → read →
//! re-write" byte-identical for the binary graph format.

use std::io::{self, Read, Write};

/// Appends the canonical LEB128 encoding of `v` to `buf`.
pub(crate) fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

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

/// Decodes one LEB128 integer from the front of `bytes`, returning the
/// value and the number of bytes consumed. Used by the in-memory world
/// store, where `InvalidData` indicates internal corruption.
///
/// # Panics
/// Panics if `bytes` ends mid-integer or overflows (the compressed world
/// store writes only canonical varints, so this is a logic error).
pub(crate) fn decode_u64(bytes: &[u8]) -> (u64, usize) {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        let group = u64::from(b & 0x7f);
        assert!(
            shift < 64 && !(shift == 63 && group > 1),
            "varint overflows u64"
        );
        v |= group << shift;
        if b & 0x80 == 0 {
            return (v, i + 1);
        }
        shift += 7;
    }
    panic!("truncated varint");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        push_u64(&mut buf, 0);
        assert_eq!(buf, [0x00]);
        buf.clear();
        push_u64(&mut buf, 127);
        assert_eq!(buf, [0x7f]);
        buf.clear();
        push_u64(&mut buf, 128);
        assert_eq!(buf, [0x80, 0x01]);
        buf.clear();
        push_u64(&mut buf, 300);
        assert_eq!(buf, [0xac, 0x02]);
        buf.clear();
        push_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn writer_matches_push() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX / 3, u64::MAX] {
            let mut pushed = Vec::new();
            push_u64(&mut pushed, v);
            let mut written = Vec::new();
            write_u64(&mut written, v).unwrap();
            assert_eq!(pushed, written);
        }
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
            let mut buf = Vec::new();
            push_u64(&mut buf, v);
            let (decoded, used) = decode_u64(&buf);
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(used, buf.len());
            let mut cursor = std::io::Cursor::new(&buf);
            prop_assert_eq!(read_u64(&mut cursor).unwrap(), v);
        }
    }
}
