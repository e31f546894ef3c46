//! Physical heap-page codec.
//!
//! Layout (little-endian), `PAGE_HEADER_BYTES` = 32:
//!
//! ```text
//! 0..4    magic  "PIOQ"
//! 4..5    kind   (0 = heap, 1 = index leaf, 2 = index internal)
//! 5..8    reserved
//! 8..16   page_no
//! 16..18  n_rows
//! 18..20  row_bytes
//! 20..24  checksum (FNV-1a over the payload)
//! 24..32  reserved
//! 32..    n_rows × row_bytes payload; each row = C1 (u32) · C2 (u32) · pad
//! ```
//!
//! The simulation charges I/O per page without shipping these bytes; the
//! codec exists so the physical format is real — it backs the real-file
//! calibration path, the integrity tests, and any future persistent layout.

use crate::spec::{TableSpec, PAGE_HEADER_BYTES};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes identifying a pioqo page.
pub const PAGE_MAGIC: u32 = 0x5049_4F51; // "PIOQ" read as LE bytes "QOIP"

/// Page kind tag stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Heap (table) page.
    Heap = 0,
    /// B+-tree leaf page.
    IndexLeaf = 1,
    /// B+-tree internal page.
    IndexInternal = 2,
}

impl PageKind {
    fn from_u8(v: u8) -> Result<PageKind, PageCodecError> {
        match v {
            0 => Ok(PageKind::Heap),
            1 => Ok(PageKind::IndexLeaf),
            2 => Ok(PageKind::IndexInternal),
            other => Err(PageCodecError::BadKind(other)),
        }
    }
}

/// Errors surfaced while decoding a page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageCodecError {
    /// Buffer shorter than a header or than the declared payload.
    Truncated,
    /// Magic mismatch: not a pioqo page.
    BadMagic(u32),
    /// Unknown page kind byte.
    BadKind(u8),
    /// Checksum mismatch: page corrupted.
    Corrupt {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum recomputed from the payload.
        computed: u32,
    },
    /// Row geometry disagrees with the table spec.
    Geometry,
}

impl std::fmt::Display for PageCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageCodecError::Truncated => write!(f, "page image truncated"),
            PageCodecError::BadMagic(m) => write!(f, "bad page magic {m:#x}"),
            PageCodecError::BadKind(k) => write!(f, "unknown page kind {k}"),
            PageCodecError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            PageCodecError::Geometry => write!(f, "row geometry mismatch"),
        }
    }
}

impl std::error::Error for PageCodecError {}

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;
/// `FNV_PRIME^8` (mod 2^32): since `(h ^ 0) · P = h · P`, eight zero bytes
/// fold into the hash as one multiply by this.
const FNV_PRIME_POW8: u32 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

/// FNV-1a (32-bit) over `data`, the checksum of every page payload. A heap
/// row is a few value bytes and a long zero pad, so the input is read eight
/// bytes at a time and an all-zero word costs one multiply; the result is
/// the byte-serial FNV-1a's, bit for bit.
pub(crate) fn fnv1a(data: &[u8]) -> u32 {
    let mut h = FNV_OFFSET;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        if u64::from_ne_bytes(*w) == 0 {
            h = h.wrapping_mul(FNV_PRIME_POW8);
        } else {
            for &b in w {
                h = (h ^ b as u32).wrapping_mul(FNV_PRIME);
            }
        }
    }
    for &b in tail {
        h = (h ^ b as u32).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A decoded heap page: its number and the `(C1, C2)` rows it stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapPage {
    /// Page number within the table.
    pub page_no: u64,
    /// Row values in slot order.
    pub rows: Vec<(u32, u32)>,
}

/// Encode heap page `page_no` of a table described by `spec`, holding
/// `rows` (in slot order). Returns a full `spec.page_size`-byte image.
pub fn encode_heap_page(spec: &TableSpec, page_no: u64, rows: &[(u32, u32)]) -> Bytes {
    assert!(
        rows.len() <= spec.rows_per_page as usize,
        "too many rows for page"
    );
    let row_bytes = spec.row_bytes() as usize;
    let mut out = BytesMut::with_capacity(spec.page_size as usize);
    out.put_u32_le(PAGE_MAGIC);
    out.put_u8(PageKind::Heap as u8);
    out.put_bytes(0, 3);
    out.put_u64_le(page_no);
    out.put_u16_le(rows.len() as u16);
    out.put_u16_le(row_bytes as u16);
    let checksum_at = out.len();
    out.put_u32_le(0); // patched below, once the payload is in place
    out.put_bytes(0, 8);
    debug_assert_eq!(out.len(), PAGE_HEADER_BYTES as usize);
    for &(c1, c2) in rows {
        out.put_u32_le(c1);
        out.put_u32_le(c2);
        out.put_bytes(0, row_bytes - 8);
    }
    let checksum = fnv1a(&out[PAGE_HEADER_BYTES as usize..]);
    out[checksum_at..checksum_at + 4].copy_from_slice(&checksum.to_le_bytes());
    out.put_bytes(0, spec.page_size as usize - out.len());
    out.freeze()
}

/// Decode a heap-page image, verifying magic, kind, geometry and checksum.
pub fn decode_heap_page(spec: &TableSpec, image: &[u8]) -> Result<HeapPage, PageCodecError> {
    if image.len() < PAGE_HEADER_BYTES as usize {
        return Err(PageCodecError::Truncated);
    }
    let mut hdr = &image[..PAGE_HEADER_BYTES as usize];
    let magic = hdr.get_u32_le();
    if magic != PAGE_MAGIC {
        return Err(PageCodecError::BadMagic(magic));
    }
    let kind = PageKind::from_u8(hdr.get_u8())?;
    if kind != PageKind::Heap {
        return Err(PageCodecError::BadKind(kind as u8));
    }
    hdr.advance(3);
    let page_no = hdr.get_u64_le();
    let n_rows = hdr.get_u16_le() as usize;
    let row_bytes = hdr.get_u16_le() as usize;
    let stored = hdr.get_u32_le();

    if row_bytes != spec.row_bytes() as usize || n_rows > spec.rows_per_page as usize {
        return Err(PageCodecError::Geometry);
    }
    let payload_len = n_rows * row_bytes;
    let start = PAGE_HEADER_BYTES as usize;
    if image.len() < start + payload_len {
        return Err(PageCodecError::Truncated);
    }
    let payload = &image[start..start + payload_len];
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(PageCodecError::Corrupt { stored, computed });
    }
    let mut rows = Vec::with_capacity(n_rows);
    for r in 0..n_rows {
        let mut cur = &payload[r * row_bytes..];
        let c1 = cur.get_u32_le();
        let c2 = cur.get_u32_le();
        rows.push((c1, c2));
    }
    Ok(HeapPage { page_no, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TableSpec {
        TableSpec::paper_table(33, 1000, 7)
    }

    fn sample_rows(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32).map(|i| (i * 31 + 1, i * 17 + 5)).collect()
    }

    #[test]
    fn round_trip_full_page() {
        let s = spec();
        let rows = sample_rows(33);
        let img = encode_heap_page(&s, 12, &rows);
        assert_eq!(img.len(), 4096);
        let page = decode_heap_page(&s, &img).expect("decodes");
        assert_eq!(page.page_no, 12);
        assert_eq!(page.rows, rows);
    }

    #[test]
    fn round_trip_partial_last_page() {
        let s = spec();
        let rows = sample_rows(10);
        let img = encode_heap_page(&s, 30, &rows);
        let page = decode_heap_page(&s, &img).expect("decodes");
        assert_eq!(page.rows.len(), 10);
        assert_eq!(page.rows, rows);
    }

    #[test]
    fn detects_corruption() {
        let s = spec();
        let img = encode_heap_page(&s, 0, &sample_rows(33));
        let mut bad = img.to_vec();
        bad[40] ^= 0xFF; // flip a payload byte
        match decode_heap_page(&s, &bad) {
            Err(PageCodecError::Corrupt { .. }) => {}
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn detects_bad_magic_and_truncation() {
        let s = spec();
        let img = encode_heap_page(&s, 0, &sample_rows(1));
        let mut bad = img.to_vec();
        bad[0] ^= 1;
        assert!(matches!(
            decode_heap_page(&s, &bad),
            Err(PageCodecError::BadMagic(_))
        ));
        assert_eq!(
            decode_heap_page(&s, &img[..16]),
            Err(PageCodecError::Truncated)
        );
    }

    #[test]
    fn detects_geometry_mismatch() {
        let t33 = spec();
        let t500 = TableSpec::paper_table(500, 1000, 7);
        let img = encode_heap_page(&t33, 0, &sample_rows(33));
        assert_eq!(decode_heap_page(&t500, &img), Err(PageCodecError::Geometry));
    }

    #[test]
    fn error_display_is_informative() {
        let e = PageCodecError::Corrupt {
            stored: 1,
            computed: 2,
        };
        assert!(format!("{e}").contains("checksum"));
    }

    /// The byte-serial FNV-1a the zero-run version must equal.
    fn fnv1a_bytewise(data: &[u8]) -> u32 {
        data.iter()
            .fold(FNV_OFFSET, |h, &b| (h ^ b as u32).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0x811C_9DC5);
        assert_eq!(fnv1a(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a(b"foobar"), 0xBF9C_F968);
        let row = encode_heap_page(&spec(), 3, &sample_rows(33));
        assert_eq!(fnv1a(&row), fnv1a_bytewise(&row));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any length (most not a multiple of 8) at any share of zero
        /// bytes, from none to all: the zero-run checksum is the
        /// byte-serial one.
        #[test]
        fn fnv1a_skipping_zero_runs_matches_the_byte_serial_reference(
            zero_pct in 0u64..101,
            bytes in proptest::prop::collection::vec((0u64..100, proptest::prelude::any::<u8>()), 0usize..300),
        ) {
            let data: Vec<u8> = bytes
                .iter()
                .map(|&(r, b)| if r < zero_pct { 0 } else { b })
                .collect();
            proptest::prop_assert_eq!(fnv1a(&data), fnv1a_bytewise(&data));
        }
    }
}
