//! On-disk format for store segments: header and record encoding.
//!
//! Everything in this module is pure — byte slices in, byte vectors out — so the
//! wire format can be locked down by byte-identity proptests without touching a
//! filesystem. The layout is fixed little-endian:
//!
//! ```text
//! segment  := header record*
//! header   := magic[8] version:u32 reserved:u32          (16 bytes)
//! record   := payload_len:u32 crc:u32 payload            (8-byte prelude)
//! payload  := key_len:u16 key[key_len] value[..]
//! ```
//!
//! `crc` is CRC-32 (IEEE, reflected, polynomial 0xEDB88320) over the payload
//! bytes only. A record is valid iff the prelude is complete, `payload_len`
//! bytes follow, the CRC matches, and the embedded `key_len` fits the payload.

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"LSTORE01";

/// Current on-disk format version, written into every segment header.
pub const FORMAT_VERSION: u32 = 1;

/// Size in bytes of the fixed segment header.
pub const SEGMENT_HEADER_LEN: usize = 16;

/// Size in bytes of the fixed per-record prelude (length + CRC).
pub const RECORD_PRELUDE_LEN: usize = 8;

/// Upper bound on a single record payload; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Why a record failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends before the record does: a torn tail from an interrupted
    /// append. Recovery truncates here and the store stays usable.
    Truncated,
    /// The bytes are complete but wrong (CRC mismatch, oversized length,
    /// key length overflowing the payload). Recovery also truncates here, but
    /// the distinction is kept for diagnostics.
    Corrupt,
}

/// CRC-32 (IEEE) lookup tables for slicing-by-8, built at compile time: `CRC_TABLES[0]` is
/// the bytewise table, and `CRC_TABLES[k][i]` advances the CRC of byte `i` over `k` more zero
/// bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE, reflected) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Encode the fixed segment header.
pub fn encode_segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // bytes 12..16 reserved, zero
    out
}

/// Validate a segment header. Returns the format version on success.
pub fn decode_segment_header(bytes: &[u8]) -> Result<u32, RecordError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(RecordError::Truncated);
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(RecordError::Corrupt);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(RecordError::Corrupt);
    }
    if bytes[12..16] != [0, 0, 0, 0] {
        return Err(RecordError::Corrupt);
    }
    Ok(version)
}

/// Encode one record (`prelude + payload`) for `key` / `value`.
///
/// # Panics
/// Panics if the key exceeds `u16::MAX` bytes or the payload exceeds
/// [`MAX_PAYLOAD`]; both are programming errors, not data errors.
pub fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    assert!(key.len() <= u16::MAX as usize, "store key too long: {} bytes", key.len());
    let payload_len = 2 + key.len() + value.len();
    assert!(payload_len <= MAX_PAYLOAD, "store payload too long: {payload_len} bytes");
    let mut out = Vec::with_capacity(RECORD_PRELUDE_LEN + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // CRC backfilled below
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32(&out[RECORD_PRELUDE_LEN..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// A record decoded in place from a segment buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Key bytes, borrowed from the segment buffer.
    pub key: &'a [u8],
    /// Value bytes, borrowed from the segment buffer.
    pub value: &'a [u8],
    /// Total encoded length (prelude + payload) — the cursor advance.
    pub consumed: usize,
}

/// Decode the record starting at `bytes[0]`.
pub fn decode_record(bytes: &[u8]) -> Result<RecordRef<'_>, RecordError> {
    if bytes.len() < RECORD_PRELUDE_LEN {
        return Err(RecordError::Truncated);
    }
    let payload_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if !(2..=MAX_PAYLOAD).contains(&payload_len) {
        return Err(RecordError::Corrupt);
    }
    let stored_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let end = RECORD_PRELUDE_LEN + payload_len;
    if bytes.len() < end {
        return Err(RecordError::Truncated);
    }
    let payload = &bytes[RECORD_PRELUDE_LEN..end];
    if crc32(payload) != stored_crc {
        return Err(RecordError::Corrupt);
    }
    let key_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    if 2 + key_len > payload.len() {
        return Err(RecordError::Corrupt);
    }
    Ok(RecordRef { key: &payload[2..2 + key_len], value: &payload[2 + key_len..], consumed: end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 the sliced one must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
            (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    proptest! {
        #[test]
        fn sliced_crc32_matches_the_bytewise_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn header_round_trips_and_is_fixed_width() {
        let header = encode_segment_header();
        assert_eq!(header.len(), SEGMENT_HEADER_LEN);
        assert_eq!(decode_segment_header(&header), Ok(FORMAT_VERSION));
    }

    #[test]
    fn header_rejects_bad_magic_version_and_reserved_bytes() {
        let good = encode_segment_header();
        assert_eq!(decode_segment_header(&good[..15]), Err(RecordError::Truncated));
        let mut bad = good;
        bad[0] ^= 1;
        assert_eq!(decode_segment_header(&bad), Err(RecordError::Corrupt));
        let mut bad = good;
        bad[8] = 2;
        assert_eq!(decode_segment_header(&bad), Err(RecordError::Corrupt));
        let mut bad = good;
        bad[15] = 1;
        assert_eq!(decode_segment_header(&bad), Err(RecordError::Corrupt));
    }

    #[test]
    fn record_round_trips_keys_and_values() {
        let encoded = encode_record(b"cell-123", b"some value bytes");
        let record = decode_record(&encoded).unwrap();
        assert_eq!(record.key, b"cell-123");
        assert_eq!(record.value, b"some value bytes");
        assert_eq!(record.consumed, encoded.len());
    }

    #[test]
    fn empty_key_and_value_still_encode_a_valid_record() {
        let encoded = encode_record(b"", b"");
        let record = decode_record(&encoded).unwrap();
        assert_eq!(record.key, b"");
        assert_eq!(record.value, b"");
    }

    #[test]
    fn truncated_records_report_truncation_not_corruption() {
        let encoded = encode_record(b"key", b"value");
        for cut in 0..encoded.len() {
            assert_eq!(decode_record(&encoded[..cut]), Err(RecordError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let encoded = encode_record(b"key", b"value bytes under test");
        for i in 0..encoded.len() {
            let mut bent = encoded.clone();
            bent[i] ^= 0x40;
            if let Ok(record) = decode_record(&bent) {
                panic!("flip at {i} went undetected: {record:?}");
            }
        }
    }
}
