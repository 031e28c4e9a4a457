//! Record-framed append-only files.
//!
//! Every on-disk file in the store ([`blocks`], undo, coins, manifest)
//! is a sequence of self-delimiting records:
//!
//! ```text
//! offset  size  field
//!      0     4  magic 0xB0C4_57A1 (LE) — resync sentinel
//!      4     1  record kind (one byte, file-specific)
//!      5     4  payload length (LE)
//!      9     4  CRC-32 (IEEE) over kind byte ‖ payload
//!     13     …  payload
//! ```
//!
//! Readers stop at the first record that is short, has a bad magic, or
//! fails its CRC — everything before that point is the *valid prefix*,
//! everything after is a torn tail from an interrupted write and is
//! discarded (the store truncates back to the last commit it can
//! prove). Appends open the file, write, and close: the store never
//! holds file descriptors between operations, so a 1000-host sim soak
//! stays within default fd limits.

use bcwan_crypto::crc32::Crc32;
use std::fs::OpenOptions;
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// Leading sentinel of every record.
pub(crate) const RECORD_MAGIC: u32 = 0xB0C4_57A1;

/// Bytes of framing before the payload.
pub(crate) const RECORD_HEADER: u64 = 13;

/// CRC-32/IEEE over the parts in order — `bcwan_crypto`'s, the same
/// checksum the transport frame uses.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = Crc32::new();
    for part in parts {
        crc.update(part);
    }
    crc.finalize()
}

/// One decoded record: its kind byte and payload.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// Frames one record into `out`.
pub(crate) fn frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&[&[kind], payload]).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends pre-framed bytes to `path` (creating it if needed) and
/// returns the file's new length. With `fsync`, flushes to stable
/// storage before returning.
pub(crate) fn append(path: &Path, framed: &[u8], fsync: bool) -> io::Result<u64> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(framed)?;
    if fsync {
        file.sync_data()?;
    }
    file.seek(SeekFrom::End(0))
}

/// Reads the valid record prefix of `path`: all records that frame and
/// CRC correctly, stopping at the first torn or corrupt one. Returns
/// the records and the byte length of the valid prefix. A missing file
/// reads as empty.
pub(crate) fn read_valid_prefix(path: &Path) -> io::Result<(Vec<Record>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER as usize {
        let magic = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if magic != RECORD_MAGIC {
            break;
        }
        let kind = bytes[pos + 4];
        let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().expect("4 bytes"));
        let start = pos + RECORD_HEADER as usize;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[start..end];
        if crc32(&[&[kind], payload]) != crc {
            break;
        }
        records.push(Record {
            kind,
            payload: payload.to_vec(),
        });
        pos = end;
    }
    Ok((records, pos as u64))
}

/// Truncates `path` to `len` bytes, discarding a torn tail. Missing
/// files are ignored when truncating to zero.
pub(crate) fn truncate(path: &Path, len: u64) -> io::Result<()> {
    match OpenOptions::new().write(true).open(path) {
        Ok(file) => file.set_len(len),
        Err(e) if e.kind() == io::ErrorKind::NotFound && len == 0 => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bcwan-files-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc_matches_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE check value).
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn records_round_trip_and_torn_tail_is_dropped() {
        let path = temp_path("roundtrip");
        let mut framed = Vec::new();
        frame(&mut framed, b'A', b"first");
        frame(&mut framed, b'B', b"second record");
        let len = append(&path, &framed, false).unwrap();
        let (records, valid) = read_valid_prefix(&path).unwrap();
        assert_eq!(valid, len);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, b'A');
        assert_eq!(records[1].payload, b"second record");

        // Append a third record, then tear it: everything after the
        // second record must be ignored.
        let mut third = Vec::new();
        frame(&mut third, b'C', b"torn away");
        append(&path, &third, false).unwrap();
        truncate(&path, len + 5).unwrap();
        let (records, valid) = read_valid_prefix(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(valid, len);

        // Corrupt a byte inside the first record's payload: nothing
        // survives (the reader cannot resync past a bad CRC).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[RECORD_HEADER as usize] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (records, valid) = read_valid_prefix(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = temp_path("missing");
        let (records, valid) = read_valid_prefix(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }
}
