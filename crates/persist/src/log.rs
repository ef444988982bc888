//! An append-only log of CRC-framed records, with torn-tail recovery.
//!
//! Frame layout: `len: u32 LE ∥ crc32(payload): u32 LE ∥ payload`.
//! Replay stops cleanly at the first incomplete or corrupt frame — the
//! classic crash-consistency contract: everything before a valid commit
//! marker survives, a torn tail is ignored. For logs damaged *in the
//! middle* (bit rot, overwritten blocks), [`LogFile::salvage_scan`]
//! resynchronizes past the damage and reports what was lost.
//!
//! All I/O goes through a [`Vfs`]; `open`/`replay`/`truncate_to` default
//! to [`StdVfs`], and the `_with` variants take any implementation (the
//! crash-simulation harness passes a fault-injecting one).

use crate::crc::crc32;
use crate::error::PersistError;
use crate::vfs::{retry_io, StdVfs, Vfs, VfsFile};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// An open append-only log file.
pub struct LogFile {
    path: PathBuf,
    file: Box<dyn VfsFile>,
    buf: Vec<u8>,
}

/// The result of replaying a log: the file as read, once, and where each
/// valid frame's payload sits in it. Records are borrowed from that one
/// buffer, never copied out of it.
pub struct Replay {
    buf: Vec<u8>,
    frames: Vec<Range<usize>>,
    /// Byte offset of the end of the last valid frame.
    pub valid_len: u64,
    /// Whether the file ended exactly at a frame boundary.
    pub clean: bool,
}

impl Replay {
    /// Payloads of the valid frames, in append order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.frames.iter().map(|r| &self.buf[r.clone()])
    }

    /// The bytes after the last valid frame: a torn tail, or damage that
    /// [`LogFile::salvage_scan`] may see past. Empty when `clean`.
    pub fn tail(&self) -> &[u8] {
        &self.buf[self.valid_len as usize..]
    }
}

/// The result of a salvage scan over a damaged log.
pub struct SalvageScan<'a> {
    /// Payloads of every decodable frame, in file order, borrowed from
    /// the scanned buffer.
    pub records: Vec<&'a [u8]>,
    /// Total bytes skipped inside corrupt gaps.
    pub lost_bytes: u64,
    /// Number of distinct corrupt gaps the scan resynchronized past.
    pub gaps: usize,
}

impl LogFile {
    /// Open (creating if needed) the log at `path` for appending, on the
    /// standard file system.
    pub fn open(path: impl AsRef<Path>) -> Result<LogFile, PersistError> {
        LogFile::open_with(&StdVfs, path)
    }

    /// Open the log through an explicit [`Vfs`].
    pub fn open_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<LogFile, PersistError> {
        let path = path.as_ref().to_path_buf();
        let file = retry_io(|| vfs.open_append(&path))?;
        Ok(LogFile {
            path,
            file,
            buf: Vec::new(),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one framed record (buffered until [`LogFile::flush`]).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        let len = payload.len() as u32;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Flush buffered frames to the OS. The buffer is emptied whether or
    /// not the write succeeds, so frames of a failed flush are never
    /// written later behind the caller's back: a caller that retries
    /// appends them again.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        if !self.buf.is_empty() {
            let file = &mut self.file;
            let buf = &self.buf;
            let written = retry_io(|| file.write_all(buf));
            self.buf.clear();
            written?;
        }
        Ok(())
    }

    /// Flush and fsync — the durability point.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.flush()?;
        retry_io(|| self.file.sync_data())?;
        Ok(())
    }

    /// Replay every valid frame from the start of the file. Corrupt or
    /// truncated tails are reported, not fatal.
    pub fn replay(path: impl AsRef<Path>) -> Result<Replay, PersistError> {
        LogFile::replay_with(&StdVfs, path)
    }

    /// Replay through an explicit [`Vfs`].
    pub fn replay_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Replay, PersistError> {
        let buf = match retry_io(|| vfs.read(path.as_ref())) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut frames = Vec::new();
        let mut pos = 0usize;
        // Stops at the end of the file, or at a torn header, a torn
        // payload, or bit rot.
        while let Some(payload) = frame_at(&buf, pos) {
            frames.push(pos + 8..pos + 8 + payload.len());
            pos += 8 + payload.len();
        }
        Ok(Replay {
            clean: pos == buf.len(),
            valid_len: pos as u64,
            frames,
            buf,
        })
    }

    /// Scan a damaged log for every decodable frame, resynchronizing past
    /// corrupt regions byte by byte. Unlike [`LogFile::replay`], damage in
    /// the middle of the file does not hide everything after it — at the
    /// cost that a gap's contents are definitively lost. Salvage only;
    /// normal recovery must use `replay`.
    pub fn salvage_scan(buf: &[u8]) -> SalvageScan<'_> {
        let mut records = Vec::new();
        let mut lost_bytes = 0u64;
        let mut gaps = 0usize;
        let mut pos = 0usize;
        let mut in_gap = false;
        while pos < buf.len() {
            match frame_at(buf, pos) {
                Some(payload) => {
                    pos += 8 + payload.len();
                    records.push(payload);
                    in_gap = false;
                }
                None => {
                    if !in_gap {
                        gaps += 1;
                        in_gap = true;
                    }
                    lost_bytes += 1;
                    pos += 1;
                }
            }
        }
        SalvageScan {
            records,
            lost_bytes,
            gaps,
        }
    }

    /// Truncate the file to its valid prefix (run after a dirty replay to
    /// drop the torn tail before appending new frames).
    pub fn truncate_to(path: impl AsRef<Path>, valid_len: u64) -> Result<(), PersistError> {
        LogFile::truncate_to_with(&StdVfs, path, valid_len)
    }

    /// Truncate through an explicit [`Vfs`].
    pub fn truncate_to_with(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        valid_len: u64,
    ) -> Result<(), PersistError> {
        retry_io(|| vfs.set_len(path.as_ref(), valid_len))?;
        Ok(())
    }
}

/// Decode the frame starting at `pos`, if one is complete and its CRC
/// checks out.
fn frame_at(buf: &[u8], pos: usize) -> Option<&[u8]> {
    if buf.len() - pos < 8 {
        return None;
    }
    let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
    if buf.len() - pos - 8 < len {
        return None;
    }
    let payload = &buf[pos + 8..pos + 8 + len];
    if crc32(payload) != crc {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(r: &Replay) -> Vec<&[u8]> {
        r.records().collect()
    }

    fn tmpdir() -> crate::TempDir {
        crate::TempDir::new("log-test").unwrap()
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir();
        let path = dir.join("basic.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LogFile::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"").unwrap();
            log.append(b"three").unwrap();
            log.flush().unwrap();
        }
        let r = LogFile::replay(&path).unwrap();
        assert!(r.clean);
        assert_eq!(records(&r), [&b"one"[..], b"", b"three"]);
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let r = LogFile::replay(tmpdir().join("never-created.log")).unwrap();
        assert!(r.clean);
        assert_eq!(r.records().len(), 0);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir();
        let path = dir.join("torn.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LogFile::open(&path).unwrap();
            log.append(b"good").unwrap();
            log.append(b"doomed-record").unwrap();
            log.flush().unwrap();
        }
        // Simulate a crash mid-write: chop the last 5 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let r = LogFile::replay(&path).unwrap();
        assert!(!r.clean);
        assert_eq!(records(&r), [b"good"]);

        // Truncate away the tail, then appending works again.
        LogFile::truncate_to(&path, r.valid_len).unwrap();
        let mut log = LogFile::open(&path).unwrap();
        log.append(b"after-recovery").unwrap();
        log.flush().unwrap();
        drop(log);
        let r2 = LogFile::replay(&path).unwrap();
        assert!(r2.clean);
        assert_eq!(records(&r2), [&b"good"[..], b"after-recovery"]);
    }

    #[test]
    fn corrupt_payload_detected() {
        let dir = tmpdir();
        let path = dir.join("rot.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LogFile::open(&path).unwrap();
            log.append(b"aaaa").unwrap();
            log.append(b"bbbb").unwrap();
            log.flush().unwrap();
        }
        // Flip a bit in the *first* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let r = LogFile::replay(&path).unwrap();
        assert!(!r.clean);
        assert!(
            r.records().len() == 0,
            "everything after corruption is suspect"
        );
    }

    #[test]
    fn sync_is_durable_noop_for_semantics() {
        let dir = tmpdir();
        let path = dir.join("sync.log");
        let _ = std::fs::remove_file(&path);
        let mut log = LogFile::open(&path).unwrap();
        log.append(b"x").unwrap();
        log.sync().unwrap();
        let r = LogFile::replay(&path).unwrap();
        assert_eq!(r.records().len(), 1);
    }

    #[test]
    fn salvage_scan_resyncs_past_mid_file_damage() {
        let dir = tmpdir();
        let path = dir.join("salvage.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LogFile::open(&path).unwrap();
            log.append(b"first-record").unwrap();
            log.append(b"second-record").unwrap();
            log.append(b"third-record").unwrap();
            log.flush().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the *second* record's payload.
        bytes[8 + 12 + 8 + 2] ^= 0xFF;
        // replay sees only the first record…
        std::fs::write(&path, &bytes).unwrap();
        let r = LogFile::replay(&path).unwrap();
        assert_eq!(records(&r), [b"first-record"]);
        // …salvage_scan also recovers the third.
        let s = LogFile::salvage_scan(&bytes);
        assert_eq!(s.records, [&b"first-record"[..], b"third-record"]);
        assert_eq!(s.gaps, 1);
        assert_eq!(s.lost_bytes, 8 + 13);
    }

    #[test]
    fn works_over_the_simulated_vfs() {
        use crate::vfs::SimVfs;
        let vfs = SimVfs::new();
        let path = Path::new("sim.log");
        let mut log = LogFile::open_with(&vfs, path).unwrap();
        log.append(b"alpha").unwrap();
        log.append(b"beta").unwrap();
        log.sync().unwrap();
        let r = LogFile::replay_with(&vfs, path).unwrap();
        assert!(r.clean);
        assert_eq!(records(&r), [&b"alpha"[..], b"beta"]);
    }
}
