//! Deterministic run snapshots: the on-disk artifact and its crash-safe
//! file protocol. The payload itself is produced and consumed by
//! [`System::snapshot`] / [`System::restore`]; this module only frames it
//! (via [`remap_snap`]) and handles atomic writes with a rolling fallback.
//!
//! [`System::snapshot`]: crate::System::snapshot
//! [`System::restore`]: crate::System::restore

use crate::report::RunError;
use remap_snap::SnapError;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A complete, self-validating snapshot of a [`System`](crate::System)'s
/// dynamic state: framed bytes (magic, format version, configuration
/// fingerprint, payload, checksum) ready to write to disk or apply to a
/// freshly built system of identical configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

/// `path` with `suffix` appended to its final component (`ckpt.snap` →
/// `ckpt.snap.tmp`), preserving the directory.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

fn bad(reason: impl std::fmt::Display) -> RunError {
    RunError::BadSnapshot {
        reason: reason.to_string(),
    }
}

impl Snapshot {
    /// Frames a payload under a configuration fingerprint. Used by
    /// [`System::snapshot`](crate::System::snapshot).
    pub(crate) fn from_payload(fingerprint: u64, payload: &[u8]) -> Snapshot {
        Snapshot {
            bytes: remap_snap::encode_file(fingerprint, payload),
        }
    }

    /// The payload. Every constructor has already validated the frame
    /// (magic, version, length, checksum), so this neither re-checks nor
    /// copies it.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.bytes[remap_snap::HEADER_LEN..self.bytes.len() - 8]
    }

    /// The snapshot's configuration fingerprint as recorded in its header.
    pub fn fingerprint(&self) -> Option<u64> {
        let off = remap_snap::MAGIC.len() + 4;
        let raw = self.bytes.get(off..off + 8)?;
        Some(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// The framed snapshot image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopts a framed snapshot image, refusing anything that is not a
    /// structurally valid snapshot of the current format version (torn
    /// tails and foreign files are rejected here, before any state is
    /// touched). Fingerprint compatibility is checked later, at
    /// [`System::restore`](crate::System::restore).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, RunError> {
        let snap = Snapshot { bytes };
        let fp = snap
            .fingerprint()
            .ok_or_else(|| bad(SnapError::Truncated))?;
        remap_snap::decode_file(&snap.bytes, fp).map_err(bad)?;
        Ok(snap)
    }

    /// Reads and structurally validates a snapshot file.
    pub fn read_from(path: &Path) -> Result<Snapshot, RunError> {
        let bytes = std::fs::read(path).map_err(|e| bad(format!("{}: {e}", path.display())))?;
        Snapshot::from_bytes(bytes).map_err(|e| match e {
            RunError::BadSnapshot { reason } => bad(format!("{}: {reason}", path.display())),
            other => other,
        })
    }

    /// Reads `path`, falling back to the previous checkpoint generation
    /// (`<path>.prev`, kept by [`Snapshot::write_to`]) when the primary is
    /// missing or torn — the crash-restore path after a kill mid-write.
    pub fn read_with_fallback(path: &Path) -> Result<Snapshot, RunError> {
        match Snapshot::read_from(path) {
            Ok(s) => Ok(s),
            Err(primary) => match Snapshot::read_from(&sibling(path, ".prev")) {
                Ok(s) => Ok(s),
                Err(_) => Err(primary),
            },
        }
    }

    /// Writes the snapshot crash-safely, recycling the generation it
    /// retires. Three files rest beside each other: `path` (the newest
    /// image), `<path>.prev` (the one before) and `<path>.spare` (the one
    /// before that, kept only for its blocks).
    ///
    /// The spare is renamed to `<path>.tmp` and the image written into it
    /// in place, then cut to length. `.prev` is hard-linked to the spare
    /// name; any existing `path` is linked (or, on a filesystem without
    /// hard links, copied) to `<path>.prev.tmp` and that renamed over
    /// `.prev`; and the new file is renamed over `path`. In the steady
    /// state no blocks are freed or allocated: the files rotate by link
    /// and rename only. Every step that replaces a name is a rename, so
    /// once written, `path` never goes missing: a kill at any point leaves
    /// a complete `path` (old or new) and, from the second write on, an
    /// older generation in `.prev` for [`Snapshot::read_with_fallback`] to
    /// fall back on if `path` is later torn. `.tmp` is overwritten in place
    /// only while it is a regular file with exactly one link, which a kill
    /// between the link and the rename above would break; anything else
    /// there is removed and created afresh, as it always is off unix.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let tmp = sibling(path, ".tmp");
        let spare = sibling(path, ".spare");
        let prev = sibling(path, ".prev");
        ignore_missing(std::fs::rename(&spare, &tmp))?;
        let mut file = open_recycled(&tmp)?;
        file.write_all(&self.bytes)?;
        file.set_len(self.bytes.len() as u64)?;
        drop(file);
        if path.exists() {
            // The generation `.prev` is about to lose becomes the spare. A
            // refused link (no hard links here) just leaves no spare.
            if cfg!(unix) {
                let _ = std::fs::hard_link(&prev, &spare);
            }
            let prev_tmp = sibling(path, ".prev.tmp");
            // A link left by a kill between the two steps below. It must go
            // first: copying onto a link to `path` would truncate `path`.
            ignore_missing(std::fs::remove_file(&prev_tmp))?;
            link_or_copy(path, &prev_tmp)?;
            std::fs::rename(&prev_tmp, &prev)?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Treats a missing file as success.
fn ignore_missing(r: std::io::Result<()>) -> std::io::Result<()> {
    match r {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Opens `tmp` for writing in place when it is a regular file that no
/// other name shares; otherwise removes whatever is there and creates it.
fn open_recycled(tmp: &Path) -> std::io::Result<std::fs::File> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        if std::fs::symlink_metadata(tmp).is_ok_and(|m| m.is_file() && m.nlink() == 1) {
            return std::fs::OpenOptions::new().write(true).open(tmp);
        }
    }
    ignore_missing(std::fs::remove_file(tmp))?;
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(tmp)
}

/// Hard-links `from` to `to`, copying instead where the link is refused
/// (filesystems without hard links: vfat, exFAT, some network mounts).
fn link_or_copy(from: &Path, to: &Path) -> std::io::Result<()> {
    if std::fs::hard_link(from, to).is_err() {
        std::fs::copy(from, to)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(fp: u64) -> Snapshot {
        Snapshot::from_payload(fp, b"state bytes")
    }

    #[test]
    fn bytes_round_trip() {
        let s = mk(0xFEED);
        let back = Snapshot::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), Some(0xFEED));
    }

    #[test]
    fn torn_bytes_are_refused() {
        let s = mk(1);
        let cut = s.as_bytes().len() - 3;
        let e = Snapshot::from_bytes(s.as_bytes()[..cut].to_vec()).unwrap_err();
        assert!(matches!(e, RunError::BadSnapshot { .. }), "{e:?}");
    }

    #[test]
    fn rotation_keeps_a_previous_generation() {
        let dir = std::env::temp_dir().join(format!("remap-snap-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snap");
        mk(10).write_to(&path).unwrap();
        // A link left behind by a kill mid-rotation does not stop the next.
        std::fs::write(sibling(&path, ".prev.tmp"), b"stale").unwrap();
        mk(20).write_to(&path).unwrap();
        assert!(!sibling(&path, ".prev.tmp").exists());
        assert_eq!(Snapshot::read_from(&path).unwrap().fingerprint(), Some(20));
        assert_eq!(
            Snapshot::read_from(&sibling(&path, ".prev"))
                .unwrap()
                .fingerprint(),
            Some(10)
        );
        // Tear the primary: the fallback must surface the previous one.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(
            Snapshot::read_with_fallback(&path).unwrap().fingerprint(),
            Some(10)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("remap-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sized(fp: u64, len: usize) -> Snapshot {
        Snapshot::from_payload(fp, &vec![fp as u8; len])
    }

    #[cfg(unix)]
    fn ino(path: &Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).unwrap())
    }

    #[cfg(unix)]
    #[test]
    fn the_fourth_write_lands_in_the_spare_inode() {
        let dir = scratch("spare");
        let path = dir.join("ckpt.snap");
        for fp in 1..=3 {
            sized(fp, 4096).write_to(&path).unwrap();
        }
        let spare = sibling(&path, ".spare");
        let (spare_ino, prev_ino) = (ino(&spare), ino(&path));
        assert_eq!(std::fs::read(&spare).unwrap(), sized(1, 4096).as_bytes());
        let fourth = sized(4, 4096);
        fourth.write_to(&path).unwrap();
        assert_eq!(ino(&path), spare_ino, "the spare was written in place");
        assert_eq!(ino(&sibling(&path, ".prev")), prev_ino);
        assert_eq!(std::fs::read(&path).unwrap(), fourth.as_bytes());
        assert_eq!(
            std::fs::read(sibling(&path, ".prev")).unwrap(),
            sized(3, 4096).as_bytes()
        );
        assert_eq!(std::fs::read(&spare).unwrap(), sized(2, 4096).as_bytes());
        assert!(!sibling(&path, ".tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_spare_linked_to_prev_is_not_overwritten_in_place() {
        let dir = scratch("linked");
        let path = dir.join("ckpt.snap");
        sized(1, 512).write_to(&path).unwrap();
        sized(2, 512).write_to(&path).unwrap();
        let (prev, spare) = (sibling(&path, ".prev"), sibling(&path, ".spare"));
        // A kill after `.prev` gained the spare name, before it was replaced.
        if std::fs::hard_link(&prev, &spare).is_err() {
            return; // no hard links on this filesystem: nothing to guard
        }
        sized(3, 512).write_to(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sized(3, 512).as_bytes());
        assert_eq!(std::fs::read(&prev).unwrap(), sized(2, 512).as_bytes());
        assert_eq!(
            std::fs::read(&spare).unwrap(),
            sized(1, 512).as_bytes(),
            "the old .prev's bytes survive"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shrinking_image_leaves_no_stale_tail() {
        let dir = scratch("shrink");
        let path = dir.join("ckpt.snap");
        for fp in 1..=3 {
            sized(fp, 8192).write_to(&path).unwrap();
        }
        for fp in 4..=6 {
            let small = sized(fp, 100);
            small.write_to(&path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), small.as_bytes());
            assert_eq!(Snapshot::read_from(&path).unwrap(), small);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refused_link_falls_back_to_a_copy() {
        let dir = std::env::temp_dir().join(format!("remap-snap-link-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (from, to) = (dir.join("from"), dir.join("to"));
        std::fs::write(&from, b"new").unwrap();
        // An existing target refuses the link, as a filesystem without
        // hard links does.
        std::fs::write(&to, b"old").unwrap();
        assert!(std::fs::hard_link(&from, &to).is_err());
        link_or_copy(&from, &to).unwrap();
        assert_eq!(std::fs::read(&to).unwrap(), b"new");
        std::fs::write(&to, b"apart").unwrap();
        assert_eq!(std::fs::read(&from).unwrap(), b"new", "a copy, not a link");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
