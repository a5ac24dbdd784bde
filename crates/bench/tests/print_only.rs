//! `rh-bench` prints and writes nothing: the targets that used to leave
//! result files behind run here in an empty directory, which must still
//! be empty afterwards.

use std::path::PathBuf;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// A fresh, empty directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos();
        let name = format!("rh-bench-print-only-{}-{nanos}", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::create_dir(&path).expect("create scratch directory");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "runs three rh-bench targets end to end (~15 s in a debug build); scripts/ci.sh runs it"]
fn targets_write_no_files() {
    let dir = ScratchDir::new();
    for args in [&["overhead"][..], &["ablate"], &["ablate", "--policy"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_rh-bench"))
            .args(args)
            .current_dir(&dir.0)
            .output()
            .expect("spawn rh-bench");
        assert!(
            out.status.success(),
            "rh-bench {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(&dir.0)
            .expect("read scratch directory")
            .map(|e| e.expect("directory entry").file_name())
            .collect();
        assert!(left.is_empty(), "rh-bench {args:?} wrote {left:?}");
    }
}
