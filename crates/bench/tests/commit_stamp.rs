//! The commit a report names is fixed when the harness is built: it is the
//! HEAD of the checkout the binary was built from, whatever directory the
//! binary later runs in. Its own test binary, because it changes the
//! process's working directory.

use remap_bench::simperf::BUILD_COMMIT;
use std::path::Path;
use std::process::Command;

/// `git rev-parse --short HEAD` run in `dir`, if git answers there.
fn head_in(dir: &Path) -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()?;
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

#[test]
fn the_commit_stamp_does_not_depend_on_the_working_directory() {
    let source = Path::new(env!("CARGO_MANIFEST_DIR"));
    let built_from = head_in(source).unwrap_or_else(|| "unknown".into());
    assert_eq!(BUILD_COMMIT, built_from, "stamp of the source checkout");
    // Run from elsewhere, git names another commit or none at all, so a
    // lookup at run time would mislabel the report; the stamp does not.
    std::env::set_current_dir(std::env::temp_dir()).expect("enter the temp dir");
    assert_ne!(head_in(Path::new(".")), Some(built_from.clone()));
    assert_eq!(BUILD_COMMIT, built_from, "stamp after leaving the checkout");
}
