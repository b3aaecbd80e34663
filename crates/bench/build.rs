//! Stamps the harness with the commit it is built from (`BUILD_COMMIT`,
//! read by `simperf::BUILD_COMMIT`), so a report names the code that
//! produced it rather than whatever checkout the binary happens to run in.
//! Outside a git checkout, or without git, the stamp is `unknown`.

use std::process::Command;

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    // HEAD moves on a checkout; the ref it names moves on a commit. (A
    // path that does not exist would rerun this script on every build.)
    if let Some(dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        for path in ["HEAD", "refs", "packed-refs"] {
            let path = std::path::Path::new(&dir).join(path);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
    let commit = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BUILD_COMMIT={commit}");
}
