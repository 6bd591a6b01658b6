//! Bakes a code-version fingerprint into the crate at compile time.
//!
//! The persistent result cache keys every entry on (config, inputs, kernel,
//! knobs, **code-version**): a simulator change must never serve results
//! computed by older code. The fingerprint is the repository's git commit
//! (plus a `-dirty` marker for uncommitted changes); builds outside a git
//! checkout fall back to the crate version, which is bumped per release.

use std::process::Command;

fn main() {
    // Re-run when HEAD moves (commit, branch switch). These paths may be
    // absent in a non-git checkout; a rerun-if-changed on a missing path is
    // harmless. The `-dirty` marker is best-effort between rebuilds — an
    // edit that does not touch this crate's inputs cannot retrigger the
    // script — so a dirty tree's entries share one tag (documented in
    // EXPERIMENTS.md; `sweepd gc` or deleting `results/cache/` resets).
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    println!("cargo:rerun-if-changed=../../.git/refs");
    println!("cargo:rerun-if-changed=../../.git/packed-refs");
    let info = git_fingerprint().unwrap_or_else(|| {
        format!("v{}", std::env::var("CARGO_PKG_VERSION").unwrap_or_default())
    });
    println!("cargo:rustc-env=SDV_BUILD_INFO={info}");
}

/// `g<short-hash>` of HEAD, with `-dirty` appended when tracked files have
/// uncommitted modifications. `None` when git or the repository is absent.
fn git_fingerprint() -> Option<String> {
    let hash = git(&["rev-parse", "--short=12", "HEAD"])?;
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|s| !s.is_empty());
    Some(format!("g{hash}{}", if dirty { "-dirty" } else { "" }))
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string())
}
