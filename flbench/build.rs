//! Records the toolchain and source revision the benchmark was built from,
//! for the host fingerprint it prints with every result.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=FLBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
    // The repository root is this package's parent. Git must not search
    // above it: a plain source checkout has no revision to report.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("package sits in the repository");
    let ceiling = root.parent().unwrap_or(root);
    let rev = output_of(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    println!(
        "cargo:rustc-env=FLBENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("none")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
