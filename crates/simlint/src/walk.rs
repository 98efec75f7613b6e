//! Deterministic workspace traversal.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::Report;

/// Directories never descended into: build artifacts, vendored shims, the
/// linter's own fixture corpus (scanned only when named explicitly) and VCS
/// metadata.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// The workspace directories `simlint check` scans by default.
pub const DEFAULT_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Recursively collects every `.rs` file under `dir`, skipping `SKIP_DIRS`.
/// The result is sorted, so scan order (and therefore report order and JSON
/// output) is itself deterministic.
pub fn collect_rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.iter().any(|s| *s == name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Renders `path` relative to `root` with '/' separators, for diagnostics and
/// rule applicability (falls back to the path as given when it is not under
/// `root`).
#[must_use]
pub fn display_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints a set of files and/or directories (directories are walked). Paths in
/// the report are relative to `root`.
pub fn check_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Report> {
    let mut files = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() { p.clone() } else { root.join(p) };
        if abs.is_dir() {
            files.extend(collect_rs_files(&abs)?);
        } else {
            files.push(abs);
        }
    }
    files.sort();
    files.dedup();
    let mut report = Report {
        checked_files: files.len(),
        diagnostics: Vec::new(),
    };
    for file in &files {
        let src = fs::read_to_string(file)?;
        let rel = display_path(root, file);
        report.diagnostics.extend(crate::scan_source(&rel, &src));
    }
    report.sort();
    Ok(report)
}

/// Lints the default workspace directories under `root` (those that exist).
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let paths: Vec<PathBuf> = DEFAULT_ROOTS
        .iter()
        .map(PathBuf::from)
        .filter(|p| root.join(p).is_dir())
        .collect();
    if paths.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "none of {:?} exist under {} — is this the workspace root? (see --root)",
                DEFAULT_ROOTS,
                root.display()
            ),
        ));
    }
    check_paths(root, &paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_path_is_slash_separated_and_relative() {
        let root = Path::new("/w");
        assert_eq!(
            display_path(root, Path::new("/w/crates/cache/src/lib.rs")),
            "crates/cache/src/lib.rs"
        );
        assert_eq!(display_path(root, Path::new("other/x.rs")), "other/x.rs");
    }

    #[test]
    fn walk_skips_vendor_target_and_fixtures() {
        let tmp = std::env::temp_dir().join(format!("simlint-walk-{}", std::process::id()));
        for d in ["src", "vendor/x", "target/debug", "fixtures/bad"] {
            std::fs::create_dir_all(tmp.join(d)).unwrap();
        }
        std::fs::write(tmp.join("src/a.rs"), "fn a() {}").unwrap();
        std::fs::write(tmp.join("src/b.rs"), "fn b() {}").unwrap();
        std::fs::write(tmp.join("vendor/x/v.rs"), "fn v() {}").unwrap();
        std::fs::write(tmp.join("target/debug/t.rs"), "fn t() {}").unwrap();
        std::fs::write(tmp.join("fixtures/bad/f.rs"), "fn f() {}").unwrap();
        let files = collect_rs_files(&tmp).unwrap();
        let names: Vec<String> = files.iter().map(|p| display_path(&tmp, p)).collect();
        assert_eq!(names, ["src/a.rs", "src/b.rs"], "sorted, vendor/target/fixtures skipped");
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
