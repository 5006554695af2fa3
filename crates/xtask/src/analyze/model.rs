//! The analysis model: every workspace source file, loaded once,
//! stripped once, with its cfg-region map — shared by every rule of
//! `cargo xtask analyze`, so all of them see the same bytes.
//!
//! File collection walks each crate's `src/`, `tests/`, `examples/`,
//! and `benches/` trees (plus the root facade package), not just
//! `src/` — test and bench code is real code; rules opt out per
//! [`FileKind`] instead of being blind to whole trees. `stubs/` and
//! the analyzer fixtures are excluded: stubs mirror external crates,
//! and fixtures *deliberately* violate every rule.

use std::fs;
use std::path::{Path, PathBuf};

use super::lexer::{self, CfgMap};
use super::manifest::WorkspaceModel;

/// Which target tree a file belongs to. Rules scope themselves by
/// kind: e.g. `nondet-rng` applies everywhere (a nondeterministic test
/// is still a broken test), while `feature-gate` exempts `tests/` and
/// `benches/` (measuring a benchmark is the point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileKind {
    Src,
    Tests,
    Examples,
    Benches,
}

/// One loaded source file with its derived lexical state.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub kind: FileKind,
    pub source: String,
    /// Comment/string-stripped text, byte-for-byte aligned with
    /// `source`.
    pub stripped: String,
    /// `#[cfg(...)]` regions resolved over `stripped`.
    pub cfg: CfgMap,
}

impl SourceFile {
    pub fn load(root: &Path, abs: &Path, kind: FileKind) -> Result<SourceFile, String> {
        let source =
            fs::read_to_string(abs).map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let path = abs
            .strip_prefix(root)
            .unwrap_or(abs)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::from_source(path, kind, source))
    }

    pub fn from_source(path: String, kind: FileKind, source: String) -> SourceFile {
        let stripped = lexer::strip_code(&source);
        let cfg = CfgMap::build(&stripped, &source);
        SourceFile {
            path,
            kind,
            source,
            stripped,
            cfg,
        }
    }

    /// `stripped` with every `#[cfg(test)]`-gated region blanked — the
    /// text rules scan when they only audit production code.
    pub fn masked(&self) -> String {
        self.cfg
            .mask_matching(&self.stripped, lexer::is_test_predicate)
    }

    pub fn line_of(&self, offset: usize) -> usize {
        lexer::line_of(&self.source, offset)
    }

    pub fn excerpt_at(&self, offset: usize) -> String {
        lexer::excerpt_at(&self.source, offset)
    }
}

/// The full analysis input: parsed manifests plus every source file,
/// sorted by path for deterministic iteration and output.
pub struct Model {
    pub workspace: WorkspaceModel,
    pub files: Vec<SourceFile>,
}

impl Model {
    pub fn load(root: &Path) -> Result<Model, String> {
        let workspace = WorkspaceModel::load(root)?;
        let mut entries = Vec::new();
        let mut package_dirs = vec![root.to_path_buf()];
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("crates/: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        package_dirs.extend(crate_dirs);
        for dir in &package_dirs {
            for (tree, kind) in [
                ("src", FileKind::Src),
                ("tests", FileKind::Tests),
                ("examples", FileKind::Examples),
                ("benches", FileKind::Benches),
            ] {
                // The root package's `crates/` subdirectory is not a
                // source tree; only its src/tests/examples count.
                let mut files = Vec::new();
                collect_rs(&dir.join(tree), &mut files);
                for abs in files {
                    entries.push((abs, kind));
                }
            }
        }
        entries.sort();
        let mut files = Vec::new();
        for (abs, kind) in entries {
            files.push(SourceFile::load(root, &abs, kind)?);
        }
        Ok(Model { workspace, files })
    }

    /// Files of the given kinds, in path order.
    pub fn files_of<'a>(
        &'a self,
        kinds: &'a [FileKind],
    ) -> impl Iterator<Item = &'a SourceFile> + 'a {
        self.files.iter().filter(move |f| kinds.contains(&f.kind))
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_workspace_model_loads_and_covers_all_trees() {
        let root = crate::workspace_root();
        let model = Model::load(&root).expect("model loads");
        assert!(model.files.len() > 100, "workspace has many sources");
        // The scan must reach beyond src/: the scope fix that motivated
        // the analyzer (tests/ and examples/ were silently skipped
        // before; the workspace has no benches/ tree any more).
        for kind in [FileKind::Src, FileKind::Tests, FileKind::Examples] {
            assert!(
                model.files.iter().any(|f| f.kind == kind),
                "no files of kind {:?} collected",
                kind
            );
        }
        // Stubs and fixtures stay out.
        assert!(model.files.iter().all(|f| !f.path.starts_with("stubs/")));
        assert!(model
            .files
            .iter()
            .all(|f| !f.path.starts_with("crates/xtask/fixtures")));
        // Paths are sorted and unique.
        let paths: Vec<_> = model.files.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(paths, sorted);
        // The facade package's own trees are in.
        assert!(paths.contains(&"src/lib.rs"));
        assert!(paths.iter().any(|p| p.starts_with("tests/")));
        assert!(paths.iter().any(|p| p.starts_with("examples/")));
    }
}
