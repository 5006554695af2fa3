//! Workspace manifest model: a hand-rolled parser for the TOML subset
//! the workspace's `Cargo.toml`s actually use (sections, `[[bin]]`
//! tables, `key = "string"`, `key.workspace = true`, single-line inline
//! tables and arrays), assembled into a crate DAG the layering rule
//! checks, with each manifest's lint wiring. Zero external
//! dependencies, same philosophy as the draw-site registry parser:
//! anything outside the subset is a parse error, which keeps the
//! manifests honest.

use std::fs;
use std::path::Path;

/// Where one dependency comes from, before workspace resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepSource {
    /// `foo.workspace = true` / `foo = { workspace = true }`.
    Workspace,
    /// `foo = { path = "..." }`, path relative to the manifest dir.
    Path(String),
    /// `foo = "1"` / `foo = { version = "1" }`.
    External(String),
}

/// One dependency edge as written in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// The name used in the dependency table (before any `package =`
    /// rename).
    pub name: String,
    /// The real package name (`package = "..."` rename, else `name`).
    pub package: String,
    pub source: DepSource,
    /// True for `[dev-dependencies]` edges (exempt from layer ordering
    /// — test-only cycles like core ⇄ workload are legal in cargo).
    pub dev: bool,
}

/// One parsed `Cargo.toml`.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[package] name`, empty for a virtual manifest.
    pub name: String,
    /// Workspace-relative directory with forward slashes (`""` for the
    /// root manifest).
    pub dir: String,
    pub deps: Vec<Dep>,
    /// Declared `[features]` names.
    pub features: Vec<String>,
    /// `[workspace.dependencies]` (root manifest only).
    pub workspace_deps: Vec<(String, DepSource)>,
    /// `[patch.crates-io]` name → path (root manifest only).
    pub patches: Vec<(String, String)>,
    /// `[lints] workspace = true`: the crate inherits the workspace lints.
    pub inherits_lints: bool,
    /// `[workspace.lints.rust] unsafe_code = "forbid"` (root manifest
    /// only).
    pub forbids_unsafe: bool,
}

/// The parsed workspace: root manifest plus every `crates/*` member,
/// sorted by crate name.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceModel {
    pub manifests: Vec<Manifest>,
}

/// What a dependency edge resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolved {
    /// An in-workspace crate (by package name).
    Internal(String),
    /// A crates.io name patched onto an in-tree stub.
    Stubbed(String),
    /// A crates.io dependency with no stub — banned by the layering
    /// rule outside `stubs/`.
    External(String),
}

impl WorkspaceModel {
    pub fn load(root: &Path) -> Result<WorkspaceModel, String> {
        let mut manifests = Vec::new();
        let root_text =
            fs::read_to_string(root.join("Cargo.toml")).map_err(|e| format!("Cargo.toml: {e}"))?;
        manifests.push(parse(&root_text, "").map_err(|e| format!("Cargo.toml: {e}"))?);
        let crates_dir = root.join("crates");
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("crates/: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let rel = format!(
                "crates/{}",
                dir.file_name().expect("crate dir name").to_string_lossy()
            );
            let text = fs::read_to_string(dir.join("Cargo.toml"))
                .map_err(|e| format!("{rel}/Cargo.toml: {e}"))?;
            manifests.push(parse(&text, &rel).map_err(|e| format!("{rel}/Cargo.toml: {e}"))?);
        }
        manifests.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(WorkspaceModel { manifests })
    }

    /// The root manifest (the one with workspace tables).
    pub fn root(&self) -> &Manifest {
        self.manifests
            .iter()
            .find(|m| m.dir.is_empty())
            .expect("root manifest present")
    }

    fn by_dir(&self, dir: &str) -> Option<&Manifest> {
        let dir = dir.trim_start_matches("./");
        self.manifests.iter().find(|m| m.dir == dir)
    }

    /// Resolves one dependency edge written in the manifest at
    /// `from_dir` to the crate (or external package) it targets.
    pub fn resolve(&self, from_dir: &str, dep: &Dep) -> Resolved {
        let source = match &dep.source {
            DepSource::Workspace => self
                .root()
                .workspace_deps
                .iter()
                .find(|(n, _)| n == &dep.name)
                .map(|(_, s)| s.clone())
                .unwrap_or(DepSource::External(String::new())),
            other => other.clone(),
        };
        match source {
            DepSource::Path(p) => {
                // Workspace-table paths are root-relative; direct
                // `path = ".."` deps are manifest-relative.
                let rel = if matches!(dep.source, DepSource::Workspace) || from_dir.is_empty() {
                    normalize(&p)
                } else {
                    normalize(&format!("{from_dir}/{p}"))
                };
                match self.by_dir(&rel) {
                    Some(m) => Resolved::Internal(m.name.clone()),
                    None => Resolved::External(dep.package.clone()),
                }
            }
            DepSource::External(_) | DepSource::Workspace => {
                let patched = self.root().patches.iter().any(|(n, _)| n == &dep.package);
                if patched {
                    Resolved::Stubbed(dep.package.clone())
                } else {
                    Resolved::External(dep.package.clone())
                }
            }
        }
    }
}

/// Lexically resolves `a/b/../c` and `./` segments.
fn normalize(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    out.join("/")
}

/// Parses one manifest. `dir` is its workspace-relative directory.
pub fn parse(text: &str, dir: &str) -> Result<Manifest, String> {
    let mut m = Manifest {
        dir: dir.to_string(),
        ..Manifest::default()
    };
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        Package,
        Lints,
        WorkspaceLintsRust,
        Deps { dev: bool },
        Features,
        WorkspaceDeps,
        Patch,
        Other,
    }
    let mut section = Section::Other;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            section = match header.trim_matches('[') {
                "package" => Section::Package,
                "lints" => Section::Lints,
                "workspace.lints.rust" => Section::WorkspaceLintsRust,
                "dependencies" => Section::Deps { dev: false },
                "dev-dependencies" => Section::Deps { dev: true },
                "features" => Section::Features,
                "workspace.dependencies" => Section::WorkspaceDeps,
                "patch.crates-io" => Section::Patch,
                _ => Section::Other,
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = key.trim();
        let value = value.trim();
        match section {
            Section::Package => {
                if key == "name" {
                    m.name = unquote(value, lineno)?;
                }
            }
            Section::Lints => {
                if key == "workspace" {
                    m.inherits_lints = value == "true";
                }
            }
            Section::WorkspaceLintsRust => {
                if key == "unsafe_code" {
                    m.forbids_unsafe = unquote(value, lineno)? == "forbid";
                }
            }
            Section::Features => {
                m.features.push(key.trim_matches('"').to_string());
            }
            Section::Deps { dev } => {
                let (name, source, package) = parse_dep(key, value, lineno)?;
                m.deps.push(Dep {
                    package: package.unwrap_or_else(|| name.clone()),
                    name,
                    source,
                    dev,
                });
            }
            Section::WorkspaceDeps => {
                let (name, source, _) = parse_dep(key, value, lineno)?;
                m.workspace_deps.push((name, source));
            }
            Section::Patch => {
                let (name, source, _) = parse_dep(key, value, lineno)?;
                let DepSource::Path(p) = source else {
                    return Err(format!("line {lineno}: patch entries must use `path = `"));
                };
                m.patches.push((name, p));
            }
            Section::Other => {}
        }
    }
    Ok(m)
}

fn unquote(value: &str, lineno: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string"))
}

/// Parses one dependency line: the key may be `name` or
/// `name.workspace`; the value a quoted version, `true`, or a
/// single-line inline table.
fn parse_dep(
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<(String, DepSource, Option<String>), String> {
    if let Some(name) = key.strip_suffix(".workspace") {
        if value != "true" {
            return Err(format!("line {lineno}: `.workspace` must be `true`"));
        }
        return Ok((name.to_string(), DepSource::Workspace, None));
    }
    let name = key.to_string();
    if let Some(table) = value.strip_prefix('{').and_then(|v| v.strip_suffix('}')) {
        let mut path = None;
        let mut version = None;
        let mut package = None;
        let mut workspace = false;
        for part in split_inline(table) {
            let Some((k, v)) = part.split_once('=') else {
                continue;
            };
            let (k, v) = (k.trim(), v.trim());
            match k {
                "path" => path = Some(unquote(v, lineno)?),
                "version" => version = Some(unquote(v, lineno)?),
                "package" => package = Some(unquote(v, lineno)?),
                "workspace" => workspace = v == "true",
                _ => {}
            }
        }
        let source = if let Some(p) = path {
            DepSource::Path(p)
        } else if workspace {
            DepSource::Workspace
        } else {
            DepSource::External(version.unwrap_or_default())
        };
        return Ok((name, source, package));
    }
    Ok((name, DepSource::External(unquote(value, lineno)?), None))
}

/// Splits an inline-table body on top-level commas (commas inside
/// `[...]` arrays or quotes don't split).
fn split_inline(table: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let bytes = table.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth = depth.saturating_sub(1),
            b',' if !in_str && depth == 0 => {
                parts.push(&table[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&table[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_dep_forms_the_workspace_uses() {
        let text = r#"
[package]
name = "demo"

[lib]
path = "src/lib.rs"

[lints]
workspace = true

[dependencies]
lagover-sim.workspace = true
rand = "0.8"
local = { path = "../local" }
renamed = { path = "crates/propcheck", package = "propcheck" }

[dev-dependencies]
proptest.workspace = true

[features]
wall-clock = []

[[bin]]
name = "demo"
path = "src/main.rs"
"#;
        let m = parse(text, "crates/demo").unwrap();
        assert_eq!(m.name, "demo");
        assert!(m.inherits_lints);
        assert!(!m.forbids_unsafe);
        assert_eq!(m.features, ["wall-clock"]);
        assert_eq!(m.deps.len(), 5);
        assert_eq!(m.deps[0].source, DepSource::Workspace);
        assert!(!m.deps[0].dev);
        assert_eq!(m.deps[1].source, DepSource::External("0.8".into()));
        assert_eq!(m.deps[2].source, DepSource::Path("../local".into()));
        assert_eq!(m.deps[3].package, "propcheck");
        assert!(m.deps[4].dev);
    }

    #[test]
    fn parses_workspace_tables_and_patches() {
        let text = r#"
[workspace.dependencies]
lagover-sim = { path = "crates/sim" }
rand = "0.8"

[patch.crates-io]
rand = { path = "stubs/rand" }

[workspace.lints.rust]
unsafe_code = "forbid"
"#;
        let m = parse(text, "").unwrap();
        assert_eq!(m.workspace_deps.len(), 2);
        assert_eq!(m.patches, [("rand".to_string(), "stubs/rand".to_string())]);
        assert!(m.forbids_unsafe);
        assert!(!m.inherits_lints);
    }

    #[test]
    fn resolve_follows_workspace_renames_and_patches() {
        let root = r#"
[workspace.dependencies]
lagover-sim = { path = "crates/sim" }
proptest = { path = "crates/propcheck", package = "propcheck" }
rand = "0.8"
rayon = "1"

[patch.crates-io]
rand = { path = "stubs/rand" }
"#;
        let sim = "[package]\nname = \"lagover-sim\"\n";
        let pc = "[package]\nname = \"propcheck\"\n";
        let model = WorkspaceModel {
            manifests: vec![
                parse(root, "").unwrap(),
                parse(sim, "crates/sim").unwrap(),
                parse(pc, "crates/propcheck").unwrap(),
            ],
        };
        let dep = |name: &str| Dep {
            name: name.to_string(),
            package: name.to_string(),
            source: DepSource::Workspace,
            dev: false,
        };
        assert_eq!(
            model.resolve("crates/x", &dep("lagover-sim")),
            Resolved::Internal("lagover-sim".into())
        );
        assert_eq!(
            model.resolve("crates/x", &dep("proptest")),
            Resolved::Internal("propcheck".into())
        );
        assert_eq!(
            model.resolve("crates/x", &dep("rand")),
            Resolved::Stubbed("rand".into())
        );
        assert_eq!(
            model.resolve("crates/x", &dep("rayon")),
            Resolved::External("rayon".into())
        );
        // A manifest-relative path dep resolves against its own dir.
        let rel = Dep {
            name: "lagover-sim".into(),
            package: "lagover-sim".into(),
            source: DepSource::Path("../sim".into()),
            dev: true,
        };
        assert_eq!(
            model.resolve("crates/x", &rel),
            Resolved::Internal("lagover-sim".into())
        );
    }
}
