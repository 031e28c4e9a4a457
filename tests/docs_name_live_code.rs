//! Docs that cannot drift: every `--bin X`, `--example X`, `--test X`
//! and every `results/<file>` a documented command *reads* names a file
//! in the tree, so deleting a harness cannot leave a dead command behind;
//! and every Rust path ARCHITECTURE.md quotes (`Type::item`) names
//! something the workspace still defines, so renaming or deleting code
//! cannot leave the architecture describing it.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "crates/bench/src/lib.rs",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `<dir>/<name>.rs` under the root package or under any workspace crate.
fn target_exists(dir: &str, name: &str) -> bool {
    let file = PathBuf::from(dir).join(format!("{name}.rs"));
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/");
    std::iter::once(root().to_path_buf())
        .chain(crates.map(|entry| entry.expect("crate dir").path()))
        .any(|package| package.join(&file).is_file())
}

/// A word as the prose quotes it: without backticks, brackets and
/// sentence punctuation around it.
fn bare(word: &str) -> &str {
    word.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '/'))
}

#[test]
fn every_documented_target_and_result_file_exists() {
    let mut dead = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        // Inline code opens with a backtick: "`--json results/x.json`".
        let flag = |i: usize| words[i].trim_start_matches('`');
        for (i, word) in words.iter().enumerate() {
            let dir = match flag(i) {
                "--bin" => "src/bin",
                "--example" => "examples",
                "--test" => "tests",
                _ => {
                    // A result file, unless the command shown writes it.
                    let path = bare(word);
                    let named = path
                        .strip_prefix("results/")
                        .is_some_and(|file| file.contains('.'));
                    let written = i > 0 && flag(i - 1) == "--json";
                    if named && !written && !root().join(path).is_file() {
                        dead.push(format!("{doc}: {path}"));
                    }
                    continue;
                }
            };
            let name = bare(words.get(i + 1).copied().unwrap_or_default());
            if !target_exists(dir, name) {
                dead.push(format!("{doc}: {word} {name}"));
            }
        }
        // The binary table in the bench crate's module docs.
        for line in text.lines() {
            if let Some(cell) = line.strip_prefix("//! | `") {
                let name = cell.split('`').next().unwrap_or_default();
                if !target_exists("src/bin", name) {
                    dead.push(format!("{doc}: table row `{name}`"));
                }
            }
        }
    }
    assert!(
        dead.is_empty(),
        "docs name files that are not in the tree: {dead:#?}"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names the workspace defines: items after a defining keyword,
/// fields and enum variants (an identifier opening a line, then `(`,
/// `{`, `,` or `:`), modules by file and directory, crates by directory
/// and library name.
fn defined_names() -> std::collections::HashSet<String> {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    let mut names = std::collections::HashSet::new();
    for dir in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let name = dir
            .expect("crate dir")
            .file_name()
            .to_string_lossy()
            .into_owned();
        names.insert(format!("bcwan_{name}"));
        names.insert(name);
    }
    for file in &files {
        for part in file.strip_prefix(root()).expect("under root").iter() {
            names.insert(part.to_string_lossy().trim_end_matches(".rs").to_string());
        }
        let text = std::fs::read_to_string(file).expect("readable source");
        for line in text.lines() {
            let words: Vec<&str> = line
                .split(|c: char| !is_ident_char(c) && c != '!')
                .filter(|w| !w.is_empty())
                .collect();
            for pair in words.windows(2) {
                let keyword = [
                    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
                ];
                if keyword.contains(&pair[0]) || pair[0] == "macro_rules!" {
                    names.insert(pair[1].to_string());
                }
            }
            let body = line.trim_start().trim_start_matches("pub(crate) ");
            let body = body.trim_start_matches("pub ");
            let ident: String = body.chars().take_while(|&c| is_ident_char(c)).collect();
            let rest = body[ident.len()..].trim_start();
            if !ident.is_empty() && rest.starts_with(['(', '{', ',', ':']) {
                names.insert(ident);
            }
        }
    }
    names
}

/// The Rust paths (`A::B::c`, `A::{B, C}`) and the bare `snake_case`
/// names inside one inline code span.
fn code_names(span: &str) -> (Vec<Vec<String>>, Vec<String>) {
    let (mut paths, mut bare) = (Vec::new(), Vec::new());
    let chars: Vec<char> = span.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // Not mid-word, and not a file path's `dir/name.rs::test` tail.
        if !is_ident_char(chars[i])
            || (i > 0 && (is_ident_char(chars[i - 1]) || "./".contains(chars[i - 1])))
        {
            i += 1;
            continue;
        }
        let mut path = vec![String::new()];
        while i < chars.len() {
            if is_ident_char(chars[i]) {
                path.last_mut().expect("a segment").push(chars[i]);
                i += 1;
            } else if chars[i..].starts_with(&[':', ':', '{']) {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map_or(chars.len(), |p| i + p);
                let group: String = chars[i + 3..close].iter().collect();
                path.extend(group.split(',').map(|s| s.trim().to_string()));
                i = close + 1;
                break;
            } else if chars[i..].starts_with(&[':', ':']) {
                path.push(String::new());
                i += 2;
            } else {
                break;
            }
        }
        if path.len() > 1 {
            if !["std", "core", "alloc"].contains(&path[0].as_str()) {
                paths.push(path);
            }
        } else if path[0].contains('_') && path[0].chars().any(|c| c.is_ascii_lowercase()) {
            bare.extend(path);
        }
    }
    (paths, bare)
}

/// ARCHITECTURE.md describes the code as it is: every `Type::item` path
/// it quotes resolves to a definition under `crates/` or `src/`, and
/// every bare `snake_case` name it quotes still occurs in the sources
/// (so a deleted function cannot linger in the prose).
#[test]
fn architecture_names_live_code() {
    let defined = defined_names();
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "benchmark/src"] {
        rust_files(&root().join(dir), &mut files);
    }
    let sources: String = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("readable source"))
        .collect();
    let text = std::fs::read_to_string(root().join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let prose: Vec<&str> = text
        .split("```")
        .step_by(2) // outside fenced blocks
        .collect();
    let mut dead = Vec::new();
    // Inline code is every odd piece between backticks.
    for span in prose.join("").split('`').skip(1).step_by(2) {
        let (paths, bare) = code_names(span);
        for path in paths {
            let missing = path
                .iter()
                .filter(|seg| !["crate", "self", "Self", "super"].contains(&seg.as_str()))
                .any(|seg| !seg.is_empty() && !defined.contains(seg));
            if missing {
                dead.push(path.join("::"));
            }
        }
        let gone = |name: &String| !defined.contains(name) && !sources.contains(name.as_str());
        dead.extend(bare.into_iter().filter(gone));
    }
    assert!(
        dead.is_empty(),
        "ARCHITECTURE.md names code that is not in the tree: {dead:#?}"
    );
}
