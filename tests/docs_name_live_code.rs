//! Docs that cannot drift: every `--bin X`, `--example X`, `--test X`
//! and every `results/<file>` a documented command *reads* names a file
//! in the tree, so deleting a harness cannot leave a dead command behind.

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
