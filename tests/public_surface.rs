//! The public surface is what another crate calls. Every non-test
//! `pub fn` in `crates/*/src` must be named somewhere outside its own
//! crate: another crate's sources, an integration test, an example, a
//! bench binary, the `benchmark/` harness or a doctest (which compiles
//! as a crate of its own). A function only its own
//! crate calls is `pub(crate)`, and then rustc's `dead_code` lint (which
//! CI's clippy step denies) reports it the day its last caller goes.
//!
//! "Non-test" is each file up to its first column-0 `#[cfg(test)]`, the
//! count EXPERIMENTS.md uses. The check is by name, so a public name that
//! another crate uses for something else still counts as named; it
//! catches new surface, not every unused one.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively (none if it is absent).
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every identifier-shaped word of `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// The code of `text`'s doctests: the fenced blocks of its doc comments
/// (of every line, for a Markdown file).
fn doctest_code(text: &str, markdown: bool) -> String {
    let mut code = String::new();
    let mut fenced = false;
    for line in text.lines() {
        let line = line.trim_start();
        let doc = if markdown {
            Some(line)
        } else {
            line.strip_prefix("///")
                .or_else(|| line.strip_prefix("//!"))
        };
        match doc.map(str::trim_start) {
            Some(body) if body.starts_with("```") => fenced = !fenced,
            Some(body) if fenced => {
                code.push_str(body);
                code.push('\n');
            }
            Some(_) => {}
            None => fenced = false,
        }
    }
    code
}

/// The name of the function a line declares `pub`, if it does.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    identifiers(rest).next()
}

#[test]
fn every_pub_fn_is_named_outside_its_crate() {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crate dir").path())
        .filter(|dir| dir.join("src").is_dir())
        .collect();
    crates.sort();

    // Places outside every crate's library: the root package, the
    // integration tests, the examples and the benchmark harness. Each
    // crate's own `tests/` and the bench binaries are outside too, since
    // they see only its public items.
    let mut shared: Vec<PathBuf> = ["src", "tests", "examples", "benchmark/src"]
        .iter()
        .flat_map(|dir| rust_files(&root().join(dir)))
        .collect();
    for krate in &crates {
        shared.extend(rust_files(&krate.join("tests")));
    }
    let bins = root().join("crates/bench/src/bin");
    shared.extend(rust_files(&bins));

    let sources: Vec<(PathBuf, Vec<(PathBuf, String)>)> = crates
        .iter()
        .map(|krate| {
            let files = rust_files(&krate.join("src"))
                .into_iter()
                .filter(|file| !file.starts_with(&bins))
                .map(|file| {
                    let text = read(&file);
                    (file, text)
                })
                .collect();
            (krate.clone(), files)
        })
        .collect();
    let mut shared_text: Vec<String> = shared.iter().map(|file| read(file)).collect();
    shared_text.push(doctest_code(&read(&root().join("README.md")), true));
    for (_, files) in &sources {
        shared_text.extend(files.iter().map(|(_, text)| doctest_code(text, false)));
    }

    let mut unnamed = Vec::new();
    let mut scanned = 0;
    for (krate, files) in &sources {
        let outside: HashSet<&str> = sources
            .iter()
            .filter(|(other, _)| other != krate)
            .flat_map(|(_, files)| files.iter())
            .map(|(_, text)| text.as_str())
            .chain(shared_text.iter().map(String::as_str))
            .flat_map(identifiers)
            .collect();
        for (file, text) in files {
            let non_test = text
                .lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"));
            for name in non_test.filter_map(pub_fn_name) {
                scanned += 1;
                if !outside.contains(name) {
                    let path = file.strip_prefix(root()).unwrap_or(file);
                    unnamed.push(format!("{}: {name}", path.display()));
                }
            }
        }
    }
    assert!(scanned > 100, "the scan found only {scanned} pub fns");
    assert!(
        unnamed.is_empty(),
        "{} pub fns are named nowhere outside their crate; make them \
         pub(crate) (and delete what rustc then reports unused): {unnamed:#?}",
        unnamed.len()
    );
}
