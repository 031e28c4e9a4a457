//! Maps keyed by digests and dense ids hash with `bcwan_chain::IdMap` /
//! `IdSet`, never with `std`'s default SipHash: a 200-host `World` run
//! spent a fifth of its main thread in SipHash over txids, outpoints and
//! block hashes before they moved (EXPERIMENTS.md § "IH"). This test
//! keeps SipHash from coming back on such a map unnoticed. It reads the
//! non-test code of every `crates/*/src` file (each file up to its first
//! column-0 `#[cfg(test)]`, as `public_surface.rs` does) and fails on
//! any `HashMap<K, V>` or `HashSet<K>` written with no hasher argument
//! whose key `K` names one of [`ID_KEYS`] or is `[u8; 32]`.
//!
//! The check reads declared types: struct fields, signatures and
//! annotated `let`s. A map whose type is only inferred escapes it.

use std::path::{Path, PathBuf};

/// The id types whose maps must use the id hasher, besides `[u8; 32]`.
const ID_KEYS: [&str; 6] = [
    "TxId",
    "BlockHash",
    "OutPoint",
    "SigKey",
    "Address",
    "NodeId",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// `text` up to its first column-0 `#[cfg(test)]`, with `//` comments
/// and whitespace removed.
fn non_test_code(text: &str) -> String {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(|line| line.split("//").next().unwrap_or(""))
        .flat_map(|line| line.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

/// The top-level, comma-separated generic arguments of the type whose
/// `<` ends just before `rest`.
fn generic_args(rest: &str) -> Vec<&str> {
    let mut args = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, c) in rest.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '>' if depth == 0 => {
                // A trailing comma leaves no last argument.
                if start < i {
                    args.push(&rest[start..i]);
                }
                return args;
            }
            '>' => depth -= 1,
            ',' if depth == 0 => {
                args.push(&rest[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    args
}

/// Whether a map key's type (whitespace removed) names one of
/// [`ID_KEYS`] or `[u8; 32]`.
fn is_id_key(key: &str) -> bool {
    key.contains("[u8;32]")
        || key
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|word| ID_KEYS.contains(&word))
}

/// In `code` (whitespace removed): every id-keyed `HashMap`/`HashSet`
/// declared with no hasher argument, and how many id-keyed
/// `IdMap`/`IdSet` declarations there are.
fn id_keyed(code: &str) -> (Vec<String>, usize) {
    let mut default = Vec::new();
    let mut id_hasher = 0;
    for (kind, args_without_hasher) in [
        ("HashMap<", 2),
        ("HashSet<", 1),
        ("IdMap<", 2),
        ("IdSet<", 1),
    ] {
        for (at, _) in code.match_indices(kind) {
            // `MyHashMap<` is some other type.
            if code[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            let args = generic_args(&code[at + kind.len()..]);
            if !args.first().is_some_and(|key| is_id_key(key)) {
                continue;
            }
            if kind.starts_with("Id") {
                id_hasher += 1;
            } else if args.len() == args_without_hasher {
                default.push(format!("{kind}{}>", args.join(",")));
            }
        }
    }
    (default, id_hasher)
}

#[test]
fn the_scan_reads_keys_and_hasher_arguments() {
    let code = non_test_code(
        "struct A { a: HashMap<TxId, u64>, b: std::collections::HashSet<[u8; 32]>,\n\
         c: HashMap<(u32, u64), usize>, d: HashMap<OutPoint, Vec<u8>, IdState>,\n\
         e: HashSet<\n    Arc<BlockHash>,\n>, f: IdMap<NodeId, Vec<(u8, u8)>>,\n\
         g: HashMap<Vec<u8>, Session>, h: MyHashMap<TxId, u8> } // HashMap<SigKey, u8>\n\
         #[cfg(test)]\nstruct B { a: HashSet<SigKey> }",
    );
    let (default, id_hasher) = id_keyed(&code);
    assert_eq!(
        default,
        [
            "HashMap<TxId,u64>",
            "HashSet<[u8;32]>",
            "HashSet<Arc<BlockHash>>"
        ]
    );
    assert_eq!(id_hasher, 1);
}

#[test]
fn no_id_keyed_map_uses_the_default_hasher() {
    let mut offenders = Vec::new();
    let mut on_id_hasher = 0;
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crate dir").path())
        .filter(|dir| dir.join("src").is_dir())
        .collect();
    crates.sort();
    for krate in &crates {
        for file in rust_files(&krate.join("src")) {
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            let (default, id_hasher) = id_keyed(&non_test_code(&text));
            on_id_hasher += id_hasher;
            let path = file
                .strip_prefix(root())
                .unwrap_or(&file)
                .display()
                .to_string();
            offenders.extend(default.into_iter().map(|ty| format!("{path}: {ty}")));
        }
    }
    // The scan must see the maps it guards, or a parsing slip would pass
    // everything.
    assert!(
        on_id_hasher >= 20,
        "the scan found only {on_id_hasher} id-keyed IdMap/IdSet declarations"
    );
    assert!(
        offenders.is_empty(),
        "maps keyed by digests or dense ids on std's SipHash; declare them \
         as bcwan_chain::IdMap / IdSet: {offenders:#?}"
    );
}
