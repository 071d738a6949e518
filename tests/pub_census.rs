//! The `pub` census: every public item of `crates/*/src` must be reached
//! from outside its own file — by another crate source, the root package's
//! `src/`, or `benchmark/src` (which builds `--locked` against the crates).
//! Code no experiment runs is deleted, not kept public on spec (DESIGN.md
//! §9); an item only its own file uses is narrowed to `pub(crate)`.
//!
//! A reference is an identifier in code outside `use` declarations (a
//! re-export is no caller), `#[cfg(test)]` items and test-only modules;
//! `tests/` and `examples/` are not read. A type is also reached through
//! the interface of a reached item of its file (the builder a reached fn
//! returns), and a method only once its type is. Matching is by name, so
//! the census under-reports (`new` is always "reached") and never
//! over-reports; `census_flags_only_unreached_items` runs it on a planted
//! tree.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Public items kept with no caller outside their file, as `(path, name)`,
/// each for a reason the census cannot see. They, and what their
/// interfaces name, count as reached.
const ALLOWED: &[(&str, &str)] = &[
    // Reference oracles: the analysis tests/properties.rs holds code to.
    ("crates/abr/src/hyb.rs", "Hyb"), // §4.2's algorithm vs its closed form
    ("crates/core/src/analysis.rs", "buffer_after"), // Theorem A.1
    ("crates/core/src/analysis.rs", "achievable_bitrate"), // Theorem A.1
    ("crates/core/src/pace.rs", "validate_against_threshold"), // Eq. 1 headroom
    ("crates/bench/src/shared.rs", "jain_index"), // DRR fairness property
    // The fluid-vs-packet differential oracle (tests/fluid_vs_packet.rs).
    ("crates/bench/src/lab.rs", "chaos_profile"),
    ("crates/bench/src/lab.rs", "chaos_packet_download"),
    ("crates/bench/src/lab.rs", "chaos_fluid_download"),
    // Invariant checks, and the probes the invariant and reproducer tests drive.
    ("crates/netsim/src/engine.rs", "check_topology_conservation"),
    ("crates/netsim/src/engine.rs", "run_to_completion"), // drain, then check
    ("crates/netsim/src/engine.rs", "set_link_rate"),     // capacity-dip injection
    ("crates/transport/src/endpoint.rs", "sender_mut"),   // pace churn mid-transfer
    ("crates/video/src/player.rs", "buffer_level"),       // the buffer-cap property
    ("crates/video/src/abr_api.rs", "FixedRung"),         // a decision-free player
    ("crates/obs/src/lib.rs", "counter_value"),           // exact session counts
    ("crates/obs/src/lib.rs", "ENABLED"), // read where a recording macro expands, in every crate
    // Input validation: the caps the daemon tests probe.
    ("crates/serve/src/http.rs", "MAX_BODY"),
    ("crates/serve/src/http.rs", "MAX_HEAD"),
    ("crates/spec/src/lib.rs", "MAX_SEARCH_USERS"),
];

/// Whether the census exempts `name`, declared in `path`. A sabotage hook
/// (`mutant_*`) is exempt by name: it exists for a test binary to break an
/// invariant on purpose.
fn exempt(path: &str, name: &str) -> bool {
    name.starts_with("mutant_") || ALLOWED.contains(&(path, name))
}

/// The identifiers and punctuation of Rust source, one token a string;
/// comments, string and char literals, lifetimes and numbers are dropped.
fn lex(src: &str) -> Vec<String> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let word = |ch: char| ch.is_alphanumeric() || ch == '_';
    // The first index at or after `i` holding a char `stop` accepts.
    let until = |mut i: usize, stop: &dyn Fn(char) -> bool| {
        while i < c.len() && !stop(c[i]) {
            i += 1;
        }
        i
    };
    let (mut out, mut i) = (Vec::new(), 0);
    while i < c.len() {
        let (x, y) = (c[i], at(i + 1));
        // Past a byte literal's `b`.
        let q = i + usize::from(x == 'b' && (y == '"' || y == '\''));
        i = if x == '/' && y == '/' {
            until(i, &|ch| ch == '\n')
        } else if x == '/' && y == '*' {
            block_comment_end(&c, i)
        } else if c[q] == '"' {
            let mut j = q + 1;
            while j < c.len() && c[j] != '"' {
                j += if c[j] == '\\' { 2 } else { 1 };
            }
            j + 1
        } else if let Some(end) = raw_string_end(&c, i) {
            end
        } else if c[q] == '\'' && (at(q + 1) == '\\' || at(q + 2) == '\'') {
            until(q + 2 + usize::from(at(q + 1) == '\\'), &|ch| ch == '\'') + 1
        } else if c[q] == '\'' {
            until(q + 1, &|ch| !word(ch)) // a lifetime
        } else if word(x) {
            let end = until(i, &|ch| !word(ch));
            if !x.is_ascii_digit() {
                out.push(c[i..end].iter().collect());
            }
            end
        } else {
            if x.is_ascii_punctuation() {
                out.push(x.to_string());
            }
            i + 1
        };
    }
    out
}

/// The index just past the (nested) block comment opening at `i`.
fn block_comment_end(c: &[char], mut i: usize) -> usize {
    let mut depth = 0;
    while i < c.len() {
        match (c[i], c.get(i + 1)) {
            ('/', Some('*')) => (depth, i) = (depth + 1, i + 2),
            ('*', Some('/')) => (depth, i) = (depth - 1, i + 2),
            _ => i += 1,
        }
        if depth == 0 {
            break;
        }
    }
    i
}

/// If a raw string (`r"…"`, `r#"…"#`, `br"…"`) starts at `i`, the index
/// just past it.
fn raw_string_end(c: &[char], i: usize) -> Option<usize> {
    let r = i + usize::from(c[i] == 'b');
    let hashes = c.get(r + 1..)?.iter().take_while(|&&h| h == '#').count();
    if c.get(r) != Some(&'r') || c.get(r + 1 + hashes) != Some(&'"') {
        return None;
    }
    let close: Vec<char> = std::iter::once('"').chain(vec!['#'; hashes]).collect();
    let body = r + 2 + hashes;
    let found = c[body..].windows(close.len()).position(|w| w == close);
    Some(found.map_or(c.len(), |p| body + p + close.len()))
}

fn is(t: &[String], i: usize, s: &str) -> bool {
    t.get(i).is_some_and(|x| x == s)
}

fn is_ident(x: &str) -> bool {
    x.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// The index just past the `open … shut` group that opens at or after `i`.
fn group_end(t: &[String], i: usize, open: &str, shut: &str) -> usize {
    let mut depth = 0;
    for (j, x) in t.iter().enumerate().skip(i) {
        depth += i32::from(x == open) - i32::from(x == shut);
        if x == shut && depth == 0 {
            return j + 1;
        }
    }
    t.len()
}

/// The index just past the item or statement starting at `i`: its first
/// `;` outside brackets, or its first `{…}` block (and a `;` after it).
fn item_end(t: &[String], i: usize) -> usize {
    let mut depth = 0;
    for j in i..t.len() {
        match t[j].as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return j + 1,
            "{" if depth == 0 => {
                let end = group_end(t, j, "{", "}");
                return end + usize::from(is(t, end, ";"));
            }
            _ => {}
        }
    }
    t.len()
}

/// The tokens compiled outside tests — `#[cfg(test)]` and
/// `#[cfg(all(test, …))]` items dropped — and the test-only modules
/// declared out of line (`#[cfg(test)] mod oracle;`).
fn non_test(t: &[String]) -> (Vec<String>, Vec<String>) {
    let (mut kept, mut mods, mut i) = (Vec::new(), Vec::new(), 0);
    while i < t.len() {
        let cfg = is(t, i, "#") && is(t, i + 1, "[") && is(t, i + 2, "cfg");
        if cfg && (is(t, i + 4, "test") && is(t, i + 5, ")") || is(t, i + 6, "test")) {
            let item = group_end(t, i + 1, "[", "]");
            if is(t, item, "mod") && is(t, item + 2, ";") {
                mods.push(t[item + 1].clone());
            }
            i = item_end(t, item);
        } else {
            kept.push(t[i].clone());
            i += 1;
        }
    }
    (kept, mods)
}

/// A `pub` item: `pub(crate)` and narrower, `pub mod`, `pub use` and
/// struct fields are not items here.
struct Item {
    file: usize,
    kind: String,
    name: String,
    /// The type of the inherent `impl` block declaring it.
    owner: Option<String>,
    /// Identifiers of its interface — a fn's signature, any other item
    /// whole: a type named there is reachable through the item.
    iface: BTreeSet<String>,
}

/// The self type of the item-position `impl` at `i`; `None` for a trait
/// impl.
fn impl_owner(t: &[String], i: usize) -> Option<String> {
    let from = if is(t, i + 1, "<") {
        group_end(t, i + 1, "<", ">")
    } else {
        i + 1
    };
    let to = (from..t.len()).find(|&k| is(t, k, "{")).unwrap_or(t.len());
    let header = &t[from..to];
    if header.iter().any(|x| x == "for") {
        return None;
    }
    let path = header
        .iter()
        .take_while(|x| *x == ":" || is_ident(x) && *x != "where");
    path.filter(|x| is_ident(x)).last().cloned()
}

/// The kind, name and interface end of a `pub` item whose `pub` is at `i`.
fn pub_item(t: &[String], i: usize) -> Option<(String, String, usize)> {
    let mut j = i + 1;
    let qualifier = |k: usize| ["unsafe", "async", "extern"].iter().any(|q| is(t, k, q));
    while qualifier(j) || is(t, j, "const") && (is(t, j + 1, "fn") || qualifier(j + 1)) {
        j += 1;
    }
    let kind = t.get(j)?.as_str();
    let name = t.get(j + 1 + usize::from(kind == "static" && is(t, j + 1, "mut")))?;
    let kinds = "fn struct enum trait type union static const";
    if !kinds.split(' ').any(|k| k == kind) || !is_ident(name) {
        return None;
    }
    let end = match kind {
        "fn" => (j..t.len())
            .find(|&k| is(t, k, "{") || is(t, k, ";"))
            .unwrap_or(t.len()),
        _ => item_end(t, j),
    };
    Some((kind.to_string(), name.clone(), end))
}

/// The `pub` items declared in file `file`'s tokens, and every identifier
/// it names outside `use` declarations.
fn scan(t: &[String], file: usize) -> (Vec<Item>, BTreeSet<String>) {
    let (mut items, mut refs) = (Vec::new(), BTreeSet::new());
    // One entry a open brace: the type whose inherent impl it opens.
    let (mut blocks, mut pending) = (Vec::new(), None);
    let mut i = 0;
    while i < t.len() {
        match t[i].as_str() {
            "use" => {
                i = item_end(t, i);
                continue;
            }
            "{" => blocks.push(pending.take()),
            "}" => drop(blocks.pop()),
            "impl" if i == 0 || matches!(t[i - 1].as_str(), "}" | ";" | "{" | "]" | "unsafe") => {
                pending = impl_owner(t, i)
            }
            "pub" => {
                if let Some((kind, name, end)) = pub_item(t, i) {
                    let iface = t[i..end].iter().filter(|x| is_ident(x)).cloned().collect();
                    let owner = blocks.last().cloned().flatten();
                    items.push(Item {
                        file,
                        kind,
                        name,
                        owner,
                        iface,
                    });
                }
            }
            x if is_ident(x) => drop(refs.insert(x.to_string())),
            _ => {}
        }
        i += 1;
    }
    (items, refs)
}

/// Every `pub` item of `sources` — `(path, text)` pairs, the path relative
/// to the repository root — that is not reached, as `path: kind name`,
/// sorted. Items of `crates/` files are counted; the other files only
/// refer. An item `exempt(path, name)` is reached.
fn census(sources: &[(String, String)], exempt: impl Fn(&str, &str) -> bool) -> Vec<String> {
    let lexed: Vec<_> = sources
        .iter()
        .map(|(_, text)| non_test(&lex(text)))
        .collect();
    // Files of test-only modules (`src/oracle.rs` for `mod oracle;` in
    // `src/lib.rs`, `src/a/x.rs` for one in `src/a.rs`).
    let mut test_only = BTreeSet::new();
    for ((path, _), (_, mods)) in sources.iter().zip(&lexed) {
        let stem = path.trim_end_matches(".rs");
        let base = stem.trim_end_matches("/lib").trim_end_matches("/main");
        test_only.extend(mods.iter().map(|m| format!("{base}/{m}.rs")));
    }
    let (mut items, mut refs) = (Vec::new(), Vec::new());
    for (f, ((path, _), (toks, _))) in sources.iter().zip(&lexed).enumerate() {
        let (declared, named) = scan(toks, f);
        let counted = !test_only.contains(path);
        items.extend(
            declared
                .into_iter()
                .filter(|_| counted && path.starts_with("crates/")),
        );
        refs.push(if counted { named } else { BTreeSet::new() });
    }
    let type_at = |file: usize, name: &str| {
        let is_type = |o: &Item| !matches!(o.kind.as_str(), "fn" | "const" | "static");
        items
            .iter()
            .position(|o| o.file == file && o.name == name && is_type(o))
    };
    // An item is reached when another file names it, or when the interface
    // of a reached item of its own file does; a method also needs its type
    // reached. Grown to a fixed point from the exempt items.
    let mut reached: Vec<bool> = items
        .iter()
        .map(|it| exempt(&sources[it.file].0, &it.name))
        .collect();
    let mut grew = true;
    while grew {
        grew = false;
        for (n, it) in items.iter().enumerate() {
            let owner = it.owner.as_ref().and_then(|o| type_at(it.file, o));
            if reached[n] || owner.is_some_and(|m| !reached[m]) {
                continue;
            }
            let named_elsewhere = refs
                .iter()
                .enumerate()
                .any(|(f, r)| f != it.file && r.contains(&it.name));
            let in_iface = items.iter().enumerate().any(|(m, o)| {
                reached[m] && m != n && o.file == it.file && o.iface.contains(&it.name)
            });
            reached[n] = named_elsewhere || in_iface;
            grew |= reached[n];
        }
    }
    let mut unreached: Vec<String> = items
        .iter()
        .zip(&reached)
        .filter(|(_, &r)| !r)
        .map(|(it, _)| format!("{}: {} {}", sources[it.file].0, it.kind, it.name))
        .collect();
    unreached.sort();
    unreached.dedup();
    unreached
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .map(|e| e.path())
        .flat_map(|p| match p.is_dir() {
            true => rust_files(&p),
            false => Vec::from_iter(p.extension().is_some_and(|x| x == "rs").then_some(p)),
        })
        .collect()
}

#[test]
fn every_pub_item_is_reached_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for path in ["src", "benchmark/src", "crates"]
        .iter()
        .flat_map(|d| rust_files(&root.join(d)))
    {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        // A crate's tests/, benches/ and examples/ neither declare nor refer.
        if !rel.starts_with("crates/") || rel.split('/').nth(2) == Some("src") {
            sources.push((rel, std::fs::read_to_string(&path).unwrap()));
        }
    }
    sources.sort();
    assert!(
        sources.len() > 50,
        "the walk found too few sources to mean anything"
    );
    let flagged = census(&sources, exempt);
    assert!(
        flagged.is_empty(),
        "pub items with no reference outside their own file (delete them, \
         narrow them to pub(crate), or name the reason in ALLOWED):\n  {}",
        flagged.join("\n  ")
    );
    let unexempted = census(&sources, |_, name| name.starts_with("mutant_"));
    let stale: Vec<_> = ALLOWED
        .iter()
        .filter(|(path, name)| {
            !unexempted
                .iter()
                .any(|l| l.starts_with(path) && l.ends_with(&format!(" {name}")))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "ALLOWED names items reached without it, or gone: {stale:?}"
    );
}

#[test]
fn census_flags_only_unreached_items() {
    let lib = r#"
        //! [`Lonely`] is documented but never called.
        pub mod inner;
        #[cfg(test)]
        mod oracle;
        pub use inner::{Lonely, ReExported};
        pub fn used_by_bench() -> Returned { let _ = "Lonely"; Returned }
        pub struct Returned;
        pub(crate) fn narrow() {}
        pub struct Wrapper { pub field: u8 }
    "#;
    let inner = r#"
        pub struct Lonely;
        impl Lonely { pub fn new() -> Self { Lonely } }
        pub struct ReExported;
        pub const fn called() -> char { '\'' }
        pub fn self_only<'a>(s: &'a str) -> &'a str { helper(s) }
        fn helper(s: &str) -> &str { self_only(s) }
        pub struct Exempt { cfg: ExemptConfig }
        pub struct ExemptConfig;
        impl Exempt { pub fn exempt_method(&self) {} }
        #[cfg(test)]
        mod tests { fn t() { let _ = super::Lonely; crate::Wrapper { field: 1 }; } }
    "#;
    let sources = [
        ("crates/a/src/lib.rs", lib),
        ("crates/a/src/inner.rs", inner),
        ("crates/a/src/oracle.rs", "pub fn oracle_only() {}"),
        (
            "crates/b/src/lib.rs",
            "use a::inner::called; fn g(_: a::Wrapper) { called(); X::new(); }",
        ),
        (
            "benchmark/src/lib.rs",
            "fn f(x: X) { a::used_by_bench(); x.exempt_method(); }",
        ),
    ]
    .map(|(path, text)| (path.to_string(), text.to_string()));
    assert_eq!(
        census(&sources, |_, name| name == "Exempt"),
        [
            "crates/a/src/inner.rs: fn new",
            "crates/a/src/inner.rs: fn self_only",
            "crates/a/src/inner.rs: struct Lonely",
            "crates/a/src/inner.rs: struct ReExported",
        ]
    );
}
