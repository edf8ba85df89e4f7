//! The instrument names the code emits and the ones `OBSERVABILITY.md`
//! promises are the same set.
//!
//! The test reads the sources of every crate under `crates/*/src` (a
//! package nested inside one, such as the benchmark, reads exported names
//! rather than emitting them and is skipped) and collects the string
//! literal of every `counter("…")`, `gauge("…")`, `histogram("…")`,
//! `span("…")` and `event("…")` call, and of the crates' cached-counter
//! macros (`static_counter!(name, "…")`). Comments, doc comments included,
//! and `#[cfg(test)]` modules are skipped: their names are examples and
//! test fixtures, not instruments. Then, in both directions:
//!
//! * every emitted name is documented: it appears, backticked, in
//!   `OBSERVABILITY.md` — in an inventory table or in the prose lists of
//!   histograms, gauges and events;
//! * every name in the first column of an `OBSERVABILITY.md` table is
//!   emitted somewhere (`a.{b,c}` and `a` / `b` cells name several).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOC: &str = include_str!("../../../OBSERVABILITY.md");

/// The instrument constructors whose first argument is a name.
const CALLS: [&str; 5] = ["counter(", "gauge(", "histogram(", "span(", "event("];

/// Whether `name` looks like an instrument name: dotted lowercase words.
fn is_name(name: &str) -> bool {
    name.contains('.')
        && !name.starts_with('.')
        && !name.ends_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

/// Every `.rs` file under `dir`, skipping nested packages and build
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.join("Cargo.toml").exists() || path.ends_with("target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `source` without comments and without `#[cfg(test)]` modules.
fn production_code(source: &str) -> String {
    let mut code = String::new();
    let mut lines = source.lines().peekable();
    while let Some(line) = lines.next() {
        let trimmed = line.trim();
        if trimmed == "#[cfg(test)]"
            && lines
                .peek()
                .is_some_and(|next| next.trim_start().starts_with("mod "))
        {
            // Skip the module: up to the line that closes its brace.
            let mut depth = 0i64;
            for line in lines.by_ref() {
                depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
                if depth <= 0 && line.contains('}') {
                    break;
                }
            }
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        code.push_str(line);
        code.push('\n');
    }
    code
}

/// The string literal that opens `rest` after optional whitespace.
fn leading_literal(rest: &str) -> Option<&str> {
    let rest = rest.trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// The instrument names `code` emits.
fn emitted_in(code: &str, names: &mut BTreeSet<String>) {
    for call in CALLS {
        for (at, _) in code.match_indices(call) {
            // A whole identifier: `wootz_obs::counter(`, not `my_counter(`.
            let before = code[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            if let Some(name) = leading_literal(&code[at + call.len()..]) {
                names.insert(name.to_string());
            }
        }
    }
    // `static_counter!(handle, "name")` and its siblings.
    for (at, _) in code.match_indices("_counter!(") {
        let args = &code[at + "_counter!(".len()..];
        if let Some((_, rest)) = args.split_once(',') {
            if let Some(name) = leading_literal(rest) {
                names.insert(name.to_string());
            }
        }
    }
}

/// Every instrument name the production sources of `crates/*/src` emit.
fn emitted() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        let source = std::fs::read_to_string(&file).unwrap();
        emitted_in(&production_code(&source), &mut names);
    }
    names
}

/// `a.{b,c}.d` → `a.b.d`, `a.c.d`.
fn expand(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .flat_map(|alt| expand(&format!("{}{alt}{}", &token[..open], &token[close + 1..])))
            .collect(),
        _ => vec![token.to_string()],
    }
}

/// The backticked instrument names in `text`, brace-expanded.
fn backticked_names(text: &str) -> BTreeSet<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .flat_map(expand)
        .filter(|name| is_name(name))
        .collect()
}

/// The names in the first column of every table of `doc`.
fn table_names(doc: &str) -> BTreeSet<String> {
    doc.lines()
        .filter_map(|line| line.trim().strip_prefix('|'))
        .filter_map(|row| row.split('|').next())
        .flat_map(backticked_names)
        .collect()
}

#[test]
fn every_emitted_name_is_documented_and_every_documented_name_is_emitted() {
    let emitted = emitted();
    let documented = backticked_names(DOC);
    let tabled = table_names(DOC);
    assert!(emitted.len() > 100, "found only {} names", emitted.len());
    assert!(tabled.len() > 100, "found only {} table rows", tabled.len());

    let undocumented: Vec<&String> = emitted
        .iter()
        .filter(|name| !documented.contains(*name))
        .collect();
    let unemitted: Vec<&String> = tabled.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && unemitted.is_empty(),
        "emitted but missing from OBSERVABILITY.md: {undocumented:?}\n\
         in an OBSERVABILITY.md table but emitted nowhere: {unemitted:?}"
    );
}

#[test]
fn the_scan_reads_calls_macros_and_tables_and_skips_tests_and_comments() {
    let code = production_code(
        "fn f() {\n\
         wootz_obs::counter(\"a.live\").incr();\n\
         let _s = span(\n    \"a.wrapped\");\n\
         static_counter!(calls, \"a.macro\");\n\
         // wootz_obs::counter(\"a.commented\");\n\
         /// wootz_obs::event(\"a.doc\");\n\
         my_counter(\"a.other_fn\");\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         fn g() { wootz_obs::gauge(\"a.test\"); }\n\
         }\n\
         fn h() { wootz_obs::histogram(\"a.after\"); }\n",
    );
    let mut names = BTreeSet::new();
    emitted_in(&code, &mut names);
    let expected: BTreeSet<String> = ["a.live", "a.wrapped", "a.macro", "a.after"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(names, expected);

    let doc = "| `x.{a,b}` / `y.c` | `z.not_a_name` |\n| Name | x |\nprose `w.d`\n";
    let tabled: Vec<String> = table_names(doc).into_iter().collect();
    assert_eq!(tabled, ["x.a", "x.b", "y.c"]);
    assert!(backticked_names(doc).contains("w.d"));
}
