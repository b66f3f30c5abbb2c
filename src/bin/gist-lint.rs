//! gist-lint: std-only static checks for the repo's discipline rules.
//!
//! The dynamic analyzer (`crates/audit`, live in `latch-audit` builds)
//! asserts the §5 latch/lock protocol at runtime; this binary
//! enforces the complementary *source-level* rules that keep the
//! protocol auditable at all. Only rules that need a path scope or a
//! closure's extent live here; what the compiler can see by type is the
//! toolchain's job (`clippy.toml` and the lint flags in
//! `scripts/verify.sh`, DESIGN.md §10.2):
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `no-raw-std-sync` | no bare `parking_lot` / `std::sync` mutex, rwlock or condvar in the model-checked crate (wal) — synchronization there must go through the `gist-sync` wrappers, or the deterministic scheduler (`crates/mc`) cannot see the operation and its schedules silently lose coverage |
//! | `no-latch-in-optimistic` | no `fetch_read` / `fetch_write` / `new_page_write` inside a `read_with(...)` optimistic closure in `crates/core` — the latch-free fast path must not take latches mid-copy (static twin of the dynamic `latch-in-optimistic` audit rule) |
//! | `no-unbounded-read` | no raw `.read(...)` / `.write_all(...)` socket calls in `crates/serve` outside the deadline-wrapped transport helpers (`io.rs`) — a session parked on a dead peer with no deadline is exactly the leak the serving layer exists to prevent |
//! | `no-owned-decode-in-traversal` | no `LeafEntry::decode(` / `InternalEntry::decode(` / `node::internal_entries(` / `node::leaf_entries(` under `crates/core/src/ops/` or in `tree.rs` / `maint.rs` / `check.rs` — traversals read entries through the borrowed views (`LeafEntryRef`, `InternalEntryRef`); an owning decode there is one `malloc` per entry looked at |
//! | `chaos-point-registry` | every `chaos::point("...")` crash point and `chaos::armed("...")` mutation switch names an entry of the chaos crate's `CATALOG`, the catalog is duplicate-free, and every cataloged name is threaded through at least one call site |
//!
//! Scanning is line/AST-lite on purpose: the build must stay offline, so
//! no syn/proc-macro dependencies. A light sanitizer strips comments and
//! string literals and a brace tracker excludes `#[cfg(test)]` regions,
//! which is exact enough for these rules on this codebase.
//!
//! Exit status is non-zero when any violation is found; `scripts/verify.sh`
//! runs it as a tier-2 gate.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Violation {
    rule: &'static str,
    file: String,
    line: usize,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// A source file held in memory: repo-relative path + raw text.
struct SourceFile {
    path: String,
    raw: String,
    /// Comment- and string-stripped text, same length/line structure.
    clean: String,
    /// Per-line flag: line begins inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
}

impl SourceFile {
    fn new(path: String, raw: String) -> SourceFile {
        let clean = sanitize(&raw);
        // An out-of-line test module (`#[cfg(test)] mod tests;` pointing
        // at src/tests.rs or src/tests/) is test code wholesale.
        let in_test = if path.ends_with("/tests.rs") || path.contains("/tests/") {
            clean.lines().map(|_| true).collect()
        } else {
            test_lines(&clean)
        };
        SourceFile { path, raw, clean, in_test }
    }

    fn lines(&self) -> impl Iterator<Item = (usize, &str, &str, bool)> {
        self.clean
            .lines()
            .zip(self.raw.lines())
            .enumerate()
            .map(move |(i, (c, r))| (i + 1, c, r, *self.in_test.get(i).unwrap_or(&false)))
    }
}

/// Replace comment and string-literal *contents* with spaces, keeping the
/// line structure intact so line numbers survive. Handles `//`, `/* */`
/// (nested), `"..."` with escapes, and char literals / lifetimes well
/// enough for this repo (no raw strings with embedded quotes are used).
fn sanitize(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() && b[i] != '"' {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < b.len() {
                out.push('"');
                i += 1;
            }
        } else if c == '\'' {
            // Char literal ('x', '\n', '\u{..}') or a lifetime ('a).
            if i + 1 < b.len() && b[i + 1] == '\\' {
                // Escaped char literal: copy blanked up to the closing quote.
                out.push('\'');
                i += 1;
                while i < b.len() && b[i] != '\'' {
                    out.push(' ');
                    i += 1;
                }
                if i < b.len() {
                    out.push('\'');
                    i += 1;
                }
            } else if i + 2 < b.len() && b[i + 2] == '\'' {
                out.push('\'');
                out.push(' ');
                out.push('\'');
                i += 3;
            } else {
                out.push('\'');
                i += 1; // lifetime
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out.into_iter().collect()
}

/// Per-line "is inside a `#[cfg(test)]` item" flags, computed on the
/// sanitized text by tracking brace depth from each attribute to the
/// matching close of the item it introduces.
fn test_lines(clean: &str) -> Vec<bool> {
    let mut flags = Vec::new();
    let mut depth: i64 = 0;
    // Depth at which a #[cfg(test)] item opened; region ends when the
    // depth returns to it.
    let mut regions: Vec<i64> = Vec::new();
    let mut pending_attr = false;
    for line in clean.lines() {
        flags.push(!regions.is_empty());
        if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
            pending_attr = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if pending_attr {
                        regions.push(depth);
                        pending_attr = false;
                        // The attribute's own line is already test code.
                        if let Some(last) = flags.last_mut() {
                            *last = true;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last().is_some_and(|d| depth <= *d) {
                        regions.pop();
                    }
                }
                // A `;` before any `{` ends the attributed item without a
                // body (`#[cfg(test)] mod tests;` — handled via the path
                // check in `SourceFile::new`, not by brace tracking).
                ';' => pending_attr = false,
                _ => {}
            }
        }
    }
    flags
}

/// Push a `rule` violation for every non-test line of `f` without the
/// same-line `waiver` on which `hit` (given the sanitized line) returns
/// a message.
fn flag_lines(
    f: &SourceFile,
    rule: &'static str,
    waiver: &str,
    out: &mut Vec<Violation>,
    hit: impl Fn(&str) -> Option<String>,
) {
    for (n, clean, raw, test) in f.lines() {
        if test || raw.contains(waiver) {
            continue;
        }
        if let Some(msg) = hit(clean) {
            out.push(Violation { rule, file: f.path.clone(), line: n, msg });
        }
    }
}

/// Rule `no-raw-std-sync`: the crate the mc scenarios drive through the
/// `gist-sync` wrappers (the log and its device mutex) is model-checked
/// — every mutex/condvar operation there is a scheduling point. A bare
/// `parking_lot` or `std::sync` primitive in that crate
/// is invisible to the deterministic scheduler: schedules interleave
/// *around* it, and the mc suite quietly stops covering the code it
/// pins. Tests are exempt (they run unmanaged); a deliberate raw
/// primitive takes a same-line `lint: allow-raw-sync` waiver stating
/// why it must not be a yield point.
fn rule_no_raw_std_sync(f: &SourceFile, out: &mut Vec<Violation>) {
    if !f.path.starts_with("crates/wal/") {
        return;
    }
    flag_lines(f, "no-raw-std-sync", "lint: allow-raw-sync", out, |clean| {
        let source = if clean.contains("parking_lot") {
            "parking_lot"
        } else if clean.contains("std::sync")
            && ["Mutex", "RwLock", "Condvar"].iter().any(|t| clean.contains(t))
        {
            "std::sync"
        } else {
            return None;
        };
        Some(format!(
            "bare `{source}` synchronization in a model-checked crate — use the \
             `gist-sync` wrappers so the deterministic scheduler sees the \
             operation; waive with `lint: allow-raw-sync` if it must stay \
             invisible"
        ))
    });
}

/// Rule `no-latch-in-optimistic`: the optimistic fast path must stay
/// latch-free. A `fetch_read` / `fetch_write` / `new_page_write` inside a
/// `read_with(...)` closure in `crates/core` acquires a latch while an
/// optimistic seqlock copy is being taken — the exact inversion the
/// dynamic `latch-in-optimistic` audit rule panics on at runtime, caught
/// here at the source level before any test has to hit the interleaving.
/// Tracks parenthesis depth from each `read_with(` to its matching close,
/// across lines, so multi-line closures are covered. A deliberate latched
/// fetch takes a same-line `lint: allow-latch-in-optimistic` waiver.
fn rule_no_latch_in_optimistic(f: &SourceFile, out: &mut Vec<Violation>) {
    if !f.path.starts_with("crates/core/") {
        return;
    }
    const NEEDLES: [&str; 3] = ["fetch_read(", "fetch_write(", "new_page_write("];
    // Paren depths at which a `read_with(` argument list opened; the
    // region closes when the depth returns to the recorded value.
    let mut open: Vec<i64> = Vec::new();
    let mut depth: i64 = 0;
    for (n, clean, raw, test) in f.lines() {
        let waived = test || raw.contains("lint: allow-latch-in-optimistic");
        let b = clean.as_bytes();
        let mut i = 0;
        let mut flagged = false;
        while i < b.len() {
            if b[i..].starts_with(b"read_with(") {
                i += "read_with".len(); // lands on the '('
                open.push(depth);
                depth += 1;
                i += 1;
                continue;
            }
            if !open.is_empty() && !waived && !flagged {
                if let Some(needle) = NEEDLES.iter().find(|nd| b[i..].starts_with(nd.as_bytes()))
                {
                    out.push(Violation {
                        rule: "no-latch-in-optimistic",
                        file: f.path.clone(),
                        line: n,
                        msg: format!(
                            "`{needle}` inside a `read_with` optimistic closure — the fast \
                             path must not take latches; copy what you need out and fetch \
                             after validation, or waive with `lint: allow-latch-in-optimistic`"
                        ),
                    });
                    flagged = true;
                }
            }
            match b[i] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    while open.last().is_some_and(|d| depth <= *d) {
                        open.pop();
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Rule `no-unbounded-read`: inside `crates/serve`, every socket read
/// or write must go through the deadline-wrapped helpers in
/// `crates/serve/src/io.rs` (the `Transport` trait's `recv`/`send`). A
/// raw `.read(...)` / `.write_all(...)` elsewhere in the crate parks a
/// session thread on a peer that may never speak again, which defeats
/// slow-client eviction and graceful drain. The helper module itself is
/// exempt (it is where the deadlines are applied); a deliberate raw
/// call elsewhere takes a same-line `lint: allow-raw-io` waiver.
fn rule_no_unbounded_read(f: &SourceFile, out: &mut Vec<Violation>) {
    if !f.path.starts_with("crates/serve/") || f.path == "crates/serve/src/io.rs" {
        return;
    }
    const RAW_IO: &[&str] = &[
        ".read(",
        ".read_exact(",
        ".read_to_end(",
        ".read_to_string(",
        ".write(",
        ".write_all(",
        ".peek(",
    ];
    flag_lines(f, "no-unbounded-read", "lint: allow-raw-io", out, |clean| {
        RAW_IO.iter().any(|p| clean.contains(p)).then(|| {
            "raw socket I/O outside the deadline-wrapped helpers — go through \
             `Transport::recv`/`Transport::send` (crates/serve/src/io.rs) so \
             every park is bounded; waive with `lint: allow-raw-io`"
                .to_string()
        })
    });
}

/// Rule `no-owned-decode-in-traversal`: the traversal code of
/// `crates/core` looks at every entry of every node it visits, so it
/// reads them through the borrowed views (`LeafEntryRef` /
/// `InternalEntryRef`, `node::leaf_views` / `node::internal_views`).
/// An owning decode (`LeafEntry::decode`, `InternalEntry::decode`) or a
/// collecting helper (`node::internal_entries`, `node::leaf_entries`)
/// there copies a key or predicate to the heap per entry — the cost the
/// views removed (DESIGN.md, "Node access: borrowed entry views"). Code
/// that really keeps an owned entry past the latch (split
/// redistribution, log-record construction) takes a same-line
/// `lint: allow-owned-decode` waiver saying so.
fn rule_no_owned_decode_in_traversal(f: &SourceFile, out: &mut Vec<Violation>) {
    const TRAVERSAL_FILES: [&str; 3] =
        ["crates/core/src/tree.rs", "crates/core/src/maint.rs", "crates/core/src/check.rs"];
    const OWNING: [&str; 4] = [
        "LeafEntry::decode(",
        "InternalEntry::decode(",
        "node::internal_entries(",
        "node::leaf_entries(",
    ];
    if !f.path.starts_with("crates/core/src/ops/") && !TRAVERSAL_FILES.contains(&f.path.as_str()) {
        return;
    }
    flag_lines(f, "no-owned-decode-in-traversal", "lint: allow-owned-decode", out, |clean| {
        let compact: String = clean.chars().filter(|c| !c.is_whitespace()).collect();
        let call = OWNING.iter().find(|pat| compact.contains(**pat))?;
        Some(format!(
            "`{call}…)` on a traversal path allocates per entry — read the cell \
             through `LeafEntryRef`/`InternalEntryRef`; waive with \
             `lint: allow-owned-decode` where an owned entry is really kept"
        ))
    });
}

/// Character positions of `"` pairs in a sanitized line. Comment content
/// is blanked by the sanitizer (including any quotes in it), so every
/// pair found here delimits a real string literal; the content is read
/// back from the raw line at the same character positions.
fn quote_pairs(clean_line: &str) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut open: Option<usize> = None;
    for (i, ch) in clean_line.chars().enumerate() {
        if ch == '"' {
            match open.take() {
                Some(q1) => pairs.push((q1, i)),
                None => open = Some(i),
            }
        }
    }
    pairs
}

/// Rule `chaos-point-registry`: the chaos crate's `CATALOG` is the single
/// source of truth for crash-point and mutation-switch names. Every
/// `chaos::point("...")` and `chaos::armed("...")` call site must name a
/// cataloged entry (a dangling name is a site the harness would silently
/// never arm), the catalog must be duplicate-free, and every cataloged
/// name must be threaded through at least one call site (an unused entry
/// is dead coverage the harness *thinks* it exercises).
fn rule_chaos_point_registry(files: &[SourceFile], out: &mut Vec<Violation>) {
    let Some(cat_file) = files.iter().find(|f| f.path.ends_with("chaos/src/lib.rs")) else {
        out.push(Violation {
            rule: "chaos-point-registry",
            file: "crates/chaos/src/lib.rs".into(),
            line: 1,
            msg: "chaos crate not found — the crash-point catalog is unverifiable".into(),
        });
        return;
    };
    // Walk the catalog line by line. The sanitized text is the guide:
    // comments are blanked there (so a quote in a doc comment cannot
    // start a phantom literal), while real literals keep their quotes —
    // the *content* between them is then read from the raw line at the
    // same character positions.
    let mut catalog: Vec<(String, usize)> = Vec::new();
    let mut in_catalog = false;
    for (n, clean, raw, _test) in cat_file.lines() {
        if !in_catalog {
            if clean.contains("const CATALOG") {
                in_catalog = true;
            } else {
                continue;
            }
        }
        for (q1, q2) in quote_pairs(clean) {
            let name: String = raw.chars().skip(q1 + 1).take(q2 - q1 - 1).collect();
            catalog.push((name, n));
        }
        if clean.contains(']') && clean.contains(';') {
            break;
        }
    }
    if catalog.is_empty() {
        out.push(Violation {
            rule: "chaos-point-registry",
            file: cat_file.path.clone(),
            line: 1,
            msg: "could not parse any names out of `CATALOG`".into(),
        });
        return;
    }
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (name, line) in &catalog {
        if !seen.insert(name.as_str()) {
            out.push(Violation {
                rule: "chaos-point-registry",
                file: cat_file.path.clone(),
                line: *line,
                msg: format!("duplicate catalog entry {name:?}"),
            });
        }
    }
    // Call sites: `chaos::point("...")` / `chaos::armed("...")` in
    // non-test code anywhere in the workspace. A call forwarding a
    // variable carries no string literal on the line and is skipped.
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    for f in files {
        if f.path == cat_file.path {
            continue; // the registry itself (plan plumbing, unit tests)
        }
        for (n, clean, raw, test) in f.lines() {
            if test || !(clean.contains("chaos::point(") || clean.contains("chaos::armed(")) {
                continue;
            }
            let pairs = quote_pairs(clean);
            for call in ["chaos::point(", "chaos::armed("] {
                let mut search = 0;
                while let Some(rel) = clean[search..].find(call) {
                    let call_char = clean[..search + rel].chars().count();
                    search += rel + call.len();
                    // The literal belonging to this call is the first quote
                    // pair at/after the call site (a shim forwarding a
                    // variable has none on the line).
                    let Some(&(q1, q2)) = pairs.iter().find(|(q1, _)| *q1 >= call_char) else {
                        continue;
                    };
                    let name: String = raw.chars().skip(q1 + 1).take(q2 - q1 - 1).collect();
                    used.insert(name.clone());
                    if !seen.contains(name.as_str()) {
                        out.push(Violation {
                            rule: "chaos-point-registry",
                            file: f.path.clone(),
                            line: n,
                            msg: format!(
                                "chaos site {name:?} is not in the chaos crate's CATALOG — \
                                 the harness would never arm it"
                            ),
                        });
                    }
                }
            }
        }
    }
    for (name, line) in &catalog {
        if !used.contains(name) {
            out.push(Violation {
                rule: "chaos-point-registry",
                file: cat_file.path.clone(),
                line: *line,
                msg: format!(
                    "catalog entry {name:?} has no `chaos::point({name:?})` or \
                     `chaos::armed({name:?})` call site — dead coverage"
                ),
            });
        }
    }
}

/// Run every rule over an in-memory file set (testable entry point).
fn scan(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        rule_no_raw_std_sync(f, &mut out);
        rule_no_latch_in_optimistic(f, &mut out);
        rule_no_unbounded_read(f, &mut out);
        rule_no_owned_decode_in_traversal(f, &mut out);
    }
    rule_chaos_point_registry(files, &mut out);
    out
}

/// Collect the `.rs` sources the rules apply to: `crates/*/src/**` and
/// the umbrella crate's `src/**`. Vendored shims, examples, integration
/// tests, and benches are out of scope (test-support code by nature).
fn collect(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        for e in fs::read_dir(&crates)? {
            let p = e?.path().join("src");
            if p.is_dir() {
                dirs.push(p);
            }
        }
    }
    while let Some(dir) = dirs.pop() {
        for e in fs::read_dir(&dir)? {
            let p = e?.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile::new(rel, fs::read_to_string(&p)?));
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let files = match collect(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gist-lint: cannot read {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    let violations = scan(&files);
    for v in &violations {
        println!("{v}");
    }
    println!();
    println!("gist-lint summary ({} files scanned)", files.len());
    println!("  {:<28} violations", "rule");
    for rule in [
        "no-raw-std-sync",
        "no-latch-in-optimistic",
        "no-unbounded-read",
        "no-owned-decode-in-traversal",
        "chaos-point-registry",
    ] {
        let n = violations.iter().filter(|v| v.rule == rule).count();
        println!("  {rule:<28} {n}");
    }
    if violations.is_empty() {
        println!("  OK — no violations");
    } else {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path.into(), src.into())
    }

    /// Run one per-file rule over a synthetic file.
    fn check(rule: fn(&SourceFile, &mut Vec<Violation>), path: &str, src: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        rule(&file(path, src), &mut v);
        v
    }

    #[test]
    fn sanitizer_strips_comments_and_strings() {
        let s = sanitize("let x = \"a.unwrap()\"; // .unwrap()\nlet y = 1; /* .expect( */");
        assert!(!s.contains(".unwrap()"));
        assert!(!s.contains(".expect("));
        assert_eq!(s.lines().count(), 2, "line structure preserved");
    }

    #[test]
    fn sanitizer_handles_char_literals_and_lifetimes() {
        let s = sanitize("let q = '\"'; fn f<'a>(x: &'a str) { x.unwrap() }");
        assert!(s.contains(".unwrap()"), "code after char literal still visible: {s}");
    }

    #[test]
    fn unbounded_read_flagged_only_in_serve_outside_io_helpers() {
        let src = "fn pump(s: &mut TcpStream, buf: &mut [u8]) {\n    let n = s.read(buf);\n    s.write_all(buf);\n}";
        let v = check(rule_no_unbounded_read, "crates/serve/src/session.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "no-unbounded-read"));
        // The deadline-helper module itself is exempt, as is any other crate.
        for path in ["crates/serve/src/io.rs", "crates/wal/src/lib.rs"] {
            let v = check(rule_no_unbounded_read, path, src);
            assert!(v.is_empty(), "{path}: {v:?}");
        }
    }

    #[test]
    fn unbounded_read_exemptions_hold() {
        let src = "fn pump(s: &mut TcpStream, buf: &mut [u8]) {\n    let n = s.read(buf); // lint: allow-raw-io\n}\n#[cfg(test)]\nmod tests {\n    fn t(s: &mut TcpStream, b: &mut [u8]) { s.read(b).unwrap(); }\n}\n";
        let v = check(rule_no_unbounded_read, "crates/serve/src/session.rs", src);
        assert!(v.is_empty(), "waiver + test region exempt: {v:?}");
    }

    #[test]
    fn owned_decode_is_flagged_on_traversal_paths_only() {
        let src = "fn f(p: &Page) {\n    for (_, c) in node::entry_cells(p) {\n        let e = LeafEntry::decode(c);\n        let i = InternalEntry :: decode(c);\n    }\n    let all = node::internal_entries(p);\n    let rid = LeafEntry::decode_rid(c);\n    let v = LeafEntryRef::new(c);\n}";
        for path in ["crates/core/src/ops/cursor.rs", "crates/core/src/check.rs"] {
            let v = check(rule_no_owned_decode_in_traversal, path, src);
            assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), vec![3, 4, 6], "{path}: {v:?}");
            assert!(v.iter().all(|x| x.rule == "no-owned-decode-in-traversal"));
        }
        // Out of scope: the baseline protocols, the entry module itself,
        // other crates.
        for path in ["crates/core/src/baseline.rs", "crates/core/src/entry.rs", "crates/bench/src/experiments.rs"] {
            let v = check(rule_no_owned_decode_in_traversal, path, src);
            assert!(v.is_empty(), "{path}: {v:?}");
        }
    }

    #[test]
    fn owned_decode_exemptions_hold() {
        let src = "fn split(c: &[u8]) {\n    let kept = LeafEntry::decode(c); // lint: allow-owned-decode (moved to the sibling)\n}\n#[cfg(test)]\nmod tests {\n    fn t(c: &[u8]) { LeafEntry::decode(c); }\n}\n";
        let v = check(rule_no_owned_decode_in_traversal, "crates/core/src/ops/insert.rs", src);
        assert!(v.is_empty(), "waiver + test region exempt: {v:?}");
    }

    // The machinery every rule shares (the `#[cfg(test)]` tracker and the
    // same-line waiver), exercised through `no-raw-std-sync`.
    #[test]
    fn test_module_unwrap_is_exempt() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::sync::Mutex::new(0).lock().unwrap(); }\n}\n";
        let v = check(rule_no_raw_std_sync, "crates/wal/src/log.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn code_after_test_module_is_checked_again() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\nfn prod() { std::sync::Mutex::new(0).lock().unwrap(); }\n";
        let v = check(rule_no_raw_std_sync, "crates/wal/src/log.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn waiver_comment_is_respected() {
        let v = check(
            rule_no_raw_std_sync,
            "crates/wal/src/log.rs",
            "fn f() { std::sync::Mutex::new(0).lock(); } // lint: allow-raw-sync — test scaffold",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn seeded_latch_in_optimistic_closure_is_flagged() {
        let src = "fn f(pool: &Pool, og: &Og) {\n    \
                   let x = og.read_with(|p| {\n        \
                   let g = pool.fetch_read(p.rightlink())?;\n        \
                   g.nsn()\n    });\n}\n";
        let v = check(rule_no_latch_in_optimistic, "crates/core/src/ops/cursor.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-latch-in-optimistic");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn latched_fetch_outside_read_with_is_fine() {
        let src = "fn f(pool: &Pool, og: &Og) {\n    \
                   let copy = og.read_with(|p| p.nsn());\n    \
                   let g = pool.fetch_read(PageId(1));\n}\n";
        let v = check(rule_no_latch_in_optimistic, "crates/core/src/tree.rs", src);
        assert!(v.is_empty(), "region must close with the call: {v:?}");
    }

    #[test]
    fn latch_in_optimistic_scopes_to_core_only() {
        let src = "fn f(og: &Og) { og.read_with(|p| self.fetch_read(p.id())); }\n";
        let v = check(rule_no_latch_in_optimistic, "crates/pagestore/src/buffer.rs", src);
        assert!(v.is_empty(), "rule applies to crates/core only: {v:?}");
    }

    #[test]
    fn latch_in_optimistic_waiver_is_respected() {
        let src = "fn f(pool: &Pool, og: &Og) {\n    \
                   og.read_with(|p| pool.fetch_read(p.id())); \
                   // lint: allow-latch-in-optimistic — measured, cold path\n}\n";
        let v = check(rule_no_latch_in_optimistic, "crates/core/src/tree.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_sync_in_model_checked_crate_is_flagged() {
        // Imports and qualified construction are both caught.
        let v = check(rule_no_raw_std_sync, "crates/wal/src/recovery.rs", "use parking_lot::{Condvar, Mutex};");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-raw-std-sync");
        let v = check(rule_no_raw_std_sync, "crates/wal/src/log.rs", "use std::sync::{Arc, Mutex};");
        assert_eq!(v.len(), 1, "{v:?}");
        let v = check(rule_no_raw_std_sync, "crates/wal/src/log.rs", "let m = std::sync::Condvar::new();");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn raw_sync_exemptions_hold() {
        // The gist-sync wrappers themselves and out-of-scope crates may
        // name parking_lot freely.
        for path in [
            "crates/sync/src/lib.rs",
            "crates/pagestore/src/buffer.rs",
            "crates/lockmgr/src/manager.rs",
        ] {
            let v = check(rule_no_raw_std_sync, path, "inner: parking_lot::Mutex<T>,");
            assert!(v.is_empty(), "{path}: {v:?}");
        }
        // Non-lock std::sync imports (Arc, atomics, OnceLock) are fine.
        let v = check(rule_no_raw_std_sync, "crates/wal/src/log.rs", "use std::sync::{Arc, OnceLock};\nuse std::sync::atomic::{AtomicU64, Ordering};");
        assert!(v.is_empty(), "{v:?}");
        // gist-sync imports are the blessed path.
        let v = check(rule_no_raw_std_sync, "crates/wal/src/log.rs", "use gist_sync::{Condvar, Mutex};");
        assert!(v.is_empty(), "{v:?}");
        // Its waiver and test-module exemptions are the three fixtures
        // of the shared machinery above.
    }

    fn chaos_lib(names: &[&str]) -> SourceFile {
        let body: String =
            names.iter().map(|n| format!("    \"{n}\",\n")).collect();
        file(
            "crates/chaos/src/lib.rs",
            &format!("pub const CATALOG: &[&str] = &[\n{body}];\n"),
        )
    }

    #[test]
    fn chaos_dangling_point_is_flagged() {
        let files = vec![
            chaos_lib(&["a.one", "b.two"]),
            file(
                "crates/core/src/ops/insert.rs",
                "fn f() { crate::chaos::point(\"a.one\")?; crate::chaos::point(\"c.ghost\")?; }\nfn g() { crate::chaos::point(\"b.two\")?; }\n",
            ),
        ];
        let mut v = Vec::new();
        rule_chaos_point_registry(&files, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "chaos-point-registry");
        assert!(v[0].msg.contains("c.ghost"), "{v:?}");
    }

    #[test]
    fn chaos_duplicate_catalog_entry_is_flagged() {
        let files = vec![
            chaos_lib(&["a.one", "a.one"]),
            file("crates/core/src/x.rs", "fn f() { crate::chaos::point(\"a.one\")?; }\n"),
        ];
        let mut v = Vec::new();
        rule_chaos_point_registry(&files, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("duplicate"), "{v:?}");
        assert_eq!(v[0].line, 3, "second occurrence's line");
    }

    #[test]
    fn chaos_unused_catalog_entry_is_flagged() {
        let files = vec![
            chaos_lib(&["a.one", "b.unthreaded"]),
            file("crates/core/src/x.rs", "fn f() { crate::chaos::point(\"a.one\")?; }\n"),
        ];
        let mut v = Vec::new();
        rule_chaos_point_registry(&files, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("b.unthreaded"), "{v:?}");
        assert!(v[0].msg.contains("no `chaos::point"), "{v:?}");
    }

    #[test]
    fn chaos_shim_and_test_sites_are_ignored() {
        let files = vec![
            chaos_lib(&["a.one"]),
            // The forwarding shim has no literal on the line; a test
            // module may fire unregistered names freely.
            file(
                "crates/core/src/chaos.rs",
                "pub fn point(name: &'static str) { gist_chaos::point(name) }\n#[cfg(test)]\nmod tests { fn t() { crate::chaos::point(\"not.in.catalog\"); } }\n",
            ),
            file("crates/core/src/x.rs", "fn f() { crate::chaos::point(\"a.one\")?; }\n"),
        ];
        let mut v = Vec::new();
        rule_chaos_point_registry(&files, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn chaos_armed_switch_is_checked() {
        let files = vec![
            chaos_lib(&["a.one", "m.switch"]),
            file(
                "crates/core/src/x.rs",
                "fn f() { gist_chaos::point(\"a.one\")?; }\nfn g() -> bool { gist_chaos::armed(\"m.switch\") || gist_chaos::armed(\"m.ghost\") }\n",
            ),
        ];
        let mut v = Vec::new();
        rule_chaos_point_registry(&files, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("m.ghost"), "{v:?}");
    }

    /// The real repository must be lint-clean: this is the self-scan the
    /// acceptance criteria call "with no seeded faults, zero violations".
    #[test]
    fn repository_is_lint_clean() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let files = collect(&root).expect("repo readable");
        assert!(files.len() > 20, "expected the workspace sources, got {}", files.len());
        let violations = scan(&files);
        assert!(
            violations.is_empty(),
            "gist-lint found violations:\n{}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
