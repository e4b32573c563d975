//! Interprocedural model: function units, a call graph, and effect
//! summaries propagated to a fixpoint.
//!
//! The per-file lexical pass ([`crate::source::SourceFile`]) cannot see
//! across function boundaries, so an ABBA inversion split over two
//! functions — or I/O hidden one call deep — was invisible to the lint
//! until now. This module builds, on top of the scrubbed text:
//!
//! 1. **Units** — every `fn` item (plus every detached spawn-closure
//!    body, see below) with its body lines and per-line lexical facts:
//!    lock acquisitions, I/O markers, blocking ops, outgoing calls.
//! 2. **A call graph** — calls are resolved *conservatively by name*:
//!    `x.frob()` links to every workspace `fn frob`. There is no type
//!    information in an offline lexical pass, so a call may link to
//!    several candidates (trait methods included) and the rules treat
//!    the union of their effects as reachable. Names on the [`AMBIENT`]
//!    list (ubiquitous std method names like `get`/`insert`/`clone`)
//!    are never resolved — linking them would alias unrelated code all
//!    over the workspace.
//! 3. **Summaries** — a map `Effect → Provenance` per unit. The direct
//!    pass seeds each unit with the effects its own body performs; the
//!    fixpoint then unions callee summaries into callers until nothing
//!    changes. Effect sets only grow, so the iteration is monotone and
//!    terminates on cyclic (recursive) graphs. Provenance records the
//!    callsite line and callee an effect arrived through, so findings
//!    can print the full chain down to the offending site.
//!
//! # Effect kinds
//!
//! [`Effect`] is the extension point: a new primitive slots in as a
//! new variant, a direct-extraction arm in [`line_facts`], and a
//! consumer in a rule — the propagation engine itself is
//! kind-agnostic.
//!
//! # Spawn detachment
//!
//! A closure handed to `spawn(` runs on a *new* thread that starts with
//! no locks held, so its effects must not leak into the spawning
//! function (that would flag `server.lock(); spawn(|| io())` as
//! I/O-under-lock). Braced spawn closures become their own root units,
//! analyzed with an empty guard context; their effects are not
//! propagated to the spawner.
//!
//! # Escape hatches
//!
//! A reasoned lock-io / lock-blocking `lint:allow` pragma *at the
//! effect's source line* kills the effect for propagation too: the
//! pragma declares that I/O (or blocking) under
//! locks is part of the documented protocol there, so re-flagging every
//! transitive caller would only manufacture ceremony. Such kills are
//! recorded as pragma uses for stale-pragma detection. `Acquire`
//! effects are never killed — an acquisition is a fact, not a
//! violation, and hiding it would mask real inversions in callers.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::ident_ending_at;
use crate::rules::lock::rank;
use crate::rules::protocol::ProtocolSpec;
use crate::source::SourceFile;

/// File/socket I/O markers (shared with the `lock-io` rule).
pub const IO_MARKERS: &[&str] = &[
    ".write_all(",
    ".read_exact(",
    ".flush(",
    ".sync_all(",
    ".sync_data(",
    ".set_len(",
    ".shutdown(",
    ".accept()",
    "File::open",
    "File::create",
    "OpenOptions",
    "TcpStream::connect",
    "read_frame(",
    "write_frame(",
    ".write_page(",
    ".read_page(",
    ".read_pages(",
    ".log_page(",
    ".allocate_contiguous(",
    "std::fs::",
];

/// Blocking-op markers for the `lock-blocking` rule: condvar waits,
/// thread joins, channel receives. `.join()` only matches the empty
/// argument list (scrubbing blanks string quotes, so `v.join(", ")`
/// cannot match), and bare `.send(` is deliberately absent — the
/// workspace's std mpsc senders are unbounded and non-blocking, and its
/// bounded queues are condvar-built, which the wait markers cover.
pub const BLOCKING_MARKERS: &[&str] = &[
    ".wait(",
    ".wait_for(",
    ".wait_while(",
    ".wait_timeout(",
    ".join()",
    ".recv()",
    ".recv_timeout(",
];

/// Ubiquitous std method names that are never resolved by name — a
/// workspace `fn get` must not alias every `map.get(` in the tree.
/// Workspace functions that need interprocedural checking must not
/// reuse these names (the lint's own corpus guards the interesting
/// ones).
const AMBIENT: &[&str] = &[
    "add",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "borrow",
    "borrow_mut",
    "build",
    "chain",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "default",
    "deref",
    "drain",
    "drop",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "finish",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "parse",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "rposition",
    "saturating_sub",
    "set",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "split_at",
    "starts_with",
    "stats",
    "sum",
    "swap",
    "take",
    "take_while",
    "then",
    "then_some",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "try_lock",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "wait",
    "windows",
    "with_capacity",
    "write",
    "write_u8",
    "write_u16",
    "write_u32",
    "write_u64",
    "write_usize",
    "zip",
];

/// Control-flow keywords that precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "loop", "move",
];

/// Effect kinds propagated through the call graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Acquires the named lock field somewhere inside.
    Acquire(String),
    /// Performs file/socket I/O (the marker is kept for messages).
    Io(String),
    /// Parks the calling thread (condvar wait, join, channel recv).
    Blocking(String),
    /// Performs a durable checkpoint (protocol-order).
    Checkpoint,
    /// Performs a result-publish (protocol-order).
    Publish,
}

/// Where an effect entered a unit: the 1-indexed line, and the callee
/// it arrived through (`None` for a direct site in the unit's body).
#[derive(Debug, Clone)]
pub struct Provenance {
    pub line: usize,
    pub via: Option<usize>,
}

pub type Summary = BTreeMap<Effect, Provenance>;

/// One direct lock-acquisition site.
#[derive(Debug, Clone)]
pub struct Acq {
    pub lock: String,
    pub binding: Option<String>,
    /// Statement-temporary: the guard cannot outlive its line.
    pub temporary: bool,
}

/// One direct blocking site.
#[derive(Debug, Clone)]
pub struct BlockingOp {
    pub marker: &'static str,
    /// For condvar waits, the guard binding handed to `.wait(&mut g)`:
    /// the wait atomically releases that one guard, so it alone is
    /// exempt from `lock-blocking` at this site.
    pub waived: Option<String>,
}

/// Lexical facts for one analyzed line of a unit.
#[derive(Debug, Clone, Default)]
pub struct LineFacts {
    /// 1-indexed source line.
    pub line: usize,
    pub acquisitions: Vec<Acq>,
    pub io: Vec<&'static str>,
    pub blocking: Vec<BlockingOp>,
    /// Outgoing call names (deduped, resolvable candidates only).
    pub calls: Vec<String>,
    /// `let [mut] <name> = …` binding on this line, if any.
    pub binding: Option<String>,
    /// True for a `let … else {` header: the brace it opens is the
    /// *diverging* arm, so guards bound here outlive it and belong to
    /// the enclosing block.
    pub let_else: bool,
    /// `drop(<name>)` on this line, if any.
    pub dropped: Option<String>,
    pub brace_delta: i32,
}

/// A function item, or a detached spawn-closure body.
pub struct Unit {
    /// Index into the model's file slice.
    pub file: usize,
    /// Bare name used for call resolution (`write_batch`).
    pub name: String,
    /// Qualified display name (`Database::write_batch`).
    pub display: String,
    /// 1-indexed declaration line.
    pub decl_line: usize,
    /// 1-indexed line of the closing brace.
    pub end_line: usize,
    /// Facts for the body lines this unit owns (nested fns and
    /// detached closures excluded).
    pub lines: Vec<LineFacts>,
    /// `Some(lock)` when the signature returns a `…Guard…` type and the
    /// body acquires a ranked lock: a `let` binding of the call result
    /// in a caller is a live guard on that lock (`commit_section()`).
    pub returns_guard: Option<String>,
    /// True for detached spawn-closure bodies (not callable by name,
    /// effects not propagated to the spawner).
    pub spawn_unit: bool,
    pub summary: Summary,
}

/// Call-graph statistics surfaced through `--json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub functions: usize,
    pub edges: usize,
    pub fixpoint_iterations: usize,
}

pub struct Model<'a> {
    pub files: &'a [SourceFile],
    pub units: Vec<Unit>,
    by_name: BTreeMap<String, Vec<usize>>,
    pub stats: Stats,
    /// `(file index, line, rule)` effect-kills by reasoned pragmas,
    /// counted as uses by stale-pragma detection.
    pub pragma_uses: Vec<(usize, usize, &'static str)>,
    /// Whether summaries were propagated through the call graph.
    pub interprocedural: bool,
}

impl<'a> Model<'a> {
    pub fn build(
        files: &'a [SourceFile],
        spec: Option<&ProtocolSpec>,
        interprocedural: bool,
    ) -> Model<'a> {
        let mut units = Vec::new();
        let mut pragma_uses = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            // Markdown feeds only doc-drift; vendored shims are
            // runtime scaffolding whose method names (`lock`, `wait`,
            // `join`) would alias real std calls all over the tree —
            // their *callsites* are covered by the lexical markers.
            if file.path.ends_with(".md") || file.path.starts_with("vendor/") {
                continue;
            }
            extract_units(fi, file, spec, &mut units, &mut pragma_uses);
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, u) in units.iter().enumerate() {
            if !u.spawn_unit {
                by_name.entry(u.name.clone()).or_default().push(i);
            }
        }

        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, u) in units.iter().enumerate() {
            for lf in &u.lines {
                for call in &lf.calls {
                    if let Some(callees) = by_name.get(call) {
                        for &j in callees {
                            edges.insert((i, j));
                        }
                    }
                }
            }
        }

        // Fixpoint: union callee summaries into callers until stable.
        // Monotone (sets only grow), so cycles terminate.
        let mut iterations = 0usize;
        if interprocedural {
            loop {
                iterations += 1;
                let mut changed = false;
                for i in 0..units.len() {
                    let mut add: Vec<(Effect, Provenance)> = Vec::new();
                    for lf in &units[i].lines {
                        for call in &lf.calls {
                            let Some(callees) = by_name.get(call) else {
                                continue;
                            };
                            for &j in callees {
                                for effect in units[j].summary.keys() {
                                    if !units[i].summary.contains_key(effect) {
                                        add.push((
                                            effect.clone(),
                                            Provenance {
                                                line: lf.line,
                                                via: Some(j),
                                            },
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    for (effect, prov) in add {
                        if let std::collections::btree_map::Entry::Vacant(e) =
                            units[i].summary.entry(effect)
                        {
                            e.insert(prov);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let stats = Stats {
            functions: units.len(),
            edges: edges.len(),
            fixpoint_iterations: iterations,
        };
        Model {
            files,
            units,
            by_name,
            stats,
            pragma_uses,
            interprocedural,
        }
    }

    /// Candidate unit indices a call name resolves to.
    pub fn callees(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Renders the provenance chain of `effect` starting from
    /// `callee`: `` `flush_shard` → `write_back` (path:line) `` — the
    /// functions walked through and the direct site at the end.
    pub fn chain(&self, callee: usize, effect: &Effect) -> String {
        let mut steps = Vec::new();
        let mut seen = BTreeSet::new();
        let mut cur = callee;
        loop {
            steps.push(format!("`{}`", self.units[cur].display));
            if steps.len() >= 8 || !seen.insert(cur) {
                steps.push("…".into());
                break;
            }
            match self.units[cur].summary.get(effect) {
                Some(Provenance {
                    line,
                    via: Some(next),
                }) => {
                    let _ = line;
                    cur = *next;
                }
                Some(Provenance { line, via: None }) => {
                    steps.push(format!(
                        "({}:{})",
                        self.files[self.units[cur].file].path, line
                    ));
                    break;
                }
                None => break,
            }
        }
        steps.join(" → ")
    }
}

/// Who owns a source line for analysis purposes.
#[derive(Clone, Copy, PartialEq)]
enum Owner {
    None,
    Range(usize),
}

struct RawRange {
    /// 0-indexed body-open line and byte column of `{`.
    open: (usize, usize),
    /// 0-indexed close line and byte column of `}`.
    close: (usize, usize),
    /// `None` for a braceless spawn call (lines excluded, no unit).
    kind: RangeKind,
}

enum RangeKind {
    Fn {
        name: String,
        display: String,
        decl_line: usize,
        sig: String,
    },
    Spawn,
    Excluded,
}

fn extract_units(
    fi: usize,
    file: &SourceFile,
    spec: Option<&ProtocolSpec>,
    units: &mut Vec<Unit>,
    pragma_uses: &mut Vec<(usize, usize, &'static str)>,
) {
    let lines: Vec<&str> = file.scrubbed_lines();
    if lines.is_empty() {
        return;
    }
    let impl_ctx = impl_context(&lines);

    let mut ranges: Vec<RawRange> = Vec::new();

    // Function items.
    for (li, line) in lines.iter().enumerate() {
        if file.is_test_line(li + 1) {
            continue;
        }
        let mut from = 0usize;
        while let Some(rel) = line[from..].find("fn ") {
            let at = from + rel;
            from = at + 3;
            // Word boundary before `fn` (reject `often `, `Fn `).
            if at > 0 {
                let prev = line.as_bytes()[at - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let name: String = line[at + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            // Find the body `{` (or `;` for a bodiless trait method).
            let Some((open, sig)) = find_body_open(&lines, li, at) else {
                continue;
            };
            let Some(close) = match_braces(&lines, open) else {
                continue;
            };
            let display = match impl_ctx[li].as_deref() {
                Some(ty) => format!("{ty}::{name}"),
                None => name.clone(),
            };
            ranges.push(RawRange {
                open,
                close,
                kind: RangeKind::Fn {
                    name,
                    display,
                    decl_line: li + 1,
                    sig,
                },
            });
        }
    }

    // Detached spawn closures.
    for (li, line) in lines.iter().enumerate() {
        if file.is_test_line(li + 1) {
            continue;
        }
        let mut from = 0usize;
        while let Some(rel) = line[from..].find("spawn(") {
            let at = from + rel;
            from = at + 6;
            if ident_ending_at(line, at + 5) != "spawn" {
                continue;
            }
            match spawn_closure_range(&lines, li, at + 6) {
                Some(SpawnRange::Braced { open, close }) => ranges.push(RawRange {
                    open,
                    close,
                    kind: RangeKind::Spawn,
                }),
                Some(SpawnRange::Braceless { open, close }) => ranges.push(RawRange {
                    open,
                    close,
                    kind: RangeKind::Excluded,
                }),
                None => {}
            }
        }
    }

    // Innermost-wins line ownership: assign big ranges first so nested
    // ones (inner fns, spawn closures) overwrite their lines.
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ranges[i].close.0 - ranges[i].open.0));
    let mut owner = vec![Owner::None; lines.len()];
    for &ri in &order {
        let r = &ranges[ri];
        for slot in owner.iter_mut().take(r.close.0 + 1).skip(r.open.0) {
            *slot = match r.kind {
                RangeKind::Excluded => Owner::None,
                _ => Owner::Range(ri),
            };
        }
    }

    // Parent display names for spawn units: the innermost fn range
    // strictly containing the spawn open line.
    let parent_of_spawn = |ri: usize| -> String {
        let open = ranges[ri].open.0;
        ranges
            .iter()
            .filter(|r| matches!(r.kind, RangeKind::Fn { .. }))
            .filter(|r| r.open.0 <= open && open <= r.close.0)
            .min_by_key(|r| r.close.0 - r.open.0)
            .map(|r| match &r.kind {
                RangeKind::Fn { display, .. } => display.clone(),
                _ => unreachable!(),
            })
            .unwrap_or_else(|| "top".into())
    };

    for (ri, r) in ranges.iter().enumerate() {
        let (name, display, decl_line, sig, spawn_unit) = match &r.kind {
            RangeKind::Fn {
                name,
                display,
                decl_line,
                sig,
            } => (
                name.clone(),
                display.clone(),
                *decl_line,
                Some(sig.clone()),
                false,
            ),
            RangeKind::Spawn => {
                let parent = parent_of_spawn(ri);
                let name = format!("{parent}::spawn@{}", r.open.0 + 1);
                (name.clone(), name, r.open.0 + 1, None, true)
            }
            RangeKind::Excluded => continue,
        };

        let mut facts = Vec::new();
        for li in r.open.0..=r.close.0 {
            if owner[li] != Owner::Range(ri) || file.is_test_line(li + 1) {
                continue;
            }
            let full = lines[li];
            let start = if li == r.open.0 { r.open.1 } else { 0 };
            let end = if li == r.close.0 {
                (r.close.1 + 1).min(full.len())
            } else {
                full.len()
            };
            let slice = &full[start.min(end)..end];
            facts.push(line_facts(fi, file, li + 1, slice, pragma_uses));
        }

        let mut summary: Summary = BTreeMap::new();
        for lf in &facts {
            for a in &lf.acquisitions {
                summary
                    .entry(Effect::Acquire(a.lock.clone()))
                    .or_insert(Provenance {
                        line: lf.line,
                        via: None,
                    });
            }
            for m in &lf.io {
                summary
                    .entry(Effect::Io((*m).to_string()))
                    .or_insert(Provenance {
                        line: lf.line,
                        via: None,
                    });
            }
            for b in &lf.blocking {
                summary
                    .entry(Effect::Blocking(b.marker.to_string()))
                    .or_insert(Provenance {
                        line: lf.line,
                        via: None,
                    });
            }
            if let Some(spec) = spec {
                for call in &lf.calls {
                    if spec.checkpoint_fns.contains(call) {
                        summary.entry(Effect::Checkpoint).or_insert(Provenance {
                            line: lf.line,
                            via: None,
                        });
                    }
                    if spec.publish_fns.contains(call) {
                        summary.entry(Effect::Publish).or_insert(Provenance {
                            line: lf.line,
                            via: None,
                        });
                    }
                }
            }
        }
        // A function *named* as a protocol primitive carries its effect
        // even when its body shows nothing lexically (it IS the
        // checkpoint / publish implementation).
        if let Some(spec) = spec {
            if spec.checkpoint_fns.contains(&name) {
                summary.entry(Effect::Checkpoint).or_insert(Provenance {
                    line: decl_line,
                    via: None,
                });
            }
            if spec.publish_fns.contains(&name) {
                summary.entry(Effect::Publish).or_insert(Provenance {
                    line: decl_line,
                    via: None,
                });
            }
        }

        let returns_guard = sig.as_deref().and_then(|sig| {
            let arrow = sig.find("->")?;
            if !sig[arrow..].contains("Guard") {
                return None;
            }
            facts
                .iter()
                .flat_map(|lf| lf.acquisitions.iter())
                .find(|a| rank(&a.lock).is_some())
                .map(|a| a.lock.clone())
        });

        units.push(Unit {
            file: fi,
            name,
            display,
            decl_line,
            end_line: r.close.0 + 1,
            lines: facts,
            returns_guard,
            spawn_unit,
            summary,
        });
    }
}

/// From the `fn` keyword at `(li, col)`, finds the body-open `{` and
/// returns it with the signature text (decl up to the brace). `None`
/// for bodiless trait signatures.
fn find_body_open(lines: &[&str], li: usize, col: usize) -> Option<((usize, usize), String)> {
    let mut sig = String::new();
    let mut l = li;
    let mut c = col;
    // Angle-bracket depth so `fn f<T: Ord>(…)` generics and return
    // types like `-> Option<Vec<u8>>` cannot hide the real `{`.
    loop {
        let line = lines.get(l)?;
        for (off, ch) in line[c.min(line.len())..].char_indices() {
            match ch {
                '{' => return Some(((l, c + off), sig)),
                ';' => return None,
                _ => sig.push(ch),
            }
        }
        sig.push(' ');
        l += 1;
        c = 0;
        if l > li + 24 {
            return None; // runaway signature; bail conservatively
        }
    }
}

/// Matches braces from the `{` at `open`, returning the closing `}`.
fn match_braces(lines: &[&str], open: (usize, usize)) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut l = open.0;
    let mut c = open.1;
    loop {
        let line = lines.get(l)?;
        for (off, ch) in line[c.min(line.len())..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((l, c + off));
                    }
                }
                _ => {}
            }
        }
        l += 1;
        c = 0;
    }
}

enum SpawnRange {
    Braced {
        open: (usize, usize),
        close: (usize, usize),
    },
    Braceless {
        open: (usize, usize),
        close: (usize, usize),
    },
}

/// From just past `spawn(` at `(li, col)`, finds the closure body brace
/// (braced) or the call's closing paren (braceless).
fn spawn_closure_range(lines: &[&str], li: usize, col: usize) -> Option<SpawnRange> {
    let mut paren = 1i32;
    let mut l = li;
    let mut c = col;
    loop {
        let line = lines.get(l)?;
        for (off, ch) in line[c.min(line.len())..].char_indices() {
            match ch {
                '(' => paren += 1,
                ')' => {
                    paren -= 1;
                    if paren == 0 {
                        return Some(SpawnRange::Braceless {
                            open: (li, 0),
                            close: (l, c + off),
                        });
                    }
                }
                '{' => {
                    let open = (l, c + off);
                    let close = match_braces(lines, open)?;
                    return Some(SpawnRange::Braced { open, close });
                }
                _ => {}
            }
        }
        l += 1;
        c = 0;
        if l > li + 200 {
            return None;
        }
    }
}

/// Innermost `impl` type name per line, for qualified display names.
fn impl_context(lines: &[&str]) -> Vec<Option<String>> {
    let mut ctx = vec![None; lines.len()];
    let mut depth = 0i32;
    let mut stack: Vec<(i32, String)> = Vec::new();
    let mut pending: Option<String> = None;
    for (li, line) in lines.iter().enumerate() {
        ctx[li] = stack.last().map(|(_, t)| t.clone());
        let trimmed = line.trim_start();
        if depth == 0 && (trimmed.starts_with("impl ") || trimmed.starts_with("impl<")) {
            pending = impl_type_name(trimmed);
        }
        depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
        if let Some(t) = pending.take() {
            if depth >= 1 {
                stack.push((depth, t.clone()));
                ctx[li] = Some(t);
            } else {
                pending = Some(t); // header continues on a later line
            }
        }
        while let Some((d, _)) = stack.last() {
            if depth < *d {
                stack.pop();
            } else {
                break;
            }
        }
    }
    ctx
}

/// `impl<T> Foo for bar::Baz<T> {` → `Baz`.
fn impl_type_name(trimmed: &str) -> Option<String> {
    let mut rest = trimmed.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, ch) in rest.char_indices() {
            match ch {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    let rest = rest.trim_start();
    // `Trait for Type` → use the Type side.
    let ty = match rest.find(" for ") {
        Some(at) => &rest[at + 5..],
        None => rest,
    };
    let ty = ty.trim_start();
    let last_segment = ty
        .split("::")
        .last()
        .unwrap_or(ty)
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>();
    (!last_segment.is_empty()).then_some(last_segment)
}

/// Extracts the lexical facts of one owned line slice.
fn line_facts(
    fi: usize,
    file: &SourceFile,
    lineno: usize,
    slice: &str,
    pragma_uses: &mut Vec<(usize, usize, &'static str)>,
) -> LineFacts {
    let mut lf = LineFacts {
        line: lineno,
        brace_delta: slice.matches('{').count() as i32 - slice.matches('}').count() as i32,
        ..LineFacts::default()
    };
    lf.acquisitions = find_acquisitions(slice);
    lf.binding = binding_name(slice.trim_start());
    lf.let_else = slice.trim_start().starts_with("let ") && slice.trim_end().ends_with("else {");
    lf.dropped = dropped_binding(slice).map(str::to_string);

    for m in IO_MARKERS {
        if slice.contains(m) {
            if file.allowed("lock-io", lineno) {
                pragma_uses.push((fi, lineno, "lock-io"));
            } else {
                lf.io.push(m);
            }
        }
    }
    for m in BLOCKING_MARKERS {
        let mut from = 0usize;
        while let Some(rel) = slice[from..].find(m) {
            let at = from + rel;
            from = at + m.len();
            if file.allowed("lock-blocking", lineno) {
                pragma_uses.push((fi, lineno, "lock-blocking"));
                continue;
            }
            let waived = if m.starts_with(".wait") {
                waited_guard(&slice[at + m.len()..])
            } else {
                None
            };
            lf.blocking.push(BlockingOp { marker: m, waived });
        }
    }

    // Outgoing calls: `ident(` sites, minus keywords, ambient std
    // method names, macro invocations (`ident!(` yields no ident), and
    // type/variant constructors (uppercase initial).
    for (i, b) in slice.bytes().enumerate() {
        if b != b'(' {
            continue;
        }
        let name = ident_ending_at(slice, i);
        if name.is_empty() {
            continue;
        }
        let first = name.chars().next().unwrap_or('_');
        if first.is_ascii_uppercase() || first.is_ascii_digit() {
            continue;
        }
        if KEYWORDS.contains(&name) || AMBIENT.contains(&name) {
            continue;
        }
        if !lf.calls.iter().any(|c| c == name) {
            lf.calls.push(name.to_string());
        }
    }
    lf
}

/// The `&mut g` argument of a condvar wait, i.e. the guard the wait
/// releases while parked.
fn waited_guard(after_paren: &str) -> Option<String> {
    let rest = after_paren.trim_start();
    let rest = rest.strip_prefix("&mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Finds `<ident>.lock()` / `.read()` / `.write()` acquisitions on a
/// scrubbed line slice and classifies how long the guard lives.
pub fn find_acquisitions(line: &str) -> Vec<Acq> {
    let mut out = Vec::new();
    let trimmed = line.trim_start();
    let is_binding = trimmed.starts_with("let ")
        || trimmed.starts_with("if let ")
        || trimmed.starts_with("while let ");
    let is_header = trimmed.starts_with("for ")
        || trimmed.starts_with("match ")
        || line.contains("for (")
        || line.contains(" in ");
    for method in [".lock()", ".read()", ".write()"] {
        let mut from = 0usize;
        while let Some(rel) = line[from..].find(method) {
            let at = from + rel;
            from = at + method.len();
            let lock = ident_ending_at(line, at).to_string();
            if lock.is_empty() {
                continue;
            }
            // A guard immediately method-chained (`x.lock().take()`)
            // is consumed within its statement; the binding, if any,
            // holds the chain's result, not the guard.
            let chained = line[at + method.len()..].starts_with('.');
            let binding = if is_binding {
                binding_name(trimmed)
            } else {
                None
            };
            // `let _ = …` drops immediately; a bare expression
            // statement (`x.lock().insert(…)`) is a temporary unless
            // it is a `for`/`match` header, whose temporary lives for
            // the whole block.
            let temporary = if is_header {
                false
            } else if chained {
                true
            } else if is_binding {
                binding.as_deref() == Some("_")
            } else {
                true
            };
            out.push(Acq {
                lock,
                binding,
                temporary,
            });
        }
    }
    out
}

/// `let [mut] <name> = …` → the bound name, if it is a plain ident.
fn binding_name(trimmed: &str) -> Option<String> {
    let rest = trimmed
        .strip_prefix("let ")
        .or_else(|| trimmed.strip_prefix("if let "))
        .or_else(|| trimmed.strip_prefix("while let "))?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

fn dropped_binding(line: &str) -> Option<&str> {
    let at = line.find("drop(")?;
    let rest = &line[at + 5..];
    let end = rest.find(')')?;
    let name = rest[..end].trim();
    name.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_')
        .then_some(name)
}
