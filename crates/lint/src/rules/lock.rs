//! Lock discipline, three rules, all interprocedural since PR 7:
//!
//! * `lock-io` — a lock guard held across file/socket I/O turns one
//!   slow disk or one stalled peer into a pile-up of blocked threads.
//!   Flagged when an I/O marker sits inside a live guard span, *or*
//!   when a call made inside the span reaches I/O through any chain of
//!   callees (the finding prints the chain). Deliberate latch-coupled
//!   write-back sites carry reasoned `lint:allow` pragmas, which also
//!   stop the effect from propagating to callers.
//! * `lock-order` — acquisitions must respect [`DECLARED_ORDER`]
//!   (outermost first); acquiring an earlier-ranked lock while a
//!   later-ranked guard is live — directly or through a callee — is an
//!   inversion that can deadlock against a thread locking in the
//!   declared order. The runtime counterpart is the `parking_lot`
//!   shim's `lock-order-tracking` feature.
//! * `lock-blocking` — parking the thread (condvar wait, join, channel
//!   recv) while any guard is held stalls every waiter on that lock;
//!   worse, the wakeup path may need the held lock. The one exemption
//!   is the guard handed to the wait itself (`cv.wait(&mut g)` releases
//!   `g` while parked). The runtime counterpart panics in the shim's
//!   `lock-order-tracking` feature.
//! * `olc-io` — file/socket I/O while an optimistic *read span* (a
//!   live `begin_optimistic` guard or an `optimistic_read` closure) is
//!   open. The span's reads are provisional until validation, so I/O
//!   inside it either acts on bytes that may be torn or repeats on
//!   every restart of the retry loop; do the I/O first, then read
//!   under the span and re-check the version with
//!   `OptimisticGuard::validate`.
//!   `.lock_exclusive()` on a version word needs no extra rule: it is
//!   an ordinary ranked acquisition (`Effect::AcquireOpt`) and the
//!   three rules above all apply to it.
//!
//! Guard liveness is lexical: a `let`/`for`/`match` binding of
//! `<field>.lock()`/`.read()`/`.write()` is live until its enclosing
//! block closes (or an explicit `drop(<name>)`); a guard immediately
//! method-chained (`m.lock().take()`) is statement-temporary. A call to
//! a function whose signature returns a `…Guard…` type and whose body
//! acquires a ranked lock (e.g. `VersionTable::commit_section`) makes
//! the caller's `let` binding a live guard on that lock.
//!
//! Scope: non-test code under `crates/*/src`.

use crate::model::{Effect, Model, Unit};
use crate::source::SourceFile;
use crate::Finding;

/// The workspace's declared lock order, outermost (acquire first) to
/// innermost. Field names are unambiguous across the workspace:
/// `inflight`/`queue`/`sessions`/`supervisor` (server: coalescing
/// table, then admission queue), `commit` (array: the version table's
/// one-write-batch-at-a-time commit section, taken via
/// `VersionTable::commit_section` by the core write paths),
/// `catalog` (core), `results` (result-cube cache shard), `chunks`
/// (decoded-chunk cache shard), `versions` (chunk version table:
/// pinned pre-images for snapshot reads), `dir`/`pack` (LOB store),
/// `state`/`data` (buffer pool: shard state, then per-frame latch),
/// `pages` (MemDisk backing store).
///
/// The `*_v` names are the optimistic version words (exclusive side is
/// a spinlock, so it ranks like any lock): each sits directly after
/// the shard mutex whose structure it versions — except `state_v`,
/// which the pool's fault-in takes while the claimed frame latch
/// (`data`) is still held, so it must rank after `data` too. The
/// `*_slot` names are the caches' per-slot mirror mutexes, taken after
/// their version word by both the mutation paths and the optimistic
/// probes.
///
/// The DESIGN.md §8 lock table is cross-checked against this const by
/// the `doc-drift` rule; the two cannot silently diverge.
pub const DECLARED_ORDER: &[&str] = &[
    "inflight",
    "queue",
    "sessions",
    "supervisor",
    "commit",
    "catalog",
    "results",
    "results_v",
    "result_slot",
    "delivery",
    "chunks",
    "chunks_v",
    "chunk_slot",
    "versions",
    "dir",
    "pack",
    "state",
    "data",
    "state_v",
    "pages",
];

pub(crate) fn rank(lock: &str) -> Option<usize> {
    DECLARED_ORDER.iter().position(|&l| l == lock)
}

fn in_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// A guard that is live at the current line.
struct LiveGuard {
    /// Lock field name (`queue`, `state`, …).
    lock: String,
    /// Binding name, when one exists, for `drop(name)` tracking.
    binding: Option<String>,
    /// 1-indexed acquisition line.
    line: usize,
    /// The guard dies when the brace depth drops below this.
    min_depth: i32,
}

/// Runs the lock rules over every unit of the model.
pub fn check_model(model: &Model<'_>, findings: &mut Vec<Finding>) {
    for unit in &model.units {
        let file = &model.files[unit.file];
        if !in_scope(&file.path) {
            continue;
        }
        check_unit(model, unit, file, findings);
    }
}

fn check_unit(model: &Model<'_>, unit: &Unit, file: &SourceFile, findings: &mut Vec<Finding>) {
    let mut depth = 0i32;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut live_opt: Vec<LiveGuard> = Vec::new();

    for lf in &unit.lines {
        let lineno = lf.line;

        // lock-order, direct: every acquisition is checked against
        // guards already live.
        for acq in &lf.acquisitions {
            if let Some(new_rank) = rank(&acq.lock) {
                for g in &live {
                    if let Some(held_rank) = rank(&g.lock) {
                        if new_rank < held_rank {
                            findings.push(Finding {
                                path: file.path.clone(),
                                line: lineno,
                                rule: "lock-order".into(),
                                message: format!(
                                    "acquiring `{}` while holding `{}` (line {}) inverts the \
                                     declared lock order ({} before {})",
                                    acq.lock, g.lock, g.line, acq.lock, g.lock
                                ),
                            });
                        }
                    }
                }
            }
        }

        // Interprocedural: effects reachable through calls made on this
        // line, checked against the guards live around the call.
        if model.interprocedural {
            for call in &lf.calls {
                for &j in model.callees(call) {
                    let callee = &model.units[j];
                    for effect in callee.summary.keys() {
                        match effect {
                            Effect::Acquire(lock) | Effect::AcquireOpt(lock) => {
                                let Some(new_rank) = rank(lock) else {
                                    continue;
                                };
                                for g in &live {
                                    let Some(held_rank) = rank(&g.lock) else {
                                        continue;
                                    };
                                    if new_rank < held_rank {
                                        findings.push(Finding {
                                            path: file.path.clone(),
                                            line: lineno,
                                            rule: "lock-order".into(),
                                            message: format!(
                                                "acquiring `{}` via {} while holding `{}` \
                                                 (line {}) inverts the declared lock order \
                                                 ({} before {})",
                                                lock,
                                                model.chain(j, effect),
                                                g.lock,
                                                g.line,
                                                lock,
                                                g.lock
                                            ),
                                        });
                                    }
                                }
                            }
                            Effect::Io(marker) => {
                                if let Some(g) = live.first() {
                                    findings.push(Finding {
                                        path: file.path.clone(),
                                        line: lineno,
                                        rule: "lock-io".into(),
                                        message: format!(
                                            "I/O (`{}`) reached via {} while lock guard `{}` \
                                             (line {}) is held; move the call outside the \
                                             critical section",
                                            trim_marker(marker),
                                            model.chain(j, effect),
                                            g.lock,
                                            g.line
                                        ),
                                    });
                                }
                                if let Some(g) = live_opt.first() {
                                    findings.push(Finding {
                                        path: file.path.clone(),
                                        line: lineno,
                                        rule: "olc-io".into(),
                                        message: format!(
                                            "I/O (`{}`) reached via {} inside the optimistic \
                                             read span on `{}` (line {}); do the I/O with no \
                                             span open and re-check with \
                                             `OptimisticGuard::validate`",
                                            trim_marker(marker),
                                            model.chain(j, effect),
                                            g.lock,
                                            g.line
                                        ),
                                    });
                                }
                            }
                            Effect::Blocking(marker) => {
                                if let Some(g) = live.first() {
                                    findings.push(Finding {
                                        path: file.path.clone(),
                                        line: lineno,
                                        rule: "lock-blocking".into(),
                                        message: format!(
                                            "blocking op (`{}`) reached via {} while lock guard \
                                             `{}` (line {}) is held; a parked thread must not \
                                             pin a lock",
                                            trim_marker(marker),
                                            model.chain(j, effect),
                                            g.lock,
                                            g.line
                                        ),
                                    });
                                }
                            }
                            Effect::Checkpoint | Effect::Publish => {}
                        }
                    }
                }
            }
        }

        // lock-io, direct: I/O markers while any guard is live. The
        // guard may also be acquired on this same line
        // (`for … in x.lock()…`).
        let has_live_before = !live.is_empty();
        let acquired_holding = !lf.acquisitions.iter().all(|a| a.temporary);
        if has_live_before || acquired_holding {
            for marker in &lf.io {
                let holder = live
                    .first()
                    .map(|g| format!("`{}` (line {})", g.lock, g.line))
                    .unwrap_or_else(|| {
                        lf.acquisitions
                            .first()
                            .map(|a| format!("`{}` (this line)", a.lock))
                            .unwrap_or_default()
                    });
                findings.push(Finding {
                    path: file.path.clone(),
                    line: lineno,
                    rule: "lock-io".into(),
                    message: format!(
                        "I/O call `{}` while lock guard {} is held; move the I/O outside \
                         the critical section",
                        trim_marker(marker),
                        holder
                    ),
                });
            }
        }

        // olc-io, direct: I/O markers while an optimistic read span is
        // live (the span may open on this same line).
        let opt_open_here = !lf.opt_spans.iter().all(|a| a.temporary);
        if !live_opt.is_empty() || opt_open_here {
            for marker in &lf.io {
                let holder = live_opt
                    .first()
                    .map(|g| format!("`{}` (line {})", g.lock, g.line))
                    .unwrap_or_else(|| {
                        lf.opt_spans
                            .first()
                            .map(|a| format!("`{}` (this line)", a.lock))
                            .unwrap_or_default()
                    });
                findings.push(Finding {
                    path: file.path.clone(),
                    line: lineno,
                    rule: "olc-io".into(),
                    message: format!(
                        "I/O call `{}` inside the optimistic read span on {}; do the I/O \
                         with no span open and re-check with `OptimisticGuard::validate`",
                        trim_marker(marker),
                        holder
                    ),
                });
            }
        }

        // lock-blocking, direct: a blocking op while a guard other
        // than the waited-on one is live.
        for op in &lf.blocking {
            let offending = live
                .iter()
                .find(|g| g.binding.as_deref() != op.waived.as_deref() || op.waived.is_none());
            if let Some(g) = offending {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: lineno,
                    rule: "lock-blocking".into(),
                    message: format!(
                        "blocking op `{}` while lock guard `{}` (line {}) is held; a parked \
                         thread must not pin a lock",
                        trim_marker(op.marker),
                        g.lock,
                        g.line
                    ),
                });
            }
        }

        // Update liveness *after* analysis: a temporary dies with its
        // statement, a held binding lives until its block closes.
        depth += lf.brace_delta;
        // A `let … else {` brace is the diverging arm; guards bound on
        // that line outlive it, so they pin to the enclosing depth.
        let guard_depth = if lf.let_else {
            depth - lf.brace_delta
        } else {
            depth
        };
        for span in &lf.opt_spans {
            if !span.temporary {
                live_opt.push(LiveGuard {
                    lock: span.lock.clone(),
                    binding: span.binding.clone(),
                    line: lineno,
                    min_depth: guard_depth,
                });
            }
        }
        for acq in &lf.acquisitions {
            if !acq.temporary {
                live.push(LiveGuard {
                    lock: acq.lock.clone(),
                    binding: acq.binding.clone(),
                    line: lineno,
                    // A `for`/`match` header that opened a brace owns
                    // the guard for that block; a `let` owns it for
                    // the current block.
                    min_depth: guard_depth,
                });
            }
        }
        // A `let` binding of a guard-returning call is a live guard on
        // the lock that call acquires (`commit_section()`).
        if model.interprocedural {
            if let Some(binding) = &lf.binding {
                if binding != "_" {
                    for call in &lf.calls {
                        for &j in model.callees(call) {
                            if let Some(lock) = &model.units[j].returns_guard {
                                live.push(LiveGuard {
                                    lock: lock.clone(),
                                    binding: Some(binding.clone()),
                                    line: lineno,
                                    min_depth: depth,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Explicit drops.
        if let Some(dropped) = &lf.dropped {
            live.retain(|g| g.binding.as_deref() != Some(dropped.as_str()));
            live_opt.retain(|g| g.binding.as_deref() != Some(dropped.as_str()));
        }
        live.retain(|g| depth >= g.min_depth);
        live_opt.retain(|g| depth >= g.min_depth);
    }
}

fn trim_marker(marker: &str) -> &str {
    marker.trim_matches(|c| c == '.' || c == '(' || c == ')')
}
