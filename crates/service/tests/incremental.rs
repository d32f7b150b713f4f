//! The incremental ≡ from-scratch property: for random programs and
//! random single-binding edits, the service's warm recheck produces
//! exactly the verdicts a cold check of the same text produces —
//! α-equivalent schemes (canonicalised schemes render identically) and
//! identical error classes — with both engines in play
//! (`EngineSel::Both` runs the union-find engine against the
//! paper-literal oracle per binding, so a warm/cold comparison under
//! `Both` is simultaneously a cross-engine differential run).
//!
//! Two corpora:
//!
//! * deterministic generated programs ([`GenProgram`]) with same-class
//!   random edits (always well typed);
//! * the Figure 1 corpus, packaged as one program of top-level bindings
//!   (standard-mode rows without extra environments), with edits that
//!   swap a binding's body for another row's — exercising both success
//!   and error outcomes through the cache.
//!
//! The byte-level differential at the end holds an `edit` (which patches
//! the document's analysis and checks only the dirty bindings) to a
//! `close` + `open` of the same text on a twin service with its own hub
//! and the same request history, answer for answer. One of its streams
//! arms a failpoint, and the failpoint table is process-global, so every
//! test here takes [`GATE`].

use freezeml_core::Options;
use freezeml_service::{
    analyze, fault, handle_line, CheckReport, EngineSel, GenProgram, Request, Service,
    ServiceConfig,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests: one of them installs a failpoint.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn svc() -> Service {
    Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Both,
        workers: 2,
    })
}

/// Render a report to its comparable essence: binding names plus
/// canonical verdicts (scheme text / error class / blocker).
fn essence(r: &CheckReport) -> Vec<(String, String)> {
    r.bindings
        .iter()
        .map(|b| {
            let v = match &b.outcome {
                freezeml_service::Outcome::Typed {
                    scheme, defaulted, ..
                } => {
                    format!("ok {scheme} [{}]", defaulted.len())
                }
                freezeml_service::Outcome::Error { class, .. } => format!("err {class}"),
                freezeml_service::Outcome::Blocked { on } => format!("blocked {on}"),
                freezeml_service::Outcome::Disagreement { core, uf } => {
                    panic!("engine disagreement on `{}`: {core} / {uf}", b.name)
                }
            };
            (b.name.to_string(), v)
        })
        .collect()
}

/// Check `text` warm (through the running service) and cold (through a
/// fresh service), and demand identical essences.
fn warm_equals_scratch(warm_svc: &mut Service, text: &str, context: &str) {
    let warm = essence(&warm_svc.edit("doc", text).unwrap().clone());
    let cold = essence(&svc().open("doc", text).unwrap().clone());
    assert_eq!(warm, cold, "incremental ≢ from-scratch ({context})");
}

#[test]
fn generated_programs_incremental_equals_scratch() {
    let _gate = gate();
    // SplitMix-style deterministic "random" choices.
    let mut state = 0x001C_4E11_E7A1_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for seed in [3u64, 17, 91] {
        let gen = GenProgram::generate(48, seed);
        let mut s = svc();
        s.open("doc", &gen.text()).unwrap();
        for round in 0..12u64 {
            let i = (next() % 48) as usize;
            let edited = gen.with_edit(i, round * 1000 + next() % 1000);
            warm_equals_scratch(&mut s, &edited.text(), &format!("seed {seed}, edit b{i}"));
            // And edit back (the restore path must also agree).
            warm_equals_scratch(&mut s, &gen.text(), &format!("seed {seed}, restore b{i}"));
        }
    }
}

/// The Figure 1 rows usable as top-level bindings: standard mode, no
/// extra environment.
fn figure1_bodies() -> Vec<&'static str> {
    freezeml_corpus::EXAMPLES
        .iter()
        .filter(|e| e.mode == freezeml_corpus::Mode::Standard && e.extra_env.is_empty())
        .map(|e| e.src)
        .collect()
}

fn figure1_program(bodies: &[&str], swap: Option<(usize, usize)>) -> String {
    let mut text = String::from("#use prelude\n");
    for (i, body) in bodies.iter().enumerate() {
        let body = match swap {
            Some((at, from)) if at == i => bodies[from],
            _ => body,
        };
        text.push_str(&format!("let fig{i} = {body};;\n"));
    }
    // A frozen-reuse tail referencing earlier bindings, so the corpus
    // program is not purely independent rows.
    text.push_str("let tail_id = $(fun x -> x);;\n");
    text.push_str("let tail_use = poly ~tail_id;;\n");
    text
}

#[test]
fn figure1_corpus_incremental_equals_scratch() {
    let _gate = gate();
    let bodies = figure1_bodies();
    assert!(bodies.len() >= 40, "most Figure 1 rows qualify");
    let base = figure1_program(&bodies, None);
    let mut s = svc();
    s.open("doc", &base).unwrap();
    // The corpus mixes well-typed and ill-typed rows; the warm recheck
    // must simply agree with scratch (not be all-typed).
    warm_equals_scratch(&mut s, &base, "figure 1 recheck");
    // Swap a handful of bindings' bodies for other rows' and back.
    for (at, from) in [(0usize, 5usize), (12, 30), (30, 12), (41, 2)] {
        let edited = figure1_program(&bodies, Some((at, from)));
        warm_equals_scratch(&mut s, &edited, &format!("figure 1 swap {at}<-{from}"));
        warm_equals_scratch(&mut s, &base, &format!("figure 1 restore {at}"));
    }
}

#[test]
fn structural_edits_incremental_equals_scratch() {
    let _gate = gate();
    // Beyond body edits: insert, delete, and reorder declarations.
    let gen = GenProgram::generate(30, 7);
    let base = gen.text();
    let mut s = svc();
    s.open("doc", &base).unwrap();

    // Insert an unrelated binding mid-program.
    let mut lines: Vec<&str> = base.lines().collect();
    lines.insert(15, "let inserted = 123456;;");
    warm_equals_scratch(&mut s, &(lines.join("\n") + "\n"), "insert");

    // Delete a leaf binding (the last one has no dependents).
    let deleted: Vec<&str> = base.lines().take(base.lines().count() - 1).collect();
    warm_equals_scratch(&mut s, &(deleted.join("\n") + "\n"), "delete last");

    // Duplicate the program under shadowing: every binding redeclared.
    let doubled = format!("{base}{}", base.replace("#use prelude\n", ""));
    warm_equals_scratch(&mut s, &doubled, "shadow-duplicate");

    // And back to base.
    warm_equals_scratch(&mut s, &base, "restore");
}

// ------------------------------------------------ edit ≡ close + open, bytes

fn service(engine: EngineSel) -> Service {
    Service::new(ServiceConfig {
        opts: Options::default(),
        engine,
        workers: 1,
    })
}

/// One request line's answer.
fn answer(svc: &mut Service, line: &str) -> String {
    let mut out = String::new();
    handle_line(svc, line, &mut out);
    out
}

/// A primary service that edits one document, and a twin that closes
/// and reopens it instead.
struct Twins {
    primary: Service,
    twin: Service,
}

impl Twins {
    fn new(engine: EngineSel, text: &str) -> Twins {
        let mut t = Twins {
            primary: service(engine),
            twin: service(engine),
        };
        let open = Request::Open {
            doc: "d".into(),
            text: text.into(),
        }
        .to_json()
        .to_string();
        let (a, b) = (answer(&mut t.primary, &open), answer(&mut t.twin, &open));
        assert_eq!(a, b, "open");
        t
    }

    /// `edit` on the primary, `close` + `open` on the twin: the answers
    /// must be the same bytes. Returns the answer.
    fn edit(&mut self, text: &str, ctx: &str) -> String {
        let req = |open: bool| {
            let (doc, text) = ("d".to_string(), text.to_string());
            match open {
                true => Request::Open { doc, text },
                false => Request::Edit { doc, text },
            }
            .to_json()
            .to_string()
        };
        let got = answer(&mut self.primary, &req(false));
        answer(&mut self.twin, r#"{"cmd":"close","doc":"d"}"#);
        let want = answer(&mut self.twin, &req(true));
        assert_eq!(got, want, "edit ≢ close + open: {ctx}");
        got
    }

    /// `check` on both: the same bytes.
    fn check(&mut self, ctx: &str) {
        let line = r#"{"cmd":"check","doc":"d"}"#;
        let (got, want) = (
            answer(&mut self.primary, line),
            answer(&mut self.twin, line),
        );
        assert_eq!(got, want, "check: {ctx}");
    }
}

const ENGINES: [EngineSel; 2] = [EngineSel::Uf, EngineSel::Both];

#[test]
fn body_edits_answer_as_a_reopen_does() {
    let _gate = gate();
    for engine in ENGINES {
        let g = GenProgram::generate(120, 5);
        let mut t = Twins::new(engine, &g.text());
        let mut state = 0x5EED_u64;
        for j in 0..40u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % g.len();
            // As the benchmark's edit stream does: each edit rewrites one
            // binding of the original text, so it also reverts the last.
            t.edit(
                &g.edited_text(i, 1 + 2 * j),
                &format!("{engine:?} b{i} #{j}"),
            );
            if j % 5 == 0 {
                t.check(&format!("{engine:?} after #{j}"));
            }
        }
        // Back to the original, a text both have answered before.
        t.edit(&g.text(), &format!("{engine:?} original"));
    }
}

#[test]
fn structural_edits_answer_as_a_reopen_does() {
    let _gate = gate();
    let base: Vec<String> = GenProgram::generate(40, 9)
        .text()
        .lines()
        .map(str::to_string)
        .collect();
    type Edit = fn(&mut Vec<String>);
    let edits: &[(&str, Edit)] = &[
        ("insert", |l| l.insert(20, "let fresh = plus b3 4;;".into())),
        ("delete", |l| {
            l.remove(5);
        }),
        ("rename", |l| {
            l[3] = l[3].replacen("let b2 ", "let renamed ", 1)
        }),
        ("shadow", |l| l.insert(12, "let b4 = true;;".into())),
        ("reorder", |l| l.swap(7, 8)),
        ("comment", |l| l.insert(9, "-- a note ;; with semis".into())),
        ("reindent", |l| l[10] = format!("\t  {}", l[10])),
        ("drop #use", |l| {
            l.remove(0);
        }),
        ("restore #use", |l| l.insert(0, "#use prelude".into())),
        ("restore #use lower down", |l| {
            l.insert(6, "#use prelude".into())
        }),
        ("join", |l| {
            let next = l.remove(14);
            l[13] = format!("{} {next}", l[13]);
        }),
        ("swallow", |l| {
            l[13] = l[13].replacen(";; let", ";; -- let", 1)
        }),
        ("swallow into a parse error", |l| {
            l[16] = l[16].replacen(";;", " -- ;;", 1)
        }),
        ("parse error", |l| l[18] = "let broken = ;;".into()),
        ("lex error", |l| l[18] = "let été = 1;;".into()),
        ("no final `;;`", |l| {
            let last = l.len() - 1;
            l[last] = l[last].trim_end_matches(";;").to_string();
        }),
        ("trailing pragma", |l| l.push("#use prelude".into())),
        ("trailing comment", |l| l.push("-- the end ;;".into())),
    ];
    for engine in ENGINES {
        let mut t = Twins::new(engine, &(base.join("\n") + "\n"));
        let mut lines = base.clone();
        for (n, (kind, apply)) in edits.iter().enumerate() {
            let before = lines.clone();
            apply(&mut lines);
            let text = lines.join("\n") + "\n";
            let ctx = format!("{engine:?} {kind}");
            let got = t.edit(&text, &ctx);
            if got.starts_with(r#"{"ok":false"#) {
                // The error is reported; the fix is the previous text.
                lines = before;
                t.edit(&(lines.join("\n") + "\n"), &format!("{ctx}, fixed"));
            }
            if n % 3 == 0 {
                t.check(&ctx);
            }
        }
    }
}

/// Swaps of a binding's body between Figure 1 rows flip its dependents
/// between ok, error and blocked.
#[test]
fn verdict_flips_answer_as_a_reopen_does() {
    let _gate = gate();
    let program = |f: &str| {
        format!(
            "#use prelude\n\
             let f = {f};;\n\
             let p = poly ~f;;\n\
             let a = auto ~f;;\n\
             let n = plus f 1;;\n\
             let l = single f;;\n\
             let m = head l;;\n"
        )
    };
    let bodies = [
        "$(fun x -> x)",
        "fun x -> x",
        "1",
        "true",
        "plus true 1",
        "id",
        "$(fun y -> y)",
    ];
    let rows: Vec<&str> = freezeml_corpus::EXAMPLES
        .iter()
        .filter(|e| e.mode == freezeml_corpus::Mode::Standard && e.extra_env.is_empty())
        .map(|e| e.src)
        .collect();
    for engine in ENGINES {
        let mut t = Twins::new(engine, &program(bodies[0]));
        for (k, body) in bodies.iter().chain(&bodies[..3]).enumerate() {
            t.edit(&program(body), &format!("{engine:?} f = {body} (#{k})"));
        }
        for (k, row) in rows.iter().enumerate().step_by(3) {
            t.edit(&program(row), &format!("{engine:?} f = row {k}: {row}"));
        }
    }
}

/// An internal-error verdict is never cached: the next edit heals it,
/// as a reopen does.
#[test]
fn an_injected_internal_error_heals_on_the_next_edit() {
    let _gate = gate();
    let g = GenProgram::generate(60, 11);
    // The binding with the most dependents: they are blocked while it
    // fails, and must be rechecked once it heals.
    let a = analyze(&g.text(), &Options::default(), EngineSel::Uf).unwrap();
    let i = (0..g.len()).max_by_key(|&i| a.dependents(i).len()).unwrap();
    assert!(!a.dependents(i).is_empty());
    let other = (0..g.len()).rev().find(|j| *j != i).unwrap();
    for engine in ENGINES {
        let mut t = Twins::new(engine, &g.text());
        // A fresh body is a verdict-cache miss, so the armed site trips
        // on the first job of each service's pass: the edited binding.
        let failing = g.edited_text(i, 101);
        let line = |open: bool| {
            let (doc, text) = ("d".to_string(), failing.clone());
            match open {
                true => Request::Open { doc, text },
                false => Request::Edit { doc, text },
            }
            .to_json()
            .to_string()
        };
        fault::install("infer.binding=err:1").expect("spec parses");
        let got = answer(&mut t.primary, &line(false));
        fault::install("infer.binding=err:1").expect("spec parses");
        answer(&mut t.twin, r#"{"cmd":"close","doc":"d"}"#);
        let want = answer(&mut t.twin, &line(true));
        fault::clear();
        assert_eq!(got, want, "{engine:?}: the failed pass");
        assert_eq!(got.matches(r#""class":"Internal""#).count(), 1, "{got}");
        assert!(got.contains(r#""status":"blocked""#), "{got}");
        // The next edit touches another binding and keeps the failed
        // one's text: it and its dependents are rechecked, because its
        // verdict may not be served warm.
        let next = g.with_edit(i, 101).edited_text(other, 103);
        let healed = t.edit(&next, &format!("{engine:?} heal"));
        assert!(!healed.contains("Internal"), "{healed}");
        assert!(!healed.contains(r#""status":"blocked""#), "{healed}");
    }
}

/// A document keeps the bindings array of its last answer and patches
/// it: an edit that keeps every binding's index re-renders only the
/// bindings with a fresh verdict or a new line or column. Every answer
/// here must still be the bytes a reopen answers: after an edit that
/// moves every later line, after one that moves a column, around a
/// parse error, after a pass that ran out of time, and across a close.
#[test]
fn kept_answers_answer_as_a_reopen_does() {
    let _gate = gate();
    let g = GenProgram::generate(60, 17);
    let mut lines: Vec<String> = g.text().lines().map(str::to_string).collect();
    lines.insert(3, "let x = 1;; let y = plus x 2;;".into());
    let text = |l: &[String]| l.join("\n") + "\n";
    // The binding with the most dependents: an edit of it dirties a
    // cone that spans several waves.
    let base = text(&lines);
    let a = analyze(&base, &Options::default(), EngineSel::Uf).unwrap();
    let hub = (0..a.decls.len())
        .max_by_key(|&i| a.dependents(i).len())
        .unwrap();
    let hub_line = lines
        .iter()
        .position(|l| l.starts_with(&format!("let {} = ", a.decls[hub].name())))
        .unwrap();
    for engine in ENGINES {
        let mut l = lines.clone();
        let mut t = Twins::new(engine, &text(&l));
        t.check(&format!("{engine:?} opened"));
        // A newline inside an early body: every later binding moves down
        // a line, and nothing else changes.
        l[2] = l[2].replacen(" = ", " =\n  ", 1);
        t.edit(&text(&l), &format!("{engine:?} newline"));
        t.check(&format!("{engine:?} after newline"));
        // Two bindings on one line: a longer first body moves the
        // second's column.
        l[3] = "let x = 1000;; let y = plus x 2;;".into();
        t.edit(&text(&l), &format!("{engine:?} column"));
        t.check(&format!("{engine:?} after column"));
        l[3] = "let x = true;;    let y = plus x 2;;".into();
        t.edit(&text(&l), &format!("{engine:?} column and verdicts"));
        // A parse error in between leaves the last good answer kept, and
        // the next edit patches it.
        let mut broken = l.clone();
        broken[6] = "let broken = ;;".into();
        let got = t.edit(&text(&broken), &format!("{engine:?} parse error"));
        assert!(got.starts_with(r#"{"ok":false"#), "{got}");
        l[3] = "let x = 7;; let y = plus x 2;;".into();
        t.edit(&text(&l), &format!("{engine:?} after parse error"));
        // A pass that runs out of time leaves no report, so the next
        // answer renders in full.
        l[hub_line] = l[hub_line].replacen(";;", " ;;", 1);
        let (doc, timed) = ("d".to_string(), text(&l));
        let line = |open: bool| {
            let (doc, text) = (doc.clone(), timed.clone());
            match open {
                true => Request::Open { doc, text },
                false => Request::Edit { doc, text },
            }
            .to_json()
            .to_string()
        };
        let budget = std::time::Duration::from_millis(100);
        fault::install("infer.wave=delay:300ms*1").expect("spec parses");
        t.primary
            .set_deadline(Some(std::time::Instant::now() + budget));
        let got = answer(&mut t.primary, &line(false));
        t.primary.set_deadline(None);
        fault::install("infer.wave=delay:300ms*1").expect("spec parses");
        answer(&mut t.twin, r#"{"cmd":"close","doc":"d"}"#);
        t.twin
            .set_deadline(Some(std::time::Instant::now() + budget));
        let want = answer(&mut t.twin, &line(true));
        t.twin.set_deadline(None);
        fault::clear();
        assert_eq!(got, r#"{"ok":false,"error":"deadline"}"#, "{engine:?}");
        assert_eq!(got, want, "{engine:?}: the timed-out pass");
        t.check(&format!("{engine:?} after deadline"));
        l[3] = "let x = 8;; let y = plus x 2;;".into();
        t.edit(&text(&l), &format!("{engine:?} after deadline"));
        // A closed and reopened document starts from a full answer.
        answer(&mut t.primary, r#"{"cmd":"close","doc":"d"}"#);
        let open = Request::Open {
            doc: "d".into(),
            text: text(&l),
        }
        .to_json()
        .to_string();
        let got = answer(&mut t.primary, &open);
        answer(&mut t.twin, r#"{"cmd":"close","doc":"d"}"#);
        assert_eq!(got, answer(&mut t.twin, &open), "{engine:?} reopen");
        l[2] = l[2].replacen("=\n  ", "= ", 1);
        t.edit(&text(&l), &format!("{engine:?} after reopen"));
        t.check(&format!("{engine:?} after reopen"));
    }
}
