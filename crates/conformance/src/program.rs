//! The `program` golden mode: multi-binding `.fml` files checked
//! through the program-checking service.
//!
//! A program-mode file opens with a `#! program` marker line (so the
//! single-expression runner skips it, mirroring `#! differential`) and
//! holds cases of whole programs with per-binding expectations:
//!
//! ```text
//! #! program
//! ## case diamond
//! > #use prelude
//! > let base = 1;;
//! > let l = plus base 1;;
//! expect base: Int
//! expect l: Int
//! ```
//!
//! Directives after a `## case NAME` header:
//!
//! | directive | meaning |
//! |-----------|---------|
//! | `> text`  | one program line (repeatable, in order) |
//! | `mode:`   | `standard` (default) or `pure` |
//! | `expect NAME: TYPE` | the binding's scheme, up to α-equivalence |
//! | `expect-error NAME: SUBSTR` | the binding fails; message contains SUBSTR |
//! | `expect-blocked NAME: DEP` | the binding is skipped because DEP failed |
//!
//! Expectations are positional: the `k`-th expectation line describes
//! the `k`-th declaration, and its NAME must match — so shadowing
//! chains are expressible and a program cannot silently grow a binding
//! no golden line covers. The service is driven cold per case with the
//! engine selected by `ENGINE` (`core` / `uf` / `both`; `both` adds the
//! per-binding differential obligation).

use std::path::{Path, PathBuf};

use crate::format::FormatError;
use crate::runner::{fml_files, CaseOutcome, SuiteOutcome};
use freezeml_core::Options;
use freezeml_service::{EngineSel, Outcome, Service, ServiceConfig};

/// The marker line opening a program-mode file.
pub const MARKER: &str = "#! program";

/// What one binding is expected to do.
#[derive(Clone, Debug, PartialEq)]
pub enum BindExpect {
    /// Typed at this scheme (α-equivalence).
    Type(String),
    /// Fails with a message containing this substring.
    ErrorContains(String),
    /// Blocked on the named failing dependency.
    BlockedOn(String),
}

/// One program case.
#[derive(Clone, Debug)]
pub struct ProgramCase {
    /// Case name, unique within the suite.
    pub name: String,
    /// 1-based header line.
    pub header_line: usize,
    /// `standard` or `pure`.
    pub pure: bool,
    /// The program text (the `> ` lines, joined).
    pub program: String,
    /// Positional per-binding expectations.
    pub expects: Vec<(String, BindExpect)>,
}

/// A parsed program-mode file.
#[derive(Clone, Debug)]
pub struct ProgramFile {
    /// Where the file lives.
    pub path: PathBuf,
    /// The cases, in file order.
    pub cases: Vec<ProgramCase>,
}

/// Parse program-mode source text.
///
/// # Errors
///
/// A [`FormatError`] naming the offending line.
pub fn parse_str(path: impl Into<PathBuf>, text: &str) -> Result<ProgramFile, FormatError> {
    let path = path.into();
    let err = |line: usize, message: String| FormatError {
        path: path.clone(),
        line,
        message,
    };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim_end() == MARKER => {}
        _ => return Err(err(1, format!("program-mode files start with `{MARKER}`"))),
    }

    let mut cases: Vec<ProgramCase> = Vec::new();
    let mut current: Option<ProgramCase> = None;
    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("## case ") {
            if let Some(case) = current.take() {
                finish(&path, case, &mut cases)?;
            }
            current = Some(ProgramCase {
                name: name.trim().to_string(),
                header_line: lineno,
                pure: false,
                program: String::new(),
                expects: Vec::new(),
            });
            continue;
        }
        if line.starts_with("##") {
            return Err(err(lineno, format!("unrecognised header `{line}`")));
        }
        if line.starts_with('#') {
            continue; // comment
        }
        let Some(case) = current.as_mut() else {
            return Err(err(lineno, format!("`{line}` before any `## case`")));
        };
        if let Some(src) = line.strip_prefix('>') {
            case.program.push_str(src.strip_prefix(' ').unwrap_or(src));
            case.program.push('\n');
            continue;
        }
        if let Some(mode) = line.strip_prefix("mode:") {
            case.pure = match mode.trim() {
                "standard" => false,
                "pure" => true,
                other => return Err(err(lineno, format!("unknown mode `{other}`"))),
            };
            continue;
        }
        let parsed = ["expect-error ", "expect-blocked ", "expect "]
            .iter()
            .find_map(|prefix| line.strip_prefix(prefix).map(|rest| (*prefix, rest)));
        let Some((prefix, rest)) = parsed else {
            return Err(err(lineno, format!("unknown directive `{line}`")));
        };
        let Some((name, value)) = rest.split_once(':') else {
            return Err(err(
                lineno,
                format!("`{}` wants `NAME: value`", prefix.trim()),
            ));
        };
        let (name, value) = (name.trim().to_string(), value.trim().to_string());
        let expect = match prefix {
            "expect " => BindExpect::Type(value),
            "expect-error " => BindExpect::ErrorContains(value),
            _ => BindExpect::BlockedOn(value),
        };
        case.expects.push((name, expect));
    }
    if let Some(case) = current.take() {
        finish(&path, case, &mut cases)?;
    }
    Ok(ProgramFile { path, cases })
}

fn finish(path: &Path, case: ProgramCase, cases: &mut Vec<ProgramCase>) -> Result<(), FormatError> {
    let fail = |message: String| FormatError {
        path: path.to_owned(),
        line: case.header_line,
        message,
    };
    if case.program.trim().is_empty() {
        return Err(fail(format!("case {} has no `>` program lines", case.name)));
    }
    if case.expects.is_empty() {
        return Err(fail(format!("case {} has no expectations", case.name)));
    }
    if cases.iter().any(|c| c.name == case.name) {
        return Err(fail(format!("duplicate case name {}", case.name)));
    }
    cases.push(case);
    Ok(())
}

/// Read and parse a program-mode file.
///
/// # Errors
///
/// A [`FormatError`] (I/O failures are reported at line 0).
pub fn parse_file(path: &Path) -> Result<ProgramFile, FormatError> {
    let text = std::fs::read_to_string(path).map_err(|e| FormatError {
        path: path.to_owned(),
        line: 0,
        message: format!("cannot read: {e}"),
    })?;
    parse_str(path, &text)
}

/// Parse every program-mode file in `dir` (files not starting with the
/// marker are skipped).
///
/// # Errors
///
/// A [`FormatError`] from listing or parsing.
pub fn parse_dir(dir: &Path) -> Result<Vec<ProgramFile>, FormatError> {
    let paths = fml_files(dir).map_err(|e| FormatError {
        path: dir.to_owned(),
        line: 0,
        message: format!("cannot list: {e}"),
    })?;
    let mut files = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| FormatError {
            path: path.clone(),
            line: 0,
            message: format!("cannot read: {e}"),
        })?;
        if text.lines().next().map(str::trim_end) == Some(MARKER) {
            files.push(parse_str(path, &text)?);
        }
    }
    Ok(files)
}

/// `(case name, program text)` for every case — the corpus the replay
/// load generator drives.
pub fn program_sources(files: &[ProgramFile]) -> Vec<(String, String)> {
    files
        .iter()
        .flat_map(|f| f.cases.iter().map(|c| (c.name.clone(), c.program.clone())))
        .collect()
}

fn render_diff(case: &ProgramCase, path: &Path, detail: &str) -> String {
    let mut s = format!(
        "✗ {} — {}:{}\n",
        case.name,
        path.display(),
        case.header_line
    );
    for line in case.program.lines() {
        s.push_str(&format!("    | {line}\n"));
    }
    s.push_str(detail);
    s
}

/// Check one case through a fresh service with the given engine.
pub fn run_case(case: &ProgramCase, path: &Path, engine: EngineSel) -> CaseOutcome {
    let opts = if case.pure {
        Options::pure_freezeml()
    } else {
        Options::default()
    };
    let mut svc = Service::new(ServiceConfig {
        opts,
        engine,
        workers: 2,
    });
    let fail = |detail: String| CaseOutcome {
        name: case.name.clone(),
        path: path.to_owned(),
        line: case.header_line,
        pass: false,
        diff: Some(render_diff(case, path, &detail)),
    };
    let report = match svc.open(&case.name, &case.program) {
        Ok(r) => r.clone(),
        Err(e) => return fail(format!("  - program does not check: {e}\n")),
    };
    if report.bindings.len() != case.expects.len() {
        return fail(format!(
            "  - expected {} binding expectation(s), program has {} binding(s)\n",
            case.expects.len(),
            report.bindings.len()
        ));
    }
    let mut problems = String::new();
    for (pos, (b, (name, expect))) in report.bindings.iter().zip(&case.expects).enumerate() {
        if b.name != name.as_str() {
            problems.push_str(&format!(
                "  - binding #{pos}: expected name `{name}`, found `{}`\n",
                b.name
            ));
            continue;
        }
        let ok = match (expect, &b.outcome) {
            (BindExpect::Type(want), Outcome::Typed { scheme, .. }) => {
                // Schemes are carried as canonical renderings; parse
                // both sides back for an α-comparison.
                match (
                    freezeml_core::parse_type(want),
                    freezeml_core::parse_type(scheme),
                ) {
                    (Ok(w), Ok(s)) => s.alpha_eq(&w),
                    _ => false,
                }
            }
            (BindExpect::ErrorContains(needle), Outcome::Error { message, .. }) => {
                message.contains(needle.as_str())
            }
            (BindExpect::BlockedOn(dep), Outcome::Blocked { on }) => on == dep,
            _ => false,
        };
        if !ok {
            problems.push_str(&format!(
                "  - {name}\n      expected   {}\n      actual     {}\n",
                match expect {
                    BindExpect::Type(t) => t.clone(),
                    BindExpect::ErrorContains(e) => format!("✕ (an error containing `{e}`)"),
                    BindExpect::BlockedOn(d) => format!("blocked on `{d}`"),
                },
                b.outcome.display()
            ));
        }
    }
    if problems.is_empty() {
        CaseOutcome {
            name: case.name.clone(),
            path: path.to_owned(),
            line: case.header_line,
            pass: true,
            diff: None,
        }
    } else {
        fail(problems)
    }
}

/// Run parsed files as one suite with the `ENGINE`-selected engine.
pub fn run_files(files: &[ProgramFile]) -> SuiteOutcome {
    let engine = EngineSel::from_env();
    let mut outcomes = Vec::new();
    for file in files {
        for case in &file.cases {
            outcomes.push(run_case(case, &file.path, engine));
        }
    }
    SuiteOutcome { outcomes }
}

/// Run every program-mode file in `dir`.
///
/// # Errors
///
/// A [`FormatError`] from listing or parsing.
pub fn run_dir(dir: &Path) -> Result<SuiteOutcome, FormatError> {
    Ok(run_files(&parse_dir(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(src: &str) -> SuiteOutcome {
        run_files(&[parse_str("mem.fml", src).unwrap()])
    }

    #[test]
    fn a_passing_program_case() {
        let s = suite(
            "#! program\n\
             ## case two\n\
             > #use prelude\n\
             > let f = fun x -> x;;\n\
             > let p = poly ~f;;\n\
             expect f: forall a. a -> a\n\
             expect p: Int * Bool\n",
        );
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn expectations_are_positional_so_shadowing_works() {
        let s = suite(
            "#! program\n\
             ## case shadow\n\
             > let x = 1;;\n\
             > let x = true;;\n\
             expect x: Int\n\
             expect x: Bool\n",
        );
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn wrong_expectations_fail_with_readable_diffs() {
        let s = suite(
            "#! program\n\
             ## case wrong\n\
             > let x = 1;;\n\
             expect x: Bool\n",
        );
        assert_eq!(s.failed(), 1);
        let report = s.render_failures();
        for needle in [
            "✗ wrong — mem.fml:2",
            "| let x = 1;;",
            "expected   Bool",
            "actual     Int",
        ] {
            assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
        }
    }

    #[test]
    fn coverage_must_be_exact() {
        let s = suite("#! program\n## case missing\n> let x = 1;;\n> let y = 2;;\nexpect x: Int\n");
        assert_eq!(s.failed(), 1);
        assert!(s
            .render_failures()
            .contains("expected 1 binding expectation(s)"));
    }

    #[test]
    fn error_and_blocked_expectations() {
        let s = suite(
            "#! program\n\
             ## case recovery\n\
             > #use prelude\n\
             > let bad = plus true 1;;\n\
             > let child = plus bad 1;;\n\
             > let fine = 42;;\n\
             expect-error bad: cannot unify\n\
             expect-blocked child: bad\n\
             expect fine: Int\n",
        );
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn pure_mode_is_honoured() {
        // `$(auto' ~x)` generalises an application — pure FreezeML only.
        let src = |mode: &str| {
            format!(
                "#! program\n\
                 ## case gen_app\n\
                 > #use prelude\n\
                 > let f = fun (x : forall a. a -> a) -> $(auto' ~x);;\n\
                 mode: {mode}\n\
                 expect f: (forall a. a -> a) -> forall a. a -> a\n"
            )
        };
        assert!(suite(&src("pure")).all_pass());
        assert_eq!(suite(&src("standard")).failed(), 1);
    }

    #[test]
    fn malformed_files_are_rejected() {
        for (src, needle) in [
            ("## case a\n", "start with"),
            ("#! program\nexpect x: Int\n", "before any"),
            ("#! program\n## case a\nexpect x: Int\n", "no `>` program"),
            ("#! program\n## case a\n> let x = 1;;\n", "no expectations"),
            (
                "#! program\n## case a\n> let x = 1;;\nzorp: 1\n",
                "unknown directive",
            ),
            (
                "#! program\n## case a\n> let x = 1;;\nexpect x: Int\n\
                 ## case a\n> let x = 1;;\nexpect x: Int\n",
                "duplicate",
            ),
        ] {
            let e = parse_str("mem.fml", src).unwrap_err();
            assert!(e.to_string().contains(needle), "`{src}` → {e}");
        }
    }

    #[test]
    fn program_sources_extracts_case_programs() {
        let f = parse_str(
            "mem.fml",
            "#! program\n## case a\n> let x = 1;;\nexpect x: Int\n",
        )
        .unwrap();
        let sources = program_sources(&[f]);
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].0, "a");
        assert_eq!(sources[0].1, "let x = 1;;\n");
    }
}
