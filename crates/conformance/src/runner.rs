//! Run `.fml` conformance cases through the real checker, render readable
//! diffs on mismatch, and bless expectations in place.
//!
//! The entry points are [`run_dir`] (check every `.fml` file in a
//! directory), [`bless_dir`] (rewrite golden expectations from actual
//! checker output, the `UPDATE_EXPECT=1` path), and [`check_or_bless`]
//! (dispatch on the environment variable, for use from tests).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::format::{self, Case, CaseFile, Expectation, FormatError, Mode};
use freezeml_core::{infer_program, parse_type, Options, Type, TypeEnv};
use freezeml_corpus::figure2;
use freezeml_engine::differential;
use freezeml_service::EngineSel;

/// What the checker actually produced for a case.
#[derive(Clone, Debug)]
pub enum Actual {
    /// Inference succeeded with this type.
    Type(Type),
    /// Inference failed; the rendered error.
    Error(String),
    /// The case could not even be set up (bad `env:` binding, unparsable
    /// golden type, …).
    Invalid(String),
}

impl Actual {
    /// Render the way Figure 1 renders outcomes (`✕`-style errors get
    /// their message).
    pub fn display(&self) -> String {
        match self {
            Actual::Type(t) => t.to_string(),
            Actual::Error(e) => format!("✕ ({e})"),
            Actual::Invalid(e) => format!("invalid case: {e}"),
        }
    }

    /// The directive line bless mode writes for this outcome.
    fn bless_directive(&self) -> Option<String> {
        match self {
            Actual::Type(t) => Some(format!("expect: {}", t.canonicalize())),
            Actual::Error(e) => Some(format!("expect-error: {e}")),
            Actual::Invalid(_) => None,
        }
    }
}

/// The verdict on one case (or one `differs-from` obligation).
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Case name, or `A ≠ B` for a distinctness obligation.
    pub name: String,
    /// File the case came from.
    pub path: PathBuf,
    /// 1-based line of the case header.
    pub line: usize,
    /// Did the case meet its expectation?
    pub pass: bool,
    /// Readable explanation when `pass` is false.
    pub diff: Option<String>,
}

/// The verdict on a whole suite of files.
#[derive(Clone, Debug, Default)]
pub struct SuiteOutcome {
    /// Every case and distinctness verdict, in file order.
    pub outcomes: Vec<CaseOutcome>,
}

impl SuiteOutcome {
    pub fn passed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.pass).count()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.passed()
    }

    pub fn all_pass(&self) -> bool {
        self.failed() == 0
    }

    /// Names of the plain cases (distinctness obligations excluded).
    pub fn case_names(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.name.contains('≠'))
            .map(|o| o.name.as_str())
            .collect()
    }

    /// The failure report: every failing case's diff, ready to panic with.
    pub fn render_failures(&self) -> String {
        let mut out = String::new();
        for o in self.outcomes.iter().filter(|o| !o.pass) {
            if let Some(diff) = &o.diff {
                out.push_str(diff);
                out.push('\n');
            }
        }
        if !out.is_empty() {
            out.push_str(&format!(
                "{} of {} conformance checks failed; \
                 bless intended changes with UPDATE_EXPECT=1\n",
                self.failed(),
                self.outcomes.len(),
            ));
        }
        out
    }
}

/// Build the environment for a case: Figure 2 plus its `env:` bindings.
pub(crate) fn case_env(case: &Case) -> Result<TypeEnv, String> {
    let mut env = figure2();
    for (name, ty) in &case.env {
        env.push_str(name, ty)
            .map_err(|e| format!("env binding `{name} : {ty}` does not parse: {e}"))?;
    }
    Ok(env)
}

pub(crate) fn case_options(case: &Case) -> Options {
    match case.mode {
        Mode::Standard => Options::default(),
        Mode::Pure => Options::pure_freezeml(),
    }
}

/// Run inference for a case with the engine selected by `ENGINE`,
/// independent of its expectation.
pub fn infer_case(case: &Case) -> Actual {
    infer_case_with(case, EngineSel::from_env())
}

/// Run inference for a case on a specific engine. In [`EngineSel::Both`]
/// mode the union-find engine must agree with the oracle (α-equivalent
/// type, or same error class); a disagreement renders the case invalid,
/// which fails it with a readable diff naming both verdicts.
pub fn infer_case_with(case: &Case, engine: EngineSel) -> Actual {
    let env = match case_env(case) {
        Ok(env) => env,
        Err(e) => return Actual::Invalid(e),
    };
    let opts = case_options(case);
    let to_actual = |r: Result<Type, freezeml_core::ProgramError>| match r {
        Ok(ty) => Actual::Type(ty),
        Err(e) => Actual::Error(e.to_string()),
    };
    match engine {
        EngineSel::Core => to_actual(infer_program(&env, &case.program, &opts)),
        EngineSel::Uf => to_actual(freezeml_engine::infer_program(&env, &case.program, &opts)),
        EngineSel::Both => match differential::compare_program(&env, &case.program, &opts) {
            // Expectations (golden types and error wording) are checked
            // against the oracle's output.
            Ok(oracle) => to_actual(oracle),
            Err(d) => Actual::Invalid(format!(
                "engines disagree: core gave {}, union-find gave {}",
                d.core, d.uf
            )),
        },
    }
}

/// A `-`/`+` two-liner for the readable part of a failing diff.
fn render_diff(case: &Case, path: &Path, expected: &str, actual: &Actual, note: &str) -> String {
    let mut s = format!(
        "✗ {} — {}:{}\n    program    {}\n",
        case.name,
        path.display(),
        case.header_line,
        case.program
    );
    if case.mode == Mode::Pure {
        s.push_str("    mode       pure\n");
    }
    for (name, ty) in &case.env {
        s.push_str(&format!("    env        {name} : {ty}\n"));
    }
    s.push_str(&format!("  - expected   {expected}\n"));
    s.push_str(&format!("  + actual     {}\n", actual.display()));
    if !note.is_empty() {
        s.push_str(&format!("    note       {note}\n"));
    }
    s
}

/// Check one case against its expectation, plus — for cases that infer
/// a type — the elaborate obligations (System F oracle, cross-engine
/// evidence agreement, and the `expect-f:` golden when present; see
/// [`crate::elab`]).
pub fn run_case(case: &Case, path: &Path) -> (CaseOutcome, Actual) {
    let actual = infer_case(case);
    let (pass, diff) = expectation_verdict(case, path, &actual);
    let (pass, diff) = if pass {
        elaboration_verdict(case, path, &actual)
    } else {
        (pass, diff)
    };
    (
        CaseOutcome {
            name: case.name.clone(),
            path: path.to_owned(),
            line: case.header_line,
            pass,
            diff,
        },
        actual,
    )
}

/// The original golden machinery: does the inference outcome meet the
/// case's `expect:`/`expect-error:` expectation?
fn expectation_verdict(case: &Case, path: &Path, actual: &Actual) -> (bool, Option<String>) {
    match (&case.expectation, actual) {
        (_, Actual::Invalid(msg)) => (
            false,
            Some(render_diff(case, path, "a well-formed case", actual, msg)),
        ),
        (Expectation::Type(want_src), _) => match parse_type(want_src) {
            Err(e) => (
                false,
                Some(render_diff(
                    case,
                    path,
                    want_src,
                    actual,
                    &format!("golden type does not parse: {e}"),
                )),
            ),
            Ok(want) => match actual {
                Actual::Type(got) if got.alpha_eq(&want) => (true, None),
                _ => (
                    false,
                    Some(render_diff(
                        case,
                        path,
                        want_src,
                        actual,
                        "types compared up to α-equivalence",
                    )),
                ),
            },
        },
        (Expectation::ErrorContains(needle), Actual::Error(e)) => {
            if e.contains(needle.as_str()) {
                (true, None)
            } else {
                (
                    false,
                    Some(render_diff(
                        case,
                        path,
                        &format!("an error containing `{needle}`"),
                        actual,
                        "",
                    )),
                )
            }
        }
        (Expectation::ErrorContains(needle), Actual::Type(_)) => (
            false,
            Some(render_diff(
                case,
                path,
                &format!("✕ (an error containing `{needle}`)"),
                actual,
                "",
            )),
        ),
        (Expectation::Unblessed, _) => (
            false,
            Some(render_diff(
                case,
                path,
                "(unblessed — no expectation recorded yet)",
                actual,
                "write the golden line with UPDATE_EXPECT=1",
            )),
        ),
    }
}

/// The elaborate obligations, applied once the expectation passed: a
/// well-typed case must elaborate to a System F term the oracle accepts
/// at the inferred scheme (on every selected engine, with cross-engine
/// evidence agreement under `ENGINE=both`), and must match its
/// `expect-f:` golden when one is pinned.
fn elaboration_verdict(case: &Case, path: &Path, actual: &Actual) -> (bool, Option<String>) {
    if !matches!(actual, Actual::Type(_)) {
        // A pinned image on a case that does not infer a type would be
        // dead forever — fail it instead of silently skipping.
        if case.expect_f.is_some() {
            return (
                false,
                Some(format!(
                    "✗ {} — {}:{}\n    `expect-f:` on a case that did not infer a type \
                     ({}); the image golden can never be checked — remove it\n",
                    case.name,
                    path.display(),
                    case.header_line,
                    actual.display()
                )),
            );
        }
        return (true, None);
    }
    let fail = |expected: &str, got: &str, note: &str| {
        let mut s = format!(
            "✗ {} — {}:{}\n    program    {}\n",
            case.name,
            path.display(),
            case.header_line,
            case.program
        );
        s.push_str(&format!("  - expected   {expected}\n"));
        s.push_str(&format!("  + actual     {got}\n"));
        if !note.is_empty() {
            s.push_str(&format!("    note       {note}\n"));
        }
        (false, Some(s))
    };
    match crate::elab::check_case(case, EngineSel::from_env()) {
        Err(msg) => fail(
            "a sound System F elaboration",
            &msg,
            "every inferred type must elaborate to an oracle-accepted F term",
        ),
        Ok(None) => match &case.expect_f {
            Some(_) => fail(
                "an `expect-f:` check",
                "elaboration is not checked for this case",
                "pure-mode images live in full System F (see freezeml_conformance::elab)",
            ),
            None => (true, None),
        },
        Ok(Some(out)) => match &case.expect_f {
            Some(want) if want.is_empty() => fail(
                "(unblessed expect-f — no image recorded yet)",
                &out.rendered,
                "write the golden line with UPDATE_EXPECT=1",
            ),
            Some(want) if *want != out.rendered => fail(
                want,
                &out.rendered,
                "canonical System F images compared verbatim",
            ),
            _ => (true, None),
        },
    }
}

/// Run a set of parsed files as one suite (so `differs-from` may refer to
/// cases in other files).
pub fn run_files(files: &[CaseFile]) -> SuiteOutcome {
    let mut outcomes = Vec::new();
    let mut inferred: BTreeMap<String, Actual> = BTreeMap::new();

    for file in files {
        for case in &file.cases {
            let (mut outcome, actual) = run_case(case, &file.path);
            // The parser enforces uniqueness per file; enforce it across
            // the suite too, or `differs-from` could silently resolve to
            // a shadowed case.
            if inferred.contains_key(&case.name) {
                outcome.pass = false;
                outcome.diff = Some(format!(
                    "✗ {} — {}:{}\n    duplicate case name: another file in \
                     this suite already defines {}\n",
                    case.name,
                    file.path.display(),
                    case.header_line,
                    case.name
                ));
            } else {
                inferred.insert(case.name.clone(), actual);
            }
            outcomes.push(outcome);
        }
    }

    // Distinctness obligations (freeze/thaw pairs): both cases must be
    // well typed, at α-distinct types.
    for file in files {
        for case in &file.cases {
            let Some(other) = &case.differs_from else {
                continue;
            };
            let name = format!("{} ≠ {}", case.name, other);
            let verdict = match (inferred.get(&case.name), inferred.get(other)) {
                (_, None) => Err(format!("`differs-from: {other}` names an unknown case")),
                (Some(Actual::Type(a)), Some(Actual::Type(b))) => {
                    if a.alpha_eq(b) {
                        Err(format!(
                            "expected the freeze/thaw pair to have distinct types, \
                             but both inferred {a}"
                        ))
                    } else {
                        Ok(())
                    }
                }
                (a, b) => Err(format!(
                    "distinctness needs both sides well typed; {} gave {}, {} gave {}",
                    case.name,
                    a.map_or("nothing".to_owned(), Actual::display),
                    other,
                    b.map_or("nothing".to_owned(), Actual::display),
                )),
            };
            outcomes.push(CaseOutcome {
                name: name.clone(),
                path: file.path.clone(),
                line: case.header_line,
                pass: verdict.is_ok(),
                diff: verdict.err().map(|e| {
                    format!(
                        "✗ {} — {}:{}\n    {}\n",
                        name,
                        file.path.display(),
                        case.header_line,
                        e
                    )
                }),
            });
        }
    }

    SuiteOutcome { outcomes }
}

/// All `.fml` files in `dir`, sorted by name for stable report order.
pub fn fml_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "fml"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Parse every *case-format* `.fml` file in `dir`. Files opening with a
/// `#!` marker line (e.g. `#! differential`, see [`crate::differential`])
/// follow a different schema and are skipped here.
pub fn parse_dir(dir: &Path) -> Result<Vec<CaseFile>, FormatError> {
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
        if text.starts_with("#!") {
            continue;
        }
        files.push(format::parse_str(path, &text)?);
    }
    Ok(files)
}

/// Check every `.fml` file in `dir` as one suite.
pub fn run_dir(dir: &Path) -> Result<SuiteOutcome, FormatError> {
    Ok(run_files(&parse_dir(dir)?))
}

/// Rewrite the expectations of every failing or unblessed case in `files`
/// from the checker's actual output, preserving comments and layout.
/// Returns the rewritten text per file (only files with changes) — the
/// pure core of [`bless_dir`], separated for testing.
pub fn bless_files(files: &[CaseFile]) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for file in files {
        // Edits as (1-based line, replace?) — insertions go *after* the line.
        let mut replacements: Vec<(usize, String)> = Vec::new();
        let mut insertions: Vec<(usize, String)> = Vec::new();
        for case in &file.cases {
            let actual = infer_case(case);
            let (expectation_ok, _) = expectation_verdict(case, &file.path, &actual);
            if !expectation_ok {
                if let Some(directive) = actual.bless_directive() {
                    match case.expectation_line {
                        Some(line) => replacements.push((line, directive)),
                        None => insertions.push((case.program_line, directive)),
                    }
                }
            }
            // `expect-f:` blessing is opt-in per case: only a present
            // (wrong or unblessed) directive is rewritten.
            if let (Some(want), Some(line)) = (&case.expect_f, case.expect_f_line) {
                if let Ok(Some(out)) = crate::elab::check_case(case, EngineSel::from_env()) {
                    if *want != out.rendered {
                        replacements.push((line, format!("expect-f: {}", out.rendered)));
                    }
                }
            }
        }
        if replacements.is_empty() && insertions.is_empty() {
            continue;
        }
        let mut lines = file.lines.clone();
        for (line, text) in replacements {
            lines[line - 1] = text;
        }
        insertions.sort_by_key(|&(line, _)| std::cmp::Reverse(line)); // bottom-up keeps indices valid
        for (line, text) in insertions {
            lines.insert(line, text);
        }
        let mut text = lines.join("\n");
        text.push('\n');
        out.push((file.path.clone(), text));
    }
    out
}

/// The `UPDATE_EXPECT=1` path: bless every `.fml` file in `dir` in place.
/// Returns the number of files rewritten.
pub fn bless_dir(dir: &Path) -> Result<usize, FormatError> {
    let files = parse_dir(dir)?;
    let rewrites = bless_files(&files);
    let n = rewrites.len();
    for (path, text) in rewrites {
        std::fs::write(&path, text).map_err(|e| FormatError {
            path,
            line: 0,
            message: format!("cannot write blessed file: {e}"),
        })?;
    }
    Ok(n)
}

/// Test entry point: bless first when `UPDATE_EXPECT=1` is set, then run
/// the suite (so a bless pass is itself verified).
pub fn check_or_bless(dir: &Path) -> Result<SuiteOutcome, FormatError> {
    if std::env::var("UPDATE_EXPECT").is_ok_and(|v| v == "1") {
        let n = bless_dir(dir)?;
        eprintln!("UPDATE_EXPECT: blessed {n} file(s) under {}", dir.display());
    }
    run_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_str;

    fn suite(src: &str) -> SuiteOutcome {
        run_files(&[parse_str("mem.fml", src).unwrap()])
    }

    #[test]
    fn a_correct_expectation_passes() {
        let s = suite(
            "## case A2•\nprogram: choose ~id\nexpect: (forall a. a -> a) -> forall a. a -> a\n",
        );
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn every_engine_selection_handles_a_case() {
        let file = parse_str(
            "mem.fml",
            "## case A2•\nprogram: choose ~id\n\
             ## case A8\nprogram: choose id auto'\n",
        )
        .unwrap();
        for engine in [EngineSel::Core, EngineSel::Uf, EngineSel::Both] {
            let ok = infer_case_with(&file.cases[0], engine);
            assert!(
                matches!(&ok, Actual::Type(t)
                    if t.to_string() == "(forall a. a -> a) -> forall a. a -> a"),
                "{engine:?}: {}",
                ok.display()
            );
            let err = infer_case_with(&file.cases[1], engine);
            assert!(matches!(err, Actual::Error(_)), "{engine:?}");
        }
    }

    #[test]
    fn alpha_equivalent_expectations_pass() {
        let s = suite("## case F1\nprogram: $(fun x -> x)\nexpect: forall zz. zz -> zz\n");
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn a_wrong_expectation_fails_with_a_readable_diff() {
        let s = suite("## case A2\nprogram: choose id\nexpect: Int -> Int\n");
        assert_eq!(s.failed(), 1);
        let report = s.render_failures();
        for needle in [
            "✗ A2 — mem.fml:1",
            "program    choose id",
            "- expected   Int -> Int",
            "+ actual     (a -> a) -> a -> a",
            "UPDATE_EXPECT=1",
        ] {
            assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
        }
    }

    #[test]
    fn expected_errors_match_on_substring() {
        let ok = suite("## case A8\nprogram: choose id auto'\nexpect-error: cannot\n");
        let wrong = suite("## case A8\nprogram: choose id auto'\nexpect-error: zorp\n");
        // The exact wording is the checker's own; this suite only relies on
        // `cannot` appearing in the unification failure.
        assert!(ok.all_pass(), "{}", ok.render_failures());
        assert_eq!(wrong.failed(), 1);
        assert!(wrong
            .render_failures()
            .contains("an error containing `zorp`"));
    }

    #[test]
    fn well_typed_when_error_expected_fails() {
        let s = suite("## case C3\nprogram: head ids\nexpect-error: nope\n");
        assert_eq!(s.failed(), 1);
        assert!(s
            .render_failures()
            .contains("+ actual     forall a. a -> a"));
    }

    #[test]
    fn env_and_mode_directives_are_honoured() {
        let s = suite(
            "## case A9⋆\nenv: f : forall a. (a -> a) -> List a -> a\n\
             program: f (choose ~id) ids\nexpect: forall a. a -> a\n\
             ## case F10†\nmode: pure\n\
             program: choose id (fun (x : forall a. a -> a) -> $(auto' ~x))\n\
             expect: (forall a. a -> a) -> forall a. a -> a\n",
        );
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn distinctness_obligations_check_both_sides() {
        let ok = suite(
            "## case A2\nprogram: choose id\nexpect: (a -> a) -> a -> a\n\
             ## case A2•\nprogram: choose ~id\n\
             expect: (forall a. a -> a) -> forall a. a -> a\ndiffers-from: A2\n",
        );
        assert!(ok.all_pass(), "{}", ok.render_failures());
        assert_eq!(ok.outcomes.len(), 3, "two cases plus one obligation");

        let same = suite(
            "## case X\nprogram: choose id\nexpect: (a -> a) -> a -> a\n\
             ## case Y\nprogram: choose id\nexpect: (a -> a) -> a -> a\ndiffers-from: X\n",
        );
        assert_eq!(same.failed(), 1);
        assert!(same.render_failures().contains("distinct types"));

        let dangling =
            suite("## case X\nprogram: choose id\nexpect: (a -> a) -> a -> a\ndiffers-from: Z\n");
        assert_eq!(dangling.failed(), 1);
        assert!(dangling.render_failures().contains("unknown case"));
    }

    #[test]
    fn expect_f_goldens_check_the_canonical_image() {
        // A correct image passes; a wrong one fails with the image diff.
        let ok = suite("## case E\nprogram: ~id\nexpect: forall a. a -> a\nexpect-f: id\n");
        assert!(ok.all_pass(), "{}", ok.render_failures());
        let wrong =
            suite("## case E\nprogram: ~id\nexpect: forall a. a -> a\nexpect-f: tyfun a -> id\n");
        assert_eq!(wrong.failed(), 1);
        assert!(
            wrong.render_failures().contains("+ actual     id"),
            "{}",
            wrong.render_failures()
        );
        // An empty directive is unblessed: fails showing the image.
        let unblessed = suite("## case E\nprogram: ~id\nexpect: forall a. a -> a\nexpect-f:\n");
        assert_eq!(unblessed.failed(), 1);
        assert!(unblessed.render_failures().contains("UPDATE_EXPECT=1"));
        // Pure-mode cases cannot pin an image (full-System-F boundary).
        let pure = suite(
            "## case P\nmode: pure\nprogram: $(auto' ~id)\nexpect: forall a. a -> a\nexpect-f: x\n",
        );
        assert_eq!(pure.failed(), 1);
        assert!(pure.render_failures().contains("not checked"));
        // …and neither can error cases: a pinned image there would be
        // dead forever, so it fails loudly instead of being skipped.
        let dead = suite("## case D\nprogram: auto id\nexpect-error: cannot\nexpect-f: auto id\n");
        assert_eq!(dead.failed(), 1);
        assert!(
            dead.render_failures().contains("did not infer a type"),
            "{}",
            dead.render_failures()
        );
    }

    #[test]
    fn every_well_typed_case_carries_the_elaboration_obligation() {
        // No expect-f needed: a case that infers a type is still held to
        // the System F oracle. (A failure here would be a checker bug;
        // this pins that the obligation actually runs by exercising a
        // case whose elaboration is non-trivial.)
        let s = suite(
            "## case L\nprogram: let g = (let y = fun x -> x in y) in poly ~g\n\
             expect: Int * Bool\n",
        );
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn bless_fills_in_expect_f() {
        let file = parse_str(
            "mem.fml",
            "## case E\nprogram: choose ~id\n\
             expect: (forall a. a -> a) -> forall a. a -> a\nexpect-f:\n",
        )
        .unwrap();
        let rewrites = bless_files(&[file]);
        assert_eq!(rewrites.len(), 1);
        let text = &rewrites[0].1;
        assert!(
            text.contains("expect-f: choose [forall a. a -> a] id"),
            "{text}"
        );
        // The expectation line was already right and is untouched.
        assert!(text.contains("expect: (forall a. a -> a) -> forall a. a -> a"));
        let s = run_files(&[parse_str("mem.fml", text).unwrap()]);
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn bless_replaces_wrong_expectations_in_place() {
        let file = parse_str(
            "mem.fml",
            "# a comment to preserve\n## case A2\nprogram: choose id\nexpect: Bool\n",
        )
        .unwrap();
        let rewrites = bless_files(&[file]);
        assert_eq!(rewrites.len(), 1);
        let text = &rewrites[0].1;
        assert!(text.starts_with("# a comment to preserve\n"), "{text}");
        assert!(text.contains("expect: (a -> a) -> a -> a"), "{text}");
        // And the blessed text passes.
        let s = run_files(&[parse_str("mem.fml", text).unwrap()]);
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn bless_fills_in_unblessed_cases() {
        let file = parse_str(
            "mem.fml",
            "## case C3\nprogram: head ids\n\
             ## case A8\nprogram: choose id auto'\n",
        )
        .unwrap();
        let rewrites = bless_files(&[file]);
        assert_eq!(rewrites.len(), 1);
        let text = &rewrites[0].1;
        assert!(
            text.contains("program: head ids\nexpect: forall a. a -> a"),
            "{text}"
        );
        assert!(text.contains("expect-error: "), "{text}");
        let s = run_files(&[parse_str("mem.fml", text).unwrap()]);
        assert!(s.all_pass(), "{}", s.render_failures());
    }

    #[test]
    fn bless_leaves_passing_files_untouched() {
        let file = parse_str("mem.fml", "## case C1\nprogram: length ids\nexpect: Int\n").unwrap();
        assert!(bless_files(&[file]).is_empty());
    }

    #[test]
    fn duplicate_case_names_across_files_fail() {
        let a = parse_str("a.fml", "## case C1\nprogram: length ids\nexpect: Int\n").unwrap();
        let b = parse_str("b.fml", "## case C1\nprogram: length ids\nexpect: Int\n").unwrap();
        let s = run_files(&[a, b]);
        assert_eq!(s.failed(), 1);
        let report = s.render_failures();
        assert!(report.contains("duplicate case name"), "{report}");
        assert!(report.contains("b.fml:1"), "{report}");
    }
}
