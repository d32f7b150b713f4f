//! Property: the report writer the server answers `open`/`edit`/`check`
//! with ([`write_report`]) produces exactly the bytes of the `Json`
//! reference ([`report_json`] + `write_to`), on real reports of
//! generated programs and on hand-built reports with every `Outcome`
//! variant — `Disagreement` included, which no real run produces — and
//! strings from every escape class.

use freezeml_core::{Options, Span, Symbol};
use freezeml_service::protocol::{report_json, write_report};
use freezeml_service::{
    BindingReport, CheckReport, EngineSel, GenProgram, Outcome, SchemeId, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

fn cases(default: usize) -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A character from one of the encoder's classes: the two escaped
/// ASCII characters, the short control escapes, the `\u00XX` control
/// escapes, plain ASCII, two- and three-byte characters, and astral
/// characters.
fn random_char<R: Rng>(rng: &mut R) -> char {
    match rng.gen_range(0..8) {
        0 => ['"', '\\'][rng.gen_range(0..2)],
        1 => ['\n', '\r', '\t'][rng.gen_range(0..3)],
        2 => ['\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1b}', '\u{1f}'][rng.gen_range(0..6)],
        3 => ['\u{7f}', 'é', 'ü', '∀', '\u{2028}', '\u{fffd}', '\u{ffff}'][rng.gen_range(0..7)],
        4 => ['🦀', '😀', '𝕏', '\u{10000}', '\u{10ffff}'][rng.gen_range(0..5)],
        _ => rng.gen_range(b' '..b'\x7f') as char,
    }
}

fn random_string<R: Rng>(rng: &mut R, max: usize) -> String {
    (0..rng.gen_range(0..max + 1))
        .map(|_| random_char(rng))
        .collect()
}

/// A count: mostly small, sometimes past the range `f64` holds exactly.
fn random_count<R: Rng>(rng: &mut R) -> usize {
    match rng.gen_range(0..6) {
        0 => usize::MAX - rng.gen_range(0..1000),
        1 => rng.gen_range(1usize << 53..1 << 62),
        _ => rng.gen_range(0..5000),
    }
}

fn uf_service() -> Service {
    Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 1,
    })
}

/// The bytes each encoder appends to a buffer that already holds
/// `prefix`, compared.
fn assert_same_bytes(case: &str, doc: &str, report: &CheckReport, src: &str, prefix: &str) {
    let mut want = prefix.to_string();
    report_json(doc, report, src).write_to(&mut want);
    let mut got = prefix.to_string();
    write_report(&mut got, doc, report, src);
    assert!(
        got == want,
        "{case}: the writer and the reference differ\n- {want}\n+ {got}"
    );
}

#[test]
fn the_writer_matches_the_reference_on_generated_programs() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let mut svc = uf_service();
    // Bindings that fail and bindings blocked on them, after the
    // generated ones.
    let tail =
        "let bad = plus true 1;;\nlet child = plus bad 1;;\nlet p = pair ~b0 (single id);;\n";
    for case in 0..cases(40) {
        let n = rng.gen_range(1..200);
        let gen = GenProgram::generate(n, rng.next_u64());
        let mut text = gen.text();
        if rng.gen_bool(0.5) {
            text.push_str(tail);
        }
        let doc = random_string(&mut rng, 12);
        svc.open(&doc, &text)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let report = svc.report(&doc).expect("stored");
        let prefix = random_string(&mut rng, 3);
        assert_same_bytes(&format!("case {case}"), &doc, report, &text, &prefix);
        svc.close(&doc);
    }
}

#[test]
fn the_writer_matches_the_reference_on_hand_built_reports() {
    // The writer never reads a scheme's id; any real one will do.
    let mut svc = uf_service();
    let id: SchemeId = match &svc.open("d", "let x = 1;;").unwrap().bindings[0].outcome {
        Outcome::Typed { id, .. } => *id,
        other => panic!("not typed: {other:?}"),
    };
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for case in 0..cases(500) {
        let src = random_string(&mut rng, 80);
        let bindings: Vec<BindingReport> = (0..rng.gen_range(0..8))
            .map(|_| {
                let outcome = match rng.gen_range(0..4) {
                    0 => Outcome::Typed {
                        id,
                        scheme: Arc::from(random_string(&mut rng, 16)),
                        defaulted: (0..rng.gen_range(0..3))
                            .map(|_| random_string(&mut rng, 4))
                            .collect(),
                    },
                    1 => Outcome::Error {
                        class: random_string(&mut rng, 8),
                        message: random_string(&mut rng, 24),
                    },
                    2 => Outcome::Blocked {
                        on: random_string(&mut rng, 8),
                    },
                    _ => Outcome::Disagreement {
                        core: random_string(&mut rng, 16),
                        uf: random_string(&mut rng, 16),
                    },
                };
                // Starts past the end of the text lie on its last line.
                let start = rng.gen_range(0..src.len() + 5);
                BindingReport {
                    // Binding names are interned symbols.
                    name: Symbol::intern(&random_string(&mut rng, 8)).as_str(),
                    span: Span {
                        start,
                        end: start + 1,
                    },
                    outcome,
                }
            })
            .collect();
        let report = CheckReport {
            bindings: bindings.into(),
            rechecked: random_count(&mut rng),
            reused: random_count(&mut rng),
            blocked: random_count(&mut rng),
            waves: random_count(&mut rng),
        };
        let doc = random_string(&mut rng, 12);
        let prefix = random_string(&mut rng, 3);
        assert_same_bytes(&format!("case {case}"), &doc, &report, &src, &prefix);
    }
}
