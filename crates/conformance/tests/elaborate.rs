//! The `elaborate` differential over the Figure 1 corpus and generated
//! terms: every program that infers a type must elaborate — on both
//! engines — to a System F term the `freezeml_systemf` oracle accepts at
//! a type α-equivalent to the inferred scheme, with identical canonical
//! images and agreeing evaluation (see `freezeml_conformance::elab`).

use freezeml_conformance::elab::check_elaboration;
use freezeml_conformance::Mode;
use freezeml_core::{Options, Term};
use freezeml_service::EngineSel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fml_mode(m: freezeml_corpus::Mode) -> Mode {
    match m {
        freezeml_corpus::Mode::Pure => Mode::Pure,
        freezeml_corpus::Mode::Standard => Mode::Standard,
    }
}

#[test]
fn figure1_corpus_elaborates_on_both_engines() {
    let mut checked = 0usize;
    for e in freezeml_corpus::EXAMPLES {
        let env = freezeml_corpus::runner::env_for(e);
        let opts = freezeml_corpus::runner::options_for(e);
        match check_elaboration(&env, e.src, fml_mode(e.mode), &opts, EngineSel::Both) {
            Ok(Some(_)) => checked += 1,
            Ok(None) => {} // ill-typed row or pure mode — not this axis
            Err(msg) => panic!("{}: {msg}", e.id),
        }
    }
    // Most of the 49 rows are well typed in standard mode; if this
    // number collapses, the obligation silently stopped running.
    assert!(checked >= 25, "only {checked} corpus rows elaborated");
}

// A compact term generator over the Figure 2 prelude (same shape as the
// engine's differential generator) — rendered to source so the check
// runs the full parse → infer → elaborate → oracle pipeline.
fn random_term<R: Rng>(
    rng: &mut R,
    prelude: &[String],
    depth: usize,
    scope: &mut Vec<String>,
    counter: &mut usize,
) -> Term {
    if depth == 0 {
        return leaf(rng, prelude, scope);
    }
    match rng.gen_range(0..16) {
        0..=3 => leaf(rng, prelude, scope),
        4..=6 => {
            *counter += 1;
            let x = format!("x{counter}");
            scope.push(x.clone());
            let body = random_term(rng, prelude, depth - 1, scope, counter);
            scope.pop();
            Term::lam(x.as_str(), body)
        }
        7..=10 => {
            let f = random_term(rng, prelude, depth - 1, scope, counter);
            let a = random_term(rng, prelude, depth - 1, scope, counter);
            Term::app(f, a)
        }
        11..=13 => {
            *counter += 1;
            let x = format!("x{counter}");
            let rhs = random_term(rng, prelude, depth - 1, scope, counter);
            scope.push(x.clone());
            let body = random_term(rng, prelude, depth - 1, scope, counter);
            scope.pop();
            Term::let_(x.as_str(), rhs, body)
        }
        _ => {
            // `$M` spelled with a parseable name (Term::gen would use an
            // unprintable fresh variable): let g = M in ~g.
            *counter += 1;
            let x = format!("g{counter}");
            let rhs = random_term(rng, prelude, depth - 1, scope, counter);
            Term::Let(
                freezeml_core::Var::named(&x),
                Box::new(rhs),
                Box::new(Term::frozen(x.as_str())),
            )
        }
    }
}

fn leaf<R: Rng>(rng: &mut R, prelude: &[String], scope: &[String]) -> Term {
    let total = 2 * (scope.len() + prelude.len()) + 1;
    let i = rng.gen_range(0..total);
    let name_at = |i: usize| -> &str {
        if i < scope.len() {
            scope[i].as_str()
        } else {
            prelude[i - scope.len()].as_str()
        }
    };
    if i < scope.len() + prelude.len() {
        Term::var(name_at(i))
    } else if i < 2 * (scope.len() + prelude.len()) {
        Term::frozen(name_at(i - scope.len() - prelude.len()))
    } else {
        Term::int(rng.gen_range(0..100))
    }
}

#[test]
fn generated_terms_elaborate_on_both_engines() {
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let seed: u64 = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE1AB);
    let env = freezeml_corpus::figure2();
    let prelude: Vec<String> = env.iter().map(|(v, _)| v.to_string()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut elaborated = 0usize;
    for case in 0..cases {
        let mut scope = Vec::new();
        let mut counter = 0usize;
        let term = random_term(&mut rng, &prelude, 4, &mut scope, &mut counter);
        // `Term::gen` desugars with globally fresh names; render through
        // the pretty-printer only when it round-trips exactly.
        let src = term.to_string();
        let Ok(reparsed) = freezeml_core::parse_term(&src) else {
            continue;
        };
        if reparsed.to_string() != src {
            continue;
        }
        match check_elaboration(
            &env,
            &src,
            Mode::Standard,
            &Options::default(),
            EngineSel::Both,
        ) {
            Ok(Some(_)) => elaborated += 1,
            Ok(None) => {}
            Err(msg) => panic!("case {case} (seed {seed}) `{src}`: {msg}"),
        }
    }
    assert!(
        elaborated * 10 >= cases,
        "only {elaborated}/{cases} generated terms elaborated"
    );
}
