//! Property: on-demand zonk through the scheme bank is α-equivalent
//! to the old eager zonk.
//!
//! The zonk-free pipeline exports inference results as [`SchemeId`]s
//! (de Bruijn hash-consed DAGs) and materialises a `core::Type` tree
//! only at the protocol boundary. These tests hold that late
//! materialisation to the eager path on generated ML terms and on the
//! exponential pair chain at n = 12 — the workload whose tree form is
//! 2¹² nodes while its DAG form is 13.

use freezeml_core::{Options, Type};
use freezeml_engine::{SchemeBank, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn prelude() -> freezeml_core::TypeEnv {
    freezeml_corpus::figure2()
}

/// The eager-path reference: infer with zonk, canonicalise, ground
/// residuals to `Int` — exactly the scheme the service used to store.
fn eager_scheme(env: &freezeml_core::TypeEnv, term: &freezeml_core::Term) -> Option<Type> {
    let out = freezeml_engine::infer_term(env, term, &Options::default()).ok()?;
    let mut scheme = out.ty.canonicalize();
    for v in scheme.ftv() {
        scheme = scheme.rename_free(&v, &Type::int());
    }
    Some(scheme)
}

#[test]
fn exported_schemes_zonk_on_demand_alpha_equal_to_eager_zonk() {
    let env = prelude();
    let opts = Options::default();
    let cfg = freezeml_miniml::generator::GenConfig::default();
    let mut rng = StdRng::seed_from_u64(0xD0_5EED);
    let bank = SchemeBank::new();
    let mut session = Session::new(&env, &opts).unwrap();
    let mut checked = 0;
    let mut attempts = 0;
    while checked < 150 && attempts < 3000 {
        attempts += 1;
        let t = freezeml_miniml::generator::random_term(&mut rng, &cfg).to_freezeml();
        let Some(eager) = eager_scheme(&env, &t) else {
            continue; // ill-typed sample
        };
        let out = session
            .infer_scheme_with(&bank, &[], &t)
            .expect("eager path succeeded, scheme path must too");
        let late = bank.to_type(out.scheme);
        assert!(
            late.alpha_eq(&eager),
            "term `{t}`: on-demand {late} vs eager {eager}"
        );
        checked += 1;
    }
    assert!(checked >= 100, "only {checked} well-typed samples");
}

#[test]
fn scheme_and_eager_paths_agree_on_failures_too() {
    let env = prelude();
    let opts = Options::default();
    let cfg = freezeml_miniml::generator::GenConfig::default();
    let mut rng = StdRng::seed_from_u64(0xBAD_5EED);
    let bank = SchemeBank::new();
    let mut session = Session::new(&env, &opts).unwrap();
    let mut failures = 0;
    for _ in 0..1500 {
        let t = freezeml_miniml::generator::random_term(&mut rng, &cfg).to_freezeml();
        let eager = freezeml_engine::infer_term(&env, &t, &opts);
        let scheme = session.infer_scheme_with(&bank, &[], &t);
        match (&eager, &scheme) {
            (Ok(_), Ok(_)) => {}
            (Err(e1), Err(e2)) => {
                assert_eq!(
                    freezeml_engine::class_of(e1),
                    freezeml_engine::class_of(e2),
                    "term `{t}`"
                );
                failures += 1;
            }
            _ => panic!("paths disagree on `{t}`: {eager:?} vs {scheme:?}"),
        }
    }
    assert!(
        failures > 20,
        "generator should produce some ill-typed terms"
    );
}

#[test]
fn pair_chain_n12_exports_as_a_dag_and_zonks_alpha_equal() {
    let env = prelude();
    let opts = Options::default();
    let term = freezeml_miniml::generator::pair_chain(12).to_freezeml();

    // Eager reference (this is the expensive side: the tree has 2¹²
    // leaves).
    let eager = eager_scheme(&env, &term).expect("pair chain is well typed");

    let bank = SchemeBank::new();
    let mut session = Session::new(&env, &opts).unwrap();
    let nodes_before = bank.len();
    let out = session.infer_scheme_with(&bank, &[], &term).unwrap();
    let exported_nodes = bank.len() - nodes_before;
    assert!(
        exported_nodes <= 64,
        "export must stay DAG-sized, got {exported_nodes} nodes"
    );

    // On-demand zonk at the boundary is α-equal to the eager result…
    let late = bank.to_type(out.scheme);
    assert!(late.alpha_eq(&eager));
    // …and re-exporting the same inference hits the same α-class id.
    let out2 = session.infer_scheme_with(&bank, &[], &term).unwrap();
    assert_eq!(out.scheme, out2.scheme);
}

#[test]
fn dependency_schemes_layer_without_trees() {
    // The service shape: check a binding, feed its SchemeId to a
    // dependent, compare against the tree-based infer_with path.
    let env = prelude();
    let opts = Options::default();
    let bank = SchemeBank::new();
    let mut session = Session::new(&env, &opts).unwrap();

    let f_term = freezeml_core::parse_term("let f = fun x -> x in ~f").unwrap();
    let f = session.infer_scheme_with(&bank, &[], &f_term).unwrap();
    assert_eq!(&*bank.pretty(f.scheme), "forall a. a -> a");

    let use_term = freezeml_core::parse_term("poly ~f").unwrap();
    let deps = [(freezeml_core::Var::named("f"), f.scheme)];
    let got = session.infer_scheme_with(&bank, &deps, &use_term).unwrap();
    assert_eq!(&*bank.pretty(got.scheme), "Int * Bool");

    // Tree-based reference.
    let f_ty = bank.to_type(f.scheme);
    let tree = session
        .infer_with(&[(freezeml_core::Var::named("f"), f_ty)], &use_term)
        .unwrap();
    assert!(bank.to_type(got.scheme).alpha_eq(&tree.ty.canonicalize()));
}
