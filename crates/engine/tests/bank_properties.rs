//! Property tests for the scheme bank. A [`SchemeId`] names an
//! α-equivalence class: the service's per-binding cache and the
//! protocol's `id` field are only sound if two types share an id
//! **exactly when** they are α-equivalent. The oracle is `core`'s
//! [`Type::alpha_eq`], which knows nothing of the bank's de Bruijn
//! encoding.
//!
//! The corpus pairs every random type with an α-variant whose binders
//! are all renamed to names outside the generator's pool, so every
//! quantified type has a variant that is spelled differently. Both
//! sides of the iff — "same class, different spelling" and "different
//! class" — get real coverage.

use freezeml_core::{TyVar, Type};
use freezeml_engine::{SchemeBank, SchemeId, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator's variable names, free and bound alike.
const POOL: [&str; 4] = ["a", "b", "c", "d"];

fn random_type(rng: &mut StdRng, depth: usize) -> Type {
    let var = |rng: &mut StdRng| TyVar::named(POOL[rng.gen_range(0..POOL.len())]);
    if depth == 0 || rng.gen_range(0..6) == 0 {
        return match rng.gen_range(0..4) {
            0 => Type::int(),
            1 => Type::bool(),
            _ => Type::Var(var(rng)),
        };
    }
    match rng.gen_range(0..5) {
        0 => Type::arrow(random_type(rng, depth - 1), random_type(rng, depth - 1)),
        1 => Type::prod(random_type(rng, depth - 1), random_type(rng, depth - 1)),
        2 => Type::list(random_type(rng, depth - 1)),
        3 => {
            let n = rng.gen_range(1..3);
            let binders: Vec<TyVar> = (0..n).map(|_| var(rng)).collect();
            Type::foralls(binders, random_type(rng, depth - 1))
        }
        _ => Type::st(random_type(rng, depth - 1), random_type(rng, depth - 1)),
    }
}

/// `t` with every binder renamed to a fresh `r0, r1, …`. The generator
/// never uses those names, so the renaming cannot capture.
fn rename_binders(t: &Type, next: &mut usize, scope: &mut Vec<(TyVar, TyVar)>) -> Type {
    match t {
        Type::Var(v) => Type::Var(
            scope
                .iter()
                .rev()
                .find(|(old, _)| old == v)
                .map_or(*v, |&(_, new)| new),
        ),
        Type::Con(c, args) => Type::Con(
            *c,
            args.iter()
                .map(|a| rename_binders(a, next, scope))
                .collect(),
        ),
        Type::Forall(v, body) => {
            let new = TyVar::named(format!("r{next}"));
            *next += 1;
            scope.push((*v, new));
            let body = rename_binders(body, next, scope);
            scope.pop();
            Type::Forall(new, Box::new(body))
        }
    }
}

/// `n` random types, each preceded by its binder-renamed α-variant.
fn corpus(seed: u64, n: usize) -> Vec<Type> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(2 * n);
    let mut quantified = 0;
    for _ in 0..n {
        let t = random_type(&mut rng, 4);
        let variant = rename_binders(&t, &mut 0, &mut Vec::new());
        if t.has_quantifier() {
            assert_ne!(variant, t, "the α-variant must be spelled differently");
            quantified += 1;
        }
        out.push(variant);
        out.push(t);
    }
    assert!(
        3 * quantified > n,
        "corpus too monomorphic: {quantified} of {n} quantified"
    );
    out
}

/// `ids[i] == ids[j]` exactly when `types[i]` and `types[j]` are
/// α-equivalent, over every pair.
fn assert_alpha_partition(types: &[Type], ids: &[SchemeId]) {
    assert_eq!(types.len(), ids.len());
    for i in 0..types.len() {
        for j in i..types.len() {
            assert_eq!(
                ids[i] == ids[j],
                types[i].alpha_eq(&types[j]),
                "{} vs {}: ids {:?} / {:?}",
                types[i],
                types[j],
                ids[i],
                ids[j]
            );
        }
    }
}

#[test]
fn ids_coincide_exactly_with_alpha_equivalence() {
    let types = corpus(0x5EED_BA4C, 400);
    let bank = SchemeBank::new();
    let ids: Vec<SchemeId> = types.iter().map(|t| bank.intern_type(t)).collect();
    assert_alpha_partition(&types, &ids);
}

#[test]
fn every_variant_is_alpha_equal_to_its_source() {
    // Guards the generator: a variant outside its source's class would
    // quietly turn the "same class, different spelling" half of the
    // partition property into one more "different class" case.
    let types = corpus(0x5EED_BA4C, 400);
    for pair in types.chunks(2) {
        assert!(pair[0].alpha_eq(&pair[1]), "{} vs {}", pair[0], pair[1]);
    }
}

#[test]
fn pretty_matches_the_tree_printer() {
    let types = corpus(0x9E77_1E55, 300);
    let bank = SchemeBank::new();
    for t in &types {
        let id = bank.intern_type(t);
        assert_eq!(&*bank.pretty(id), bank.to_type(id).to_string(), "for {t}");
    }
}

#[test]
fn to_type_round_trips() {
    let types = corpus(0x7001_7E57, 300);
    let bank = SchemeBank::new();
    for t in &types {
        let id = bank.intern_type(t);
        let back = bank.to_type(id);
        assert!(back.alpha_eq(t), "to_type of {t} gave {back}");
        assert_eq!(bank.intern_type(&back), id, "re-interning {back}");
    }
}

#[test]
fn export_and_intern_into_round_trip_through_stores() {
    // Exporting from a session store lands in the same class, and
    // layering the id back into a store zonks to the type again.
    let types = corpus(0x5707_E5E5, 300);
    let bank = SchemeBank::new();
    for t in &types {
        let id = bank.intern_type(t);
        let mut store = Store::new();
        let tid = store.intern_type(t);
        assert_eq!(bank.export(&mut store, tid), id, "export of {t}");
        let mut fresh = Store::new();
        let tid = bank.intern_into(&mut fresh, id);
        let z = fresh.zonk(tid);
        assert!(z.alpha_eq(t), "intern_into of {t} zonked to {z}");
    }
}

#[test]
fn racing_threads_get_identical_ids() {
    let types = corpus(0xC0_4C0B_5EED, 300);
    let bank = SchemeBank::new();
    const THREADS: usize = 4;
    // Every thread interns the whole corpus, each in a different order,
    // so the same α-class races into its home shard from all sides.
    let per_thread: Vec<Vec<SchemeId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let (types, bank) = (&types, &bank);
                scope.spawn(move || {
                    let n = types.len();
                    let mut ids = vec![None; n];
                    for i in 0..n {
                        let j = (i * 7 + k * 31) % n; // per-thread order
                        ids[j] = Some(bank.intern_type(&types[j]));
                    }
                    ids.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (k, ids) in per_thread.iter().enumerate().skip(1) {
        assert_eq!(&per_thread[0], ids, "thread {k} diverged");
    }
    assert_alpha_partition(&types, &per_thread[0]);
    for (t, &id) in types.iter().zip(&per_thread[0]) {
        assert_eq!(&*bank.pretty(id), bank.to_type(id).to_string(), "for {t}");
    }
}

#[test]
fn snapshot_round_trip_preserves_the_partition_and_renders() {
    // The load path of `--cache-dir` is only sound if absorbing an
    // exported snapshot into a fresh bank reproduces the α-class
    // partition exactly, with byte-identical renderings.
    let types = corpus(0xD15C_0CAF, 300);
    let bank = SchemeBank::new();
    let roots: Vec<SchemeId> = types.iter().map(|t| bank.intern_type(t)).collect();
    let renders: Vec<_> = roots.iter().map(|&r| bank.pretty(r)).collect();

    let (nodes, idxs) = bank.export_snapshot(&roots);
    let fresh = SchemeBank::new();
    let absorbed = fresh.absorb_snapshot(&nodes).expect("valid snapshot");
    let ids: Vec<SchemeId> = idxs
        .iter()
        .map(|idx| {
            let idx = idx.expect("corpus types are fully named");
            absorbed.closed(idx).expect("corpus roots are closed")
        })
        .collect();

    assert_alpha_partition(&types, &roots);
    assert_alpha_partition(&types, &ids);
    for (i, t) in types.iter().enumerate() {
        assert_eq!(
            &*renders[i],
            &*fresh.pretty(ids[i]),
            "render drifted for {t}"
        );
        assert!(fresh.to_type(ids[i]).alpha_eq(t), "round trip of {t}");
    }
}
