//! The `elaborate` differential mode: the third engine-agreement axis.
//!
//! PR 2 held the two engines to the same *verdicts*, PR 4 to the same
//! *schemes*; this module holds them to the same *evidence*. For every
//! case that infers a type, both elaboration pipelines — the
//! paper-literal derivation translation and the union-find engine's
//! native evidence — must produce a System F term that
//!
//! * **typechecks** in `freezeml_systemf` (the machine-checked
//!   soundness oracle) at a type α-equivalent to the inferred scheme
//!   (Theorem 3);
//! * **evaluates** to the same ground value as the other pipeline's
//!   image (the translation is semantics-preserving, so the two images
//!   must be observationally equal on the evaluable subset);
//! * **renders identically** after canonical α-renaming
//!   ([`freezeml_translate::canonicalize_fterm`]), which is what the
//!   `expect-f:` golden directive pins.
//!
//! The per-engine obligation itself lives in
//! [`freezeml_translate::elaborate::check_sound`] (shared with the
//! service's `elaborate` endpoint); this module adds the case plumbing
//! and the cross-engine comparison.
//!
//! Pure-mode cases are excluded by design: pure FreezeML generalises
//! over applications, and its images live in *full* System F, which the
//! CBV implementation here (value restriction on `Λ`, paper Appendix
//! B.1) deliberately rejects.

use crate::format::{Case, Mode};
use freezeml_core::{KindEnv, Options, RefinedEnv, TypeEnv};
use freezeml_service::EngineSel;
use freezeml_translate::elaborate::{images_agree, try_check_sound, CheckedElab};
use freezeml_translate::ElabEngine;

/// The outcome of the elaborate obligation for one case.
pub struct ElabOutcome {
    /// The canonical rendering of the (oracle-side) reduced image — the
    /// text `expect-f:` goldens pin.
    pub rendered: String,
    /// The inferred (grounded) type, for reports.
    pub ty: String,
}

/// Run the elaborate obligation for a term under the given engine
/// selection. Returns `Ok(None)` when the obligation does not apply
/// (pure mode, ill-typed term, or an environment the System F oracle
/// cannot host); `Err` carries a human-readable explanation of a failed
/// obligation — each one a soundness bug.
///
/// # Errors
///
/// A rendered description of the failed obligation.
pub fn check_elaboration(
    env: &TypeEnv,
    src: &str,
    mode: Mode,
    opts: &Options,
    engine: EngineSel,
) -> Result<Option<ElabOutcome>, String> {
    if mode == Mode::Pure {
        return Ok(None); // full-System-F images; see the module docs
    }
    let Ok(term) = freezeml_core::parse_term(src) else {
        return Ok(None);
    };
    // The F oracle typechecks under an empty ∆; an environment with free
    // type variables (possible through `env:` extras) cannot be hosted.
    if freezeml_core::kinding::check_env(&KindEnv::new(), &RefinedEnv::new(), env).is_err() {
        return Ok(None);
    }
    let selected: &[ElabEngine] = match engine {
        EngineSel::Core => &[ElabEngine::Core],
        EngineSel::Uf => &[ElabEngine::Uf],
        EngineSel::Both => &[ElabEngine::Core, ElabEngine::Uf],
    };
    let mut checked: Vec<CheckedElab> = Vec::with_capacity(selected.len());
    for e in selected {
        // Inference failure (`Ok(None)`) is not this axis's business —
        // the verdict differential owns it. Inference runs once per
        // engine: `try_check_sound` reads the verdict off the
        // elaboration attempt itself.
        match try_check_sound(*e, env, &term, opts)? {
            Some(c) => checked.push(c),
            None => return Ok(None),
        }
    }
    if let [core, uf] = checked.as_slice() {
        images_agree(core, uf)?;
    }
    let first = checked.into_iter().next().expect("at least one engine");
    Ok(Some(ElabOutcome {
        ty: first.image.ty.to_string(),
        rendered: first.rendered,
    }))
}

/// Convenience wrapper running the obligation for a parsed [`Case`]
/// (Figure 2 prelude plus its `env:` extras, its mode's options).
///
/// # Errors
///
/// As [`check_elaboration`].
pub fn check_case(case: &Case, engine: EngineSel) -> Result<Option<ElabOutcome>, String> {
    let env = crate::runner::case_env(case)?;
    let opts = crate::runner::case_options(case);
    check_elaboration(&env, &case.program, case.mode, &opts, engine)
}
