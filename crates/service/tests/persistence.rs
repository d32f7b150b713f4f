//! The persisted-warm ≡ from-scratch property: a service warmed from an
//! on-disk snapshot produces exactly the verdicts a cold check of the
//! same text produces — through any number of save / restart / load
//! cycles, interleaved with edits, under every engine selection
//! (`Both` makes each comparison simultaneously a cross-engine
//! differential run). Plus the robustness half of the contract: a
//! cache file that is truncated, bit-flipped, or written by a different
//! configuration must never panic, never wedge the service, and —
//! above all — never change a single verdict; the only acceptable
//! degradation is a cold start.

use freezeml_core::Options;
use freezeml_service::{
    persist, CheckReport, EngineSel, GenProgram, PersistConfig, Service, ServiceConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

fn cfg(engine: EngineSel) -> ServiceConfig {
    ServiceConfig {
        opts: Options::default(),
        engine,
        workers: 2,
    }
}

/// A per-test scratch directory (removed on drop).
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("freezeml-persistence-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }

    fn cache(&self) -> PersistConfig {
        PersistConfig::new(&self.0)
    }

    fn file(&self) -> PathBuf {
        self.cache().file()
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Render a report to its comparable essence: binding names plus
/// canonical verdicts (scheme text and defaulted names / error class /
/// blocker).
fn essence(r: &CheckReport) -> Vec<(String, String)> {
    r.bindings
        .iter()
        .map(|b| {
            let v = match &b.outcome {
                freezeml_service::Outcome::Typed {
                    scheme, defaulted, ..
                } => format!("ok {scheme} [{}]", defaulted.join(", ")),
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

/// The essence of a cold, cache-less check of `text`.
fn scratch(engine: EngineSel, text: &str) -> Vec<(String, String)> {
    essence(Service::new(cfg(engine)).open("doc", text).unwrap())
}

/// "Restart the process": a service over a brand-new hub, warmed only
/// by whatever the cache directory holds.
fn restarted(engine: EngineSel, dir: &TmpDir) -> (Service, persist::LoadOutcome) {
    let mut svc = Service::new(cfg(engine));
    let out = svc.attach_cache(dir.cache());
    (svc, out)
}

/// The Figure 1 rows usable as top-level bindings (standard mode, no
/// extra environment), then `defaulting.rs`'s value-restriction
/// programs: residuals named past a named dependency binder, past an
/// unnamed binder, and alone.
fn figure1_program() -> String {
    let bodies: Vec<&str> = freezeml_corpus::EXAMPLES
        .iter()
        .filter(|e| e.mode == freezeml_corpus::Mode::Standard && e.extra_env.is_empty())
        .map(|e| e.src)
        .collect();
    assert!(bodies.len() >= 40, "most Figure 1 rows qualify");
    let mut text = String::from("#use prelude\n");
    for (i, body) in bodies.iter().enumerate() {
        text.push_str(&format!("let fig{i} = {body};;\n"));
    }
    text.push_str("let tail_id = $(fun x -> x);;\n");
    text.push_str("let tail_use = poly ~tail_id;;\n");
    text.push_str("let (myid : forall a. a -> a) = fun x -> x;;\n");
    text.push_str("let p = pair ~myid (single id);;\n");
    text.push_str("let q = pair $(fun x -> x) (single id);;\n");
    text.push_str("let xs = single id;;\n");
    text
}

#[test]
fn persisted_warm_equals_scratch_across_engines_and_restarts() {
    // The corpus mixes well-typed and ill-typed rows, so error
    // outcomes round-trip through the snapshot too.
    let fig1 = figure1_program();
    for engine in [EngineSel::Core, EngineSel::Uf, EngineSel::Both] {
        let dir = TmpDir::new(&format!("diff-{engine:?}"));
        let cold = scratch(engine, &fig1);
        assert!(cold.iter().any(|(_, v)| v.ends_with("[a]")), "defaulting");

        // Cycle 1: check cold with the cache attached, snapshot.
        let (mut svc, out) = restarted(engine, &dir);
        assert!(!out.loaded, "no snapshot yet");
        assert_eq!(essence(svc.open("doc", &fig1).unwrap()), cold);
        svc.save_cache().unwrap().unwrap();
        drop(svc);

        // Cycle 2: restart, verify the warm verdicts (all restored, then
        // all but the one an edit adds), edit (a generated program opens
        // alongside), snapshot again.
        let (mut svc, out) = restarted(engine, &dir);
        assert!(out.loaded, "snapshot must load: {:?}", out.warning);
        let warm = svc.open("doc", &fig1).unwrap();
        assert_eq!(
            warm.rechecked, 0,
            "fully persisted program rechecks nothing"
        );
        assert_eq!(essence(warm), cold);
        let appended = format!("{fig1}let extra = 1;;\n");
        let warm = svc.edit("doc", &appended).unwrap();
        assert_eq!(warm.rechecked, 1, "only `extra` is new");
        assert_eq!(essence(warm), scratch(engine, &appended));
        let gen = GenProgram::generate(36, 0xD1FF);
        assert_eq!(
            essence(svc.open("gen", &gen.text()).unwrap()),
            scratch(engine, &gen.text())
        );
        svc.save_cache().unwrap().unwrap();
        drop(svc);

        // Cycle 3: restart again; replay an edit trace over the
        // restored cache, comparing every step to from-scratch.
        let (mut svc, out) = restarted(engine, &dir);
        assert!(out.loaded);
        svc.open("gen", &gen.text()).unwrap();
        for (round, i) in [(1u64, 7usize), (2, 18), (3, 35)] {
            let edited = gen.with_edit(i, round * 1000 + 17).text();
            assert_eq!(
                essence(svc.edit("gen", &edited).unwrap()),
                scratch(engine, &edited),
                "edit trace diverged (engine {:?}, round {round})",
                engine
            );
            assert_eq!(
                essence(svc.edit("gen", &gen.text()).unwrap()),
                scratch(engine, &gen.text()),
                "restore diverged (engine {:?}, round {round})",
                engine
            );
        }
    }
}

#[test]
fn a_persisted_warm_start_schedules_no_work_at_all() {
    let gen = GenProgram::generate(64, 0x5EED);
    let text = gen.text();
    let dir = TmpDir::new("wavefree");
    let (mut svc, _) = restarted(EngineSel::Uf, &dir);
    svc.open("doc", &text).unwrap();
    svc.save_cache().unwrap().unwrap();
    drop(svc);

    let (mut svc, out) = restarted(EngineSel::Uf, &dir);
    assert!(out.loaded);
    assert!(out.nodes > 0, "the scheme DAG travelled");
    let shared = Arc::clone(svc.shared());
    let loaded_renders = shared.bank().renders();
    assert!(loaded_renders > 0, "the load renders the restored schemes");
    // (chunks cached, parse hits, parse misses)
    let parses = || {
        let fe = shared.frontend();
        (fe.chunk_count(), fe.parse_hits(), fe.parse_misses())
    };
    assert_eq!(parses(), (0, 0, 0), "a load parses nothing");
    // The reopen analyses the document, and every binding of it is a
    // restored verdict.
    let report = svc.open("doc", &text).unwrap();
    assert_eq!(report.rechecked, 0);
    assert_eq!(report.waves, 0, "no scheduling on a persisted warm start");
    assert_eq!(report.reused, 64);
    assert_eq!(parses(), (64, 0, 64), "each chunk parsed once");
    assert_eq!(
        shared.bank().renders(),
        loaded_renders,
        "the open renders nothing beyond what the load rendered"
    );

    // And the first edit after a restart patches that analysis and
    // lands on the warm cache: it looks up only the edited chunk, and
    // rechecks only the dirty cone.
    let edited = gen.with_edit(32, 99).text();
    let report = svc.edit("doc", &edited).unwrap();
    assert_eq!(parses(), (65, 0, 65), "one more chunk looked up");
    assert!(report.rechecked > 0, "the edit dirties its cone");
    assert!(
        report.rechecked < 64,
        "a restored cache keeps the clean cone warm (rechecked {})",
        report.rechecked
    );
}

#[test]
fn corrupt_caches_never_panic_and_never_change_verdicts() {
    let text = figure1_program();
    let cold = scratch(EngineSel::Uf, &text);
    let dir = TmpDir::new("fuzz");
    let (mut svc, _) = restarted(EngineSel::Uf, &dir);
    svc.open("doc", &text).unwrap();
    svc.save_cache().unwrap().unwrap();
    drop(svc);
    let pristine = std::fs::read(dir.file()).unwrap();

    // Every truncation boundary class: empty, mid-header, exact header,
    // mid-payload, one byte short.
    let cuts = [0, 1, 17, 39, 40, pristine.len() / 2, pristine.len() - 1];
    for &cut in &cuts {
        std::fs::write(dir.file(), &pristine[..cut]).unwrap();
        let (mut svc, out) = restarted(EngineSel::Uf, &dir);
        assert!(!out.loaded, "truncation at {cut} must not load");
        assert!(out.warning.is_some(), "truncation at {cut} warns");
        assert_eq!(essence(svc.open("doc", &text).unwrap()), cold);
    }

    // Random bit flips (deterministic SplitMix64 stream): whatever the
    // byte, the load either rejects the file or — if the flip landed in
    // the ignored tail of a section it never decodes — restores only
    // checksum-validated state. Either way the verdicts must be the
    // cold ones.
    let mut state = 0xF1A5_C0DE_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for round in 0..48u32 {
        let mut bytes = pristine.clone();
        let at = (next() as usize) % bytes.len();
        let bit = 1u8 << (next() % 8);
        bytes[at] ^= bit;
        std::fs::write(dir.file(), &bytes).unwrap();
        let (mut svc, out) = restarted(EngineSel::Uf, &dir);
        if at >= 40 {
            // A payload flip is always caught by the checksum.
            assert!(!out.loaded, "round {round}: payload flip at {at} loaded");
        }
        assert_eq!(
            essence(svc.open("doc", &text).unwrap()),
            cold,
            "round {round}: flip at byte {at} changed a verdict"
        );
    }
}

#[test]
fn a_snapshot_from_another_configuration_is_a_cold_start() {
    let text = "#use prelude\nlet r = ref [];;\n";
    let dir = TmpDir::new("epoch");
    let (mut svc, _) = restarted(EngineSel::Uf, &dir);
    svc.open("doc", text).unwrap();
    svc.save_cache().unwrap().unwrap();
    drop(svc);

    // Same directory, different option fingerprint (`--pure` toggles
    // the value restriction — under which `r`'s verdict differs, which
    // is exactly why the epoch must fence it off).
    let mut pure = cfg(EngineSel::Uf);
    pure.opts.value_restriction = false;
    let mut svc = Service::new(pure);
    let out = svc.attach_cache(dir.cache());
    assert!(!out.loaded, "foreign epoch must not load");
    let warning = out.warning.expect("a structured warning names the cause");
    assert!(warning.contains("epoch"), "unhelpful warning: {warning}");
    let report = svc.open("doc", text).unwrap();
    assert_eq!(report.rechecked, 1, "cold start under the new options");
}

#[test]
fn the_size_cap_evicts_oldest_generations_first_and_reloads_clean() {
    let dir = TmpDir::new("cap");
    let mut pcfg = dir.cache();
    pcfg.max_bytes = 4096;
    let (mut svc, _) = restarted(EngineSel::Uf, &dir);
    svc.attach_cache(pcfg.clone());
    // Generations advance save to save; later programs are younger.
    let old = GenProgram::generate(40, 1).text();
    svc.open("old", &old).unwrap();
    svc.save_cache().unwrap().unwrap();
    let young = GenProgram::generate(40, 2).text();
    svc.open("young", &young).unwrap();
    let saved = svc.save_cache().unwrap().unwrap();
    assert!(
        saved.evicted > 0,
        "4 KiB cannot hold two 40-binding programs"
    );
    assert!(
        saved.bytes <= 4096,
        "snapshot respects the cap: {}",
        saved.bytes
    );
    // The hub counter is cumulative across saves (the first snapshot
    // may already have evicted); it must account for at least this one.
    assert!(
        svc.shared().metrics().evictions.get() >= saved.evicted,
        "surfaced in service stats"
    );
    drop(svc);

    // The shrunken snapshot still loads, still agrees with scratch,
    // and kept the young program warmer than the old one.
    let (mut svc, out) = restarted(EngineSel::Uf, &dir);
    assert!(out.loaded, "an evicted snapshot is still a valid snapshot");
    let young_report = svc.open("young", &young).unwrap();
    let young_rechecked = young_report.rechecked;
    assert_eq!(essence(young_report), scratch(EngineSel::Uf, &young));
    let old_report = svc.open("old", &old).unwrap();
    assert!(
        young_rechecked <= old_report.rechecked,
        "eviction favours the young generation ({} vs {})",
        young_rechecked,
        old_report.rechecked
    );
    assert_eq!(essence(old_report), scratch(EngineSel::Uf, &old));
}

#[test]
fn one_snapshot_serves_every_engine_selection() {
    // Engine selection lives in the cache keys, not the epoch: a
    // snapshot written under `both` warms `core` and `uf` sessions.
    let text = figure1_program();
    let dir = TmpDir::new("engines");
    let (mut svc, _) = restarted(EngineSel::Both, &dir);
    svc.open("doc", &text).unwrap();
    svc.save_cache().unwrap().unwrap();
    drop(svc);

    for engine in [EngineSel::Core, EngineSel::Uf, EngineSel::Both] {
        let (mut svc, out) = restarted(engine, &dir);
        assert!(out.loaded);
        let report = svc.open("doc", &text).unwrap();
        assert_eq!(essence(report), scratch(engine, &text));
        if engine == EngineSel::Both {
            assert_eq!(report.rechecked, 0, "the writing engine restarts warm");
        }
    }
}

#[test]
fn checkpoints_survive_an_unclean_shutdown() {
    // The serve path's crash story: periodic checkpoints mean a killed
    // process loses at most one interval. Simulate by *not* calling
    // save_cache — only the checkpointer writes.
    let text = GenProgram::generate(24, 9).text();
    let dir = TmpDir::new("crash");
    let shared = Arc::new(freezeml_service::Shared::new());
    let epoch = persist::epoch(&Options::default());
    let cp = persist::Checkpointer::checkpoint_every(
        Arc::clone(&shared),
        epoch,
        dir.cache(),
        std::time::Duration::from_millis(25),
    );
    let mut svc = Service::with_shared(cfg(EngineSel::Uf), Arc::clone(&shared));
    svc.open("doc", &text).unwrap();
    // Wait for at least one periodic checkpoint to land.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !dir.file().exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpointer never wrote"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(cp); // the "kill": stop without a final save
    drop(svc);

    let (mut svc, out) = restarted(EngineSel::Uf, &dir);
    assert!(out.loaded, "periodic checkpoint survives the crash");
    let report = svc.open("doc", &text).unwrap();
    assert_eq!(report.rechecked, 0);
    assert_eq!(essence(report), scratch(EngineSel::Uf, &text));
}
