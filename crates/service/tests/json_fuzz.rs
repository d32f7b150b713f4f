//! Property/fuzz coverage for the protocol's hand-rolled JSON: every
//! value the serialiser can emit must parse back to an equal value
//! (including strings full of escapes, surrogate-pair astral characters,
//! and control characters), and no input — well-formed, mutated, or
//! adversarial — may panic the parser. Malformed input must error.

use freezeml_service::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cases(default: usize) -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Characters a protocol string can plausibly carry, weighted toward the
/// troublemakers: quotes, backslashes, control characters, the highest
/// BMP scalar, and astral-plane characters (serialised raw, decoded via
/// surrogate pairs when escaped).
fn random_char<R: Rng>(rng: &mut R) -> char {
    match rng.gen_range(0..10) {
        0 => '"',
        1 => '\\',
        2 => ['\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}'][rng.gen_range(0..7)],
        3 => ['\u{7f}', '\u{fffd}', '\u{ffff}', '\u{2028}', '\u{2029}'][rng.gen_range(0..5)],
        4 => ['😀', '𝕏', '\u{10000}', '\u{10ffff}'][rng.gen_range(0..4)],
        5 => '/',
        _ => rng.gen_range(b' '..b'\x7f') as char,
    }
}

fn random_string<R: Rng>(rng: &mut R) -> String {
    (0..rng.gen_range(0..12))
        .map(|_| random_char(rng))
        .collect()
}

fn random_json<R: Rng>(rng: &mut R, depth: usize) -> Json {
    let leaf = depth == 0 || rng.gen_range(0..10) < 4;
    if leaf {
        return match rng.gen_range(0..4) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => {
                // Any finite f64 round-trips through Rust's shortest
                // display; mix integers, fractions, and extremes.
                let n = match rng.gen_range(0..4) {
                    0 => rng.gen_range(-1_000_000..1_000_000) as f64,
                    1 => rng.gen_range(-1_000_000..1_000_000) as f64 / 1024.0,
                    2 => f64::MAX * (rng.gen_range(1..1000) as f64 / 1000.0),
                    _ => rng.gen_range(-9_007_199_254_740_991i64..9_007_199_254_740_991) as f64,
                };
                Json::Num(n)
            }
            _ => Json::Str(random_string(rng)),
        };
    }
    if rng.gen_bool(0.5) {
        Json::Arr(
            (0..rng.gen_range(0..5))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        )
    } else {
        Json::Obj(
            (0..rng.gen_range(0..5))
                .map(|i| {
                    (
                        format!("{}{}", random_string(rng), i),
                        random_json(rng, depth - 1),
                    )
                })
                .collect(),
        )
    }
}

#[test]
fn generated_values_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x0015_09e5);
    for case in 0..cases(2000) {
        let v = random_json(&mut rng, 3);
        let text = v.to_string();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: `{text}` does not re-parse: {e}"));
        assert_eq!(back, v, "case {case}: `{text}`");
        // Serialisation is a normal form: printing the re-parse is
        // byte-identical.
        assert_eq!(back.to_string(), text, "case {case}");
    }
}

/// Long strings, 64 KiB to 1 MiB: the decoder and the encoder both copy
/// unescaped runs as whole slices, and these strings put an escape or a
/// multi-byte character on each side of a run, over and over.
#[test]
fn long_strings_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x10_0009);
    for len in [64 << 10, 256 << 10, 1 << 20] {
        let mut s = String::with_capacity(len + 4);
        while s.len() < len {
            s.push(random_char(&mut rng));
        }
        let v = Json::Arr(vec![Json::Str(s.clone()), Json::obj([("k", Json::Str(s))])]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{len} bytes: {e}"));
        assert_eq!(back, v, "{len} bytes");
        assert_eq!(back.to_string(), text, "{len} bytes");
    }
}

/// Escaped spellings decode to the same value as the serialiser's own
/// spelling — including surrogate pairs for astral characters.
#[test]
fn escape_spellings_decode_and_round_trip() {
    for (escaped, want) in [
        ("\"\\u0041\"", "A"),
        ("\"\\u00e9\"", "\u{e9}"),
        ("\"\u{e9}\"", "\u{e9}"),
        ("\"\u{1f600}\"", "\u{1f600}"),
        ("\"\\ud83d\\ude00\"", "\u{1f600}"),
        ("\"\\uD83D\\uDE00\"", "\u{1f600}"),
        ("\"\\ud800\\udc00\"", "\u{10000}"),
        ("\"\\udbff\\udfff\"", "\u{10ffff}"),
        ("\"\\uffff\"", "\u{ffff}"),
        ("\"\\u0000\"", "\u{0}"),
        ("\"\\u001f\"", "\u{1f}"),
        ("\"\\b\\f\\n\\r\\t\\/\\\\\\\"\"", "\u{8}\u{c}\n\r\t/\\\""),
    ] {
        let v = Json::parse(escaped).unwrap_or_else(|e| panic!("`{escaped}`: {e}"));
        assert_eq!(v, Json::Str(want.to_string()), "`{escaped}`");
        let reprinted = v.to_string();
        assert_eq!(
            Json::parse(&reprinted).unwrap(),
            v,
            "`{escaped}` → `{reprinted}`"
        );
    }
}

#[test]
fn malformed_input_errors_without_panicking() {
    for src in [
        // Lone and mispaired surrogates, in every spelling.
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800\ud800""#,
        r#""\ud800A""#,
        r#""\ud800x""#,
        r#""\ud800\""#,
        r#""\udfff""#,
        // Truncated escapes.
        r#""\u""#,
        r#""\u00""#,
        r#""\u00g0""#,
        r#""\"#,
        r#""\q""#,
        // Raw control characters.
        "\"\u{0}\"",
        "\"\u{1f}\"",
        // Numbers that overflow to ±∞ or never were numbers.
        "1e999",
        "-1e999",
        "1e+",
        "--1",
        "1.2.3",
        "+1",
        // Structural garbage.
        "",
        " ",
        "[",
        "[1,",
        "[1,]",
        "{\"a\"}",
        "{\"a\":1,}",
        "{,}",
        "nul",
        "truefalse",
        "\"unterminated",
        "1 2",
    ] {
        assert!(Json::parse(src).is_err(), "`{src}` should be rejected");
    }
}

#[test]
fn non_finite_numbers_serialise_as_null() {
    // The parser can no longer produce these; hand-built values must
    // still print valid JSON.
    for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(Json::Num(n).to_string(), "null");
    }
}

/// Mutation fuzz: take well-formed documents, flip characters at random,
/// and require the parser to either succeed or error — never panic, and
/// never accept something its own serialisation cannot round-trip.
#[test]
fn mutation_fuzz_never_panics() {
    let seeds = [
        r#"{"cmd":"open","doc":"m","text":"let x = 1;;\n-- \"quoted\" ;;"}"#,
        r#"[1,2.5,-3,true,false,null,"A😀","\\\"\n"]"#,
        r#"{"a":{"b":[{"c":"𐀀"},[],{}]},"d":-0.125e2}"#,
    ];
    let pool: Vec<char> = "\\\"u{}[]:,d08ceE+-.19 \u{1f}\u{fffd}😀".chars().collect();
    let mut rng = StdRng::seed_from_u64(0xF022);
    for case in 0..cases(4000) {
        let seed = seeds[rng.gen_range(0..seeds.len())];
        let mut chars: Vec<char> = seed.chars().collect();
        for _ in 0..rng.gen_range(1..6) {
            let i = rng.gen_range(0..chars.len());
            match rng.gen_range(0..3) {
                0 => chars[i] = pool[rng.gen_range(0..pool.len())],
                1 => {
                    chars.remove(i);
                }
                _ => chars.insert(i, pool[rng.gen_range(0..pool.len())]),
            }
        }
        let text: String = chars.into_iter().collect();
        if let Ok(v) = Json::parse(&text) {
            let printed = v.to_string();
            let back = Json::parse(&printed).unwrap_or_else(|e| {
                panic!(
                    "case {case}: accepted `{text}` but its serialisation `{printed}` fails: {e}"
                )
            });
            assert_eq!(back, v, "case {case}: `{text}`");
        }
    }
}

/// Byte-level fuzz of the serving loop itself (PR 6 satellites): random
/// lines — valid requests, JSON-shaped garbage, raw binary including
/// invalid UTF-8, and lines far beyond the request cap — must each get
/// exactly one `{"ok":…}` response, with the session intact throughout.
#[test]
fn the_serving_loop_answers_every_line_whatever_the_bytes() {
    use freezeml_service::{serve_with, ServeOptions, Service, ServiceConfig};
    use std::io::Cursor;

    let opts = ServeOptions {
        max_request_bytes: 256,
        ..ServeOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0x5_E47E_FA22);
    for case in 0..cases(60) {
        let mut script: Vec<u8> = Vec::new();
        let mut expected = 0usize;
        let lines = rng.gen_range(1..20);
        for _ in 0..lines {
            match rng.gen_range(0..8) {
                0 => {
                    script.extend_from_slice(br#"{"cmd":"open","doc":"m","text":"let x = 1;;"}"#);
                    expected += 1;
                }
                1 => {
                    script.extend_from_slice(br#"{"cmd":"type-of","doc":"m","name":"x"}"#);
                    expected += 1;
                }
                6 => {
                    // Introspection commands, bare (valid) — mid-fuzz
                    // the stats snapshot itself must stay one line of
                    // well-formed JSON.
                    script.extend_from_slice(if rng.gen_bool(0.5) {
                        br#"{"cmd":"stats"}"#.as_slice()
                    } else {
                        br#"{"cmd":"metrics"}"#.as_slice()
                    });
                    expected += 1;
                }
                7 => {
                    // Introspection commands with junk fields: answered
                    // with a structured error, line for line.
                    let cmd = if rng.gen_bool(0.5) {
                        "stats"
                    } else {
                        "metrics"
                    };
                    let junk = random_json(&mut rng, 1).to_string();
                    let line = format!(r#"{{"cmd":"{cmd}","junk":{junk}}}"#);
                    if line.len() > 256 {
                        continue;
                    }
                    script.extend_from_slice(line.as_bytes());
                    expected += 1;
                }
                2 => {
                    // JSON-shaped garbage.
                    let s = random_json(&mut rng, 2).to_string();
                    if s.trim().is_empty() {
                        continue;
                    }
                    script.extend_from_slice(s.as_bytes());
                    expected += 1;
                }
                3 => {
                    // Raw binary, newline-free, possibly invalid UTF-8.
                    let n = rng.gen_range(1..64);
                    let bytes: Vec<u8> = (0..n)
                        .map(|_| {
                            let b: u8 = rng.gen_range(0..256u16) as u8;
                            if b == b'\n' {
                                0xFF
                            } else {
                                b
                            }
                        })
                        .collect();
                    if bytes.iter().all(|b| (*b as char).is_whitespace()) {
                        continue;
                    }
                    script.extend_from_slice(&bytes);
                    expected += 1;
                }
                4 => {
                    // Far beyond the cap.
                    script.extend_from_slice(&vec![b'x'; rng.gen_range(300..5000)]);
                    expected += 1;
                }
                _ => {} // blank line: no response
            }
            script.push(b'\n');
        }
        let mut svc = Service::new(ServiceConfig::default());
        let mut out = Vec::new();
        serve_with(&mut svc, Cursor::new(&script), &mut out, &opts)
            .expect("transport over buffers cannot fail");
        let responses: Vec<&str> = std::str::from_utf8(&out)
            .expect("responses are always valid UTF-8")
            .lines()
            .collect();
        assert_eq!(responses.len(), expected, "case {case}");
        for r in responses {
            let v = Json::parse(r).unwrap_or_else(|e| panic!("case {case}: `{r}`: {e}"));
            assert!(
                v.get("ok").is_some() || matches!(v, Json::Arr(_)),
                "case {case}: response `{r}` has no verdict"
            );
        }
    }
}
