//! Workloads: seeded request streams, and the verdict oracle that checks
//! every answer independently of the server.

use freezeml_service::{GenProgram, Json, Request};
use std::sync::Arc;

/// Bindings in the short-lived programs every workload opens and closes.
pub const SMALL: usize = 120;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One session editing a 2000-binding document.
    EditLarge,
    /// One session opening and closing distinct 120-binding programs.
    OpenStream,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "edit-large" => Some(Workload::EditLarge),
            "open-stream" => Some(Workload::OpenStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EditLarge => "edit-large",
            Workload::OpenStream => "open-stream",
        }
    }

    /// Bindings of the session's resident document, if it keeps one.
    pub fn main_bindings(self) -> Option<usize> {
        match self {
            Workload::EditLarge => Some(2000),
            Workload::OpenStream => None,
        }
    }

    /// Server flags after the binary name.
    pub fn server_args(self) -> Vec<&'static str> {
        vec!["--engine", "uf", "serve", "--socket", "127.0.0.1:0"]
    }

    /// The iteration after which the server's peak RSS is read: well
    /// inside what a slow run completes.
    pub fn rss_iterations(self) -> u64 {
        match self {
            Workload::EditLarge => 60,
            Workload::OpenStream => 1500,
        }
    }

    /// Iterations of the traced stream. On `edit-large` the stream is
    /// long enough for the side programs to push the frontend past its
    /// 8192-chunk cap once, as every timed run does.
    pub fn traced_iterations(self) -> u64 {
        match self {
            Workload::EditLarge => 80,
            Workload::OpenStream => 120,
        }
    }

    /// Equal time windows a timed run is cut into; each latency and rate
    /// is the median of its per-window values, so a burst of host steal
    /// that covers a minority of the windows does not move it. A window
    /// holds about 100 samples of each kind on `edit-large` and over 1000
    /// on `open-stream`.
    pub fn windows(self) -> usize {
        match self {
            Workload::EditLarge => 3,
            Workload::OpenStream => 15,
        }
    }
}

/// The four types the generator's binding shapes land in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ty {
    Int,
    Id,
    Pair,
    ListInt,
}

impl Ty {
    pub fn render(self) -> &'static str {
        match self {
            Ty::Int => "Int",
            Ty::Id => "forall a. a -> a",
            Ty::Pair => "Int * Bool",
            Ty::ListInt => "List Int",
        }
    }
}

fn is_num(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

fn is_ref(s: &str) -> bool {
    s.strip_prefix('b').is_some_and(is_num)
}

/// The type of a generated binding body, read off its shape: the
/// generator's shapes (`load::GenProgram`) and its edit bodies. `None`
/// for a body of any other shape.
pub fn shape_type(body: &str) -> Option<Ty> {
    let words: Vec<&str> = body.split(' ').collect();
    match words.as_slice() {
        [n] if is_num(n) => Some(Ty::Int),
        ["plus", "(fst", j, "1"] if j.strip_suffix(')').is_some_and(is_ref) => Some(Ty::Int),
        ["plus", j, n] if is_ref(j) && is_num(n) => Some(Ty::Int),
        ["head", l] if is_ref(l) => Some(Ty::Int),
        ["auto", j] if j.strip_prefix('~').is_some_and(is_ref) => Some(Ty::Id),
        ["poly", j] if j.strip_prefix('~').is_some_and(is_ref) => Some(Ty::Pair),
        ["single", x] if is_ref(x) || is_num(x) => Some(Ty::ListInt),
        [j, "::", l] if is_ref(j) && is_ref(l) => Some(Ty::ListInt),
        [n, "false)"]
            if n.strip_prefix('(')
                .and_then(|n| n.strip_suffix(','))
                .is_some_and(is_num) =>
        {
            Some(Ty::Pair)
        }
        ["$(fun", x, "->", y] if y.strip_suffix(')') == Some(*x) => Some(Ty::Id),
        _ => None,
    }
}

/// Expected verdicts for every binding of a generated program text.
pub fn oracle(text: &str) -> Result<Vec<Ty>, String> {
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let body = line
            .strip_prefix(&format!("let b{} = ", out.len()))
            .and_then(|l| l.strip_suffix(";;"))
            .ok_or_else(|| format!("unexpected program line `{line}`"))?;
        out.push(shape_type(body).ok_or_else(|| format!("no oracle for body `{body}`"))?);
    }
    Ok(out)
}

/// A request kind, as latencies are reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Kind {
    Open,
    Edit,
    Check,
    TypeOf,
    Elaborate,
    Close,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Open,
        Kind::Edit,
        Kind::Check,
        Kind::TypeOf,
        Kind::Elaborate,
        Kind::Close,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Edit => "edit",
            Kind::Check => "check",
            Kind::TypeOf => "typeof",
            Kind::Elaborate => "elaborate",
            Kind::Close => "close",
        }
    }
}

/// What one request must answer.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A full report whose verdicts are these types, in order.
    Report(Arc<Vec<Ty>>),
    /// `type-of` finding the binding at this type.
    Found(Ty),
    /// `elaborate` serving an oracle-checked image at this type.
    Elab(Ty),
    /// `close` of an open document.
    Closed,
}

/// One request line: a single request or a batch.
#[derive(Clone, Debug)]
pub struct Line {
    /// The kinds this line's round trip is reported as. A batch line is
    /// timed as a whole, for each kind it carries except `type-of`.
    pub timed_as: Vec<Kind>,
    /// Each request's kind and document, in line order.
    pub reqs: Vec<(Kind, String)>,
    pub text: String,
    pub expect: Vec<Expect>,
    pub batch: bool,
}

fn doc_of(req: &Request) -> String {
    match req {
        Request::Open { doc, .. }
        | Request::Edit { doc, .. }
        | Request::Check { doc }
        | Request::TypeOf { doc, .. }
        | Request::Elaborate { doc, .. }
        | Request::Close { doc } => doc.clone(),
        Request::Stats | Request::Metrics | Request::Shutdown => String::new(),
    }
}

fn single(kind: Kind, req: Request, expect: Expect) -> Line {
    Line {
        timed_as: vec![kind],
        reqs: vec![(kind, doc_of(&req))],
        text: req.to_json().to_string(),
        expect: vec![expect],
        batch: false,
    }
}

fn batch(items: Vec<(Kind, Request, Expect)>) -> Line {
    Line {
        timed_as: items
            .iter()
            .map(|i| i.0)
            .filter(|k| *k != Kind::TypeOf)
            .collect(),
        reqs: items.iter().map(|i| (i.0, doc_of(&i.1))).collect(),
        text: Json::Arr(items.iter().map(|i| i.1.to_json()).collect()).to_string(),
        expect: items.into_iter().map(|i| i.2).collect(),
        batch: true,
    }
}

/// SplitMix64 finaliser: the per-iteration choices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The session's seeded request stream. `scale` divides every document
/// size (the scaling probe runs the same stream at a quarter size).
pub struct Stream {
    w: Workload,
    seed: u64,
    small: usize,
    main: Option<(GenProgram, Arc<Vec<Ty>>)>,
}

/// The resident document's name.
const MAIN_DOC: &str = "main";

/// The generator seed of the resident document, the same for every run
/// seed, which picks the edits and the side programs. How the server's
/// heap settles around the document decides whether glibc hands memory
/// back to the kernel and faults it in again between requests; for about
/// one document in twelve it does, and the `open` tail doubles. A fixed
/// document keeps every run on one heap layout.
const MAIN_SEED: u64 = 0;

impl Stream {
    pub fn new(w: Workload, seed: u64, scale: usize) -> Result<Stream, String> {
        let main = match w.main_bindings() {
            Some(n) => {
                let g = GenProgram::generate(n / scale, MAIN_SEED);
                let o = Arc::new(oracle(&g.text())?);
                Some((g, o))
            }
            None => None,
        };
        Ok(Stream {
            w,
            seed,
            small: SMALL / scale,
            main,
        })
    }

    /// The initial opens, answered before the timed phase.
    pub fn setup(&self) -> Vec<Line> {
        match &self.main {
            Some((g, o)) => vec![single(
                Kind::Open,
                Request::Open {
                    doc: MAIN_DOC.into(),
                    text: g.text(),
                },
                Expect::Report(Arc::clone(o)),
            )],
            None => Vec::new(),
        }
    }

    /// Iteration `j`'s request lines.
    pub fn iteration(&self, j: u64) -> Result<Vec<Line>, String> {
        let r = mix(self.seed ^ mix(j));
        // Edit salts are fresh per iteration, so no edit ever repeats a
        // body the server has seen.
        let salt = 1 + 2 * j;
        let small_seed = match self.w {
            Workload::OpenStream => self.seed.wrapping_add(j),
            Workload::EditLarge => self.seed.wrapping_add(1_000_000).wrapping_add(j),
        };
        let small = GenProgram::generate(self.small, small_seed);
        let small_doc = format!("s.{j}");
        let small_text = small.text();
        let small_oracle = Arc::new(oracle(&small_text)?);
        let open_small = single(
            Kind::Open,
            Request::Open {
                doc: small_doc.clone(),
                text: small_text,
            },
            Expect::Report(Arc::clone(&small_oracle)),
        );
        let close_small = single(
            Kind::Close,
            Request::Close {
                doc: small_doc.clone(),
            },
            Expect::Closed,
        );
        let (doc, g) = match &self.main {
            Some((g, _)) => (MAIN_DOC.to_string(), g),
            None => (small_doc, &small),
        };
        let n = g.len();
        let i = (r % n as u64) as usize;
        let edited = g.edited_text(i, salt);
        let ty = Arc::new(oracle(&edited)?);
        let name = |k: usize| g.name(k % n);
        let edit = single(
            Kind::Edit,
            Request::Edit {
                doc: doc.clone(),
                text: edited,
            },
            Expect::Report(Arc::clone(&ty)),
        );
        let type_of = |k: usize| {
            (
                Kind::TypeOf,
                Request::TypeOf {
                    doc: doc.clone(),
                    name: name(k),
                },
                Expect::Found(ty[k % n]),
            )
        };
        let check = (
            Kind::Check,
            Request::Check { doc: doc.clone() },
            Expect::Report(Arc::clone(&ty)),
        );
        let elaborate = |k: usize| {
            (
                Kind::Elaborate,
                Request::Elaborate {
                    doc: doc.clone(),
                    name: name(k),
                },
                Expect::Elab(ty[k % n]),
            )
        };
        let one = |(k, req, e): (Kind, Request, Expect)| single(k, req, e);
        Ok(match self.w {
            Workload::EditLarge => vec![
                edit,
                one(type_of(i)),
                one(check),
                batch(vec![elaborate(i)]),
                open_small,
                close_small,
            ],
            Workload::OpenStream => {
                let k = (mix(r) % n as u64) as usize;
                let probe = single(
                    Kind::TypeOf,
                    Request::TypeOf {
                        doc: doc.clone(),
                        name: name(k),
                    },
                    Expect::Found(small_oracle[k]),
                );
                vec![
                    open_small,
                    probe,
                    edit,
                    one(check),
                    batch(vec![elaborate(i)]),
                    close_small,
                ]
            }
        })
    }
}

/// What a verified answer contributed to the client's tallies.
#[derive(Clone, Copy, Default, Debug)]
pub struct Seen {
    pub bindings: u64,
    pub rechecked: u64,
}

fn field<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
    v.get(k)
        .ok_or_else(|| format!("answer lacks `{k}`: {}", short(v)))
}

fn short(v: &Json) -> String {
    let s = v.to_string();
    if s.len() > 300 {
        format!(
            "{}…",
            &s[..s.char_indices().nth(300).map_or(s.len(), |c| c.0)]
        )
    } else {
        s
    }
}

fn num(v: &Json, k: &str) -> Result<u64, String> {
    field(v, k)?
        .as_num()
        .map(|n| n as u64)
        .ok_or_else(|| format!("`{k}` is not a number"))
}

/// Does a served type string denote `want`? Exact canonical match, else
/// α-equivalence.
pub fn same_type(got: &str, want: &str) -> bool {
    got == want
        || matches!(
            (freezeml_core::parse_type(got), freezeml_core::parse_type(want)),
            (Ok(g), Ok(w)) if g.alpha_eq(&w)
        )
}

/// Check one answer against its expectation.
pub fn verify(expect: &Expect, v: &Json) -> Result<Seen, String> {
    if field(v, "ok")? != &Json::Bool(true) {
        return Err(format!("error answer: {}", short(v)));
    }
    let str_field = |k: &str| {
        field(v, k)?
            .as_str()
            .ok_or_else(|| format!("`{k}` is not a string"))
    };
    match expect {
        Expect::Report(want) => {
            let Json::Arr(bindings) = field(v, "bindings")? else {
                return Err("`bindings` is not an array".into());
            };
            if bindings.len() != want.len() {
                return Err(format!(
                    "{} verdicts, expected {}",
                    bindings.len(),
                    want.len()
                ));
            }
            for (i, (b, ty)) in bindings.iter().zip(want.iter()).enumerate() {
                let name = b.get("name").and_then(Json::as_str);
                let status = b.get("status").and_then(Json::as_str);
                let got = b.get("type").and_then(Json::as_str).unwrap_or("");
                if name != Some(&format!("b{i}"))
                    || status != Some("ok")
                    || !same_type(got, ty.render())
                {
                    return Err(format!(
                        "verdict #{i}: {}, expected {}",
                        short(b),
                        ty.render()
                    ));
                }
            }
            let (rechecked, reused, blocked) =
                (num(v, "rechecked")?, num(v, "reused")?, num(v, "blocked")?);
            if rechecked + reused + blocked != want.len() as u64 {
                return Err(format!(
                    "rechecked + reused + blocked != bindings: {rechecked} + {reused} + {blocked}"
                ));
            }
            Ok(Seen {
                bindings: want.len() as u64,
                rechecked,
            })
        }
        Expect::Found(ty) => {
            if field(v, "found")? != &Json::Bool(true)
                || !same_type(str_field("result")?, ty.render())
            {
                return Err(format!(
                    "type-of answered {}, expected {}",
                    short(v),
                    ty.render()
                ));
            }
            Ok(Seen::default())
        }
        Expect::Elab(ty) => {
            if field(v, "found")? != &Json::Bool(true)
                || field(v, "checked")? != &Json::Bool(true)
                || !same_type(str_field("type")?, ty.render())
            {
                return Err(format!(
                    "elaborate answered {}, expected {}",
                    short(v),
                    ty.render()
                ));
            }
            Ok(Seen::default())
        }
        Expect::Closed => {
            if field(v, "closed")? != &Json::Bool(true) {
                return Err(format!("close answered {}", short(v)));
            }
            Ok(Seen::default())
        }
    }
}

/// Check a whole line's answer: one value, or an array for a batch.
/// Returns the tallies and one message per failed request.
pub fn verify_line(line: &Line, v: &Json) -> (Seen, Vec<String>) {
    let mut seen = Seen::default();
    let mut errors = Vec::new();
    let mut take = |e: &Expect, v: &Json| match verify(e, v) {
        Ok(s) => {
            seen.bindings += s.bindings;
            seen.rechecked += s.rechecked;
        }
        Err(msg) => errors.push(msg),
    };
    match (line.batch, v) {
        (true, Json::Arr(items)) if items.len() == line.expect.len() => {
            for (e, item) in line.expect.iter().zip(items) {
                take(e, item);
            }
        }
        (false, v) if !matches!(v, Json::Arr(_)) => take(&line.expect[0], v),
        _ => errors.extend(
            line.expect
                .iter()
                .map(|_| format!("answer has the wrong shape: {}", short(v))),
        ),
    }
    (seen, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_covers_every_generated_and_edited_body() {
        for seed in 0..20 {
            let g = GenProgram::generate(300, seed);
            assert_eq!(oracle(&g.text()).unwrap().len(), 300);
            for i in [0, 17, 299] {
                oracle(&g.edited_text(i, seed * 7 + 1)).unwrap();
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for w in [Workload::EditLarge, Workload::OpenStream] {
            let a = Stream::new(w, 5, 4).unwrap().iteration(3).unwrap();
            let b = Stream::new(w, 5, 4).unwrap().iteration(3).unwrap();
            let texts = |l: &[Line]| l.iter().map(|l| l.text.clone()).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b));
        }
    }
}
