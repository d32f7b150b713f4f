//! The host-speed gauge: a fixed CPU kernel of the benchmark's own, timed
//! on the client between requests.
//!
//! A shared host runs the same code at different speeds for minutes at a
//! time (a fixed loop has read 69 ms in one phase and 151 ms in another),
//! so raw round trips of one build differ by up to half between runs. The
//! client and the server are pinned to one CPU (`run.py`), and the kernel
//! runs there while the server waits for its next request. Each timed
//! value is scaled by [`REF_MS`] ÷ the median of the latest kernel times:
//! a round trip in milliseconds at the reference speed. A change to the
//! server leaves the kernel alone, so it moves the scaled value as it
//! moves the raw one; the raw values are kept in the report.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed, in ms: about its median on
/// a 2-vCPU Xeon VM in its faster phase.
pub const REF_MS: f64 = 0.23;

/// Kernel times the factor is the median of.
const RECENT: usize = 5;

/// Take a new kernel time when the last is older than this.
const EVERY: Duration = Duration::from_millis(5);

/// 16 KiB of ASCII program text, scanned like a request line.
fn text() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut t = Vec::new();
        let mut i = 0u64;
        while t.len() < 16 * 1024 {
            t.extend_from_slice(format!("let b{i} = plus (fst b{}) 1;;\n", i / 3).as_bytes());
            i += 1;
        }
        t.truncate(16 * 1024);
        t
    })
}

/// The kernel: byte scanning, string building and an ordered map, the
/// kinds of work the server's decode, encode and inference do.
fn kernel() {
    let text = black_box(text());
    let mut n = 0usize;
    for _ in 0..12 {
        n += std::str::from_utf8(black_box(text)).map_or(0, str::len);
    }
    let mut out = String::with_capacity(64);
    for &b in &text[..8192] {
        match b {
            b'\n' => out.push_str("\\n"),
            b => out.push(char::from(b)),
        }
    }
    let mut m = BTreeMap::new();
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..1200u64 {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        m.insert(z % 4096, i);
    }
    for k in 0..2400u64 {
        n += m.get(&k).map_or(0, |v| *v as usize);
    }
    black_box((n, out));
}

/// The latest kernel times.
pub struct Gauge {
    recent: VecDeque<f64>,
    last: Instant,
    /// Every kernel time taken, in ms.
    pub samples: Vec<f64>,
}

impl Gauge {
    /// A gauge holding a full set of fresh kernel times.
    pub fn new() -> Gauge {
        let mut g = Gauge {
            recent: VecDeque::new(),
            last: Instant::now(),
            samples: Vec::new(),
        };
        g.renew();
        g
    }

    /// Replace every recent time with a fresh one.
    pub fn renew(&mut self) {
        for _ in 0..RECENT {
            self.sample();
        }
    }

    /// Time the kernel once; returns the seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        kernel();
        let s = t0.elapsed().as_secs_f64();
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(s * 1e3);
        self.samples.push(s * 1e3);
        self.last = Instant::now();
        s
    }

    /// Time the kernel when the latest time is stale; returns the seconds
    /// spent.
    pub fn refresh(&mut self) -> f64 {
        if self.last.elapsed() < EVERY {
            0.0
        } else {
            self.sample()
        }
    }

    /// The reference kernel time ÷ the median of the latest: multiply a
    /// time by it, divide a rate by it.
    pub fn factor(&self) -> f64 {
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        REF_MS / v[v.len() / 2]
    }
}
