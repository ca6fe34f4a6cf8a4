//! What the two workloads share: operation accounting, seeded query and
//! write streams, the closed-loop stop rule, and the per-layer sample
//! store.

use crate::calib::{Calibration, INITIAL_BURSTS, REFERENCE_MS};
use crate::report::PER_LAYER;
use crate::rng::{Prng, Zipf};
use crate::setup::SetupTimes;
use crate::stats::Samples;
use imageproof_core::owner::image_signing_message;
use imageproof_crypto::{PublicKey, Signature};
use imageproof_obs::Stopwatch;
use imageproof_vision::{Corpus, ImageId};
use std::collections::{BTreeMap, VecDeque};

/// Verified queries sent after set-up and before the measured loop, so
/// first-touch page faults and cold caches are not timed.
pub const WARMUP_QUERIES: usize = 2;
/// Untraced queries a run needs so the p90 has ten samples beyond it.
pub const MIN_QUERIES: usize = 100;
/// Traced (and interleaved untraced) queries a traced run needs.
pub const MIN_TRACED: usize = 20;
/// Hard stop for the measured loop, far inside the per-run time limit.
pub const MAX_LOOP_SECONDS: f64 = 120.0;
/// In workloads with writes, operation `i` is a write when
/// `i % WRITE_EVERY == WRITE_EVERY - 1`.
pub const WRITE_EVERY: u64 = 5;
/// Inserted images kept live before each further write removes the
/// oldest one.
pub const LIVE_INSERTS: usize = 4;

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Started first thing in `main`: the first set-up counts from process
    /// start.
    pub process_start: Stopwatch,
}

/// Attempted and failed operations of one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failure; the first few are explained on standard error.
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED {what}: {why}");
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub setup: Phase,
    pub queries: Phase,
    pub writes: Phase,
    pub probes: Phase,
    /// Metric values by name (one catalogue, chosen by the trace flag).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Runs `build` once, timed from process start: `total_s` is the time
/// until the first query can be sent.
pub fn timed_setup<T>(
    cfg: &RunConfig,
    outcome: &mut Outcome,
    build: impl FnOnce(&mut SetupTimes) -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes::default();
    match build(&mut times) {
        Ok(system) => {
            times.total_s = cfg.process_start.elapsed_seconds() - times.excluded_s;
            outcome.setup.ok();
            Ok((system, times))
        }
        Err(e) => {
            outcome.setup.fail("setup", &e);
            Err(e)
        }
    }
}

/// Where query source images come from.
enum Sources {
    /// Distinct sources spread evenly over the id space: `offset + i ·
    /// stride (mod n)` with `stride` coprime to `n` near `0.618 n`, so
    /// every prefix of the sequence covers the catalogue evenly.
    Spread { n: u64, offset: u64, stride: u64 },
    /// Zipf-popular sources: rank `r` maps to a seeded permutation of the
    /// catalogue, so the hot images are not simply the lowest ids.
    Zipf { zipf: Zipf, by_rank: Vec<usize> },
}

/// A seeded stream of query feature sets.
pub struct QueryStream {
    sources: Sources,
    rng: Prng,
    n_features: usize,
    issued: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl QueryStream {
    pub fn spread(n_images: usize, n_features: usize, seed: u64) -> QueryStream {
        let n = n_images as u64;
        let mut rng = Prng::derive(seed, "query-sources");
        let offset = rng.below(n);
        let mut stride = ((n as f64 * 0.618) as u64).max(1);
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        QueryStream {
            sources: Sources::Spread { n, offset, stride },
            rng,
            n_features,
            issued: 0,
        }
    }

    pub fn zipf(n_images: usize, exponent: f64, n_features: usize, seed: u64) -> QueryStream {
        let mut rng = Prng::derive(seed, "query-sources");
        let by_rank = rng.permutation(n_images);
        QueryStream {
            sources: Sources::Zipf {
                zipf: Zipf::new(n_images, exponent),
                by_rank,
            },
            rng,
            n_features,
            issued: 0,
        }
    }

    /// The next query: fresh feature noise around the next source image.
    pub fn next(&mut self, corpus: &Corpus) -> Vec<Vec<f32>> {
        let source = match &self.sources {
            Sources::Spread { n, offset, stride } => (offset + (self.issued % n) * stride) % n,
            Sources::Zipf { zipf, by_rank } => by_rank[zipf.sample(&mut self.rng)] as u64,
        };
        self.issued += 1;
        let noise = self.rng.next_u64();
        corpus.query_from_image(source as ImageId, self.n_features, noise)
    }
}

/// One catalogue write.
pub enum Write {
    Insert {
        id: ImageId,
        data: Vec<u8>,
        features: Vec<Vec<f32>>,
    },
    Remove {
        id: ImageId,
    },
}

/// The seeded write schedule: insert new images (fresh photographs of
/// random catalogue scenes) until [`LIVE_INSERTS`] are live, then each
/// write removes the oldest inserted image, and so on alternately.
pub struct WriteSchedule {
    rng: Prng,
    live: VecDeque<ImageId>,
    next_id: ImageId,
    n_images: usize,
    features_per_image: usize,
}

impl WriteSchedule {
    pub fn new(n_images: usize, features_per_image: usize, seed: u64) -> WriteSchedule {
        WriteSchedule {
            rng: Prng::derive(seed, "writes"),
            live: VecDeque::new(),
            // Far above the generated ids (0..n_images).
            next_id: 1 << 40,
            n_images,
            features_per_image,
        }
    }

    pub fn next(&mut self, corpus: &Corpus) -> Write {
        if self.live.len() < LIVE_INSERTS {
            let id = self.next_id;
            self.next_id += 1;
            self.live.push_back(id);
            let source = self.rng.below(self.n_images as u64) as ImageId;
            let features =
                corpus.query_from_image(source, self.features_per_image, self.rng.next_u64());
            let data = (0..256).map(|_| self.rng.next_u64() as u8).collect();
            Write::Insert { id, data, features }
        } else {
            let id = self.live.pop_front().expect("live inserts exist");
            Write::Remove { id }
        }
    }
}

/// Whether the measured loop has run long enough.
pub fn loop_done(cfg: &RunConfig, elapsed: f64, untraced: usize, traced: usize) -> bool {
    if elapsed >= MAX_LOOP_SECONDS {
        return true;
    }
    let enough = if cfg.trace {
        untraced >= MIN_TRACED && traced >= MIN_TRACED
    } else {
        untraced >= MIN_QUERIES
    };
    elapsed >= cfg.seconds && enough
}

/// Per-layer samples, keyed by per-layer metric name.
#[derive(Default)]
pub struct Layers {
    series: BTreeMap<&'static str, Samples>,
}

impl Layers {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.series.get(name).map(Samples::median).unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> usize {
        self.series.get(name).map(Samples::len).unwrap_or(0)
    }

    /// Fills every per-layer metric (the median of its series; 0 for a
    /// layer this workload does not exercise) plus the tracing overhead,
    /// and prints each with its sample count and the `checks`
    /// (`label`, outside series, library span series) comparisons.
    pub fn fill_metrics(
        &self,
        untraced: &Samples,
        traced: &Samples,
        checks: &[(&str, &str, &str)],
        outcome: &mut Outcome,
    ) {
        let (plain, with_obs) = (untraced.median(), traced.median());
        outcome.note(format!(
            "query p50 untraced {plain:.3} ms (n={}), traced {with_obs:.3} ms (n={})",
            untraced.len(),
            traced.len()
        ));
        for &(name, unit) in PER_LAYER {
            let (value, n) = if name == "obs.overhead_ratio" {
                (with_obs / plain - 1.0, traced.len())
            } else {
                (self.median(name), self.count(name))
            };
            outcome.metrics.insert(name, value);
            outcome.note(format!("{name} = {value:.4} {unit} (n={n})"));
        }
        for &(label, outside, span) in checks {
            outcome.note(format!(
                "cross-check {label}: outside p50 {:.3} ms, library span p50 {:.3} ms (n={})",
                self.median(outside),
                self.median(span),
                self.count(span)
            ));
        }
    }
}

/// Records the per-layer set-up breakdown.
pub fn record_setup_layers(layers: &mut Layers, t: &SetupTimes) {
    layers.record("vision.corpus_s", t.corpus_s);
    layers.record("akm.train_s", t.train_s);
    layers.record("akm.encode_s", t.encode_s);
    layers.record("owner.ads_build_s", t.ads_build_s);
    if t.launch_s > 0.0 {
        layers.record("rpc.launch_s", t.launch_s);
    }
}

/// The end-to-end series of the untraced closed loop.
#[derive(Default)]
pub struct EndToEnd {
    pub query_ms: Samples,
    /// When each query in `query_ms` was halfway, on the calibration's
    /// clock.
    query_at: Vec<f64>,
    pub vo_kib: Samples,
    pub write_ms: Samples,
    pub completed: u64,
    pub cal: Calibration,
    /// The loop's start and end on the calibration's clock, and the burst
    /// time spent before it started.
    loop_from: f64,
    loop_to: f64,
    spent_before: f64,
}

impl EndToEnd {
    /// Runs the initial calibration bursts and starts the loop clock.
    pub fn start_loop(&mut self) {
        for _ in 0..INITIAL_BURSTS {
            self.cal.burst();
        }
        self.spent_before = self.cal.spent_s();
        self.loop_from = self.cal.now();
    }

    /// Seconds since [`EndToEnd::start_loop`], calibration bursts left out.
    pub fn loop_elapsed(&self) -> f64 {
        self.cal.now() - self.loop_from - (self.cal.spent_s() - self.spent_before)
    }

    /// Stops the loop clock.
    pub fn end_loop(&mut self) {
        self.loop_to = self.cal.now();
    }

    /// Records a verified query that has just completed.
    pub fn push_query(&mut self, ms: f64, vo_bytes: usize) {
        self.query_ms.push(ms);
        self.query_at.push(self.cal.now() - ms / 2e3);
        self.vo_kib.push(vo_bytes as f64 / 1024.0);
    }

    /// Fills the end-to-end metrics; an unreportable percentile (too few
    /// samples beyond it) is an error.
    pub fn fill_metrics(&self, setup: &SetupTimes, outcome: &mut Outcome) -> Result<(), String> {
        let pct = |s: &Samples, p: f64, what: &str| {
            s.reportable(p).ok_or_else(|| {
                format!(
                    "{what}: p{p} needs 10 samples beyond it, have {} samples",
                    s.len()
                )
            })
        };
        let mut scaled = Samples::default();
        for (&ms, &at) in self.query_ms.values().iter().zip(&self.query_at) {
            scaled.push(ms * self.cal.factor_at(at));
        }
        let n = scaled.len();
        let p50 = pct(&scaled, 50.0, "query latency")?;
        let p90 = pct(&scaled, 90.0, "query latency")?;
        let vo = pct(&self.vo_kib, 50.0, "VO size")?;
        let setup_s = setup.total_s * self.cal.factor();
        let ops = self.completed as f64 / self.cal.scaled_seconds(self.loop_from, self.loop_to);
        let loop_s = self.loop_to - self.loop_from - (self.cal.spent_s() - self.spent_before);
        outcome.note(format!(
            "calibration: median pass {:.4} ms (n={}), reference {REFERENCE_MS} ms, run scale {:.4}",
            self.cal.median_ms(),
            self.cal.len(),
            self.cal.factor()
        ));
        outcome.note(format!(
            "as measured: setup {:.4} s, query p50 {:.3} ms, p90 {:.3} ms (n={n}), {:.3} ops/s over {loop_s:.1} s",
            setup.total_s,
            self.query_ms.percentile(50.0).unwrap_or(0.0),
            self.query_ms.percentile(90.0).unwrap_or(0.0),
            self.completed as f64 / loop_s,
        ));
        outcome.note(format!("setup_s = {setup_s:.4} s"));
        outcome.note(format!("query_p50_ms = {p50:.3} ms (n={n})"));
        outcome.note(format!("query_p90_ms = {p90:.3} ms (n={n})"));
        outcome.note(format!("ops_per_s = {ops:.3} 1/s"));
        outcome.note(format!(
            "vo_kib_p50 = {vo:.1} KiB (n={})",
            self.vo_kib.len()
        ));
        if self.write_ms.len() > 0 {
            let wn = self.write_ms.len();
            for p in [50.0, 90.0] {
                match self.write_ms.reportable(p) {
                    Some(v) => outcome.note(format!("update_p{p}_ms = {v:.3} ms (n={wn})")),
                    None => outcome.note(format!(
                        "update_p{p}_ms not reported: fewer than 10 of {wn} samples beyond it"
                    )),
                }
            }
        }
        let metrics = &mut outcome.metrics;
        metrics.insert("setup_s", setup_s);
        metrics.insert("query_p50_ms", p50);
        metrics.insert("query_p90_ms", p90);
        metrics.insert("ops_per_s", ops);
        metrics.insert("vo_kib_p50", vo);
        metrics.insert("peak_rss_mib", peak_rss_mib()?);
        Ok(())
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// One returned image: id, payload and the owner's signature over them.
pub type SignedImage<'a> = (ImageId, &'a [u8], Signature);

/// Batch-verifies the owner's signatures over returned images, as the
/// client checks winners; returns milliseconds.
pub fn time_signatures(key: PublicKey, items: &[SignedImage<'_>]) -> Result<f64, String> {
    let messages: Vec<[u8; 32]> = items
        .iter()
        .map(|&(id, data, _)| image_signing_message(id, data))
        .collect();
    let batch: Vec<(&[u8], PublicKey, Signature)> = messages
        .iter()
        .zip(items)
        .map(|(m, &(_, _, s))| (m.as_slice(), key, s))
        .collect();
    let sw = Stopwatch::start();
    let ok = imageproof_crypto::verify_batch(&batch);
    let elapsed = ms(sw);
    if ok {
        Ok(elapsed)
    } else {
        Err("outside signature batch rejected honest signatures".into())
    }
}

/// Milliseconds on a stopwatch.
pub fn ms(sw: Stopwatch) -> f64 {
    sw.elapsed_seconds() * 1e3
}

/// A 64-bit FNV-1a fingerprint, for comparing large VO encodings without
/// keeping them.
pub fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_sources_are_distinct_for_a_full_cycle() {
        for n in [7usize, 2000, 10_000] {
            let QueryStream {
                sources:
                    Sources::Spread {
                        n: m,
                        offset,
                        stride,
                    },
                ..
            } = QueryStream::spread(n, 1, 5)
            else {
                unreachable!()
            };
            let mut seen: Vec<u64> = (0..m).map(|i| (offset + i * stride) % m).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n);
        }
    }

    #[test]
    fn write_schedule_inserts_then_alternates() {
        let corpus = imageproof_vision::Corpus::generate(&imageproof_vision::CorpusConfig {
            n_images: 10,
            ..imageproof_vision::CorpusConfig::small(imageproof_vision::DescriptorKind::Sift)
        });
        let mut s = WriteSchedule::new(10, 5, 1);
        let kinds: Vec<char> = (0..8)
            .map(|_| match s.next(&corpus) {
                Write::Insert { features, data, .. } => {
                    assert_eq!((features.len(), data.len()), (5, 256));
                    'i'
                }
                Write::Remove { .. } => 'r',
            })
            .collect();
        assert_eq!(kinds, ['i', 'i', 'i', 'i', 'r', 'i', 'r', 'i']);
    }

    #[test]
    fn loop_stops_on_time_and_samples() {
        let cfg = RunConfig {
            seed: 0,
            seconds: 5.0,
            trace: false,
            process_start: Stopwatch::start(),
        };
        assert!(!loop_done(&cfg, 6.0, MIN_QUERIES - 1, 0));
        assert!(!loop_done(&cfg, 4.0, MIN_QUERIES, 0));
        assert!(loop_done(&cfg, 5.0, MIN_QUERIES, 0));
        assert!(loop_done(&cfg, MAX_LOOP_SECONDS, 0, 0));
        let traced = RunConfig { trace: true, ..cfg };
        assert!(!loop_done(&traced, 6.0, MIN_TRACED, MIN_TRACED - 1));
        assert!(loop_done(&traced, 6.0, MIN_TRACED, MIN_TRACED));
    }
}
