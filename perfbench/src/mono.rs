//! The `inv-mixed` workload: one in-process `ServiceProvider` and one
//! verifying `Client` over catalogue B; Zipf-popular short queries with
//! one write in every five operations.

use crate::setup::{owner_for, Catalogue, CatalogueSpec, CATALOGUE_B, SCHEME};
use crate::stats::Samples;
use crate::workload::{
    loop_done, ms, record_setup_layers, time_signatures, timed_setup, EndToEnd, Layers, Outcome,
    QueryStream, RunConfig, Write, WriteSchedule, WARMUP_QUERIES, WRITE_EVERY,
};
use imageproof_akm::SparseBovw;
use imageproof_core::{
    adversary, BovwVoVariant, Client, Concurrency, IndexVariant, InvVoVariant, Owner,
    QueryResponse, QueryVo, ServiceProvider, SpStats,
};
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_invindex::{inv_search, verify_topk, BoundsMode};
use imageproof_mrkd::{mrkd_search, verify_bovw};
use imageproof_obs::{QueryProfile, Stopwatch};

/// Catalogue B: long posting lists, so the inverted index does most of
/// the work.
const CATALOGUE: CatalogueSpec = CATALOGUE_B;
const N_FEATURES: usize = 10;
const K: usize = 50;
/// Zipf exponent of query-source popularity.
const ZIPF_EXPONENT: f64 = 1.0;

/// The served system: owner, SP and client over one catalogue.
struct Monolith {
    cat: Catalogue,
    owner: Owner,
    /// `None` only while a write has the database back at the owner.
    sp: Option<ServiceProvider>,
    client: Client,
}

/// One verified query with its parts timed.
struct Answer {
    total_ms: f64,
    sp_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    verify_ms: f64,
    vo_bytes: usize,
    /// The response as the client received it (VO decoded from the wire).
    response: QueryResponse,
    stats: SpStats,
    sp_profile: QueryProfile,
    client_profile: QueryProfile,
}

impl Monolith {
    fn sp(&self) -> &ServiceProvider {
        self.sp.as_ref().expect("the SP serves between writes")
    }

    /// Submits `features`, moves the VO through its wire encoding, and has
    /// the client verify the result.
    fn answer(&self, features: &[Vec<f32>], k: usize) -> Result<Answer, String> {
        let total = Stopwatch::start();
        let sw = Stopwatch::start();
        let (response, stats, sp_profile) =
            self.sp().query_profiled(features, k, Concurrency::serial());
        let sp_ms = ms(sw);
        let sw = Stopwatch::start();
        let bytes = response.vo.to_wire();
        let encode_ms = ms(sw);
        let sw = Stopwatch::start();
        let vo = QueryVo::from_wire(&bytes).map_err(|e| format!("VO decode: {e}"))?;
        let decode_ms = ms(sw);
        let response = QueryResponse {
            results: response.results,
            vo,
        };
        let sw = Stopwatch::start();
        let (verified, client_profile) = self
            .client
            .verify_profiled(features, k, &response)
            .map_err(|e| format!("client rejected an honest response: {e}"))?;
        let verify_ms = ms(sw);
        let total_ms = ms(total);
        if verified.topk.len() != k {
            return Err(format!(
                "verified {} results, asked for {k}",
                verified.topk.len()
            ));
        }
        Ok(Answer {
            total_ms,
            sp_ms,
            encode_ms,
            decode_ms,
            verify_ms,
            vo_bytes: bytes.len(),
            response,
            stats,
            sp_profile,
            client_profile,
        })
    }

    /// Distinct clusters a write re-commits (computed before it runs).
    fn clusters_touched(&self, write: &Write) -> usize {
        let db = self.sp().database();
        match write {
            Write::Insert { features, .. } => {
                SparseBovw::encode(&db.codebook, features.iter().map(Vec::as_slice)).nnz()
            }
            Write::Remove { id } => db
                .encodings
                .iter()
                .find(|(i, _)| i == id)
                .map_or(0, |(_, b)| b.nnz()),
        }
    }

    /// One write: the SP hands its database back, the owner updates and
    /// re-signs it, the SP serves it again and the client takes the new
    /// published parameters. Returns milliseconds.
    fn write(&mut self, write: Write) -> Result<f64, String> {
        let sw = Stopwatch::start();
        let mut db = self.sp.take().expect("the SP serves").into_database();
        let result = match write {
            Write::Insert { id, data, features } => {
                self.owner.insert_image(&mut db, id, data, &features)
            }
            Write::Remove { id } => self.owner.remove_image(&mut db, id),
        };
        self.sp = Some(ServiceProvider::new(db));
        let published = result.map_err(|e| format!("update rejected: {e}"))?;
        self.client = Client::new(published);
        Ok(ms(sw))
    }

    /// Re-runs, from outside, each layer call the SP and the client made
    /// for `ans`, timing each one.
    fn decompose(
        &self,
        features: &[Vec<f32>],
        k: usize,
        ans: &Answer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let db = self.sp().database();
        let mode = BoundsMode::CuckooFiltered;

        let sw = Stopwatch::start();
        let assigned: Vec<(u32, f32)> = features
            .iter()
            .map(|f| db.codebook.assign_with_threshold(f))
            .collect();
        let assign_ms = ms(sw);
        let thresholds: Vec<f32> = assigned.iter().map(|&(_, t)| t).collect();
        let sw = Stopwatch::start();
        let search = mrkd_search(&db.mrkd, features, &thresholds);
        let search_ms = ms(sw);
        let query_bovw = SparseBovw::from_counts(assigned.iter().map(|&(c, _)| (c, 1)));
        let IndexVariant::Plain(index) = &db.inv else {
            return Err("ImageProof serves a plain inverted index".into());
        };
        let sw = Stopwatch::start();
        let inv = inv_search(index, &query_bovw, k, mode);
        let inv_search_ms = ms(sw);
        drop((search, inv));

        let (BovwVoVariant::Shared(bovw_vo), InvVoVariant::Plain(inv_vo)) =
            (&ans.response.vo.bovw, &ans.response.vo.inv)
        else {
            return Err("ImageProof VOs are shared BoVW + plain inverted".into());
        };
        let sw = Stopwatch::start();
        let verified = verify_bovw(bovw_vo, features, SCHEME.candidate_mode())
            .map_err(|e| format!("outside verify_bovw: {e}"))?;
        let bovw_verify_ms = ms(sw);
        let verified_bovw = SparseBovw::from_counts(verified.assignments.iter().map(|&c| (c, 1)));
        let claimed: Vec<u64> = ans.response.results.iter().map(|r| r.id).collect();
        let sw = Stopwatch::start();
        verify_topk(
            inv_vo,
            &verified_bovw,
            &verified.inv_digests,
            &claimed,
            k,
            mode,
        )
        .map_err(|e| format!("outside verify_topk: {e}"))?;
        let inv_verify_ms = ms(sw);
        let winners: Vec<_> = ans
            .response
            .results
            .iter()
            .zip(&ans.response.vo.signatures)
            .map(|(r, &s)| (r.id, r.data.as_slice(), s))
            .collect();
        let sig_ms = time_signatures(self.owner.public_key(), &winners)?;

        layers.record("akm.assign_ms", assign_ms);
        layers.record("mrkd.search_ms", search_ms);
        layers.record("invindex.search_ms", inv_search_ms);
        layers.record("mrkd.verify_ms", bovw_verify_ms);
        layers.record("invindex.verify_ms", inv_verify_ms);
        layers.record("crypto.sig_verify_ms", sig_ms);
        layers.record("crypto.vo_encode_ms", ans.encode_ms);
        layers.record("crypto.vo_decode_ms", ans.decode_ms);
        layers.record("sp.query_ms", ans.sp_ms);
        layers.record(
            "sp.self_ms",
            ans.sp_ms - assign_ms - search_ms - inv_search_ms,
        );
        layers.record("client.verify_ms", ans.verify_ms);
        layers.record(
            "client.self_ms",
            ans.verify_ms - bovw_verify_ms - inv_verify_ms - sig_ms,
        );
        layers.record(
            "query.unaccounted_ms",
            ans.total_ms - ans.sp_ms - ans.encode_ms - ans.decode_ms - ans.verify_ms,
        );
        let s = &ans.stats;
        layers.record("crypto.hashes_computed", s.hashes_computed as f64);
        layers.record("crypto.hash_cache_hit_ratio", s.cache_hit_ratio());
        layers.record("mrkd.shared_ratio", s.shared_ratio);
        layers.record("invindex.popped_ratio", s.popped_ratio());
        layers.record("invindex.blocks_skipped", s.blocks_skipped as f64);
        layers.record("invindex.blocks_scanned", s.blocks_scanned as f64);
        layers.record(
            "mrkd.vo_kib",
            ans.response.vo.bovw.wire_size() as f64 / 1024.0,
        );
        layers.record(
            "invindex.vo_kib",
            ans.response.vo.inv.wire_size() as f64 / 1024.0,
        );

        // The library's own phase spans, for the cross-check.
        layers.record("outside.sp.bovw_ms", assign_ms + search_ms);
        layers.record("span.sp.bovw_ms", ans.sp_profile.seconds("bovw") * 1e3);
        layers.record("span.sp.inv_ms", ans.sp_profile.seconds("inv") * 1e3);
        layers.record(
            "span.client.bovw_ms",
            ans.client_profile.seconds("bovw") * 1e3,
        );
        layers.record(
            "span.client.inv_ms",
            ans.client_profile.seconds("inv") * 1e3,
        );
        layers.record(
            "span.client.signatures_ms",
            ans.client_profile.seconds("signatures") * 1e3,
        );
        Ok(())
    }
}

/// Runs the `inv-mixed` workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    imageproof_obs::set_enabled(false);
    let (mut mono, setup_times) = timed_setup(cfg, &mut outcome, |times| {
        let cat = Catalogue::build(CATALOGUE, cfg.seed, times);
        let owner = owner_for(cfg.seed);
        let (db, published) = cat.build_monolith(&owner, times);
        Ok(Monolith {
            cat,
            owner,
            sp: Some(ServiceProvider::new(db)),
            client: Client::new(published),
        })
    })?;

    let n_images = CATALOGUE.n_images;
    let mut stream = QueryStream::zipf(n_images, ZIPF_EXPONENT, N_FEATURES, cfg.seed);
    let mut schedule = WriteSchedule::new(n_images, CATALOGUE.features_per_image, cfg.seed);
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let mut traced = Samples::default();

    for _ in 0..WARMUP_QUERIES {
        let features = stream.next(&mono.cat.corpus);
        match mono.answer(&features, K) {
            Ok(_) => outcome.queries.ok(),
            Err(e) => outcome.queries.fail("warm-up query", e),
        }
    }

    e2e.start_loop();
    let mut op: u64 = 0;
    let mut queries: u64 = 0;
    while !loop_done(cfg, e2e.loop_elapsed(), e2e.query_ms.len(), traced.len()) {
        e2e.cal.tick();
        if op % WRITE_EVERY == WRITE_EVERY - 1 {
            let write = schedule.next(&mono.cat.corpus);
            let touched = mono.clusters_touched(&write);
            let name = match write {
                Write::Insert { .. } => "update.insert_ms",
                Write::Remove { .. } => "update.remove_ms",
            };
            imageproof_obs::set_enabled(cfg.trace);
            match mono.write(write) {
                Ok(write_ms) => {
                    outcome.writes.ok();
                    e2e.write_ms.push(write_ms);
                    e2e.completed += 1;
                    layers.record(name, write_ms);
                    layers.record("update.clusters_touched", touched as f64);
                }
                Err(e) => outcome.writes.fail("write", e),
            }
        } else {
            let features = stream.next(&mono.cat.corpus);
            // A traced run interleaves untraced and traced queries, so the
            // tracing overhead is measured under the same conditions.
            let traced_op = cfg.trace && queries % 2 == 1;
            imageproof_obs::set_enabled(traced_op);
            match mono.answer(&features, K) {
                Ok(ans) => {
                    e2e.completed += 1;
                    if traced_op {
                        traced.push(ans.total_ms);
                        match mono.decompose(&features, K, &ans, &mut layers) {
                            Ok(()) => outcome.queries.ok(),
                            Err(e) => outcome.queries.fail("traced query", e),
                        }
                    } else {
                        outcome.queries.ok();
                        e2e.push_query(ans.total_ms, ans.vo_bytes);
                    }
                }
                Err(e) => outcome.queries.fail("query", e),
            }
            queries += 1;
        }
        op += 1;
    }
    e2e.end_loop();
    imageproof_obs::set_enabled(false);

    tamper_probes(&mono, &mut stream, K, &mut outcome);

    if cfg.trace {
        record_setup_layers(&mut layers, &setup_times);
        let space = mono.sp().database().space_usage().total();
        layers.record("invindex.space_kib", space as f64 / 1024.0);
        layers.fill_metrics(&e2e.query_ms, &traced, CROSS_CHECKS, &mut outcome);
    } else {
        e2e.fill_metrics(&setup_times, &mut outcome)?;
    }
    Ok(outcome)
}

/// `(label, outside series, span series)` pairs printed by a traced run.
const CROSS_CHECKS: &[(&str, &str, &str)] = &[
    ("sp bovw phase", "outside.sp.bovw_ms", "span.sp.bovw_ms"),
    ("sp inv phase", "invindex.search_ms", "span.sp.inv_ms"),
    ("client bovw phase", "mrkd.verify_ms", "span.client.bovw_ms"),
    (
        "client inv phase",
        "invindex.verify_ms",
        "span.client.inv_ms",
    ),
    (
        "client signatures phase",
        "crypto.sig_verify_ms",
        "span.client.signatures_ms",
    ),
];

/// Three forgeries the client must reject, on one fresh query (after an
/// honest answer to that query verified).
fn tamper_probes(mono: &Monolith, stream: &mut QueryStream, k: usize, outcome: &mut Outcome) {
    let features = stream.next(&mono.cat.corpus);
    let (honest, _) = mono.sp().query(&features, k);
    if let Err(e) = mono.client.verify(&features, k, &honest) {
        outcome.probes.fail("honest probe", e);
        return;
    }
    outcome.probes.ok();
    type Tamper = fn(&mut QueryResponse) -> bool;
    let tampers: [(&str, Tamper); 3] = [
        ("tamper_posting", adversary::tamper_posting),
        ("tamper_bovw_centroid", adversary::tamper_bovw_centroid),
        ("forge_image_signature", |r| {
            adversary::forge_image_signature(r);
            true
        }),
    ];
    for (name, tamper) in tampers {
        let mut forged = honest.clone();
        if !tamper(&mut forged) {
            outcome
                .probes
                .fail(name, "forgery not applicable to this response");
        } else if mono.client.verify(&features, k, &forged).is_ok() {
            outcome
                .probes
                .fail(name, "client ACCEPTED a forged response");
        } else {
            outcome.probes.ok();
        }
    }
}
