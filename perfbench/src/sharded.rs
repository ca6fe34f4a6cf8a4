//! The `shard-rpc` workload: catalogue A split across two `ShardServer`s
//! on loopback behind one `RpcCoordinator`; the client checks every
//! answer with `verify_sharded` against the owner-signed manifest.

use crate::setup::{owner_for, Catalogue, SetupTimes, CATALOGUE_A, SCHEME};
use crate::stats::Samples;
use crate::workload::{
    fingerprint, loop_done, ms, record_setup_layers, time_signatures, timed_setup, EndToEnd,
    Layers, Outcome, QueryStream, RunConfig, SignedImage, WARMUP_QUERIES,
};
use imageproof_akm::SparseBovw;
use imageproof_core::rpc::{
    CoordinatorConfig, RpcCoordinator, RunningServer, ShardEndpoint, ShardServer,
};
use imageproof_core::{
    shard_of, BovwVoVariant, Client, Concurrency, IndexVariant, InvVoVariant, Owner,
    ServiceProvider, ShardManifest, ShardVo, ShardedResponse, ShardedSp, ShardedVo,
};
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_invindex::{inv_search, verify_topk, BoundsMode};
use imageproof_mrkd::{mrkd_search, verify_bovw};
use imageproof_obs::{QueryProfile, Stopwatch};
use imageproof_vision::ImageId;

const SHARDS: usize = 2;
const N_FEATURES: usize = 100;
const K: usize = 10;
/// Coordinator answers compared byte for byte with the in-process
/// `ShardedSp` in an untraced run (a traced run compares every traced
/// query).
const EQUALITY_SAMPLES: usize = 3;

/// The served deployment. Field order is drop order: the coordinator
/// disconnects before the servers stop.
struct Deployment {
    owner: Owner,
    manifest: ShardManifest,
    client: Client,
    coordinator: RpcCoordinator,
    servers: Vec<RunningServer>,
    /// Copies of the shard databases served in process (traced runs only).
    inproc: Option<ShardedSp>,
}

/// A coordinator answer kept for the byte comparison after the loop.
struct Sample {
    features: Vec<Vec<f32>>,
    /// Fingerprint of the VO's wire bytes.
    print: (usize, u64),
    winners: Vec<ImageId>,
}

struct Answer {
    total_ms: f64,
    rpc_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    verify_ms: f64,
    vo_bytes: Vec<u8>,
    response: ShardedResponse,
    client_profile: QueryProfile,
}

fn setup(cfg: &RunConfig, times: &mut SetupTimes) -> Result<(Catalogue, Deployment), String> {
    let cat = Catalogue::build(CATALOGUE_A, cfg.seed, times);
    let owner = owner_for(cfg.seed);
    let system = cat.build_sharded(&owner, SHARDS, times);
    let inproc = if cfg.trace {
        let sw = Stopwatch::start();
        let copy = ShardedSp::new(system.shards.clone());
        times.excluded_s = sw.elapsed_seconds();
        Some(copy)
    } else {
        None
    };
    let sw = Stopwatch::start();
    let mut servers = Vec::with_capacity(SHARDS);
    for (id, db) in system.shards.into_iter().enumerate() {
        let server = ShardServer::new(ServiceProvider::new(db), id as u32, SHARDS as u32)
            .launch()
            .map_err(|e| format!("launching shard {id}: {e}"))?;
        servers.push(server);
    }
    let endpoints = servers
        .iter()
        .map(|s| ShardEndpoint::single(s.addr()))
        .collect();
    let coordinator =
        RpcCoordinator::connect(endpoints, &system.manifest, CoordinatorConfig::default())
            .map_err(|e| format!("coordinator connect: {e}"))?;
    times.launch_s = sw.elapsed_seconds();
    let deployment = Deployment {
        owner,
        manifest: system.manifest,
        client: Client::new(system.published),
        coordinator,
        servers,
        inproc,
    };
    Ok((cat, deployment))
}

impl Deployment {
    /// Sends `features` through the coordinator, moves the sharded VO
    /// through its wire encoding, and verifies it against the manifest.
    fn answer(&mut self, features: &[Vec<f32>]) -> Result<Answer, String> {
        let total = Stopwatch::start();
        let sw = Stopwatch::start();
        let (response, _) = self
            .coordinator
            .query(features, K)
            .map_err(|e| format!("RPC: {e}"))?;
        let rpc_ms = ms(sw);
        let sw = Stopwatch::start();
        let vo_bytes = response.vo.to_wire();
        let encode_ms = ms(sw);
        let sw = Stopwatch::start();
        let vo = ShardedVo::from_wire(&vo_bytes).map_err(|e| format!("VO decode: {e}"))?;
        let decode_ms = ms(sw);
        let response = ShardedResponse {
            results: response.results,
            vo,
        };
        let sw = Stopwatch::start();
        let (verified, client_profile) = self
            .client
            .verify_sharded_profiled(features, K, &response, &self.manifest)
            .map_err(|e| format!("client rejected an honest response: {e}"))?;
        let verify_ms = ms(sw);
        let total_ms = ms(total);
        if verified.topk.len() != K {
            return Err(format!(
                "verified {} results, asked for {K}",
                verified.topk.len()
            ));
        }
        Ok(Answer {
            total_ms,
            rpc_ms,
            encode_ms,
            decode_ms,
            verify_ms,
            vo_bytes,
            response,
            client_profile,
        })
    }

    /// Re-runs, from outside, the layer calls behind `ans`: the in-process
    /// sharded query (whose VO must equal the coordinator's byte for
    /// byte), each shard's SP query and its assignment, MRKD and
    /// inverted-index searches, and the client's per-sub-VO checks.
    fn decompose(
        &self,
        features: &[Vec<f32>],
        ans: &Answer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let inproc = self
            .inproc
            .as_ref()
            .ok_or("traced runs keep the in-process shards")?;
        let sw = Stopwatch::start();
        let (local, stats, _) = inproc.query_profiled(features, K, Concurrency::serial());
        let inproc_ms = ms(sw);
        if local.vo.to_wire() != ans.vo_bytes || ids(&local) != ids(&ans.response) {
            return Err("coordinator answer differs from the in-process ShardedSp".into());
        }

        let mode = BoundsMode::CuckooFiltered;
        let (mut sp_ms, mut assign_ms, mut search_ms, mut inv_search_ms) = (0.0, 0.0, 0.0, 0.0);
        for sp in inproc.shards() {
            let sw = Stopwatch::start();
            let answered = sp.query(features, K);
            sp_ms += ms(sw);
            drop(answered);
            let db = sp.database();
            let sw = Stopwatch::start();
            let assigned: Vec<(u32, f32)> = features
                .iter()
                .map(|f| db.codebook.assign_with_threshold(f))
                .collect();
            assign_ms += ms(sw);
            let thresholds: Vec<f32> = assigned.iter().map(|&(_, t)| t).collect();
            let sw = Stopwatch::start();
            let searched = mrkd_search(&db.mrkd, features, &thresholds);
            search_ms += ms(sw);
            drop(searched);
            let query_bovw = SparseBovw::from_counts(assigned.iter().map(|&(c, _)| (c, 1)));
            let IndexVariant::Plain(index) = &db.inv else {
                return Err("ImageProof serves a plain inverted index".into());
            };
            let sw = Stopwatch::start();
            let searched = inv_search(index, &query_bovw, K, mode);
            inv_search_ms += ms(sw);
            drop(searched);
        }

        let vo = &ans.response.vo;
        let (mut bovw_verify_ms, mut inv_verify_ms) = (0.0, 0.0);
        for sub in &vo.shards {
            let resolved = sub
                .resolve_bovw(&vo.shared)
                .map_err(|e| format!("resolving shard {}: {e}", sub.shard_id))?;
            let (BovwVoVariant::Shared(bovw_vo), InvVoVariant::Plain(inv_vo)) =
                (resolved.as_ref(), &sub.inv)
            else {
                return Err("ImageProof sub-VOs are shared BoVW + plain inverted".into());
            };
            let sw = Stopwatch::start();
            let verified = verify_bovw(bovw_vo, features, SCHEME.candidate_mode())
                .map_err(|e| format!("outside verify_bovw: {e}"))?;
            bovw_verify_ms += ms(sw);
            let query_bovw = SparseBovw::from_counts(verified.assignments.iter().map(|&c| (c, 1)));
            let k_trim = (sub.contributed as usize + 1).min(K);
            let sw = Stopwatch::start();
            verify_topk(
                inv_vo,
                &query_bovw,
                &verified.inv_digests,
                &sub.claimed,
                k_trim,
                mode,
            )
            .map_err(|e| format!("outside verify_topk: {e}"))?;
            inv_verify_ms += ms(sw);
        }
        let sig_ms = time_signatures(self.owner.public_key(), &winner_signatures(&ans.response)?)?;

        layers.record("shard.inproc_query_ms", inproc_ms);
        layers.record("shard.merge_ms", stats.merge_seconds * 1e3);
        layers.record(
            "shard.slowest_shard_ms",
            stats.slowest_shard_seconds() * 1e3,
        );
        layers.record("shard.trim_queries", stats.trim_queries as f64);
        layers.record(
            "shard.dedup_kib_saved",
            stats.dedup_bytes_saved as f64 / 1024.0,
        );
        layers.record("shard.verify_sharded_ms", ans.verify_ms);
        layers.record("rpc.query_ms", ans.rpc_ms);
        layers.record("rpc.transport_ms", ans.rpc_ms - inproc_ms);
        layers.record("akm.assign_ms", assign_ms);
        layers.record("mrkd.search_ms", search_ms);
        layers.record("invindex.search_ms", inv_search_ms);
        layers.record("sp.query_ms", sp_ms);
        layers.record("sp.self_ms", sp_ms - assign_ms - search_ms - inv_search_ms);
        layers.record("mrkd.verify_ms", bovw_verify_ms);
        layers.record("invindex.verify_ms", inv_verify_ms);
        layers.record("crypto.sig_verify_ms", sig_ms);
        layers.record("crypto.vo_encode_ms", ans.encode_ms);
        layers.record("crypto.vo_decode_ms", ans.decode_ms);
        layers.record("client.verify_ms", ans.verify_ms);
        layers.record(
            "client.self_ms",
            ans.verify_ms - bovw_verify_ms - inv_verify_ms - sig_ms,
        );
        layers.record(
            "query.unaccounted_ms",
            ans.total_ms - ans.rpc_ms - ans.encode_ms - ans.decode_ms - ans.verify_ms,
        );
        layers.record(
            "crypto.hashes_computed",
            stats.total_hashes_computed() as f64,
        );
        layers.record("crypto.hash_cache_hit_ratio", stats.cache_hit_ratio());
        for shard in &stats.per_shard {
            layers.record("mrkd.shared_ratio", shard.shared_ratio);
        }
        let postings = stats.total_postings().max(1) as f64;
        layers.record(
            "invindex.popped_ratio",
            stats.total_popped() as f64 / postings,
        );
        layers.record(
            "invindex.blocks_skipped",
            stats
                .per_shard
                .iter()
                .map(|s| s.blocks_skipped)
                .sum::<usize>() as f64,
        );
        layers.record(
            "invindex.blocks_scanned",
            stats
                .per_shard
                .iter()
                .map(|s| s.blocks_scanned)
                .sum::<usize>() as f64,
        );
        let bovw_bytes =
            vo.shared.wire_size() + vo.shards.iter().map(|s| s.bovw.wire_size()).sum::<usize>();
        layers.record("mrkd.vo_kib", bovw_bytes as f64 / 1024.0);
        let inv_bytes: usize = vo.shards.iter().map(|s| s.inv.wire_size()).sum();
        layers.record("invindex.vo_kib", inv_bytes as f64 / 1024.0);

        layers.record("outside.client.shards_ms", bovw_verify_ms + inv_verify_ms);
        layers.record(
            "span.client.shards_ms",
            ans.client_profile.seconds("shards") * 1e3,
        );
        layers.record(
            "span.client.signatures_ms",
            ans.client_profile.seconds("signatures") * 1e3,
        );
        Ok(())
    }

    fn shutdown(self) {
        let Deployment {
            coordinator,
            servers,
            ..
        } = self;
        drop(coordinator);
        for server in servers {
            server.shutdown();
        }
    }
}

fn ids(response: &ShardedResponse) -> Vec<ImageId> {
    response.results.iter().map(|r| r.id).collect()
}

/// The winners with their owner signatures, read from each winner's
/// sub-VO at its claimed position, as the client reads them.
fn winner_signatures(response: &ShardedResponse) -> Result<Vec<SignedImage<'_>>, String> {
    let mut items = Vec::with_capacity(response.results.len());
    for r in &response.results {
        let shard = shard_of(r.id, SHARDS) as u32;
        let sub = response
            .vo
            .shards
            .iter()
            .find(|s| s.shard_id == shard)
            .ok_or("winner's shard missing")?;
        let pos = sub
            .claimed
            .iter()
            .position(|&c| c == r.id)
            .ok_or("winner not claimed by its shard")?;
        let signature = *sub.signatures.get(pos).ok_or("claim without signature")?;
        items.push((r.id, r.data.as_slice(), signature));
    }
    Ok(items)
}

const CROSS_CHECKS: &[(&str, &str, &str)] = &[
    (
        "client shards phase",
        "outside.client.shards_ms",
        "span.client.shards_ms",
    ),
    (
        "client signatures phase",
        "crypto.sig_verify_ms",
        "span.client.signatures_ms",
    ),
];

/// Runs the `shard-rpc` workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    imageproof_obs::set_enabled(false);
    let ((cat, mut dep), setup_times) = timed_setup(cfg, &mut outcome, |times| setup(cfg, times))?;

    let mut stream = QueryStream::spread(CATALOGUE_A.n_images, N_FEATURES, cfg.seed);
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let mut traced = Samples::default();
    let mut samples: Vec<Sample> = Vec::new();

    for _ in 0..WARMUP_QUERIES {
        let features = stream.next(&cat.corpus);
        match dep.answer(&features) {
            Ok(_) => outcome.queries.ok(),
            Err(e) => outcome.queries.fail("warm-up query", e),
        }
    }

    e2e.start_loop();
    let mut queries: u64 = 0;
    while !loop_done(cfg, e2e.loop_elapsed(), e2e.query_ms.len(), traced.len()) {
        e2e.cal.tick();
        let features = stream.next(&cat.corpus);
        let traced_op = cfg.trace && queries % 2 == 1;
        imageproof_obs::set_enabled(traced_op);
        match dep.answer(&features) {
            Ok(ans) => {
                e2e.completed += 1;
                if traced_op {
                    traced.push(ans.total_ms);
                    match dep.decompose(&features, &ans, &mut layers) {
                        Ok(()) => outcome.queries.ok(),
                        Err(e) => outcome.queries.fail("traced query", e),
                    }
                } else {
                    outcome.queries.ok();
                    e2e.push_query(ans.total_ms, ans.vo_bytes.len());
                    if !cfg.trace && samples.len() < EQUALITY_SAMPLES {
                        samples.push(Sample {
                            print: fingerprint(&ans.vo_bytes),
                            winners: ids(&ans.response),
                            features,
                        });
                    }
                }
            }
            Err(e) => outcome.queries.fail("query", e),
        }
        queries += 1;
    }
    e2e.end_loop();
    imageproof_obs::set_enabled(false);

    let features = stream.next(&cat.corpus);
    flipped_byte_probe(&mut dep, &features, cfg.seed, &mut outcome);
    let failovers = dep.coordinator.stats().failovers;
    if failovers != 0 {
        outcome
            .probes
            .fail("failovers", format!("{failovers} replica failovers"));
    }
    if cfg.trace {
        let stats = dep.coordinator.stats();
        let mut slowest_rtt_p50: f64 = 0.0;
        for shard in 0..SHARDS {
            if let Some(p50) = stats.latency_quantile(shard, 0.5) {
                slowest_rtt_p50 = slowest_rtt_p50.max(p50);
            }
        }
        layers.record("rpc.shard_rtt_p50_ms", slowest_rtt_p50 * 1e3);
        layers.record("rpc.failovers", stats.failovers as f64);
        if let Some(inproc) = &dep.inproc {
            let space: usize = inproc
                .shards()
                .iter()
                .map(|sp| sp.database().space_usage().total())
                .sum();
            layers.record("invindex.space_kib", space as f64 / 1024.0);
        }
        record_setup_layers(&mut layers, &setup_times);
        layers.fill_metrics(&e2e.query_ms, &traced, CROSS_CHECKS, &mut outcome);
        dep.shutdown();
    } else {
        // Peak memory is read with only the served deployment built; the
        // in-process copy for the byte comparison is built after.
        e2e.fill_metrics(&setup_times, &mut outcome)?;
        let manifest = dep.manifest.clone();
        dep.shutdown();
        equality_probe(
            &cat,
            &owner_for(cfg.seed),
            &manifest,
            &samples,
            &mut outcome,
        );
    }
    Ok(outcome)
}

/// Rebuilds the deployment in process from the same catalogue and checks
/// that the owner signs the same manifest and that the sampled
/// coordinator answers match `ShardedSp` byte for byte.
fn equality_probe(
    cat: &Catalogue,
    owner: &Owner,
    manifest: &ShardManifest,
    samples: &[Sample],
    outcome: &mut Outcome,
) {
    let system = cat.build_sharded(owner, SHARDS, &mut SetupTimes::default());
    if system.manifest.shard_roots != manifest.shard_roots {
        outcome
            .probes
            .fail("manifest", "rebuilt deployment commits other shard roots");
        return;
    }
    let inproc = ShardedSp::new(system.shards);
    for sample in samples {
        let (local, _) = inproc.query(&sample.features, K);
        if fingerprint(&local.vo.to_wire()) != sample.print || ids(&local) != sample.winners {
            outcome
                .probes
                .fail("byte equality", "coordinator VO differs from ShardedSp");
        } else {
            outcome.probes.ok();
        }
    }
}

/// Where the signature section (count, then each signature) starts in
/// `bytes`, the encoding of `sub`: the length of the same sub-VO encoded
/// without signatures, less its 4-byte empty count. Fails unless the two
/// encodings agree up to that point and `bytes` is longer.
fn signatures_offset(sub: &ShardVo, bytes: &[u8]) -> Result<usize, String> {
    let mut unsigned = sub.clone();
    unsigned.signatures.clear();
    let head = unsigned.to_wire();
    let offset = head.len().saturating_sub(4);
    if offset == 0 || bytes.len() <= offset || bytes[..offset] != head[..offset] {
        return Err(format!(
            "signature section not found ({} bytes unsigned, {} signed)",
            head.len(),
            bytes.len()
        ));
    }
    Ok(offset)
}

/// Flips one bit inside one sub-VO of an honest answer; the client must
/// reject the result. Positions whose flip no longer decodes are skipped,
/// so the forgery reaches the verifier.
fn flipped_byte_probe(
    dep: &mut Deployment,
    features: &[Vec<f32>],
    seed: u64,
    outcome: &mut Outcome,
) {
    let honest = match dep.coordinator.query(features, K) {
        Ok((response, _)) => response,
        Err(e) => return outcome.probes.fail("probe query", e),
    };
    if let Err(e) = dep
        .client
        .verify_sharded(features, K, &honest, &dep.manifest)
    {
        return outcome.probes.fail("honest probe", e);
    }
    outcome.probes.ok();
    let mut rng = crate::rng::Prng::derive(seed, "tamper");
    for (target, sub) in honest.vo.shards.iter().enumerate() {
        let bytes = sub.to_wire();
        // The signature section is left alone: a fence candidate's
        // signature is not a result and is rightly never checked.
        let span = match signatures_offset(sub, &bytes) {
            Ok(span) => span,
            Err(e) => return outcome.probes.fail("flipped sub-VO byte", e),
        };
        for _ in 0..64 {
            let mut flipped = bytes.clone();
            let pos = rng.below(span as u64) as usize;
            flipped[pos] ^= 1 << rng.below(8);
            let Ok(forged_sub) = ShardVo::from_wire(&flipped) else {
                continue;
            };
            if forged_sub == *sub {
                continue;
            }
            let mut forged = honest.clone();
            forged.vo.shards[target] = forged_sub;
            if dep
                .client
                .verify_sharded(features, K, &forged, &dep.manifest)
                .is_ok()
            {
                outcome.probes.fail(
                    "flipped sub-VO byte",
                    format!("client ACCEPTED a flip at byte {pos} of shard {target}"),
                );
            } else {
                outcome.probes.ok();
            }
            return;
        }
    }
    outcome
        .probes
        .fail("flipped sub-VO byte", "no flipped sub-VO decoded");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::CatalogueSpec;
    use imageproof_crypto::wire::Writer;

    #[test]
    fn signatures_offset_marks_exactly_the_signature_section() {
        let spec = CatalogueSpec {
            n_images: 40,
            features_per_image: 8,
            n_latent_words: 20,
            words_per_image: 4,
            codebook_size: 16,
        };
        let mut times = SetupTimes::default();
        let cat = Catalogue::build(spec, 3, &mut times);
        let system = cat.build_sharded(&owner_for(3), SHARDS, &mut times);
        let features = cat.corpus.query_from_image(5, 8, 9);
        let (response, _) = ShardedSp::new(system.shards).query(&features, 4);
        for sub in &response.vo.shards {
            assert!(!sub.signatures.is_empty());
            let bytes = sub.to_wire();
            let offset = signatures_offset(sub, &bytes).unwrap();
            let mut section = Writer::new();
            section.seq_len(sub.signatures.len());
            for s in &sub.signatures {
                section.bytes(&s.0);
            }
            assert_eq!(&bytes[offset..], section.finish().as_slice());
        }
    }
}
