//! Catalogue construction: corpus generation, codebook training, encoding,
//! and the owner's ADS build, each timed for the set-up breakdown.

use crate::rng::Prng;
use imageproof_akm::{AkmParams, Codebook, SparseBovw};
use imageproof_core::{Database, Owner, PublishedParams, Scheme, ShardedSystem, SystemConfig};
use imageproof_obs::Stopwatch;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind, ImageId};

/// The scheme every workload serves (the paper's §V protocol).
pub const SCHEME: Scheme = Scheme::ImageProof;

/// Corpus and codebook shape of one catalogue.
#[derive(Clone, Copy, Debug)]
pub struct CatalogueSpec {
    pub n_images: usize,
    pub features_per_image: usize,
    pub n_latent_words: usize,
    pub words_per_image: usize,
    pub codebook_size: usize,
}

/// Catalogue A: BoVW-heavy (a large codebook, few features per image).
pub const CATALOGUE_A: CatalogueSpec = CatalogueSpec {
    n_images: 2000,
    features_per_image: 50,
    n_latent_words: 600,
    words_per_image: 12,
    codebook_size: 1024,
};

/// Catalogue B: inverted-index-heavy (a small codebook over many images,
/// so posting lists run to hundreds of postings).
pub const CATALOGUE_B: CatalogueSpec = CatalogueSpec {
    n_images: 10_000,
    features_per_image: 20,
    n_latent_words: 150,
    words_per_image: 8,
    codebook_size: 128,
};

/// Seconds spent in each set-up step (one set-up).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub train_s: f64,
    pub encode_s: f64,
    pub ads_build_s: f64,
    pub launch_s: f64,
    /// Harness-only work inside the set-up window (copying shard
    /// databases for the in-process comparison), left out of `total_s`.
    pub excluded_s: f64,
    /// From the start of set-up until the first query can be sent.
    pub total_s: f64,
}

/// A generated corpus with its trained codebook and per-image encodings.
pub struct Catalogue {
    pub corpus: Corpus,
    pub codebook: Codebook,
    pub encodings: Vec<(ImageId, SparseBovw)>,
}

impl Catalogue {
    /// Generates the corpus from `seed`, trains the codebook (8 trees,
    /// leaf size 2, 32 checks, 2 Lloyd iterations) and encodes every image.
    pub fn build(spec: CatalogueSpec, seed: u64, times: &mut SetupTimes) -> Catalogue {
        let mut rng = Prng::derive(seed, "catalogue");
        let corpus_seed = rng.next_u64();
        let akm_seed = rng.next_u64();

        let sw = Stopwatch::start();
        let corpus = Corpus::generate(&CorpusConfig {
            kind: DescriptorKind::Sift,
            n_images: spec.n_images,
            features_per_image: spec.features_per_image,
            n_latent_words: spec.n_latent_words,
            words_per_image: spec.words_per_image,
            zipf_exponent: 0.8,
            noise_sigma: 0.005,
            image_bytes: 256,
            seed: corpus_seed,
        });
        times.corpus_s = sw.elapsed_seconds();

        let sw = Stopwatch::start();
        let akm = AkmParams {
            n_clusters: spec.codebook_size,
            n_trees: 8,
            max_leaf_size: 2,
            max_checks: 32,
            iterations: 2,
            seed: akm_seed,
        };
        let codebook = Codebook::train(DescriptorKind::Sift, corpus.all_features(), &akm);
        times.train_s = sw.elapsed_seconds();

        let sw = Stopwatch::start();
        let encodings = corpus
            .images
            .iter()
            .map(|img| {
                let bovw = SparseBovw::encode(&codebook, img.features.iter().map(Vec::as_slice));
                (img.id, bovw)
            })
            .collect();
        times.encode_s = sw.elapsed_seconds();

        Catalogue {
            corpus,
            codebook,
            encodings,
        }
    }

    /// The owner's monolith ADS build.
    pub fn build_monolith(
        &self,
        owner: &Owner,
        times: &mut SetupTimes,
    ) -> (Database, PublishedParams) {
        let sw = Stopwatch::start();
        let built = owner.build_system_prepared_config(
            &self.corpus,
            self.codebook.clone(),
            self.encodings.clone(),
            SystemConfig::new(SCHEME),
        );
        times.ads_build_s = sw.elapsed_seconds();
        built
    }

    /// The owner's sharded ADS build (one shared codebook and impact
    /// model, one signed manifest).
    pub fn build_sharded(
        &self,
        owner: &Owner,
        shard_count: usize,
        times: &mut SetupTimes,
    ) -> ShardedSystem {
        let sw = Stopwatch::start();
        let built = owner.build_sharded_system_prepared_config(
            &self.corpus,
            self.codebook.clone(),
            self.encodings.clone(),
            SystemConfig::new(SCHEME),
            shard_count,
        );
        times.ads_build_s = sw.elapsed_seconds();
        built
    }
}

/// The owner's signing identity, derived from the workload seed.
pub fn owner_for(seed: u64) -> Owner {
    let mut rng = Prng::derive(seed, "owner");
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    Owner::new(&key)
}
