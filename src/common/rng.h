#ifndef RECSTACK_COMMON_RNG_H_
#define RECSTACK_COMMON_RNG_H_

/**
 * @file
 * Deterministic pseudo-random number generation for workload and trace
 * synthesis. Every stochastic component in recstack draws from an Rng
 * seeded explicitly so experiments are exactly reproducible.
 */

#include <bit>
#include <cstdint>
#include <vector>

namespace recstack {

/**
 * xoshiro256** PRNG. Fast, high quality, and trivially seedable; the
 * state is expanded from a 64-bit seed with SplitMix64.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform float in [lo, hi). */
    float nextFloat(float lo, float hi);

    /** Gaussian(0, 1) via Box-Muller. */
    double nextGaussian();

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    uint64_t state_[4];
    bool haveSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

/**
 * Zipfian sampler over [0, n): pre-computes the harmonic normalization
 * so draws are O(log n) via inverse-CDF binary search on a table of
 * bucketed prefix sums.
 *
 * Used to model skewed embedding-table access (hot entries), the
 * regime production recommendation traffic exhibits.
 */
class ZipfSampler
{
  public:
    /**
     * @param n        population size (> 0)
     * @param exponent skew parameter s >= 0; s == 0 degenerates to uniform
     */
    ZipfSampler(uint64_t n, double exponent);

    uint64_t sample(Rng& rng) const;

    /**
     * P(sample < k) under this sampler's bucketed model — the exact
     * distribution sample() draws from, so analytical expectations
     * (e.g. the hit rate of a cache holding the k hottest rows) can
     * be compared against measured frequencies without re-deriving
     * the harmonic sums. Clamped to [0, 1]; exponent <= 0 gives the
     * uniform k / n.
     */
    double cdf(uint64_t k) const;

    uint64_t population() const { return n_; }
    double exponent() const { return exponent_; }

  private:
    uint64_t n_;
    double exponent_;
    std::vector<double> cdf_;       // coarse CDF over kBuckets buckets
    std::vector<uint64_t> bucketLo_;
};

/**
 * Fill `dst[0, count)` with indices drawn from `zipf`. The single
 * synthesis routine every skewed index stream goes through
 * (workload/batch_generator, store benchmarks, tests) so they all see
 * the identical draw sequence for a given Rng state; ZipfSampler
 * itself degenerates to uniform when its exponent is <= 0.
 */
void fillZipfIndices(const ZipfSampler& zipf, Rng& rng, int64_t* dst,
                     int64_t count);

}  // namespace recstack

#endif  // RECSTACK_COMMON_RNG_H_
