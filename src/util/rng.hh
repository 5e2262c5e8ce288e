/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * All stochastic components of tamres (synthetic data, accuracy draws,
 * tuner search) take an explicit Rng so experiments are reproducible
 * from a single seed.
 */

#ifndef TAMRES_UTIL_RNG_HH
#define TAMRES_UTIL_RNG_HH

#include <cstdint>
#include <cmath>

namespace tamres {

/** splitmix64 finalizer: turns a counter into a well-mixed word. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A small, fast, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize the state from a seed. */
    void
    reseed(uint64_t seed)
    {
        // splitmix64 to fill state; avoids the all-zero state.
        uint64_t x = seed;
        for (auto &s : state_) {
            s = mix64(x);
            x += 0x9e3779b97f4a7c15ull;
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    uniformInt(uint64_t n)
    {
        // Lemire-style rejection-free-enough bounded draw.
        return next() % n;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(uniformInt(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Standard normal via Box–Muller (two uniform draws). */
    double
    normal()
    {
        const double u1 = uniform();
        return boxMuller(u1, uniform());
    }

    /**
     * The Box–Muller transform normal() applies to its two uniforms
     * (@p u1 drawn first). Pure, so callers may draw the uniforms in
     * order and transform them elsewhere, e.g. on other threads.
     */
    static double
    boxMuller(double u1, double u2)
    {
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    }

    /** Normal with mean/stddev. */
    double normal(double mean, double sd) { return mean + sd * normal(); }

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Logistic-distributed value (mean 0, scale s). */
    double
    logistic(double s = 1.0)
    {
        double u = uniform();
        if (u < 1e-12) u = 1e-12;
        if (u > 1.0 - 1e-12) u = 1.0 - 1e-12;
        return s * std::log(u / (1.0 - u));
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace tamres

#endif // TAMRES_UTIL_RNG_HH
