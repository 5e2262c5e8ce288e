#include "image/metrics.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/simd.hh"

namespace tamres {

namespace {

void
checkSame(const Image &a, const Image &b)
{
    tamres_assert(a.height() == b.height() && a.width() == b.width() &&
                  a.channels() == b.channels(),
                  "metric inputs must have identical dimensions");
}

constexpr int kTaps = 11;   //!< Gaussian window width
constexpr int kRadius = 5;  //!< taps on each side of the centre
constexpr int kMoments = 5; //!< mu_a, mu_b and the blurred aa, bb, ab

/** 11-tap Gaussian kernel with sigma 1.5, normalized to sum 1. */
std::array<double, kTaps>
gaussian11()
{
    std::array<double, kTaps> k{};
    const double sigma = 1.5;
    double sum = 0.0;
    for (int i = 0; i < kTaps; ++i) {
        const double d = i - kRadius;
        k[i] = std::exp(-d * d / (2 * sigma * sigma));
        sum += k[i];
    }
    for (double &v : k)
        v /= sum;
    return k;
}

/** The Gaussian kernel, built on first use. */
const std::array<double, kTaps> &
kernel()
{
    static const std::array<double, kTaps> k = gaussian11();
    return k;
}

/**
 * out[x] = sum over i of kernel()[i] * src[i][x] for x in [0, w): one
 * blur tap per source row, accumulated from 0.0 in tap order. The
 * horizontal pass passes one edge-replicated row shifted by i, the
 * vertical pass the 11 (edge-clamped) rows of the window.
 */
using TapsFn = void (*)(const double *const *src, int w, double *out);

/**
 * Column @p x of the taps sum with kernel @p k, accumulated from 0.0
 * in tap order.
 */
inline double
tapsAt(const std::array<double, kTaps> &k, const double *const *src, int x)
{
    double acc = 0.0;
    for (int i = 0; i < kTaps; ++i)
        acc += k[i] * src[i][x];
    return acc;
}

void
tapsScalar(const double *const *src, int w, double *out)
{
    const std::array<double, kTaps> &k = kernel();
    for (int x = 0; x < w; ++x)
        out[x] = tapsAt(k, src, x);
}

#if TAMRES_SIMD_X86

// AVX2 without FMA: each tap stays a separate multiply and add, so the
// vector path rounds exactly like tapsScalar (the compiler may not
// contract what the target cannot fuse). A build that turns FMA on for
// every file (-march=native) may contract either path.
__attribute__((target("avx2"))) void
tapsAvx2(const double *const *src, int w, double *out)
{
    const std::array<double, kTaps> &k = kernel();
    int x = 0;
    for (; x + 4 <= w; x += 4) {
        __m256d acc = _mm256_setzero_pd();
        for (int i = 0; i < kTaps; ++i)
            acc = _mm256_add_pd(
                acc, _mm256_mul_pd(_mm256_set1_pd(k[i]),
                                   _mm256_loadu_pd(src[i] + x)));
        _mm256_storeu_pd(out + x, acc);
    }
    for (; x < w; ++x)
        out[x] = tapsAt(k, src, x);
}

#endif

/** The taps kernel for the active SIMD level. */
TapsFn
activeTaps()
{
#if TAMRES_SIMD_X86
    if (simdLevel() == SimdLevel::Avx2)
        return tapsAvx2;
#endif
    return tapsScalar;
}

/** One output row of the five blurred moments, w doubles each. */
struct MomentRow
{
    const double *mu_a; //!< blurred a
    const double *mu_b; //!< blurred b
    const double *aa;   //!< blurred a * a
    const double *bb;   //!< blurred b * b
    const double *ab;   //!< blurred a * b
};

/**
 * Separable 11x11 Gaussian blur (edge clamping) of the five SSIM
 * moments of a plane pair, streamed one output row at a time: each
 * source row is blurred horizontally into an 11-row ring per moment,
 * and each output row blurs the ring vertically. Only O(w) doubles are
 * live; no full-plane buffer exists. Every blurred value is the
 * two-pass definition's, bit for bit: the products a * a, b * b and
 * a * b are rounded to float first, and each pass sums its taps in
 * order with separate multiplies and adds.
 */
class MomentStream
{
  public:
    explicit MomentStream(int w)
        : w_(w), taps_(activeTaps()),
          ext_(static_cast<size_t>(kMoments) * (w + 2 * kRadius)),
          ring_(static_cast<size_t>(kMoments) * kTaps * w),
          out_(static_cast<size_t>(kMoments) * w)
    {}

    /** Calls row_fn(MomentRow) for rows 0..h-1 of planes pa, pb. */
    template <typename RowFn>
    void
    run(const float *pa, const float *pb, int h, RowFn &&row_fn)
    {
        int next = 0; // next source row to blur horizontally
        for (int y = 0; y < h; ++y) {
            for (; next <= std::min(h - 1, y + kRadius); ++next)
                blurRow(pa + static_cast<size_t>(next) * w_,
                        pb + static_cast<size_t>(next) * w_, next % kTaps);
            const double *src[kTaps];
            for (int m = 0; m < kMoments; ++m) {
                for (int i = 0; i < kTaps; ++i) {
                    const int yy = std::clamp(y + i - kRadius, 0, h - 1);
                    src[i] = ringRow(m, yy % kTaps);
                }
                taps_(src, w_, outRow(m));
            }
            row_fn(MomentRow{outRow(0), outRow(1), outRow(2), outRow(3),
                             outRow(4)});
        }
    }

  private:
    double *ringRow(int m, int slot)
    {
        return ring_.data() + (static_cast<size_t>(m) * kTaps + slot) * w_;
    }
    double *outRow(int m) { return out_.data() + static_cast<size_t>(m) * w_; }

    /** Horizontal blur of source row (ra, rb) into ring slot @p slot. */
    void
    blurRow(const float *ra, const float *rb, int slot)
    {
        // Edge-replicated moments: ext[m][j] is moment m at column
        // clamp(j - 5, 0, w - 1), so every tap below is clamp-free.
        const int wext = w_ + 2 * kRadius;
        double *e[kMoments];
        for (int m = 0; m < kMoments; ++m)
            e[m] = ext_.data() + static_cast<size_t>(m) * wext;
        for (int j = 0; j < wext; ++j) {
            const int x = std::clamp(j - kRadius, 0, w_ - 1);
            const float a = ra[x];
            const float b = rb[x];
            e[0][j] = a;
            e[1][j] = b;
            e[2][j] = a * a;
            e[3][j] = b * b;
            e[4][j] = a * b;
        }
        for (int m = 0; m < kMoments; ++m) {
            const double *src[kTaps];
            for (int i = 0; i < kTaps; ++i)
                src[i] = e[m] + i;
            taps_(src, w_, ringRow(m, slot));
        }
    }

    int w_;
    TapsFn taps_;
    std::vector<double> ext_;  //!< kMoments x (w + 10) replicated row
    std::vector<double> ring_; //!< kMoments x 11 x w horizontal blurs
    std::vector<double> out_;  //!< kMoments x w vertical blurs
};

} // namespace

double
mse(const Image &a, const Image &b)
{
    checkSame(a, b);
    const float *pa = a.data();
    const float *pb = b.data();
    double acc = 0.0;
    const size_t n = a.numel();
    for (size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(pa[i]) - pb[i];
        acc += d * d;
    }
    return acc / static_cast<double>(n);
}

double
psnr(const Image &a, const Image &b)
{
    const double m = mse(a, b);
    if (m <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(1.0 / m);
}

namespace {

constexpr double kC1 = 0.01 * 0.01; //!< luminance stabilizer
constexpr double kC2 = 0.03 * 0.03; //!< contrast-structure stabilizer

/**
 * Channel mean of the per-plane means of the K per-pixel terms
 * terms_fn(mu_a, mu_b, var_a, var_b, cov) returns from the blurred
 * moments. Each term sums row-major from 0.0 and is divided by the
 * plane size, as in the two-pass definition.
 */
template <size_t K, typename TermsFn>
std::array<double, K>
meanSsimTerms(const Image &a, const Image &b, TermsFn &&terms_fn)
{
    const int h = a.height();
    const int w = a.width();
    const size_t n = static_cast<size_t>(h) * w;
    MomentStream stream(w);
    std::array<double, K> total{};
    for (int c = 0; c < a.channels(); ++c) {
        std::array<double, K> acc{};
        stream.run(a.plane(c), b.plane(c), h, [&](const MomentRow &m) {
            for (int x = 0; x < w; ++x) {
                const double ma = m.mu_a[x];
                const double mb = m.mu_b[x];
                const std::array<double, K> t =
                    terms_fn(ma, mb, m.aa[x] - ma * ma, m.bb[x] - mb * mb,
                             m.ab[x] - ma * mb);
                for (size_t k = 0; k < K; ++k)
                    acc[k] += t[k];
            }
        });
        for (size_t k = 0; k < K; ++k)
            total[k] += acc[k] / static_cast<double>(n);
    }
    for (double &t : total)
        t /= a.channels();
    return total;
}

/** Per-channel mean contrast-structure term and mean full SSIM term. */
struct SsimTerms
{
    double cs = 0.0;   //!< mean (2 cov + C2) / (va + vb + C2)
    double full = 0.0; //!< mean full SSIM (luminance included)
};

SsimTerms
ssimTerms(const Image &a, const Image &b)
{
    const auto [cs, full] = meanSsimTerms<2>(
        a, b, [](double ma, double mb, double va, double vb, double cov) {
            const double cs = (2 * cov + kC2) / (va + vb + kC2);
            const double lum =
                (2 * ma * mb + kC1) / (ma * ma + mb * mb + kC1);
            return std::array<double, 2>{cs, lum * cs};
        });
    return {cs, full};
}

/** Downsample a plane pair by 2x2 averaging (shared by msSsim). */
Image
halve(const Image &src)
{
    const int h = std::max(1, src.height() / 2);
    const int w = std::max(1, src.width() / 2);
    return resizeArea(src, h, w);
}

} // namespace

double
msSsim(const Image &a, const Image &b, int levels)
{
    checkSame(a, b);
    tamres_assert(levels >= 1, "msSsim needs at least one level");
    // Standard MS-SSIM exponents (Wang et al. 2003).
    static const double kWeights[5] = {0.0448, 0.2856, 0.3001, 0.2363,
                                       0.1333};
    levels = std::min(levels, 5);
    // Keep the coarsest scale at least as large as the 11-tap window.
    while (levels > 1 &&
           (std::min(a.height(), a.width()) >> (levels - 1)) < 11)
        --levels;

    double wsum = 0.0;
    for (int l = 0; l < levels; ++l)
        wsum += kWeights[l];

    Image ca = a, cb = b;
    double score = 1.0;
    for (int l = 0; l < levels; ++l) {
        const SsimTerms t = ssimTerms(ca, cb);
        const double weight = kWeights[l] / wsum;
        // Luminance enters at the coarsest level only.
        const double term = (l == levels - 1) ? t.full : t.cs;
        score *= std::pow(std::max(term, 1e-9), weight);
        if (l + 1 < levels) {
            ca = halve(ca);
            cb = halve(cb);
        }
    }
    return score;
}

double
ssim(const Image &a, const Image &b)
{
    checkSame(a, b);
    return meanSsimTerms<1>(
        a, b, [](double ma, double mb, double va, double vb, double cov) {
            const double num = (2 * ma * mb + kC1) * (2 * cov + kC2);
            const double den = (ma * ma + mb * mb + kC1) * (va + vb + kC2);
            return std::array<double, 1>{num / den};
        })[0];
}

} // namespace tamres
