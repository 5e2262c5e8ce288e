/**
 * @file
 * Unit tests for the image module: resize, crop, metrics, synthetic
 * generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "image/image.hh"
#include "image/metrics.hh"
#include "image/synthetic.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace tamres {
namespace {

Image
noiseImage(int h, int w, uint64_t seed)
{
    Image img(h, w, 3);
    Rng rng(seed);
    for (int c = 0; c < 3; ++c)
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                img.at(c, y, x) = static_cast<float>(rng.uniform());
    return img;
}

TEST(Image, Basics)
{
    Image img(4, 6, 3);
    EXPECT_EQ(img.height(), 4);
    EXPECT_EQ(img.width(), 6);
    EXPECT_EQ(img.numel(), 4u * 6 * 3);
    img.at(2, 3, 5) = 0.5f;
    EXPECT_EQ(img.plane(2)[3 * 6 + 5], 0.5f);
}

TEST(Image, Clamp01)
{
    Image img(1, 2, 1);
    img.at(0, 0, 0) = -0.5f;
    img.at(0, 0, 1) = 1.5f;
    img.clamp01();
    EXPECT_EQ(img.at(0, 0, 0), 0.0f);
    EXPECT_EQ(img.at(0, 0, 1), 1.0f);
}

TEST(Resize, IdentityPreserves)
{
    const Image src = noiseImage(16, 16, 1);
    const Image out = resize(src, 16, 16);
    for (size_t i = 0; i < src.numel(); ++i)
        EXPECT_FLOAT_EQ(src.data()[i], out.data()[i]);
}

TEST(Resize, ConstantImageStaysConstant)
{
    Image src(10, 14, 3);
    for (size_t i = 0; i < src.numel(); ++i)
        src.data()[i] = 0.42f;
    for (const Image &out :
         {resizeBilinear(src, 7, 5), resizeArea(src, 3, 4)}) {
        for (size_t i = 0; i < out.numel(); ++i)
            EXPECT_NEAR(out.data()[i], 0.42f, 1e-5f);
    }
}

TEST(Resize, MeanPreservedByArea)
{
    const Image src = noiseImage(64, 64, 3);
    const Image out = resizeArea(src, 16, 16);
    EXPECT_NEAR(out.mean(), src.mean(), 0.01);
}

TEST(Resize, UpscaleDimensions)
{
    const Image src = noiseImage(8, 12, 2);
    const Image out = resizeBilinear(src, 16, 20);
    EXPECT_EQ(out.height(), 16);
    EXPECT_EQ(out.width(), 20);
    EXPECT_EQ(out.channels(), src.channels());
}

TEST(Resize, AutoPicksAreaForBigShrink)
{
    // resize() must not alias badly on a 4x shrink; area averaging
    // keeps the mean stable.
    const Image src = noiseImage(128, 128, 1);
    const Image out = resize(src, 32, 32);
    EXPECT_NEAR(out.mean(), src.mean(), 0.01);
}

TEST(Crop, ExtractsRectangle)
{
    Image src(6, 6, 1);
    src.at(0, 2, 3) = 1.0f;
    const Image out = crop(src, 2, 3, 2, 2);
    EXPECT_EQ(out.at(0, 0, 0), 1.0f);
    EXPECT_EQ(out.height(), 2);
}

TEST(CropDeath, OutOfBounds)
{
    Image src(4, 4, 1);
    EXPECT_DEATH(crop(src, 2, 2, 3, 3), "out of bounds");
}

TEST(CenterCrop, FullFractionIsIdentity)
{
    const Image src = noiseImage(10, 12, 3);
    const Image out = centerCropFraction(src, 1.0);
    EXPECT_EQ(out.height(), 10);
    EXPECT_EQ(out.width(), 12);
}

TEST(CenterCrop, AreaMatches)
{
    const Image src = noiseImage(100, 100, 1);
    const Image out = centerCropFraction(src, 0.25);
    // sqrt(0.25) = 0.5 per side.
    EXPECT_EQ(out.height(), 50);
    EXPECT_EQ(out.width(), 50);
}

TEST(Metrics, PsnrIdentityInfinite)
{
    const Image a = noiseImage(24, 24, 3);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
    EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
}

TEST(Metrics, PsnrKnownValue)
{
    Image a(8, 8, 1);
    Image b(8, 8, 1);
    for (size_t i = 0; i < b.numel(); ++i)
        b.data()[i] = 0.1f; // MSE = 0.01 -> PSNR = 20 dB
    EXPECT_NEAR(psnr(a, b), 20.0, 1e-4);
}

TEST(Metrics, SsimIdentityIsOne)
{
    const Image a = noiseImage(32, 32, 3);
    EXPECT_NEAR(ssim(a, a), 1.0, 1e-9);
}

TEST(Metrics, SsimSymmetric)
{
    const Image a = noiseImage(32, 32, 3);
    Image b = a;
    b = noiseImage(32, 32, 4);
    EXPECT_NEAR(ssim(a, b), ssim(b, a), 1e-9);
}

TEST(Metrics, SsimDropsWithNoise)
{
    const SyntheticImageSpec spec{.height = 64, .width = 64,
                                  .class_id = 1, .seed = 3};
    const Image a = generateSyntheticImage(spec);
    Rng rng(17);
    Image mild = a;
    mild = Image(64, 64, 3);
    Image heavy(64, 64, 3);
    for (size_t i = 0; i < a.numel(); ++i) {
        mild.data()[i] = std::clamp(
            a.data()[i] + 0.02f * static_cast<float>(rng.normal()), 0.0f,
            1.0f);
        heavy.data()[i] = std::clamp(
            a.data()[i] + 0.15f * static_cast<float>(rng.normal()), 0.0f,
            1.0f);
    }
    const double s_mild = ssim(a, mild);
    const double s_heavy = ssim(a, heavy);
    EXPECT_LT(s_heavy, s_mild);
    EXPECT_LT(s_mild, 1.0);
    EXPECT_GT(s_mild, 0.8);
}

TEST(Metrics, SsimInvariantVsPsnrToMeanShift)
{
    // SSIM's luminance term tolerates small uniform shifts better than
    // PSNR does — a classic structural-similarity property.
    const Image a = noiseImage(32, 32, 1);
    Image shifted(32, 32, 3);
    for (size_t i = 0; i < a.numel(); ++i)
        shifted.data()[i] = std::clamp(a.data()[i] + 0.05f, 0.0f, 1.0f);
    EXPECT_GT(ssim(a, shifted), 0.9);
    EXPECT_LT(psnr(a, shifted), 30.0);
}

/*
 * Reference SSIM and MS-SSIM: the two-pass definition (a full-plane
 * horizontal blur, then a full-plane vertical blur, each tap clamped
 * at the edges, then one row-major sum). ssim() and msSsim() stream
 * rows instead and must match these bit for bit at every SIMD level.
 */
std::vector<double>
refBlurPlane(const float *src, int h, int w)
{
    std::array<double, 11> k{};
    double sum = 0.0;
    for (int i = 0; i < 11; ++i) {
        const double d = i - 5;
        k[i] = std::exp(-d * d / (2 * 1.5 * 1.5));
        sum += k[i];
    }
    for (double &v : k)
        v /= sum;
    std::vector<double> tmp(static_cast<size_t>(h) * w);
    std::vector<double> out(static_cast<size_t>(h) * w);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            double acc = 0.0;
            for (int i = 0; i < 11; ++i) {
                const int xx = std::clamp(x + i - 5, 0, w - 1);
                acc += k[i] * src[y * w + xx];
            }
            tmp[static_cast<size_t>(y) * w + x] = acc;
        }
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            double acc = 0.0;
            for (int i = 0; i < 11; ++i) {
                const int yy = std::clamp(y + i - 5, 0, h - 1);
                acc += k[i] * tmp[static_cast<size_t>(yy) * w + x];
            }
            out[static_cast<size_t>(y) * w + x] = acc;
        }
    }
    return out;
}

/** Per-channel means of the reference's blurred moments, combined. */
struct RefTerms
{
    double ssim = 0.0; //!< mean num / den
    double cs = 0.0;   //!< mean contrast-structure term
    double full = 0.0; //!< mean lum * cs
};

RefTerms
refTerms(const Image &a, const Image &b)
{
    const double c1 = 0.01 * 0.01;
    const double c2 = 0.03 * 0.03;
    const int h = a.height();
    const int w = a.width();
    RefTerms t;
    for (int c = 0; c < a.channels(); ++c) {
        const float *pa = a.plane(c);
        const float *pb = b.plane(c);
        const size_t n = static_cast<size_t>(h) * w;
        std::vector<float> aa(n), bb(n), ab(n);
        for (size_t i = 0; i < n; ++i) {
            aa[i] = pa[i] * pa[i];
            bb[i] = pb[i] * pb[i];
            ab[i] = pa[i] * pb[i];
        }
        const auto mu_a = refBlurPlane(pa, h, w);
        const auto mu_b = refBlurPlane(pb, h, w);
        const auto m_aa = refBlurPlane(aa.data(), h, w);
        const auto m_bb = refBlurPlane(bb.data(), h, w);
        const auto m_ab = refBlurPlane(ab.data(), h, w);
        double acc = 0.0, acc_cs = 0.0, acc_full = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double ma = mu_a[i];
            const double mb = mu_b[i];
            const double va = m_aa[i] - ma * ma;
            const double vb = m_bb[i] - mb * mb;
            const double cov = m_ab[i] - ma * mb;
            const double num = (2 * ma * mb + c1) * (2 * cov + c2);
            const double den = (ma * ma + mb * mb + c1) * (va + vb + c2);
            acc += num / den;
            const double cs = (2 * cov + c2) / (va + vb + c2);
            const double lum =
                (2 * ma * mb + c1) / (ma * ma + mb * mb + c1);
            acc_cs += cs;
            acc_full += lum * cs;
        }
        t.ssim += acc / static_cast<double>(n);
        t.cs += acc_cs / static_cast<double>(n);
        t.full += acc_full / static_cast<double>(n);
    }
    t.ssim /= a.channels();
    t.cs /= a.channels();
    t.full /= a.channels();
    return t;
}

double
refMsSsim(const Image &a, const Image &b, int levels)
{
    static const double kWeights[5] = {0.0448, 0.2856, 0.3001, 0.2363,
                                       0.1333};
    levels = std::min(levels, 5);
    while (levels > 1 &&
           (std::min(a.height(), a.width()) >> (levels - 1)) < 11)
        --levels;
    double wsum = 0.0;
    for (int l = 0; l < levels; ++l)
        wsum += kWeights[l];
    Image ca = a, cb = b;
    double score = 1.0;
    for (int l = 0; l < levels; ++l) {
        const RefTerms t = refTerms(ca, cb);
        const double term = (l == levels - 1) ? t.full : t.cs;
        score *= std::pow(std::max(term, 1e-9), kWeights[l] / wsum);
        if (l + 1 < levels) {
            ca = resizeArea(ca, std::max(1, ca.height() / 2),
                            std::max(1, ca.width() / 2));
            cb = resizeArea(cb, std::max(1, cb.height() / 2),
                            std::max(1, cb.width() / 2));
        }
    }
    return score;
}

Image
filledImage(int h, int w, int channels, Rng *rng, float constant)
{
    Image img(h, w, channels);
    for (size_t i = 0; i < img.numel(); ++i)
        img.data()[i] =
            rng ? static_cast<float>(rng->uniform()) : constant;
    return img;
}

uint64_t
bitsOf(double v)
{
    return std::bit_cast<uint64_t>(v);
}

TEST(Metrics, SsimAndMsSsimBitIdenticalToTwoPassReference)
{
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
    // With FMA codegen (e.g. -DTAMRES_NATIVE=ON) the compiler may fuse
    // the reference's or the scalar path's multiply-adds differently.
    GTEST_SKIP() << "multiply-adds may be FMA-contracted in this build";
#endif
    const int sides[] = {1, 5, 10, 11, 12, 37, 224};
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (simdDetected() != SimdLevel::Scalar)
        levels.push_back(simdDetected());
    Rng rng(2024);
    for (int h : sides) {
        for (int w : sides) {
            for (int channels : {1, 3}) {
                // Random vs random, random vs itself, constant vs
                // constant, and constant vs random.
                const Image r1 = filledImage(h, w, channels, &rng, 0);
                const Image r2 = filledImage(h, w, channels, &rng, 0);
                const Image k1 = filledImage(h, w, channels, nullptr, 0.3f);
                const Image k2 = filledImage(h, w, channels, nullptr, 0.7f);
                const std::pair<const Image *, const Image *> pairs[] = {
                    {&r1, &r2}, {&r1, &r1}, {&k1, &k2}, {&k1, &r2}};
                for (const auto &[a, b] : pairs) {
                    const double want = refTerms(*a, *b).ssim;
                    const double want_ms = refMsSsim(*a, *b, 5);
                    for (SimdLevel level : levels) {
                        SimdLevelGuard guard(level);
                        SCOPED_TRACE(testing::Message()
                                     << h << "x" << w << "x" << channels
                                     << " " << simdLevelName(level));
                        EXPECT_EQ(bitsOf(ssim(*a, *b)), bitsOf(want));
                        EXPECT_EQ(bitsOf(msSsim(*a, *b)), bitsOf(want_ms));
                    }
                }
            }
        }
    }
}

TEST(Synthetic, Deterministic)
{
    const SyntheticImageSpec spec{.height = 48, .width = 64,
                                  .class_id = 2, .seed = 9};
    const Image a = generateSyntheticImage(spec);
    const Image b = generateSyntheticImage(spec);
    for (size_t i = 0; i < a.numel(); ++i)
        EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(Synthetic, SeedChangesPixels)
{
    SyntheticImageSpec spec{.height = 48, .width = 48, .class_id = 2,
                            .seed = 9};
    const Image a = generateSyntheticImage(spec);
    spec.seed = 10;
    const Image b = generateSyntheticImage(spec);
    double diff = 0.0;
    for (size_t i = 0; i < a.numel(); ++i)
        diff += std::fabs(a.data()[i] - b.data()[i]);
    EXPECT_GT(diff / a.numel(), 0.01);
}

TEST(Synthetic, ClassesDiffer)
{
    SyntheticImageSpec spec{.height = 64, .width = 64, .class_id = 0,
                            .seed = 5};
    const Image a = generateSyntheticImage(spec);
    spec.class_id = 1;
    const Image b = generateSyntheticImage(spec);
    EXPECT_LT(ssim(a, b), 0.99);
}

TEST(Synthetic, ObjectScaleChangesContent)
{
    SyntheticImageSpec spec{.height = 96, .width = 96, .class_id = 0,
                            .seed = 5, .texture_detail = 0.3};
    spec.object_scale = 0.2;
    const Image small = generateSyntheticImage(spec);
    spec.object_scale = 0.9;
    const Image big = generateSyntheticImage(spec);
    // A bigger object must change more pixels relative to the same
    // background.
    EXPECT_LT(ssim(small, big), 0.9);
}

TEST(Synthetic, ValuesInRange)
{
    const SyntheticImageSpec spec{.height = 40, .width = 52,
                                  .class_id = 7, .num_classes = 8,
                                  .seed = 77};
    const Image img = generateSyntheticImage(spec);
    for (size_t i = 0; i < img.numel(); ++i) {
        EXPECT_GE(img.data()[i], 0.0f);
        EXPECT_LE(img.data()[i], 1.0f);
    }
}

TEST(SyntheticDeath, BadClass)
{
    SyntheticImageSpec spec;
    spec.class_id = 99;
    spec.num_classes = 4;
    EXPECT_DEATH(generateSyntheticImage(spec), "class id");
}

/** Parameterized sweep: every archetype renders at several scales. */
class SyntheticSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{};

TEST_P(SyntheticSweep, RendersInRange)
{
    const auto [cls, obj_scale] = GetParam();
    SyntheticImageSpec spec{.height = 40, .width = 40, .class_id = cls,
                            .num_classes = 8, .seed = 3};
    spec.object_scale = obj_scale;
    const Image img = generateSyntheticImage(spec);
    EXPECT_EQ(img.height(), 40);
    for (size_t i = 0; i < img.numel(); ++i) {
        EXPECT_GE(img.data()[i], 0.0f);
        EXPECT_LE(img.data()[i], 1.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchetypes, SyntheticSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(0.2, 0.6, 1.1)));

} // namespace
} // namespace tamres
