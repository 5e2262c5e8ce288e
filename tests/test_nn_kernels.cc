/**
 * @file
 * Property tests for the convolution kernels: every optimized
 * implementation (direct tiled, im2col + blocked GEMM across blocking
 * parameters) must agree with the reference loop nest over a sweep of
 * problem shapes, and the GEMM's implicit B packing must equal a GEMM
 * over an explicitly built im2col matrix bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/conv_kernels.hh"
#include "nn/kernel_selector.hh"
#include "threads_env.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace tamres {
namespace {

struct KernelCase
{
    ConvProblem problem;
    ConvConfig config;
    const char *tag;
};

void
PrintTo(const KernelCase &c, std::ostream *os)
{
    *os << c.problem.key() << " / " << c.tag;
}

std::vector<float>
randomVec(size_t n, uint64_t seed, float scale = 1.0f)
{
    std::vector<float> v(n);
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-scale, scale));
    return v;
}

class ConvAgainstReference : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(ConvAgainstReference, MatchesReference)
{
    const ConvProblem &p = GetParam().problem;
    const ConvConfig &cfg = GetParam().config;
    ASSERT_TRUE(convConfigValid(p, cfg))
        << cfg.toString() << " invalid for " << p.key();

    const auto in = randomVec(
        static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, 1);
    const auto w = randomVec(static_cast<size_t>(p.oc) *
                             (p.ic / p.groups) * p.kh * p.kw, 2, 0.5f);
    const auto bias = randomVec(p.oc, 3);
    const size_t out_n =
        static_cast<size_t>(p.n) * p.oc * p.oh() * p.ow();
    std::vector<float> expect(out_n), got(out_n);

    convReference(p, in.data(), w.data(), bias.data(), expect.data());
    convForward(p, in.data(), w.data(), bias.data(), got.data(), cfg);

    float max_err = 0.0f;
    for (size_t i = 0; i < out_n; ++i)
        max_err = std::max(max_err, std::fabs(expect[i] - got[i]));
    EXPECT_LT(max_err, 2e-3f)
        << p.key() << " with " << cfg.toString();
}

std::vector<KernelCase>
kernelCases()
{
    std::vector<KernelCase> cases;
    // Shapes exercising: stride-2 stems, 1x1 projections, 3x3 interior
    // layers at several resolutions (even/odd widths force remainder
    // handling), depthwise, grouped, and degenerate sizes.
    const std::vector<ConvProblem> problems = {
        {.n = 1, .ic = 3, .ih = 33, .iw = 29, .oc = 8, .kh = 7, .kw = 7,
         .stride = 2, .pad = 3},
        {.n = 2, .ic = 8, .ih = 14, .iw = 14, .oc = 16, .kh = 3, .kw = 3,
         .stride = 1, .pad = 1},
        {.n = 1, .ic = 16, .ih = 15, .iw = 17, .oc = 8, .kh = 3, .kw = 3,
         .stride = 2, .pad = 1},
        {.n = 1, .ic = 12, .ih = 10, .iw = 10, .oc = 24, .kh = 1,
         .kw = 1, .stride = 1, .pad = 0},
        {.n = 1, .ic = 8, .ih = 9, .iw = 9, .oc = 8, .kh = 3, .kw = 3,
         .stride = 1, .pad = 1, .groups = 8}, // depthwise
        {.n = 1, .ic = 8, .ih = 12, .iw = 12, .oc = 12, .kh = 3, .kw = 3,
         .stride = 1, .pad = 1, .groups = 4}, // grouped
        {.n = 1, .ic = 4, .ih = 8, .iw = 8, .oc = 4, .kh = 5, .kw = 5,
         .stride = 1, .pad = 0}, // valid padding
        {.n = 1, .ic = 1, .ih = 1, .iw = 1, .oc = 1, .kh = 1, .kw = 1,
         .stride = 1, .pad = 0}, // degenerate
        {.n = 1, .ic = 6, .ih = 20, .iw = 7, .oc = 10, .kh = 3, .kw = 3,
         .stride = 2, .pad = 1}, // narrow, odd
    };
    const std::vector<std::pair<ConvConfig, const char *>> configs = {
        {{.algo = ConvAlgo::Direct, .oc_tile = 1, .ow_tile = 1},
         "direct-1x1"},
        {{.algo = ConvAlgo::Direct, .oc_tile = 4, .ow_tile = 8},
         "direct-4x8"},
        {{.algo = ConvAlgo::Direct, .oc_tile = 8, .ow_tile = 28},
         "direct-8x28"},
        {{.algo = ConvAlgo::Im2col, .mc = 8, .kc = 16, .nc = 32, .mr = 2,
          .nr = 4},
         "im2col-tiny"},
        {{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 128, .nc = 512,
          .mr = 4, .nr = 8},
         "im2col-default"},
        {{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 288, .nc = 3136,
          .mr = 4, .nr = 16},
         "im2col-library"},
        {{.algo = ConvAlgo::Im2col, .mc = 128, .kc = 512, .nc = 4096,
          .mr = 8, .nr = 16},
         "im2col-big"},
        {{.algo = ConvAlgo::Im2col, .mc = 16, .kc = 64, .nc = 256,
          .mr = 6, .nr = 8},
         "im2col-6x8"},
        // Regression: cache blocks NOT divisible by the micro-kernel
        // (panel padding exceeds mc/nc) once caused a heap overflow.
        {{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 48, .nc = 50,
          .mr = 6, .nr = 8},
         "im2col-ragged-panels"},
    };
    for (const auto &p : problems) {
        for (const auto &[cfg, tag] : configs)
            cases.push_back(KernelCase{p, cfg, tag});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvAgainstReference,
                         ::testing::ValuesIn(kernelCases()));

// --- Implicit B packing vs an explicit im2col matrix -----------------

/**
 * The im2col matrices of @p p's input laid out as the input of a
 * pointwise conv: image n, channel g * K + k for tap k = (ic, ky, kx)
 * of group g (K = icg * kh * kw), pixel (y, x) of the output grid;
 * taps in the padding are zero.
 */
std::vector<float>
im2colMatrices(const ConvProblem &p, const std::vector<float> &in)
{
    const int icg = p.ic / p.groups;
    const int K = icg * p.kh * p.kw;
    const int oh = p.oh();
    const int ow = p.ow();
    std::vector<float> col(static_cast<size_t>(p.n) * p.groups * K *
                           oh * ow);
    size_t i = 0;
    for (int n = 0; n < p.n; ++n)
        for (int c = 0; c < p.ic; ++c)
            for (int ky = 0; ky < p.kh; ++ky)
                for (int kx = 0; kx < p.kw; ++kx)
                    for (int y = 0; y < oh; ++y)
                        for (int x = 0; x < ow; ++x) {
                            const int iy = y * p.stride + ky - p.pad;
                            const int ix = x * p.stride + kx - p.pad;
                            const bool inside = iy >= 0 && iy < p.ih &&
                                                ix >= 0 && ix < p.iw;
                            col[i++] =
                                inside ? in[((static_cast<size_t>(n) *
                                                  p.ic +
                                              c) * p.ih + iy) * p.iw +
                                            ix]
                                       : 0.0f;
                        }
    return col;
}

TEST(ImplicitPacking, BitIdenticalToPointwiseOverIm2colMatrix)
{
    // A conv packs its B panels straight from the input. A pointwise
    // conv over the im2col matrices, with the same weights and config,
    // runs the same GEMM over B read as a plain matrix, so the two
    // outputs must be equal bit for bit. Widths 7 and 23 give ow < nr
    // and ow off a multiple of nr; kc = 5 cuts through (ky, kx) runs;
    // batch 3 at small outputs makes panels span several images.
    int cases = 0;
    for (const int k : {1, 3, 7})
    for (const int stride : {1, 2})
    for (const int pad : {0, 1, 3})
    for (const int groups : {1, 2})
    for (const int iw : {7, 23})
    for (const int batch : {1, 3}) {
        const ConvProblem p{.n = batch, .ic = 6, .ih = 9, .iw = iw,
                            .oc = 10, .kh = k, .kw = k,
                            .stride = stride, .pad = pad,
                            .groups = groups};
        const int K = (p.ic / groups) * k * k;
        const ConvProblem pw{.n = batch, .ic = groups * K, .ih = p.oh(),
                             .iw = p.ow(), .oc = p.oc, .kh = 1, .kw = 1,
                             .stride = 1, .pad = 0, .groups = groups};
        const auto in = randomVec(
            static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, 11 + k);
        const auto w =
            randomVec(static_cast<size_t>(p.oc) * K, 12 + k, 0.5f);
        const auto bias = randomVec(p.oc, 13);
        const auto col = im2colMatrices(p, in);
        const size_t out_n =
            static_cast<size_t>(p.n) * p.oc * p.oh() * p.ow();
        for (const int nr : {8, 16})
        for (const int kc : {5, 64})
        for (const int threads : {1, 4})
        for (const bool wide : {false, true}) {
            const ConvConfig cfg{.algo = ConvAlgo::Im2col, .mc = 16,
                                 .kc = kc, .nc = 40, .mr = 4, .nr = nr,
                                 .threads = threads};
            ASSERT_TRUE(convConfigValid(p, cfg));
            ThreadsEnv env(threads);
            SimdAvx512Guard guard(wide);
            std::vector<float> got(out_n), want(out_n);
            convForward(p, in.data(), w.data(), bias.data(), got.data(),
                        cfg);
            convForward(pw, col.data(), w.data(), bias.data(),
                        want.data(), cfg);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     out_n * sizeof(float)))
                << p.key() << " " << cfg.toString()
                << " avx512=" << simdAvx512();
            ++cases;
        }
    }
    EXPECT_EQ(cases, 3 * 2 * 3 * 2 * 2 * 2 * 16);
}

TEST(ConvProblem, OutputGeometry)
{
    const ConvProblem p{.n = 1, .ic = 3, .ih = 224, .iw = 224, .oc = 64,
                        .kh = 7, .kw = 7, .stride = 2, .pad = 3};
    EXPECT_EQ(p.oh(), 112);
    EXPECT_EQ(p.ow(), 112);
}

TEST(ConvProblem, MacsFormula)
{
    const ConvProblem p{.n = 2, .ic = 4, .ih = 8, .iw = 8, .oc = 6,
                        .kh = 3, .kw = 3, .stride = 1, .pad = 1};
    // 2 * 6 * 8 * 8 * 4 * 9
    EXPECT_EQ(p.macs(), 2LL * 6 * 8 * 8 * 4 * 9);
}

TEST(ConvProblem, GroupsReduceMacs)
{
    ConvProblem p{.n = 1, .ic = 8, .ih = 8, .iw = 8, .oc = 8, .kh = 3,
                  .kw = 3, .stride = 1, .pad = 1};
    const int64_t dense = p.macs();
    p.groups = 8;
    EXPECT_EQ(p.macs() * 8, dense);
}

TEST(ConvProblem, KeyIsStable)
{
    const ConvProblem p{.n = 1, .ic = 64, .ih = 56, .iw = 56, .oc = 64,
                        .kh = 3, .kw = 3, .stride = 1, .pad = 1};
    EXPECT_EQ(p.key(), "1x64x56x56_oc64_k3x3_s1_p1_g1");
}

TEST(ConvConfig, ValidityRules)
{
    const ConvProblem p{.n = 1, .ic = 4, .ih = 8, .iw = 8, .oc = 4,
                        .kh = 3, .kw = 3, .stride = 1, .pad = 1};
    EXPECT_TRUE(convConfigValid(
        p, {.algo = ConvAlgo::Direct, .oc_tile = 8, .ow_tile = 32}));
    EXPECT_FALSE(convConfigValid(
        p, {.algo = ConvAlgo::Direct, .oc_tile = 9, .ow_tile = 8}));
    EXPECT_FALSE(convConfigValid(
        p, {.algo = ConvAlgo::Im2col, .mr = 3, .nr = 8})); // no 3-row uK
    EXPECT_TRUE(convConfigValid(
        p, {.algo = ConvAlgo::Im2col, .mr = 6, .nr = 16}));
}

TEST(ConvNullBias, TreatedAsZero)
{
    const ConvProblem p{.n = 1, .ic = 2, .ih = 6, .iw = 6, .oc = 3,
                        .kh = 3, .kw = 3, .stride = 1, .pad = 1};
    const auto in = randomVec(
        static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, 4);
    const auto w = randomVec(
        static_cast<size_t>(p.oc) * p.ic * p.kh * p.kw, 5);
    const std::vector<float> zero_bias(p.oc, 0.0f);
    std::vector<float> with_zero(p.oc * 36), with_null(p.oc * 36);
    convReference(p, in.data(), w.data(), zero_bias.data(),
                  with_zero.data());
    convReference(p, in.data(), w.data(), nullptr, with_null.data());
    for (size_t i = 0; i < with_zero.size(); ++i)
        EXPECT_EQ(with_zero[i], with_null[i]);
}

TEST(KernelSelector, ModesResolve)
{
    KernelSelector &sel = KernelSelector::instance();
    const ConvProblem p{.n = 1, .ic = 64, .ih = 56, .iw = 56, .oc = 64,
                        .kh = 3, .kw = 3, .stride = 1, .pad = 1};
    sel.setMode(KernelMode::Naive);
    EXPECT_EQ(sel.select(p).algo, ConvAlgo::Reference);
    sel.setMode(KernelMode::Library);
    EXPECT_EQ(sel.select(p).algo, ConvAlgo::Im2col);
    sel.setMode(KernelMode::Tuned);
    // No registration yet: falls back to the library config.
    EXPECT_EQ(sel.select(p), KernelSelector::libraryConfig(p));
    const ConvConfig tuned{.algo = ConvAlgo::Direct, .oc_tile = 2,
                           .ow_tile = 7};
    sel.registerTuned(p, tuned);
    EXPECT_TRUE(sel.hasTuned(p));
    EXPECT_EQ(sel.select(p), tuned);
    sel.clearTuned();
    sel.setMode(KernelMode::Library);
}

TEST(KernelSelector, GroupedLibraryUsesDirect)
{
    const ConvProblem dw{.n = 1, .ic = 32, .ih = 28, .iw = 28, .oc = 32,
                         .kh = 3, .kw = 3, .stride = 1, .pad = 1,
                         .groups = 32};
    EXPECT_EQ(KernelSelector::libraryConfig(dw).algo, ConvAlgo::Direct);
}

} // namespace
} // namespace tamres
