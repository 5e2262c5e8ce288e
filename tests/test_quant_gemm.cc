/**
 * @file
 * Edge-tail, dispatch, and overflow tests for the int8 quantized GEMM
 * path (convForwardInt8Gemm + quad-K packed panels).
 *
 * The planned int8 path promises BITWISE identity — not tolerance —
 * across every axis that reorders work: SIMD dispatch level (scalar /
 * AVX2 vpmaddwd / AVX512-VNNI vpdpbusd / NEON), the VNNI sub-switch,
 * prepacked vs on-the-fly weight packing, cache blocking, thread
 * count, and batch size. Integer accumulation is exact and
 * order-independent and the fp32 epilogue is one fixed expression, so
 * every run of the same problem must produce the same bytes. These
 * tests memcmp, never approx-compare; the naive reference kernel
 * (convForwardInt8) is the oracle.
 *
 * Shapes follow test_gemm_micro: extents deliberately not divisible
 * by any mr/nr or the kc in play, forcing row, column, k and quad-K
 * padding tails through every micro-kernel.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/conv_kernels.hh"
#include "nn/quant.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace tamres {
namespace {

std::vector<float>
randomVec(size_t n, uint64_t seed, float scale = 1.0f)
{
    std::vector<float> v(n);
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-scale, scale));
    return v;
}

/** Levels available in this process (deduplicated). */
std::vector<SimdLevel>
levels()
{
    std::vector<SimdLevel> out{SimdLevel::Scalar};
    if (simdDetected() != SimdLevel::Scalar)
        out.push_back(simdDetected());
    return out;
}

/** All (mr, nr) pairs the int8 validity predicate accepts. */
std::vector<std::pair<int, int>>
supportedInt8MicroShapes()
{
    const ConvProblem p{.n = 1, .ic = 4, .ih = 1, .iw = 8, .oc = 4,
                        .kh = 1, .kw = 1, .stride = 1, .pad = 0};
    std::vector<std::pair<int, int>> out;
    for (int mr : {1, 2, 4, 6, 8}) {
        for (int nr : {4, 8, 16}) {
            ConvConfig cfg;
            cfg.algo = ConvAlgo::Im2col;
            cfg.mr = mr;
            cfg.nr = nr;
            if (convConfigValidInt8(p, cfg))
                out.emplace_back(mr, nr);
        }
    }
    return out;
}

/** Per-output-channel weight quantization, the QuantConv2d scheme. */
void
quantizeWeights(const std::vector<float> &w, int oc, int K,
                std::vector<int8_t> &wq, std::vector<float> &scales)
{
    wq.resize(w.size());
    scales.resize(static_cast<size_t>(oc));
    for (int m = 0; m < oc; ++m) {
        const float *row = w.data() + static_cast<size_t>(m) * K;
        scales[static_cast<size_t>(m)] =
            symmetricScale(maxAbsValue(row, static_cast<size_t>(K)));
        quantizeSymmetric(row, static_cast<size_t>(K),
                          scales[static_cast<size_t>(m)],
                          wq.data() + static_cast<size_t>(m) * K);
    }
}

/** Per-image dynamic activation quantization, the oracle's rule. */
void
quantizeInput(const ConvProblem &p, const std::vector<float> &in,
              std::vector<int8_t> &qin, std::vector<float> &scales)
{
    const size_t per = static_cast<size_t>(p.ic) * p.ih * p.iw;
    qin.resize(static_cast<size_t>(p.n) * per);
    scales.resize(static_cast<size_t>(p.n));
    for (int n = 0; n < p.n; ++n) {
        const float *src = in.data() + static_cast<size_t>(n) * per;
        scales[static_cast<size_t>(n)] =
            symmetricScale(maxAbsValue(src, per));
        quantizeSymmetric(src, per, scales[static_cast<size_t>(n)],
                          qin.data() + static_cast<size_t>(n) * per);
    }
}

// Awkward extents (mirrors test_gemm_micro): not divisible by any mr
// (1,2,4,8), nr (8,16), the kc values used below, or 4 (the quad-K
// interleave), forcing every padding tail.
constexpr int kM = 13;
constexpr int kN = 23;
constexpr int kK = 37;

ConvConfig
int8Config(int mr, int nr, int kc = 16)
{
    ConvConfig cfg;
    cfg.algo = ConvAlgo::Im2col;
    cfg.mr = mr;
    cfg.nr = nr;
    cfg.mc = 8;  // not divisible by mr=8? equal - still ragged vs M=13
    cfg.kc = kc;
    cfg.nc = 20; // not divisible by nr -> ragged B panels
    cfg.threads = 1;
    return cfg;
}

/**
 * Run the int8 GEMM via a 1x1 pointwise conv (M=oc, K=ic, N=ih*iw):
 * exactly one blocked GEMM, its B panels packed from the input planes
 * read as a K x N matrix.
 */
void
int8GemmViaConv(int M, int N, int K, const ConvConfig &cfg,
                bool prepack, uint64_t seed, std::vector<float> &out)
{
    const ConvProblem p{.n = 1, .ic = K, .ih = 1, .iw = N, .oc = M,
                        .kh = 1, .kw = 1, .stride = 1, .pad = 0};
    ASSERT_TRUE(convConfigValidInt8(p, cfg)) << cfg.toString();

    const std::vector<float> w = randomVec(
        static_cast<size_t>(M) * K, seed, 0.5f);
    const std::vector<float> in = randomVec(
        static_cast<size_t>(K) * N, seed + 1);
    const std::vector<float> bias = randomVec(
        static_cast<size_t>(M), seed + 2, 0.1f);

    std::vector<int8_t> wq;
    std::vector<float> w_scales;
    quantizeWeights(w, M, K, wq, w_scales);
    std::vector<int8_t> qin;
    std::vector<float> act_scales;
    quantizeInput(p, in, qin, act_scales);

    QuantConvEpilogue epi;
    epi.w_scales = w_scales.data();
    epi.bias = bias.data();
    epi.act_scales = act_scales.data();
    epi.relu = (seed % 2) == 0;

    PackedConvWeights packed;
    if (prepack) {
        packConvWeightsInt8(p, cfg, wq.data(), packed);
        ASSERT_TRUE(packed.valid && packed.quantized);
    }
    out.assign(static_cast<size_t>(M) * N, -1e30f);
    convForwardInt8Gemm(p, qin.data(), epi, wq.data(),
                        prepack ? &packed : nullptr, out.data(), cfg);
}

TEST(QuantGemm, EdgeTailsBitwiseIdenticalAcrossDispatchLevels)
{
    const auto shapes = supportedInt8MicroShapes();
    ASSERT_FALSE(shapes.empty());
    for (const auto &[mr, nr] : shapes) {
        for (const int kc : {16, kK}) { // kc=37: k tail not mult of 4
            const ConvConfig cfg = int8Config(mr, nr, kc);
            std::vector<float> want;
            {
                SimdLevelGuard guard(SimdLevel::Scalar);
                int8GemmViaConv(kM, kN, kK, cfg, false, 7, want);
            }
            for (const SimdLevel lvl : levels()) {
                for (const bool vnni : {false, true}) {
                    SimdLevelGuard guard(lvl);
                    SimdVnniGuard vguard(vnni);
                    std::vector<float> got;
                    int8GemmViaConv(kM, kN, kK, cfg, false, 7, got);
                    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                             want.size() *
                                                 sizeof(float)))
                        << "mr=" << mr << " nr=" << nr << " kc=" << kc
                        << " level=" << simdLevelName(lvl)
                        << " vnni=" << vnni;
                }
            }
        }
    }
}

TEST(QuantGemm, PrepackedBitwiseIdenticalToOnTheFly)
{
    const auto shapes = supportedInt8MicroShapes();
    for (const auto &[mr, nr] : shapes) {
        const ConvConfig cfg = int8Config(mr, nr);
        for (const SimdLevel lvl : levels()) {
            SimdLevelGuard guard(lvl);
            std::vector<float> unpacked, prepacked;
            int8GemmViaConv(kM, kN, kK, cfg, false, 11, unpacked);
            int8GemmViaConv(kM, kN, kK, cfg, true, 11, prepacked);
            ASSERT_EQ(0, std::memcmp(unpacked.data(), prepacked.data(),
                                     unpacked.size() * sizeof(float)))
                << "mr=" << mr << " nr=" << nr
                << " level=" << simdLevelName(lvl);
        }
    }
}

/**
 * Bitwise-compare the planned int8 path on @p p against the naive
 * oracle (convForwardInt8) over both panel widths, k blocks that split
 * a quad across a (ky, kx) run (kc 5), leave a k tail (kc 37) or take
 * the default blocking, the serial and threaded partitions, and every
 * level x VNNI setting.
 */
void
expectPlannedMatchesOracle(const ConvProblem &p, uint64_t seed)
{
    const int K = p.ic * p.kh * p.kw;
    const std::vector<float> w = randomVec(
        static_cast<size_t>(p.oc) * K, seed, 0.5f);
    const std::vector<float> in = randomVec(
        static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, seed + 1);
    const std::vector<float> bias = randomVec(
        static_cast<size_t>(p.oc), seed + 2, 0.1f);

    std::vector<int8_t> wq;
    std::vector<float> w_scales;
    quantizeWeights(w, p.oc, K, wq, w_scales);
    std::vector<int8_t> qin;
    std::vector<float> act_scales;
    quantizeInput(p, in, qin, act_scales);

    const size_t out_n = static_cast<size_t>(p.n) * p.oc * p.oh() *
                         p.ow();
    std::vector<float> want(out_n);
    convForwardInt8(p, in.data(), 0.0f, wq.data(), w_scales.data(),
                    bias.data(), /*fused_relu=*/true, want.data());

    QuantConvEpilogue epi;
    epi.w_scales = w_scales.data();
    epi.bias = bias.data();
    epi.act_scales = act_scales.data();
    epi.relu = true;

    for (const int nr : {8, 16}) {
        for (const int kc : {5, 37, ConvConfig{}.kc}) {
            for (const int threads : {1, 4}) {
                ConvConfig cfg; // otherwise the default int8 blocking
                cfg.nr = nr;
                cfg.kc = kc;
                cfg.threads = threads;
                ASSERT_TRUE(convConfigValidInt8(p, cfg));
                PackedConvWeights packed;
                packConvWeightsInt8(p, cfg, wq.data(), packed);
                for (const SimdLevel lvl : levels()) {
                    for (const bool vnni : {false, true}) {
                        SimdLevelGuard guard(lvl);
                        SimdVnniGuard vguard(vnni);
                        std::vector<float> got(out_n, -1e30f);
                        convForwardInt8Gemm(p, qin.data(), epi,
                                            wq.data(), &packed,
                                            got.data(), cfg);
                        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                                 out_n * sizeof(float)))
                            << "nr=" << nr << " kc=" << kc
                            << " threads=" << threads
                            << " level=" << simdLevelName(lvl)
                            << " vnni=" << vnni;
                    }
                }
            }
        }
    }
}

TEST(QuantGemm, PlannedPathBitwiseMatchesNaiveOracle)
{
    // Real spatial convs with awkward extents, whose quad-K B panels
    // are packed straight from the quantized input: every tap geometry
    // (kernel 1/3/7 x stride 1/2 x pad 0/1/3), widths below nr and off
    // a multiple of it (7, 23), and panels that cross an image
    // boundary (batch 3).
    uint64_t seed = 21;
    for (const int k : {1, 3, 7}) {
        for (const int stride : {1, 2}) {
            for (const int pad : {0, 1, 3}) {
                for (const int width : {7, 23}) {
                    for (const int batch : {1, 3}) {
                        const ConvProblem p{
                            .n = batch, .ic = 5, .ih = 9, .iw = width,
                            .oc = 13, .kh = k, .kw = k,
                            .stride = stride, .pad = pad};
                        SCOPED_TRACE(p.key());
                        expectPlannedMatchesOracle(p, seed += 3);
                        if (HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(QuantGemm, BatchNBitwiseEqualsNTimesBatchOne)
{
    // Per-image dynamic scales: each image quantizes on its own max,
    // so a batch-N run must reproduce N batch-1 runs exactly. The
    // whole batch is one merged-column GEMM: batch 33 and the 56x56
    // batch of 10 (an implicit im2col matrix of 8.6 Mi values) check
    // that no batch-size or matrix-size limit splits it.
    const ConvProblem shapes[] = {
        {.n = 3, .ic = 6, .ih = 11, .iw = 11, .oc = 10, .kh = 3,
         .kw = 3, .stride = 1, .pad = 1},
        {.n = 33, .ic = 6, .ih = 11, .iw = 11, .oc = 10, .kh = 3,
         .kw = 3, .stride = 1, .pad = 1},
        {.n = 10, .ic = 32, .ih = 56, .iw = 56, .oc = 8, .kh = 3,
         .kw = 3, .stride = 1, .pad = 1},
    };
    for (const ConvProblem &p : shapes) {
        SCOPED_TRACE(p.key());
        const int K = p.ic * p.kh * p.kw;
        const std::vector<float> w = randomVec(
            static_cast<size_t>(p.oc) * K, 31, 0.5f);
        const std::vector<float> in = randomVec(
            static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, 32);

        std::vector<int8_t> wq;
        std::vector<float> w_scales;
        quantizeWeights(w, p.oc, K, wq, w_scales);

        const size_t per_out =
            static_cast<size_t>(p.oc) * p.oh() * p.ow();
        std::vector<float> batched(static_cast<size_t>(p.n) * per_out);
        convForwardInt8(p, in.data(), 0.0f, wq.data(), w_scales.data(),
                        nullptr, false, batched.data());

        std::vector<int8_t> qin;
        std::vector<float> act_scales;
        quantizeInput(p, in, qin, act_scales);
        ConvConfig cfg;
        QuantConvEpilogue epi;
        epi.w_scales = w_scales.data();
        epi.bias = nullptr;
        epi.act_scales = act_scales.data();
        epi.relu = false;

        std::vector<float> planned(batched.size(), -1e30f);
        convForwardInt8Gemm(p, qin.data(), epi, wq.data(), nullptr,
                            planned.data(), cfg);
        ASSERT_EQ(0, std::memcmp(planned.data(), batched.data(),
                                 batched.size() * sizeof(float)));

        // Per-image runs of the planned path, byte-compared slice-wise.
        ConvProblem p1 = p;
        p1.n = 1;
        const size_t per_in = static_cast<size_t>(p.ic) * p.ih * p.iw;
        for (int n = 0; n < p.n; ++n) {
            QuantConvEpilogue e1 = epi;
            e1.act_scales = act_scales.data() + n;
            std::vector<float> one(per_out, -1e30f);
            convForwardInt8Gemm(p1, qin.data() + n * per_in, e1,
                                wq.data(), nullptr, one.data(), cfg);
            ASSERT_EQ(0, std::memcmp(one.data(),
                                     planned.data() + n * per_out,
                                     per_out * sizeof(float)))
                << "image " << n;
        }
    }
}

TEST(QuantGemm, Int32AccumulatorSurvivesDeepestBackboneReduction)
{
    // The deepest reduction a backbone poses: 512 channels x 3x3
    // (K = 4608). Constant same-sign inputs and weights quantize to
    // +-127 everywhere, so every accumulator reaches the analytic
    // worst case K * 127 * 127 = 74,322,432 — far under 2^31, and the
    // test would see wraparound as a sign flip.
    ConvProblem p;
    p.n = 1;
    p.ic = 512;
    p.ih = p.iw = 3;
    p.oc = 2;
    p.kh = p.kw = 3;
    p.stride = 1;
    p.pad = 1;
    const int K = p.ic * p.kh * p.kw;

    std::vector<float> w(static_cast<size_t>(p.oc) * K, 1.0f);
    std::vector<float> in(static_cast<size_t>(p.ic) * p.ih * p.iw,
                          1.0f);
    std::vector<int8_t> wq;
    std::vector<float> w_scales;
    quantizeWeights(w, p.oc, K, wq, w_scales);
    std::vector<int8_t> qin;
    std::vector<float> act_scales;
    quantizeInput(p, in, qin, act_scales);

    QuantConvEpilogue epi;
    epi.w_scales = w_scales.data();
    epi.bias = nullptr;
    epi.act_scales = act_scales.data();
    epi.relu = false;

    const size_t out_n = static_cast<size_t>(p.oc) * p.oh() * p.ow();
    std::vector<float> want(out_n);
    convForwardInt8(p, in.data(), 0.0f, wq.data(), w_scales.data(),
                    nullptr, false, want.data());

    ConvConfig cfg;
    for (const SimdLevel lvl : levels()) {
        for (const bool vnni : {false, true}) {
            SimdLevelGuard guard(lvl);
            SimdVnniGuard vguard(vnni);
            std::vector<float> got(out_n, -1e30f);
            convForwardInt8Gemm(p, qin.data(), epi, wq.data(), nullptr,
                                got.data(), cfg);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     out_n * sizeof(float)))
                << "level=" << simdLevelName(lvl) << " vnni=" << vnni;
            // The center pixel sees the full K-deep window: its value
            // must equal the analytic accumulator, positive and huge.
            const int center = p.oh() * p.ow() / 2;
            const float analytic = static_cast<float>(K) * 127.0f *
                                   127.0f *
                                   (act_scales[0] * w_scales[0]);
            EXPECT_GT(got[static_cast<size_t>(center)], 0.0f);
            EXPECT_FLOAT_EQ(analytic,
                            got[static_cast<size_t>(center)]);
        }
    }
}

TEST(QuantGemm, PackCountMovesOnPackNotOnPrepackedForward)
{
    const ConvProblem p{.n = 1, .ic = kK, .ih = 1, .iw = kN, .oc = kM,
                        .kh = 1, .kw = 1, .stride = 1, .pad = 0};
    ConvConfig cfg;
    ASSERT_TRUE(convConfigValidInt8(p, cfg));

    const std::vector<float> w = randomVec(
        static_cast<size_t>(kM) * kK, 41, 0.5f);
    const std::vector<float> in = randomVec(
        static_cast<size_t>(kK) * kN, 42);
    std::vector<int8_t> wq;
    std::vector<float> w_scales;
    quantizeWeights(w, kM, kK, wq, w_scales);
    std::vector<int8_t> qin;
    std::vector<float> act_scales;
    quantizeInput(p, in, qin, act_scales);
    QuantConvEpilogue epi;
    epi.w_scales = w_scales.data();
    epi.bias = nullptr;
    epi.act_scales = act_scales.data();

    const uint64_t before_pack = convWeightPackCount();
    PackedConvWeights packed;
    packConvWeightsInt8(p, cfg, wq.data(), packed);
    EXPECT_GT(convWeightPackCount(), before_pack);

    std::vector<float> out(static_cast<size_t>(kM) * kN);
    const uint64_t steady = convWeightPackCount();
    for (int rep = 0; rep < 3; ++rep)
        convForwardInt8Gemm(p, qin.data(), epi, wq.data(), &packed,
                            out.data(), cfg);
    EXPECT_EQ(steady, convWeightPackCount())
        << "prepacked int8 forward must not repack weights";
}

} // namespace
} // namespace tamres
