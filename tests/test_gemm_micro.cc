/**
 * @file
 * Edge-tail and dispatch tests for the GEMM micro-kernels.
 *
 * Every supported (mr, nr) micro-kernel — scalar template and the
 * runtime-dispatched SIMD variants — is exercised through the blocked
 * GEMM (via a 1x1 pointwise convolution, which lowers to exactly one
 * GEMM per call) at M/N/K deliberately not divisible by mr/nr/kc, and
 * checked three ways:
 *
 *  1. element-exact against an in-test reference loop nest that
 *     mirrors the documented accumulation order (k ascending within
 *     each kc block, one add into C per block) — for the scalar
 *     dispatch level, where both sides use the same unfused (or
 *     platform-contracted) multiply-add;
 *  2. element-exact across cache blockings (mc/nc sweeps at a fixed
 *     micro-kernel and kc): a packing or edge-tile bug shows up as a
 *     bitwise difference;
 *  3. within tolerance of the reference at every available dispatch
 *     level (the FMA paths round differently but must agree closely).
 *
 * Also verifies prepacked-weight execution is bit-identical to the
 * on-the-fly packing path for both im2col and winograd, that the
 * forced-scalar override actually changes the dispatch, and — on
 * AVX-512F hosts — that the 512-bit nr == 16 GEMM tiles are bitwise
 * equal to the 256-bit AVX2 path across every tail the macro-kernel
 * has (column, row, k, image-boundary, thread-partition).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "nn/conv_kernels.hh"
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

/** All (mr, nr) pairs the validity predicate accepts. */
std::vector<std::pair<int, int>>
supportedMicroShapes()
{
    const ConvProblem p{.n = 1, .ic = 4, .ih = 8, .iw = 8, .oc = 4,
                        .kh = 1, .kw = 1, .stride = 1, .pad = 0};
    std::vector<std::pair<int, int>> out;
    for (int mr : {1, 2, 4, 6, 8}) {
        for (int nr : {4, 8, 16}) {
            ConvConfig cfg;
            cfg.algo = ConvAlgo::Im2col;
            cfg.mr = mr;
            cfg.nr = nr;
            if (convConfigValid(p, cfg))
                out.emplace_back(mr, nr);
        }
    }
    return out;
}

/**
 * GEMM through the public conv API: a 1x1/stride-1/no-pad conv is a
 * plain C[M x N] = A[M x K] * B[K x N] with no im2col copy, so the
 * blocked GEMM (packing, tails, micro dispatch) is what runs.
 */
void
gemmViaConv(int M, int N, int K, const float *a, const float *b,
            float *c, const ConvConfig &cfg)
{
    // N must factor as ih*iw; use ih=1, iw=N.
    const ConvProblem p{.n = 1, .ic = K, .ih = 1, .iw = N, .oc = M,
                        .kh = 1, .kw = 1, .stride = 1, .pad = 0};
    ASSERT_TRUE(convConfigValid(p, cfg)) << cfg.toString();
    convForward(p, b, a, nullptr, c, cfg);
}

/**
 * Reference loop nest with the documented blocked accumulation order:
 * within a kc block k ascends with one multiply-add per step; each
 * block contributes one add into C.
 */
void
referenceGemm(int M, int N, int K, int kc, const float *a,
              const float *b, float *c)
{
    for (int i = 0; i < M; ++i) {
        for (int j = 0; j < N; ++j) {
            float total = 0.0f;
            for (int pc = 0; pc < K; pc += kc) {
                const int kb = std::min(kc, K - pc);
                float partial = 0.0f;
                for (int k = 0; k < kb; ++k)
                    partial += a[static_cast<int64_t>(i) * K + pc + k] *
                               b[static_cast<int64_t>(pc + k) * N + j];
                total += partial;
            }
            c[static_cast<int64_t>(i) * N + j] = total;
        }
    }
}

// Awkward extents: not divisible by any mr (1,2,4,6,8), nr (4,8,16),
// or the kc used below (16), forcing row, column, and k tails.
constexpr int kM = 13;
constexpr int kN = 23;
constexpr int kK = 37;
constexpr int kKc = 16;

ConvConfig
microConfig(int mr, int nr)
{
    ConvConfig cfg;
    cfg.algo = ConvAlgo::Im2col;
    cfg.mr = mr;
    cfg.nr = nr;
    cfg.mc = 8;  // not divisible by mr=6 -> ragged A panels
    cfg.kc = kKc;
    cfg.nc = 20; // not divisible by nr=8/16 -> ragged B panels
    cfg.threads = 1;
    return cfg;
}

TEST(GemmMicro, ScalarDispatchElementExactVsReferenceNest)
{
    const auto a = randomVec(static_cast<size_t>(kM) * kK, 1, 0.5f);
    const auto b = randomVec(static_cast<size_t>(kK) * kN, 2);
    std::vector<float> ref(static_cast<size_t>(kM) * kN);
    referenceGemm(kM, kN, kK, kKc, a.data(), b.data(), ref.data());

    SimdLevelGuard guard(SimdLevel::Scalar);
    for (const auto &[mr, nr] : supportedMicroShapes()) {
        std::vector<float> c(static_cast<size_t>(kM) * kN);
        gemmViaConv(kM, kN, kK, a.data(), b.data(), c.data(),
                    microConfig(mr, nr));
        EXPECT_EQ(0, std::memcmp(c.data(), ref.data(),
                                 c.size() * sizeof(float)))
            << "scalar micro " << mr << "x" << nr
            << " not element-exact vs the reference nest";
    }
}

TEST(GemmMicro, EveryLevelCloseToReference)
{
    const auto a = randomVec(static_cast<size_t>(kM) * kK, 3, 0.5f);
    const auto b = randomVec(static_cast<size_t>(kK) * kN, 4);
    std::vector<float> ref(static_cast<size_t>(kM) * kN);
    referenceGemm(kM, kN, kK, kKc, a.data(), b.data(), ref.data());

    for (SimdLevel lvl : levels()) {
        SimdLevelGuard guard(lvl);
        for (const auto &[mr, nr] : supportedMicroShapes()) {
            std::vector<float> c(static_cast<size_t>(kM) * kN);
            gemmViaConv(kM, kN, kK, a.data(), b.data(), c.data(),
                        microConfig(mr, nr));
            float err = 0.0f;
            for (size_t i = 0; i < c.size(); ++i)
                err = std::max(err, std::fabs(c[i] - ref[i]));
            EXPECT_LT(err, 1e-4f)
                << simdLevelName(lvl) << " micro " << mr << "x" << nr;
        }
    }
}

TEST(GemmMicro, CacheBlockingSweepBitIdenticalPerKernel)
{
    // At a fixed micro-kernel, kc, and dispatch level, every mc/nc
    // blocking must produce bitwise-identical results: per element the
    // arithmetic sequence is the same, so any difference is a packing
    // or edge-tile indexing bug.
    const auto a = randomVec(static_cast<size_t>(kM) * kK, 5, 0.5f);
    const auto b = randomVec(static_cast<size_t>(kK) * kN, 6);
    for (SimdLevel lvl : levels()) {
        SimdLevelGuard guard(lvl);
        for (const auto &[mr, nr] : supportedMicroShapes()) {
            std::vector<float> base;
            for (const auto &[mc, nc] :
                 {std::pair{8, 20}, {64, 512}, {13, 23}, {5, 7}}) {
                ConvConfig cfg = microConfig(mr, nr);
                cfg.mc = mc;
                cfg.nc = nc;
                std::vector<float> c(static_cast<size_t>(kM) * kN);
                gemmViaConv(kM, kN, kK, a.data(), b.data(), c.data(),
                            cfg);
                if (base.empty()) {
                    base = c;
                    continue;
                }
                EXPECT_EQ(0, std::memcmp(c.data(), base.data(),
                                         c.size() * sizeof(float)))
                    << simdLevelName(lvl) << " micro " << mr << "x"
                    << nr << " mc=" << mc << " nc=" << nc;
            }
        }
    }
}

TEST(GemmMicro, SimdBeatsOrMatchesNothingButStaysDeterministic)
{
    // Two runs at the same level must agree bitwise (determinism), and
    // forcing scalar must actually change the dispatch on SIMD hosts:
    // with FMA vs unfused multiply-add the 37-term reductions are
    // overwhelmingly unlikely to collide on random data.
    const auto a = randomVec(static_cast<size_t>(kM) * kK, 7, 0.5f);
    const auto b = randomVec(static_cast<size_t>(kK) * kN, 8);
    const ConvConfig cfg = microConfig(4, 8);

    std::vector<float> c1(static_cast<size_t>(kM) * kN);
    std::vector<float> c2(c1.size());
    gemmViaConv(kM, kN, kK, a.data(), b.data(), c1.data(), cfg);
    gemmViaConv(kM, kN, kK, a.data(), b.data(), c2.data(), cfg);
    EXPECT_EQ(0,
              std::memcmp(c1.data(), c2.data(),
                          c1.size() * sizeof(float)));

    if (simdDetected() == SimdLevel::Scalar)
        GTEST_SKIP() << "no SIMD level on this host";
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
    // Built with FMA codegen enabled (e.g. -DTAMRES_NATIVE=ON): the
    // compiler may contract the scalar micro-kernel's multiply-adds
    // into the same fused sequence the SIMD kernel uses, making the
    // two paths legitimately bit-identical — the NE check below would
    // then report a false dispatch failure.
    GTEST_SKIP() << "scalar path may be FMA-contracted in this build";
#endif
    std::vector<float> scalar_c(c1.size());
    {
        SimdLevelGuard guard(SimdLevel::Scalar);
        gemmViaConv(kM, kN, kK, a.data(), b.data(), scalar_c.data(),
                    cfg);
    }
    std::vector<float> simd_c(c1.size());
    {
        SimdLevelGuard guard(simdDetected());
        gemmViaConv(kM, kN, kK, a.data(), b.data(), simd_c.data(),
                    cfg);
    }
    EXPECT_NE(0, std::memcmp(scalar_c.data(), simd_c.data(),
                             simd_c.size() * sizeof(float)))
        << "forced-scalar dispatch produced the SIMD path's bits — "
           "the override is not reaching microDispatch";
}

TEST(GemmMicro, PrepackedConvBitIdenticalToOnTheFly)
{
    // im2col (grouped to cover per-group packs) and winograd, both at
    // awkward spatial extents; the prepacked path must match the
    // per-call packing path bit for bit at every level.
    const ConvProblem im2col_p{.n = 1, .ic = 6, .ih = 9, .iw = 11,
                               .oc = 10, .kh = 3, .kw = 3, .stride = 1,
                               .pad = 1, .groups = 2};
    const ConvProblem wino_p{.n = 1, .ic = 8, .ih = 13, .iw = 9,
                             .oc = 6, .kh = 3, .kw = 3, .stride = 1,
                             .pad = 1, .groups = 1};
    for (SimdLevel lvl : levels()) {
        SimdLevelGuard guard(lvl);
        for (const ConvProblem &p : {im2col_p, wino_p}) {
            ConvConfig cfg = microConfig(6, 8);
            cfg.algo = p.groups == 1 ? ConvAlgo::Winograd
                                     : ConvAlgo::Im2col;
            ASSERT_TRUE(convConfigValid(p, cfg));
            const auto in = randomVec(
                static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, 11);
            const auto w = randomVec(static_cast<size_t>(p.oc) *
                                         (p.ic / p.groups) * p.kh *
                                         p.kw,
                                     12, 0.5f);
            const auto bias = randomVec(p.oc, 13);
            const size_t out_n = static_cast<size_t>(p.n) * p.oc *
                                 p.oh() * p.ow();
            std::vector<float> plain(out_n), packed_out(out_n);
            convForward(p, in.data(), w.data(), bias.data(),
                        plain.data(), cfg);

            PackedConvWeights packed;
            packConvWeights(p, cfg, w.data(), packed);
            ASSERT_TRUE(packed.valid);
            convForwardPrepacked(p, in.data(), packed, bias.data(),
                                 packed_out.data());
            EXPECT_EQ(0, std::memcmp(plain.data(), packed_out.data(),
                                     out_n * sizeof(float)))
                << simdLevelName(lvl) << " "
                << convAlgoName(cfg.algo);
        }
    }
}

TEST(GemmMicro, PackCountMovesOnlyOnPack)
{
    const ConvProblem p{.n = 1, .ic = 5, .ih = 1, .iw = 17, .oc = 7,
                        .kh = 1, .kw = 1, .stride = 1, .pad = 0};
    ConvConfig cfg = microConfig(4, 8);
    const auto in = randomVec(static_cast<size_t>(p.ic) * p.iw, 21);
    const auto w = randomVec(static_cast<size_t>(p.oc) * p.ic, 22);
    std::vector<float> out(static_cast<size_t>(p.oc) * p.iw);

    const uint64_t before = convWeightPackCount();
    convForward(p, in.data(), w.data(), nullptr, out.data(), cfg);
    EXPECT_GT(convWeightPackCount(), before)
        << "on-the-fly GEMM must count its A packs";

    PackedConvWeights packed;
    packConvWeights(p, cfg, w.data(), packed);
    ASSERT_TRUE(packed.valid);
    const uint64_t steady = convWeightPackCount();
    convForwardPrepacked(p, in.data(), packed, nullptr, out.data());
    convForwardPrepacked(p, in.data(), packed, nullptr, out.data());
    EXPECT_EQ(convWeightPackCount(), steady)
        << "prepacked execution must not pack weights";
}

// --- 512-bit tiles vs the 256-bit path ------------------------------

/**
 * One conv at the Avx2 level with the AVX-512F GEMM tiles on or off,
 * through the on-the-fly (@p packed == nullptr) or prepacked path.
 */
std::vector<float>
runAvx2(const ConvProblem &p, const ConvConfig &cfg, bool wide,
        const std::vector<float> &in, const std::vector<float> &w,
        const std::vector<float> &bias, const PackedConvWeights *packed)
{
    SimdLevelGuard level(SimdLevel::Avx2);
    SimdAvx512Guard guard(wide);
    std::vector<float> out(static_cast<size_t>(p.n) * p.oc * p.oh() *
                           p.ow());
    if (packed)
        convForwardPrepacked(p, in.data(), *packed, bias.data(),
                             out.data());
    else
        convForward(p, in.data(), w.data(), bias.data(), out.data(),
                    cfg);
    return out;
}

/**
 * Expect the 512-bit and 256-bit paths to agree bitwise on (@p p,
 * @p cfg), on-the-fly and prepacked, at 1 and 4 threads.
 */
void
expectWideMatchesAvx2(const ConvProblem &p, ConvConfig cfg,
                      uint64_t seed)
{
    ASSERT_TRUE(convConfigValid(p, cfg)) << cfg.toString();
    const auto in = randomVec(
        static_cast<size_t>(p.n) * p.ic * p.ih * p.iw, seed);
    const auto w = randomVec(static_cast<size_t>(p.oc) *
                                 (p.ic / p.groups) * p.kh * p.kw,
                             seed + 1, 0.5f);
    const auto bias = randomVec(p.oc, seed + 2);
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        PackedConvWeights packed;
        packConvWeights(p, cfg, w.data(), packed);
        ASSERT_TRUE(packed.valid);
        for (const bool prepacked : {false, true}) {
            const PackedConvWeights *pk = prepacked ? &packed : nullptr;
            const auto wide = runAvx2(p, cfg, true, in, w, bias, pk);
            const auto narrow = runAvx2(p, cfg, false, in, w, bias, pk);
            EXPECT_EQ(0, std::memcmp(wide.data(), narrow.data(),
                                     wide.size() * sizeof(float)))
                << "512-bit tiles differ from AVX2: " << p.key() << " "
                << cfg.toString() << " threads=" << threads
                << (prepacked ? " prepacked" : " on-the-fly");
        }
    }
}

TEST(GemmMicroAvx512, BitIdenticalToAvx2OnEveryTail)
{
    if (!simdAvx512Detected())
        GTEST_SKIP() << "avx512f not detected on this host";
    // M = 37 leaves a partial A panel and, at mc = 20, an odd panel
    // count per block for every mr; K = 37 at kc = 16 leaves a 5-deep
    // k block; N covers N % 32 == 0 (32, 64), == 16 (16, 48), 1..15
    // past a full pair (33, 40, 47), a full panel plus a masked one
    // (95), and N < 16 (3, 15). nc = 40 cuts panels mid-pair.
    for (const int mr : {1, 2, 4, 6, 8}) {
        for (const int n : {3, 15, 16, 32, 33, 40, 47, 48, 64, 95}) {
            for (const auto &[mc, nc] :
                 {std::pair{20, 40}, {64, 512}}) {
                const ConvProblem p{.n = 1, .ic = 37, .ih = 1, .iw = n,
                                    .oc = 37, .kh = 1, .kw = 1,
                                    .stride = 1, .pad = 0};
                ConvConfig cfg = microConfig(mr, 16);
                cfg.mc = mc;
                cfg.nc = nc;
                expectWideMatchesAvx2(p, cfg, 31 + n);
            }
        }
    }
}

TEST(GemmMicroAvx512, BitIdenticalToAvx2AcrossImageBoundaries)
{
    if (!simdAvx512Detected())
        GTEST_SKIP() << "avx512f not detected on this host";
    // Batched convs run one GEMM over the merged columns of every
    // image, so tiles straddle image boundaries (pointwise: 3 x N_per
    // columns; 3x3 and 1x1 stride-2 convs at N_per 9, 25, 49 and 99,
    // whose B panels are packed straight from the input). At N_per 9
    // one 16-lane vector crosses several boundaries. Straddling tiles
    // run the 512-bit kernel into the scratch tile and scatter, at the
    // test's small blocking and at the serving (Library) blocking.
    // Winograd's 16 GEMMs take the 512-bit tiles too.
    for (const int mr : {1, 2, 4, 6, 8}) {
        ConvConfig library = microConfig(mr, 16);
        library.mc = 64;
        library.kc = 288;
        library.nc = 3136;
        for (const ConvConfig &cfg : {microConfig(mr, 16), library}) {
            for (const int n : {7, 9, 23, 25, 40, 49}) {
                const ConvProblem p{.n = 3, .ic = 37, .ih = 1, .iw = n,
                                    .oc = 19, .kh = 1, .kw = 1,
                                    .stride = 1, .pad = 0};
                expectWideMatchesAvx2(p, cfg, 41 + n);
            }
            for (const int side : {3, 5, 7}) {
                const ConvProblem conv{.n = 3, .ic = 5, .ih = side,
                                       .iw = side, .oc = 13, .kh = 3,
                                       .kw = 3, .stride = 1, .pad = 1};
                expectWideMatchesAvx2(conv, cfg, 53 + side);
                const ConvProblem down{.n = 3, .ic = 37,
                                       .ih = 2 * side - 1,
                                       .iw = 2 * side - 1, .oc = 19,
                                       .kh = 1, .kw = 1, .stride = 2,
                                       .pad = 0};
                expectWideMatchesAvx2(down, cfg, 63 + side);
            }
        }
        const ConvProblem conv{.n = 3, .ic = 5, .ih = 9, .iw = 11,
                               .oc = 13, .kh = 3, .kw = 3, .stride = 1,
                               .pad = 1};
        ConvConfig cfg = microConfig(mr, 16);
        expectWideMatchesAvx2(conv, cfg, 51);
        cfg.algo = ConvAlgo::Winograd;
        expectWideMatchesAvx2(conv, cfg, 52);
    }
}

TEST(GemmMicroAvx512, SwitchClampsToDetectionAndHonorsTheEnvCap)
{
    const bool prev = simdAvx512();
    EXPECT_EQ(setSimdAvx512(true), simdAvx512Detected());
    EXPECT_FALSE(setSimdAvx512(false));
    {
        SimdAvx512Guard guard(true);
        EXPECT_EQ(simdAvx512(), simdAvx512Detected());
    }
    EXPECT_FALSE(simdAvx512());
    setSimdAvx512(prev);
    // An explicit TAMRES_SIMD cap starts the 512-bit tiles off.
    const char *cap = std::getenv("TAMRES_SIMD");
    if (cap && (std::string(cap) == "avx2" || std::string(cap) == "off")) {
        EXPECT_FALSE(simdAvx512()) << "TAMRES_SIMD=" << cap;
    } else if (!cap) {
        EXPECT_EQ(simdAvx512(), simdAvx512Detected());
    }
}

TEST(GemmMicro, EnvOverrideNameRoundTrip)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Neon), "neon");
    // setSimdLevel clamps to the detection.
    const SimdLevel prev = simdLevel();
    EXPECT_EQ(setSimdLevel(SimdLevel::Scalar), SimdLevel::Scalar);
    EXPECT_EQ(setSimdLevel(simdDetected()), simdDetected());
    setSimdLevel(prev);
}

} // namespace
} // namespace tamres
