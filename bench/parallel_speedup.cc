/**
 * @file
 * Serial-vs-threaded speedup of the serving hot path, emitted as
 * machine-readable BENCH_kernels.json so successive PRs can track the
 * performance trajectory.
 *
 * Measures:
 *  - each conv algorithm (im2col, winograd, direct, depthwise) at a
 *    ResNet/MobileNet-family shape, 1 thread vs the process default
 *    (TAMRES_THREADS), in GMAC/s (the JSON's *_gflops fields count
 *    one multiply-accumulate per unit; see bench_common.hh);
 *  - the 8x8 forward DCT, AAN butterfly vs the seed's naive
 *    64-multiply-per-pass transform (blocks/s) — the single-thread
 *    codec win;
 *  - progressive encode/decode throughput (Mpixel/s) at 1 thread vs
 *    the default, with a bit-identity check between the two encodes.
 *
 * Budget knobs: TAMRES_LATENCY_REPS (timed reps per point) and
 * TAMRES_THREADS (threaded-variant worker count).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "codec/dct.hh"
#include "codec/progressive.hh"
#include "image/synthetic.hh"
#include "nn/conv_kernels.hh"
#include "util/env.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"

using namespace tamres;

namespace {

int
reps()
{
    return static_cast<int>(envInt("TAMRES_LATENCY_REPS", 3));
}

/** The seed's naive DCT, kept as the single-thread baseline. */
void
naiveForwardDct8x8(const float *in, float *out)
{
    static float basis[8][8];
    static bool init = false;
    if (!init) {
        for (int k = 0; k < 8; ++k) {
            const double ck = k == 0 ? std::sqrt(1.0 / 8.0)
                                     : std::sqrt(2.0 / 8.0);
            for (int n = 0; n < 8; ++n) {
                basis[k][n] = static_cast<float>(
                    ck * std::cos((2 * n + 1) * k * M_PI / 16.0));
            }
        }
        init = true;
    }
    float tmp[64];
    for (int y = 0; y < 8; ++y) {
        for (int k = 0; k < 8; ++k) {
            float acc = 0.0f;
            for (int x = 0; x < 8; ++x)
                acc += in[y * 8 + x] * basis[k][x];
            tmp[y * 8 + k] = acc;
        }
    }
    for (int k = 0; k < 8; ++k) {
        for (int x = 0; x < 8; ++x) {
            float acc = 0.0f;
            for (int y = 0; y < 8; ++y)
                acc += tmp[y * 8 + x] * basis[k][y];
            out[k * 8 + x] = acc;
        }
    }
}

struct ConvPoint
{
    std::string name;
    double serial_gflops = 0.0;
    double threaded_gflops = 0.0;

    double speedup() const { return threaded_gflops / serial_gflops; }
};

ConvPoint
measureConvPoint(const char *name, const ConvProblem &p, ConvConfig cfg,
                 int threads)
{
    std::vector<float> in(static_cast<size_t>(p.n) * p.ic * p.ih * p.iw);
    std::vector<float> w(static_cast<size_t>(p.oc) * (p.ic / p.groups) *
                         p.kh * p.kw);
    std::vector<float> bias(p.oc);
    std::vector<float> out(static_cast<size_t>(p.n) * p.oc * p.oh() *
                           p.ow());
    Rng rng(11);
    for (auto &v : in)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-0.5, 0.5));

    const double gf = static_cast<double>(p.macs()) / 1e9;
    ConvPoint point;
    point.name = name;

    cfg.threads = 1;
    point.serial_gflops =
        gf / medianRunSeconds(
                 [&] {
                     convForward(p, in.data(), w.data(), bias.data(),
                                 out.data(), cfg);
                 },
                 reps());
    std::vector<float> serial_out = out;

    cfg.threads = threads;
    point.threaded_gflops =
        gf / medianRunSeconds(
                 [&] {
                     convForward(p, in.data(), w.data(), bias.data(),
                                 out.data(), cfg);
                 },
                 reps());
    if (std::memcmp(serial_out.data(), out.data(),
                    out.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "FAIL: %s not bit-identical at %d threads\n", name,
                     threads);
        std::exit(1);
    }

    std::printf("%-16s %8.3f GMAC/s serial  %8.3f GMAC/s x%d threads  "
                "(%.2fx, bit-identical)\n",
                name, point.serial_gflops, point.threaded_gflops,
                threads, point.speedup());
    return point;
}

struct MicroPoint
{
    std::string name;
    double scalar_gflops = 0.0;
    double simd_gflops = 0.0;
    double avx2_gflops = 0.0; //!< detected level, 512-bit tiles off

    double speedup() const { return simd_gflops / scalar_gflops; }
};

/** "avx2", or "avx2+avx512f" when the 512-bit GEMM tiles are there. */
std::string
simdDescriptor()
{
    std::string out = simdLevelName(simdDetected());
    if (simdAvx512Detected())
        out += "+avx512f";
    return out;
}

/**
 * GMAC/s of one (mr x nr) micro-kernel at the scalar and detected SIMD
 * dispatch levels (the latter with and without the AVX-512F
 * sub-feature), through a serial pointwise GEMM shaped like the
 * 224-family hot layer (M=64, K=576, N=3136).
 */
MicroPoint
measureMicroPoint(int mr, int nr)
{
    const ConvProblem p{.n = 1, .ic = 576, .ih = 1, .iw = 3136,
                        .oc = 64, .kh = 1, .kw = 1, .stride = 1,
                        .pad = 0};
    ConvConfig cfg{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 288,
                   .nc = 3136, .mr = mr, .nr = nr, .threads = 1};
    std::vector<float> in(static_cast<size_t>(p.ic) * p.iw);
    std::vector<float> w(static_cast<size_t>(p.oc) * p.ic);
    std::vector<float> out(static_cast<size_t>(p.oc) * p.iw);
    Rng rng(17);
    for (auto &v : in)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-0.5, 0.5));

    const double gf = static_cast<double>(p.macs()) / 1e9;
    MicroPoint point;
    point.name = std::to_string(mr) + "x" + std::to_string(nr);
    auto run = [&] {
        convForward(p, in.data(), w.data(), nullptr, out.data(), cfg);
    };
    {
        SimdLevelGuard guard(SimdLevel::Scalar);
        point.scalar_gflops = gf / medianRunSeconds(run, reps());
    }
    {
        SimdLevelGuard guard(simdDetected());
        SimdAvx512Guard wide(true);
        point.simd_gflops = gf / medianRunSeconds(run, reps());
    }
    if (simdAvx512Detected()) {
        SimdLevelGuard guard(simdDetected());
        SimdAvx512Guard wide(false);
        point.avx2_gflops = gf / medianRunSeconds(run, reps());
    } else {
        point.avx2_gflops = point.simd_gflops;
    }
    std::printf("micro %-6s %8.3f GMAC/s scalar  %8.3f GMAC/s %s  (%.2fx)  "
                "%8.3f GMAC/s without avx512f\n",
                point.name.c_str(), point.scalar_gflops,
                point.simd_gflops, simdDescriptor().c_str(),
                point.speedup(), point.avx2_gflops);
    return point;
}

} // namespace

int
main()
{
    const int threads = ThreadPool::defaultParallelism();
    std::printf("parallel_speedup: %d worker threads "
                "(TAMRES_THREADS to override); simd: %s detected, "
                "%s active, 512-bit GEMM tiles %s "
                "(TAMRES_SIMD to override)\n\n",
                threads, simdDescriptor().c_str(),
                simdLevelName(simdLevel()),
                simdLevel() == SimdLevel::Avx2 && simdAvx512() ? "on"
                                                               : "off");

    // --- Conv kernels ---------------------------------------------
    const ConvProblem shape224{.n = 1, .ic = 64, .ih = 56, .iw = 56,
                               .oc = 64, .kh = 3, .kw = 3, .stride = 1,
                               .pad = 1};
    const ConvProblem shape_dw{.n = 1, .ic = 96, .ih = 28, .iw = 28,
                               .oc = 96, .kh = 3, .kw = 3, .stride = 1,
                               .pad = 1, .groups = 96};

    std::vector<ConvPoint> convs;
    convs.push_back(measureConvPoint(
        "im2col_224", shape224,
        ConvConfig{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 288,
                   .nc = 3136, .mr = 4, .nr = 16},
        threads));
    convs.push_back(measureConvPoint(
        "winograd_224", shape224,
        ConvConfig{.algo = ConvAlgo::Winograd}, threads));
    convs.push_back(measureConvPoint(
        "direct_224", shape224,
        ConvConfig{.algo = ConvAlgo::Direct, .oc_tile = 4,
                   .ow_tile = 14},
        threads));
    convs.push_back(measureConvPoint(
        "depthwise_112", shape_dw,
        ConvConfig{.algo = ConvAlgo::Depthwise, .ow_tile = 14},
        threads));

    // --- Micro-kernels: scalar vs SIMD dispatch -------------------
    std::vector<MicroPoint> micros;
    for (const auto &[mr, nr] :
         {std::pair{4, 8}, {6, 8}, {8, 8}, {4, 16}, {6, 16}, {8, 16}})
        micros.push_back(measureMicroPoint(mr, nr));

    // --- Weight packing: per-request vs plan-prepacked ------------
    // The serving-path 224 conv with the library blocking, serial, as
    // reqs/s; the prepacked variant skips the per-request A packing
    // exactly the way a warm execution plan does.
    double pack_rps = 0.0, prepack_rps = 0.0;
    {
        const ConvProblem p = shape224;
        ConvConfig cfg{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 288,
                       .nc = 3136, .mr = 4, .nr = 16, .threads = 1};
        std::vector<float> in(static_cast<size_t>(p.ic) * p.ih * p.iw);
        std::vector<float> w(static_cast<size_t>(p.oc) * p.ic * p.kh *
                             p.kw);
        std::vector<float> out(static_cast<size_t>(p.oc) * p.oh() *
                               p.ow());
        Rng rng(23);
        for (auto &v : in)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto &v : w)
            v = static_cast<float>(rng.uniform(-0.5, 0.5));
        PackedConvWeights packed;
        packConvWeights(p, cfg, w.data(), packed);
        pack_rps = 1.0 / medianRunSeconds(
                             [&] {
                                 convForward(p, in.data(), w.data(),
                                             nullptr, out.data(), cfg);
                             },
                             reps());
        prepack_rps = 1.0 / medianRunSeconds(
                                [&] {
                                    convForwardPrepacked(
                                        p, in.data(), packed, nullptr,
                                        out.data());
                                },
                                reps());
        std::printf("\nprepack conv224: %8.1f req/s packing each call, "
                    "%8.1f req/s prepacked  (%.2fx)\n",
                    pack_rps, prepack_rps, prepack_rps / pack_rps);
    }

    // --- DCT: AAN vs the seed's naive transform -------------------
    const int nblocks = 20000;
    std::vector<float> blocks(static_cast<size_t>(nblocks) * 64);
    Rng rng(3);
    for (auto &v : blocks)
        v = static_cast<float>(rng.uniform(-128.0, 127.0));
    std::vector<float> freq(64);

    const double naive_s = medianRunSeconds(
        [&] {
            for (int b = 0; b < nblocks; ++b)
                naiveForwardDct8x8(blocks.data() + b * 64, freq.data());
        },
        reps());
    const double aan_s = medianRunSeconds(
        [&] {
            for (int b = 0; b < nblocks; ++b)
                forwardDct8x8Scaled(blocks.data() + b * 64, freq.data());
        },
        reps());
    const double naive_bps = nblocks / naive_s;
    const double aan_bps = nblocks / aan_s;
    std::printf("\ndct8x8: naive %.2f Mblk/s, AAN %.2f Mblk/s "
                "(%.2fx single-thread)\n",
                naive_bps / 1e6, aan_bps / 1e6, aan_bps / naive_bps);

    // --- Codec encode/decode --------------------------------------
    const Image img = generateSyntheticImage(
        {.height = 256, .width = 256, .class_id = 2, .seed = 13});
    ProgressiveConfig ccfg;
    ccfg.entropy = EntropyCoder::Huffman;
    const double mpix = 256.0 * 256.0 / 1e6;

    setenv("TAMRES_THREADS", "1", 1);
    EncodedImage enc_serial;
    const double enc1_s = medianRunSeconds(
        [&] { enc_serial = encodeProgressive(img, ccfg); }, reps());
    const double dec1_s = medianRunSeconds(
        [&] {
            const Image dec = decodeProgressive(enc_serial);
            (void)dec;
        },
        reps());

    setenv("TAMRES_THREADS", std::to_string(threads).c_str(), 1);
    EncodedImage enc_threaded;
    const double encN_s = medianRunSeconds(
        [&] { enc_threaded = encodeProgressive(img, ccfg); }, reps());
    const double decN_s = medianRunSeconds(
        [&] {
            const Image dec = decodeProgressive(enc_threaded);
            (void)dec;
        },
        reps());
    unsetenv("TAMRES_THREADS");

    const bool codec_identical =
        enc_serial.bytes == enc_threaded.bytes;
    if (!codec_identical) {
        std::fprintf(stderr,
                     "FAIL: encode not bit-identical at %d threads\n",
                     threads);
        return 1;
    }
    std::printf("codec encode: %.2f Mpix/s serial, %.2f Mpix/s x%d "
                "(%.2fx, bit-identical)\n",
                mpix / enc1_s, mpix / encN_s, threads, enc1_s / encN_s);
    std::printf("codec decode: %.2f Mpix/s serial, %.2f Mpix/s x%d "
                "(%.2fx)\n",
                mpix / dec1_s, mpix / decN_s, threads, dec1_s / decN_s);

    // --- JSON trajectory ------------------------------------------
    FILE *f = std::fopen("BENCH_kernels.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"threads\": %d,\n  \"kernels\": [\n",
                 threads);
    for (size_t i = 0; i < convs.size(); ++i) {
        const ConvPoint &c = convs[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"serial_gflops\": %.4f, "
                     "\"threaded_gflops\": %.4f, \"speedup\": %.3f}%s\n",
                     c.name.c_str(), c.serial_gflops, c.threaded_gflops,
                     c.speedup(), i + 1 < convs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"simd\": \"%s\",\n  \"micro\": [\n",
                 simdDescriptor().c_str());
    for (size_t i = 0; i < micros.size(); ++i) {
        const MicroPoint &m = micros[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"scalar_gflops\": %.4f, "
                     "\"simd_gflops\": %.4f, \"avx2_gflops\": %.4f, "
                     "\"speedup\": %.3f}%s\n",
                     m.name.c_str(), m.scalar_gflops, m.simd_gflops,
                     m.avx2_gflops, m.speedup(),
                     i + 1 < micros.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"prepack\": {\"conv224_pack_req_s\": %.2f, "
                 "\"conv224_prepacked_req_s\": %.2f, "
                 "\"speedup\": %.3f},\n",
                 pack_rps, prepack_rps, prepack_rps / pack_rps);
    std::fprintf(f,
                 "  \"dct8x8\": {\"naive_blocks_per_s\": %.0f, "
                 "\"aan_blocks_per_s\": %.0f, \"speedup\": %.3f},\n",
                 naive_bps, aan_bps, aan_bps / naive_bps);
    std::fprintf(
        f,
        "  \"codec\": {\"encode_serial_mpix_s\": %.4f, "
        "\"encode_threaded_mpix_s\": %.4f, \"encode_speedup\": %.3f, "
        "\"decode_serial_mpix_s\": %.4f, \"decode_threaded_mpix_s\": "
        "%.4f, \"bit_identical\": %s}\n",
        mpix / enc1_s, mpix / encN_s, enc1_s / encN_s, mpix / dec1_s,
        mpix / decN_s, codec_identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_kernels.json\n");
    return 0;
}
