/**
 * @file
 * Google-benchmark microbenchmarks for the convolution kernel
 * implementations: reference vs. direct-tiled vs. im2col+GEMM, and
 * library-blocking vs. shape-matched blocking on 224- and 280-family
 * shapes — the kernel-level mechanism behind Figure 7.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "codec/progressive.hh"
#include "image/synthetic.hh"
#include "nn/conv_kernels.hh"
#include "nn/kernel_selector.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace tamres {
namespace {

struct Buffers
{
    std::vector<float> in, w, bias, out;

    explicit Buffers(const ConvProblem &p)
        : in(static_cast<size_t>(p.n) * p.ic * p.ih * p.iw),
          w(static_cast<size_t>(p.oc) * (p.ic / p.groups) * p.kh * p.kw),
          bias(p.oc),
          out(static_cast<size_t>(p.n) * p.oc * p.oh() * p.ow())
    {
        Rng rng(1);
        for (auto &v : in)
            v = static_cast<float>(rng.uniform(-1, 1));
        for (auto &v : w)
            v = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
};

/** ResNet stage-2 3x3 conv at a 224 input. */
const ConvProblem kShape224{.n = 1, .ic = 64, .ih = 56, .iw = 56,
                            .oc = 64, .kh = 3, .kw = 3, .stride = 1,
                            .pad = 1};
/** Same layer at a 280 input (the off-library resolution). */
const ConvProblem kShape280{.n = 1, .ic = 64, .ih = 70, .iw = 70,
                            .oc = 64, .kh = 3, .kw = 3, .stride = 1,
                            .pad = 1};
/** MobileNet depthwise at 112. */
const ConvProblem kShapeDw{.n = 1, .ic = 96, .ih = 28, .iw = 28,
                           .oc = 96, .kh = 3, .kw = 3, .stride = 1,
                           .pad = 1, .groups = 96};

/** Conv rate in GFLOP/s: 2 FLOPs (multiply + add) per MAC. */
benchmark::Counter
convFlopsCounter(const ConvProblem &p, const benchmark::State &state)
{
    return benchmark::Counter(2.0 * static_cast<double>(p.macs()) *
                                  state.iterations() / 1e9,
                              benchmark::Counter::kIsRate);
}

void
runConv(benchmark::State &state, const ConvProblem &p,
        const ConvConfig &cfg)
{
    Buffers buf(p);
    for (auto _ : state) {
        convForward(p, buf.in.data(), buf.w.data(), buf.bias.data(),
                    buf.out.data(), cfg);
        benchmark::DoNotOptimize(buf.out.data());
    }
    state.counters["GFLOP/s"] = convFlopsCounter(p, state);
}

void
BM_Conv224_Reference(benchmark::State &state)
{
    runConv(state, kShape224, ConvConfig{.algo = ConvAlgo::Reference});
}

void
BM_Conv224_Direct(benchmark::State &state)
{
    runConv(state, kShape224,
            ConvConfig{.algo = ConvAlgo::Direct, .oc_tile = 4,
                       .ow_tile = 14});
}

void
BM_Conv224_Im2colLibrary(benchmark::State &state)
{
    runConv(state, kShape224, KernelSelector::libraryConfig(kShape224));
}

void
BM_Conv280_Im2colLibrary(benchmark::State &state)
{
    // Library blocking (fixed for 224) applied at the 280 shape.
    runConv(state, kShape280, KernelSelector::libraryConfig(kShape280));
}

void
BM_Conv280_Im2colMatched(benchmark::State &state)
{
    // Blocking matched to the 280-family GEMM geometry (N = 4900).
    runConv(state, kShape280,
            ConvConfig{.algo = ConvAlgo::Im2col, .mc = 64, .kc = 288,
                       .nc = 2450, .mr = 4, .nr = 8});
}

void
BM_ConvDepthwise_Direct(benchmark::State &state)
{
    runConv(state, kShapeDw,
            ConvConfig{.algo = ConvAlgo::Direct, .oc_tile = 1,
                       .ow_tile = 14});
}

// --- Threaded variants (threads = process default) ---

void
BM_Conv224_Im2colThreaded(benchmark::State &state)
{
    ConvConfig cfg = KernelSelector::libraryConfig(kShape224);
    cfg.threads = ThreadPool::defaultParallelism();
    runConv(state, kShape224, cfg);
}

void
BM_Conv224_WinogradSerial(benchmark::State &state)
{
    runConv(state, kShape224,
            ConvConfig{.algo = ConvAlgo::Winograd, .threads = 1});
}

void
BM_Conv224_WinogradThreaded(benchmark::State &state)
{
    runConv(state, kShape224,
            ConvConfig{.algo = ConvAlgo::Winograd,
                       .threads = ThreadPool::defaultParallelism()});
}

void
BM_ConvDepthwise_Threaded(benchmark::State &state)
{
    runConv(state, kShapeDw,
            ConvConfig{.algo = ConvAlgo::Depthwise, .ow_tile = 14,
                       .threads = ThreadPool::defaultParallelism()});
}

// --- SIMD dispatch: scalar vs detected level on the same config ---

void
runConvAtLevel(benchmark::State &state, const ConvProblem &p,
               const ConvConfig &cfg, SimdLevel level)
{
    SimdLevelGuard guard(level);
    runConv(state, p, cfg);
}

void
BM_Conv224_Im2colScalarDispatch(benchmark::State &state)
{
    runConvAtLevel(state, kShape224,
                   KernelSelector::libraryConfig(kShape224),
                   SimdLevel::Scalar);
}

void
BM_Conv224_Im2colSimdDispatch(benchmark::State &state)
{
    runConvAtLevel(state, kShape224,
                   KernelSelector::libraryConfig(kShape224),
                   simdDetected());
}

void
BM_Conv224_Micro6x16Simd(benchmark::State &state)
{
    runConvAtLevel(state, kShape224,
                   ConvConfig{.algo = ConvAlgo::Im2col, .mc = 64,
                              .kc = 288, .nc = 3136, .mr = 6,
                              .nr = 16},
                   simdDetected());
}

void
BM_ConvDepthwise_SimdDispatch(benchmark::State &state)
{
    runConvAtLevel(state, kShapeDw,
                   ConvConfig{.algo = ConvAlgo::Depthwise,
                              .ow_tile = 14},
                   simdDetected());
}

// --- Prepacked weights: the plan's steady-state conv ---

void
BM_Conv224_Im2colPrepacked(benchmark::State &state)
{
    const ConvProblem &p = kShape224;
    const ConvConfig cfg = KernelSelector::libraryConfig(p);
    Buffers buf(p);
    PackedConvWeights packed;
    packConvWeights(p, cfg, buf.w.data(), packed);
    for (auto _ : state) {
        convForwardPrepacked(p, buf.in.data(), packed,
                             buf.bias.data(), buf.out.data());
        benchmark::DoNotOptimize(buf.out.data());
    }
    state.counters["GFLOP/s"] = convFlopsCounter(p, state);
}

// --- Codec hot path (AAN DCT + batched entropy layer) ---

void
BM_CodecEncode(benchmark::State &state)
{
    const Image img = generateSyntheticImage(
        {.height = 256, .width = 256, .class_id = 1, .seed = 7});
    ProgressiveConfig cfg;
    cfg.entropy = EntropyCoder::Huffman;
    for (auto _ : state) {
        const EncodedImage enc = encodeProgressive(img, cfg);
        benchmark::DoNotOptimize(enc.bytes.data());
    }
    state.counters["MpixPerS"] = benchmark::Counter(
        256.0 * 256.0 * state.iterations() / 1e6,
        benchmark::Counter::kIsRate);
}

void
BM_CodecDecode(benchmark::State &state)
{
    const Image img = generateSyntheticImage(
        {.height = 256, .width = 256, .class_id = 1, .seed = 7});
    ProgressiveConfig cfg;
    cfg.entropy = EntropyCoder::Huffman;
    const EncodedImage enc = encodeProgressive(img, cfg);
    for (auto _ : state) {
        const Image dec = decodeProgressive(enc);
        benchmark::DoNotOptimize(dec.data());
    }
    state.counters["MpixPerS"] = benchmark::Counter(
        256.0 * 256.0 * state.iterations() / 1e6,
        benchmark::Counter::kIsRate);
}

BENCHMARK(BM_Conv224_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Direct)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Im2colLibrary)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv280_Im2colLibrary)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv280_Im2colMatched)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvDepthwise_Direct)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Im2colThreaded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_WinogradSerial)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_WinogradThreaded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvDepthwise_Threaded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Im2colScalarDispatch)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Im2colSimdDispatch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Micro6x16Simd)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvDepthwise_SimdDispatch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv224_Im2colPrepacked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CodecEncode)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CodecDecode)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace tamres

BENCHMARK_MAIN();
