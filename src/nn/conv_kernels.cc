#include "nn/conv_kernels.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "util/logging.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace tamres {

namespace {

/** Append "<tag><value>" without ostringstream (hot in tuner loops). */
inline void
appendKnob(std::string &out, const char *tag, int value)
{
    out.append(tag);
    out.append(std::to_string(value));
}

} // namespace

std::string
ConvProblem::key() const
{
    std::string out;
    out.reserve(48);
    appendKnob(out, "", n);
    appendKnob(out, "x", ic);
    appendKnob(out, "x", ih);
    appendKnob(out, "x", iw);
    appendKnob(out, "_oc", oc);
    appendKnob(out, "_k", kh);
    appendKnob(out, "x", kw);
    appendKnob(out, "_s", stride);
    appendKnob(out, "_p", pad);
    appendKnob(out, "_g", groups);
    return out;
}

const char *
convAlgoName(ConvAlgo algo)
{
    switch (algo) {
      case ConvAlgo::Reference: return "reference";
      case ConvAlgo::Direct: return "direct";
      case ConvAlgo::Im2col: return "im2col";
      case ConvAlgo::Winograd: return "winograd";
      case ConvAlgo::Depthwise: return "depthwise";
    }
    return "?";
}

std::string
ConvConfig::toString() const
{
    std::string out;
    out.reserve(64);
    switch (algo) {
      case ConvAlgo::Reference:
        out = "reference";
        return out;
      case ConvAlgo::Direct:
        out = "direct(";
        appendKnob(out, "oc_tile=", oc_tile);
        appendKnob(out, ",ow_tile=", ow_tile);
        break;
      case ConvAlgo::Im2col:
        out = "im2col(";
        appendKnob(out, "mc=", mc);
        appendKnob(out, ",kc=", kc);
        appendKnob(out, ",nc=", nc);
        appendKnob(out, ",mr=", mr);
        appendKnob(out, ",nr=", nr);
        break;
      case ConvAlgo::Winograd:
        out = "winograd(";
        appendKnob(out, "tb=", wino_tile_block);
        appendKnob(out, ",mc=", mc);
        appendKnob(out, ",kc=", kc);
        appendKnob(out, ",nc=", nc);
        appendKnob(out, ",mr=", mr);
        appendKnob(out, ",nr=", nr);
        break;
      case ConvAlgo::Depthwise:
        out = "depthwise(";
        appendKnob(out, "ow_tile=", ow_tile);
        break;
    }
    if (threads != 0)
        appendKnob(out, ",t=", threads);
    out.push_back(')');
    return out;
}

namespace {

/** Worker-thread cap for a config (0 = process default). */
int
effectiveThreads(const ConvConfig &cfg)
{
    // TAMRES_THREADS is the process-wide cap (ROADMAP contract): a
    // tuned per-config threads knob may lower it but never exceed it.
    // Serving code relies on this to pin kernels serial (so engine
    // workers own the cores) no matter what the tuner recorded.
    const int def = ThreadPool::defaultParallelism();
    return cfg.threads > 0 ? std::min(cfg.threads, def) : def;
}

/** Count of weight-side pack operations (see convWeightPackCount). */
std::atomic<uint64_t> g_weight_pack_count{0};

// ---------------------------------------------------------------------
// Row AXPY: y[0..n) += a * x[0..n) (direct / depthwise inner loops)
// ---------------------------------------------------------------------

using AxpyFn = void (*)(int, float, const float *, float *);

void
axpyScalar(int n, float a, const float *x, float *y)
{
    for (int i = 0; i < n; ++i)
        y[i] += a * x[i];
}

#if TAMRES_SIMD_X86

TAMRES_TARGET_AVX2 void
axpyAvx2(int n, float a, const float *x, float *y)
{
    const __m256 av = _mm256_set1_ps(a);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(
            y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(y + i)));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

#endif

#if TAMRES_SIMD_NEON

void
axpyNeon(int n, float a, const float *x, float *y)
{
    const float32x4_t av = vdupq_n_f32(a);
    int i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(y + i,
                  vfmaq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
    for (; i < n; ++i)
        y[i] += a * x[i];
}

#endif

AxpyFn
axpyDispatch()
{
    switch (simdLevel()) {
#if TAMRES_SIMD_X86
      case SimdLevel::Avx2: return axpyAvx2;
#endif
#if TAMRES_SIMD_NEON
      case SimdLevel::Neon: return axpyNeon;
#endif
      default: return axpyScalar;
    }
}

// ---------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------

void
referenceKernel(const ConvProblem &p, const float *in, const float *w,
                const float *bias, float *out)
{
    const int oh = p.oh();
    const int ow = p.ow();
    const int icg = p.ic / p.groups;
    const int ocg = p.oc / p.groups;
    for (int n = 0; n < p.n; ++n) {
        for (int g = 0; g < p.groups; ++g) {
            for (int oc = 0; oc < ocg; ++oc) {
                const int oc_abs = g * ocg + oc;
                for (int y = 0; y < oh; ++y) {
                    for (int x = 0; x < ow; ++x) {
                        float acc = bias ? bias[oc_abs] : 0.0f;
                        for (int ic = 0; ic < icg; ++ic) {
                            const int ic_abs = g * icg + ic;
                            for (int ky = 0; ky < p.kh; ++ky) {
                                const int iy = y * p.stride + ky - p.pad;
                                if (iy < 0 || iy >= p.ih)
                                    continue;
                                for (int kx = 0; kx < p.kw; ++kx) {
                                    const int ix =
                                        x * p.stride + kx - p.pad;
                                    if (ix < 0 || ix >= p.iw)
                                        continue;
                                    const float iv = in[
                                        ((static_cast<int64_t>(n) * p.ic +
                                          ic_abs) * p.ih + iy) * p.iw +
                                        ix];
                                    const float wv = w[
                                        ((static_cast<int64_t>(oc_abs) *
                                          icg + ic) * p.kh + ky) * p.kw +
                                        kx];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out[((static_cast<int64_t>(n) * p.oc + oc_abs) *
                             oh + y) * ow + x] = acc;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Direct register-tiled kernel
// ---------------------------------------------------------------------

void
directKernel(const ConvProblem &p, const float *in, const float *w,
             const float *bias, float *out, const ConvConfig &cfg)
{
    const int oh = p.oh();
    const int ow = p.ow();
    const int icg = p.ic / p.groups;
    const int ocg = p.oc / p.groups;
    const int oct = std::max(1, cfg.oc_tile);
    const int owt = std::max(1, cfg.ow_tile);
    // Register accumulator block; bounded so the compiler can keep it
    // in registers for sensible tile choices.
    constexpr int kMaxOcTile = 8;
    constexpr int kMaxOwTile = 32;
    tamres_assert(oct <= kMaxOcTile && owt <= kMaxOwTile,
                  "direct tile sizes out of range");

    // Parallelize over (batch, group, oc-tile, output row): every
    // iteration writes a disjoint slice of out, so any partition of
    // the flattened range yields bit-identical results. The dispatch
    // level is read once here so a mid-call override cannot mix paths.
    const AxpyFn axpy = axpyDispatch();
    const int oc_tiles = (ocg + oct - 1) / oct;
    const int64_t total = static_cast<int64_t>(p.n) * p.groups *
                          oc_tiles * oh;
    ThreadPool::global().parallelFor(
        total,
        [&](int64_t i0, int64_t i1) {
            float acc[kMaxOcTile][kMaxOwTile];
            for (int64_t it = i0; it < i1; ++it) {
                const int y = static_cast<int>(it % oh);
                int64_t rest = it / oh;
                const int oc0 =
                    static_cast<int>(rest % oc_tiles) * oct;
                rest /= oc_tiles;
                const int g = static_cast<int>(rest % p.groups);
                const int n = static_cast<int>(rest / p.groups);
                const int oc_lim = std::min(oct, ocg - oc0);
                {
                    for (int x0 = 0; x0 < ow; x0 += owt) {
                        const int ow_lim = std::min(owt, ow - x0);
                        for (int a = 0; a < oc_lim; ++a)
                            for (int b = 0; b < ow_lim; ++b)
                                acc[a][b] = 0.0f;
                        for (int ic = 0; ic < icg; ++ic) {
                            const int ic_abs = g * icg + ic;
                            const float *iplane =
                                in + ((static_cast<int64_t>(n) * p.ic +
                                       ic_abs) * p.ih) * p.iw;
                            for (int ky = 0; ky < p.kh; ++ky) {
                                const int iy = y * p.stride + ky - p.pad;
                                if (iy < 0 || iy >= p.ih)
                                    continue;
                                const float *irow = iplane + iy * p.iw;
                                for (int kx = 0; kx < p.kw; ++kx) {
                                    // Interior fast path: at stride 1
                                    // the whole register row reads a
                                    // contiguous in-bounds span.
                                    const int ix0 = x0 + kx - p.pad;
                                    const bool interior =
                                        p.stride == 1 && ix0 >= 0 &&
                                        ix0 + ow_lim <= p.iw;
                                    for (int a = 0; a < oc_lim; ++a) {
                                        const int oc_abs =
                                            g * ocg + oc0 + a;
                                        const float wv = w[
                                            ((static_cast<int64_t>(
                                                  oc_abs) * icg + ic) *
                                             p.kh + ky) * p.kw + kx];
                                        if (interior) {
                                            axpy(ow_lim, wv,
                                                 irow + ix0, acc[a]);
                                            continue;
                                        }
                                        for (int b = 0; b < ow_lim;
                                             ++b) {
                                            const int ix =
                                                (x0 + b) * p.stride +
                                                kx - p.pad;
                                            if (ix < 0 || ix >= p.iw)
                                                continue;
                                            acc[a][b] += wv * irow[ix];
                                        }
                                    }
                                }
                            }
                        }
                        for (int a = 0; a < oc_lim; ++a) {
                            const int oc_abs = g * ocg + oc0 + a;
                            float *orow =
                                out + ((static_cast<int64_t>(n) * p.oc +
                                        oc_abs) * oh + y) * ow + x0;
                            const float bv = bias ? bias[oc_abs] : 0.0f;
                            for (int b = 0; b < ow_lim; ++b)
                                orow[b] = acc[a][b] + bv;
                        }
                    }
                }
            }
        },
        effectiveThreads(cfg));
}

// ---------------------------------------------------------------------
// Im2col + blocked GEMM kernel
// ---------------------------------------------------------------------

/**
 * Micro-kernel: C[mr x nr] += A-panel (k-major, MR-contiguous) times
 * B-panel (k-major, NR-contiguous) over kc steps. Accumulators live in
 * a local array the compiler maps to vector registers.
 */
template <int MR, int NR>
void
microKernel(int kc, const float *ap, const float *bp, float *c,
            int ldc)
{
    float acc[MR][NR] = {};
    for (int k = 0; k < kc; ++k) {
        const float *a = ap + k * MR;
        const float *b = bp + k * NR;
        for (int i = 0; i < MR; ++i) {
            const float av = a[i];
            for (int j = 0; j < NR; ++j)
                acc[i][j] += av * b[j];
        }
    }
    for (int i = 0; i < MR; ++i)
        for (int j = 0; j < NR; ++j)
            c[i * ldc + j] += acc[i][j];
}

using MicroFn = void (*)(int, const float *, const float *, float *, int);

/**
 * Signature of the 512-bit GEMM kernels: a block of NA packed A panels
 * (consecutive, MR*kc floats apart) by NB packed B panels (16 columns,
 * 16*kc floats apart), stored into C (row stride @p ldc) for its first
 * @p rows rows and @p cols columns only — tails store through masks,
 * so every tile that lies in one C matrix is written in place.
 */
using WideFn = void (*)(int kc, const float *ap, const float *bp,
                        float *c, int ldc, int rows, int cols);

/** Scalar fallback for every supported (mr, nr); defines the set. */
MicroFn
microDispatchScalar(int mr, int nr)
{
    switch (mr * 100 + nr) {
      case 104: return microKernel<1, 4>;
      case 108: return microKernel<1, 8>;
      case 116: return microKernel<1, 16>;
      case 204: return microKernel<2, 4>;
      case 208: return microKernel<2, 8>;
      case 216: return microKernel<2, 16>;
      case 404: return microKernel<4, 4>;
      case 408: return microKernel<4, 8>;
      case 416: return microKernel<4, 16>;
      case 604: return microKernel<6, 4>;
      case 608: return microKernel<6, 8>;
      case 616: return microKernel<6, 16>;
      case 804: return microKernel<8, 4>;
      case 808: return microKernel<8, 8>;
      case 816: return microKernel<8, 16>;
      default: return nullptr;
    }
}

#if TAMRES_SIMD_X86

/**
 * AVX2+FMA micro-kernel: MR rows by NV 8-lane column vectors, reading
 * rows of an A panel whose k-step stride is AS (MR unless the tile is
 * a slice of a taller panel). The accumulation order over k matches
 * the scalar template per element (one fused multiply-add per k
 * step), so results are deterministic and partition-independent; vs
 * the scalar fallback only the FMA rounding differs. Register budget:
 * MR*NV accumulators + NV B loads + 1 A broadcast must fit 16 ymm
 * registers, so an 8x16 tile does not fit in one pass (see
 * microKernelAvx2x8x16; the 32 zmm registers of the 512-bit kernels
 * below do hold it).
 */
template <int MR, int NV, int AS = MR>
TAMRES_TARGET_AVX2 void
microKernelAvx2(int kc, const float *ap, const float *bp, float *c,
                int ldc)
{
    __m256 acc[MR][NV];
    for (int i = 0; i < MR; ++i)
        for (int v = 0; v < NV; ++v)
            acc[i][v] = _mm256_setzero_ps();
    constexpr int NR = NV * 8;
    for (int k = 0; k < kc; ++k) {
        __m256 b[NV];
        for (int v = 0; v < NV; ++v)
            b[v] = _mm256_loadu_ps(bp + k * NR + v * 8);
        const float *a = ap + k * AS;
        for (int i = 0; i < MR; ++i) {
            const __m256 av = _mm256_broadcast_ss(a + i);
            for (int v = 0; v < NV; ++v)
                acc[i][v] = _mm256_fmadd_ps(av, b[v], acc[i][v]);
        }
    }
    for (int i = 0; i < MR; ++i) {
        for (int v = 0; v < NV; ++v) {
            float *dst = c + i * ldc + v * 8;
            _mm256_storeu_ps(
                dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc[i][v]));
        }
    }
}

/**
 * 8x16 on ymm as two 4x16 passes over the 8-row A panel: per element
 * the same arithmetic as a single pass, with 8 accumulators each.
 */
TAMRES_TARGET_AVX2 void
microKernelAvx2x8x16(int kc, const float *ap, const float *bp, float *c,
                     int ldc)
{
    microKernelAvx2<4, 2, 8>(kc, ap, bp, c, ldc);
    microKernelAvx2<4, 2, 8>(kc, ap + 4, bp, c + 4 * ldc, ldc);
}

MicroFn
microDispatchAvx2(int mr, int nr)
{
    switch (mr * 100 + nr) {
      case 108: return microKernelAvx2<1, 1>;
      case 116: return microKernelAvx2<1, 2>;
      case 208: return microKernelAvx2<2, 1>;
      case 216: return microKernelAvx2<2, 2>;
      case 408: return microKernelAvx2<4, 1>;
      case 416: return microKernelAvx2<4, 2>;
      case 608: return microKernelAvx2<6, 1>;
      case 616: return microKernelAvx2<6, 2>;
      case 808: return microKernelAvx2<8, 1>;
      case 816: return microKernelAvx2x8x16;
      default: return nullptr; // nr=4 stays scalar
    }
}

/**
 * AVX-512F micro-kernel: NA*MR rows by NB 16-lane column vectors.
 * One 4x16 zmm tile has only 4 accumulators and stalls on FMA
 * latency, so the callers hand each call several A and B panels
 * (8 rows x 32 columns at mr = 4: 16 independent accumulators; the
 * budget is NA*MR*NB accumulators + NB B loads + 1 broadcast within
 * 32 zmm registers). Per element this is the AVX2 kernels' arithmetic
 * exactly — zeroed accumulator, one FMA per k in ascending order, one
 * add into C — so the output is bitwise identical to the 256-bit path.
 */
template <int MR, int NA, int NB>
TAMRES_TARGET_AVX512 void
microKernelAvx512(int kc, const float *ap, const float *bp, float *c,
                  int ldc, int rows, int cols)
{
    constexpr int R = MR * NA;
    const size_t astep = static_cast<size_t>(MR) * kc;
    const size_t bstep = static_cast<size_t>(16) * kc;
    __m512 acc[R][NB];
    for (int r = 0; r < R; ++r)
        for (int v = 0; v < NB; ++v)
            acc[r][v] = _mm512_setzero_ps();
    for (int k = 0; k < kc; ++k) {
        __m512 b[NB];
        for (int v = 0; v < NB; ++v)
            b[v] = _mm512_loadu_ps(bp + v * bstep + k * 16);
        for (int p = 0; p < NA; ++p) {
            const float *a = ap + p * astep + k * MR;
            for (int i = 0; i < MR; ++i) {
                const __m512 av = _mm512_set1_ps(a[i]);
                for (int v = 0; v < NB; ++v)
                    acc[p * MR + i][v] =
                        _mm512_fmadd_ps(av, b[v], acc[p * MR + i][v]);
            }
        }
    }
    __mmask16 mask[NB];
    for (int v = 0; v < NB; ++v) {
        const int left = std::clamp(cols - v * 16, 0, 16);
        mask[v] = static_cast<__mmask16>((1u << left) - 1);
    }
    for (int r = 0; r < R; ++r) {
        if (r >= rows)
            break;
        for (int v = 0; v < NB; ++v) {
            float *dst = c + static_cast<int64_t>(r) * ldc + v * 16;
            _mm512_mask_storeu_ps(
                dst, mask[v],
                _mm512_add_ps(_mm512_maskz_loadu_ps(mask[v], dst),
                              acc[r][v]));
        }
    }
}

#endif // TAMRES_SIMD_X86

#if TAMRES_SIMD_NEON

/** NEON micro-kernel: MR rows by NV 4-lane column vectors. */
template <int MR, int NV>
void
microKernelNeon(int kc, const float *ap, const float *bp, float *c,
                int ldc)
{
    float32x4_t acc[MR][NV];
    for (int i = 0; i < MR; ++i)
        for (int v = 0; v < NV; ++v)
            acc[i][v] = vdupq_n_f32(0.0f);
    constexpr int NR = NV * 4;
    for (int k = 0; k < kc; ++k) {
        float32x4_t b[NV];
        for (int v = 0; v < NV; ++v)
            b[v] = vld1q_f32(bp + k * NR + v * 4);
        const float *a = ap + k * MR;
        for (int i = 0; i < MR; ++i) {
            const float32x4_t av = vdupq_n_f32(a[i]);
            for (int v = 0; v < NV; ++v)
                acc[i][v] = vfmaq_f32(acc[i][v], av, b[v]);
        }
    }
    for (int i = 0; i < MR; ++i) {
        for (int v = 0; v < NV; ++v) {
            float *dst = c + i * ldc + v * 4;
            vst1q_f32(dst, vaddq_f32(vld1q_f32(dst), acc[i][v]));
        }
    }
}

MicroFn
microDispatchNeon(int mr, int nr)
{
    switch (mr * 100 + nr) {
      case 104: return microKernelNeon<1, 1>;
      case 108: return microKernelNeon<1, 2>;
      case 116: return microKernelNeon<1, 4>;
      case 204: return microKernelNeon<2, 1>;
      case 208: return microKernelNeon<2, 2>;
      case 216: return microKernelNeon<2, 4>;
      case 404: return microKernelNeon<4, 1>;
      case 408: return microKernelNeon<4, 2>;
      case 416: return microKernelNeon<4, 4>;
      case 604: return microKernelNeon<6, 1>;
      case 608: return microKernelNeon<6, 2>;
      case 616: return microKernelNeon<6, 4>;
      case 804: return microKernelNeon<8, 1>;
      case 808: return microKernelNeon<8, 2>;
      default: return nullptr; // 8x16 needs 32 accumulators
    }
}

#endif // TAMRES_SIMD_NEON

/**
 * Best micro-kernel for (mr, nr) at @p level, falling back to the
 * scalar template when the level has no vector variant for that
 * shape. Returns nullptr only for unsupported pairs (the validity
 * predicate uses the scalar table, so a valid config always
 * dispatches at every level).
 */
MicroFn
microDispatch(SimdLevel level, int mr, int nr)
{
    switch (level) {
#if TAMRES_SIMD_X86
      case SimdLevel::Avx2:
        if (MicroFn fn = microDispatchAvx2(mr, nr))
            return fn;
        break;
#endif
#if TAMRES_SIMD_NEON
      case SimdLevel::Neon:
        if (MicroFn fn = microDispatchNeon(mr, nr))
            return fn;
        break;
#endif
      default:
        break;
    }
    return microDispatchScalar(mr, nr);
}

/**
 * The fp32 GEMM kernels for one (mr, nr), resolved once per conv
 * invocation from one read of the dispatch state and handed down to
 * every worker, so a concurrent level or switch change can never mix
 * kernel flavors inside one output.
 */
struct GemmKernels
{
    MicroFn micro = nullptr; //!< one mr x nr tile (full-tile stores)
    /**
     * 512-bit kernels indexed [more than one A panel][two B panels];
     * null off the AVX-512F path (nr != 16, or the switch is off).
     */
    WideFn wide[2][2] = {};
    int wide_panels = 1; //!< A panels per wide[1][*] call
};

#if TAMRES_SIMD_X86
/** 512-bit kernel set taking NA A panels per full-height call. */
template <int MR, int NA>
GemmKernels
wideKernels(MicroFn micro)
{
    return {micro,
            {{microKernelAvx512<MR, 1, 1>, microKernelAvx512<MR, 1, 2>},
             {microKernelAvx512<MR, NA, 1>,
              microKernelAvx512<MR, NA, 2>}},
            NA};
}
#endif

GemmKernels
gemmKernels(int mr, int nr)
{
    const SimdLevel level = simdLevel();
    const MicroFn micro = microDispatch(level, mr, nr);
#if TAMRES_SIMD_X86
    // Up to 8 rows x 32 columns per call: 16 zmm accumulators.
    if (level == SimdLevel::Avx2 && nr == 16 && simdAvx512()) {
        switch (mr) {
          case 1: return wideKernels<1, 8>(micro);
          case 2: return wideKernels<2, 4>(micro);
          case 4: return wideKernels<4, 2>(micro);
          case 6: return wideKernels<6, 1>(micro);
          case 8: return wideKernels<8, 1>(micro);
          default: break;
        }
    }
#endif
    return {micro};
}

/**
 * Thread-local scratch reused across calls to avoid reallocation.
 * Buffers only ever grow (vector resize keeps capacity), so after a
 * warm-up pass over a network's shapes the kernels run allocation-free
 * — the property the plan runtime's zero-alloc steady state relies on.
 */
struct Scratch
{
    std::vector<float> apack;
    std::vector<float> bpack;
    std::vector<float> ctile;
    std::vector<float> wino_u; //!< transformed weights (fork thread)
    std::vector<float> wino_v; //!< input-tile transform (per worker)
    std::vector<float> wino_m; //!< GEMM accumulator (per worker)
    std::vector<int8_t> qapack; //!< int8 A quad panels (on-the-fly)
    std::vector<int8_t> qbpack; //!< int8 B quad panels (per worker)
    std::vector<int32_t> qacc;  //!< padded int32 accumulator panel
    std::vector<int32_t> qcomp; //!< A row sums (on-the-fly VNNI comp)
};

Scratch &
scratch()
{
    thread_local Scratch s;
    return s;
}

/** Effective cache-block sizes (clamped so micro tiles always fit). */
struct GemmBlocking
{
    int mc, kc, nc;
};

GemmBlocking
effectiveBlocking(const ConvConfig &cfg)
{
    return {std::max(cfg.mr, cfg.mc), std::max(1, cfg.kc),
            std::max(cfg.nr, cfg.nc)};
}

/**
 * Pack A[icb .. icb+mb) x [pc .. pc+kb) (row stride @p lda) into
 * panels of @p mr rows, k-major, zero-padded to a multiple of mr.
 * Shared between the on-the-fly packer and packGemmA so the layouts
 * cannot diverge; every call counts as one weight-side pack op.
 */
void
packABlock(const float *a, int lda, int icb, int pc, int mb, int kb,
           int mr, float *dst)
{
    const int mb_pad = (mb + mr - 1) / mr * mr;
    for (int ir = 0; ir < mb_pad; ir += mr) {
        float *d = dst + static_cast<size_t>(ir) * kb;
        const int rows = std::min(mr, mb - ir);
        for (int k = 0; k < kb; ++k) {
            for (int i = 0; i < rows; ++i) {
                d[k * mr + i] =
                    a[static_cast<int64_t>(icb + ir + i) * lda + pc + k];
            }
            for (int i = rows; i < mr; ++i)
                d[k * mr + i] = 0.0f;
        }
    }
    g_weight_pack_count.fetch_add(1, std::memory_order_relaxed);
}

/**
 * The B operand of a GEMM over a merged column space: column g belongs
 * to image g / N_per, its column g % N_per, and image i's data starts
 * at base + i * img_stride. Without a conv geometry that data is a
 * K x N_per row-major matrix (a pointwise conv's input planes,
 * Winograd's transformed tiles). With one it is the NCHW input from
 * the group's first channel, read as the implicit im2col matrix: row k
 * is the tap (ic, ky, kx), column (y, x) the output pixel, and a tap in
 * the padding reads zero. The B-panel packers read it in place, so no
 * column matrix is materialized at any batch size (the packing form of
 * Goto & van de Geijn, ACM TOMS 2008; the indirect-convolution idea of
 * Dukhan, arXiv:1907.02129). T is float for the fp32 GEMM and int8_t
 * for the quantized one, whose padding taps pack q(0) = 0 exactly.
 */
template <typename T>
struct GemmB
{
    const T *base = nullptr;
    int64_t img_stride = 0;
    const ConvProblem *conv = nullptr;
};

/**
 * Packs one nr-wide B panel (see packMatrixPanel). A panel's k rows
 * are interleaved in groups of Q: element (k, j) sits at
 * dst[(k / Q) * nr * Q + j * Q + k % Q], which is k-major for the fp32
 * micro-kernels (Q = 1) and quad-K for the int8 ones (Q = 4). The k
 * tail is zero-padded to a whole group.
 */
template <typename T>
using PanelPackFn = void (*)(const GemmB<T> &b, int N_per, int64_t g0,
                             int jw, int pc, int kb, int nr, T *dst);

/** Row k of a Q-interleaved nr-wide panel; its column j is at [j * Q]. */
template <typename T, int Q>
T *
panelRow(T *dst, int k, int nr)
{
    return dst + static_cast<size_t>(k / Q) * nr * Q + k % Q;
}

/** Zero a panel's rows kb .. (kb rounded up to Q); none when Q = 1. */
template <typename T, int Q>
void
zeroPanelKTail(int kb, int nr, T *dst)
{
    for (int k = kb; k % Q != 0; ++k) {
        T *d = panelRow<T, Q>(dst, k, nr);
        for (int j = 0; j < nr; ++j)
            d[j * Q] = T(0);
    }
}

/** The tap (ic, ky, kx) of implicit-im2col row k, stepped row by row. */
struct Tap
{
    int ic, ky, kx;

    Tap(const ConvProblem &p, int k)
        : ic(k / (p.kh * p.kw)), ky(k / p.kw % p.kh), kx(k % p.kw)
    {}

    void
    next(const ConvProblem &p)
    {
        if (++kx == p.kw) {
            kx = 0;
            if (++ky == p.kh) {
                ky = 0;
                ++ic;
            }
        }
    }
};

/**
 * Pack rows [pc, pc + kb) x columns [g0, g0 + jw) of a matrix B into
 * one nr-wide panel, zero-padding columns jw..nr. A panel whose
 * columns all belong to one image reads contiguous rows; only panels
 * straddling an image boundary resolve per column.
 */
template <typename T, int Q>
void
packMatrixPanel(const GemmB<T> &b, int N_per, int64_t g0, int jw, int pc,
                int kb, int nr, T *dst)
{
    if (g0 / N_per == (g0 + jw - 1) / N_per) {
        const T *src = b.base + g0 / N_per * b.img_stride +
                       static_cast<int64_t>(pc) * N_per + g0 % N_per;
        for (int k = 0; k < kb; ++k) {
            const T *row = src + static_cast<int64_t>(k) * N_per;
            T *d = panelRow<T, Q>(dst, k, nr);
            for (int j = 0; j < jw; ++j)
                d[j * Q] = row[j];
            for (int j = jw; j < nr; ++j)
                d[j * Q] = T(0);
        }
    } else {
        for (int j = 0; j < jw; ++j) {
            const int64_t g = g0 + j;
            const T *src = b.base + g / N_per * b.img_stride +
                           static_cast<int64_t>(pc) * N_per + g % N_per;
            for (int k = 0; k < kb; ++k)
                panelRow<T, Q>(dst, k, nr)[j * Q] =
                    src[static_cast<int64_t>(k) * N_per];
        }
        for (int j = jw; j < nr; ++j)
            for (int k = 0; k < kb; ++k)
                panelRow<T, Q>(dst, k, nr)[j * Q] = T(0);
    }
    zeroPanelKTail<T, Q>(kb, nr, dst);
}

/**
 * The same panel of an implicit im2col matrix (GemmB with a conv
 * geometry), on every dispatch level and for both precisions. The
 * columns split into runs that share an image and an output row; each
 * run walks the k rows (taps), reading one input-row segment at the
 * conv stride per row and writing zeros where the segment leaves the
 * input.
 */
template <typename T, int Q>
void
packConvPanel(const GemmB<T> &b, int N_per, int64_t g0, int jw, int pc,
              int kb, int nr, T *dst)
{
    const ConvProblem &p = *b.conv;
    const int ow = p.ow();
    const int s = p.stride;
    const int64_t plane = static_cast<int64_t>(p.ih) * p.iw;
    int64_t img = g0 / N_per;
    int pix = static_cast<int>(g0 % N_per);
    for (int j = 0; j < jw;) {
        if (pix == N_per) {
            ++img;
            pix = 0;
        }
        const int len = std::min(jw - j, ow - pix % ow);
        const int iy0 = pix / ow * s - p.pad;
        const int ix0 = pix % ow * s - p.pad;
        const T *src = b.base + img * b.img_stride;
        Tap tap(p, pc);
        for (int k = 0; k < kb; ++k, tap.next(p)) {
            T *o = panelRow<T, Q>(dst, k, nr) + j * Q;
            const int iy = iy0 + tap.ky;
            const int ix = ix0 + tap.kx;
            // Run columns [lo, hi) read inside the input row.
            int lo = 0;
            int hi = 0;
            const T *row = nullptr;
            if (iy >= 0 && iy < p.ih) {
                lo = std::min(len, ix >= 0 ? 0 : (s - 1 - ix) / s);
                hi = std::max(lo, std::min(len, (p.iw - ix + s - 1) / s));
                row = src + tap.ic * plane + static_cast<int64_t>(iy) * p.iw;
            }
            for (int t = 0; t < lo; ++t)
                o[t * Q] = T(0);
            for (int t = lo; t < hi; ++t)
                o[t * Q] = row[ix + t * s];
            for (int t = hi; t < len; ++t)
                o[t * Q] = T(0);
        }
        j += len;
        pix += len;
    }
    for (int k = 0; k < kb && jw < nr; ++k) {
        T *d = panelRow<T, Q>(dst, k, nr);
        for (int j = jw; j < nr; ++j)
            d[j * Q] = T(0);
    }
    zeroPanelKTail<T, Q>(kb, nr, dst);
}

#if TAMRES_SIMD_X86
/**
 * packConvPanel for nr == 16 on the AVX-512F path: one masked gather
 * per k row. The lanes' offsets (relative to the panel's first image,
 * which keeps them in int32 for any batch) and their output pixels'
 * tap origins (iy0, ix0) are tabulated once per panel; per row the
 * tap's offset is added and four compares mask off the lanes whose tap
 * falls in the padding (masked lanes are not read and pack zero).
 * Same values as the portable packer, at a fraction of its
 * instructions per float.
 */
TAMRES_TARGET_AVX512 void
packConvPanelAvx512(const GemmB<float> &b, int N_per, int64_t g0, int jw,
                    int pc, int kb, int /*nr == 16*/, float *dst)
{
    const ConvProblem &p = *b.conv;
    const int ow = p.ow();
    const int plane = p.ih * p.iw;
    const int64_t img0 = g0 / N_per;
    alignas(64) int32_t off[16] = {};
    alignas(64) int32_t iy0[16] = {};
    alignas(64) int32_t ix0[16] = {};
    const int pix = static_cast<int>(g0 % N_per);
    int img = 0;
    int y = pix / ow;
    int x = pix % ow;
    for (int j = 0; j < jw; ++j) {
        iy0[j] = y * p.stride - p.pad;
        ix0[j] = x * p.stride - p.pad;
        off[j] = static_cast<int32_t>(img * b.img_stride) +
                 iy0[j] * p.iw + ix0[j];
        if (++x == ow) {
            x = 0;
            if (++y == p.oh()) {
                y = 0;
                ++img;
            }
        }
    }
    const __mmask16 lanes = static_cast<__mmask16>((1u << jw) - 1);
    const __m512i voff = _mm512_load_si512(off);
    const __m512i viy = _mm512_load_si512(iy0);
    const __m512i vix = _mm512_load_si512(ix0);
    const __m512i vih = _mm512_set1_epi32(p.ih);
    const __m512i viw = _mm512_set1_epi32(p.iw);
    const __m512i zero = _mm512_setzero_si512();
    const float *base = b.base + img0 * b.img_stride;
    Tap tap(p, pc);
    for (int k = 0; k < kb; ++k, tap.next(p)) {
        const __m512i iy =
            _mm512_add_epi32(viy, _mm512_set1_epi32(tap.ky));
        const __m512i ix =
            _mm512_add_epi32(vix, _mm512_set1_epi32(tap.kx));
        __mmask16 m = _mm512_mask_cmpge_epi32_mask(lanes, iy, zero);
        m = _mm512_mask_cmplt_epi32_mask(m, iy, vih);
        m = _mm512_mask_cmpge_epi32_mask(m, ix, zero);
        m = _mm512_mask_cmplt_epi32_mask(m, ix, viw);
        const __m512i idx = _mm512_add_epi32(
            voff,
            _mm512_set1_epi32(tap.ic * plane + tap.ky * p.iw + tap.kx));
        _mm512_storeu_ps(dst + static_cast<size_t>(k) * 16,
                         _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m,
                                                  idx, base, 4));
    }
}
#endif

/**
 * Multi-B GEMM: C[img] += A * B[img] for same-shaped GEMMs (each
 * M x N_per, row-major; C[img] at c + img * c_img_stride), executed as
 * ONE logical GEMM over the merged column space — global column g maps
 * to image g / N_per, column g % N_per. This range kernel covers
 * merged columns [c0, c1) with the GotoBLAS loop structure over packed
 * panels. When @p prea is non-null it supplies plan-prepacked A panels
 * (built by packGemmA for the same blocking) and A is neither read nor
 * packed here — the steady-state serving path. One loop nest serves
 * every GEMM flavor (one image or many, matrix or implicit-im2col B),
 * so panel packing, prepack indexing and edge-tile handling exist
 * exactly once.
 *
 * Two genuine batch wins over one GEMM per image:
 *  - A panel blocks are streamed once per merged column panel instead
 *    of once per image, cutting weight traffic on the deep layers by
 *    up to the batch factor (their per-image GEMM has N_per << nc).
 *  - Micro-tile padding disappears: a 7x7 layer's 49 columns pad to
 *    64 per image (30% wasted FMAs at nr = 16); merged, only the
 *    final panel of the whole batch pads.
 *
 * Bit-identity: every output element is accumulated k-block by
 * k-block in ascending pc order, with identical per-k arithmetic, no
 * matter how columns are grouped into panels or partitioned across
 * workers — so the result is bit-identical to one GEMM per image at
 * any thread count.
 *
 * Register tiles: the AVX2/NEON/scalar micro-kernels cover one
 * mr x nr tile per call. On the AVX-512F path (kern.wide set) a call
 * covers up to kern.wide_panels A panels by two B panels and stores
 * its row and column tails through masks. A tile that straddles an
 * image boundary runs the same kernel into the zeroed ctile scratch
 * and scatters from there. The per-element arithmetic is the same in
 * every case.
 */
void
blockedGemmMultiBRange(int M, int N_per, int K, const GemmB<float> &b,
                       float *c, int64_t c_img_stride, int64_t c0,
                       int64_t c1, const ConvConfig &cfg,
                       const GemmKernels &kern, const PackedGemmA *prea,
                       const float *a)
{
    const auto [mc, kc, nc] = effectiveBlocking(cfg);
    const int mr = cfg.mr;
    const int nr = cfg.nr;
    const bool wide = kern.wide[0][0] != nullptr;
    const int jstep = wide ? 2 * nr : nr;
    PanelPackFn<float> pack =
        b.conv ? packConvPanel<float, 1> : packMatrixPanel<float, 1>;
#if TAMRES_SIMD_X86
    // The 512-bit conv packer's int32 lane offsets span at most nr
    // images.
    if (wide && b.conv && nr * b.img_stride <= INT32_MAX)
        pack = packConvPanelAvx512;
#endif

    Scratch &s = scratch();
    if (!prea)
        s.apack.resize((static_cast<size_t>(mc) + mr) * kc);
    s.bpack.resize((static_cast<size_t>(nc) + nr) * kc);
    s.ctile.resize(static_cast<size_t>(kern.wide_panels) * mr * jstep);

    for (int64_t jc = c0; jc < c1; jc += nc) {
        const int nb = static_cast<int>(std::min<int64_t>(nc, c1 - jc));
        const int nb_pad = (nb + nr - 1) / nr * nr;
        for (int pc = 0, pcb = 0; pc < K; pc += kc, ++pcb) {
            const int kb = std::min(kc, K - pc);
            for (int jr = 0; jr < nb; jr += nr)
                pack(b, N_per, jc + jr, std::min(nr, nb - jr), pc, kb,
                     nr, s.bpack.data() + static_cast<size_t>(jr) * kb);
            for (int icb = 0; icb * mc < M; ++icb) {
                const int i0 = icb * mc;
                const int mb = std::min(mc, M - i0);
                const int mb_pad = (mb + mr - 1) / mr * mr;
                const float *apanels;
                if (prea) {
                    apanels = prea->block(pcb, icb);
                } else {
                    packABlock(a, K, i0, pc, mb, kb, mr,
                               s.apack.data());
                    apanels = s.apack.data();
                }
                // Add a rows x cols ctile (row stride ldt) into C at
                // row i0 + ir, merged column jc + jr, image by image.
                auto scatter = [&](int ir, int jr, int rows, int cols,
                                   int ldt) {
                    int64_t g = jc + jr;
                    for (int j = 0; j < cols;) {
                        const int col = static_cast<int>(g % N_per);
                        const int len = std::min(cols - j, N_per - col);
                        float *dst = c + g / N_per * c_img_stride +
                                     static_cast<int64_t>(i0 + ir) *
                                         N_per +
                                     col;
                        for (int i = 0; i < rows; ++i)
                            for (int t = 0; t < len; ++t)
                                dst[static_cast<int64_t>(i) * N_per +
                                    t] += s.ctile[i * ldt + j + t];
                        j += len;
                        g += len;
                    }
                };
                for (int jr = 0; jr < nb_pad; jr += jstep) {
                    const float *bp =
                        s.bpack.data() + static_cast<size_t>(jr) * kb;
                    const int jw = std::min(jstep, nb - jr);
                    const int64_t g0 = jc + jr;
                    // Direct store only when the whole tile lands in
                    // one image's C matrix.
                    const bool one_img =
                        g0 / N_per == (g0 + jw - 1) / N_per;
                    float *cimg = one_img ? c + g0 / N_per * c_img_stride +
                                                g0 % N_per
                                          : nullptr;
                    for (int ir = 0; ir < mb_pad;) {
                        const float *ap =
                            apanels + static_cast<size_t>(ir) * kb;
                        const int na =
                            wide && mb_pad - ir >= kern.wide_panels * mr
                                ? kern.wide_panels
                                : 1;
                        const int rows = std::min(na * mr, mb - ir);
                        const WideFn wfn =
                            wide ? kern.wide[na > 1][jw > nr] : nullptr;
                        float *crow =
                            one_img ? cimg + static_cast<int64_t>(i0 +
                                                                  ir) *
                                                 N_per
                                    : nullptr;
                        if (one_img && wide) {
                            wfn(kb, ap, bp, crow, N_per, rows, jw);
                        } else if (one_img && rows == mr && jw == nr) {
                            kern.micro(kb, ap, bp, crow, N_per);
                        } else {
                            std::fill(s.ctile.begin(), s.ctile.end(),
                                      0.0f);
                            if (wide)
                                wfn(kb, ap, bp, s.ctile.data(), jstep,
                                    rows, jw);
                            else
                                kern.micro(kb, ap, bp, s.ctile.data(),
                                           nr);
                            scatter(ir, jr, rows, jw, jstep);
                        }
                        ir += na * mr;
                    }
                }
            }
        }
    }
}

/**
 * Parallel front end of the multi-B GEMM: split the merged column
 * space across workers, each running the serial range kernel with
 * private packing scratch. Every output element is produced by exactly
 * one worker with the serial accumulation order, so results are
 * bit-identical for any partition. Prepacked A panels are shared
 * read-only by every worker.
 *
 * @p kern is resolved by the top-level caller (gemmKernels: one read
 * of the dispatch state per conv invocation, per the dispatch
 * contract) so a concurrent level override can never mix kernel
 * flavors inside one output — worker threads inherit the caller's
 * pick.
 */
void
blockedGemmMultiB(int M, int N_per, int K, int nimg,
                  const GemmB<float> &b, float *c, int64_t c_img_stride,
                  const ConvConfig &cfg, int threads,
                  const GemmKernels &kern, const PackedGemmA *prea,
                  const float *a)
{
    const auto [mc, kc, nc] = effectiveBlocking(cfg);
    (void)nc;
    tamres_assert(kern.micro, "unsupported micro-kernel %dx%d", cfg.mr,
                  cfg.nr);
    tamres_assert(!prea ||
                      (prea->M == M && prea->K == K && prea->mc == mc &&
                       prea->kc == kc && prea->mr == cfg.mr),
                  "prepacked A does not match this GEMM's blocking");
    const int64_t total = static_cast<int64_t>(nimg) * N_per;
    if (threads <= 1 || total < 2 * cfg.nr) {
        blockedGemmMultiBRange(M, N_per, K, b, c, c_img_stride, 0, total,
                               cfg, kern, prea, a);
        return;
    }
    ThreadPool::global().parallelFor(
        total,
        [&](int64_t j0, int64_t j1) {
            blockedGemmMultiBRange(M, N_per, K, b, c, c_img_stride, j0,
                                   j1, cfg, kern, prea, a);
        },
        threads);
}

/**
 * Im2col-family conv: per group, ONE logical GEMM over the merged
 * columns of the whole batch (p.n * oh * ow; see blockedGemmMultiB).
 * Pointwise convs read the input planes as B directly; every other
 * conv packs its B panels straight from the NCHW input through the
 * conv geometry (GemmB), so no im2col matrix exists at any batch size.
 */
void
im2colKernel(const ConvProblem &p, const float *in, const float *w,
             const float *bias, float *out, const ConvConfig &cfg,
             const PackedConvWeights *packed = nullptr)
{
    const int icg = p.ic / p.groups;
    const int ocg = p.oc / p.groups;
    const int K = icg * p.kh * p.kw;
    const int N = p.oh() * p.ow();
    const int64_t plane = static_cast<int64_t>(p.ih) * p.iw;
    const int64_t c_img_stride = static_cast<int64_t>(p.oc) * N;
    const bool pointwise =
        p.kh == 1 && p.kw == 1 && p.stride == 1 && p.pad == 0;

    // One dispatch read for the whole conv call.
    const GemmKernels kern = gemmKernels(cfg.mr, cfg.nr);
    const int threads = effectiveThreads(cfg);

    for (int g = 0; g < p.groups; ++g) {
        const GemmB<float> b{in + g * icg * plane, p.ic * plane,
                             pointwise ? nullptr : &p};
        float *c = out + static_cast<int64_t>(g) * ocg * N;
        // Initialize output with bias (GEMM accumulates).
        for (int n = 0; n < p.n; ++n) {
            for (int oc = 0; oc < ocg; ++oc) {
                std::fill_n(c + n * c_img_stride +
                                static_cast<int64_t>(oc) * N,
                            N, bias ? bias[g * ocg + oc] : 0.0f);
            }
        }
        blockedGemmMultiB(
            ocg, N, K, p.n, b, c, c_img_stride, cfg, threads, kern,
            packed ? &packed->mats[g] : nullptr,
            w ? w + static_cast<int64_t>(g) * ocg * K : nullptr);
    }
}

// ---------------------------------------------------------------------
// Winograd F(2x2, 3x3) kernel
// ---------------------------------------------------------------------

/**
 * 1-D transform matrices for F(2, 3):
 *   B^T (4x4) input, G (4x3) weight, A^T (2x4) output.
 * The 2-D forms apply the 1-D transform along both axes.
 */

/** U[16][oc][icg]: transformed weights, k-major across the 16 freqs. */
void
winogradWeightTransform(const ConvProblem &p, const float *w,
                        std::vector<float> &u)
{
    g_weight_pack_count.fetch_add(1, std::memory_order_relaxed);
    const int icg = p.ic / p.groups;
    u.resize(static_cast<size_t>(16) * p.oc * icg);
    for (int oc = 0; oc < p.oc; ++oc) {
        for (int ic = 0; ic < icg; ++ic) {
            const float *g =
                w + (static_cast<int64_t>(oc) * icg + ic) * 9;
            // t = G g (4x3 result).
            float t[4][3];
            for (int j = 0; j < 3; ++j) {
                const float g0 = g[0 * 3 + j];
                const float g1 = g[1 * 3 + j];
                const float g2 = g[2 * 3 + j];
                t[0][j] = g0;
                t[1][j] = 0.5f * (g0 + g1 + g2);
                t[2][j] = 0.5f * (g0 - g1 + g2);
                t[3][j] = g2;
            }
            // uu = t G^T (4x4 result).
            for (int i = 0; i < 4; ++i) {
                const float t0 = t[i][0];
                const float t1 = t[i][1];
                const float t2 = t[i][2];
                const float uu[4] = {t0, 0.5f * (t0 + t1 + t2),
                                     0.5f * (t0 - t1 + t2), t2};
                for (int j = 0; j < 4; ++j) {
                    u[(static_cast<size_t>(i * 4 + j) * p.oc + oc) *
                          icg + ic] = uu[j];
                }
            }
        }
    }
}

/** d (4x4) -> B^T d B, written into v[16] (freq-major scalars). */
inline void
winogradInputTransform4x4(const float d[4][4], float v[16])
{
    // t = B^T d.
    float t[4][4];
    for (int j = 0; j < 4; ++j) {
        t[0][j] = d[0][j] - d[2][j];
        t[1][j] = d[1][j] + d[2][j];
        t[2][j] = d[2][j] - d[1][j];
        t[3][j] = d[1][j] - d[3][j];
    }
    // v = t B.
    for (int i = 0; i < 4; ++i) {
        v[i * 4 + 0] = t[i][0] - t[i][2];
        v[i * 4 + 1] = t[i][1] + t[i][2];
        v[i * 4 + 2] = t[i][2] - t[i][1];
        v[i * 4 + 3] = t[i][1] - t[i][3];
    }
}

/*
 * Vector forms of the tile transforms. The butterfly is adds and subs
 * only, applied in the same association as the scalar code (the
 * second stage becomes the same row-wise butterfly after a transpose,
 * since v = t B means v^T = B^T t^T), so the vector paths are
 * BIT-IDENTICAL to the scalar ones — no tolerance is forfeited by
 * dispatching per tile.
 */

#if TAMRES_SIMD_X86 && defined(__SSE__)

inline void
winogradInputTransform4x4Sse(const float d[4][4], float v[16])
{
    const __m128 d0 = _mm_loadu_ps(d[0]);
    const __m128 d1 = _mm_loadu_ps(d[1]);
    const __m128 d2 = _mm_loadu_ps(d[2]);
    const __m128 d3 = _mm_loadu_ps(d[3]);
    __m128 t0 = _mm_sub_ps(d0, d2);
    __m128 t1 = _mm_add_ps(d1, d2);
    __m128 t2 = _mm_sub_ps(d2, d1);
    __m128 t3 = _mm_sub_ps(d1, d3);
    _MM_TRANSPOSE4_PS(t0, t1, t2, t3);
    __m128 v0 = _mm_sub_ps(t0, t2);
    __m128 v1 = _mm_add_ps(t1, t2);
    __m128 v2 = _mm_sub_ps(t2, t1);
    __m128 v3 = _mm_sub_ps(t1, t3);
    _MM_TRANSPOSE4_PS(v0, v1, v2, v3);
    _mm_storeu_ps(v + 0, v0);
    _mm_storeu_ps(v + 4, v1);
    _mm_storeu_ps(v + 8, v2);
    _mm_storeu_ps(v + 12, v3);
}

#endif

#if TAMRES_SIMD_NEON

inline void
winogradInputTransform4x4Neon(const float d[4][4], float v[16])
{
    float32x4_t t0 = vsubq_f32(vld1q_f32(d[0]), vld1q_f32(d[2]));
    float32x4_t t1 = vaddq_f32(vld1q_f32(d[1]), vld1q_f32(d[2]));
    float32x4_t t2 = vsubq_f32(vld1q_f32(d[2]), vld1q_f32(d[1]));
    float32x4_t t3 = vsubq_f32(vld1q_f32(d[1]), vld1q_f32(d[3]));
    float32x4x4_t m = {t0, t1, t2, t3};
    // Transpose via two zip stages.
    float32x4x2_t z01 = vzipq_f32(m.val[0], m.val[1]);
    float32x4x2_t z23 = vzipq_f32(m.val[2], m.val[3]);
    t0 = vcombine_f32(vget_low_f32(z01.val[0]),
                      vget_low_f32(z23.val[0]));
    t1 = vcombine_f32(vget_high_f32(z01.val[0]),
                      vget_high_f32(z23.val[0]));
    t2 = vcombine_f32(vget_low_f32(z01.val[1]),
                      vget_low_f32(z23.val[1]));
    t3 = vcombine_f32(vget_high_f32(z01.val[1]),
                      vget_high_f32(z23.val[1]));
    float32x4_t v0 = vsubq_f32(t0, t2);
    float32x4_t v1 = vaddq_f32(t1, t2);
    float32x4_t v2 = vsubq_f32(t2, t1);
    float32x4_t v3 = vsubq_f32(t1, t3);
    // Transpose back and store row-major.
    z01 = vzipq_f32(v0, v1);
    z23 = vzipq_f32(v2, v3);
    vst1q_f32(v + 0, vcombine_f32(vget_low_f32(z01.val[0]),
                                  vget_low_f32(z23.val[0])));
    vst1q_f32(v + 4, vcombine_f32(vget_high_f32(z01.val[0]),
                                  vget_high_f32(z23.val[0])));
    vst1q_f32(v + 8, vcombine_f32(vget_low_f32(z01.val[1]),
                                  vget_low_f32(z23.val[1])));
    vst1q_f32(v + 12, vcombine_f32(vget_high_f32(z01.val[1]),
                                   vget_high_f32(z23.val[1])));
}

#endif

inline void
winogradInputTransformDispatch(bool vec, const float d[4][4],
                               float v[16])
{
#if TAMRES_SIMD_X86 && defined(__SSE__)
    if (vec)
        return winogradInputTransform4x4Sse(d, v);
#elif TAMRES_SIMD_NEON
    if (vec)
        return winogradInputTransform4x4Neon(d, v);
#endif
    (void)vec;
    winogradInputTransform4x4(d, v);
}

/** m (4x4) -> A^T m A (2x2 output). */
inline void
winogradOutputTransform(const float m[16], float y[2][2])
{
    float t[2][4];
    for (int j = 0; j < 4; ++j) {
        t[0][j] = m[0 * 4 + j] + m[1 * 4 + j] + m[2 * 4 + j];
        t[1][j] = m[1 * 4 + j] - m[2 * 4 + j] - m[3 * 4 + j];
    }
    for (int i = 0; i < 2; ++i) {
        y[i][0] = t[i][0] + t[i][1] + t[i][2];
        y[i][1] = t[i][1] - t[i][2] - t[i][3];
    }
}

/** Vector first stage (same association -> bit-identical to scalar). */
inline void
winogradOutputTransformDispatch(bool vec, const float m[16],
                                float y[2][2])
{
#if TAMRES_SIMD_X86 && defined(__SSE__)
    if (vec) {
        const __m128 m0 = _mm_loadu_ps(m + 0);
        const __m128 m1 = _mm_loadu_ps(m + 4);
        const __m128 m2 = _mm_loadu_ps(m + 8);
        const __m128 m3 = _mm_loadu_ps(m + 12);
        float t[2][4];
        _mm_storeu_ps(t[0], _mm_add_ps(_mm_add_ps(m0, m1), m2));
        _mm_storeu_ps(t[1], _mm_sub_ps(_mm_sub_ps(m1, m2), m3));
        for (int i = 0; i < 2; ++i) {
            y[i][0] = t[i][0] + t[i][1] + t[i][2];
            y[i][1] = t[i][1] - t[i][2] - t[i][3];
        }
        return;
    }
#elif TAMRES_SIMD_NEON
    if (vec) {
        const float32x4_t m0 = vld1q_f32(m + 0);
        const float32x4_t m1 = vld1q_f32(m + 4);
        const float32x4_t m2 = vld1q_f32(m + 8);
        const float32x4_t m3 = vld1q_f32(m + 12);
        float t[2][4];
        vst1q_f32(t[0], vaddq_f32(vaddq_f32(m0, m1), m2));
        vst1q_f32(t[1], vsubq_f32(vsubq_f32(m1, m2), m3));
        for (int i = 0; i < 2; ++i) {
            y[i][0] = t[i][0] + t[i][1] + t[i][2];
            y[i][1] = t[i][1] - t[i][2] - t[i][3];
        }
        return;
    }
#endif
    (void)vec;
    winogradOutputTransform(m, y);
}

void
winogradKernel(const ConvProblem &p, const float *in, const float *w,
               const float *bias, float *out, const ConvConfig &cfg,
               const PackedConvWeights *packed = nullptr)
{
    const int oh = p.oh();
    const int ow = p.ow();
    const int icg = p.ic / p.groups;
    const int tiles_y = (oh + 1) / 2;
    const int tiles_x = (ow + 1) / 2;
    const int total_tiles = tiles_y * tiles_x;
    const int tb = std::max(4, cfg.wino_tile_block);
    // One dispatch read for the whole conv call; workers inherit it.
    const bool vec = simdLevel() != SimdLevel::Scalar;
    const GemmKernels kern = gemmKernels(cfg.mr, cfg.nr);

    // Prepacked weights skip both the per-call weight transform and
    // the per-GEMM A packing; otherwise transform into scratch.
    std::vector<float> &u = scratch().wino_u;
    if (!packed)
        winogradWeightTransform(p, w, u);

    // Parallelize over (batch, tile block): every block writes a
    // disjoint set of output tiles and carries its own V/M scratch, so
    // any partition of the flattened range is bit-identical. The
    // per-block GEMMs below run serially inside the worker.
    const int nblk = (total_tiles + tb - 1) / tb;
    const int64_t total_work = static_cast<int64_t>(p.n) * nblk;
    ThreadPool::global().parallelFor(
        total_work,
        [&](int64_t w0, int64_t w1) {
        // Per tile-block scratch: V[16][icg][tb], M[16][oc][tb],
        // thread-local so each worker reuses its own across calls.
        std::vector<float> &v = scratch().wino_v;
        std::vector<float> &m = scratch().wino_m;
        v.resize(static_cast<size_t>(16) * icg * tb);
        m.resize(static_cast<size_t>(16) * p.oc * tb);
        for (int64_t wi = w0; wi < w1; ++wi) {
            const int n = static_cast<int>(wi / nblk);
            const int t0 = static_cast<int>(wi % nblk) * tb;
            const int tcount = std::min(tb, total_tiles - t0);
            // Gather + transform input tiles.
            for (int ic = 0; ic < icg; ++ic) {
                const float *iplane =
                    in + ((static_cast<int64_t>(n) * p.ic + ic) *
                          p.ih) * p.iw;
                for (int t = 0; t < tcount; ++t) {
                    const int ty = (t0 + t) / tiles_x;
                    const int tx = (t0 + t) % tiles_x;
                    const int iy0 = ty * 2 - p.pad;
                    const int ix0 = tx * 2 - p.pad;
                    float d[4][4];
                    for (int y = 0; y < 4; ++y) {
                        const int iy = iy0 + y;
                        for (int x = 0; x < 4; ++x) {
                            const int ix = ix0 + x;
                            d[y][x] = (iy < 0 || iy >= p.ih || ix < 0 ||
                                       ix >= p.iw)
                                          ? 0.0f
                                          : iplane[static_cast<int64_t>(
                                                       iy) * p.iw + ix];
                        }
                    }
                    float freq[16];
                    winogradInputTransformDispatch(vec, d, freq);
                    for (int k = 0; k < 16; ++k)
                        v[(static_cast<size_t>(k) * icg + ic) *
                              tcount + t] = freq[k];
                }
            }
            // 16 GEMMs: M[k] = U[k] (oc x icg) * V[k] (icg x tcount).
            // Buffers are packed dense at the current block's width.
            std::fill(m.begin(), m.end(), 0.0f);
            for (int k = 0; k < 16; ++k) {
                blockedGemmMultiB(
                    p.oc, tcount, icg, 1,
                    GemmB<float>{v.data() +
                                 static_cast<size_t>(k) * icg * tcount},
                    m.data() + static_cast<size_t>(k) * p.oc * tcount,
                    0, cfg, 1, kern,
                    packed ? &packed->mats[k] : nullptr,
                    packed ? nullptr
                           : u.data() +
                                 static_cast<size_t>(k) * p.oc * icg);
            }
            // Inverse transform + scatter.
            for (int oc = 0; oc < p.oc; ++oc) {
                const float bv = bias ? bias[oc] : 0.0f;
                float *oplane =
                    out + ((static_cast<int64_t>(n) * p.oc + oc) * oh) *
                              ow;
                for (int t = 0; t < tcount; ++t) {
                    const int ty = (t0 + t) / tiles_x;
                    const int tx = (t0 + t) % tiles_x;
                    float freq[16];
                    for (int k = 0; k < 16; ++k)
                        freq[k] = m[(static_cast<size_t>(k) * p.oc +
                                     oc) * tcount + t];
                    float y[2][2];
                    winogradOutputTransformDispatch(vec, freq, y);
                    for (int dy = 0; dy < 2; ++dy) {
                        const int oy = ty * 2 + dy;
                        if (oy >= oh)
                            break;
                        for (int dx = 0; dx < 2; ++dx) {
                            const int ox = tx * 2 + dx;
                            if (ox >= ow)
                                break;
                            oplane[static_cast<int64_t>(oy) * ow + ox] =
                                y[dy][dx] + bv;
                        }
                    }
                }
            }
        }
        },
        effectiveThreads(cfg));
}

// ---------------------------------------------------------------------
// Depthwise direct kernel
// ---------------------------------------------------------------------

void
depthwiseKernel(const ConvProblem &p, const float *in, const float *w,
                const float *bias, float *out, const ConvConfig &cfg)
{
    const int oh = p.oh();
    const int ow = p.ow();
    const int owt = std::max(1, cfg.ow_tile);
    constexpr int kMaxOwTile = 32;
    tamres_assert(owt <= kMaxOwTile, "depthwise tile out of range");

    // Parallelize over (batch, channel): output planes are disjoint.
    const AxpyFn axpy = axpyDispatch();
    const int64_t total = static_cast<int64_t>(p.n) * p.oc;
    ThreadPool::global().parallelFor(
        total,
        [&](int64_t i0, int64_t i1) {
        float acc[kMaxOwTile];
        for (int64_t it = i0; it < i1; ++it) {
            const int n = static_cast<int>(it / p.oc);
            const int c = static_cast<int>(it % p.oc);
            const float *iplane =
                in + ((static_cast<int64_t>(n) * p.ic + c) * p.ih) *
                         p.iw;
            const float *wk = w + static_cast<int64_t>(c) * p.kh * p.kw;
            const float bv = bias ? bias[c] : 0.0f;
            float *oplane =
                out + ((static_cast<int64_t>(n) * p.oc + c) * oh) * ow;
            for (int y = 0; y < oh; ++y) {
                for (int x0 = 0; x0 < ow; x0 += owt) {
                    const int lim = std::min(owt, ow - x0);
                    for (int b = 0; b < lim; ++b)
                        acc[b] = bv;
                    for (int ky = 0; ky < p.kh; ++ky) {
                        const int iy = y * p.stride + ky - p.pad;
                        if (iy < 0 || iy >= p.ih)
                            continue;
                        const float *irow =
                            iplane + static_cast<int64_t>(iy) * p.iw;
                        for (int kx = 0; kx < p.kw; ++kx) {
                            const float wv = wk[ky * p.kw + kx];
                            const int ix0 = x0 + kx - p.pad;
                            if (p.stride == 1 && ix0 >= 0 &&
                                ix0 + lim <= p.iw) {
                                axpy(lim, wv, irow + ix0, acc);
                                continue;
                            }
                            for (int b = 0; b < lim; ++b) {
                                const int ix =
                                    (x0 + b) * p.stride + kx - p.pad;
                                if (ix >= 0 && ix < p.iw)
                                    acc[b] += wv * irow[ix];
                            }
                        }
                    }
                    for (int b = 0; b < lim; ++b)
                        oplane[static_cast<int64_t>(y) * ow + x0 + b] =
                            acc[b];
                }
            }
        }
        },
        effectiveThreads(cfg));
}

// ---------------------------------------------------------------------
// Int8 quantized GEMM (quad-K panels, int32 accumulation)
// ---------------------------------------------------------------------
//
// Same GotoBLAS blocking as the fp32 path, but both operands are int8
// packed in quad-K interleaved panels: every microkernel consumes k in
// groups of 4 (a scalar 4-step dot, a vpmaddwd pair of pairs, one
// vpdpbusd lane, or a NEON smull/padal pair), so the panel layout puts
// each row's/column's 4 consecutive k values contiguous. k is padded
// to a multiple of 4 per kc-block with zeros — zero A rows/B columns
// contribute exactly 0 to every int32 accumulator, which is what makes
// the padded direct-store scheme below exact. The B panels come from
// the same packers as fp32's (GemmB, packConvPanel/packMatrixPanel at
// Q = 4), straight from the quantized NCHW input: no int8 im2col
// matrix and no batch chunking at any batch size, one merged-column
// GEMM per conv.
//
// Unlike the fp32 path (which accumulates into C), the int8 path
// accumulates int32 into a padded per-panel scratch and applies the
// fp32 epilogue once per output element at the end. Integer adds are
// associative, so the accumulated value — and hence the epilogue's
// float result — is bit-identical across SIMD levels, thread counts,
// blocking choices, batch merging, and prepacked vs on-the-fly
// weights. Tests memcmp these paths against each other and against
// the naive reference kernel in quant.cc.

using MicroInt8Fn = void (*)(int kq, const int8_t *ap, const int8_t *bp,
                             int32_t *c, int ldc, const int32_t *comp);

/** k quads (groups of 4, zero-padded) covering @p kb values. */
inline int
quadCount(int kb)
{
    return (kb + 3) / 4;
}

/**
 * Scalar int8 micro-kernel: C[mr x nr] += A-quads times B-quads over
 * @p kq k-quads, int32 accumulation. The last parameter (VNNI row
 * compensation) is unused — this kernel multiplies signed x signed
 * directly. Defines the supported (mr, nr) set.
 */
template <int MR, int NR>
void
microKernelInt8(int kq, const int8_t *ap, const int8_t *bp, int32_t *c,
                int ldc, const int32_t *)
{
    int32_t acc[MR][NR] = {};
    for (int q = 0; q < kq; ++q) {
        const int8_t *a = ap + q * MR * 4;
        const int8_t *b = bp + q * NR * 4;
        for (int i = 0; i < MR; ++i) {
            for (int j = 0; j < NR; ++j) {
                int32_t s = 0;
                for (int u = 0; u < 4; ++u)
                    s += static_cast<int32_t>(a[i * 4 + u]) *
                         static_cast<int32_t>(b[j * 4 + u]);
                acc[i][j] += s;
            }
        }
    }
    for (int i = 0; i < MR; ++i)
        for (int j = 0; j < NR; ++j)
            c[i * ldc + j] += acc[i][j];
}

/** Scalar fallback for every supported int8 (mr, nr); defines the set. */
MicroInt8Fn
microDispatchInt8Scalar(int mr, int nr)
{
    switch (mr * 100 + nr) {
      case 108: return microKernelInt8<1, 8>;
      case 116: return microKernelInt8<1, 16>;
      case 208: return microKernelInt8<2, 8>;
      case 216: return microKernelInt8<2, 16>;
      case 408: return microKernelInt8<4, 8>;
      case 416: return microKernelInt8<4, 16>;
      case 808: return microKernelInt8<8, 8>;
      case 816: return microKernelInt8<8, 16>;
      default: return nullptr;
    }
}

#if TAMRES_SIMD_X86

/**
 * AVX2 int8 micro-kernel (nr = 8): widen the quad to i16 and use
 * vpmaddwd, which is *exact* (i16 x i16 products summed in pairs stay
 * far below 2^31), unlike vpmaddubsw whose i16 pair sums saturate.
 * Each madd leaves a column's dot product as two adjacent i32 partial
 * sums ("pair-lane form"); the epilogue hadd+permute folds them into
 * column order. Identical int32 result to the scalar template.
 */
template <int MR>
TAMRES_TARGET_AVX2 void
microKernelInt8Avx2(int kq, const int8_t *ap, const int8_t *bp,
                    int32_t *c, int ldc, const int32_t *)
{
    __m256i acc_lo[MR], acc_hi[MR];
    for (int i = 0; i < MR; ++i) {
        acc_lo[i] = _mm256_setzero_si256();
        acc_hi[i] = _mm256_setzero_si256();
    }
    for (int q = 0; q < kq; ++q) {
        const __m256i braw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bp + q * 32));
        const __m256i b_lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
        const __m256i b_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
        const int8_t *a = ap + q * MR * 4;
        for (int i = 0; i < MR; ++i) {
            int32_t a32;
            std::memcpy(&a32, a + i * 4, 4);
            const __m256i av = _mm256_broadcastq_epi64(
                _mm_cvtepi8_epi16(_mm_cvtsi32_si128(a32)));
            acc_lo[i] =
                _mm256_add_epi32(acc_lo[i], _mm256_madd_epi16(av, b_lo));
            acc_hi[i] =
                _mm256_add_epi32(acc_hi[i], _mm256_madd_epi16(av, b_hi));
        }
    }
    // hadd yields [c0 c1 c4 c5 | c2 c3 c6 c7]; permute to column order.
    const __m256i perm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    for (int i = 0; i < MR; ++i) {
        const __m256i sums = _mm256_permutevar8x32_epi32(
            _mm256_hadd_epi32(acc_lo[i], acc_hi[i]), perm);
        int32_t *dst = c + i * ldc;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst),
            _mm256_add_epi32(_mm256_loadu_si256(
                                 reinterpret_cast<const __m256i *>(dst)),
                             sums));
    }
}

MicroInt8Fn
microDispatchInt8Avx2(int mr, int nr)
{
    if (nr != 8)
        return nullptr; // nr=16 stays scalar
    switch (mr) {
      case 1: return microKernelInt8Avx2<1>;
      case 2: return microKernelInt8Avx2<2>;
      case 4: return microKernelInt8Avx2<4>;
      default: return nullptr; // 8x8 exceeds the ymm budget
    }
}

/**
 * VNNI int8 micro-kernel (nr = 8): one vpdpbusd per (row, quad).
 * vpdpbusd multiplies unsigned x signed, so B is offset to u8 by
 * flipping the sign bit (b + 128) and the surplus 128 * sum(a_row) is
 * subtracted afterwards using the packed per-row compensation sums —
 * algebraically exact in int32 (|acc| < 2^28 at the deepest backbone
 * reduction), so the result is bit-identical to the scalar template.
 * Padding stays exact on both sides: zero A rows have comp = 0 and
 * multiply the flipped B by 0; zero B columns contribute 128 * comp,
 * which the correction removes.
 */
template <int MR>
TAMRES_TARGET_AVX2VNNI void
microKernelInt8Vnni(int kq, const int8_t *ap, const int8_t *bp,
                    int32_t *c, int ldc, const int32_t *comp)
{
    __m256i acc[MR];
    for (int i = 0; i < MR; ++i)
        acc[i] = _mm256_setzero_si256();
    const __m256i flip = _mm256_set1_epi8(static_cast<char>(-128));
    for (int q = 0; q < kq; ++q) {
        const __m256i b = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(bp + q * 32)),
            flip);
        const int8_t *a = ap + q * MR * 4;
        for (int i = 0; i < MR; ++i) {
            int32_t a32;
            std::memcpy(&a32, a + i * 4, 4);
            acc[i] =
                _mm256_dpbusd_epi32(acc[i], b, _mm256_set1_epi32(a32));
        }
    }
    for (int i = 0; i < MR; ++i) {
        const __m256i v = _mm256_sub_epi32(
            acc[i], _mm256_set1_epi32(128 * comp[i]));
        int32_t *dst = c + i * ldc;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst),
            _mm256_add_epi32(_mm256_loadu_si256(
                                 reinterpret_cast<const __m256i *>(dst)),
                             v));
    }
}

MicroInt8Fn
microDispatchInt8Vnni(int mr, int nr)
{
    if (nr != 8)
        return nullptr;
    switch (mr) {
      case 1: return microKernelInt8Vnni<1>;
      case 2: return microKernelInt8Vnni<2>;
      case 4: return microKernelInt8Vnni<4>;
      case 8: return microKernelInt8Vnni<8>;
      default: return nullptr;
    }
}

#endif // TAMRES_SIMD_X86

#if TAMRES_SIMD_NEON

/**
 * NEON int8 micro-kernel (nr = 8): smull widens i8 x i8 products to
 * i16 (no overflow: |p| <= 127^2), vpadal accumulates adjacent pairs
 * into i32 lanes — exact, pair-lane form over two columns per
 * accumulator; vpaddq folds to column order at the end.
 */
template <int MR>
void
microKernelInt8Neon(int kq, const int8_t *ap, const int8_t *bp,
                    int32_t *c, int ldc, const int32_t *)
{
    int32x4_t acc[MR][4];
    for (int i = 0; i < MR; ++i)
        for (int h = 0; h < 4; ++h)
            acc[i][h] = vdupq_n_s32(0);
    for (int q = 0; q < kq; ++q) {
        const int8_t *b = bp + q * 32;
        const int8x8_t b01 = vld1_s8(b);
        const int8x8_t b23 = vld1_s8(b + 8);
        const int8x8_t b45 = vld1_s8(b + 16);
        const int8x8_t b67 = vld1_s8(b + 24);
        const int8_t *a = ap + q * MR * 4;
        for (int i = 0; i < MR; ++i) {
            uint32_t a32;
            std::memcpy(&a32, a + i * 4, 4);
            const int8x8_t av = vreinterpret_s8_u32(vdup_n_u32(a32));
            acc[i][0] = vpadalq_s16(acc[i][0], vmull_s8(av, b01));
            acc[i][1] = vpadalq_s16(acc[i][1], vmull_s8(av, b23));
            acc[i][2] = vpadalq_s16(acc[i][2], vmull_s8(av, b45));
            acc[i][3] = vpadalq_s16(acc[i][3], vmull_s8(av, b67));
        }
    }
    for (int i = 0; i < MR; ++i) {
        const int32x4_t s0 = vpaddq_s32(acc[i][0], acc[i][1]);
        const int32x4_t s1 = vpaddq_s32(acc[i][2], acc[i][3]);
        int32_t *dst = c + i * ldc;
        vst1q_s32(dst, vaddq_s32(vld1q_s32(dst), s0));
        vst1q_s32(dst + 4, vaddq_s32(vld1q_s32(dst + 4), s1));
    }
}

MicroInt8Fn
microDispatchInt8Neon(int mr, int nr)
{
    if (nr != 8)
        return nullptr;
    switch (mr) {
      case 1: return microKernelInt8Neon<1>;
      case 2: return microKernelInt8Neon<2>;
      case 4: return microKernelInt8Neon<4>;
      default: return nullptr; // 8x8 exceeds the register budget
    }
}

#endif // TAMRES_SIMD_NEON

/**
 * Best int8 micro-kernel for (mr, nr) at the active SIMD level, same
 * contract as the fp32 microDispatch: one simdLevel() read per conv
 * call, scalar fallback for shapes a level lacks. Within the Avx2
 * branch the VNNI sub-feature switch picks the vpdpbusd variant.
 */
MicroInt8Fn
microDispatchInt8(int mr, int nr)
{
    switch (simdLevel()) {
#if TAMRES_SIMD_X86
      case SimdLevel::Avx2:
        if (simdVnni())
            if (MicroInt8Fn fn = microDispatchInt8Vnni(mr, nr))
                return fn;
        if (MicroInt8Fn fn = microDispatchInt8Avx2(mr, nr))
            return fn;
        break;
#endif
#if TAMRES_SIMD_NEON
      case SimdLevel::Neon:
        if (MicroInt8Fn fn = microDispatchInt8Neon(mr, nr))
            return fn;
        break;
#endif
      default:
        break;
    }
    return microDispatchInt8Scalar(mr, nr);
}

/**
 * Pack int8 A rows [row0, row0+mb) x k [k0, k0+kb) into quad-K panels
 * of @p mr rows (zero-padded to a multiple of mr rows and 4 k values)
 * and compute the per-row int32 sums the VNNI kernel's unsigned-offset
 * correction needs (zero for pad rows). Shared by the on-the-fly
 * packer and packGemmAInt8 so the layouts cannot diverge; every call
 * counts as one weight-side pack op.
 */
void
packAInt8Block(const int8_t *a, int lda, int row0, int k0, int mb,
               int kb, int mr, int8_t *dst, int32_t *comp)
{
    const int mb_pad = (mb + mr - 1) / mr * mr;
    const int kq = quadCount(kb);
    for (int ir = 0; ir < mb_pad; ir += mr) {
        int8_t *d = dst + static_cast<size_t>(ir) * kq * 4;
        const int rows = std::min(mr, mb - ir);
        for (int q = 0; q < kq; ++q) {
            for (int i = 0; i < mr; ++i) {
                const int8_t *src =
                    i < rows ? a + static_cast<int64_t>(row0 + ir + i) *
                                       lda +
                                   k0
                             : nullptr;
                for (int u = 0; u < 4; ++u) {
                    const int k = q * 4 + u;
                    d[q * mr * 4 + i * 4 + u] =
                        (src && k < kb) ? src[k]
                                        : static_cast<int8_t>(0);
                }
            }
        }
    }
    for (int i = 0; i < mb_pad; ++i) {
        int32_t s = 0;
        if (i < mb) {
            const int8_t *src =
                a + static_cast<int64_t>(row0 + i) * lda + k0;
            for (int k = 0; k < kb; ++k)
                s += src[k];
        }
        comp[i] = s;
    }
    g_weight_pack_count.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Serial int8 multi-B GEMM over merged columns [c0, c1) of the B
 * operand @p b (quad-K panels from the shared packers, Q = 4): int32
 * accumulation into a padded scratch panel, then the fp32 epilogue
 * into C (image i's M x N_per output at c + i * c_img_stride).
 *
 * The padded direct-store scheme: the accumulator panel is
 * (M rounded up + mr slack) x nb_pad, and every micro tile stores its
 * full mr x nr block into it — edge tiles included. A-side pad rows
 * produce exact zero sums, and micro tiles accumulate, so a pad row
 * overlapping the next mc-block's real rows just adds 0; B-side pad
 * columns land in the nb_pad slack and are never read back. No edge
 * scatter tile, no branches in the store path.
 *
 * Bit-identity: every output element's int32 value is the same sum of
 * the same products regardless of blocking, partition, batch merge or
 * kernel flavor (integer adds are associative), and the epilogue
 * evaluates the same float expression as the naive reference kernel —
 * so the planned path is bitwise identical to it.
 */
void
blockedGemmInt8Range(int M, int N_per, int K, const GemmB<int8_t> &b,
                     float *c, int64_t c_img_stride, int64_t c0,
                     int64_t c1, const ConvConfig &cfg, MicroInt8Fn micro,
                     const PackedGemmAInt8 *prea, const int8_t *a,
                     const QuantConvEpilogue &epi)
{
    const auto [mc, kc, nc] = effectiveBlocking(cfg);
    const int mr = cfg.mr;
    const int nr = cfg.nr;
    const int kq_max = quadCount(kc);
    const int M_alloc = (M + mr - 1) / mr * mr + mr;
    const PanelPackFn<int8_t> pack =
        b.conv ? packConvPanel<int8_t, 4> : packMatrixPanel<int8_t, 4>;

    Scratch &s = scratch();
    if (!prea) {
        s.qapack.resize((static_cast<size_t>(mc) + mr) * kq_max * 4);
        s.qcomp.resize(static_cast<size_t>(mc) + mr);
    }
    s.qbpack.resize((static_cast<size_t>(nc) + nr) * kq_max * 4);

    for (int64_t jc = c0; jc < c1; jc += nc) {
        const int nb = static_cast<int>(std::min<int64_t>(nc, c1 - jc));
        const int nb_pad = (nb + nr - 1) / nr * nr;
        s.qacc.resize(static_cast<size_t>(M_alloc) * nb_pad);
        int32_t *acc = s.qacc.data();
        std::fill_n(acc, static_cast<size_t>(M_alloc) * nb_pad, 0);
        for (int pc = 0, pcb = 0; pc < K; pc += kc, ++pcb) {
            const int kb = std::min(kc, K - pc);
            const int kq = quadCount(kb);
            for (int jr = 0; jr < nb; jr += nr)
                pack(b, N_per, jc + jr, std::min(nr, nb - jr), pc, kb, nr,
                     s.qbpack.data() + static_cast<size_t>(jr) * kq * 4);
            for (int icb = 0; icb * mc < M; ++icb) {
                const int i0 = icb * mc;
                const int mb = std::min(mc, M - i0);
                const int mb_pad = (mb + mr - 1) / mr * mr;
                const int8_t *apanels;
                const int32_t *comp;
                if (prea) {
                    apanels = prea->block(pcb, icb);
                    comp = prea->compBlock(pcb, icb);
                } else {
                    packAInt8Block(a, K, i0, pc, mb, kb, mr,
                                   s.qapack.data(), s.qcomp.data());
                    apanels = s.qapack.data();
                    comp = s.qcomp.data();
                }
                for (int jr = 0; jr < nb_pad; jr += nr) {
                    const int8_t *bp = s.qbpack.data() +
                                       static_cast<size_t>(jr) * kq * 4;
                    for (int ir = 0; ir < mb_pad; ir += mr) {
                        micro(kq,
                              apanels + static_cast<size_t>(ir) * kq * 4,
                              bp,
                              acc + static_cast<size_t>(i0 + ir) *
                                        nb_pad +
                                  jr,
                              nb_pad, comp + ir);
                    }
                }
            }
        }
        // fp32 epilogue over the real rows/columns — written as the
        // exact expression the naive reference kernel evaluates.
        for (int m = 0; m < M; ++m) {
            const float ws = epi.w_scales[m];
            const float bv = epi.bias ? epi.bias[m] : 0.0f;
            const int32_t *arow = acc + static_cast<size_t>(m) * nb_pad;
            int j = 0;
            while (j < nb) {
                const int64_t g = jc + j;
                const int64_t img = g / N_per;
                const int col = static_cast<int>(g % N_per);
                const int run = static_cast<int>(
                    std::min<int64_t>(nb - j, N_per - col));
                const float mult = epi.act_scales[img] * ws;
                float *orow = c + img * c_img_stride +
                              static_cast<int64_t>(m) * N_per + col;
                for (int t = 0; t < run; ++t) {
                    float v =
                        static_cast<float>(arow[j + t]) * mult + bv;
                    if (epi.relu && v < 0.0f)
                        v = 0.0f;
                    orow[t] = v;
                }
                j += run;
            }
        }
    }
}

/**
 * Parallel front end of the int8 multi-B GEMM: split the merged
 * column space across workers, each running the serial range kernel
 * with private scratch — the fp32 partition scheme and bit-identity
 * argument apply unchanged (the epilogue writes disjoint column
 * ranges, so there is no cross-worker output traffic either).
 */
void
blockedGemmInt8MultiB(int M, int N_per, int K, int nimg,
                      const GemmB<int8_t> &b, float *c,
                      int64_t c_img_stride, const ConvConfig &cfg,
                      int threads, MicroInt8Fn micro,
                      const PackedGemmAInt8 *prea, const int8_t *a,
                      const QuantConvEpilogue &epi)
{
    const auto [mc, kc, nc] = effectiveBlocking(cfg);
    (void)nc;
    tamres_assert(micro, "unsupported int8 micro-kernel %dx%d", cfg.mr,
                  cfg.nr);
    tamres_assert(!prea ||
                      (prea->M == M && prea->K == K && prea->mc == mc &&
                       prea->kc == kc && prea->mr == cfg.mr),
                  "prepacked int8 A does not match this GEMM's "
                  "blocking");
    const int64_t total = static_cast<int64_t>(nimg) * N_per;
    if (threads <= 1 || total < 2 * cfg.nr) {
        blockedGemmInt8Range(M, N_per, K, b, c, c_img_stride, 0, total,
                             cfg, micro, prea, a, epi);
        return;
    }
    ThreadPool::global().parallelFor(
        total,
        [&](int64_t j0, int64_t j1) {
            blockedGemmInt8Range(M, N_per, K, b, c, c_img_stride, j0,
                                 j1, cfg, micro, prea, a, epi);
        },
        threads);
}

} // namespace

bool
convConfigValid(const ConvProblem &p, const ConvConfig &cfg)
{
    if (cfg.threads < 0 || cfg.threads > 1024)
        return false;
    switch (cfg.algo) {
      case ConvAlgo::Reference:
        return true;
      case ConvAlgo::Direct:
        return cfg.oc_tile >= 1 && cfg.oc_tile <= 8 && cfg.ow_tile >= 1 &&
               cfg.ow_tile <= 32;
      case ConvAlgo::Im2col:
        return microDispatchScalar(cfg.mr, cfg.nr) != nullptr &&
               cfg.mc >= 1 && cfg.kc >= 1 && cfg.nc >= 1;
      case ConvAlgo::Winograd:
        return p.kh == 3 && p.kw == 3 && p.stride == 1 &&
               p.groups == 1 && cfg.wino_tile_block >= 4 &&
               cfg.wino_tile_block <= 4096 &&
               microDispatchScalar(cfg.mr, cfg.nr) != nullptr &&
               cfg.mc >= 1 && cfg.kc >= 1 && cfg.nc >= 1;
      case ConvAlgo::Depthwise:
        return p.groups == p.ic && p.ic == p.oc && cfg.ow_tile >= 1 &&
               cfg.ow_tile <= 32;
    }
    return false;
}

void
convReference(const ConvProblem &p, const float *in, const float *w,
              const float *bias, float *out)
{
    referenceKernel(p, in, w, bias, out);
}

void
convForward(const ConvProblem &p, const float *in, const float *w,
            const float *bias, float *out, const ConvConfig &cfg)
{
    tamres_assert(p.ic % p.groups == 0 && p.oc % p.groups == 0,
                  "channels must divide groups");
    tamres_assert(convConfigValid(p, cfg), "invalid conv config %s",
                  cfg.toString().c_str());
    switch (cfg.algo) {
      case ConvAlgo::Reference:
        referenceKernel(p, in, w, bias, out);
        break;
      case ConvAlgo::Direct:
        directKernel(p, in, w, bias, out, cfg);
        break;
      case ConvAlgo::Im2col:
        im2colKernel(p, in, w, bias, out, cfg);
        break;
      case ConvAlgo::Winograd:
        winogradKernel(p, in, w, bias, out, cfg);
        break;
      case ConvAlgo::Depthwise:
        depthwiseKernel(p, in, w, bias, out, cfg);
        break;
    }
}

// ---------------------------------------------------------------------
// Plan-time weight prepacking
// ---------------------------------------------------------------------

uint64_t
convWeightPackCount()
{
    return g_weight_pack_count.load(std::memory_order_relaxed);
}

bool
convAlgoPrepacks(ConvAlgo algo)
{
    return algo == ConvAlgo::Im2col || algo == ConvAlgo::Winograd;
}

bool
convWeightShapeCompatible(const ConvProblem &a, const ConvProblem &b)
{
    // Everything the packed panels are computed from: the weight
    // tensor's geometry. Batch and spatial extent only shape the
    // activation side.
    return a.ic == b.ic && a.oc == b.oc && a.kh == b.kh &&
           a.kw == b.kw && a.groups == b.groups;
}

void
packGemmA(int M, int K, const float *a, int lda, const ConvConfig &cfg,
          PackedGemmA &out)
{
    const auto [mc, kc, nc] = effectiveBlocking(cfg);
    (void)nc;
    const int mr = cfg.mr;
    out.M = M;
    out.K = K;
    out.mc = mc;
    out.kc = kc;
    out.mr = mr;
    const int n_icb = out.nBlocksM();
    const int n_pcb = out.nBlocksK();
    out.offsets.assign(static_cast<size_t>(n_pcb) * n_icb, 0);
    size_t total = 0;
    for (int pcb = 0; pcb < n_pcb; ++pcb) {
        const int kb = std::min(kc, K - pcb * kc);
        for (int icb = 0; icb < n_icb; ++icb) {
            const int mb = std::min(mc, M - icb * mc);
            const int mb_pad = (mb + mr - 1) / mr * mr;
            out.offsets[static_cast<size_t>(pcb) * n_icb + icb] = total;
            total += static_cast<size_t>(mb_pad) * kb;
        }
    }
    out.data.resize(total);
    for (int pcb = 0; pcb < n_pcb; ++pcb) {
        const int kb = std::min(kc, K - pcb * kc);
        for (int icb = 0; icb < n_icb; ++icb) {
            const int mb = std::min(mc, M - icb * mc);
            packABlock(a, lda, icb * mc, pcb * kc, mb, kb, mr,
                       out.data.data() +
                           out.offsets[static_cast<size_t>(pcb) *
                                           n_icb + icb]);
        }
    }
}

void
packConvWeights(const ConvProblem &p, const ConvConfig &cfg,
                const float *w, PackedConvWeights &out)
{
    out.problem = p;
    out.cfg = cfg;
    out.valid = false;
    out.mats.clear();
    if (!convAlgoPrepacks(cfg.algo) || !convConfigValid(p, cfg))
        return;
    const int icg = p.ic / p.groups;
    if (cfg.algo == ConvAlgo::Im2col) {
        const int ocg = p.oc / p.groups;
        const int K = icg * p.kh * p.kw;
        out.mats.resize(p.groups);
        for (int g = 0; g < p.groups; ++g) {
            packGemmA(ocg, K, w + static_cast<int64_t>(g) * ocg * K, K,
                      cfg, out.mats[g]);
        }
    } else { // Winograd
        std::vector<float> u;
        winogradWeightTransform(p, w, u);
        out.mats.resize(16);
        for (int k = 0; k < 16; ++k) {
            packGemmA(p.oc, icg,
                      u.data() + static_cast<size_t>(k) * p.oc * icg,
                      icg, cfg, out.mats[k]);
        }
    }
    out.valid = true;
}

void
convForwardPrepacked(const ConvProblem &p, const float *in,
                     const PackedConvWeights &packed, const float *bias,
                     float *out)
{
    tamres_assert(packed.valid, "convForwardPrepacked on invalid pack");
    tamres_assert(convWeightShapeCompatible(packed.problem, p),
                  "prepacked weights built for different weight "
                  "geometry");
    tamres_assert(convConfigValid(p, packed.cfg),
                  "prepacked config invalid for this problem shape");
    const ConvConfig &cfg = packed.cfg;
    if (cfg.algo == ConvAlgo::Im2col)
        im2colKernel(p, in, nullptr, bias, out, cfg, &packed);
    else
        winogradKernel(p, in, nullptr, bias, out, cfg, &packed);
}

// ---------------------------------------------------------------------
// Int8 quantized convolution entry points
// ---------------------------------------------------------------------

bool
convConfigValidInt8(const ConvProblem &p, const ConvConfig &cfg)
{
    return p.groups == 1 && cfg.algo == ConvAlgo::Im2col &&
           microDispatchInt8Scalar(cfg.mr, cfg.nr) != nullptr &&
           cfg.mc >= 1 && cfg.kc >= 1 && cfg.nc >= 1 &&
           cfg.threads >= 0 && cfg.threads <= 1024;
}

void
packGemmAInt8(int M, int K, const int8_t *a, int lda,
              const ConvConfig &cfg, PackedGemmAInt8 &out)
{
    const auto [mc, kc, nc] = effectiveBlocking(cfg);
    (void)nc;
    const int mr = cfg.mr;
    out.M = M;
    out.K = K;
    out.mc = mc;
    out.kc = kc;
    out.mr = mr;
    const int n_icb = out.nBlocksM();
    const int n_pcb = out.nBlocksK();
    out.offsets.assign(static_cast<size_t>(n_pcb) * n_icb, 0);
    out.comp_offsets.assign(static_cast<size_t>(n_pcb) * n_icb, 0);
    size_t total = 0;
    size_t total_comp = 0;
    for (int pcb = 0; pcb < n_pcb; ++pcb) {
        const int kb = std::min(kc, K - pcb * kc);
        const int kq = quadCount(kb);
        for (int icb = 0; icb < n_icb; ++icb) {
            const int mb = std::min(mc, M - icb * mc);
            const int mb_pad = (mb + mr - 1) / mr * mr;
            const size_t idx = static_cast<size_t>(pcb) * n_icb + icb;
            out.offsets[idx] = total;
            out.comp_offsets[idx] = total_comp;
            total += static_cast<size_t>(mb_pad) * kq * 4;
            total_comp += static_cast<size_t>(mb_pad);
        }
    }
    out.data.resize(total);
    out.comp.resize(total_comp);
    for (int pcb = 0; pcb < n_pcb; ++pcb) {
        const int kb = std::min(kc, K - pcb * kc);
        for (int icb = 0; icb < n_icb; ++icb) {
            const int mb = std::min(mc, M - icb * mc);
            const size_t idx = static_cast<size_t>(pcb) * n_icb + icb;
            packAInt8Block(a, lda, icb * mc, pcb * kc, mb, kb, mr,
                           out.data.data() + out.offsets[idx],
                           out.comp.data() + out.comp_offsets[idx]);
        }
    }
}

void
packConvWeightsInt8(const ConvProblem &p, const ConvConfig &cfg,
                    const int8_t *wq, PackedConvWeights &out)
{
    out.problem = p;
    out.cfg = cfg;
    out.valid = false;
    out.quantized = true;
    out.mats.clear();
    out.qmats.clear();
    if (!convConfigValidInt8(p, cfg))
        return;
    const int K = p.ic * p.kh * p.kw;
    out.qmats.resize(1);
    packGemmAInt8(p.oc, K, wq, K, cfg, out.qmats[0]);
    out.valid = true;
}

void
convForwardInt8Gemm(const ConvProblem &p, const int8_t *qin,
                    const QuantConvEpilogue &epi, const int8_t *wq,
                    const PackedConvWeights *packed, float *out,
                    const ConvConfig &cfg)
{
    tamres_assert(convConfigValidInt8(p, cfg),
                  "invalid int8 conv config %s", cfg.toString().c_str());
    const PackedGemmAInt8 *prea = nullptr;
    if (packed) {
        tamres_assert(packed->valid && packed->quantized,
                      "convForwardInt8Gemm on invalid or fp32 pack");
        tamres_assert(convWeightShapeCompatible(packed->problem, p),
                      "prepacked int8 weights built for different "
                      "weight geometry");
        tamres_assert(packed->cfg == cfg,
                      "prepacked int8 weights built for a different "
                      "config");
        prea = &packed->qmats[0];
    } else {
        tamres_assert(wq, "convForwardInt8Gemm needs weights");
    }
    const int K = p.ic * p.kh * p.kw;
    const int N = p.oh() * p.ow();
    const bool pointwise =
        p.kh == 1 && p.kw == 1 && p.stride == 1 && p.pad == 0;

    // One dispatch read for the whole conv call (same contract as the
    // fp32 path: a concurrent level/VNNI flip can never mix flavors
    // inside one output).
    const MicroInt8Fn micro = microDispatchInt8(cfg.mr, cfg.nr);

    // ONE merged-column GEMM over the whole batch, its B panels packed
    // straight from the quantized input (a padding tap packs q(0) = 0),
    // so no int8 im2col matrix exists at any batch size.
    const GemmB<int8_t> b{qin, static_cast<int64_t>(p.ic) * p.ih * p.iw,
                          pointwise ? nullptr : &p};
    blockedGemmInt8MultiB(p.oc, N, K, p.n, b, out,
                          static_cast<int64_t>(p.oc) * N, cfg,
                          effectiveThreads(cfg), micro, prea, wq, epi);
}

} // namespace tamres
