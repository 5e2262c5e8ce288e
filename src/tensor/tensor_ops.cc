#include "tensor/tensor_ops.hh"

#include <algorithm>
#include <cmath>

#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace tamres {

namespace {

void
checkSameShape(const Tensor &a, const Tensor &b, const char *what)
{
    tamres_assert(a.shape() == b.shape(), "%s: shape mismatch %s vs %s",
                  what, shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
}

/*
 * Vector elementwise kernels for the serving hot path (residual adds
 * and standalone ReLU). Add and max round/select exactly like their
 * scalar forms, so these are bit-identical to the fallback loops.
 */

#if TAMRES_SIMD_X86

TAMRES_TARGET_AVX2 void
addAvx2(const float *a, const float *b, float *o, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(o + i,
                         _mm256_add_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    }
    for (; i < n; ++i)
        o[i] = a[i] + b[i];
}

TAMRES_TARGET_AVX2 void
reluAvx2(const float *a, float *o, int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i,
                         _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
    for (; i < n; ++i)
        o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

#endif

#if TAMRES_SIMD_NEON

void
addNeon(const float *a, const float *b, float *o, int64_t n)
{
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(o + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] + b[i];
}

void
reluNeon(const float *a, float *o, int64_t n)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(o + i, vmaxq_f32(vld1q_f32(a + i), zero));
    for (; i < n; ++i)
        o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

#endif

} // namespace

void
addInto(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkSameShape(a, b, "addInto");
    checkSameShape(a, out, "addInto");
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    const int64_t n = a.numel();
    switch (simdLevel()) {
#if TAMRES_SIMD_X86
      case SimdLevel::Avx2:
        addAvx2(pa, pb, po, n);
        return;
#endif
#if TAMRES_SIMD_NEON
      case SimdLevel::Neon:
        addNeon(pa, pb, po, n);
        return;
#endif
      default:
        break;
    }
    for (int64_t i = 0; i < n; ++i)
        po[i] = pa[i] + pb[i];
}

void
axpy(float alpha, const Tensor &b, Tensor &a)
{
    checkSameShape(a, b, "axpy");
    float *pa = a.data();
    const float *pb = b.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        pa[i] += alpha * pb[i];
}

void
scale(Tensor &a, float alpha)
{
    float *pa = a.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        pa[i] *= alpha;
}

void
reluInto(const Tensor &a, Tensor &out)
{
    checkSameShape(a, out, "reluInto");
    const float *pa = a.data();
    float *po = out.data();
    const int64_t n = a.numel();
    switch (simdLevel()) {
#if TAMRES_SIMD_X86
      case SimdLevel::Avx2:
        reluAvx2(pa, po, n);
        return;
#endif
#if TAMRES_SIMD_NEON
      case SimdLevel::Neon:
        reluNeon(pa, po, n);
        return;
#endif
      default:
        break;
    }
    for (int64_t i = 0; i < n; ++i)
        po[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
}

void
fillUniform(Tensor &t, Rng &rng, float lo, float hi)
{
    float *p = t.data();
    const int64_t n = t.numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = static_cast<float>(rng.uniform(lo, hi));
}

void
fillNormal(Tensor &t, Rng &rng, float sd)
{
    // Nearly all the time goes to the transform's log/sqrt/cos, so the
    // uniforms are drawn in order on this thread, a block at a time,
    // and transformed in parallel.
    constexpr int64_t kBlock = 64 * 1024;
    float *p = t.data();
    const int64_t n = t.numel();
    std::vector<double> u(static_cast<size_t>(2 * std::min(n, kBlock)));
    for (int64_t b0 = 0; b0 < n; b0 += kBlock) {
        const int64_t len = std::min(kBlock, n - b0);
        for (int64_t j = 0; j < 2 * len; ++j)
            u[j] = rng.uniform();
        float *out = p + b0;
        ThreadPool::global().parallelFor(
            len,
            [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i)
                    out[i] = static_cast<float>(
                        0.0 + sd * Rng::boxMuller(u[2 * i], u[2 * i + 1]));
            },
            ThreadPool::defaultParallelism());
    }
}

void
fillKaiming(Tensor &t, Rng &rng, int64_t fan_in)
{
    tamres_assert(fan_in > 0, "fillKaiming: fan_in must be positive");
    fillNormal(t, rng, std::sqrt(2.0f / static_cast<float>(fan_in)));
}

std::vector<int>
argmaxRows(const Tensor &t)
{
    tamres_assert(t.ndim() == 2, "argmaxRows requires a 2-D tensor");
    const int64_t rows = t.dim(0);
    const int64_t cols = t.dim(1);
    std::vector<int> out(rows);
    for (int64_t r = 0; r < rows; ++r) {
        const float *p = t.data() + r * cols;
        int best = 0;
        for (int64_t c = 1; c < cols; ++c) {
            if (p[c] > p[best])
                best = static_cast<int>(c);
        }
        out[r] = best;
    }
    return out;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "maxAbsDiff");
    const float *pa = a.data();
    const float *pb = b.data();
    float best = 0.0f;
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        best = std::max(best, std::fabs(pa[i] - pb[i]));
    return best;
}

} // namespace tamres
