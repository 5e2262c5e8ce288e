/**
 * @file
 * Portable SIMD layer: runtime CPU detection and dispatch level.
 *
 * The kernels in src/nn, src/codec, src/image and src/tensor provide
 * explicit vector implementations (AVX2+FMA on x86-64, NEON on
 * aarch64) next to their scalar fallbacks, and choose between them at
 * *runtime* via simdLevel() — never via -march at compile time alone.
 * That keeps one binary portable across the fleet: the AVX2 paths are
 * compiled with per-function target attributes (TAMRES_TARGET_AVX2)
 * and only executed when cpuid says the host supports them.
 *
 * Dispatch contract
 * -----------------
 *  - simdDetected() is the strongest level the host supports, probed
 *    once (cpuid / architecture).
 *  - simdLevel() is the *active* level every dispatch site must read.
 *    It starts at min(detected, TAMRES_SIMD) — the environment
 *    variable accepts "off"/"scalar"/"0" (force the scalar fallback;
 *    the CI forced-scalar leg sets this), "avx2", "neon", or
 *    "on"/"native" (the default: whatever was detected).
 *  - setSimdLevel() lowers/restores the level at runtime (clamped to
 *    the detected maximum) so tests and benches can compare paths in
 *    one process; SimdLevelGuard is the RAII form. Do not flip the
 *    level concurrently with kernel execution.
 *  - Sub-features refine the Avx2 level without being levels of their
 *    own: VNNI (int8 vpdpbusd, below) and AVX-512F (512-bit fp32 GEMM
 *    register tiles for every nr == 16 micro-kernel). Each has a
 *    probe, an active switch, a clamped setter and an RAII guard, and
 *    runs only while the active level is Avx2. An explicit
 *    TAMRES_SIMD=avx2 (or off) caps the process at 256-bit lanes, so
 *    it also starts the AVX-512F switch off; the default turns it on
 *    wherever it is detected.
 *
 * Numerics: SIMD paths are bit-identical to their scalar fallbacks
 * whenever they use only the same adds/subs/shuffles (e.g. the
 * winograd tile transforms, elementwise add/relu). Paths that fuse
 * multiply-adds (GEMM microkernels, color conversion) may round
 * differently from the scalar fallback; every path individually stays
 * deterministic and bit-identical across thread counts. The AVX-512F
 * GEMM tiles keep the AVX2 kernels' per-element arithmetic (zeroed
 * accumulator, one FMA per k in ascending order, one add into C), so
 * they are bitwise identical to the AVX2 path, not merely close.
 */

#ifndef TAMRES_UTIL_SIMD_HH
#define TAMRES_UTIL_SIMD_HH

#if defined(__x86_64__) || defined(__i386__)
#define TAMRES_SIMD_X86 1
#include <immintrin.h>
#else
#define TAMRES_SIMD_X86 0
#endif

// aarch64 only: guarantees NEON with the fused-multiply intrinsics
// the kernels use (32-bit ARM NEON variants are not worth the matrix).
#if defined(__aarch64__)
#define TAMRES_SIMD_NEON 1
#include <arm_neon.h>
#else
#define TAMRES_SIMD_NEON 0
#endif

#if TAMRES_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
/** Marks a function compiled for AVX2+FMA regardless of -march. */
#define TAMRES_TARGET_AVX2 __attribute__((target("avx2,fma")))
/**
 * Marks a function compiled for AVX2+FMA plus the 256-bit EVEX VNNI
 * dot-product instructions (vpdpbusd). Only executed when
 * simdVnniActive() says the host has AVX512-VNNI+VL.
 */
#define TAMRES_TARGET_AVX2VNNI \
    __attribute__((target("avx2,fma,avx512vnni,avx512vl")))
/**
 * Marks a function compiled for AVX-512F (512-bit float lanes, mask
 * registers) on top of AVX2+FMA. Only executed while the active level
 * is Avx2 and simdAvx512() is on (so the host has AVX-512F with
 * OS-enabled ZMM state).
 */
#define TAMRES_TARGET_AVX512 __attribute__((target("avx512f,avx2,fma")))
#else
#define TAMRES_TARGET_AVX2VNNI
#define TAMRES_TARGET_AVX512
#endif

namespace tamres {

/** Instruction-set level a kernel dispatch can run at. */
enum class SimdLevel
{
    Scalar = 0, //!< portable fallback, always available
    Avx2 = 1,   //!< x86-64 AVX2 + FMA (256-bit float lanes)
    Neon = 2,   //!< aarch64 NEON (128-bit float lanes)
};

/** "scalar" / "avx2" / "neon". */
const char *simdLevelName(SimdLevel level);

/** Strongest level the host CPU supports (probed once). */
SimdLevel simdDetected();

/**
 * The active dispatch level: min(detected, TAMRES_SIMD env cap) until
 * overridden by setSimdLevel(). Cheap (one relaxed atomic load) — hot
 * paths may read it per call.
 */
SimdLevel simdLevel();

/**
 * Override the active level (clamped to the detected maximum, so
 * requesting e.g. Avx2 on a non-AVX2 host yields Scalar). Returns the
 * level actually applied.
 */
SimdLevel setSimdLevel(SimdLevel level);

/**
 * Whether the host supports the 256-bit VNNI dot product (AVX512-VNNI
 * with AVX512-VL), probed once. VNNI is a *sub-feature* of the Avx2
 * dispatch level, not a level of its own: the int8 microkernels pick
 * the vpdpbusd variant inside the Avx2 branch when this (and the
 * runtime switch below) allows it. Always false off x86.
 */
bool simdVnniDetected();

/**
 * The active VNNI switch: starts at simdVnniDetected() capped by the
 * TAMRES_VNNI environment variable ("off"/"0" disables; anything else
 * trusts detection). Cheap relaxed atomic load.
 */
bool simdVnni();

/**
 * Enable/disable the VNNI sub-feature at runtime (clamped to the
 * detection — requesting it on a host without VNNI stays false).
 * Returns the value actually applied. Lets tests compare the
 * vpmaddwd and vpdpbusd int8 kernels bitwise in one process.
 */
bool setSimdVnni(bool on);

/**
 * True when the int8 dispatch may run the VNNI microkernel: active
 * level is Avx2 AND the VNNI switch is on.
 */
inline bool simdVnniActive()
{
    return simdLevel() == SimdLevel::Avx2 && simdVnni();
}

/**
 * Whether the host supports AVX-512F with the OS saving ZMM state
 * (both are part of __builtin_cpu_supports("avx512f")), probed once.
 * Like VNNI, a sub-feature of the Avx2 level: the fp32 GEMM runs
 * 512-bit register tiles for nr == 16 configs inside the Avx2 branch
 * when this (and the runtime switch below) allows it. Always false
 * off x86.
 */
bool simdAvx512Detected();

/**
 * The active AVX-512F switch: starts at simdAvx512Detected(), off
 * when TAMRES_SIMD names an explicit cap ("avx2", "off"/"scalar"/"0",
 * "neon"). Cheap relaxed atomic load.
 */
bool simdAvx512();

/**
 * Enable/disable the AVX-512F sub-feature at runtime (clamped to the
 * detection). Returns the value actually applied. Lets tests compare
 * the 512-bit and 256-bit GEMM tiles bitwise in one process.
 */
bool setSimdAvx512(bool on);

/** RAII override for tests/benches comparing dispatch paths. */
class SimdLevelGuard
{
  public:
    explicit SimdLevelGuard(SimdLevel level)
        : prev_(simdLevel())
    {
        setSimdLevel(level);
    }
    ~SimdLevelGuard() { setSimdLevel(prev_); }
    SimdLevelGuard(const SimdLevelGuard &) = delete;
    SimdLevelGuard &operator=(const SimdLevelGuard &) = delete;

  private:
    SimdLevel prev_;
};

/** RAII override of the VNNI sub-feature switch. */
class SimdVnniGuard
{
  public:
    explicit SimdVnniGuard(bool on)
        : prev_(simdVnni())
    {
        setSimdVnni(on);
    }
    ~SimdVnniGuard() { setSimdVnni(prev_); }
    SimdVnniGuard(const SimdVnniGuard &) = delete;
    SimdVnniGuard &operator=(const SimdVnniGuard &) = delete;

  private:
    bool prev_;
};

/** RAII override of the AVX-512F sub-feature switch. */
class SimdAvx512Guard
{
  public:
    explicit SimdAvx512Guard(bool on)
        : prev_(simdAvx512())
    {
        setSimdAvx512(on);
    }
    ~SimdAvx512Guard() { setSimdAvx512(prev_); }
    SimdAvx512Guard(const SimdAvx512Guard &) = delete;
    SimdAvx512Guard &operator=(const SimdAvx512Guard &) = delete;

  private:
    bool prev_;
};

} // namespace tamres

#endif // TAMRES_UTIL_SIMD_HH
