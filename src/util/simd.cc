#include "util/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace tamres {

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar: return "scalar";
      case SimdLevel::Avx2: return "avx2";
      case SimdLevel::Neon: return "neon";
    }
    return "?";
}

namespace {

SimdLevel
probe()
{
#if TAMRES_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return SimdLevel::Avx2;
#elif TAMRES_SIMD_NEON
    // NEON is architecturally guaranteed on aarch64.
    return SimdLevel::Neon;
#endif
    return SimdLevel::Scalar;
}

/** Initial level: the detection capped by the TAMRES_SIMD variable. */
SimdLevel
initialLevel()
{
    const SimdLevel detected = simdDetected();
    const char *v = std::getenv("TAMRES_SIMD");
    if (!v || !*v)
        return detected;
    if (std::strcmp(v, "off") == 0 || std::strcmp(v, "scalar") == 0 ||
        std::strcmp(v, "0") == 0)
        return SimdLevel::Scalar;
    if (std::strcmp(v, "avx2") == 0)
        return detected == SimdLevel::Avx2 ? SimdLevel::Avx2
                                           : SimdLevel::Scalar;
    if (std::strcmp(v, "neon") == 0)
        return detected == SimdLevel::Neon ? SimdLevel::Neon
                                           : SimdLevel::Scalar;
    // "on" / "native" / anything else: trust the detection.
    return detected;
}

std::atomic<SimdLevel> &
activeLevel()
{
    static std::atomic<SimdLevel> level{initialLevel()};
    return level;
}

bool
probeVnni()
{
#if TAMRES_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx512vnni") &&
           __builtin_cpu_supports("avx512vl");
#else
    return false;
#endif
}

/** Initial VNNI switch: detection capped by TAMRES_VNNI. */
bool
initialVnni()
{
    if (!simdVnniDetected())
        return false;
    const char *v = std::getenv("TAMRES_VNNI");
    if (v && (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0))
        return false;
    return true;
}

std::atomic<bool> &
activeVnni()
{
    static std::atomic<bool> on{initialVnni()};
    return on;
}

bool
probeAvx512()
{
#if TAMRES_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
    return simdDetected() == SimdLevel::Avx2 &&
           __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

/** Initial AVX-512F switch: detection, off under any TAMRES_SIMD cap. */
bool
initialAvx512()
{
    if (!simdAvx512Detected())
        return false;
    const char *v = std::getenv("TAMRES_SIMD");
    if (!v || !*v)
        return true;
    for (const char *cap : {"off", "scalar", "0", "avx2", "neon"})
        if (std::strcmp(v, cap) == 0)
            return false;
    return true;
}

std::atomic<bool> &
activeAvx512()
{
    static std::atomic<bool> on{initialAvx512()};
    return on;
}

} // namespace

SimdLevel
simdDetected()
{
    static const SimdLevel detected = probe();
    return detected;
}

SimdLevel
simdLevel()
{
    return activeLevel().load(std::memory_order_relaxed);
}

SimdLevel
setSimdLevel(SimdLevel level)
{
    if (level != SimdLevel::Scalar && level != simdDetected())
        level = SimdLevel::Scalar;
    activeLevel().store(level, std::memory_order_relaxed);
    return level;
}

bool
simdVnniDetected()
{
    static const bool detected = probeVnni();
    return detected;
}

bool
simdVnni()
{
    return activeVnni().load(std::memory_order_relaxed);
}

bool
setSimdVnni(bool on)
{
    if (on && !simdVnniDetected())
        on = false;
    activeVnni().store(on, std::memory_order_relaxed);
    return on;
}

bool
simdAvx512Detected()
{
    static const bool detected = probeAvx512();
    return detected;
}

bool
simdAvx512()
{
    return activeAvx512().load(std::memory_order_relaxed);
}

bool
setSimdAvx512(bool on)
{
    if (on && !simdAvx512Detected())
        on = false;
    activeAvx512().store(on, std::memory_order_relaxed);
    return on;
}

} // namespace tamres
