/**
 * @file
 * Engine-independent pieces of the serving benchmark, kept apart so
 * the unit tests can exercise them without building a workload:
 * percentiles, the seeded open-loop schedule, the in-memory span
 * recorder (self time + Chrome trace-event export), and metric-name
 * validation plus the one-line JSON result.
 */

#ifndef PERFBENCH_BENCH_LIB_HH
#define PERFBENCH_BENCH_LIB_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace perfbench {

/** Seconds on the steady clock (every timestamp in the benchmark). */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process user + system CPU seconds so far. */
inline double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Peak resident set size of the process in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Percentiles: the one implementation every metric in the benchmark
// uses (linear interpolation between closest ranks).
// ---------------------------------------------------------------------

/** The @p q quantile (q in [0, 1]) of @p v; 0 for an empty sample. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------
// Seeded open-loop schedule.
// ---------------------------------------------------------------------

/** One scheduled send: when (seconds from phase start) and what. */
struct Arrival
{
    double t = 0.0;
    int object = 0; //!< index into the workload's object set
};

/**
 * Poisson arrivals at @p rate_rps over @p window_s seconds: exactly
 * round(rate x window) arrivals placed as sorted uniform draws — a
 * Poisson process conditioned on its count, so runs of one workload
 * always send the same number of requests. Objects are drawn
 * Zipf(@p zipf_alpha) over [0, objects) (object 0 most popular), or
 * uniformly when zipf_alpha is 0. The result is a pure function of the
 * arguments.
 */
inline std::vector<Arrival>
makeSchedule(uint64_t seed, double rate_rps, double window_s, int objects,
             double zipf_alpha)
{
    tamres::Rng rng(seed ^ 0x5c4ed11eULL);
    std::vector<double> cdf(static_cast<size_t>(objects));
    double total = 0.0;
    for (int i = 0; i < objects; ++i) {
        total += zipf_alpha > 0.0
                     ? 1.0 / std::pow(static_cast<double>(i + 1),
                                      zipf_alpha)
                     : 1.0;
        cdf[static_cast<size_t>(i)] = total;
    }
    const size_t n = static_cast<size_t>(std::llround(rate_rps * window_s));
    std::vector<Arrival> out(n);
    for (Arrival &a : out) {
        a.t = window_s * rng.uniform();
        const double u = rng.uniform() * total;
        a.object = std::min(
            static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin()),
            objects - 1);
    }
    std::sort(out.begin(), out.end(),
              [](const Arrival &x, const Arrival &y) { return x.t < y.t; });
    return out;
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/** One recorded interval. Times are seconds on one steady clock. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1; //!< index of the enclosing span, -1 = root
    int64_t request = -1; //!< request id, -1 = not attributed
};

/**
 * Spans kept in memory for the whole traced run. record() is safe
 * from any thread; everything else runs after the traffic stops.
 */
class SpanLog
{
  public:
    int64_t
    record(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    std::vector<Span> &spans() { return spans_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** Total length of the union of @p iv, each clipped to [lo, hi]. */
inline double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    for (auto &p : iv) {
        p.first = std::max(p.first, lo);
        p.second = std::min(p.second, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto &[a, b] : iv) {
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover (overlapping children count once).
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].emplace_back(s.start,
                                                             s.end);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const double dur = spans[i].end - spans[i].start;
        self[i] = dur - coveredLength(kids[i], spans[i].start,
                                      spans[i].end);
    }
    return self;
}

/**
 * Write @p spans as Chrome trace-event JSON (complete "X" events, one
 * track per request), viewable in Perfetto or chrome://tracing.
 * Times are shifted so the earliest span starts at 0.
 */
inline bool
writeChromeTrace(const std::vector<Span> &spans, const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double t0 = spans.empty() ? 0.0 : spans.front().start;
    for (const Span &s : spans)
        t0 = std::min(t0, s.start);
    const std::vector<double> self = selfTimes(spans);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld, "
                     "\"request\": %lld, \"self_us\": %.3f}}%s\n",
                     s.name.c_str(),
                     static_cast<long long>(s.request + 1),
                     (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.request), self[i] * 1e6,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Metrics and the result line.
// ---------------------------------------------------------------------

/** [A-Za-z0-9][A-Za-z0-9_.-]{0,63}: the benchmark's metric names. */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

/** [A-Za-z0-9_/%.-]{1,16}: units such as ms, s, req/s, count. */
inline bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == '/' || c == '%' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result object the benchmark prints as its last line. Metric
 * values keep every significant digit; non-finite values are
 * rejected by the caller before this is reached.
 */
inline std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[96];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_LIB_HH
