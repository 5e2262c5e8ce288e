#include "core/serving.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/windowed.hh"

namespace tamres {

ServingStats
ServingStats::fromRequests(const std::vector<ServedRequest> &reqs)
{
    tamres_assert(!reqs.empty(), "no requests to summarize");
    ServingStats stats;
    std::vector<double> latencies;
    latencies.reserve(reqs.size());
    double busy = 0.0;
    double makespan = 0.0;
    double inv_batch = 0.0;
    for (const auto &r : reqs) {
        latencies.push_back(r.latency());
        stats.mean_latency_s += r.latency();
        stats.mean_queueing_s += r.queueing();
        // Batch members share one service interval; charge each a
        // 1/batch share so busy time stays the server's, not the sum
        // over members.
        busy += (r.finish_s - r.start_s) / r.batch;
        inv_batch += 1.0 / r.batch;
        makespan = std::max(makespan, r.finish_s);
    }
    stats.mean_latency_s /= reqs.size();
    stats.mean_queueing_s /= reqs.size();
    stats.p99_latency_s = sampleQuantile(latencies, 0.99);
    stats.utilization = makespan > 0 ? busy / makespan : 0.0;
    stats.mean_batch = reqs.size() / inv_batch;
    return stats;
}

std::vector<ServedRequest>
simulateServing(const ServingConfig &config, const ServicePolicy &policy)
{
    tamres_assert(config.arrival_rate_hz > 0 && config.num_requests > 0,
                  "serving config must be positive");
    Rng rng(config.seed);

    std::vector<ServedRequest> out;
    out.reserve(config.num_requests);

    // Single server: track when it frees up; queue depth at an
    // arrival is the number of earlier requests not yet started.
    double clock = 0.0;
    double server_free = 0.0;
    std::vector<double> start_times;
    start_times.reserve(config.num_requests);

    for (int i = 0; i < config.num_requests; ++i) {
        // Exponential inter-arrival.
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        clock += -std::log(u) / config.arrival_rate_hz;

        // Queue depth: requests whose start time is after this
        // arrival.
        int depth = 0;
        for (auto it = start_times.rbegin(); it != start_times.rend();
             ++it) {
            if (*it > clock)
                ++depth;
            else
                break;
        }

        const auto [resolution, service_s] = policy(i, depth);
        tamres_assert(service_s >= 0.0, "negative service time");

        ServedRequest req;
        req.arrival_s = clock;
        req.start_s = std::max(clock, server_free);
        req.finish_s = req.start_s + service_s;
        req.resolution = resolution;
        server_free = req.finish_s;
        start_times.push_back(req.start_s);
        out.push_back(req);
    }
    return out;
}

std::vector<ServedRequest>
simulateServingPipelined(const ServingConfig &config,
                         const StagedPolicy &policy)
{
    tamres_assert(config.arrival_rate_hz > 0 && config.num_requests > 0,
                  "serving config must be positive");
    Rng rng(config.seed);

    std::vector<ServedRequest> out;
    out.reserve(config.num_requests);

    // Two FIFO stations in series. FIFO order is preserved across the
    // pipeline, so each station is fully described by when it next
    // frees up.
    double clock = 0.0;
    double stage1_free = 0.0;
    double stage2_free = 0.0;
    std::vector<double> finish_times;
    finish_times.reserve(config.num_requests);

    for (int i = 0; i < config.num_requests; ++i) {
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        clock += -std::log(u) / config.arrival_rate_hz;

        // In-system count at arrival: earlier requests not yet fully
        // finished.
        int depth = 0;
        for (auto it = finish_times.rbegin(); it != finish_times.rend();
             ++it) {
            if (*it > clock)
                ++depth;
            else
                break;
        }

        const StagedService svc = policy(i, depth);
        tamres_assert(svc.scale_s >= 0.0 && svc.backbone_s >= 0.0,
                      "negative service time");

        // Stage 1 (scale model): waits for the scale server.
        const double s1_start = std::max(clock, stage1_free);
        const double s1_finish = s1_start + svc.scale_s;
        stage1_free = s1_finish;
        // Stage 2 (backbone): needs stage 1's output and the backbone
        // server; the scale model of later requests overlaps here.
        const double s2_start = std::max(s1_finish, stage2_free);
        const double s2_finish = s2_start + svc.backbone_s;
        stage2_free = s2_finish;

        ServedRequest req;
        req.arrival_s = clock;
        req.start_s = s1_start;
        req.finish_s = s2_finish;
        req.resolution = svc.resolution;
        finish_times.push_back(s2_finish);
        out.push_back(req);
    }
    return out;
}

std::vector<ServedRequest>
simulateServingBatched(const BatchedConfig &config,
                       const BatchedPolicy &policy)
{
    const ServingConfig &base = config.base;
    tamres_assert(base.arrival_rate_hz > 0 && base.num_requests > 0,
                  "serving config must be positive");
    tamres_assert(config.max_batch >= 1, "max_batch must be >= 1");
    tamres_assert(config.linger_s >= 0.0, "linger must be >= 0");
    Rng rng(base.seed);

    // Batch formation looks ahead within the linger window, so the
    // arrival sequence is materialized up front (same seed => same
    // arrivals as simulateServing).
    const int n = base.num_requests;
    std::vector<double> arrivals(n);
    double clock = 0.0;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        clock += -std::log(u) / base.arrival_rate_hz;
        arrivals[i] = clock;
    }

    std::vector<ServedRequest> out(n);
    double server_free = 0.0;
    int i = 0;
    while (i < n) {
        // Earliest the server could start on request i alone.
        const double first = std::max(arrivals[i], server_free);
        const double close = first + config.linger_s;
        // Requests arriving within the window join, up to max_batch.
        int j = i + 1;
        while (j < n && j - i < config.max_batch &&
               arrivals[j] <= close) {
            ++j;
        }
        const int batch = j - i;
        // A full batch launches the moment its last member arrives; a
        // partial one waits out the linger window (the server cannot
        // know nobody else is coming).
        double start;
        if (batch == config.max_batch)
            start = std::max(first, arrivals[j - 1]);
        else
            start = config.linger_s > 0.0 ? close : first;

        int depth = 0;
        for (int k = i; k < n && arrivals[k] <= start; ++k)
            ++depth;

        const auto [resolution, service_s] = policy(i, batch, depth);
        tamres_assert(service_s >= 0.0, "negative service time");
        const double finish = start + service_s;
        for (int k = i; k < j; ++k) {
            out[k].arrival_s = arrivals[k];
            out[k].start_s = start;
            out[k].finish_s = finish;
            out[k].resolution = resolution;
            out[k].batch = batch;
        }
        server_free = finish;
        i = j;
    }
    return out;
}

} // namespace tamres
