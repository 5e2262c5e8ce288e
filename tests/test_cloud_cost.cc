/**
 * @file
 * Tests for the cloud cost model's accounting identities: storage at
 * rest, egress proportional to bytes read, and per-request charges.
 */

#include <gtest/gtest.h>

#include "storage/cost.hh"

namespace tamres {
namespace {

TEST(CloudCost, FullReadBillMatchesHandComputation)
{
    Workload w;
    w.corpus_images = 1000;
    w.mean_image_bytes = 1024.0 * 1024.0; // 1 MiB
    w.reads_per_month = 10000;
    w.mean_read_fraction = 1.0;
    CloudPricing p;
    p.storage_gb_month = 0.02;
    p.egress_gb = 0.10;
    p.request_per_10k = 0.004;

    const MonthlyCost c = monthlyCost(w, p);
    // 1000 MiB at rest = 1000/1024 GiB.
    EXPECT_NEAR(c.storage_usd, 1000.0 / 1024.0 * 0.02, 1e-9);
    // 10000 MiB egressed.
    EXPECT_NEAR(c.egress_usd, 10000.0 / 1024.0 * 0.10, 1e-9);
    EXPECT_NEAR(c.request_usd, 0.004, 1e-12);
    EXPECT_NEAR(c.total(),
                c.storage_usd + c.egress_usd + c.request_usd, 1e-12);
}

TEST(CloudCost, ReadSavingsCutEgressLinearly)
{
    Workload w;
    const MonthlyCost full = monthlyCost(w);
    w.mean_read_fraction = 0.7; // the paper's ~30% savings
    const MonthlyCost calibrated = monthlyCost(w);
    EXPECT_NEAR(calibrated.egress_usd, 0.7 * full.egress_usd, 1e-6);
    // Storage at rest is unchanged (no pre-cropped copies, Table III
    // note).
    EXPECT_NEAR(calibrated.storage_usd, full.storage_usd, 1e-9);
    EXPECT_LT(calibrated.total(), full.total());
}

TEST(CloudCost, IncrementalFetchesChargeRequests)
{
    Workload w;
    w.extra_requests_per_read = 0.4; // 40% of reads fetch twice
    const MonthlyCost c = monthlyCost(w);
    Workload base = w;
    base.extra_requests_per_read = 0.0;
    EXPECT_NEAR(c.request_usd, 1.4 * monthlyCost(base).request_usd,
                1e-9);
}

TEST(CloudCostDeath, RejectsBadFraction)
{
    Workload w;
    w.mean_read_fraction = 1.5;
    EXPECT_DEATH(monthlyCost(w), "fraction");
}

} // namespace
} // namespace tamres
