/**
 * @file
 * Unit tests for the tensor module.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/tensor.hh"
#include "tensor/tensor_ops.hh"
#include "util/rng.hh"
#include "tests/threads_env.hh"

namespace tamres {
namespace {

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillAndValueCtor)
{
    Tensor t({4}, 2.5f);
    EXPECT_EQ(t.min(), 2.5f);
    EXPECT_EQ(t.max(), 2.5f);
    t.fill(-1.0f);
    EXPECT_DOUBLE_EQ(t.sum(), -4.0);
}

TEST(Tensor, FromVector)
{
    Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
    EXPECT_EQ(t[0], 1.0f);
    EXPECT_EQ(t[3], 4.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 10.0);
}

TEST(Tensor, At4d)
{
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t[t.numel() - 1], 9.0f);
    t.at(0, 0, 0, 0) = 1.0f;
    EXPECT_EQ(t[0], 1.0f);
}

TEST(Tensor, DimNegativeIndex)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.dim(-1), 4);
    EXPECT_EQ(t.dim(-3), 2);
}

TEST(Tensor, CopyIsView)
{
    Tensor a({3}, 1.0f);
    Tensor b = a;
    b[0] = 7.0f;
    EXPECT_EQ(a[0], 7.0f); // shared storage
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a({3}, 1.0f);
    Tensor b = a.clone();
    b[0] = 7.0f;
    EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, ReshapeSharesStorage)
{
    Tensor a({2, 6});
    Tensor b = a.reshaped({3, 4});
    b[5] = 2.0f;
    EXPECT_EQ(a[5], 2.0f);
    EXPECT_EQ(b.dim(0), 3);
}

TEST(TensorDeath, ReshapeBadCount)
{
    Tensor a({2, 3});
    EXPECT_DEATH(a.reshaped({7}), "reshape");
}

TEST(TensorDeath, OutOfBoundsAt)
{
    Tensor t({1, 1, 2, 2});
    EXPECT_DEATH(t.at(0, 0, 2, 0), "out of bounds");
}

TEST(ShapeUtils, NumelAndString)
{
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24);
    EXPECT_EQ(shapeNumel({}), 1);
    EXPECT_EQ(shapeToString({1, 2}), "[1, 2]");
}

TEST(TensorOps, AddInto)
{
    Tensor a({3}, std::vector<float>{1, 2, 3});
    Tensor b({3}, std::vector<float>{4, 5, 6});
    Tensor out({3});
    addInto(a, b, out);
    EXPECT_EQ(out[0], 5.0f);
    EXPECT_EQ(out[2], 9.0f);
}

TEST(TensorOps, Axpy)
{
    Tensor a({2}, std::vector<float>{1, 1});
    Tensor b({2}, std::vector<float>{2, 4});
    axpy(0.5f, b, a);
    EXPECT_EQ(a[0], 2.0f);
    EXPECT_EQ(a[1], 3.0f);
}

TEST(TensorOps, Scale)
{
    Tensor a({2}, std::vector<float>{2, -4});
    scale(a, -0.5f);
    EXPECT_EQ(a[0], -1.0f);
    EXPECT_EQ(a[1], 2.0f);
}

TEST(TensorOps, Relu)
{
    Tensor a({4}, std::vector<float>{-1, 0, 2, -3});
    Tensor out({4});
    reluInto(a, out);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[2], 2.0f);
    EXPECT_EQ(out[3], 0.0f);
}

TEST(TensorOps, ArgmaxRows)
{
    Tensor t({2, 3}, std::vector<float>{1, 5, 2, 7, 0, 3});
    const auto idx = argmaxRows(t);
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
}

TEST(TensorOps, MaxAbsDiff)
{
    Tensor a({3}, std::vector<float>{1, 2, 3});
    Tensor b({3}, std::vector<float>{1, 2.5f, 2});
    EXPECT_FLOAT_EQ(maxAbsDiff(a, b), 1.0f);
}

TEST(TensorOps, KaimingVariance)
{
    Rng rng(21);
    Tensor w({256, 128});
    fillKaiming(w, rng, 128);
    double sum_sq = 0.0;
    for (int64_t i = 0; i < w.numel(); ++i)
        sum_sq += static_cast<double>(w[i]) * w[i];
    // Variance should be ~2/fan_in.
    EXPECT_NEAR(sum_sq / w.numel(), 2.0 / 128, 0.002);
}

TEST(TensorOps, FillNormalBitIdenticalAcrossThreadCounts)
{
    // The uniforms are drawn serially in 64 Ki-element blocks and
    // transformed in parallel; every size (one partial block, exactly
    // one block, several blocks and a tail) must still equal the serial
    // rng.normal() sequence and leave the generator two draws per
    // element on.
    for (const int64_t n : {int64_t{1000}, int64_t{64 * 1024 - 1},
                            int64_t{64 * 1024}, int64_t{3 * 64 * 1024 + 17}}) {
        Rng ref_rng(5);
        std::vector<float> want(static_cast<size_t>(n));
        for (float &v : want)
            v = static_cast<float>(ref_rng.normal(0.0, 0.05f));
        const uint64_t want_next = ref_rng.next();
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " threads="
                                            << threads);
            ThreadsEnv env(threads);
            Rng rng(5);
            Tensor t({n});
            fillNormal(t, rng, 0.05f);
            EXPECT_EQ(0, std::memcmp(t.data(), want.data(),
                                     want.size() * sizeof(float)));
            EXPECT_EQ(rng.next(), want_next);
        }
    }
}

TEST(TensorOps, FillUniformRange)
{
    Rng rng(22);
    Tensor t({1000});
    fillUniform(t, rng, -2.0f, 3.0f);
    EXPECT_GE(t.min(), -2.0f);
    EXPECT_LT(t.max(), 3.0f);
}

} // namespace
} // namespace tamres
