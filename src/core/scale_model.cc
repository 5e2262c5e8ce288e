#include "core/scale_model.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace tamres {

namespace {

/** Grayscale downsample to s x s. */
Image
grayAt(const Image &img, int s)
{
    Image small = resize(img, s, s);
    Image gray(s, s, 1);
    for (int y = 0; y < s; ++y) {
        for (int x = 0; x < s; ++x) {
            float acc = 0.0f;
            for (int c = 0; c < small.channels(); ++c)
                acc += small.at(c, y, x);
            gray.at(0, y, x) = acc / small.channels();
        }
    }
    return gray;
}

/** Central-difference gradient magnitude map. */
std::vector<float>
gradMag(const Image &gray)
{
    const int s = gray.height();
    std::vector<float> mag(static_cast<size_t>(s) * s, 0.0f);
    for (int y = 1; y < s - 1; ++y) {
        for (int x = 1; x < s - 1; ++x) {
            const float gx =
                gray.at(0, y, x + 1) - gray.at(0, y, x - 1);
            const float gy =
                gray.at(0, y + 1, x) - gray.at(0, y - 1, x);
            mag[static_cast<size_t>(y) * s + x] =
                std::sqrt(gx * gx + gy * gy);
        }
    }
    return mag;
}

/**
 * Bounding-box side fraction of the strongest @p keep_frac of gradient
 * pixels — a direct estimator of apparent object extent.
 */
float
extentAtPercentile(const std::vector<float> &mag, int s,
                   double keep_frac)
{
    std::vector<float> sorted = mag;
    const size_t k = static_cast<size_t>(
        std::max<double>(1.0, sorted.size() * keep_frac));
    std::nth_element(sorted.begin(), sorted.end() - k, sorted.end());
    const float thresh = sorted[sorted.size() - k];
    int x_lo = s, x_hi = -1, y_lo = s, y_hi = -1;
    for (int y = 0; y < s; ++y) {
        for (int x = 0; x < s; ++x) {
            if (mag[static_cast<size_t>(y) * s + x] >= thresh &&
                mag[static_cast<size_t>(y) * s + x] > 0.0f) {
                x_lo = std::min(x_lo, x);
                x_hi = std::max(x_hi, x);
                y_lo = std::min(y_lo, y);
                y_hi = std::max(y_hi, y);
            }
        }
    }
    if (x_hi < x_lo || y_hi < y_lo)
        return 1.0f;
    const float side = 0.5f * ((x_hi - x_lo + 1) + (y_hi - y_lo + 1));
    return side / static_cast<float>(s);
}

constexpr int kFeatureDim = 14;

} // namespace

int
scaleFeatureDim()
{
    return kFeatureDim;
}

std::vector<float>
extractScaleFeatures(const Image &preview)
{
    constexpr int s = 64;
    const Image gray = grayAt(preview, s);
    const std::vector<float> mag = gradMag(gray);

    double mean = 0.0, mean_sq = 0.0;
    for (float v : mag) {
        mean += v;
        mean_sq += static_cast<double>(v) * v;
    }
    mean /= mag.size();
    mean_sq /= mag.size();
    const double var = std::max(0.0, mean_sq - mean * mean);

    const float e95 = extentAtPercentile(mag, s, 0.05);
    const float e90 = extentAtPercentile(mag, s, 0.10);
    const float e75 = extentAtPercentile(mag, s, 0.25);

    // Coarse-scale gradient energy: object edges survive downsampling,
    // background texture does not — the ratio separates them.
    const Image gray16 = grayAt(preview, 16);
    const std::vector<float> mag16 = gradMag(gray16);
    double mean16 = 0.0;
    for (float v : mag16)
        mean16 += v;
    mean16 /= mag16.size();

    const float u = std::log(std::clamp(e90, 0.05f, 1.5f));

    std::vector<float> f;
    f.reserve(kFeatureDim);
    f.push_back(static_cast<float>(mean * 10));
    f.push_back(static_cast<float>(std::sqrt(var) * 10));
    f.push_back(static_cast<float>(mean16 * 10));
    f.push_back(static_cast<float>(
        mean > 1e-6 ? mean16 / mean : 1.0));
    f.push_back(e95);
    f.push_back(e90);
    f.push_back(e75);
    f.push_back(e95 - e75);
    f.push_back(u);
    f.push_back(u * u);
    f.push_back(u * u * u);
    // Channel dispersion (colorfulness of the dominant region).
    double csum = 0.0, csum_sq = 0.0;
    const size_t n = preview.numel();
    for (size_t i = 0; i < n; ++i) {
        csum += preview.data()[i];
        csum_sq += static_cast<double>(preview.data()[i]) *
                   preview.data()[i];
    }
    const double cmean = csum / n;
    f.push_back(static_cast<float>(cmean));
    f.push_back(static_cast<float>(
        std::sqrt(std::max(0.0, csum_sq / n - cmean * cmean))));
    f.push_back(1.0f); // bias-augmentation term
    tamres_assert(static_cast<int>(f.size()) == kFeatureDim,
                  "feature dim mismatch");
    return f;
}

ScaleModel::ScaleModel(std::vector<int> resolutions,
                       ScaleModelOptions opts)
    : resolutions_(std::move(resolutions)), opts_(opts)
{
    tamres_assert(!resolutions_.empty(), "no candidate resolutions");
    buildNet();
}

void
ScaleModel::buildNet()
{
    Rng rng(opts_.seed);
    const int out = static_cast<int>(resolutions_.size());
    net_ = SequentialNet();
    if (opts_.kind == ScaleModelKind::Mlp) {
        net_.add(std::make_unique<TrainLinear>(kFeatureDim, opts_.hidden,
                                               rng));
        net_.add(std::make_unique<TrainReLU>());
        net_.add(std::make_unique<TrainLinear>(opts_.hidden, opts_.hidden,
                                               rng));
        net_.add(std::make_unique<TrainReLU>());
        net_.add(std::make_unique<TrainLinear>(opts_.hidden, out, rng));
    } else {
        const int w = std::max(4, opts_.hidden / 4);
        net_.add(std::make_unique<TrainConv2d>(3, w, 3, 2, 1, rng));
        net_.add(std::make_unique<TrainReLU>());
        net_.add(std::make_unique<TrainConv2d>(w, w * 2, 3, 2, 1, rng));
        net_.add(std::make_unique<TrainReLU>());
        net_.add(std::make_unique<TrainConv2d>(w * 2, w * 4, 3, 2, 1,
                                               rng));
        net_.add(std::make_unique<TrainReLU>());
        net_.add(std::make_unique<TrainGlobalAvgPool>());
        net_.add(std::make_unique<TrainLinear>(w * 4, out, rng));
    }
}

Tensor
ScaleModel::featurize(const Image &preview) const
{
    if (opts_.kind == ScaleModelKind::Mlp) {
        const std::vector<float> f = extractScaleFeatures(preview);
        return Tensor({1, kFeatureDim}, f);
    }
    const Image small = resize(preview, opts_.input_res, opts_.input_res);
    Tensor t({1, 3, opts_.input_res, opts_.input_res});
    std::copy_n(small.data(), small.numel(), t.data());
    return t;
}

double
ScaleModel::train(const SyntheticDataset &dataset, int first, int last,
                  BackboneArch arch,
                  const std::vector<double> &crop_areas,
                  int preview_side)
{
    tamres_assert(first >= 0 && last <= dataset.size() && first < last,
                  "bad training range");
    tamres_assert(!crop_areas.empty(), "no crop augmentation pool");

    const int n = last - first;
    const int num_res = static_cast<int>(resolutions_.size());
    const int k = opts_.num_shards;

    // Figure-5 scheme: backbone instance s is trained on every shard
    // except s, so images in shard s get labels from backbone s.
    std::vector<BackboneAccuracyModel> backbones;
    backbones.reserve(k);
    for (int s = 0; s < k; ++s) {
        backbones.emplace_back(arch, dataset.spec(),
                               opts_.seed * 131 + s + 1);
    }

    // Materialize features and multilabel targets once. The crop
    // draws come first, in image order, so the features (independent
    // per image) render in parallel without moving the rng.
    Rng rng(opts_.seed ^ 0xfeedull);
    std::vector<double> crops(n);
    for (int i = 0; i < n; ++i)
        crops[i] = crop_areas[rng.uniformInt(
            static_cast<uint64_t>(crop_areas.size()))];
    std::vector<Tensor> feats(n);
    ThreadPool::global().parallelFor(
        n,
        [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                const Image full = dataset.renderAt(
                    first + static_cast<int>(i), preview_side);
                const Image cropped = centerCropFraction(full, crops[i]);
                const Image preview =
                    resize(cropped, opts_.input_res, opts_.input_res);
                feats[i] = featurize(preview);
            }
        },
        ThreadPool::defaultParallelism());

    std::vector<Tensor> targets(n);
    for (int i = 0; i < n; ++i) {
        const ImageRecord &rec = dataset.record(first + i);
        const double crop = crops[i];

        // Shard of this image within [first, last).
        int shard = 0;
        for (int s = 0; s < k; ++s) {
            const auto [b, e] = shardRange(n, k, s);
            if (i >= b && i < e) {
                shard = s;
                break;
            }
        }
        Tensor t({1, num_res});
        for (int r = 0; r < num_res; ++r) {
            t[r] = backbones[shard].correct(rec, crop, resolutions_[r],
                                            1.0)
                       ? 1.0f
                       : 0.0f;
        }
        targets[i] = t;
    }

    // SGD epochs over shuffled mini-batches (batches are processed
    // sample-by-sample; gradients accumulate until step()).
    const int epochs = opts_.kind == ScaleModelKind::Mlp
                           ? opts_.epochs
                           : std::max(2, opts_.epochs / 4);
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    double last_loss = 0.0;
    for (int e = 0; e < epochs; ++e) {
        // Fisher-Yates shuffle.
        for (int i = n - 1; i > 0; --i) {
            const int j = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(i + 1)));
            std::swap(order[i], order[j]);
        }
        double loss_sum = 0.0;
        int in_batch = 0;
        for (int idx = 0; idx < n; ++idx) {
            const int i = order[idx];
            Tensor logits = net_.forward(feats[i]);
            Tensor grad;
            loss_sum += bceWithLogitsLoss(logits, targets[i], grad);
            net_.backward(grad);
            if (++in_batch == opts_.batch || idx == n - 1) {
                SgdOptions scaled = opts_.sgd;
                scaled.lr = opts_.sgd.lr / static_cast<float>(in_batch);
                net_.step(scaled);
                in_batch = 0;
            }
        }
        last_loss = loss_sum / n;
    }
    return last_loss;
}

Tensor
ScaleModel::predictLogits(const Image &preview) const
{
    return net_.forward(featurize(preview));
}

int
ScaleModel::chooseResolutionIndexCostAware(
    const Image &preview, double lambda,
    const std::vector<double> &costs) const
{
    tamres_assert(costs.size() == resolutions_.size(),
                  "cost vector must cover every resolution");
    const Tensor probs = sigmoid(predictLogits(preview));
    double max_cost = 0.0;
    for (double c : costs)
        max_cost = std::max(max_cost, c);
    tamres_assert(max_cost > 0.0, "costs must be positive");
    int best = 0;
    double best_util = -1e30;
    for (int r = 0; r < static_cast<int>(resolutions_.size()); ++r) {
        const double util =
            probs[r] - lambda * (costs[r] / max_cost);
        if (util > best_util + 1e-9) {
            best_util = util;
            best = r;
        }
    }
    return best;
}

int
ScaleModel::chooseResolutionIndex(const Image &preview) const
{
    const Tensor logits = predictLogits(preview);
    int best = 0;
    for (int r = 1; r < static_cast<int>(resolutions_.size()); ++r) {
        if (logits[r] > logits[best] + 1e-6f)
            best = r;
    }
    return best;
}

} // namespace tamres
