// Batched query/construction API: randomized property tests asserting the
// batch path is element-wise identical to the scalar path for every
// monitor family (min-max, on-off, interval, box-cluster, sharded,
// multi-layer), including robust/don't-care BDD constructions and empty /
// size-1 batches, that every mutation drops the program a batch query
// lowered, plus the observe_bounds precondition (lo <= hi) validation.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/box_cluster_monitor.hpp"
#include "core/interval_monitor.hpp"
#include "core/minmax_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "core/multi_layer_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "nn/init.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

std::vector<float> random_feature(std::size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = float(rng.uniform() * 4.0 - 2.0);
  return v;
}

FeatureBatch random_batch(std::size_t dim, std::size_t n, Rng& rng) {
  FeatureBatch batch(dim, n);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      batch.at(j, i) = float(rng.uniform() * 4.0 - 2.0);
    }
  }
  return batch;
}

/// contains_batch(batch) must equal contains(column) for every column.
void expect_batch_matches_scalar(const Monitor& monitor,
                                 const FeatureBatch& batch,
                                 const char* context) {
  auto buf = std::make_unique<bool[]>(batch.size());
  std::span<bool> out(buf.get(), batch.size());
  monitor.contains_batch(batch, out);
  std::vector<float> sample(monitor.dimension());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.copy_sample(i, sample);
    EXPECT_EQ(out[i], monitor.contains(sample))
        << context << ": mismatch at sample " << i;
  }
}

/// Queries covering sizes around the small-batch fallback threshold and
/// well past it, plus the degenerate empty and size-1 batches.
void check_all_batch_sizes(const Monitor& monitor, Rng& rng,
                           const char* context) {
  for (const std::size_t n : {0UL, 1UL, 3UL, 8UL, 33UL, 100UL}) {
    expect_batch_matches_scalar(
        monitor, random_batch(monitor.dimension(), n, rng), context);
  }
}

ThresholdSpec random_spec(std::size_t dim, std::size_t bits, Rng& rng) {
  NeuronStats stats(dim, true);
  for (int s = 0; s < 40; ++s) stats.add(random_feature(dim, rng));
  return bits == 1 ? ThresholdSpec::from_means(stats)
                   : ThresholdSpec::from_percentiles(stats, bits);
}

TEST(BatchQuery, MinMaxMatchesScalar) {
  Rng rng(101);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t dim = 1 + rng.below(12);
    MinMaxMonitor m(dim);
    for (int s = 0; s < 20; ++s) m.observe(random_feature(dim, rng));
    check_all_batch_sizes(m, rng, "minmax");
  }
}

// The BDD family runs through the shared verdict oracle (oracle.hpp):
// flat and 4-shard, standard and robust, cube and node-array lowerings,
// probes at thresholds, +-0, +-inf and NaN.
TEST(BatchQuery, OnOffStandardAndRobustMatchScalar) {
  oracle::check_interval_matrix(1, 202);
}

TEST(BatchQuery, IntervalStandardAndRobustMatchScalar) {
  oracle::check_interval_matrix(2, 303);
  oracle::check_interval_matrix(3, 404);
}

TEST(BatchQuery, EmptyBddSetNeverContains) {
  Rng rng(99);
  IntervalMonitor m(oracle::random_spec(4, 1, rng));  // nothing observed
  oracle::expect_engines_agree(m, oracle::probe_batches(4, {}, rng));
}

TEST(BatchQuery, BoxClusterMatchesScalar) {
  Rng rng(404);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t dim = 1 + rng.below(6);
    BoxClusterMonitor m(dim, 3);
    for (int s = 0; s < 25; ++s) m.observe(random_feature(dim, rng));
    Rng cluster_rng(7);
    m.finalize(cluster_rng);
    check_all_batch_sizes(m, rng, "box cluster");
  }
}

TEST(BatchQuery, ObserveBatchEquivalentToScalarObserve) {
  Rng rng(505);
  const std::size_t dim = 6;
  const FeatureBatch data = random_batch(dim, 30, rng);

  const auto spec = random_spec(dim, 2, rng);
  IntervalMonitor scalar_built(spec);
  IntervalMonitor batch_built(spec);
  std::vector<float> sample(dim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.copy_sample(i, sample);
    scalar_built.observe(sample);
  }
  batch_built.observe_batch(data);
  EXPECT_DOUBLE_EQ(scalar_built.pattern_count(),
                   batch_built.pattern_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.copy_sample(i, sample);
    EXPECT_TRUE(batch_built.contains(sample));
  }
  const FeatureBatch probes = random_batch(dim, 64, rng);
  std::vector<float> probe(dim);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes.copy_sample(i, probe);
    EXPECT_EQ(scalar_built.contains(probe), batch_built.contains(probe));
  }
}

TEST(BatchQuery, ObserveBoundsBatchEquivalentToScalar) {
  Rng rng(606);
  const std::size_t dim = 5;
  const std::size_t n = 20;
  FeatureBatch lo = random_batch(dim, n, rng);
  FeatureBatch hi(dim, n);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      hi.at(j, i) = lo.at(j, i) + float(rng.uniform());
    }
  }
  const auto spec = random_spec(dim, 2, rng);
  IntervalMonitor scalar_built(spec);
  IntervalMonitor batch_built(spec);
  std::vector<float> l(dim), h(dim);
  for (std::size_t i = 0; i < n; ++i) {
    lo.copy_sample(i, l);
    hi.copy_sample(i, h);
    scalar_built.observe_bounds(l, h);
  }
  batch_built.observe_bounds_batch(lo, hi);
  EXPECT_DOUBLE_EQ(scalar_built.pattern_count(),
                   batch_built.pattern_count());
  const FeatureBatch probes = random_batch(dim, 64, rng);
  std::vector<float> probe(dim);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes.copy_sample(i, probe);
    EXPECT_EQ(scalar_built.contains(probe), batch_built.contains(probe));
  }
}

TEST(BatchQuery, MultiLayerWarnsBatchMatchesScalar) {
  Rng rng(707);
  Network net = make_mlp({6, 12, 8, 4}, rng);
  std::vector<Tensor> data;
  for (int i = 0; i < 30; ++i) {
    data.push_back(Tensor::random_uniform({6}, rng));
  }
  for (const WarnPolicy policy :
       {WarnPolicy::kAny, WarnPolicy::kAll, WarnPolicy::kMajority}) {
    MultiLayerMonitor multi(net, policy);
    multi.attach(2, NeuronSelection::all(12),
                 std::make_unique<MinMaxMonitor>(12));
    multi.attach(4, NeuronSelection::all(8),
                 std::make_unique<MinMaxMonitor>(8));
    multi.build_standard(data, /*batch_size=*/7);
    std::vector<Tensor> probes;
    for (int i = 0; i < 17; ++i) {
      probes.push_back(Tensor::random_uniform({6}, rng, -2.0F, 2.0F));
    }
    probes.push_back(data.front());
    auto buf = std::make_unique<bool[]>(probes.size());
    std::span<bool> out(buf.get(), probes.size());
    multi.warns_batch(probes, out);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(out[i], multi.warns(probes[i])) << "sample " << i;
    }
    // Degenerate batches.
    multi.warns_batch({}, {});
    multi.warns_batch({probes.data(), 1}, {buf.get(), 1});
    EXPECT_EQ(out[0], multi.warns(probes[0]));
  }
}

// Monitors at an affine layer and at the activation after it (which the
// network's passes run as one fused step), and at the Dense layer and its
// activation: the batched pass stops at every attached layer, so each
// monitor sees its own layer's activations, in the full 32-sample block
// and in the one-sample block after it.
TEST(BatchQuery, MultiLayerMonitorsAtAnAffineLayerAndItsActivation) {
  Rng rng(909);
  const Network net = make_small_convnet(6, 6, 2, 8, 3, rng);
  // g1 Conv2D, g2 LeakyReLU, g3 MaxPool2D, g4 Flatten, g5 Dense,
  // g6 LeakyReLU, g7 Dense.
  std::vector<Tensor> data;
  for (int i = 0; i < 33; ++i) {
    data.push_back(Tensor::random_uniform(net.input_shape(), rng, -1.0F, 1.0F));
  }
  const std::size_t conv_out = net.layer(1).output_size();
  const std::vector<std::pair<std::size_t, NeuronSelection>> attached = {
      {1, NeuronSelection::all(conv_out)},
      {2, NeuronSelection::indices(conv_out, {0, 7, 35, 71})},
      {5, NeuronSelection::all(8)},
      {6, NeuronSelection::all(8)}};
  MultiLayerMonitor multi(net, WarnPolicy::kAny);
  std::vector<MinMaxMonitor> scalar;
  for (const auto& [layer, selection] : attached) {
    multi.attach(layer, selection,
                 std::make_unique<MinMaxMonitor>(selection.output_dim()));
    scalar.emplace_back(selection.output_dim());
  }
  multi.build_standard(data, /*batch_size=*/33);
  // The reference: each layer's features from the unfused one-sample
  // pass, observed one at a time.
  for (const Tensor& x : data) {
    for (std::size_t e = 0; e < attached.size(); ++e) {
      const Tensor act = net.forward_to(attached[e].first, x);
      scalar[e].observe(attached[e].second.project(
          std::vector<float>(act.data(), act.data() + act.numel())));
    }
  }
  for (std::size_t e = 0; e < attached.size(); ++e) {
    const auto& built = dynamic_cast<const MinMaxMonitor&>(multi.monitor(e));
    ASSERT_EQ(built.dimension(), scalar[e].dimension());
    for (std::size_t j = 0; j < built.dimension(); ++j) {
      EXPECT_EQ(built.lower(j), scalar[e].lower(j))
          << "layer " << attached[e].first << " neuron " << j;
      EXPECT_EQ(built.upper(j), scalar[e].upper(j))
          << "layer " << attached[e].first << " neuron " << j;
    }
  }
  std::vector<Tensor> probes(data.begin(), data.begin() + 16);
  for (int i = 0; i < 17; ++i) {
    probes.push_back(
        Tensor::random_uniform(net.input_shape(), rng, -1.5F, 1.5F));
  }
  ASSERT_EQ(probes.size(), 33U);
  auto buf = std::make_unique<bool[]>(probes.size());
  std::span<bool> out(buf.get(), probes.size());
  multi.warns_batch(probes, out);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(out[i], multi.warns(probes[i])) << "sample " << i;
  }
}

TEST(BatchQuery, MultiLayerBatchedBuildMatchesScalarBuild) {
  Rng rng(808);
  Network net = make_mlp({5, 10, 6}, rng);
  std::vector<Tensor> data;
  for (int i = 0; i < 23; ++i) {
    data.push_back(Tensor::random_uniform({5}, rng));
  }
  // One build through the chunked batch path, one sample at a time.
  MultiLayerMonitor chunked(net, WarnPolicy::kAny);
  chunked.attach(2, NeuronSelection::all(10),
                 std::make_unique<MinMaxMonitor>(10));
  chunked.build_standard(data, /*batch_size=*/8);
  MultiLayerMonitor one_by_one(net, WarnPolicy::kAny);
  one_by_one.attach(2, NeuronSelection::all(10),
                    std::make_unique<MinMaxMonitor>(10));
  one_by_one.build_standard(data, /*batch_size=*/1);
  for (int i = 0; i < 20; ++i) {
    const Tensor probe = Tensor::random_uniform({5}, rng, -2.0F, 2.0F);
    EXPECT_EQ(chunked.warns(probe), one_by_one.warns(probe));
  }
}

// A monitor overriding only the scalar virtuals must get correct batch
// behaviour from the Monitor base-class defaults.
class ScalarOnlyMonitor final : public Monitor {
 public:
  explicit ScalarOnlyMonitor(std::size_t dim) : dim_(dim) {}
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return dim_;
  }
  void observe(std::span<const float> feature) override {
    total_ += feature[0];
    ++count_;
  }
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override {
    check_bounds_ordered(lo, hi, dim_, "ScalarOnlyMonitor::observe_bounds");
    total_ += 0.5F * (lo[0] + hi[0]);
    ++count_;
  }
  [[nodiscard]] bool contains(std::span<const float> feature) const override {
    return count_ > 0 && feature[0] <= total_;
  }
  [[nodiscard]] std::string describe() const override {
    return "ScalarOnlyMonitor";
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::size_t dim_;
  float total_ = 0.0F;
  std::size_t count_ = 0;
};

TEST(BatchQuery, BaseClassDefaultsLoopOverScalarPath) {
  Rng rng(909);
  ScalarOnlyMonitor m(3);
  const FeatureBatch data = random_batch(3, 9, rng);
  m.observe_batch(data);
  EXPECT_EQ(m.count(), 9U);
  FeatureBatch lo = random_batch(3, 4, rng);
  FeatureBatch hi(3, 4);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      hi.at(j, i) = lo.at(j, i) + 0.25F;
    }
  }
  m.observe_bounds_batch(lo, hi);
  EXPECT_EQ(m.count(), 13U);
  check_all_batch_sizes(m, rng, "scalar-only defaults");
}

TEST(BatchQuery, NanFeaturesMatchScalarSemantics) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(1234);
  MinMaxMonitor minmax(2);
  minmax.observe(std::vector<float>{0.0F, 0.0F});
  minmax.observe(std::vector<float>{1.0F, 1.0F});
  IntervalMonitor onoff(random_spec(2, 1, rng));
  onoff.observe(std::vector<float>{0.5F, 0.5F});
  IntervalMonitor interval(random_spec(2, 2, rng));
  interval.observe(std::vector<float>{0.5F, 0.5F});
  BoxClusterMonitor boxes(2, 1);
  boxes.observe(std::vector<float>{0.0F, 0.0F});
  boxes.observe(std::vector<float>{1.0F, 1.0F});
  Rng cluster_rng(7);
  boxes.finalize(cluster_rng);

  // A batch mixing NaN positions with ordinary values, wide enough to take
  // the lowered program as well as (via the size-1 slice) the scalar path.
  for (const std::size_t n : {1UL, 16UL}) {
    FeatureBatch batch(2, n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.at(0, i) = i % 3 == 0 ? nan : float(i) * 0.1F;
      batch.at(1, i) = i % 5 == 0 ? nan : 0.5F;
    }
    for (const Monitor* m : {static_cast<const Monitor*>(&minmax),
                             static_cast<const Monitor*>(&boxes)}) {
      expect_batch_matches_scalar(*m, batch, "NaN batch");
    }
    oracle::expect_engines_agree(onoff, {batch});
    oracle::expect_engines_agree(interval, {batch});
  }
}

TEST(BatchQuery, DefaultConstructedEmptyBatchIsANoOpQuery) {
  Rng rng(4321);
  MinMaxMonitor minmax(3);
  minmax.observe(std::vector<float>{0.0F, 0.0F, 0.0F});
  IntervalMonitor onoff(random_spec(3, 1, rng));
  BoxClusterMonitor boxes(3, 1);
  boxes.observe(std::vector<float>{0.0F, 0.0F, 0.0F});
  Rng cluster_rng(7);
  boxes.finalize(cluster_rng);
  const FeatureBatch empty;  // dimension 0, size 0
  for (const Monitor* m :
       {static_cast<const Monitor*>(&minmax),
        static_cast<const Monitor*>(&onoff),
        static_cast<const Monitor*>(&boxes)}) {
    std::span<bool> none;
    EXPECT_NO_THROW(m->contains_batch(empty, none));
  }
}

TEST(BatchQuery, BatchArgumentValidation) {
  MinMaxMonitor m(4);
  m.observe(std::vector<float>{0.0F, 0.0F, 0.0F, 0.0F});
  Rng rng(11);
  const FeatureBatch wrong_dim = random_batch(3, 5, rng);
  auto buf = std::make_unique<bool[]>(5);
  EXPECT_THROW(m.contains_batch(wrong_dim, {buf.get(), 5}),
               std::invalid_argument);
  const FeatureBatch ok = random_batch(4, 5, rng);
  EXPECT_THROW(m.contains_batch(ok, {buf.get(), 3}),
               std::invalid_argument);
  EXPECT_THROW(m.observe_batch(wrong_dim), std::invalid_argument);
  const FeatureBatch other = random_batch(4, 3, rng);
  EXPECT_THROW(m.observe_bounds_batch(ok, other), std::invalid_argument);
}

/// The first `n` columns of `batch`.
FeatureBatch prefix(const FeatureBatch& batch, std::size_t n) {
  FeatureBatch out(batch.dimension(), n);
  std::vector<float> sample(batch.dimension());
  for (std::size_t i = 0; i < n; ++i) {
    batch.copy_sample(i, sample);
    out.set_sample(i, sample);
  }
  return out;
}

/// A batch query lowers the monitor's program; `mutate` then changes the
/// stored set. Batches on both sides of the small-batch threshold must
/// answer for the mutated set, like the scalar path, so the mutation must
/// have dropped the program. The mutation must also move some probe
/// verdict, or a stale program would go unseen.
void check_mutation_drops_program(Monitor& monitor,
                                  const FeatureBatch& probes,
                                  const std::function<void()>& mutate,
                                  const std::string& what) {
  const std::size_t n = probes.size();
  auto before = std::make_unique<bool[]>(n);
  monitor.contains_batch(probes, {before.get(), n});
  mutate();
  for (const std::size_t size : {7UL, 8UL, 9UL, 64UL, 65UL}) {
    expect_batch_matches_scalar(monitor, prefix(probes, size), what.c_str());
  }
  std::vector<float> sample(probes.dimension());
  bool moved = false;
  for (std::size_t i = 0; i < n; ++i) {
    probes.copy_sample(i, sample);
    moved = moved || monitor.contains(sample) != before[i];
  }
  EXPECT_TRUE(moved) << what << ": no probe verdict changed";
}

/// One mutating entry point, applied to a freshly built monitor.
template <typename M>
struct Mutation {
  const char* name;
  std::function<void(M&, const FeatureBatch&)> apply;
};

/// Runs every mutation on its own fresh monitor from `make`. The probes
/// lie outside the small-scale training data, so observing some of them
/// (or widening the set) moves their verdicts.
template <typename M>
void check_every_mutation(const char* family,
                          const std::function<std::unique_ptr<M>()>& make,
                          const std::vector<Mutation<M>>& mutations,
                          std::size_t dim, Rng& rng) {
  for (const Mutation<M>& mutation : mutations) {
    const std::unique_ptr<M> monitor = make();
    const FeatureBatch probes = random_batch(dim, 65, rng);
    check_mutation_drops_program(
        *monitor, probes, [&] { mutation.apply(*monitor, probes); },
        std::string(family) + "." + mutation.name);
  }
}

/// The observe entry points every streaming family shares, each folding
/// in the first probes.
template <typename M>
std::vector<Mutation<M>> observe_mutations() {
  return {
      {"observe",
       [](M& m, const FeatureBatch& p) {
         for (std::size_t i = 0; i < 4; ++i) m.observe(p.sample(i));
       }},
      {"observe_bounds",
       [](M& m, const FeatureBatch& p) {
         for (std::size_t i = 0; i < 4; ++i) {
           m.observe_bounds(p.sample(i), p.sample(i));
         }
       }},
      {"observe_batch",
       [](M& m, const FeatureBatch& p) { m.observe_batch(prefix(p, 4)); }},
      {"observe_bounds_batch",
       [](M& m, const FeatureBatch& p) {
         const FeatureBatch first = prefix(p, 4);
         m.observe_bounds_batch(first, first);
       }},
  };
}

/// Training data at a quarter of the probes' scale.
template <typename M>
void fold_small(M& monitor, std::size_t dim, int count, Rng& rng) {
  for (int s = 0; s < count; ++s) {
    auto v = random_feature(dim, rng);
    for (float& x : v) x *= 0.25F;
    monitor.observe(v);
  }
}

TEST(BatchQuery, EveryMutationDropsTheLoweredProgram) {
  Rng rng(2718);
  constexpr std::size_t kDim = 8;
  const ThresholdSpec onoff_spec = random_spec(kDim, 1, rng);
  const ThresholdSpec interval_spec = random_spec(kDim, 2, rng);

  auto onoff_mutations = observe_mutations<IntervalMonitor>();
  onoff_mutations.push_back(
      {"enlarge_hamming",
       [](IntervalMonitor& m, const FeatureBatch&) { m.enlarge_hamming(3); }});
  onoff_mutations.push_back(
      {"set_root", [](IntervalMonitor& m, const FeatureBatch&) {
         m.set_root(bdd::kTrue);
       }});
  check_every_mutation<IntervalMonitor>(
      "onoff",
      [&] {
        auto m = std::make_unique<IntervalMonitor>(onoff_spec);
        fold_small(*m, kDim, 6, rng);
        return m;
      },
      onoff_mutations, kDim, rng);

  auto interval_mutations = observe_mutations<IntervalMonitor>();
  interval_mutations.push_back(
      {"set_root", [](IntervalMonitor& m, const FeatureBatch&) {
         m.set_root(bdd::kTrue);
       }});
  check_every_mutation<IntervalMonitor>(
      "interval",
      [&] {
        auto m = std::make_unique<IntervalMonitor>(interval_spec);
        fold_small(*m, kDim, 6, rng);
        return m;
      },
      interval_mutations, kDim, rng);

  auto minmax_mutations = observe_mutations<MinMaxMonitor>();
  minmax_mutations.push_back(
      {"enlarge", [](MinMaxMonitor& m, const FeatureBatch&) {
         m.enlarge(100.0F);
       }});
  minmax_mutations.push_back(
      {"enlarge_absolute", [](MinMaxMonitor& m, const FeatureBatch&) {
         m.enlarge_absolute(10.0F);
       }});
  check_every_mutation<MinMaxMonitor>(
      "minmax",
      [&] {
        auto m = std::make_unique<MinMaxMonitor>(kDim);
        fold_small(*m, kDim, 6, rng);
        return m;
      },
      minmax_mutations, kDim, rng);

  // A sharded monitor caches one program over all its shards; its own
  // observe entry points must drop it, not only its shards'.
  check_every_mutation<ShardedMonitor>(
      "sharded",
      [&] {
        auto m = std::make_unique<ShardedMonitor>(ShardedMonitor::interval(
            ShardPlan::contiguous(kDim, 4), interval_spec));
        fold_small(*m, kDim, 6, rng);
        return m;
      },
      observe_mutations<ShardedMonitor>(), kDim, rng);

  // A box-cluster monitor buffers its observations until finalize, and
  // no program can be lowered before then, so enlarge is its one
  // mutation of a queryable set.
  check_every_mutation<BoxClusterMonitor>(
      "box_cluster",
      [&] {
        auto m = std::make_unique<BoxClusterMonitor>(kDim, 3);
        fold_small(*m, kDim, 25, rng);
        Rng cluster_rng(7);
        m->finalize(cluster_rng);
        return m;
      },
      {{"enlarge",
        [](BoxClusterMonitor& m, const FeatureBatch&) { m.enlarge(100.0F); }}},
      kDim, rng);
}

TEST(BatchQuery, BoxClusterBatchBeforeFinalizeThrows) {
  Rng rng(31);
  BoxClusterMonitor m(3, 2);
  for (int s = 0; s < 5; ++s) m.observe(random_feature(3, rng));
  for (const std::size_t n : {1UL, 8UL}) {
    const FeatureBatch batch = random_batch(3, n, rng);
    auto buf = std::make_unique<bool[]>(n);
    EXPECT_THROW(m.contains_batch(batch, {buf.get(), n}), std::logic_error);
  }
}

// The observe_bounds precondition (lo[j] <= hi[j], documented in
// Monitor::observe_bounds) is validated: a violated bound must throw
// instead of silently corrupting the abstraction.
TEST(BoundsPrecondition, ViolatedBoundIsCaughtByEveryMonitor) {
  const std::vector<float> lo{1.0F, 0.0F};
  const std::vector<float> hi{0.0F, 1.0F};  // lo[0] > hi[0]

  MinMaxMonitor minmax(2);
  EXPECT_THROW(minmax.observe_bounds(lo, hi), std::invalid_argument);

  Rng rng(5);
  IntervalMonitor onoff(random_spec(2, 1, rng));
  EXPECT_THROW(onoff.observe_bounds(lo, hi), std::invalid_argument);

  IntervalMonitor interval(random_spec(2, 2, rng));
  EXPECT_THROW(interval.observe_bounds(lo, hi), std::invalid_argument);

  BoxClusterMonitor boxes(2, 2);
  EXPECT_THROW(boxes.observe_bounds(lo, hi), std::invalid_argument);

  ScalarOnlyMonitor scalar_only(2);
  EXPECT_THROW(scalar_only.observe_bounds(lo, hi), std::invalid_argument);

  // The batched entry points reject the same violation.
  FeatureBatch lo_b(2, 1), hi_b(2, 1);
  lo_b.set_sample(0, lo);
  hi_b.set_sample(0, hi);
  EXPECT_THROW(minmax.observe_bounds_batch(lo_b, hi_b),
               std::invalid_argument);
  EXPECT_THROW(onoff.observe_bounds_batch(lo_b, hi_b),
               std::invalid_argument);
  EXPECT_THROW(interval.observe_bounds_batch(lo_b, hi_b),
               std::invalid_argument);
  EXPECT_THROW(boxes.observe_bounds_batch(lo_b, hi_b),
               std::invalid_argument);
}

TEST(BoundsPrecondition, ValidBoundsStillAccepted) {
  MinMaxMonitor m(2);
  m.observe_bounds(std::vector<float>{0.0F, -1.0F},
                   std::vector<float>{0.0F, 1.0F});  // lo == hi is legal
  EXPECT_EQ(m.observation_count(), 1U);
  EXPECT_TRUE(m.contains(std::vector<float>{0.0F, 0.0F}));
}

}  // namespace
}  // namespace ranm
