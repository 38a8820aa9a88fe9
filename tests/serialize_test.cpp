#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bdd/bdd_io.hpp"
#include "core/monitor_builder.hpp"
#include "io/wire.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/normalization.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Serialize, MlpRoundTripPreservesFunction) {
  Rng rng(1);
  Network net = make_mlp({4, 8, 6, 3}, rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  ASSERT_EQ(loaded.num_layers(), net.num_layers());
  for (int i = 0; i < 20; ++i) {
    Tensor x = Tensor::random_uniform({4}, rng);
    EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  }
}

TEST(Serialize, ConvnetRoundTripPreservesFunction) {
  Rng rng(2);
  Network net = make_small_convnet(12, 12, 4, 10, 3, rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  for (int i = 0; i < 10; ++i) {
    Tensor x = Tensor::random_uniform({1, 12, 12}, rng, 0.0F, 1.0F);
    EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  }
}

TEST(Serialize, NormalizationLayerRoundTrip) {
  Rng rng(8);
  Network net;
  net.emplace<Normalization>(Shape{4}, std::vector<float>{0.1F, 0.2F, 0.3F,
                                                          0.4F},
                             std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F});
  net.emplace<Dense>(4, 2);
  net.init_params(rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  for (int i = 0; i < 20; ++i) {
    Tensor x = Tensor::random_uniform({4}, rng);
    EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  }
}

TEST(Serialize, NetworkRejectsGarbage) {
  std::stringstream ss;
  ss << "not a network";
  EXPECT_THROW((void)load_network(ss), std::runtime_error);
}

TEST(Serialize, ThresholdSpecRoundTrip) {
  const auto spec = ThresholdSpec::paper_two_bit(
      std::vector<float>{-1.0F, -2.0F}, std::vector<float>{0.0F, 0.5F},
      std::vector<float>{1.0F, 3.0F});
  std::stringstream ss;
  save_threshold_spec(ss, spec);
  const auto loaded = load_threshold_spec(ss);
  EXPECT_EQ(loaded.bits(), 2U);
  EXPECT_EQ(loaded.dimension(), 2U);
  for (float v : {-3.0F, -1.0F, 0.0F, 0.7F, 2.0F, 5.0F}) {
    EXPECT_EQ(loaded.code(0, v), spec.code(0, v));
    EXPECT_EQ(loaded.code(1, v), spec.code(1, v));
  }
}

TEST(Serialize, MinMaxMonitorRoundTrip) {
  MinMaxMonitor m(3);
  m.observe(std::vector<float>{1.0F, -1.0F, 0.0F});
  m.observe(std::vector<float>{2.0F, -3.0F, 0.5F});
  std::stringstream ss;
  save_monitor(ss, m);
  const auto loaded = load_minmax_monitor(ss);
  EXPECT_EQ(loaded.dimension(), 3U);
  EXPECT_EQ(loaded.observation_count(), 2U);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> probe{float(trial) * 0.1F - 2.0F,
                             float(trial) * -0.2F + 1.0F, 0.25F};
    EXPECT_EQ(loaded.warn(probe), m.warn(probe));
  }
}

TEST(Serialize, OnOffMonitorRoundTrip) {
  Rng rng(3);
  IntervalMonitor m(ThresholdSpec::onoff(std::vector<float>(5, 0.0F)));
  for (int i = 0; i < 20; ++i) {
    std::vector<float> v(5);
    for (auto& x : v) x = rng.uniform_f(-1, 1);
    m.observe(v);
  }
  // Include a robust don't-care insertion.
  m.observe_bounds(std::vector<float>{-1, -1, -0.1F, 1, 1},
                   std::vector<float>{-0.5F, -0.5F, 0.1F, 2, 2});
  std::stringstream ss;
  save_monitor(ss, m);
  auto loaded = load_interval_monitor(ss);
  EXPECT_DOUBLE_EQ(loaded.pattern_count(), m.pattern_count());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(5);
    for (auto& x : probe) x = rng.uniform_f(-2, 2);
    EXPECT_EQ(loaded.warn(probe), m.warn(probe));
  }
}

TEST(Serialize, IntervalMonitorRoundTrip) {
  Rng rng(4);
  IntervalMonitor m(ThresholdSpec::paper_two_bit(
      std::vector<float>(4, -1.0F), std::vector<float>(4, 0.0F),
      std::vector<float>(4, 1.0F)));
  for (int i = 0; i < 15; ++i) {
    std::vector<float> v(4);
    for (auto& x : v) x = rng.uniform_f(-2, 2);
    m.observe(v);
  }
  m.observe_bounds(std::vector<float>{-0.5F, 0.0F, 1.5F, -2.0F},
                   std::vector<float>{0.5F, 0.2F, 2.0F, -1.5F});
  std::stringstream ss;
  save_monitor(ss, m);
  auto loaded = load_interval_monitor(ss);
  EXPECT_DOUBLE_EQ(loaded.pattern_count(), m.pattern_count());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(4);
    for (auto& x : probe) x = rng.uniform_f(-3, 3);
    EXPECT_EQ(loaded.warn(probe), m.warn(probe));
  }
}

TEST(Serialize, AnyMonitorRoundTripsEachType) {
  Rng rng(11);
  // Min-max.
  MinMaxMonitor mm(2);
  mm.observe(std::vector<float>{1.0F, -1.0F});
  // On-off.
  IntervalMonitor oo(ThresholdSpec::onoff(std::vector<float>(3, 0.0F)));
  oo.observe(std::vector<float>{1.0F, -1.0F, 1.0F});
  // Interval.
  IntervalMonitor iv(ThresholdSpec::paper_two_bit(
      std::vector<float>{-1.0F}, std::vector<float>{0.0F},
      std::vector<float>{1.0F}));
  iv.observe(std::vector<float>{0.5F});

  const Monitor* monitors[] = {&mm, &oo, &iv};
  for (const Monitor* m : monitors) {
    std::stringstream ss;
    save_any_monitor(ss, *m);
    const auto loaded = load_any_monitor(ss);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->dimension(), m->dimension());
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<float> probe(m->dimension());
      for (auto& x : probe) x = rng.uniform_f(-2, 2);
      EXPECT_EQ(loaded->warn(probe), m->warn(probe));
    }
  }
}

TEST(Serialize, AnyMonitorPreservesDynamicType) {
  MinMaxMonitor mm(2);
  mm.observe(std::vector<float>{0.0F, 0.0F});
  std::stringstream ss;
  save_any_monitor(ss, mm);
  const auto loaded = load_any_monitor(ss);
  EXPECT_NE(dynamic_cast<MinMaxMonitor*>(loaded.get()), nullptr);
}

TEST(Serialize, AnyMonitorRejectsUnsupportedType) {
  // BoxClusterMonitor is intentionally unsupported.
  class Fake final : public Monitor {
   public:
    std::size_t dimension() const noexcept override { return 1; }
    void observe(std::span<const float>) override {}
    void observe_bounds(std::span<const float>,
                        std::span<const float>) override {}
    bool contains(std::span<const float>) const override { return true; }
    std::string describe() const override { return "Fake"; }
  } fake;
  std::stringstream ss;
  EXPECT_THROW(save_any_monitor(ss, fake), std::invalid_argument);
}

TEST(Serialize, MonitorTagMismatchThrows) {
  MinMaxMonitor m(2);
  m.observe(std::vector<float>{0.0F, 0.0F});
  std::stringstream ss;
  save_monitor(ss, m);
  EXPECT_THROW((void)load_interval_monitor(ss), std::runtime_error);
}

TEST(Serialize, DatasetRoundTrip) {
  Dataset ds;
  Rng rng(5);
  for (int i = 0; i < 7; ++i) {
    ds.inputs.push_back(Tensor::random_uniform({1, 3, 3}, rng));
    ds.targets.push_back(Tensor::random_uniform({2}, rng));
  }
  std::stringstream ss;
  save_dataset(ss, ds);
  const Dataset loaded = load_dataset(ss);
  ASSERT_EQ(loaded.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(loaded.inputs[i].allclose(ds.inputs[i], 0.0F));
    EXPECT_TRUE(loaded.targets[i].allclose(ds.targets[i], 0.0F));
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(6);
  Network net = make_mlp({3, 5, 2}, rng);
  const std::string path = ::testing::TempDir() + "/ranm_net.bin";
  save_network_file(path, net);
  Network loaded = load_network_file(path);
  Tensor x = Tensor::random_uniform({3}, rng);
  EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  EXPECT_THROW((void)load_network_file("/nonexistent/nope.bin"),
               std::runtime_error);
}

TEST(Serialize, DeployedMonitorPipeline) {
  // End-to-end: train-side builds and saves network + robust monitor;
  // vehicle-side loads both and answers identically.
  Rng rng(7);
  Network net = make_mlp({4, 10, 6}, rng);
  std::vector<Tensor> train;
  for (int i = 0; i < 25; ++i) train.push_back(Tensor::random_uniform({4}, rng));
  MonitorBuilder builder(net, net.num_layers());
  NeuronStats stats = builder.collect_stats(train, true);
  IntervalMonitor monitor(ThresholdSpec::from_percentiles(stats, 2));
  builder.build_robust(monitor, train,
                       PerturbationSpec{0, 0.05F, BoundDomain::kBox});

  std::stringstream net_ss, mon_ss;
  save_network(net_ss, net);
  save_monitor(mon_ss, monitor);

  Network net2 = load_network(net_ss);
  auto monitor2 = load_interval_monitor(mon_ss);
  MonitorBuilder builder2(net2, net2.num_layers());
  for (int i = 0; i < 50; ++i) {
    Tensor probe = Tensor::random_uniform({4}, rng, -1.5F, 1.5F);
    EXPECT_EQ(builder2.warns(monitor2, probe), builder.warns(monitor, probe));
  }
}

// Regressions for the kMaxMonitorDim loader caps (found by fuzzing): a
// tiny stream with a huge-but-formerly-accepted dimension header must be
// rejected before the loader commits hundreds of megabytes up front.

void put_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

TEST(Serialize, ThresholdSpecRejectsDimAboveMonitorCap) {
  std::stringstream ss;
  put_u32(ss, 0x52545331U);                // RTS1
  put_u64(ss, io::kMaxMonitorDim + 1);     // dim: just past the cap
  put_u64(ss, 2);                          // bits
  EXPECT_THROW((void)load_threshold_spec(ss), std::runtime_error);
}

TEST(Serialize, OnOffMonitorRejectsHugeSpecHeader) {
  // The exact hostile stream the fuzzer flagged: ~30 bytes claiming a
  // 2^24-neuron spec, which used to size a ~400 MB per-neuron table.
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);  // RMO1
  put_u32(ss, 2);            // MonitorTag::kOnOff
  put_u32(ss, 0x52545331U);  // RTS1
  put_u64(ss, 1ULL << 24);   // dim
  put_u64(ss, 16);           // bits
  EXPECT_THROW((void)load_any_monitor(ss), std::runtime_error);
}

TEST(Serialize, MinMaxMonitorRejectsDimAboveMonitorCap) {
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);             // RMO1
  put_u32(ss, 1);                       // MonitorTag::kMinMax
  put_u64(ss, io::kMaxMonitorDim + 1);  // dim
  put_u64(ss, 0);                       // observation count
  EXPECT_THROW((void)load_any_monitor(ss), std::runtime_error);
}

TEST(Serialize, NormalizationRejectsLayerSizeAboveMonitorCap) {
  std::stringstream ss;
  put_u32(ss, 0x524E4E31U);             // RNN1
  put_u64(ss, 1);                       // one layer
  put_u32(ss, 10);                      // LayerTag::kNormalization
  put_u64(ss, 1);                       // shape rank
  put_u64(ss, io::kMaxMonitorDim + 1);  // feature count
  EXPECT_THROW((void)load_network(ss), std::runtime_error);
}

TEST(Serialize, MonitorDimAtCapStillHasBoundedHeaderCheck) {
  // dim == kMaxMonitorDim itself passes the header check and then fails
  // on the truncated per-neuron reads — the accepted side of the bound.
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);         // RMO1
  put_u32(ss, 1);                   // MonitorTag::kMinMax
  put_u64(ss, io::kMaxMonitorDim);  // dim: exactly at the cap
  put_u64(ss, 0);                   // observation count, then EOF
  EXPECT_THROW((void)load_any_monitor(ss), std::runtime_error);
}

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

TEST(Serialize, BddMonitorBytesArePinned) {
  // Every BDD monitor has one variable order (neuron slot s is variable
  // s), and its artifact bytes must not drift from the format that
  // earlier builds wrote and deployed loaders read.
  IntervalMonitor oo(ThresholdSpec::onoff(std::vector<float>(2, 0.0F)));
  oo.observe(std::vector<float>{1.0F, -1.0F});
  oo.observe_bounds(std::vector<float>{-1.0F, 0.5F},
                    std::vector<float>{1.0F, 1.0F});
  std::stringstream a;
  save_monitor(a, oo);
  EXPECT_EQ(to_hex(a.str()),
            "314f4d520200000031535452020000000000000001000000000000000000"
            "000001000000000131444442020000000400000001000000000000000100"
            "000000000000020000000100000003000000");

  IntervalMonitor iv(ThresholdSpec::paper_two_bit(
      std::vector<float>(2, -1.0F), std::vector<float>(2, 0.0F),
      std::vector<float>(2, 1.0F)));
  iv.observe_bounds(std::vector<float>{-0.5F, 0.5F},
                    std::vector<float>{0.5F, 2.0F});
  std::stringstream b;
  save_monitor(b, iv);
  EXPECT_EQ(to_hex(b.str()),
            "314f4d52030000003153545202000000000000000200000000000000000080"
            "bf0100000000000000803f01000080bf0100000000000000803f0131444442"
            "040000000600000002000000000000000100000001000000000000000200"
            "000001000000020000000000000000000000030000000400000005000000");
}

std::string from_hex(const std::string& hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

TEST(Serialize, OnOffArtifactLoadsAsOneBitIntervalMonitor) {
  // The on-off artifact pinned above: the bytes deployed 1-bit monitors
  // hold.
  const std::string bytes = from_hex(
      "314f4d520200000031535452020000000000000001000000000000000000"
      "000001000000000131444442020000000400000001000000000000000100"
      "000000000000020000000100000003000000");
  std::istringstream in(bytes);
  const std::unique_ptr<Monitor> loaded = load_any_monitor(in);
  const auto* iv = dynamic_cast<const IntervalMonitor*>(loaded.get());
  ASSERT_NE(iv, nullptr);
  EXPECT_EQ(iv->bits(), 1U);

  IntervalMonitor built(ThresholdSpec::onoff(std::vector<float>(2, 0.0F)));
  built.observe(std::vector<float>{1.0F, -1.0F});
  built.observe_bounds(std::vector<float>{-1.0F, 0.5F},
                       std::vector<float>{1.0F, 1.0F});
  for (const float a : {-1.0F, 0.0F, 1.0F}) {
    for (const float b : {-1.0F, 0.0F, 1.0F}) {
      const std::vector<float> probe{a, b};
      EXPECT_EQ(iv->warn(probe), built.warn(probe)) << a << ", " << b;
    }
  }
  std::stringstream resaved;
  save_any_monitor(resaved, *iv);
  EXPECT_EQ(resaved.str(), bytes);
}

/// A retired V2 artifact as `ranm_cli optimize` wrote it: RMO1, the V2
/// tag, the threshold spec, a flags word, the optional variable order,
/// the BDD and the optional profile counts.
std::string retired_v2_stream(std::uint32_t tag, const ThresholdSpec& spec,
                              std::uint32_t flags) {
  const auto nvars =
      static_cast<std::uint32_t>(spec.dimension() * spec.bits());
  bdd::BddManager mgr(nvars);
  const bdd::NodeRef f = mgr.and_(mgr.var(0), mgr.nvar(nvars - 1));
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);  // RMO1
  put_u32(ss, tag);
  save_threshold_spec(ss, spec);
  put_u32(ss, flags);
  if ((flags & 1U) != 0) {  // level_of_slot: the reversed order
    for (std::uint32_t s = 0; s < nvars; ++s) put_u32(ss, nvars - 1 - s);
  }
  bdd::save_bdd(ss, mgr, f);
  if ((flags & 2U) != 0) {  // query total, then one count per saved node
    put_u64(ss, 3);
    for (int n = 0; n < 4; ++n) put_u64(ss, n < 2 ? 0 : 3);
  }
  return ss.str();
}

void expect_refused_as_retired(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    (void)load_any_monitor(in);
    ADD_FAILURE() << "retired V2 artifact loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no longer supported"), std::string::npos) << what;
    EXPECT_NE(what.find("rebuild the monitor"), std::string::npos) << what;
  }
}

TEST(Serialize, RetiredVariableOrderArtifactIsRefused) {
  const std::string bytes = retired_v2_stream(
      4, ThresholdSpec::onoff(std::vector<float>(3, 0.0F)), 1U);
  expect_refused_as_retired(bytes);
  std::istringstream in(bytes);
  EXPECT_THROW((void)load_interval_monitor(in), std::runtime_error);
}

TEST(Serialize, RetiredProfileArtifactIsRefused) {
  const std::string bytes = retired_v2_stream(
      5,
      ThresholdSpec::paper_two_bit(std::vector<float>(2, -1.0F),
                                   std::vector<float>(2, 0.0F),
                                   std::vector<float>(2, 1.0F)),
      2U);
  expect_refused_as_retired(bytes);
  std::istringstream in(bytes);
  EXPECT_THROW((void)load_interval_monitor(in), std::runtime_error);
}

}  // namespace
}  // namespace ranm
