#include "calib/interference.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace deeppool::calib {
namespace {

PairKey key(const std::string& fg, const std::string& bg, int gpus,
            double amp) {
  return PairKey{fg, bg, GpuShape{gpus, amp}};
}

TEST(InterferenceTable, SetFindAndDeterministicOrder) {
  InterferenceTable table;
  EXPECT_TRUE(table.empty());
  // Insert out of key order; iteration and serialization must not care.
  table.set(key("vgg16", "resnet50", 16, 2.0), {0.10, 0.9});
  table.set(key("inception_v3", "vgg16", 16, 0.0), {0.20, 0.8});
  table.set(key("inception_v3", "resnet50", 8, 0.0), {0.30, 0.7});
  EXPECT_EQ(table.size(), 3u);

  const PairFactors* hit = table.find(key("vgg16", "resnet50", 16, 2.0));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->fg_slowdown, 0.10);
  EXPECT_DOUBLE_EQ(hit->bg_efficiency, 0.9);
  // Same pair, different shape: a distinct measurement.
  EXPECT_EQ(table.find(key("vgg16", "resnet50", 8, 2.0)), nullptr);
  EXPECT_EQ(table.find(key("vgg16", "resnet50", 16, 1.5)), nullptr);
  EXPECT_EQ(table.find(key("resnet50", "vgg16", 16, 2.0)), nullptr);

  // entries() iterates in key order: fg model, bg model, then shape.
  std::vector<std::string> fg_order;
  for (const auto& [k, v] : table.entries()) fg_order.push_back(k.fg_model);
  EXPECT_EQ(fg_order,
            (std::vector<std::string>{"inception_v3", "inception_v3",
                                      "vgg16"}));

  // Overwrite is an update, not a duplicate.
  table.set(key("vgg16", "resnet50", 16, 2.0), {0.5, 0.5});
  EXPECT_EQ(table.size(), 3u);
  EXPECT_DOUBLE_EQ(table.find(key("vgg16", "resnet50", 16, 2.0))->fg_slowdown,
                   0.5);
}

TEST(InterferenceTable, RejectsInvalidKeysAndFactors) {
  InterferenceTable table;
  EXPECT_THROW(table.set(key("", "resnet50", 8, 1.0), {0.1, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(table.set(key("vgg16", "", 8, 1.0), {0.1, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(table.set(key("vgg16", "resnet50", 0, 1.0), {0.1, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(table.set(key("vgg16", "resnet50", 8, 1.0), {-0.1, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(table.set(key("vgg16", "resnet50", 8, 1.0), {0.1, -0.5}),
               std::invalid_argument);
  EXPECT_THROW(table.set(key("vgg16", "resnet50", 8, 1.0), {0.1, 1.5}),
               std::invalid_argument);
  EXPECT_TRUE(table.empty());
  // Punitive slowdowns (no upper bound) are legal: they model "never
  // collocate this pair".
  table.set(key("vgg16", "resnet50", 8, 1.0), {10.0, 0.0});
  EXPECT_EQ(table.size(), 1u);
}

TEST(InterferenceTable, JsonRoundTripIsByteStable) {
  InterferenceTable table;
  table.set(key("vgg16", "resnet50", 16, 2.0), {0.0603593436939209, 1.0});
  table.set(key("inception_v3", "vgg16", 16, 0.0), {0.125502278478453, 0.75});

  const std::string once = table.to_json().dump(2);
  const InterferenceTable back =
      InterferenceTable::from_json(Json::parse(once));
  EXPECT_EQ(back.size(), table.size());
  // Byte-stable: serialize -> parse -> serialize is the identity on bytes,
  // so a cache file rewritten by any tool in the chain never churns.
  EXPECT_EQ(back.to_json().dump(2), once);
  EXPECT_EQ(Json::parse(once).dump(2), once);

  const PairFactors* f = back.find(key("vgg16", "resnet50", 16, 2.0));
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->fg_slowdown, 0.0603593436939209);
  EXPECT_DOUBLE_EQ(f->bg_efficiency, 1.0);
}

TEST(InterferenceTable, UnlimitedAmpLimitsShareOneKey) {
  // amp_limit <= 0 always means "unlimited" (the planner normalizes them to
  // the same plan), so a job specced with -1 must hit an entry calibrated
  // at 0.0 instead of silently falling back to the analytic factors.
  InterferenceTable table;
  table.set(key("vgg16", "resnet50", 16, 0.0), {0.2, 0.5});
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.find(key("vgg16", "resnet50", 16, -1.0)), nullptr);
  EXPECT_DOUBLE_EQ(table.find(key("vgg16", "resnet50", 16, -1.0))->fg_slowdown,
                   0.2);
  // And the canonicalization merges on set, too.
  table.set(key("vgg16", "resnet50", 16, -7.0), {0.3, 0.5});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_DOUBLE_EQ(table.find(key("vgg16", "resnet50", 16, 0.0))->fg_slowdown,
                   0.3);

  runtime::MultiplexConfig mux;
  const InterferenceModel model(mux, table);
  EXPECT_DOUBLE_EQ(model.factors("vgg16", "resnet50", {16, -1.0}).fg_slowdown,
                   0.3);
  EXPECT_EQ(model.misses(), 0);
}

TEST(InterferenceTable, FromJsonValidatesShape) {
  EXPECT_THROW(InterferenceTable::from_json(Json::parse("[1, 2]")),
               std::runtime_error);
  // A kind-less object that is not a table (a metrics dump, a plan file)
  // must not load as a silently-empty table.
  EXPECT_THROW(InterferenceTable::from_json(
                   Json::parse(R"({"policy": "burst_lending"})")),
               std::runtime_error);
  EXPECT_THROW(InterferenceTable::from_json(
                   Json::parse(R"({"kind": "schedule"})")),
               std::runtime_error);
  EXPECT_THROW(InterferenceTable::from_json(
                   Json::parse(R"({"entries": [{"fg_model": "vgg16"}]})")),
               std::runtime_error);
  EXPECT_THROW(
      InterferenceTable::from_json(Json::parse(
          R"({"entries": [{"fg_model": "vgg16", "bg_model": "resnet50",
              "num_gpus": 8, "amp_limit": 1.0, "fg_slowdown": -1,
              "bg_efficiency": 0.5}]})")),
      std::invalid_argument);
  // Absent entries = a valid empty table (a fresh cache).
  EXPECT_TRUE(InterferenceTable::from_json(
                  Json::parse(R"({"kind": "interference_table"})"))
                  .empty());
}

TEST(InterferenceModel, MissingKeyFallsBackToAnalyticFactors) {
  runtime::MultiplexConfig mux;  // defaults: full DeepPool ladder
  InterferenceTable table;
  table.set(key("vgg16", "resnet50", 16, 2.0), {0.42, 0.13});
  const InterferenceModel model(mux, table);
  EXPECT_TRUE(model.calibrated());

  const PairFactors hit = model.factors("vgg16", "resnet50", {16, 2.0});
  EXPECT_DOUBLE_EQ(hit.fg_slowdown, 0.42);
  EXPECT_DOUBLE_EQ(hit.bg_efficiency, 0.13);
  EXPECT_EQ(model.hits(), 1);
  EXPECT_EQ(model.misses(), 0);

  // A pair the sweep never measured: graceful fallback to the analytic
  // mux-derived factors, bit-for-bit.
  const PairFactors miss = model.factors("vgg16", "alexnet", {16, 2.0});
  EXPECT_DOUBLE_EQ(miss.fg_slowdown, analytic_fg_interference(mux));
  EXPECT_DOUBLE_EQ(miss.bg_efficiency, analytic_bg_lend_efficiency(mux));
  EXPECT_EQ(model.hits(), 1);
  EXPECT_EQ(model.misses(), 1);

  // Same pair at an uncalibrated shape is a miss too.
  const PairFactors shape_miss = model.factors("vgg16", "resnet50", {8, 2.0});
  EXPECT_DOUBLE_EQ(shape_miss.fg_slowdown, analytic_fg_interference(mux));
  EXPECT_EQ(model.misses(), 2);
}

TEST(InterferenceModel, AnalyticOnlyModelIsUncalibrated) {
  runtime::MultiplexConfig mux;
  const InterferenceModel model(mux);
  EXPECT_FALSE(model.calibrated());
  const PairFactors f = model.factors("vgg16", "resnet50", {16, 2.0});
  EXPECT_DOUBLE_EQ(f.fg_slowdown, analytic_fg_interference(mux));
  EXPECT_DOUBLE_EQ(f.bg_efficiency, analytic_bg_lend_efficiency(mux));
  EXPECT_EQ(model.hits(), 0);
  EXPECT_EQ(model.misses(), 1);
}

}  // namespace
}  // namespace deeppool::calib
