// Tests for the synthetic stream generator, dataset presets, and CSV loader.

#include <cmath>
#include <cstdio>
#include <map>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "data/datasets.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "test_scratch_dir.h"

namespace sns {
namespace {

SyntheticStreamConfig BaseConfig() {
  SyntheticStreamConfig config;
  config.mode_dims = {20, 15};
  config.num_events = 4000;
  config.time_span = 50000;
  config.latent_rank = 4;
  config.diurnal_period = 5000;
  config.seed = 42;
  return config;
}

TEST(SyntheticTest, ValidatesConfig) {
  SyntheticStreamConfig config = BaseConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.mode_dims = {};
  EXPECT_FALSE(GenerateSyntheticStream(config).ok());
  config = BaseConfig();
  config.noise_fraction = 1.5;
  EXPECT_FALSE(GenerateSyntheticStream(config).ok());
  config = BaseConfig();
  config.time_span = 0;
  EXPECT_FALSE(GenerateSyntheticStream(config).ok());
  config = BaseConfig();
  config.value_min = 3.0;
  config.value_max = 1.0;
  EXPECT_FALSE(GenerateSyntheticStream(config).ok());
}

TEST(SyntheticTest, GeneratesRequestedShape) {
  auto stream = GenerateSyntheticStream(BaseConfig());
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream.value().size(), 4000);
  EXPECT_EQ(stream.value().mode_dims(), (std::vector<int64_t>{20, 15}));
  int64_t previous = 0;
  for (const Tuple& tuple : stream.value().tuples()) {
    EXPECT_GE(tuple.time, previous);
    previous = tuple.time;
    EXPECT_GE(tuple.time, 1);
    EXPECT_LE(tuple.time, 50000);
    EXPECT_EQ(tuple.value, 1.0);  // Count data by default.
    EXPECT_GE(tuple.index[0], 0);
    EXPECT_LT(tuple.index[0], 20);
    EXPECT_GE(tuple.index[1], 0);
    EXPECT_LT(tuple.index[1], 15);
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  auto a = GenerateSyntheticStream(BaseConfig());
  auto b = GenerateSyntheticStream(BaseConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (int64_t i = 0; i < a.value().size(); ++i) {
    const Tuple& x = a.value().tuples()[static_cast<size_t>(i)];
    const Tuple& y = b.value().tuples()[static_cast<size_t>(i)];
    EXPECT_TRUE(x.index == y.index);
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.value, y.value);
  }
}

TEST(SyntheticTest, PopularitySkewProducesHeavyIndices) {
  SyntheticStreamConfig config = BaseConfig();
  config.noise_fraction = 0.0;
  config.popularity_skew = 1.5;
  auto stream = GenerateSyntheticStream(config);
  ASSERT_TRUE(stream.ok());
  std::map<int32_t, int64_t> counts;
  for (const Tuple& tuple : stream.value().tuples()) {
    counts[tuple.index[0]]++;
  }
  int64_t max_count = 0;
  for (const auto& [index, count] : counts) {
    max_count = std::max(max_count, count);
  }
  // The most popular index should be far above uniform (4000/20 = 200).
  EXPECT_GT(max_count, 400);
}

TEST(SyntheticTest, DiurnalModulationShiftsMass) {
  SyntheticStreamConfig config = BaseConfig();
  config.diurnal_strength = 0.9;
  config.num_events = 20000;
  auto stream = GenerateSyntheticStream(config);
  ASSERT_TRUE(stream.ok());
  // sin-phase [0, half) gets boosted, [half, period) suppressed.
  int64_t first_half = 0, second_half = 0;
  for (const Tuple& tuple : stream.value().tuples()) {
    if (tuple.time % 5000 < 2500) {
      ++first_half;
    } else {
      ++second_half;
    }
  }
  EXPECT_GT(first_half, second_half * 2);
}

TEST(SyntheticTest, ValueRangeRespected) {
  SyntheticStreamConfig config = BaseConfig();
  config.value_min = 1.0;
  config.value_max = 4.0;
  auto stream = GenerateSyntheticStream(config);
  ASSERT_TRUE(stream.ok());
  for (const Tuple& tuple : stream.value().tuples()) {
    EXPECT_GE(tuple.value, 1.0);
    EXPECT_LE(tuple.value, 4.0);
    EXPECT_EQ(tuple.value, std::floor(tuple.value));  // Integral bounds.
  }
}

TEST(DatasetsTest, PresetsMatchPaperTableIII) {
  auto presets = AllDatasetPresets();
  ASSERT_EQ(presets.size(), 4u);

  EXPECT_EQ(presets[0].name, "divvy");
  EXPECT_EQ(presets[0].engine.period, 1440);
  EXPECT_EQ(presets[0].engine.sample_threshold, 20);
  EXPECT_EQ(presets[0].stream.mode_dims, (std::vector<int64_t>{673, 673}));

  EXPECT_EQ(presets[1].name, "crime");
  EXPECT_EQ(presets[1].engine.period, 720);
  EXPECT_EQ(presets[1].stream.mode_dims, (std::vector<int64_t>{77, 32}));

  EXPECT_EQ(presets[2].name, "taxi");
  EXPECT_EQ(presets[2].engine.period, 3600);
  EXPECT_EQ(presets[2].stream.mode_dims, (std::vector<int64_t>{265, 265}));

  EXPECT_EQ(presets[3].name, "austin");
  EXPECT_EQ(presets[3].engine.period, 1440);
  EXPECT_EQ(presets[3].engine.sample_threshold, 50);
  EXPECT_EQ(presets[3].stream.mode_dims,
            (std::vector<int64_t>{219, 219, 24}));

  for (const auto& preset : presets) {
    EXPECT_EQ(preset.engine.rank, 20);
    EXPECT_EQ(preset.engine.window_size, 10);
    EXPECT_EQ(preset.engine.clip_bound, 1000.0);
    EXPECT_TRUE(preset.engine.Validate().ok());
    EXPECT_TRUE(preset.stream.Validate().ok());
    // Streams span warm-up + 5 live window spans.
    EXPECT_EQ(preset.stream.time_span,
              (1 + kLiveWindows) * 10 * preset.engine.period);
    EXPECT_EQ(preset.WarmupEndTime(), 10 * preset.engine.period);
  }
}

TEST(DatasetsTest, EventScaleScalesCounts) {
  auto small = NewYorkTaxiPreset(0.5);
  auto large = NewYorkTaxiPreset(2.0);
  EXPECT_EQ(small.stream.num_events * 4, large.stream.num_events);
}

TEST(DatasetsTest, PresetStreamsGenerate) {
  for (const auto& preset : AllDatasetPresets(0.1)) {
    auto stream = GenerateSyntheticStream(preset.stream);
    ASSERT_TRUE(stream.ok()) << preset.name;
    EXPECT_EQ(stream.value().size(), preset.stream.num_events);
  }
}

TEST(LoaderTest, RoundTripsStream) {
  SyntheticStreamConfig config = BaseConfig();
  config.num_events = 200;
  auto stream = GenerateSyntheticStream(config);
  ASSERT_TRUE(stream.ok());

  const std::string path = TestScratchDir() + "/sns_stream.csv";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveStreamCsv(stream.value(), path).ok());
  auto loaded = LoadStreamCsv(path, {20, 15});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 200);
  for (int64_t i = 0; i < 200; ++i) {
    const Tuple& x = stream.value().tuples()[static_cast<size_t>(i)];
    const Tuple& y = loaded.value().tuples()[static_cast<size_t>(i)];
    EXPECT_TRUE(x.index == y.index);
    EXPECT_EQ(x.time, y.time);
    EXPECT_NEAR(x.value, y.value, 1e-9);
  }
  std::remove(path.c_str());
}

TEST(LoaderTest, RejectsMalformedRows) {
  const std::string path = TestScratchDir() + "/sns_bad_stream.csv";
  std::remove(path.c_str());
  ASSERT_TRUE(WriteDelimitedFile(path, ',', {{"1", "2", "1.0"}}).ok());
  EXPECT_FALSE(LoadStreamCsv(path, {5, 5}).ok());  // Missing timestamp field.
  std::remove(path.c_str());

  ASSERT_TRUE(WriteDelimitedFile(path, ',', {{"9", "2", "1.0", "10"}}).ok());
  EXPECT_FALSE(LoadStreamCsv(path, {5, 5}).ok());  // Index out of range.
  std::remove(path.c_str());

  ASSERT_TRUE(WriteDelimitedFile(
                  path, ',', {{"1", "2", "1.0", "10"}, {"1", "2", "1.0", "5"}})
                  .ok());
  EXPECT_FALSE(LoadStreamCsv(path, {5, 5}).ok());  // Time regression.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sns
