// Durability of the loss subsystem: the checkpoint version matrix (v1 for
// plain Gaussian streams, v2 once a non-Gaussian loss or robust mode adds
// extended state, typed rejection of anything newer), round-tripping of
// loss/robust configuration and the outlier store through checkpoints, and
// the central differential extended to generalized losses — restore +
// journal replay of a Poisson/Bernoulli/robust stream is BITWISE identical
// to uninterrupted execution for every updater variant and shard count.

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "slicenstitch.h"
#include "test_scratch_dir.h"

namespace sns {
namespace {

namespace fs = std::filesystem;

ContinuousCpdOptions LossEngineOptions(SnsVariant variant, LossKind loss,
                                       bool robust) {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 30;
  options.variant = variant;
  options.sample_threshold = 10;
  options.clip_bound = 1000.0;
  options.loss = loss;
  if (robust) {
    options.robust.enabled = true;
    options.robust.threshold = 2.0;
    options.robust.decay = 0.5;
    options.robust.capacity = 32;
  }
  return options;
}

DataStream SmallStream(int64_t num_events, uint64_t seed) {
  SyntheticStreamConfig config;
  config.mode_dims = {6, 5};
  config.num_events = num_events;
  config.time_span = 6 * 3 * 30;
  config.diurnal_period = 90;
  config.seed = seed;
  auto stream = GenerateSyntheticStream(config);
  SNS_CHECK(stream.ok());
  return std::move(stream).value();
}

SnsService MakeService(int shards) {
  ServiceOptions options;
  options.shards = shards;
  return SnsService(options);
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = TestScratchDir() + "/sns_loss_durability_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::string CheckpointBytes(SnsService& service, const std::string& name) {
  serial::StringSink sink;
  const Status status = service.Checkpoint(name, sink);
  SNS_CHECK(status.ok());
  return sink.TakeData();
}

// The same batched protocol durability_test.cpp pins for the Gaussian path.
struct ProtocolInput {
  ContinuousCpdOptions options;
  std::span<const Tuple> warmup;
  std::vector<std::span<const Tuple>> batches;
  int64_t horizon = 0;
};

ProtocolInput MakeProtocol(const DataStream& stream,
                           const ContinuousCpdOptions& options) {
  ProtocolInput input;
  input.options = options;
  const std::span<const Tuple> tuples(stream.tuples());
  const int64_t warmup_end =
      static_cast<int64_t>(options.window_size) * options.period;
  const size_t split =
      static_cast<size_t>(stream.CountTuplesThrough(warmup_end));
  input.warmup = tuples.subspan(0, split);
  const std::span<const Tuple> live = tuples.subspan(split);
  for (size_t i = 0; i < live.size(); i += 3) {
    input.batches.push_back(
        live.subspan(i, std::min<size_t>(3, live.size() - i)));
  }
  input.horizon = stream.tuples().back().time + options.period;
  return input;
}

std::string RunUninterrupted(const ProtocolInput& input, int shards) {
  SnsService service = MakeService(shards);
  SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
  SNS_CHECK(service.Warmup("s", input.warmup).ok());
  SNS_CHECK(service.Initialize("s").ok());
  for (const auto& batch : input.batches) {
    SNS_CHECK(service.Ingest("s", batch).ok());
  }
  SNS_CHECK(service.AdvanceTo("s", input.horizon).ok());
  return CheckpointBytes(service, "s");
}

enum class Interrupt { kBeforeWarmup, kMidBatches, kAfterBatches };

std::string RunRecovered(const ProtocolInput& input, int shards,
                         Interrupt interrupt, const std::string& dir) {
  fs::remove_all(dir);
  std::string saved;
  {
    SnsService service = MakeService(shards);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    if (interrupt == Interrupt::kBeforeWarmup) {
      saved = CheckpointBytes(service, "s");
    }
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    for (size_t i = 0; i < input.batches.size(); ++i) {
      SNS_CHECK(service.Ingest("s", input.batches[i]).ok());
      if (interrupt == Interrupt::kMidBatches &&
          i + 1 == input.batches.size() / 2) {
        saved = CheckpointBytes(service, "s");
      }
    }
    if (interrupt == Interrupt::kAfterBatches) {
      saved = CheckpointBytes(service, "s");
    }
    SNS_CHECK(service.AdvanceTo("s", input.horizon).ok());
  }  // "Crash": checkpoint + journal survive the service.

  SnsService recovered = MakeService(shards);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  SNS_CHECK(report.ok());
  SNS_CHECK(!report.value().torn_tail);
  return CheckpointBytes(recovered, "s");
}

// --- Checkpoint version matrix --------------------------------------------

int CheckpointVersionByte(const std::string& bytes) {
  SNS_CHECK(bytes.size() > 4);
  return static_cast<int>(static_cast<unsigned char>(bytes[4]));
}

std::string MakeCheckpoint(const ContinuousCpdOptions& options) {
  SnsService service = MakeService(0);
  SNS_CHECK(service.CreateStream("s", {6, 5}, options).ok());
  return CheckpointBytes(service, "s");
}

TEST(LossCheckpointVersionTest, PlainGaussianStreamsStayOnVersionOne) {
  // A default-loss stream must emit the exact pre-loss envelope generation:
  // checkpoints taken by this build remain readable by pre-loss builds.
  const std::string bytes =
      MakeCheckpoint(LossEngineOptions(SnsVariant::kVec, LossKind::kGaussian,
                                       /*robust=*/false));
  EXPECT_EQ(CheckpointVersionByte(bytes), 1);
}

TEST(LossCheckpointVersionTest, ExtendedStateBumpsToVersionTwo) {
  // Either a non-Gaussian loss or robust mode forces the extension.
  EXPECT_EQ(CheckpointVersionByte(MakeCheckpoint(LossEngineOptions(
                SnsVariant::kVec, LossKind::kPoisson, false))),
            2);
  EXPECT_EQ(CheckpointVersionByte(MakeCheckpoint(LossEngineOptions(
                SnsVariant::kVec, LossKind::kBernoulliLogit, false))),
            2);
  EXPECT_EQ(CheckpointVersionByte(MakeCheckpoint(LossEngineOptions(
                SnsVariant::kVec, LossKind::kGaussian, true))),
            2);
}

TEST(LossCheckpointVersionTest, VersionOneCheckpointsRestoreAsGaussian) {
  // A v1 envelope carries no loss section; the restored stream must come up
  // with the default Gaussian/non-robust configuration — observable as
  // OutlierActivity refusing with kFailedPrecondition.
  const std::string bytes = MakeCheckpoint(
      LossEngineOptions(SnsVariant::kVecPlus, LossKind::kGaussian, false));
  ASSERT_EQ(CheckpointVersionByte(bytes), 1);

  SnsService restored = MakeService(0);
  serial::StringSource source(bytes);
  ASSERT_TRUE(restored.Restore(source).ok());
  const auto activity = restored.OutlierActivity("s", 0, 3);
  ASSERT_FALSE(activity.ok());
  EXPECT_EQ(activity.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LossCheckpointVersionTest, UnknownFutureVersionIsFailedPrecondition) {
  // Corrupt a valid v2 envelope up to the first unknown generation: the
  // reader must refuse with a typed error, never misinterpret the payload.
  std::string bytes = MakeCheckpoint(
      LossEngineOptions(SnsVariant::kVec, LossKind::kPoisson, true));
  ASSERT_EQ(CheckpointVersionByte(bytes), 2);
  bytes[4] = static_cast<char>(3);

  SnsService restored = MakeService(0);
  serial::StringSource source(bytes);
  const auto result = restored.Restore(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LossCheckpointVersionTest, VersionTwoRoundTripsLossAndRobustConfig) {
  const DataStream stream = SmallStream(90, 77);
  const ProtocolInput input = MakeProtocol(
      stream, LossEngineOptions(SnsVariant::kVecPlus, LossKind::kPoisson,
                                /*robust=*/true));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  for (const auto& batch : input.batches) {
    ASSERT_TRUE(service.Ingest("s", batch).ok());
  }
  // Plant a spike so the outlier store is non-empty at checkpoint time.
  Tuple spike;
  spike.index = ModeIndex({2, 3});
  spike.value = 400.0;
  spike.time = stream.end_time();
  ASSERT_TRUE(service.Ingest("s", spike).ok());
  const auto stats = service.Stats("s");
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats.value().outlier_cells, 0);

  const std::string bytes = CheckpointBytes(service, "s");
  ASSERT_EQ(CheckpointVersionByte(bytes), 2);

  SnsService restored = MakeService(0);
  serial::StringSource source(bytes);
  ASSERT_TRUE(restored.Restore(source).ok());

  // The robust configuration survived: OutlierActivity answers, and the
  // restored stats mirror the original outlier state exactly.
  const auto activity = restored.OutlierActivity("s", 0, 3);
  ASSERT_TRUE(activity.ok());
  EXPECT_FALSE(activity.value().empty());
  const auto restored_stats = restored.Stats("s");
  ASSERT_TRUE(restored_stats.ok());
  EXPECT_EQ(restored_stats.value().outlier_cells,
            stats.value().outlier_cells);
  EXPECT_DOUBLE_EQ(restored_stats.value().outlier_magnitude,
                   stats.value().outlier_magnitude);
  EXPECT_EQ(restored_stats.value().outlier_captures,
            stats.value().outlier_captures);
  EXPECT_EQ(restored_stats.value().outlier_evictions,
            stats.value().outlier_evictions);

  // And reserializing the restored stream reproduces the bytes.
  EXPECT_EQ(CheckpointBytes(restored, "s"), bytes);
}

// --- The central differential, generalized --------------------------------

TEST(LossRecoveryDifferentialTest, PoissonRobustAllVariantsAndShards) {
  const DataStream stream = SmallStream(110, 51);
  const SnsVariant variants[] = {SnsVariant::kMat, SnsVariant::kVec,
                                 SnsVariant::kRnd, SnsVariant::kVecPlus,
                                 SnsVariant::kRndPlus};
  for (SnsVariant variant : variants) {
    const ProtocolInput input = MakeProtocol(
        stream, LossEngineOptions(variant, LossKind::kPoisson,
                                  /*robust=*/true));
    const std::string reference = RunUninterrupted(input, /*shards=*/0);
    for (int shards : {0, 1, 4}) {
      const std::string recovered = RunRecovered(
          input, shards, Interrupt::kMidBatches, FreshDir("poisson"));
      EXPECT_EQ(recovered, reference)
          << VariantName(variant) << " shards=" << shards;
    }
  }
}

TEST(LossRecoveryDifferentialTest, AllInterruptPointsForSampledVariant) {
  // The sampled coordinate-descent variant exercises the RNG checkpoint path
  // together with the loss extension; cover every interrupt position.
  const DataStream stream = SmallStream(110, 53);
  const ProtocolInput input = MakeProtocol(
      stream, LossEngineOptions(SnsVariant::kRndPlus, LossKind::kPoisson,
                                /*robust=*/true));
  const std::string reference = RunUninterrupted(input, 0);
  for (Interrupt interrupt : {Interrupt::kBeforeWarmup, Interrupt::kMidBatches,
                              Interrupt::kAfterBatches}) {
    const std::string recovered =
        RunRecovered(input, /*shards=*/1, interrupt, FreshDir("interrupts"));
    EXPECT_EQ(recovered, reference)
        << "interrupt=" << static_cast<int>(interrupt);
  }
}

TEST(LossRecoveryDifferentialTest, BernoulliWithoutRobustRecoversBitwise) {
  // Non-Gaussian alone (no outlier store) still takes the v2 envelope for
  // the fitness loss sums; recovery must reproduce them exactly.
  const DataStream stream = SmallStream(100, 59);
  const ProtocolInput input = MakeProtocol(
      stream, LossEngineOptions(SnsVariant::kVec, LossKind::kBernoulliLogit,
                                /*robust=*/false));
  const std::string reference = RunUninterrupted(input, 0);
  for (Interrupt interrupt :
       {Interrupt::kBeforeWarmup, Interrupt::kMidBatches}) {
    const std::string recovered =
        RunRecovered(input, /*shards=*/1, interrupt, FreshDir("bernoulli"));
    EXPECT_EQ(recovered, reference)
        << "interrupt=" << static_cast<int>(interrupt);
  }
}

TEST(LossRecoveryDifferentialTest, RobustGaussianRecoversBitwise) {
  // Robust mode on the default loss: the outlier store and its decay clock
  // are the only extended state.
  const DataStream stream = SmallStream(100, 61);
  const ProtocolInput input = MakeProtocol(
      stream, LossEngineOptions(SnsVariant::kVecPlus, LossKind::kGaussian,
                                /*robust=*/true));
  const std::string reference = RunUninterrupted(input, 0);
  const std::string recovered = RunRecovered(
      input, /*shards=*/4, Interrupt::kMidBatches, FreshDir("robust_gauss"));
  EXPECT_EQ(recovered, reference);
}

}  // namespace
}  // namespace sns
