#include "check/differential.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::check {
namespace {

CheckOptions small_options() {
  CheckOptions options;
  options.seeds = 30;
  options.jobs = 2;
  return options;
}

TEST(DifferentialTest, ThirtySeedsAgreeAtDefaultTolerance) {
  const DifferentialRunner runner(small_options());
  const CheckReport report = runner.run();
  EXPECT_TRUE(report.all_passed()) << report.table();
  ASSERT_EQ(report.results.size(), 30u);
  const ScenarioGen gen;
  for (const CaseResult& result : report.results) {
    EXPECT_TRUE(result.passed()) << "index " << result.scenario.index;
    EXPECT_LE(result.relative_error, small_options().tolerance);
    const GenScenario scenario = gen.generate(result.scenario.index);
    EXPECT_EQ(result.model_wall, scenario.expected_wall);
    EXPECT_EQ(result.sim_peak_parallel, scenario.width);
    EXPECT_EQ(result.predicted_bound, result.expected_bound);
  }
}

TEST(DifferentialTest, TableIsByteIdenticalAcrossJobCounts) {
  CheckOptions options = small_options();
  options.jobs = 1;
  const std::string serial = DifferentialRunner(options).run().table();
  options.jobs = 4;
  const std::string parallel = DifferentialRunner(options).run().table();
  EXPECT_EQ(serial, parallel);
}

TEST(DifferentialTest, ZeroToleranceFlagsEveryEpsilon) {
  CheckOptions options = small_options();
  options.tolerance = 0.0;
  options.seeds = 10;
  const CheckReport report = DifferentialRunner(options).run();
  // The construction is exact only up to scheduling epsilons, so a zero
  // tolerance must flag divergences — the injected-failure path the CLI
  // tests lean on.
  EXPECT_FALSE(report.all_passed());
  EXPECT_NE(report.table().find("DIVERGENCE"), std::string::npos);
}

TEST(DifferentialTest, ReproRoundTripReplaysTheSameScenario) {
  CheckOptions strict = small_options();
  strict.tolerance = 0.0;
  strict.seeds = 10;
  const DifferentialRunner strict_runner(strict);
  const CheckReport report = strict_runner.run();
  ASSERT_FALSE(report.all_passed());
  const CaseResult* divergent = nullptr;
  for (const CaseResult& result : report.results)
    if (!result.passed()) { divergent = &result; break; }
  ASSERT_NE(divergent, nullptr);

  const util::Json repro = strict_runner.repro_json(*divergent);
  EXPECT_EQ(repro_tolerance(repro), 0.0);
  // The result names its scenario; the writer regenerates all of it.
  const ScenarioId& id = divergent->scenario;
  EXPECT_EQ(
      repro.at("scenario").dump(),
      ScenarioGen(id.base_seed, id.mode).generate(id.index).to_json().dump());

  // At the default tolerance the same scenario passes: the divergence was
  // the injected tolerance, not the model.
  const DifferentialRunner relaxed((CheckOptions()));
  const CaseResult replayed = relaxed.replay(repro);
  EXPECT_TRUE(replayed.passed()) << replayed.failures.front();
  EXPECT_EQ(replayed.scenario.index, divergent->scenario.index);
  EXPECT_DOUBLE_EQ(replayed.simulated_tps, divergent->simulated_tps);
}

TEST(DifferentialTest, ReplayDetectsGeneratorDrift) {
  const DifferentialRunner runner((CheckOptions()));
  const CaseResult result = runner.run_case(ScenarioGen().generate(0));
  util::Json repro = runner.repro_json(result);

  // Tamper with the recorded scenario the way a generator change would:
  // the regenerated scenario no longer matches the recording.
  util::JsonObject tampered_scenario;
  for (const auto& [key, value] : repro.at("scenario").as_object().members())
    tampered_scenario.set(key, key == "width" ? util::Json(100000) : value);
  util::JsonObject tampered;
  for (const auto& [key, value] : repro.as_object().members())
    tampered.set(key, key == "scenario"
                          ? util::Json(std::move(tampered_scenario))
                          : value);

  const CaseResult replayed = runner.replay(util::Json(std::move(tampered)));
  bool flagged = false;
  for (const std::string& failure : replayed.failures)
    flagged = flagged || failure.find("generator drift") != std::string::npos;
  EXPECT_TRUE(flagged);
}

TEST(DifferentialTest, WriteReproFilesEmitsOnePerDivergence) {
  CheckOptions strict;
  strict.seeds = 6;
  strict.jobs = 2;
  strict.tolerance = 0.0;
  const DifferentialRunner runner(strict);
  const CheckReport report = runner.run();
  ASSERT_FALSE(report.all_passed());

  const std::string directory = ::testing::TempDir() + "wfr_check_repro";
  const std::vector<std::string> paths =
      write_repro_files(runner, report, directory);
  EXPECT_EQ(paths.size(), report.divergences);
  for (const std::string& path : paths) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const util::Json repro = util::Json::parse(buffer.str());
    EXPECT_TRUE(repro.as_object().contains("wfr_check_repro"));
  }
}

TEST(DifferentialTest, ReplayRejectsForeignDocuments) {
  const DifferentialRunner runner((CheckOptions()));
  EXPECT_THROW(runner.replay(util::Json::parse("{\"not\": \"a repro\"}")),
               util::Error);
}

// --- Irregular mode ----------------------------------------------------------

CheckOptions irregular_options(std::size_t seeds = 60) {
  CheckOptions options;
  options.mode = GenMode::kIrregular;
  options.seeds = seeds;
  options.jobs = 2;
  return options;
}

TEST(IrregularDifferentialTest, RooflineIsAnUpperBoundAcrossSeeds) {
  const DifferentialRunner runner(irregular_options());
  const CheckReport report = runner.run();
  EXPECT_TRUE(report.all_passed()) << report.table();
  ASSERT_EQ(report.results.size(), 60u);
  const ScenarioGen gen(kDefaultBaseSeed, GenMode::kIrregular);
  for (const CaseResult& result : report.results) {
    EXPECT_TRUE(result.passed()) << "index " << result.scenario.index;
    // The upper-bound assertion itself, restated independently.
    EXPECT_LE(result.simulated_tps,
              result.predicted_tps * (1.0 + irregular_options().tolerance));
    EXPECT_GE(result.gap, 0.0);
    EXPECT_LE(result.gap, topology_gap_ceiling(result.scenario.topology));
    const int expected_wall = gen.generate(result.scenario.index).expected_wall;
    EXPECT_EQ(result.model_wall, expected_wall);
    EXPECT_GE(result.sim_peak_parallel, 1);
    EXPECT_LE(result.sim_peak_parallel, expected_wall);
  }
}

TEST(IrregularDifferentialTest, TableReportsGapDistributionPerClass) {
  const DifferentialRunner runner(irregular_options());
  const std::string table = runner.run().table();
  EXPECT_NE(table.find("generator irregular"), std::string::npos) << table;
  EXPECT_NE(table.find("gap-max"), std::string::npos);
  EXPECT_NE(table.find("ceiling"), std::string::npos);
  EXPECT_NE(table.find("fan-out"), std::string::npos);
  EXPECT_NE(table.find("straggler"), std::string::npos);
  EXPECT_NE(table.find("wfr check: 60 passed, 0 diverged"),
            std::string::npos);
}

TEST(IrregularDifferentialTest, TableIsByteIdenticalAcrossJobCounts) {
  CheckOptions options = irregular_options(40);
  options.jobs = 1;
  const std::string serial = DifferentialRunner(options).run().table();
  options.jobs = 8;
  const std::string parallel = DifferentialRunner(options).run().table();
  EXPECT_EQ(serial, parallel);
}

TEST(IrregularDifferentialTest, ReproRoundTripCarriesTheModeAndGap) {
  const DifferentialRunner runner(irregular_options(1));
  const CaseResult result =
      runner.run_case(ScenarioGen(kDefaultBaseSeed, GenMode::kIrregular)
                          .generate(0));
  const util::Json repro = runner.repro_json(result);
  EXPECT_EQ(repro.at("gen").as_string(), "irregular");
  EXPECT_DOUBLE_EQ(repro.at("gap").as_number(), result.gap);
  const ScenarioId& id = result.scenario;
  EXPECT_EQ(
      repro.at("scenario").dump(),
      ScenarioGen(id.base_seed, id.mode).generate(id.index).to_json().dump());

  const CaseResult replayed = runner.replay(repro);
  EXPECT_TRUE(replayed.passed()) << (replayed.failures.empty()
                                         ? std::string()
                                         : replayed.failures.front());
  EXPECT_EQ(replayed.scenario.mode, GenMode::kIrregular);
  EXPECT_DOUBLE_EQ(replayed.simulated_tps, result.simulated_tps);
}

TEST(IrregularDifferentialTest, ReplayDetectsGenVersionDrift) {
  const DifferentialRunner runner(irregular_options(1));
  const CaseResult result =
      runner.run_case(ScenarioGen(kDefaultBaseSeed, GenMode::kIrregular)
                          .generate(3));
  const util::Json repro = runner.repro_json(result);

  // A repro recorded by an older generator version must be flagged as
  // stale, not silently replayed against the new draw sequence.
  util::JsonObject tampered_scenario;
  for (const auto& [key, value] : repro.at("scenario").as_object().members())
    tampered_scenario.set(
        key, key == "gen_version"
                 ? util::Json(ScenarioGen::kGenVersion - 1)
                 : value);
  util::JsonObject tampered;
  for (const auto& [key, value] : repro.as_object().members())
    tampered.set(key, key == "scenario"
                          ? util::Json(std::move(tampered_scenario))
                          : value);

  const CaseResult replayed = runner.replay(util::Json(std::move(tampered)));
  bool flagged = false;
  for (const std::string& failure : replayed.failures)
    flagged = flagged ||
              failure.find("generator version drift") != std::string::npos;
  EXPECT_TRUE(flagged);
}

}  // namespace
}  // namespace wfr::check
