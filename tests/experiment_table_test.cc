// The experiment table (src/scalecheck/experiment_table.h) against
// EXPERIMENTS.md: every row has exactly one marked block there, every marked
// block names a row, and every row small enough for the tier-1 suite
// regenerates its block byte for byte. scripts/regen_experiments.sh rewrites
// the blocks of the larger rows.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/scalecheck/experiment_table.h"

namespace scalecheck {
namespace {

// Rows whose largest simulated deployment is at most this many nodes run in
// the tier-1 suite; the larger ones take minutes.
constexpr int kMaxTier1Deployment = 128;

// Each marked block's name and the lines between its `<!-- experiment:NAME -->`
// line and the next `<!-- /experiment -->` line, in document order.
std::vector<std::pair<std::string, std::string>> MarkedBlocks() {
  std::ifstream in(SCALECHECK_SOURCE_DIR "/EXPERIMENTS.md");
  EXPECT_TRUE(in.good());
  const std::string open = "<!-- experiment:";
  const std::string open_end = " -->";
  std::vector<std::pair<std::string, std::string>> blocks;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line == "<!-- /experiment -->") {
      EXPECT_TRUE(inside) << "a closing marker without an opening one";
      inside = false;
    } else if (inside) {
      blocks.back().second += line + "\n";
    } else if (line.starts_with(open) && line.ends_with(open_end)) {
      blocks.emplace_back(line.substr(open.size(), line.size() - open.size() - open_end.size()),
                          "");
      inside = true;
    }
  }
  EXPECT_FALSE(inside) << "unclosed marker " << blocks.back().first;
  return blocks;
}

TEST(ExperimentTable, EveryRowHasExactlyOneMarkedBlock) {
  std::map<std::string, int> markers;
  for (const auto& [name, block] : MarkedBlocks()) {
    ++markers[name];
  }
  for (const ExperimentRow& row : ExperimentTable()) {
    EXPECT_EQ(markers[row.name], 1) << row.name;
  }
  for (const auto& [name, count] : markers) {
    bool known = false;
    for (const ExperimentRow& row : ExperimentTable()) {
      known = known || name == row.name;
    }
    EXPECT_TRUE(known) << "EXPERIMENTS.md marks '" << name << "', which no row declares";
  }
  EXPECT_EQ(markers.size(), ExperimentTable().size());
}

// The names of the rows the tier-1 suite regenerates. The parameter is the
// name, not the row, so ctest's test names stay the same from build to build.
std::vector<std::string> Tier1Rows() {
  std::vector<std::string> names;
  for (const ExperimentRow& row : ExperimentTable()) {
    if (row.LargestDeployment() <= kMaxTier1Deployment) {
      names.push_back(row.name);
    }
  }
  return names;
}

class SmallRow : public testing::TestWithParam<std::string> {};

TEST_P(SmallRow, RegeneratesItsMarkedBlockByteForByte) {
  const ExperimentRow* row = nullptr;
  for (const ExperimentRow& candidate : ExperimentTable()) {
    row = candidate.name == GetParam() ? &candidate : row;
  }
  ASSERT_NE(row, nullptr);
  std::string log;
  Result<std::string> table = RunExperiment(*row, /*jobs=*/1, &log);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  int found = 0;
  for (const auto& [name, block] : MarkedBlocks()) {
    if (name == GetParam()) {
      ++found;
      EXPECT_EQ(block, table.value())
          << "EXPERIMENTS.md is stale; run scripts/regen_experiments.sh " << GetParam();
    }
  }
  EXPECT_EQ(found, 1) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rows, SmallRow, testing::ValuesIn(Tier1Rows()),
                         [](const testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             c = c == '-' ? '_' : c;
                           }
                           return name;
                         });

}  // namespace
}  // namespace scalecheck
