// Satellite: the CLI mode-flag normalization (src/scalecheck/cli_modes.h).
// Covers the canonical spellings, rejection of the retired aliases,
// --sim-modes parsing, and the errors.

#include <gtest/gtest.h>

#include <string>

#include "src/scalecheck/cli_modes.h"

namespace scalecheck {
namespace {

TEST(CliModes, SuiteDefaultsToFullGrid) {
  Result<ModeSelection> sel = ParseCliMode("suite", "");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().kind, CliModeKind::kSuite);
  EXPECT_TRUE(sel.value().IsFullGrid());
  EXPECT_EQ(sel.value().sim_modes.size(), 4u);
}

TEST(CliModes, SuiteWithSubset) {
  Result<ModeSelection> sel = ParseCliMode("suite", "colo,replay");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel.value().sim_modes.size(), 2u);
  EXPECT_EQ(sel.value().sim_modes[0], RunMode::kColocated);
  EXPECT_EQ(sel.value().sim_modes[1], RunMode::kPilReplay);
  EXPECT_FALSE(sel.value().IsFullGrid());
}

TEST(CliModes, SuiteWithExplicitGridIsFullGridInAnyOrder) {
  Result<ModeSelection> sel = ParseCliMode("suite", "replay,colo,real,memoize");
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel.value().IsFullGrid());
}

TEST(CliModes, SimModeSpellings) {
  EXPECT_EQ(SimModeFromFlag("real").value(), RunMode::kRealScale);
  EXPECT_EQ(SimModeFromFlag("real-scale").value(), RunMode::kRealScale);
  EXPECT_EQ(SimModeFromFlag("colo").value(), RunMode::kColocated);
  EXPECT_EQ(SimModeFromFlag("memoize").value(), RunMode::kMemoize);
  EXPECT_EQ(SimModeFromFlag("replay").value(), RunMode::kPilReplay);
  EXPECT_FALSE(SimModeFromFlag("sockets").ok());
}

TEST(CliModes, CanonicalNonSuiteModes) {
  EXPECT_EQ(ParseCliMode("search", "").value().kind, CliModeKind::kSearch);
  EXPECT_EQ(ParseCliMode("repro", "").value().kind, CliModeKind::kRepro);
  // Bare --mode=real now means REAL SOCKETS (the simulated real-scale
  // deployment moved to --sim-modes=real).
  Result<ModeSelection> real = ParseCliMode("real", "");
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(real.value().kind, CliModeKind::kReal);
  EXPECT_TRUE(real.value().sim_modes.empty());
}

TEST(CliModes, RetiredAliasesRejected) {
  // The pre-suite spellings were accepted with a warning for one release;
  // now every one of them is an unknown mode (the CLI exits 2).
  for (const char* spelling :
       {"full", "colo", "memoize", "replay", "real-scale", "sim-real"}) {
    Result<ModeSelection> sel = ParseCliMode(spelling, "");
    ASSERT_FALSE(sel.ok()) << spelling;
    EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument) << spelling;
    EXPECT_NE(sel.status().message().find("unknown mode"), std::string::npos)
        << spelling;
  }
}

TEST(CliModes, SimModesOnlyLegalWithSuite) {
  EXPECT_FALSE(ParseCliMode("search", "colo").ok());
  EXPECT_FALSE(ParseCliMode("real", "colo").ok());
  EXPECT_FALSE(ParseCliMode("repro", "colo").ok());
}

TEST(CliModes, BadInputRejected) {
  EXPECT_FALSE(ParseCliMode("bogus", "").ok());
  EXPECT_FALSE(ParseCliMode("suite", "colo,bogus").ok());
  EXPECT_FALSE(ParseCliMode("suite", "colo,colo").ok());
  EXPECT_FALSE(ParseCliMode("suite", "colo,").ok());  // empty trailing entry
  Result<ModeSelection> bad = ParseCliMode("bogus", "");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(CliModes, KindNames) {
  EXPECT_STREQ(CliModeKindName(CliModeKind::kSuite), "suite");
  EXPECT_STREQ(CliModeKindName(CliModeKind::kSearch), "search");
  EXPECT_STREQ(CliModeKindName(CliModeKind::kRepro), "repro");
  EXPECT_STREQ(CliModeKindName(CliModeKind::kReal), "real");
}

}  // namespace
}  // namespace scalecheck
