#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace scal::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("SCAL_TEST_VAR"); }
  void TearDown() override { unsetenv("SCAL_TEST_VAR"); }
};

TEST_F(EnvTest, FallbackWhenUnset) {
  EXPECT_EQ(env_or("SCAL_TEST_VAR", "dflt"), "dflt");
  EXPECT_EQ(env_int("SCAL_TEST_VAR", 7), 7);
  EXPECT_FALSE(env_flag("SCAL_TEST_VAR"));
}

TEST_F(EnvTest, ReadsValue) {
  setenv("SCAL_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_or("SCAL_TEST_VAR", "dflt"), "hello");
}

TEST_F(EnvTest, FlagSemantics) {
  for (const char* falsy : {"0", "false", "off", ""}) {
    setenv("SCAL_TEST_VAR", falsy, 1);
    EXPECT_FALSE(env_flag("SCAL_TEST_VAR")) << falsy;
  }
  for (const char* truthy : {"1", "yes", "on", "true"}) {
    setenv("SCAL_TEST_VAR", truthy, 1);
    EXPECT_TRUE(env_flag("SCAL_TEST_VAR")) << truthy;
  }
}

TEST_F(EnvTest, IntParsing) {
  setenv("SCAL_TEST_VAR", "42", 1);
  EXPECT_EQ(env_int("SCAL_TEST_VAR", 0), 42);
  setenv("SCAL_TEST_VAR", "-5", 1);
  EXPECT_EQ(env_int("SCAL_TEST_VAR", 0), -5);
  // Text that is not an integer is an error, not the fallback.
  setenv("SCAL_TEST_VAR", "not-a-number", 1);
  EXPECT_THROW(env_int("SCAL_TEST_VAR", 9), std::invalid_argument);
  setenv("SCAL_TEST_VAR", "12abc", 1);
  EXPECT_THROW(env_int("SCAL_TEST_VAR", 9), std::invalid_argument);
  setenv("SCAL_TEST_VAR", "99999999999999999999", 1);
  EXPECT_THROW(env_int("SCAL_TEST_VAR", 9), std::invalid_argument);
  setenv("SCAL_TEST_VAR", "", 1);
  EXPECT_EQ(env_int("SCAL_TEST_VAR", 9), 9);
}

TEST_F(EnvTest, CountRejectsNegativeBudgets) {
  EXPECT_EQ(env_count("SCAL_TEST_VAR", 7), 7u);
  setenv("SCAL_TEST_VAR", "4096", 1);
  EXPECT_EQ(env_count("SCAL_TEST_VAR", 0), 4096u);
  setenv("SCAL_TEST_VAR", "0", 1);
  EXPECT_EQ(env_count("SCAL_TEST_VAR", 7), 0u);
  setenv("SCAL_TEST_VAR", "-1", 1);
  EXPECT_THROW(env_count("SCAL_TEST_VAR", 0), std::invalid_argument);
  setenv("SCAL_TEST_VAR", "1e6", 1);
  EXPECT_THROW(env_count("SCAL_TEST_VAR", 0), std::invalid_argument);
}

TEST_F(EnvTest, ErrorNamesTheVariableAndItsText) {
  setenv("SCAL_TEST_VAR", "12abc", 1);
  try {
    env_int("SCAL_TEST_VAR", 0);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SCAL_TEST_VAR"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace scal::util
