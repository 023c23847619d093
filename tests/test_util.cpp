#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "util/fmt.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/table.h"

namespace hsyn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  EXPECT_NE(r.next(), 0u);
}

TEST(Rng, BelowStaysInBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianRoughlyCentered) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 4000; ++i) sum += r.gaussian();
  EXPECT_NEAR(sum / 4000, 0.0, 0.1);
}

TEST(Fmt, StrfFormats) {
  EXPECT_EQ(strf("a%db%s", 7, "x"), "a7bx");
  EXPECT_EQ(strf("%.2f", 1.239), "1.24");
  EXPECT_EQ(strf("empty"), "empty");
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Fmt, CheckThrowsWithMessage) {
  // Literal, std::string and direct failure paths all throw
  // std::logic_error with the same "hsyn check failed: " prefix.
  auto what = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "<no throw>";
  };
  EXPECT_EQ(what([] { check(true, "fine"); }), "<no throw>");
  EXPECT_EQ(what([] { check(false, "boom"); }), "hsyn check failed: boom");
  EXPECT_EQ(what([] { check(false, "a literal longer than fifteen chars"); }),
            "hsyn check failed: a literal longer than fifteen chars");
  const std::string msg = "built " + std::to_string(42);
  EXPECT_EQ(what([&] { check(false, msg); }), "hsyn check failed: built 42");
  EXPECT_EQ(what([&] { check_failed("unknown behavior " + std::string("x")); }),
            "hsyn check failed: unknown behavior x");
}

TEST(Table, RendersAlignedRows) {
  TextTable t;
  t.row({"name", "value"});
  t.rule();
  t.row({"alpha", "1.5"});
  t.row({"b", "20"});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("20"), std::string::npos);
  // Numeric cells right-aligned: "1.5" and "20" end at the same column.
  const auto l1 = s.find("alpha");
  EXPECT_NE(l1, std::string::npos);
}

TEST(Table, HandlesRaggedRows) {
  TextTable t;
  t.row({"a"});
  t.row({"b", "c", "d"});
  EXPECT_NO_THROW(t.render());
}

TEST(Log, LevelFiltering) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log_debug("not shown");
  set_log_level(old);
}

}  // namespace
}  // namespace hsyn
