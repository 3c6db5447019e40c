// Differential property tests: the from-scratch DFA engine must agree with
// std::regex (ECMAScript grammar, which is a superset of our subset) on
// randomly generated patterns and inputs.

// GCC 12 raises -Wmaybe-uninitialized inside libstdc++'s std::regex (the
// std::function move in _State) when built with -fsanitize=address,undefined.
// The oracle here is the standard library, not project code; the pragma
// must precede every include that pulls in <functional>.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "common/rng.h"
#include "regex/regex.h"

namespace farview {
namespace {

/// Generates a random pattern from the supported subset. Depth-bounded so
/// patterns stay small and std::regex-compatible.
std::string RandomPattern(Rng* rng, int depth) {
  const char* kAtoms = "abcxyz";
  auto atom = [&]() -> std::string {
    switch (rng->NextBelow(4)) {
      case 0:
        return std::string(1, kAtoms[rng->NextBelow(6)]);
      case 1:
        return ".";
      case 2: {
        // small class
        std::string cls = "[";
        const uint64_t n = 1 + rng->NextBelow(3);
        for (uint64_t i = 0; i < n; ++i) cls += kAtoms[rng->NextBelow(6)];
        cls += "]";
        return cls;
      }
      default:
        return std::string(1, kAtoms[rng->NextBelow(6)]);
    }
  };
  std::string out;
  const uint64_t parts = 1 + rng->NextBelow(4);
  for (uint64_t i = 0; i < parts; ++i) {
    std::string piece;
    bool quantifiable = true;
    if (depth > 0 && rng->NextBernoulli(0.3)) {
      piece = "(" + RandomPattern(rng, depth - 1) + ")";
      // Never quantify a group: nested quantifiers like (a*)* make
      // backtracking engines (std::regex) take exponential time — our DFA
      // handles them fine, but the oracle would hang.
      quantifiable = false;
    } else {
      piece = atom();
    }
    if (quantifiable) {
      switch (rng->NextBelow(5)) {
        case 0:
          piece += "*";
          break;
        case 1:
          piece += "+";
          break;
        case 2:
          piece += "?";
          break;
        default:
          break;
      }
    }
    out += piece;
    if (depth > 0 && i + 1 < parts && rng->NextBernoulli(0.2)) {
      out += "|";
    }
  }
  if (!out.empty() && (out.back() == '|')) out.pop_back();
  return out.empty() ? "a" : out;
}

/// A random text of up to `max_len` bytes over the pattern alphabet. With
/// `foreign_bytes`, a per-text share of the bytes comes from outside it —
/// other ASCII, NUL and bytes >= 0x80. Line terminators stay out: ECMAScript
/// '.' does not match them, ours does.
std::string RandomText(Rng* rng, uint64_t max_len, bool foreign_bytes = false) {
  const char* kChars = "abcxyz";
  const char kOther[] = {'q', '0', ' ', '\0', '\x7f', '\x80', '\xc3', '\xff'};
  std::string s;
  const uint64_t len = rng->NextBelow(max_len + 1);
  const double other = foreign_bytes ? rng->NextDouble() : 0.0;
  for (uint64_t i = 0; i < len; ++i) {
    s += other > 0.0 && rng->NextBernoulli(other)
             ? kOther[rng->NextBelow(sizeof(kOther))]
             : kChars[rng->NextBelow(6)];
  }
  return s;
}

/// A pattern with a chosen number of bytes leaving the search start state:
/// shape 0 matches the empty string (the start state accepts), shape 1
/// starts with one literal (the memchr skip applies), shape 2 starts with a
/// class or alternation of several bytes (the plain table loop).
std::string ShapedPattern(Rng* rng, int shape) {
  const char* kAtoms = "abcxyz";
  const char lit = kAtoms[rng->NextBelow(6)];
  std::string out;
  switch (shape) {
    case 0:  // (inner)?
      out += '(';
      out += RandomPattern(rng, 1);
      out += ")?";
      break;
    case 1:  // lit(inner)
      out += lit;
      out += '(';
      out += RandomPattern(rng, 1);
      out += ')';
      break;
    default:
      if (rng->NextBernoulli(0.5)) {  // [lit?z]inner
        out += '[';
        out += lit;
        out += kAtoms[rng->NextBelow(6)];
        out += "z]";
        out += RandomPattern(rng, 1);
      } else {  // (lit|inner)
        out += '(';
        out += lit;
        out += '|';
        out += RandomPattern(rng, 1);
        out += ')';
      }
      break;
  }
  return out;
}

/// Checks Search and FullMatch against std::regex on one text.
void ExpectAgrees(const Regex& ours, const std::regex& theirs,
                  const std::string& pattern, const std::string& text) {
  EXPECT_EQ(ours.Search(text), std::regex_search(text, theirs))
      << "Search mismatch: pattern='" << pattern << "' text='" << text
      << "' (" << text.size() << " bytes)";
  EXPECT_EQ(ours.FullMatch(text), std::regex_match(text, theirs))
      << "FullMatch mismatch: pattern='" << pattern << "' text='" << text
      << "' (" << text.size() << " bytes)";
}

class RegexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexDifferentialTest, AgreesWithStdRegex) {
  Rng rng(GetParam());
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string pattern = RandomPattern(&rng, 2);
    Result<Regex> ours = Regex::Compile(pattern);
    ASSERT_TRUE(ours.ok()) << pattern << ": " << ours.status().ToString();
    std::regex theirs;
    try {
      theirs = std::regex(pattern, std::regex::ECMAScript);
    } catch (const std::regex_error&) {
      continue;  // std::regex rejects (shouldn't happen for this subset)
    }
    for (int t = 0; t < 25; ++t) {
      ExpectAgrees(ours.value(), theirs, pattern, RandomText(&rng, 12));
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000);
}

// Long texts with foreign bytes, 64-byte NUL-padded fields (what
// RegexSelectOp hands to Search) and texts ending in the pattern's first
// byte, over patterns whose search start state has zero, one or several
// leaving bytes — so the start-state skip runs past many bytes, stops at
// the last byte, and is compared against the plain table loop's verdicts.
TEST_P(RegexDifferentialTest, AgreesOnWideTexts) {
  Rng rng(GetParam() * 7919);
  int compared = 0;
  for (int trial = 0; trial < 45; ++trial) {
    const std::string pattern = ShapedPattern(&rng, trial % 3);
    Result<Regex> ours = Regex::Compile(pattern);
    ASSERT_TRUE(ours.ok()) << pattern << ": " << ours.status().ToString();
    std::regex theirs;
    try {
      theirs = std::regex(pattern, std::regex::ECMAScript);
    } catch (const std::regex_error&) {
      continue;
    }
    for (int t = 0; t < 20; ++t) {
      std::string text = RandomText(&rng, 128, /*foreign_bytes=*/true);
      switch (t % 4) {
        case 1:  // fixed-width CHAR(64) field: string then NUL padding
          text.resize(64, '\0');
          break;
        case 2:  // the pattern's first byte as the text's last byte
          text += pattern[0] == '(' || pattern[0] == '[' ? pattern[1]
                                                         : pattern[0];
          break;
        default:
          break;
      }
      ExpectAgrees(ours.value(), theirs, pattern, text);
      ++compared;
    }
  }
  EXPECT_GT(compared, 800);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace farview
