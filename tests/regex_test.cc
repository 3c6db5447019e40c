// Tests for the regex engine (parser → NFA → DFA).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "regex/regex.h"

namespace farview {
namespace {

Regex MustCompile(const std::string& pattern) {
  Result<Regex> r = Regex::Compile(pattern);
  EXPECT_TRUE(r.ok()) << pattern << ": " << r.status().ToString();
  return std::move(r).value();
}

TEST(RegexTest, LiteralFullMatch) {
  const Regex re = MustCompile("abc");
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_FALSE(re.FullMatch("ab"));
  EXPECT_FALSE(re.FullMatch("abcd"));
  EXPECT_FALSE(re.FullMatch(""));
}

TEST(RegexTest, LiteralSearchIsUnanchored) {
  const Regex re = MustCompile("abc");
  EXPECT_TRUE(re.Search("abc"));
  EXPECT_TRUE(re.Search("xxabcxx"));
  EXPECT_TRUE(re.Search("ababc"));
  EXPECT_FALSE(re.Search("abab"));
  EXPECT_FALSE(re.Search(""));
}

TEST(RegexTest, Alternation) {
  const Regex re = MustCompile("cat|dog|bird");
  EXPECT_TRUE(re.FullMatch("cat"));
  EXPECT_TRUE(re.FullMatch("dog"));
  EXPECT_TRUE(re.FullMatch("bird"));
  EXPECT_FALSE(re.FullMatch("cow"));
  EXPECT_TRUE(re.Search("hotdog"));
}

TEST(RegexTest, StarQuantifier) {
  const Regex re = MustCompile("ab*c");
  EXPECT_TRUE(re.FullMatch("ac"));
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_TRUE(re.FullMatch("abbbbc"));
  EXPECT_FALSE(re.FullMatch("a"));
  EXPECT_FALSE(re.FullMatch("adc"));
}

TEST(RegexTest, PlusQuantifier) {
  const Regex re = MustCompile("ab+c");
  EXPECT_FALSE(re.FullMatch("ac"));
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_TRUE(re.FullMatch("abbc"));
}

TEST(RegexTest, OptionalQuantifier) {
  const Regex re = MustCompile("colou?r");
  EXPECT_TRUE(re.FullMatch("color"));
  EXPECT_TRUE(re.FullMatch("colour"));
  EXPECT_FALSE(re.FullMatch("colouur"));
}

TEST(RegexTest, DotMatchesAnyByte) {
  const Regex re = MustCompile("a.c");
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_TRUE(re.FullMatch("a c"));
  EXPECT_TRUE(re.FullMatch(std::string("a\0c", 3)));
  EXPECT_FALSE(re.FullMatch("ac"));
}

TEST(RegexTest, CharacterClasses) {
  const Regex re = MustCompile("[a-c]x[0-9]");
  EXPECT_TRUE(re.FullMatch("ax0"));
  EXPECT_TRUE(re.FullMatch("cx9"));
  EXPECT_FALSE(re.FullMatch("dx0"));
  EXPECT_FALSE(re.FullMatch("axa"));
}

TEST(RegexTest, NegatedClass) {
  const Regex re = MustCompile("[^0-9]+");
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_FALSE(re.FullMatch("a1c"));
}

TEST(RegexTest, ClassWithLeadingBracketAndDash) {
  EXPECT_TRUE(MustCompile("[]]").FullMatch("]"));
  EXPECT_TRUE(MustCompile("[a-]").FullMatch("-"));
  EXPECT_TRUE(MustCompile("[a-]").FullMatch("a"));
}

TEST(RegexTest, EscapeClasses) {
  EXPECT_TRUE(MustCompile("\\d+").FullMatch("12345"));
  EXPECT_FALSE(MustCompile("\\d+").FullMatch("12a45"));
  EXPECT_TRUE(MustCompile("\\w+").FullMatch("az_09"));
  EXPECT_TRUE(MustCompile("\\s").FullMatch(" "));
  EXPECT_TRUE(MustCompile("\\S+").FullMatch("abc"));
  EXPECT_TRUE(MustCompile("\\D").FullMatch("x"));
  EXPECT_FALSE(MustCompile("\\D").FullMatch("5"));
}

TEST(RegexTest, EscapedMetacharacters) {
  EXPECT_TRUE(MustCompile("a\\.b").FullMatch("a.b"));
  EXPECT_FALSE(MustCompile("a\\.b").FullMatch("axb"));
  EXPECT_TRUE(MustCompile("a\\*").FullMatch("a*"));
  EXPECT_TRUE(MustCompile("\\\\").FullMatch("\\"));
}

TEST(RegexTest, Grouping) {
  const Regex re = MustCompile("(ab)+");
  EXPECT_TRUE(re.FullMatch("ab"));
  EXPECT_TRUE(re.FullMatch("abab"));
  EXPECT_FALSE(re.FullMatch("aba"));
  EXPECT_TRUE(MustCompile("a(b|c)d").FullMatch("abd"));
  EXPECT_TRUE(MustCompile("a(b|c)d").FullMatch("acd"));
  EXPECT_FALSE(MustCompile("a(b|c)d").FullMatch("aed"));
}

TEST(RegexTest, NestedGroups) {
  const Regex re = MustCompile("((a|b)c)*d");
  EXPECT_TRUE(re.FullMatch("d"));
  EXPECT_TRUE(re.FullMatch("acd"));
  EXPECT_TRUE(re.FullMatch("acbcd"));
  EXPECT_FALSE(re.FullMatch("abd"));
}

TEST(RegexTest, EmptyPatternMatchesEverythingOnSearch) {
  const Regex re = MustCompile("");
  EXPECT_TRUE(re.FullMatch(""));
  EXPECT_FALSE(re.FullMatch("a"));
  EXPECT_TRUE(re.Search("anything"));
}

TEST(RegexTest, EmptyAlternative) {
  const Regex re = MustCompile("a(b|)c");
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_TRUE(re.FullMatch("ac"));
}

TEST(RegexTest, TpchQ16LikePattern) {
  // TPC-H Q16 uses  p_type NOT LIKE 'MEDIUM POLISHED%'; the positive form
  // maps to a prefix search.
  const Regex re = MustCompile("MEDIUM POLISHED");
  EXPECT_TRUE(re.Search("MEDIUM POLISHED COPPER"));
  EXPECT_FALSE(re.Search("SMALL BRUSHED COPPER"));
}

TEST(RegexTest, SyntaxErrors) {
  EXPECT_FALSE(Regex::Compile("(ab").ok());
  EXPECT_FALSE(Regex::Compile("ab)").ok());
  EXPECT_FALSE(Regex::Compile("[a-").ok());
  EXPECT_FALSE(Regex::Compile("*a").ok());
  EXPECT_FALSE(Regex::Compile("+").ok());
  EXPECT_FALSE(Regex::Compile("a\\").ok());
  EXPECT_FALSE(Regex::Compile("[z-a]").ok());
}

TEST(RegexTest, QuantifierStacking) {
  // (a*)* style stacking must terminate and behave.
  const Regex re = MustCompile("(a*)*b");
  EXPECT_TRUE(re.FullMatch("b"));
  EXPECT_TRUE(re.FullMatch("aaab"));
  EXPECT_FALSE(re.FullMatch("aaa"));
}

TEST(RegexTest, SearchEarlyExitSemantics) {
  // Search finds a match even when trailing input would "break" it.
  const Regex re = MustCompile("ab");
  EXPECT_TRUE(re.Search("abzzzzzzz"));
  EXPECT_TRUE(re.Search("zzzzab"));
}

TEST(RegexTest, DfaStateCountsExposed) {
  const Regex re = MustCompile("abc");
  EXPECT_GT(re.search_dfa_states(), 0);
  EXPECT_GT(re.full_dfa_states(), 0);
}

// The resource model sizes the regex operator from these counts, so the
// automaton layout must not change them. Values recorded from the
// per-state-vector implementation.
TEST(RegexTest, DfaStateCountsPinned) {
  struct Case {
    const char* pattern;
    int search_states;
    int full_states;
  };
  const Case cases[] = {
      {"abc", 4, 4},           {"xq", 3, 3},
      {"x(q|z)", 4, 4},        {"(x|y)(q|p)*q?", 5, 5},
      {"a*", 2, 2},            {"[a-c]+x.y", 6, 5},
      {"(ab|cd)*e", 6, 6},     {"\\d+\\.\\d\\d", 5, 5},
      {"hello|world|foo", 14, 14}, {"[^a]b", 3, 3},
      {"(a|b)*abb", 5, 5},     {".", 2, 2},
      {"a.*b.*c", 9, 7},
  };
  for (const Case& c : cases) {
    const Regex re = MustCompile(c.pattern);
    EXPECT_EQ(re.search_dfa_states(), c.search_states) << c.pattern;
    EXPECT_EQ(re.full_dfa_states(), c.full_states) << c.pattern;
  }
}

// The line-rate property: matcher work is one DFA transition per byte, so
// pattern complexity must not change the number of steps. We verify the
// functional surrogate: wildly different patterns all run over the same
// input without error and produce consistent results.
TEST(RegexTest, ComplexityIndependentFunctionality) {
  const std::vector<std::string> patterns = {
      "xq",
      "x(q|z)",
      "x[opq]",
      "(x|y)(q|p)*q?",
  };
  const std::string hit = "aaaaaaaaxqaaaaaaaa";
  const std::string miss = "aaaaaaaaaaaaaaaaaa";
  for (const auto& p : patterns) {
    const Regex re = MustCompile(p);
    EXPECT_TRUE(re.Search(hit)) << p;
    EXPECT_FALSE(re.Search(miss)) << p;
  }
}

TEST(RegexPropertyTest, SearchEqualsFullMatchWithPadding) {
  // For any literal needle: Search(text) == FullMatch(".*needle.*")-style
  // containment. Cross-check on random-ish inputs.
  const Regex needle = MustCompile("needle");
  const std::vector<std::pair<std::string, bool>> cases = {
      {"needle", true},          {"a needle here", true},
      {"nee dle", false},        {"needl", false},
      {"xxneedleneedle", true},  {"", false},
      {"nneedle", true},
  };
  for (const auto& [text, expect] : cases) {
    EXPECT_EQ(needle.Search(text), expect) << text;
  }
}

}  // namespace
}  // namespace farview
