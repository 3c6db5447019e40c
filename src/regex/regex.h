#ifndef FARVIEW_REGEX_REGEX_H_
#define FARVIEW_REGEX_REGEX_H_

#include <bitset>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace farview {

/// A compiled regular expression: parser → Thompson NFA → DFA (subset
/// construction).
///
/// This models the FPGA regular-expression engines Farview integrates
/// (Section 5.3, based on [42]): once compiled to a DFA the matcher consumes
/// exactly one byte per step regardless of pattern complexity — the property
/// behind "performance ... does not depend on the complexity of the regular
/// expression". The CPU baselines use the same engine functionally but are
/// charged per-byte software costs by the cost model.
///
/// Supported syntax: literals, '.', character classes `[a-z]` / `[^...]`,
/// escapes (`\d \w \s \D \W \S` and escaped metacharacters), grouping
/// `(...)`, alternation `|`, and the quantifiers `* + ?`.
class Regex {
 public:
  /// Compiles `pattern`; fails on syntax errors or if the DFA would exceed
  /// the state budget (mirroring the fixed BRAM budget of the hardware
  /// engines).
  static Result<Regex> Compile(const std::string& pattern);

  Regex(Regex&&) = default;
  Regex& operator=(Regex&&) = default;
  Regex(const Regex&) = default;
  Regex& operator=(const Regex&) = default;

  /// Unanchored search: true when any substring of `text` matches. This is
  /// the semantics of the Farview regex *selection* operator (emit the tuple
  /// when the string field matches). Scans at most one DFA step per byte and
  /// exits early on the first hit; runs of bytes that keep the automaton in
  /// its start state may be skipped wholesale (host-side speed only).
  bool Search(std::string_view text) const;

  /// Anchored match: true when the entire `text` matches.
  bool FullMatch(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

  /// Number of DFA states of the search automaton (compile-time metric; the
  /// resource model uses it to size the operator).
  int search_dfa_states() const { return search_dfa_.num_states; }
  int full_dfa_states() const { return full_dfa_.num_states; }

 private:
  Regex() = default;

  /// A DFA as one flat `num_states x 256` transition table: the next state
  /// of `s` on byte `b` is `next[s * 256 + b]`. State 0 is the start state.
  /// Negative entries are sentinels: kDead (no transition, reject) in the
  /// full-match table; kMatch (the next state accepts) in the search table,
  /// where the first accepting state ends the scan.
  struct Dfa {
    std::vector<int32_t> next;
    std::vector<uint8_t> accept;
    int num_states = 0;
  };
  static constexpr int32_t kDead = -1;
  static constexpr int32_t kMatch = -2;
  /// `skip_byte_` value when the start-state skip does not apply.
  static constexpr int kNoSkip = -1;

  std::string pattern_;
  Dfa search_dfa_;  ///< with implicit ".*" prefix; accepts folded to kMatch
  Dfa full_dfa_;    ///< anchored both ends
  /// The only byte that leaves the search start state, or kNoSkip. While
  /// the search automaton sits in its start state, every other byte loops
  /// back to it, so Search jumps to the next occurrence with memchr.
  int skip_byte_ = kNoSkip;
};

}  // namespace farview

#endif  // FARVIEW_REGEX_REGEX_H_
