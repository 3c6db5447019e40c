#include "regex/regex.h"

#include <cstring>
#include <map>
#include <set>

namespace farview {
namespace {

using CharSet = std::bitset<256>;

// ---------------------------------------------------------------------------
// Thompson NFA. States carry at most one character-class transition plus up
// to two epsilon transitions — the classic fragment construction.
// ---------------------------------------------------------------------------

struct NfaState {
  /// Character transition (valid when has_char is true).
  bool has_char = false;
  CharSet chars;
  int char_next = -1;
  /// Epsilon transitions.
  int eps[2] = {-1, -1};
};

struct Nfa {
  std::vector<NfaState> states;
  int start = -1;
  int accept = -1;

  int AddState() {
    states.push_back(NfaState{});
    return static_cast<int>(states.size()) - 1;
  }
};

/// A partially built automaton piece: entry state plus the dangling state
/// whose epsilon slot 0 will be patched to the next piece.
struct Fragment {
  int start;
  int out;  // state whose eps[0] is the dangling edge
};

// ---------------------------------------------------------------------------
// Recursive-descent parser building NFA fragments directly.
// Grammar:
//   alt    = concat ('|' concat)*
//   concat = repeat*
//   repeat = atom ('*' | '+' | '?')*
//   atom   = literal | '.' | class | '(' alt ')'
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& pattern, Nfa* nfa)
      : pattern_(pattern), nfa_(nfa) {}

  Status Parse() {
    Result<Fragment> frag = ParseAlt();
    FV_RETURN_IF_ERROR(frag.status());
    if (pos_ != pattern_.size()) {
      return Status::InvalidArgument("unexpected ')' at position " +
                                     std::to_string(pos_));
    }
    const int accept = nfa_->AddState();
    nfa_->states[frag.value().out].eps[0] = accept;
    nfa_->start = frag.value().start;
    nfa_->accept = accept;
    return Status::OK();
  }

 private:
  bool AtEnd() const { return pos_ >= pattern_.size(); }
  char Peek() const { return pattern_[pos_]; }

  /// Builds a fragment matching a single character class.
  Fragment MakeCharFragment(const CharSet& chars) {
    const int s = nfa_->AddState();
    const int out = nfa_->AddState();
    nfa_->states[s].has_char = true;
    nfa_->states[s].chars = chars;
    nfa_->states[s].char_next = out;
    return Fragment{s, out};
  }

  /// Builds an epsilon-only fragment (matches the empty string).
  Fragment MakeEpsilonFragment() {
    const int s = nfa_->AddState();
    return Fragment{s, s};
  }

  Result<Fragment> ParseAlt() {
    Result<Fragment> left = ParseConcat();
    FV_RETURN_IF_ERROR(left.status());
    Fragment frag = left.value();
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      Result<Fragment> right = ParseConcat();
      FV_RETURN_IF_ERROR(right.status());
      const int fork = nfa_->AddState();
      const int join = nfa_->AddState();
      nfa_->states[fork].eps[0] = frag.start;
      nfa_->states[fork].eps[1] = right.value().start;
      nfa_->states[frag.out].eps[0] = join;
      nfa_->states[right.value().out].eps[0] = join;
      frag = Fragment{fork, join};
    }
    return frag;
  }

  Result<Fragment> ParseConcat() {
    Fragment frag = MakeEpsilonFragment();
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      Result<Fragment> next = ParseRepeat();
      FV_RETURN_IF_ERROR(next.status());
      nfa_->states[frag.out].eps[0] = next.value().start;
      frag = Fragment{frag.start, next.value().out};
    }
    return frag;
  }

  Result<Fragment> ParseRepeat() {
    Result<Fragment> atom = ParseAtom();
    FV_RETURN_IF_ERROR(atom.status());
    Fragment frag = atom.value();
    while (!AtEnd() && (Peek() == '*' || Peek() == '+' || Peek() == '?')) {
      const char op = Peek();
      ++pos_;
      if (op == '*') {
        const int loop = nfa_->AddState();
        const int exit = nfa_->AddState();
        nfa_->states[loop].eps[0] = frag.start;
        nfa_->states[loop].eps[1] = exit;
        nfa_->states[frag.out].eps[0] = loop;
        frag = Fragment{loop, exit};
      } else if (op == '+') {
        const int loop = nfa_->AddState();
        const int exit = nfa_->AddState();
        nfa_->states[frag.out].eps[0] = loop;
        nfa_->states[loop].eps[0] = frag.start;
        nfa_->states[loop].eps[1] = exit;
        frag = Fragment{frag.start, exit};
      } else {  // '?'
        const int fork = nfa_->AddState();
        const int join = nfa_->AddState();
        nfa_->states[fork].eps[0] = frag.start;
        nfa_->states[fork].eps[1] = join;
        nfa_->states[frag.out].eps[0] = join;
        frag = Fragment{fork, join};
      }
    }
    return frag;
  }

  Result<Fragment> ParseAtom() {
    if (AtEnd()) {
      return Status::InvalidArgument("pattern ends where an atom is expected");
    }
    const char c = Peek();
    if (c == '(') {
      ++pos_;
      Result<Fragment> inner = ParseAlt();
      FV_RETURN_IF_ERROR(inner.status());
      if (AtEnd() || Peek() != ')') {
        return Status::InvalidArgument("missing ')'");
      }
      ++pos_;
      return inner;
    }
    if (c == '[') {
      Result<CharSet> cls = ParseClass();
      FV_RETURN_IF_ERROR(cls.status());
      return MakeCharFragment(cls.value());
    }
    if (c == '.') {
      ++pos_;
      CharSet all;
      all.set();
      return MakeCharFragment(all);
    }
    if (c == '\\') {
      Result<CharSet> esc = ParseEscape();
      FV_RETURN_IF_ERROR(esc.status());
      return MakeCharFragment(esc.value());
    }
    if (c == '*' || c == '+' || c == '?') {
      return Status::InvalidArgument(
          std::string("quantifier '") + c + "' with nothing to repeat");
    }
    if (c == ')') {
      return Status::InvalidArgument("unmatched ')'");
    }
    ++pos_;
    CharSet one;
    one.set(static_cast<unsigned char>(c));
    return MakeCharFragment(one);
  }

  /// Parses an escape sequence starting at '\\'.
  Result<CharSet> ParseEscape() {
    ++pos_;  // consume backslash
    if (AtEnd()) {
      return Status::InvalidArgument("dangling backslash");
    }
    const char c = Peek();
    ++pos_;
    CharSet set;
    auto add_range = [&set](char lo, char hi) {
      for (int ch = lo; ch <= hi; ++ch) set.set(static_cast<unsigned>(ch));
    };
    switch (c) {
      case 'd':
        add_range('0', '9');
        return set;
      case 'D':
        add_range('0', '9');
        return ~set;
      case 'w':
        add_range('a', 'z');
        add_range('A', 'Z');
        add_range('0', '9');
        set.set('_');
        return set;
      case 'W':
        add_range('a', 'z');
        add_range('A', 'Z');
        add_range('0', '9');
        set.set('_');
        return ~set;
      case 's':
        for (char ws : {' ', '\t', '\n', '\r', '\f', '\v'}) {
          set.set(static_cast<unsigned char>(ws));
        }
        return set;
      case 'S':
        for (char ws : {' ', '\t', '\n', '\r', '\f', '\v'}) {
          set.set(static_cast<unsigned char>(ws));
        }
        return ~set;
      case 'n':
        set.set('\n');
        return set;
      case 't':
        set.set('\t');
        return set;
      case 'r':
        set.set('\r');
        return set;
      default:
        // Escaped literal (metacharacters, backslash, etc.).
        set.set(static_cast<unsigned char>(c));
        return set;
    }
  }

  /// Parses a character class starting at '['.
  Result<CharSet> ParseClass() {
    ++pos_;  // consume '['
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    CharSet set;
    bool first = true;
    while (!AtEnd() && (Peek() != ']' || first)) {
      first = false;
      CharSet piece;
      if (Peek() == '\\') {
        Result<CharSet> esc = ParseEscape();
        FV_RETURN_IF_ERROR(esc.status());
        // Ranges starting from a class escape (e.g. [\d-x]) are literal '-'.
        set |= esc.value();
        continue;
      }
      const char lo = Peek();
      ++pos_;
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        ++pos_;  // consume '-'
        const char hi = Peek();
        ++pos_;
        if (static_cast<unsigned char>(lo) > static_cast<unsigned char>(hi)) {
          return Status::InvalidArgument("inverted range in character class");
        }
        for (int ch = static_cast<unsigned char>(lo);
             ch <= static_cast<unsigned char>(hi); ++ch) {
          piece.set(static_cast<unsigned>(ch));
        }
      } else {
        piece.set(static_cast<unsigned char>(lo));
      }
      set |= piece;
    }
    if (AtEnd()) {
      return Status::InvalidArgument("missing ']'");
    }
    ++pos_;  // consume ']'
    return negate ? ~set : set;
  }

  const std::string& pattern_;
  Nfa* nfa_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Subset construction.
// ---------------------------------------------------------------------------

/// Epsilon closure of a state set (sorted vector used as the canonical key).
std::vector<int> EpsilonClosure(const Nfa& nfa, std::vector<int> states) {
  std::set<int> closure(states.begin(), states.end());
  std::vector<int> work = std::move(states);
  while (!work.empty()) {
    const int s = work.back();
    work.pop_back();
    for (int e : nfa.states[static_cast<size_t>(s)].eps) {
      if (e >= 0 && closure.insert(e).second) work.push_back(e);
    }
  }
  return std::vector<int>(closure.begin(), closure.end());
}

}  // namespace

Result<Regex> Regex::Compile(const std::string& pattern) {
  Nfa nfa;
  Parser parser(pattern, &nfa);
  FV_RETURN_IF_ERROR(parser.Parse());

  // Budget mirrors the bounded hardware engine: a runaway subset
  // construction is a compile error, not an OOM.
  constexpr size_t kMaxDfaStates = 4096;

  // Builds a DFA. When `search` is true the NFA start set permanently
  // includes the start state (the implicit ".*" prefix): every byte may
  // begin a new match attempt.
  auto build = [&nfa](bool search) -> Result<Dfa> {
    Dfa dfa;
    std::map<std::vector<int>, int> index;
    std::vector<std::vector<int>> sets;

    auto intern = [&](std::vector<int> closure) -> int {
      auto it = index.find(closure);
      if (it != index.end()) return it->second;
      const int id = dfa.num_states++;
      dfa.next.resize(dfa.next.size() + 256, kDead);
      bool accept = false;
      for (int s : closure) accept |= s == nfa.accept;
      dfa.accept.push_back(accept ? 1 : 0);
      index.emplace(closure, id);
      sets.push_back(std::move(closure));
      return id;
    };

    intern(EpsilonClosure(nfa, {nfa.start}));

    for (int cur = 0; cur < dfa.num_states; ++cur) {
      if (static_cast<size_t>(dfa.num_states) > kMaxDfaStates) {
        return Status::OutOfRange("DFA exceeds state budget");
      }
      // Group target NFA states per input byte.
      const std::vector<int> set = sets[static_cast<size_t>(cur)];
      for (int byte = 0; byte < 256; ++byte) {
        std::vector<int> next;
        for (int s : set) {
          const NfaState& st = nfa.states[static_cast<size_t>(s)];
          if (st.has_char && st.chars.test(static_cast<size_t>(byte))) {
            next.push_back(st.char_next);
          }
        }
        if (search) next.push_back(nfa.start);
        if (next.empty()) continue;
        const int32_t target = intern(EpsilonClosure(nfa, std::move(next)));
        dfa.next[static_cast<size_t>(cur) * 256 + static_cast<size_t>(byte)] =
            target;
      }
    }
    return dfa;
  };

  Regex re;
  re.pattern_ = pattern;
  FV_ASSIGN_OR_RETURN(re.search_dfa_, build(/*search=*/true));
  FV_ASSIGN_OR_RETURN(re.full_dfa_, build(/*search=*/false));

  // Search stops at the first accepting state, so the search table only
  // needs to say "accepts" — one load and one sign test per byte. Every
  // search state has a transition on every byte (the start set is always
  // re-entered), so kDead never occurs here.
  int leaving = 0;
  for (size_t i = 0; i < re.search_dfa_.next.size(); ++i) {
    int32_t& t = re.search_dfa_.next[i];
    if (i < 256 && t != 0) {
      ++leaving;
      re.skip_byte_ = static_cast<int>(i);
    }
    if (re.search_dfa_.accept[static_cast<size_t>(t)]) t = kMatch;
  }
  if (leaving != 1) re.skip_byte_ = kNoSkip;
  return re;
}

bool Regex::Search(std::string_view text) const {
  if (search_dfa_.accept[0]) return true;  // matches the empty string
  const int32_t* next = search_dfa_.next.data();
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const auto* const end = p + text.size();
  if (skip_byte_ == kNoSkip) {
    int32_t state = 0;
    for (; p != end; ++p) {
      state = next[state * 256 + *p];
      if (state < 0) return true;
    }
    return false;
  }
  // Start-state skip: in state 0 only `skip_byte_` changes the state, so
  // jump to its next occurrence, then step the table until the automaton
  // either accepts or falls back to the start state.
  while (p != end) {
    p = static_cast<const unsigned char*>(
        std::memchr(p, skip_byte_, static_cast<size_t>(end - p)));
    if (p == nullptr) return false;
    int32_t state = 0;
    do {
      state = next[state * 256 + *p++];
    } while (state > 0 && p != end);
    if (state < 0) return true;
  }
  return false;
}

bool Regex::FullMatch(std::string_view text) const {
  const int32_t* next = full_dfa_.next.data();
  int32_t state = 0;
  for (const char ch : text) {
    state = next[state * 256 + static_cast<unsigned char>(ch)];
    if (state == kDead) return false;
  }
  return full_dfa_.accept[static_cast<size_t>(state)] != 0;
}

}  // namespace farview
