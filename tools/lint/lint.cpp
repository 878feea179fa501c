#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace ccmlint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Containers whose iteration order follows hashes, not keys: the std ones
// and the flat cache::BlockTable.
const std::array<const char*, 5> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "BlockTable"};

const std::array<const char*, 5> kRandCalls = {"rand", "srand", "drand48",
                                               "lrand48", "mrand48"};
const std::array<const char*, 7> kRandTypes = {
    "random_device", "mt19937",      "mt19937_64",          "minstd_rand",
    "minstd_rand0",  "ranlux24_base", "default_random_engine"};

const std::array<const char*, 8> kClockTokens = {
    "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
    "clock_gettime", "localtime",   "gmtime",                "mktime"};
const std::array<const char*, 2> kClockCalls = {"time", "clock"};

const std::array<const char*, 3> kPrintTokens = {"cout", "printf", "puts"};

// blocking-under-lock vocabulary.
const std::array<const char*, 6> kGuardTypes = {
    "lock_guard", "scoped_lock", "unique_lock",
    "shared_lock", "ScopedLock",  "UniqueLock"};
const std::array<const char*, 7> kBlockingMembers = {
    "send",        "send_for", "receive",   "receive_for",
    "call",        "call_all", "wait_ready"};
// Bare (non-member) RPC entry points: one call, or a round of them.
const std::array<const char*, 2> kBlockingRpcs = {"rpc", "rpc_all"};
const std::array<const char*, 2> kSleepCalls = {"sleep_for", "sleep_until"};
const std::array<const char*, 3> kStorageReceivers = {"storage_", "storage",
                                                      "writable"};

// raw-mutex vocabulary: std:: lock types that bypass the annotated wrappers.
const std::array<const char*, 4> kRawMutexTypes = {
    "mutex", "timed_mutex", "recursive_mutex", "shared_mutex"};

struct Token {
  std::string text;
  std::size_t pos;  // offset in stripped text
};

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < code.size()) {
    if (ident_start(code[i])) {
      std::size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      out.push_back({code.substr(i, j - i), i});
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::size_t line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<std::size_t>(it - starts.begin());  // 1-based
}

std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

/// Advances past a balanced <...> group starting at `i` (s[i] == '<').
/// Returns the index just past the matching '>'.
std::size_t skip_angles(const std::string& s, std::size_t i) {
  int depth = 0;
  while (i < s.size()) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
    ++i;
  }
  return i;
}

bool preceded_by_member_access(const std::string& s, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(s[i - 1]))) --i;
  if (i >= 1 && s[i - 1] == '.') return true;
  if (i >= 2 && s[i - 2] == '-' && s[i - 1] == '>') return true;
  return false;
}

/// True when the token at `pos` is written `std :: <token>` (whole-token
/// `std`), so `#include <mutex>` and unqualified member names don't match.
bool preceded_by_std_qualifier(const std::string& s, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(s[i - 1]))) --i;
  if (i < 2 || s[i - 1] != ':' || s[i - 2] != ':') return false;
  std::size_t j = i - 2;
  while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1]))) --j;
  if (j < 3 || s.compare(j - 3, 3, "std") != 0) return false;
  return j == 3 || !ident_char(s[j - 4]);
}

template <typename Seq>
bool contains(const Seq& seq, const std::string& t) {
  return std::find(std::begin(seq), std::end(seq), t) != std::end(seq);
}

/// Names tainted within one visibility domain.
struct Scope {
  std::set<std::string> tainted;     // variables holding/containing unordered
  std::set<std::string> float_vars;  // identifiers declared float/double
};

/// Header declarations (members, params of inline helpers) are visible
/// corpus-wide; .cpp declarations and auto bindings stay file-local so a
/// test's `auto r = ...` cannot taint an unrelated file's `r`.
struct Corpus {
  std::set<std::string> aliases;  // type names resolving to unordered
  Scope global;
  std::map<std::string, Scope> local;  // keyed by file path
};

bool is_header_path(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".hpp" || ext == ".h" || ext == ".hh";
}

bool name_tainted(const Corpus& c, const Scope& local, const std::string& t) {
  return c.global.tainted.count(t) > 0 || local.tainted.count(t) > 0;
}

bool name_float(const Corpus& c, const Scope& local, const std::string& t) {
  return c.global.float_vars.count(t) > 0 || local.float_vars.count(t) > 0;
}

bool is_unordered_type_token(const Corpus& c, const std::string& t) {
  return contains(kUnorderedTypes, t) || c.aliases.count(t) > 0;
}

/// True when a thread-safety annotation (`Store store GUARDED_BY(mu);`)
/// starts at `i`, so the identifier before it is a declarator.
bool annotation_at(const std::string& code, std::size_t i) {
  for (const char* a : {"GUARDED_BY", "PT_GUARDED_BY"}) {
    const std::string word(a);
    if (code.compare(i, word.size(), word) == 0 &&
        skip_spaces(code, i + word.size()) < code.size() &&
        code[skip_spaces(code, i + word.size())] == '(') {
      return true;
    }
  }
  return false;
}

/// From an unordered-type anchor token, extracts and taints the declared
/// name, handling qualified tails (::iterator), pointers/refs, and anchors
/// nested inside an enclosing template argument list
/// (std::vector<Store> stores_). A declarator followed by '(' is a function
/// returning the unordered type by value; tainting its *name* makes both
/// `auto r = make_index();` and `for (auto& kv : make_index())` visible.
void taint_from_anchor(const std::string& code, const Token& tok,
                       Scope& scope) {
  std::size_t i = tok.pos + tok.text.size();
  i = skip_spaces(code, i);
  if (i < code.size() && code[i] == '<') i = skip_angles(code, i);
  // Escape enclosing template argument lists: vector<Store>, map<K, Store>.
  for (;;) {
    i = skip_spaces(code, i);
    if (i < code.size() && (code[i] == ',' || code[i] == '>')) {
      int depth = 1;
      while (i < code.size() && depth > 0) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>') --depth;
        ++i;
      }
      continue;
    }
    break;
  }
  // Qualified tail / cv / ref / ptr, then the declarator name.
  for (;;) {
    i = skip_spaces(code, i);
    if (i + 1 < code.size() && code[i] == ':' && code[i + 1] == ':') {
      i = skip_spaces(code, i + 2);
      while (i < code.size() && ident_char(code[i])) ++i;
      continue;
    }
    if (i < code.size() && (code[i] == '&' || code[i] == '*')) {
      ++i;
      continue;
    }
    if (i < code.size() && ident_start(code[i])) {
      std::size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      const std::string name = code.substr(i, j - i);
      if (name == "const" || name == "constexpr" || name == "static" ||
          name == "mutable" || name == "inline") {
        i = j;
        continue;
      }
      const std::size_t after = skip_spaces(code, j);
      if (after < code.size() &&
          (code[after] == ';' || code[after] == '=' || code[after] == '{' ||
           code[after] == ',' || code[after] == ')' ||
           code[after] == '(' || annotation_at(code, after))) {
        scope.tainted.insert(name);
      }
    }
    break;
  }
}

void collect_aliases(const std::string& code, const std::vector<Token>& toks,
                     Corpus& corpus) {
  for (std::size_t t = 0; t + 1 < toks.size(); ++t) {
    if (toks[t].text != "using") continue;
    const Token& name = toks[t + 1];
    std::size_t i = skip_spaces(code, name.pos + name.text.size());
    if (i >= code.size() || code[i] != '=') continue;
    const std::size_t end = code.find(';', i);
    const std::string rhs =
        code.substr(i, end == std::string::npos ? std::string::npos : end - i);
    for (const auto& ut : kUnorderedTypes) {
      if (rhs.find(ut) != std::string::npos) {
        corpus.aliases.insert(name.text);
        break;
      }
    }
    for (const auto& alias : corpus.aliases) {
      // Alias-of-alias: require a whole-token match.
      std::size_t p = rhs.find(alias);
      while (p != std::string::npos) {
        const bool lb = p == 0 || !ident_char(rhs[p - 1]);
        const bool rb =
            p + alias.size() >= rhs.size() || !ident_char(rhs[p + alias.size()]);
        if (lb && rb) {
          corpus.aliases.insert(name.text);
          break;
        }
        p = rhs.find(alias, p + 1);
      }
    }
  }
}

void collect_declared(const std::string& code, const std::vector<Token>& toks,
                      const Corpus& corpus, Scope& scope) {
  for (const auto& tok : toks) {
    if (is_unordered_type_token(corpus, tok.text)) {
      taint_from_anchor(code, tok, scope);
    }
    if (tok.text == "double" || tok.text == "float") {
      std::size_t i = skip_spaces(code, tok.pos + tok.text.size());
      if (i < code.size() && ident_start(code[i])) {
        std::size_t j = i + 1;
        while (j < code.size() && ident_char(code[j])) ++j;
        const std::size_t after = skip_spaces(code, j);
        if (after < code.size() &&
            (code[after] == ';' || code[after] == '=' || code[after] == ',' ||
             code[after] == ')' || code[after] == '{')) {
          scope.float_vars.insert(code.substr(i, j - i));
        }
      }
    }
  }
}

/// `auto x = expr;` / `auto& x = expr;` — taints x when expr is rooted at a
/// tainted name (`auto& s = stores_[n];`, `auto it = map_.find(k);`). Only
/// the first rhs token counts: a tainted name passed as a mere argument
/// (`auto r = touch(cc, map_)`) does not make the result unordered.
/// Iterated to fixpoint by the caller running it twice.
void collect_auto_bindings(const std::string& code,
                           const std::vector<Token>& toks,
                           const Corpus& corpus, Scope& scope) {
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].text != "auto") continue;
    std::size_t i = skip_spaces(code, toks[t].pos + 4);
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) ++i;
    i = skip_spaces(code, i);
    if (i >= code.size() || !ident_start(code[i])) continue;
    std::size_t j = i + 1;
    while (j < code.size() && ident_char(code[j])) ++j;
    const std::string name = code.substr(i, j - i);
    std::size_t eq = skip_spaces(code, j);
    if (eq >= code.size() || code[eq] != '=') continue;
    const std::size_t end = code.find(';', eq);
    if (end == std::string::npos) continue;
    const auto rhs_toks = tokenize(code.substr(eq + 1, end - eq - 1));
    if (!rhs_toks.empty() &&
        name_tainted(corpus, scope, rhs_toks.front().text)) {
      scope.tainted.insert(name);
    }
  }
}

struct InlineAllows {
  // line (1-based) -> rules allowed on that line
  std::map<std::size_t, std::set<std::string>> by_line;

  bool allows(std::size_t line, const std::string& rule) const {
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) > 0;
  }
};

InlineAllows collect_inline_allows(const std::string& raw) {
  InlineAllows allows;
  std::istringstream in(raw);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t mark = line.find("ccm-lint: allow(");
    if (mark == std::string::npos) continue;
    std::size_t i = mark + 16;
    const std::size_t close = line.find(')', i);
    if (close == std::string::npos) continue;
    std::string rules = line.substr(i, close - i);
    std::istringstream rs(rules);
    std::string rule;
    while (std::getline(rs, rule, ',')) {
      const auto b = rule.find_first_not_of(" \t");
      const auto e = rule.find_last_not_of(" \t");
      if (b != std::string::npos) {
        allows.by_line[lineno].insert(rule.substr(b, e - b + 1));
      }
    }
  }
  return allows;
}

struct FileScan {
  const SourceFile* file;
  std::string code;  // stripped
  std::vector<Token> tokens;
  std::vector<std::size_t> lines;
  InlineAllows allows;
};

void add_finding(std::vector<Finding>& out, const FileScan& fs,
                 std::size_t pos, const std::string& rule,
                 const std::string& token, const std::string& message) {
  const std::size_t line = line_of(fs.lines, pos);
  if (fs.allows.allows(line, rule)) return;
  out.push_back({fs.file->path, line, rule, token, message, false});
}

/// Range-for headers: returns (colon position, range-expression substring,
/// body span) for `for (`...` : `...`)`. The body span is used by the
/// fp-accum rule.
struct RangeFor {
  std::size_t for_pos;
  std::string range_expr;
  std::size_t body_begin;
  std::size_t body_end;
};

std::vector<RangeFor> find_range_fors(const std::string& code,
                                      const std::vector<Token>& toks) {
  std::vector<RangeFor> out;
  for (const auto& tok : toks) {
    if (tok.text != "for") continue;
    std::size_t i = skip_spaces(code, tok.pos + 3);
    if (i >= code.size() || code[i] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t j = i; j < code.size(); ++j) {
      if (code[j] == '(') ++depth;
      if (code[j] == ')') {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (code[j] == ';' && depth == 1) break;  // classic for, not range
      if (code[j] == ':' && depth == 1 && colon == std::string::npos) {
        const bool dbl = (j + 1 < code.size() && code[j + 1] == ':') ||
                         (j > 0 && code[j - 1] == ':');
        if (!dbl) colon = j;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    RangeFor rf;
    rf.for_pos = tok.pos;
    rf.range_expr = code.substr(colon + 1, close - colon - 1);
    std::size_t b = skip_spaces(code, close + 1);
    if (b < code.size() && code[b] == '{') {
      int braces = 0;
      std::size_t e = b;
      for (; e < code.size(); ++e) {
        if (code[e] == '{') ++braces;
        if (code[e] == '}') {
          --braces;
          if (braces == 0) break;
        }
      }
      rf.body_begin = b;
      rf.body_end = e;
    } else {
      rf.body_begin = b;
      const std::size_t semi = code.find(';', b);
      rf.body_end = semi == std::string::npos ? code.size() : semi;
    }
    out.push_back(std::move(rf));
  }
  return out;
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

bool path_starts_with(const std::string& path, const char* prefix) {
  return path.rfind(prefix, 0) == 0;
}

}  // namespace

std::string strip_code(const std::string& src) {
  std::string out = src;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(src[i - 1]))) {
          const std::size_t open = src.find('(', i + 2);
          if (open != std::string::npos) {
            raw_delim.assign(1, ')');
            raw_delim.append(src, i + 2, open - i - 2);
            raw_delim.push_back('"');
            state = State::kRawString;
            out[i] = ' ';
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'' && !(i > 0 && std::isdigit(static_cast<unsigned char>(
                                                src[i - 1])))) {
          // skip digit separators like 1'000'000
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < src.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < src.size() && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Suppression> parse_suppressions(const std::string& text,
                                            std::vector<std::string>& errors) {
  std::vector<Suppression> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string reason;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      reason = line.substr(hash + 1);
      const auto b = reason.find_first_not_of(" \t");
      reason = b == std::string::npos ? "" : reason.substr(b);
      line = line.substr(0, hash);
    }
    std::istringstream fields(line);
    std::string path, rule, token;
    if (!(fields >> path)) continue;  // blank / comment-only line
    if (!(fields >> rule >> token)) {
      errors.push_back("suppressions line " + std::to_string(lineno) +
                       ": expected `path rule token  # reason`");
      continue;
    }
    std::string extra;
    if (fields >> extra) {
      errors.push_back("suppressions line " + std::to_string(lineno) +
                       ": trailing field '" + extra + "'");
      continue;
    }
    if (reason.empty()) {
      errors.push_back("suppressions line " + std::to_string(lineno) +
                       ": missing `# justification`");
      continue;
    }
    out.push_back({path, rule, token, reason, 0});
  }
  return out;
}

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kRules = {
      "unordered-iter",      "raw-random", "wall-clock",
      "fp-accum-unordered",  "cout-library",
      "blocking-under-lock", "raw-mutex"};
  return kRules;
}

FixResult fix_cout_library(const SourceFile& file,
                           const std::vector<Finding>& findings) {
  FixResult out;
  out.content = file.content;

  // Lines with an unsuppressed `cout` finding for this file.
  std::set<std::size_t> flagged;
  for (const auto& f : findings) {
    if (f.path != file.path || f.rule != "cout-library" || f.suppressed) {
      continue;
    }
    if (f.token == "cout") {
      flagged.insert(f.line);
    } else {
      ++out.unfixable;  // printf/puts need a by-hand stream rewrite
    }
  }
  if (flagged.empty()) return out;

  // strip_code preserves length and newlines, so stripped offsets are valid
  // in the raw bytes — edits computed on the stripped view apply directly.
  const std::string code = strip_code(file.content);
  const auto lines = line_starts(code);
  const auto tokens = tokenize(code);

  struct Edit {
    std::size_t begin;
    std::size_t end;
    std::string text;
  };
  std::vector<Edit> edits;

  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const Token& tok = tokens[t];
    if (tok.text != "cout") continue;
    if (flagged.count(line_of(lines, tok.pos)) == 0) continue;

    // Extend the span over a preceding `std ::` qualifier.
    std::size_t begin = tok.pos;
    std::size_t i = tok.pos;
    while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
    if (i >= 2 && code[i - 1] == ':' && code[i - 2] == ':') {
      std::size_t j = i - 2;
      while (j > 0 && std::isspace(static_cast<unsigned char>(code[j - 1]))) {
        --j;
      }
      if (j >= 3 && code.compare(j - 3, 3, "std") == 0 &&
          (j == 3 || !ident_char(code[j - 4]))) {
        begin = j - 3;
      }
    }

    // `using std::cout;` is a declaration, not a stream expression — a
    // mechanical swap would produce `using coop::util::report_out();`.
    std::size_t prev = t;
    if (t > 0 && tokens[t - 1].text == "std" && tokens[t - 1].pos == begin) {
      prev = t - 1;
    }
    if (prev > 0 && tokens[prev - 1].text == "using") {
      ++out.unfixable;
      continue;
    }

    edits.push_back({begin, tok.pos + 4, "coop::util::report_out()"});
  }
  out.rewrites = edits.size();
  if (edits.empty()) return out;

  // Insert the sink include after the last include line, unless present.
  if (file.content.find("util/report_sink.hpp") == std::string::npos) {
    std::size_t insert_at = 0;
    bool found = false;
    for (const std::size_t s : lines) {
      if (code.compare(s, 8, "#include") == 0) {
        const std::size_t eol = code.find('\n', s);
        insert_at = eol == std::string::npos ? code.size() : eol + 1;
        found = true;
      }
    }
    edits.push_back({insert_at, insert_at,
                     found ? "#include \"util/report_sink.hpp\"\n"
                           : "#include \"util/report_sink.hpp\"\n\n"});
  }

  // Back-to-front so earlier offsets stay valid; at a shared offset the
  // rewrite goes first so the zero-width include insertion cannot be
  // clobbered by it.
  std::sort(edits.begin(), edits.end(), [](const Edit& a, const Edit& b) {
    if (a.begin != b.begin) return a.begin > b.begin;
    return a.end > b.end;
  });
  for (const auto& e : edits) {
    out.content.replace(e.begin, e.end - e.begin, e.text);
  }
  return out;
}

Result lint(const std::vector<SourceFile>& files,
            std::vector<Suppression>& suppressions) {
  Result result;
  result.files_scanned = files.size();

  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const auto& f : files) {
    FileScan fs;
    fs.file = &f;
    fs.code = strip_code(f.content);
    fs.tokens = tokenize(fs.code);
    fs.lines = line_starts(fs.code);
    fs.allows = collect_inline_allows(f.content);
    scans.push_back(std::move(fs));
  }

  // Pass 1: taint collection. Aliases twice (alias-of-alias), then
  // declarations, then auto bindings twice (chained bindings). Header
  // declarations land in the corpus-global scope; .cpp declarations and
  // bindings stay file-local.
  Corpus corpus;
  for (int round = 0; round < 2; ++round) {
    for (const auto& fs : scans) collect_aliases(fs.code, fs.tokens, corpus);
  }
  const auto scope_for = [&corpus](const FileScan& fs) -> Scope& {
    return is_header_path(fs.file->path) ? corpus.global
                                         : corpus.local[fs.file->path];
  };
  for (const auto& fs : scans) {
    collect_declared(fs.code, fs.tokens, corpus, scope_for(fs));
  }
  for (int round = 0; round < 2; ++round) {
    for (const auto& fs : scans) {
      collect_auto_bindings(fs.code, fs.tokens, corpus, scope_for(fs));
    }
  }

  // Pass 2: rules.
  for (const auto& fs : scans) {
    const std::string& path = fs.file->path;
    const Scope& local = scope_for(fs);
    const bool rng_exempt = path_contains(path, "src/sim/random");

    // unordered-iter: range-for over a tainted range expression.
    const auto range_fors = find_range_fors(fs.code, fs.tokens);
    for (const auto& rf : range_fors) {
      std::string hit;
      for (const auto& tok : tokenize(rf.range_expr)) {
        if (contains(kUnorderedTypes, tok.text) ||
            name_tainted(corpus, local, tok.text)) {
          hit = tok.text;
          break;
        }
      }
      if (hit.empty()) continue;
      add_finding(result.findings, fs, rf.for_pos, "unordered-iter", hit,
                  "range-for over unordered container '" + hit +
                      "': iteration order is implementation-defined and must "
                      "not reach outputs, metrics, or eviction decisions");
      // fp-accum-unordered: float/double accumulation inside that loop body.
      const std::string body =
          fs.code.substr(rf.body_begin, rf.body_end - rf.body_begin);
      for (const auto& btok : tokenize(body)) {
        if (!name_float(corpus, local, btok.text)) continue;
        std::size_t a =
            skip_spaces(body, btok.pos + btok.text.size());
        if (a + 1 < body.size() &&
            (body[a] == '+' || body[a] == '-' || body[a] == '*') &&
            body[a + 1] == '=') {
          add_finding(
              result.findings, fs, rf.body_begin + btok.pos,
              "fp-accum-unordered", btok.text,
              "floating-point accumulation into '" + btok.text +
                  "' inside unordered iteration: FP addition is not "
                  "associative, so the sum depends on hash-map order; use an "
                  "index-keyed loop (see harness/executor)");
        }
      }
    }

    // unordered-iter: explicit iterator walks (X.begin(), X.cbegin()).
    for (std::size_t t = 0; t + 1 < fs.tokens.size(); ++t) {
      const Token& tok = fs.tokens[t];
      if (!name_tainted(corpus, local, tok.text)) continue;
      std::size_t i = skip_spaces(fs.code, tok.pos + tok.text.size());
      bool member = false;
      if (i < fs.code.size() && fs.code[i] == '.') {
        member = true;
        ++i;
      } else if (i + 1 < fs.code.size() && fs.code[i] == '-' &&
                 fs.code[i + 1] == '>') {
        member = true;
        i += 2;
      }
      if (!member) continue;
      i = skip_spaces(fs.code, i);
      const Token& next = fs.tokens[t + 1];
      if (next.pos == i && (next.text == "begin" || next.text == "cbegin")) {
        add_finding(result.findings, fs, tok.pos, "unordered-iter", tok.text,
                    "iterator walk over unordered container '" + tok.text +
                        "': iteration order is implementation-defined");
      }
    }

    for (const auto& tok : fs.tokens) {
      const std::size_t after = skip_spaces(fs.code, tok.pos + tok.text.size());
      const bool is_call = after < fs.code.size() && fs.code[after] == '(';
      const bool member = preceded_by_member_access(fs.code, tok.pos);

      // raw-random
      if (!rng_exempt) {
        if (is_call && !member && contains(kRandCalls, tok.text)) {
          add_finding(result.findings, fs, tok.pos, "raw-random", tok.text,
                      "raw '" + tok.text +
                          "' call: all workload randomness must flow through "
                          "the seeded coop::sim::Rng (src/sim/random.hpp)");
        }
        if (contains(kRandTypes, tok.text)) {
          add_finding(result.findings, fs, tok.pos, "raw-random", tok.text,
                      "'" + tok.text +
                          "': stdlib engines/distributions differ across "
                          "implementations; use coop::sim::Rng for "
                          "bit-identical traces");
        }
      }

      // wall-clock
      if (!rng_exempt) {
        if (contains(kClockTokens, tok.text)) {
          add_finding(result.findings, fs, tok.pos, "wall-clock", tok.text,
                      "wall-clock read '" + tok.text +
                          "': simulation time is logical; wall time may only "
                          "feed audited diagnostics");
        }
        if (is_call && !member && contains(kClockCalls, tok.text)) {
          add_finding(result.findings, fs, tok.pos, "wall-clock", tok.text,
                      "wall-clock call '" + tok.text +
                          "()': simulation time is logical; wall time may "
                          "only feed audited diagnostics");
        }
      }

      // cout-library
      if (path_starts_with(path, "src/")) {
        const bool banned_stream = tok.text == "cout";
        const bool banned_call =
            is_call && !member && (tok.text == "printf" || tok.text == "puts");
        if (banned_stream || banned_call) {
          add_finding(result.findings, fs, tok.pos, "cout-library", tok.text,
                      "'" + tok.text +
                          "' in library code: src/ must return data, not "
                          "print; route output through the report layer");
        }
      }

      // raw-mutex: std:: lock types spelled directly in the runtime layers.
      if ((path_contains(path, "src/ccm") || path_contains(path, "src/net")) &&
          contains(kRawMutexTypes, tok.text) &&
          preceded_by_std_qualifier(fs.code, tok.pos)) {
        add_finding(result.findings, fs, tok.pos, "raw-mutex", tok.text,
                    "raw 'std::" + tok.text +
                        "' in runtime code: locks in src/ccm and src/net "
                        "must be coop::util::Mutex / CountingMutex "
                        "(src/util/mutex.hpp) so they carry thread-safety "
                        "annotations and register with the lock-order "
                        "watchdog");
      }
    }

    // blocking-under-lock: blocking waits inside a lock-guard scope. The
    // scope runs from the guard declaration to the enclosing block's `}`;
    // `guard.unlock()` suspends it and `guard.lock()` resumes it (the
    // make_room_locked hand-off pattern).
    if (path_starts_with(path, "src/")) {
      std::set<std::size_t> flagged;  // dedupe across nested guard scopes
      for (std::size_t t = 0; t < fs.tokens.size(); ++t) {
        const Token& gtok = fs.tokens[t];
        if (!contains(kGuardTypes, gtok.text)) continue;
        std::size_t i = skip_spaces(fs.code, gtok.pos + gtok.text.size());
        if (i < fs.code.size() && fs.code[i] == '<') {
          i = skip_angles(fs.code, i);
        }
        i = skip_spaces(fs.code, i);
        if (i >= fs.code.size() || !ident_start(fs.code[i])) continue;
        std::size_t j = i + 1;
        while (j < fs.code.size() && ident_char(fs.code[j])) ++j;
        const std::string guard = fs.code.substr(i, j - i);
        const std::size_t k = skip_spaces(fs.code, j);
        // A declaration constructs the guard; a `&` parameter or a bare
        // mention does not open a scope here.
        if (k >= fs.code.size() || (fs.code[k] != '(' && fs.code[k] != '{')) {
          continue;
        }
        const std::size_t decl_end = fs.code.find(';', k);
        if (decl_end == std::string::npos) continue;
        std::size_t scope_end = fs.code.size();
        int depth = 0;
        for (std::size_t p = decl_end; p < fs.code.size(); ++p) {
          if (fs.code[p] == '{') {
            ++depth;
          } else if (fs.code[p] == '}') {
            if (depth == 0) {
              scope_end = p;
              break;
            }
            --depth;
          }
        }
        bool suspended = false;
        for (std::size_t u = t + 1; u < fs.tokens.size(); ++u) {
          const Token& bt = fs.tokens[u];
          if (bt.pos <= decl_end) continue;
          if (bt.pos >= scope_end) break;
          if (bt.text == guard && u + 1 < fs.tokens.size() &&
              preceded_by_member_access(fs.code, fs.tokens[u + 1].pos)) {
            if (fs.tokens[u + 1].text == "unlock") suspended = true;
            if (fs.tokens[u + 1].text == "lock") suspended = false;
            continue;
          }
          const std::size_t after =
              skip_spaces(fs.code, bt.pos + bt.text.size());
          if (suspended || after >= fs.code.size() || fs.code[after] != '(') {
            continue;
          }
          const bool member = preceded_by_member_access(fs.code, bt.pos);
          std::string what;
          if (member && contains(kBlockingMembers, bt.text)) {
            what = "blocking '." + bt.text + "(...)'";
          } else if (!member && contains(kBlockingRpcs, bt.text)) {
            what = "blocking RPC '" + bt.text + "(...)'";
          } else if (contains(kSleepCalls, bt.text)) {
            what = "sleep '" + bt.text + "(...)'";
          } else if (member && (bt.text == "read" || bt.text == "write") &&
                     u > 0 &&
                     contains(kStorageReceivers, fs.tokens[u - 1].text)) {
            what = "storage I/O '" + fs.tokens[u - 1].text + "." + bt.text +
                   "(...)'";
          }
          if (what.empty() || !flagged.insert(bt.pos).second) continue;
          add_finding(result.findings, fs, bt.pos, "blocking-under-lock",
                      bt.text,
                      what + " while holding lock guard '" + guard +
                          "': a wait that can park the thread must not run "
                          "under a mutex; release the guard first or move "
                          "the wait out of the critical section");
        }
      }
    }
  }

  // Suppressions.
  for (auto& f : result.findings) {
    for (auto& s : suppressions) {
      if (f.rule != s.rule) continue;
      if (s.token != "*" && s.token != f.token) continue;
      if (f.path.find(s.path_substr) == std::string::npos) continue;
      f.suppressed = true;
      ++s.uses;
      break;
    }
    if (f.suppressed) {
      ++result.suppressed;
    } else {
      ++result.unsuppressed;
    }
  }
  result.aliases.assign(corpus.aliases.begin(), corpus.aliases.end());
  std::set<std::string> merged = corpus.global.tainted;
  for (const auto& [p, scope] : corpus.local) {
    merged.insert(scope.tainted.begin(), scope.tainted.end());
  }
  result.tainted.assign(merged.begin(), merged.end());
  return result;
}

}  // namespace ccmlint
