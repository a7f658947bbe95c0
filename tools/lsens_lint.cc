#include "lsens_lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace lsens_lint {
namespace {

namespace fs = std::filesystem;

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Source text model: per line, the raw text, the code text (comments and
// string/char literal *contents* blanked out — quotes stay so structure is
// preserved), and the comment text (everything else blanked). Annotations
// are parsed from comment text; every rule except layering runs over code
// text. Layering reads raw `#include` lines because the path it needs is a
// string literal.
// ---------------------------------------------------------------------------
struct FileText {
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> comment;
};

FileText SplitSource(const std::string& content) {
  FileText out;
  enum class State { kCode, kString, kChar, kLine, kBlock };
  State state = State::kCode;
  std::string code_line;
  std::string comment_line;
  std::string raw_line;
  auto flush = [&] {
    if (!raw_line.empty() && raw_line.back() == '\r') raw_line.pop_back();
    out.raw.push_back(raw_line);
    out.code.push_back(code_line);
    out.comment.push_back(comment_line);
    raw_line.clear();
    code_line.clear();
    comment_line.clear();
  };
  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLine) state = State::kCode;
      flush();
      continue;
    }
    raw_line.push_back(c);
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          code_line.push_back(' ');
          comment_line.push_back(' ');
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          code_line.push_back(' ');
          comment_line.push_back(' ');
          raw_line.push_back(next);
          code_line.push_back(' ');
          comment_line.push_back(' ');
          ++i;
        } else if (c == '"') {
          state = State::kString;
          code_line.push_back('"');
          comment_line.push_back(' ');
        } else if (c == '\'') {
          state = State::kChar;
          code_line.push_back('\'');
          comment_line.push_back(' ');
        } else {
          code_line.push_back(c);
          comment_line.push_back(' ');
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          code_line.push_back(' ');
          comment_line.push_back(' ');
          raw_line.push_back(next);
          code_line.push_back(' ');
          comment_line.push_back(' ');
          ++i;
        } else if (c == quote) {
          state = State::kCode;
          code_line.push_back(quote);
          comment_line.push_back(' ');
        } else {
          code_line.push_back(' ');
          comment_line.push_back(' ');
        }
        break;
      }
      case State::kLine:
        code_line.push_back(' ');
        comment_line.push_back(c);
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line.push_back(' ');
          comment_line.push_back(' ');
          raw_line.push_back(next);
          code_line.push_back(' ');
          comment_line.push_back(' ');
          ++i;
        } else {
          code_line.push_back(' ');
          comment_line.push_back(c);
        }
        break;
    }
  }
  flush();
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

bool LineIsBlankCode(const std::string& code) {
  return Trim(code).empty();
}

// Whole-word search: `what` at a position where neither neighbor is an
// identifier character.
std::vector<size_t> FindWord(const std::string& text, std::string_view what) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + what.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

std::vector<std::string> Identifiers(const std::string& text) {
  std::vector<std::string> ids;
  size_t i = 0;
  while (i < text.size()) {
    if (IsIdentChar(text[i]) &&
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      size_t j = i;
      while (j < text.size() && IsIdentChar(text[j])) ++j;
      ids.push_back(text.substr(i, j - i));
      i = j;
    } else if (IsIdentChar(text[i])) {
      // Skip a token that starts with a digit (numeric literal tail).
      while (i < text.size() && IsIdentChar(text[i])) ++i;
    } else {
      ++i;
    }
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Annotations. `// lsens-lint: allow(<rule>) <reason>` covers the same
// line, or — when the annotation line carries no code — the next line with
// code on it. A declaration-site allow (the covered line declares an
// unordered container) covers every loop over that container's name.
// ---------------------------------------------------------------------------
struct ParsedAllow {
  std::string rule;
  std::string reason;
  int line = 0;           // 0-based annotation line
  int covered_line = -1;  // 0-based code line it covers
};

constexpr std::string_view kAllowMarker = "lsens-lint: allow(";

std::vector<ParsedAllow> ParseAllows(const FileText& text) {
  std::vector<ParsedAllow> allows;
  for (size_t i = 0; i < text.comment.size(); ++i) {
    const std::string& c = text.comment[i];
    const size_t pos = c.find(kAllowMarker);
    if (pos == std::string::npos) continue;
    ParsedAllow allow;
    allow.line = static_cast<int>(i);
    const size_t rule_begin = pos + kAllowMarker.size();
    const size_t rule_end = c.find(')', rule_begin);
    if (rule_end == std::string::npos) continue;
    allow.rule = Trim(c.substr(rule_begin, rule_end - rule_begin));
    allow.reason = Trim(c.substr(rule_end + 1));
    allow.covered_line = static_cast<int>(i);
    if (LineIsBlankCode(text.code[i])) {
      for (size_t j = i + 1; j < text.code.size(); ++j) {
        if (!LineIsBlankCode(text.code[j])) {
          allow.covered_line = static_cast<int>(j);
          break;
        }
        // The reason may continue over the rest of the comment block; the
        // audit should carry the whole justification, not its first line.
        std::string cont = Trim(text.comment[j]);
        while (!cont.empty() && (cont.front() == '/' || cont.front() == '*')) {
          cont.erase(cont.begin());
        }
        cont = Trim(cont);
        if (!cont.empty()) {
          if (!allow.reason.empty()) allow.reason += ' ';
          allow.reason += cont;
        }
      }
    }
    allows.push_back(allow);
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Unordered-container declarations: `unordered_map<...> name` /
// `unordered_set<...> name` (members, locals, parameters). Heuristic and
// proudly so — the fixture corpus pins exactly what is recognized.
// ---------------------------------------------------------------------------
struct UnorderedDecl {
  std::string name;
  int line = 0;  // 0-based
  bool allowed = false;
};

struct JoinedCode {
  std::string text;
  std::vector<size_t> line_starts;  // offset of each line in `text`

  int LineOf(size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<int>(it - line_starts.begin()) - 1;
  }
};

JoinedCode JoinCode(const FileText& text) {
  JoinedCode out;
  for (const std::string& line : text.code) {
    out.line_starts.push_back(out.text.size());
    out.text += line;
    out.text += '\n';
  }
  return out;
}

std::vector<UnorderedDecl> FindUnorderedDecls(const JoinedCode& code) {
  std::vector<UnorderedDecl> decls;
  for (std::string_view word : {"unordered_map", "unordered_set"}) {
    for (size_t pos : FindWord(code.text, word)) {
      size_t i = pos + word.size();
      const std::string& t = code.text;
      while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
        ++i;
      if (i >= t.size() || t[i] != '<') continue;
      int depth = 0;
      while (i < t.size()) {
        if (t[i] == '<') ++depth;
        if (t[i] == '>') {
          --depth;
          if (depth == 0) break;
        }
        ++i;
      }
      if (depth != 0) continue;
      ++i;  // past the closing '>'
      // Skip qualifiers between the type and the declared name.
      for (;;) {
        while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
          ++i;
        if (i < t.size() && (t[i] == '&' || t[i] == '*')) {
          ++i;
        } else if (t.compare(i, 5, "const") == 0 &&
                   (i + 5 >= t.size() || !IsIdentChar(t[i + 5]))) {
          i += 5;
        } else {
          break;
        }
      }
      size_t name_begin = i;
      while (i < t.size() && IsIdentChar(t[i])) ++i;
      if (i == name_begin) continue;  // no declared name (e.g. ::iterator)
      std::string name = t.substr(name_begin, i - name_begin);
      while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
        ++i;
      const char after = i < t.size() ? t[i] : '\0';
      if (after != ';' && after != '=' && after != '{' && after != ',' &&
          after != ')') {
        continue;  // not a declaration (function return type, cast, ...)
      }
      decls.push_back({std::move(name), code.LineOf(pos), false});
    }
  }
  return decls;
}

// ---------------------------------------------------------------------------
// Iteration sites over unordered containers.
// ---------------------------------------------------------------------------
struct IterationSite {
  int line = 0;  // 0-based
  std::string name;
  std::string what;  // "range-for" or "begin()"
};

std::vector<IterationSite> FindIterations(
    const JoinedCode& code, const std::set<std::string>& names) {
  std::vector<IterationSite> sites;
  const std::string& t = code.text;

  // Range-for: `for ( ... : <expr> )` with a top-level ':' (never `::`).
  for (size_t pos : FindWord(t, "for")) {
    size_t i = pos + 3;
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i]))) ++i;
    if (i >= t.size() || t[i] != '(') continue;
    const size_t open = i;
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t j = open; j < t.size(); ++j) {
      if (t[j] == '(') ++depth;
      if (t[j] == ')') {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
    }
    if (close == std::string::npos) continue;
    const std::string header = t.substr(open + 1, close - open - 1);
    size_t colon = std::string::npos;
    int nest = 0;
    for (size_t j = 0; j < header.size(); ++j) {
      const char c = header[j];
      if (c == ':' && j + 1 < header.size() && header[j + 1] == ':') {
        ++j;
        continue;
      }
      if (c == '(' || c == '[' || c == '{' || c == '<') ++nest;
      if (c == ')' || c == ']' || c == '}' || c == '>') --nest;
      if (c == ':' && nest == 0) {
        colon = j;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = header.substr(colon + 1);
    bool hit = range.find("unordered_map") != std::string::npos ||
               range.find("unordered_set") != std::string::npos;
    std::string hit_name = hit ? "<inline unordered container>" : "";
    if (!hit) {
      for (const std::string& id : Identifiers(range)) {
        if (names.count(id) != 0) {
          hit = true;
          hit_name = id;
          break;
        }
      }
    }
    if (hit) sites.push_back({code.LineOf(pos), hit_name, "range-for"});
  }

  // Iterator loops and order-sensitive traversals: `<name>.begin()` /
  // `<name>->rbegin()` etc. A bare `.end()` (the find() idiom) is fine.
  for (std::string_view method : {"begin", "cbegin", "rbegin"}) {
    for (size_t pos : FindWord(t, method)) {
      if (pos + method.size() >= t.size() || t[pos + method.size()] != '(')
        continue;
      size_t r = pos;
      if (r >= 1 && t[r - 1] == '.') {
        r -= 1;
      } else if (r >= 2 && t[r - 2] == '-' && t[r - 1] == '>') {
        r -= 2;
      } else {
        continue;
      }
      size_t name_end = r;
      size_t name_begin = name_end;
      while (name_begin > 0 && IsIdentChar(t[name_begin - 1])) --name_begin;
      const std::string receiver = t.substr(name_begin, name_end - name_begin);
      if (names.count(receiver) != 0) {
        sites.push_back({code.LineOf(pos), receiver, "begin()"});
      }
    }
  }
  return sites;
}

// ---------------------------------------------------------------------------
// row-materialize: Relation-typed variables whose .Row() is called inside a
// loop body in exec-layer files. Relation::Row() gathers a fresh vector per
// call; hot loops should read Chunks() chunk spans or reuse a buffer via
// RowInto(). Word-boundary matching means `CountedRelation` (whose Row()
// returns a span) never matches.
// ---------------------------------------------------------------------------
std::set<std::string> FindRelationDeclNames(const JoinedCode& code) {
  std::set<std::string> names;
  const std::string& t = code.text;
  for (size_t pos : FindWord(t, "Relation")) {
    size_t i = pos + 8;  // past "Relation"
    // Skip qualifiers between the type and the declared name.
    for (;;) {
      while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
        ++i;
      if (i < t.size() && (t[i] == '&' || t[i] == '*')) {
        ++i;
      } else if (t.compare(i, 5, "const") == 0 &&
                 (i + 5 >= t.size() || !IsIdentChar(t[i + 5]))) {
        i += 5;
      } else {
        break;
      }
    }
    size_t name_begin = i;
    while (i < t.size() && IsIdentChar(t[i])) ++i;
    if (i == name_begin) continue;  // constructor call, forward decl, ...
    std::string name = t.substr(name_begin, i - name_begin);
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
      ++i;
    const char after = i < t.size() ? t[i] : '\0';
    if (after != ';' && after != '=' && after != ',' && after != ')' &&
        after != '{') {
      continue;  // not a variable declaration (function return type, ...)
    }
    names.insert(std::move(name));
  }
  return names;
}

struct CharRange {
  size_t begin = 0;
  size_t end = 0;
};

// Body ranges of for/while/do loops (brace-delimited or single-statement).
// Nested loops produce nested ranges; containment in any range counts.
std::vector<CharRange> FindLoopBodies(const std::string& t) {
  std::vector<CharRange> bodies;
  auto brace_or_statement = [&](size_t i) -> CharRange {
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
      ++i;
    if (i < t.size() && t[i] == '{') {
      int depth = 0;
      for (size_t j = i; j < t.size(); ++j) {
        if (t[j] == '{') ++depth;
        if (t[j] == '}') {
          --depth;
          if (depth == 0) return {i, j + 1};
        }
      }
      return {i, t.size()};
    }
    // Single statement: up to the next ';' at paren depth 0.
    int depth = 0;
    for (size_t j = i; j < t.size(); ++j) {
      if (t[j] == '(') ++depth;
      if (t[j] == ')') --depth;
      if (t[j] == ';' && depth == 0) return {i, j + 1};
    }
    return {i, t.size()};
  };
  for (std::string_view kw : {"for", "while"}) {
    for (size_t pos : FindWord(t, kw)) {
      size_t i = pos + kw.size();
      while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
        ++i;
      if (i >= t.size() || t[i] != '(') continue;
      int depth = 0;
      size_t close = std::string::npos;
      for (size_t j = i; j < t.size(); ++j) {
        if (t[j] == '(') ++depth;
        if (t[j] == ')') {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
      }
      if (close == std::string::npos) continue;
      bodies.push_back(brace_or_statement(close + 1));
    }
  }
  for (size_t pos : FindWord(t, "do")) {
    size_t i = pos + 2;
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
      ++i;
    if (i < t.size() && t[i] == '{') bodies.push_back(brace_or_statement(i));
  }
  return bodies;
}

std::vector<IterationSite> FindRowMaterializeSites(
    const JoinedCode& code, const std::set<std::string>& names) {
  std::vector<IterationSite> sites;
  if (names.empty()) return sites;
  const std::string& t = code.text;
  const std::vector<CharRange> bodies = FindLoopBodies(t);
  auto in_loop = [&](size_t offset) {
    for (const CharRange& r : bodies) {
      if (offset >= r.begin && offset < r.end) return true;
    }
    return false;
  };
  for (size_t pos : FindWord(t, "Row")) {
    if (pos + 3 >= t.size() || t[pos + 3] != '(') continue;
    size_t r = pos;
    if (r >= 1 && t[r - 1] == '.') {
      r -= 1;
    } else if (r >= 2 && t[r - 2] == '-' && t[r - 1] == '>') {
      r -= 2;
    } else {
      continue;
    }
    size_t name_end = r;
    size_t name_begin = name_end;
    while (name_begin > 0 && IsIdentChar(t[name_begin - 1])) --name_begin;
    const std::string receiver = t.substr(name_begin, name_end - name_begin);
    if (names.count(receiver) == 0) continue;
    if (!in_loop(pos)) continue;
    sites.push_back({code.LineOf(pos), receiver, "Row()"});
  }
  return sites;
}

// ---------------------------------------------------------------------------
// Per-rule scanners.
// ---------------------------------------------------------------------------
const std::map<std::string, std::set<std::string>>& LayerDag() {
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {"common"}},
      {"storage", {"storage", "common"}},
      {"exec", {"exec", "storage", "common"}},
      {"query", {"query", "exec", "storage", "common"}},
      {"sensitivity",
       {"sensitivity", "query", "exec", "storage", "common"}},
      {"server",
       {"server", "sensitivity", "query", "exec", "storage", "common"}},
      {"dp", {"dp", "sensitivity", "query", "exec", "storage", "common"}},
      {"workload",
       {"workload", "sensitivity", "query", "exec", "storage", "common"}},
  };
  return kDag;
}

// Files allowed to define the shared hash fold (rule hash-fold) and to
// read entropy/clocks (rule entropy).
bool IsHashFoldHome(const std::string& rel) {
  return rel == "src/storage/value.h" || rel == "src/common/rng.h" ||
         rel == "src/common/rng.cc";
}

bool IsEntropyHome(const std::string& rel) {
  return rel == "src/common/rng.h" || rel == "src/common/rng.cc" ||
         rel == "src/common/timer.h" || rel == "src/common/timer.cc";
}

// The well-known 64-bit mix magic constants (splitmix64 / murmur3
// fmix64 / golden ratio / xoshiro). A hex literal equal to one of these
// outside the hash-fold home files is a competing fold in the making.
const std::set<std::string>& MixMagic() {
  static const std::set<std::string> kMagic = {
      "9e3779b97f4a7c15", "9e3779b9",         "bf58476d1ce4e5b9",
      "94d049bb133111eb", "ff51afd7ed558ccd", "c4ceb9fe1a85ec53",
      "2545f4914f6cdd1d", "d1342543de82ef95",
  };
  return kMagic;
}

void ScanHashFold(const std::string& rel, const FileText& text,
                  std::vector<Finding>* findings) {
  if (IsHashFoldHome(rel)) return;
  for (size_t i = 0; i < text.code.size(); ++i) {
    const std::string& code = text.code[i];
    const int line = static_cast<int>(i) + 1;
    for (std::string_view fold : {"Mix64", "SplitMix64"}) {
      if (!FindWord(code, fold).empty()) {
        findings->push_back(
            {"hash-fold", rel, line,
             std::string(fold) +
                 " may only be referenced in common/rng and storage/value.h; "
                 "hash through HashValues/HashValueFold instead"});
      }
    }
    // Hex literals matching a known mix constant.
    size_t pos = 0;
    while ((pos = code.find("0x", pos)) != std::string::npos) {
      size_t j = pos + 2;
      std::string digits;
      while (j < code.size() &&
             std::isxdigit(static_cast<unsigned char>(code[j])) != 0) {
        digits.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(code[j]))));
        ++j;
      }
      if (MixMagic().count(digits) != 0) {
        findings->push_back(
            {"hash-fold", rel, line,
             "mix-fold magic constant 0x" + digits +
                 " outside storage/value.h — a competing hash fold would "
                 "break table-hash agreement"});
      }
      pos = j;
    }
    // Redefinition of the shared seed/fold names: the canonical name
    // directly preceded by a type keyword (or in a #define) is a
    // definition; a call or a use on the right of `=` is not.
    for (std::string_view name :
         {"kValueHashSeed", "HashValueFold", "HashValues"}) {
      for (size_t hit : FindWord(code, name)) {
        bool definition = false;
        if (Trim(code).rfind("#define", 0) == 0) {
          definition = true;
        } else {
          size_t k = hit;
          while (k > 0 &&
                 std::isspace(static_cast<unsigned char>(code[k - 1])) != 0) {
            --k;
          }
          size_t tok_end = k;
          while (k > 0 && IsIdentChar(code[k - 1])) --k;
          const std::string prev = code.substr(k, tok_end - k);
          definition = prev == "uint64_t" || prev == "size_t" ||
                       prev == "auto" || prev == "constexpr";
        }
        if (definition) {
          findings->push_back(
              {"hash-fold", rel, line,
               "redefinition of " + std::string(name) +
                   " outside storage/value.h — there is exactly one value-"
                   "hash fold"});
        }
      }
    }
  }
}

void ScanLayering(const std::string& rel, const FileText& text,
                  std::vector<Finding>* findings) {
  // rel is "src/<layer>/...".
  const std::string inner = rel.substr(4);
  const size_t slash = inner.find('/');
  if (slash == std::string::npos) return;
  const std::string layer = inner.substr(0, slash);
  const auto it = LayerDag().find(layer);
  if (it == LayerDag().end()) return;
  for (size_t i = 0; i < text.raw.size(); ++i) {
    const std::string trimmed = Trim(text.raw[i]);
    if (trimmed.rfind("#include \"", 0) != 0) continue;
    const size_t path_begin = 10;
    const size_t path_end = trimmed.find('"', path_begin);
    if (path_end == std::string::npos) continue;
    const std::string path = trimmed.substr(path_begin, path_end - path_begin);
    const size_t dir_end = path.find('/');
    if (dir_end == std::string::npos) continue;
    const std::string target = path.substr(0, dir_end);
    if (LayerDag().count(target) == 0) continue;
    if (it->second.count(target) == 0) {
      findings->push_back(
          {"layering", rel, static_cast<int>(i) + 1,
           "layer '" + layer + "' must not include '" + path +
               "': the DAG is common <- storage <- exec <- query <- "
               "sensitivity <- {server, dp, workload}"});
    }
  }
}

struct EntropyPattern {
  std::string_view ident;
  bool needs_call;  // only flag when directly followed by '('
};

void ScanEntropy(const std::string& rel, const FileText& text,
                 const std::set<int>& allowed_lines,
                 std::vector<Finding>* findings) {
  if (IsEntropyHome(rel)) return;
  static constexpr std::array<EntropyPattern, 13> kPatterns = {{
      {"rand", true},
      {"srand", true},
      {"time", true},
      {"clock", true},
      {"random_device", false},
      {"system_clock", false},
      {"steady_clock", false},
      {"high_resolution_clock", false},
      {"gettimeofday", false},
      {"clock_gettime", false},
      {"localtime", false},
      {"gmtime", false},
      {"mktime", false},
  }};
  for (size_t i = 0; i < text.code.size(); ++i) {
    const std::string& code = text.code[i];
    const int line = static_cast<int>(i) + 1;
    if (allowed_lines.count(static_cast<int>(i)) != 0) continue;
    for (const EntropyPattern& p : kPatterns) {
      for (size_t hit : FindWord(code, p.ident)) {
        if (p.needs_call) {
          size_t j = hit + p.ident.size();
          while (j < code.size() &&
                 std::isspace(static_cast<unsigned char>(code[j])) != 0) {
            ++j;
          }
          if (j >= code.size() || code[j] != '(') continue;
        }
        findings->push_back(
            {"entropy", rel, line,
             "'" + std::string(p.ident) +
                 "' outside common/rng and common/timer — all randomness "
                 "and timing must flow through seeded Rng / WallTimer so "
                 "runs replay bit-for-bit"});
      }
    }
  }
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string RelPath(const fs::path& root, const fs::path& p) {
  std::string rel = fs::relative(p, root).generic_string();
  return rel;
}

}  // namespace

Report RunLint(const fs::path& root) {
  Report report;
  const fs::path src = root / "src";
  std::vector<fs::path> files;
  if (fs::exists(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  // First pass: parse every file once; collect unordered declarations per
  // file so a .cc can see its same-stem header's members.
  std::map<std::string, FileText> texts;
  std::map<std::string, std::vector<ParsedAllow>> allows;
  std::map<std::string, std::vector<UnorderedDecl>> decls;
  for (const fs::path& p : files) {
    const std::string rel = RelPath(root, p);
    FileText text = SplitSource(ReadFile(p));
    allows[rel] = ParseAllows(text);
    const JoinedCode joined = JoinCode(text);
    decls[rel] = FindUnorderedDecls(joined);
    texts[rel] = std::move(text);
  }

  for (const fs::path& p : files) {
    const std::string rel = RelPath(root, p);
    const FileText& text = texts[rel];
    ++report.files_scanned;

    // Allow bookkeeping: audit entries, empty reasons, unknown rules, and
    // per-rule covered lines (0-based).
    std::map<std::string, std::set<int>> covered;
    for (const ParsedAllow& a : allows[rel]) {
      if (a.rule != "unordered-iter" && a.rule != "entropy" &&
          a.rule != "row-materialize") {
        report.findings.push_back(
            {"allow-reason", rel, a.line + 1,
             "rule '" + a.rule +
                 "' is not allowlistable (only unordered-iter, entropy, and "
                 "row-materialize are)"});
        continue;
      }
      if (a.reason.empty()) {
        report.findings.push_back(
            {"allow-reason", rel, a.line + 1,
             "allow(" + a.rule +
                 ") needs a reason: say why ordering/entropy/row cost cannot "
                 "leak into results or stats"});
        continue;
      }
      report.allows.push_back({a.rule, rel, a.line + 1, a.reason});
      covered[a.rule].insert(a.line);
      covered[a.rule].insert(a.covered_line);
    }

    ScanHashFold(rel, text, &report.findings);
    ScanLayering(rel, text, &report.findings);
    ScanEntropy(rel, text, covered["entropy"], &report.findings);

    // unordered-iter: declarations from this file plus, for a .cc, its
    // same-stem header (members iterated in the implementation file).
    std::vector<UnorderedDecl> scope_decls = decls[rel];
    auto mark_allowed = [](std::vector<UnorderedDecl>& ds,
                           const std::set<int>& cov) {
      for (UnorderedDecl& d : ds) {
        if (cov.count(d.line) != 0) d.allowed = true;
      }
    };
    mark_allowed(scope_decls, covered["unordered-iter"]);
    if (p.extension() == ".cc") {
      fs::path header = p;
      header.replace_extension(".h");
      const std::string hrel = RelPath(root, header);
      auto it = decls.find(hrel);
      if (it != decls.end()) {
        std::vector<UnorderedDecl> hdecls = it->second;
        std::set<int> hcov;
        for (const ParsedAllow& a : allows[hrel]) {
          if (a.rule == "unordered-iter" && !a.reason.empty()) {
            hcov.insert(a.line);
            hcov.insert(a.covered_line);
          }
        }
        mark_allowed(hdecls, hcov);
        scope_decls.insert(scope_decls.end(), hdecls.begin(), hdecls.end());
      }
    }
    std::set<std::string> names;
    std::set<std::string> allowed_names;
    for (const UnorderedDecl& d : scope_decls) {
      names.insert(d.name);
      if (d.allowed) allowed_names.insert(d.name);
    }
    const JoinedCode joined = JoinCode(text);
    for (const IterationSite& site : FindIterations(joined, names)) {
      if (allowed_names.count(site.name) != 0) continue;
      if (covered["unordered-iter"].count(site.line) != 0) continue;
      report.findings.push_back(
          {"unordered-iter", rel, site.line + 1,
           site.what + " over unordered container '" + site.name +
               "': iteration order is hash order — convert to a sorted "
               "snapshot or annotate `// lsens-lint: allow(unordered-iter) "
               "<reason>`"});
    }

    // row-materialize (advisory, exec layer only): Relation::Row() gathers
    // a fresh vector per call — inside a loop that is a per-row allocation
    // the columnar layout exists to avoid.
    if (rel.rfind("src/exec/", 0) == 0) {
      const std::set<std::string> rel_names = FindRelationDeclNames(joined);
      for (const IterationSite& site :
           FindRowMaterializeSites(joined, rel_names)) {
        if (covered["row-materialize"].count(site.line) != 0) continue;
        report.findings.push_back(
            {"row-materialize", rel, site.line + 1,
             "Relation::Row() on '" + site.name +
                 "' inside a loop materializes a row vector per iteration — "
                 "read Chunks() chunk spans or reuse a buffer via RowInto(), "
                 "or "
                 "annotate `// lsens-lint: allow(row-materialize) <reason>`"});
      }
    }
  }

  auto finding_key = [](const Finding& f) {
    return std::tie(f.file, f.line, f.rule, f.message);
  };
  std::sort(report.findings.begin(), report.findings.end(),
            [&](const Finding& a, const Finding& b) {
              return finding_key(a) < finding_key(b);
            });
  std::sort(report.allows.begin(), report.allows.end(),
            [](const Allow& a, const Allow& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  return report;
}

std::string FormatReport(const Report& report) {
  std::ostringstream out;
  out << "lsens-lint: scanned " << report.files_scanned << " file(s)\n";
  if (report.findings.empty()) {
    out << "lsens-lint: no violations\n";
  } else {
    out << "lsens-lint: " << report.findings.size() << " violation(s)\n";
    for (const Finding& f : report.findings) {
      out << "  " << f.file << ":" << f.line << ": [" << f.rule << "] "
          << f.message << "\n";
    }
  }
  out << "lsens-lint: allow audit (" << report.allows.size()
      << " annotation(s))\n";
  for (const Allow& a : report.allows) {
    out << "  " << a.file << ":" << a.line << ": allow(" << a.rule << ") "
        << a.reason << "\n";
  }
  return out.str();
}

}  // namespace lsens_lint
