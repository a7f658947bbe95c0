#include "query/parser.h"

#include <cctype>
#include <charconv>
#include <string>
#include <vector>

namespace lsens {

namespace {

// Minimal recursive-descent scanner over the rule text.
class Scanner {
 public:
  // Positions in error messages are offsets into `text`.
  explicit Scanner(std::string_view text, size_t pos = 0)
      : text_(text), pos_(pos) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  // [A-Za-z_][A-Za-z0-9_]*
  StatusOr<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start ||
        std::isdigit(static_cast<unsigned char>(text_[start]))) {
      return Error("expected identifier");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  StatusOr<Value> Integer() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) return Error("expected integer");
    // std::from_chars accepts '-' but not '+'.
    const char* begin = text_.data() + start + (text_[start] == '+' ? 1 : 0);
    Value value = 0;
    if (std::from_chars(begin, text_.data() + pos_, value).ec != std::errc()) {
      pos_ = start;
      return Error("integer literal out of int64 range");
    }
    return value;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at position " +
                                   std::to_string(pos_));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<std::vector<std::string>> ParseVarList(Scanner& scan) {
  if (!scan.Consume("(")) return scan.Error("expected '('");
  std::vector<std::string> vars;
  for (;;) {
    auto ident = scan.Ident();
    if (!ident.ok()) return ident.status();
    vars.push_back(*ident);
    if (scan.Consume(")")) break;
    if (!scan.Consume(",")) return scan.Error("expected ',' or ')'");
  }
  return vars;
}

}  // namespace

StatusOr<ConjunctiveQuery> ParseQuery(std::string_view text, Database& db) {
  Scanner scan(text);
  ConjunctiveQuery query;

  // Optional head before ":-".
  std::vector<std::string> head_vars;
  {
    size_t turnstile = text.find(":-");
    if (turnstile == std::string_view::npos) {
      return Status::InvalidArgument("rule needs ':-'");
    }
    std::string_view head = text.substr(0, turnstile);
    bool head_is_blank = true;
    for (char c : head) {
      head_is_blank =
          head_is_blank && std::isspace(static_cast<unsigned char>(c));
    }
    if (!head_is_blank) {
      Scanner head_scan(head);
      auto name = head_scan.Ident();
      if (!name.ok()) return name.status();
      auto vars = ParseVarList(head_scan);
      if (!vars.ok()) return vars.status();
      head_vars = *vars;
      if (!head_scan.AtEnd()) {
        return head_scan.Error("unexpected trailing text in head");
      }
    }
    scan = Scanner(text, turnstile + 2);
  }

  struct PendingPredicate {
    std::string var;
    Predicate::Op op;
    Value rhs;
  };
  std::vector<PendingPredicate> predicates;

  for (;;) {
    auto ident = scan.Ident();
    if (!ident.ok()) return ident.status();
    if (scan.Peek() == '(') {
      auto vars = ParseVarList(scan);
      if (!vars.ok()) return vars.status();
      Atom atom;
      atom.relation = *ident;
      for (const auto& v : *vars) atom.vars.push_back(db.attrs().Intern(v));
      query.AddAtom(std::move(atom));
    } else {
      // Comparison predicate: ident op integer.
      Predicate::Op op;
      if (scan.Consume("!=")) {
        op = Predicate::Op::kNe;
      } else if (scan.Consume("<=")) {
        op = Predicate::Op::kLe;
      } else if (scan.Consume(">=")) {
        op = Predicate::Op::kGe;
      } else if (scan.Consume("<")) {
        op = Predicate::Op::kLt;
      } else if (scan.Consume(">")) {
        op = Predicate::Op::kGt;
      } else if (scan.Consume("=")) {
        op = Predicate::Op::kEq;
      } else {
        return scan.Error("expected '(' or a comparison operator");
      }
      auto rhs = scan.Integer();
      if (!rhs.ok()) return rhs.status();
      predicates.push_back({*ident, op, *rhs});
    }
    if (scan.AtEnd()) break;
    if (!scan.Consume(",")) return scan.Error("expected ',' between atoms");
  }

  // Attach predicates to the first atom binding the variable.
  for (const auto& pending : predicates) {
    AttrId var = db.attrs().Lookup(pending.var);
    int target = -1;
    for (int i = 0; i < query.num_atoms() && target == -1; ++i) {
      if (Contains(query.atom(i).VarSet(), var)) target = i;
    }
    if (var == kInvalidAttr || target == -1) {
      return Status::InvalidArgument("predicate variable '" + pending.var +
                                     "' is not bound by any atom");
    }
    Predicate p;
    p.var = var;
    p.op = pending.op;
    p.rhs = pending.rhs;
    query.AddPredicate(target, p);
  }

  // Full CQs carry every variable in the head; verify if one was given.
  if (!head_vars.empty()) {
    AttributeSet declared;
    for (const auto& v : head_vars) {
      AttrId id = db.attrs().Lookup(v);
      if (id == kInvalidAttr) {
        return Status::InvalidArgument("head variable '" + v +
                                       "' does not appear in the body");
      }
      declared.push_back(id);
    }
    declared = MakeAttributeSet(std::move(declared));
    if (declared != query.AllVars()) {
      return Status::Unsupported(
          "head must list exactly the body variables (full CQs have no "
          "projection)");
    }
  }
  LSENS_RETURN_IF_ERROR(query.Validate(db));
  return query;
}

}  // namespace lsens
