#include "workload/sql.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "workload/building_blocks.h"

namespace hdmm {
namespace {

// --- Tokenizer ---------------------------------------------------------------

enum class TokenType {
  kIdentifier,  // attribute names, keywords (keyword-ness decided later)
  kInteger,
  kSymbol,  // one of: , ( ) * = != < <= > >=
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;     // Original spelling (upper-cased for identifiers).
  std::string raw;      // Original spelling, case preserved.
  int64_t value = 0;    // For kInteger.
  size_t offset = 0;    // Byte offset, for error messages.
};

std::string UpperCase(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

Status Tokenize(const std::string& sql, std::vector<Token>* out) {
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[j])) ||
              sql[j] == '_')) {
        ++j;
      }
      tok.type = TokenType::kIdentifier;
      tok.raw = sql.substr(i, j - i);
      tok.text = UpperCase(tok.raw);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < sql.size() &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i + 1;
      while (j < sql.size() && std::isdigit(static_cast<unsigned char>(sql[j])))
        ++j;
      tok.type = TokenType::kInteger;
      tok.raw = sql.substr(i, j - i);
      tok.text = tok.raw;
      tok.value = std::strtoll(tok.raw.c_str(), nullptr, 10);
      i = j;
    } else if (c == '<' || c == '>' || c == '!') {
      size_t j = i + 1;
      if (j < sql.size() && sql[j] == '=') ++j;
      tok.type = TokenType::kSymbol;
      tok.raw = sql.substr(i, j - i);
      tok.text = tok.raw;
      if (tok.text == "!") {
        return Status::InvalidArgument("offset " + std::to_string(i) +
                                       ": stray '!'");
      }
      i = j;
    } else if (c == ',' || c == '(' || c == ')' || c == '*' || c == '=') {
      tok.type = TokenType::kSymbol;
      tok.raw = std::string(1, c);
      tok.text = tok.raw;
      ++i;
    } else {
      return Status::InvalidArgument("offset " + std::to_string(i) +
                                     ": unexpected character '" +
                                     std::string(1, c) + "'");
    }
    out->push_back(std::move(tok));
  }
  Token end;
  end.offset = sql.size();
  out->push_back(end);
  return Status::Ok();
}

// --- Parser ------------------------------------------------------------------

class SqlParser {
 public:
  SqlParser(std::vector<Token> tokens, const Domain& domain)
      : tokens_(std::move(tokens)), domain_(domain) {}

  /// On false, error() holds the offset-anchored message.
  bool Parse(ProductWorkload* out) {
    // Per-attribute predicate masks; empty = unconstrained.
    masks_.assign(static_cast<size_t>(domain_.NumAttributes()), Vector());
    group_by_.assign(static_cast<size_t>(domain_.NumAttributes()), false);
    select_attrs_.clear();

    if (!ExpectKeyword("SELECT")) return false;
    if (!ParseSelectList()) return false;
    if (!ExpectKeyword("FROM")) return false;
    if (Current().type != TokenType::kIdentifier) {
      return Fail("expected a relation name after FROM");
    }
    Advance();  // Relation name is decorative; the Domain is the schema.

    if (MatchKeyword("WHERE")) {
      if (!ParsePredicate()) return false;
      while (MatchKeyword("AND")) {
        if (!ParsePredicate()) return false;
      }
    }
    if (MatchKeyword("GROUP")) {
      if (!ExpectKeyword("BY")) return false;
      if (!ParseGroupByList()) return false;
    }
    if (Current().type != TokenType::kEnd) {
      return Fail("unexpected trailing token '" + Current().raw + "'");
    }

    // Every non-COUNT select item must be grouped (standard SQL semantics,
    // and what makes the product interpretation of Example 3 correct).
    for (int attr : select_attrs_) {
      if (!group_by_[static_cast<size_t>(attr)]) {
        return Fail("selected attribute '" + domain_.AttributeName(attr) +
                    "' is not in GROUP BY");
      }
    }

    return BuildProduct(out);
  }

  const std::string& error() const { return error_; }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  bool Fail(const std::string& message) {
    error_ = "offset " + std::to_string(Current().offset) + ": " + message;
    return false;
  }

  bool MatchKeyword(const char* kw) {
    if (Current().type == TokenType::kIdentifier && Current().text == kw) {
      Advance();
      return true;
    }
    return false;
  }

  bool ExpectKeyword(const char* kw) {
    if (MatchKeyword(kw)) return true;
    return Fail(std::string("expected ") + kw);
  }

  bool MatchSymbol(const char* sym) {
    if (Current().type == TokenType::kSymbol && Current().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  bool ExpectSymbol(const char* sym) {
    if (MatchSymbol(sym)) return true;
    return Fail(std::string("expected '") + sym + "'");
  }

  // Resolves the current identifier token as a domain attribute.
  bool ParseAttribute(int* attr) {
    if (Current().type != TokenType::kIdentifier) {
      return Fail("expected an attribute name");
    }
    const std::string& name = Current().raw;
    for (int i = 0; i < domain_.NumAttributes(); ++i) {
      if (domain_.AttributeName(i) == name) {
        *attr = i;
        Advance();
        return true;
      }
    }
    return Fail("unknown attribute '" + name + "'");
  }

  // select_list := (attr ,)* COUNT ( * )  — attributes may precede COUNT(*).
  bool ParseSelectList() {
    while (true) {
      if (MatchKeyword("COUNT")) {
        if (!ExpectSymbol("(")) return false;
        if (!ExpectSymbol("*")) return false;
        if (!ExpectSymbol(")")) return false;
        return true;  // COUNT(*) terminates the select list.
      }
      int attr;
      if (!ParseAttribute(&attr)) return false;
      select_attrs_.push_back(attr);
      if (!ExpectSymbol(",")) {
        error_ += " (the select list must end with COUNT(*))";
        return false;
      }
    }
  }

  bool ParseGroupByList() {
    do {
      int attr;
      if (!ParseAttribute(&attr)) return false;
      group_by_[static_cast<size_t>(attr)] = true;
    } while (MatchSymbol(","));
    return true;
  }

  Vector& MaskFor(int attr) {
    Vector& mask = masks_[static_cast<size_t>(attr)];
    if (mask.empty()) {
      mask.assign(static_cast<size_t>(domain_.AttributeSize(attr)), 1.0);
    }
    return mask;
  }

  bool ExpectInteger(int64_t* value) {
    if (Current().type != TokenType::kInteger) {
      return Fail("expected an integer constant");
    }
    *value = Current().value;
    Advance();
    return true;
  }

  bool CheckInDomain(int attr, int64_t v) {
    if (v < 0 || v >= domain_.AttributeSize(attr)) {
      return Fail("constant " + std::to_string(v) + " outside dom(" +
                  domain_.AttributeName(attr) + ") = [0, " +
                  std::to_string(domain_.AttributeSize(attr)) + ")");
    }
    return true;
  }

  // predicate := attr op int | attr BETWEEN int AND int | attr IN (int, ...)
  bool ParsePredicate() {
    int attr;
    if (!ParseAttribute(&attr)) return false;
    const int64_t n = domain_.AttributeSize(attr);
    Vector pred(static_cast<size_t>(n), 0.0);

    if (MatchKeyword("BETWEEN")) {
      int64_t lo = 0, hi = 0;
      if (!ExpectInteger(&lo)) return false;
      if (!ExpectKeyword("AND")) return false;
      if (!ExpectInteger(&hi)) return false;
      if (!CheckInDomain(attr, lo) || !CheckInDomain(attr, hi)) return false;
      if (hi < lo) return Fail("BETWEEN bounds out of order");
      for (int64_t v = lo; v <= hi; ++v) pred[static_cast<size_t>(v)] = 1.0;
    } else if (MatchKeyword("IN")) {
      if (!ExpectSymbol("(")) return false;
      do {
        int64_t v = 0;
        if (!ExpectInteger(&v)) return false;
        if (!CheckInDomain(attr, v)) return false;
        pred[static_cast<size_t>(v)] = 1.0;
      } while (MatchSymbol(","));
      if (!ExpectSymbol(")")) return false;
    } else if (Current().type == TokenType::kSymbol) {
      const std::string op = Current().text;
      if (op != "=" && op != "!=" && op != "<" && op != "<=" && op != ">" &&
          op != ">=") {
        return Fail("expected a comparison operator");
      }
      Advance();
      int64_t c = 0;
      if (!ExpectInteger(&c)) return false;
      // Out-of-domain constants in inequalities are allowed (they just
      // saturate); equality against them is an error.
      if ((op == "=" || op == "!=") && !CheckInDomain(attr, c)) return false;
      for (int64_t v = 0; v < n; ++v) {
        bool keep = false;
        if (op == "=") keep = (v == c);
        else if (op == "!=") keep = (v != c);
        else if (op == "<") keep = (v < c);
        else if (op == "<=") keep = (v <= c);
        else if (op == ">") keep = (v > c);
        else keep = (v >= c);
        if (keep) pred[static_cast<size_t>(v)] = 1.0;
      }
    } else {
      return Fail("expected a comparison operator, BETWEEN, or IN");
    }

    Vector& mask = MaskFor(attr);
    for (size_t v = 0; v < mask.size(); ++v) mask[v] *= pred[v];
    return true;
  }

  bool BuildProduct(ProductWorkload* out) {
    out->factors.clear();
    out->weight = 1.0;
    for (int attr = 0; attr < domain_.NumAttributes(); ++attr) {
      const int64_t n = domain_.AttributeSize(attr);
      const Vector& mask = masks_[static_cast<size_t>(attr)];
      const bool grouped = group_by_[static_cast<size_t>(attr)];
      const bool constrained = !mask.empty();

      if (constrained) {
        double selected = 0.0;
        for (double v : mask) selected += v;
        if (selected == 0.0) {
          pos_ = tokens_.size() - 1;  // Anchor the error at end of statement.
          return Fail("contradictory predicates eliminate attribute '" +
                      domain_.AttributeName(attr) + "'");
        }
      }

      if (grouped && !constrained) {
        out->factors.push_back(IdentityBlock(n));
      } else if (grouped) {
        // One group per surviving value: the rows of Identity restricted to
        // the mask (Example 3 with a WHERE condition on a grouped column).
        int64_t rows = 0;
        for (double v : mask) rows += (v != 0.0) ? 1 : 0;
        Matrix block(rows, n);
        int64_t r = 0;
        for (int64_t v = 0; v < n; ++v) {
          if (mask[static_cast<size_t>(v)] != 0.0) block(r++, v) = 1.0;
        }
        out->factors.push_back(std::move(block));
      } else if (constrained) {
        Matrix block(1, n);
        for (int64_t v = 0; v < n; ++v) block(0, v) = mask[static_cast<size_t>(v)];
        out->factors.push_back(std::move(block));
      } else {
        out->factors.push_back(TotalBlock(n));
      }
    }
    return true;
  }

  std::vector<Token> tokens_;
  const Domain& domain_;
  size_t pos_ = 0;
  std::string error_;

  std::vector<Vector> masks_;
  std::vector<bool> group_by_;
  std::vector<int> select_attrs_;
};

}  // namespace

StatusOr<ProductWorkload> ParseSqlQuery(const std::string& sql,
                                        const Domain& domain) {
  std::vector<Token> tokens;
  HDMM_RETURN_IF_ERROR(Tokenize(sql, &tokens));
  SqlParser parser(std::move(tokens), domain);
  ProductWorkload out;
  if (!parser.Parse(&out)) return Status::InvalidArgument(parser.error());
  return out;
}

StatusOr<UnionWorkload> ParseSqlWorkload(const std::string& script,
                                         const Domain& domain) {
  UnionWorkload result(domain);
  size_t start = 0;
  int statement_no = 0;
  while (start <= script.size()) {
    size_t semi = script.find(';', start);
    const std::string stmt = script.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    start = (semi == std::string::npos) ? script.size() + 1 : semi + 1;

    bool blank = true;
    for (char c : stmt) {
      if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
    }
    if (blank) continue;

    ++statement_no;
    StatusOr<ProductWorkload> p = ParseSqlQuery(stmt, domain);
    if (!p.ok()) {
      return p.status().Annotated("statement " + std::to_string(statement_no));
    }
    result.AddProduct(std::move(p).value());
  }
  if (result.NumProducts() == 0) {
    return Status::InvalidArgument("script contains no statements");
  }
  return result;
}

}  // namespace hdmm
