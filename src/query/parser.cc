#include "query/parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::query {

namespace {

enum class TokKind {
  kIdent,
  kNumber,
  kString,
  kOp,     // = != <> < <= > >=
  kLParen,
  kRParen,
  kComma,
  kDot,
  kStar,
  kSemicolon,
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  double num = 0.0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  common::StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < sql_.size()) {
      const char c = sql_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < sql_.size() &&
                  std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])) &&
                  NumberMayFollow(out))) {
        QFCARD_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
      } else if (c == '\'') {
        QFCARD_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
      } else {
        QFCARD_ASSIGN_OR_RETURN(Token t, LexSymbol());
        out.push_back(std::move(t));
      }
    }
    out.push_back(Token{TokKind::kEnd, "", 0.0});
    return out;
  }

 private:
  // A leading '-' starts a number only where a value is expected, i.e. after
  // a comparison operator, '(' or ','.
  static bool NumberMayFollow(const std::vector<Token>& toks) {
    if (toks.empty()) return false;
    const TokKind k = toks.back().kind;
    return k == TokKind::kOp || k == TokKind::kLParen || k == TokKind::kComma;
  }

  Token LexIdent() {
    const size_t start = pos_;
    while (pos_ < sql_.size() &&
           (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
            sql_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokKind::kIdent, std::string(sql_.substr(start, pos_ - start)),
                 0.0};
  }

  common::StatusOr<Token> LexNumber() {
    const size_t start = pos_;
    if (sql_[pos_] == '-') ++pos_;
    bool seen_dot = false;
    bool seen_exp = false;
    while (pos_ < sql_.size()) {
      const char c = sql_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !seen_dot && !seen_exp) {
        seen_dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && !seen_exp) {
        seen_exp = true;
        ++pos_;
        if (pos_ < sql_.size() && (sql_[pos_] == '+' || sql_[pos_] == '-')) ++pos_;
      } else {
        break;
      }
    }
    const std::string text(sql_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(v)) {
      return common::Status::InvalidArgument(
          common::StrFormat("bad number literal '%s'", text.c_str()));
    }
    return Token{TokKind::kNumber, text, v};
  }

  common::StatusOr<Token> LexString() {
    ++pos_;  // consume opening quote
    std::string value;
    while (pos_ < sql_.size() && sql_[pos_] != '\'') {
      value += sql_[pos_++];
    }
    if (pos_ >= sql_.size()) {
      return common::Status::InvalidArgument("unterminated string literal");
    }
    ++pos_;  // closing quote
    return Token{TokKind::kString, std::move(value), 0.0};
  }

  common::StatusOr<Token> LexSymbol() {
    const char c = sql_[pos_];
    const char next = pos_ + 1 < sql_.size() ? sql_[pos_ + 1] : '\0';
    switch (c) {
      case '(':
        ++pos_;
        return Token{TokKind::kLParen, "(", 0.0};
      case ')':
        ++pos_;
        return Token{TokKind::kRParen, ")", 0.0};
      case ',':
        ++pos_;
        return Token{TokKind::kComma, ",", 0.0};
      case '.':
        ++pos_;
        return Token{TokKind::kDot, ".", 0.0};
      case '*':
        ++pos_;
        return Token{TokKind::kStar, "*", 0.0};
      case ';':
        ++pos_;
        return Token{TokKind::kSemicolon, ";", 0.0};
      case '=':
        ++pos_;
        return Token{TokKind::kOp, "=", 0.0};
      case '!':
        if (next == '=') {
          pos_ += 2;
          return Token{TokKind::kOp, "!=", 0.0};
        }
        break;
      case '<':
        if (next == '=') {
          pos_ += 2;
          return Token{TokKind::kOp, "<=", 0.0};
        }
        if (next == '>') {
          pos_ += 2;
          return Token{TokKind::kOp, "<>", 0.0};
        }
        ++pos_;
        return Token{TokKind::kOp, "<", 0.0};
      case '>':
        if (next == '=') {
          pos_ += 2;
          return Token{TokKind::kOp, ">=", 0.0};
        }
        ++pos_;
        return Token{TokKind::kOp, ">", 0.0};
      default:
        break;
    }
    return common::Status::InvalidArgument(
        common::StrFormat("unexpected character '%c'", c));
  }

  std::string_view sql_;
  size_t pos_ = 0;
};

common::StatusOr<CmpOp> OpFromText(const std::string& text) {
  if (text == "=") return CmpOp::kEq;
  if (text == "!=" || text == "<>") return CmpOp::kNe;
  if (text == "<") return CmpOp::kLt;
  if (text == "<=") return CmpOp::kLe;
  if (text == ">") return CmpOp::kGt;
  if (text == ">=") return CmpOp::kGe;
  return common::Status::InvalidArgument(
      common::StrFormat("unknown operator '%s'", text.c_str()));
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  common::StatusOr<RawQuery> Parse() {
    RawQuery q;
    QFCARD_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    QFCARD_RETURN_IF_ERROR(ExpectKeyword("COUNT"));
    QFCARD_RETURN_IF_ERROR(Expect(TokKind::kLParen));
    QFCARD_RETURN_IF_ERROR(Expect(TokKind::kStar));
    QFCARD_RETURN_IF_ERROR(Expect(TokKind::kRParen));
    QFCARD_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    QFCARD_ASSIGN_OR_RETURN(q.tables, ParseTableList());
    if (PeekKeyword("WHERE")) {
      Advance();
      QFCARD_ASSIGN_OR_RETURN(q.where, ParseOrExpr());
      q.has_where = true;
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      QFCARD_RETURN_IF_ERROR(ExpectKeyword("BY"));
      QFCARD_ASSIGN_OR_RETURN(q.group_by, ParseColumnList());
    }
    if (Peek().kind == TokKind::kSemicolon) Advance();
    if (Peek().kind != TokKind::kEnd) {
      return common::Status::InvalidArgument(common::StrFormat(
          "trailing tokens starting at '%s'", Peek().text.c_str()));
    }
    return q;
  }

 private:
  const Token& Peek(size_t off = 0) const {
    const size_t i = std::min(pos_ + off, toks_.size() - 1);
    return toks_[i];
  }
  void Advance() { if (pos_ + 1 < toks_.size()) ++pos_; }

  bool PeekKeyword(const char* kw) const {
    return Peek().kind == TokKind::kIdent &&
           common::EqualsIgnoreCase(Peek().text, kw);
  }

  common::Status ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      return common::Status::InvalidArgument(common::StrFormat(
          "expected keyword '%s', found '%s'", kw, Peek().text.c_str()));
    }
    Advance();
    return common::Status::Ok();
  }

  common::Status Expect(TokKind kind) {
    if (Peek().kind != kind) {
      return common::Status::InvalidArgument(
          common::StrFormat("unexpected token '%s'", Peek().text.c_str()));
    }
    Advance();
    return common::Status::Ok();
  }

  static bool IsReserved(const std::string& s) {
    return common::EqualsIgnoreCase(s, "WHERE") ||
           common::EqualsIgnoreCase(s, "GROUP") ||
           common::EqualsIgnoreCase(s, "AND") ||
           common::EqualsIgnoreCase(s, "OR") ||
           common::EqualsIgnoreCase(s, "AS") ||
           common::EqualsIgnoreCase(s, "BY");
  }

  common::StatusOr<std::vector<TableRef>> ParseTableList() {
    std::vector<TableRef> tables;
    while (true) {
      if (Peek().kind != TokKind::kIdent) {
        return common::Status::InvalidArgument("expected table name");
      }
      TableRef ref;
      ref.name = Peek().text;
      ref.alias = ref.name;
      Advance();
      if (PeekKeyword("AS")) {
        Advance();
        if (Peek().kind != TokKind::kIdent) {
          return common::Status::InvalidArgument("expected alias after AS");
        }
        ref.alias = Peek().text;
        Advance();
      } else if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().text)) {
        ref.alias = Peek().text;
        Advance();
      }
      tables.push_back(std::move(ref));
      if (Peek().kind == TokKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    return tables;
  }

  common::StatusOr<std::string> ParseColumnRef() {
    if (Peek().kind != TokKind::kIdent) {
      return common::Status::InvalidArgument(common::StrFormat(
          "expected column reference, found '%s'", Peek().text.c_str()));
    }
    std::string name = Peek().text;
    Advance();
    if (Peek().kind == TokKind::kDot) {
      Advance();
      if (Peek().kind != TokKind::kIdent) {
        return common::Status::InvalidArgument("expected column after '.'");
      }
      name += ".";
      name += Peek().text;
      Advance();
    }
    return name;
  }

  common::StatusOr<std::vector<std::string>> ParseColumnList() {
    std::vector<std::string> cols;
    while (true) {
      QFCARD_ASSIGN_OR_RETURN(std::string c, ParseColumnRef());
      cols.push_back(std::move(c));
      if (Peek().kind == TokKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    return cols;
  }

  common::StatusOr<BoolExpr> ParseOrExpr() {
    QFCARD_ASSIGN_OR_RETURN(BoolExpr first, ParseAndExpr());
    if (!PeekKeyword("OR")) return first;
    BoolExpr node;
    node.kind = BoolExpr::Kind::kOr;
    node.children.push_back(std::move(first));
    while (PeekKeyword("OR")) {
      Advance();
      QFCARD_ASSIGN_OR_RETURN(BoolExpr next, ParseAndExpr());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  common::StatusOr<BoolExpr> ParseAndExpr() {
    QFCARD_ASSIGN_OR_RETURN(BoolExpr first, ParsePrimary());
    if (!PeekKeyword("AND")) return first;
    BoolExpr node;
    node.kind = BoolExpr::Kind::kAnd;
    node.children.push_back(std::move(first));
    while (PeekKeyword("AND")) {
      Advance();
      QFCARD_ASSIGN_OR_RETURN(BoolExpr next, ParsePrimary());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  common::StatusOr<BoolExpr> ParsePrimary() {
    if (Peek().kind == TokKind::kLParen) {
      Advance();
      QFCARD_ASSIGN_OR_RETURN(BoolExpr inner, ParseOrExpr());
      QFCARD_RETURN_IF_ERROR(Expect(TokKind::kRParen));
      return inner;
    }
    return ParseComparison();
  }

  common::StatusOr<BoolExpr> ParseComparison() {
    QFCARD_ASSIGN_OR_RETURN(std::string lhs, ParseColumnRef());
    if (PeekKeyword("LIKE")) {
      Advance();
      if (Peek().kind != TokKind::kString) {
        return common::Status::InvalidArgument(
            "expected string pattern after LIKE");
      }
      BoolExpr node;
      node.kind = BoolExpr::Kind::kLeaf;
      node.leaf.column = std::move(lhs);
      node.leaf.is_string = true;
      node.leaf.is_like = true;
      node.leaf.str = Peek().text;
      Advance();
      return node;
    }
    if (Peek().kind != TokKind::kOp) {
      return common::Status::InvalidArgument(common::StrFormat(
          "expected comparison operator, found '%s'", Peek().text.c_str()));
    }
    QFCARD_ASSIGN_OR_RETURN(const CmpOp op, OpFromText(Peek().text));
    Advance();

    BoolExpr node;
    if (Peek().kind == TokKind::kIdent) {
      // Column-to-column comparison: equi-join predicate.
      if (op != CmpOp::kEq) {
        return common::Status::Unimplemented(
            "only equality joins are supported");
      }
      QFCARD_ASSIGN_OR_RETURN(std::string rhs, ParseColumnRef());
      node.kind = BoolExpr::Kind::kJoin;
      node.join.left = std::move(lhs);
      node.join.right = std::move(rhs);
      return node;
    }
    node.kind = BoolExpr::Kind::kLeaf;
    node.leaf.column = std::move(lhs);
    node.leaf.op = op;
    if (Peek().kind == TokKind::kNumber) {
      node.leaf.is_string = false;
      node.leaf.num = Peek().num;
      Advance();
      return node;
    }
    if (Peek().kind == TokKind::kString) {
      node.leaf.is_string = true;
      node.leaf.str = Peek().text;
      Advance();
      return node;
    }
    return common::Status::InvalidArgument(common::StrFormat(
        "expected literal, found '%s'", Peek().text.c_str()));
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

common::StatusOr<RawQuery> ParseSql(std::string_view sql) {
  obs::TraceSpan span("parse.sql");
  obs::ScopedTimer timer("parse.sql_seconds");
  obs::IncrementCounter("parse.queries");
  Lexer lexer(sql);
  QFCARD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  common::StatusOr<RawQuery> parsed = parser.Parse();
  if (!parsed.ok()) obs::IncrementCounter("parse.errors");
  return parsed;
}

}  // namespace qfcard::query
