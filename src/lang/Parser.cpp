//===- Parser.cpp - MiniLang parser --------------------------------------------===//
//
// Part of the PST library (see Lexer.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "pst/lang/Parser.h"

#include "pst/lang/Lexer.h"

#include <cassert>

using namespace pst;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Toks, std::vector<Diagnostic> *Diags)
      : Toks(std::move(Toks)), Diags(Diags) {}

  std::optional<Program> run() {
    Program P;
    while (!at(TokKind::Eof)) {
      auto F = parseFunction();
      if (!F)
        return std::nullopt;
      P.Functions.push_back(std::move(*F));
    }
    if (P.Functions.empty()) {
      error("input contains no functions");
      return std::nullopt;
    }
    return P;
  }

private:
  // -- Token plumbing ------------------------------------------------------
  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Off = 1) const {
    return Toks[std::min(Pos + Off, Toks.size() - 1)];
  }
  bool at(TokKind K) const { return cur().Kind == K; }
  Token advance() { return Toks[Pos++]; }

  bool expect(TokKind K, const char *Context) {
    if (at(K)) {
      advance();
      return true;
    }
    error(std::string("expected ") + tokKindName(K) + " " + Context +
          ", found " + tokKindName(cur().Kind));
    return false;
  }

  void error(std::string Msg) {
    if (Diags)
      Diags->push_back(Diagnostic{cur().Line, cur().Col, std::move(Msg)});
  }

  /// One level of rule recursion, held for the rule's scope. False, after
  /// a diagnostic, once the input nests deeper than MaxParseDepth.
  class DepthGuard {
  public:
    explicit DepthGuard(Parser &P) : P(P) {
      if (++P.Depth > MaxParseDepth)
        P.error("nesting exceeds the parser's depth limit of " +
                std::to_string(MaxParseDepth));
    }
    DepthGuard(const DepthGuard &) = delete;
    ~DepthGuard() { --P.Depth; }
    explicit operator bool() const { return P.Depth <= MaxParseDepth; }

  private:
    Parser &P;
  };

  // -- Grammar -------------------------------------------------------------
  std::optional<Function> parseFunction() {
    Function F;
    F.Line = cur().Line;
    if (!expect(TokKind::KwFunc, "at start of function"))
      return std::nullopt;
    if (!at(TokKind::Ident)) {
      error("expected function name after 'func'");
      return std::nullopt;
    }
    F.Name = advance().Text;
    if (!expect(TokKind::LParen, "after function name"))
      return std::nullopt;
    if (!at(TokKind::RParen)) {
      while (true) {
        if (!at(TokKind::Ident)) {
          error("expected parameter name");
          return std::nullopt;
        }
        F.Params.push_back(advance().Text);
        if (!at(TokKind::Comma))
          break;
        advance();
      }
    }
    if (!expect(TokKind::RParen, "after parameter list"))
      return std::nullopt;
    auto Body = parseBlock();
    if (!Body)
      return std::nullopt;
    F.Body = std::move(*Body);
    return F;
  }

  std::optional<StmtPtr> parseBlock() {
    uint32_t Line = cur().Line;
    if (!expect(TokKind::LBrace, "to open block"))
      return std::nullopt;
    auto B = std::make_unique<Stmt>(StmtKind::Block);
    B->Line = Line;
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::Eof)) {
        error("unterminated block; missing '}'");
        return std::nullopt;
      }
      auto S = parseStmt();
      if (!S)
        return std::nullopt;
      B->Body.push_back(std::move(*S));
    }
    advance(); // '}'.
    return B;
  }

  std::optional<StmtPtr> parseStmt() {
    DepthGuard Level(*this);
    if (!Level)
      return std::nullopt;
    uint32_t Line = cur().Line;
    switch (cur().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwVar: {
      advance();
      if (!at(TokKind::Ident)) {
        error("expected variable name after 'var'");
        return std::nullopt;
      }
      auto S = std::make_unique<Stmt>(StmtKind::VarDecl);
      S->Line = Line;
      S->Name = advance().Text;
      if (at(TokKind::Assign)) {
        advance();
        auto E = parseExpr();
        if (!E)
          return std::nullopt;
        S->Value = std::move(*E);
      }
      if (!expect(TokKind::Semi, "after variable declaration"))
        return std::nullopt;
      return S;
    }
    case TokKind::KwIf: {
      advance();
      if (!expect(TokKind::LParen, "after 'if'"))
        return std::nullopt;
      auto C = parseExpr();
      if (!C)
        return std::nullopt;
      if (!expect(TokKind::RParen, "after if condition"))
        return std::nullopt;
      auto Then = parseStmt();
      if (!Then)
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::If);
      S->Line = Line;
      S->Value = std::move(*C);
      S->Then = std::move(*Then);
      if (at(TokKind::KwElse)) {
        advance();
        auto Else = parseStmt();
        if (!Else)
          return std::nullopt;
        S->Else = std::move(*Else);
      }
      return S;
    }
    case TokKind::KwWhile: {
      advance();
      if (!expect(TokKind::LParen, "after 'while'"))
        return std::nullopt;
      auto C = parseExpr();
      if (!C)
        return std::nullopt;
      if (!expect(TokKind::RParen, "after while condition"))
        return std::nullopt;
      auto Body = parseStmt();
      if (!Body)
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::While);
      S->Line = Line;
      S->Value = std::move(*C);
      S->Then = std::move(*Body);
      return S;
    }
    case TokKind::KwDo: {
      advance();
      auto Body = parseStmt();
      if (!Body)
        return std::nullopt;
      if (!expect(TokKind::KwWhile, "after do body"))
        return std::nullopt;
      if (!expect(TokKind::LParen, "after 'while'"))
        return std::nullopt;
      auto C = parseExpr();
      if (!C)
        return std::nullopt;
      if (!expect(TokKind::RParen, "after do-while condition"))
        return std::nullopt;
      if (!expect(TokKind::Semi, "after do-while"))
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::DoWhile);
      S->Line = Line;
      S->Value = std::move(*C);
      S->Then = std::move(*Body);
      return S;
    }
    case TokKind::KwFor: {
      advance();
      if (!expect(TokKind::LParen, "after 'for'"))
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::For);
      S->Line = Line;
      if (!at(TokKind::Semi)) {
        auto Init = parsePlainAssign();
        if (!Init)
          return std::nullopt;
        S->Init = std::move(*Init);
      }
      if (!expect(TokKind::Semi, "after for initializer"))
        return std::nullopt;
      if (!at(TokKind::Semi)) {
        auto C = parseExpr();
        if (!C)
          return std::nullopt;
        S->Value = std::move(*C);
      }
      if (!expect(TokKind::Semi, "after for condition"))
        return std::nullopt;
      if (!at(TokKind::RParen)) {
        auto Step = parsePlainAssign();
        if (!Step)
          return std::nullopt;
        S->Step = std::move(*Step);
      }
      if (!expect(TokKind::RParen, "after for clauses"))
        return std::nullopt;
      auto Body = parseStmt();
      if (!Body)
        return std::nullopt;
      S->Then = std::move(*Body);
      return S;
    }
    case TokKind::KwSwitch: {
      advance();
      if (!expect(TokKind::LParen, "after 'switch'"))
        return std::nullopt;
      auto C = parseExpr();
      if (!C)
        return std::nullopt;
      if (!expect(TokKind::RParen, "after switch value"))
        return std::nullopt;
      if (!expect(TokKind::LBrace, "to open switch body"))
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::Switch);
      S->Line = Line;
      S->Value = std::move(*C);
      bool SawDefault = false;
      while (!at(TokKind::RBrace)) {
        SwitchArm Arm;
        if (at(TokKind::KwCase)) {
          advance();
          if (!at(TokKind::Number)) {
            error("expected number after 'case'");
            return std::nullopt;
          }
          Arm.HasValue = true;
          Arm.Value = advance().Value;
        } else if (at(TokKind::KwDefault)) {
          if (SawDefault) {
            error("duplicate 'default' arm");
            return std::nullopt;
          }
          SawDefault = true;
          advance();
        } else {
          error("expected 'case', 'default' or '}' in switch body");
          return std::nullopt;
        }
        if (!expect(TokKind::Colon, "after switch arm label"))
          return std::nullopt;
        while (!at(TokKind::KwCase) && !at(TokKind::KwDefault) &&
               !at(TokKind::RBrace)) {
          if (at(TokKind::Eof)) {
            error("unterminated switch body");
            return std::nullopt;
          }
          auto Inner = parseStmt();
          if (!Inner)
            return std::nullopt;
          Arm.Body.push_back(std::move(*Inner));
        }
        S->Arms.push_back(std::move(Arm));
      }
      advance(); // '}'.
      return S;
    }
    case TokKind::KwBreak: {
      advance();
      if (!expect(TokKind::Semi, "after 'break'"))
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::Break);
      S->Line = Line;
      return S;
    }
    case TokKind::KwContinue: {
      advance();
      if (!expect(TokKind::Semi, "after 'continue'"))
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::Continue);
      S->Line = Line;
      return S;
    }
    case TokKind::KwReturn: {
      advance();
      auto S = std::make_unique<Stmt>(StmtKind::Return);
      S->Line = Line;
      if (!at(TokKind::Semi)) {
        auto E = parseExpr();
        if (!E)
          return std::nullopt;
        S->Value = std::move(*E);
      }
      if (!expect(TokKind::Semi, "after 'return'"))
        return std::nullopt;
      return S;
    }
    case TokKind::KwGoto: {
      advance();
      if (!at(TokKind::Ident)) {
        error("expected label name after 'goto'");
        return std::nullopt;
      }
      auto S = std::make_unique<Stmt>(StmtKind::Goto);
      S->Line = Line;
      S->Name = advance().Text;
      if (!expect(TokKind::Semi, "after goto"))
        return std::nullopt;
      return S;
    }
    case TokKind::Ident: {
      // Label, assignment, or call-expression statement.
      if (peek().Kind == TokKind::Colon) {
        auto S = std::make_unique<Stmt>(StmtKind::Label);
        S->Line = Line;
        S->Name = advance().Text;
        advance(); // ':'.
        return S;
      }
      if (peek().Kind == TokKind::Assign) {
        auto S = parsePlainAssign();
        if (!S)
          return std::nullopt;
        if (!expect(TokKind::Semi, "after assignment"))
          return std::nullopt;
        return S;
      }
      [[fallthrough]];
    }
    default: {
      auto E = parseExpr();
      if (!E)
        return std::nullopt;
      if (!expect(TokKind::Semi, "after expression statement"))
        return std::nullopt;
      auto S = std::make_unique<Stmt>(StmtKind::ExprStmt);
      S->Line = Line;
      S->Value = std::move(*E);
      return S;
    }
    }
  }

  /// IDENT '=' expr (no trailing ';'); used by for-clauses and statements.
  std::optional<StmtPtr> parsePlainAssign() {
    if (!at(TokKind::Ident)) {
      error("expected assignment");
      return std::nullopt;
    }
    auto S = std::make_unique<Stmt>(StmtKind::Assign);
    S->Line = cur().Line;
    S->Name = advance().Text;
    if (!expect(TokKind::Assign, "in assignment"))
      return std::nullopt;
    auto E = parseExpr();
    if (!E)
      return std::nullopt;
    S->Value = std::move(*E);
    return S;
  }

  // -- Expressions (precedence climbing) -----------------------------------
  static int precedenceOf(TokKind K) {
    switch (K) {
    case TokKind::OrOr:
      return 1;
    case TokKind::AndAnd:
      return 2;
    case TokKind::EqEq:
    case TokKind::NotEq:
      return 3;
    case TokKind::Less:
    case TokKind::LessEq:
    case TokKind::Greater:
    case TokKind::GreaterEq:
      return 4;
    case TokKind::Plus:
    case TokKind::Minus:
      return 5;
    case TokKind::Star:
    case TokKind::Slash:
    case TokKind::Percent:
      return 6;
    default:
      return 0;
    }
  }

  static OpKind binOpOf(TokKind K) {
    switch (K) {
    case TokKind::OrOr:
      return OpKind::Or;
    case TokKind::AndAnd:
      return OpKind::And;
    case TokKind::EqEq:
      return OpKind::Eq;
    case TokKind::NotEq:
      return OpKind::Ne;
    case TokKind::Less:
      return OpKind::Lt;
    case TokKind::LessEq:
      return OpKind::Le;
    case TokKind::Greater:
      return OpKind::Gt;
    case TokKind::GreaterEq:
      return OpKind::Ge;
    case TokKind::Plus:
      return OpKind::Add;
    case TokKind::Minus:
      return OpKind::Sub;
    case TokKind::Star:
      return OpKind::Mul;
    case TokKind::Slash:
      return OpKind::Div;
    case TokKind::Percent:
      return OpKind::Rem;
    default:
      assert(false && "not a binary operator token");
      return OpKind::Add;
    }
  }

  std::optional<ExprPtr> parseExpr(int MinPrec = 1) {
    DepthGuard Level(*this);
    if (!Level)
      return std::nullopt;
    auto Lhs = parseUnary();
    if (!Lhs)
      return std::nullopt;
    while (true) {
      int Prec = precedenceOf(cur().Kind);
      if (Prec < MinPrec)
        return Lhs;
      Token Op = advance();
      auto Rhs = parseExpr(Prec + 1); // All operators left-associative.
      if (!Rhs)
        return std::nullopt;
      Lhs = makeBinary(binOpOf(Op.Kind), std::move(*Lhs), std::move(*Rhs),
                       Op.Line);
    }
  }

  std::optional<ExprPtr> parseUnary() {
    DepthGuard Level(*this);
    if (!Level)
      return std::nullopt;
    if (at(TokKind::Minus) || at(TokKind::Not)) {
      Token Op = advance();
      auto Operand = parseUnary();
      if (!Operand)
        return std::nullopt;
      return makeUnary(Op.Kind == TokKind::Minus ? OpKind::Neg : OpKind::Not,
                       std::move(*Operand), Op.Line);
    }
    return parsePrimary();
  }

  std::optional<ExprPtr> parsePrimary() {
    DepthGuard Level(*this);
    if (!Level)
      return std::nullopt;
    switch (cur().Kind) {
    case TokKind::Number: {
      Token T = advance();
      return makeNumber(T.Value, T.Line);
    }
    case TokKind::Ident: {
      Token T = advance();
      if (!at(TokKind::LParen))
        return makeVarRef(T.Text, T.Line);
      advance(); // '('.
      std::vector<ExprPtr> Args;
      if (!at(TokKind::RParen)) {
        while (true) {
          auto A = parseExpr();
          if (!A)
            return std::nullopt;
          Args.push_back(std::move(*A));
          if (!at(TokKind::Comma))
            break;
          advance();
        }
      }
      if (!expect(TokKind::RParen, "after call arguments"))
        return std::nullopt;
      return makeCall(T.Text, std::move(Args), T.Line);
    }
    case TokKind::LParen: {
      advance();
      auto E = parseExpr();
      if (!E)
        return std::nullopt;
      if (!expect(TokKind::RParen, "to close parenthesized expression"))
        return std::nullopt;
      return E;
    }
    default:
      error(std::string("expected expression, found ") +
            tokKindName(cur().Kind));
      return std::nullopt;
    }
  }

  std::vector<Token> Toks;
  std::vector<Diagnostic> *Diags;
  size_t Pos = 0;
  uint32_t Depth = 0;
};

} // namespace

std::optional<Program> pst::parseProgram(const std::string &Source,
                                         std::vector<Diagnostic> *Diags) {
  return Parser(lex(Source), Diags).run();
}
