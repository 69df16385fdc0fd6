//===- pst/lang/Parser.h - MiniLang parser ----------------------*- C++ -*-===//
//
// Part of the PST library (see Lexer.h for the project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniLang.
///
/// Grammar sketch:
/// \code
///   program  := function*
///   function := 'func' IDENT '(' [IDENT (',' IDENT)*] ')' block
///   block    := '{' stmt* '}'
///   stmt     := 'var' IDENT ['=' expr] ';' | IDENT '=' expr ';'
///             | IDENT ':' | 'goto' IDENT ';' | expr ';'
///             | 'if' '(' expr ')' stmt ['else' stmt]
///             | 'while' '(' expr ')' stmt
///             | 'do' stmt 'while' '(' expr ')' ';'
///             | 'for' '(' [assign] ';' [expr] ';' [assign] ')' stmt
///             | 'switch' '(' expr ')' '{' arm* '}'
///             | 'break' ';' | 'continue' ';' | 'return' [expr] ';'
///             | block
///   arm      := ('case' NUMBER | 'default') ':' stmt*
///   expr     := precedence climbing over || && == != < <= > >= + - * / %
///               with unary - !, calls and parentheses
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PST_LANG_PARSER_H
#define PST_LANG_PARSER_H

#include "pst/lang/Ast.h"

#include <optional>
#include <string>
#include <vector>

namespace pst {

/// One parse or lowering diagnostic, tool-style ("expected ';' after...").
struct Diagnostic {
  uint32_t Line = 0, Col = 0;
  std::string Message;

  std::string str() const {
    return "line " + std::to_string(Line) + ":" + std::to_string(Col) +
           ": error: " + Message;
  }
};

/// The deepest nesting the parser accepts, counted as the recursion depth of
/// its statement and expression rules (each of \c stmt, \c expr, unary
/// and primary expressions is one level). Deeper input is rejected with a
/// diagnostic naming the limit. The bound also bounds the AST's depth, so
/// every recursive pass over it (lowering, destruction) stays within a
/// small stack.
inline constexpr uint32_t MaxParseDepth = 1000;

/// Parses a whole compilation unit. Returns std::nullopt and at least one
/// diagnostic on malformed input.
std::optional<Program> parseProgram(const std::string &Source,
                                    std::vector<Diagnostic> *Diags = nullptr);

} // namespace pst

#endif // PST_LANG_PARSER_H
