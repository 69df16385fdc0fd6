//===- pst/graph/CfgIO.h - CFG (de)serialization ----------------*- C++ -*-===//
//
// Part of the PST library (see Cfg.h for the project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graphviz dumping and a line-oriented textual format for CFGs.
///
/// The textual format:
/// \code
///   cfg <name>
///   node <label> [entry|exit]
///   ...
///   edge <srcLabel> <dstLabel>
///   ...
///   end
/// \endcode
/// Labels must be unique, whitespace-free and declared before use. Blank
/// lines and lines whose first token starts with '#' are skipped anywhere;
/// a line may hold nothing past the tokens shown, and nothing but skipped
/// lines may follow \c end.
///
//===----------------------------------------------------------------------===//

#ifndef PST_GRAPH_CFGIO_H
#define PST_GRAPH_CFGIO_H

#include "pst/graph/Cfg.h"

#include <iosfwd>
#include <optional>
#include <string>

namespace pst {

/// Writes \p G as a Graphviz digraph to \p OS. Entry is drawn as a house,
/// exit as an inverted house.
void printDot(const Cfg &G, std::ostream &OS, const std::string &Name = "cfg");

/// Writes \p G in the textual format to \p OS.
void printCfgText(const Cfg &G, std::ostream &OS,
                  const std::string &Name = "cfg");

/// Parses one CFG from \p IS, which it reads to the end.
/// \returns the graph, or std::nullopt on malformed input (with a
/// line-numbered diagnostic in \p *Error if non-null).
std::optional<Cfg> parseCfgText(std::istream &IS,
                                std::string *Error = nullptr);

/// Parses one CFG from a string (convenience overload for tests).
std::optional<Cfg> parseCfgText(const std::string &Text,
                                std::string *Error = nullptr);

} // namespace pst

#endif // PST_GRAPH_CFGIO_H
