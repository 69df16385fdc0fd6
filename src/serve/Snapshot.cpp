//===- Snapshot.cpp - Frozen per-function snapshots ---------------------------===//
//
// Part of the PST library (see Snapshot.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/serve/Snapshot.h"

#include <cstring>

using namespace pst;
using namespace pst::serve;

std::shared_ptr<const FunctionSnapshot>
FunctionSnapshot::freeze(const CfgView &V, const Cfg &Labels,
                         std::string_view Name, PstBuildScratch &Scratch) {
  std::vector<uint8_t> Bytes =
      buildFunctionImage(V, ProgramStructureTree::build(V, Scratch), Labels,
                         Name);
  auto S = std::make_shared<FunctionSnapshot>(Key());
  std::string Error;
  S->Img = CorpusImage::fromBytes(std::move(Bytes), &Error);
  // The bytes came straight from the builder; a mapping failure here is a
  // builder/format bug, not an input condition.
  if (!S->Img.valid())
    return nullptr;
  // The adopted view and tree alias Img's (heap-owned, stable) bytes;
  // both live exactly as long as this snapshot.
  S->View = S->Img.cfg(0);
  S->Tree = S->Img.pst(0);
  return S;
}

std::shared_ptr<const FunctionSnapshot>
FunctionSnapshot::freeze(const Cfg &G, std::string_view Name) {
  PstBuildScratch Scratch;
  return freeze(FrozenCfg(G), G, Name, Scratch);
}

bool pst::serve::snapshotMatchesFromScratch(const FunctionSnapshot &S,
                                            const Cfg &Current,
                                            std::string *Why) {
  const Cfg *Fns[1] = {&Current};
  std::string Names[1] = {std::string(S.name())};
  std::vector<uint8_t> Fresh = buildCorpusImage(Fns, Names);
  std::span<const uint8_t> Have = S.imageBytes();
  if (Fresh.size() != Have.size()) {
    if (Why)
      *Why = "snapshot image size " + std::to_string(Have.size()) +
             " != from-scratch size " + std::to_string(Fresh.size());
    return false;
  }
  if (std::memcmp(Fresh.data(), Have.data(), Fresh.size()) != 0) {
    size_t At = 0;
    while (At < Fresh.size() && Fresh[At] == Have[At])
      ++At;
    if (Why)
      *Why = "snapshot image bytes diverge from from-scratch rebuild at "
             "offset " +
             std::to_string(At);
    return false;
  }
  return true;
}
