//===- image/CorpusImage.cpp - Frozen mmap-able corpus images -------------===//
//
// Part of the PST library (see include/pst/image/CorpusImage.h).
//
//===----------------------------------------------------------------------===//

#include "pst/image/CorpusImage.h"

#include "pst/obs/ScopedTimer.h"
#include "pst/obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#define PST_IMAGE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PST_IMAGE_HAVE_MMAP 0
#endif

using namespace pst;
using namespace pst::image;

//===----------------------------------------------------------------------===//
// Format helpers
//===----------------------------------------------------------------------===//

const char *pst::image::sectionName(SectionKind K) {
  switch (K) {
  case SectionKind::FuncTable:
    return "FuncTable";
  case SectionKind::SuccOff:
    return "SuccOff";
  case SectionKind::PredOff:
    return "PredOff";
  case SectionKind::SuccEdge:
    return "SuccEdge";
  case SectionKind::SuccTo:
    return "SuccTo";
  case SectionKind::PredEdge:
    return "PredEdge";
  case SectionKind::PredFrom:
    return "PredFrom";
  case SectionKind::EdgeSrc:
    return "EdgeSrc";
  case SectionKind::EdgeDst:
    return "EdgeDst";
  case SectionKind::Regions:
    return "Regions";
  case SectionKind::NodeRegion:
    return "NodeRegion";
  case SectionKind::ChildOff:
    return "ChildOff";
  case SectionKind::ChildVal:
    return "ChildVal";
  case SectionKind::ImmOff:
    return "ImmOff";
  case SectionKind::ImmVal:
    return "ImmVal";
  case SectionKind::NodeLabelOff:
    return "NodeLabelOff";
  case SectionKind::StrTab:
    return "StrTab";
  case SectionKind::NumKinds:
    break;
  }
  return "<unknown>";
}

uint64_t pst::image::fnv1aUpdate(uint64_t H, const void *Data,
                                 uint64_t Bytes) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (uint64_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t pst::image::fnv1a(const void *Data, uint64_t Bytes) {
  return fnv1aUpdate(Fnv1aBasis, Data, Bytes);
}

namespace {

uint64_t alignUp(uint64_t V) {
  return (V + (SectionAlign - 1)) & ~(SectionAlign - 1);
}

/// Element size of each section's global array.
uint64_t elemSize(SectionKind K) {
  switch (K) {
  case SectionKind::FuncTable:
    return sizeof(FuncRecord);
  case SectionKind::Regions:
    return sizeof(SeseRegion);
  case SectionKind::NodeLabelOff:
    return sizeof(uint64_t);
  case SectionKind::StrTab:
    return 1;
  default:
    return sizeof(uint32_t);
  }
}

/// Bytes of each function's NUL-terminated strings: name first, then one
/// label per node, in node-id order.
uint64_t strBytes(const Cfg &G, std::string_view Name) {
  uint64_t B = Name.size() + 1;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    B += G.node(N).Label.size() + 1;
  return B;
}

/// Element base of section \p K for record \p F: the global element index
/// at which the function's slice starts. Consecutive functions occupy
/// consecutive element ranges in every section, so a chunk's slice of any
/// section is the contiguous range [recBase(first), recBase(one-past-last)).
uint64_t recBase(const FuncRecord &F, SectionKind K) {
  switch (K) {
  case SectionKind::FuncTable:
    return 0; // Not a per-function fill target (pass-1 output).
  case SectionKind::SuccOff:
  case SectionKind::PredOff:
    return F.CsrBase;
  case SectionKind::Regions:
    return F.RegionBase;
  case SectionKind::NodeRegion:
  case SectionKind::ImmVal:
  case SectionKind::NodeLabelOff:
    return F.NodeBase;
  case SectionKind::ChildOff:
  case SectionKind::ImmOff:
    return F.RegionCsrBase;
  case SectionKind::ChildVal:
    return F.ChildBase;
  case SectionKind::StrTab:
    return F.NameOff;
  default:
    return F.EdgeBase; // The six CSR edge arrays.
  }
}

/// Copies one function's arrays into per-section storage. \p Sec[K] points
/// at the byte of section K holding global element index \p Bias[K]: the
/// in-memory arena passes its section bases with zero bias, the chunk
/// writer its staging buffers with the chunk's first elements. Both
/// builders funnel through this one copy routine, so their bytes cannot
/// diverge. Destination storage must be pre-zeroed (string NULs and
/// padding are never written explicitly).
void fillFunctionSlices(uint8_t *const Sec[NumSections],
                        const uint64_t Bias[NumSections], const FuncRecord &F,
                        const Cfg &G, const CfgView &V,
                        const ProgramStructureTree &T, std::string_view Name,
                        uint64_t StrBytesExpected) {
  const uint64_t N = F.NumNodes, E = F.NumEdges, R = F.NumRegions;
  assert(V.numNodes() == N && V.numEdges() == E && T.numRegions() == R &&
         "fill disagrees with the recorded shape");
  (void)StrBytesExpected;

  // Zero-length copies are skipped entirely: an empty array's data()
  // may be null (the child table of a root-only tree, say), and memcpy
  // requires valid pointers even for zero bytes.
  auto Copy = [&](SectionKind K, uint64_t Base, uint64_t ElemBytes,
                  const void *Src, uint64_t Count) {
    if (Count == 0)
      return;
    std::memcpy(Sec[uint32_t(K)] + (Base - Bias[uint32_t(K)]) * ElemBytes,
                Src, Count * ElemBytes);
  };
  auto Copy32 = [&](SectionKind K, uint64_t Base, const uint32_t *Src,
                    uint64_t Count) { Copy(K, Base, 4, Src, Count); };
  Copy32(SectionKind::SuccOff, F.CsrBase, V.succOff(), N + 1);
  Copy32(SectionKind::PredOff, F.CsrBase, V.predOff(), N + 1);
  Copy32(SectionKind::SuccEdge, F.EdgeBase, V.succEdge(), E);
  Copy32(SectionKind::SuccTo, F.EdgeBase, V.succTo(), E);
  Copy32(SectionKind::PredEdge, F.EdgeBase, V.predEdge(), E);
  Copy32(SectionKind::PredFrom, F.EdgeBase, V.predFrom(), E);
  Copy32(SectionKind::EdgeSrc, F.EdgeBase, V.edgeSrc(), E);
  Copy32(SectionKind::EdgeDst, F.EdgeBase, V.edgeDst(), E);

  Copy(SectionKind::Regions, F.RegionBase, sizeof(SeseRegion),
       T.regionTable().data(), R);
  Copy32(SectionKind::NodeRegion, F.NodeBase, T.nodeRegionTable().data(), N);
  Copy32(SectionKind::ChildOff, F.RegionCsrBase, T.childOffTable().data(),
         R + 1);
  Copy32(SectionKind::ChildVal, F.ChildBase, T.childValTable().data(), R - 1);
  Copy32(SectionKind::ImmOff, F.RegionCsrBase, T.immOffTable().data(), R + 1);
  Copy32(SectionKind::ImmVal, F.NodeBase, T.immValTable().data(), N);

  const uint64_t StrBias = Bias[uint32_t(SectionKind::StrTab)];
  char *Str = reinterpret_cast<char *>(Sec[uint32_t(SectionKind::StrTab)]);
  uint64_t *LabelOff =
      reinterpret_cast<uint64_t *>(Sec[uint32_t(SectionKind::NodeLabelOff)]) +
      (F.NodeBase - Bias[uint32_t(SectionKind::NodeLabelOff)]);
  // `At` stays an absolute StrTab offset — the *stored* label offsets are
  // absolute regardless of where the bytes are being staged.
  uint64_t At = F.NameOff;
  auto CopyString = [&](std::string_view S) {
    if (!S.empty())
      std::memcpy(Str + (At - StrBias), S.data(), S.size());
    At += S.size() + 1; // Storage is zeroed, so the NUL is already there.
  };
  CopyString(Name);
  for (NodeId Nd = 0; Nd < N; ++Nd) {
    LabelOff[Nd] = At;
    CopyString(G.node(Nd).Label);
  }
  assert(At == F.NameOff + StrBytesExpected && "string bytes drifted");
}

} // namespace

FunctionShape pst::image::functionShape(const Cfg &G,
                                        const ProgramStructureTree &T,
                                        std::string_view Name) {
  FunctionShape S;
  S.NumNodes = G.numNodes();
  S.NumEdges = G.numEdges();
  S.NumRegions = T.numRegions();
  S.Entry = G.entry();
  S.Exit = G.exit();
  S.StrBytes = strBytes(G, Name);
  return S;
}

FuncRecord pst::image::LayoutCursor::append(const FunctionShape &S) {
  assert(S.NumRegions >= 1 && "a PST always has its synthetic root");
  FuncRecord F;
  F.NodeBase = Nodes;
  F.EdgeBase = Edges;
  F.CsrBase = Csr;
  F.RegionBase = Regions;
  F.RegionCsrBase = RegionCsr;
  F.ChildBase = Children;
  F.NameOff = Str;
  F.NumNodes = S.NumNodes;
  F.NumEdges = S.NumEdges;
  F.NumRegions = S.NumRegions;
  F.Entry = S.Entry;
  F.Exit = S.Exit;
  Nodes += S.NumNodes;
  Edges += S.NumEdges;
  Csr += uint64_t(S.NumNodes) + 1;
  Regions += S.NumRegions;
  RegionCsr += uint64_t(S.NumRegions) + 1;
  Children += S.NumRegions - 1;
  Str += S.StrBytes;
  return F;
}

void pst::image::finalizeSectionLayout(uint64_t NumFunctions,
                                       const LayoutCursor &Cur,
                                       ImageLayout &L) {
  uint64_t (&SB)[NumSections] = L.SectionBytes;
  SB[uint32_t(SectionKind::FuncTable)] = NumFunctions * sizeof(FuncRecord);
  SB[uint32_t(SectionKind::SuccOff)] = Cur.Csr * 4;
  SB[uint32_t(SectionKind::PredOff)] = Cur.Csr * 4;
  for (SectionKind K : {SectionKind::SuccEdge, SectionKind::SuccTo,
                        SectionKind::PredEdge, SectionKind::PredFrom,
                        SectionKind::EdgeSrc, SectionKind::EdgeDst})
    SB[uint32_t(K)] = Cur.Edges * 4;
  SB[uint32_t(SectionKind::Regions)] = Cur.Regions * sizeof(SeseRegion);
  SB[uint32_t(SectionKind::NodeRegion)] = Cur.Nodes * 4;
  SB[uint32_t(SectionKind::ChildOff)] = Cur.RegionCsr * 4;
  SB[uint32_t(SectionKind::ChildVal)] = Cur.Children * 4;
  SB[uint32_t(SectionKind::ImmOff)] = Cur.RegionCsr * 4;
  SB[uint32_t(SectionKind::ImmVal)] = Cur.Nodes * 4;
  SB[uint32_t(SectionKind::NodeLabelOff)] = Cur.Nodes * 8;
  SB[uint32_t(SectionKind::StrTab)] = Cur.Str;

  uint64_t Off =
      alignUp(sizeof(ImageHeader) + uint64_t(NumSections) * sizeof(SectionDesc));
  for (uint32_t K = 0; K < NumSections; ++K) {
    L.SectionOffset[K] = Off;
    Off = alignUp(Off + L.SectionBytes[K]);
  }
  L.FileBytes = Off;
}

ImageLayout
pst::image::computeCorpusLayout(std::span<const FunctionShape> Shapes) {
  ImageLayout L;
  L.Funcs.resize(Shapes.size());
  // The offset-table fixup pass: running element totals become per-function
  // bases. All accumulators are 64-bit; per-function counts are 32-bit.
  LayoutCursor Cur;
  for (size_t I = 0; I < Shapes.size(); ++I)
    L.Funcs[I] = Cur.append(Shapes[I]);
  finalizeSectionLayout(Shapes.size(), Cur, L);
  return L;
}

//===----------------------------------------------------------------------===//
// CorpusImageBuilder
//===----------------------------------------------------------------------===//

CorpusImageBuilder::CorpusImageBuilder(size_t NumFunctions)
    : Shapes(NumFunctions) {}

void CorpusImageBuilder::setShape(size_t I, const Cfg &G,
                                  const ProgramStructureTree &T,
                                  std::string_view Name) {
  assert(I < Shapes.size() && !LaidOut && "setShape after layout");
  Shapes[I] = functionShape(G, T, Name);
}

void CorpusImageBuilder::layout() {
  assert(!LaidOut && "layout runs once");
  Layout = computeCorpusLayout(Shapes);
  Arena.assign(Layout.FileBytes, 0); // Zeroed padding keeps output canonical.
  // The offset table is pure layout output; write it now so fill() only
  // touches per-function slices.
  std::memcpy(sectionData(SectionKind::FuncTable), Layout.Funcs.data(),
              Layout.Funcs.size() * sizeof(FuncRecord));
  LaidOut = true;
}

uint8_t *CorpusImageBuilder::sectionData(SectionKind K) {
  return Arena.data() + Layout.SectionOffset[uint32_t(K)];
}

void CorpusImageBuilder::fill(size_t I, const Cfg &G, const CfgView &V,
                              const ProgramStructureTree &T,
                              std::string_view Name) {
  assert(LaidOut && "fill before layout");
  uint8_t *Sec[NumSections];
  for (uint32_t K = 0; K < NumSections; ++K)
    Sec[K] = sectionData(SectionKind(K));
  static constexpr uint64_t ZeroBias[NumSections] = {};
  fillFunctionSlices(Sec, ZeroBias, Layout.Funcs[I], G, V, T, Name,
                     Shapes[I].StrBytes);
}

namespace {

/// Writes the section table (with checksums) and the header into \p Arena,
/// an in-memory image laid out by \p L with every payload filled.
void sealArena(std::vector<uint8_t> &Arena, const ImageLayout &L,
               uint64_t NumFunctions) {
  SectionDesc *Sections =
      reinterpret_cast<SectionDesc *>(Arena.data() + sizeof(ImageHeader));
  for (uint32_t K = 0; K < NumSections; ++K) {
    SectionDesc &D = Sections[K];
    D.Kind = K;
    D.Offset = L.SectionOffset[K];
    D.Bytes = L.SectionBytes[K];
    D.Checksum = fnv1a(Arena.data() + D.Offset, D.Bytes);
  }

  ImageHeader H;
  std::memcpy(H.MagicBytes, Magic, sizeof(Magic));
  H.Version = FormatVersion;
  H.Endian = EndianTag;
  H.FileBytes = L.FileBytes;
  H.NumFunctions = NumFunctions;
  H.SectionCount = NumSections;
  H.FuncRecordBytes = sizeof(FuncRecord);
  std::memcpy(Arena.data(), &H, sizeof(H));

  PST_COUNTER("image.build.images", 1);
  PST_VALUE("image.build.bytes", double(L.FileBytes));
  PST_VALUE("image.build.functions", double(NumFunctions));
}

} // namespace

std::vector<uint8_t> CorpusImageBuilder::finish() {
  assert(LaidOut && "finish before layout");
  sealArena(Arena, Layout, Layout.Funcs.size());
  return std::move(Arena);
}

//===----------------------------------------------------------------------===//
// CorpusImage
//===----------------------------------------------------------------------===//

void CorpusImage::reset() {
#if PST_IMAGE_HAVE_MMAP
  if (MapAddr)
    ::munmap(MapAddr, MapLen);
#endif
  MapAddr = nullptr;
  MapLen = 0;
  OwnedBytes.clear();
  Base = nullptr;
  Bytes = 0;
  Hdr = nullptr;
  Sections = nullptr;
  Funcs = nullptr;
}

CorpusImage::~CorpusImage() { reset(); }

CorpusImage::CorpusImage(CorpusImage &&O) noexcept { *this = std::move(O); }

CorpusImage &CorpusImage::operator=(CorpusImage &&O) noexcept {
  if (this == &O)
    return *this;
  reset();
  OwnedBytes = std::move(O.OwnedBytes);
  Base = O.Base;
  Bytes = O.Bytes;
  MapAddr = O.MapAddr;
  MapLen = O.MapLen;
  Hdr = O.Hdr;
  Sections = O.Sections;
  Funcs = O.Funcs;
  O.MapAddr = nullptr;
  O.MapLen = 0;
  O.Base = nullptr;
  O.Bytes = 0;
  O.Hdr = nullptr;
  O.Sections = nullptr;
  O.Funcs = nullptr;
  return *this;
}

namespace {

bool fail(std::string *Error, std::string Msg) {
  if (Error)
    *Error = std::move(Msg);
  return false;
}

/// The header diagnostics shared by \c CorpusImage::attach and
/// \c verifyImageFile, naming this reader's magic and version.
std::string badMagicMessage() {
  return "not a corpus image: bad magic (expected \"" +
         std::string(Magic, sizeof(Magic)) + "\")";
}
std::string sectionCountMessage(uint32_t Count) {
  return "corpus image has " + std::to_string(Count) +
         " sections; format version " + std::to_string(FormatVersion) +
         " defines " + std::to_string(NumSections);
}

} // namespace

/// Structural validation over the mapped bytes: everything that can be
/// checked without reading the array payloads. Clears the image on failure.
bool CorpusImage::attach(std::string *Error) {
  if (Bytes < sizeof(ImageHeader))
    return fail(Error, "corpus image truncated: " + std::to_string(Bytes) +
                           " bytes is smaller than the " +
                           std::to_string(sizeof(ImageHeader)) +
                           "-byte header");
  Hdr = reinterpret_cast<const ImageHeader *>(Base);
  if (std::memcmp(Hdr->MagicBytes, Magic, sizeof(Magic)) != 0)
    return fail(Error, badMagicMessage());
  if (Hdr->Endian != EndianTag) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "0x%08x", Hdr->Endian);
    return fail(Error,
                std::string("corpus image endianness mismatch: tag reads ") +
                    Buf + "; the image was written on a different-endian "
                          "host and cannot be mapped here");
  }
  if (Hdr->Version != FormatVersion)
    return fail(Error, "unsupported corpus image format version " +
                           std::to_string(Hdr->Version) +
                           " (this reader understands version " +
                           std::to_string(FormatVersion) + ")");
  if (Hdr->FuncRecordBytes != sizeof(FuncRecord))
    return fail(Error, "corpus image function records are " +
                           std::to_string(Hdr->FuncRecordBytes) +
                           " bytes; this reader expects " +
                           std::to_string(sizeof(FuncRecord)));
  if (Hdr->FileBytes != Bytes)
    return fail(Error, "corpus image truncated: file is " +
                           std::to_string(Bytes) +
                           " bytes but the header records " +
                           std::to_string(Hdr->FileBytes));
  if (Hdr->SectionCount != NumSections)
    return fail(Error, sectionCountMessage(Hdr->SectionCount));
  uint64_t TableEnd =
      sizeof(ImageHeader) + uint64_t(NumSections) * sizeof(SectionDesc);
  if (TableEnd > Bytes)
    return fail(Error, "corpus image truncated inside the section table");
  Sections = reinterpret_cast<const SectionDesc *>(Base + sizeof(ImageHeader));

  for (uint32_t K = 0; K < NumSections; ++K) {
    const SectionDesc &D = Sections[K];
    // Built only on a failure path: mapping a valid image allocates
    // nothing.
    auto Name = [K] {
      return std::string(sectionName(SectionKind(K))) + " (section " +
             std::to_string(K) + ")";
    };
    if (D.Kind != K)
      return fail(Error, "corpus image section table corrupt: slot " +
                             std::to_string(K) + " holds kind " +
                             std::to_string(D.Kind));
    if (D.Offset % SectionAlign != 0)
      return fail(Error, "corpus image section " + Name() + " is misaligned");
    if (D.Offset < TableEnd || D.Offset > Bytes || D.Bytes > Bytes - D.Offset)
      return fail(Error, "corpus image truncated: section " + Name() +
                             " extends past the end of the file");
    if (D.Bytes % elemSize(SectionKind(K)) != 0)
      return fail(Error, "corpus image section " + Name() +
                             " has a size that is not a multiple of its "
                             "element size");
  }

  auto Elems = [&](SectionKind K) {
    return Sections[uint32_t(K)].Bytes / elemSize(K);
  };
  if (Elems(SectionKind::FuncTable) != Hdr->NumFunctions)
    return fail(Error,
                "corpus image function table holds " +
                    std::to_string(Elems(SectionKind::FuncTable)) +
                    " records but the header records " +
                    std::to_string(Hdr->NumFunctions) + " functions");
  Funcs = reinterpret_cast<const FuncRecord *>(
      Base + Sections[uint32_t(SectionKind::FuncTable)].Offset);

  // Cross-section shape: the per-node, per-edge, and per-region families
  // must agree in element count.
  const uint64_t NodeElems = Elems(SectionKind::NodeRegion);
  const uint64_t EdgeElems = Elems(SectionKind::SuccEdge);
  const uint64_t CsrElems = Elems(SectionKind::SuccOff);
  const uint64_t RegionElems = Elems(SectionKind::Regions);
  const uint64_t RegionCsrElems = Elems(SectionKind::ChildOff);
  const uint64_t ChildElems = Elems(SectionKind::ChildVal);
  const uint64_t StrTabBytes = Sections[uint32_t(SectionKind::StrTab)].Bytes;
  for (SectionKind K : {SectionKind::SuccTo, SectionKind::PredEdge,
                        SectionKind::PredFrom, SectionKind::EdgeSrc,
                        SectionKind::EdgeDst})
    if (Elems(K) != EdgeElems)
      return fail(Error, std::string("corpus image per-edge sections "
                                     "disagree in size (") +
                             sectionName(K) + ")");
  if (Elems(SectionKind::PredOff) != CsrElems ||
      Elems(SectionKind::ImmOff) != RegionCsrElems ||
      Elems(SectionKind::ImmVal) != NodeElems ||
      Elems(SectionKind::NodeLabelOff) != NodeElems)
    return fail(Error, "corpus image section sizes are inconsistent");
  if (StrTabBytes > 0 && Base[Sections[uint32_t(SectionKind::StrTab)].Offset +
                              StrTabBytes - 1] != 0)
    return fail(Error, "corpus image string table is not NUL-terminated");

  // Per-function bounds: every slice must land inside its global array.
  // The walk reads every FuncRecord — 80 MB at a million functions — so on
  // a mapped image the validated record pages are dropped block by block
  // (they fault back in on demand); the walk's resident footprint stays
  // one block regardless of corpus size.
  const uint64_t BlockFns = uint64_t(1) << 16;
#if PST_IMAGE_HAVE_MMAP
  auto DropValidatedRecords = [&](uint64_t BeginFn, uint64_t EndFn) {
    if (!MapAddr)
      return;
    const uintptr_t Page = uintptr_t(::sysconf(_SC_PAGESIZE));
    const uintptr_t TabBase =
        uintptr_t(Base) + Sections[uint32_t(SectionKind::FuncTable)].Offset;
    uintptr_t Lo =
        (TabBase + BeginFn * sizeof(FuncRecord) + Page - 1) & ~(Page - 1);
    uintptr_t Hi = (TabBase + EndFn * sizeof(FuncRecord)) & ~(Page - 1);
    if (Hi > Lo)
      ::madvise(reinterpret_cast<void *>(Lo), Hi - Lo, MADV_DONTNEED);
  };
#endif
  for (uint64_t Block = 0; Block < Hdr->NumFunctions; Block += BlockFns) {
    const uint64_t BlockEnd = std::min(Hdr->NumFunctions, Block + BlockFns);
    for (uint64_t I = Block; I < BlockEnd; ++I) {
    const FuncRecord &F = Funcs[I];
    auto Bad = [&](const char *What) {
      return fail(Error, "corpus image function " + std::to_string(I) +
                             " has an out-of-bounds " + What + " slice");
    };
    if (F.NumRegions < 1)
      return fail(Error, "corpus image function " + std::to_string(I) +
                             " has no PST root region");
    if (F.NodeBase > NodeElems || F.NumNodes > NodeElems - F.NodeBase)
      return Bad("node");
    if (F.EdgeBase > EdgeElems || F.NumEdges > EdgeElems - F.EdgeBase)
      return Bad("edge");
    if (F.CsrBase > CsrElems || uint64_t(F.NumNodes) + 1 > CsrElems - F.CsrBase)
      return Bad("CSR offset");
    if (F.RegionBase > RegionElems ||
        F.NumRegions > RegionElems - F.RegionBase)
      return Bad("region");
    if (F.RegionCsrBase > RegionCsrElems ||
        uint64_t(F.NumRegions) + 1 > RegionCsrElems - F.RegionCsrBase)
      return Bad("region CSR offset");
    if (F.ChildBase > ChildElems ||
        uint64_t(F.NumRegions) - 1 > ChildElems - F.ChildBase)
      return Bad("child");
    if (F.NameOff >= StrTabBytes)
      return Bad("name");
    if (F.Entry >= F.NumNodes || F.Exit >= F.NumNodes)
      return fail(Error, "corpus image function " + std::to_string(I) +
                             " has an out-of-range entry or exit node");
    }
#if PST_IMAGE_HAVE_MMAP
    DropValidatedRecords(Block, BlockEnd);
#endif
  }

  PST_COUNTER("image.map.functions", Hdr->NumFunctions);
  PST_VALUE("image.map.bytes", double(Bytes));
  return true;
}

CorpusImage CorpusImage::map(const std::string &Path, std::string *Error) {
  PST_SPAN("image.map");
  CorpusImage Img;
#if PST_IMAGE_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    fail(Error, "cannot open corpus image '" + Path +
                    "': " + std::strerror(errno));
    return Img;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    fail(Error, "cannot stat corpus image '" + Path +
                    "': " + std::strerror(errno));
    ::close(Fd);
    return Img;
  }
  size_t Len = size_t(St.st_size);
  void *Addr = Len ? ::mmap(nullptr, Len, PROT_READ, MAP_PRIVATE, Fd, 0)
                   : nullptr;
  ::close(Fd); // The mapping keeps its own reference.
  if (Len && Addr == MAP_FAILED) {
    fail(Error, "cannot map corpus image '" + Path +
                    "': " + std::strerror(errno));
    return Img;
  }
  Img.MapAddr = Addr;
  Img.MapLen = Len;
  Img.Base = static_cast<const uint8_t *>(Addr);
  Img.Bytes = Len;
#else
  // Portability fallback: read the file into owned memory. Same validation
  // and accessor surface, no zero-copy win.
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    fail(Error, "cannot open corpus image '" + Path + "'");
    return Img;
  }
  std::vector<uint8_t> Buf((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
  Img.OwnedBytes = std::move(Buf);
  Img.Base = Img.OwnedBytes.data();
  Img.Bytes = Img.OwnedBytes.size();
#endif
  if (!Img.attach(Error))
    Img.reset();
  return Img;
}

CorpusImage CorpusImage::fromBytes(std::vector<uint8_t> Bytes,
                                   std::string *Error) {
  CorpusImage Img;
  Img.OwnedBytes = std::move(Bytes);
  Img.Base = Img.OwnedBytes.data();
  Img.Bytes = Img.OwnedBytes.size();
  if (!Img.attach(Error))
    Img.reset();
  return Img;
}

const uint8_t *CorpusImage::sectionBase(SectionKind K) const {
  return Base + Sections[uint32_t(K)].Offset;
}

bool CorpusImage::verifySection(uint32_t I) const {
  const SectionDesc &D = Sections[I];
  return fnv1a(Base + D.Offset, D.Bytes) == D.Checksum;
}

bool CorpusImage::verify(std::string *Error) const {
  PST_SPAN("image.verify");
  assert(valid() && "verify on an invalid image");
  for (uint32_t K = 0; K < Hdr->SectionCount; ++K)
    if (!verifySection(K))
      return fail(Error,
                  std::string("corpus image checksum mismatch in section ") +
                      sectionName(SectionKind(K)) + " (section " +
                      std::to_string(K) + "): the image is corrupted");
  return true;
}

void CorpusImage::release() const {
#if PST_IMAGE_HAVE_MMAP
  // Read-only MAP_PRIVATE with no dirty pages: DONTNEED just drops the
  // resident pages; later accesses refault from the page cache.
  if (MapAddr)
    ::madvise(MapAddr, MapLen, MADV_DONTNEED);
#endif
}

std::string_view CorpusImage::functionName(uint64_t I) const {
  const char *Str =
      reinterpret_cast<const char *>(sectionBase(SectionKind::StrTab));
  return Str + Funcs[I].NameOff; // NUL-terminated; checked in attach().
}

CfgView CorpusImage::cfg(uint64_t I) const {
  const FuncRecord &F = Funcs[I];
  auto At32 = [&](SectionKind K, uint64_t Base) {
    return reinterpret_cast<const uint32_t *>(sectionBase(K)) + Base;
  };
  return CfgView::adopt(
      F.NumNodes, F.NumEdges, F.Entry, F.Exit,
      At32(SectionKind::SuccOff, F.CsrBase),
      At32(SectionKind::PredOff, F.CsrBase),
      At32(SectionKind::SuccEdge, F.EdgeBase),
      At32(SectionKind::SuccTo, F.EdgeBase),
      At32(SectionKind::PredEdge, F.EdgeBase),
      At32(SectionKind::PredFrom, F.EdgeBase),
      At32(SectionKind::EdgeSrc, F.EdgeBase),
      At32(SectionKind::EdgeDst, F.EdgeBase));
}

ProgramStructureTree CorpusImage::pst(uint64_t I) const {
  const FuncRecord &F = Funcs[I];
  auto At32 = [&](SectionKind K, uint64_t Base, uint64_t Count) {
    return std::span<const uint32_t>(
        reinterpret_cast<const uint32_t *>(sectionBase(K)) + Base, Count);
  };
  std::span<const SeseRegion> Regions(
      reinterpret_cast<const SeseRegion *>(sectionBase(SectionKind::Regions)) +
          F.RegionBase,
      F.NumRegions);
  return ProgramStructureTree::adoptExternal(
      Regions, At32(SectionKind::NodeRegion, F.NodeBase, F.NumNodes),
      At32(SectionKind::ChildOff, F.RegionCsrBase, uint64_t(F.NumRegions) + 1),
      At32(SectionKind::ChildVal, F.ChildBase, uint64_t(F.NumRegions) - 1),
      At32(SectionKind::ImmOff, F.RegionCsrBase, uint64_t(F.NumRegions) + 1),
      At32(SectionKind::ImmVal, F.NodeBase, F.NumNodes));
}

Cfg CorpusImage::materializeCfg(uint64_t I) const {
  const FuncRecord &F = Funcs[I];
  const char *Str =
      reinterpret_cast<const char *>(sectionBase(SectionKind::StrTab));
  const uint64_t *LabelOff = reinterpret_cast<const uint64_t *>(
                                 sectionBase(SectionKind::NodeLabelOff)) +
                             F.NodeBase;
  const uint32_t *Src = reinterpret_cast<const uint32_t *>(
                            sectionBase(SectionKind::EdgeSrc)) +
                        F.EdgeBase;
  const uint32_t *Dst = reinterpret_cast<const uint32_t *>(
                            sectionBase(SectionKind::EdgeDst)) +
                        F.EdgeBase;
  Cfg G;
  G.reserveNodes(F.NumNodes);
  G.reserveEdges(F.NumEdges);
  for (uint32_t N = 0; N < F.NumNodes; ++N)
    G.addNode(std::string(Str + LabelOff[N]));
  // Appending in edge-id order reproduces adjacency-list order exactly:
  // Cfg construction only ever appends.
  for (uint32_t E = 0; E < F.NumEdges; ++E)
    G.addEdge(Src[E], Dst[E]);
  G.setEntry(F.Entry);
  G.setExit(F.Exit);
  return G;
}

//===----------------------------------------------------------------------===//
// Free helpers
//===----------------------------------------------------------------------===//

std::vector<uint8_t> pst::buildCorpusImage(std::span<const Cfg *const> Fns,
                                           std::span<const std::string> Names) {
  PST_SPAN("image.build");
  assert((Names.empty() || Names.size() == Fns.size()) &&
         "names must parallel functions");
  CorpusImageBuilder B(Fns.size());
  CfgViewScratch VS;
  PstBuildScratch PS;
  std::vector<ProgramStructureTree> Trees(Fns.size());
  for (size_t I = 0; I < Fns.size(); ++I) {
    CfgView V = CfgView::build(*Fns[I], VS);
    Trees[I] = ProgramStructureTree::build(V, PS);
    B.setShape(I, *Fns[I], Trees[I], Names.empty() ? "" : Names[I]);
  }
  B.layout();
  for (size_t I = 0; I < Fns.size(); ++I) {
    CfgView V = CfgView::build(*Fns[I], VS);
    B.fill(I, *Fns[I], V, Trees[I], Names.empty() ? "" : Names[I]);
  }
  return B.finish();
}

std::vector<uint8_t> pst::buildFunctionImage(const CfgView &V,
                                             const ProgramStructureTree &T,
                                             const Cfg &Labels,
                                             std::string_view Name) {
  assert(Labels.numNodes() == V.numNodes() && "labels of a different graph");
  FunctionShape Shape;
  Shape.NumNodes = V.numNodes();
  Shape.NumEdges = V.numEdges();
  Shape.NumRegions = T.numRegions();
  Shape.Entry = V.entry();
  Shape.Exit = V.exit();
  Shape.StrBytes = strBytes(Labels, Name);
  LayoutCursor Cur;
  const FuncRecord F = Cur.append(Shape);
  ImageLayout L; // L.Funcs stays empty: the one record is F.
  finalizeSectionLayout(1, Cur, L);

  std::vector<uint8_t> Arena(L.FileBytes, 0);
  uint8_t *Sec[NumSections];
  for (uint32_t K = 0; K < NumSections; ++K)
    Sec[K] = Arena.data() + L.SectionOffset[K];
  std::memcpy(Sec[uint32_t(SectionKind::FuncTable)], &F, sizeof(F));
  static constexpr uint64_t ZeroBias[NumSections] = {};
  fillFunctionSlices(Sec, ZeroBias, F, Labels, V, T, Name, Shape.StrBytes);
  sealArena(Arena, L, 1);
  return Arena;
}

bool pst::writeImageFile(const std::string &Path,
                         std::span<const uint8_t> Bytes, std::string *Error) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return fail(Error, "cannot open '" + Path + "' for writing");
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            std::streamsize(Bytes.size()));
  Out.close();
  if (!Out)
    return fail(Error, "write to '" + Path + "' failed");
  return true;
}

//===----------------------------------------------------------------------===//
// StreamImageWriter: the out-of-core builder
//===----------------------------------------------------------------------===//

namespace pst {
namespace image {

/// Thin positional-I/O file wrapper. On POSIX it is a plain fd — pread and
/// pwrite at distinct offsets are thread-safe, which is what lets chunks
/// stage and land concurrently, and writes go through the kernel page
/// cache, so dirty image bytes never count toward the process's resident
/// set. The portability fallback serializes seek+read/write on a stdio
/// stream behind a mutex.
struct ImageFile {
#if PST_IMAGE_HAVE_MMAP
  int Fd = -1;
#else
  std::FILE *Fp = nullptr;
  std::mutex M;
#endif

  static ImageFile *openWrite(const std::string &Path);
  static ImageFile *openRead(const std::string &Path);
  void close();
  bool pwriteAll(const void *Data, uint64_t Bytes, uint64_t Off);
  bool preadAll(void *Data, uint64_t Bytes, uint64_t Off);
  /// Pre-sizes the file to exactly \p Bytes; unwritten holes read as zero.
  bool presize(uint64_t Bytes);
  uint64_t size();
};

#if PST_IMAGE_HAVE_MMAP

ImageFile *ImageFile::openWrite(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return nullptr;
  auto *F = new ImageFile;
  F->Fd = Fd;
  return F;
}

ImageFile *ImageFile::openRead(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return nullptr;
  auto *F = new ImageFile;
  F->Fd = Fd;
  return F;
}

void ImageFile::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

bool ImageFile::pwriteAll(const void *Data, uint64_t Bytes, uint64_t Off) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (Bytes) {
    ssize_t N = ::pwrite(Fd, P, size_t(Bytes), off_t(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Off += uint64_t(N);
    Bytes -= uint64_t(N);
  }
  return true;
}

bool ImageFile::preadAll(void *Data, uint64_t Bytes, uint64_t Off) {
  uint8_t *P = static_cast<uint8_t *>(Data);
  while (Bytes) {
    ssize_t N = ::pread(Fd, P, size_t(Bytes), off_t(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // Unexpected EOF.
    P += N;
    Off += uint64_t(N);
    Bytes -= uint64_t(N);
  }
  return true;
}

bool ImageFile::presize(uint64_t Bytes) {
  return ::ftruncate(Fd, off_t(Bytes)) == 0;
}

uint64_t ImageFile::size() {
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return 0;
  return uint64_t(St.st_size);
}

#else // !PST_IMAGE_HAVE_MMAP

ImageFile *ImageFile::openWrite(const std::string &Path) {
  std::FILE *Fp = std::fopen(Path.c_str(), "wb+");
  if (!Fp)
    return nullptr;
  auto *F = new ImageFile;
  F->Fp = Fp;
  return F;
}

ImageFile *ImageFile::openRead(const std::string &Path) {
  std::FILE *Fp = std::fopen(Path.c_str(), "rb");
  if (!Fp)
    return nullptr;
  auto *F = new ImageFile;
  F->Fp = Fp;
  return F;
}

void ImageFile::close() {
  if (Fp)
    std::fclose(Fp);
  Fp = nullptr;
}

bool ImageFile::pwriteAll(const void *Data, uint64_t Bytes, uint64_t Off) {
  std::lock_guard<std::mutex> Lock(M);
  if (std::fseek(Fp, long(Off), SEEK_SET) != 0)
    return false;
  return std::fwrite(Data, 1, size_t(Bytes), Fp) == Bytes;
}

bool ImageFile::preadAll(void *Data, uint64_t Bytes, uint64_t Off) {
  std::lock_guard<std::mutex> Lock(M);
  std::fflush(Fp); // Positioning between write and read is required.
  if (std::fseek(Fp, long(Off), SEEK_SET) != 0)
    return false;
  return std::fread(Data, 1, size_t(Bytes), Fp) == Bytes;
}

bool ImageFile::presize(uint64_t Bytes) {
  if (Bytes == 0)
    return true;
  std::lock_guard<std::mutex> Lock(M);
  // Writing the last byte extends the file; the gap reads back as zero.
  if (std::fseek(Fp, long(Bytes - 1), SEEK_SET) != 0)
    return false;
  return std::fputc(0, Fp) == 0;
}

uint64_t ImageFile::size() {
  std::lock_guard<std::mutex> Lock(M);
  if (std::fseek(Fp, 0, SEEK_END) != 0)
    return 0;
  long N = std::ftell(Fp);
  return N < 0 ? 0 : uint64_t(N);
}

#endif // PST_IMAGE_HAVE_MMAP

} // namespace image
} // namespace pst

namespace {

/// FuncTable is the first section, so its file offset is fixed by the
/// header + section-table size alone — which is what lets pass 1 stream
/// FuncRecords into the file before the rest of the layout exists.
uint64_t funcTableOffset() {
  return alignUp(sizeof(ImageHeader) +
                 uint64_t(NumSections) * sizeof(SectionDesc));
}

/// Pass-1 write-behind granularity: 4096 records = 320 KiB.
constexpr size_t RecBufCap = 4096;
/// Bounded buffer for finish()/verifyImageFile() streaming reads.
constexpr uint64_t IoWindow = 8ull << 20;

/// Closes and frees an ImageFile on scope exit.
struct FileCloser {
  ImageFile *F;
  ~FileCloser() {
    if (F) {
      F->close();
      delete F;
    }
  }
};

} // namespace

StreamImageWriter::StreamImageWriter(std::string P, uint64_t NumFunctions)
    : Path(std::move(P)), NumFuncs(NumFunctions) {
  File = ImageFile::openWrite(Path);
  RecBuf.reserve(size_t(std::min<uint64_t>(NumFuncs, RecBufCap)));
}

StreamImageWriter::~StreamImageWriter() {
  if (File) {
    File->close();
    delete File;
    File = nullptr;
  }
}

bool StreamImageWriter::flushRecords(std::string *Error) {
  if (RecBuf.empty())
    return true;
  const uint64_t Off = funcTableOffset() + RecsFlushed * sizeof(FuncRecord);
  if (!File->pwriteAll(RecBuf.data(), RecBuf.size() * sizeof(FuncRecord), Off))
    return fail(Error, "write to '" + Path + "' failed: " +
                           std::strerror(errno));
  RecsFlushed += RecBuf.size();
  RecBuf.clear();
  return true;
}

bool StreamImageWriter::addShape(const image::FunctionShape &S,
                                 std::string *Error) {
  if (!File)
    return fail(Error, "stream image writer for '" + Path + "' is not open");
  assert(!Filling && "addShape after beginFill");
  assert(Added < NumFuncs && "more shapes than declared functions");
  RecBuf.push_back(Cursor.append(S));
  ++Added;
  if (RecBuf.size() >= RecBufCap)
    return flushRecords(Error);
  return true;
}

bool StreamImageWriter::addShape(const Cfg &G, const ProgramStructureTree &T,
                                 std::string_view Name, std::string *Error) {
  return addShape(functionShape(G, T, Name), Error);
}

bool StreamImageWriter::beginFill(std::string *Error) {
  if (!File)
    return fail(Error, "stream image writer for '" + Path + "' is not open");
  assert(!Filling && "beginFill runs once");
  if (Added != NumFuncs)
    return fail(Error, "stream image shape pass saw " + std::to_string(Added) +
                           " functions but " + std::to_string(NumFuncs) +
                           " were declared");
  PST_SPAN("image.stream.layout");
  if (!flushRecords(Error))
    return false;
  finalizeSectionLayout(NumFuncs, Cursor, Layout);
  assert(Layout.SectionOffset[uint32_t(SectionKind::FuncTable)] ==
             funcTableOffset() &&
         "FuncTable moved; pass-1 records landed at the wrong offset");
  // Pre-size the whole file: unwritten holes read back as zero, which is
  // exactly the in-memory arena's zeroed padding.
  if (!File->presize(Layout.FileBytes))
    return fail(Error, "cannot pre-size '" + Path + "' to " +
                           std::to_string(Layout.FileBytes) +
                           " bytes: " + std::strerror(errno));
  PST_VALUE("image.stream.bytes", double(Layout.FileBytes));
  PST_VALUE("image.stream.functions", double(NumFuncs));
  Filling = true;
  return true;
}

bool StreamImageWriter::beginChunk(ChunkScratch &CS, uint64_t Begin,
                                   uint64_t Count, std::string *Error) const {
  assert(Filling && "beginChunk before beginFill");
  assert(Begin + Count <= NumFuncs && "chunk out of range");
  CS.Begin = Begin;
  CS.Count = Count;
  CS.Recs.resize(size_t(Count) + 1);
  // The chunk's records plus one lookahead: the sentinel's bases are the
  // chunk's end elements. The tail chunk synthesizes it from the totals.
  const uint64_t Lookahead = (Begin + Count < NumFuncs) ? Count + 1 : Count;
  if (Lookahead &&
      !File->preadAll(CS.Recs.data(), Lookahead * sizeof(FuncRecord),
                      funcTableOffset() + Begin * sizeof(FuncRecord)))
    return fail(Error,
                "read of '" + Path + "' function records failed");
  if (Lookahead == Count) {
    FuncRecord &End = CS.Recs[size_t(Count)];
    End = FuncRecord();
    End.NodeBase = Cursor.Nodes;
    End.EdgeBase = Cursor.Edges;
    End.CsrBase = Cursor.Csr;
    End.RegionBase = Cursor.Regions;
    End.RegionCsrBase = Cursor.RegionCsr;
    End.ChildBase = Cursor.Children;
    End.NameOff = Cursor.Str;
  }
  const FuncRecord &First = CS.Recs.front();
  const FuncRecord &End = CS.Recs[size_t(Count)];
  for (uint32_t K = 0; K < NumSections; ++K) {
    if (K == uint32_t(SectionKind::FuncTable)) {
      CS.Buf[K].clear(); // Records are pass-1 output, not chunk payload.
      continue;
    }
    const uint64_t Elems =
        recBase(End, SectionKind(K)) - recBase(First, SectionKind(K));
    // assign() zeroes: staged NULs/padding match the zeroed arena.
    CS.Buf[K].assign(size_t(Elems * elemSize(SectionKind(K))), 0);
  }
  return true;
}

void StreamImageWriter::fill(ChunkScratch &CS, uint64_t I, const Cfg &G,
                             const CfgView &V, const ProgramStructureTree &T,
                             std::string_view Name) const {
  assert(Filling && "fill before beginFill");
  assert(I >= CS.Begin && I < CS.Begin + CS.Count && "function outside chunk");
  const FuncRecord &F = CS.Recs[size_t(I - CS.Begin)];
  uint8_t *Sec[NumSections];
  uint64_t Bias[NumSections];
  for (uint32_t K = 0; K < NumSections; ++K) {
    Sec[K] = CS.Buf[K].data();
    Bias[K] = recBase(CS.Recs.front(), SectionKind(K));
  }
  fillFunctionSlices(Sec, Bias, F, G, V, T, Name,
                     CS.Recs[size_t(I - CS.Begin) + 1].NameOff - F.NameOff);
}

bool StreamImageWriter::endChunk(ChunkScratch &CS, std::string *Error) const {
  assert(Filling && "endChunk before beginFill");
  PST_SPAN("image.stream.fill");
  uint64_t Bytes = 0;
  const FuncRecord &First = CS.Recs.front();
  for (uint32_t K = 0; K < NumSections; ++K) {
    if (CS.Buf[K].empty())
      continue;
    const uint64_t Off =
        Layout.SectionOffset[K] +
        recBase(First, SectionKind(K)) * elemSize(SectionKind(K));
    if (!File->pwriteAll(CS.Buf[K].data(), CS.Buf[K].size(), Off))
      return fail(Error, "write to '" + Path + "' failed: " +
                             std::strerror(errno));
    Bytes += CS.Buf[K].size();
  }
  PST_COUNTER("image.stream.chunks", 1);
  PST_COUNTER("image.stream.chunk_functions", CS.Count);
  PST_COUNTER("image.stream.chunk_bytes", Bytes);
  return true;
}

bool StreamImageWriter::finish(std::string *Error) {
  if (!File)
    return fail(Error, "stream image writer for '" + Path + "' is not open");
  assert(Filling && "finish before beginFill");
  PST_SPAN("image.stream.finish");

  // One bounded-window read back over the file computes the section
  // checksums; FNV-1a is sequential, so windows chain exactly.
  std::vector<SectionDesc> Sections(NumSections);
  std::vector<uint8_t> Window(IoWindow);
  for (uint32_t K = 0; K < NumSections; ++K) {
    SectionDesc &D = Sections[K];
    D.Kind = K;
    D.Offset = Layout.SectionOffset[K];
    D.Bytes = Layout.SectionBytes[K];
    uint64_t Sum = Fnv1aBasis;
    for (uint64_t At = 0; At < D.Bytes;) {
      const uint64_t N = std::min<uint64_t>(IoWindow, D.Bytes - At);
      if (!File->preadAll(Window.data(), N, D.Offset + At))
        return fail(Error, "read back of '" + Path + "' failed");
      Sum = fnv1aUpdate(Sum, Window.data(), N);
      At += N;
    }
    D.Checksum = Sum;
  }

  ImageHeader H;
  std::memcpy(H.MagicBytes, Magic, sizeof(Magic));
  H.Version = FormatVersion;
  H.Endian = EndianTag;
  H.FileBytes = Layout.FileBytes;
  H.NumFunctions = NumFuncs;
  H.SectionCount = NumSections;
  H.FuncRecordBytes = sizeof(FuncRecord);
  if (!File->pwriteAll(&H, sizeof(H), 0) ||
      !File->pwriteAll(Sections.data(),
                       Sections.size() * sizeof(SectionDesc),
                       sizeof(ImageHeader)))
    return fail(Error, "write to '" + Path + "' failed: " +
                           std::strerror(errno));
  File->close();
  delete File;
  File = nullptr;
  PST_COUNTER("image.stream.images", 1);
  return true;
}

bool pst::verifyImageFile(const std::string &Path, std::string *Error) {
  PST_SPAN("image.stream.verify");
  ImageFile *File = ImageFile::openRead(Path);
  if (!File)
    return fail(Error, "cannot open corpus image '" + Path +
                           "': " + std::strerror(errno));
  FileCloser Guard{File};

  const uint64_t Actual = File->size();
  ImageHeader H;
  if (Actual < sizeof(H) || !File->preadAll(&H, sizeof(H), 0))
    return fail(Error, "corpus image truncated: " + std::to_string(Actual) +
                           " bytes is smaller than the " +
                           std::to_string(sizeof(H)) + "-byte header");
  if (std::memcmp(H.MagicBytes, Magic, sizeof(Magic)) != 0)
    return fail(Error, badMagicMessage());
  if (H.Endian != EndianTag)
    return fail(Error, "corpus image endianness mismatch: the image was "
                       "written on a different-endian host");
  if (H.Version != FormatVersion)
    return fail(Error, "unsupported corpus image format version " +
                           std::to_string(H.Version) +
                           " (this reader understands version " +
                           std::to_string(FormatVersion) + ")");
  if (H.FuncRecordBytes != sizeof(FuncRecord))
    return fail(Error, "corpus image function records are " +
                           std::to_string(H.FuncRecordBytes) +
                           " bytes; this reader expects " +
                           std::to_string(sizeof(FuncRecord)));
  if (H.FileBytes != Actual)
    return fail(Error, "corpus image truncated: file is " +
                           std::to_string(Actual) +
                           " bytes but the header records " +
                           std::to_string(H.FileBytes));
  if (H.SectionCount != NumSections)
    return fail(Error, sectionCountMessage(H.SectionCount));

  const uint64_t TableEnd =
      sizeof(ImageHeader) + uint64_t(NumSections) * sizeof(SectionDesc);
  std::vector<SectionDesc> Sections(NumSections);
  if (TableEnd > Actual ||
      !File->preadAll(Sections.data(), NumSections * sizeof(SectionDesc),
                      sizeof(ImageHeader)))
    return fail(Error, "corpus image truncated inside the section table");

  std::vector<uint8_t> Window(IoWindow);
  for (uint32_t K = 0; K < NumSections; ++K) {
    const SectionDesc &D = Sections[K];
    std::string Name = std::string(sectionName(SectionKind(K))) +
                       " (section " + std::to_string(K) + ")";
    if (D.Kind != K)
      return fail(Error, "corpus image section table corrupt: slot " +
                             std::to_string(K) + " holds kind " +
                             std::to_string(D.Kind));
    if (D.Offset < TableEnd || D.Offset > Actual ||
        D.Bytes > Actual - D.Offset)
      return fail(Error, "corpus image truncated: section " + Name +
                             " extends past the end of the file");
    uint64_t Sum = Fnv1aBasis;
    for (uint64_t At = 0; At < D.Bytes;) {
      const uint64_t N = std::min<uint64_t>(IoWindow, D.Bytes - At);
      if (!File->preadAll(Window.data(), N, D.Offset + At))
        return fail(Error, "read of corpus image '" + Path + "' failed");
      Sum = fnv1aUpdate(Sum, Window.data(), N);
      At += N;
    }
    if (Sum != D.Checksum)
      return fail(Error, "corpus image checksum mismatch in section " + Name +
                             ": the image is corrupted");
  }
  return true;
}
