//===- pst/image/CorpusImage.h - Frozen mmap-able corpus images -*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One contiguous, serializable arena holding the frozen CSR CFGs *and*
/// PSTs of a whole corpus, so cold start is an mmap instead of a
/// parse+lower+build pass over every function.
///
/// PR 5's \c CfgView proved that "build adjacency once, run everything on
/// flat arrays" wins; the corpus image takes the same idea process-wide,
/// following Kremlin's MemMapPool/MemMapAllocator idiom of pooled
/// mmap-backed allocation. Every per-function array of the pipeline's two
/// frozen products — the eight \c CfgView CSR arrays and the PST's
/// Regions/NodeRegion/ChildOff/ChildVal/ImmOff/ImmVal — is concatenated
/// into one shared global array, and a per-function offset table records
/// where each function's slices start.
/// Names and node labels ride along in a string table so mapped functions
/// print identically to freshly parsed ones.
///
/// On-disk format (version 2), all fields little-endian on little-endian
/// hosts (an endianness tag rejects foreign images):
///
///   ImageHeader                     magic, version, endian tag, sizes
///   SectionDesc[NumSections]        kind, 64-bit offset/size, checksum
///   section payloads                each 8-byte aligned in the file
///
/// Section offsets and sizes are 64-bit and every section starts 8-byte
/// aligned, so million-function corpora with >4 GiB arrays are
/// representable (the layout pass is pure arithmetic and unit-tested past
/// the 32-bit boundary without materializing data). Per-section FNV-1a
/// checksums make corruption detectable without re-deriving anything.
///
/// Mapping contract: \c CorpusImage::map validates structure (header,
/// section table, per-function bounds) but does not touch the array
/// payloads; \c verify() additionally checks every section checksum.
/// \c cfg(i) / \c pst(i) return non-owning views (\c CfgView /
/// \c ProgramStructureTree::adoptExternal) directly over the mapped bytes
/// — zero parse, zero copy, zero allocation — valid only while the image
/// is alive and unmoved. Every analysis overload that takes
/// \c const CfgView& or \c const ProgramStructureTree& runs on them
/// unmodified.
///
//===----------------------------------------------------------------------===//

#ifndef PST_IMAGE_CORPUSIMAGE_H
#define PST_IMAGE_CORPUSIMAGE_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/graph/Cfg.h"
#include "pst/graph/CfgView.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pst {
namespace image {

/// First 8 bytes of every corpus image ("PSTIMG" + two format digits).
inline constexpr char Magic[8] = {'P', 'S', 'T', 'I', 'M', 'G', '0', '2'};
/// Bumped on any layout change; readers reject other versions. Version 2
/// dropped version 1's three per-edge PST sections (EdgeRegion, EntryOf,
/// ExitOf), which the tree now derives from NodeRegion and Regions.
inline constexpr uint32_t FormatVersion = 2;
/// Written as the native byte order; reads as 0x04030201 on a
/// different-endian host, which is rejected (images are a same-arch cold
/// start artifact, not an interchange format).
inline constexpr uint32_t EndianTag = 0x01020304;
/// Every section payload starts at a file offset that is a multiple of
/// this, so mapped u64 arrays are naturally aligned.
inline constexpr uint64_t SectionAlign = 8;

/// The sections of a version-2 image, in file order. Per-function slices
/// are element ranges inside these shared global arrays.
enum class SectionKind : uint32_t {
  FuncTable = 0, ///< FuncRecord per function (the offset table).
  SuccOff,       ///< u32; per function N+1 local CSR offsets.
  PredOff,       ///< u32; per function N+1 local CSR offsets.
  SuccEdge,      ///< u32 (EdgeId); per function E entries.
  SuccTo,        ///< u32 (NodeId); per function E entries.
  PredEdge,      ///< u32 (EdgeId); per function E entries.
  PredFrom,      ///< u32 (NodeId); per function E entries.
  EdgeSrc,       ///< u32 (NodeId); per function E entries.
  EdgeDst,       ///< u32 (NodeId); per function E entries.
  Regions,       ///< SeseRegion (16 bytes); per function R entries.
  NodeRegion,    ///< u32 (RegionId); per function N entries.
  ChildOff,      ///< u32; per function R+1 local CSR offsets.
  ChildVal,      ///< u32 (RegionId); per function R-1 entries.
  ImmOff,        ///< u32; per function R+1 local CSR offsets.
  ImmVal,        ///< u32 (NodeId); per function N entries.
  NodeLabelOff,  ///< u64 byte offset into StrTab, per node.
  StrTab,        ///< NUL-terminated names and labels.
  NumKinds
};

inline constexpr uint32_t NumSections =
    static_cast<uint32_t>(SectionKind::NumKinds);

/// Human-readable section name ("SuccEdge", ...), for diagnostics and
/// `pstool --image-info`.
const char *sectionName(SectionKind K);

/// Fixed-size file header. Trivially copyable; written/read by memcpy.
struct ImageHeader {
  char MagicBytes[8];
  uint32_t Version = 0;
  uint32_t Endian = 0;
  uint64_t FileBytes = 0;    ///< Total file size; truncation check.
  uint64_t NumFunctions = 0;
  uint32_t SectionCount = 0;
  uint32_t FuncRecordBytes = 0; ///< sizeof(FuncRecord) layout guard.
  uint64_t Reserved = 0;
};
static_assert(sizeof(ImageHeader) == 48, "header layout is part of the format");

/// One section-table entry.
struct SectionDesc {
  uint32_t Kind = 0;
  uint32_t Reserved = 0;
  uint64_t Offset = 0;   ///< File byte offset; multiple of SectionAlign.
  uint64_t Bytes = 0;    ///< Payload byte size (unpadded).
  uint64_t Checksum = 0; ///< FNV-1a 64 over the payload bytes.
};
static_assert(sizeof(SectionDesc) == 32, "section table layout is fixed");

/// Per-function row of the offset table: element bases into the shared
/// global arrays plus the function's scalar facts. All bases are 64-bit so
/// corpora whose concatenated arrays pass 4 Gi elements stay representable.
struct FuncRecord {
  uint64_t NodeBase = 0;      ///< Into NodeRegion/ImmVal/NodeLabelOff.
  uint64_t EdgeBase = 0;      ///< Into the six CSR edge arrays.
  uint64_t CsrBase = 0;       ///< Into SuccOff/PredOff ((N+1)-sized rows).
  uint64_t RegionBase = 0;    ///< Into Regions.
  uint64_t RegionCsrBase = 0; ///< Into ChildOff/ImmOff ((R+1)-sized rows).
  uint64_t ChildBase = 0;     ///< Into ChildVal ((R-1)-sized rows).
  uint64_t NameOff = 0;       ///< Byte offset of the NUL-terminated name in StrTab.
  uint32_t NumNodes = 0;
  uint32_t NumEdges = 0;
  uint32_t NumRegions = 0;
  uint32_t Entry = 0;
  uint32_t Exit = 0;
  uint32_t Reserved = 0;
};
static_assert(sizeof(FuncRecord) == 80, "offset table layout is fixed");
static_assert(sizeof(SeseRegion) == 16 &&
                  std::is_trivially_copyable_v<SeseRegion>,
              "SeseRegion is serialized by memcpy");

/// FNV-1a 64-bit over \p Bytes bytes — the per-section checksum.
uint64_t fnv1a(const void *Data, uint64_t Bytes);

/// Incremental FNV-1a: folds \p Bytes more bytes into running state \p H.
/// Seed with \c Fnv1aBasis; chaining updates over consecutive windows
/// equals one fnv1a over the concatenation, which is what lets the
/// out-of-core builder and \c verifyImageFile checksum multi-gigabyte
/// sections through a bounded buffer.
inline constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;
uint64_t fnv1aUpdate(uint64_t H, const void *Data, uint64_t Bytes);

/// What the layout pass needs to know about one function.
struct FunctionShape {
  uint32_t NumNodes = 0;
  uint32_t NumEdges = 0;
  uint32_t NumRegions = 0;
  uint32_t Entry = 0;
  uint32_t Exit = 0;
  /// Bytes this function contributes to StrTab: name + NUL plus one
  /// NUL-terminated label per node.
  uint64_t StrBytes = 0;
};

/// The computed file layout: the per-function offset table plus where each
/// section lands in the file. Pure arithmetic over \c FunctionShape — no
/// arrays are materialized, which is what makes >4 GiB layouts unit-testable.
struct ImageLayout {
  std::vector<FuncRecord> Funcs;
  /// Payload byte size per section, indexed by SectionKind.
  uint64_t SectionBytes[NumSections] = {};
  /// File byte offset per section, each a multiple of SectionAlign.
  uint64_t SectionOffset[NumSections] = {};
  uint64_t FileBytes = 0;
};

/// The one offset-table fixup pass: prefix sums over the shapes, then the
/// section table (header + section descriptors + aligned payloads).
ImageLayout computeCorpusLayout(std::span<const FunctionShape> Shapes);

/// Computes one function's layout facts. \p T must be the PST of \p G.
/// Both the in-memory builder's setShape and the streaming writer reduce
/// to this, so the two paths cannot disagree about a function's shape.
FunctionShape functionShape(const Cfg &G, const ProgramStructureTree &T,
                            std::string_view Name = {});

/// The running prefix sums of the layout pass. append() folds one shape
/// in and returns its finished FuncRecord; the final totals are the
/// global element counts every section's byte size derives from.
/// computeCorpusLayout consumes shapes through this cursor and the
/// out-of-core StreamImageWriter feeds it one shape at a time — same
/// arithmetic, so a streamed offset table is the materialized one byte
/// for byte at any chunk size.
struct LayoutCursor {
  uint64_t Nodes = 0;     ///< Elements of NodeRegion/ImmVal/NodeLabelOff.
  uint64_t Edges = 0;     ///< Elements of the six CSR edge arrays.
  uint64_t Csr = 0;       ///< Elements of SuccOff/PredOff.
  uint64_t Regions = 0;   ///< Elements of Regions.
  uint64_t RegionCsr = 0; ///< Elements of ChildOff/ImmOff.
  uint64_t Children = 0;  ///< Elements of ChildVal.
  uint64_t Str = 0;       ///< Bytes of StrTab.

  FuncRecord append(const FunctionShape &S);
};

/// Fills \p L's SectionBytes/SectionOffset/FileBytes from the cursor's
/// final totals (L.Funcs is left alone — streamed layouts never hold the
/// offset table in memory). Second half of computeCorpusLayout.
void finalizeSectionLayout(uint64_t NumFunctions, const LayoutCursor &Cur,
                           ImageLayout &L);

} // namespace image

/// Builds a corpus image arena in three phases so a thread pool can fan
/// out the per-function work (BatchAnalyzer::buildImage does; the serial
/// \c buildCorpusImage below drives the same phases inline):
///
///   1. setShape(I, ...)  per function, any thread, distinct I
///   2. layout()          serial: the offset-table fixup pass
///   3. fill(I, ...)      per function, any thread, distinct I
///      finish()          serial: checksums + header; yields the bytes
///
/// Distinct functions write disjoint arena ranges, so phases 1 and 3 need
/// no synchronization beyond the caller's fork/join.
class CorpusImageBuilder {
public:
  explicit CorpusImageBuilder(size_t NumFunctions);

  /// Records function \p I's shape (counts, entry/exit, string bytes).
  /// \p T must be the PST of \p G.
  void setShape(size_t I, const Cfg &G, const ProgramStructureTree &T,
                std::string_view Name = {});

  /// Computes the global layout from the recorded shapes and allocates the
  /// arena. Must run after every setShape and before any fill.
  void layout();

  /// Copies function \p I's arrays into its arena slices. \p V must be a
  /// view of \p G and \p T its PST; \p Name must match setShape's.
  void fill(size_t I, const Cfg &G, const CfgView &V,
            const ProgramStructureTree &T, std::string_view Name = {});

  /// Computes section checksums, writes header and section table, and
  /// returns the complete image bytes. The builder is spent afterwards.
  std::vector<uint8_t> finish();

  const image::ImageLayout &imageLayout() const { return Layout; }

private:
  uint8_t *sectionData(image::SectionKind K);

  std::vector<image::FunctionShape> Shapes;
  image::ImageLayout Layout;
  std::vector<uint8_t> Arena;
  bool LaidOut = false;
};

namespace image {
/// Opaque platform file handle (POSIX fd, or a locked stdio stream where
/// positional I/O is unavailable). Defined in the .cpp.
struct ImageFile;
} // namespace image

/// Out-of-core twin of \c CorpusImageBuilder: builds a corpus image
/// directly into a pre-sized file instead of a heap arena, so peak RSS is
/// proportional to one chunk of functions, never to the corpus.
///
///   pass 1:  addShape() per function, strictly in index order. Each
///            shape's FuncRecord falls out of the running prefix sums
///            (\c image::LayoutCursor) and is written straight into the
///            file's FuncTable section — whose offset is known before any
///            layout, because FuncTable is the first section and header +
///            section table have fixed size. beginFill() then fixes the
///            section table arithmetically from the final totals and
///            pre-sizes the file (unwritten holes read back as zero,
///            which is exactly the in-memory arena's zeroed padding).
///   pass 2:  re-stream the corpus in chunks. beginChunk() reads the
///            chunk's FuncRecords back from the file and sizes zeroed
///            staging buffers — within any section, a run of consecutive
///            functions occupies one contiguous byte range. fill() copies
///            one function into the staging slices (distinct functions of
///            the same chunk may fill concurrently; their slices are
///            disjoint). endChunk() issues one positional write per
///            section. Distinct chunks with distinct scratch may also be
///            in flight concurrently.
///   finish(): re-reads the file through a bounded window to compute the
///            section checksums, then writes header + section table.
///
/// The output is byte-identical to \c CorpusImageBuilder over the same
/// functions in the same order, at every chunk size and thread count —
/// the layout arithmetic and the per-function slice copies are shared
/// code, and the chunk staging only changes *where* bytes are assembled.
class StreamImageWriter {
public:
  /// Staging state for one in-flight chunk: the chunk's FuncRecords (plus
  /// one end sentinel) and one zeroed buffer per section covering the
  /// chunk's contiguous element range. Reused across chunks; use one
  /// instance per concurrent chunk.
  struct ChunkScratch {
    uint64_t Begin = 0;
    uint64_t Count = 0;
    /// Count + 1 records: the chunk's own plus a sentinel whose bases are
    /// the chunk's end elements (the next function's record, or the
    /// corpus totals for the tail chunk).
    std::vector<image::FuncRecord> Recs;
    std::vector<uint8_t> Buf[image::NumSections];
  };

  /// Creates/truncates \p Path. On I/O failure the writer is !valid() and
  /// every operation fails with the constructor's diagnostic.
  StreamImageWriter(std::string Path, uint64_t NumFunctions);
  ~StreamImageWriter();
  StreamImageWriter(const StreamImageWriter &) = delete;
  StreamImageWriter &operator=(const StreamImageWriter &) = delete;

  bool valid() const { return File != nullptr; }

  /// Pass 1, serial, in index order: folds function \p I = (number of
  /// prior addShape calls)'s shape into the layout and streams its
  /// FuncRecord to the file.
  bool addShape(const image::FunctionShape &S, std::string *Error = nullptr);
  bool addShape(const Cfg &G, const ProgramStructureTree &T,
                std::string_view Name = {}, std::string *Error = nullptr);

  /// Serial barrier between the passes: requires exactly NumFunctions
  /// addShape calls, finalizes the section layout, pre-sizes the file.
  bool beginFill(std::string *Error = nullptr);

  /// Loads chunk [Begin, Begin+Count)'s records and sizes its staging
  /// buffers. Thread-safe against other chunks' begin/fill/end.
  bool beginChunk(ChunkScratch &CS, uint64_t Begin, uint64_t Count,
                  std::string *Error = nullptr) const;

  /// Copies function \p I (must lie in \p CS's range) into the staging
  /// buffers. \p V must be a view of \p G, \p T its PST, and \p Name the
  /// name addShape saw — shape drift between the passes asserts. Distinct
  /// functions may fill the same chunk concurrently.
  void fill(ChunkScratch &CS, uint64_t I, const Cfg &G, const CfgView &V,
            const ProgramStructureTree &T, std::string_view Name = {}) const;

  /// Writes the chunk's staged section slices to the file.
  bool endChunk(ChunkScratch &CS, std::string *Error = nullptr) const;

  /// Streams the file back through a bounded window to compute section
  /// checksums, writes header + section table, closes the file. The
  /// writer is spent afterwards.
  bool finish(std::string *Error = nullptr);

  uint64_t numFunctions() const { return NumFuncs; }
  /// Total file size; valid after beginFill().
  uint64_t fileBytes() const { return Layout.FileBytes; }
  const std::string &path() const { return Path; }

private:
  bool flushRecords(std::string *Error);

  std::string Path;
  uint64_t NumFuncs = 0;
  image::ImageFile *File = nullptr;
  image::LayoutCursor Cursor;
  /// Funcs stays empty — records live in the file, not in memory.
  image::ImageLayout Layout;
  uint64_t Added = 0;
  bool Filling = false;
  /// Pass-1 write-behind buffer for FuncRecords (bounded).
  std::vector<image::FuncRecord> RecBuf;
  uint64_t RecsFlushed = 0;
};

/// Streams \p Path through a bounded window and checks header sanity and
/// every section checksum — the integrity story of \c CorpusImage::verify
/// without paying its resident-set cost (mapping + checksumming a 2.5 GB
/// image would fault every page into RSS; this never holds more than the
/// window). Structural validation still happens at map time.
bool verifyImageFile(const std::string &Path, std::string *Error = nullptr);

/// A mapped (or memory-backed) corpus image. Move-only; unmaps on
/// destruction. All accessors require \c valid().
class CorpusImage {
public:
  CorpusImage() = default;
  CorpusImage(CorpusImage &&O) noexcept;
  CorpusImage &operator=(CorpusImage &&O) noexcept;
  CorpusImage(const CorpusImage &) = delete;
  CorpusImage &operator=(const CorpusImage &) = delete;
  ~CorpusImage();

  /// Maps \p Path read-only and validates its structure (header fields,
  /// section table, per-function offset bounds) without touching the array
  /// payloads. On failure returns an invalid image and, if \p Error is
  /// non-null, a diagnostic ("truncated...", "bad magic...", ...).
  static CorpusImage map(const std::string &Path,
                         std::string *Error = nullptr);

  /// As \c map over an in-memory byte buffer (takes ownership). The
  /// builder's output can be opened directly without a file round trip.
  static CorpusImage fromBytes(std::vector<uint8_t> Bytes,
                               std::string *Error = nullptr);

  bool valid() const { return Base != nullptr; }
  uint64_t numFunctions() const { return Hdr->NumFunctions; }
  uint64_t fileBytes() const { return Hdr->FileBytes; }
  const image::ImageHeader &header() const { return *Hdr; }
  uint32_t numSections() const { return Hdr->SectionCount; }
  const image::SectionDesc &section(uint32_t I) const { return Sections[I]; }

  /// Recomputes section \p I's checksum against its descriptor.
  bool verifySection(uint32_t I) const;

  /// Recomputes every section checksum (the full-integrity pass mapping
  /// deliberately skips). On mismatch returns false and names the first
  /// bad section in \p *Error.
  bool verify(std::string *Error = nullptr) const;

  const image::FuncRecord &func(uint64_t I) const { return Funcs[I]; }
  std::string_view functionName(uint64_t I) const;

  /// Zero-copy CSR view of function \p I over the mapped arrays; valid
  /// while the image lives.
  CfgView cfg(uint64_t I) const;

  /// Zero-copy frozen PST of function \p I (\c adoptExternal over the
  /// mapped arrays); valid while the image lives.
  ProgramStructureTree pst(uint64_t I) const;

  /// Drops the resident pages of an mmap-backed image (madvise
  /// MADV_DONTNEED on the read-only private mapping) so a streaming pass
  /// over a huge image keeps peak RSS at roughly one working window;
  /// later accesses refault from the page cache. No-op for memory-backed
  /// images and on platforms without madvise. Any CfgView/PST previously
  /// returned stays valid — the mapping itself is untouched.
  void release() const;

  /// Rebuilds a heap-owned \c Cfg (labels included) for function \p I —
  /// the slow path for printers and round-trip rebuilds, not for analysis.
  /// Adjacency-list order is reproduced exactly because edges are appended
  /// in edge-id order, the only order \c Cfg construction ever produces.
  Cfg materializeCfg(uint64_t I) const;

  /// The whole image as raw bytes (header, sections, checksums). The
  /// format is byte-deterministic for a given corpus, so equality of two
  /// images' rawBytes() is equality of the frozen analyses — the serving
  /// layer leans on this to check published snapshots against
  /// from-scratch rebuilds by memcmp.
  std::span<const uint8_t> rawBytes() const { return {Base, Bytes}; }

private:
  bool attach(std::string *Error);
  void reset();
  const uint8_t *sectionBase(image::SectionKind K) const;

  const uint8_t *Base = nullptr;
  uint64_t Bytes = 0;
  /// fromBytes storage (empty when mmap-backed).
  std::vector<uint8_t> OwnedBytes;
  /// mmap storage (null when memory-backed).
  void *MapAddr = nullptr;
  size_t MapLen = 0;

  const image::ImageHeader *Hdr = nullptr;
  const image::SectionDesc *Sections = nullptr;
  const image::FuncRecord *Funcs = nullptr;
};

/// Serial convenience: runs the full pipeline (CfgView + PST) per function
/// and returns the finished image bytes. \p Names, when non-empty, must
/// parallel \p Fns. The parallel twin is \c BatchAnalyzer::buildImage.
std::vector<uint8_t>
buildCorpusImage(std::span<const Cfg *const> Fns,
                 std::span<const std::string> Names = {});

/// The image of one function, built from its frozen view \p V and PST
/// \p T with no \c Cfg copy: node labels come from \p Labels, whose node
/// ids must be \p V's (its edges are not read, so an edited graph that
/// still holds tombstoned edges serves). The bytes equal
/// \c buildCorpusImage over the one graph \p V views, named \p Name. One
/// allocation: the returned bytes.
std::vector<uint8_t> buildFunctionImage(const CfgView &V,
                                        const ProgramStructureTree &T,
                                        const Cfg &Labels,
                                        std::string_view Name);

/// Writes \p Bytes to \p Path atomically enough for tooling (truncate +
/// write + close). Returns false with a diagnostic on I/O failure.
bool writeImageFile(const std::string &Path, std::span<const uint8_t> Bytes,
                    std::string *Error = nullptr);

} // namespace pst

#endif // PST_IMAGE_CORPUSIMAGE_H
