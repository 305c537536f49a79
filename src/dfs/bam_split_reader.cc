#include "dfs/bam_split_reader.h"

#include <algorithm>

#include "formats/bam.h"
#include "util/bgzf.h"

namespace gesall {

Result<std::vector<BamSplit>> ComputeBamSplits(const Dfs& dfs,
                                               const std::string& path) {
  GESALL_ASSIGN_OR_RETURN(auto locations, dfs.Locate(path));
  std::vector<BamSplit> splits;
  for (const auto& loc : locations) {
    BamSplit s;
    s.begin = loc.offset;
    s.end = loc.offset + loc.length;
    s.preferred_nodes = loc.replicas;
    if (s.end > s.begin) splits.push_back(std::move(s));
  }
  return splits;
}

Result<SamHeader> ReadBamHeaderFromDfs(const Dfs& dfs,
                                       const std::string& path) {
  GESALL_ASSIGN_OR_RETURN(int64_t size, dfs.FileSize(path));
  // The header chunk is small; read a generous prefix.
  int64_t take = std::min<int64_t>(size, 2 * 70 * 1024);
  GESALL_ASSIGN_OR_RETURN(std::string prefix, dfs.ReadRange(path, 0, take));
  return ReadBamHeader(prefix);
}

namespace {

// Scans [from, file_size) for the next valid BGZF chunk boundary. Magic
// collisions inside compressed payloads are disambiguated by attempting to
// decompress the candidate chunk.
Result<int64_t> FindChunkBoundary(const Dfs& dfs, const std::string& path,
                                  int64_t from, int64_t file_size) {
  constexpr int64_t kScanWindow = 256 * 1024;
  for (int64_t base = from; base < file_size; base += kScanWindow) {
    int64_t take = std::min<int64_t>(kScanWindow + kBgzfHeaderSize,
                                     file_size - base);
    GESALL_ASSIGN_OR_RETURN(std::string window,
                            dfs.ReadRange(path, base, take));
    for (size_t i = 0; i + kBgzfHeaderSize <= window.size(); ++i) {
      // The codec alone knows which method bytes start a chunk.
      const std::string_view at = std::string_view(window).substr(i);
      if (!BgzfHasBlockMagic(at)) continue;
      auto size = BgzfPeekBlockSize(at);
      if (!size.ok()) continue;
      int64_t candidate = base + static_cast<int64_t>(i);
      if (candidate + static_cast<int64_t>(size.ValueOrDie()) > file_size) {
        continue;
      }
      // Validate by decompressing the whole candidate chunk.
      auto chunk_bytes =
          dfs.ReadRange(path, candidate,
                        static_cast<int64_t>(size.ValueOrDie()));
      if (!chunk_bytes.ok()) continue;
      if (BgzfDecompressBlock(chunk_bytes.ValueOrDie(), nullptr).ok()) {
        return candidate;
      }
    }
  }
  return file_size;  // no further chunk
}

}  // namespace

Result<std::string> ReadBamSplitRecords(const Dfs& dfs,
                                        const std::string& path,
                                        const BamSplit& split) {
  GESALL_ASSIGN_OR_RETURN(int64_t file_size, dfs.FileSize(path));

  // The header chunk belongs to no split's record stream.
  GESALL_ASSIGN_OR_RETURN(std::string first_header,
                          dfs.ReadRange(path, 0,
                                        std::min<int64_t>(file_size,
                                                          kBgzfHeaderSize)));
  GESALL_ASSIGN_OR_RETURN(size_t header_chunk, BgzfPeekBlockSize(first_header));
  int64_t records_start = static_cast<int64_t>(header_chunk);

  int64_t cursor = std::max(split.begin, records_start);
  if (cursor > records_start) {
    // Mid-file split: DFS block boundaries fall anywhere, so locate the
    // first chunk that starts at/after split.begin.
    GESALL_ASSIGN_OR_RETURN(cursor,
                            FindChunkBoundary(dfs, path, cursor, file_size));
  }

  std::string out;
  while (cursor < split.end && cursor < file_size) {
    GESALL_ASSIGN_OR_RETURN(
        std::string header,
        dfs.ReadRange(path, cursor,
                      std::min<int64_t>(kBgzfHeaderSize,
                                        file_size - cursor)));
    GESALL_ASSIGN_OR_RETURN(size_t chunk_size, BgzfPeekBlockSize(header));
    GESALL_ASSIGN_OR_RETURN(
        std::string chunk,
        dfs.ReadRange(path, cursor, static_cast<int64_t>(chunk_size)));
    GESALL_ASSIGN_OR_RETURN(std::string payload,
                            BgzfDecompressBlock(chunk, nullptr));
    out += payload;
    cursor += static_cast<int64_t>(chunk_size);
  }
  return out;
}

Result<std::vector<SamRecord>> ReadBamSplit(const Dfs& dfs,
                                            const std::string& path,
                                            const BamSplit& split) {
  GESALL_ASSIGN_OR_RETURN(std::string bytes,
                          ReadBamSplitRecords(dfs, path, split));
  std::vector<SamRecord> records;
  BamRecordIterator it(bytes);
  while (!it.Done()) {
    GESALL_ASSIGN_OR_RETURN(SamRecord rec, it.Next());
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace gesall
