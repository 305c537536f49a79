// PicardTools-style record-processing steps (paper Table 2, steps 3-5):
// AddReplaceReadGroups, CleanSam, FixMateInformation, and SortSam. Each
// operates on an in-memory (header, records) dataset, exactly the unit
// Gesall's wrapper layer feeds to "external programs". Step 2, SamToBam,
// is each stage's BAM build (BuildBamPartition, formats/bam.h).

#ifndef GESALL_ANALYSIS_STEPS_H_
#define GESALL_ANALYSIS_STEPS_H_

#include <string>
#include <vector>

#include "formats/bam.h"
#include "formats/sam.h"
#include "util/status.h"

namespace gesall {

/// \brief Sets the read group of every record and registers it in the
/// header (pipeline step 3).
Status AddReplaceReadGroups(const ReadGroup& read_group, SamHeader* header,
                            std::vector<SamRecord>* records);

/// \brief Statistics reported by CleanSam.
struct CleanSamStats {
  int64_t clipped_overhangs = 0;   // alignments clipped at reference end
  int64_t unmapped_normalized = 0; // unmapped records with fields reset
  int64_t dropped_invalid = 0;     // records removed as irreparable
};

/// \brief Fixes CIGAR/mapping-quality inconsistencies (pipeline step 4):
/// clips alignments overhanging the reference end, normalizes unmapped
/// records (mapq 0, no CIGAR), and drops records whose CIGAR does not
/// consume the whole read.
CleanSamStats CleanSam(const SamHeader& header,
                       std::vector<SamRecord>* records);

/// \brief Makes mate information consistent within each pair (pipeline
/// step 5). Requires records grouped by read name (the logical
/// partitioning contract, paper §3.2); returns InvalidArgument otherwise.
Status FixMateInformation(std::vector<SamRecord>* records);

/// \brief Sorts records by (reference, position, name) and stamps the
/// header sort order (the SortSam half of MR round 3).
void SortSamByCoordinate(SamHeader* header, std::vector<SamRecord>* records);

/// \brief Sorts records by read name (queryname order).
void SortSamByName(SamHeader* header, std::vector<SamRecord>* records);

/// \brief Coordinate comparison used by SortSamByCoordinate (exposed for
/// the MapReduce range partitioner).
bool CoordinateLess(const SamRecord& a, const SamRecord& b);

}  // namespace gesall

#endif  // GESALL_ANALYSIS_STEPS_H_
