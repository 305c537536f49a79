#include "analysis/steps.h"

#include <algorithm>

namespace gesall {

Status AddReplaceReadGroups(const ReadGroup& read_group, SamHeader* header,
                            std::vector<SamRecord>* records) {
  if (read_group.id.empty()) {
    return Status::InvalidArgument("read group id must not be empty");
  }
  header->read_groups.clear();
  header->read_groups.push_back(read_group);
  for (auto& r : *records) {
    r.SetTag("RG", 'Z', read_group.id);
  }
  return Status::OK();
}

CleanSamStats CleanSam(const SamHeader& header,
                       std::vector<SamRecord>* records) {
  CleanSamStats stats;
  auto out = records->begin();
  auto keep = [&out](SamRecord& r) {
    if (&*out != &r) *out = std::move(r);
    ++out;
  };
  for (auto& r : *records) {
    if (r.IsUnmapped()) {
      // Normalize unmapped records: no CIGAR, mapq 0.
      if (!r.cigar.empty() || r.mapq != 0) {
        r.cigar.clear();
        r.mapq = 0;
        ++stats.unmapped_normalized;
      }
      keep(r);
      continue;
    }
    // CIGAR must consume exactly the read.
    if (CigarQueryLength(r.cigar) != static_cast<int64_t>(r.seq.size()) ||
        r.ref_id < 0 ||
        r.ref_id >= static_cast<int32_t>(header.refs.size())) {
      ++stats.dropped_invalid;
      continue;
    }
    // Clip alignments that overhang the end of the reference sequence: the
    // overhanging reference-consuming tail becomes a soft clip.
    int64_t ref_len = header.refs[r.ref_id].length;
    if (r.AlignmentEnd() > ref_len) {
      int64_t excess = r.AlignmentEnd() - ref_len;
      Cigar fixed;
      int64_t clip = 0;
      // Walk from the tail, moving `excess` reference bases into clips.
      Cigar rev(r.cigar.rbegin(), r.cigar.rend());
      for (auto& op : rev) {
        if (excess <= 0) {
          fixed.push_back(op);
          continue;
        }
        if (op.op == 'S' || op.op == 'H') {
          clip += op.len;
          continue;
        }
        bool ref_op = op.op == 'M' || op.op == 'D' || op.op == 'N' ||
                      op.op == '=' || op.op == 'X';
        bool query_op = op.op == 'M' || op.op == 'I' || op.op == '=' ||
                        op.op == 'X';
        if (!ref_op) {
          if (query_op) clip += op.len;
          continue;
        }
        if (op.len <= excess) {
          if (query_op) clip += op.len;
          excess -= op.len;
        } else {
          if (query_op) clip += excess;
          op.len -= static_cast<int32_t>(excess);
          excess = 0;
          fixed.push_back(op);
        }
      }
      if (clip > 0) fixed.insert(fixed.begin(),
                                 {'S', static_cast<int32_t>(clip)});
      std::reverse(fixed.begin(), fixed.end());
      r.cigar = std::move(fixed);
      ++stats.clipped_overhangs;
      if (CigarReferenceLength(r.cigar) == 0) {
        // Nothing left aligned: record becomes unmapped.
        r.SetFlag(sam_flags::kUnmapped, true);
        r.cigar.clear();
        r.mapq = 0;
      }
    }
    keep(r);
  }
  records->erase(out, records->end());
  return stats;
}

Status FixMateInformation(std::vector<SamRecord>* records) {
  for (size_t i = 0; i + 1 < records->size();) {
    SamRecord& a = (*records)[i];
    if (!a.IsPaired()) {
      ++i;
      continue;
    }
    if (i + 1 >= records->size() || (*records)[i + 1].qname != a.qname) {
      return Status::InvalidArgument(
          "input not grouped by read name: lone mate " + a.qname);
    }
    SamRecord& b = (*records)[i + 1];
    auto fix = [](SamRecord* rec, const SamRecord& mate) {
      rec->SetFlag(sam_flags::kMateUnmapped, mate.IsUnmapped());
      rec->SetFlag(sam_flags::kMateReverse, mate.IsReverse());
      if (!mate.IsUnmapped()) {
        rec->mate_ref_id = mate.ref_id;
        rec->mate_pos = mate.pos;
      } else if (!rec->IsUnmapped()) {
        // Unmapped mate adopts the mapped read's coordinates.
        rec->mate_ref_id = rec->ref_id;
        rec->mate_pos = rec->pos;
      }
    };
    fix(&a, b);
    fix(&b, a);
    if (!a.IsUnmapped() && !b.IsUnmapped() && a.ref_id == b.ref_id) {
      int64_t left = std::min(a.pos, b.pos);
      int64_t right = std::max(a.AlignmentEnd(), b.AlignmentEnd());
      int64_t tlen = right - left;
      a.tlen = a.pos <= b.pos ? tlen : -tlen;
      b.tlen = -a.tlen;
    } else {
      a.tlen = 0;
      b.tlen = 0;
    }
    i += 2;
  }
  return Status::OK();
}

bool CoordinateLess(const SamRecord& a, const SamRecord& b) {
  // Unmapped records sort to the end, like samtools.
  bool au = a.IsUnmapped(), bu = b.IsUnmapped();
  if (au != bu) return bu;
  if (a.ref_id != b.ref_id) return a.ref_id < b.ref_id;
  if (a.pos != b.pos) return a.pos < b.pos;
  if (a.qname != b.qname) return a.qname < b.qname;
  return a.flag < b.flag;
}

void SortSamByCoordinate(SamHeader* header,
                         std::vector<SamRecord>* records) {
  std::stable_sort(records->begin(), records->end(), CoordinateLess);
  header->sort_order = "coordinate";
}

void SortSamByName(SamHeader* header, std::vector<SamRecord>* records) {
  std::stable_sort(records->begin(), records->end(),
                   [](const SamRecord& a, const SamRecord& b) {
                     if (a.qname != b.qname) return a.qname < b.qname;
                     return a.flag < b.flag;
                   });
  header->sort_order = "queryname";
}

}  // namespace gesall
