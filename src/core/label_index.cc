#include "core/label_index.h"

#include <algorithm>

namespace xmlup::core {

using common::Result;
using common::Status;
using labels::Label;
using xml::NodeId;

Result<LabelIndex> LabelIndex::Build(const LabeledDocument* doc) {
  LabelIndex index(doc);
  XMLUP_RETURN_NOT_OK(index.Refresh());
  return index;
}

Status LabelIndex::Refresh() {
  entries_ = doc_->tree().PreorderNodes();
  // Over the document's cached memcmp keys — no virtual Compare on the hot
  // path. Preorder already is label order for a correct scheme, so one
  // linear is_sorted pass usually finishes the job; only a document whose
  // labels break document order pays for the sort.
  auto by_key = [&](NodeId a, NodeId b) {
    return doc_->order_key(a) < doc_->order_key(b);
  };
  if (!std::is_sorted(entries_.begin(), entries_.end(), by_key)) {
    std::stable_sort(entries_.begin(), entries_.end(), by_key);
  }
  return Status::Ok();
}

size_t LabelIndex::LowerBound(const Label& label) const {
  std::string key;
  if (doc_->order_keys_native() && doc_->scheme().OrderKey(label, &key)) {
    size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (doc_->order_key(entries_[mid]) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  // Rank-fallback keys cannot be derived for an arbitrary label; compare
  // through the scheme instead.
  const labels::LabelingScheme& scheme = doc_->scheme();
  size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (scheme.Compare(doc_->label(entries_[mid]), label) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t LabelIndex::PositionOf(NodeId node) const {
  // The node's own key is always cached (either mode), so this stays a
  // pure memcmp binary search.
  const std::string_view key = doc_->order_key(node);
  size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (doc_->order_key(entries_[mid]) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < entries_.size() && entries_[lo] == node) return lo;
  return entries_.size();
}

std::pair<size_t, size_t> LabelIndex::DescendantRange(NodeId node) const {
  size_t pos = PositionOf(node);
  if (pos >= entries_.size()) return {entries_.size(), entries_.size()};
  const labels::LabelingScheme& scheme = doc_->scheme();
  const Label& top = doc_->label(node);
  // IsAncestor(top, entry) holds on a contiguous prefix of the entries
  // after `pos`; binary-search its right edge.
  size_t lo = pos + 1, hi = entries_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (scheme.IsAncestor(top, doc_->label(entries_[mid]))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {pos + 1, lo};
}

std::pair<size_t, size_t> LabelIndex::FollowingRange(NodeId node) const {
  return {DescendantRange(node).second, entries_.size()};
}

NodeId LabelIndex::Lookup(const Label& label) const {
  size_t pos = LowerBound(label);
  if (pos < entries_.size() &&
      doc_->scheme().Compare(doc_->label(entries_[pos]), label) == 0) {
    return entries_[pos];
  }
  return xml::kInvalidNode;
}

size_t LabelIndex::Rank(const Label& label) const {
  return LowerBound(label);
}

std::vector<NodeId> LabelIndex::Descendants(NodeId node) const {
  auto [begin, end] = DescendantRange(node);
  return std::vector<NodeId>(entries_.begin() + static_cast<long>(begin),
                             entries_.begin() + static_cast<long>(end));
}

std::vector<NodeId> LabelIndex::Range(const Label& after,
                                      const Label& before) const {
  const labels::LabelingScheme& scheme = doc_->scheme();
  size_t pos = after.empty() ? 0 : LowerBound(after);
  // Skip the bound itself if present.
  if (!after.empty() && pos < entries_.size() &&
      scheme.Compare(doc_->label(entries_[pos]), after) == 0) {
    ++pos;
  }
  std::vector<NodeId> out;
  for (; pos < entries_.size(); ++pos) {
    if (!before.empty() &&
        scheme.Compare(doc_->label(entries_[pos]), before) >= 0) {
      break;
    }
    out.push_back(entries_[pos]);
  }
  return out;
}

void LabelIndex::Insert(NodeId node) {
  // Lower bound over the node's cached key (valid in both key modes).
  const std::string_view key = doc_->order_key(node);
  size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (doc_->order_key(entries_[mid]) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  entries_.insert(entries_.begin() + static_cast<long>(lo), node);
}

void LabelIndex::EraseSubtree(NodeId node) {
  // The subtree was removed from the tree already; drop every entry whose
  // node is no longer alive.
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](NodeId n) {
                                  return !doc_->tree().IsValid(n);
                                }),
                 entries_.end());
  (void)node;
}

Status LabelIndex::Verify() const {
  if (entries_.size() != doc_->tree().node_count()) {
    return Status::Internal("index size disagrees with live node count");
  }
  const labels::LabelingScheme& scheme = doc_->scheme();
  std::vector<NodeId> order = doc_->tree().PreorderNodes();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i] != order[i]) {
      return Status::Internal(
          "index order diverges from document order at position " +
          std::to_string(i));
    }
    if (i > 0 && scheme.Compare(doc_->label(entries_[i - 1]),
                                doc_->label(entries_[i])) >= 0) {
      return Status::Internal("index labels not strictly increasing at " +
                              std::to_string(i));
    }
    if (i > 0 &&
        !(doc_->order_key(entries_[i - 1]) < doc_->order_key(entries_[i]))) {
      return Status::Internal(
          "cached order keys disagree with label order at " +
          std::to_string(i));
    }
  }
  return Status::Ok();
}

}  // namespace xmlup::core
