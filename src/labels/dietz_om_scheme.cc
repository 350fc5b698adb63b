#include "labels/dietz_om_scheme.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;
using xml::NodeId;

DietzOmScheme::DietzOmScheme(int tag_bits)
    : max_tag_(1ULL << tag_bits) {
  traits_.name = "dietz-om";
  traits_.display_name = "Dietz order-maint.";
  traits_.family = "containment";
  traits_.order_approach = OrderApproach::kGlobal;
  traits_.encoding_rep = EncodingRep::kFixed;
  traits_.orthogonal = false;
  traits_.supports_parent = true;
  traits_.supports_sibling = false;
  traits_.supports_level = true;
  traits_.citation = "Dietz, STOC 1982 (order maintenance)";
  traits_.in_paper_matrix = false;
}

Label DietzOmScheme::Encode(const Tags& tags) {
  std::string bytes(18, '\0');
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((tags.begin >> (8 * i)) & 0xFF);
    bytes[8 + i] = static_cast<char>((tags.end >> (8 * i)) & 0xFF);
  }
  bytes[16] = static_cast<char>(tags.level & 0xFF);
  bytes[17] = static_cast<char>((tags.level >> 8) & 0xFF);
  return Label(std::move(bytes));
}

bool DietzOmScheme::Decode(const Label& label, Tags* tags) {
  std::string_view bytes = label.bytes();
  if (bytes.size() != 18) return false;
  tags->begin = 0;
  tags->end = 0;
  for (int i = 0; i < 8; ++i) {
    tags->begin |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i]))
                   << (8 * i);
    tags->end |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[8 + i]))
                 << (8 * i);
  }
  tags->level = static_cast<uint16_t>(
      static_cast<uint8_t>(bytes[16]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(bytes[17])) << 8));
  return true;
}

Status DietzOmScheme::LabelTree(const xml::Tree& tree,
                                std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  list_.clear();
  list_valid_ = false;
  levels_.assign(tree.arena_size(), 0);
  if (!tree.has_root()) {
    list_valid_ = true;
    return Status::Ok();
  }

  // Depth-first endpoint sequence.
  struct Frame {
    NodeId node;
    bool entered;
    uint16_t level;
  };
  std::vector<Frame> stack = {{tree.root(), false, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.entered) {
      list_.push_back({0, frame.node, /*is_begin=*/false});
      continue;
    }
    levels_[frame.node] = frame.level;
    list_.push_back({0, frame.node, /*is_begin=*/true});
    frame.entered = true;
    stack.push_back(frame);
    std::vector<NodeId> kids = tree.Children(frame.node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, false, static_cast<uint16_t>(frame.level + 1)});
    }
  }
  if (list_.size() + 2 >= max_tag_) {
    return Status::OutOfRange("tag universe too small for the document");
  }
  // Even initial spread.
  uint64_t gap = max_tag_ / (list_.size() + 1);
  for (size_t i = 0; i < list_.size(); ++i) {
    list_[i].tag = (i + 1) * gap;
  }
  // Build labels from endpoint pairs.
  std::map<NodeId, Tags> tags;
  for (const Endpoint& e : list_) {
    Tags& t = tags[e.node];
    if (e.is_begin) {
      t.begin = e.tag;
    } else {
      t.end = e.tag;
    }
    t.level = levels_[e.node];
  }
  for (const auto& [node, t] : tags) {
    (*labels)[node] = Encode(t);
    ++counters_.labels_assigned;
    counters_.bits_allocated += 144;
  }
  list_valid_ = true;
  return Status::Ok();
}

std::vector<NodeId> DietzOmScheme::Respread(size_t lo, size_t hi,
                                            uint64_t tag_lo,
                                            uint64_t tag_hi) const {
  std::vector<NodeId> affected;
  size_t count = hi - lo;
  uint64_t gap = (tag_hi - tag_lo) / (count + 1);
  for (size_t i = lo; i < hi; ++i) {
    uint64_t fresh = tag_lo + (i - lo + 1) * gap;
    if (list_[i].tag != fresh) {
      list_[i].tag = fresh;
      affected.push_back(list_[i].node);
      ++counters_.relabels;
    }
  }
  return affected;
}

std::vector<NodeId> DietzOmScheme::InsertEndpoints(
    size_t pos, NodeId node, uint16_t level,
    std::vector<Label>* /*labels*/) const {
  uint64_t tag_lo = pos == 0 ? 0 : list_[pos - 1].tag;
  uint64_t tag_hi = pos < list_.size() ? list_[pos].tag : max_tag_;

  std::vector<NodeId> affected;
  if (tag_hi - tag_lo < 4) {
    // Gap exhausted: grow a window around the position until the density
    // allows an even respread with slack for the two new endpoints —
    // Dietz's local renumbering, in contrast to the gapped pre/post
    // scheme's whole-document pass.
    size_t lo = pos, hi = pos;
    size_t window = 2;
    while (true) {
      lo = pos > window ? pos - window : 0;
      hi = std::min(list_.size(), pos + window);
      uint64_t wlo = lo == 0 ? 0 : list_[lo - 1].tag;
      uint64_t whi = hi < list_.size() ? list_[hi].tag : max_tag_;
      if ((whi - wlo) / (hi - lo + 3) >= 4) {
        ++counters_.overflows;
        affected = Respread(lo, hi, wlo, whi);
        break;
      }
      if (lo == 0 && hi == list_.size()) {
        // Whole-list respread as the last resort.
        ++counters_.overflows;
        affected = Respread(0, list_.size(), 0, max_tag_);
        break;
      }
      window *= 2;
    }
    tag_lo = pos == 0 ? 0 : list_[pos - 1].tag;
    tag_hi = pos < list_.size() ? list_[pos].tag : max_tag_;
  }

  uint64_t gap = (tag_hi - tag_lo) / 3;
  Endpoint begin{tag_lo + gap, node, true};
  Endpoint end{tag_lo + 2 * gap, node, false};
  list_.insert(list_.begin() + static_cast<long>(pos), {begin, end});
  if (levels_.size() <= node) levels_.resize(node + 1, 0);
  levels_[node] = level;
  return affected;
}

size_t DietzOmScheme::FindInsertPosition(const xml::Tree& tree,
                                         NodeId node) const {
  // The new leaf's endpoints go immediately after the previous sibling's
  // end endpoint, or after the parent's begin endpoint.
  NodeId anchor = tree.prev_sibling(node);
  bool after_begin = false;
  if (anchor == xml::kInvalidNode) {
    anchor = tree.parent(node);
    after_begin = true;
  }
  for (size_t i = 0; i < list_.size(); ++i) {
    if (list_[i].node == anchor && list_[i].is_begin == after_begin) {
      return i + 1;
    }
  }
  return list_.size();
}

void DietzOmScheme::RefreshLabels(const std::vector<NodeId>& nodes,
                                  const xml::Tree& tree,
                                  std::vector<Label>* labels) const {
  if (nodes.empty()) return;
  std::map<NodeId, Tags> tags;
  for (NodeId n : nodes) tags[n] = Tags{};
  for (const Endpoint& e : list_) {
    auto it = tags.find(e.node);
    if (it == tags.end()) continue;
    if (e.is_begin) {
      it->second.begin = e.tag;
    } else {
      it->second.end = e.tag;
    }
    it->second.level = levels_[e.node];
  }
  for (auto& [node, t] : tags) {
    if (tree.IsValid(node)) (*labels)[node] = Encode(t);
  }
}

Status DietzOmScheme::RebuildFromLabels(
    const xml::Tree& tree, NodeId fresh,
    const std::vector<Label>& labels) const {
  list_.clear();
  list_valid_ = false;
  levels_.assign(tree.arena_size(), 0);
  for (NodeId n : tree.PreorderNodes()) {
    if (n == fresh) continue;
    Tags t;
    if (n >= labels.size() || !Decode(labels[n], &t)) {
      return Status::InvalidArgument(
          "dietz-om: undecodable label for node " + std::to_string(n) +
          " while rebuilding the endpoint list");
    }
    levels_[n] = t.level;
    list_.push_back({t.begin, n, /*is_begin=*/true});
    list_.push_back({t.end, n, /*is_begin=*/false});
  }
  std::sort(list_.begin(), list_.end(),
            [](const Endpoint& a, const Endpoint& b) { return a.tag < b.tag; });
  list_valid_ = true;
  return Status::Ok();
}

Result<InsertOutcome> DietzOmScheme::LabelForInsert(
    const xml::Tree& tree, NodeId node,
    const std::vector<Label>& labels) const {
  if (tree.parent(node) == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  // Lazily purge endpoints of removed nodes.
  list_.erase(std::remove_if(list_.begin(), list_.end(),
                             [&](const Endpoint& e) {
                               return !tree.IsValid(e.node);
                             }),
              list_.end());

  // A document restored from a snapshot has labels but an empty endpoint
  // list (the list is internal scheme state, not part of the snapshot).
  // Rebuild it from the decoded labels once, on the first insert.
  if (!list_valid_) {
    XMLUP_RETURN_NOT_OK(RebuildFromLabels(tree, node, labels));
  }

  size_t pos = FindInsertPosition(tree, node);
  uint16_t level = static_cast<uint16_t>(tree.Depth(node));
  std::vector<Label> updated = labels;
  updated.resize(tree.arena_size());
  std::vector<NodeId> affected = InsertEndpoints(pos, node, level, &updated);

  InsertOutcome outcome;
  // Rebuild labels for the new node and everything the respread touched.
  std::vector<NodeId> to_refresh = affected;
  to_refresh.push_back(node);
  RefreshLabels(to_refresh, tree, &updated);
  outcome.label = updated[node];
  ++counters_.labels_assigned;
  counters_.bits_allocated += 144;
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (NodeId n : affected) {
    if (n != node && tree.IsValid(n) && !(updated[n] == labels[n])) {
      outcome.relabeled.emplace_back(n, updated[n]);
    }
  }
  outcome.overflow = !outcome.relabeled.empty();
  return outcome;
}

int DietzOmScheme::Compare(const Label& a, const Label& b) const {
  Tags ta, tb;
  if (!Decode(a, &ta) || !Decode(b, &tb)) return a.bytes().compare(b.bytes());
  return ta.begin < tb.begin ? -1 : (ta.begin > tb.begin ? 1 : 0);
}

void DietzOmScheme::OrderKey(const Label& label, std::string* out) const {
  Tags t;
  if (!Decode(label, &t)) return;
  AppendBigEndian(t.begin, 8, out);
}

bool DietzOmScheme::IsAncestor(const Label& ancestor,
                               const Label& descendant) const {
  Tags ta, td;
  if (!Decode(ancestor, &ta) || !Decode(descendant, &td)) return false;
  return ta.begin < td.begin && td.end < ta.end;
}

bool DietzOmScheme::IsParent(const Label& parent, const Label& child) const {
  Tags tp, tc;
  if (!Decode(parent, &tp) || !Decode(child, &tc)) return false;
  return tp.begin < tc.begin && tc.end < tp.end &&
         tc.level == tp.level + 1;
}

Result<int> DietzOmScheme::Level(const Label& label) const {
  Tags t;
  if (!Decode(label, &t)) {
    return Status::InvalidArgument("malformed order-maintenance label");
  }
  return static_cast<int>(t.level);
}

size_t DietzOmScheme::StorageBits(const Label& /*label*/) const {
  return 144;
}

std::string DietzOmScheme::Render(const Label& label) const {
  Tags t;
  if (!Decode(label, &t)) return "<bad-label>";
  std::ostringstream os;
  os << "[" << t.begin << "," << t.end << "]";
  return os.str();
}

}  // namespace xmlup::labels
