#include "labels/prepost_gap_scheme.h"

#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;
using xml::NodeId;

PrePostGapScheme::PrePostGapScheme(uint64_t gap) : gap_(gap) {
  traits_.name = "prepost-gap";
  traits_.display_name = "Pre/Post (gapped)";
  traits_.family = "containment";
  traits_.order_approach = OrderApproach::kGlobal;
  traits_.encoding_rep = EncodingRep::kFixed;
  traits_.orthogonal = false;
  traits_.supports_parent = true;
  traits_.supports_sibling = false;
  traits_.supports_level = true;
  traits_.citation = "Li & Moon, VLDB 2001 / Kha et al., ICDE 2001";
  traits_.in_paper_matrix = false;
}

Label PrePostGapScheme::Encode(const Ranks& ranks) {
  std::string bytes(18, '\0');
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((ranks.pre >> (8 * i)) & 0xFF);
    bytes[8 + i] = static_cast<char>((ranks.post >> (8 * i)) & 0xFF);
  }
  bytes[16] = static_cast<char>(ranks.level & 0xFF);
  bytes[17] = static_cast<char>((ranks.level >> 8) & 0xFF);
  return Label(std::move(bytes));
}

bool PrePostGapScheme::Decode(const Label& label, Ranks* ranks) {
  std::string_view bytes = label.bytes();
  if (bytes.size() != 18) return false;
  ranks->pre = 0;
  ranks->post = 0;
  for (int i = 0; i < 8; ++i) {
    ranks->pre |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i]))
                  << (8 * i);
    ranks->post |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[8 + i]))
                   << (8 * i);
  }
  ranks->level = static_cast<uint16_t>(
      static_cast<uint8_t>(bytes[16]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(bytes[17])) << 8));
  return true;
}

Status PrePostGapScheme::LabelTree(const xml::Tree& tree,
                                   std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  // Sparse preorder ranks and, via a second pass, sparse postorder ranks.
  std::vector<Ranks> ranks(tree.arena_size());
  uint64_t next_pre = gap_;
  struct Frame {
    NodeId node;
    bool entered;
    uint16_t level;
  };
  uint64_t next_post = gap_;
  std::vector<Frame> stack = {{tree.root(), false, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.entered) {
      ranks[frame.node].post = next_post;
      next_post += gap_;
      continue;
    }
    ranks[frame.node].pre = next_pre;
    ranks[frame.node].level = frame.level;
    next_pre += gap_;
    frame.entered = true;
    stack.push_back(frame);
    std::vector<NodeId> kids = tree.Children(frame.node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, false, static_cast<uint16_t>(frame.level + 1)});
    }
  }
  for (NodeId n : tree.PreorderNodes()) {
    (*labels)[n] = Encode(ranks[n]);
    ++counters_.labels_assigned;
    counters_.bits_allocated += 144;
  }
  return Status::Ok();
}

bool PrePostGapScheme::PreBounds(const xml::Tree& tree, NodeId node,
                                 const std::vector<Label>& labels,
                                 uint64_t* lo, uint64_t* hi) const {
  // Document-order predecessor: previous sibling's deepest last
  // descendant, or the parent.
  NodeId pred = tree.prev_sibling(node);
  if (pred == xml::kInvalidNode) {
    pred = tree.parent(node);
  } else {
    while (tree.last_child(pred) != xml::kInvalidNode) {
      pred = tree.last_child(pred);
    }
  }
  // Document-order successor: climb for the first next sibling.
  NodeId succ = xml::kInvalidNode;
  for (NodeId cur = node; cur != xml::kInvalidNode; cur = tree.parent(cur)) {
    if (tree.next_sibling(cur) != xml::kInvalidNode) {
      succ = tree.next_sibling(cur);
      break;
    }
  }
  Ranks r;
  if (pred == xml::kInvalidNode || !Decode(labels[pred], &r)) return false;
  *lo = r.pre;
  if (succ != xml::kInvalidNode && Decode(labels[succ], &r)) {
    *hi = r.pre;
  } else {
    *hi = *lo + 2 * gap_;
  }
  return true;
}

bool PrePostGapScheme::PostBounds(const xml::Tree& tree, NodeId node,
                                  const std::vector<Label>& labels,
                                  uint64_t* lo, uint64_t* hi) const {
  // Postorder predecessor of a leaf: the nearest previous sibling on the
  // ancestor-or-self chain (its subtree finished most recently).
  NodeId pred = xml::kInvalidNode;
  for (NodeId cur = node; cur != xml::kInvalidNode; cur = tree.parent(cur)) {
    if (tree.prev_sibling(cur) != xml::kInvalidNode) {
      pred = tree.prev_sibling(cur);
      break;
    }
  }
  // Postorder successor of a leaf: the first-finishing node of the next
  // sibling's subtree, or the parent.
  NodeId succ = tree.next_sibling(node);
  if (succ == xml::kInvalidNode) {
    succ = tree.parent(node);
  } else {
    while (tree.first_child(succ) != xml::kInvalidNode) {
      succ = tree.first_child(succ);
    }
  }
  Ranks r;
  *lo = 0;
  if (pred != xml::kInvalidNode) {
    if (!Decode(labels[pred], &r)) return false;
    *lo = r.post;
  }
  if (succ == xml::kInvalidNode || !Decode(labels[succ], &r)) return false;
  *hi = r.post;
  return true;
}

Result<InsertOutcome> PrePostGapScheme::Renumber(
    const xml::Tree& tree, NodeId node,
    const std::vector<Label>& labels) const {
  std::vector<Label> fresh;
  XMLUP_RETURN_NOT_OK(LabelTree(tree, &fresh));
  InsertOutcome outcome;
  outcome.overflow = true;
  ++counters_.overflows;
  outcome.label = fresh[node];
  for (size_t id = 0; id < fresh.size(); ++id) {
    if (id == node || fresh[id].empty()) continue;
    if (!(fresh[id] == labels[id])) {
      outcome.relabeled.emplace_back(static_cast<NodeId>(id), fresh[id]);
      ++counters_.relabels;
    }
  }
  return outcome;
}

Result<InsertOutcome> PrePostGapScheme::LabelForInsert(
    const xml::Tree& tree, NodeId node,
    const std::vector<Label>& labels) const {
  if (tree.parent(node) == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  uint64_t pre_lo = 0, pre_hi = 0, post_lo = 0, post_hi = 0;
  if (!PreBounds(tree, node, labels, &pre_lo, &pre_hi) ||
      !PostBounds(tree, node, labels, &post_lo, &post_hi)) {
    return Status::Internal("unlabelled neighbourhood");
  }
  if (pre_hi - pre_lo < 2 || post_hi - post_lo < 2) {
    // A gap is consumed: the postponed relabelling arrives.
    return Renumber(tree, node, labels);
  }
  Ranks ranks;
  ranks.pre = pre_lo + (pre_hi - pre_lo) / 2;
  ranks.post = post_lo + (post_hi - post_lo) / 2;
  ranks.level = static_cast<uint16_t>(tree.Depth(node));
  InsertOutcome outcome;
  outcome.label = Encode(ranks);
  ++counters_.labels_assigned;
  counters_.bits_allocated += 144;
  return outcome;
}

int PrePostGapScheme::Compare(const Label& a, const Label& b) const {
  Ranks ra, rb;
  if (!Decode(a, &ra) || !Decode(b, &rb)) return a.bytes().compare(b.bytes());
  return ra.pre < rb.pre ? -1 : (ra.pre > rb.pre ? 1 : 0);
}

bool PrePostGapScheme::OrderKey(const Label& label, std::string* out) const {
  Ranks r;
  if (!Decode(label, &r)) return false;
  AppendBigEndian(r.pre, 8, out);
  return true;
}

bool PrePostGapScheme::IsAncestor(const Label& ancestor,
                                  const Label& descendant) const {
  Ranks ra, rd;
  if (!Decode(ancestor, &ra) || !Decode(descendant, &rd)) return false;
  return ra.pre < rd.pre && rd.post < ra.post;
}

bool PrePostGapScheme::IsParent(const Label& parent,
                                const Label& child) const {
  Ranks rp, rc;
  if (!Decode(parent, &rp) || !Decode(child, &rc)) return false;
  return rp.pre < rc.pre && rc.post < rp.post && rc.level == rp.level + 1;
}

Result<int> PrePostGapScheme::Level(const Label& label) const {
  Ranks r;
  if (!Decode(label, &r)) {
    return Status::InvalidArgument("malformed gapped pre/post label");
  }
  return static_cast<int>(r.level);
}

size_t PrePostGapScheme::StorageBits(const Label& /*label*/) const {
  return 144;
}

std::string PrePostGapScheme::Render(const Label& label) const {
  Ranks r;
  if (!Decode(label, &r)) return "<bad-label>";
  std::ostringstream os;
  os << r.pre << "," << r.post;
  return os.str();
}

}  // namespace xmlup::labels
