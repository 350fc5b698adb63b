#include "labels/qrs_scheme.h"

#include <bit>
#include <cstring>
#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;

QrsScheme::QrsScheme() {
  traits_.name = "qrs";
  traits_.display_name = "QRS";
  traits_.family = "containment";
  traits_.order_approach = OrderApproach::kGlobal;
  traits_.encoding_rep = EncodingRep::kFixed;
  traits_.orthogonal = false;
  traits_.supports_parent = false;
  traits_.supports_sibling = false;
  traits_.supports_level = false;
  traits_.citation = "Amagasa et al., ICDE 2003";
  traits_.in_paper_matrix = true;
}

Label QrsScheme::Encode(const Interval& interval) {
  std::string bytes(16, '\0');
  std::memcpy(bytes.data(), &interval.lo, 8);
  std::memcpy(bytes.data() + 8, &interval.hi, 8);
  return Label(std::move(bytes));
}

bool QrsScheme::Decode(const Label& label, Interval* interval) {
  if (label.bytes().size() != 16) return false;
  std::memcpy(&interval->lo, label.bytes().data(), 8);
  std::memcpy(&interval->hi, label.bytes().data() + 8, 8);
  return true;
}

common::Status QrsScheme::NumberChildren(const xml::Tree& tree,
                                         xml::NodeId node,
                                         const Interval& interval,
                                         std::vector<Label>* labels) const {
  std::vector<xml::NodeId> children = tree.Children(node);
  if (children.empty()) return Status::Ok();
  // Children occupy the middle half of n equal slots of the parent's
  // interior; the quarters on either side are slack for insertions.
  double width = (interval.hi - interval.lo) *
                 (1.0 / static_cast<double>(children.size()));
  for (size_t i = 0; i < children.size(); ++i) {
    double slot_lo = interval.lo + width * static_cast<double>(i);
    Interval child{slot_lo + width * 0.25, slot_lo + width * 0.75};
    if (!(child.lo > slot_lo) || !(child.hi > child.lo)) {
      return Status::Overflow("floating-point precision exhausted");
    }
    (*labels)[children[i]] = Encode(child);
    ++counters_.labels_assigned;
    counters_.bits_allocated += 128;
    XMLUP_RETURN_NOT_OK(NumberChildren(tree, children[i], child, labels));
  }
  return Status::Ok();
}

Status QrsScheme::LabelTree(const xml::Tree& tree,
                            std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  Interval root{1.0, 2.0};
  (*labels)[tree.root()] = Encode(root);
  ++counters_.labels_assigned;
  counters_.bits_allocated += 128;
  return NumberChildren(tree, tree.root(), root, labels);
}

Result<InsertOutcome> QrsScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels) const {
  xml::NodeId parent = tree.parent(node);
  if (parent == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  Interval parent_interval;
  if (!Decode(labels[parent], &parent_interval)) {
    return Status::Internal("unlabelled parent");
  }
  double gap_lo = parent_interval.lo;
  double gap_hi = parent_interval.hi;
  Interval neighbour;
  xml::NodeId prev = tree.prev_sibling(node);
  xml::NodeId next = tree.next_sibling(node);
  if (prev != xml::kInvalidNode && Decode(labels[prev], &neighbour)) {
    gap_lo = neighbour.hi;
  }
  if (next != xml::kInvalidNode && Decode(labels[next], &neighbour)) {
    gap_hi = neighbour.lo;
  }

  double width = gap_hi - gap_lo;
  Interval fresh{gap_lo + width * 0.25, gap_hi - width * 0.25};
  if (fresh.lo > gap_lo && fresh.hi < gap_hi && fresh.lo < fresh.hi) {
    InsertOutcome outcome;
    outcome.label = Encode(fresh);
    ++counters_.labels_assigned;
    counters_.bits_allocated += 128;
    return outcome;
  }

  // Precision exhausted — renumber the parent's subtree.
  std::vector<Label> renewed = labels;
  renewed.resize(tree.arena_size());
  XMLUP_RETURN_NOT_OK(
      NumberChildren(tree, parent, parent_interval, &renewed));
  InsertOutcome outcome;
  outcome.overflow = true;
  ++counters_.overflows;
  outcome.label = renewed[node];
  std::vector<xml::NodeId> stack = {parent};
  while (!stack.empty()) {
    xml::NodeId cur = stack.back();
    stack.pop_back();
    for (xml::NodeId c = tree.first_child(cur); c != xml::kInvalidNode;
         c = tree.next_sibling(c)) {
      if (c != node && !(renewed[c] == labels[c])) {
        outcome.relabeled.emplace_back(c, renewed[c]);
        ++counters_.relabels;
      }
      stack.push_back(c);
    }
  }
  return outcome;
}

int QrsScheme::Compare(const Label& a, const Label& b) const {
  Interval ia, ib;
  if (!Decode(a, &ia) || !Decode(b, &ib)) return a.bytes().compare(b.bytes());
  if (ia.lo != ib.lo) return ia.lo < ib.lo ? -1 : 1;
  if (ia.hi != ib.hi) return ia.hi > ib.hi ? -1 : 1;  // Ancestor first.
  return 0;
}

void QrsScheme::OrderKey(const Label& label, std::string* out) const {
  Interval iv;
  // Every interval nests inside the root's [1, 2], and the bit pattern of
  // a non-negative IEEE-754 double is order-preserving as an unsigned
  // integer.
  if (!Decode(label, &iv)) return;
  AppendBigEndian(std::bit_cast<uint64_t>(iv.lo), 8, out);
  AppendBigEndian(~std::bit_cast<uint64_t>(iv.hi), 8, out);  // Ancestor first.
}

bool QrsScheme::IsAncestor(const Label& ancestor,
                           const Label& descendant) const {
  Interval ia, id;
  if (!Decode(ancestor, &ia) || !Decode(descendant, &id)) return false;
  return ia.lo < id.lo && id.hi < ia.hi;
}

size_t QrsScheme::StorageBits(const Label& /*label*/) const { return 128; }

std::string QrsScheme::Render(const Label& label) const {
  Interval i;
  if (!Decode(label, &i)) return "<bad-label>";
  std::ostringstream os;
  os.precision(17);
  os << "(" << i.lo << "," << i.hi << ")";
  return os.str();
}

}  // namespace xmlup::labels
