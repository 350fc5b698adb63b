#include "labels/sector_scheme.h"

#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;

namespace {

constexpr uint64_t kAngleSpace = 1ULL << 62;
// Minimum usable slot width; below this the sector space is exhausted.
constexpr uint64_t kMinSlot = 8;

}  // namespace

SectorScheme::SectorScheme() {
  traits_.name = "sector";
  traits_.display_name = "Sector";
  traits_.family = "containment";
  traits_.order_approach = OrderApproach::kHybrid;
  traits_.encoding_rep = EncodingRep::kFixed;
  traits_.orthogonal = false;
  traits_.supports_parent = false;
  traits_.supports_sibling = false;
  traits_.supports_level = false;
  traits_.citation = "Thonangi, COMAD 2006";
  traits_.in_paper_matrix = true;
}

Label SectorScheme::Encode(const Sector& sector) {
  std::string bytes(16, '\0');
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((sector.lo >> (8 * i)) & 0xFF);
    bytes[8 + i] = static_cast<char>((sector.hi >> (8 * i)) & 0xFF);
  }
  return Label(std::move(bytes));
}

bool SectorScheme::Decode(const Label& label, Sector* sector) {
  std::string_view bytes = label.bytes();
  if (bytes.size() != 16) return false;
  sector->lo = 0;
  sector->hi = 0;
  for (int i = 0; i < 8; ++i) {
    sector->lo |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i]))
                  << (8 * i);
    sector->hi |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[8 + i]))
                  << (8 * i);
  }
  return true;
}

common::Status SectorScheme::SectorizeChildren(
    const xml::Tree& tree, xml::NodeId node, const Sector& sector,
    std::vector<Label>* labels) const {
  ++counters_.recursive_calls;  // The published assignment is recursive.
  std::vector<xml::NodeId> children = tree.Children(node);
  if (children.empty()) return Status::Ok();
  uint64_t usable = sector.hi - sector.lo - 1;
  uint64_t slot = usable / children.size();
  if (slot < kMinSlot) {
    return Status::Overflow("sector space exhausted under node");
  }
  uint64_t margin = slot / 4;
  for (size_t i = 0; i < children.size(); ++i) {
    uint64_t slot_lo = sector.lo + 1 + i * slot;
    Sector child_sector{slot_lo + margin, slot_lo + slot - margin};
    (*labels)[children[i]] = Encode(child_sector);
    ++counters_.labels_assigned;
    counters_.bits_allocated += 128;
    XMLUP_RETURN_NOT_OK(
        SectorizeChildren(tree, children[i], child_sector, labels));
  }
  return Status::Ok();
}

Status SectorScheme::LabelTree(const xml::Tree& tree,
                               std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  Sector root{0, kAngleSpace};
  (*labels)[tree.root()] = Encode(root);
  ++counters_.labels_assigned;
  counters_.bits_allocated += 128;
  return SectorizeChildren(tree, tree.root(), root, labels);
}

Result<InsertOutcome> SectorScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels) const {
  xml::NodeId parent = tree.parent(node);
  if (parent == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  Sector parent_sector;
  if (!Decode(labels[parent], &parent_sector)) {
    return Status::Internal("unlabelled parent");
  }
  uint64_t gap_lo = parent_sector.lo + 1;
  uint64_t gap_hi = parent_sector.hi;
  Sector neighbour;
  xml::NodeId prev = tree.prev_sibling(node);
  xml::NodeId next = tree.next_sibling(node);
  if (prev != xml::kInvalidNode && Decode(labels[prev], &neighbour)) {
    gap_lo = neighbour.hi;
  }
  if (next != xml::kInvalidNode && Decode(labels[next], &neighbour)) {
    gap_hi = neighbour.lo;
  }

  if (gap_hi > gap_lo && gap_hi - gap_lo >= kMinSlot) {
    uint64_t margin = (gap_hi - gap_lo) / 4;
    InsertOutcome outcome;
    outcome.label = Encode({gap_lo + margin, gap_hi - margin});
    ++counters_.labels_assigned;
    counters_.bits_allocated += 128;
    return outcome;
  }

  // Gap exhausted: re-sector the parent's subtree.
  std::vector<Label> fresh = labels;
  fresh.resize(tree.arena_size());
  XMLUP_RETURN_NOT_OK(
      SectorizeChildren(tree, parent, parent_sector, &fresh));
  InsertOutcome outcome;
  outcome.overflow = true;
  ++counters_.overflows;
  outcome.label = fresh[node];
  std::vector<xml::NodeId> stack = {parent};
  while (!stack.empty()) {
    xml::NodeId cur = stack.back();
    stack.pop_back();
    for (xml::NodeId c = tree.first_child(cur); c != xml::kInvalidNode;
         c = tree.next_sibling(c)) {
      if (c != node && !(fresh[c] == labels[c])) {
        outcome.relabeled.emplace_back(c, fresh[c]);
        ++counters_.relabels;
      }
      stack.push_back(c);
    }
  }
  return outcome;
}

int SectorScheme::Compare(const Label& a, const Label& b) const {
  Sector sa, sb;
  if (!Decode(a, &sa) || !Decode(b, &sb)) return a.bytes().compare(b.bytes());
  if (sa.lo != sb.lo) return sa.lo < sb.lo ? -1 : 1;
  // Wider sector (ancestor) first on equal starts; equal only for self.
  if (sa.hi != sb.hi) return sa.hi > sb.hi ? -1 : 1;
  return 0;
}

bool SectorScheme::OrderKey(const Label& label, std::string* out) const {
  Sector s;
  if (!Decode(label, &s)) return false;
  AppendBigEndian(s.lo, 8, out);
  AppendBigEndian(~s.hi, 8, out);  // Descending: wider sector first.
  return true;
}

bool SectorScheme::IsAncestor(const Label& ancestor,
                              const Label& descendant) const {
  Sector sa, sd;
  if (!Decode(ancestor, &sa) || !Decode(descendant, &sd)) return false;
  return sa.lo < sd.lo && sd.hi < sa.hi;
}

size_t SectorScheme::StorageBits(const Label& /*label*/) const { return 128; }

std::string SectorScheme::Render(const Label& label) const {
  Sector s;
  if (!Decode(label, &s)) return "<bad-label>";
  std::ostringstream os;
  os << "[" << s.lo << "," << s.hi << ")";
  return os.str();
}

}  // namespace xmlup::labels
