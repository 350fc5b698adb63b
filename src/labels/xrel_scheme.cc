#include "labels/xrel_scheme.h"

#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;

XRelScheme::XRelScheme() {
  traits_.name = "xrel";
  traits_.display_name = "XRel";
  traits_.family = "containment";
  traits_.order_approach = OrderApproach::kGlobal;
  traits_.encoding_rep = EncodingRep::kFixed;
  traits_.orthogonal = false;
  traits_.supports_parent = true;
  traits_.supports_sibling = false;
  traits_.supports_level = true;
  traits_.citation = "Yoshikawa et al., ACM TOIT 2001";
  traits_.in_paper_matrix = true;
}

Label XRelScheme::Encode(const Region& region) {
  std::string bytes(10, '\0');
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((region.start >> (8 * i)) & 0xFF);
    bytes[4 + i] = static_cast<char>((region.end >> (8 * i)) & 0xFF);
  }
  bytes[8] = static_cast<char>(region.level & 0xFF);
  bytes[9] = static_cast<char>((region.level >> 8) & 0xFF);
  return Label(std::move(bytes));
}

bool XRelScheme::Decode(const Label& label, Region* region) {
  std::string_view bytes = label.bytes();
  if (bytes.size() != 10) return false;
  region->start = 0;
  region->end = 0;
  for (int i = 0; i < 4; ++i) {
    region->start |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i]))
                     << (8 * i);
    region->end |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[4 + i]))
                   << (8 * i);
  }
  region->level = static_cast<uint16_t>(
      static_cast<uint8_t>(bytes[8]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(bytes[9])) << 8));
  return true;
}

Status XRelScheme::LabelTree(const xml::Tree& tree,
                             std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  uint32_t position = 0;
  struct Frame {
    xml::NodeId node;
    bool entered;
    uint16_t level;
    uint32_t start;
  };
  std::vector<Frame> stack = {{tree.root(), false, 0, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.entered) {
      (*labels)[frame.node] = Encode({frame.start, position++, frame.level});
      ++counters_.labels_assigned;
      counters_.bits_allocated += 80;
      continue;
    }
    frame.start = position++;
    frame.entered = true;
    stack.push_back(frame);
    std::vector<xml::NodeId> kids = tree.Children(frame.node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, false, static_cast<uint16_t>(frame.level + 1), 0});
    }
  }
  return Status::Ok();
}

Result<InsertOutcome> XRelScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
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
      outcome.relabeled.emplace_back(static_cast<xml::NodeId>(id), fresh[id]);
      ++counters_.relabels;
    }
  }
  return outcome;
}

int XRelScheme::Compare(const Label& a, const Label& b) const {
  Region ra, rb;
  if (!Decode(a, &ra) || !Decode(b, &rb)) return a.bytes().compare(b.bytes());
  return ra.start < rb.start ? -1 : (ra.start > rb.start ? 1 : 0);
}

void XRelScheme::OrderKey(const Label& label, std::string* out) const {
  Region r;
  if (!Decode(label, &r)) return;
  AppendBigEndian(r.start, 4, out);
}

bool XRelScheme::IsAncestor(const Label& ancestor,
                            const Label& descendant) const {
  Region ra, rd;
  if (!Decode(ancestor, &ra) || !Decode(descendant, &rd)) return false;
  return ra.start < rd.start && rd.end < ra.end;
}

bool XRelScheme::IsParent(const Label& parent, const Label& child) const {
  Region rp, rc;
  if (!Decode(parent, &rp) || !Decode(child, &rc)) return false;
  return rp.start < rc.start && rc.end < rp.end &&
         rc.level == rp.level + 1;
}

Result<int> XRelScheme::Level(const Label& label) const {
  Region r;
  if (!Decode(label, &r)) {
    return Status::InvalidArgument("malformed XRel label");
  }
  return static_cast<int>(r.level);
}

size_t XRelScheme::StorageBits(const Label& /*label*/) const { return 80; }

std::string XRelScheme::Render(const Label& label) const {
  Region r;
  if (!Decode(label, &r)) return "<bad-label>";
  std::ostringstream os;
  os << "[" << r.start << "," << r.end << "]";
  return os.str();
}

}  // namespace xmlup::labels
