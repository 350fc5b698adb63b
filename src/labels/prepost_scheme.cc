#include "labels/prepost_scheme.h"

#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;

PrePostScheme::PrePostScheme() {
  traits_.name = "xpath-accelerator";
  traits_.display_name = "XPath Accelerator";
  traits_.family = "containment";
  traits_.order_approach = OrderApproach::kGlobal;
  traits_.encoding_rep = EncodingRep::kFixed;
  traits_.orthogonal = false;
  traits_.supports_parent = true;
  traits_.supports_sibling = false;
  traits_.supports_level = true;
  traits_.citation = "Grust, SIGMOD 2002";
  traits_.in_paper_matrix = true;
}

Label PrePostScheme::Encode(const Ranks& ranks) {
  std::string bytes(10, '\0');
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((ranks.pre >> (8 * i)) & 0xFF);
    bytes[4 + i] = static_cast<char>((ranks.post >> (8 * i)) & 0xFF);
  }
  bytes[8] = static_cast<char>(ranks.level & 0xFF);
  bytes[9] = static_cast<char>((ranks.level >> 8) & 0xFF);
  return Label(std::move(bytes));
}

bool PrePostScheme::Decode(const Label& label, Ranks* ranks) {
  std::string_view bytes = label.bytes();
  if (bytes.size() != 10) return false;
  ranks->pre = 0;
  ranks->post = 0;
  for (int i = 0; i < 4; ++i) {
    ranks->pre |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i]))
                  << (8 * i);
    ranks->post |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[4 + i]))
                   << (8 * i);
  }
  ranks->level = static_cast<uint16_t>(
      static_cast<uint8_t>(bytes[8]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(bytes[9])) << 8));
  return true;
}

Status PrePostScheme::LabelTree(const xml::Tree& tree,
                                std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  uint32_t next_pre = 0;
  uint32_t next_post = 0;
  struct Frame {
    xml::NodeId node;
    bool entered;
    uint16_t level;
    uint32_t pre;
  };
  std::vector<Frame> stack = {{tree.root(), false, 0, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.entered) {
      (*labels)[frame.node] =
          Encode({frame.pre, next_post++, frame.level});
      ++counters_.labels_assigned;
      counters_.bits_allocated += 80;
      continue;
    }
    frame.pre = next_pre++;
    frame.entered = true;
    stack.push_back(frame);
    std::vector<xml::NodeId> kids = tree.Children(frame.node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, false, static_cast<uint16_t>(frame.level + 1), 0});
    }
  }
  return Status::Ok();
}

Result<InsertOutcome> PrePostScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels) const {
  // A global-order scheme has no room between consecutive ranks: renumber
  // the document and report every changed label.
  std::vector<Label> fresh;
  XMLUP_RETURN_NOT_OK(LabelTree(tree, &fresh));
  InsertOutcome outcome;
  outcome.overflow = true;  // Rank space is always "exhausted" (gap = 0).
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

int PrePostScheme::Compare(const Label& a, const Label& b) const {
  Ranks ra, rb;
  if (!Decode(a, &ra) || !Decode(b, &rb)) return a.bytes().compare(b.bytes());
  return ra.pre < rb.pre ? -1 : (ra.pre > rb.pre ? 1 : 0);
}

void PrePostScheme::OrderKey(const Label& label, std::string* out) const {
  Ranks r;
  if (!Decode(label, &r)) return;
  AppendBigEndian(r.pre, 4, out);
}

bool PrePostScheme::IsAncestor(const Label& ancestor,
                               const Label& descendant) const {
  Ranks ra, rd;
  if (!Decode(ancestor, &ra) || !Decode(descendant, &rd)) return false;
  return ra.pre < rd.pre && rd.post < ra.post;
}

bool PrePostScheme::IsParent(const Label& parent, const Label& child) const {
  Ranks rp, rc;
  if (!Decode(parent, &rp) || !Decode(child, &rc)) return false;
  return rp.pre < rc.pre && rc.post < rp.post && rc.level == rp.level + 1;
}

Result<int> PrePostScheme::Level(const Label& label) const {
  Ranks r;
  if (!Decode(label, &r)) {
    return Status::InvalidArgument("malformed pre/post label");
  }
  return static_cast<int>(r.level);
}

size_t PrePostScheme::StorageBits(const Label& /*label*/) const { return 80; }

std::string PrePostScheme::Render(const Label& label) const {
  Ranks r;
  if (!Decode(label, &r)) return "<bad-label>";
  std::ostringstream os;
  os << r.pre << "," << r.post;
  return os.str();
}

}  // namespace xmlup::labels
