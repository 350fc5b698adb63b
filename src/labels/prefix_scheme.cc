#include "labels/prefix_scheme.h"

#include <sstream>

#include "common/varint.h"
#include "labels/order_key.h"

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

PrefixScheme::PrefixScheme(SchemeTraits traits,
                           std::unique_ptr<OrderCodec> codec,
                           PrefixRenderStyle style)
    : traits_(std::move(traits)), codec_(std::move(codec)), style_(style) {
  traits_.family = "prefix";
  traits_.supports_parent = true;
  traits_.supports_sibling = true;
  traits_.supports_level = true;
}

std::vector<std::string> PrefixScheme::Components(const Label& label) {
  std::vector<std::string> out;
  std::string_view bytes = label.bytes();
  size_t pos = 0;
  uint64_t count = 0;
  if (!common::ReadVarint(bytes, &pos, &count)) return out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!common::ReadVarint(bytes, &pos, &len)) return out;
    if (pos + len > bytes.size()) return out;
    out.emplace_back(bytes.substr(pos, len));
    pos += len;
  }
  return out;
}

Label PrefixScheme::MakeLabel(const std::vector<std::string>& components) {
  std::string bytes;
  common::AppendVarint(components.size(), &bytes);
  for (const std::string& c : components) {
    common::AppendVarint(c.size(), &bytes);
    bytes += c;
  }
  return Label(std::move(bytes));
}

void PrefixScheme::NoteAssigned(const Label& label) const {
  ++counters_.labels_assigned;
  counters_.bits_allocated += StorageBits(label);
}

Status PrefixScheme::LabelChildren(
    const xml::Tree& tree, xml::NodeId parent,
    const std::vector<std::string>& parent_components,
    std::vector<Label>* labels) const {
  std::vector<xml::NodeId> children = tree.Children(parent);
  if (children.empty()) return Status::Ok();
  std::vector<std::string> codes;
  XMLUP_RETURN_NOT_OK(codec_->InitialCodes(children.size(), &codes,
                                           &counters_));
  std::vector<std::string> child_components = parent_components;
  child_components.push_back(std::string());
  for (size_t i = 0; i < children.size(); ++i) {
    child_components.back() = codes[i];
    (*labels)[children[i]] = MakeLabel(child_components);
    NoteAssigned((*labels)[children[i]]);
    XMLUP_RETURN_NOT_OK(
        LabelChildren(tree, children[i], child_components, labels));
  }
  return Status::Ok();
}

Status PrefixScheme::LabelTree(const xml::Tree& tree,
                               std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  (*labels)[tree.root()] = MakeLabel({});
  NoteAssigned((*labels)[tree.root()]);
  return LabelChildren(tree, tree.root(), {}, labels);
}

Result<InsertOutcome> PrefixScheme::RelabelSiblingRange(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels,
    const std::vector<std::string>& parent_components) const {
  xml::NodeId parent = tree.parent(node);
  std::vector<xml::NodeId> children = tree.Children(parent);
  std::vector<std::string> codes;
  XMLUP_RETURN_NOT_OK(
      codec_->InitialCodes(children.size(), &codes, &counters_));

  InsertOutcome outcome;
  outcome.overflow = true;
  ++counters_.overflows;

  size_t prefix_len = parent_components.size();
  for (size_t i = 0; i < children.size(); ++i) {
    xml::NodeId child = children[i];
    std::vector<std::string> comp = parent_components;
    comp.push_back(codes[i]);
    Label fresh = MakeLabel(comp);
    if (child == node) {
      outcome.label = fresh;
      NoteAssigned(fresh);
      continue;
    }
    if (fresh == labels[child]) continue;  // Unchanged (e.g. Dewey prefix).
    outcome.relabeled.emplace_back(child, fresh);
    ++counters_.relabels;
    // Rewrite the child's descendants: their own positional identifiers
    // are preserved, but the embedded ancestor path changes.
    std::vector<xml::NodeId> stack = {child};
    while (!stack.empty()) {
      xml::NodeId cur = stack.back();
      stack.pop_back();
      for (xml::NodeId c = tree.first_child(cur); c != xml::kInvalidNode;
           c = tree.next_sibling(c)) {
        std::vector<std::string> old = Components(labels[c]);
        std::vector<std::string> renewed = comp;
        renewed.insert(renewed.end(), old.begin() + prefix_len + 1,
                       old.end());
        Label fresh_desc = MakeLabel(renewed);
        if (fresh_desc != labels[c]) {
          outcome.relabeled.emplace_back(c, fresh_desc);
          ++counters_.relabels;
        }
        stack.push_back(c);
      }
    }
  }
  return outcome;
}

Result<InsertOutcome> PrefixScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels) const {
  xml::NodeId parent = tree.parent(node);
  if (parent == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  std::vector<std::string> parent_components = Components(labels[parent]);

  xml::NodeId prev = tree.prev_sibling(node);
  xml::NodeId next = tree.next_sibling(node);
  std::string left, right;
  if (prev != xml::kInvalidNode) {
    std::vector<std::string> c = Components(labels[prev]);
    if (c.empty()) return Status::Internal("unlabelled left sibling");
    left = c.back();
  }
  if (next != xml::kInvalidNode) {
    std::vector<std::string> c = Components(labels[next]);
    if (c.empty()) return Status::Internal("unlabelled right sibling");
    right = c.back();
  }

  Result<std::string> code = codec_->Between(left, right, &counters_);
  if (!code.ok()) {
    if (code.status().code() == common::StatusCode::kOverflow) {
      return RelabelSiblingRange(tree, node, labels, parent_components);
    }
    return code.status();
  }
  InsertOutcome outcome;
  parent_components.push_back(std::move(code).value());
  outcome.label = MakeLabel(parent_components);
  NoteAssigned(outcome.label);
  return outcome;
}

namespace {

// Iterates the length-prefixed components of an encoded prefix label
// without allocating.
class ComponentCursor {
 public:
  explicit ComponentCursor(const Label& label) : bytes_(label.bytes()) {
    if (!common::ReadVarint(bytes_, &pos_, &remaining_)) remaining_ = 0;
  }

  // Returns false when exhausted (or malformed).
  bool Next(std::string_view* component) {
    if (remaining_ == 0) return false;
    uint64_t len = 0;
    if (!common::ReadVarint(bytes_, &pos_, &len) ||
        pos_ + len > bytes_.size()) {
      remaining_ = 0;
      return false;
    }
    *component = bytes_.substr(pos_, len);
    pos_ += len;
    --remaining_;
    return true;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  uint64_t remaining_ = 0;
};

}  // namespace

int PrefixScheme::Compare(const Label& a, const Label& b) const {
  ComponentCursor ca(a), cb(b);
  while (true) {
    std::string_view xa, xb;
    bool ha = ca.Next(&xa);
    bool hb = cb.Next(&xb);
    if (!ha && !hb) return 0;
    // A prefix (ancestor) precedes its extensions in document order.
    if (!ha) return -1;
    if (!hb) return 1;
    int c = codec_->Compare(xa, xb);
    if (c != 0) return c;
  }
}

bool PrefixScheme::OrderKey(const Label& label, std::string* out) const {
  // One escaped-and-terminated codec key per component: memcmp over the
  // concatenation walks the components exactly as Compare() does, and an
  // ancestor (component-prefix) sorts before its descendants.
  ComponentCursor cursor(label);
  std::string_view component;
  std::string component_key;
  while (cursor.Next(&component)) {
    component_key.clear();
    if (!codec_->OrderKey(component, &component_key)) return false;
    AppendOrderKeyComponent(component_key, out);
  }
  return true;
}

bool PrefixScheme::IsAncestor(const Label& ancestor,
                              const Label& descendant) const {
  ComponentCursor ca(ancestor), cd(descendant);
  while (true) {
    std::string_view xa, xd;
    bool ha = ca.Next(&xa);
    bool hd = cd.Next(&xd);
    if (!ha) return hd;  // Proper prefix only.
    if (!hd) return false;
    if (xa != xd) return false;
  }
}

bool PrefixScheme::IsParent(const Label& parent, const Label& child) const {
  std::vector<std::string> cp = Components(parent);
  std::vector<std::string> cc = Components(child);
  if (cp.size() + 1 != cc.size()) return false;
  for (size_t i = 0; i < cp.size(); ++i) {
    if (cp[i] != cc[i]) return false;
  }
  return true;
}

bool PrefixScheme::IsSibling(const Label& a, const Label& b) const {
  std::vector<std::string> ca = Components(a);
  std::vector<std::string> cb = Components(b);
  if (ca.empty() || ca.size() != cb.size()) return false;
  for (size_t i = 0; i + 1 < ca.size(); ++i) {
    if (ca[i] != cb[i]) return false;
  }
  return ca.back() != cb.back();
}

Result<int> PrefixScheme::Level(const Label& label) const {
  return static_cast<int>(Components(label).size());
}

size_t PrefixScheme::StorageBits(const Label& label) const {
  size_t bits = 0;
  for (const std::string& c : Components(label)) {
    bits += codec_->StorageBits(c);
  }
  return bits;
}

std::string PrefixScheme::Render(const Label& label) const {
  std::vector<std::string> components = Components(label);
  std::ostringstream os;
  if (style_ == PrefixRenderStyle::kLsdx) {
    // Level, concatenated ancestor letters, dot, own letters. LSDX labels
    // the root "0a" and embeds that "a" in every descendant's path.
    os << components.size();
    os << "a";
    if (components.empty()) return os.str();
    for (size_t i = 0; i + 1 < components.size(); ++i) {
      os << codec_->Render(components[i]);
    }
    os << "." << codec_->Render(components.back());
    return os.str();
  }
  if (components.empty()) return "<root>";
  for (size_t i = 0; i < components.size(); ++i) {
    if (i > 0) os << ".";
    os << codec_->Render(components[i]);
  }
  return os.str();
}

}  // namespace xmlup::labels
