#include "labels/dde_scheme.h"

#include <sstream>

#include "common/varint.h"
#include "labels/order_key.h"

namespace xmlup::labels {

using common::Result;
using common::Status;
using xml::NodeId;

namespace {

// u_a * w_b < v_a * w_... — the division-free rational comparison:
// compares a/b with c/d as a*d <=> c*b using 128-bit intermediates.
int CrossCompare(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  unsigned __int128 lhs =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(d);
  unsigned __int128 rhs =
      static_cast<unsigned __int128>(c) * static_cast<unsigned __int128>(b);
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

bool CheckedAdd(uint64_t a, uint64_t b, uint64_t* out) {
  *out = a + b;
  return *out >= a;
}

}  // namespace

DdeScheme::DdeScheme() {
  traits_.name = "dde";
  traits_.display_name = "DDE";
  traits_.family = "prefix";
  traits_.order_approach = OrderApproach::kHybrid;
  traits_.encoding_rep = EncodingRep::kVariable;
  traits_.orthogonal = false;
  traits_.supports_parent = true;
  traits_.supports_sibling = true;
  traits_.supports_level = true;
  traits_.citation = "Xu, Ling, Wu & Bao, SIGMOD 2009";
  traits_.in_paper_matrix = false;
}

Label DdeScheme::Encode(const std::vector<uint64_t>& components) {
  std::string bytes;
  common::AppendVarint(components.size(), &bytes);
  for (uint64_t c : components) common::AppendVarint(c, &bytes);
  return Label(std::move(bytes));
}

std::vector<uint64_t> DdeScheme::DecodeComponents(const Label& label) {
  std::vector<uint64_t> out;
  std::string_view bytes = label.bytes();
  size_t pos = 0;
  uint64_t count = 0;
  if (!common::ReadVarint(bytes, &pos, &count)) return out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t c = 0;
    if (!common::ReadVarint(bytes, &pos, &c)) return out;
    out.push_back(c);
  }
  return out;
}

Status DdeScheme::LabelTree(const xml::Tree& tree,
                            std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  // Initial labelling is exactly Dewey: root (1); k-th child appends k.
  (*labels)[tree.root()] = Encode({1});
  ++counters_.labels_assigned;
  counters_.bits_allocated += StorageBits((*labels)[tree.root()]);
  struct Frame {
    NodeId node;
    std::vector<uint64_t> components;
  };
  std::vector<Frame> stack = {{tree.root(), {1}}};
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    uint64_t position = 0;
    for (NodeId c = tree.first_child(frame.node); c != xml::kInvalidNode;
         c = tree.next_sibling(c)) {
      std::vector<uint64_t> child = frame.components;
      child.push_back(++position);
      (*labels)[c] = Encode(child);
      ++counters_.labels_assigned;
      counters_.bits_allocated += StorageBits((*labels)[c]);
      stack.push_back({c, std::move(child)});
    }
  }
  return Status::Ok();
}

Result<InsertOutcome> DdeScheme::LabelForInsert(
    const xml::Tree& tree, NodeId node,
    const std::vector<Label>& labels) const {
  NodeId parent = tree.parent(node);
  if (parent == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  NodeId prev = tree.prev_sibling(node);
  NodeId next = tree.next_sibling(node);
  std::vector<uint64_t> fresh;
  bool overflowed = false;
  if (prev == xml::kInvalidNode && next == xml::kInvalidNode) {
    // First child: Dewey append.
    fresh = DecodeComponents(labels[parent]);
    fresh.push_back(1);
  } else if (prev == xml::kInvalidNode) {
    // Before the first child x: the mediant of x with the parent's label
    // extended by 0 — the prefix ratios (the parent's) are preserved and
    // only the final ratio shrinks, so the new label stays inside the
    // parent's subtree and before its neighbour.
    fresh = DecodeComponents(labels[next]);
    std::vector<uint64_t> p = DecodeComponents(labels[parent]);
    if (fresh.empty() || p.size() + 1 != fresh.size()) {
      return Status::Internal("malformed sibling/parent labels");
    }
    for (size_t i = 0; i < p.size(); ++i) {
      overflowed |= !CheckedAdd(fresh[i], p[i], &fresh[i]);
    }
  } else if (next == xml::kInvalidNode) {
    // After the last child: adding the first component to the last one
    // raises only the final ratio.
    fresh = DecodeComponents(labels[prev]);
    if (fresh.empty()) return Status::Internal("unlabelled left sibling");
    overflowed = !CheckedAdd(fresh.back(), fresh[0], &fresh.back());
  } else {
    // Between two siblings: the component-wise sum (mediant), whose ratio
    // sequence lies strictly between the neighbours'.
    std::vector<uint64_t> left = DecodeComponents(labels[prev]);
    std::vector<uint64_t> right = DecodeComponents(labels[next]);
    if (left.size() != right.size() || left.empty()) {
      return Status::Internal("malformed sibling labels");
    }
    fresh.resize(left.size());
    for (size_t i = 0; i < left.size(); ++i) {
      overflowed |= !CheckedAdd(left[i], right[i], &fresh[i]);
    }
  }
  if (overflowed) {
    // 64-bit component space exhausted: relabel the document (the same
    // event the Vector scheme's integer growth eventually hits).
    std::vector<Label> renewed;
    XMLUP_RETURN_NOT_OK(LabelTree(tree, &renewed));
    InsertOutcome outcome;
    outcome.overflow = true;
    ++counters_.overflows;
    outcome.label = renewed[node];
    for (size_t id = 0; id < renewed.size(); ++id) {
      if (id == node || renewed[id].empty()) continue;
      if (!(renewed[id] == labels[id])) {
        outcome.relabeled.emplace_back(static_cast<NodeId>(id),
                                       renewed[id]);
        ++counters_.relabels;
      }
    }
    return outcome;
  }
  InsertOutcome outcome;
  outcome.label = Encode(fresh);
  ++counters_.labels_assigned;
  counters_.bits_allocated += StorageBits(outcome.label);
  return outcome;
}

int DdeScheme::Compare(const Label& a, const Label& b) const {
  std::vector<uint64_t> u = DecodeComponents(a);
  std::vector<uint64_t> v = DecodeComponents(b);
  if (u.empty() || v.empty()) return a.bytes().compare(b.bytes());
  size_t m = std::min(u.size(), v.size());
  for (size_t k = 1; k < m; ++k) {
    int c = CrossCompare(u[k], u[0], v[k], v[0]);
    if (c != 0) return c;
  }
  if (u.size() == v.size()) return 0;
  return u.size() < v.size() ? -1 : 1;  // Ancestor (prefix) first.
}

void DdeScheme::OrderKey(const Label& label, std::string* out) const {
  const std::vector<uint64_t> u = DecodeComponents(label);
  if (u.empty() || u[0] == 0) return;
  std::string ratio;
  for (size_t k = 1; k < u.size(); ++k) {
    ratio.clear();
    AppendRatioKey(u[k], u[0], &ratio);
    AppendOrderKeyComponent(ratio, out);
  }
}

bool DdeScheme::IsAncestor(const Label& ancestor,
                           const Label& descendant) const {
  std::vector<uint64_t> u = DecodeComponents(ancestor);
  std::vector<uint64_t> v = DecodeComponents(descendant);
  if (u.empty() || u.size() >= v.size()) return false;
  for (size_t k = 1; k < u.size(); ++k) {
    if (CrossCompare(u[k], u[0], v[k], v[0]) != 0) return false;
  }
  return true;
}

bool DdeScheme::IsParent(const Label& parent, const Label& child) const {
  std::vector<uint64_t> u = DecodeComponents(parent);
  std::vector<uint64_t> v = DecodeComponents(child);
  if (u.empty() || u.size() + 1 != v.size()) return false;
  for (size_t k = 1; k < u.size(); ++k) {
    if (CrossCompare(u[k], u[0], v[k], v[0]) != 0) return false;
  }
  return true;
}

bool DdeScheme::IsSibling(const Label& a, const Label& b) const {
  std::vector<uint64_t> u = DecodeComponents(a);
  std::vector<uint64_t> v = DecodeComponents(b);
  if (u.size() != v.size() || u.size() < 2) return false;
  for (size_t k = 1; k + 1 < u.size(); ++k) {
    if (CrossCompare(u[k], u[0], v[k], v[0]) != 0) return false;
  }
  // Distinct labels: the final ratio must differ.
  return CrossCompare(u.back(), u[0], v.back(), v[0]) != 0;
}

Result<int> DdeScheme::Level(const Label& label) const {
  std::vector<uint64_t> u = DecodeComponents(label);
  if (u.empty()) return Status::InvalidArgument("malformed DDE label");
  return static_cast<int>(u.size() - 1);
}

size_t DdeScheme::StorageBits(const Label& label) const {
  size_t bits = 0;
  for (uint64_t c : DecodeComponents(label)) {
    bits += 8 * common::VarintSize(c);
  }
  return bits;
}

std::string DdeScheme::Render(const Label& label) const {
  std::ostringstream os;
  std::vector<uint64_t> components = DecodeComponents(label);
  for (size_t i = 0; i < components.size(); ++i) {
    if (i > 0) os << ".";
    os << components[i];
  }
  return os.str();
}

}  // namespace xmlup::labels
