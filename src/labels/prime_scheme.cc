#include "labels/prime_scheme.h"

#include <sstream>

#include "common/varint.h"
#include "labels/order_key.h"

namespace xmlup::labels {

using common::BigUint;
using common::Result;
using common::Status;

PrimeScheme::PrimeScheme(uint64_t order_gap) : order_gap_(order_gap) {
  traits_.name = "prime";
  traits_.display_name = "Prime";
  traits_.family = "prime";
  traits_.order_approach = OrderApproach::kGlobal;
  traits_.encoding_rep = EncodingRep::kVariable;
  traits_.orthogonal = false;
  traits_.supports_parent = true;
  traits_.supports_sibling = true;
  traits_.supports_level = true;
  traits_.citation = "Wu, Lee & Hsu, ICDE 2004";
  traits_.in_paper_matrix = false;
}

Label PrimeScheme::Encode(const Parts& parts) {
  std::string bytes;
  common::AppendVarint(parts.level, &bytes);
  common::AppendVarint(parts.self_prime, &bytes);
  common::AppendVarint(parts.order_key, &bytes);
  bytes += parts.product.ToBytes();
  return Label(std::move(bytes));
}

bool PrimeScheme::Decode(const Label& label, Parts* parts) {
  std::string_view bytes = label.bytes();
  size_t pos = 0;
  uint64_t level = 0;
  if (!common::ReadVarint(bytes, &pos, &level)) return false;
  parts->level = static_cast<uint32_t>(level);
  if (!common::ReadVarint(bytes, &pos, &parts->self_prime)) return false;
  if (!common::ReadVarint(bytes, &pos, &parts->order_key)) return false;
  parts->product = BigUint::FromBytes(bytes.substr(pos));
  return true;
}

Status PrimeScheme::LabelTree(const xml::Tree& tree,
                              std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  primes_ = common::PrimeSource();
  std::vector<BigUint> products(tree.arena_size());
  uint64_t next_key = order_gap_;
  for (xml::NodeId node : tree.PreorderNodes()) {
    Parts parts;
    parts.self_prime = primes_.TakeNext();
    parts.order_key = next_key;
    next_key += order_gap_;
    xml::NodeId parent = tree.parent(node);
    if (parent == xml::kInvalidNode) {
      parts.level = 0;
      parts.product = BigUint(parts.self_prime);
    } else {
      Parts parent_parts;
      if (!Decode((*labels)[parent], &parent_parts)) {
        return Status::Internal("parent labelled after child");
      }
      parts.level = parent_parts.level + 1;
      parts.product = products[parent].MultiplySmall(parts.self_prime);
    }
    products[node] = parts.product;
    (*labels)[node] = Encode(parts);
    ++counters_.labels_assigned;
    counters_.bits_allocated += StorageBits((*labels)[node]);
  }
  return Status::Ok();
}

namespace {

// The node immediately before `node` in document order.
xml::NodeId DocOrderPredecessor(const xml::Tree& tree, xml::NodeId node) {
  xml::NodeId prev = tree.prev_sibling(node);
  if (prev == xml::kInvalidNode) return tree.parent(node);
  // Deepest last descendant of the previous sibling.
  while (tree.last_child(prev) != xml::kInvalidNode) {
    prev = tree.last_child(prev);
  }
  return prev;
}

// The node immediately after `node`'s subtree in document order (the new
// node is a leaf, so this is the node after `node` itself).
xml::NodeId DocOrderSuccessor(const xml::Tree& tree, xml::NodeId node) {
  for (xml::NodeId cur = node; cur != xml::kInvalidNode;
       cur = tree.parent(cur)) {
    xml::NodeId next = tree.next_sibling(cur);
    if (next != xml::kInvalidNode) return next;
  }
  return xml::kInvalidNode;
}

}  // namespace

Result<InsertOutcome> PrimeScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels) const {
  xml::NodeId parent = tree.parent(node);
  if (parent == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  Parts parent_parts;
  if (!Decode(labels[parent], &parent_parts)) {
    return Status::Internal("unlabelled parent");
  }
  Parts parts;
  parts.self_prime = primes_.TakeNext();
  parts.level = parent_parts.level + 1;
  parts.product = parent_parts.product.MultiplySmall(parts.self_prime);

  // Order key: bisect the document-order gap between the neighbours.
  xml::NodeId pred = DocOrderPredecessor(tree, node);
  xml::NodeId succ = DocOrderSuccessor(tree, node);
  Parts tmp;
  uint64_t lo = 0;
  if (pred != xml::kInvalidNode && Decode(labels[pred], &tmp)) {
    lo = tmp.order_key;
  }
  uint64_t hi = lo + 2 * order_gap_;
  if (succ != xml::kInvalidNode && Decode(labels[succ], &tmp)) {
    hi = tmp.order_key;
  }

  if (hi > lo + 1) {
    parts.order_key = lo + (hi - lo) / 2;
    InsertOutcome outcome;
    outcome.label = Encode(parts);
    ++counters_.labels_assigned;
    counters_.bits_allocated += StorageBits(outcome.label);
    return outcome;
  }

  // Gap exhausted: recalculate every order key (the simultaneous-
  // congruence recomputation of the original paper). Prime products are
  // untouched.
  InsertOutcome outcome;
  outcome.overflow = true;
  ++counters_.overflows;
  uint64_t next_key = order_gap_;
  for (xml::NodeId cur : tree.PreorderNodes()) {
    uint64_t key = next_key;
    next_key += order_gap_;
    if (cur == node) {
      parts.order_key = key;
      outcome.label = Encode(parts);
      ++counters_.labels_assigned;
      counters_.bits_allocated += StorageBits(outcome.label);
      continue;
    }
    Parts cur_parts;
    if (!Decode(labels[cur], &cur_parts)) continue;
    if (cur_parts.order_key == key) continue;
    cur_parts.order_key = key;
    outcome.relabeled.emplace_back(cur, Encode(cur_parts));
    ++counters_.relabels;
  }
  return outcome;
}

int PrimeScheme::Compare(const Label& a, const Label& b) const {
  Parts pa, pb;
  if (!Decode(a, &pa) || !Decode(b, &pb)) return a.bytes().compare(b.bytes());
  if (pa.order_key != pb.order_key) {
    return pa.order_key < pb.order_key ? -1 : 1;
  }
  return 0;
}

void PrimeScheme::OrderKey(const Label& label, std::string* out) const {
  Parts p;
  if (!Decode(label, &p)) return;
  AppendBigEndian(p.order_key, 8, out);
}

bool PrimeScheme::IsAncestor(const Label& ancestor,
                             const Label& descendant) const {
  Parts pa, pd;
  if (!Decode(ancestor, &pa) || !Decode(descendant, &pd)) return false;
  return pa.level < pd.level && pd.product.DivisibleBy(pa.product);
}

bool PrimeScheme::IsParent(const Label& parent, const Label& child) const {
  Parts pp, pc;
  if (!Decode(parent, &pp) || !Decode(child, &pc)) return false;
  if (pc.level != pp.level + 1) return false;
  // parent.product * child.self_prime == child.product (multiplication
  // only — no division).
  return pp.product.MultiplySmall(pc.self_prime) == pc.product;
}

bool PrimeScheme::IsSibling(const Label& a, const Label& b) const {
  Parts pa, pb;
  if (!Decode(a, &pa) || !Decode(b, &pb)) return false;
  if (pa.level != pb.level || pa.self_prime == pb.self_prime) return false;
  // Equal parent products via cross-multiplication.
  return pa.product.MultiplySmall(pb.self_prime) ==
         pb.product.MultiplySmall(pa.self_prime);
}

Result<int> PrimeScheme::Level(const Label& label) const {
  Parts p;
  if (!Decode(label, &p)) {
    return Status::InvalidArgument("malformed prime label");
  }
  return static_cast<int>(p.level);
}

size_t PrimeScheme::StorageBits(const Label& label) const {
  return 8 * label.size();
}

std::string PrimeScheme::Render(const Label& label) const {
  Parts p;
  if (!Decode(label, &p)) return "<bad-label>";
  std::ostringstream os;
  os << p.product.ToString() << "(p" << p.self_prime << ")";
  return os.str();
}

}  // namespace xmlup::labels
