#include "labels/containment_scheme.h"

#include <sstream>

#include "common/varint.h"

namespace xmlup::labels {

using common::Result;
using common::Status;

ContainmentScheme::ContainmentScheme(SchemeTraits traits,
                                     std::unique_ptr<OrderCodec> codec)
    : traits_(std::move(traits)), codec_(std::move(codec)) {
  traits_.family = "containment";
  traits_.supports_parent = false;
  traits_.supports_sibling = false;
  traits_.supports_level = false;
}

bool ContainmentScheme::Split(const Label& label, std::string* begin,
                              std::string* end) {
  std::string_view bytes = label.bytes();
  size_t pos = 0;
  uint64_t len = 0;
  if (!common::ReadVarint(bytes, &pos, &len) || pos + len > bytes.size()) {
    return false;
  }
  *begin = std::string(bytes.substr(pos, len));
  pos += len;
  if (!common::ReadVarint(bytes, &pos, &len) || pos + len > bytes.size()) {
    return false;
  }
  *end = std::string(bytes.substr(pos, len));
  return true;
}

Label ContainmentScheme::MakeLabel(const std::string& begin,
                                   const std::string& end) {
  std::string bytes;
  common::AppendVarint(begin.size(), &bytes);
  bytes += begin;
  common::AppendVarint(end.size(), &bytes);
  bytes += end;
  return Label(std::move(bytes));
}

void ContainmentScheme::NoteAssigned(const Label& label) const {
  ++counters_.labels_assigned;
  counters_.bits_allocated += StorageBits(label);
}

Status ContainmentScheme::LabelTree(const xml::Tree& tree,
                                    std::vector<Label>* labels) const {
  labels->assign(tree.arena_size(), Label());
  if (!tree.has_root()) return Status::Ok();
  // One code per depth-first entry and exit event.
  std::vector<std::string> codes;
  XMLUP_RETURN_NOT_OK(
      codec_->InitialCodes(2 * tree.node_count(), &codes, &counters_));

  // Iterative DFS assigning entry/exit code indices.
  size_t next_code = 0;
  std::vector<size_t> begin_index(tree.arena_size(), 0);
  struct Frame {
    xml::NodeId node;
    bool entered;
  };
  std::vector<Frame> stack = {{tree.root(), false}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.entered) {
      (*labels)[frame.node] =
          MakeLabel(codes[begin_index[frame.node]], codes[next_code++]);
      NoteAssigned((*labels)[frame.node]);
      continue;
    }
    begin_index[frame.node] = next_code++;
    stack.push_back({frame.node, true});
    std::vector<xml::NodeId> kids = tree.Children(frame.node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, false});
    }
  }
  return Status::Ok();
}

Result<InsertOutcome> ContainmentScheme::LabelForInsert(
    const xml::Tree& tree, xml::NodeId node,
    const std::vector<Label>& labels) const {
  xml::NodeId parent = tree.parent(node);
  if (parent == xml::kInvalidNode) {
    return Status::InvalidArgument("cannot insert a new root");
  }
  std::string left, right, tmp;
  xml::NodeId prev = tree.prev_sibling(node);
  xml::NodeId next = tree.next_sibling(node);
  if (prev != xml::kInvalidNode) {
    if (!Split(labels[prev], &tmp, &left)) {
      return Status::Internal("unlabelled left sibling");
    }
  } else if (!Split(labels[parent], &left, &tmp)) {
    return Status::Internal("unlabelled parent");
  }
  if (next != xml::kInvalidNode) {
    if (!Split(labels[next], &right, &tmp)) {
      return Status::Internal("unlabelled right sibling");
    }
  } else if (!Split(labels[parent], &tmp, &right)) {
    return Status::Internal("unlabelled parent");
  }

  Result<std::string> begin = codec_->Between(left, right, &counters_);
  Result<std::string> end =
      begin.ok() ? codec_->Between(begin.value(), right, &counters_)
                 : Result<std::string>(begin.status());
  if (!begin.ok() || !end.ok()) {
    const Status& st = begin.ok() ? end.status() : begin.status();
    if (st.code() != common::StatusCode::kOverflow) return st;
    // Encoding budget exhausted: relabel the entire document (§4).
    std::vector<Label> fresh;
    XMLUP_RETURN_NOT_OK(LabelTree(tree, &fresh));
    InsertOutcome outcome;
    outcome.overflow = true;
    ++counters_.overflows;
    outcome.label = fresh[node];
    for (xml::NodeId id = 0; id < fresh.size(); ++id) {
      if (id == node || fresh[id].empty()) continue;
      if (!(fresh[id] == labels[id])) {
        outcome.relabeled.emplace_back(id, fresh[id]);
        ++counters_.relabels;
      }
    }
    return outcome;
  }

  InsertOutcome outcome;
  outcome.label = MakeLabel(begin.value(), end.value());
  NoteAssigned(outcome.label);
  return outcome;
}

int ContainmentScheme::Compare(const Label& a, const Label& b) const {
  std::string ab, ae, bb, be;
  if (!Split(a, &ab, &ae) || !Split(b, &bb, &be)) {
    return a.bytes().compare(b.bytes());
  }
  int c = codec_->Compare(ab, bb);
  if (c != 0) return c;
  // Equal begins only happen comparing a label with itself.
  return codec_->Compare(be, ae);
}

void ContainmentScheme::OrderKey(const Label& label, std::string* out) const {
  // Document order is the order of the begin codes (ends only break the
  // self-comparison tie), so the begin code's key is the label's key.
  std::string begin, end;
  if (!Split(label, &begin, &end)) return;
  codec_->OrderKey(begin, out);
}

bool ContainmentScheme::IsAncestor(const Label& ancestor,
                                   const Label& descendant) const {
  std::string ab, ae, db, de;
  if (!Split(ancestor, &ab, &ae) || !Split(descendant, &db, &de)) {
    return false;
  }
  return codec_->Compare(ab, db) < 0 && codec_->Compare(de, ae) < 0;
}

size_t ContainmentScheme::StorageBits(const Label& label) const {
  std::string b, e;
  if (!Split(label, &b, &e)) return 8 * label.size();
  return codec_->StorageBits(b) + codec_->StorageBits(e);
}

std::string ContainmentScheme::Render(const Label& label) const {
  std::string b, e;
  if (!Split(label, &b, &e)) return "<bad-label>";
  std::ostringstream os;
  os << "[" << codec_->Render(b) << ", " << codec_->Render(e) << "]";
  return os.str();
}

}  // namespace xmlup::labels
