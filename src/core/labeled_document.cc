#include "core/labeled_document.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "core/label_index.h"

namespace xmlup::core {

using common::Result;
using common::Status;
using labels::Label;
using xml::NodeId;

LabeledDocument::LabeledDocument(xml::Tree tree,
                                 const labels::LabelingScheme* scheme,
                                 std::vector<Label> labels)
    : tree_(std::move(tree)), scheme_(scheme), labels_(std::move(labels)) {
  obs::Registry& reg = obs::GlobalMetrics();
  const std::string prefix = "doc." + std::string(scheme_->traits().name);
  metrics_.inserts = reg.GetCounter(prefix + ".inserts");
  metrics_.removes = reg.GetCounter(prefix + ".removes");
  metrics_.value_updates = reg.GetCounter(prefix + ".value_updates");
  metrics_.relabels = reg.GetCounter(prefix + ".relabels");
  metrics_.overflows = reg.GetCounter(prefix + ".overflows");
  metrics_.label_bits =
      reg.GetCounter(prefix + ".label_bits_assigned", obs::Unit::kCount);
}

LabeledDocument::LabeledDocument(LabeledDocument&& other) noexcept
    : tree_(std::move(other.tree_)),
      scheme_(other.scheme_),
      labels_(std::move(other.labels_)),
      observers_(std::move(other.observers_)),
      metrics_(other.metrics_),
      version_(other.version_),
      order_keys_(std::move(other.order_keys_)),
      order_keys_built_(other.order_keys_built_) {}

LabeledDocument& LabeledDocument::operator=(LabeledDocument&& other) noexcept {
  tree_ = std::move(other.tree_);
  scheme_ = other.scheme_;
  labels_ = std::move(other.labels_);
  observers_ = std::move(other.observers_);
  metrics_ = other.metrics_;
  version_ = other.version_;
  order_keys_ = std::move(other.order_keys_);
  order_keys_built_ = other.order_keys_built_;
  query_index_.reset();
  return *this;
}

LabeledDocument::~LabeledDocument() = default;

LabeledDocument LabeledDocument::CloneForView(
    const labels::LabelingScheme* scheme) const {
  LabeledDocument copy(tree_.Clone(), scheme, labels_);
  copy.version_ = version_;
  copy.order_keys_ = order_keys_;
  copy.order_keys_built_ = order_keys_built_;
  return copy;
}

Status LabeledDocument::PrewarmCaches() const {
  EnsureOrderKeys();
  return query_index().status();
}

Result<LabeledDocument> LabeledDocument::Build(
    xml::Tree tree, const labels::LabelingScheme* scheme) {
  std::vector<Label> labels;
  XMLUP_RETURN_NOT_OK(scheme->LabelTree(tree, &labels));
  return LabeledDocument(std::move(tree), scheme, std::move(labels));
}

Result<LabeledDocument> LabeledDocument::Restore(
    xml::Tree tree, const labels::LabelingScheme* scheme,
    std::vector<Label> labels) {
  if (labels.size() < tree.arena_size()) {
    return Status::InvalidArgument(
        "label vector does not cover the node arena");
  }
  LabeledDocument doc(std::move(tree), scheme, std::move(labels));
  XMLUP_RETURN_NOT_OK(doc.VerifyOrderAndUniqueness());
  return doc;
}

Result<NodeId> LabeledDocument::InsertNode(NodeId parent, xml::NodeKind kind,
                                           std::string name,
                                           std::string value, NodeId before,
                                           UpdateStats* stats) {
  XMLUP_ASSIGN_OR_RETURN(
      NodeId node, tree_.InsertChild(parent, kind, std::move(name),
                                     std::move(value), before));
  labels_.resize(tree_.arena_size());
  Result<labels::InsertOutcome> outcome =
      scheme_->LabelForInsert(tree_, node, labels_);
  if (!outcome.ok()) {
    // Keep tree and labels consistent: undo the structural insert.
    Status undo = tree_.RemoveSubtree(node);
    (void)undo;
    return outcome.status();
  }
  labels_[node] = outcome->label;
  for (const auto& [id, fresh] : outcome->relabeled) {
    labels_[id] = fresh;
  }
  NoteInsert(node, outcome->relabeled);
  UpdateStats applied;
  applied.relabeled = outcome->relabeled.size();
  applied.overflow = outcome->overflow;
  metrics_.inserts->Add(1);
  metrics_.relabels->Add(static_cast<int64_t>(applied.relabeled));
  if (applied.overflow) metrics_.overflows->Add(1);
  int64_t bits = static_cast<int64_t>(scheme_->StorageBits(outcome->label));
  for (const auto& [id, fresh] : outcome->relabeled) {
    (void)id;
    bits += static_cast<int64_t>(scheme_->StorageBits(fresh));
  }
  metrics_.label_bits->Add(bits);
  if (stats != nullptr) *stats = applied;
  for (UpdateObserver* observer : observers_) {
    observer->OnInsertNode(*this, node, applied);
  }
  return node;
}

Result<NodeId> LabeledDocument::InsertSubtree(NodeId parent,
                                              const xml::Tree& fragment,
                                              NodeId fragment_root,
                                              NodeId before,
                                              UpdateStats* stats) {
  if (!fragment.IsValid(fragment_root)) {
    return Status::InvalidArgument("invalid fragment root");
  }
  UpdateStats aggregate;
  UpdateStats step;
  XMLUP_ASSIGN_OR_RETURN(
      NodeId root,
      InsertNode(parent, fragment.kind(fragment_root),
                 fragment.name(fragment_root), fragment.value(fragment_root),
                 before, &step));
  aggregate.relabeled += step.relabeled;
  aggregate.overflow |= step.overflow;
  // Serialise the rest of the subtree as individual appends, pairing each
  // fragment node with its copy.
  std::vector<std::pair<NodeId, NodeId>> stack = {{fragment_root, root}};
  while (!stack.empty()) {
    auto [src, dst] = stack.back();
    stack.pop_back();
    for (NodeId c = fragment.first_child(src); c != xml::kInvalidNode;
         c = fragment.next_sibling(c)) {
      XMLUP_ASSIGN_OR_RETURN(
          NodeId copy,
          InsertNode(dst, fragment.kind(c), fragment.name(c),
                     fragment.value(c), xml::kInvalidNode, &step));
      aggregate.relabeled += step.relabeled;
      aggregate.overflow |= step.overflow;
      stack.push_back({c, copy});
    }
  }
  if (stats != nullptr) *stats = aggregate;
  return root;
}

Status LabeledDocument::RemoveSubtree(NodeId node) {
  XMLUP_RETURN_NOT_OK(tree_.RemoveSubtree(node));
  // Cached keys of surviving nodes remain valid: a key depends only on
  // its node's own label. Only the version moves.
  ++version_;
  metrics_.removes->Add(1);
  for (UpdateObserver* observer : observers_) {
    observer->OnRemoveSubtree(*this, node);
  }
  return Status::Ok();
}

Status LabeledDocument::UpdateValue(NodeId node, std::string value) {
  XMLUP_RETURN_NOT_OK(tree_.SetValue(node, std::move(value)));
  metrics_.value_updates->Add(1);
  for (UpdateObserver* observer : observers_) {
    observer->OnUpdateValue(*this, node);
  }
  return Status::Ok();
}

Status LabeledDocument::ApplyDeltaInsert(NodeId expect_node, NodeId parent,
                                         xml::NodeKind kind, std::string name,
                                         std::string value, NodeId before,
                                         const Label& label) {
  // Whether the cached index was in sync *before* this update; decided up
  // front because NoteInsert bumps version_.
  const bool index_fresh =
      query_index_ != nullptr && query_index_version_ == version_;
  XMLUP_ASSIGN_OR_RETURN(
      NodeId node, tree_.InsertChild(parent, kind, std::move(name),
                                     std::move(value), before));
  if (node != expect_node) {
    Status undo = tree_.RemoveSubtree(node);
    (void)undo;
    return Status::Internal("delta replay diverged: arena assigned node " +
                            std::to_string(node) + ", expected " +
                            std::to_string(expect_node));
  }
  labels_.resize(tree_.arena_size());
  labels_[node] = label;
  NoteInsert(node, {});
  if (index_fresh) {
    // An index in sync before the update admits an O(log n + moved)
    // incremental insertion of the new node.
    query_index_->Insert(node);
    query_index_version_ = version_;
  } else {
    query_index_.reset();
  }
  return Status::Ok();
}

Status LabeledDocument::ApplyDeltaRemove(NodeId node) {
  const bool index_fresh =
      query_index_ != nullptr && query_index_version_ == version_;
  XMLUP_RETURN_NOT_OK(tree_.RemoveSubtree(node));
  ++version_;
  if (index_fresh) {
    // EraseSubtree filters out entries whose nodes died, so it must run
    // after the tree removal.
    query_index_->EraseSubtree(node);
    query_index_version_ = version_;
  } else {
    query_index_.reset();
  }
  return Status::Ok();
}

Status LabeledDocument::ApplyDeltaValue(NodeId node, std::string value) {
  // Content updates touch neither labels nor structure: version, order
  // keys and the query index all stay valid.
  return tree_.SetValue(node, std::move(value));
}

void LabeledDocument::AddUpdateObserver(UpdateObserver* observer) {
  observers_.push_back(observer);
}

void LabeledDocument::RemoveUpdateObserver(UpdateObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void LabeledDocument::NoteInsert(
    NodeId node, const std::vector<std::pair<NodeId, Label>>& relabeled) {
  ++version_;
  if (!order_keys_built_) return;
  order_keys_.resize(labels_.size());
  std::string scratch;
  RefreshOrderKey(node, &scratch);
  for (const auto& entry : relabeled) RefreshOrderKey(entry.first, &scratch);
}

void LabeledDocument::RefreshOrderKey(NodeId node,
                                      std::string* scratch) const {
  scratch->clear();
  scheme_->OrderKey(labels_[node], scratch);
  order_keys_[node] = labels::SmallBytes(*scratch);
}

void LabeledDocument::EnsureOrderKeys() const {
  if (order_keys_built_) return;
  order_keys_.assign(labels_.size(), labels::SmallBytes());
  std::string scratch;
  for (NodeId n = 0; n < labels_.size(); ++n) {
    if (tree_.IsValid(n)) RefreshOrderKey(n, &scratch);
  }
  order_keys_built_ = true;
}

std::string_view LabeledDocument::order_key(NodeId node) const {
  EnsureOrderKeys();
  return order_keys_[node].view();
}

Result<const LabelIndex*> LabeledDocument::query_index() const {
  if (query_index_ == nullptr || query_index_version_ != version_) {
    XMLUP_ASSIGN_OR_RETURN(LabelIndex index, LabelIndex::Build(this));
    query_index_ = std::make_unique<LabelIndex>(std::move(index));
    query_index_version_ = version_;
  }
  return query_index_.get();
}

Status LabeledDocument::VerifyOrderAndUniqueness() const {
  std::vector<NodeId> order = tree_.PreorderNodes();
  for (NodeId n : order) {
    if (labels_[n].empty()) {
      return Status::Internal("node " + std::to_string(n) + " has no label");
    }
  }
  // Labels must increase strictly along preorder. For a transitive
  // Compare, n-1 adjacent comparisons accept exactly what sorting every
  // node by label and matching the result against preorder accepts.
  // Compare stays the authority (not the order-key cache): this is the
  // check that exposes schemes whose assignments break their own order.
  for (size_t i = 1; i < order.size(); ++i) {
    const NodeId prev = order[i - 1];
    const NodeId node = order[i];
    const int cmp = scheme_->Compare(labels_[prev], labels_[node]);
    if (cmp == 0) {
      std::ostringstream os;
      os << "duplicate label " << scheme_->Render(labels_[node])
         << " on nodes " << prev << " and " << node;
      return Status::Internal(os.str());
    }
    if (cmp > 0) {
      std::ostringstream os;
      os << "label order diverges from document order at position " << i
         << ": node " << node << " (" << scheme_->Render(labels_[node])
         << ") sorts before its preorder predecessor, node " << prev << " ("
         << scheme_->Render(labels_[prev]) << ")";
      return Status::Internal(os.str());
    }
  }
  return Status::Ok();
}

Status LabeledDocument::VerifyAxes(uint64_t seed, size_t sample_pairs) const {
  const labels::SchemeTraits& traits = scheme_->traits();
  std::vector<NodeId> nodes = tree_.PreorderNodes();
  if (nodes.size() < 2) return Status::Ok();

  // Exhaustive: every node against its parent chain (ancestor, parent,
  // level).
  for (NodeId n : nodes) {
    if (traits.supports_level) {
      Result<int> level = scheme_->Level(labels_[n]);
      if (!level.ok()) return level.status();
      if (*level != tree_.Depth(n)) {
        return Status::Internal(
            "level mismatch on node " + std::to_string(n) + ": label says " +
            std::to_string(*level) + ", tree says " +
            std::to_string(tree_.Depth(n)));
      }
    }
    NodeId parent = tree_.parent(n);
    if (parent == xml::kInvalidNode) continue;
    if (!scheme_->IsAncestor(labels_[parent], labels_[n])) {
      return Status::Internal("IsAncestor(parent, node) is false for node " +
                              std::to_string(n));
    }
    if (scheme_->IsAncestor(labels_[n], labels_[parent])) {
      return Status::Internal("IsAncestor(node, parent) is true for node " +
                              std::to_string(n));
    }
    if (traits.supports_parent &&
        !scheme_->IsParent(labels_[parent], labels_[n])) {
      return Status::Internal("IsParent(parent, node) is false for node " +
                              std::to_string(n));
    }
  }

  // Sampled pairs: ancestor/parent/sibling agreement with ground truth.
  common::SplitMix64 rng(seed);
  for (size_t i = 0; i < sample_pairs; ++i) {
    NodeId a = nodes[rng.NextBelow(nodes.size())];
    NodeId b = nodes[rng.NextBelow(nodes.size())];
    if (a == b) continue;
    bool truth = tree_.IsAncestor(a, b);
    if (scheme_->IsAncestor(labels_[a], labels_[b]) != truth) {
      std::ostringstream os;
      os << "IsAncestor(" << a << "," << b << ") disagrees with ground truth ("
         << scheme_->Render(labels_[a]) << " vs "
         << scheme_->Render(labels_[b]) << ")";
      return Status::Internal(os.str());
    }
    if (traits.supports_parent) {
      bool parent_truth = tree_.parent(b) == a;
      if (scheme_->IsParent(labels_[a], labels_[b]) != parent_truth) {
        return Status::Internal("IsParent disagreement on pair " +
                                std::to_string(a) + "," + std::to_string(b));
      }
    }
    if (traits.supports_sibling) {
      bool sibling_truth = tree_.parent(a) == tree_.parent(b) &&
                           tree_.parent(a) != xml::kInvalidNode;
      if (scheme_->IsSibling(labels_[a], labels_[b]) != sibling_truth) {
        return Status::Internal("IsSibling disagreement on pair " +
                                std::to_string(a) + "," + std::to_string(b));
      }
    }
  }
  return Status::Ok();
}

size_t LabeledDocument::TotalLabelBits() const {
  size_t bits = 0;
  for (NodeId n : tree_.PreorderNodes()) {
    bits += scheme_->StorageBits(labels_[n]);
  }
  return bits;
}

double LabeledDocument::AverageLabelBits() const {
  size_t count = tree_.node_count();
  if (count == 0) return 0.0;
  return static_cast<double>(TotalLabelBits()) / static_cast<double>(count);
}

}  // namespace xmlup::core
