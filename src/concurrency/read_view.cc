#include "concurrency/read_view.h"

#include "core/label_index.h"
#include "core/snapshot.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"

namespace xmlup::concurrency {

using common::Result;
using common::Status;
using xml::NodeId;

ReadView::ReadView(std::unique_ptr<labels::LabelingScheme> scheme,
                   core::LabeledDocument doc, uint64_t epoch)
    : scheme_(std::move(scheme)),
      doc_(std::make_unique<core::LabeledDocument>(std::move(doc))),
      epoch_(epoch) {}

void ReadView::Prewarm() {
  // Prewarm every lazily built structure on this (the writer's) thread so
  // concurrent readers only ever hit the already-built fast paths: the
  // order-key cache first, then the LabelIndex on top of it. After this,
  // all query entry points are const-pure.
  indexed_ = doc_->PrewarmCaches().ok();
}

Result<std::shared_ptr<const ReadView>> ReadView::FromSnapshot(
    std::string_view snapshot_bytes, uint64_t epoch,
    const labels::SchemeOptions& options) {
  std::unique_ptr<labels::LabelingScheme> scheme;
  XMLUP_ASSIGN_OR_RETURN(core::LabeledDocument doc,
                         core::LoadSnapshot(snapshot_bytes, &scheme, options));
  std::shared_ptr<ReadView> view(
      new ReadView(std::move(scheme), std::move(doc), epoch));
  view->Prewarm();
  return std::shared_ptr<const ReadView>(std::move(view));
}

Result<std::unique_ptr<ReadView>> ReadView::CloneFromLive(
    const core::LabeledDocument& live, const labels::SchemeOptions& options,
    uint64_t epoch) {
  XMLUP_ASSIGN_OR_RETURN(
      std::unique_ptr<labels::LabelingScheme> scheme,
      labels::CreateScheme(live.scheme().traits().name, options));
  core::LabeledDocument doc = live.CloneForView(scheme.get());
  std::unique_ptr<ReadView> view(
      new ReadView(std::move(scheme), std::move(doc), epoch));
  view->Prewarm();
  return view;
}

Status ReadView::ApplyDelta(const std::deque<DeltaOp>& ops, size_t begin,
                            size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const DeltaOp& op = ops[i];
    switch (op.kind) {
      case DeltaOp::Kind::kInsert:
        XMLUP_RETURN_NOT_OK(doc_->ApplyDeltaInsert(op.node, op.parent,
                                                   op.node_kind, op.name,
                                                   op.value, op.before,
                                                   op.label));
        break;
      case DeltaOp::Kind::kRemove:
        XMLUP_RETURN_NOT_OK(doc_->ApplyDeltaRemove(op.node));
        break;
      case DeltaOp::Kind::kSetValue:
        XMLUP_RETURN_NOT_OK(doc_->ApplyDeltaValue(op.node, op.value));
        break;
    }
  }
  Prewarm();
  return Status::Ok();
}

Result<std::vector<NodeId>> ReadView::Query(
    std::string_view expression) const {
  if (indexed_) {
    xpath::XPathEvaluator label_eval(doc_.get(), xpath::EvalMode::kLabels,
                                     /*use_index=*/true);
    Result<std::vector<NodeId>> result = label_eval.Query(expression);
    // Partial schemes (Figure 7) cannot answer every axis from labels;
    // those queries — and only those — drop to the frozen tree.
    if (result.ok() ||
        result.status().code() != common::StatusCode::kUnsupported) {
      return result;
    }
  }
  xpath::XPathEvaluator tree_eval(doc_.get(), xpath::EvalMode::kTree);
  return tree_eval.Query(expression);
}

std::string ReadView::StringValue(NodeId node) const {
  xpath::XPathEvaluator eval(doc_.get(), xpath::EvalMode::kTree);
  return eval.StringValue(node);
}

Result<std::string> ReadView::SerializeXml() const {
  return xml::SerializeDocument(doc_->tree());
}

}  // namespace xmlup::concurrency
