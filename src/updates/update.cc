#include "updates/update.h"

#include <utility>

#include "xpath/evaluator.h"

namespace xmlup::updates {

using common::Result;
using common::Status;
using xml::NodeId;

Result<xml::NodeKind> NodeKindForToken(const std::string& type) {
  if (type == "elem") return xml::NodeKind::kElement;
  if (type == "attr") return xml::NodeKind::kAttribute;
  if (type == "text") return xml::NodeKind::kText;
  if (type == "comment") return xml::NodeKind::kComment;
  return Status::InvalidArgument("unknown node type \"" + type + "\"");
}

Result<std::vector<UpdateRequest>> ParseActionTokens(
    const std::vector<std::string>& tokens) {
  std::vector<UpdateRequest> requests;
  std::vector<bool> has_value;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok == "-i" || tok == "-a" || tok == "-s" || tok == "-d" ||
        tok == "-u" || tok == "-r" || tok == "--rename") {
      if (i + 1 >= tokens.size()) {
        return Status::InvalidArgument("missing XPath operand after \"" + tok +
                                       "\"");
      }
      UpdateRequest request;
      switch (tok[1]) {
        case 'i': request.op = UpdateRequest::Op::kInsertBefore; break;
        case 'a': request.op = UpdateRequest::Op::kInsertAfter; break;
        case 's': request.op = UpdateRequest::Op::kInsertChild; break;
        case 'd': request.op = UpdateRequest::Op::kDelete; break;
        case 'u': request.op = UpdateRequest::Op::kSetValue; break;
        default: request.op = UpdateRequest::Op::kRename; break;
      }
      request.xpath = tokens[++i];
      requests.push_back(std::move(request));
      has_value.push_back(false);
    } else if (tok == "-m" || tok == "--move") {
      if (i + 2 >= tokens.size()) {
        return Status::InvalidArgument(
            "missing <src-xpath> <dst-xpath> operands after \"" + tok + "\"");
      }
      UpdateRequest request;
      request.op = UpdateRequest::Op::kMove;
      request.xpath = tokens[++i];
      request.xpath2 = tokens[++i];
      requests.push_back(std::move(request));
      has_value.push_back(false);
    } else if (tok == "-t" || tok == "-n" || tok == "-v") {
      if (requests.empty()) {
        return Status::InvalidArgument("\"" + tok + "\" before any action");
      }
      if (i + 1 >= tokens.size()) {
        return Status::InvalidArgument("missing operand after \"" + tok +
                                       "\"");
      }
      UpdateRequest& request = requests.back();
      if (tok == "-t") {
        XMLUP_ASSIGN_OR_RETURN(request.kind, NodeKindForToken(tokens[++i]));
      } else if (tok == "-n") {
        request.name = tokens[++i];
      } else {
        request.value = tokens[++i];
        has_value.back() = true;
      }
    } else {
      return Status::InvalidArgument("unknown action token \"" + tok + "\"");
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const UpdateRequest& request = requests[i];
    if (request.op == UpdateRequest::Op::kSetValue && !has_value[i]) {
      return Status::InvalidArgument("-v <value> required after \"-u " +
                                     request.xpath + "\"");
    }
    if (request.op == UpdateRequest::Op::kRename && !has_value[i]) {
      return Status::InvalidArgument("-v <new-name> required after \"-r " +
                                     request.xpath + "\"");
    }
    bool inserts = request.op == UpdateRequest::Op::kInsertBefore ||
                   request.op == UpdateRequest::Op::kInsertAfter ||
                   request.op == UpdateRequest::Op::kInsertChild;
    if (inserts &&
        (request.kind == xml::NodeKind::kElement ||
         request.kind == xml::NodeKind::kAttribute) &&
        request.name.empty()) {
      return Status::InvalidArgument(
          "-n <name> required for this -t in insert at \"" + request.xpath +
          "\"");
    }
  }
  return requests;
}

namespace {

/// Deep-copies `source`'s subtree into a fresh fragment tree, optionally
/// renaming the copied root. The explicit stack keeps the copy safe for
/// pathologically deep documents.
Result<std::pair<xml::Tree, NodeId>> CopyFragment(
    const xml::Tree& tree, NodeId source, const std::string& rename_to) {
  xml::Tree fragment;
  XMLUP_ASSIGN_OR_RETURN(
      NodeId fragment_root,
      fragment.CreateRoot(tree.kind(source),
                          rename_to.empty() ? tree.name(source) : rename_to,
                          tree.value(source)));
  std::vector<std::pair<NodeId, NodeId>> stack;  // (source, copy) pairs
  stack.emplace_back(source, fragment_root);
  while (!stack.empty()) {
    auto [from, to] = stack.back();
    stack.pop_back();
    for (NodeId child = tree.first_child(from); child != xml::kInvalidNode;
         child = tree.next_sibling(child)) {
      XMLUP_ASSIGN_OR_RETURN(
          NodeId copy, fragment.AppendChild(to, tree.kind(child),
                                            tree.name(child),
                                            tree.value(child)));
      stack.emplace_back(child, copy);
    }
  }
  return std::make_pair(std::move(fragment), fragment_root);
}

Status ApplyMove(store::DocumentStore* store, const UpdateRequest& request,
                 const ResolvedTargets& targets) {
  const core::LabeledDocument& doc = store->document();
  if (targets.matches2.empty()) {
    return Status::NotFound("no match for " + request.xpath2);
  }
  const NodeId dst = targets.matches2.front();
  // Every structural constraint is checked before the first mutation, so
  // a rejected move writes nothing.
  for (NodeId src : targets.matches) {
    if (!doc.tree().IsValid(src)) continue;
    if (src == doc.tree().root()) {
      return Status::InvalidArgument("cannot move the document root");
    }
    if (src == dst || doc.tree().IsAncestor(src, dst)) {
      return Status::InvalidArgument(
          "cannot move a node into its own subtree: " + request.xpath +
          " -> " + request.xpath2);
    }
  }
  // Document order; a source match inside an already-moved subtree is
  // dead by the time it comes up and is skipped, like nested deletes.
  for (NodeId src : targets.matches) {
    if (!doc.tree().IsValid(src)) continue;
    XMLUP_ASSIGN_OR_RETURN(auto fragment,
                           CopyFragment(doc.tree(), src, /*rename_to=*/""));
    // Attributes keep the Figure 1(b) layout: they re-enter before the
    // destination's first non-attribute child; everything else appends.
    NodeId before = xml::kInvalidNode;
    if (doc.tree().kind(src) == xml::NodeKind::kAttribute) {
      before = doc.tree().first_child(dst);
      while (before != xml::kInvalidNode &&
             doc.tree().kind(before) == xml::NodeKind::kAttribute) {
        before = doc.tree().next_sibling(before);
      }
    }
    XMLUP_RETURN_NOT_OK(
        store->InsertSubtree(dst, fragment.first, fragment.second, before)
            .status());
    XMLUP_RETURN_NOT_OK(store->RemoveSubtree(src));
  }
  return Status::Ok();
}

Status ApplyRename(store::DocumentStore* store, const UpdateRequest& request,
                   const ResolvedTargets& targets) {
  const core::LabeledDocument& doc = store->document();
  for (NodeId target : targets.matches) {
    if (!doc.tree().IsValid(target)) continue;
    if (doc.tree().kind(target) != xml::NodeKind::kElement &&
        doc.tree().kind(target) != xml::NodeKind::kAttribute) {
      return Status::InvalidArgument(
          "can only rename elements and attributes: " + request.xpath);
    }
    if (target == doc.tree().root()) {
      return Status::InvalidArgument("cannot rename the document root");
    }
  }
  // Reverse document order: renaming re-creates the subtree, so a nested
  // match must be renamed before its ancestor's copy orphans it.
  for (auto it = targets.matches.rbegin(); it != targets.matches.rend();
       ++it) {
    const NodeId target = *it;
    if (!doc.tree().IsValid(target)) continue;
    XMLUP_ASSIGN_OR_RETURN(auto fragment,
                           CopyFragment(doc.tree(), target, request.value));
    const NodeId parent = doc.tree().parent(target);
    XMLUP_RETURN_NOT_OK(
        store->InsertSubtree(parent, fragment.first, fragment.second, target)
            .status());
    XMLUP_RETURN_NOT_OK(store->RemoveSubtree(target));
  }
  return Status::Ok();
}

}  // namespace

Status ApplyResolved(store::DocumentStore* store, const UpdateRequest& request,
                     const ResolvedTargets& targets, size_t* matched) {
  if (matched != nullptr) *matched = 0;
  const core::LabeledDocument& doc = store->document();
  if (targets.matches.empty()) {
    return Status::NotFound("no match for " + request.xpath);
  }
  if (matched != nullptr) *matched = targets.matches.size();

  switch (request.op) {
    case UpdateRequest::Op::kDelete:
      // Reverse document order, so a match inside an already-deleted
      // subtree is simply skipped.
      for (auto it = targets.matches.rbegin(); it != targets.matches.rend();
           ++it) {
        if (!doc.tree().IsValid(*it)) continue;
        XMLUP_RETURN_NOT_OK(store->RemoveSubtree(*it));
      }
      return Status::Ok();
    case UpdateRequest::Op::kSetValue:
      for (NodeId target : targets.matches) {
        XMLUP_RETURN_NOT_OK(store->UpdateValue(target, request.value));
      }
      return Status::Ok();
    case UpdateRequest::Op::kMove:
      return ApplyMove(store, request, targets);
    case UpdateRequest::Op::kRename:
      return ApplyRename(store, request, targets);
    default:
      break;
  }

  for (NodeId target : targets.matches) {
    NodeId parent, before;
    if (request.op == UpdateRequest::Op::kInsertChild) {
      parent = target;
      before = xml::kInvalidNode;
      if (request.kind == xml::NodeKind::kAttribute) {
        // Attributes order before element children (Figure 1(b) layout):
        // insert before the first non-attribute child.
        before = doc.tree().first_child(target);
        while (before != xml::kInvalidNode &&
               doc.tree().kind(before) == xml::NodeKind::kAttribute) {
          before = doc.tree().next_sibling(before);
        }
      }
    } else {
      parent = doc.tree().parent(target);
      if (parent == xml::kInvalidNode) {
        return Status::InvalidArgument(
            "cannot insert a sibling of the document root");
      }
      before = request.op == UpdateRequest::Op::kInsertBefore
                   ? target
                   : doc.tree().next_sibling(target);
    }
    XMLUP_RETURN_NOT_OK(
        store->InsertNode(parent, request.kind, request.name, request.value,
                          before)
            .status());
  }
  return Status::Ok();
}

Status ApplyUpdate(store::DocumentStore* store, const UpdateRequest& request,
                   size_t* matched) {
  if (matched != nullptr) *matched = 0;
  const core::LabeledDocument& doc = store->document();
  // Resolve the target set completely before the first mutation: a
  // malformed or unmatched XPath must not leave a partially applied
  // request in the journal.
  xpath::XPathEvaluator eval(&doc, xpath::EvalMode::kTree);
  ResolvedTargets targets;
  XMLUP_ASSIGN_OR_RETURN(targets.matches, eval.Query(request.xpath));
  if (request.op == UpdateRequest::Op::kMove) {
    XMLUP_ASSIGN_OR_RETURN(targets.matches2, eval.Query(request.xpath2));
  }
  return ApplyResolved(store, request, targets, matched);
}

}  // namespace xmlup::updates
