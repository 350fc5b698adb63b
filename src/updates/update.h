#ifndef XMLUP_UPDATES_UPDATE_H_
#define XMLUP_UPDATES_UPDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/document_store.h"
#include "xml/node.h"

namespace xmlup::updates {

/// One XPath-addressed structural edit, the unit the update pipeline
/// accepts. This is exactly the xmlup CLI's xmlstar-style action grammar
/// (-i/-a/-s/-d/-u/-m/-r) lifted into a struct: targets are XPath
/// expressions, resolved by the writer against its live document at apply
/// time — never NodeIds, which go stale whenever a checkpoint compacts the
/// arena.
struct UpdateRequest {
  enum class Op : uint8_t {
    kInsertBefore,  ///< -i: new sibling before each match
    kInsertAfter,   ///< -a: new sibling after each match
    kInsertChild,   ///< -s: new child of each match
    kDelete,        ///< -d: delete each matched subtree
    kSetValue,      ///< -u: replace the value/text of each match
    kMove,          ///< -m: move each match under xpath2's first match
    kRename,        ///< -r: rename each matched element/attribute to value
  };

  Op op = Op::kInsertChild;
  std::string xpath;
  /// kMove only: the destination XPath; matches of `xpath` are re-inserted
  /// as the last children of its first match.
  std::string xpath2;
  xml::NodeKind kind = xml::NodeKind::kElement;
  std::string name;
  std::string value;
};

/// Outcome of one request, delivered once the whole batch it rode in is
/// durable (acknowledged implies durable — see ConcurrentStore).
struct UpdateResult {
  common::Status status;
  size_t matched = 0;  ///< Nodes the XPath resolved to (and were edited).
  uint64_t epoch = 0;  ///< First published view that shows the change.
};

/// The match sets of one request, resolved against the document the edit
/// applies to (NodeIds are only meaningful within that arena).
struct ResolvedTargets {
  std::vector<xml::NodeId> matches;   ///< Matches of xpath.
  std::vector<xml::NodeId> matches2;  ///< kMove: matches of xpath2.
};

/// Maps an xmlup CLI node-type token ("elem", "attr", "text", "comment")
/// to a NodeKind.
common::Result<xml::NodeKind> NodeKindForToken(const std::string& type);

/// Parses a token stream in the CLI action grammar into requests:
///
///   -i|-a|-s|-d|-u|-r <xpath> [-t elem|attr|text|comment] [-n <name>]
///   [-v <value>] | -m <src-xpath> <dst-xpath> ...
///
/// (--move and --rename are accepted as synonyms of -m/-r, xmlstar
/// style.) Used verbatim by `xmlup ed` argv tails, by compiled update
/// scripts, and by the serve-mode wire protocol, so the front ends cannot
/// drift apart. All structural constraints that need no document (missing
/// operands, unknown types, -t elem/attr without -n, -u/-r without -v)
/// are rejected here — before anything touches the store — with the
/// offending token quoted, one line, in the spec-diagnostic style.
common::Result<std::vector<UpdateRequest>> ParseActionTokens(
    const std::vector<std::string>& tokens);

/// Resolves `request.xpath` (and xpath2 for moves) against the store's
/// live document and applies the edit to every match, journalling through
/// the store. The XPath is fully resolved before the first mutation, so a
/// request that fails to parse or match writes nothing; `*matched`
/// reports the match count. A failure *after* the first mutation (a later
/// match rejected, a journal append error) leaves partial records in the
/// unsynced journal tail — callers that promise all-or-nothing (the
/// group-commit writer, `xmlup ed`/`apply`) take a DocumentStore::Mark()
/// first and RollbackTail() to it on failure, before any sync barrier.
common::Status ApplyUpdate(store::DocumentStore* store,
                           const UpdateRequest& request, size_t* matched);

/// Applies `request` to already-resolved targets instead of resolving its
/// XPaths — the second half of ApplyUpdate, for callers that time or trace
/// resolution and mutation separately. Byte-for-byte the same journal records
/// as ApplyUpdate when the targets equal what a live resolution would
/// produce.
common::Status ApplyResolved(store::DocumentStore* store,
                             const UpdateRequest& request,
                             const ResolvedTargets& targets, size_t* matched);

}  // namespace xmlup::updates

#endif  // XMLUP_UPDATES_UPDATE_H_
