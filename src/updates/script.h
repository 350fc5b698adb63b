#ifndef XMLUP_UPDATES_SCRIPT_H_
#define XMLUP_UPDATES_SCRIPT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "updates/update.h"

namespace xmlup::updates {

/// A compiled update script: the typed op list an `xmlup apply` file (or
/// a wire-protocol `--apply` frame) lowers to. The whole script is one
/// all-or-nothing transaction — the same contract as an `xmlup ed` argv
/// tail — so it rides the group-commit pipeline as a single unit.
struct UpdateScript {
  std::vector<UpdateRequest> requests;
};

/// Compiles a script in the line-oriented `xmlup apply` grammar:
///
///   # comment                       (blank lines and comments skipped)
///   let NAME = <value>              (script-level variable binding;
///                                    <value> may be "double quoted" and
///                                    may reference earlier lets)
///   <action tokens...>              (the ed action grammar, one or more
///                                    actions per line; tokens may be
///                                    "double quoted" and may reference
///                                    bindings as ${NAME})
///
/// Every diagnostic is one line in the spec-quoting style the workload
/// parser set: `<origin>:<line>: <message>` with the offending token or
/// text quoted — `script.up:3: unknown action token "-z"`. `origin` is
/// the file name (CLI) or a frame tag (serve mode).
common::Result<UpdateScript> ParseUpdateScript(std::string_view text,
                                               std::string_view origin);

/// Tokenizes one script line shell-style: whitespace splits, double
/// quotes group (no escapes — the workload spec's convention). Exposed
/// for the CLI tests and the workload engine's apply nodes.
std::vector<std::string> SplitScriptTokens(std::string_view line);

}  // namespace xmlup::updates

#endif  // XMLUP_UPDATES_SCRIPT_H_
