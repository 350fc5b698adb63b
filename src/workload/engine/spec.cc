#include "workload/engine/spec.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "updates/script.h"
#include "updates/update.h"
#include "xpath/parser.h"

namespace xmlup::workload {

namespace {

using common::Result;
using common::Status;

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// One-line spec-quoting diagnostic: every parse/validation error names
/// the line and repeats it, so a failing `workload check` is actionable
/// from the message alone.
Status SpecError(size_t line_no, std::string_view line_text,
                 const std::string& what) {
  std::ostringstream out;
  out << "spec line " << line_no << ": " << what << " in \""
      << Trim(line_text) << "\"";
  return Status::ParseError(out.str());
}

/// Splits a field value into whitespace-separated tokens; double quotes
/// group a token containing spaces ("bought used"). No escape sequences
/// — the wire grammar never needs a literal double quote.
Result<std::vector<std::string>> SplitTokens(std::string_view text,
                                             size_t line_no,
                                             std::string_view line_text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    std::string token;
    if (text[i] == '"') {
      size_t close = text.find('"', i + 1);
      if (close == std::string_view::npos) {
        return SpecError(line_no, line_text, "unterminated quote");
      }
      token.assign(text, i + 1, close - i - 1);
      i = close + 1;
    } else {
      size_t end = i;
      while (end < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      token.assign(text, i, end - i);
      i = end;
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  std::string copy(text);
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

bool ParseWeight(std::string_view text, double* out) {
  if (text.empty()) return false;
  std::string copy(text);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(copy.c_str(), &end);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

/// An unresolved node reference (next/do/choice target), kept with its
/// source line so a dangling name is reported against the line that
/// wrote it.
struct NodeRef {
  size_t node_index;
  enum class Kind { kNext, kBody, kChoice } kind;
  size_t choice_index = 0;
  std::string target;
  size_t line_no;
  std::string line_text;
};

/// Replaces every ${...} reference with "1" so the edit script can be
/// structurally checked by the real action-grammar parser before any
/// traffic is generated (flag shape, node types, -n/-v requirements).
std::string NeutralizeTemplates(std::string_view tpl) {
  std::string out;
  size_t i = 0;
  while (i < tpl.size()) {
    if (tpl[i] == '$' && i + 1 < tpl.size() && tpl[i + 1] == '{') {
      size_t close = tpl.find('}', i + 2);
      if (close == std::string_view::npos) {
        out.append(tpl.substr(i));
        break;
      }
      out.push_back('1');
      i = close + 1;
    } else {
      out.push_back(tpl[i]);
      ++i;
    }
  }
  return out;
}

bool HasTemplate(std::string_view text) {
  return text.find("${") != std::string_view::npos;
}

}  // namespace

std::string_view SpecNodeTypeName(SpecNodeType type) {
  switch (type) {
    case SpecNodeType::kEdit:
      return "edit";
    case SpecNodeType::kApply:
      return "apply";
    case SpecNodeType::kQuery:
      return "query";
    case SpecNodeType::kRandomChoice:
      return "random-choice";
    case SpecNodeType::kForN:
      return "for-n";
    case SpecNodeType::kThinkTime:
      return "think-time";
    case SpecNodeType::kFinish:
      return "finish";
  }
  return "?";
}

const std::string* WorkloadSpec::FindVariable(std::string_view var) const {
  const std::string* found = nullptr;
  for (const auto& [name, value] : variables) {
    if (name == var) found = &value;
  }
  return found;
}

common::Status ValidateTemplate(const WorkloadSpec& spec,
                                std::string_view tpl) {
  size_t i = 0;
  while (i < tpl.size()) {
    if (tpl[i] != '$' || i + 1 >= tpl.size() || tpl[i + 1] != '{') {
      ++i;
      continue;
    }
    size_t close = tpl.find('}', i + 2);
    if (close == std::string_view::npos) {
      return Status::ParseError("unterminated ${ in template '" +
                                std::string(tpl) + "'");
    }
    std::string_view ref = tpl.substr(i + 2, close - i - 2);
    if (ref == "thread" || ref == "op") {
      // always defined
    } else if (ref.rfind("rand:", 0) == 0) {
      uint64_t bound = 0;
      if (!ParseUint(ref.substr(5), &bound) || bound == 0) {
        return Status::ParseError("${rand:N} needs a positive integer in '" +
                                  std::string(tpl) + "'");
      }
    } else if (ref.rfind("choice:", 0) == 0) {
      const std::string* value = spec.FindVariable(ref.substr(7));
      if (value == nullptr || Trim(*value).empty()) {
        return Status::ParseError(
            "${choice:...} names an undefined or empty variable in '" +
            std::string(tpl) + "'");
      }
    } else {
      if (spec.FindVariable(ref) == nullptr) {
        return Status::ParseError("undefined variable ${" + std::string(ref) +
                                  "} in '" + std::string(tpl) + "'");
      }
    }
    i = close + 1;
  }
  return Status::Ok();
}

common::Result<WorkloadSpec> ParseWorkloadSpec(std::string_view text) {
  WorkloadSpec spec;
  std::vector<NodeRef> refs;
  std::map<std::string, size_t> by_name;
  std::string start_name;
  size_t start_line = 0;
  std::string start_line_text;

  SpecNode* current = nullptr;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') {
      if (eol == text.size()) break;
      continue;
    }
    const std::string line_text(line);

    size_t space = line.find_first_of(" \t");
    std::string_view keyword = line.substr(0, space);
    std::string_view rest =
        space == std::string_view::npos ? "" : Trim(line.substr(space + 1));

    if (keyword == "workload") {
      spec.name = std::string(rest);
      current = nullptr;
    } else if (keyword == "var") {
      size_t name_end = rest.find_first_of(" \t=");
      if (rest.empty() || name_end == std::string_view::npos) {
        return SpecError(line_no, line_text, "var needs a name and a value");
      }
      // Both `var k = v` and `var k v` are accepted; the `=` is sugar.
      std::string_view value = Trim(rest.substr(name_end));
      if (!value.empty() && value.front() == '=') {
        value = Trim(value.substr(1));
      }
      if (value.empty()) {
        return SpecError(line_no, line_text, "var needs a name and a value");
      }
      spec.variables.emplace_back(std::string(rest.substr(0, name_end)),
                                  std::string(value));
      current = nullptr;
    } else if (keyword == "start") {
      if (rest.empty()) {
        return SpecError(line_no, line_text, "start needs a node name");
      }
      start_name = std::string(rest);
      start_line = line_no;
      start_line_text = line_text;
      current = nullptr;
    } else if (keyword == "node") {
      auto parts = SplitTokens(rest, line_no, line_text);
      if (!parts.ok()) return parts.status();
      if (parts->size() != 2) {
        return SpecError(line_no, line_text, "node needs a name and a type");
      }
      const std::string& name = (*parts)[0];
      const std::string& type_name = (*parts)[1];
      if (name == "end" || name == "finish") {
        return SpecError(line_no, line_text,
                         "node name '" + name + "' is reserved");
      }
      if (by_name.count(name) != 0) {
        return SpecError(line_no, line_text, "duplicate node '" + name + "'");
      }
      SpecNode node;
      node.name = name;
      node.line = line_no;
      node.line_text = line_text;
      if (type_name == "edit") {
        node.type = SpecNodeType::kEdit;
      } else if (type_name == "apply") {
        node.type = SpecNodeType::kApply;
      } else if (type_name == "query") {
        node.type = SpecNodeType::kQuery;
      } else if (type_name == "random-choice") {
        node.type = SpecNodeType::kRandomChoice;
      } else if (type_name == "for-n") {
        node.type = SpecNodeType::kForN;
      } else if (type_name == "think-time") {
        node.type = SpecNodeType::kThinkTime;
      } else if (type_name == "finish") {
        node.type = SpecNodeType::kFinish;
      } else {
        return SpecError(line_no, line_text,
                         "unknown node type '" + type_name + "'");
      }
      by_name[name] = spec.nodes.size();
      spec.nodes.push_back(std::move(node));
      current = &spec.nodes.back();
    } else {
      // A field line: belongs to the node block being declared.
      if (current == nullptr) {
        return SpecError(line_no, line_text,
                         "field outside a node block (unknown directive '" +
                             std::string(keyword) + "')");
      }
      const size_t node_index = static_cast<size_t>(current - &spec.nodes[0]);
      const SpecNodeType type = current->type;
      if (keyword == "next" &&
          (type == SpecNodeType::kEdit || type == SpecNodeType::kApply ||
           type == SpecNodeType::kQuery || type == SpecNodeType::kForN ||
           type == SpecNodeType::kThinkTime)) {
        if (rest.empty()) {
          return SpecError(line_no, line_text, "next needs a node name");
        }
        refs.push_back({node_index, NodeRef::Kind::kNext, 0,
                        std::string(rest), line_no, line_text});
      } else if (keyword == "doc" && (type == SpecNodeType::kEdit ||
                                      type == SpecNodeType::kApply ||
                                      type == SpecNodeType::kQuery)) {
        if (rest.empty()) {
          return SpecError(line_no, line_text, "doc needs a key template");
        }
        current->doc_template = std::string(rest);
      } else if (keyword == "script" && type == SpecNodeType::kEdit) {
        auto tokens = SplitTokens(rest, line_no, line_text);
        if (!tokens.ok()) return tokens.status();
        if (tokens->empty()) {
          return SpecError(line_no, line_text, "script needs action tokens");
        }
        current->script = std::move(*tokens);
      } else if (keyword == "line" && type == SpecNodeType::kApply) {
        // The rest of the line verbatim: the update-script grammar owns
        // its own tokenization (quotes, comments, `let`).
        if (rest.empty()) {
          return SpecError(line_no, line_text, "line needs script text");
        }
        current->lines.emplace_back(rest);
      } else if (keyword == "xpath" && type == SpecNodeType::kQuery) {
        if (rest.empty()) {
          return SpecError(line_no, line_text, "xpath needs an expression");
        }
        current->xpath = std::string(rest);
      } else if (keyword == "ms" && type == SpecNodeType::kThinkTime) {
        auto parts = SplitTokens(rest, line_no, line_text);
        if (!parts.ok()) return parts.status();
        uint64_t lo = 0, hi = 0;
        if (parts->size() == 1 && ParseUint((*parts)[0], &lo)) {
          hi = lo;
        } else if (parts->size() == 2 && ParseUint((*parts)[0], &lo) &&
                   ParseUint((*parts)[1], &hi) && lo <= hi) {
          // uniform range
        } else {
          return SpecError(line_no, line_text,
                           "ms needs <n> or <lo> <hi> (lo <= hi)");
        }
        current->think_min_ms = lo;
        current->think_max_ms = hi;
      } else if (keyword == "count" && type == SpecNodeType::kForN) {
        uint64_t count = 0;
        if (!ParseUint(rest, &count) || count == 0) {
          return SpecError(line_no, line_text,
                           "count needs a positive integer");
        }
        current->count = count;
      } else if (keyword == "do" && type == SpecNodeType::kForN) {
        if (rest.empty()) {
          return SpecError(line_no, line_text, "do needs a node name");
        }
        refs.push_back({node_index, NodeRef::Kind::kBody, 0,
                        std::string(rest), line_no, line_text});
      } else if (keyword == "choice" && type == SpecNodeType::kRandomChoice) {
        auto parts = SplitTokens(rest, line_no, line_text);
        if (!parts.ok()) return parts.status();
        double weight = 0;
        if (parts->size() != 2 || !ParseWeight((*parts)[0], &weight) ||
            weight < 0) {
          return SpecError(line_no, line_text,
                           "choice needs <weight >= 0> <node>");
        }
        refs.push_back({node_index, NodeRef::Kind::kChoice,
                        current->choices.size(), (*parts)[1], line_no,
                        line_text});
        current->choices.emplace_back(weight, -1);
      } else {
        return SpecError(line_no, line_text,
                         "unknown field '" + std::string(keyword) +
                             "' for node type '" +
                             std::string(SpecNodeTypeName(type)) + "'");
      }
    }
    if (eol == text.size()) break;
  }

  // The implicit finish node: `next finish` always has a target, exactly
  // as Genny's implicit absorbing Finish state.
  {
    SpecNode finish;
    finish.name = "finish";
    finish.type = SpecNodeType::kFinish;
    by_name["finish"] = spec.nodes.size();
    spec.nodes.push_back(std::move(finish));
  }

  if (spec.nodes.size() == 1) {
    return Status::ParseError("spec declares no nodes");
  }

  // Required fields per type.
  for (const SpecNode& node : spec.nodes) {
    switch (node.type) {
      case SpecNodeType::kEdit:
        if (node.script.empty()) {
          return SpecError(node.line, node.line_text,
                           "edit node '" + node.name + "' needs a script");
        }
        break;
      case SpecNodeType::kApply:
        if (node.lines.empty()) {
          return SpecError(node.line, node.line_text,
                           "apply node '" + node.name +
                               "' needs at least one line");
        }
        break;
      case SpecNodeType::kQuery:
        if (node.xpath.empty()) {
          return SpecError(node.line, node.line_text,
                           "query node '" + node.name + "' needs an xpath");
        }
        break;
      case SpecNodeType::kForN:
        if (node.count == 0) {
          return SpecError(node.line, node.line_text,
                           "for-n node '" + node.name + "' needs a count");
        }
        break;
      case SpecNodeType::kRandomChoice:
        if (node.choices.empty()) {
          return SpecError(node.line, node.line_text,
                           "random-choice node '" + node.name +
                               "' needs at least one choice");
        }
        break;
      case SpecNodeType::kThinkTime:
      case SpecNodeType::kFinish:
        break;
    }
  }

  // Resolve references; `end` is legal only as a `next` target.
  for (const NodeRef& ref : refs) {
    SpecNode& node = spec.nodes[ref.node_index];
    int resolved;
    if (ref.target == "end") {
      if (ref.kind != NodeRef::Kind::kNext) {
        return SpecError(ref.line_no, ref.line_text,
                         "'end' is only valid as a next target");
      }
      resolved = kNextEnd;
    } else {
      auto it = by_name.find(ref.target);
      if (it == by_name.end()) {
        return SpecError(ref.line_no, ref.line_text,
                         "dangling reference: node '" + ref.target +
                             "' is not defined");
      }
      resolved = static_cast<int>(it->second);
    }
    switch (ref.kind) {
      case NodeRef::Kind::kNext:
        node.next = resolved;
        break;
      case NodeRef::Kind::kBody:
        node.body = resolved;
        break;
      case NodeRef::Kind::kChoice:
        node.choices[ref.choice_index].second = resolved;
        break;
    }
  }

  // Every non-terminal node must have somewhere to go.
  for (const SpecNode& node : spec.nodes) {
    if ((node.type == SpecNodeType::kEdit ||
         node.type == SpecNodeType::kApply ||
         node.type == SpecNodeType::kQuery ||
         node.type == SpecNodeType::kThinkTime) &&
        node.next == -1) {
      return SpecError(node.line, node.line_text,
                       "node '" + node.name + "' needs a next");
    }
    if (node.type == SpecNodeType::kForN &&
        (node.body == -1 || node.next == -1)) {
      return SpecError(node.line, node.line_text,
                       "for-n node '" + node.name + "' needs do and next");
    }
  }

  // Weights must normalize to a probability distribution.
  for (const SpecNode& node : spec.nodes) {
    if (node.type != SpecNodeType::kRandomChoice) continue;
    double total = 0;
    for (const auto& [weight, target] : node.choices) total += weight;
    if (!(total > 0)) {
      return SpecError(node.line, node.line_text,
                       "random-choice node '" + node.name +
                           "' weights are not normalizable (sum is 0)");
    }
  }

  // Resolve the start node.
  if (start_name.empty()) {
    spec.start = 0;
  } else {
    auto it = by_name.find(start_name);
    if (it == by_name.end() || start_name == "end") {
      return SpecError(start_line, start_line_text,
                       "dangling reference: start node '" + start_name +
                           "' is not defined");
    }
    spec.start = static_cast<int>(it->second);
  }

  // Reachability sweep from start, tracking whether each node is reached
  // inside a for-n body. Catches the two whole-graph defects: a finish
  // no execution can reach, and an `end` with no enclosing loop.
  {
    std::set<std::pair<int, bool>> visited;
    std::vector<std::pair<int, bool>> frontier = {{spec.start, false}};
    bool finish_reached = false;
    while (!frontier.empty()) {
      auto [index, in_body] = frontier.back();
      frontier.pop_back();
      if (!visited.insert({index, in_body}).second) continue;
      const SpecNode& node = spec.nodes[index];
      auto follow = [&](int target, bool body_flag) -> Status {
        if (target == kNextEnd) {
          if (!body_flag) {
            return SpecError(node.line, node.line_text,
                             "node '" + node.name +
                                 "' reaches 'end' outside any for-n body");
          }
          return Status::Ok();  // returns to the loop; loop exit is `next`
        }
        frontier.emplace_back(target, body_flag);
        return Status::Ok();
      };
      switch (node.type) {
        case SpecNodeType::kFinish:
          finish_reached = true;
          break;
        case SpecNodeType::kEdit:
        case SpecNodeType::kApply:
        case SpecNodeType::kQuery:
        case SpecNodeType::kThinkTime:
          XMLUP_RETURN_NOT_OK(follow(node.next, in_body));
          break;
        case SpecNodeType::kForN:
          XMLUP_RETURN_NOT_OK(follow(node.body, true));
          XMLUP_RETURN_NOT_OK(follow(node.next, in_body));
          break;
        case SpecNodeType::kRandomChoice:
          for (const auto& [weight, target] : node.choices) {
            XMLUP_RETURN_NOT_OK(follow(target, in_body));
          }
          break;
      }
    }
    if (!finish_reached) {
      const SpecNode& start_node = spec.nodes[spec.start];
      return SpecError(start_node.line, start_node.line_text,
                       "no finish node is reachable from start '" +
                           start_node.name + "'");
    }
  }

  // Static template and grammar checks: every ${...} must be resolvable,
  // every edit script must parse under the real action grammar (with
  // templates neutralized), and a template-free query xpath must parse.
  for (const SpecNode& node : spec.nodes) {
    auto check_template = [&](const std::string& tpl) -> Status {
      Status status = ValidateTemplate(spec, tpl);
      if (!status.ok()) {
        return SpecError(node.line, node.line_text, status.message());
      }
      return Status::Ok();
    };
    if (!node.doc_template.empty()) {
      XMLUP_RETURN_NOT_OK(check_template(node.doc_template));
    }
    if (node.type == SpecNodeType::kEdit) {
      std::vector<std::string> neutral;
      for (const std::string& token : node.script) {
        XMLUP_RETURN_NOT_OK(check_template(token));
        neutral.push_back(NeutralizeTemplates(token));
      }
      auto parsed = updates::ParseActionTokens(neutral);
      if (!parsed.ok()) {
        return SpecError(node.line, node.line_text,
                         "edit node '" + node.name + "' script: " +
                             parsed.status().ToString());
      }
    }
    if (node.type == SpecNodeType::kApply) {
      std::string neutral;
      for (const std::string& script_line : node.lines) {
        XMLUP_RETURN_NOT_OK(check_template(script_line));
        if (!neutral.empty()) neutral.push_back('\n');
        neutral.append(NeutralizeTemplates(script_line));
      }
      auto compiled = updates::ParseUpdateScript(neutral, "script");
      if (!compiled.ok()) {
        return SpecError(node.line, node.line_text,
                         "apply node '" + node.name + "' script: " +
                             compiled.status().ToString());
      }
    }
    if (node.type == SpecNodeType::kQuery) {
      XMLUP_RETURN_NOT_OK(check_template(node.xpath));
      if (!HasTemplate(node.xpath)) {
        auto parsed = xpath::ParseUnion(node.xpath);
        if (!parsed.ok()) {
          return SpecError(node.line, node.line_text,
                           "query node '" + node.name + "' xpath: " +
                               parsed.status().ToString());
        }
      }
    }
  }

  return spec;
}

}  // namespace xmlup::workload
