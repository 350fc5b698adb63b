#include "labels/lsdx_codec.h"

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

std::string LsdxCodec::Increment(std::string_view code) {
  std::string out(code);
  if (out.empty() || out.back() == 'z') {
    out.push_back('b');
    return out;
  }
  out.back() = static_cast<char>(out.back() + 1);
  return out;
}

Status LsdxCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                               OpCounters* /*stats*/) const {
  out->clear();
  out->reserve(n);
  // First child is "b"; "a" is reserved for future insertions before it.
  std::string cur = "b";
  for (size_t i = 0; i < n; ++i) {
    out->push_back(cur);
    cur = Increment(cur);
  }
  return Status::Ok();
}

Result<std::string> LsdxCodec::Between(std::string_view left,
                                       std::string_view right,
                                       OpCounters* /*stats*/) const {
  std::string out;
  if (left.empty() && right.empty()) {
    out = "b";
  } else if (left.empty()) {
    // Before the first child: prefix an "a".
    out.reserve(right.size() + 1);
    out.push_back('a');
    out.append(right);
  } else if (right.empty()) {
    // After the last child: increment the last letter.
    out = Increment(left);
  } else {
    // Between two children: increment the left neighbour if that stays
    // below the right neighbour, otherwise append a "b". (Published rule;
    // known to produce duplicate or misordered labels in corner cases.)
    out = Increment(left);
    if (out.compare(right) >= 0) {
      out.assign(left);
      out.push_back('b');
    }
  }
  if (out.size() > max_letters_) {
    return Status::Overflow("LSDX identifier exceeds its length-field budget");
  }
  return out;
}

int LsdxCodec::Compare(std::string_view a, std::string_view b) const {
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

void LsdxCodec::OrderKey(std::string_view code, std::string* out) const {
  // Letter strings already compare lexicographically.
  out->append(code);
}

size_t LsdxCodec::StorageBits(std::string_view code) const {
  return 8 * code.size();
}

std::string LsdxCodec::Render(std::string_view code) const {
  return std::string(code);
}

// ---------------------------------------------------------------------------
// ComDCodec
// ---------------------------------------------------------------------------

std::string ComDCodec::Compress(std::string_view code) {
  std::string out;
  size_t i = 0;
  while (i < code.size()) {
    // Try group sizes 1..4 and keep the most profitable repetition.
    size_t best_group = 1;
    size_t best_reps = 1;
    size_t best_saving = 0;
    for (size_t g = 1; g <= 4 && i + g <= code.size(); ++g) {
      size_t reps = 1;
      while (i + (reps + 1) * g <= code.size() &&
             code.substr(i + reps * g, g) == code.substr(i, g)) {
        ++reps;
      }
      if (reps < 2) continue;
      size_t plain = reps * g;
      size_t digits = std::to_string(reps).size();
      size_t compressed = digits + g + (g > 1 ? 2 : 0);
      if (plain > compressed && plain - compressed > best_saving) {
        best_saving = plain - compressed;
        best_group = g;
        best_reps = reps;
      }
    }
    if (best_reps >= 2) {
      out += std::to_string(best_reps);
      if (best_group > 1) out.push_back('(');
      out += code.substr(i, best_group);
      if (best_group > 1) out.push_back(')');
      i += best_reps * best_group;
    } else {
      out.push_back(code[i]);
      ++i;
    }
  }
  return out;
}

std::string ComDCodec::Decompress(std::string_view compressed) {
  std::string out;
  size_t i = 0;
  while (i < compressed.size()) {
    if (compressed[i] >= '0' && compressed[i] <= '9') {
      size_t reps = 0;
      while (i < compressed.size() && compressed[i] >= '0' &&
             compressed[i] <= '9') {
        reps = reps * 10 + static_cast<size_t>(compressed[i] - '0');
        ++i;
      }
      std::string group;
      if (i < compressed.size() && compressed[i] == '(') {
        size_t close = compressed.find(')', i);
        if (close == std::string_view::npos) break;  // Malformed.
        group = std::string(compressed.substr(i + 1, close - i - 1));
        i = close + 1;
      } else if (i < compressed.size()) {
        group = std::string(1, compressed[i]);
        ++i;
      }
      for (size_t r = 0; r < reps; ++r) out += group;
    } else {
      out.push_back(compressed[i]);
      ++i;
    }
  }
  return out;
}

size_t ComDCodec::StorageBits(std::string_view code) const {
  return 8 * Compress(code).size();
}

std::string ComDCodec::Render(std::string_view code) const {
  return Compress(code);
}

}  // namespace xmlup::labels
