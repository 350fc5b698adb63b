#include "labels/dln_codec.h"

#include <sstream>

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

Status DlnCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                              OpCounters* /*stats*/) const {
  out->clear();
  out->reserve(n);
  // 1, 2, ..., max, max/1, max/2, ..., max/max, max/max/1, ... — strictly
  // increasing because a proper prefix sorts before its extensions.
  std::string cur;
  cur.push_back(static_cast<char>(0));
  for (size_t i = 0; i < n; ++i) {
    uint8_t last = static_cast<uint8_t>(cur.back());
    if (last < max_value_) {
      cur.back() = static_cast<char>(last + 1);
    } else {
      cur.push_back(static_cast<char>(1));
    }
    if (cur.size() > max_components_) {
      return Status::Overflow(
          "DLN sub-value budget exhausted during initial labelling");
    }
    out->push_back(cur);
  }
  return Status::Ok();
}

Result<std::string> DlnCodec::Between(std::string_view left,
                                      std::string_view right,
                                      OpCounters* /*stats*/) const {
  if (right.empty() && !left.empty()) {
    // Appending after the last sibling increments the final sub-value; the
    // fixed component width has no escape hatch here (sub-values are only
    // introduced *between* two identifiers), so hitting the maximum
    // overflows — the DeweyID-like limitation the survey describes.
    uint8_t last = static_cast<uint8_t>(left.back());
    if (last >= max_value_) {
      return Status::Overflow("DLN sub-value width exhausted on append");
    }
    std::string code(left);
    code.back() = static_cast<char>(last + 1);
    return code;
  }
  XMLUP_ASSIGN_OR_RETURN(std::string code,
                         DigitBetween(domain_, left, right));
  if (code.size() > max_components_) {
    return Status::Overflow("DLN identifier exceeds its fixed size of " +
                            std::to_string(max_components_) + " sub-values");
  }
  return code;
}

int DlnCodec::Compare(std::string_view a, std::string_view b) const {
  return DigitCompare(a, b);
}

void DlnCodec::OrderKey(std::string_view code, std::string* out) const {
  // DigitCompare is plain lexicographic order over the raw sub-values.
  out->append(code);
}

size_t DlnCodec::StorageBits(std::string_view code) const {
  // Sub-values at the fixed width, plus a continuation bit per sub-value
  // (how DLN chains sub-values within one level).
  return code.size() * static_cast<size_t>(component_bits_ + 1);
}

std::string DlnCodec::Render(std::string_view code) const {
  std::ostringstream os;
  for (size_t i = 0; i < code.size(); ++i) {
    if (i > 0) os << "/";
    os << static_cast<int>(static_cast<uint8_t>(code[i]));
  }
  return os.str();
}

}  // namespace xmlup::labels
