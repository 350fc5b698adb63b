#include "labels/ordpath_codec.h"

#include <cassert>
#include <sstream>

#include "labels/order_key.h"

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

namespace {

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

size_t BitLength(uint64_t v) {
  size_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits == 0 ? 1 : bits;
}

bool IsOdd(int64_t v) { return (v & 1) != 0; }

}  // namespace

std::string OrdpathCodec::Pack(const std::vector<int64_t>& components) {
  std::string out;
  out.reserve(components.size() * 8);
  for (int64_t c : components) {
    uint64_t u = static_cast<uint64_t>(c);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
    }
  }
  return out;
}

std::vector<int64_t> OrdpathCodec::Unpack(std::string_view code) {
  std::vector<int64_t> out;
  out.reserve(code.size() / 8);
  for (size_t p = 0; p + 8 <= code.size(); p += 8) {
    uint64_t u = 0;
    for (int i = 0; i < 8; ++i) {
      u |= static_cast<uint64_t>(static_cast<uint8_t>(code[p + i]))
           << (8 * i);
    }
    out.push_back(static_cast<int64_t>(u));
  }
  return out;
}

Status OrdpathCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                                  OpCounters* /*stats*/) const {
  out->clear();
  out->reserve(n);
  // Positive odd integers 1, 3, 5, ... — evens and negatives are reserved
  // for later insertions.
  for (size_t i = 0; i < n; ++i) {
    out->push_back(Pack({static_cast<int64_t>(2 * i + 1)}));
  }
  return Status::Ok();
}

Result<std::vector<int64_t>> OrdpathCodec::BetweenComponents(
    const std::vector<int64_t>& left, const std::vector<int64_t>& right,
    OpCounters* stats) const {
  if (left.empty() && right.empty()) {
    return std::vector<int64_t>{1};
  }
  if (right.empty()) {
    // Insert after the rightmost sibling: next odd above the first
    // component.
    int64_t l0 = left[0];
    return std::vector<int64_t>{IsOdd(l0) ? l0 + 2 : l0 + 1};
  }
  if (left.empty()) {
    // Insert before the leftmost sibling: next odd below.
    int64_t r0 = right[0];
    return std::vector<int64_t>{IsOdd(r0) ? r0 - 2 : r0 - 1};
  }
  int64_t l0 = left[0];
  int64_t r0 = right[0];
  if (l0 == r0) {
    // Shared (necessarily even) caret component; recurse one level deeper.
    std::vector<int64_t> lrest(left.begin() + 1, left.end());
    std::vector<int64_t> rrest(right.begin() + 1, right.end());
    XMLUP_ASSIGN_OR_RETURN(std::vector<int64_t> rest,
                           BetweenComponents(lrest, rrest, stats));
    std::vector<int64_t> result{l0};
    result.insert(result.end(), rest.begin(), rest.end());
    return result;
  }
  if (r0 - l0 >= 2) {
    // An integer fits strictly between; careting computes the midpoint —
    // the division the survey charges ORDPATH with.
    if (stats != nullptr) ++stats->divisions;
    int64_t mid = l0 + (r0 - l0) / 2;
    if (IsOdd(mid)) return std::vector<int64_t>{mid};
    if (mid + 1 < r0) return std::vector<int64_t>{mid + 1};
    // Only the even value fits: caret in and start a fresh odd component.
    return std::vector<int64_t>{mid, 1};
  }
  // Adjacent components (one odd, one even): descend into the caret side.
  if (!IsOdd(l0)) {
    std::vector<int64_t> lrest(left.begin() + 1, left.end());
    XMLUP_ASSIGN_OR_RETURN(std::vector<int64_t> rest,
                           BetweenComponents(lrest, {}, stats));
    std::vector<int64_t> result{l0};
    result.insert(result.end(), rest.begin(), rest.end());
    return result;
  }
  assert(!IsOdd(r0));
  std::vector<int64_t> rrest(right.begin() + 1, right.end());
  XMLUP_ASSIGN_OR_RETURN(std::vector<int64_t> rest,
                         BetweenComponents({}, rrest, stats));
  std::vector<int64_t> result{r0};
  result.insert(result.end(), rest.begin(), rest.end());
  return result;
}

Result<std::string> OrdpathCodec::Between(std::string_view left,
                                          std::string_view right,
                                          OpCounters* stats) const {
  XMLUP_ASSIGN_OR_RETURN(
      std::vector<int64_t> components,
      BetweenComponents(Unpack(left), Unpack(right), stats));
  std::string code = Pack(components);
  if (StorageBits(code) > max_code_bits_) {
    return Status::Overflow("ORDPATH code exceeds its size-field budget");
  }
  return code;
}

int OrdpathCodec::Compare(std::string_view a, std::string_view b) const {
  std::vector<int64_t> ca = Unpack(a);
  std::vector<int64_t> cb = Unpack(b);
  size_t i = 0;
  while (i < ca.size() && i < cb.size()) {
    if (ca[i] != cb[i]) return ca[i] < cb[i] ? -1 : 1;
    ++i;
  }
  if (ca.size() == cb.size()) return 0;
  return ca.size() < cb.size() ? -1 : 1;
}

bool OrdpathCodec::OrderKey(std::string_view code, std::string* out) const {
  // One compact signed key per component: the keys are prefix-free, so
  // memcmp over the concatenation reproduces the componentwise signed
  // comparison, with a shorter (caret-prefix) code sorting first.
  for (int64_t c : Unpack(code)) AppendOrderedInt(c, out);
  return true;
}

size_t OrdpathCodec::StorageBits(std::string_view code) const {
  size_t bits = 0;
  for (int64_t c : Unpack(code)) {
    // Elias-gamma-style: unary length prefix + value bits.
    size_t b = BitLength(ZigZag(c));
    bits += 2 * b + 1;
  }
  return bits;
}

std::string OrdpathCodec::Render(std::string_view code) const {
  std::ostringstream os;
  std::vector<int64_t> components = Unpack(code);
  for (size_t i = 0; i < components.size(); ++i) {
    if (i > 0) os << ".";
    os << components[i];
  }
  return os.str();
}

}  // namespace xmlup::labels
