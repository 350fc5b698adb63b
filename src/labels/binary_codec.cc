#include "labels/binary_codec.h"

#include <cassert>

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

namespace {

std::string RenderBits(std::string_view code) {
  std::string out;
  out.reserve(code.size());
  for (char c : code) out.push_back(c == 0 ? '0' : '1');
  return out;
}

// Bytes 0 and 1.
std::string Bits(std::initializer_list<int> bits) {
  std::string out;
  for (int b : bits) out.push_back(static_cast<char>(b));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ImprovedBinaryCodec
// ---------------------------------------------------------------------------

void ImprovedBinaryCodec::AssignRange(size_t lo, size_t hi,
                                      const std::string& left,
                                      const std::string& right,
                                      std::vector<std::string>* out,
                                      common::OpCounters* stats) const {
  if (lo > hi) return;
  if (stats != nullptr) {
    ++stats->recursive_calls;
    // The published Labelling algorithm picks the middle node with
    // (1 + n) / 2 and AssignMiddleSelfLabel halves the code interval.
    ++stats->divisions;
  }
  size_t mid = lo + (hi - lo) / 2;
  auto code = DigitBetween(kBinaryDomain, left, right);
  assert(code.ok());
  (*out)[mid] = code.value();
  if (mid > lo) AssignRange(lo, mid - 1, left, (*out)[mid], out, stats);
  AssignRange(mid + 1, hi, (*out)[mid], right, out, stats);
}

Status ImprovedBinaryCodec::InitialCodes(size_t n,
                                         std::vector<std::string>* out,
                                         OpCounters* stats) const {
  out->assign(n, std::string());
  if (n == 0) return Status::Ok();
  // The paper pins the leftmost child to "01" and the rightmost to "011",
  // then recursively fills the middles.
  (*out)[0] = Bits({0, 1});
  if (n == 1) return Status::Ok();
  (*out)[n - 1] = Bits({0, 1, 1});
  if (n > 2) AssignRange(1, n - 2, (*out)[0], (*out)[n - 1], out, stats);
  return Status::Ok();
}

Result<std::string> ImprovedBinaryCodec::Between(std::string_view left,
                                                 std::string_view right,
                                                 OpCounters* stats) const {
  if (stats != nullptr) {
    // AssignMiddleSelfLabel computes the midpoint of two binary fractions.
    ++stats->divisions;
  }
  XMLUP_ASSIGN_OR_RETURN(std::string code,
                         DigitBetween(kBinaryDomain, left, right));
  if (code.size() > max_code_bits_) {
    return Status::Overflow("ImprovedBinary code of " +
                            std::to_string(code.size()) +
                            " bits exceeds the length-field budget");
  }
  return code;
}

int ImprovedBinaryCodec::Compare(std::string_view a,
                                 std::string_view b) const {
  return DigitCompare(a, b);
}

void ImprovedBinaryCodec::OrderKey(std::string_view code, std::string* out) const {
  // DigitCompare is plain lexicographic order over the raw digits.
  out->append(code);
}

size_t ImprovedBinaryCodec::StorageBits(std::string_view code) const {
  return code.size() + length_field_bits_;
}

std::string ImprovedBinaryCodec::Render(std::string_view code) const {
  return RenderBits(code);
}

// ---------------------------------------------------------------------------
// CdbsCodec
// ---------------------------------------------------------------------------

Status CdbsCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                               OpCounters* stats) const {
  out->clear();
  out->reserve(n);
  if (n == 0) return Status::Ok();
  // Width of the consecutive binary numbers 1..n.
  size_t width = 1;
  while ((1ULL << width) <= n) ++width;
  if (width > slot_bits_) {
    return Status::OutOfRange("CDBS cannot label " + std::to_string(n) +
                              " siblings within its fixed slot width");
  }
  for (size_t i = 1; i <= n; ++i) {
    std::string code(width, '\0');
    for (size_t b = 0; b < width; ++b) {
      code[b] = static_cast<char>((i >> (width - 1 - b)) & 1);
    }
    out->push_back(std::move(code));
    if (stats != nullptr) ++stats->labels_assigned;
  }
  return Status::Ok();
}

Result<std::string> CdbsCodec::Between(std::string_view left,
                                       std::string_view right,
                                       OpCounters* stats) const {
  if (stats != nullptr) ++stats->divisions;  // Midpoint of binary fractions.
  XMLUP_ASSIGN_OR_RETURN(std::string code,
                         DigitBetween(kBinaryDomain, left, right));
  if (code.size() > slot_bits_) {
    return Status::Overflow("CDBS code exceeds its fixed slot of " +
                            std::to_string(slot_bits_) + " bits");
  }
  return code;
}

int CdbsCodec::Compare(std::string_view a, std::string_view b) const {
  return DigitCompare(a, b);
}

void CdbsCodec::OrderKey(std::string_view code, std::string* out) const {
  // DigitCompare is plain lexicographic order over the raw digits.
  out->append(code);
}

size_t CdbsCodec::StorageBits(std::string_view code) const {
  return code.size();
}

std::string CdbsCodec::Render(std::string_view code) const {
  return RenderBits(code);
}

}  // namespace xmlup::labels
