#include "labels/quaternary_codec.h"

#include <cassert>

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

namespace {

std::string RenderQuaternary(std::string_view code) {
  std::string out;
  out.reserve(code.size());
  for (char c : code) out.push_back(static_cast<char>('0' + c));
  return out;
}

// 2 bits per quaternary number plus the 2-bit 00 separator that delimits
// the code in storage.
size_t QuaternaryStorageBits(std::string_view code) {
  return 2 * code.size() + 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// QedCodec
// ---------------------------------------------------------------------------

void QedCodec::AssignRange(size_t lo, size_t hi, const std::string& left,
                           const std::string& right,
                           std::vector<std::string>* out,
                           OpCounters* stats) const {
  if (lo > hi) return;
  size_t n = hi - lo + 1;
  if (stats != nullptr) {
    ++stats->recursive_calls;
    // GetOneThirdAndTwoThirdCode determines the (1/3)th and (2/3)th
    // positions and code values by division.
    stats->divisions += 2;
  }
  if (n == 1) {
    auto code = DigitBetween(kQuaternaryDomain, left, right);
    assert(code.ok());
    (*out)[lo] = code.value();
    return;
  }
  // One-third and two-thirds positions (1-based ceil, per the paper).
  size_t i1 = lo + (n - 1) / 3;
  size_t i2 = lo + (2 * (n - 1)) / 3;
  if (i2 == i1) ++i2;
  auto a = DigitBetween(kQuaternaryDomain, left, right);
  assert(a.ok());
  auto b = DigitBetween(kQuaternaryDomain, a.value(), right);
  assert(b.ok());
  (*out)[i1] = a.value();
  (*out)[i2] = b.value();
  if (i1 > lo) AssignRange(lo, i1 - 1, left, (*out)[i1], out, stats);
  if (i2 > i1 + 1) AssignRange(i1 + 1, i2 - 1, (*out)[i1], (*out)[i2], out,
                               stats);
  if (hi > i2) AssignRange(i2 + 1, hi, (*out)[i2], right, out, stats);
}

Status QedCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                              OpCounters* stats) const {
  out->assign(n, std::string());
  if (n == 0) return Status::Ok();
  AssignRange(0, n - 1, std::string(), std::string(), out, stats);
  return Status::Ok();
}

Result<std::string> QedCodec::Between(std::string_view left,
                                      std::string_view right,
                                      OpCounters* stats) const {
  if (stats != nullptr) ++stats->divisions;
  // QED codes never overflow: the separator replaces the length field.
  return DigitBetween(kQuaternaryDomain, left, right);
}

int QedCodec::Compare(std::string_view a, std::string_view b) const {
  return DigitCompare(a, b);
}

void QedCodec::OrderKey(std::string_view code, std::string* out) const {
  // DigitCompare is plain lexicographic order over the raw digits.
  out->append(code);
}

size_t QedCodec::StorageBits(std::string_view code) const {
  return QuaternaryStorageBits(code);
}

std::string QedCodec::Render(std::string_view code) const {
  return RenderQuaternary(code);
}

// ---------------------------------------------------------------------------
// CdqsCodec
// ---------------------------------------------------------------------------

std::string CdqsCodec::NthCode(size_t i, size_t width) {
  // Mixed radix: the final digit counts in {2,3}, the leading width-1
  // digits count in {1,2,3}.
  std::string code(width, '\0');
  code[width - 1] = static_cast<char>(2 + (i & 1));
  size_t q = i >> 1;
  for (size_t pos = width - 1; pos-- > 0;) {
    code[pos] = static_cast<char>(1 + (q % 3));
    q /= 3;
  }
  return code;
}

void CdqsCodec::AssignRange(size_t lo, size_t hi,
                            const std::vector<std::string>& codes,
                            std::vector<std::string>* out,
                            OpCounters* stats) const {
  if (lo > hi) return;
  if (stats != nullptr) {
    // The published assignment is a recursive divide-and-conquer over the
    // sibling range.
    ++stats->recursive_calls;
    ++stats->divisions;
  }
  size_t mid = lo + (hi - lo) / 2;
  (*out)[mid] = codes[mid];
  if (mid > lo) AssignRange(lo, mid - 1, codes, out, stats);
  AssignRange(mid + 1, hi, codes, out, stats);
}

Status CdqsCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                               OpCounters* stats) const {
  out->assign(n, std::string());
  if (n == 0) return Status::Ok();
  // CDQS's compactness: use the n *shortest* valid quaternary codes,
  // assigned in lexicographic order. Codes of length L number 2 * 3^(L-1).
  std::vector<std::string> codes;
  codes.reserve(n);
  size_t length = 1;
  size_t count_at_length = 2;
  while (codes.size() < n) {
    size_t take = std::min(n - codes.size(), count_at_length);
    for (size_t i = 0; i < take; ++i) {
      codes.push_back(NthCode(i, length));
    }
    ++length;
    count_at_length *= 3;
  }
  std::sort(codes.begin(), codes.end());
  AssignRange(0, n - 1, codes, out, stats);
  return Status::Ok();
}

Result<std::string> CdqsCodec::Between(std::string_view left,
                                       std::string_view right,
                                       OpCounters* stats) const {
  if (stats != nullptr) ++stats->divisions;
  return DigitBetween(kQuaternaryDomain, left, right);
}

int CdqsCodec::Compare(std::string_view a, std::string_view b) const {
  return DigitCompare(a, b);
}

void CdqsCodec::OrderKey(std::string_view code, std::string* out) const {
  // DigitCompare is plain lexicographic order over the raw digits.
  out->append(code);
}

size_t CdqsCodec::StorageBits(std::string_view code) const {
  return QuaternaryStorageBits(code);
}

std::string CdqsCodec::Render(std::string_view code) const {
  return RenderQuaternary(code);
}

}  // namespace xmlup::labels
