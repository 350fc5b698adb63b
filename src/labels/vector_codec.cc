#include "labels/vector_codec.h"

#include <sstream>

#include "common/varint.h"
#include "labels/order_key.h"

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

std::string VectorCodec::Pack(uint64_t x, uint64_t y) {
  std::string out(16, '\0');
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((x >> (8 * i)) & 0xFF);
    out[8 + i] = static_cast<char>((y >> (8 * i)) & 0xFF);
  }
  return out;
}

bool VectorCodec::Unpack(std::string_view code, uint64_t* x, uint64_t* y) {
  if (code.size() != 16) return false;
  *x = 0;
  *y = 0;
  for (int i = 0; i < 8; ++i) {
    *x |= static_cast<uint64_t>(static_cast<uint8_t>(code[i])) << (8 * i);
    *y |= static_cast<uint64_t>(static_cast<uint8_t>(code[8 + i]))
          << (8 * i);
  }
  return true;
}

void VectorCodec::AssignRange(size_t lo, size_t hi, uint64_t lx, uint64_t ly,
                              uint64_t rx, uint64_t ry,
                              std::vector<std::string>* out,
                              OpCounters* stats) const {
  if (lo > hi) return;
  if (stats != nullptr) ++stats->recursive_calls;
  size_t mid = lo + (hi - lo) / 2;
  // The middle node's vector is the sum of the two boundary vectors.
  uint64_t mx = lx + rx;
  uint64_t my = ly + ry;
  (*out)[mid] = Pack(mx, my);
  if (mid > lo) AssignRange(lo, mid - 1, lx, ly, mx, my, out, stats);
  AssignRange(mid + 1, hi, mx, my, rx, ry, out, stats);
}

Status VectorCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                                 OpCounters* stats) const {
  out->assign(n, std::string());
  if (n == 0) return Status::Ok();
  // Virtual bounds (1,0) and (0,1).
  AssignRange(0, n - 1, 1, 0, 0, 1, out, stats);
  return Status::Ok();
}

Result<std::string> VectorCodec::Between(std::string_view left,
                                         std::string_view right,
                                         OpCounters* /*stats*/) const {
  uint64_t lx = 1, ly = 0, rx = 0, ry = 1;
  if (!left.empty() && !Unpack(left, &lx, &ly)) {
    return Status::InvalidArgument("malformed vector code (left)");
  }
  if (!right.empty() && !Unpack(right, &rx, &ry)) {
    return Status::InvalidArgument("malformed vector code (right)");
  }
  uint64_t mx = lx + rx;
  uint64_t my = ly + ry;
  if (mx < lx || my < ly) {
    // Component addition wrapped: the (astronomically distant) point where
    // a 64-bit vector representation would need widening.
    return Status::Overflow("vector component exceeded 64 bits");
  }
  return Pack(mx, my);
}

int VectorCodec::Compare(std::string_view a, std::string_view b) const {
  uint64_t ax = 0, ay = 0, bx = 0, by = 0;
  // Codes produced by this codec always unpack; treat malformed input as
  // equal-by-bytes fallback.
  if (!Unpack(a, &ax, &ay) || !Unpack(b, &bx, &by)) {
    return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
  }
  // G(A) < G(B) iff ay/ax < by/bx iff ay*bx < by*ax (cross-multiplication;
  // no division, per the published scheme).
  unsigned __int128 lhs =
      static_cast<unsigned __int128>(ay) * static_cast<unsigned __int128>(bx);
  unsigned __int128 rhs =
      static_cast<unsigned __int128>(by) * static_cast<unsigned __int128>(ax);
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

void VectorCodec::OrderKey(std::string_view code, std::string* out) const {
  uint64_t x = 0, y = 0;
  if (!Unpack(code, &x, &y) || x == 0) return;
  AppendRatioKey(y, x, out);
}

size_t VectorCodec::StorageBits(std::string_view code) const {
  uint64_t x = 0, y = 0;
  if (!Unpack(code, &x, &y)) return 8 * code.size();
  return 8 * (common::VarintSize(x) + common::VarintSize(y));
}

std::string VectorCodec::Render(std::string_view code) const {
  uint64_t x = 0, y = 0;
  if (!Unpack(code, &x, &y)) return "<bad-vector>";
  std::ostringstream os;
  os << "(" << x << "," << y << ")";
  return os.str();
}

}  // namespace xmlup::labels
