#include "labels/dewey_codec.h"

#include "labels/order_key.h"

namespace xmlup::labels {

using common::OpCounters;
using common::Result;
using common::Status;

std::string DeweyCodec::Pack(uint32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return out;
}

bool DeweyCodec::Unpack(std::string_view code, uint32_t* v) {
  if (code.size() != 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(code[i])) << (8 * i);
  }
  return true;
}

Status DeweyCodec::InitialCodes(size_t n, std::vector<std::string>* out,
                                OpCounters* /*stats*/) const {
  out->clear();
  out->reserve(n);
  if (n > UINT32_MAX - 1) {
    return Status::OutOfRange("too many siblings for 32-bit Dewey ids");
  }
  for (size_t i = 1; i <= n; ++i) {
    out->push_back(Pack(static_cast<uint32_t>(i)));
  }
  return Status::Ok();
}

Result<std::string> DeweyCodec::Between(std::string_view left,
                                        std::string_view right,
                                        OpCounters* /*stats*/) const {
  // Appending after the rightmost sibling is the only gap-free insertion.
  if (right.empty()) {
    uint32_t l = 0;
    if (!left.empty() && !Unpack(left, &l)) {
      return Status::InvalidArgument("malformed Dewey code");
    }
    if (l == UINT32_MAX) return Status::Overflow("Dewey id space exhausted");
    return Pack(l + 1);
  }
  // Inserting before or between consecutive integers requires shifting the
  // following siblings: report overflow so the host relabels the range.
  return Status::Overflow(
      "DeweyID has no identifier between consecutive siblings");
}

int DeweyCodec::Compare(std::string_view a, std::string_view b) const {
  uint32_t va = 0, vb = 0;
  if (!Unpack(a, &va) || !Unpack(b, &vb)) {
    return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
  }
  return va < vb ? -1 : (va > vb ? 1 : 0);
}

bool DeweyCodec::OrderKey(std::string_view code, std::string* out) const {
  uint32_t v = 0;
  if (!Unpack(code, &v)) return false;
  AppendOrderedUint(v, out);
  return true;
}

size_t DeweyCodec::StorageBits(std::string_view /*code*/) const { return 32; }

std::string DeweyCodec::Render(std::string_view code) const {
  uint32_t v = 0;
  if (!Unpack(code, &v)) return "<bad-dewey>";
  return std::to_string(v);
}

}  // namespace xmlup::labels
