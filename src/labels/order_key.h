#ifndef XMLUP_LABELS_ORDER_KEY_H_
#define XMLUP_LABELS_ORDER_KEY_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace xmlup::labels {

/// Helpers for building memcmp-comparable order keys (the
/// LabelingScheme::OrderKey / OrderCodec::OrderKey contract): byte strings
/// whose plain lexicographic comparison reproduces the scheme's document
/// order without decoding labels.

/// Appends `v`'s lowest `bytes` bytes big-endian, so that unsigned numeric
/// order equals lexicographic byte order at a fixed width.
inline void AppendBigEndian(uint64_t v, size_t bytes, std::string* out) {
  for (size_t i = bytes; i-- > 0;) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Appends `v` as a compact integer key: one header byte 0x80 + n, then
/// the n = ceil(bit_width(v) / 8) low bytes of `v` big-endian (0 is the
/// bare header 0x80). The header orders by length first, and equal lengths
/// order by the bytes, so the key is order-preserving; the header fixes the
/// length, so it is prefix-free and a concatenation of keys compares
/// element by element.
inline void AppendOrderedUint(uint64_t v, std::string* out) {
  const size_t n = (static_cast<size_t>(std::bit_width(v)) + 7) / 8;
  out->push_back(static_cast<char>(0x80 + n));
  AppendBigEndian(v, n, out);
}

/// The signed form of AppendOrderedUint: a non-negative `v` has exactly
/// its unsigned key (headers 0x80..0x88). A negative `v` gets header
/// 0x7F - n and the n low bytes of its two's complement, where n is the
/// byte length of -v - 1 (so -1 is the bare header 0x7F and INT64_MIN
/// takes header 0x77). More bytes means more negative, hence the falling
/// header; within one length, the bytes rise with `v`.
inline void AppendOrderedInt(int64_t v, std::string* out) {
  if (v >= 0) {
    AppendOrderedUint(static_cast<uint64_t>(v), out);
    return;
  }
  const uint64_t magnitude = ~static_cast<uint64_t>(v);  // -v - 1
  const size_t n = (static_cast<size_t>(std::bit_width(magnitude)) + 7) / 8;
  out->push_back(static_cast<char>(0x7F - n));
  AppendBigEndian(static_cast<uint64_t>(v), n, out);
}

/// Appends one component key followed by a terminator, escaping embedded
/// zero bytes (0x00 -> 0x00 0xFF, terminator 0x00 0x01). The encoding
/// preserves lexicographic order per component and makes a label that is a
/// proper component-prefix of another sort first — document order for
/// prefix labelling schemes, where an ancestor precedes its descendants.
inline void AppendOrderKeyComponent(std::string_view component_key,
                                    std::string* out) {
  for (char c : component_key) {
    out->push_back(c);
    if (c == '\0') out->push_back('\xFF');
  }
  out->push_back('\0');
  out->push_back('\x01');
}

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_ORDER_KEY_H_
