#ifndef XMLUP_LABELS_LABEL_H_
#define XMLUP_LABELS_LABEL_H_

#include <cstddef>
#include <functional>
#include <string_view>

#include "labels/small_bytes.h"

namespace xmlup::labels {

/// An immutable node label: a byte string whose interpretation is owned by
/// the labelling scheme that produced it (Definition 1 of the paper). A
/// default-constructed (empty) Label means "no label assigned"; schemes
/// guarantee that every assigned label has a non-empty byte representation.
///
/// A label is a SmallBytes: labels of up to 31 bytes (every label of the
/// fixed-width schemes, and nearly all prefix labels) cost no heap block.
class Label {
 public:
  Label() = default;
  explicit Label(std::string_view bytes) : bytes_(bytes) {}

  Label(const Label&) = default;
  Label& operator=(const Label&) = default;
  Label(Label&&) = default;
  Label& operator=(Label&&) = default;

  std::string_view bytes() const { return bytes_.view(); }
  bool empty() const { return bytes_.empty(); }
  size_t size() const { return bytes_.size(); }

  friend bool operator==(const Label& a, const Label& b) = default;

 private:
  SmallBytes bytes_;
};

static_assert(sizeof(Label) <= 32, "a Label must stay one SmallBytes");

struct LabelHash {
  size_t operator()(const Label& l) const {
    return std::hash<std::string_view>()(l.bytes());
  }
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_LABEL_H_
