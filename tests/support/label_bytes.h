#ifndef XMLUP_TESTS_SUPPORT_LABEL_BYTES_H_
#define XMLUP_TESTS_SUPPORT_LABEL_BYTES_H_

#include <string>
#include <vector>

#include "core/labeled_document.h"

namespace xmlup::test_support {

// All live labels in preorder, as raw bytes — the bit-identical currency
// the recovery, replication and view tests compare in.
inline std::vector<std::string> LabelBytes(const core::LabeledDocument& doc) {
  std::vector<std::string> out;
  for (xml::NodeId n : doc.tree().PreorderNodes()) {
    out.emplace_back(doc.label(n).bytes());
  }
  return out;
}

}  // namespace xmlup::test_support

#endif  // XMLUP_TESTS_SUPPORT_LABEL_BYTES_H_
