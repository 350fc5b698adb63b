#include "labels/scheme.h"

namespace xmlup::labels {

std::string_view OrderApproachName(OrderApproach approach) {
  switch (approach) {
    case OrderApproach::kGlobal:
      return "Global";
    case OrderApproach::kLocal:
      return "Local";
    case OrderApproach::kHybrid:
      return "Hybrid";
  }
  return "Unknown";
}

std::string_view EncodingRepName(EncodingRep rep) {
  switch (rep) {
    case EncodingRep::kFixed:
      return "Fixed";
    case EncodingRep::kVariable:
      return "Variable";
  }
  return "Unknown";
}

bool LabelingScheme::IsParent(const Label& /*parent*/,
                              const Label& /*child*/) const {
  return false;
}

bool LabelingScheme::IsSibling(const Label& /*a*/, const Label& /*b*/) const {
  return false;
}

common::Result<int> LabelingScheme::Level(const Label& /*label*/) const {
  return common::Status::Unsupported(traits().display_name +
                                     " does not encode the node level");
}

}  // namespace xmlup::labels
