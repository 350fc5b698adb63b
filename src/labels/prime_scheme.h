#ifndef XMLUP_LABELS_PRIME_SCHEME_H_
#define XMLUP_LABELS_PRIME_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/biguint.h"
#include "common/primes.h"
#include "labels/scheme.h"

namespace xmlup::labels {

/// Prime number labelling (Wu, Lee & Hsu, ICDE 2004) — one of the two
/// schemes the survey's §6 defers to future work; implemented here so the
/// evaluation framework can grade it with the same probes.
///
/// Each node receives a distinct prime (its self-label); the node's label
/// is the *product* of the primes on its root path, so u is an ancestor of
/// v iff label(u) divides label(v) exactly — evaluated here with exact
/// big-integer arithmetic, since the products overflow native words after
/// a handful of levels. Parent and sibling tests multiply instead of
/// divide (u·selfprime(v) == label(v); sibling via cross-multiplication).
///
/// Document order is *not* derivable from the products; Wu et al. maintain
/// simultaneous-congruence values that are recalculated when the document
/// changes. We substitute a gap-numbered 64-bit order key with the same
/// behaviour: insertions bisect the gap, and when a gap is exhausted the
/// order keys (not the prime labels) of the whole document are
/// recalculated — matching the SC-value recomputation the original paper
/// accepts on updates.
class PrimeScheme final : public LabelingScheme {
 public:
  /// `order_gap` is the initial spacing of order keys.
  explicit PrimeScheme(uint64_t order_gap = 1ULL << 16);

  const SchemeTraits& traits() const override { return traits_; }

  common::Status LabelTree(const xml::Tree& tree,
                           std::vector<Label>* labels) const override;
  common::Result<InsertOutcome> LabelForInsert(
      const xml::Tree& tree, xml::NodeId node,
      const std::vector<Label>& labels) const override;
  int Compare(const Label& a, const Label& b) const override;
  void OrderKey(const Label& label, std::string* out) const override;
  bool IsAncestor(const Label& ancestor, const Label& descendant) const override;
  bool IsParent(const Label& parent, const Label& child) const override;
  bool IsSibling(const Label& a, const Label& b) const override;
  common::Result<int> Level(const Label& label) const override;
  size_t StorageBits(const Label& label) const override;
  std::string Render(const Label& label) const override;

  struct Parts {
    uint32_t level = 0;
    uint64_t self_prime = 0;
    uint64_t order_key = 0;
    common::BigUint product;
  };
  static Label Encode(const Parts& parts);
  static bool Decode(const Label& label, Parts* parts);

 private:
  SchemeTraits traits_;
  uint64_t order_gap_;
  /// Prime supply shared by initial labelling and insertions.
  mutable common::PrimeSource primes_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_PRIME_SCHEME_H_
