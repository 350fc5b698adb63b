#ifndef XMLUP_LABELS_SMALL_BYTES_H_
#define XMLUP_LABELS_SMALL_BYTES_H_

#include <cstddef>
#include <cstring>
#include <string_view>

namespace xmlup::labels {

/// An immutable byte string in 32 bytes: up to 31 bytes live inline, longer
/// strings in one exact-size heap block. Node labels and their cached order
/// keys are almost always short, and a document copy holds one of each per
/// node, so keeping them inline is what keeps a copy small (a std::string
/// spills to the heap beyond 15 bytes and then costs 32 bytes plus the
/// block).
///
/// Layout: byte 31 is the tag. A tag of 0..31 is the inline length, with
/// the bytes at 0..30. kHeapTag means bytes 0..7 hold the block pointer and
/// bytes 8..15 the length.
class SmallBytes {
 public:
  static constexpr size_t kInlineCapacity = 31;

  SmallBytes() = default;
  explicit SmallBytes(std::string_view bytes) { Init(bytes); }

  SmallBytes(const SmallBytes& other) {
    if (other.on_heap()) {
      Init(other.view());
    } else {
      std::memcpy(rep_, other.rep_, sizeof(rep_));
    }
  }
  SmallBytes(SmallBytes&& other) noexcept {
    std::memcpy(rep_, other.rep_, sizeof(rep_));
    other.rep_[kTag] = 0;
  }
  SmallBytes& operator=(const SmallBytes& other) {
    if (this != &other) *this = SmallBytes(other);
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& other) noexcept {
    if (this != &other) {
      Release();
      std::memcpy(rep_, other.rep_, sizeof(rep_));
      other.rep_[kTag] = 0;
    }
    return *this;
  }
  ~SmallBytes() { Release(); }

  std::string_view view() const {
    if (!on_heap()) {
      return {rep_, static_cast<unsigned char>(rep_[kTag])};
    }
    const char* block = nullptr;
    size_t size = 0;
    std::memcpy(&block, rep_, sizeof(block));
    std::memcpy(&size, rep_ + sizeof(block), sizeof(size));
    return {block, size};
  }
  size_t size() const { return view().size(); }
  bool empty() const { return rep_[kTag] == 0; }
  /// True when the bytes live in a heap block (longer than 31 bytes).
  bool on_heap() const { return rep_[kTag] == kHeapTag; }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return a.view() == b.view();
  }

 private:
  static constexpr size_t kTag = kInlineCapacity;
  static constexpr char kHeapTag = static_cast<char>(0x80);

  void Init(std::string_view bytes) {
    if (bytes.size() <= kInlineCapacity) {
      if (!bytes.empty()) std::memcpy(rep_, bytes.data(), bytes.size());
      rep_[kTag] = static_cast<char>(bytes.size());
      return;
    }
    char* block = new char[bytes.size()];
    std::memcpy(block, bytes.data(), bytes.size());
    const size_t size = bytes.size();
    std::memcpy(rep_, &block, sizeof(block));
    std::memcpy(rep_ + sizeof(block), &size, sizeof(size));
    rep_[kTag] = kHeapTag;
  }
  void Release() {
    if (!on_heap()) return;
    char* block = nullptr;
    std::memcpy(&block, rep_, sizeof(block));
    delete[] block;
  }

  alignas(8) char rep_[kInlineCapacity + 1] = {};
};

static_assert(sizeof(SmallBytes) == 32);

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_SMALL_BYTES_H_
