#ifndef MIDAS_RDF_ID_HASH_INDEX_H_
#define MIDAS_RDF_ID_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace midas {
namespace rdf {

/// Open-addressed hash index over dense uint32 ids whose keys live in the
/// owner's insertion-ordered vector (Dictionary's terms, TripleStore's
/// triples). A slot holds the key's folded 32-bit hash next to its id, so a
/// probe compares a key only when the hashes match, growth rehashes without
/// touching any key, and the index holds no copy of one. Linear probing;
/// the table doubles before it passes half full.
class IdHashIndex {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// Returns the id for which `equals(id)` holds among the ids recorded
  /// under `hash`, or kNone.
  template <typename Equals>
  uint32_t Find(uint64_t hash, Equals&& equals) const {
    if (slots_.empty()) return kNone;
    const uint32_t h = Fold(hash);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) return kNone;
      if (slot.hash == h && equals(slot.id)) return slot.id;
    }
  }

  /// Find, except that a miss records `new_id` under `hash` and returns it.
  /// `new_id` must not be kNone.
  template <typename Equals>
  uint32_t FindOrInsert(uint64_t hash, uint32_t new_id, Equals&& equals) {
    Reserve(size_ + 1);
    const uint32_t h = Fold(hash);
    size_t i = h & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) break;
      if (slot.hash == h && equals(slot.id)) return slot.id;
    }
    slots_[i] = Slot{h, new_id};
    ++size_;
    return new_id;
  }

  /// Sizes the table so `n` ids fit without another rehash.
  void Reserve(size_t n) {
    if (n * 2 > slots_.size()) Rehash(n * 2);
  }

 private:
  struct Slot {
    uint32_t hash;
    uint32_t id;
  };

  static uint32_t Fold(uint64_t hash) {
    return static_cast<uint32_t>(hash ^ (hash >> 32));
  }

  /// Moves every slot into a table of at least `min_slots` (a power of two).
  void Rehash(size_t min_slots);

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

inline void IdHashIndex::Rehash(size_t min_slots) {
  size_t capacity = 16;
  while (capacity < min_slots) capacity *= 2;
  std::vector<Slot> old(capacity, Slot{0, kNone});
  old.swap(slots_);
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNone) continue;
    size_t i = slot.hash & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

}  // namespace rdf
}  // namespace midas

#endif  // MIDAS_RDF_ID_HASH_INDEX_H_
