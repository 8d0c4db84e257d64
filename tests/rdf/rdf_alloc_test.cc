// Verifies the allocation contract of the KB path: KnowledgeBase::Contains
// and Dictionary::Lookup allocate nothing on hits or misses, and loading a
// TSV fact file whose terms are all interned allocates per file, not per
// row (the reader reuses its buffer and field vector). Allocations are
// counted by instrumenting the global operator new for this test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/test_dir.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/rdf/ntriples.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace midas {
namespace rdf {
namespace {

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }

  size_t count() const { return g_allocations.load(std::memory_order_relaxed); }
};

// Long enough that a std::string copy of it would leave the small-string
// buffer and allocate.
std::string Term(const char* kind, int i) {
  return std::string("http://example.org/") + kind + "/" + std::to_string(i);
}

TEST(RdfAllocTest, ContainsAndLookupAllocateNothing) {
  auto dict = std::make_shared<Dictionary>();
  KnowledgeBase kb(dict);
  std::vector<Triple> present, absent;
  for (int i = 0; i < 2000; ++i) {
    // Half the subjects arrive the columnar way (lazily indexed).
    const TermId s = i % 2 == 0 ? dict->AdoptUnchecked(Term("s", i))
                                : dict->Intern(Term("s", i));
    const Triple t(s, dict->Intern(Term("p", i % 17)),
                   dict->Intern(Term("o", i % 101)));
    (i % 3 == 0 ? absent : present).push_back(t);
  }
  kb.AddAll(present);
  // Every probe string is built before counting starts.
  std::vector<std::string> subjects, missing;
  for (int i = 0; i < 2000; ++i) subjects.push_back(Term("s", i));
  for (int i = 0; i < 200; ++i) missing.push_back(Term("never", i));
  ASSERT_TRUE(dict->Lookup(subjects[0]).has_value());  // index catch-up

  size_t hits = 0, found = 0, allocations = 0;
  {
    AllocationGuard guard;
    for (const Triple& t : present) hits += kb.Contains(t);
    for (const Triple& t : absent) hits += kb.Contains(t);
    for (const std::string& term : subjects) {
      found += dict->Lookup(term).has_value();
    }
    for (const std::string& term : missing) {
      found += dict->Lookup(term).has_value();
    }
    allocations = guard.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(hits, present.size());
  EXPECT_EQ(found, 2000u);
}

TEST(RdfAllocTest, LoadTsvFactsOfInternedTermsAllocatesPerFileNotPerRow) {
  const std::string path = tests::TestDir() + "/kb.tsv";
  Dictionary dict;
  {
    std::ofstream out(path);
    for (int i = 0; i < 10000; ++i) {
      const std::string s = Term("s", i), p = Term("p", i % 23),
                        o = Term("o", i % 997);
      out << s << '\t' << p << '\t' << o << '\n';
      dict.Intern(s);
      dict.Intern(p);
      dict.Intern(o);
    }
  }
  const size_t terms = dict.size();
  std::vector<Triple> facts;
  size_t allocations = 0;
  {
    AllocationGuard guard;
    ASSERT_TRUE(LoadTsvFacts(path, &dict, &facts).ok());
    allocations = guard.count();
  }
  EXPECT_EQ(facts.size(), 10000u);
  EXPECT_EQ(dict.size(), terms);  // every term was already interned
  EXPECT_LT(allocations, 64u);
}

}  // namespace
}  // namespace rdf
}  // namespace midas
