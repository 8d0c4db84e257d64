// The paper's running example (Figs. 2, 4, 5; Examples 1-16), end to end:
// thirteen facts extracted from five pages of http://space.skyrocket.de, a
// Freebase-like KB that already knows the space programs but not the rocket
// families, and the MIDAS pipeline discovering the slice
//
//     "rocket families sponsored by NASA"
//     at http://space.skyrocket.de/doc_lau_fam
//
// Run: ./build/examples/skyrocket

#include <iostream>
#include <memory>

#include "midas/core/midas.h"

using namespace midas;

namespace {

struct Fact {
  const char* url;
  const char* subject;
  const char* predicate;
  const char* object;
  bool is_new;  // absent from Freebase (the "new?" column of Fig. 2)
};

constexpr Fact kFacts[] = {
    {"http://space.skyrocket.de/doc_sat/mercury-history.htm",
     "Project Mercury", "category", "space_program", false},
    {"http://space.skyrocket.de/doc_sat/mercury-history.htm",
     "Project Mercury", "started", "1959", false},
    {"http://space.skyrocket.de/doc_sat/mercury-history.htm",
     "Project Mercury", "sponsor", "NASA", false},
    {"http://space.skyrocket.de/doc_sat/gemini-history.htm",
     "Project Gemini", "category", "space_program", false},
    {"http://space.skyrocket.de/doc_sat/gemini-history.htm",
     "Project Gemini", "sponsor", "NASA", false},
    {"http://space.skyrocket.de/doc_lau_fam/atlas.htm", "Atlas", "category",
     "rocket_family", true},
    {"http://space.skyrocket.de/doc_lau_fam/atlas.htm", "Atlas", "sponsor",
     "NASA", true},
    {"http://space.skyrocket.de/doc_lau_fam/atlas.htm", "Atlas", "started",
     "1957", true},
    {"http://space.skyrocket.de/doc_sat/apollo-history.htm",
     "Apollo program", "category", "space_program", false},
    {"http://space.skyrocket.de/doc_sat/apollo-history.htm",
     "Apollo program", "sponsor", "NASA", false},
    {"http://space.skyrocket.de/doc_lau_fam/castor-4.htm", "Castor-4",
     "category", "rocket_family", true},
    {"http://space.skyrocket.de/doc_lau_fam/castor-4.htm", "Castor-4",
     "started", "1971", true},
    {"http://space.skyrocket.de/doc_lau_fam/castor-4.htm", "Castor-4",
     "sponsor", "NASA", true},
};

}  // namespace

int main() {
  auto dict = std::make_shared<rdf::Dictionary>();
  rdf::KnowledgeBase freebase(dict);
  web::Corpus corpus(dict);

  std::cout << "Input facts (paper Fig. 2):\n";
  for (const Fact& f : kFacts) {
    corpus.AddFactRaw(f.url, f.subject, f.predicate, f.object);
    if (!f.is_new) {
      freebase.Add(rdf::Triple(dict->Intern(f.subject),
                               dict->Intern(f.predicate),
                               dict->Intern(f.object)));
    }
    std::cout << "  (" << f.subject << ", " << f.predicate << ", "
              << f.object << ")  new=" << (f.is_new ? "Y" : "N") << "\n";
  }
  std::cout << "\nKB (Freebase stand-in) holds " << freebase.size()
            << " of the " << corpus.NumFacts() << " facts.\n";

  // Step 1: look at one source's fact table and slice profits, the way
  // Figs. 4 and 5 do (f_p = 1 in the running example).
  std::vector<rdf::Triple> all_facts;
  for (const auto& src : corpus.sources()) {
    all_facts.insert(all_facts.end(), src.facts.begin(), src.facts.end());
  }
  core::FactTable table(all_facts);
  std::cout << "\nFact table F_W: " << table.num_entities()
            << " entities x " << table.num_predicates()
            << " predicates, properties |C_W| = " << table.catalog().size()
            << "\n";

  core::MidasOptions options;
  options.cost_model = core::CostModel::RunningExample();
  core::ProfitContext profit(table, freebase, options.cost_model);
  core::SliceHierarchy hierarchy(table, profit, options.hierarchy);
  std::cout << "Slice hierarchy: " << hierarchy.stats().nodes_generated
            << " nodes generated, "
            << hierarchy.stats().noncanonical_removed
            << " non-canonical removed, "
            << hierarchy.stats().low_profit_pruned
            << " low-profit pruned (paper Fig. 5)\n";
  for (size_t level = 1; level <= hierarchy.max_level(); ++level) {
    for (uint32_t idx : hierarchy.nodes_at_level(level)) {
      const auto& node = hierarchy.nodes()[idx];
      if (node.removed) continue;
      auto slice = core::MidasAlg::MakeSlice(hierarchy, idx, "W");
      std::cout << "  level " << level << "  {"
                << slice.Description(*dict) << "}  profit=" << node.profit
                << "  f_LB=" << node.lb_profit
                << (node.valid ? "" : "  [pruned: low profit]") << "\n";
    }
  }

  // Step 2: the full multi-source framework over the page-level corpus
  // (Example 16's three rounds).
  core::Midas midas(options);
  auto result = midas.DiscoverSlices(corpus, freebase);

  std::cout << "\nMIDAS framework result (" << result.stats.rounds
            << " rounds over the URL hierarchy):\n";
  for (const auto& slice : result.slices) {
    std::cout << "  extract \"" << slice.Description(*dict) << "\"\n"
              << "  from    " << slice.source_url << "\n"
              << "  facts   " << slice.num_facts << " ("
              << slice.num_new_facts << " new), profit " << slice.profit
              << "\n";
  }
  std::cout << "\n(paper: the answer is the slice \"category=rocket_family &"
            << " sponsor=NASA\" at http://space.skyrocket.de/doc_lau_fam)\n";
  return 0;
}
