// Quickstart: feed MIDAS a handful of automated extractions and an existing
// knowledge base, and print the web source slices it recommends extracting.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>
#include <memory>

#include "midas/core/midas.h"

int main() {
  using namespace midas;

  // A dictionary shared by the extraction corpus and the knowledge base.
  auto dict = std::make_shared<rdf::Dictionary>();

  // The knowledge base we want to augment. It already knows about two
  // cocktails.
  rdf::KnowledgeBase kb(dict);
  const auto fact = [&dict](const char* s, const char* p, const char* o) {
    return rdf::Triple(dict->Intern(s), dict->Intern(p), dict->Intern(o));
  };
  kb.Add(fact("Mojito", "category", "cocktail"));
  kb.Add(fact("Mojito", "ingredient", "rum"));
  kb.Add(fact("Negroni", "category", "cocktail"));
  kb.Add(fact("Negroni", "ingredient", "gin"));

  // Facts an automated extraction pipeline pulled from the web (already
  // filtered to high confidence). The cocktail pages of drinks.example.com
  // describe cocktails the KB has never heard of; the news page is just
  // loosely related chatter.
  web::Corpus corpus(dict);
  const char* kMargarita = "https://drinks.example.com/cocktails/margarita";
  const char* kDaiquiri = "https://drinks.example.com/cocktails/daiquiri";
  const char* kPaloma = "https://drinks.example.com/cocktails/paloma";
  const char* kNews = "https://drinks.example.com/news/expo-2026";

  corpus.AddFactRaw(kMargarita, "Margarita", "category", "cocktail");
  corpus.AddFactRaw(kMargarita, "Margarita", "base_spirit", "tequila");
  corpus.AddFactRaw(kMargarita, "Margarita", "ingredient", "lime juice");
  corpus.AddFactRaw(kMargarita, "Margarita", "served", "straight up");
  corpus.AddFactRaw(kDaiquiri, "Daiquiri", "category", "cocktail");
  corpus.AddFactRaw(kDaiquiri, "Daiquiri", "base_spirit", "rum");
  corpus.AddFactRaw(kDaiquiri, "Daiquiri", "ingredient", "lime juice");
  corpus.AddFactRaw(kDaiquiri, "Daiquiri", "served", "straight up");
  corpus.AddFactRaw(kPaloma, "Paloma", "category", "cocktail");
  corpus.AddFactRaw(kPaloma, "Paloma", "base_spirit", "tequila");
  corpus.AddFactRaw(kPaloma, "Paloma", "ingredient", "grapefruit soda");
  corpus.AddFactRaw(kNews, "Drinks Expo", "category", "event");
  corpus.AddFactRaw(kNews, "Drinks Expo", "year", "2026");

  // Discover slices. The running-example cost model keeps the per-slice
  // training cost low enough for a toy corpus.
  core::MidasOptions options;
  options.cost_model = core::CostModel::RunningExample();
  core::Midas midas(options);
  auto result = midas.DiscoverSlices(corpus, kb);

  std::cout << "MIDAS suggests extracting:\n";
  for (const auto& slice : result.slices) {
    std::cout << "  " << slice.source_url << "\n"
              << "      what:   " << slice.Description(*dict) << "\n"
              << "      facts:  " << slice.num_facts << " ("
              << slice.num_new_facts << " new)\n"
              << "      profit: " << slice.profit << "\n";
  }
  if (result.slices.empty()) {
    std::cout << "  (nothing profitable found)\n";
  }
  return 0;
}
