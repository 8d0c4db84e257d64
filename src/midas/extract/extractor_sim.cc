#include "midas/extract/extractor_sim.h"

#include <algorithm>

#include "midas/util/logging.h"
#include "midas/util/string_util.h"

namespace midas {
namespace extract {

ExtractionSimulator::ExtractionSimulator(ExtractorProfile profile,
                                         rdf::Dictionary* dict)
    : profile_(profile), dict_(dict) {
  MIDAS_CHECK(dict_ != nullptr);
}

double ExtractionSimulator::DrawConfidence(double mean, double stddev,
                                           Rng* rng) const {
  double c = rng->Normal(mean, stddev);
  return std::clamp(c, 0.01, 0.99);
}

rdf::Triple ExtractionSimulator::CorruptTriple(const rdf::Triple& t,
                                               Rng* rng) const {
  rdf::Triple out = t;
  // Mint a garbage term whose name encodes the corruption, so debugging a
  // synthetic dump stays tractable. Corrupted predicates draw from a
  // bounded confusion vocabulary (a mis-read relation is still a relation
  // name); corrupted objects are nearly unbounded.
  auto garbage = [&](const char* kind, uint64_t vocabulary) {
    return dict_->Intern(StringPrintf(
        "noise:%s:%llu", kind,
        static_cast<unsigned long long>(rng->Next() % vocabulary)));
  };
  switch (rng->Uniform(3)) {
    case 0:
      out.object = garbage("obj", 100000);
      break;
    case 1:
      out.predicate = garbage("pred", 200);
      break;
    default:
      out.predicate = garbage("pred", 200);
      out.object = garbage("obj", 100000);
      break;
  }
  return out;
}

void ExtractionSimulator::ExtractPage(const PageContent& page, Rng* rng,
                                      std::vector<ExtractedFact>* out) const {
  for (size_t i = 0; i < page.facts.size(); ++i) {
    const rdf::Triple& t = page.facts[i];
    double salience = i < page.salience.size() ? page.salience[i] : 1.0;
    if (rng->Bernoulli(std::min(1.0, profile_.recall * salience))) {
      out->push_back(ExtractedFact{
          page.url, t,
          DrawConfidence(profile_.true_conf_mean, profile_.true_conf_stddev,
                         rng)});
    }
    if (rng->Bernoulli(profile_.noise_rate)) {
      out->push_back(ExtractedFact{
          page.url, CorruptTriple(t, rng),
          DrawConfidence(profile_.noise_conf_mean, profile_.noise_conf_stddev,
                         rng)});
    }
  }
}

ExtractionDump ExtractionSimulator::ExtractAll(
    std::vector<PageContent> pages, std::shared_ptr<rdf::Dictionary> dict,
    Rng* rng) const {
  ExtractionDump dump;
  dump.dict = std::move(dict);
  for (PageContent& page : pages) {
    ExtractPage(page, rng, &dump.facts);
    page = PageContent();
  }
  return dump;
}

}  // namespace extract
}  // namespace midas
