#include "midas/synth/corpus_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "midas/extract/extraction.h"
#include "midas/store/columnar.h"
#include "midas/util/logging.h"
#include "midas/util/string_util.h"
#include "midas/web/url.h"

namespace midas {
namespace synth {

namespace {

using extract::PageContent;

/// One vertical's schema: a stable "category" predicate, a stable "group"
/// predicate with a small value pool (sections fix one value — together
/// these are the slice-defining properties), a few scattered attribute
/// predicates, and an open-valued label predicate.
struct Vertical {
  rdf::TermId name_value;             // object of category
  rdf::TermId category_pred;          // shared across verticals
  rdf::TermId group_pred;             // shared across verticals
  std::vector<rdf::TermId> group_values;
  std::vector<std::string> attr_pred_names;  // paraphrased in OpenIE mode
  std::vector<std::vector<rdf::TermId>> attr_values;
  rdf::TermId label_pred;
};

size_t UniformIn(Rng* rng, size_t lo, size_t hi) {
  if (hi <= lo) return lo;
  return lo + rng->Uniform(hi - lo + 1);
}

// Long-tail junk categories for noisy (forum/news) content: loosely
// related entities whose type assertions never form a profitable group.
constexpr size_t kJunkCategories = 300;

// Extraction salience: defining facts (category/group) live in titles
// and infoboxes, so extractors recover them far more reliably.
constexpr double kDefiningSalience = 3.0;

/// Builds the vertical schemas. Shared by GenerateCorpus and the streaming
/// generator; draws from `rng` in a fixed order, so GenerateCorpus's
/// streams are unchanged by the factoring.
std::vector<Vertical> BuildOntology(const CorpusGenParams& params, Rng* rng,
                                    rdf::Dictionary* dict) {
  rdf::TermId category_pred = dict->Intern("category");
  rdf::TermId group_pred = dict->Intern("group");
  std::vector<Vertical> verticals(params.num_verticals);
  for (size_t v = 0; v < params.num_verticals; ++v) {
    Vertical& vert = verticals[v];
    vert.category_pred = category_pred;
    vert.group_pred = group_pred;
    vert.name_value = dict->Intern(StringPrintf("vertical_%zu", v));
    size_t num_groups = UniformIn(rng, 3, 6);
    for (size_t g = 0; g < num_groups; ++g) {
      vert.group_values.push_back(
          dict->Intern(StringPrintf("v%zu_group%zu", v, g)));
    }
    size_t num_attrs = UniformIn(rng, 2, 4);
    vert.attr_values.resize(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      vert.attr_pred_names.push_back(StringPrintf("attr_%zu_%zu", v, a));
      size_t pool = UniformIn(rng, 8, 20);
      for (size_t i = 0; i < pool; ++i) {
        vert.attr_values[a].push_back(
            dict->Intern(StringPrintf("val_%zu_%zu_%zu", v, a, i)));
      }
    }
    vert.label_pred = dict->Intern(StringPrintf("label_%zu", v));
  }
  return verticals;
}

}  // namespace

GeneratedCorpus GenerateCorpus(const CorpusGenParams& params) {
  Rng rng(params.seed);
  GeneratedCorpus out;
  out.dict = std::make_shared<rdf::Dictionary>();
  rdf::Dictionary& dict = *out.dict;
  out.kb = std::make_unique<rdf::KnowledgeBase>(out.dict);

  const bool open_ie = params.mode == CorpusMode::kOpenIe;

  // --- Ontology ------------------------------------------------------
  std::vector<Vertical> verticals = BuildOntology(params, &rng, &dict);

  // --- True web content ------------------------------------------------
  std::vector<PageContent> pages;
  struct SectionInfo {
    std::string url;
    std::vector<std::pair<rdf::TermId, rdf::TermId>> rule;
    std::vector<rdf::TermId> entities;
    bool is_gap = false;
    std::string description;
  };
  std::vector<SectionInfo> sections;

  size_t vertical_rr = 0;  // round-robin so a domain's sections differ
  size_t noisy_quota = 0;  // exact fractional assignment of noisy domains

  for (size_t d = 0; d < params.num_domains; ++d) {
    std::string host = StringPrintf("http://www.domain%zu.example.com", d);
    size_t prev = noisy_quota;
    noisy_quota = static_cast<size_t>(
        std::floor(static_cast<double>(d + 1) * params.noisy_domain_fraction));
    bool noisy = noisy_quota > prev;

    size_t size_multiplier = 1;
    if (params.skewed_large_domain && d == 0) {
      size_multiplier = params.skew_factor;
      noisy = false;  // the big NELL-like source is coherent content
    }

    if (noisy) {
      // Forum/news style: loosely related entities, no coherent rule.
      size_t num_pages = UniformIn(&rng, params.pages_per_section,
                                   3 * params.pages_per_section) *
                         std::max<size_t>(1, params.sections_per_domain);
      for (size_t j = 0; j < num_pages; ++j) {
        PageContent page;
        page.url = host + StringPrintf("/post%zu.htm", j);
        size_t num_entities =
            UniformIn(&rng, 1, 2 * params.entities_per_page);
        for (size_t k = 0; k < num_entities; ++k) {
          rdf::TermId subject = dict.Intern(
              StringPrintf("noise_d%zu_p%zu_e%zu", d, j, k));
          out.entity_group[subject] = GeneratedCorpus::kNoiseGroup;
          const Vertical& vert =
              verticals[rng.Uniform(verticals.size())];
          // Mostly long-tail junk categories; occasionally a real vertical
          // with a random group — either way no profitable group forms.
          if (rng.Bernoulli(0.85)) {
            page.facts.emplace_back(
                subject, vert.category_pred,
                dict.Intern(StringPrintf(
                    "topic_%zu",
                    static_cast<size_t>(rng.Uniform(kJunkCategories)))));
          } else {
            if (rng.Bernoulli(0.5)) {
              page.facts.emplace_back(subject, vert.category_pred,
                                      vert.name_value);
            }
            page.facts.emplace_back(
                subject, vert.group_pred,
                vert.group_values[rng.Uniform(vert.group_values.size())]);
          }
          for (size_t a = 0; a < vert.attr_pred_names.size(); ++a) {
            if (!rng.Bernoulli(0.5)) continue;
            std::string pred_name = vert.attr_pred_names[a];
            if (open_ie && params.openie_paraphrases > 1) {
              pred_name += StringPrintf(
                  "_p%zu",
                  static_cast<size_t>(rng.Uniform(params.openie_paraphrases)));
            }
            // Forum chatter mostly mentions one-off values; only half the
            // time does it hit the vertical's shared vocabulary, so no
            // (attribute, value) pair accumulates a profitable group.
            rdf::TermId value =
                rng.Bernoulli(0.5)
                    ? vert.attr_values[a][rng.Uniform(vert.attr_values[a].size())]
                    : dict.Intern(StringPrintf(
                          "mention_%llu",
                          static_cast<unsigned long long>(rng.Next() % 100000)));
            page.facts.emplace_back(subject, dict.Intern(pred_name), value);
          }
        }
        page.salience.assign(page.facts.size(), 1.0);
        // Noisy content is partially known to the KB.
        for (const rdf::Triple& t : page.facts) {
          if (rng.Bernoulli(params.noisy_kb_fraction)) out.kb->Add(t);
        }
        out.num_true_facts += page.facts.size();
        pages.push_back(std::move(page));
      }
      continue;
    }

    // Coherent domain: sections devoted to one vertical + fixed group.
    size_t num_sections =
        UniformIn(&rng, 1, 2 * params.sections_per_domain) * size_multiplier;
    for (size_t s = 0; s < num_sections; ++s) {
      SectionInfo section;
      section.url = host + StringPrintf("/cat%zu", s);
      // Round-robin vertical assignment so a domain's sections cover
      // distinct verticals (a shared vertical would merge two sections
      // under one category slice).
      size_t vertical_index = vertical_rr++ % verticals.size();
      const Vertical& vert = verticals[vertical_index];
      rdf::TermId group_value =
          vert.group_values[rng.Uniform(vert.group_values.size())];
      section.rule = {{vert.category_pred, vert.name_value},
                      {vert.group_pred, group_value}};
      section.is_gap = rng.Bernoulli(params.gap_section_fraction);
      section.description =
          StringPrintf("%s / %s", dict.Term(vert.name_value).c_str(),
                       dict.Term(group_value).c_str());
      // Homogeneity (R_anno) is a property of the entity *type*: two
      // same-vertical sections merged into one slice still present
      // uniformly structured pages, so a human would label them easy to
      // annotate. The ground-truth group is therefore the vertical.
      uint32_t group_id = static_cast<uint32_t>(vertical_index);

      // OpenIE paraphrase variant is chosen per page.
      size_t num_pages = UniformIn(&rng, std::max<size_t>(2, params.pages_per_section / 2),
                                   params.pages_per_section * 3 / 2 + 1);
      for (size_t j = 0; j < num_pages; ++j) {
        PageContent page;
        page.url = section.url + StringPrintf("/item%zu.htm", j);
        size_t variant =
            open_ie ? rng.Uniform(std::max<size_t>(1, params.openie_paraphrases))
                    : 0;
        size_t num_entities = UniformIn(
            &rng, std::max<size_t>(1, params.entities_per_page / 2),
            params.entities_per_page * 3 / 2 + 1);
        for (size_t k = 0; k < num_entities; ++k) {
          rdf::TermId subject = dict.Intern(
              StringPrintf("ent_d%zu_s%zu_p%zu_e%zu", d, s, j, k));
          out.entity_group[subject] = group_id;
          section.entities.push_back(subject);
          page.facts.emplace_back(subject, vert.category_pred,
                                  vert.name_value);
          page.salience.push_back(kDefiningSalience);
          page.facts.emplace_back(subject, vert.group_pred, group_value);
          page.salience.push_back(kDefiningSalience);
          for (size_t a = 0; a < vert.attr_pred_names.size(); ++a) {
            if (!rng.Bernoulli(0.85)) continue;
            std::string pred_name = vert.attr_pred_names[a];
            if (open_ie && params.openie_paraphrases > 1) {
              pred_name += StringPrintf("_p%zu", variant);
            }
            page.facts.emplace_back(
                subject, dict.Intern(pred_name),
                vert.attr_values[a][rng.Uniform(vert.attr_values[a].size())]);
            page.salience.push_back(1.0);
          }
          if (rng.Bernoulli(0.5)) {
            page.facts.emplace_back(
                subject, vert.label_pred,
                dict.Intern(StringPrintf("label_d%zu_s%zu_p%zu_e%zu", d, s,
                                         j, k)));
            page.salience.push_back(1.0);
          }
        }
        // KB coverage: gap sections leak a little; known sections a lot.
        double kb_prob = section.is_gap ? params.gap_kb_fraction
                                        : params.kb_known_fraction;
        for (const rdf::Triple& t : page.facts) {
          if (rng.Bernoulli(kb_prob)) out.kb->Add(t);
        }
        out.num_true_facts += page.facts.size();
        pages.push_back(std::move(page));
      }
      sections.push_back(std::move(section));
    }
  }

  // --- Automated extraction -------------------------------------------
  extract::ExtractionSimulator simulator(params.extractor, out.dict.get());
  Rng extract_rng = rng.Fork();
  extract::ExtractionDump dump =
      simulator.ExtractAll(pages, out.dict, &extract_rng);
  out.num_extracted = dump.facts.size();

  out.corpus = std::make_unique<web::Corpus>(out.dict);
  for (const auto& f : dump.facts) {
    if (f.confidence > params.confidence_threshold) {
      out.corpus->AddFact(f.url, f.triple);
    }
  }
  out.num_filtered = out.corpus->NumFacts();

  // --- Silver standard --------------------------------------------------
  // A gap section is a silver slice iff enough of its facts survived
  // extraction and are new w.r.t. the KB.
  for (const SectionInfo& section : sections) {
    if (!section.is_gap) continue;
    std::unordered_set<rdf::TermId> members(section.entities.begin(),
                                            section.entities.end());
    GroundTruthSlice gt;
    gt.source_url = section.url;
    gt.rule = section.rule;
    gt.description = section.description;
    size_t new_facts = 0;
    std::unordered_set<rdf::TermId> present;
    for (const auto& source : out.corpus->sources()) {
      if (!StartsWith(source.url, section.url)) continue;
      for (const rdf::Triple& t : source.facts) {
        if (members.count(t.subject) == 0) continue;
        gt.facts.push_back(t);
        present.insert(t.subject);
        if (!out.kb->Contains(t)) ++new_facts;
      }
    }
    if (new_facts < params.min_silver_new_facts) continue;
    gt.entities.assign(present.begin(), present.end());
    std::sort(gt.entities.begin(), gt.entities.end());
    out.silver.slices.push_back(std::move(gt));
  }

  return out;
}

Status StreamCorpusToColumnar(const CorpusGenParams& params,
                              uint64_t target_records,
                              const std::string& path,
                              StreamedCorpusStats* stats) {
  Rng rng(params.seed);
  auto dict = std::make_shared<rdf::Dictionary>();
  std::vector<Vertical> verticals = BuildOntology(params, &rng, dict.get());
  extract::ExtractionSimulator simulator(params.extractor, dict.get());
  // Unlike GenerateCorpus (which extracts after all content exists), the
  // extraction RNG here interleaves with content generation page by page;
  // forking keeps the two streams decorrelated.
  Rng extract_rng = rng.Fork();

  StreamedCorpusStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = StreamedCorpusStats();

  const bool open_ie = params.mode == CorpusMode::kOpenIe;
  store::ColumnarWriter writer(path);
  std::unordered_map<std::string, uint32_t> url_code;
  std::vector<const std::string*> urls;  // stable: points into url_code keys

  // Degrades one page through the extraction pipeline and writes the
  // surviving (post-threshold) records. The page is dropped right after —
  // memory stays O(dictionary + one page).
  std::vector<extract::ExtractedFact> extracted;
  const auto emit_page = [&](const PageContent& page) {
    extracted.clear();
    simulator.ExtractPage(page, &extract_rng, &extracted);
    for (const extract::ExtractedFact& f : extracted) {
      if (!(f.confidence > params.confidence_threshold)) continue;
      auto [it, inserted] =
          url_code.try_emplace(f.url, static_cast<uint32_t>(urls.size()));
      if (inserted) {
        urls.push_back(&it->first);
        stats->num_sources++;
      }
      writer.AddRecord(it->second, f.triple.subject, f.triple.predicate,
                       f.triple.object, f.confidence);
      stats->records_written++;
    }
  };

  size_t vertical_rr = 0;
  size_t noisy_quota = 0;
  for (size_t d = 0; stats->records_written < target_records; ++d) {
    std::string host = StringPrintf("http://www.domain%zu.example.com", d);
    size_t prev = noisy_quota;
    noisy_quota = static_cast<size_t>(
        std::floor(static_cast<double>(d + 1) * params.noisy_domain_fraction));
    bool noisy = noisy_quota > prev;

    size_t size_multiplier = 1;
    if (params.skewed_large_domain && d == 0) {
      size_multiplier = params.skew_factor;
      noisy = false;
    }

    if (noisy) {
      size_t num_pages = UniformIn(&rng, params.pages_per_section,
                                   3 * params.pages_per_section) *
                         std::max<size_t>(1, params.sections_per_domain);
      for (size_t j = 0; j < num_pages; ++j) {
        PageContent page;
        page.url = host + StringPrintf("/post%zu.htm", j);
        size_t num_entities =
            UniformIn(&rng, 1, 2 * params.entities_per_page);
        for (size_t k = 0; k < num_entities; ++k) {
          rdf::TermId subject = dict->Intern(
              StringPrintf("noise_d%zu_p%zu_e%zu", d, j, k));
          const Vertical& vert = verticals[rng.Uniform(verticals.size())];
          if (rng.Bernoulli(0.85)) {
            page.facts.emplace_back(
                subject, vert.category_pred,
                dict->Intern(StringPrintf(
                    "topic_%zu",
                    static_cast<size_t>(rng.Uniform(kJunkCategories)))));
          } else {
            if (rng.Bernoulli(0.5)) {
              page.facts.emplace_back(subject, vert.category_pred,
                                      vert.name_value);
            }
            page.facts.emplace_back(
                subject, vert.group_pred,
                vert.group_values[rng.Uniform(vert.group_values.size())]);
          }
          for (size_t a = 0; a < vert.attr_pred_names.size(); ++a) {
            if (!rng.Bernoulli(0.5)) continue;
            std::string pred_name = vert.attr_pred_names[a];
            if (open_ie && params.openie_paraphrases > 1) {
              pred_name += StringPrintf(
                  "_p%zu",
                  static_cast<size_t>(rng.Uniform(params.openie_paraphrases)));
            }
            rdf::TermId value =
                rng.Bernoulli(0.5)
                    ? vert.attr_values[a][rng.Uniform(vert.attr_values[a].size())]
                    : dict->Intern(StringPrintf(
                          "mention_%llu",
                          static_cast<unsigned long long>(rng.Next() %
                                                          100000)));
            page.facts.emplace_back(subject, dict->Intern(pred_name), value);
          }
        }
        page.salience.assign(page.facts.size(), 1.0);
        emit_page(page);
      }
      continue;
    }

    size_t num_sections =
        UniformIn(&rng, 1, 2 * params.sections_per_domain) * size_multiplier;
    for (size_t s = 0; s < num_sections; ++s) {
      size_t vertical_index = vertical_rr++ % verticals.size();
      const Vertical& vert = verticals[vertical_index];
      rdf::TermId group_value =
          vert.group_values[rng.Uniform(vert.group_values.size())];
      std::string section_url = host + StringPrintf("/cat%zu", s);
      size_t num_pages =
          UniformIn(&rng, std::max<size_t>(2, params.pages_per_section / 2),
                    params.pages_per_section * 3 / 2 + 1);
      for (size_t j = 0; j < num_pages; ++j) {
        PageContent page;
        page.url = section_url + StringPrintf("/item%zu.htm", j);
        size_t variant =
            open_ie
                ? rng.Uniform(std::max<size_t>(1, params.openie_paraphrases))
                : 0;
        size_t num_entities = UniformIn(
            &rng, std::max<size_t>(1, params.entities_per_page / 2),
            params.entities_per_page * 3 / 2 + 1);
        for (size_t k = 0; k < num_entities; ++k) {
          rdf::TermId subject = dict->Intern(
              StringPrintf("ent_d%zu_s%zu_p%zu_e%zu", d, s, j, k));
          page.facts.emplace_back(subject, vert.category_pred,
                                  vert.name_value);
          page.salience.push_back(kDefiningSalience);
          page.facts.emplace_back(subject, vert.group_pred, group_value);
          page.salience.push_back(kDefiningSalience);
          for (size_t a = 0; a < vert.attr_pred_names.size(); ++a) {
            if (!rng.Bernoulli(0.85)) continue;
            std::string pred_name = vert.attr_pred_names[a];
            if (open_ie && params.openie_paraphrases > 1) {
              pred_name += StringPrintf("_p%zu", variant);
            }
            page.facts.emplace_back(
                subject, dict->Intern(pred_name),
                vert.attr_values[a][rng.Uniform(vert.attr_values[a].size())]);
            page.salience.push_back(1.0);
          }
          if (rng.Bernoulli(0.5)) {
            page.facts.emplace_back(
                subject, vert.label_pred,
                dict->Intern(StringPrintf("label_d%zu_s%zu_p%zu_e%zu", d, s,
                                          j, k)));
            page.salience.push_back(1.0);
          }
        }
        emit_page(page);
      }
    }
  }
  return writer.Finish(
      dict->size(),
      [&dict](size_t i) {
        return std::string_view(dict->Term(static_cast<rdf::TermId>(i)));
      },
      urls.size(), [&urls](size_t i) { return std::string_view(*urls[i]); });
}

CorpusGenParams ReVerbLikeParams(double scale) {
  CorpusGenParams p;
  p.mode = CorpusMode::kOpenIe;
  p.num_domains = static_cast<size_t>(400 * scale);
  p.num_verticals = 25;
  p.sections_per_domain = 2;
  p.pages_per_section = 12;
  p.entities_per_page = 4;
  p.noisy_domain_fraction = 0.35;
  p.openie_paraphrases = 12;
  p.confidence_threshold = 0.75;
  p.gap_section_fraction = 0.5;
  p.seed = 101;
  return p;
}

CorpusGenParams NellLikeParams(double scale) {
  CorpusGenParams p;
  p.mode = CorpusMode::kClosedIe;
  p.num_domains = static_cast<size_t>(150 * scale);
  p.num_verticals = 40;
  p.sections_per_domain = 2;
  p.pages_per_section = 12;
  p.entities_per_page = 4;
  p.noisy_domain_fraction = 0.3;
  p.skewed_large_domain = true;
  p.skew_factor = 40;
  p.confidence_threshold = 0.75;
  p.gap_section_fraction = 0.5;
  p.seed = 102;
  return p;
}

CorpusGenParams KnowledgeVaultLikeParams(double scale) {
  CorpusGenParams p;
  p.mode = CorpusMode::kKnowledgeVault;
  p.num_domains = static_cast<size_t>(100 * scale);
  p.num_verticals = 20;
  // Broad domains in which a knowledge gap is the exception: most sections
  // are already well covered by the KB, so a domain's overall new-fact
  // ratio stays low while its gap slice is almost entirely new (the
  // contrast of paper Fig. 3).
  p.sections_per_domain = 4;
  p.pages_per_section = 10;
  p.entities_per_page = 3;
  p.noisy_domain_fraction = 0.25;
  p.noisy_kb_fraction = 0.6;
  p.gap_section_fraction = 0.2;
  p.confidence_threshold = 0.7;
  p.seed = 103;
  return p;
}

CorpusGenParams SlimParams(bool open_ie, size_t num_sources, uint64_t seed) {
  CorpusGenParams p;
  p.mode = open_ie ? CorpusMode::kOpenIe : CorpusMode::kClosedIe;
  p.num_domains = num_sources;
  p.num_verticals = open_ie ? 12 : 8;
  p.sections_per_domain = 2;
  p.pages_per_section = 6;
  p.entities_per_page = 3;
  p.noisy_domain_fraction = 0.5;  // exactly half the sources lack a slice
  // Labeled against an EMPTY knowledge base (paper §IV-B).
  p.gap_section_fraction = 1.0;
  p.gap_kb_fraction = 0.0;
  p.kb_known_fraction = 0.0;
  p.noisy_kb_fraction = 0.0;
  p.openie_paraphrases = open_ie ? 4 : 1;
  p.min_silver_new_facts = 10;
  p.extractor.recall = 0.6;
  p.confidence_threshold = 0.75;
  p.seed = seed;
  return p;
}

}  // namespace synth
}  // namespace midas
