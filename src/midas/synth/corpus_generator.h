#ifndef MIDAS_SYNTH_CORPUS_GENERATOR_H_
#define MIDAS_SYNTH_CORPUS_GENERATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "midas/extract/extractor_sim.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/synth/silver_standard.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace synth {

/// Flavor of the generated corpus (see DESIGN.md §1 for the substitution
/// rationale).
enum class CorpusMode {
  /// OpenIE (ReVerb-like): unlexicalized predicates with paraphrase
  /// variants — predicate vocabulary explodes, sources are numerous.
  kOpenIe,
  /// ClosedIE (NELL-like): small fixed ontology; optionally one
  /// disproportionally large domain (the trait dominating AggCluster's
  /// runtime in the paper's Fig. 10d).
  kClosedIe,
  /// KnowledgeVault-like: ClosedIE at broader scale and vertical variety.
  kKnowledgeVault,
};

/// Parameters of the multi-domain corpus generator.
struct CorpusGenParams {
  CorpusMode mode = CorpusMode::kClosedIe;
  size_t num_domains = 50;
  /// Mean sections per coherent domain (uniform in [1, 2·mean]).
  size_t sections_per_domain = 2;
  /// Mean pages per section (uniform in [1, 2·mean]).
  size_t pages_per_section = 8;
  /// Mean entities per page (uniform in [1, 2·mean]).
  size_t entities_per_page = 3;
  /// Number of entity types (verticals) in the ontology.
  size_t num_verticals = 12;
  /// Fraction of domains that are "noisy" (forums/news): many loosely
  /// related new facts, no coherent slice — the Naive baseline's trap.
  double noisy_domain_fraction = 0.3;
  /// Fraction of coherent sections whose content is a knowledge *gap*
  /// (mostly absent from the KB) — these become silver-standard slices.
  double gap_section_fraction = 0.5;
  /// Fraction of non-gap section facts present in the KB.
  double kb_known_fraction = 0.95;
  /// Fraction of gap-section facts leaked into the KB anyway.
  double gap_kb_fraction = 0.05;
  /// Fraction of noisy-domain facts present in the KB.
  double noisy_kb_fraction = 0.3;
  /// OpenIE only: paraphrase variants per non-defining predicate.
  size_t openie_paraphrases = 6;
  /// ClosedIE only: make domain 0 `skew_factor`× larger than the others.
  bool skewed_large_domain = false;
  size_t skew_factor = 40;
  /// Minimum extracted *new* facts for a gap section to count as a
  /// silver-standard slice (smaller gaps cannot beat the training cost).
  size_t min_silver_new_facts = 15;
  /// Extraction pipeline noise profile.
  extract::ExtractorProfile extractor;
  /// Confidence threshold applied to the dump (paper: 0.7 / 0.75).
  double confidence_threshold = 0.7;
  uint64_t seed = 7;
};

/// A fully generated dataset: extraction corpus, knowledge base, silver
/// standard, and ground-truth entity grouping for labeling.
struct GeneratedCorpus {
  std::shared_ptr<rdf::Dictionary> dict;
  /// Filtered extraction corpus (slice-discovery input).
  std::unique_ptr<web::Corpus> corpus;
  /// The existing knowledge base E (true facts, per the coverage params).
  std::unique_ptr<rdf::KnowledgeBase> kb;
  /// Gap sections that made the cut — the desired output.
  SilverStandard silver;
  /// Ground-truth group of every generated subject: coherent sections get
  /// dense ids; noisy entities map to kNoiseGroup. Used by the labeler to
  /// score R_anno without humans.
  std::unordered_map<rdf::TermId, uint32_t> entity_group;
  static constexpr uint32_t kNoiseGroup = 0xFFFFFFFFu;

  /// Generation statistics.
  size_t num_true_facts = 0;
  size_t num_extracted = 0;
  size_t num_filtered = 0;
};

/// Runs the generator. Deterministic in params.seed.
GeneratedCorpus GenerateCorpus(const CorpusGenParams& params);

/// Statistics of a StreamCorpusToColumnar run.
struct StreamedCorpusStats {
  /// Post-threshold extraction records written.
  uint64_t records_written = 0;
  /// Distinct page URLs written (every page is one web source).
  uint64_t num_sources = 0;
};

/// Paper-scale generation: streams the synthetic corpus straight into a
/// MIDASCOL1 columnar file (store/columnar.h) without ever materializing
/// the fact set in memory — RAM stays O(dictionary + one page), so targets
/// of 10^7-10^8 records are routine. Domains are generated with the same
/// content model as GenerateCorpus until `target_records` post-threshold
/// records have been written (always finishing the current domain), but no
/// KB, silver standard, or entity grouping is produced, and the extraction
/// RNG interleaves with content generation — the stream is deterministic in
/// params.seed yet not byte-identical to GenerateCorpus's corpus.
/// `params.num_domains` is ignored (the record target drives termination).
/// Writes `path` and fills `stats` when non-null.
Status StreamCorpusToColumnar(const CorpusGenParams& params,
                              uint64_t target_records,
                              const std::string& path,
                              StreamedCorpusStats* stats = nullptr);

/// Presets approximating the paper's datasets at laptop scale. `scale`
/// multiplies domain counts (1.0 = the repository's default experiment
/// size, far below the paper's web-scale inputs; shapes, not magnitudes,
/// are the reproduction target).
CorpusGenParams ReVerbLikeParams(double scale = 1.0);
CorpusGenParams NellLikeParams(double scale = 1.0);
CorpusGenParams KnowledgeVaultLikeParams(double scale = 1.0);

/// The ReVerb-Slim / NELL-Slim protocol (§IV-B): exactly `num_sources`
/// domains, half of them containing at least one high-profit slice, labeled
/// against an empty KB. The silver standard is the set of planted slices.
CorpusGenParams SlimParams(bool open_ie, size_t num_sources = 100,
                           uint64_t seed = 11);

}  // namespace synth
}  // namespace midas

#endif  // MIDAS_SYNTH_CORPUS_GENERATOR_H_
