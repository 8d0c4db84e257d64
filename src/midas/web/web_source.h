#ifndef MIDAS_WEB_WEB_SOURCE_H_
#define MIDAS_WEB_WEB_SOURCE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"

namespace midas {
namespace web {

/// A web source W with its extracted fact set T_W (paper Def. 3 input). The
/// URL may be a page, a path prefix, or a bare domain; facts are
/// dictionary-encoded against the corpus dictionary.
struct WebSource {
  /// Normalized URL string.
  std::string url;
  /// Extracted facts T_W (high-confidence only; duplicates removed by
  /// Corpus::AddFact).
  std::vector<rdf::Triple> facts;
};

/// A collection of web sources sharing one term dictionary — the input
/// corpus of the slice discovery problem (paper Def. 8's W).
class Corpus {
 public:
  /// Creates a corpus over an existing dictionary (shared with the KB), or
  /// a fresh one if none is given.
  explicit Corpus(std::shared_ptr<rdf::Dictionary> dict = nullptr);

  /// Adds a fact extracted from `url` (already normalized). Duplicate
  /// (url, triple) pairs are dropped. Returns the source index.
  size_t AddFact(const std::string& url, const rdf::Triple& triple);

  /// Registers (or finds) the source for a normalized URL without adding a
  /// fact; returns its index. The bulk corpus build resolves each distinct
  /// URL code once through this, then appends facts by index.
  size_t AddSource(const std::string& url);

  /// Adds `triple` to the source at `index` (from AddSource/AddFact), with
  /// the same (url, triple) dedup as AddFact. Returns true if inserted.
  bool AddFactToSource(size_t index, const rdf::Triple& triple);

  /// Bulk adoption: appends `triple` to source `index` WITHOUT recording it
  /// in the dedup set — the caller guarantees the (source, triple) pair is
  /// new (extract::BuildCorpusFromColumns, the one bulk build, dedups each
  /// source's records before appending them). Later AddFact calls on the
  /// same source may therefore re-insert triples appended this way until
  /// RebuildDedupIndex runs.
  void AppendFactToSourceUnchecked(size_t index, const rdf::Triple& triple);

  /// Convenience: interns terms and normalizes the URL.
  size_t AddFactRaw(std::string_view url, std::string_view subject,
                    std::string_view predicate, std::string_view object);

  /// Rebuilds the per-source dedup sets from the stored facts. Required
  /// once after a bulk load (AppendFactToSourceUnchecked bypasses the
  /// sets) before the corpus can accept further AddFact* calls with
  /// correct duplicate detection — the serve daemon's ingest path depends
  /// on this.
  void RebuildDedupIndex();

  /// All sources, insertion order of first fact.
  const std::vector<WebSource>& sources() const { return sources_; }
  std::vector<WebSource>& mutable_sources() { return sources_; }

  /// Finds a source by normalized URL; nullptr if absent.
  const WebSource* FindSource(std::string_view url) const;

  /// Totals across sources.
  size_t NumSources() const { return sources_.size(); }
  size_t NumFacts() const;
  size_t NumDistinctPredicates() const;
  size_t NumDistinctSubjects() const;

  const rdf::Dictionary& dict() const { return *dict_; }
  rdf::Dictionary* mutable_dict() { return dict_.get(); }
  const std::shared_ptr<rdf::Dictionary>& shared_dict() const {
    return dict_;
  }

 private:
  std::shared_ptr<rdf::Dictionary> dict_;
  std::vector<WebSource> sources_;
  // Per-source triple sets for (url, triple) dedup, parallel to sources_.
  std::vector<std::unordered_set<rdf::Triple, rdf::TripleHash>> dedup_;
  std::unordered_map<std::string, size_t> url_index_;
};

}  // namespace web
}  // namespace midas

#endif  // MIDAS_WEB_WEB_SOURCE_H_
