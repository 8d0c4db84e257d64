#ifndef MIDAS_WEB_URL_H_
#define MIDAS_WEB_URL_H_

#include <string>
#include <string_view>
#include <vector>

#include "midas/util/status.h"

namespace midas {
namespace web {

/// A parsed, normalized URL. MIDAS treats URL hierarchies as the access
/// structure of web sources (paper §II-A): a web domain
/// (https://www.cdc.gov), a sub-domain path (https://www.cdc.gov/niosh), or
/// a page (https://www.cdc.gov/niosh/ipcsneng/neng0363.html) are all valid
/// web sources, and the path prefixes of a page define its ancestors.
class Url {
 public:
  Url() = default;

  /// Parses and normalizes. Normalization: scheme and host lower-cased,
  /// default ports stripped, query/fragment dropped, duplicate and trailing
  /// slashes collapsed. Returns InvalidArgument if there is no host or the
  /// scheme is missing.
  static StatusOr<Url> Parse(std::string_view raw);

  /// Scheme, e.g. "https".
  const std::string& scheme() const { return scheme_; }

  /// Host, e.g. "space.skyrocket.de".
  const std::string& host() const { return host_; }

  /// Path segments, e.g. {"doc_lau_fam", "atlas.htm"}.
  const std::vector<std::string>& path_segments() const { return segments_; }

  /// Number of path segments; 0 for a bare domain.
  size_t depth() const { return segments_.size(); }

  /// Canonical string form: scheme://host[/seg]*.
  std::string ToString() const;

  /// Bare domain URL (no path).
  Url Domain() const;

  bool operator==(const Url& other) const {
    return scheme_ == other.scheme_ && host_ == other.host_ &&
           segments_ == other.segments_;
  }

 private:
  std::string scheme_;
  std::string host_;
  std::vector<std::string> segments_;
};

/// Convenience: normalizes a raw URL string; returns the input unchanged
/// (trimmed) if it cannot be parsed.
std::string NormalizeUrl(std::string_view raw);

/// Returns the parent-prefix string of a normalized URL string (one path
/// segment dropped), or the URL itself if it is a bare domain. String-level
/// fast path used by the sharding loop.
std::string ParentUrlString(std::string_view normalized);

/// Number of path segments in a normalized URL string.
size_t UrlDepth(std::string_view normalized);

/// The URLs of the shards the framework's hierarchy rounds carry a source's
/// facts through: `normalized` itself, then ParentUrlString applied once
/// per round down to depth 0 — UrlDepth(normalized) + 1 entries, the last
/// one the source's root domain (unparsable strings included).
std::vector<std::string> UrlAncestry(std::string_view normalized);

}  // namespace web
}  // namespace midas

#endif  // MIDAS_WEB_URL_H_
