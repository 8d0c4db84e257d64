#include "midas/web/url.h"

#include "midas/util/string_util.h"

namespace midas {
namespace web {

StatusOr<Url> Url::Parse(std::string_view raw) {
  std::string_view input = Trim(raw);
  size_t scheme_end = input.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) {
    return Status::InvalidArgument("missing scheme in URL: " +
                                   std::string(raw));
  }
  Url url;
  url.scheme_ = ToLower(input.substr(0, scheme_end));
  std::string_view rest = input.substr(scheme_end + 3);

  size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  std::string_view path = path_start == std::string_view::npos
                              ? std::string_view()
                              : rest.substr(path_start);

  // Drop userinfo, if any.
  size_t at = authority.rfind('@');
  if (at != std::string_view::npos) authority = authority.substr(at + 1);

  // Strip default ports.
  std::string host = ToLower(authority);
  size_t colon = host.rfind(':');
  if (colon != std::string::npos) {
    std::string_view port = std::string_view(host).substr(colon + 1);
    if ((url.scheme_ == "http" && port == "80") ||
        (url.scheme_ == "https" && port == "443")) {
      host = host.substr(0, colon);
    }
  }
  if (host.empty()) {
    return Status::InvalidArgument("missing host in URL: " + std::string(raw));
  }
  url.host_ = std::move(host);

  // Drop query/fragment, split path segments, collapse empty ones.
  size_t cut = path.find_first_of("?#");
  if (cut != std::string_view::npos) path = path.substr(0, cut);
  for (std::string_view seg : SplitSkipEmpty(path, '/')) {
    url.segments_.emplace_back(seg);
  }
  return url;
}

std::string Url::ToString() const {
  std::string out = scheme_ + "://" + host_;
  for (const auto& seg : segments_) {
    out.push_back('/');
    out += seg;
  }
  return out;
}

Url Url::Domain() const {
  Url out = *this;
  out.segments_.clear();
  return out;
}

std::string NormalizeUrl(std::string_view raw) {
  auto parsed = Url::Parse(raw);
  if (!parsed.ok()) return std::string(Trim(raw));
  return parsed->ToString();
}

std::string ParentUrlString(std::string_view normalized) {
  size_t scheme_end = normalized.find("://");
  size_t host_start = scheme_end == std::string_view::npos ? 0 : scheme_end + 3;
  size_t last_slash = normalized.rfind('/');
  if (last_slash == std::string_view::npos || last_slash < host_start) {
    return std::string(normalized);  // bare domain
  }
  return std::string(normalized.substr(0, last_slash));
}

size_t UrlDepth(std::string_view normalized) {
  size_t scheme_end = normalized.find("://");
  std::string_view rest = scheme_end == std::string_view::npos
                              ? normalized
                              : normalized.substr(scheme_end + 3);
  size_t depth = 0;
  for (std::string_view seg : SplitSkipEmpty(rest, '/')) {
    (void)seg;
    ++depth;
  }
  // First component is the host, not a path segment.
  return depth == 0 ? 0 : depth - 1;
}

std::vector<std::string> UrlAncestry(std::string_view normalized) {
  const size_t depth = UrlDepth(normalized);
  std::vector<std::string> chain;
  chain.reserve(depth + 1);
  chain.emplace_back(normalized);
  for (size_t level = 0; level < depth; ++level) {
    chain.push_back(ParentUrlString(chain.back()));
  }
  return chain;
}

}  // namespace web
}  // namespace midas
