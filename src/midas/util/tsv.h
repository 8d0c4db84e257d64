#ifndef MIDAS_UTIL_TSV_H_
#define MIDAS_UTIL_TSV_H_

#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "midas/util/status.h"

namespace midas {

/// Minimal TSV reader/writer used for extraction dumps and experiment
/// artifacts. Fields may not contain tabs or newlines; we escape them with
/// backslash sequences (\t, \n, \r, \\) so round-trips are lossless.

/// Appends one row to `out`: the escaped fields joined by tabs, terminated
/// by '\n'. Writers build a whole file this way in the one string
/// TsvWriteFile stages.
void TsvAppendRow(std::initializer_list<std::string_view> fields,
                  std::string* out);

/// Streams a TSV file row by row. `callback` receives the 0-based row index
/// and the unescaped fields (unknown escape sequences are kept literally);
/// returning a non-OK status aborts the scan and is propagated. Blank lines
/// and lines starting with '#' are skipped, and a trailing '\r' is dropped.
/// The file is scanned through a fixed read buffer (grown only for a line
/// longer than it), never held whole, and one field vector is reused across
/// rows: `fields` is valid only during its callback, and a row of repeated
/// widths allocates nothing.
Status TsvReadFile(
    const std::string& path,
    const std::function<Status(size_t row, const std::vector<std::string>&)>&
        callback);

/// Writes `contents` (rows built with TsvAppendRow) to `path`, replacing
/// any existing file atomically: readers see the old file or the complete
/// new one, never a torn prefix.
Status TsvWriteFile(const std::string& path, std::string_view contents);

}  // namespace midas

#endif  // MIDAS_UTIL_TSV_H_
