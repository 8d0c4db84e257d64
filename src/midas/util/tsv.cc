#include "midas/util/tsv.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "midas/store/atomic_file.h"

namespace midas {

namespace {

// Appends the escaped `field` to `out`.
void AppendEscaped(std::string_view field, std::string* out) {
  for (char c : field) {
    switch (c) {
      case '\t':
        *out += "\\t";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        out->push_back(c);
    }
  }
}

// Appends the unescaped `field` to `out`.
void AppendUnescaped(std::string_view field, std::string* out) {
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '\\' && i + 1 < field.size()) {
      switch (field[i + 1]) {
        case 't':
          out->push_back('\t');
          ++i;
          continue;
        case 'n':
          out->push_back('\n');
          ++i;
          continue;
        case 'r':
          out->push_back('\r');
          ++i;
          continue;
        case '\\':
          out->push_back('\\');
          ++i;
          continue;
        default:
          break;
      }
    }
    out->push_back(field[i]);
  }
}

// Splits `line` on tabs into `fields`, unescaping in place. The strings of
// `fields` are reused, so a row whose fields fit the capacity a previous
// row left behind allocates nothing; only fields holding a '\\' take the
// unescaping pass.
void ParseRowInto(std::string_view line, std::vector<std::string>* fields) {
  size_t n = 0;
  for (size_t start = 0;; ++n) {
    const size_t tab = line.find('\t', start);
    const std::string_view raw = line.substr(
        start, tab == std::string_view::npos ? std::string_view::npos
                                             : tab - start);
    if (n == fields->size()) fields->emplace_back();
    std::string& field = (*fields)[n];
    if (raw.find('\\') == std::string_view::npos) {
      field.assign(raw);
    } else {
      field.clear();
      AppendUnescaped(raw, &field);
    }
    if (tab == std::string_view::npos) break;
    start = tab + 1;
  }
  fields->resize(n + 1);
}

// Initial read buffer; only a line longer than it grows the buffer.
constexpr size_t kReadBufferBytes = 64 * 1024;

}  // namespace

void TsvAppendRow(std::initializer_list<std::string_view> fields,
                  std::string* out) {
  bool first = true;
  for (std::string_view field : fields) {
    if (!first) out->push_back('\t');
    first = false;
    AppendEscaped(field, out);
  }
  out->push_back('\n');
}

Status TsvReadFile(
    const std::string& path,
    const std::function<Status(size_t, const std::vector<std::string>&)>&
        callback) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};

  // Lines are scanned in place in `buf`: [begin, end) holds the bytes read
  // but not yet consumed. A partial last line moves to the front before the
  // next read, so the buffer keeps its size unless one line outgrows it.
  std::vector<char> buf(kReadBufferBytes);
  size_t begin = 0, end = 0;
  bool eof = false;
  std::vector<std::string> fields;
  size_t row = 0;
  while (true) {
    const char* data = buf.data();
    const void* newline = std::memchr(data + begin, '\n', end - begin);
    std::string_view line;
    if (newline != nullptr) {
      const auto stop =
          static_cast<size_t>(static_cast<const char*>(newline) - data);
      line = std::string_view(data + begin, stop - begin);
      begin = stop + 1;
    } else if (eof) {
      if (begin == end) break;
      line = std::string_view(data + begin, end - begin);  // no final '\n'
      begin = end;
    } else {
      std::memmove(buf.data(), data + begin, end - begin);
      end -= begin;
      begin = 0;
      if (end == buf.size()) buf.resize(2 * buf.size());  // one long line
      const ssize_t n = ::read(fd, buf.data() + end, buf.size() - end);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("read error on " + path);
      }
      eof = n == 0;
      end += static_cast<size_t>(n);
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;
    ParseRowInto(line, &fields);
    MIDAS_RETURN_IF_ERROR(callback(row, fields));
    ++row;
  }
  return Status::OK();
}

Status TsvWriteFile(const std::string& path, std::string_view contents) {
  return store::AtomicWriteFile(path, contents);
}

}  // namespace midas
