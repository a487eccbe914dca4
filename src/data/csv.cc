#include "data/csv.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace hdmm {
namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(Trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(Trim(current));
  return fields;
}

// A kInvalidArgument status anchored at a CSV line.
Status LineError(int line_no, const std::string& message) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "line %d: %s", line_no, message.c_str());
  return Status::InvalidArgument(buf);
}

}  // namespace

Status ParseCsvDataset(const std::string& text, const Domain& domain,
                       Dataset* out) {
  HDMM_CHECK(out != nullptr);
  std::istringstream in(text);
  std::string line;
  int line_no = 0;

  // Header: map CSV column -> domain attribute.
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty input (missing header)");
  }
  ++line_no;
  const std::vector<std::string> header = SplitCsvLine(line);
  const int d = domain.NumAttributes();
  std::vector<int> column_attr(header.size(), -1);
  std::vector<bool> attr_seen(static_cast<size_t>(d), false);
  for (size_t c = 0; c < header.size(); ++c) {
    int attr = -1;
    for (int a = 0; a < d; ++a) {
      if (domain.AttributeName(a) == header[c]) attr = a;
    }
    if (attr < 0) {
      return LineError(line_no, "header column '" + header[c] +
                                    "' is not a domain attribute");
    }
    if (attr_seen[static_cast<size_t>(attr)]) {
      return LineError(line_no,
                       "duplicate header column '" + header[c] + "'");
    }
    attr_seen[static_cast<size_t>(attr)] = true;
    column_attr[c] = attr;
  }
  for (int a = 0; a < d; ++a) {
    if (!attr_seen[static_cast<size_t>(a)]) {
      return LineError(line_no, "header is missing domain attribute '" +
                                    domain.AttributeName(a) + "'");
    }
  }

  Dataset dataset(domain);
  std::vector<int64_t> coords(static_cast<size_t>(d));
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      return LineError(
          line_no, "expected " + std::to_string(header.size()) +
                       " fields, got " + std::to_string(fields.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      const int attr = column_attr[c];
      char* end = nullptr;
      const long long v = std::strtoll(fields[c].c_str(), &end, 10);
      if (fields[c].empty() || end != fields[c].c_str() + fields[c].size()) {
        return LineError(line_no, "non-integer value '" + fields[c] +
                                      "' for attribute '" +
                                      domain.AttributeName(attr) + "'");
      }
      if (v < 0 || v >= domain.AttributeSize(attr)) {
        return LineError(
            line_no, "value " + std::to_string(v) + " outside dom(" +
                         domain.AttributeName(attr) + ") = [0, " +
                         std::to_string(domain.AttributeSize(attr)) + ")");
      }
      coords[static_cast<size_t>(attr)] = v;
    }
    dataset.AddRecord(coords);
  }
  *out = std::move(dataset);
  return Status::Ok();
}

Status LoadCsvDataset(const std::string& path, const Domain& domain,
                      Dataset* out) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsvDataset(buffer.str(), domain, out);
}

std::string WriteCsvDataset(const Dataset& dataset) {
  const Domain& domain = dataset.domain();
  std::ostringstream out;
  for (int a = 0; a < domain.NumAttributes(); ++a) {
    if (a > 0) out << ",";
    std::string name = domain.AttributeName(a);
    if (name.empty()) name = "a" + std::to_string(a + 1);
    out << name;
  }
  out << "\n";
  const Vector x = dataset.ToDataVector();
  for (int64_t cell = 0; cell < static_cast<int64_t>(x.size()); ++cell) {
    const int64_t count = static_cast<int64_t>(x[static_cast<size_t>(cell)]);
    if (count <= 0) continue;
    const std::vector<int64_t> coords = domain.Unflatten(cell);
    for (int64_t r = 0; r < count; ++r) {
      for (size_t a = 0; a < coords.size(); ++a) {
        if (a > 0) out << ",";
        out << coords[a];
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace hdmm
