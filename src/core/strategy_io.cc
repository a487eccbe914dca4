#include "core/strategy_io.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"

namespace hdmm {
namespace {

constexpr char kHeader[] = "hdmm-strategy v1";

void AppendDouble(std::ostringstream* out, double v) {
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    *out << static_cast<int64_t>(v);
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out << buf;
  }
}

void AppendMatrixLine(std::ostringstream* out, const char* tag,
                      const Matrix& m) {
  *out << tag << " " << m.rows() << "x" << m.cols() << " ";
  for (int64_t i = 0; i < m.size(); ++i) {
    if (i > 0) *out << ",";
    AppendDouble(out, m.data()[i]);
  }
  *out << "\n";
}

// --- Parsing helpers ---------------------------------------------------------

struct LineReader {
  std::istringstream in;
  std::string line;
  int line_no = 0;

  explicit LineReader(const std::string& text) : in(text) {}

  // Advances to the next non-empty line; returns false at end of input.
  bool Next() {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.find_first_not_of(" \t\r") != std::string::npos)
        return true;
    }
    return false;
  }

  // A corruption status anchored at the current line.
  Status Error(const std::string& message) const {
    return Status::Corruption("line " + std::to_string(line_no) + ": " +
                              message);
  }
};

// Parses the reader's current line as "<tag> RxC v,v,...".
Status ParseMatrixLine(const LineReader& reader, const std::string& tag,
                       Matrix* out) {
  std::istringstream in(reader.line);
  std::string word, shape, payload, extra;
  in >> word >> shape >> payload;
  if (word != tag) return reader.Error("expected '" + tag + "' line");
  if (in >> extra) {
    return reader.Error("trailing garbage '" + extra +
                        "' after matrix payload");
  }
  const Status bad_shape = reader.Error("bad shape '" + shape + "'");
  const size_t x = shape.find('x');
  if (x == std::string::npos) return bad_shape;
  // Strict shape parse: both numbers fully consumed, positive, and small
  // enough that rows * cols cannot overflow — a corrupt shape must become a
  // parse error here, never a giant allocation or UB downstream.
  char* end = nullptr;
  const int64_t rows = std::strtoll(shape.c_str(), &end, 10);
  if (end != shape.c_str() + x) return bad_shape;
  const int64_t cols = std::strtoll(shape.c_str() + x + 1, &end, 10);
  if (end != shape.c_str() + shape.size()) return bad_shape;
  constexpr int64_t kMaxDim = int64_t{1} << 31;
  if (rows <= 0 || cols <= 0 || rows > kMaxDim || cols > kMaxDim) {
    return bad_shape;
  }
  std::vector<double> data;
  // Reserve from the payload's actual size, not the claimed shape: memory
  // stays bounded by the bytes we were actually handed.
  data.reserve(payload.size() / 2 + 1);
  std::string token;
  std::istringstream values(payload);
  while (std::getline(values, token, ',')) {
    const double v = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) {
      return reader.Error("bad entry '" + token + "'");
    }
    data.push_back(v);
  }
  if (rows > static_cast<int64_t>(data.size()) ||
      static_cast<int64_t>(data.size()) != rows * cols) {
    return reader.Error("entry count does not match shape");
  }
  *out = Matrix(rows, cols, std::move(data));
  return Status::Ok();
}

// Reads the reader's current line as "<tag> value value ..." integers.
Status ParseIntList(const LineReader& reader, const std::string& tag,
                    std::vector<int64_t>* out) {
  std::istringstream in(reader.line);
  std::string word;
  in >> word;
  if (word != tag) return reader.Error("expected '" + tag + "' line");
  int64_t v;
  while (in >> v) out->push_back(v);
  if (in.fail() && !in.eof()) {
    return reader.Error("bad integer in '" + tag + "' line");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Strategy>> ParseExplicit(LineReader* reader,
                                                  const std::string& name) {
  if (!reader->Next()) return reader->Error("missing 'matrix' line");
  Matrix m;
  HDMM_RETURN_IF_ERROR(ParseMatrixLine(*reader, "matrix", &m));
  if (reader->Next()) {
    return reader->Error("trailing garbage after 'matrix' line");
  }
  return std::unique_ptr<Strategy>(
      std::make_unique<ExplicitStrategy>(std::move(m), name));
}

StatusOr<std::unique_ptr<Strategy>> ParseKron(LineReader* reader,
                                              const std::string& name) {
  std::vector<Matrix> factors;
  while (reader->Next()) {
    Matrix m;
    HDMM_RETURN_IF_ERROR(ParseMatrixLine(*reader, "factor", &m));
    factors.push_back(std::move(m));
  }
  if (factors.empty()) {
    return Status::Corruption("kron strategy has no factors");
  }
  return std::unique_ptr<Strategy>(
      std::make_unique<KronStrategy>(std::move(factors), name));
}

StatusOr<std::unique_ptr<Strategy>> ParseUnionKron(LineReader* reader,
                                                   const std::string& name) {
  std::vector<std::vector<Matrix>> parts;
  std::vector<std::vector<int>> covers;
  while (reader->Next()) {
    if (reader->line.rfind("part", 0) == 0) {
      parts.emplace_back();
      covers.emplace_back();
      continue;
    }
    if (parts.empty()) return reader->Error("expected 'part' before factors");
    if (reader->line.rfind("covers", 0) == 0) {
      std::vector<int64_t> ids;
      HDMM_RETURN_IF_ERROR(ParseIntList(*reader, "covers", &ids));
      for (int64_t id : ids) {
        // Product ids index into the serving workload: a negative or absurd
        // id is corruption, and letting it through would trip a contract
        // check (abort) at first expected-error evaluation.
        if (id < 0 || id > (int64_t{1} << 31)) {
          return reader->Error("bad product id in 'covers' line");
        }
        covers.back().push_back(static_cast<int>(id));
      }
      continue;
    }
    Matrix m;
    HDMM_RETURN_IF_ERROR(ParseMatrixLine(*reader, "factor", &m));
    parts.back().push_back(std::move(m));
  }
  if (parts.empty()) {
    return Status::Corruption("union-kron strategy has no parts");
  }
  for (const auto& p : parts) {
    if (p.empty()) return Status::Corruption("union-kron part has no factors");
  }
  // Every part must cover the same domain, factor by factor. Truncated or
  // spliced input that drops a factor from a later part would otherwise
  // construct a strategy whose parts disagree on the domain size and trip a
  // contract check (abort) inside the stacked measurement operator.
  for (size_t p = 1; p < parts.size(); ++p) {
    if (parts[p].size() != parts[0].size()) {
      return Status::Corruption("union-kron parts disagree on factor count");
    }
    for (size_t i = 0; i < parts[p].size(); ++i) {
      if (parts[p][i].cols() != parts[0][i].cols()) {
        return Status::Corruption("union-kron parts disagree on domain sizes");
      }
    }
  }
  return std::unique_ptr<Strategy>(std::make_unique<UnionKronStrategy>(
      std::move(parts), std::move(covers), name));
}

StatusOr<std::unique_ptr<Strategy>> ParseMarginals(LineReader* reader,
                                                   const std::string& name) {
  if (!reader->Next()) return reader->Error("missing 'domain' line");
  std::vector<int64_t> sizes;
  HDMM_RETURN_IF_ERROR(ParseIntList(*reader, "domain", &sizes));
  if (sizes.empty()) return reader->Error("empty domain");
  // Corruption guards: the MarginalsStrategy constructor's contracts
  // (positive sizes, 2^d masks, a nonempty active set) must be established
  // here — a bad cache file has to surface as a parse error, not an abort.
  if (sizes.size() > 30) {
    return reader->Error("marginals domain has more than 30 attributes");
  }
  for (int64_t size : sizes) {
    if (size < 1) {
      return reader->Error("non-positive attribute size in 'domain' line");
    }
  }
  if (!reader->Next()) return reader->Error("missing 'theta' line");
  std::istringstream in(reader->line);
  std::string word;
  in >> word;
  if (word != "theta") return reader->Error("expected 'theta' line");
  Vector theta;
  double v;
  while (in >> v) theta.push_back(v);
  if (in.fail() && !in.eof()) {
    return reader->Error("bad weight in 'theta' line");
  }
  const size_t expected = size_t{1} << sizes.size();
  if (theta.size() != expected) {
    return reader->Error("theta needs exactly 2^d = " +
                         std::to_string(expected) + " weights");
  }
  bool any_active = false;
  for (double w : theta) {
    if (!std::isfinite(w) || w < 0.0) {
      return reader->Error("theta weights must be finite and non-negative");
    }
    if (w > 1e-12) any_active = true;
  }
  if (!any_active) {
    return reader->Error("marginals strategy with all-zero weights");
  }
  if (reader->Next()) {
    return reader->Error("trailing garbage after 'theta' line");
  }
  return std::unique_ptr<Strategy>(std::make_unique<MarginalsStrategy>(
      Domain(std::move(sizes)), std::move(theta), name));
}

}  // namespace

std::string SerializeStrategy(const Strategy& strategy) {
  std::ostringstream out;
  out << kHeader << "\n";
  if (const auto* e = dynamic_cast<const ExplicitStrategy*>(&strategy)) {
    out << "kind explicit\nname " << e->Name() << "\n";
    AppendMatrixLine(&out, "matrix", e->matrix());
    return out.str();
  }
  if (const auto* k = dynamic_cast<const KronStrategy*>(&strategy)) {
    out << "kind kron\nname " << k->Name() << "\n";
    for (const Matrix& f : k->factors()) AppendMatrixLine(&out, "factor", f);
    return out.str();
  }
  if (const auto* u = dynamic_cast<const UnionKronStrategy*>(&strategy)) {
    out << "kind union-kron\nname " << u->Name() << "\n";
    for (int p = 0; p < u->NumParts(); ++p) {
      out << "part\n";
      out << "covers";
      for (int id : u->group_products()[static_cast<size_t>(p)]) {
        out << " " << id;
      }
      out << "\n";
      for (const Matrix& f : u->parts()[static_cast<size_t>(p)]) {
        AppendMatrixLine(&out, "factor", f);
      }
    }
    return out.str();
  }
  if (const auto* m = dynamic_cast<const MarginalsStrategy*>(&strategy)) {
    out << "kind marginals\nname " << m->Name() << "\n";
    out << "domain";
    for (int i = 0; i < m->domain().NumAttributes(); ++i) {
      out << " " << m->domain().AttributeSize(i);
    }
    out << "\ntheta";
    for (double v : m->theta()) {
      out << " ";
      AppendDouble(&out, v);
    }
    out << "\n";
    return out.str();
  }
  HDMM_CHECK_MSG(false, "unknown strategy type for serialization");
  return "";
}

StatusOr<std::unique_ptr<Strategy>> ParseStrategy(const std::string& text) {
  LineReader reader(text);
  if (!reader.Next() || reader.line != kHeader) {
    return Status::Corruption("missing 'hdmm-strategy v1' header");
  }
  if (!reader.Next() || reader.line.rfind("kind ", 0) != 0) {
    return reader.Error("missing 'kind' line");
  }
  const std::string kind = reader.line.substr(5);
  if (!reader.Next() || reader.line.rfind("name ", 0) != 0) {
    return reader.Error("missing 'name' line");
  }
  const std::string name = reader.line.substr(5);

  if (kind == "explicit") return ParseExplicit(&reader, name);
  if (kind == "kron") return ParseKron(&reader, name);
  if (kind == "union-kron") return ParseUnionKron(&reader, name);
  if (kind == "marginals") return ParseMarginals(&reader, name);
  return reader.Error("unknown strategy kind '" + kind + "'");
}

Status SaveStrategyFile(const std::string& path, const Strategy& strategy) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  const std::string text = SerializeStrategy(strategy);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  // Durable before returning: callers rename this file into place.
  const bool synced = written &&
                      !HDMM_FAILPOINT("strategy_io.save.fsync_error") &&
                      ::fsync(fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    return Status::IoError("write to '" + path + "' failed");
  }
  if (!synced) return Status::IoError("fsync of '" + path + "' failed");
  return Status::Ok();
}

StatusOr<std::unique_ptr<Strategy>> LoadStrategyFile(const std::string& path) {
  if (HDMM_FAILPOINT("strategy_io.load.io_error")) {
    return Status::IoError("injected: strategy_io.load.io_error at '" + path +
                           "'");
  }
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("cannot open '" + path + "': no such file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read from '" + path + "' failed");
  }
  StatusOr<std::unique_ptr<Strategy>> parsed = ParseStrategy(buffer.str());
  if (!parsed.ok()) return parsed.status().Annotated("'" + path + "'");
  return parsed;
}

}  // namespace hdmm
