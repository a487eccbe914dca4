#include "workload/parser.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

// --- Lexical helpers --------------------------------------------------------

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::vector<std::string> SplitWhitespace(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// Splits "key=value"; returns false if there is no '='.
bool SplitKeyValue(const std::string& tok, std::string* key,
                   std::string* value) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = tok.substr(0, eq);
  *value = tok.substr(eq + 1);
  return true;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// A kInvalidArgument status anchored at a spec line.
Status LineError(int line_no, const std::string& message) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "line %d: %s", line_no, message.c_str());
  return Status::InvalidArgument(buf);
}

// --- Block parsing ----------------------------------------------------------

// Parses "name" or "name(arg1,arg2,...)" into name + integer args.
bool ParseBlockCall(const std::string& value, std::string* name,
                    std::vector<std::string>* args) {
  const size_t open = value.find('(');
  if (open == std::string::npos) {
    *name = Lower(value);
    return true;
  }
  if (value.back() != ')') return false;
  *name = Lower(value.substr(0, open));
  const std::string inner = value.substr(open + 1, value.size() - open - 2);
  std::string current;
  for (char c : inner) {
    if (c == ',') {
      args->push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty() || !args->empty() || !inner.empty())
    args->push_back(current);
  return true;
}

// Parses "matrix(RxC:v,v,...)" bodies. The full value includes the prefix.
bool ParseMatrixLiteral(const std::string& value, Matrix* out,
                        std::string* why) {
  // Strip "matrix(" and ")".
  if (value.size() < 9 || Lower(value.substr(0, 7)) != "matrix(" ||
      value.back() != ')') {
    *why = "malformed matrix literal";
    return false;
  }
  const std::string inner = value.substr(7, value.size() - 8);
  const size_t colon = inner.find(':');
  const size_t x = inner.find('x');
  if (colon == std::string::npos || x == std::string::npos || x > colon) {
    *why = "matrix literal must look like matrix(RxC:v,v,...)";
    return false;
  }
  int64_t rows = 0, cols = 0;
  if (!ParseInt(inner.substr(0, x), &rows) ||
      !ParseInt(inner.substr(x + 1, colon - x - 1), &cols) || rows <= 0 ||
      cols <= 0) {
    *why = "bad matrix dimensions";
    return false;
  }
  std::vector<double> data;
  std::string current;
  auto flush = [&]() {
    if (current.empty()) return true;
    double v;
    if (!ParseDouble(current, &v)) return false;
    data.push_back(v);
    current.clear();
    return true;
  };
  for (size_t i = colon + 1; i < inner.size(); ++i) {
    if (inner[i] == ',') {
      if (!flush()) {
        *why = "bad matrix entry";
        return false;
      }
    } else {
      current.push_back(inner[i]);
    }
  }
  if (!flush()) {
    *why = "bad matrix entry";
    return false;
  }
  if (static_cast<int64_t>(data.size()) != rows * cols) {
    *why = "matrix literal entry count does not match dimensions";
    return false;
  }
  *out = Matrix(rows, cols, std::move(data));
  return true;
}

// Builds the named block for an attribute of size n. Returns false with a
// reason on unknown names or invalid arguments.
bool BuildBlock(const std::string& value, int64_t n, Matrix* out,
                std::string* why) {
  if (Lower(value).rfind("matrix(", 0) == 0) {
    Matrix m;
    if (!ParseMatrixLiteral(value, &m, why)) return false;
    if (m.cols() != n) {
      *why = "matrix literal column count does not match attribute size";
      return false;
    }
    *out = std::move(m);
    return true;
  }

  std::string name;
  std::vector<std::string> args;
  if (!ParseBlockCall(value, &name, &args)) {
    *why = "malformed block '" + value + "'";
    return false;
  }
  auto want_args = [&](size_t count) {
    if (args.size() == count) return true;
    *why = "block '" + name + "' expects " + std::to_string(count) +
           " argument(s)";
    return false;
  };

  if (name == "identity") {
    if (!want_args(0)) return false;
    *out = IdentityBlock(n);
    return true;
  }
  if (name == "total") {
    if (!want_args(0)) return false;
    *out = TotalBlock(n);
    return true;
  }
  if (name == "identitytotal") {
    if (!want_args(0)) return false;
    *out = VStack({IdentityBlock(n), TotalBlock(n)});
    return true;
  }
  if (name == "prefix") {
    if (!want_args(0)) return false;
    *out = PrefixBlock(n);
    return true;
  }
  if (name == "allrange") {
    if (!want_args(0)) return false;
    *out = AllRangeBlock(n);
    return true;
  }
  if (name == "width") {
    int64_t w;
    if (!want_args(1)) return false;
    if (!ParseInt(args[0], &w) || w < 1 || w > n) {
      *why = "width(w) needs 1 <= w <= attribute size";
      return false;
    }
    *out = WidthRangeBlock(n, w);
    return true;
  }
  if (name == "point") {
    int64_t v;
    if (!want_args(1)) return false;
    if (!ParseInt(args[0], &v) || v < 0 || v >= n) {
      *why = "point(v) needs 0 <= v < attribute size";
      return false;
    }
    Matrix m(1, n);
    m(0, v) = 1.0;
    *out = std::move(m);
    return true;
  }
  if (name == "range") {
    int64_t lo, hi;
    if (!want_args(2)) return false;
    if (!ParseInt(args[0], &lo) || !ParseInt(args[1], &hi) || lo < 0 ||
        hi < lo || hi >= n) {
      *why = "range(lo,hi) needs 0 <= lo <= hi < attribute size";
      return false;
    }
    Matrix m(1, n);
    for (int64_t j = lo; j <= hi; ++j) m(0, j) = 1.0;
    *out = std::move(m);
    return true;
  }
  *why = "unknown block '" + name + "'";
  return false;
}

// --- Serializer block recognition -------------------------------------------

bool IsIdentityBlock(const Matrix& m) {
  if (m.rows() != m.cols()) return false;
  return m.MaxAbsDiff(IdentityBlock(m.cols())) == 0.0;
}

bool IsTotalBlock(const Matrix& m) {
  if (m.rows() != 1) return false;
  return m.MaxAbsDiff(TotalBlock(m.cols())) == 0.0;
}

bool IsIdentityTotalBlock(const Matrix& m) {
  if (m.rows() != m.cols() + 1) return false;
  return m.MaxAbsDiff(VStack({IdentityBlock(m.cols()), TotalBlock(m.cols())})) ==
         0.0;
}

bool IsPrefixBlock(const Matrix& m) {
  if (m.rows() != m.cols()) return false;
  return m.MaxAbsDiff(PrefixBlock(m.cols())) == 0.0;
}

bool IsAllRangeBlock(const Matrix& m) {
  const int64_t n = m.cols();
  if (m.rows() != n * (n + 1) / 2) return false;
  return m.MaxAbsDiff(AllRangeBlock(n)) == 0.0;
}

// Single contiguous 0/1 row: point or range.
bool SingleRangeRow(const Matrix& m, int64_t* lo, int64_t* hi) {
  if (m.rows() != 1) return false;
  int64_t first = -1, last = -1;
  for (int64_t j = 0; j < m.cols(); ++j) {
    const double v = m(0, j);
    if (v != 0.0 && v != 1.0) return false;
    if (v == 1.0) {
      if (first < 0) first = j;
      last = j;
    }
  }
  if (first < 0) return false;
  for (int64_t j = first; j <= last; ++j) {
    if (m(0, j) != 1.0) return false;
  }
  *lo = first;
  *hi = last;
  return true;
}

bool IsWidthBlock(const Matrix& m, int64_t* w) {
  const int64_t n = m.cols();
  if (m.rows() < 1 || m.rows() > n) return false;
  const int64_t width = n - m.rows() + 1;
  if (width < 1) return false;
  if (m.MaxAbsDiff(WidthRangeBlock(n, width)) != 0.0) return false;
  *w = width;
  return true;
}

std::string MatrixLiteral(const Matrix& m) {
  std::ostringstream out;
  out << "matrix(" << m.rows() << "x" << m.cols() << ":";
  for (int64_t i = 0; i < m.size(); ++i) {
    if (i > 0) out << ",";
    double v = m.data()[i];
    if (v == static_cast<int64_t>(v)) {
      out << static_cast<int64_t>(v);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << buf;
    }
  }
  out << ")";
  return out.str();
}

std::string SerializeBlock(const Matrix& m) {
  int64_t lo, hi, w;
  if (IsIdentityBlock(m)) return "identity";
  if (IsTotalBlock(m)) return "total";
  if (IsIdentityTotalBlock(m)) return "identitytotal";
  if (IsPrefixBlock(m)) return "prefix";
  if (IsAllRangeBlock(m)) return "allrange";
  if (SingleRangeRow(m, &lo, &hi)) {
    if (lo == hi) return "point(" + std::to_string(lo) + ")";
    return "range(" + std::to_string(lo) + "," + std::to_string(hi) + ")";
  }
  if (IsWidthBlock(m, &w)) return "width(" + std::to_string(w) + ")";
  return MatrixLiteral(m);
}

}  // namespace

StatusOr<UnionWorkload> ParseWorkload(const std::string& text) {
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  bool have_domain = false;
  Domain domain;
  std::vector<std::string> attr_names;
  UnionWorkload result;

  while (std::getline(in, raw)) {
    ++line_no;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = Trim(raw);
    if (line.empty()) continue;
    std::vector<std::string> tokens = SplitWhitespace(line);
    const std::string keyword = Lower(tokens[0]);

    if (keyword == "domain") {
      if (have_domain) {
        return LineError(line_no, "duplicate domain declaration");
      }
      std::vector<std::string> names;
      std::vector<int64_t> sizes;
      for (size_t i = 1; i < tokens.size(); ++i) {
        std::string key, value;
        int64_t size;
        if (!SplitKeyValue(tokens[i], &key, &value) ||
            !ParseInt(value, &size) || size < 1) {
          return LineError(line_no, "bad attribute '" + tokens[i] +
                                        "' (want name=size)");
        }
        for (const std::string& existing : names) {
          if (existing == key) {
            return LineError(line_no, "duplicate attribute '" + key + "'");
          }
        }
        names.push_back(key);
        sizes.push_back(size);
      }
      if (names.empty()) {
        return LineError(line_no, "domain needs at least one attribute");
      }
      attr_names = names;
      domain = Domain(std::move(names), std::move(sizes));
      result = UnionWorkload(domain);
      have_domain = true;
      continue;
    }

    if (!have_domain) {
      return LineError(line_no, "expected a domain declaration first");
    }

    if (keyword == "product") {
      double weight = 1.0;
      std::vector<Matrix> factors;
      std::vector<bool> set(attr_names.size(), false);
      for (int i = 0; i < domain.NumAttributes(); ++i) {
        factors.push_back(TotalBlock(domain.AttributeSize(i)));
      }
      for (size_t i = 1; i < tokens.size(); ++i) {
        std::string key, value;
        if (!SplitKeyValue(tokens[i], &key, &value)) {
          return LineError(line_no, "bad token '" + tokens[i] +
                                        "' (want attr=block or weight=X)");
        }
        if (Lower(key) == "weight") {
          if (!ParseDouble(value, &weight) || weight <= 0.0) {
            return LineError(line_no, "bad weight '" + value + "'");
          }
          continue;
        }
        int attr = -1;
        for (size_t a = 0; a < attr_names.size(); ++a) {
          if (attr_names[a] == key) attr = static_cast<int>(a);
        }
        if (attr < 0) {
          return LineError(line_no, "unknown attribute '" + key + "'");
        }
        if (set[static_cast<size_t>(attr)]) {
          return LineError(line_no,
                           "attribute '" + key + "' mentioned twice");
        }
        set[static_cast<size_t>(attr)] = true;
        std::string why;
        if (!BuildBlock(value, domain.AttributeSize(attr),
                        &factors[static_cast<size_t>(attr)], &why)) {
          return LineError(line_no, why);
        }
      }
      ProductWorkload p;
      p.factors = std::move(factors);
      p.weight = weight;
      result.AddProduct(std::move(p));
      continue;
    }

    if (keyword == "marginals") {
      if (tokens.size() != 2) {
        return LineError(line_no,
                         "marginals needs exactly one of: k=K, upto=K, all");
      }
      const std::string& arg = tokens[1];
      UnionWorkload marg;
      if (Lower(arg) == "all") {
        marg = AllMarginals(domain);
      } else {
        std::string key, value;
        int64_t k;
        if (!SplitKeyValue(arg, &key, &value) || !ParseInt(value, &k) ||
            k < 0 || k > domain.NumAttributes()) {
          return LineError(
              line_no, "bad marginals argument '" + arg +
                           "' (want k=K or upto=K with 0 <= K <= d, or all)");
        }
        if (Lower(key) == "k") {
          marg = KWayMarginals(domain, static_cast<int>(k));
        } else if (Lower(key) == "upto") {
          marg = UpToKWayMarginals(domain, static_cast<int>(k));
        } else {
          return LineError(line_no, "bad marginals key '" + key + "'");
        }
      }
      for (const ProductWorkload& p : marg.products()) result.AddProduct(p);
      continue;
    }

    return LineError(line_no, "unknown directive '" + tokens[0] + "'");
  }

  if (!have_domain) {
    return Status::InvalidArgument("missing domain declaration");
  }
  if (result.NumProducts() == 0) {
    return Status::InvalidArgument("workload has no products");
  }
  return result;
}

StatusOr<UnionWorkload> LoadWorkloadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseWorkload(buffer.str());
}

std::string SerializeWorkload(const UnionWorkload& w) {
  std::ostringstream out;
  out << "domain";
  for (int i = 0; i < w.domain().NumAttributes(); ++i) {
    std::string name = w.domain().AttributeName(i);
    if (name.empty()) name = "a" + std::to_string(i + 1);
    out << " " << name << "=" << w.domain().AttributeSize(i);
  }
  out << "\n";
  for (const ProductWorkload& p : w.products()) {
    out << "product";
    if (p.weight != 1.0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", p.weight);
      out << " weight=" << buf;
    }
    for (size_t i = 0; i < p.factors.size(); ++i) {
      const std::string block = SerializeBlock(p.factors[i]);
      if (block == "total") continue;  // The default; keep lines short.
      std::string name = w.domain().AttributeName(static_cast<int>(i));
      if (name.empty()) name = "a" + std::to_string(i + 1);
      out << " " << name << "=" << block;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace hdmm
