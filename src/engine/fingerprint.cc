#include "engine/fingerprint.h"

#include "common/hash.h"

namespace hdmm {
namespace {

// 64-bit FNV-1a via the shared hasher (common/hash.h — the same hashing the
// GramCache keys factors with). The cache tolerates collisions (a collision
// only ever causes a wrong strategy to be *validated* against the workload
// by callers that check support, or a stale disk file to be overwritten), so
// a cryptographic hash is not needed.
using Hasher = Fnv1aHasher;

uint64_t HashProduct(const ProductWorkload& p) {
  Hasher h;
  h.U64(0x70726f64);  // "prod" domain separator.
  h.F64(p.weight);
  h.I64(static_cast<int64_t>(p.factors.size()));
  for (const Matrix& f : p.factors) {
    h.I64(f.rows());
    h.I64(f.cols());
    for (int64_t i = 0; i < f.size(); ++i) h.F64(f.data()[i]);
  }
  return h.Digest();
}

void HashLbfgs(Hasher* h, const LbfgsbOptions& o) {
  h->I32(o.max_iterations);
  h->I32(o.history);
  h->F64(o.pg_tolerance);
  h->F64(o.f_tolerance);
  h->I32(o.max_line_search);
  h->F64(o.armijo_c1);
}

void HashKronOptions(Hasher* h, const OptKronOptions& o) {
  h->I64(static_cast<int64_t>(o.p.size()));
  for (int p : o.p) h->I32(p);
  h->I32(o.max_cycles);
  HashLbfgs(h, o.lbfgs);
}

}  // namespace

std::string Fingerprint::Hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<size_t>(15 - i)] = kDigits[(value >> (4 * i)) & 0xF];
  }
  return out;
}

Fingerprint FingerprintWorkload(const UnionWorkload& w) {
  Hasher h;
  h.U64(0x68646d6d77310000ULL);  // Format tag: "hdmmw1".
  // Domain shape only: attribute names are labels, not math — renaming an
  // attribute must not force a re-optimization.
  h.I32(w.domain().NumAttributes());
  for (int64_t n : w.domain().sizes()) h.I64(n);
  // Products combine with modular addition, which is commutative: the union
  // W_1 + W_2 and W_2 + W_1 are the same stacked workload up to a row
  // permutation, and expected error is row-permutation invariant.
  uint64_t products = 0;
  for (const ProductWorkload& p : w.products()) products += HashProduct(p);
  h.U64(products);
  h.I32(w.NumProducts());
  return Fingerprint{h.Digest()};
}

Fingerprint FingerprintPlan(const UnionWorkload& w,
                            const HdmmOptions& options) {
  Hasher h;
  // Format tag "hdmmp2". Bump it whenever the same options come to select
  // a different plan, so caches never serve a plan the code would not make.
  h.U64(0x68646d6d70320000ULL);
  h.U64(FingerprintWorkload(w).value);
  h.I32(options.restarts);
  h.Bool(options.use_kron);
  h.Bool(options.use_union);
  h.Bool(options.use_marginals);
  h.I32(options.max_marginals_dims);
  h.U64(options.seed);
  HashKronOptions(&h, options.kron);
  HashKronOptions(&h, options.union_opts.kron);
  h.I32(options.union_opts.max_groups);
  h.Bool(options.union_opts.optimize_budget_split);
  HashLbfgs(&h, options.marginals.lbfgs);
  return Fingerprint{h.Digest()};
}

}  // namespace hdmm
