#include "kernels/gemm.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/parallel.hpp"
#include "kernels/reduce.hpp"

namespace tvbf::kernels {
namespace {

// Blocking parameters. The register accumulator tile is kMr rows by two
// vectors of kVw floats, held in named locals so the compiler keeps them in
// vector registers across the whole inner-dimension sweep (an acc[MR][NR]
// array defeats scalar replacement once the loop vectorizes — gcc leaves it
// on the stack with a load+store per step). kKc bounds the inner-dimension
// slice so the B panel a tile sweeps stays cache-resident.
//
// TVBF_KERNEL_SIMD compiles this TU with -mavx2 -mfma, making the vector
// type a single YMM register; without it the 16-byte type maps to XMM.
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 128;

#if defined(__GNUC__) || defined(__clang__)
#define TVBF_GEMM_VECTOR_EXT 1
#ifdef __AVX2__
typedef float vf __attribute__((vector_size(32)));
#else
typedef float vf __attribute__((vector_size(16)));
#endif
constexpr std::int64_t kVw = sizeof(vf) / sizeof(float);

inline vf loadu(const float* p) {
  vf v;
  std::memcpy(&v, p, sizeof(vf));
  return v;
}

inline void storeu(float* p, vf v) { std::memcpy(p, &v, sizeof(vf)); }

inline vf splat(float x) {
#ifdef __AVX2__
  // One vbroadcastss; the portable element loop lowers to a 128-bit
  // broadcast plus vinsertf128 and costs ~2x in the micro-kernel.
  return reinterpret_cast<vf>(_mm256_set1_ps(x));
#else
  vf v;
  for (std::int64_t i = 0; i < kVw; ++i) v[i] = x;
  return v;
#endif
}

inline float hsum(vf v) {
  float s = 0.0f;
  for (std::int64_t i = 0; i < kVw; ++i) s += v[i];
  return s;
}
#else
constexpr std::int64_t kVw = 8;  // scalar fallback tile width
#endif

constexpr std::int64_t kNr = 2 * kVw;

/// A read through strides, element (i, p) at a[i * rs + p * cs]; tile()
/// views the rows from i0 on, from inner step p0 on.
struct StridedA {
  const float* a;
  std::int64_t rs, cs;
  float operator()(std::int64_t i, std::int64_t p) const {
    return a[i * rs + p * cs];
  }
  StridedA tile(std::int64_t i0, std::int64_t p0, std::int64_t) const {
    return {a + i0 * rs + p0 * cs, rs, cs};
  }
};

/// A read through row pointers and column offsets, element (i, p) at
/// rows[i][cols[p]]; a tile holds its rows' pointers.
struct IndirectA {
  const float* const* rows;
  const std::int64_t* cols;
  struct Tile {
    const float* r[kMr];
    const std::int64_t* cols;
    float operator()(std::int64_t i, std::int64_t p) const {
      return r[i][cols[p]];
    }
  };
  Tile tile(std::int64_t i0, std::int64_t p0, std::int64_t mr) const {
    Tile t{{}, cols + p0};
    std::copy_n(rows + i0, mr, t.r);
    return t;
  }
};

/// How a K block leaves its C tile: the first stores 0 + acc, a later one
/// c + acc; the last then applies the epilogue (bias already offset to the
/// tile's first column).
struct Finish {
  bool first = true, last = true;
  const float* bias = nullptr;
  bool relu = false;
};

inline float finish(float c, float acc, const Finish& f, std::int64_t j) {
  float v = f.first ? 0.0f + acc : c + acc;
  if (f.last && f.bias != nullptr) v += f.bias[j];
  if (f.last && f.relu) v = v > 0.0f ? v : 0.0f;
  return v;
}

/// A rounding epilogue's format, with its constants in vector lanes.
struct Rounding {
  FixedFormat fmt;
#ifdef __AVX2__
  FloatGrid grid{fmt};
#endif
};

/// Finish of a rounding epilogue's last K block: the sum is rounded, then
/// + bias and rounded again, then ReLU.
struct RoundFinish : Finish {
  Rounding r;
};

inline float finish(float c, float acc, const RoundFinish& f,
                    std::int64_t j) {
  float v = quantize_value(f.first ? 0.0f + acc : c + acc, f.r.fmt);
  if (f.bias != nullptr) v = quantize_value(v + f.bias[j], f.r.fmt);
  if (f.relu) v = v > 0.0f ? v : 0.0f;
  return v;
}

#ifdef TVBF_GEMM_VECTOR_EXT

typedef std::int32_t vi __attribute__((vector_size(sizeof(vf))));

/// finish() on kVw outputs at c, columns j..j+kVw-1 of the tile.
inline void finish(float* c, vf acc, const Finish& f, std::int64_t j) {
  vf v = f.first ? vf{} + acc : loadu(c) + acc;
  if (f.last && f.bias != nullptr) v = v + loadu(f.bias + j);
  if (f.last && f.relu)
    v = reinterpret_cast<vf>(reinterpret_cast<vi>(v) & (v > vf{}));
  storeu(c, v);
}

/// v on r's grid: in float lanes, or without AVX2 lane by lane through
/// quantize_value.
inline vf to_grid(vf v, const Rounding& r) {
#ifdef __AVX2__
  return reinterpret_cast<vf>(round8(reinterpret_cast<__m256>(v), r.grid));
#else
  for (std::int64_t i = 0; i < kVw; ++i) v[i] = quantize_value(v[i], r.fmt);
  return v;
#endif
}

inline void finish(float* c, vf acc, const RoundFinish& f, std::int64_t j) {
  vf v = to_grid(f.first ? vf{} + acc : loadu(c) + acc, f.r);
  if (f.bias != nullptr) v = to_grid(v + loadu(f.bias + j), f.r);
  if (f.relu) v = reinterpret_cast<vf>(reinterpret_cast<vi>(v) & (v > vf{}));
  storeu(c, v);
}

/// Full register tile: C[0:kMr, 0:2*kVw] (+)= A_tile . B_panel over kc
/// inner steps, B's rows ldb apart.
template <class Tile, class F>
void micro_tile2(const Tile& a, const float* b, std::int64_t ldb, float* c,
                 std::int64_t ldc, std::int64_t kc, const F& f) {
  vf c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    const vf b0 = loadu(brow);
    const vf b1 = loadu(brow + kVw);
    const vf a0 = splat(a(0, p));
    const vf a1 = splat(a(1, p));
    const vf a2 = splat(a(2, p));
    const vf a3 = splat(a(3, p));
    c00 += b0 * a0;
    c01 += b1 * a0;
    c10 += b0 * a1;
    c11 += b1 * a1;
    c20 += b0 * a2;
    c21 += b1 * a2;
    c30 += b0 * a3;
    c31 += b1 * a3;
  }
  finish(c, c00, f, 0);
  finish(c + kVw, c01, f, kVw);
  finish(c + ldc, c10, f, 0);
  finish(c + ldc + kVw, c11, f, kVw);
  finish(c + 2 * ldc, c20, f, 0);
  finish(c + 2 * ldc + kVw, c21, f, kVw);
  finish(c + 3 * ldc, c30, f, 0);
  finish(c + 3 * ldc + kVw, c31, f, kVw);
}

/// Half-width tile: C[0:kMr, 0:kVw] (+)= A_tile . B_panel.
template <class Tile, class F>
void micro_tile1(const Tile& a, const float* b, std::int64_t ldb, float* c,
                 std::int64_t ldc, std::int64_t kc, const F& f) {
  vf c0{}, c1{}, c2{}, c3{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const vf b0 = loadu(b + p * ldb);
    c0 += b0 * splat(a(0, p));
    c1 += b0 * splat(a(1, p));
    c2 += b0 * splat(a(2, p));
    c3 += b0 * splat(a(3, p));
  }
  finish(c, c0, f, 0);
  finish(c + ldc, c1, f, 0);
  finish(c + 2 * ldc, c2, f, 0);
  finish(c + 3 * ldc, c3, f, 0);
}

#endif  // TVBF_GEMM_VECTOR_EXT

/// Ragged edge tile with runtime extents (mr <= kMr, nr <= kNr).
template <class Tile, class F>
void micro_edge(const Tile& a, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc, std::int64_t kc, std::int64_t mr,
                std::int64_t nr, const F& f) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float av = a(i, p);
      for (std::int64_t j = 0; j < nr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i)
    for (std::int64_t j = 0; j < nr; ++j)
      c[i * ldc + j] = finish(c[i * ldc + j], acc[i][j], f, j);
}

/// Width of the next B panel given the remaining columns: full
/// double-vector panels, then a single-vector panel, then the ragged rest.
inline std::int64_t panel_width(std::int64_t remaining) {
  if (remaining >= 2 * kVw) return 2 * kVw;
  if (remaining >= kVw) return kVw;
  return remaining;
}

/// One K block [p0, p0 + kc) over output rows [row_begin, row_end) and
/// columns [0, nc) of c: every tile through the micro-kernels (micro_edge
/// alone when edge_only), finished by f, or by RoundFinish when it is the
/// last block of a rounding epilogue (the float path keeps its own
/// instantiation). A panel of B starts at b + kc * j with rows pw apart
/// when packed, else at b + j with rows ldb apart.
template <class A, class F>
void block_tiles(const A& a, std::int64_t p0, std::int64_t kc,
                 const float* b, bool packed, std::int64_t ldb, float* c,
                 std::int64_t ldc, std::int64_t nc, std::int64_t row_begin,
                 std::int64_t row_end, F f, bool edge_only,
                 const std::optional<Rounding>& rounding) {
  if constexpr (std::is_same_v<F, Finish>) {
    if (f.last && rounding)
      return block_tiles(a, p0, kc, b, packed, ldb, c, ldc, nc, row_begin,
                         row_end, RoundFinish{f, *rounding}, edge_only, {});
  }
  const float* bias = f.bias;
  for (std::int64_t i0 = row_begin; i0 < row_end; i0 += kMr) {
    const std::int64_t mr = std::min(kMr, row_end - i0);
    const auto at = a.tile(i0, p0, mr);
    for (std::int64_t j = 0; j < nc;) {
      const std::int64_t pw = panel_width(nc - j);
      const float* bp = packed ? b + kc * j : b + j;
      const std::int64_t ld = packed ? pw : ldb;
      float* ci = c + i0 * ldc + j;
      f.bias = bias != nullptr ? bias + j : nullptr;
#ifdef TVBF_GEMM_VECTOR_EXT
      if (!edge_only && mr == kMr && pw == 2 * kVw)
        micro_tile2(at, bp, ld, ci, ldc, kc, f);
      else if (!edge_only && mr == kMr && pw == kVw)
        micro_tile1(at, bp, ld, ci, ldc, kc, f);
      else
        micro_edge(at, bp, ld, ci, ldc, kc, mr, pw, f);
#else
      (void)edge_only;
      micro_edge(at, bp, ld, ci, ldc, kc, mr, pw, f);
#endif
      j += pw;
    }
  }
}

/// Shared panel sweep: C[row_begin:row_end) (+)= A . Bview, then the
/// epilogue unless accumulating, where A is (m, depth) and Bview is
/// (depth, n) with element (p, j) at b[p * b_rs + j * b_cs], and C rows are
/// ldc apart.
///
/// B is packed into contiguous (kc x panel) strips once per (Kc, Nc) block
/// and reused across every row tile. Packing only copies values, so B's
/// strides never change the arithmetic. Besides the cache-footprint argument,
/// packing sidesteps the power-of-two-stride conflict misses that cripple
/// unpacked sweeps at n = 128/256 (rows 512 B apart map to a handful of L1
/// sets) — this, not the FLOP count, is where the naive kernel loses.
template <class A>
void gemm_panel(const A& a, const float* b, std::int64_t b_rs,
                std::int64_t b_cs, float* c, std::int64_t ldc,
                std::int64_t depth, std::int64_t n, std::int64_t row_begin,
                std::int64_t row_end, bool accumulate,
                const Epilogue& epilogue) {
  std::optional<Rounding> rounding;
  if (epilogue.round) rounding.emplace(Rounding{*epilogue.round});
  // Per-thread pack buffer: gemm_panel never nests on one thread, and each
  // pool worker gets its own copy.
  thread_local std::vector<float> packed;
  packed.resize(static_cast<std::size_t>(
      std::min(kKc, depth) * std::min(kNc, ((n + kNr - 1) / kNr) * kNr)));
  // At depth 0 one empty K block still finishes the sums of nothing.
  const std::int64_t end =
      accumulate ? depth : std::max<std::int64_t>(depth, 1);
  for (std::int64_t p0 = 0; p0 < end; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, depth - p0);
    Finish f{!accumulate && p0 == 0, !accumulate && p0 + kc == depth,
             nullptr, epilogue.relu};
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
      const std::int64_t nc = std::min(kNc, n - jc);
      float* dst = packed.data();
      for (std::int64_t j = 0; j < nc;) {
        const std::int64_t pw = panel_width(nc - j);
        const float* src = b + p0 * b_rs + (jc + j) * b_cs;
        for (std::int64_t p = 0; p < kc; ++p) {
          if (b_cs == 1) {
            std::memcpy(dst + p * pw, src + p * b_rs,
                        static_cast<std::size_t>(pw) * sizeof(float));
          } else {
            for (std::int64_t q = 0; q < pw; ++q)
              dst[p * pw + q] = src[p * b_rs + q * b_cs];
          }
        }
        dst += kc * pw;
        j += pw;
      }
      f.bias = epilogue.bias != nullptr ? epilogue.bias + jc : nullptr;
      block_tiles(a, p0, kc, packed.data(), /*packed=*/true, 0, c + jc, ldc,
                  nc, row_begin, row_end, f, /*edge_only=*/false, rounding);
    }
  }
}

/// C = A.B with gemm_panel's arithmetic and rounding, B read in place
/// (rows ldb apart): one attention head's operands fit in L1 and need no
/// packing.
void gemm_in_place(const StridedA& a, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc, std::int64_t m,
                   std::int64_t depth, std::int64_t n, bool edge_only,
                   const std::optional<Rounding>& rounding) {
  for (std::int64_t p0 = 0; p0 < depth; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, depth - p0);
    block_tiles(a, p0, kc, b + p0 * ldb, /*packed=*/false, ldb, c, ldc, n, 0,
                m, Finish{p0 == 0, p0 + kc == depth}, edge_only, rounding);
  }
}

/// attention_block through the vector micro-kernels and softmax, or
/// (scalar) micro_edge and the scalar softmax.
void attention(const float* q, const float* k, const float* v,
               std::int64_t ld, float* out, std::int64_t ldo, std::int64_t np,
               std::int64_t dk, float scale, float* work,
               const std::optional<DatapathFormats>& formats, bool scalar) {
  std::optional<Rounding> op;
  if (formats) op.emplace(Rounding{formats->op});
  // S^T = K.Q^T: key j's row holds every query's score, so the micro-kernels
  // run across queries, and the softmax down each column.
  float* st = work;
  float* qt = work + np * np;
  for (std::int64_t i = 0; i < np; ++i)
    for (std::int64_t p = 0; p < dk; ++p) qt[p * np + i] = q[i * ld + p];
  gemm_in_place(StridedA{k, ld, 1}, qt, np, st, np, np, dk, np, scalar, op);
  for (std::int64_t i = 0; i < np * np; ++i) st[i] *= scale;
  if (formats) quantize_inplace(st, np * np, formats->op);
  (scalar ? softmax_columns_scalar : softmax_columns)(st, np, np);
  if (formats) quantize_inplace(st, np * np, formats->softmax);
  // out = P.V with P(i, j) = st[j * np + i].
  gemm_in_place(StridedA{st, 1, np}, v, ld, out, ldo, np, np, dk, scalar,
                op);
}

}  // namespace

void gemm_rows(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t row_begin,
               std::int64_t row_end, bool accumulate,
               const Epilogue& epilogue) {
  (void)m;
  gemm_panel(StridedA{a, k, 1}, b, /*b_rs=*/n, /*b_cs=*/1, c, /*ldc=*/n, k,
             n, row_begin, row_end, accumulate, epilogue);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, const Epilogue& epilogue) {
  parallel_for(
      0, static_cast<std::size_t>(m),
      [&](std::size_t rb, std::size_t re) {
        gemm_rows(a, b, c, m, k, n, static_cast<std::int64_t>(rb),
                  static_cast<std::int64_t>(re), false, epilogue);
      },
      /*min_grain=*/8);
}

void gemm_indirect_rows(const float* const* a_rows,
                        const std::int64_t* a_cols, const float* b, float* c,
                        std::int64_t k, std::int64_t n,
                        std::int64_t row_begin, std::int64_t row_end,
                        const Epilogue& epilogue) {
  gemm_panel(IndirectA{a_rows, a_cols}, b, /*b_rs=*/n, /*b_cs=*/1, c,
             /*ldc=*/n, k, n, row_begin, row_end, /*accumulate=*/false,
             epilogue);
}

void gemm_reference_rows(const float* a, const float* b, float* c,
                         [[maybe_unused]] std::int64_t m, std::int64_t k,
                         std::int64_t n, std::int64_t row_begin,
                         std::int64_t row_end) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    float* crow = c + i * n;
    std::fill(crow, crow + n, 0.0f);
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_rows(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, std::int64_t row_begin,
                  std::int64_t row_end, bool accumulate) {
  (void)m;
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t j = 0;
    // Four simultaneous dot products share each load of arow.
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      std::int64_t p = 0;
#ifdef TVBF_GEMM_VECTOR_EXT
      vf v0{}, v1{}, v2{}, v3{};
      for (; p + kVw <= k; p += kVw) {
        const vf va = loadu(arow + p);
        v0 += va * loadu(b0 + p);
        v1 += va * loadu(b1 + p);
        v2 += va * loadu(b2 + p);
        v3 += va * loadu(b3 + p);
      }
      s0 = hsum(v0);
      s1 = hsum(v1);
      s2 = hsum(v2);
      s3 = hsum(v3);
#endif
      for (; p < k; ++p) {
        const float av = arow[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      if (accumulate) {
        crow[j] += s0;
        crow[j + 1] += s1;
        crow[j + 2] += s2;
        crow[j + 3] += s3;
      } else {
        crow[j] = s0;
        crow[j + 1] = s1;
        crow[j + 2] = s2;
        crow[j + 3] = s3;
      }
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float s = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = accumulate ? crow[j] + s : s;
    }
  }
}

void gemm_tn_panel(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n, std::int64_t p_begin,
                   std::int64_t p_end) {
  gemm_panel(StridedA{a, 1, k}, b, /*b_rs=*/n, /*b_cs=*/1, c, /*ldc=*/n,
             /*depth=*/m, n, p_begin, p_end, /*accumulate=*/true, {});
}

void gemm_tn_accumulate(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  parallel_for(
      0, static_cast<std::size_t>(k),
      [&](std::size_t pb, std::size_t pe) {
        gemm_tn_panel(a, b, c, m, k, n, static_cast<std::int64_t>(pb),
                      static_cast<std::int64_t>(pe));
      },
      /*min_grain=*/8);
}

void attention_block(const float* q, const float* k, const float* v,
                     std::int64_t ld, float* out, std::int64_t ldo,
                     std::int64_t np, std::int64_t dk, float scale,
                     float* work,
                     const std::optional<DatapathFormats>& formats) {
  attention(q, k, v, ld, out, ldo, np, dk, scale, work, formats, false);
}

void attention_block_scalar(const float* q, const float* k, const float* v,
                            std::int64_t ld, float* out, std::int64_t ldo,
                            std::int64_t np, std::int64_t dk, float scale,
                            float* work,
                            const std::optional<DatapathFormats>& formats) {
  attention(q, k, v, ld, out, ldo, np, dk, scale, work, formats, true);
}

}  // namespace tvbf::kernels
