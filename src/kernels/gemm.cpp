#include "kernels/gemm.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"

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

#ifdef TVBF_GEMM_VECTOR_EXT

/// Full register tile: C[0:kMr, 0:2*kVw] += A_panel . B_panel over kc inner
/// steps. A is addressed through runtime strides (a_rs between C rows, a_cs
/// between inner steps) so the same kernel serves both A.B (a_rs = k,
/// a_cs = 1) and A^T.B (a_rs = 1, a_cs = k) panel sweeps.
void micro_tile2(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                 std::int64_t kc) {
  vf c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    const vf b0 = loadu(brow);
    const vf b1 = loadu(brow + kVw);
    const float* ap = a + p * a_cs;
    const vf a0 = splat(ap[0]);
    const vf a1 = splat(ap[a_rs]);
    const vf a2 = splat(ap[2 * a_rs]);
    const vf a3 = splat(ap[3 * a_rs]);
    c00 += b0 * a0;
    c01 += b1 * a0;
    c10 += b0 * a1;
    c11 += b1 * a1;
    c20 += b0 * a2;
    c21 += b1 * a2;
    c30 += b0 * a3;
    c31 += b1 * a3;
  }
  storeu(c, loadu(c) + c00);
  storeu(c + kVw, loadu(c + kVw) + c01);
  float* c1 = c + ldc;
  storeu(c1, loadu(c1) + c10);
  storeu(c1 + kVw, loadu(c1 + kVw) + c11);
  float* c2 = c + 2 * ldc;
  storeu(c2, loadu(c2) + c20);
  storeu(c2 + kVw, loadu(c2 + kVw) + c21);
  float* c3 = c + 3 * ldc;
  storeu(c3, loadu(c3) + c30);
  storeu(c3 + kVw, loadu(c3 + kVw) + c31);
}

/// Half-width tile: C[0:kMr, 0:kVw] += A_panel . B_panel.
void micro_tile1(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                 std::int64_t kc) {
  vf c0{}, c1{}, c2{}, c3{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const vf b0 = loadu(b + p * ldb);
    const float* ap = a + p * a_cs;
    c0 += b0 * splat(ap[0]);
    c1 += b0 * splat(ap[a_rs]);
    c2 += b0 * splat(ap[2 * a_rs]);
    c3 += b0 * splat(ap[3 * a_rs]);
  }
  storeu(c, loadu(c) + c0);
  storeu(c + ldc, loadu(c + ldc) + c1);
  storeu(c + 2 * ldc, loadu(c + 2 * ldc) + c2);
  storeu(c + 3 * ldc, loadu(c + 3 * ldc) + c3);
}

#endif  // TVBF_GEMM_VECTOR_EXT

/// Ragged edge tile with runtime extents (mr <= kMr, nr <= kNr).
void micro_edge(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                std::int64_t kc, std::int64_t mr, std::int64_t nr) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float av = a[i * a_rs + p * a_cs];
      for (std::int64_t j = 0; j < nr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i)
    for (std::int64_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
}

/// Width of the next packed B panel given the remaining columns: full
/// double-vector panels, then a single-vector panel, then the ragged rest.
inline std::int64_t panel_width(std::int64_t remaining) {
  if (remaining >= 2 * kVw) return 2 * kVw;
  if (remaining >= kVw) return kVw;
  return remaining;
}

/// Shared panel sweep: C[row_begin:row_end) (+)= Aview . Bview where Aview
/// is (m, depth) addressed through (a_rs, a_cs), Bview is (depth, n) with
/// element (p, j) at b[p * b_rs + j * b_cs], and C rows are ldc apart.
///
/// B is packed into contiguous (kc x panel) strips once per (Kc, Nc) block
/// and reused across every row tile. Packing only copies values, so B's
/// strides never change the arithmetic. Besides the cache-footprint argument,
/// packing sidesteps the power-of-two-stride conflict misses that cripple
/// unpacked sweeps at n = 128/256 (rows 512 B apart map to a handful of L1
/// sets) — this, not the FLOP count, is where the naive kernel loses.
void gemm_panel(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                const float* b, std::int64_t b_rs, std::int64_t b_cs,
                float* c, std::int64_t ldc, std::int64_t depth,
                std::int64_t n, std::int64_t row_begin, std::int64_t row_end,
                bool accumulate) {
  if (!accumulate)
    for (std::int64_t i = row_begin; i < row_end; ++i)
      std::fill_n(c + i * ldc, n, 0.0f);
  // Per-thread pack buffer: gemm_panel never nests on one thread, and each
  // pool worker gets its own copy.
  thread_local std::vector<float> packed;
  packed.resize(static_cast<std::size_t>(
      std::min(kKc, depth) * std::min(kNc, ((n + kNr - 1) / kNr) * kNr)));
  for (std::int64_t p0 = 0; p0 < depth; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, depth - p0);
    const float* ap = a + p0 * a_cs;
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
      for (std::int64_t i0 = row_begin; i0 < row_end; i0 += kMr) {
        const std::int64_t mr = std::min(kMr, row_end - i0);
        const float* ai = ap + i0 * a_rs;
        const float* bp = packed.data();
        for (std::int64_t j = 0; j < nc;) {
          const std::int64_t pw = panel_width(nc - j);
          float* ci = c + i0 * ldc + jc + j;
#ifdef TVBF_GEMM_VECTOR_EXT
          if (mr == kMr && pw == 2 * kVw)
            micro_tile2(ai, a_rs, a_cs, bp, pw, ci, ldc, kc);
          else if (mr == kMr && pw == kVw)
            micro_tile1(ai, a_rs, a_cs, bp, pw, ci, ldc, kc);
          else
            micro_edge(ai, a_rs, a_cs, bp, pw, ci, ldc, kc, mr, pw);
#else
          micro_edge(ai, a_rs, a_cs, bp, pw, ci, ldc, kc, mr, pw);
#endif
          bp += kc * pw;
          j += pw;
        }
      }
    }
  }
}

}  // namespace

void gemm_rows(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t row_begin,
               std::int64_t row_end, bool accumulate) {
  (void)m;
  gemm_panel(a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/n, /*b_cs=*/1, c,
             /*ldc=*/n, k, n, row_begin, row_end, accumulate);
}

void gemm_strided(const float* a, std::int64_t lda, const float* b,
                  std::int64_t b_rs, std::int64_t b_cs, float* c,
                  std::int64_t ldc, std::int64_t m, std::int64_t k,
                  std::int64_t n) {
  gemm_panel(a, /*a_rs=*/lda, /*a_cs=*/1, b, b_rs, b_cs, c, ldc, k, n, 0, m,
             /*accumulate=*/false);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  parallel_for(
      0, static_cast<std::size_t>(m),
      [&](std::size_t rb, std::size_t re) {
        gemm_rows(a, b, c, m, k, n, static_cast<std::int64_t>(rb),
                  static_cast<std::int64_t>(re));
      },
      /*min_grain=*/8);
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
  gemm_panel(a, /*a_rs=*/1, /*a_cs=*/k, b, /*b_rs=*/n, /*b_cs=*/1, c,
             /*ldc=*/n, /*depth=*/m, n, p_begin, p_end, /*accumulate=*/true);
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

}  // namespace tvbf::kernels
