#include "kernels/reduce.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace tvbf::kernels {
namespace {

// exp_nonpositive (the Cephes expf reduction and polynomial). Below kExpLo,
// exp(x) is under half of the smallest denormal, 2^-149.
constexpr float kExpLo = -104.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;

/// 2^k for k in [-126, 127].
float pow2(int k) {
  const auto bits = static_cast<std::uint32_t>(k + 127) << 23;
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// The softmax denominator from its eight lanes (lane l holds the elements
/// j with j % 8 == l), in the order the vector code combines them.
double lane_sum(const double* l) {
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

/// Softmax over the w elements x[j * stride], into y[j * stride].
void softmax_row_scalar(const float* x, float* y, std::int64_t w,
                        std::int64_t stride = 1) {
  float m = x[0];
  for (std::int64_t j = 1; j < w; ++j) m = std::max(m, x[j * stride]);
  double lanes[8] = {};
  for (std::int64_t j = 0; j < w; ++j) {
    const float e = exp_nonpositive(x[j * stride] - m);
    y[j * stride] = e;
    lanes[j % 8] += e;
  }
  const auto inv = static_cast<float>(1.0 / lane_sum(lanes));
  for (std::int64_t j = 0; j < w; ++j) y[j * stride] *= inv;
}

void layer_norm_row_scalar(const float* x, float* y, std::int64_t w,
                           const float* g, const float* b, float epsilon,
                           float* xhat, float* inv_std) {
  double mu = 0.0;
  for (std::int64_t j = 0; j < w; ++j) mu += x[j];
  mu /= static_cast<double>(w);
  double var = 0.0;
  for (std::int64_t j = 0; j < w; ++j) {
    const double d = x[j] - mu;
    var += d * d;
  }
  var /= static_cast<double>(w);
  const auto istd = static_cast<float>(1.0 / std::sqrt(var + epsilon));
  if (inv_std != nullptr) *inv_std = istd;
  const auto muf = static_cast<float>(mu);
  for (std::int64_t j = 0; j < w; ++j) {
    const float h = (x[j] - muf) * istd;
    if (xhat != nullptr) xhat[j] = h;
    y[j] = g[j] * h + b[j];
  }
}

#ifdef __AVX2__

/// Lanes [0, n) set, for masked loads and stores of a row's tail.
__m256i lane_mask(std::int64_t n) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), lane);
}

__m256 pow2_8(__m256i k) {
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23));
}

/// exp_nonpositive on eight lanes.
__m256 exp8(__m256 x) {
  const __m256 n =
      _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kP0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP5));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  // Lanes below kExpLo (and -inf) hold garbage exponents until masked.
  const __m256i k = _mm256_cvtps_epi32(n);
  const __m256i k1 = _mm256_srai_epi32(k, 1);
  const __m256 e = _mm256_mul_ps(_mm256_mul_ps(p, pow2_8(k1)),
                                 pow2_8(_mm256_sub_epi32(k, k1)));
  return _mm256_andnot_ps(
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ), e);
}

/// Adds e's lanes 0-3 to lo and 4-7 to hi, in double.
void accumulate(__m256 e, __m256d& lo, __m256d& hi) {
  lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
  hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
}

void softmax_row_avx2(const float* x, float* y, std::int64_t w) {
  const std::int64_t body = w - w % 8;
  const __m256i tail = lane_mask(w - body);
  const __m256 neg_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 m = neg_inf;
  for (std::int64_t j = 0; j < body; j += 8)
    m = _mm256_max_ps(m, _mm256_loadu_ps(x + j));
  if (body < w)
    m = _mm256_max_ps(m, _mm256_blendv_ps(neg_inf,
                                          _mm256_maskload_ps(x + body, tail),
                                          _mm256_castsi256_ps(tail)));
  m = _mm256_max_ps(m, _mm256_permute2f128_ps(m, m, 1));
  m = _mm256_max_ps(m, _mm256_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm256_max_ps(m, _mm256_shuffle_ps(m, m, _MM_SHUFFLE(2, 3, 0, 1)));
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (std::int64_t j = 0; j < body; j += 8) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(x + j), m));
    _mm256_storeu_ps(y + j, e);
    accumulate(e, lo, hi);
  }
  if (body < w) {
    const __m256 e = _mm256_and_ps(
        exp8(_mm256_sub_ps(_mm256_maskload_ps(x + body, tail), m)),
        _mm256_castsi256_ps(tail));
    _mm256_maskstore_ps(y + body, tail, e);
    accumulate(e, lo, hi);
  }
  const __m256d s = _mm256_add_pd(lo, hi);
  const __m128d t = _mm_add_pd(_mm256_castpd256_pd128(s),
                               _mm256_extractf128_pd(s, 1));
  const double total = _mm_cvtsd_f64(_mm_add_sd(t, _mm_unpackhi_pd(t, t)));
  const __m256 inv = _mm256_set1_ps(static_cast<float>(1.0 / total));
  for (std::int64_t j = 0; j < body; j += 8)
    _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(y + j), inv));
  if (body < w)
    _mm256_maskstore_ps(
        y + body, tail,
        _mm256_mul_ps(_mm256_maskload_ps(y + body, tail), inv));
}

/// softmax_row_avx2 down columns [c0, c0 + 8) of x (rows by cols), one
/// column per lane: the max, e = exp(x - max) in place, the double sums of
/// the rows r % 8 == l for each l, combined in lane_sum's tree, and
/// e * float(1 / total).
void softmax_8columns_avx2(float* x, std::int64_t rows, std::int64_t cols,
                           std::int64_t c0) {
  const auto at = [&](std::int64_t r) { return x + c0 + r * cols; };
  // The max in two chains: exact, and a NaN anywhere makes the column all
  // NaN whichever chain it meets.
  __m256 m0 = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 m1 = m0;
  for (std::int64_t r = 0; r + 1 < rows; r += 2) {
    m0 = _mm256_max_ps(m0, _mm256_loadu_ps(at(r)));
    m1 = _mm256_max_ps(m1, _mm256_loadu_ps(at(r + 1)));
  }
  const __m256 m = _mm256_max_ps(_mm256_max_ps(m0, m1),
                                 _mm256_loadu_ps(at(rows - 1)));
  for (std::int64_t r = 0; r < rows; ++r)
    _mm256_storeu_ps(at(r), exp8(_mm256_sub_ps(_mm256_loadu_ps(at(r)), m)));
  __m256d lo[8], hi[8];
  for (std::int64_t l = 0; l < 8; ++l) {
    lo[l] = hi[l] = _mm256_setzero_pd();
    for (std::int64_t r = l; r < rows; r += 8)
      accumulate(_mm256_loadu_ps(at(r)), lo[l], hi[l]);
  }
  const auto inv_total = [](const __m256d* s) {
    const __m256d total =
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(s[0], s[4]),
                                    _mm256_add_pd(s[2], s[6])),
                      _mm256_add_pd(_mm256_add_pd(s[1], s[5]),
                                    _mm256_add_pd(s[3], s[7])));
    return _mm256_cvtpd_ps(_mm256_div_pd(_mm256_set1_pd(1.0), total));
  };
  const __m256 inv = _mm256_set_m128(inv_total(hi), inv_total(lo));
  for (std::int64_t r = 0; r < rows; ++r)
    _mm256_storeu_ps(at(r), _mm256_mul_ps(_mm256_loadu_ps(at(r)), inv));
}

/// Columns [j0, j0 + 8) of eight rows w apart, one column per vector
/// (columns at or past w read as 0): an 8 x 8 transpose of the rows' loads.
void load_columns(const float* x, std::int64_t w, std::int64_t j0,
                  __m256* col) {
  __m256 r[8];
  if (j0 + 8 <= w) {
    for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(x + i * w + j0);
  } else {
    const __m256i mask = lane_mask(w - j0);
    for (int i = 0; i < 8; ++i) r[i] = _mm256_maskload_ps(x + i * w + j0, mask);
  }
  __m256 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  __m256 u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    col[i] = _mm256_permute2f128_ps(u[i], u[i + 4], 0x20);
    col[i + 4] = _mm256_permute2f128_ps(u[i], u[i + 4], 0x31);
  }
}

/// Eight consecutive rows at once, one row per lane: each lane accumulates
/// its row's mean and variance in element order, as the scalar form does.
void layer_norm_8rows_avx2(const float* x, float* y, std::int64_t w,
                           const float* g, const float* b, float epsilon,
                           float* xhat, float* inv_std) {
  __m256 col[8];
  __m256d s_lo = _mm256_setzero_pd();
  __m256d s_hi = _mm256_setzero_pd();
  for (std::int64_t j0 = 0; j0 < w; j0 += 8) {
    load_columns(x, w, j0, col);
    for (std::int64_t j = 0; j < std::min<std::int64_t>(8, w - j0); ++j)
      accumulate(col[j], s_lo, s_hi);
  }
  const __m256d wd = _mm256_set1_pd(static_cast<double>(w));
  const __m256d mu_lo = _mm256_div_pd(s_lo, wd);
  const __m256d mu_hi = _mm256_div_pd(s_hi, wd);
  __m256d v_lo = _mm256_setzero_pd();
  __m256d v_hi = _mm256_setzero_pd();
  for (std::int64_t j0 = 0; j0 < w; j0 += 8) {
    load_columns(x, w, j0, col);
    for (std::int64_t j = 0; j < std::min<std::int64_t>(8, w - j0); ++j) {
      const __m256d d_lo = _mm256_sub_pd(
          _mm256_cvtps_pd(_mm256_castps256_ps128(col[j])), mu_lo);
      const __m256d d_hi = _mm256_sub_pd(
          _mm256_cvtps_pd(_mm256_extractf128_ps(col[j], 1)), mu_hi);
      v_lo = _mm256_add_pd(v_lo, _mm256_mul_pd(d_lo, d_lo));
      v_hi = _mm256_add_pd(v_hi, _mm256_mul_pd(d_hi, d_hi));
    }
  }
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d eps = _mm256_set1_pd(static_cast<double>(epsilon));
  const auto istd_of = [&](__m256d v) {
    return _mm256_cvtpd_ps(_mm256_div_pd(
        one, _mm256_sqrt_pd(_mm256_add_pd(_mm256_div_pd(v, wd), eps))));
  };
  alignas(32) float istd[8];
  alignas(32) float mu[8];
  _mm256_store_ps(istd, _mm256_set_m128(istd_of(v_hi), istd_of(v_lo)));
  _mm256_store_ps(mu, _mm256_set_m128(_mm256_cvtpd_ps(mu_hi),
                                      _mm256_cvtpd_ps(mu_lo)));
  const std::int64_t body = w - w % 8;
  const __m256i tail = lane_mask(w - body);
  for (std::int64_t r = 0; r < 8; ++r) {
    if (inv_std != nullptr) inv_std[r] = istd[r];
    const __m256 m = _mm256_set1_ps(mu[r]);
    const __m256 s = _mm256_set1_ps(istd[r]);
    const float* xr = x + r * w;
    float* yr = y + r * w;
    float* hr = xhat != nullptr ? xhat + r * w : nullptr;
    for (std::int64_t j = 0; j < w; j += 8) {
      const bool full = j < body;
      const __m256 xv =
          full ? _mm256_loadu_ps(xr + j) : _mm256_maskload_ps(xr + j, tail);
      const __m256 h = _mm256_mul_ps(_mm256_sub_ps(xv, m), s);
      const __m256 gv =
          full ? _mm256_loadu_ps(g + j) : _mm256_maskload_ps(g + j, tail);
      const __m256 bv =
          full ? _mm256_loadu_ps(b + j) : _mm256_maskload_ps(b + j, tail);
      const __m256 yv = _mm256_add_ps(_mm256_mul_ps(gv, h), bv);
      if (full) {
        if (hr != nullptr) _mm256_storeu_ps(hr + j, h);
        _mm256_storeu_ps(yr + j, yv);
      } else {
        if (hr != nullptr) _mm256_maskstore_ps(hr + j, tail, h);
        _mm256_maskstore_ps(yr + j, tail, yv);
      }
    }
  }
}

#endif  // __AVX2__

}  // namespace

float exp_nonpositive(float x) {
  if (!(x >= kExpLo)) return x < kExpLo ? 0.0f : x;  // underflow, -inf, NaN
  const float n = std::nearbyint(x * kLog2e);
  float r = std::fma(n, -kLn2Hi, x);
  r = std::fma(n, -kLn2Lo, r);
  float p = kP0;
  p = std::fma(p, r, kP1);
  p = std::fma(p, r, kP2);
  p = std::fma(p, r, kP3);
  p = std::fma(p, r, kP4);
  p = std::fma(p, r, kP5);
  p = std::fma(p, r * r, r);
  p = p + 1.0f;
  // 2^n as two normal factors, so results down to 2^-150 round once.
  const int k = static_cast<int>(n);
  const int k1 = k >> 1;
  return p * pow2(k1) * pow2(k - k1);
}

float max_abs_scalar(const float* x, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

void softmax_rows_scalar(const float* x, float* y, std::int64_t rows,
                         std::int64_t w) {
  for (std::int64_t r = 0; r < rows; ++r)
    softmax_row_scalar(x + r * w, y + r * w, w);
}

void softmax_columns_scalar(float* x, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t c = 0; c < cols; ++c)
    softmax_row_scalar(x + c, x + c, rows, cols);
}

void layer_norm_rows_scalar(const float* x, float* y, std::int64_t rows,
                            std::int64_t w, const float* gamma,
                            const float* beta, float epsilon, float* xhat,
                            float* inv_std) {
  for (std::int64_t r = 0; r < rows; ++r)
    layer_norm_row_scalar(x + r * w, y + r * w, w, gamma, beta, epsilon,
                          xhat != nullptr ? xhat + r * w : nullptr,
                          inv_std != nullptr ? inv_std + r : nullptr);
}

#ifdef __AVX2__

float max_abs(const float* x, std::int64_t n) {
  // max_ps(v, m) returns m when v is NaN, so NaN never enters an
  // accumulator; the maximum of the rest does not depend on the order.
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 m0 = _mm256_setzero_ps(), m1 = m0, m2 = m0, m3 = m0;
  const auto abs8 = [&](const float* p) {
    return _mm256_andnot_ps(sign, _mm256_loadu_ps(p));
  };
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(abs8(x + i), m0);
    m1 = _mm256_max_ps(abs8(x + i + 8), m1);
    m2 = _mm256_max_ps(abs8(x + i + 16), m2);
    m3 = _mm256_max_ps(abs8(x + i + 24), m3);
  }
  for (; i + 8 <= n; i += 8) m0 = _mm256_max_ps(abs8(x + i), m0);
  const __m256 m8 = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m8),
                         _mm256_extractf128_ps(m8, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  return std::max(_mm_cvtss_f32(m4), max_abs_scalar(x + i, n - i));
}

void softmax_rows(const float* x, float* y, std::int64_t rows,
                  std::int64_t w) {
  for (std::int64_t r = 0; r < rows; ++r)
    softmax_row_avx2(x + r * w, y + r * w, w);
}

void softmax_columns(float* x, std::int64_t rows, std::int64_t cols) {
  std::int64_t c = 0;
  for (; c + 8 <= cols; c += 8) softmax_8columns_avx2(x, rows, cols, c);
  for (; c < cols; ++c) softmax_row_scalar(x + c, x + c, rows, cols);
}

void layer_norm_rows(const float* x, float* y, std::int64_t rows,
                     std::int64_t w, const float* gamma, const float* beta,
                     float epsilon, float* xhat, float* inv_std) {
  std::int64_t r = 0;
  for (; r + 8 <= rows; r += 8)
    layer_norm_8rows_avx2(x + r * w, y + r * w, w, gamma, beta, epsilon,
                          xhat != nullptr ? xhat + r * w : nullptr,
                          inv_std != nullptr ? inv_std + r : nullptr);
  layer_norm_rows_scalar(x + r * w, y + r * w, rows - r, w, gamma, beta,
                         epsilon, xhat != nullptr ? xhat + r * w : nullptr,
                         inv_std != nullptr ? inv_std + r : nullptr);
}

#else

float max_abs(const float* x, std::int64_t n) { return max_abs_scalar(x, n); }

void softmax_rows(const float* x, float* y, std::int64_t rows,
                  std::int64_t w) {
  softmax_rows_scalar(x, y, rows, w);
}

void softmax_columns(float* x, std::int64_t rows, std::int64_t cols) {
  softmax_columns_scalar(x, rows, cols);
}

void layer_norm_rows(const float* x, float* y, std::int64_t rows,
                     std::int64_t w, const float* gamma, const float* beta,
                     float epsilon, float* xhat, float* inv_std) {
  layer_norm_rows_scalar(x, y, rows, w, gamma, beta, epsilon, xhat, inv_std);
}

#endif  // __AVX2__

}  // namespace tvbf::kernels
