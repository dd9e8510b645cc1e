#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace roadpart {

namespace {

double Hypot2(double a, double b) { return std::hypot(a, b); }

// Householder reduction of symmetric `z` (n x n) to tridiagonal form with
// accumulation of the orthogonal transform in `z`. On return `d` holds the
// diagonal and `e[1..n-1]` the sub-diagonal (e[0] = 0). Classic EISPACK
// tred2 translated to 0-based indexing.
void Tred2(DenseMatrix& z, std::vector<double>& d, std::vector<double>& e) {
  const int n = z.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);

  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (int k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = z(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Accumulate transformations.
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (d[i] != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += z(i, k) * z(k, j);
        for (int k = 0; k <= l; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

// Implicit-shift QL iteration on a tridiagonal matrix, updating the
// eigenvector matrix `z` (n x n, starts as the accumulated Householder
// transform or identity). Classic EISPACK tql2 / NR tqli.
Status Tql2(std::vector<double>& d, std::vector<double>& e, DenseMatrix& z) {
  const int n = static_cast<int>(d.size());
  if (n == 0) return Status::OK();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      for (m = l; m < n - 1; ++m) {
        double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        // The relative test underflows to 0 when d and e are subnormal, so
        // a subnormal coupling deflates on its own.
        if (std::fabs(e[m]) <= 1e-15 * dd ||
            std::fabs(e[m]) < std::numeric_limits<double>::min()) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == 128) {
          return Status::NotConverged(
              StrPrintf("QL iteration failed at eigenvalue %d", l));
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (int i = m - 1; i >= l; --i) {
          double f = s * e[i];
          double b = c * e[i];
          r = Hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (int k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && m - 1 >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

// Sorts eigenpairs ascending by eigenvalue.
void SortAscending(std::vector<double>& d, DenseMatrix& z) {
  const int n = static_cast<int>(d.size());
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return d[a] < d[b]; });

  std::vector<double> d_sorted(n);
  DenseMatrix z_sorted(z.rows(), n);
  for (int j = 0; j < n; ++j) {
    d_sorted[j] = d[order[j]];
    for (int i = 0; i < z.rows(); ++i) z_sorted(i, j) = z(i, order[j]);
  }
  d = std::move(d_sorted);
  z = std::move(z_sorted);
}

}  // namespace

Result<EigenResult> SymmetricEigenDecompose(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("matrix must be square");
  }
  const int n = a.rows();
  if (n == 0) {
    return EigenResult{{}, DenseMatrix(0, 0), true, 0.0};
  }

  // Work on the symmetric part; reject badly asymmetric or non-finite
  // input.
  double scale = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!std::isfinite(a(i, j))) {
        return Status::InvalidArgument("matrix has non-finite entries");
      }
      scale = std::max(scale, std::fabs(a(i, j)));
    }
  }
  if (scale > 0.0 && a.SymmetryError() > 1e-8 * scale) {
    return Status::InvalidArgument("matrix is not symmetric");
  }

  // Scale to unit magnitude so near-underflow entries (e.g. products of
  // sharp Gaussian weights) cannot stall the QL shifts.
  const double inv_scale = scale > 0.0 ? 1.0 / scale : 1.0;
  DenseMatrix z(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      z(i, j) = 0.5 * (a(i, j) + a(j, i)) * inv_scale;
    }
  }

  std::vector<double> d;
  std::vector<double> e;
  Tred2(z, d, e);
  RP_RETURN_IF_ERROR(Tql2(d, e, z));
  SortAscending(d, z);
  if (scale > 0.0) {
    for (double& v : d) v *= scale;
  }

  EigenResult result;
  result.eigenvalues = std::move(d);
  result.eigenvectors = std::move(z);
  result.converged = true;

  // Residual of the extreme pairs as a cheap health indicator.
  std::vector<double> x(n);
  std::vector<double> y(n);
  double max_res = 0.0;
  for (int which : {0, n - 1}) {
    for (int i = 0; i < n; ++i) x[i] = result.eigenvectors(i, which);
    a.Multiply(x.data(), y.data());
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = y[i] - result.eigenvalues[which] * x[i];
      res += r * r;
    }
    max_res = std::max(max_res, std::sqrt(res));
  }
  result.max_residual = max_res;
  return result;
}

Result<EigenResult> TridiagonalEigenDecompose(const std::vector<double>& d_in,
                                              const std::vector<double>& e_in) {
  const int n = static_cast<int>(d_in.size());
  if (n > 0 && static_cast<int>(e_in.size()) != n - 1) {
    return Status::InvalidArgument("sub-diagonal must have n-1 entries");
  }
  std::vector<double> d = d_in;
  // Tql2 expects e[i] to be the coupling between i-1 and i after its initial
  // shift; feed it in the tred2 layout (e[0] unused, e[i] couples i-1,i).
  std::vector<double> e(n, 0.0);
  for (int i = 1; i < n; ++i) e[i] = e_in[i - 1];
  // Scale to unit magnitude: extreme dynamic ranges (e.g. near-underflow
  // edge weights) otherwise stall the QL shifts.
  double scale = 0.0;
  for (double v : d) scale = std::max(scale, std::fabs(v));
  for (double v : e) scale = std::max(scale, std::fabs(v));
  if (scale > 0.0) {
    for (double& v : d) v /= scale;
    for (double& v : e) v /= scale;
  }
  DenseMatrix z = DenseMatrix::Identity(n);
  RP_RETURN_IF_ERROR(Tql2(d, e, z));
  SortAscending(d, z);
  if (scale > 0.0) {
    for (double& v : d) v *= scale;
  }
  EigenResult result;
  result.eigenvalues = std::move(d);
  result.eigenvectors = std::move(z);
  return result;
}

}  // namespace roadpart
