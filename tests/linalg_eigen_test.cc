#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/symmetric_eigen.h"

namespace roadpart {
namespace {

// Residual ||A v - lambda v||_2 for each pair; returns the max.
double MaxResidual(const DenseMatrix& a, const EigenResult& eig) {
  const int n = a.rows();
  double worst = 0.0;
  std::vector<double> v(n);
  std::vector<double> av(n);
  for (size_t j = 0; j < eig.eigenvalues.size(); ++j) {
    for (int i = 0; i < n; ++i) v[i] = eig.eigenvectors(i, static_cast<int>(j));
    a.Multiply(v.data(), av.data());
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = av[i] - eig.eigenvalues[j] * v[i];
      res += r * r;
    }
    worst = std::max(worst, std::sqrt(res));
  }
  return worst;
}

double MaxOrthError(const EigenResult& eig) {
  const int n = eig.eigenvectors.rows();
  const int k = eig.eigenvectors.cols();
  double worst = 0.0;
  for (int a = 0; a < k; ++a) {
    for (int b = a; b < k; ++b) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i) {
        dot += eig.eigenvectors(i, a) * eig.eigenvectors(i, b);
      }
      worst = std::max(worst, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
  }
  return worst;
}

DenseMatrix RandomSymmetric(int n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      double v = rng.NextGaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

TEST(SymmetricEigenTest, Diagonal) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  ASSERT_EQ(eig->eigenvalues.size(), 3u);
  EXPECT_NEAR(eig->eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 3.0, 1e-12);
}

TEST(SymmetricEigenTest, TwoByTwoAnalytic) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
  EXPECT_LT(MaxResidual(a, *eig), 1e-12);
}

TEST(SymmetricEigenTest, PathGraphLaplacianSpectrum) {
  // Laplacian of the path P4: eigenvalues 2 - 2cos(pi k / 4), k = 0..3.
  const int n = 4;
  DenseMatrix l(n, n);
  for (int i = 0; i + 1 < n; ++i) {
    l(i, i) += 1.0;
    l(i + 1, i + 1) += 1.0;
    l(i, i + 1) -= 1.0;
    l(i + 1, i) -= 1.0;
  }
  auto eig = SymmetricEigenDecompose(l);
  ASSERT_TRUE(eig.ok());
  for (int k = 0; k < n; ++k) {
    double expected = 2.0 - 2.0 * std::cos(M_PI * k / n);
    EXPECT_NEAR(eig->eigenvalues[k], expected, 1e-10);
  }
}

TEST(SymmetricEigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigenDecompose(DenseMatrix(2, 3)).ok());
}

TEST(SymmetricEigenTest, RejectsAsymmetric) {
  DenseMatrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 5.0;
  EXPECT_FALSE(SymmetricEigenDecompose(a).ok());
}

TEST(SymmetricEigenTest, EmptyMatrix) {
  auto eig = SymmetricEigenDecompose(DenseMatrix(0, 0));
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->eigenvalues.empty());
}

TEST(SymmetricEigenTest, OneByOne) {
  DenseMatrix a(1, 1);
  a(0, 0) = -7.5;
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], -7.5, 1e-14);
  EXPECT_NEAR(std::fabs(eig->eigenvectors(0, 0)), 1.0, 1e-14);
}

TEST(SymmetricEigenTest, TraceAndFrobeniusInvariants) {
  DenseMatrix a = RandomSymmetric(20, 99);
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  double trace = 0.0;
  double frob = 0.0;
  for (int i = 0; i < 20; ++i) {
    trace += a(i, i);
    for (int j = 0; j < 20; ++j) frob += a(i, j) * a(i, j);
  }
  double eig_sum = 0.0;
  double eig_sq = 0.0;
  for (double l : eig->eigenvalues) {
    eig_sum += l;
    eig_sq += l * l;
  }
  EXPECT_NEAR(trace, eig_sum, 1e-9);
  EXPECT_NEAR(frob, eig_sq, 1e-8);
}

// Property sweep: random symmetric matrices of many orders decompose with
// tiny residuals and orthonormal vectors.
class SymmetricEigenSweep : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricEigenSweep, ResidualAndOrthogonality) {
  const int n = GetParam();
  DenseMatrix a = RandomSymmetric(n, 1000 + n);
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  ASSERT_EQ(static_cast<int>(eig->eigenvalues.size()), n);
  // Eigenvalues ascending.
  for (size_t i = 1; i < eig->eigenvalues.size(); ++i) {
    EXPECT_LE(eig->eigenvalues[i - 1], eig->eigenvalues[i]);
  }
  double scale = std::max(std::fabs(eig->eigenvalues.front()),
                          std::fabs(eig->eigenvalues.back()));
  EXPECT_LT(MaxResidual(a, *eig), 1e-10 * std::max(scale, 1.0) * n);
  EXPECT_LT(MaxOrthError(*eig), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Orders, SymmetricEigenSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(TridiagonalEigenTest, MatchesDenseSolver) {
  // Tridiagonal with diag 2, subdiag -1 (discrete Laplacian): compare paths.
  const int n = 12;
  std::vector<double> d(n, 2.0);
  std::vector<double> e(n - 1, -1.0);
  auto tri = TridiagonalEigenDecompose(d, e);
  ASSERT_TRUE(tri.ok());
  for (int k = 1; k <= n; ++k) {
    double expected = 2.0 - 2.0 * std::cos(M_PI * k / (n + 1));
    EXPECT_NEAR(tri->eigenvalues[k - 1], expected, 1e-10);
  }
}

TEST(TridiagonalEigenTest, RejectsBadSubdiagonal) {
  EXPECT_FALSE(TridiagonalEigenDecompose({1.0, 2.0}, {0.5, 0.5}).ok());
}

TEST(TridiagonalEigenTest, DeflatesSubnormalCouplings) {
  // A unit entry next to a subnormal block: the relative deflation test
  // 1e-15 * (|d[m]| + |d[m+1]|) underflows to 0 inside the block, so the QL
  // sweep must deflate subnormal couplings on their own or it never
  // converges (seen on a recursive-bipartition sub-solve of a city cut).
  const double t = std::numeric_limits<double>::denorm_min();
  auto tri = TridiagonalEigenDecompose({1.0, t, 2 * t, 3 * t, 4 * t},
                                       {0.0, 2 * t, 3 * t, t});
  ASSERT_TRUE(tri.ok()) << tri.status().ToString();
  ASSERT_EQ(tri->eigenvalues.size(), 5u);
  EXPECT_EQ(tri->eigenvalues.back(), 1.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(std::fabs(tri->eigenvalues[i]), 1e-300);
  }
  EXPECT_LT(MaxOrthError(*tri), 1e-12);
}

}  // namespace
}  // namespace roadpart
