#include "math/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <vector>

#include "math/rng.hpp"
#include "util/error.hpp"

namespace wfr::math {
namespace {

Matrix of_rows(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (double v : row) m(r, c++) = v;
    ++r;
  }
  return m;
}

// A x.
std::vector<double> times(const Matrix& a, const std::vector<double>& x) {
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out[i] += a(i, j) * x[j];
  return out;
}

// The largest |(L L^T - A)(i, j)|: how far L is from a Cholesky factor.
double rebuild_error(const Matrix& l, const Matrix& a) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < l.cols(); ++k) s += l(i, k) * l(j, k);
      worst = std::max(worst, std::fabs(s - a(i, j)));
    }
  return worst;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
}

TEST(Matrix, AddAndDiagonal) {
  Matrix a = of_rows({{1, 0}, {0, 1}});
  a.add_diagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(Cholesky, FactorOfKnownSpdMatrix) {
  const Matrix a = of_rows({{4, 2}, {2, 3}});
  const Matrix l = cholesky(a);
  EXPECT_LE(rebuild_error(l, a), 1e-12);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // lower-triangular
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  const Matrix a = of_rows({{1, 2}, {2, 1}});
  EXPECT_THROW(cholesky(a), util::InvalidArgument);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), util::InvalidArgument);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix a = of_rows({{4, 2}, {2, 3}});
  const std::vector<double> x_true{1.0, -2.0};
  const auto b = times(a, x_true);
  const Matrix l = cholesky(a);
  const auto x = cholesky_solve(l, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
}

TEST(Cholesky, RandomSpdRoundTrip) {
  Rng rng(99);
  const std::size_t n = 20;
  // A = B B^T + n*I is SPD.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k) a(i, j) += b(i, k) * b(j, k);
  a.add_diagonal(static_cast<double>(n));
  const Matrix l = cholesky(a);
  EXPECT_LE(rebuild_error(l, a), 1e-9);

  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
  const auto rhs = times(a, x_true);
  const auto x = cholesky_solve(l, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(TriangularSolves, ForwardAndBackward) {
  const Matrix l = of_rows({{2, 0}, {1, 3}});
  const std::vector<double> b{4.0, 11.0};
  const auto y = solve_lower(l, b);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  // L^T x = y.
  const auto x = solve_upper_from_lower(l, y);
  // L^T = {{2,1},{0,3}}; solve: 3 x1 = 3 -> x1 = 1; 2 x0 + 1 = 2 -> x0 = 0.5
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
}

TEST(Dot, BasicAndMismatch) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  const std::vector<double> c{1.0};
  EXPECT_THROW(dot(a, c), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::math
