#include "math/matrix.hpp"

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "util/error.hpp"

namespace wfr::math {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
}

TEST(Matrix, FromRowsValidatesShape) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), util::InvalidArgument);
}

TEST(Matrix, IdentityMultiplyIsNoOp) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix i = Matrix::identity(2);
  EXPECT_TRUE(a.multiply(i).approx_equal(a));
  EXPECT_TRUE(i.multiply(a).approx_equal(a));
}

TEST(Matrix, MultiplyKnownResult) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.multiply(b);
  EXPECT_TRUE(c.approx_equal(Matrix::from_rows({{19, 22}, {43, 50}})));
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), util::InvalidArgument);
}

TEST(Matrix, Transpose) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const std::vector<double> x{1.0, 1.0};
  const auto y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, AddAndDiagonal) {
  Matrix a = Matrix::from_rows({{1, 0}, {0, 1}});
  const Matrix b = a.add(a);
  EXPECT_TRUE(b.approx_equal(Matrix::from_rows({{2, 0}, {0, 2}})));
  a.add_diagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a = Matrix::from_rows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Cholesky, FactorOfKnownSpdMatrix) {
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 3}});
  const Matrix l = cholesky(a);
  EXPECT_TRUE(l.multiply(l.transposed()).approx_equal(a, 1e-12));
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // lower-triangular
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  const Matrix a = Matrix::from_rows({{1, 2}, {2, 1}});
  EXPECT_THROW(cholesky(a), util::InvalidArgument);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), util::InvalidArgument);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 3}});
  const std::vector<double> x_true{1.0, -2.0};
  const auto b = a.multiply(x_true);
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
  Matrix a = b.multiply(b.transposed());
  a.add_diagonal(static_cast<double>(n));
  const Matrix l = cholesky(a);
  EXPECT_TRUE(l.multiply(l.transposed()).approx_equal(a, 1e-9));

  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
  const auto rhs = a.multiply(x_true);
  const auto x = cholesky_solve(l, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(TriangularSolves, ForwardAndBackward) {
  const Matrix l = Matrix::from_rows({{2, 0}, {1, 3}});
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
