#include "math/matrix.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  return data_[r * cols_ + c];
}

void Matrix::add_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

Matrix cholesky(const Matrix& a) {
  util::require(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0)
      throw util::InvalidArgument(util::format(
          "cholesky: matrix not positive definite at pivot %zu (%g)", j, diag));
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

std::vector<double> solve_lower(const Matrix& l, std::span<const double> b) {
  util::require(l.rows() == l.cols() && b.size() == l.rows(),
                "solve_lower shape mismatch");
  const std::size_t n = l.rows();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  return y;
}

std::vector<double> solve_upper_from_lower(const Matrix& l,
                                           std::span<const double> y) {
  util::require(l.rows() == l.cols() && y.size() == l.rows(),
                "solve_upper_from_lower shape mismatch");
  const std::size_t n = l.rows();
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& l, std::span<const double> b) {
  return solve_upper_from_lower(l, solve_lower(l, b));
}

double dot(std::span<const double> a, std::span<const double> b) {
  util::require(a.size() == b.size(), "dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace wfr::math
