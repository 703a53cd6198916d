#include "math/matrix.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const std::size_t cols = rows[0].size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    util::require(rows[r].size() == cols,
                  "Matrix::from_rows requires equal-length rows");
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  return data_[r * cols_ + c];
}

Matrix Matrix::multiply(const Matrix& other) const {
  util::require(cols_ == other.rows_, "matrix multiply shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  util::require(x.size() == cols_, "matrix-vector shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += (*this)(i, j) * x[j];
    out[i] = s;
  }
  return out;
}

Matrix Matrix::add(const Matrix& other) const {
  util::require(rows_ == other.rows_ && cols_ == other.cols_,
                "matrix add shape mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + other.data_[i];
  return out;
}

void Matrix::add_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  return true;
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
