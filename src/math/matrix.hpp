#pragma once
// Small dense linear algebra: a row-major Matrix, Cholesky factorization,
// and triangular solves.  Sized for the auto-tuner's Gaussian-process
// surrogate (tens to low hundreds of rows), not for HPC-scale kernels.

#include <cstddef>
#include <span>
#include <vector>

namespace wfr::math {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Adds `value` to each diagonal element (jitter / ridge).
  void add_diagonal(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor L of a symmetric positive-definite A
/// (A = L * L^T).  Throws InvalidArgument when A is not square or not
/// positive definite.
Matrix cholesky(const Matrix& a);

/// Solves L y = b for lower-triangular L (forward substitution).
std::vector<double> solve_lower(const Matrix& l, std::span<const double> b);

/// Solves L^T x = y for lower-triangular L (back substitution on the
/// transpose).
std::vector<double> solve_upper_from_lower(const Matrix& l,
                                           std::span<const double> y);

/// Solves A x = b using the Cholesky factor `l` of A.
std::vector<double> cholesky_solve(const Matrix& l, std::span<const double> b);

/// Dot product; requires equal sizes.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace wfr::math
