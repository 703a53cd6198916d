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

  /// Creates from nested initializer data (each inner vector is a row).
  /// Requires all rows the same length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  /// The n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Matrix product; requires cols() == other.rows().
  Matrix multiply(const Matrix& other) const;

  /// Transpose.
  Matrix transposed() const;

  /// Matrix-vector product; requires x.size() == cols().
  std::vector<double> multiply(std::span<const double> x) const;

  /// Element-wise addition; requires matching shapes.
  Matrix add(const Matrix& other) const;

  /// Adds `value` to each diagonal element (jitter / ridge).
  void add_diagonal(double value);

  /// Frobenius norm.
  double frobenius_norm() const;

  /// True when shapes match and all elements are within `tol`.
  bool approx_equal(const Matrix& other, double tol = 1e-9) const;

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
