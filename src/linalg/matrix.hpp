// Dense row-major matrix and vector helpers.
//
// Sized for the library's needs: coding matrices are m×k with m, k in the
// tens-to-hundreds, and the ML substrate's parameter vectors are dense
// doubles. No expression templates — clarity over peak FLOPs.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace hgc {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows×cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Construct from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// All-ones matrix (the paper's 1-matrix).
  static Matrix ones(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Re-dimension to rows×cols, reusing the existing heap buffer whenever
  /// its capacity allows (the workspace layer's no-allocation-after-warm-up
  /// guarantee depends on this). Contents are unspecified afterwards —
  /// callers are expected to overwrite every entry.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) {
    HGC_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    HGC_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  Vector col(std::size_t c) const;
  void set_row(std::size_t r, std::span<const double> values);

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product (naive triple loop with the k-loop innermost hoisted).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m);

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// --- vector helpers (used heavily by the coding and ML layers) ---

double dot(std::span<const double> a, std::span<const double> b);
/// y ← y + alpha·x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// x ← alpha·x
void scale(double alpha, std::span<double> x);
Vector add(std::span<const double> a, std::span<const double> b);

}  // namespace hgc
