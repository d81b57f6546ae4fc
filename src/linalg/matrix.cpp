#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "linalg/kernels.hpp"

namespace hgc {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    HGC_REQUIRE(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::ones(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  std::fill(m.data_.begin(), m.data_.end(), 1.0);
  return m;
}

std::span<double> Matrix::row(std::size_t r) {
  HGC_REQUIRE(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  HGC_REQUIRE(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

Vector Matrix::col(std::size_t c) const {
  HGC_REQUIRE(c < cols_, "column index out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  HGC_REQUIRE(values.size() == cols_, "row length mismatch");
  std::copy(values.begin(), values.end(), row(r).begin());
}

Matrix& Matrix::operator+=(const Matrix& other) {
  HGC_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  HGC_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  HGC_REQUIRE(a.cols_ == b.rows_, "inner dimensions must agree");
  Matrix out(a.rows_, b.cols_);
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t t = 0; t < a.cols_; ++t) {
      const double aij = a(i, t);
      if (aij == 0.0) continue;
      const double* brow = b.data_.data() + t * b.cols_;
      double* orow = out.data_.data() + i * out.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) orow[j] += aij * brow[j];
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c)
      os << std::setw(10) << std::setprecision(4) << m(r, c)
         << (c + 1 == m.cols() ? "" : " ");
    os << (r + 1 == m.rows() ? "]" : "\n");
  }
  return os;
}

// The checked public helpers forward to the unrolled kernels layer, so the
// whole library (ML substrate included) shares one set of inner loops.
double dot(std::span<const double> a, std::span<const double> b) {
  HGC_REQUIRE(a.size() == b.size(), "dot length mismatch");
  return kernels::dot(a, b);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  HGC_REQUIRE(x.size() == y.size(), "axpy length mismatch");
  kernels::axpy(alpha, x, y);
}

void scale(double alpha, std::span<double> x) { kernels::scal(alpha, x); }

Vector add(std::span<const double> a, std::span<const double> b) {
  HGC_REQUIRE(a.size() == b.size(), "add length mismatch");
  Vector out(a.begin(), a.end());
  axpy(1.0, b, out);
  return out;
}

}  // namespace hgc
