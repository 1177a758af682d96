// CsrMatrix: compressed-sparse-row matrix of doubles.
//
// Cascade graph operators (adjacency, Laplacians, Chebyshev polynomials of
// the Laplacian) are sparse: a cascade with n nodes has O(n) edges. Graph
// convolutions multiply these operators with dense node-feature matrices, so
// the central kernel here is SpMM (sparse x dense -> dense).

#ifndef CASCN_TENSOR_CSR_MATRIX_H_
#define CASCN_TENSOR_CSR_MATRIX_H_

#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "tensor/tensor.h"

namespace cascn {

/// One entry of a sparse matrix in coordinate form.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Columns [begin, end) of a matrix.
struct ColumnRange {
  int begin = 0;
  int end = 0;
};

/// Immutable sparse matrix in CSR layout. Every constructor lists each
/// row's entries in ascending column order, so the entries of a row in a
/// ColumnRange are one contiguous run.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Builds from coordinate triplets; duplicate (row, col) entries are
  /// summed. Pre: all coordinates within [0, rows) x [0, cols).
  static CsrMatrix FromTriplets(int rows, int cols,
                                std::vector<Triplet> triplets);

  /// Converts a dense matrix, dropping exact zeros.
  static CsrMatrix FromDense(const Tensor& dense);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int nnz() const { return static_cast<int>(values_.size()); }

  const obs::TrackedVector<int>& row_offsets() const { return row_offsets_; }
  const obs::TrackedVector<int>& col_indices() const { return col_indices_; }
  const obs::TrackedVector<double>& values() const { return values_; }

  /// The entries [first, last) of row `row` whose columns lie in
  /// `columns`: one run, since a row lists its entries by ascending column.
  std::pair<int, int> EntriesIn(int row, ColumnRange columns) const {
    int first = row_offsets_[row];
    const int stop = row_offsets_[row + 1];
    while (first < stop && col_indices_[first] < columns.begin) ++first;
    int last = first;
    while (last < stop && col_indices_[last] < columns.end) ++last;
    return {first, last};
  }

  /// Dense copy.
  Tensor ToDense() const;

  /// this * dense. Pre: cols() == dense.rows().
  Tensor MatMulDense(const Tensor& dense) const;

  /// this^T * dense without materialising the transpose.
  /// Pre: rows() == dense.rows().
  Tensor TransposeMatMulDense(const Tensor& dense) const;

  /// Rows [first, first + count) as a count x cols() matrix, keeping only
  /// the entries in `columns`.
  /// Pre: 0 <= columns.begin <= columns.end <= cols().
  CsrMatrix RowBlock(int first, int count, ColumnRange columns) const;

 private:
  friend class CsrRowBuilder;
  friend CsrMatrix StackedProducts(const std::vector<CsrMatrix>& lefts,
                                   const CsrMatrix& right);

  int rows_ = 0;
  int cols_ = 0;
  // Tracked so the profiler can account live/peak operator bytes.
  obs::TrackedVector<int> row_offsets_;  // size rows_ + 1
  obs::TrackedVector<int> col_indices_;  // size nnz
  obs::TrackedVector<double> values_;    // size nnz
};

/// Builds a CsrMatrix in row order, with no triplets and no sort: Append
/// adds an entry to the open row and EndRow closes it. A row's columns must
/// ascend; rows not closed when Build runs are empty.
class CsrRowBuilder {
 public:
  /// `capacity` reserves room for that many entries.
  CsrRowBuilder(int rows, int cols, int capacity);

  void Append(int col, double value) {
    m_.col_indices_.push_back(col);
    m_.values_.push_back(value);
  }
  void EndRow() {
    m_.row_offsets_.push_back(static_cast<int>(m_.values_.size()));
  }

  /// The matrix. Checks that at most rows() rows were closed and that each
  /// row's columns ascend strictly within [0, cols()).
  CsrMatrix Build() &&;

 private:
  CsrMatrix m_;
};

/// Every product lefts[k] * right, stacked as row blocks of one matrix:
/// block k is rows [k m, (k + 1) m) for lefts of m rows. Entry (r, c) of a
/// block sums lefts[k](r, i) x over right's entries (i, x) in column c, i
/// ascending, from 0.0; an entry that sums to exactly zero is dropped. Made
/// for a few small left operands and a right operand with few entries, such
/// as the encoder's T_k X: each left operand is read from a dense copy, so
/// a block reads just the entries the right operand's columns need, and the
/// stack takes one set of arrays. Pre: the lefts share one shape m x n,
/// right is n x c, and right's values are finite (a dense copy reads a
/// missing entry of a left as 0.0, which must add an exact zero).
CsrMatrix StackedProducts(const std::vector<CsrMatrix>& lefts,
                          const CsrMatrix& right);

}  // namespace cascn

#endif  // CASCN_TENSOR_CSR_MATRIX_H_
