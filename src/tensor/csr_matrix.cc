#include "tensor/csr_matrix.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace cascn {

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols,
                                  std::vector<Triplet> triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.row_offsets_.assign(rows + 1, 0);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size(); ++i) {
    const Triplet& t = triplets[i];
    CASCN_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols)
        << "triplet out of bounds";
    if (!m.col_indices_.empty() && i > 0 && triplets[i - 1].row == t.row &&
        triplets[i - 1].col == t.col) {
      m.values_.back() += t.value;  // merge duplicates
      continue;
    }
    m.col_indices_.push_back(t.col);
    m.values_.push_back(t.value);
    ++m.row_offsets_[t.row + 1];
  }
  for (int r = 0; r < rows; ++r) m.row_offsets_[r + 1] += m.row_offsets_[r];
  return m;
}

CsrRowBuilder::CsrRowBuilder(int rows, int cols, int capacity) {
  CASCN_CHECK(rows >= 0 && cols >= 0 && capacity >= 0);
  m_.rows_ = rows;
  m_.cols_ = cols;
  m_.row_offsets_.reserve(rows + 1);
  m_.row_offsets_.push_back(0);
  m_.col_indices_.reserve(capacity);
  m_.values_.reserve(capacity);
}

CsrMatrix CsrRowBuilder::Build() && {
  const int closed = static_cast<int>(m_.row_offsets_.size()) - 1;
  CASCN_CHECK(closed <= m_.rows_) << "more rows than the matrix has";
  for (int r = 0; r < closed; ++r) {
    int previous = -1;
    for (int k = m_.row_offsets_[r]; k < m_.row_offsets_[r + 1]; ++k) {
      CASCN_CHECK(m_.col_indices_[k] > previous &&
                  m_.col_indices_[k] < m_.cols_)
          << "row " << r << "'s columns must ascend within the matrix";
      previous = m_.col_indices_[k];
    }
  }
  CASCN_CHECK(m_.row_offsets_.back() == static_cast<int>(m_.values_.size()))
      << "entries appended after the last closed row";
  m_.row_offsets_.resize(m_.rows_ + 1, m_.row_offsets_.back());
  return std::move(m_);
}

CsrMatrix CsrMatrix::FromDense(const Tensor& dense) {
  CsrRowBuilder out(dense.rows(), dense.cols(), 0);
  for (int i = 0; i < dense.rows(); ++i) {
    for (int j = 0; j < dense.cols(); ++j)
      if (dense.At(i, j) != 0.0) out.Append(j, dense.At(i, j));
    out.EndRow();
  }
  return std::move(out).Build();
}

Tensor CsrMatrix::ToDense() const {
  Tensor out(rows_, cols_);
  for (int r = 0; r < rows_; ++r)
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      out.At(r, col_indices_[k]) += values_[k];
  return out;
}

Tensor CsrMatrix::MatMulDense(const Tensor& dense) const {
  CASCN_CHECK(cols_ == dense.rows());
  Tensor out(rows_, dense.cols());
  const int n = dense.cols();
  for (int r = 0; r < rows_; ++r) {
    double* orow = out.data() + static_cast<size_t>(r) * n;
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const double v = values_[k];
      const double* drow =
          dense.data() + static_cast<size_t>(col_indices_[k]) * n;
      for (int j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

Tensor CsrMatrix::TransposeMatMulDense(const Tensor& dense) const {
  CASCN_CHECK(rows_ == dense.rows());
  Tensor out(cols_, dense.cols());
  const int n = dense.cols();
  for (int r = 0; r < rows_; ++r) {
    const double* drow = dense.data() + static_cast<size_t>(r) * n;
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const double v = values_[k];
      double* orow = out.data() + static_cast<size_t>(col_indices_[k]) * n;
      for (int j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

CsrMatrix CsrMatrix::RowBlock(int first, int count,
                              ColumnRange columns) const {
  CASCN_CHECK(first >= 0 && count >= 0 && first + count <= rows_);
  CASCN_CHECK(0 <= columns.begin && columns.begin <= columns.end &&
              columns.end <= cols_);
  CsrMatrix block;
  block.rows_ = count;
  block.cols_ = cols_;
  block.row_offsets_.assign(count + 1, 0);
  const int bound = row_offsets_[first + count] - row_offsets_[first];
  block.col_indices_.reserve(bound);
  block.values_.reserve(bound);
  for (int r = 0; r < count; ++r) {
    const auto [begin, end] = EntriesIn(first + r, columns);
    block.col_indices_.insert(block.col_indices_.end(),
                              col_indices_.begin() + begin,
                              col_indices_.begin() + end);
    block.values_.insert(block.values_.end(), values_.begin() + begin,
                         values_.begin() + end);
    block.row_offsets_[r + 1] = static_cast<int>(block.values_.size());
  }
  return block;
}

CsrMatrix StackedProducts(const std::vector<CsrMatrix>& lefts,
                          const CsrMatrix& right) {
  CASCN_CHECK(!lefts.empty());
  const int m = lefts[0].rows_, n = lefts[0].cols_, cols = right.cols_;
  for (const CsrMatrix& a : lefts) CASCN_CHECK(a.rows_ == m && a.cols_ == n);
  CASCN_CHECK(right.rows_ == n);
  const size_t order = lefts.size();

  // Each left's rows up to its last entry, and a dense copy of those rows.
  std::vector<int> reached(order, 0);
  std::vector<std::vector<double>> dense(order);
  for (size_t k = 0; k < order; ++k) {
    for (int r = 0; r < m; ++r)
      if (lefts[k].row_offsets_[r] < lefts[k].row_offsets_[r + 1])
        reached[k] = r + 1;
    dense[k].assign(static_cast<size_t>(reached[k]) * n, 0.0);
    for (int r = 0; r < reached[k]; ++r)
      for (int e = lefts[k].row_offsets_[r]; e < lefts[k].row_offsets_[r + 1];
           ++e)
        dense[k][static_cast<size_t>(r) * n + lefts[k].col_indices_[e]] =
            lefts[k].values_[e];
  }
  // Blocks are written into scratch sized for the most entries they can
  // have, then copied into exactly-sized arrays.
  size_t most = 0;
  for (size_t k = 0; k < order; ++k)
    most += right.values_.size() * static_cast<size_t>(reached[k]);
  const std::unique_ptr<int[]> out_cols(new int[most]);
  const std::unique_ptr<double[]> out_values(new double[most]);
  size_t count = 0;

  // right by columns: each entry's row and value in column order, and for
  // each column with entries, the column and one past its last entry.
  std::vector<int> start(cols + 1, 0), entry_rows(right.values_.size()),
      columns, column_end;
  std::vector<double> entry_values(right.values_.size());
  for (const int c : right.col_indices_) ++start[c + 1];
  for (int c = 0; c < cols; ++c) {
    start[c + 1] += start[c];
    if (start[c + 1] > start[c]) {
      columns.push_back(c);
      column_end.push_back(start[c + 1]);
    }
  }
  for (int r = 0; r < n; ++r) {
    for (int e = right.row_offsets_[r]; e < right.row_offsets_[r + 1]; ++e) {
      const int at = start[right.col_indices_[e]]++;
      entry_rows[at] = r;
      entry_values[at] = right.values_[e];
    }
  }

  CsrMatrix out;
  out.rows_ = static_cast<int>(order) * m;
  out.cols_ = cols;
  out.row_offsets_.assign(out.rows_ + 1, 0);
  int* offsets = out.row_offsets_.data();
  for (size_t k = 0; k < order; ++k) {
    // Row r at column c sums a(r, i) x over column c's entries (i, x) from
    // 0.0 with i ascending. Where a has no entry the
    // term is an exact zero, which changes no sum; an entry that sums to
    // exactly zero is dropped.
    for (int r = 0; r < m; ++r, ++offsets) {
      if (r < reached[k]) {
        const double* a = dense[k].data() + static_cast<size_t>(r) * n;
        int e = 0;
        for (size_t i = 0; i < columns.size(); ++i) {
          double sum = 0.0;
          for (; e < column_end[i]; ++e)
            sum += a[entry_rows[e]] * entry_values[e];
          out_cols[count] = columns[i];
          out_values[count] = sum;
          count += sum != 0.0;
        }
      }
      offsets[1] = static_cast<int>(count);
    }
  }
  out.col_indices_.assign(out_cols.get(), out_cols.get() + count);
  out.values_.assign(out_values.get(), out_values.get() + count);
  return out;
}

}  // namespace cascn
