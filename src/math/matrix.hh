/**
 * @file
 * Dense row-major matrix and helpers sized for this library's needs:
 * counter covariance matrices (up to ~1000 x 1000) and small ML
 * parameter blocks. Not a general BLAS; operations are written for
 * clarity with cache-friendly loop orders.
 */

#ifndef PSCA_MATH_MATRIX_HH
#define PSCA_MATH_MATRIX_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace psca {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a rows x cols matrix initialized to fill. */
    Matrix(size_t rows, size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    double &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Pointer to the start of row r. */
    double *row(size_t r) { return data_.data() + r * cols_; }
    const double *row(size_t r) const { return data_.data() + r * cols_; }

    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /** Identity matrix of size n. */
    static Matrix
    identity(size_t n)
    {
        Matrix m(n, n);
        for (size_t i = 0; i < n; ++i)
            m(i, i) = 1.0;
        return m;
    }

    /** Matrix product this * other. */
    Matrix
    multiply(const Matrix &other) const
    {
        PSCA_ASSERT(cols_ == other.rows_, "matmul shape mismatch");
        Matrix out(rows_, other.cols_);
        for (size_t i = 0; i < rows_; ++i) {
            for (size_t k = 0; k < cols_; ++k) {
                const double a = (*this)(i, k);
                if (a == 0.0)
                    continue;
                const double *brow = other.row(k);
                double *orow = out.row(i);
                for (size_t j = 0; j < other.cols_; ++j)
                    orow[j] += a * brow[j];
            }
        }
        return out;
    }

    /** Transposed copy. */
    Matrix
    transposed() const
    {
        Matrix out(cols_, rows_);
        for (size_t i = 0; i < rows_; ++i)
            for (size_t j = 0; j < cols_; ++j)
                out(j, i) = (*this)(i, j);
        return out;
    }

    /**
     * Matrix-vector product. Each output sums its row's products in
     * column order, so results are those of a plain row-by-row loop
     * bit for bit; four rows run at once so their addition chains
     * overlap instead of each waiting on its previous add.
     */
    std::vector<double>
    multiply(const std::vector<double> &v) const
    {
        PSCA_ASSERT(cols_ == v.size(), "matvec shape mismatch");
        std::vector<double> out(rows_, 0.0);
        size_t i = 0;
        for (; i + 4 <= rows_; i += 4) {
            const double *r0 = row(i);
            const double *r1 = row(i + 1);
            const double *r2 = row(i + 2);
            const double *r3 = row(i + 3);
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (size_t j = 0; j < cols_; ++j) {
                const double x = v[j];
                s0 += r0[j] * x;
                s1 += r1[j] * x;
                s2 += r2[j] * x;
                s3 += r3[j] * x;
            }
            out[i] = s0;
            out[i + 1] = s1;
            out[i + 2] = s2;
            out[i + 3] = s3;
        }
        for (; i < rows_; ++i) {
            const double *r = row(i);
            double sum = 0.0;
            for (size_t j = 0; j < cols_; ++j)
                sum += r[j] * v[j];
            out[i] = sum;
        }
        return out;
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Sample covariance of the rows-as-variables matrix X (vars x samples):
 * C[i][j] = cov(row i, row j). Rows are mean-centered internally.
 */
Matrix rowCovariance(const Matrix &x);

} // namespace psca

#endif // PSCA_MATH_MATRIX_HH
