/**
 * @file
 * Unit and property tests for the linear-algebra kernels.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/pf_selection.hh"
#include "math/eigen.hh"
#include "math/matrix.hh"

using namespace psca;

TEST(Matrix, IdentityMultiply)
{
    Matrix a(3, 3);
    int v = 1;
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = v++;
    const Matrix r = a.multiply(Matrix::identity(3));
    for (size_t i = 0; i < 3; ++i)
        for (size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(r(i, j), a(i, j));
}

TEST(Matrix, MultiplyKnownValues)
{
    Matrix a(2, 3), b(3, 2);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    double av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data().begin());
    std::copy(bv, bv + 6, b.data().begin());
    const Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 58);
    EXPECT_DOUBLE_EQ(c(0, 1), 64);
    EXPECT_DOUBLE_EQ(c(1, 0), 139);
    EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, TransposeRoundTrip)
{
    Rng rng(5);
    Matrix a(4, 7);
    for (auto &v : a.data())
        v = rng.gaussian();
    const Matrix t = a.transposed().transposed();
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 7; ++j)
            EXPECT_DOUBLE_EQ(t(i, j), a(i, j));
}

TEST(Matrix, MatVec)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
    const auto r = a.multiply(std::vector<double>{5, 6});
    EXPECT_DOUBLE_EQ(r[0], 17);
    EXPECT_DOUBLE_EQ(r[1], 39);
}

TEST(Matrix, MatVecMatchesRowByRowSums)
{
    // multiply(v) runs four rows at a time; every element must still
    // be bit-identical to summing its row in column order, for row
    // counts on and off the block size.
    Rng rng(0x3a7);
    for (size_t rows : {1, 3, 4, 5, 8, 37, 300}) {
        for (size_t cols : {1, 2, 17, 300}) {
            Matrix a(rows, cols);
            std::vector<double> v(cols);
            for (double &x : a.data())
                x = rng.gaussian(0.0, 3.0);
            for (double &x : v)
                x = rng.gaussian(0.0, 3.0);
            const std::vector<double> out = a.multiply(v);
            ASSERT_EQ(out.size(), rows);
            for (size_t i = 0; i < rows; ++i) {
                double sum = 0.0;
                for (size_t j = 0; j < cols; ++j)
                    sum += a(i, j) * v[j];
                EXPECT_EQ(out[i], sum)
                    << rows << "x" << cols << " row " << i;
            }
        }
    }
}

TEST(Covariance, DiagonalIsVariance)
{
    Rng rng(7);
    Matrix x(2, 500);
    for (size_t t = 0; t < 500; ++t) {
        x(0, t) = rng.gaussian(0.0, 2.0);
        x(1, t) = rng.gaussian(5.0, 1.0);
    }
    const Matrix c = rowCovariance(x);
    EXPECT_NEAR(c(0, 0), 4.0, 0.6);
    EXPECT_NEAR(c(1, 1), 1.0, 0.2);
    EXPECT_NEAR(c(0, 1), 0.0, 0.3);
    EXPECT_DOUBLE_EQ(c(0, 1), c(1, 0));
}

TEST(Covariance, PerfectCorrelation)
{
    Rng rng(11);
    Matrix x(2, 200);
    for (size_t t = 0; t < 200; ++t) {
        const double v = rng.gaussian();
        x(0, t) = v;
        x(1, t) = 3.0 * v;
    }
    const Matrix c = rowCovariance(x);
    EXPECT_NEAR(c(0, 1) / std::sqrt(c(0, 0) * c(1, 1)), 1.0, 1e-9);
}

namespace {

/** Random symmetric matrix. */
Matrix
randomSymmetric(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
            m(i, j) = rng.gaussian();
            m(j, i) = m(i, j);
        }
    }
    return m;
}

} // namespace

class JacobiSizes : public ::testing::TestWithParam<size_t>
{};

TEST_P(JacobiSizes, EigenDecompositionProperties)
{
    const size_t n = GetParam();
    const Matrix a = randomSymmetric(n, 1000 + n);
    const EigenResult e = jacobiEigenSymmetric(a);

    // Sorted descending.
    for (size_t k = 1; k < n; ++k)
        EXPECT_GE(e.eigenvalues[k - 1], e.eigenvalues[k] - 1e-9);

    // Eigenvectors orthonormal.
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
            double dot = 0.0;
            for (size_t c = 0; c < n; ++c)
                dot += e.eigenvectors(i, c) * e.eigenvectors(j, c);
            EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-7);
        }
    }

    // A v = lambda v for each pair.
    for (size_t k = 0; k < n; ++k) {
        std::vector<double> v(n);
        for (size_t c = 0; c < n; ++c)
            v[c] = e.eigenvectors(k, c);
        const auto av = a.multiply(v);
        for (size_t c = 0; c < n; ++c)
            EXPECT_NEAR(av[c], e.eigenvalues[k] * v[c], 1e-6);
    }

    // Trace preserved.
    double trace = 0.0, sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        trace += a(i, i);
        sum += e.eigenvalues[i];
    }
    EXPECT_NEAR(trace, sum, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiSizes,
                         ::testing::Values(2, 3, 5, 8, 16, 32));

TEST(PowerIteration, MatchesJacobiOnPsd)
{
    // PSD matrix: A = B B^T.
    Rng rng(77);
    Matrix b(10, 20);
    for (auto &v : b.data())
        v = rng.gaussian();
    const Matrix a = b.multiply(b.transposed());

    const EigenResult jac = jacobiEigenSymmetric(a);
    const Matrix top = leadingEigenvectors(a, 2, 500);

    for (size_t k = 0; k < 2; ++k) {
        // Compare up to sign.
        double dot = 0.0;
        for (size_t c = 0; c < 10; ++c)
            dot += top(k, c) * jac.eigenvectors(k, c);
        EXPECT_NEAR(std::abs(dot), 1.0, 1e-3);
    }
}

TEST(Jacobi, KnownTwoByTwo)
{
    Matrix a(2, 2);
    a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
    const EigenResult e = jacobiEigenSymmetric(a);
    EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-10);
    EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-10);
}
