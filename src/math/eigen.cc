#include "math/eigen.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace psca {

EigenResult
jacobiEigenSymmetric(const Matrix &a, int max_sweeps)
{
    const size_t n = a.rows();
    PSCA_ASSERT(n == a.cols(), "eigendecomposition needs a square matrix");

    Matrix m = a;          // Working copy, driven to diagonal form.
    Matrix v = Matrix::identity(n);

    auto off_diagonal_norm = [&]() {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                sum += m(i, j) * m(i, j);
        return std::sqrt(sum);
    };

    // Scale-aware convergence threshold.
    double frob = 0.0;
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            frob += m(i, j) * m(i, j);
    const double tol = 1e-12 * std::max(std::sqrt(frob), 1e-300);

    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (off_diagonal_norm() <= tol)
            break;
        for (size_t p = 0; p < n; ++p) {
            for (size_t q = p + 1; q < n; ++q) {
                const double apq = m(p, q);
                if (std::abs(apq) <= tol / static_cast<double>(n))
                    continue;

                const double app = m(p, p);
                const double aqq = m(q, q);
                const double theta = (aqq - app) / (2.0 * apq);
                const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;

                // Rotate rows/columns p and q of the working matrix.
                for (size_t k = 0; k < n; ++k) {
                    const double mkp = m(k, p);
                    const double mkq = m(k, q);
                    m(k, p) = c * mkp - s * mkq;
                    m(k, q) = s * mkp + c * mkq;
                }
                for (size_t k = 0; k < n; ++k) {
                    const double mpk = m(p, k);
                    const double mqk = m(q, k);
                    m(p, k) = c * mpk - s * mqk;
                    m(q, k) = s * mpk + c * mqk;
                }
                // Accumulate the rotation into the eigenvector basis.
                for (size_t k = 0; k < n; ++k) {
                    const double vkp = v(k, p);
                    const double vkq = v(k, q);
                    v(k, p) = c * vkp - s * vkq;
                    v(k, q) = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return m(x, x) > m(y, y);
    });

    EigenResult result;
    result.eigenvalues.resize(n);
    result.eigenvectors = Matrix(n, n);
    for (size_t k = 0; k < n; ++k) {
        const size_t src = order[k];
        result.eigenvalues[k] = m(src, src);
        for (size_t i = 0; i < n; ++i)
            result.eigenvectors(k, i) = v(i, src);
    }
    return result;
}

} // namespace psca
