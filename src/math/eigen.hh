/**
 * @file
 * Symmetric eigendecomposition via cyclic Jacobi rotations. The
 * Perona-Freeman counter selection (Alg. 1 in the paper) extracts its
 * leading eigenvectors by power iteration (leadingEigenvectors in
 * core/pf_selection.hh); this full decomposition is the reference the
 * tests check that power iteration against.
 */

#ifndef PSCA_MATH_EIGEN_HH
#define PSCA_MATH_EIGEN_HH

#include <vector>

#include "math/matrix.hh"

namespace psca {

/** Eigendecomposition result, sorted by descending eigenvalue. */
struct EigenResult
{
    /** Eigenvalues, eigenvalues[k] pairing with eigenvector k. */
    std::vector<double> eigenvalues;
    /** Row k holds the (unit-norm) eigenvector for eigenvalues[k]. */
    Matrix eigenvectors;
};

/**
 * Full eigendecomposition of a symmetric matrix using cyclic Jacobi
 * sweeps. O(n^3) per sweep; converges in a handful of sweeps for the
 * covariance matrices this library produces (n <= ~1000).
 *
 * @param a Symmetric input matrix (only assumed symmetric, not PSD).
 * @param max_sweeps Upper bound on full Jacobi sweeps.
 * @return Eigenpairs sorted by descending eigenvalue.
 */
EigenResult jacobiEigenSymmetric(const Matrix &a, int max_sweeps = 64);

} // namespace psca

#endif // PSCA_MATH_EIGEN_HH
