"""LSQR for the ladder least squares (Paige and Saunders 1982).

A port of the iteration in SciPy's ``scipy.sparse.linalg.lsqr`` (SciPy
1.17), cut to what ``smfourier._LadderOperator.solve`` passes: no ``x0``,
``show`` or ``calc_var``, ``conlim`` fixed at SciPy's default 1e8, and only
(x, istop, itn) returned.  Every stop test (istop 0-7) is kept, and the
operations run in SciPy's order, so x, istop and itn match SciPy's bit for
bit.  Importing it loads no SciPy.

C. C. Paige and M. A. Saunders, LSQR: An algorithm for sparse linear
equations and sparse least squares, TOMS 8(1), 43--71 (1982).

C. C. Paige and M. A. Saunders, Algorithm 583; LSQR: Sparse linear
equations and least-squares problems, TOMS 8(2), 195--209 (1982).

The Fortran code was translated to Python for use in CVXOPT by Jeffery
Kline with contributions by Mridul Aanjaneya and Bob Myhill, and adapted
for SciPy by Stefan van der Walt.  It is licensed under the following BSD
license:

Copyright (c) 2006, Systems Optimization Laboratory
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are
met:

    * Redistributions of source code must retain the above copyright
      notice, this list of conditions and the following disclaimer.

    * Redistributions in binary form must reproduce the above
      copyright notice, this list of conditions and the following
      disclaimer in the documentation and/or other materials provided
      with the distribution.

    * Neither the name of Stanford University nor the names of its
      contributors may be used to endorse or promote products derived
      from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from math import sqrt

import numpy as np

EPS = np.finfo(np.float64).eps

# the condition-estimate limit: istop 3 once cond(Abar) passes it
CONLIM = 1e8


def _sym_ortho(a, b):
    """Stable Givens rotation (c, s, r) with c a + s b = r (S.-C. Choi,
    Iterative methods for singular linear equations and least-squares
    problems, thesis, Stanford 2006)."""
    if b == 0:
        return np.sign(a), 0, abs(a)
    elif a == 0:
        return 0, np.sign(b), abs(b)
    elif abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / sqrt(1+tau*tau)
        s = c * tau
        r = a / c
    return c, s, r


def lsqr(matvec, rmatvec, b, n, damp, atol, btol, iter_lim):
    """Least squares min ||A x - b||^2 + damp^2 ||x||^2 for the operator
    with A x = ``matvec(x)`` and A^H y = ``rmatvec(y)``, x of length n.

    Returns (x, istop, itn), with SciPy's stop reasons: 0 x = 0 is exact
    (b = 0 or A^H b = 0), 1 A x - b small given atol and btol, 2 the least
    squares solution good given atol, 3 cond(Abar) past CONLIM, 4-6 the
    same three at machine precision, 7 the iteration limit."""
    # the first vectors u and v of the bidiagonalization:
    # beta u = b - A x, alfa v = A^H u, at x = 0
    x = np.zeros(n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:          # b = 0: x = 0 is exact
        return x, 0, 0
    u = (1/bnorm) * b
    v = rmatvec(u)
    alfa = np.linalg.norm(v)
    if alfa * bnorm == 0:   # A^H b = 0: so is x
        return x, 0, 0
    v = (1/alfa) * v
    w = v.copy()

    itn = 0
    istop = 0
    ctol = 1 / CONLIM
    anorm = 0
    dampsq = damp**2
    ddnorm = 0
    res2 = 0
    xxnorm = 0
    z = 0
    cs2 = -1
    sn2 = 0
    rhobar = alfa
    phibar = bnorm

    while itn < iter_lim:
        itn = itn + 1
        # the next step of the bidiagonalization:
        # beta u = A v - alfa u, alfa v = A^H u - beta v
        u = matvec(v) - alfa * u
        beta = np.linalg.norm(u)

        if beta > 0:
            u = (1/beta) * u
            anorm = sqrt(anorm**2 + alfa**2 + beta**2 + dampsq)
            v = rmatvec(u) - beta * v
            alfa = np.linalg.norm(v)
            if alfa > 0:
                v = (1 / alfa) * v

        # a plane rotation eliminates the damping parameter, altering the
        # diagonal (rhobar) of the lower-bidiagonal matrix
        if damp > 0:
            rhobar1 = sqrt(rhobar**2 + dampsq)
            cs1 = rhobar / rhobar1
            sn1 = damp / rhobar1
            psi = sn1 * phibar
            phibar = cs1 * phibar
        else:
            rhobar1 = rhobar
            psi = 0.

        # a plane rotation eliminates the subdiagonal element (beta),
        # giving an upper-bidiagonal matrix
        cs, sn, rho = _sym_ortho(rhobar1, beta)

        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi

        # update x and w
        t1 = phi / rho
        t2 = -theta / rho
        dk = (1 / rho) * w

        x = x + t1 * w
        w = v + t2 * w
        ddnorm = ddnorm + np.linalg.norm(dk)**2

        # a plane rotation on the right eliminates the super-diagonal
        # element (theta); the result estimates norm(x)
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs = phi - delta * z
        zbar = rhs / gambar
        xnorm = sqrt(xxnorm + zbar**2)
        gamma = sqrt(gambar**2 + theta**2)
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs / gamma
        xxnorm = xxnorm + z**2

        # the convergence tests, from estimates of cond(Abar) and of the
        # norms of rbar and Abar^H rbar
        acond = anorm * sqrt(ddnorm)
        res1 = phibar**2
        res2 = res2 + psi**2
        rnorm = sqrt(res1 + res2)
        arnorm = alfa * abs(tau)

        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + EPS)
        test3 = 1 / (acond + EPS)
        t1 = test1 / (1 + anorm * xnorm / bnorm)
        rtol = btol + atol * anorm * xnorm / bnorm

        # the machine-precision tests guard against atol, btol or ctol set
        # below what the arithmetic resolves; later tests take precedence
        if itn >= iter_lim:
            istop = 7
        if 1 + test3 <= 1:
            istop = 6
        if 1 + test2 <= 1:
            istop = 5
        if 1 + t1 <= 1:
            istop = 4

        if test3 <= ctol:
            istop = 3
        if test2 <= atol:
            istop = 2
        if test1 <= rtol:
            istop = 1

        if istop != 0:
            break

    return x, istop, itn
