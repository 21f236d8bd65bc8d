"""QUADPACK's adaptive quadrature with epsilon-extrapolation, on numpy.

A line-for-line port of dqagse and the three routines it calls (R. Piessens,
E. de Doncker-Kapenga, C. W. Ueberhuber & D. K. Kahaner, QUADPACK,
Springer 1983): dqk21, the 21-point Gauss-Kronrod rule; dqpsrt, which keeps
the subintervals ordered by error estimate; and dqelg, Wynn's epsilon
algorithm (MTAC 10 (1956) 91), which extrapolates the sequence of interval
sums when the largest error sits on the smallest interval. Every sum runs
in the Fortran order and every test keeps its form, so on the same
integrand values qagse returns the value, error estimate, evaluation count
and ier of scipy.integrate.quad(f, a, b, epsabs=..., epsrel=...,
limit=...) bit for bit. What differs is the call: the integrand takes the
21 nodes of a rule as one float array and returns their 21 values.

The lists are indexed from 1, as in the Fortran, so each line can be set
against the original; slot 0 is unused.
"""

from __future__ import annotations

import sys

import numpy as np

EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max
# Wynn's table keeps at most LIMEXP elements (dqelg's limexp; rlist2 has
# LIMEXP + 2 slots).
LIMEXP = 50

# dqk21's abscissae xgk(1..10) (xgk(11) is the centre), Kronrod weights
# wgk(1..11) and Gauss weights wg(1..5); the Gauss nodes are xgk(2, 4, .., 10).
_XGK = np.array((
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
))
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21 on [a, b]: (result, abserr, resabs, resasc).

    resabs approximates the integral of |f| and resasc that of
    |f - mean f|. f gets the nodes as [centre, centre - h x_j, centre + h x_j]
    for j = 1..10 and one call.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    absc = hlgth * _XGK
    values = np.asarray(f(np.concatenate(([centr], centr - absc, centr + absc))), dtype=float)
    fc, *fv = values.tolist()
    fv1, fv2 = fv[:10], fv[10:]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):
        fsum = fv1[j] + fv2[j]
        resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):
        resk = resk + _WGK[j] * (fv1[j] + fv2[j])
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: insert the two newest intervals into the descending order of
    error estimates iord; returns (maxerr, errmax, nrmax) of the interval
    to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: one step of the epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres) with n the table's new length."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: convergence.
            return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        # Two elements very close, or an irregular table: drop its tail.
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    if n == LIMEXP:
        n = 2 * (LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """dqagse: the integral of f over [a, b] to max(epsabs, epsrel |I|).

    f takes a float array of nodes and returns their values. Returns
    (result, abserr, neval, ier), with ier as scipy.integrate.quad reports
    it: 0 converged, 1 limit subintervals used, 2 roundoff detected, 3 bad
    integrand behaviour, 4 roundoff in the extrapolation table, 5 probably
    divergent. Raises ValueError where dqagse would return ier 6.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        raise ValueError(f"qagse needs limit >= 1 and a reachable tolerance, got {limit}, {epsabs}, {epsrel}")
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # First approximation to the integral, and the test on its accuracy.
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # Roundoff, the subinterval limit, and bad behaviour at a point.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # Append the two halves, the one with the larger error at maxerr.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            exit_to = "sum"
            break
        if ier != 0:
            exit_to = "check"
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Go on bisecting until the interval to bisect is the smallest.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # The smallest interval has the largest error: first bisect the
            # larger intervals while their errors (erlarg) exceed ertest.
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Extrapolate.
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                exit_to = "check"
                break

        # Prepare to bisect the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            exit_to = "check"
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Final result and error estimate: the extrapolated value, or the sum
    # of the interval results.
    if exit_to == "check":
        if abserr == OFLOW:
            exit_to = "sum"
        elif ier + ierro == 0:
            exit_to = "divergence"
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                exit_to = "sum" if abserr / abs(result) > errsum / abs(area) else "divergence"
            elif abserr > errsum:
                exit_to = "sum"
            elif area == 0.0:
                exit_to = "done"
            else:
                exit_to = "divergence"
    if exit_to == "divergence":
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = float(np.divide(result, area))
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    elif exit_to == "sum":
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier
